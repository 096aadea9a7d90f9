//! The 1D active framework — Section 3 of the paper (Lemma 9) together
//! with its *weighted view* (Section 3.5, Lemma 13).
//!
//! Given `m` items sorted ascending in a total (chain) order, with hidden
//! labels behind an oracle, the recursion produces a *fully-labeled
//! weighted sample* Σ such that `w-err_Σ(h)` approximates `err(h)` well
//! enough for the ε-comparison property: minimizing `w-err_Σ` yields a
//! `(1+ε)`-approximate classifier.
//!
//! Per recursion level on a sub-range `P` of size `m`:
//!
//! 1. estimate `err_P(h^b)` for every boundary `b` by a with-replacement
//!    sample `S₁` (`g₁`, equation (11));
//! 2. find the window `[α, β]` of boundaries whose estimated error drops
//!    below `m·(1/4 − φ)`; if none exists, Σ gains `S₁` (weight `m/|S₁|`)
//!    and the recursion stops (the error is provably large everywhere, so
//!    relative error is controlled);
//! 3. otherwise Σ gains a sample `S₂` of `P \ P'` (weight
//!    `|P \ P'|/|S₂|`, the `g₂` of equation (28)) and the recursion
//!    descends into `P' = P ∩ [α, β]`, which Lemma 10 bounds by `(5/8)m`.
//!
//! ## Faithfulness vs. practicality
//!
//! The paper fixes `φ = ε/256`; the resulting constants (`3·256²/ε²·ln…`
//! draws per level) are chosen for proof convenience, not practice. The
//! divisor is therefore a parameter ([`OneDimParams::phi_divisor`]):
//! `256` reproduces the paper's constants, the default `8` keeps the same
//! asymptotic shape (`O(ε⁻²·log n·log(n/δ))` probes) with laptop-scale
//! constants. Whenever the prescribed sample size reaches the sub-range
//! size, the level degrades gracefully to probing everything (which makes
//! that level's contribution to Σ exact).
//!
//! # Example
//!
//! ```
//! use mc_core::active::{weighted_sample_1d, OneDimParams};
//! use mc_core::{InMemoryOracle, LabelOracle};
//! use mc_geom::Label;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let labels: Vec<Label> = (0..100).map(|i| Label::from_bool(i >= 40)).collect();
//! let mut oracle = InMemoryOracle::new(labels);
//! let mut rng = StdRng::seed_from_u64(1);
//! let sample = weighted_sample_1d(&mut oracle, &OneDimParams::new(0.5, 0.1), &mut rng);
//! // At this size the sampler degrades to exhaustive probing.
//! assert_eq!(sample.sigma.len(), 100);
//! ```

use crate::error::McError;
use crate::oracle::LabelOracle;
use crate::report::SolveReport;
use crate::sampling::lemma5_sample_size;
use mc_geom::Label;
use rand::rngs::StdRng;
use rand::Rng;

/// Parameters of the 1D recursion.
#[derive(Debug, Clone)]
pub struct OneDimParams {
    /// Approximation slack `ε ∈ (0, 1]`.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1]` for the whole run.
    pub delta: f64,
    /// `φ = ε / phi_divisor`; the paper uses 256, the default is 8.
    /// Must be at least 8 so the window threshold `1/4 − φ` stays
    /// meaningful for every `ε ≤ 1`.
    pub phi_divisor: f64,
    /// Sub-ranges of at most this size are probed exhaustively
    /// (the paper uses 7).
    pub recursion_cutoff: usize,
}

impl OneDimParams {
    /// Practical defaults: `φ = ε/8`, cutoff 7.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        Self {
            epsilon,
            delta,
            phi_divisor: 8.0,
            recursion_cutoff: 7,
        }
    }

    /// The paper's constants: `φ = ε/256`.
    pub fn paper_faithful(epsilon: f64, delta: f64) -> Self {
        Self {
            phi_divisor: 256.0,
            ..Self::new(epsilon, delta)
        }
    }

    /// Checks the parameters, reporting the first violation as a typed
    /// error.
    pub fn try_validate(&self) -> Result<(), McError> {
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(McError::invalid_parameter(format!(
                "ε must lie in (0, 1], got {}",
                self.epsilon
            )));
        }
        if !(self.delta > 0.0 && self.delta <= 1.0) {
            return Err(McError::invalid_parameter(format!(
                "δ must lie in (0, 1], got {}",
                self.delta
            )));
        }
        if self.phi_divisor < 8.0 {
            return Err(McError::invalid_parameter(format!(
                "phi_divisor must be ≥ 8, got {}",
                self.phi_divisor
            )));
        }
        if self.recursion_cutoff < 1 {
            return Err(McError::invalid_parameter("cutoff must be ≥ 1"));
        }
        Ok(())
    }

    fn phi(&self) -> f64 {
        self.epsilon / self.phi_divisor
    }
}

/// One element of the fully-labeled weighted sample Σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaEntry {
    /// Position of the item in the (ascending) input order.
    pub position: usize,
    /// Its revealed label.
    pub label: Label,
    /// Its weight in Σ (the inverse sampling rate of its level).
    pub weight: f64,
}

/// Outcome of the 1D sampling recursion.
#[derive(Debug, Clone)]
pub struct OneDimSample {
    /// The fully-labeled weighted sample Σ (Lemma 13: minimizing
    /// `w-err_Σ` realizes the framework's comparison function `f`).
    pub sigma: Vec<SigmaEntry>,
    /// Number of recursion levels executed.
    pub levels: usize,
    /// Total with-replacement draws (distinct probes may be fewer).
    pub draws: usize,
}

/// Runs the Section-3 recursion over `oracle.len()` items sorted
/// ascending; positions `0..len` are the 1D coordinates. Failed probes
/// are dropped as in [`try_weighted_sample_1d`].
///
/// # Panics
///
/// Panics if the parameters are invalid.
pub fn weighted_sample_1d(
    oracle: &mut dyn LabelOracle,
    params: &OneDimParams,
    rng: &mut StdRng,
) -> OneDimSample {
    try_weighted_sample_1d(oracle, params, rng, &mut SolveReport::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`weighted_sample_1d`] with a report: draws whose probe fails are
/// *dropped* from Σ (counted in `report.abstentions`) while every
/// level's weight is rescaled to the draws that did answer. A failed
/// draw consumes the same randomness as an answered one, so a run whose
/// transient failures a retry layer absorbs matches a fault-free run
/// exactly.
///
/// Only parameter validation produces an `Err`; oracle failures degrade
/// the sample instead of aborting the run.
pub fn try_weighted_sample_1d(
    oracle: &mut dyn LabelOracle,
    params: &OneDimParams,
    rng: &mut StdRng,
    report: &mut SolveReport,
) -> Result<OneDimSample, McError> {
    params.try_validate()?;
    let m = oracle.len();
    let mut out = OneDimSample {
        sigma: Vec::new(),
        levels: 0,
        draws: 0,
    };
    if m == 0 {
        return Ok(out);
    }
    // Lemma 10 shrinks by 5/8 per level; cap depth so the probing bound
    // holds on every run even if an estimate fails.
    let max_depth = ((m as f64).ln() / (8.0_f64 / 5.0).ln()).ceil() as usize + 2;
    // δ budget per level, following Section 3.4: δ/(2·h·(|P|+1)) per
    // estimated classifier, folded into the Lemma-5 call for the whole
    // effective family at once.
    recurse(oracle, params, rng, 0, m, 0, max_depth, &mut out, report);
    Ok(out)
}

/// Probes `pos`, pushing a Σ entry on success and recording an
/// abstention (point dropped) on permanent failure.
fn probe_into(
    oracle: &mut dyn LabelOracle,
    pos: usize,
    weight: f64,
    out: &mut OneDimSample,
    report: &mut SolveReport,
) -> Option<Label> {
    report.attempts += 1;
    match oracle.probe(pos) {
        Ok(label) => {
            out.sigma.push(SigmaEntry {
                position: pos,
                label,
                weight,
            });
            Some(label)
        }
        Err(_) => {
            report.abstentions += 1;
            None
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    oracle: &mut dyn LabelOracle,
    params: &OneDimParams,
    rng: &mut StdRng,
    lo: usize,
    hi: usize,
    depth: usize,
    max_depth: usize,
    out: &mut OneDimSample,
    report: &mut SolveReport,
) {
    let m = hi - lo;
    if m == 0 {
        return;
    }
    out.levels += 1;

    let phi = params.phi();
    let delta_level = params.delta / (2.0 * max_depth as f64 * (m as f64 + 1.0));
    let t = lemma5_sample_size(phi, delta_level.clamp(f64::MIN_POSITIVE, 1.0));

    // Base case: small range, prescribed sample at least as large as the
    // range, or depth cap reached → probe everything exactly (weight 1).
    if m <= params.recursion_cutoff || t >= m || depth >= max_depth {
        for pos in lo..hi {
            probe_into(oracle, pos, 1.0, out, report);
        }
        return;
    }

    // --- g1: sample S1 with replacement from [lo, hi). ---
    // counts[rel] = (label-1 draws, label-0 draws) at relative position rel.
    // Failed draws still consume RNG state (so a faulty run that answers
    // every draw matches a clean one exactly) but contribute nothing; the
    // level weight rescales to the successful draws.
    let mut ones = vec![0u32; m];
    let mut zeros = vec![0u32; m];
    let mut s1: Vec<(usize, Label)> = Vec::with_capacity(t);
    for _ in 0..t {
        let pos = rng.gen_range(lo..hi);
        report.attempts += 1;
        match oracle.probe(pos) {
            Ok(label) => {
                s1.push((pos, label));
                if label.is_one() {
                    ones[pos - lo] += 1;
                } else {
                    zeros[pos - lo] += 1;
                }
            }
            Err(_) => report.abstentions += 1,
        }
    }
    out.draws += t;
    let answered = s1.len();
    if answered == 0 {
        // Nothing answered: no estimate is possible, and Σ gains nothing
        // for this range. Heavy degradation, reflected in the report.
        return;
    }

    // err_{S1}(b) for boundary b (relative): positions < b predicted 0,
    // positions ≥ b predicted 1. Misses = 1-draws below b + 0-draws at/above b.
    let total_zeros: u32 = zeros.iter().sum();
    // Scan boundaries b = 0..=m; qualifying: g1(b) < m·(1/4 − φ).
    let thresh = m as f64 * (0.25 - phi);
    let scale = m as f64 / answered as f64;
    let mut b_lo: Option<usize> = None;
    let mut b_hi: Option<usize> = None;
    let mut ones_below = 0u64;
    let mut zeros_below = 0u64;
    for b in 0..=m {
        if b > 0 {
            ones_below += u64::from(ones[b - 1]);
            zeros_below += u64::from(zeros[b - 1]);
        }
        let err_s1 = ones_below + u64::from(total_zeros) - zeros_below;
        let g1 = scale * err_s1 as f64;
        if g1 < thresh {
            if b_lo.is_none() {
                b_lo = Some(b);
            }
            b_hi = Some(b);
        }
    }

    let (b_lo, b_hi) = match (b_lo, b_hi) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            // α, β do not exist: f = g1; Σ gains S1 at weight m/|S1|.
            for (pos, label) in s1 {
                out.sigma.push(SigmaEntry {
                    position: pos,
                    label,
                    weight: scale,
                });
            }
            return;
        }
    };

    // P' = P ∩ [α, β]: the point realizing α (relative b_lo − 1) through
    // the point realizing β (relative b_hi − 1), inclusive.
    let start = lo + b_lo.saturating_sub(1).min(m);
    let end = lo + b_hi; // exclusive
    debug_assert!(start <= end && end <= hi);

    // --- g2: sample S2 with replacement from P \ P'. ---
    let left_len = start - lo;
    let right_len = hi - end;
    let rest = left_len + right_len;
    if rest > 0 {
        let t2 = lemma5_sample_size(phi, delta_level.clamp(f64::MIN_POSITIVE, 1.0));
        if t2 >= rest {
            // Degrade to exact: probe the whole complement at weight 1.
            for pos in (lo..start).chain(end..hi) {
                probe_into(oracle, pos, 1.0, out, report);
            }
        } else {
            let mut s2: Vec<(usize, Label)> = Vec::with_capacity(t2);
            for _ in 0..t2 {
                let r = rng.gen_range(0..rest);
                let pos = if r < left_len {
                    lo + r
                } else {
                    end + (r - left_len)
                };
                report.attempts += 1;
                match oracle.probe(pos) {
                    Ok(label) => s2.push((pos, label)),
                    Err(_) => report.abstentions += 1,
                }
            }
            out.draws += t2;
            if !s2.is_empty() {
                let scale2 = rest as f64 / s2.len() as f64;
                for (pos, label) in s2 {
                    out.sigma.push(SigmaEntry {
                        position: pos,
                        label,
                        weight: scale2,
                    });
                }
            }
        }
    }

    recurse(
        oracle,
        params,
        rng,
        start,
        end,
        depth + 1,
        max_depth,
        out,
        report,
    );
}

/// Evaluates `w-err_Σ(h^b)` for every boundary `b ∈ 0..=m` in
/// `O(m + |Σ|)` via prefix sums: entries below `b` are predicted 0
/// (counted when labeled 1), entries at or above `b` are predicted 1
/// (counted when labeled 0).
pub fn sigma_errors_by_boundary(sigma: &[SigmaEntry], m: usize) -> Vec<f64> {
    let mut w1 = vec![0.0f64; m]; // weight of 1-labeled entries per position
    let mut w0 = vec![0.0f64; m];
    for e in sigma {
        if e.label.is_one() {
            w1[e.position] += e.weight;
        } else {
            w0[e.position] += e.weight;
        }
    }
    let total_w0: f64 = w0.iter().sum();
    let mut errs = Vec::with_capacity(m + 1);
    let mut ones_below = 0.0;
    let mut zeros_below = 0.0;
    for b in 0..=m {
        if b > 0 {
            ones_below += w1[b - 1];
            zeros_below += w0[b - 1];
        }
        errs.push(ones_below + (total_w0 - zeros_below));
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InMemoryOracle;
    use rand::SeedableRng;

    fn labels_from_boundary(m: usize, boundary: usize) -> Vec<Label> {
        (0..m).map(|i| Label::from_bool(i >= boundary)).collect()
    }

    /// True error at every boundary, O(m).
    fn true_errors(labels: &[Label]) -> Vec<u64> {
        let m = labels.len();
        let total_zeros = labels.iter().filter(|l| l.is_zero()).count() as u64;
        let mut errs = Vec::with_capacity(m + 1);
        let (mut ones_below, mut zeros_below) = (0u64, 0u64);
        for b in 0..=m {
            if b > 0 {
                match labels[b - 1] {
                    Label::One => ones_below += 1,
                    Label::Zero => zeros_below += 1,
                }
            }
            errs.push(ones_below + total_zeros - zeros_below);
        }
        errs
    }

    fn best_boundary(sigma: &[SigmaEntry], m: usize) -> usize {
        let errs = sigma_errors_by_boundary(sigma, m);
        (0..=m)
            .min_by(|&a, &b| f64::total_cmp(&errs[a], &errs[b]))
            .unwrap()
    }

    #[test]
    fn tiny_input_probed_exhaustively() {
        let labels = labels_from_boundary(5, 2);
        let mut oracle = InMemoryOracle::new(labels);
        let mut rng = StdRng::seed_from_u64(1);
        let params = OneDimParams::new(0.5, 0.1);
        let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
        assert_eq!(res.sigma.len(), 5);
        assert!(res.sigma.iter().all(|e| e.weight == 1.0));
        assert_eq!(oracle.probes_used(), 5);
    }

    #[test]
    fn empty_input() {
        let mut oracle = InMemoryOracle::new(vec![]);
        let mut rng = StdRng::seed_from_u64(1);
        let params = OneDimParams::new(0.5, 0.1);
        let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
        assert!(res.sigma.is_empty());
        assert_eq!(res.levels, 0);
    }

    #[test]
    fn small_input_sigma_is_exact() {
        // When the prescribed sample size reaches the range size the
        // level degrades to exhaustive probing, so Σ errors are exact.
        let m = 2000;
        let labels = labels_from_boundary(m, 700);
        let mut oracle = InMemoryOracle::new(labels.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let params = OneDimParams::new(0.5, 0.1);
        let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
        let sig = sigma_errors_by_boundary(&res.sigma, m);
        let truth = true_errors(&labels);
        for b in (0..=m).step_by(97) {
            assert!(
                (sig[b] - truth[b] as f64).abs() < 1e-9,
                "b = {b}: {} vs {}",
                sig[b],
                truth[b]
            );
        }
    }

    #[test]
    fn sigma_total_weight_tracks_population() {
        // Each level's Σ slice estimates its own stratum, so the total
        // weight should be close to m.
        let m = 60_000;
        let labels = labels_from_boundary(m, 21_000);
        let mut oracle = InMemoryOracle::new(labels);
        let mut rng = StdRng::seed_from_u64(7);
        let params = OneDimParams::new(1.0, 0.1);
        let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
        let total: f64 = res.sigma.iter().map(|e| e.weight).sum();
        assert!(
            (total - m as f64).abs() < 0.35 * m as f64,
            "Σ weight {total} far from {m}"
        );
        assert!(res.levels > 1, "expected a real recursion");
    }

    #[test]
    fn minimizer_of_sigma_is_near_optimal_clean_data() {
        // Clean threshold data: k* = 0; the Σ-minimizer should recover an
        // error-0 boundary (whp), probing a sublinear number of labels.
        let m = 60_000;
        let boundary = 41_789;
        let labels = labels_from_boundary(m, boundary);
        let truth = true_errors(&labels);
        let mut failures = 0;
        for seed in 0..8 {
            let mut oracle = InMemoryOracle::new(labels.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let params = OneDimParams::new(1.0, 0.05);
            let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
            let b = best_boundary(&res.sigma, m);
            if truth[b] != 0 {
                failures += 1;
            }
            assert!(
                oracle.probes_used() < m / 2,
                "probes {} not sublinear in m = {m}",
                oracle.probes_used()
            );
        }
        assert!(
            failures <= 1,
            "{failures}/8 runs missed the optimum on clean data"
        );
    }

    #[test]
    fn minimizer_of_sigma_is_near_optimal_noisy_data() {
        use rand::Rng;
        let m = 30_000;
        let boundary = 11_000;
        let mut gen_rng = StdRng::seed_from_u64(0xAB);
        let labels: Vec<Label> = (0..m)
            .map(|i| {
                let clean = i >= boundary;
                let flipped = gen_rng.gen_bool(0.08);
                Label::from_bool(clean != flipped)
            })
            .collect();
        let truth = true_errors(&labels);
        let k_star = *truth.iter().min().unwrap();
        assert!(k_star > 0);

        let mut ok = 0;
        for seed in 100..108 {
            let mut oracle = InMemoryOracle::new(labels.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let params = OneDimParams::new(1.0, 0.05);
            let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
            let b = best_boundary(&res.sigma, m);
            if truth[b] as f64 <= 2.0 * k_star as f64 {
                ok += 1;
            }
        }
        assert!(ok >= 7, "only {ok}/8 runs met the (1+ε) = 2 bound");
    }

    #[test]
    fn paper_constants_accepted() {
        let labels = labels_from_boundary(100, 40);
        let mut oracle = InMemoryOracle::new(labels);
        let mut rng = StdRng::seed_from_u64(3);
        let params = OneDimParams::paper_faithful(1.0, 0.1);
        // With paper constants and tiny n the sampler just probes all.
        let res = weighted_sample_1d(&mut oracle, &params, &mut rng);
        assert_eq!(res.sigma.len(), 100);
    }

    #[test]
    #[should_panic(expected = "ε must lie in (0, 1]")]
    fn rejects_bad_epsilon() {
        let mut oracle = InMemoryOracle::new(vec![Label::One]);
        let mut rng = StdRng::seed_from_u64(1);
        let params = OneDimParams::new(1.5, 0.1);
        weighted_sample_1d(&mut oracle, &params, &mut rng);
    }

    #[test]
    fn fallible_path_matches_infallible_when_fault_free() {
        use crate::oracle::FlakyOracle;
        let m = 20_000;
        let labels = labels_from_boundary(m, 8_000);
        let params = OneDimParams::new(1.0, 0.1);

        let mut plain = InMemoryOracle::new(labels.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let baseline = weighted_sample_1d(&mut plain, &params, &mut rng);

        // A FlakyOracle with rate 0 is fault-free; the try path must
        // reproduce the in-memory run bit-for-bit.
        let mut zero_fault = FlakyOracle::new(InMemoryOracle::new(labels), 0.0, 99);
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = SolveReport::default();
        let faultless =
            try_weighted_sample_1d(&mut zero_fault, &params, &mut rng, &mut report).unwrap();
        assert_eq!(baseline.sigma, faultless.sigma);
        assert_eq!(baseline.draws, faultless.draws);
        assert_eq!(report.abstentions, 0);
        assert!(report.attempts > 0);
    }

    #[test]
    fn dropped_draws_rescale_weights() {
        use crate::oracle::AbstainingOracle;
        let m = 20_000;
        let labels = labels_from_boundary(m, 7_000);
        let mut oracle = AbstainingOracle::new(InMemoryOracle::new(labels), 0.1, 21);
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = SolveReport::default();
        let params = OneDimParams::new(1.0, 0.1);
        let res = try_weighted_sample_1d(&mut oracle, &params, &mut rng, &mut report).unwrap();
        assert!(report.abstentions > 0, "10% abstention must drop draws");
        // Σ never contains an unanswerable point.
        for e in &res.sigma {
            assert!(!oracle.is_unanswerable(e.position));
        }
        // Rescaled weights keep total Σ weight near the population size.
        let total: f64 = res.sigma.iter().map(|e| e.weight).sum();
        assert!(
            (total - m as f64).abs() < 0.4 * m as f64,
            "Σ weight {total} far from {m}"
        );
    }

    #[test]
    fn fully_dead_oracle_yields_empty_sigma() {
        use crate::oracle::AbstainingOracle;
        let labels = labels_from_boundary(5_000, 100);
        let n = labels.len();
        let all: Vec<usize> = (0..n).collect();
        let mut oracle = AbstainingOracle::with_unanswerable(InMemoryOracle::new(labels), &all);
        let mut rng = StdRng::seed_from_u64(1);
        let mut report = SolveReport::default();
        let params = OneDimParams::new(1.0, 0.1);
        let res = try_weighted_sample_1d(&mut oracle, &params, &mut rng, &mut report).unwrap();
        assert!(res.sigma.is_empty(), "no answers → no Σ, but no panic");
        assert!(report.abstentions > 0);
    }

    #[test]
    fn try_path_rejects_bad_epsilon_without_panicking() {
        let mut oracle = InMemoryOracle::new(vec![Label::One]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut report = SolveReport::default();
        let params = OneDimParams::new(1.5, 0.1);
        let err = try_weighted_sample_1d(&mut oracle, &params, &mut rng, &mut report).unwrap_err();
        assert!(err.to_string().contains("ε must lie in (0, 1]"));
    }

    #[test]
    fn probe_growth_is_sublinear() {
        // Doubling m should grow probes by far less than 2x on clean data.
        let probes_for = |m: usize| {
            let labels = labels_from_boundary(m, m / 3);
            let mut oracle = InMemoryOracle::new(labels);
            let mut rng = StdRng::seed_from_u64(11);
            let params = OneDimParams::new(1.0, 0.1);
            weighted_sample_1d(&mut oracle, &params, &mut rng);
            oracle.probes_used()
        };
        let p1 = probes_for(50_000);
        let p2 = probes_for(100_000);
        assert!(
            (p2 as f64) < 1.6 * p1 as f64,
            "probes grew too fast: {p1} -> {p2}"
        );
    }
}
