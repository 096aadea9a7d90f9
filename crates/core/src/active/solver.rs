//! Multi-dimensional active monotone classification — Theorems 2 and 3.
//!
//! Pipeline (Section 4 of the paper):
//!
//! 1. compute a minimum chain decomposition `C_1 … C_w` (Lemma 6);
//! 2. every monotone classifier maps a *suffix* of each ascending chain to
//!    1, so each chain is a 1D instance: run the Section-3 sampler on each
//!    chain (with per-chain failure budget `δ/w`), obtaining fully-labeled
//!    weighted samples `Σ_1 … Σ_w`;
//! 3. let `Σ = ∪ Σ_i` (equation (30)); the ε-comparison property
//!    (Lemma 14) guarantees that the classifier minimizing `w-err_Σ` has
//!    `err_P ≤ (1+ε)·k*` with probability `≥ 1 − δ`;
//! 4. minimizing `w-err_Σ` over all monotone classifiers is exactly
//!    Problem 2 on Σ — solved by the passive min-cut solver (Theorem 3's
//!    reduction).
//!
//! Probing cost: `O((w/ε²)·log(n/w)·log n)`; CPU time
//! `Õ(d·n² + n^2.5 + w/ε²) + T_prob2(d, |Σ|)`. Memory stays `O(d·n)` plus
//! the Lemma-6 row cache, which is capped by the row budget: no `n²`
//! dominance matrix is built over P or Σ.
//!
//! # Example
//!
//! ```
//! use mc_core::{ActiveSolver, InMemoryOracle};
//! use mc_geom::{Label, LabeledSet};
//!
//! let mut data = LabeledSet::empty(2);
//! for i in 0..50 {
//!     data.push(&[i as f64, (i % 7) as f64], Label::from_bool(i >= 20));
//! }
//! let mut oracle = InMemoryOracle::from_labeled(&data);
//! let sol = ActiveSolver::with_epsilon(0.5).solve(data.points(), &mut oracle);
//! assert!(sol.probes_used <= 50);
//! ```

use crate::active::one_dim::{try_weighted_sample_1d, OneDimParams};
use crate::classifier::MonotoneClassifier;
use crate::error::McError;
use crate::oracle::{LabelOracle, SubsetOracle};
use crate::passive::solver::{check_coordinates, PassiveSolution, PassiveSolver};
use crate::report::SolveReport;
use mc_chains::ChainDecomposition;
use mc_geom::{Label, PointSet, RankTable, WeightedSet};
use mc_obs::CancelToken;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the active solver.
#[derive(Debug, Clone)]
pub struct ActiveParams {
    /// Approximation slack `ε ∈ (0, 1]`: the returned classifier has
    /// error at most `(1+ε)·k*` with probability `≥ 1 − δ`.
    pub epsilon: f64,
    /// Overall failure probability; `None` selects the paper's `1/n²`.
    pub delta: Option<f64>,
    /// `φ = ε/phi_divisor` in the per-chain sampler (256 = paper
    /// constants, 8 = practical default; see
    /// [`OneDimParams`]).
    pub phi_divisor: f64,
    /// Exhaustive-probing cutoff of the recursion (paper: 7).
    pub recursion_cutoff: usize,
    /// RNG seed (all randomness is reproducible).
    pub seed: u64,
}

impl ActiveParams {
    /// Practical defaults for a given `ε`.
    pub fn new(epsilon: f64) -> Self {
        Self {
            epsilon,
            delta: None,
            phi_divisor: 8.0,
            recursion_cutoff: 7,
            seed: 0x5EED,
        }
    }

    /// The paper's constants (`φ = ε/256`).
    pub fn paper_faithful(epsilon: f64) -> Self {
        Self {
            phi_divisor: 256.0,
            ..Self::new(epsilon)
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the failure probability.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }
}

/// Result of an active solve, including the side products the paper
/// highlights (the weighted sample Σ, the width). Phase times are the
/// `active/chain_decomposition`, `active/sampling` and `active/passive`
/// spans of the `mc-obs` registry.
#[derive(Debug, Clone)]
pub struct ActiveSolution {
    /// The `(1+ε)`-approximate monotone classifier.
    pub classifier: MonotoneClassifier,
    /// Distinct labels probed (the paper's probing cost).
    pub probes_used: usize,
    /// The fully-labeled weighted sample Σ (Section 3.5 / equation (30)).
    pub sigma: WeightedSet,
    /// Dominance width `w` of the input.
    pub width: usize,
    /// `w-err_Σ` of the returned classifier (the minimized objective).
    pub sigma_weighted_error: f64,
    /// How the solve fared against the oracle (all-clean for an oracle
    /// that always answers).
    pub report: SolveReport,
}

/// The active solver (Problem 1).
#[derive(Debug, Clone)]
pub struct ActiveSolver {
    params: ActiveParams,
}

impl ActiveSolver {
    /// Creates a solver with the given parameters.
    pub fn new(params: ActiveParams) -> Self {
        Self { params }
    }

    /// Convenience constructor with practical defaults.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self::new(ActiveParams::new(epsilon))
    }

    /// The parameters in use.
    pub fn params(&self) -> &ActiveParams {
        &self.params
    }

    /// Runs the active algorithm on `points` with labels hidden behind
    /// `oracle`. Probing cost is `oracle.probes_used()` minus its value
    /// before the call (also reported in the solution, assuming the
    /// oracle started fresh).
    ///
    /// # Panics
    ///
    /// Panics if `oracle.len() != points.len()`, ε ∉ (0, 1] or a
    /// coordinate is NaN.
    pub fn solve(&self, points: &PointSet, oracle: &mut dyn LabelOracle) -> ActiveSolution {
        self.try_solve(points, oracle)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ActiveSolver::solve`] returning invalid inputs as errors.
    /// Transient probe failures are the oracle's business (e.g. a
    /// [`RetryOracle`](crate::oracle::RetryOracle) absorbs them), while
    /// points whose probe fails are dropped from the sample Σ and the
    /// solve continues. The returned [`ActiveSolution::report`] says
    /// whether and how the result degraded.
    ///
    /// `Err` is reserved for invalid inputs (oracle/points size
    /// mismatch, ε ∉ (0, 1], a NaN coordinate as
    /// [`mc_geom::GeomError::NonFiniteCoordinate`], …; `±∞` coordinates are
    /// solved); oracle failures never abort the solve.
    pub fn try_solve(
        &self,
        points: &PointSet,
        oracle: &mut dyn LabelOracle,
    ) -> Result<ActiveSolution, McError> {
        let _span = mc_obs::span("active");
        check_coordinates(points, f64::is_nan)?;
        // Phase 1: minimum chain decomposition (Lemma 6) off P's ranks;
        // no dominance matrix over P is built.
        let (dec, table) = decompose(points);
        self.solve_over(points, dec.chains(), Some(&table), oracle)
    }

    /// Runs only the probing phases (chain sampling, Sections 3–4),
    /// returning the fully-labeled weighted sample Σ and the probing cost
    /// without the final passive solve. Useful for probing-cost sweeps at
    /// scales where the `O(|Σ|²)` passive phase would dominate wall-clock
    /// time; [`ActiveSolver::solve_with_chains`] is this plus Theorem 3's
    /// passive reduction.
    pub fn collect_sigma_with_chains(
        &self,
        points: &PointSet,
        chains: &[Vec<usize>],
        oracle: &mut dyn LabelOracle,
    ) -> (WeightedSet, usize) {
        let phase = self
            .try_sampling_phase(points, chains, oracle)
            .unwrap_or_else(|e| panic!("{e}"));
        (
            sigma_in_point_order(points, &phase.slots).0,
            phase.probes_used,
        )
    }

    /// Like [`ActiveSolver::solve`], but with a caller-supplied chain
    /// decomposition (ascending dominance order within each chain, chains
    /// partitioning `0..points.len()`). Useful when the workload generator
    /// already knows a minimum decomposition, skipping the `O(d·n² +
    /// n^2.5)` Lemma-6 phase; the probing and error guarantees only
    /// require that the supplied chains are valid and minimum.
    ///
    /// # Panics
    ///
    /// Panics if `oracle.len() != points.len()`, ε ∉ (0, 1], or the
    /// chains do not partition the point indices (debug builds
    /// additionally verify ascending dominance within chains).
    pub fn solve_with_chains(
        &self,
        points: &PointSet,
        chains: &[Vec<usize>],
        oracle: &mut dyn LabelOracle,
    ) -> ActiveSolution {
        let _span = mc_obs::span("active");
        self.solve_over(points, chains, None, oracle)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The sampling and Σ phases over `chains`. `table`, P's rank table
    /// when the caller ranked P, ranks Σ by a gather of its rows.
    fn solve_over(
        &self,
        points: &PointSet,
        chains: &[Vec<usize>],
        table: Option<&RankTable>,
        oracle: &mut dyn LabelOracle,
    ) -> Result<ActiveSolution, McError> {
        let phase = self.try_sampling_phase(points, chains, oracle)?;
        Ok(close_sigma(
            points,
            chains,
            table,
            &phase.slots,
            phase.probes_used,
            phase.report,
        ))
    }

    fn try_sampling_phase(
        &self,
        points: &PointSet,
        chains: &[Vec<usize>],
        oracle: &mut dyn LabelOracle,
    ) -> Result<SamplingPhase, McError> {
        check_oracle_size(points, oracle)?;
        let n = points.len();
        let probes_before = oracle.probes_used();
        let stats_before = oracle.stats();
        if n == 0 {
            return Ok(SamplingPhase {
                slots: Vec::new(),
                probes_used: 0,
                report: SolveReport::default(),
            });
        }
        let covered: usize = chains.iter().map(Vec::len).sum();
        assert_eq!(covered, n, "chains must partition the point indices");
        #[cfg(debug_assertions)]
        for chain in chains {
            for pair in chain.windows(2) {
                debug_assert!(
                    points.dominates(pair[1], pair[0]),
                    "chains must be ascending in dominance order"
                );
            }
        }
        let w = chains.len();

        // Overall failure budget δ (paper default 1/n²), split evenly
        // over the w chains as in Section 4.1.
        let delta = self
            .params
            .delta
            .unwrap_or_else(|| 1.0 / ((n * n) as f64).max(4.0));
        let delta_chain = delta / w as f64;

        // Phase 2: per-chain 1D sampling (Section 3 via Lemma 13).
        // Σ entries landing on the same point are merged (weights summed)
        // — equivalent for w-err_Σ and it keeps the passive solve small.
        let span = mc_obs::span("sampling");
        mc_obs::gauge_set("sampling.epsilon", self.params.epsilon);
        mc_obs::gauge_set("sampling.delta_per_chain", delta_chain);
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut report = SolveReport::default();
        let mut slots: Vec<Option<(Label, f64)>> = vec![None; n];
        let one_dim_params = OneDimParams {
            epsilon: self.params.epsilon,
            delta: delta_chain.clamp(f64::MIN_POSITIVE, 1.0),
            phi_divisor: self.params.phi_divisor,
            recursion_cutoff: self.params.recursion_cutoff,
        };
        let mut total_draws = 0u64;
        for (c, chain) in chains.iter().enumerate() {
            let attempts_before = report.attempts;
            let mut chain_oracle = SubsetOracle::new(oracle, chain);
            let sample =
                try_weighted_sample_1d(&mut chain_oracle, &one_dim_params, &mut rng, &mut report)?;
            let chain_probes = (report.attempts - attempts_before) as u64;
            total_draws += sample.draws as u64;
            mc_obs::record("sampling.probes_per_chain", chain_probes);
            mc_obs::record("sampling.levels_per_chain", sample.levels as u64);
            mc_obs::debug_event(
                "chain_sampled",
                &[
                    ("chain", mc_obs::json::Value::U(c as u64)),
                    ("len", mc_obs::json::Value::U(chain.len() as u64)),
                    ("probes", mc_obs::json::Value::U(chain_probes)),
                    ("levels", mc_obs::json::Value::U(sample.levels as u64)),
                    ("draws", mc_obs::json::Value::U(sample.draws as u64)),
                    (
                        "sigma_entries",
                        mc_obs::json::Value::U(sample.sigma.len() as u64),
                    ),
                ],
            );
            for entry in sample.sigma {
                let global = chain[entry.position];
                match &mut slots[global] {
                    Some((label, weight)) => {
                        debug_assert_eq!(*label, entry.label, "oracle labels are stable");
                        *weight += entry.weight;
                    }
                    slot @ None => *slot = Some((entry.label, entry.weight)),
                }
            }
        }
        report.finalize(&stats_before, &oracle.stats());
        drop(span);

        // Fed from the *finalized* report so the exported counters
        // reconcile exactly with `SolveReport` (oracle.attempts ==
        // report.attempts for a single solve after a reset).
        mc_obs::counter_add("sampling.chains", w as u64);
        mc_obs::counter_add("sampling.draws", total_draws);
        mc_obs::counter_add(
            "sampling.sigma_points",
            slots.iter().flatten().count() as u64,
        );
        mc_obs::counter_add("oracle.attempts", report.attempts as u64);
        mc_obs::counter_add("oracle.retries", report.retries as u64);
        mc_obs::counter_add("oracle.dropped", report.dropped as u64);
        if report.breaker_tripped {
            mc_obs::event("oracle.breaker_tripped", &[]);
        }
        if report.degraded {
            mc_obs::event("oracle.degraded", &[]);
        }

        Ok(SamplingPhase {
            slots,
            probes_used: oracle.probes_used() - probes_before,
            report,
        })
    }
}

/// Rejects an oracle that does not label exactly `points`.
pub(crate) fn check_oracle_size(
    points: &PointSet,
    oracle: &dyn LabelOracle,
) -> Result<(), McError> {
    if points.len() != oracle.len() {
        return Err(McError::OracleSizeMismatch {
            oracle: oracle.len(),
            points: points.len(),
        });
    }
    Ok(())
}

/// Lemma 6 for both active solvers: ranks P once and decomposes it
/// ([`ChainDecomposition::try_compute_from_table`] picks the algorithm by
/// dimension). The caller keeps the table for Σ's gather.
pub(crate) fn decompose(points: &PointSet) -> (ChainDecomposition, RankTable) {
    let _span = mc_obs::span("chain_decomposition");
    let table = RankTable::build(points);
    let dec = ChainDecomposition::try_compute_from_table(&table, &CancelToken::never())
        .expect("a never-token cannot cancel");
    mc_obs::gauge_set("chains.width", dec.width() as f64);
    (dec, table)
}

/// Σ in point order from per-point `(label, weight)` slots, with the
/// point of P behind each entry (ascending).
fn sigma_in_point_order(
    points: &PointSet,
    slots: &[Option<(Label, f64)>],
) -> (WeightedSet, Vec<usize>) {
    let mut sigma = WeightedSet::empty(points.dim().max(1));
    let mut sigma_points = Vec::new();
    for (p, slot) in slots.iter().enumerate() {
        if let Some((label, weight)) = slot {
            sigma_points.push(p);
            sigma.push(points.point(p), *label, *weight);
        }
    }
    (sigma, sigma_points)
}

/// The Σ closing both active solvers share (Theorem 3's reduction):
/// minimize `w-err_Σ` over monotone classifiers, Problem 2 on Σ. Σ is
/// built in point order from the per-point slots of the sampled chains
/// and solved by the passive solver, with P's chains restricted to Σ's
/// label-1 points as the cover that the `d ≥ 3` ladder wires when their
/// heads certify it minimum, and, when the caller ranked P (`table`),
/// Σ's ranks gathered from P's rather than sorted again. Under
/// degradation Σ is missing the unanswerable points, but it is still a
/// fully-labeled weighted set: the reduction is unaffected and the
/// result stays monotone.
pub(crate) fn close_sigma(
    points: &PointSet,
    chains: &[Vec<usize>],
    table: Option<&RankTable>,
    slots: &[Option<(Label, f64)>],
    probes_used: usize,
    report: SolveReport,
) -> ActiveSolution {
    let (sigma, sigma_points) = sigma_in_point_order(points, slots);
    let mut sigma_of = vec![u32::MAX; points.len()];
    for (s, &p) in sigma_points.iter().enumerate() {
        sigma_of[p] = s as u32;
    }
    let cover = sigma_cover(chains, &sigma_of, sigma.labels());
    let sigma_table = table.map(|t| t.subset(&sigma_points));
    let PassiveSolution {
        classifier,
        weighted_error,
        ..
    } = PassiveSolver::new().solve_with_cover(&sigma, sigma_table, &cover);
    ActiveSolution {
        classifier,
        probes_used,
        sigma,
        width: chains.len(),
        sigma_weighted_error: weighted_error,
        report,
    }
}

/// The chains of P restricted to Σ's label-1 points, as Σ point ids:
/// `sigma_of[p]` is point `p`'s id in Σ (`u32::MAX` if unsampled) and
/// `labels` are Σ's labels. A subsequence of an ascending chain is
/// ascending, so this is a cover of Σ's label-1 points by ascending
/// chains; chains left empty are dropped.
pub(crate) fn sigma_cover(
    chains: &[Vec<usize>],
    sigma_of: &[u32],
    labels: &[Label],
) -> Vec<Vec<usize>> {
    chains
        .iter()
        .map(|chain| {
            chain
                .iter()
                .map(|&p| sigma_of[p] as usize)
                .filter(|&s| s < labels.len() && labels[s] == Label::One)
                .collect::<Vec<usize>>()
        })
        .filter(|chain| !chain.is_empty())
        .collect()
}

/// Intermediate result of the probing phases (before the passive solve).
struct SamplingPhase {
    /// Σ's `(label, weight)` at each point of P (`None` if unsampled).
    slots: Vec<Option<(Label, f64)>>,
    probes_used: usize,
    report: SolveReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InMemoryOracle;
    use crate::passive::solve_passive;
    use mc_geom::{Label, LabeledSet};
    use rand::Rng;

    /// Planted 2D monotone concept with optional label noise.
    fn planted_2d(n: usize, noise: f64, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ls = LabeledSet::empty(2);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let clean = x + y > 1.0;
            let flipped = rng.gen_bool(noise);
            ls.push(&[x, y], Label::from_bool(clean != flipped));
        }
        ls
    }

    fn optimal_error(ls: &LabeledSet) -> f64 {
        solve_passive(&ls.with_unit_weights()).weighted_error
    }

    /// Three points, the middle one with `value` on axis 1.
    fn with_cell(value: f64) -> LabeledSet {
        let mut ls = LabeledSet::empty(2);
        ls.push(&[0.0, 0.0], Label::Zero);
        ls.push(&[1.0, value], Label::One);
        ls.push(&[2.0, 2.0], Label::One);
        ls
    }

    #[test]
    fn try_solve_rejects_nan_and_solves_infinities() {
        let ls = with_cell(f64::NAN);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let err = ActiveSolver::with_epsilon(0.5)
            .try_solve(ls.points(), &mut oracle)
            .unwrap_err();
        assert!(
            matches!(
                err,
                McError::Geom(mc_geom::GeomError::NonFiniteCoordinate {
                    index: 1,
                    axis: 1,
                    ..
                })
            ),
            "{err}"
        );
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            let ls = with_cell(inf);
            let mut oracle = InMemoryOracle::from_labeled(&ls);
            let sol = ActiveSolver::with_epsilon(0.5)
                .try_solve(ls.points(), &mut oracle)
                .unwrap();
            assert_eq!(sol.classifier.error_on(&ls), optimal_error(&ls) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "point 1, axis 1: coordinate NaN is not finite")]
    fn solve_panics_on_nan_with_the_geom_error() {
        let ls = with_cell(f64::NAN);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        ActiveSolver::with_epsilon(0.5).solve(ls.points(), &mut oracle);
    }

    #[test]
    fn clean_concept_recovered_exactly() {
        let ls = planted_2d(400, 0.0, 42);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let solver = ActiveSolver::with_epsilon(0.5);
        let sol = solver.solve(ls.points(), &mut oracle);
        // k* = 0 for clean data, so the classifier must be perfect (whp).
        assert_eq!(sol.classifier.error_on(&ls), 0);
        assert_eq!(sol.probes_used, oracle.probes_used());
    }

    #[test]
    fn noisy_concept_within_one_plus_epsilon() {
        let eps = 1.0;
        let mut successes = 0;
        for seed in 0..5 {
            let ls = planted_2d(500, 0.05, 100 + seed);
            let k_star = optimal_error(&ls);
            let mut oracle = InMemoryOracle::from_labeled(&ls);
            let solver = ActiveSolver::new(ActiveParams::new(eps).with_seed(seed));
            let sol = solver.solve(ls.points(), &mut oracle);
            let err = sol.classifier.error_on(&ls) as f64;
            if err <= (1.0 + eps) * k_star + 1e-9 {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only {successes}/5 runs met (1+ε)k*");
    }

    #[test]
    fn width_reported_matches_decomposition() {
        let ls = planted_2d(200, 0.1, 7);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = ActiveSolver::with_epsilon(0.5).solve(ls.points(), &mut oracle);
        assert_eq!(sol.width, mc_chains::dominance_width(ls.points()));
    }

    #[test]
    fn empty_input() {
        let ls = LabeledSet::empty(2);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = ActiveSolver::with_epsilon(0.5).solve(ls.points(), &mut oracle);
        assert_eq!(sol.probes_used, 0);
        assert_eq!(sol.width, 0);
    }

    #[test]
    fn single_point() {
        let mut ls = LabeledSet::empty(3);
        ls.push(&[1.0, 2.0, 3.0], Label::One);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = ActiveSolver::with_epsilon(0.5).solve(ls.points(), &mut oracle);
        assert_eq!(sol.probes_used, 1);
        assert_eq!(sol.classifier.error_on(&ls), 0);
    }

    #[test]
    fn probes_bounded_by_n() {
        let ls = planted_2d(300, 0.2, 9);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = ActiveSolver::with_epsilon(0.5).solve(ls.points(), &mut oracle);
        assert!(sol.probes_used <= 300);
    }

    #[test]
    fn deterministic_given_seed() {
        let ls = planted_2d(250, 0.1, 3);
        let run = || {
            let mut oracle = InMemoryOracle::from_labeled(&ls);
            let solver = ActiveSolver::new(ActiveParams::new(0.5).with_seed(77));
            let sol = solver.solve(ls.points(), &mut oracle);
            (sol.probes_used, sol.classifier.clone())
        };
        let (p1, c1) = run();
        let (p2, c2) = run();
        assert_eq!(p1, p2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn transient_failures_do_not_change_the_answer() {
        use crate::oracle::{FlakyOracle, RetryOracle, RetryPolicy};
        // 30% of calls fail transiently; with retries the solve must
        // produce the *same* classifier as the fault-free run (the RNG
        // draws are solver-side and unaffected by retries).
        let ls = planted_2d(300, 0.05, 13);
        let solver = ActiveSolver::new(ActiveParams::new(0.5).with_seed(7));

        let mut clean_oracle = InMemoryOracle::from_labeled(&ls);
        let clean = solver.solve(ls.points(), &mut clean_oracle);

        let flaky = FlakyOracle::from_labeled(&ls, 0.3, 99);
        let mut retrying = RetryOracle::new(flaky, RetryPolicy::default().with_max_attempts(20));
        let faulty = solver.try_solve(ls.points(), &mut retrying).unwrap();

        assert_eq!(clean.classifier, faulty.classifier);
        assert_eq!(clean.probes_used, faulty.probes_used);
        assert!(faulty.report.retries > 0, "30% failures must cause retries");
        assert_eq!(faulty.report.dropped, 0);
        assert!(!faulty.report.degraded);
        assert!(clean.report.is_clean());
    }

    #[test]
    fn abstentions_degrade_gracefully() {
        use crate::classifier::find_monotonicity_violation;
        use crate::oracle::AbstainingOracle;
        let ls = planted_2d(300, 0.05, 17);
        let mut oracle = AbstainingOracle::from_labeled(&ls, 0.1, 5);
        assert!(oracle.unanswerable() > 0);
        let solver = ActiveSolver::with_epsilon(0.5);
        let sol = solver.try_solve(ls.points(), &mut oracle).unwrap();
        assert!(sol.report.degraded);
        assert!(sol.report.dropped > 0);
        // The degraded classifier is still monotone and Σ contains no
        // unanswerable point.
        assert!(find_monotonicity_violation(
            ls.points(),
            &sol.classifier.classify_set(ls.points())
        )
        .is_none());
        for i in 0..sol.sigma.len() {
            let coords = sol.sigma.points().point(i);
            let j = (0..ls.len())
                .find(|&j| ls.points().point(j) == coords)
                .unwrap();
            assert!(!oracle.is_unanswerable(j));
        }
    }

    #[test]
    fn dead_oracle_trips_breaker_and_still_returns() {
        use crate::oracle::{FlakyOracle, RetryOracle, RetryPolicy};
        let ls = planted_2d(200, 0.0, 23);
        let flaky = FlakyOracle::from_labeled(&ls, 1.0, 3); // everything fails
        let mut retrying = RetryOracle::new(
            flaky,
            RetryPolicy::default()
                .with_max_attempts(3)
                .with_breaker_threshold(10),
        );
        let sol = ActiveSolver::with_epsilon(0.5)
            .try_solve(ls.points(), &mut retrying)
            .unwrap();
        assert!(sol.report.breaker_tripped);
        assert!(sol.report.degraded);
        assert_eq!(sol.probes_used, 0);
        // The all-zero fallback is trivially monotone.
        assert!(sol.sigma.is_empty());
    }

    #[test]
    fn try_solve_rejects_size_mismatch() {
        let ls = planted_2d(10, 0.0, 1);
        let mut oracle = InMemoryOracle::new(vec![mc_geom::Label::One; 3]);
        let err = ActiveSolver::with_epsilon(0.5)
            .try_solve(ls.points(), &mut oracle)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::McError::OracleSizeMismatch {
                oracle: 3,
                points: 10
            }
        ));
    }

    #[test]
    fn sigma_labels_match_ground_truth() {
        let ls = planted_2d(200, 0.15, 5);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = ActiveSolver::with_epsilon(1.0).solve(ls.points(), &mut oracle);
        // Every Σ entry's label must agree with the hidden ground truth
        // at its coordinates (entries are actual probed points).
        for i in 0..sol.sigma.len() {
            let coords = sol.sigma.points().point(i);
            let truth = (0..ls.len()).find(|&j| ls.points().point(j) == coords);
            let j = truth.expect("Σ point must come from the input set");
            assert_eq!(sol.sigma.label(i), ls.label(j));
        }
    }
}
