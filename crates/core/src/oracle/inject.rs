//! Fault-injection oracles for testing resilience.
//!
//! Three failure modes, matching the taxonomy of [`OracleError`], each a
//! wrapper around any inner [`LabelOracle`] so they compose:
//!
//! * [`FlakyOracle`] — each *call* independently fails with a transient
//!   error (retrying helps);
//! * [`AbstainingOracle`] — a fixed random subset of points is
//!   permanently unanswerable (retrying never helps);
//! * [`MeteredOracle`] — a hard cap on distinct probes, failing with
//!   [`OracleError::BudgetExhausted`] once spent.
//!
//! All are seeded and deterministic. Failed calls are never billed: the
//! paper's cost metric charges for *revealed labels*, and a failed call
//! reveals nothing.

use crate::oracle::{InMemoryOracle, LabelOracle, OracleError, OracleStats};
use mc_geom::{Label, LabeledSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An oracle whose calls fail transiently at a fixed rate.
///
/// Each `probe` call independently fails with probability
/// `failure_rate`, alternating (randomly) between
/// [`OracleError::Transient`] and [`OracleError::Timeout`]; the inner
/// oracle is asked only when the call does not fail. Failures are
/// per-*call*, so retrying genuinely helps — wrap in a
/// [`RetryOracle`](crate::oracle::RetryOracle) to absorb them.
#[derive(Debug, Clone)]
pub struct FlakyOracle<O> {
    inner: O,
    failure_rate: f64,
    rng: StdRng,
    calls: usize,
    failures_injected: usize,
}

impl<O: LabelOracle> FlakyOracle<O> {
    /// Wraps `inner` with a per-call failure probability.
    ///
    /// # Panics
    ///
    /// Panics if `failure_rate` is outside `[0, 1]`. A rate of `1.0`
    /// makes every call fail — useful for breaker tests.
    pub fn new(inner: O, failure_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_rate),
            "failure rate must be in [0, 1], got {failure_rate}"
        );
        Self {
            inner,
            failure_rate,
            rng: StdRng::seed_from_u64(seed),
            calls: 0,
            failures_injected: 0,
        }
    }

    /// Total `probe` calls received.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Number of calls that were failed on purpose.
    pub fn failures_injected(&self) -> usize {
        self.failures_injected
    }
}

impl FlakyOracle<InMemoryOracle> {
    /// Builds a flaky oracle hiding the labels of a fully-labeled set.
    pub fn from_labeled(data: &LabeledSet, failure_rate: f64, seed: u64) -> Self {
        Self::new(InMemoryOracle::from_labeled(data), failure_rate, seed)
    }
}

impl<O: LabelOracle> LabelOracle for FlakyOracle<O> {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        self.calls += 1;
        if self.failure_rate > 0.0 && self.rng.gen_bool(self.failure_rate) {
            self.failures_injected += 1;
            return Err(if self.rng.gen_bool(0.5) {
                OracleError::Transient { probe: idx }
            } else {
                OracleError::Timeout { probe: idx }
            });
        }
        self.inner.probe(idx)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

/// An oracle with a fixed set of permanently unanswerable points.
///
/// The unanswerable subset is drawn once, at construction (each point
/// independently with probability `abstain_rate`), modeling an annotator
/// who consistently cannot decide certain items. Probing such a point
/// always yields [`OracleError::Abstain`] without asking the inner
/// oracle; retrying never helps, and the solvers respond by dropping the
/// point from the sample Σ.
#[derive(Debug, Clone)]
pub struct AbstainingOracle<O> {
    inner: O,
    abstains: Vec<bool>,
}

impl<O: LabelOracle> AbstainingOracle<O> {
    /// Wraps `inner`, marking each of its points unanswerable with
    /// probability `abstain_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `abstain_rate` is outside `[0, 1]`.
    pub fn new(inner: O, abstain_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&abstain_rate),
            "abstain rate must be in [0, 1], got {abstain_rate}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let abstains = (0..inner.len())
            .map(|_| abstain_rate > 0.0 && rng.gen_bool(abstain_rate))
            .collect();
        Self { inner, abstains }
    }

    /// Wraps `inner` with an explicit unanswerable set (for
    /// deterministic tests).
    pub fn with_unanswerable(inner: O, indices: &[usize]) -> Self {
        let mut abstains = vec![false; inner.len()];
        for &i in indices {
            abstains[i] = true;
        }
        Self { inner, abstains }
    }

    /// Number of permanently unanswerable points.
    pub fn unanswerable(&self) -> usize {
        self.abstains.iter().filter(|&&a| a).count()
    }

    /// `true` iff point `idx` always abstains.
    pub fn is_unanswerable(&self, idx: usize) -> bool {
        self.abstains[idx]
    }
}

impl AbstainingOracle<InMemoryOracle> {
    /// Builds an abstaining oracle hiding the labels of a fully-labeled
    /// set.
    pub fn from_labeled(data: &LabeledSet, abstain_rate: f64, seed: u64) -> Self {
        Self::new(InMemoryOracle::from_labeled(data), abstain_rate, seed)
    }
}

impl<O: LabelOracle> LabelOracle for AbstainingOracle<O> {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        if self.abstains[idx] {
            Err(OracleError::Abstain { probe: idx })
        } else {
            self.inner.probe(idx)
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

/// A hard probe-budget wrapper around any oracle.
///
/// Revealing a *new* point when `budget` distinct points have already
/// been revealed through this wrapper fails with
/// [`OracleError::BudgetExhausted`]; re-probing already-revealed points
/// stays free, matching the paper's cost metric.
#[derive(Debug, Clone)]
pub struct MeteredOracle<O> {
    inner: O,
    budget: usize,
    seen: Vec<bool>,
    spent: usize,
}

impl<O: LabelOracle> MeteredOracle<O> {
    /// Caps `inner` at `budget` distinct successful probes.
    pub fn new(inner: O, budget: usize) -> Self {
        let n = inner.len();
        Self {
            inner,
            budget,
            seen: vec![false; n],
            spent: 0,
        }
    }

    /// Distinct points revealed through this wrapper so far.
    pub fn spent(&self) -> usize {
        self.spent
    }
}

impl<O: LabelOracle> LabelOracle for MeteredOracle<O> {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        if self.seen[idx] {
            return self.inner.probe(idx);
        }
        if self.spent >= self.budget {
            return Err(OracleError::BudgetExhausted {
                budget: self.budget,
            });
        }
        let label = self.inner.probe(idx)?;
        self.seen[idx] = true;
        self.spent += 1;
        Ok(label)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(n: usize) -> InMemoryOracle {
        InMemoryOracle::new((0..n).map(|i| Label::from_bool(i % 2 == 0)).collect())
    }

    #[test]
    fn flaky_failures_are_transient_and_unbilled() {
        let mut o = FlakyOracle::new(mem(100), 0.5, 3);
        let mut failures = 0;
        for i in 0..100 {
            match o.probe(i) {
                Ok(l) => assert_eq!(l, Label::from_bool(i % 2 == 0)),
                Err(e) => {
                    assert!(e.is_retryable());
                    assert_eq!(e.probe(), Some(i));
                    failures += 1;
                }
            }
        }
        assert!(failures > 10, "rate 0.5 should fail often, got {failures}");
        assert_eq!(o.failures_injected(), failures);
        assert_eq!(
            o.probes_used(),
            100 - failures,
            "failed calls are never billed"
        );
    }

    #[test]
    fn flaky_retry_eventually_succeeds() {
        let mut o = FlakyOracle::new(mem(4), 0.7, 9);
        // Brute-force retrying must terminate: failures are per-call.
        for i in 0..4 {
            let mut tries = 0;
            let label = loop {
                tries += 1;
                assert!(tries < 10_000);
                if let Ok(l) = o.probe(i) {
                    break l;
                }
            };
            assert_eq!(label, Label::from_bool(i % 2 == 0));
        }
        assert_eq!(o.probes_used(), 4);
    }

    #[test]
    fn flaky_zero_rate_is_reliable() {
        let mut o = FlakyOracle::new(mem(20), 0.0, 1);
        for i in 0..20 {
            assert!(o.probe(i).is_ok());
        }
        assert_eq!(o.failures_injected(), 0);
    }

    #[test]
    fn flaky_is_deterministic_by_seed() {
        let run = |seed| {
            let mut o = FlakyOracle::new(mem(50), 0.4, seed);
            (0..50).map(|i| o.probe(i).is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds, different faults");
    }

    #[test]
    fn abstentions_are_permanent() {
        let mut o = AbstainingOracle::with_unanswerable(mem(10), &[2, 7]);
        assert_eq!(o.unanswerable(), 2);
        for _ in 0..3 {
            assert_eq!(o.probe(2), Err(OracleError::Abstain { probe: 2 }));
        }
        assert_eq!(o.probe(3), Ok(Label::Zero));
        assert_eq!(o.probes_used(), 1, "abstentions are never billed");
        assert!(o.is_unanswerable(7));
        assert!(!o.is_unanswerable(0));
    }

    #[test]
    fn abstaining_rate_draws_fixed_subset() {
        let o = AbstainingOracle::new(mem(1000), 0.1, 42);
        let k = o.unanswerable();
        assert!((50..200).contains(&k), "rate 0.1 of 1000, got {k}");
        // Same seed, same subset.
        let o2 = AbstainingOracle::new(mem(1000), 0.1, 42);
        for i in 0..1000 {
            assert_eq!(o.is_unanswerable(i), o2.is_unanswerable(i));
        }
    }

    #[test]
    fn abstaining_outside_flaky_skips_its_rng() {
        // An unanswerable point never reaches the flaky layer, so the
        // answerable points see the same faults as without the abstainer.
        let mut plain = FlakyOracle::new(mem(8), 0.5, 4);
        let expect: Vec<_> = [0, 2, 4, 6].iter().map(|&i| plain.probe(i)).collect();
        let flaky = FlakyOracle::new(mem(8), 0.5, 4);
        let mut o = AbstainingOracle::with_unanswerable(flaky, &[1, 3, 5, 7]);
        let got: Vec<_> = (0..8)
            .map(|i| o.probe(i))
            .filter(|r| !matches!(r, Err(OracleError::Abstain { .. })))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(o.inner.calls(), 4);
    }

    #[test]
    fn metered_budget_enforced_but_reprobes_free() {
        let mut o = MeteredOracle::new(mem(5), 2);
        assert!(o.probe(0).is_ok());
        assert!(o.probe(1).is_ok());
        assert_eq!(o.probe(2), Err(OracleError::BudgetExhausted { budget: 2 }));
        // Already-revealed points stay accessible.
        assert!(o.probe(0).is_ok());
        assert!(o.probe(1).is_ok());
        assert_eq!(o.spent(), 2);
        assert_eq!(o.probes_used(), 2);
    }

    #[test]
    fn metered_does_not_spend_budget_on_inner_failures() {
        let flaky = FlakyOracle::new(mem(10), 1.0, 0);
        let mut o = MeteredOracle::new(flaky, 3);
        for i in 0..10 {
            assert!(o.probe(i).unwrap_err().is_retryable());
        }
        assert_eq!(o.spent(), 0, "failed probes must not consume budget");
    }

    #[test]
    #[should_panic(expected = "failure rate")]
    fn flaky_rejects_bad_rate() {
        FlakyOracle::new(mem(1), 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "abstain rate")]
    fn abstaining_rejects_bad_rate() {
        AbstainingOracle::new(mem(1), -0.1, 0);
    }
}
