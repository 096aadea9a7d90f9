//! Label oracles for active classification (Problem 1).
//!
//! In the active problem all labels start hidden; an algorithm pays one
//! unit of cost per *point* whose label it reveals. The paper's cost
//! metric is "the total number of points probed", so re-probing an
//! already-revealed point is free — every oracle here counts **distinct**
//! probes, which also means sampling with replacement is billed correctly.
//!
//! The paper's oracle always answers; a real labeling backend — crowd
//! workers, a flaky RPC service, a rate-limited API — does not. A probe
//! therefore returns `Result<Label, OracleError>`: the in-memory oracles
//! always answer `Ok`, the [`inject`] wrappers fail on purpose, and
//! [`RetryOracle`] absorbs the failures worth retrying. Failed probes
//! are never billed.
//!
//! # Example
//!
//! ```
//! use mc_core::{InMemoryOracle, LabelOracle};
//! use mc_geom::Label;
//!
//! let mut oracle = InMemoryOracle::new(vec![Label::Zero, Label::One]);
//! assert_eq!(oracle.probe(1), Ok(Label::One));
//! assert_eq!(oracle.probe(1), Ok(Label::One)); // re-probing is free
//! assert_eq!(oracle.probes_used(), 1);
//! ```

pub mod inject;
pub mod retry;

pub use inject::{AbstainingOracle, FlakyOracle, MeteredOracle};
pub use retry::{RetryOracle, RetryPolicy};

use mc_geom::{Label, LabeledSet};
use std::fmt;

/// Why a probe failed.
///
/// The split matters to callers: [`Transient`](OracleError::Transient)
/// and [`Timeout`](OracleError::Timeout) are worth retrying;
/// [`Abstain`](OracleError::Abstain) and
/// [`BudgetExhausted`](OracleError::BudgetExhausted) are permanent — the
/// solvers drop the point from the sample Σ and continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// A momentary failure (dropped connection, worker unavailable);
    /// retrying the same probe may succeed.
    Transient {
        /// The probe that failed.
        probe: usize,
    },
    /// The backend did not answer in time; retrying may succeed.
    Timeout {
        /// The probe that timed out.
        probe: usize,
    },
    /// The backend permanently declines to label this point
    /// (e.g. an annotator cannot decide). Retrying never helps.
    Abstain {
        /// The probe that was declined.
        probe: usize,
    },
    /// The probe budget is spent; no *new* point can be labeled.
    /// Re-probing already-revealed points stays free.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl OracleError {
    /// `true` iff retrying the same probe can possibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            OracleError::Transient { .. } | OracleError::Timeout { .. }
        )
    }

    /// The probe index the failure refers to, if any.
    pub fn probe(&self) -> Option<usize> {
        match *self {
            OracleError::Transient { probe }
            | OracleError::Timeout { probe }
            | OracleError::Abstain { probe } => Some(probe),
            OracleError::BudgetExhausted { .. } => None,
        }
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Transient { probe } => {
                write!(f, "transient failure probing point {probe}")
            }
            OracleError::Timeout { probe } => write!(f, "timeout probing point {probe}"),
            OracleError::Abstain { probe } => {
                write!(f, "oracle abstained on point {probe}")
            }
            OracleError::BudgetExhausted { budget } => {
                write!(f, "probe budget of {budget} exhausted")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Cumulative counters kept by [`RetryOracle`]. Other oracles report
/// the default (all zeros), and wrappers forward their inner oracle's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total probe attempts issued against the underlying backend
    /// (first tries plus retries).
    pub attempts: usize,
    /// Attempts beyond the first per probe request.
    pub retries: usize,
    /// `true` once a circuit breaker opened.
    pub breaker_tripped: bool,
}

/// A source of hidden labels with probe accounting.
///
/// Cost is counted per *distinct successfully probed point*: a failed
/// probe is free (the backend never answered), and so is re-probing a
/// revealed point.
pub trait LabelOracle {
    /// Reveals the label of point `idx`, billing a probe if this point was
    /// never revealed before.
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError>;

    /// Number of points behind the oracle.
    fn len(&self) -> usize;

    /// `true` iff the oracle holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of *distinct* points revealed so far — the paper's probing
    /// cost.
    fn probes_used(&self) -> usize;

    /// Resilience counters; all zeros unless a [`RetryOracle`] is in the
    /// stack.
    fn stats(&self) -> OracleStats {
        OracleStats::default()
    }
}

/// An oracle over an in-memory ground-truth label vector.
#[derive(Debug, Clone)]
pub struct InMemoryOracle {
    labels: Vec<Label>,
    probed: Vec<bool>,
    distinct: usize,
}

impl InMemoryOracle {
    /// Wraps a label vector.
    pub fn new(labels: Vec<Label>) -> Self {
        let n = labels.len();
        Self {
            labels,
            probed: vec![false; n],
            distinct: 0,
        }
    }

    /// Builds an oracle hiding the labels of a fully-labeled set.
    pub fn from_labeled(data: &LabeledSet) -> Self {
        Self::new(data.labels().to_vec())
    }

    /// Resets probe accounting (labels unchanged).
    pub fn reset(&mut self) {
        self.probed.iter_mut().for_each(|p| *p = false);
        self.distinct = 0;
    }

    /// `true` iff point `idx` has been probed.
    pub fn was_probed(&self, idx: usize) -> bool {
        self.probed[idx]
    }
}

impl LabelOracle for InMemoryOracle {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        if !self.probed[idx] {
            self.probed[idx] = true;
            self.distinct += 1;
        }
        Ok(self.labels[idx])
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn probes_used(&self) -> usize {
        self.distinct
    }
}

/// A wrapper that restricts an oracle to a subset of points, exposing
/// positions `0..items.len()` — used by the per-chain 1D sampler, which
/// works in chain-position space. Failure payloads keep the *global*
/// probe index, which is what reports and logs want.
pub struct SubsetOracle<'a> {
    inner: &'a mut dyn LabelOracle,
    items: &'a [usize],
}

impl<'a> SubsetOracle<'a> {
    /// Restricts `inner` to the points listed in `items`; position `i`
    /// maps to global index `items[i]`.
    pub fn new(inner: &'a mut dyn LabelOracle, items: &'a [usize]) -> Self {
        Self { inner, items }
    }
}

impl LabelOracle for SubsetOracle<'_> {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        self.inner.probe(self.items[idx])
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

/// A failure-injection oracle: each point's label is flipped *once, at
/// first probe* with probability `flip_probability`, and the flipped
/// answer is then served consistently (modeling an unreliable but
/// self-consistent annotator, the realistic failure mode of the human
/// oracles the paper's applications rely on).
///
/// The theory's guarantees are relative to the labels *as answered*:
/// since answers are consistent, the algorithm behaves exactly as if the
/// input had the flipped labels — with `k*` measured against them. Tests
/// use this to check the pipeline degrades gracefully rather than
/// breaking invariants.
pub struct NoisyOracle {
    inner: InMemoryOracle,
    flip_probability: f64,
    rng: rand::rngs::StdRng,
    answered: Vec<Option<Label>>,
    flips: usize,
}

impl NoisyOracle {
    /// Wraps ground-truth labels with a per-point flip probability.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn new(labels: Vec<Label>, flip_probability: f64, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!(
            (0.0..=1.0).contains(&flip_probability),
            "flip probability must be in [0, 1]"
        );
        let n = labels.len();
        Self {
            inner: InMemoryOracle::new(labels),
            flip_probability,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            answered: vec![None; n],
            flips: 0,
        }
    }

    /// Number of answers that were flipped so far.
    pub fn flips(&self) -> usize {
        self.flips
    }
}

impl LabelOracle for NoisyOracle {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        use rand::Rng;
        // Bills through the inner oracle for distinct counting.
        let truth = self.inner.probe(idx)?;
        if let Some(answer) = self.answered[idx] {
            return Ok(answer);
        }
        let answer = if self.flip_probability > 0.0 && self.rng.gen_bool(self.flip_probability) {
            self.flips += 1;
            truth.flipped()
        } else {
            truth
        };
        self.answered[idx] = Some(answer);
        Ok(answer)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::inject::AbstainingOracle;

    #[test]
    fn distinct_probe_accounting() {
        let mut o = InMemoryOracle::new(vec![Label::One, Label::Zero, Label::One]);
        assert_eq!(o.probes_used(), 0);
        assert_eq!(o.probe(0), Ok(Label::One));
        assert_eq!(o.probe(0), Ok(Label::One));
        assert_eq!(o.probes_used(), 1, "re-probing is free");
        o.probe(2).unwrap();
        assert_eq!(o.probes_used(), 2);
        assert!(o.was_probed(0));
        assert!(!o.was_probed(1));
        assert_eq!(o.stats(), OracleStats::default());
    }

    #[test]
    fn reset_clears_accounting() {
        let mut o = InMemoryOracle::new(vec![Label::Zero; 4]);
        o.probe(1).unwrap();
        o.reset();
        assert_eq!(o.probes_used(), 0);
        assert!(!o.was_probed(1));
    }

    #[test]
    fn subset_oracle_maps_positions() {
        let mut o = InMemoryOracle::new(vec![Label::Zero, Label::One, Label::Zero, Label::One]);
        let items = [3usize, 1];
        let mut sub = SubsetOracle::new(&mut o, &items);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.probe(0), Ok(Label::One)); // global 3
        assert_eq!(sub.probe(1), Ok(Label::One)); // global 1
        assert_eq!(sub.probes_used(), 2);
        assert!(o.was_probed(3));
        assert!(o.was_probed(1));
        assert!(!o.was_probed(0));
    }

    #[test]
    fn subset_oracle_errors_keep_the_global_index() {
        let labels = vec![Label::Zero, Label::One, Label::Zero];
        let mut o = AbstainingOracle::with_unanswerable(InMemoryOracle::new(labels), &[2]);
        let items = [2usize, 1];
        let mut sub = SubsetOracle::new(&mut o, &items);
        assert_eq!(sub.probe(0), Err(OracleError::Abstain { probe: 2 }));
        assert_eq!(sub.probe(1), Ok(Label::One));
        assert_eq!(sub.probes_used(), 1);
    }

    #[test]
    fn empty_oracle() {
        let o = InMemoryOracle::new(vec![]);
        assert!(o.is_empty());
        assert_eq!(o.len(), 0);
    }

    #[test]
    fn noisy_oracle_is_consistent() {
        let mut o = NoisyOracle::new(vec![Label::One; 50], 0.5, 7);
        let first: Vec<Label> = (0..50).map(|i| o.probe(i).unwrap()).collect();
        let second: Vec<Label> = (0..50).map(|i| o.probe(i).unwrap()).collect();
        assert_eq!(first, second, "answers must be stable across re-probes");
        assert!(o.flips() > 0, "with p = 0.5 some answers should flip");
        assert_eq!(o.probes_used(), 50);
    }

    #[test]
    fn noisy_oracle_zero_probability_is_exact() {
        let labels = vec![Label::One, Label::Zero, Label::One];
        let mut o = NoisyOracle::new(labels.clone(), 0.0, 1);
        for (i, &l) in labels.iter().enumerate() {
            assert_eq!(o.probe(i), Ok(l));
        }
        assert_eq!(o.flips(), 0);
    }

    #[test]
    #[should_panic(expected = "flip probability")]
    fn noisy_oracle_rejects_bad_probability() {
        NoisyOracle::new(vec![Label::One], 1.5, 0);
    }

    #[test]
    fn retryability_split() {
        assert!(OracleError::Transient { probe: 0 }.is_retryable());
        assert!(OracleError::Timeout { probe: 0 }.is_retryable());
        assert!(!OracleError::Abstain { probe: 0 }.is_retryable());
        assert!(!OracleError::BudgetExhausted { budget: 5 }.is_retryable());
        assert_eq!(OracleError::Abstain { probe: 3 }.probe(), Some(3));
        assert_eq!(OracleError::BudgetExhausted { budget: 5 }.probe(), None);
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            OracleError::Timeout { probe: 7 }.to_string(),
            "timeout probing point 7"
        );
        assert_eq!(
            OracleError::BudgetExhausted { budget: 9 }.to_string(),
            "probe budget of 9 exhausted"
        );
    }
}
