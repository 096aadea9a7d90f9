//! Active and passive monotone classification — the primary contribution
//! of "New Algorithms for Monotone Classification" (Tao & Wang, PODS 2021).
//!
//! * [`classifier`] — monotone classifiers in anchor (minimal-up-set)
//!   representation; monotone by construction.
//! * [`anchor_index`] — the query fast path ([`AnchorIndex`]): `d`
//!   bucket-guided lookups, then one `mc_geom::RankOracle` existence
//!   test over the anchors at or below the point on dimension 0 (word
//!   ANDs plus rank compares for the surviving bits, stopping at the
//!   first dominated anchor), bit-identical to the naive anchor scan.
//! * [`passive`] — Problem 2: optimal weighted classification in
//!   `O(d·n²) + T_maxflow(n)` via min-cut (Theorem 4), plus exponential
//!   and 1D baselines.
//! * [`active`] — Problem 1: `(1+ε)`-approximate classification with
//!   `O((w/ε²)·log(n/w)·log n)` probes (Theorems 2 and 3), built on the
//!   Section-3 recursive 1D sampler and the Section-4 chain reduction.
//!   Both active solvers (the paper's and the budgeted one) rank P once,
//!   take Lemma 6 from `mc_chains::ChainDecomposition`, which picks the
//!   algorithm by dimension, and share one Σ closing.
//! * [`sampling`] — Lemma 5 sample-size machinery.
//! * [`oracle`] — probe-counting label oracles ([`LabelOracle`]), whose
//!   probes return `Result<Label, OracleError>`, with a retry/circuit
//!   breaker wrapper and fault-injection wrappers.
//! * [`error`] / [`report`] — typed errors ([`McError`]) and resilience
//!   reporting ([`SolveReport`]) for the `try_*` solver paths.
//! * [`baselines`] — ProbeAll, UniformSample and chain-binary-search
//!   comparators used in the experiments.

pub mod active;
pub mod anchor_index;
pub mod baselines;
pub mod classifier;
pub mod error;
pub mod metrics;
pub mod oracle;
pub mod passive;
pub mod report;
pub mod sampling;

pub use active::{ActiveParams, ActiveSolution, ActiveSolver};
pub use anchor_index::{AnchorIndex, QueryScratch};
pub use classifier::{find_monotonicity_violation, MonotoneClassifier};
pub use error::McError;
pub use metrics::{cross_validate_passive, train_test_split, ConfusionMatrix};
pub use oracle::{
    AbstainingOracle, FlakyOracle, InMemoryOracle, LabelOracle, MeteredOracle, NoisyOracle,
    OracleError, OracleStats, RetryOracle, RetryPolicy, SubsetOracle,
};
pub use passive::{solve_passive, PassiveSolution, PassiveSolver};
pub use report::SolveReport;
