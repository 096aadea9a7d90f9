//! # monotone-classification
//!
//! A Rust implementation of *"New Algorithms for Monotone Classification"*
//! (Tao & Wang, PODS 2021): passive weighted monotone classification in
//! polynomial time via min-cut (Theorem 4), and `(1+ε)`-approximate
//! *active* classification probing `O((w/ε²)·log(n/w)·log n)` labels
//! (Theorems 2–3), where `w` is the dominance width of the input.
//!
//! The umbrella crate re-exports each subsystem as a module and the most
//! common types at the top level.
//!
//! ## Passive classification (all labels visible)
//!
//! ```
//! use monotone_classification::{Label, WeightedSet, solve_passive};
//!
//! let mut data = WeightedSet::empty(2);
//! data.push(&[0.9, 0.8], Label::One, 1.0);   // consistent
//! data.push(&[0.1, 0.2], Label::Zero, 1.0);  // consistent
//! data.push(&[0.8, 0.9], Label::Zero, 5.0);  // heavy inversion vs next
//! data.push(&[0.2, 0.3], Label::One, 1.0);   // cheap inversion
//! let sol = solve_passive(&data);
//! assert_eq!(sol.weighted_error, 1.0); // flip the cheap point
//! ```
//!
//! ## Active classification (pay-per-probe labels)
//!
//! ```
//! use monotone_classification::{ActiveSolver, InMemoryOracle, Label, LabeledSet};
//!
//! let mut data = LabeledSet::empty(1);
//! for i in 0..100 {
//!     data.push(&[i as f64], Label::from_bool(i >= 40));
//! }
//! let mut oracle = InMemoryOracle::from_labeled(&data);
//! let sol = ActiveSolver::with_epsilon(0.5).solve(data.points(), &mut oracle);
//! assert_eq!(sol.classifier.error_on(&data), 0); // k* = 0 ⇒ exact (whp)
//! assert!(sol.probes_used <= 100);
//! ```

pub use mc_bench as bench;
pub use mc_chains as chains;
pub use mc_core as core;
pub use mc_data as data;
pub use mc_flow as flow;
pub use mc_geom as geom;
pub use mc_matching as matching;
pub use mc_obs as obs;
pub use mc_serve as serve;

pub use mc_core::passive::solve_passive;
pub use mc_core::{
    ActiveParams, ActiveSolver, AnchorIndex, ConfusionMatrix, InMemoryOracle, LabelOracle,
    MonotoneClassifier, PassiveSolver,
};
pub use mc_geom::{Label, LabeledSet, Point, PointSet, WeightedSet};

// Fault-tolerance layer: typed errors, fault-injection and retry oracles,
// degradation reports (see `mc_core::oracle` and the "Failure model"
// section of docs/ALGORITHMS.md).
pub use mc_core::active::{solve_with_budget, try_solve_with_budget};
pub use mc_core::{
    AbstainingOracle, FlakyOracle, McError, MeteredOracle, OracleError, OracleStats, RetryOracle,
    RetryPolicy, SolveReport,
};
pub use mc_geom::GeomError;
