//! Passive weighted monotone classification — Problem 2 / Theorem 4.
//!
//! Given a fully-labeled weighted set, find the monotone classifier with
//! the smallest weighted error. The paper settles this in
//! `O(d·n²) + T_maxflow(n)` by a reduction to minimum cut (Section 5):
//! see [`solver`] for the classifier entry, [`scale`] for the
//! rank-column entry (both run one private rank-space pipeline, which
//! picks the type-3 gadget by dimension), [`contending`] for the Lemma-15
//! restriction, [`brute`] for the slow references (the exponential
//! baseline of Section 1.2 and the paper-literal dense network), and
//! [`one_dim`] for the `O(n log n)` 1D special case.

pub mod brute;
pub mod certificate;
pub mod contending;
pub(crate) mod ladder;
pub mod one_dim;
mod pipeline;
pub mod scale;
pub mod solver;
pub(crate) mod sparse;

pub use brute::{solve_passive_brute_force, solve_passive_dense};
pub use certificate::{certify_passive, Certificate, InversionCharge};
pub use contending::ContendingPoints;
pub use one_dim::{solve_passive_1d, OneDimOptimum};
pub use scale::{solve_passive_scale, solve_passive_scale_cancellable, ScaleSolution};
pub use solver::{solve_passive, PassiveSolution, PassiveSolver};
