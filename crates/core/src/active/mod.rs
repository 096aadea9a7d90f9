//! Active monotone classification — Problem 1 / Theorems 2 and 3.
//!
//! [`one_dim`] implements the Section-3 recursive sampler (Lemma 9 with
//! the weighted view of Lemma 13); [`solver`] lifts it to arbitrary
//! dimension through the chain decomposition of Section 4 and closes the
//! loop with the passive solver (Theorem 3).

pub mod budgeted;
pub mod one_dim;
pub mod solver;

pub use budgeted::try_solve_with_budget;
pub use one_dim::{
    sigma_errors_by_boundary, weighted_sample_1d, OneDimParams, OneDimSample, SigmaEntry,
};
pub use solver::{ActiveParams, ActiveSolution, ActiveSolver};
