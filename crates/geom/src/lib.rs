//! Geometric substrate for monotone classification.
//!
//! This crate provides the basic vocabulary shared by every other crate in
//! the workspace:
//!
//! * [`Point`] — a point in `R^d` with total-order-safe coordinate access;
//! * the *dominance* partial order ([`dominates`], [`Dominance`]);
//! * [`PointSet`] — a cache-friendly, flat-storage collection of points;
//! * [`Label`] — binary labels (0/1) as used throughout the paper;
//! * [`LabeledSet`] — a point set whose labels are all visible
//!   (the input of Problem 2 when paired with weights);
//! * [`WeightedSet`] — a *fully-labeled weighted set* in the paper's sense
//!   (Section 1.1), i.e. every point carries a label and a positive weight.
//!
//! The paper ("New Algorithms for Monotone Classification", Tao & Wang,
//! PODS 2021) defines dominance as: `p` dominates `q` iff `p[i] >= q[i]`
//! for every dimension `i`. Note that under this definition a point
//! trivially dominates itself; the paper restricts the relation to
//! *distinct* points. We expose both flavours ([`dominates`] is reflexive,
//! [`strictly_dominates`] excludes equality).

pub mod dataset;
pub mod dominance;
pub mod error;
pub mod index;
pub mod kernel;
pub mod label;
pub mod oracle;
pub mod parallel;
pub mod point;
mod radix;
pub mod rank;

pub use dataset::{LabeledSet, PointSet, WeightedSet};
pub use dominance::{dominates, incomparable, strictly_dominates, Dominance};
pub use error::GeomError;
pub use index::{bitmask_of, iter_ones, matrix_bytes, row_budget_bytes, DominanceIndex, RankTable};
pub use label::Label;
pub use oracle::{linear_extension_order, RankOracle};
pub use parallel::{max_threads, parallel_chunks, parallel_threshold};
pub use point::Point;
pub use rank::{
    compress_column_ranks, compress_column_ranks_with_values, rank_key, rank_keys_into,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compile() {
        let p = Point::new(vec![1.0, 2.0]);
        let q = Point::new(vec![0.0, 2.0]);
        assert!(dominates(p.coords(), q.coords()));
        assert_eq!(Label::One.as_u8(), 1);
    }
}
