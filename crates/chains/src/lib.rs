//! Chain decomposition and dominance width (Lemma 6 of the paper).
//!
//! The *dominance width* `w` of a point set `P` is the size of its largest
//! antichain. By Dilworth's theorem, `w` is also the minimum number of
//! chains partitioning `P`, and the paper's active classifier (Section 4)
//! processes each such chain as an independent 1D problem.
//!
//! * [`decomposition`] — [`ChainDecomposition`], the one Lemma-6 entry:
//!   [`ChainDecomposition::try_compute_from_table`] picks the algorithm
//!   by dimension (a sort at `d = 1`, the patience piles of `two_dim` at
//!   `d = 2`, and at `d ≥ 3` the constructive `O(d·n² + n^2.5)` pipeline
//!   from the proof of Lemma 6: dominance DAG → split bipartite graph →
//!   Hopcroft–Karp matching → minimum path cover (= chains) + König
//!   antichain certificate).
//! * [`mirsky`] — the dual partition into antichains and the height.
//! * [`brute`] — exhaustive width for tiny inputs (the experiments'
//!   ground truth).
//! * [`test_support`] — shared fixtures.
//!
//! The "DAG" step is virtual: the split graph is read directly off
//! `mc_geom::RankOracle` rows and matched with the word-parallel
//! `HopcroftKarpBitset` engine, and the Mirsky height relaxes over the
//! same rows, so neither builds a `Θ(n²/64)` dominator matrix.
//! [`ChainDecomposition::validate`] checks every decomposition's
//! Dilworth certificate directly, and the tests check the width against
//! Kuhn's matching over a pairwise dominance scan.
//!
//! # Example
//!
//! ```
//! use mc_chains::ChainDecomposition;
//! use mc_geom::PointSet;
//!
//! // Two crossing points + one on top: width 2.
//! let points = PointSet::from_rows(2, &[
//!     vec![0.0, 1.0],
//!     vec![1.0, 0.0],
//!     vec![2.0, 2.0],
//! ]);
//! let dec = ChainDecomposition::compute(&points);
//! assert_eq!(dec.width(), 2);
//! assert_eq!(dec.antichain().len(), 2);
//! dec.validate(&points).unwrap();
//! ```

pub mod brute;
pub mod decomposition;
pub mod mirsky;
pub mod test_support;
mod two_dim;

pub use decomposition::{dominance_width, ChainDecomposition};
pub use mirsky::{longest_chain_len, AntichainPartition};

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn decomposition_always_valid_on_random_sets() {
        let mut rng = StdRng::seed_from_u64(0xC4A1);
        for dim in [1usize, 2, 4] {
            for _ in 0..10 {
                let n = rng.gen_range(1..60);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dim).map(|_| rng.gen_range(0.0..8.0)).collect())
                    .collect();
                let points = PointSet::from_rows(dim, &rows);
                let dec = ChainDecomposition::compute(&points);
                dec.validate(&points).unwrap();
            }
        }
    }

    #[test]
    fn higher_dimension_no_smaller_width() {
        // Appending an extra dimension with constant value keeps the
        // width identical.
        let rows = vec![vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]];
        let base = PointSet::from_rows(2, &rows);
        let lifted_rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.push(5.0);
                r
            })
            .collect();
        let lifted = PointSet::from_rows(3, &lifted_rows);
        assert_eq!(dominance_width(&base), dominance_width(&lifted));
    }
}
