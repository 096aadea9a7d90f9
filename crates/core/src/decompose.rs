//! Dimension-dispatched minimum chain decomposition.
//!
//! All consumers of Lemma 6 in this crate route through
//! [`minimum_chains`], which picks the cheapest exact algorithm:
//!
//! * `d = 1` — sorting: the whole set is one chain (`O(n log n)`);
//! * `d = 2` — the patience-pile construction (`O(n log n)`);
//! * `d ≥ 3` — the paper's Lemma 6: Hopcroft–Karp on the split graph
//!   of the dominance order (`O(d·n² + n^2.5)` time), with rows computed
//!   from a `RankOracle`'s `O(d·n)` rank columns instead of an `n²`
//!   dominance matrix.
//!
//! All three return a *minimum* decomposition, so every probing/error
//! guarantee downstream is unaffected by the dispatch.
//!
//! # Example
//!
//! ```
//! use mc_core::minimum_chains;
//! use mc_geom::PointSet;
//!
//! let points = PointSet::from_rows(2, &[vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]]);
//! let chains = minimum_chains(&points);
//! assert_eq!(chains.len(), 2); // the dominance width
//! ```

use mc_chains::{ChainDecomposition, TwoDimDecomposition};
use mc_geom::{PointSet, RankTable};
use mc_obs::CancelToken;

/// Computes a minimum chain decomposition (ascending dominance order
/// within each chain), dispatching on dimensionality.
pub fn minimum_chains(points: &PointSet) -> Vec<Vec<usize>> {
    ranked_minimum_chains(points).0
}

/// [`minimum_chains`], plus the points' [`RankTable`] when the dispatch
/// ranked them (`d ≥ 3`), so that callers restricting the points later
/// (the active solvers' sample Σ) gather its rows instead of ranking
/// again.
pub(crate) fn ranked_minimum_chains(points: &PointSet) -> (Vec<Vec<usize>>, Option<RankTable>) {
    if points.is_empty() {
        return (Vec::new(), None);
    }
    // Spanned here (not in mc-chains) so the d ≤ 2 sort/sweep dispatch
    // arms are timed under the same name as the Lemma-6 pipeline.
    let _span = mc_obs::span("chain_decomposition");
    let (chains, table) = match points.dim() {
        1 => {
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| points.point(a)[0].total_cmp(&points.point(b)[0]));
            (vec![order], None)
        }
        2 => (TwoDimDecomposition::compute(points).chains().to_vec(), None),
        // The Lemma-6 matching runs matrix-free off one oracle that
        // gathers the table's columns in a linear extension: rows are
        // cached when they fit the row budget and computed on demand
        // above it, identical either way.
        _ => {
            let table = RankTable::build(points);
            let dec = ChainDecomposition::try_compute_from_table(&table, &CancelToken::never())
                .expect("a never-token cannot cancel");
            (dec.chains().to_vec(), Some(table))
        }
    };
    mc_obs::gauge_set("chains.width", chains.len() as f64);
    (chains, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_chains::dominance_width;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn one_dim_is_single_sorted_chain() {
        let points = PointSet::from_values_1d(&[3.0, 1.0, 2.0]);
        let chains = minimum_chains(&points);
        assert_eq!(chains, vec![vec![1, 2, 0]]);
    }

    #[test]
    fn empty_set() {
        assert!(minimum_chains(&PointSet::new(4)).is_empty());
    }

    #[test]
    fn chain_count_equals_width_all_dims() {
        let mut rng = StdRng::seed_from_u64(0xDD);
        for dim in [1usize, 2, 3, 5] {
            for _ in 0..5 {
                let n = rng.gen_range(1..40);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..dim)
                            .map(|_| rng.gen_range(0.0f64..5.0).round())
                            .collect()
                    })
                    .collect();
                let points = PointSet::from_rows(dim, &rows);
                let chains = minimum_chains(&points);
                assert_eq!(chains.len(), dominance_width(&points), "d = {dim}");
                // Valid partition into valid chains.
                let mut seen = vec![false; n];
                for chain in &chains {
                    for pair in chain.windows(2) {
                        assert!(points.dominates(pair[1], pair[0]));
                    }
                    for &i in chain {
                        assert!(!seen[i]);
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }
}
