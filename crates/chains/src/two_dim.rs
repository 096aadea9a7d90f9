//! The `d = 2` arm of [`ChainDecomposition::try_compute_from_table`]: a
//! minimum chain decomposition in `O(n log n)`.
//!
//! The generic Lemma-6 pipeline costs `O(d·n² + n^2.5)`; in two
//! dimensions the poset is a *permutation-like* order and a patience-pile
//! greedy is optimal: sort by `(x, y)` ascending and scan, appending each
//! point to a chain whose last point it dominates — always the chain
//! whose last `y` is the **largest value still ≤ y** (tightest fit). If
//! none fits, open a new chain. The scan reads the two rank columns, so
//! `-0.0` and `+0.0` tie and equal coordinates share a rank.
//!
//! Optimality: the chain tails (their `y` values) form a strictly
//! decreasing multiset across piles at all times (standard patience
//! argument); when the `k`-th pile opens, the current point together with
//! each previous pile's tail at that moment forms a `k`-point antichain
//! (each earlier tail has `x ≤` — but `y >` — the new point; with equal
//! `x` handled by the `y`-ascending sort tie-break, a same-`x` earlier
//! point would have `y ≤` and thus fit its pile). Hence the number of
//! piles equals the maximum antichain size — Dilworth equality — and the
//! anti-chain certificate can be recovered by back-pointers.
//!
//! # Example
//!
//! ```
//! use mc_chains::ChainDecomposition;
//! use mc_geom::PointSet;
//!
//! let points = PointSet::from_rows(2, &[vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]]);
//! let dec = ChainDecomposition::compute(&points);
//! assert_eq!(dec.width(), 2);
//! dec.validate(&points).unwrap();
//! ```

use crate::ChainDecomposition;

/// The patience piles over the rank columns `x` and `y` (point `i` is
/// `(x[i], y[i])`), chains in pile order, with a maximum antichain read
/// off the back-pointers.
pub(crate) fn patience_piles(x: &[u32], y: &[u32]) -> ChainDecomposition {
    let n = x.len();
    // Sorted by (x, y); the stable sort keeps equal points in index order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (x[i], y[i]));

    let mut chains: Vec<Vec<usize>> = Vec::new();
    // The `y` of each pile's tail, strictly decreasing.
    let mut tail_y: Vec<u32> = Vec::new();
    // For the certificate: each point's predecessor is the tail of the
    // pile left of its own when it was placed (above-left of it).
    let mut predecessor: Vec<Option<usize>> = vec![None; n];
    for &p in &order {
        // The first pile whose tail is ≤ y: the largest such tail.
        let pos = tail_y.partition_point(|&t| t > y[p]);
        if pos > 0 {
            predecessor[p] = chains[pos - 1].last().copied();
        }
        if pos == chains.len() {
            chains.push(Vec::new());
            tail_y.push(y[p]);
        }
        // tail_y[pos - 1] > y by the partition point, and the piles right
        // of `pos` stay below the old tail_y[pos] ≤ y: the tails stay
        // strictly decreasing.
        chains[pos].push(p);
        tail_y[pos] = y[p];
    }

    // The last pile's tail and its chain of back-pointers: one point per
    // pile, pairwise incomparable.
    let mut antichain = Vec::with_capacity(chains.len());
    let mut cur = chains.last().and_then(|c| c.last()).copied();
    while let Some(p) = cur {
        antichain.push(p);
        cur = predecessor[p];
    }
    antichain.sort_unstable();
    ChainDecomposition { chains, antichain }
}

#[cfg(test)]
mod tests {
    use crate::ChainDecomposition;
    use mc_geom::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_2d(n: usize, grid: f64, rng: &mut StdRng) -> PointSet {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    rng.gen_range(0.0..grid).round(),
                    rng.gen_range(0.0..grid).round(),
                ]
            })
            .collect();
        PointSet::from_rows(2, &rows)
    }

    #[test]
    fn agrees_with_matching_based_width() {
        let mut rng = StdRng::seed_from_u64(0x2D);
        for trial in 0..60 {
            let n = rng.gen_range(1..80);
            let grid = *[4.0, 20.0, 1000.0].get(trial % 3).unwrap();
            let points = random_2d(n, grid, &mut rng);
            let fast = ChainDecomposition::compute(&points);
            fast.validate(&points)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}\n{points:?}"));
            assert_eq!(
                fast.width(),
                crate::test_support::kuhn_width(&points),
                "trial {trial}: width mismatch on {points:?}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let empty = PointSet::new(2);
        let dec = ChainDecomposition::compute(&empty);
        assert_eq!(dec.width(), 0);
        let single = PointSet::from_rows(2, &[vec![1.0, 2.0]]);
        let dec = ChainDecomposition::compute(&single);
        assert_eq!(dec.width(), 1);
        dec.validate(&single).unwrap();
    }

    #[test]
    fn figure1_width_6() {
        let points = crate::test_support::figure1_like_points();
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 6);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn pure_chain_and_pure_antichain() {
        let chain = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert_eq!(ChainDecomposition::compute(&chain).width(), 1);
        let anti = PointSet::from_rows(2, &[vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]]);
        let dec = ChainDecomposition::compute(&anti);
        assert_eq!(dec.width(), 3);
        dec.validate(&anti).unwrap();
    }

    #[test]
    fn duplicates_share_chain() {
        let points = PointSet::from_rows(2, &vec![vec![1.0, 1.0]; 4]);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn equal_x_distinct_y() {
        // Same x: comparable via y; must fall into one chain.
        let points = PointSet::from_rows(2, &[vec![1.0, 3.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn large_input_fast() {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        let points = random_2d(50_000, 1e6, &mut rng);
        let t0 = std::time::Instant::now();
        let dec = ChainDecomposition::compute(&points);
        assert!(dec.width() > 100);
        assert!(
            t0.elapsed().as_secs_f64() < 5.0,
            "O(n log n) path too slow: {:?}",
            t0.elapsed()
        );
        dec.validate(&points).unwrap();
    }
}
