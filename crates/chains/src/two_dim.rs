//! Fast minimum chain decomposition for `d = 2` in `O(n log n)`.
//!
//! The generic Lemma-6 pipeline costs `O(d·n² + n^2.5)`; in two
//! dimensions the poset is a *permutation-like* order and a patience-pile
//! greedy is optimal: sort by `(x, y)` ascending and scan, appending each
//! point to a chain whose last point it dominates — always the chain
//! whose last `y` is the **largest value still ≤ y** (tightest fit). If
//! none fits, open a new chain.
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
//! use mc_chains::TwoDimDecomposition;
//! use mc_geom::PointSet;
//!
//! let points = PointSet::from_rows(2, &[vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]]);
//! let dec = TwoDimDecomposition::compute(&points);
//! assert_eq!(dec.width(), 2);
//! dec.validate(&points).unwrap();
//! ```

use mc_geom::PointSet;

/// A minimum chain decomposition of a 2D point set, with a maximum
/// antichain certificate, computed in `O(n log n)`.
#[derive(Debug, Clone)]
pub struct TwoDimDecomposition {
    chains: Vec<Vec<usize>>,
    antichain: Vec<usize>,
}

impl TwoDimDecomposition {
    /// Computes the decomposition.
    ///
    /// # Panics
    ///
    /// Panics if `points.dim() != 2`.
    pub fn compute(points: &PointSet) -> Self {
        assert_eq!(points.dim(), 2, "TwoDimDecomposition requires d = 2");
        let n = points.len();
        if n == 0 {
            return Self {
                chains: Vec::new(),
                antichain: Vec::new(),
            };
        }
        // Sort by (x, y) ascending (IEEE total order).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let pa = points.point(a);
            let pb = points.point(b);
            pa[0].total_cmp(&pb[0]).then(pa[1].total_cmp(&pb[1]))
        });

        // Piles, identified by the y of their current tail. `tails` is
        // kept sorted strictly decreasing.
        let mut chains: Vec<Vec<usize>> = Vec::new();
        let mut tail_y: Vec<f64> = Vec::new(); // strictly decreasing
                                               // For the certificate: when a point opens pile k, remember the
                                               // point and, for each point placed on pile k, the tail of pile
                                               // k-1 at that moment (a strictly "above-left" predecessor).
        let mut predecessor: Vec<Option<usize>> = vec![None; n];
        let mut tails_idx: Vec<usize> = Vec::new(); // current tail point of each pile

        for &p in &order {
            let y = points.point(p)[1];
            // Find the pile with the largest tail_y ≤ y: tails are
            // strictly decreasing, so binary search for the first tail ≤ y.
            let pos = tail_y.partition_point(|&t| t > y);
            if pos == tail_y.len() {
                // New pile.
                if pos > 0 {
                    predecessor[p] = Some(tails_idx[pos - 1]);
                }
                chains.push(vec![p]);
                tail_y.push(y);
                tails_idx.push(p);
            } else {
                if pos > 0 {
                    predecessor[p] = Some(tails_idx[pos - 1]);
                }
                chains[pos].push(p);
                tail_y[pos] = y;
                tails_idx[pos] = p;
            }
            // Re-establish strict decrease: tail_y[pos] = y could equal
            // tail_y[pos-1]? No: tail_y[pos-1] > y by the partition point
            // (strictly), and tail_y[pos+1..] stay < y because the old
            // tail_y[pos] ≤ y and the sequence was decreasing.
            debug_assert!(
                tail_y.windows(2).all(|w| w[0] > w[1]),
                "pile tails must stay strictly decreasing"
            );
        }

        // Certificate: start from the last pile's final opener... the
        // standard construction walks predecessors from the last pile's
        // tail at the end of the scan.
        let mut antichain = Vec::with_capacity(chains.len());
        let mut cur = tails_idx.last().copied();
        while let Some(p) = cur {
            antichain.push(p);
            cur = predecessor[p];
        }
        antichain.reverse();

        Self { chains, antichain }
    }

    /// The chains (ascending dominance order within each chain).
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// The dominance width.
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// A maximum antichain certificate (size equals the chain count).
    pub fn antichain(&self) -> &[usize] {
        &self.antichain
    }

    /// Converts into the generic [`ChainDecomposition`](crate::ChainDecomposition)-style validation:
    /// checks partition, chain validity, certificate antichain-ness and
    /// Dilworth equality.
    pub fn validate(&self, points: &PointSet) -> Result<(), String> {
        let n = points.len();
        let mut seen = vec![false; n];
        for (c, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return Err(format!("chain {c} empty"));
            }
            for &i in chain {
                if seen[i] {
                    return Err(format!("index {i} in two chains"));
                }
                seen[i] = true;
            }
            for pair in chain.windows(2) {
                if !points.dominates(pair[1], pair[0]) {
                    return Err(format!("chain {c}: {} !⪰ {}", pair[1], pair[0]));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("chains do not cover all points".into());
        }
        for (a, &i) in self.antichain.iter().enumerate() {
            for &j in &self.antichain[a + 1..] {
                if points.dominates(i, j) || points.dominates(j, i) {
                    return Err(format!("certificate {i}, {j} comparable"));
                }
            }
        }
        if self.antichain.len() != self.chains.len() {
            return Err(format!(
                "certificate size {} != chain count {}",
                self.antichain.len(),
                self.chains.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let fast = TwoDimDecomposition::compute(&points);
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
        let dec = TwoDimDecomposition::compute(&empty);
        assert_eq!(dec.width(), 0);
        let single = PointSet::from_rows(2, &[vec![1.0, 2.0]]);
        let dec = TwoDimDecomposition::compute(&single);
        assert_eq!(dec.width(), 1);
        dec.validate(&single).unwrap();
    }

    #[test]
    fn figure1_width_6() {
        let points = crate::test_support::figure1_like_points();
        let dec = TwoDimDecomposition::compute(&points);
        assert_eq!(dec.width(), 6);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn pure_chain_and_pure_antichain() {
        let chain = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert_eq!(TwoDimDecomposition::compute(&chain).width(), 1);
        let anti = PointSet::from_rows(2, &[vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]]);
        let dec = TwoDimDecomposition::compute(&anti);
        assert_eq!(dec.width(), 3);
        dec.validate(&anti).unwrap();
    }

    #[test]
    fn duplicates_share_chain() {
        let points = PointSet::from_rows(2, &vec![vec![1.0, 1.0]; 4]);
        let dec = TwoDimDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn equal_x_distinct_y() {
        // Same x: comparable via y; must fall into one chain.
        let points = PointSet::from_rows(2, &[vec![1.0, 3.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let dec = TwoDimDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn large_input_fast() {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        let points = random_2d(50_000, 1e6, &mut rng);
        let t0 = std::time::Instant::now();
        let dec = TwoDimDecomposition::compute(&points);
        assert!(dec.width() > 100);
        assert!(
            t0.elapsed().as_secs_f64() < 5.0,
            "O(n log n) path too slow: {:?}",
            t0.elapsed()
        );
        dec.validate(&points).unwrap();
    }
}
