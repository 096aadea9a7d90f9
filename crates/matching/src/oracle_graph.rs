//! Matrix-free Lemma-6 split graph over a [`RankOracle`].
//!
//! [`OracleGraph`] is the on-demand counterpart of
//! [`BitsetGraph::from_index`](crate::BitsetGraph::from_index): the same
//! strict-successor bipartite graph (left copy of point `u` adjacent to
//! right copy of `v` iff `v` strictly dominates `u`, or equals it with
//! `v > u`), but no row is stored anywhere — each is computed from the
//! oracle's rank columns when the engine asks, into the scratch buffer
//! the engine supplies. Residency drops from `Θ(n²/64)` words to the
//! oracle's `O(d·n)` ranks, which is what lets Lemma-6 matching run at
//! `n` far past the matrix wall.
//!
//! Rows are bit-identical to the `BitsetGraph` rows over the same
//! points (the oracle reproduces `DominanceIndex` rows exactly), and
//! the graph implements [`BipartiteAdjacency`], so the Hopcroft–Karp
//! engine, the König vertex cover, and the width certification all run
//! unchanged — same tie-breaks, same matching, same antichain.

use crate::bitset::BitsetGraph;
use crate::row_source::{ResolvedRow, RowSource};
use crate::BipartiteAdjacency;
use mc_geom::RankOracle;

/// A bipartite strict-dominance graph whose rows are computed on demand
/// from rank columns. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct OracleGraph<'a> {
    oracle: &'a RankOracle,
}

impl<'a> OracleGraph<'a> {
    /// Wraps an oracle as the Lemma-6 split graph of its points.
    pub fn new(oracle: &'a RankOracle) -> Self {
        Self { oracle }
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &'a RankOracle {
        self.oracle
    }

    /// Materializes every strict-successor row once into an owned
    /// [`BitsetGraph`], fanning the row computations out over
    /// [`mc_geom::parallel_chunks`]. One `O(d·n/64)` rank-compare pass
    /// per row — after which every scan of the returned graph is a pure
    /// word load, `Θ(n²/64)` words resident.
    ///
    /// Hopcroft–Karp revisits the same rows once per BFS/DFS sweep per
    /// phase, so recomputing them from rank columns every time can cost
    /// more than the whole matching. Callers are responsible for gating
    /// the `Θ(n²/64)` residency (the Lemma-6 decomposition checks
    /// `mc_geom::matrix_bytes` against its row-cache budget first).
    /// Rows are bit-identical to the on-demand ones, so the matching —
    /// and everything downstream — is unchanged.
    pub fn materialize_cancellable(
        &self,
        token: &mc_obs::CancelToken,
    ) -> Result<BitsetGraph<'static>, mc_obs::Cancelled> {
        let n = self.oracle.len();
        let words = RowSource::words(self);
        let parts = mc_geom::parallel_chunks(n, |range| {
            let mut rows: Vec<Box<[u64]>> = Vec::with_capacity(range.len());
            let mut cp = mc_obs::cancel::Checkpoint::new(token);
            for l in range {
                cp.tick(words as u64)?;
                let mut row = vec![0u64; words].into_boxed_slice();
                self.oracle.strict_successor_row_into(l, &mut row);
                rows.push(row);
            }
            Ok(rows)
        });
        let mut g = BitsetGraph::new(n);
        for part in parts {
            for row in part? {
                g.push_owned_row(row);
            }
        }
        Ok(g)
    }

    /// Counts edges by materializing each row once. `O(n)` row
    /// computations — diagnostic use only.
    pub fn count_edges(&self) -> u64 {
        let words = RowSource::words(self);
        let mut row = vec![0u64; words];
        let mut total = 0u64;
        for l in 0..self.oracle.len() {
            self.oracle.strict_successor_row_into(l, &mut row);
            total += row.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        total
    }
}

impl RowSource for OracleGraph<'_> {
    fn num_left(&self) -> usize {
        self.oracle.len()
    }

    fn num_right(&self) -> usize {
        self.oracle.len()
    }

    fn words(&self) -> usize {
        self.oracle.words()
    }

    #[inline]
    fn resolve_row<'s>(&'s self, l: usize, scratch: &'s mut [u64]) -> ResolvedRow<'s> {
        self.oracle.strict_successor_row_into(l, scratch);
        ResolvedRow {
            row: scratch,
            patch_word: 0,
            patch_mask: !0u64,
            cached: true,
        }
    }

    #[inline]
    fn or_row_into(&self, l: usize, acc: &mut [u64], scratch: &mut [u64]) -> u64 {
        self.oracle.strict_successor_row_into(l, scratch);
        for (a, &w) in acc.iter_mut().zip(scratch.iter()) {
            *a |= w;
        }
        self.oracle.words() as u64
    }
}

impl BipartiteAdjacency for OracleGraph<'_> {
    fn num_left(&self) -> usize {
        self.oracle.len()
    }

    fn num_right(&self) -> usize {
        self.oracle.len()
    }

    fn has_edge(&self, l: usize, r: usize) -> bool {
        r != l && self.oracle.dominates(r, l) && (!self.oracle.equal_points(r, l) || r > l)
    }

    fn for_each_neighbour<F: FnMut(usize)>(&self, l: usize, mut f: F) {
        // König's alternating reachability visits each left at most once
        // per call site, so a per-call row buffer is fine here.
        let mut row = vec![0u64; self.oracle.words()];
        self.oracle.strict_successor_row_into(l, &mut row);
        for r in mc_geom::iter_ones(&row) {
            f(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitsetGraph;
    use mc_geom::{DominanceIndex, PointSet, RankOracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> PointSet {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect())
            .collect();
        if n == 0 {
            PointSet::new(dim)
        } else {
            PointSet::from_rows(dim, &rows)
        }
    }

    #[test]
    fn adjacency_matches_bitset_graph() {
        let mut rng = StdRng::seed_from_u64(0x06A);
        for dim in [1usize, 2, 3] {
            let n = rng.gen_range(1..80);
            let points = random_points(n, dim, 3.0, &mut rng);
            let index = DominanceIndex::build(&points);
            let oracle = RankOracle::build(&points);
            let bits = BitsetGraph::from_index(&index);
            let og = OracleGraph::new(&oracle);
            assert_eq!(og.count_edges(), bits.count_edges(), "dim {dim} n {n}");
            for l in 0..n {
                let mut a = Vec::new();
                let mut b = Vec::new();
                bits.for_each_neighbour(l, |r| a.push(r));
                og.for_each_neighbour(l, |r| b.push(r));
                assert_eq!(a, b, "dim {dim} n {n} l {l}");
                for r in 0..n {
                    assert_eq!(
                        BipartiteAdjacency::has_edge(&og, l, r),
                        bits.has_edge(l, r),
                        "dim {dim} n {n} edge {l}->{r}"
                    );
                }
            }
        }
    }
}
