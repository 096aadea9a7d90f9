//! Matrix-free Lemma-6 split graph over a [`RankOracle`].
//!
//! [`OracleGraph`] is the on-demand counterpart of
//! [`BitsetGraph::from_index`](crate::BitsetGraph::from_index): the same
//! strict-successor bipartite graph (left copy of point `u` adjacent to
//! right copy of `v` iff `v` strictly dominates `u`, or equals it with
//! `v > u`), but rows are computed from the oracle's suffix bitsets when
//! the engine asks, into the scratch buffer the engine supplies.
//! Residency drops from `Θ(n²/64)` words to the oracle's budgeted table,
//! which is what lets Lemma-6 matching run at `n` far past the matrix
//! wall.
//!
//! When the oracle's points are labelled in a linear extension of
//! dominance ([`RankOracle::is_linear_extension`]), every strict successor
//! of `l` has a larger label, so row `l` starts at word `⌊l/64⌋`: the
//! greedy seed's lazy scan ([`RankOracle::first_strict_successor`]), the
//! row computations ([`RankOracle::strict_successor_row_from`]) and the
//! BFS row ORs all begin there, which halves a row's suffix ANDs on
//! average. The seed builds no row at all, and its scan starts at bit
//! `l + 1`: the diagonal word's bits up to `l` pass the suffix filter
//! but are never successors, and each would cost `d` rank compares.
//!
//! Built [`with_row_cache`](OracleGraph::with_row_cache), the graph also
//! keeps every row a Hopcroft–Karp BFS or DFS asks for and serves it from
//! the cache after that: each round ends in a BFS that revisits nearly
//! all of them. The greedy seed and König's reachability never fill it.
//!
//! Rows are bit-identical to the `BitsetGraph` rows over the same
//! points (the oracle reproduces `DominanceIndex` rows exactly), and
//! the graph implements [`BipartiteAdjacency`], so the Hopcroft–Karp
//! engine, the König vertex cover, and the width certification all run
//! unchanged — same tie-breaks, same matching, same antichain.

use crate::row_source::{ResolvedRow, RowSource};
use crate::BipartiteAdjacency;
use mc_geom::RankOracle;
use std::sync::OnceLock;

/// A bipartite strict-dominance graph whose rows are computed on demand
/// from a rank oracle. See the module docs.
#[derive(Debug)]
pub struct OracleGraph<'a> {
    oracle: &'a RankOracle,
    /// `true` iff the oracle's labels form a linear extension, so row `l`
    /// has no bit below word `⌊l/64⌋`.
    diagonal: bool,
    /// Per-row cache of the rows the phases asked for. `Sync`, so the
    /// parallel BFS can fill it from every worker.
    cache: Option<Vec<OnceLock<Box<[u64]>>>>,
}

impl<'a> OracleGraph<'a> {
    /// Wraps an oracle as the Lemma-6 split graph of its points; every
    /// row is recomputed whenever the engine asks for it.
    pub fn new(oracle: &'a RankOracle) -> Self {
        Self {
            oracle,
            diagonal: oracle.is_linear_extension(),
            cache: None,
        }
    }

    /// Like [`new`](Self::new), but keeps every row a Hopcroft–Karp
    /// phase asks for. The cache grows to at most `n·⌈n/64⌉` words, so
    /// callers gate it on that size (the Lemma-6 decomposition checks
    /// it against `mc_geom::row_budget_bytes`).
    pub fn with_row_cache(oracle: &'a RankOracle) -> Self {
        let n = oracle.len();
        Self {
            cache: Some((0..n).map(|_| OnceLock::new()).collect()),
            ..Self::new(oracle)
        }
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &'a RankOracle {
        self.oracle
    }

    /// Number of rows the cache holds (0 without a cache).
    pub fn rows_cached(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.iter().filter(|r| r.get().is_some()).count())
    }

    /// The cached row of `l`, if one is stored.
    fn cached_row(&self, l: usize) -> Option<&[u64]> {
        self.cache.as_ref()?[l].get().map(|r| &r[..])
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

    fn first_word(&self, l: usize) -> usize {
        if self.diagonal {
            l >> 6
        } else {
            0
        }
    }

    fn first_free_neighbour(&self, l: usize, free: &[u64], _scratch: &mut [u64]) -> Option<usize> {
        // In a linear extension every strict successor of `l` is above
        // it, so the scan skips the diagonal word's bits up to `l`.
        let from_bit = if self.diagonal { l + 1 } else { 0 };
        self.oracle.first_strict_successor(l, free, from_bit)
    }

    fn phase_row<'s>(&'s self, l: usize, scratch: &'s mut [u64]) -> ResolvedRow<'s> {
        let from = self.first_word(l);
        let Some(cache) = &self.cache else {
            self.oracle.strict_successor_row_from(l, from, scratch);
            return ResolvedRow {
                row: scratch,
                patch_word: 0,
                patch_mask: !0u64,
                cached: true,
            };
        };
        let row = cache[l].get_or_init(|| {
            let mut row = vec![0u64; self.oracle.words()].into_boxed_slice();
            self.oracle.strict_successor_row_from(l, from, &mut row);
            row
        });
        ResolvedRow {
            row,
            patch_word: 0,
            patch_mask: !0u64,
            cached: false,
        }
    }

    #[inline]
    fn or_row_into(&self, l: usize, acc: &mut [u64], scratch: &mut [u64]) -> u64 {
        let from = self.first_word(l);
        let row = self.phase_row(l, scratch).row;
        for (a, &w) in acc[from..].iter_mut().zip(&row[from..]) {
            *a |= w;
        }
        (self.oracle.words() - from) as u64
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

    fn for_each_neighbour<F: FnMut(usize)>(&self, l: usize, f: F) {
        // König's alternating reachability visits each left at most once
        // per call site: read a cached row, else compute one without
        // caching it.
        match self.cached_row(l) {
            Some(row) => mc_geom::iter_ones(row).for_each(f),
            None => {
                let mut row = vec![0u64; self.oracle.words()];
                self.oracle
                    .strict_successor_row_from(l, self.first_word(l), &mut row);
                mc_geom::iter_ones(&row).for_each(f);
            }
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
            // Visit every row twice through the phases: the first visit
            // fills the cache, the second and König's neighbour walks
            // read the cached rows.
            let cached = OracleGraph::with_row_cache(&oracle);
            let mut scratch = vec![0u64; RowSource::words(&cached)];
            for _ in 0..2 {
                for l in 0..n {
                    let row = cached.phase_row(l, &mut scratch).row.to_vec();
                    let (want, pw, pmask) = bits.row_parts(l);
                    let mut want = want.to_vec();
                    want[pw] &= pmask;
                    assert_eq!(row, want, "dim {dim} n {n} l {l}");
                }
            }
            assert_eq!(cached.rows_cached(), n);
            for l in 0..n {
                let mut a = Vec::new();
                let mut b = Vec::new();
                let mut c = Vec::new();
                bits.for_each_neighbour(l, |r| a.push(r));
                og.for_each_neighbour(l, |r| b.push(r));
                cached.for_each_neighbour(l, |r| c.push(r));
                assert_eq!(a, b, "dim {dim} n {n} l {l}");
                assert_eq!(a, c, "cached, dim {dim} n {n} l {l}");
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
