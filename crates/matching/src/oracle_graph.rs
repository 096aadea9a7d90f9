//! Matrix-free Lemma-6 split graph over a [`RankOracle`].
//!
//! [`OracleGraph`] is the strict-successor bipartite graph of the
//! oracle's points (left copy of point `u` adjacent to right copy of `v`
//! iff `v` strictly dominates `u`, or equals it with `v > u`), with rows
//! computed from the oracle's suffix bitsets when the engine asks, into
//! the scratch buffer the engine supplies. Residency is the oracle's
//! budgeted table instead of `Θ(n²/64)` matrix words, which is what lets
//! Lemma-6 matching run at `n` far past the matrix wall.
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
//! all of them. The greedy seed never fills it.
//!
//! Rows are bit-identical to the strict-successor rows of a pairwise
//! dominance scan over the same points (equal points oriented by
//! ascending index), so the engine returns the same matching and König
//! set over owned copies of those rows.

use crate::row_source::{ResolvedRow, RowSource};
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

    /// Number of rows the cache holds (0 without a cache).
    pub fn rows_cached(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.iter().filter(|r| r.get().is_some()).count())
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
                cached: true,
            };
        };
        let row = cache[l].get_or_init(|| {
            let mut row = vec![0u64; self.oracle.words()].into_boxed_slice();
            self.oracle.strict_successor_row_from(l, from, &mut row);
            row
        });
        ResolvedRow { row, cached: false }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitsetGraph;
    use mc_geom::{PointSet, RankOracle};
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
    fn rows_match_the_pairwise_strict_successor_rows() {
        let mut rng = StdRng::seed_from_u64(0x06A);
        for dim in [1usize, 2, 3] {
            let n = rng.gen_range(1..80);
            let points = random_points(n, dim, 3.0, &mut rng);
            // Once in the caller's order, once relabelled in a linear
            // extension so rows start at the diagonal word.
            let order = RankOracle::build(&points).linear_extension();
            let rows: Vec<Vec<f64>> = order.iter().map(|&i| points.point(i).to_vec()).collect();
            let sorted = PointSet::from_rows(dim, &rows);
            for points in [&points, &sorted] {
                let scan = BitsetGraph::pairwise_split(points);
                let oracle = RankOracle::build(points);
                let on_demand = OracleGraph::new(&oracle);
                let cached = OracleGraph::with_row_cache(&oracle);
                // Visit every row twice through the phases: the first
                // visit fills the cache, the second reads it.
                for og in [&on_demand, &cached] {
                    let mut scratch = vec![0u64; og.words()];
                    for _ in 0..2 {
                        for l in 0..n {
                            let want = scan.phase_row(l, &mut []).row.to_vec();
                            let row = og.phase_row(l, &mut scratch).row;
                            assert_eq!(row, &want[..], "dim {dim} n {n} l {l}");
                            let mut acc = vec![0u64; og.words()];
                            og.or_row_into(l, &mut acc, &mut scratch);
                            assert_eq!(acc, want, "or, dim {dim} n {n} l {l}");
                        }
                    }
                }
                assert_eq!(on_demand.rows_cached(), 0);
                assert_eq!(cached.rows_cached(), n);
            }
        }
    }
}
