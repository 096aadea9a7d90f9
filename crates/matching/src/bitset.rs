//! Bipartite graph over owned `u64` bitset rows.
//!
//! [`BitsetGraph`] stores each left vertex's neighbourhood as a
//! `⌈nr/64⌉`-word bitset row, built up front: the materialized
//! [`RowSource`]. Tests and benches fill one from edge lists or from a
//! pairwise dominance scan, the reference the oracle rows are checked
//! against.

use crate::row_source::{ResolvedRow, RowSource};

/// A bipartite graph whose left-side neighbourhoods are owned `u64`
/// bitset rows.
///
/// Right vertex `r` is a neighbour of left vertex `l` iff bit `r` of
/// row `l` is set. Rows all have the same width `⌈nr/64⌉`; bits at
/// positions `>= nr` must be zero.
#[derive(Debug, Clone)]
pub struct BitsetGraph {
    nr: usize,
    words: usize,
    rows: Vec<Box<[u64]>>,
}

impl BitsetGraph {
    /// Creates a graph with `nr` right vertices and no left vertices
    /// yet; rows are appended with [`push`](Self::push).
    pub fn new(nr: usize) -> Self {
        Self {
            nr,
            words: nr.div_ceil(64),
            rows: Vec::new(),
        }
    }

    /// Appends a left vertex with neighbourhood row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn push(&mut self, row: Box<[u64]>) {
        assert_eq!(row.len(), self.words, "row width mismatch");
        self.rows.push(row);
    }
}

impl RowSource for BitsetGraph {
    fn num_left(&self) -> usize {
        self.rows.len()
    }

    fn num_right(&self) -> usize {
        self.nr
    }

    fn words(&self) -> usize {
        self.words
    }

    #[inline]
    fn phase_row<'s>(&'s self, l: usize, _scratch: &'s mut [u64]) -> ResolvedRow<'s> {
        ResolvedRow {
            row: &self.rows[l],
            cached: false,
        }
    }

    #[inline]
    fn or_row_into(&self, l: usize, acc: &mut [u64], _scratch: &mut [u64]) -> u64 {
        for (a, &w) in acc.iter_mut().zip(self.rows[l].iter()) {
            *a |= w;
        }
        self.words as u64
    }
}

#[cfg(test)]
impl BitsetGraph {
    /// The Lemma-6 split graph of `points` by a pairwise scan: right `v`
    /// is adjacent to left `u` iff `v` dominates `u`, with equal points
    /// oriented by ascending index (only the later one succeeds).
    pub(crate) fn pairwise_split(points: &mc_geom::PointSet) -> Self {
        use mc_geom::Dominance;
        let n = points.len();
        let mut g = Self::new(n);
        for u in 0..n {
            let succeeds = |v: usize| match points.compare(u, v) {
                Dominance::DominatedBy => true,
                Dominance::Equal => v > u,
                _ => false,
            };
            g.push(mc_geom::bitmask_of(n, (0..n).filter(|&v| succeeds(v))).into_boxed_slice());
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_served_verbatim() {
        let mut g = BitsetGraph::new(65);
        g.push(Box::new([0b1011, 0b1]));
        assert_eq!(g.num_left(), 1);
        assert_eq!(g.num_right(), 65);
        assert_eq!(g.phase_row(0, &mut [0; 2]).row, &[0b1011, 0b1]);
        // An OR keeps the bits earlier rows contributed.
        let mut acc = vec![0b0100u64, 0];
        assert_eq!(g.or_row_into(0, &mut acc, &mut [0; 2]), 2);
        assert_eq!(acc, [0b1111, 0b1]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_is_rejected() {
        BitsetGraph::new(65).push(Box::new([0]));
    }
}
