//! Bipartite-matching substrate for minimum chain decomposition (Lemma 6).
//!
//! The paper computes a chain decomposition with exactly `w` chains
//! (`w` = dominance width) by reducing minimum path cover to maximum
//! bipartite matching and running Hopcroft–Karp \[16\] in `O(E·sqrt(V))`.
//! This crate supplies:
//!
//! * [`HopcroftKarpBitset`] — that algorithm with word-parallel BFS/DFS
//!   over `u64` bitset rows: each phase is `O(n²/64)` word operations
//!   instead of an `O(E)` pointer walk. It is generic over
//!   [`RowSource`], so rows can be owned up front ([`BitsetGraph`]) or
//!   computed on demand ([`OracleGraph`] over `mc_geom::RankOracle` —
//!   the matrix-free path with `O(d·n)` residency). Its last, failing
//!   BFS layering is König's alternating-reachable set
//!   ([`AlternatingReach`]), which certifies a maximum antichain;
//! * [`Matching`] and [`MatchingStats`];
//! * [`Kuhn`] — an `O(V·E)` reference implementation for tests.
//!
//! # Example
//!
//! ```
//! use mc_matching::{BitsetGraph, HopcroftKarpBitset};
//!
//! // Left 0 is adjacent to rights 0 and 1, left 1 to right 0 only.
//! let mut g = BitsetGraph::new(2);
//! g.push(Box::new([0b11]));
//! g.push(Box::new([0b01]));
//! let (matching, _stats) = HopcroftKarpBitset.solve_with_stats(&g);
//! assert_eq!(matching.size(), 2);
//! matching.validate(&g).unwrap();
//! ```

pub mod bitset;
pub mod hopcroft_karp_bitset;
pub mod kuhn;
pub mod oracle_graph;
pub mod row_source;

pub use bitset::BitsetGraph;
pub use hopcroft_karp_bitset::{AlternatingReach, HopcroftKarpBitset};
pub use kuhn::Kuhn;
pub use oracle_graph::OracleGraph;
pub use row_source::{ResolvedRow, RowSource};

/// Augmentation statistics of one matching solve, for observability and
/// regression tests (see the `matching.*` counters in
/// `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchingStats {
    /// Left vertices matched by the greedy seeding pass.
    pub greedy_matched: u64,
    /// Hopcroft–Karp BFS/DFS phases run after seeding.
    pub rounds: u64,
    /// Augmenting paths applied after seeding.
    pub augmented: u64,
    /// `u64` words examined by the bitset kernels.
    pub words_scanned: u64,
}

/// A matching in a bipartite graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// For each left vertex, its matched right vertex (if any).
    pub left_match: Vec<Option<u32>>,
    /// For each right vertex, its matched left vertex (if any).
    pub right_match: Vec<Option<u32>>,
}

impl Matching {
    /// Cardinality of the matching.
    pub fn size(&self) -> usize {
        self.left_match.iter().filter(|m| m.is_some()).count()
    }

    /// Checks internal consistency and that every matched pair is an edge
    /// of `g`. Used by property tests.
    pub fn validate<G: RowSource>(&self, g: &G) -> Result<(), String> {
        if self.left_match.len() != g.num_left() || self.right_match.len() != g.num_right() {
            return Err("matching size vectors do not match the graph".into());
        }
        let mut scratch = vec![0u64; g.words()];
        for (l, &m) in self.left_match.iter().enumerate() {
            if let Some(r) = m {
                let r = r as usize;
                if self.right_match[r] != Some(l as u32) {
                    return Err(format!("asymmetric match at left {l} / right {r}"));
                }
                if g.phase_row(l, &mut scratch).row[r >> 6] >> (r & 63) & 1 == 0 {
                    return Err(format!("matched pair ({l}, {r}) is not an edge"));
                }
            }
        }
        for (r, &m) in self.right_match.iter().enumerate() {
            if let Some(l) = m {
                if self.left_match[l as usize] != Some(r as u32) {
                    return Err(format!("asymmetric match at right {r} / left {l}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> BitsetGraph {
        let mut g = BitsetGraph::new(2);
        g.push(Box::new([0b01]));
        g.push(Box::new([0b01]));
        g
    }

    #[test]
    fn validate_rejects_non_edges() {
        let g = two_by_two();
        let m = Matching {
            left_match: vec![Some(1), None],
            right_match: vec![None, Some(0)],
        };
        assert!(m.validate(&g).is_err());
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let g = two_by_two();
        let m = Matching {
            left_match: vec![Some(0), None],
            right_match: vec![Some(1), None],
        };
        assert!(m.validate(&g).is_err());
    }

    #[test]
    fn validate_rejects_wrong_sizes() {
        let m = Matching {
            left_match: vec![None],
            right_match: vec![None, None],
        };
        assert!(m.validate(&two_by_two()).is_err());
    }
}
