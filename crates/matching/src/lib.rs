//! Bipartite-matching substrate for minimum chain decomposition (Lemma 6).
//!
//! The paper computes a chain decomposition with exactly `w` chains
//! (`w` = dominance width) by reducing minimum path cover to maximum
//! bipartite matching and running Hopcroft–Karp \[16\] in `O(E·sqrt(V))`.
//! This crate supplies:
//!
//! * [`BipartiteGraph`] / [`Matching`];
//! * [`BitsetGraph`] — a dense bipartite graph over borrowed `u64`
//!   bitset rows (e.g. straight off a `mc_geom::DominanceIndex`), with
//!   no adjacency-list materialization at all;
//! * [`HopcroftKarp`] — the `O(E·sqrt(V))` algorithm used by Lemma 6;
//! * [`HopcroftKarpBitset`] — the same algorithm with word-parallel
//!   BFS/DFS over bitset rows: each phase is `O(n²/64)` word
//!   operations instead of an `O(E)` pointer walk; generic over
//!   [`RowSource`], so rows can be materialized ([`BitsetGraph`]) or
//!   computed on demand ([`OracleGraph`] over `mc_geom::RankOracle` —
//!   the matrix-free path with `O(d·n)` residency);
//! * [`Kuhn`] — an `O(V·E)` reference implementation for cross-validation;
//! * [`minimum_vertex_cover`] — König's construction, used to certify
//!   maximum antichains; generic over either graph representation via
//!   [`BipartiteAdjacency`].
//!
//! # Example
//!
//! ```
//! use mc_matching::{BipartiteGraph, HopcroftKarp, MatchingAlgorithm};
//!
//! let mut g = BipartiteGraph::new(2, 2);
//! g.add_edge(0, 0);
//! g.add_edge(0, 1);
//! g.add_edge(1, 0);
//! assert_eq!(HopcroftKarp.solve(&g).size(), 2);
//! ```

pub mod bitset;
pub mod graph;
pub mod hopcroft_karp;
pub mod hopcroft_karp_bitset;
pub mod koenig;
pub mod kuhn;
pub mod oracle_graph;
pub mod row_source;

pub use bitset::BitsetGraph;
pub use graph::{BipartiteGraph, Matching};
pub use hopcroft_karp::HopcroftKarp;
pub use hopcroft_karp_bitset::{AlternatingReach, HopcroftKarpBitset};
pub use koenig::{minimum_vertex_cover, VertexCover};
pub use kuhn::Kuhn;
pub use oracle_graph::OracleGraph;
pub use row_source::{ResolvedRow, RowSource};

/// Read access to a bipartite graph, abstracting over the adjacency-list
/// ([`BipartiteGraph`]) and bitset-row ([`BitsetGraph`]) representations.
///
/// Neighbour enumeration is callback-based so bitset implementations can
/// word-scan without boxing an iterator. [`BitsetGraph`] visits right
/// vertices in ascending order; [`BipartiteGraph`] in insertion order
/// (ascending when the graph was read off a dominance index, which is
/// what makes the two engines' tie-breaking line up on Lemma-6 inputs).
pub trait BipartiteAdjacency {
    /// Number of left vertices.
    fn num_left(&self) -> usize;

    /// Number of right vertices.
    fn num_right(&self) -> usize;

    /// `true` iff `(l, r)` is an edge.
    fn has_edge(&self, l: usize, r: usize) -> bool;

    /// Calls `f` for every right neighbour of `l`, ascending.
    fn for_each_neighbour<F: FnMut(usize)>(&self, l: usize, f: F);
}

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
    /// `u64` words examined by the bitset kernels (0 for list engines).
    pub words_scanned: u64,
}

/// A maximum bipartite matching algorithm over graph representation `G`.
pub trait MatchingAlgorithm<G: BipartiteAdjacency = BipartiteGraph> {
    /// Short machine-readable name for reports.
    fn name(&self) -> &'static str;

    /// Computes a maximum matching of `g`.
    fn solve(&self, g: &G) -> Matching;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hopcroft_karp_agrees_with_kuhn() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let nl = rng.gen_range(1..15);
            let nr = rng.gen_range(1..15);
            let mut g = BipartiteGraph::new(nl, nr);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(0..2 * nl * nr) {
                let l = rng.gen_range(0..nl);
                let r = rng.gen_range(0..nr);
                if seen.insert((l, r)) {
                    g.add_edge(l, r);
                }
            }
            let hk = HopcroftKarp.solve(&g);
            let k = Kuhn.solve(&g);
            hk.validate(&g).unwrap();
            k.validate(&g).unwrap();
            assert_eq!(hk.size(), k.size(), "trial {trial}: sizes differ");
        }
    }
}
