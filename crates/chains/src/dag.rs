//! The dominance DAG of a point set.
//!
//! Following the proof of Lemma 6 (Appendix B of the paper): build an
//! acyclic directed graph with one vertex per point and an edge `u -> v`
//! whenever `v` strictly dominates `u` (so edges point "upward" and a
//! directed path is a chain in ascending dominance order). The naive
//! construction costs `O(d·n²)` pairwise float compares; the default
//! build instead reads the edges off a shared [`DominanceIndex`] (rank
//! compression + bitset rows — see `mc_geom::index`), which fills in
//! `O(n²/64)` word operations for `d ≤ 2` and with a parallel blocked
//! compare kernel otherwise.
//!
//! The DAG holds `Θ(n²)` edges, so no shipped path builds it: the chain
//! decomposition and the Mirsky height read the same edges off
//! `mc_geom::RankOracle` rows. It stays as the reference those paths
//! are tested and benchmarked against ([`crate::ChainDecomposition::from_dag`],
//! [`crate::AntichainPartition::from_dag`]).
//!
//! Duplicate coordinate vectors — which the paper's set semantics excludes
//! but real data contains — are handled by breaking ties on index: equal
//! points are considered comparable (they can share a chain, and can never
//! both sit in an antichain), oriented from the smaller index to the
//! larger. This preserves both Dilworth duality and classifier semantics
//! (a classifier necessarily assigns equal points the same label).

use mc_geom::{parallel_chunks, Dominance, DominanceIndex, PointSet};

/// The dominance DAG over a [`PointSet`]. Because dominance is transitive,
/// this graph equals its own transitive closure, which is exactly what the
/// path-cover reduction of Lemma 6 requires.
#[derive(Debug, Clone)]
pub struct DominanceDag {
    n: usize,
    /// `succ[u]` lists all `v` with `v ≻ u` (or `v == u`, `u < v`).
    succ: Vec<Vec<u32>>,
    num_edges: usize,
}

impl DominanceDag {
    /// Builds the DAG via a freshly built [`DominanceIndex`]. Callers
    /// that already hold an index should use [`DominanceDag::from_index`]
    /// to avoid rebuilding it.
    pub fn build(points: &PointSet) -> Self {
        Self::from_index(&DominanceIndex::build(points))
    }

    /// Reads the DAG off a prebuilt index: successors of `u` are the set
    /// bits of `u`'s dominator row, minus `u` itself, with equal points
    /// oriented small-index → large-index. Runs in parallel row chunks.
    pub fn from_index(index: &DominanceIndex) -> Self {
        let _span = mc_obs::span("dag_build");
        let n = index.len();
        let chunks = parallel_chunks(n, |range| {
            let mut local: Vec<Vec<u32>> = Vec::with_capacity(range.len());
            for u in range {
                local.push(index.strict_successors(u).map(|v| v as u32).collect());
            }
            local
        });
        let mut succ: Vec<Vec<u32>> = Vec::with_capacity(n);
        for chunk in chunks {
            succ.extend(chunk);
        }
        let num_edges = succ.iter().map(Vec::len).sum();
        mc_obs::counter_add("chains.dag_edges", num_edges as u64);
        Self { n, succ, num_edges }
    }

    /// The pre-index `O(d·n²)` pairwise scan, kept as the reference
    /// implementation for tests and benchmarks.
    #[allow(clippy::needless_range_loop)] // paired i/j index scans
    pub fn build_naive(points: &PointSet) -> Self {
        let n = points.len();
        let mut succ = vec![Vec::new(); n];
        let mut num_edges = 0;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let comparable_up = match points.compare(u, v) {
                    Dominance::DominatedBy => true,
                    Dominance::Equal => u < v,
                    _ => false,
                };
                if comparable_up {
                    succ[u].push(v as u32);
                    num_edges += 1;
                }
            }
        }
        Self { n, succ, num_edges }
    }

    /// Number of vertices (= points).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Vertices strictly above `u` in the (tie-broken) dominance order.
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.succ[u]
    }

    /// `true` iff there is an edge `u -> v`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.succ[u].contains(&(v as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_in_1d_is_total() {
        let points = PointSet::from_values_1d(&[3.0, 1.0, 2.0]);
        let dag = DominanceDag::build(&points);
        // 1 < 2 < 3: edges 1->2, 1->0, 2->0 (indices: 0 is 3.0, 1 is 1.0, 2 is 2.0)
        assert!(dag.has_edge(1, 2));
        assert!(dag.has_edge(1, 0));
        assert!(dag.has_edge(2, 0));
        assert_eq!(dag.num_edges(), 3);
    }

    #[test]
    fn antichain_has_no_edges() {
        let points = PointSet::from_rows(2, &[vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]]);
        let dag = DominanceDag::build(&points);
        assert_eq!(dag.num_edges(), 0);
    }

    #[test]
    fn duplicates_are_comparable_once() {
        let points = PointSet::from_rows(2, &[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dag = DominanceDag::build(&points);
        assert!(dag.has_edge(0, 1));
        assert!(!dag.has_edge(1, 0));
        assert_eq!(dag.num_edges(), 1);
    }

    #[test]
    fn transitively_closed() {
        let points = PointSet::from_values_1d(&[1.0, 2.0, 3.0]);
        let dag = DominanceDag::build(&points);
        assert!(dag.has_edge(0, 2), "direct edge for transitive pair");
    }

    #[test]
    fn empty_set() {
        let points = PointSet::new(2);
        let dag = DominanceDag::build(&points);
        assert_eq!(dag.num_nodes(), 0);
        assert_eq!(dag.num_edges(), 0);
    }
}

#[cfg(test)]
mod index_equivalence_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The index-backed build must reproduce the naive scan's edge set
    /// exactly, across dimensions and both sides of the parallel cutoff.
    #[test]
    fn indexed_matches_naive() {
        let mut rng = StdRng::seed_from_u64(0x9AA);
        for &(n, dim) in &[
            (0usize, 3usize),
            (1, 3),
            (100, 1),
            (150, 2),
            (400, 3),
            (2500, 3),
        ] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| rng.gen_range(0.0f64..50.0).round())
                        .collect()
                })
                .collect();
            let points = if n == 0 {
                PointSet::new(dim)
            } else {
                PointSet::from_rows(dim, &rows)
            };
            let naive = DominanceDag::build_naive(&points);
            let indexed = DominanceDag::build(&points);
            assert_eq!(naive.num_edges(), indexed.num_edges(), "n = {n}, d = {dim}");
            for u in 0..n {
                assert_eq!(
                    naive.successors(u),
                    indexed.successors(u),
                    "n = {n}, d = {dim}, u = {u}"
                );
            }
        }
    }
}
