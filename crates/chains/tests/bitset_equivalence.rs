//! Equivalence of the bitset matching engine with the reference paths.
//!
//! Three layers of agreement on random point sets (with duplicates,
//! signed zeros, and infinite sentinels):
//!
//! * `HopcroftKarpBitset` finds a matching of the same *size* as the
//!   `O(V·E)` reference `Kuhn` on the Lemma-6 split graph;
//! * `ChainDecomposition::compute_from_index` passes `validate()` and
//!   has the same width and antichain size as the adjacency-list path
//!   (`ChainDecomposition::from_dag`);
//! * the two engines agree on the paper's Figure-1 fixture.

use mc_chains::{ChainDecomposition, DominanceDag};
use mc_geom::{DominanceIndex, PointSet};
use mc_matching::{BipartiteGraph, BitsetGraph, HopcroftKarpBitset, Kuhn, MatchingAlgorithm};
use proptest::prelude::*;

/// Small palette so duplicates, ties, and `-0.0`/`0.0` pairs actually
/// occur (same scheme as mc-geom's index property tests).
const PALETTE: [f64; 8] = [
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    -1.5,
    1.0,
    2.0,
    3.25,
    f64::INFINITY,
];

fn point_sets(max_n: usize, dim: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec(prop::collection::vec(0usize..PALETTE.len(), dim), 0..max_n).prop_map(
        move |rows| {
            let mut points = PointSet::new(dim);
            for row in rows {
                let coords: Vec<f64> = row.into_iter().map(|i| PALETTE[i]).collect();
                points.push(&coords);
            }
            points
        },
    )
}

/// Both engines, checked structurally and against each other.
fn check_engines_agree(points: &PointSet) {
    let index = DominanceIndex::build(points);

    // Matching size parity with the O(V·E) reference on the split graph.
    let bitset_graph = BitsetGraph::from_index(&index);
    let (m, stats) = HopcroftKarpBitset.solve_with_stats(&bitset_graph);
    m.validate(&bitset_graph).unwrap();
    let dag = DominanceDag::from_index(&index);
    let mut list_graph = BipartiteGraph::new(points.len(), points.len());
    for u in 0..points.len() {
        for &v in dag.successors(u) {
            list_graph.add_edge(u, v as usize);
        }
    }
    let kuhn = Kuhn.solve(&list_graph);
    assert_eq!(m.size(), kuhn.size(), "matching size differs from Kuhn");
    assert_eq!(
        stats.greedy_matched + stats.augmented,
        m.size() as u64,
        "stats do not add up to the matching size"
    );

    // Decomposition-level parity: width and antichain size.
    let bitset_dec = ChainDecomposition::compute_from_index(&index);
    bitset_dec.validate(points).unwrap();
    let list_dec = ChainDecomposition::from_dag(&dag);
    list_dec.validate(points).unwrap();
    assert_eq!(bitset_dec.width(), list_dec.width(), "width differs");
    assert_eq!(
        bitset_dec.antichain().len(),
        list_dec.antichain().len(),
        "antichain size differs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engines_agree_d2(points in point_sets(28, 2)) {
        check_engines_agree(&points);
    }

    #[test]
    fn engines_agree_d3(points in point_sets(24, 3)) {
        check_engines_agree(&points);
    }

    #[test]
    fn engines_agree_d5(points in point_sets(18, 5)) {
        check_engines_agree(&points);
    }

    /// Heavy duplication: few distinct coordinates over many points, so
    /// nontrivial dup groups (owned masked rows) dominate the graph.
    #[test]
    fn engines_agree_with_heavy_duplicates(rows in prop::collection::vec(0usize..4, 0..30)) {
        let mut points = PointSet::new(2);
        for r in rows {
            let v = r as f64;
            points.push(&[v, 3.0 - v]);
        }
        check_engines_agree(&points);
    }
}

#[test]
fn engines_agree_on_figure1() {
    let points = mc_chains::test_support::figure1_like_points();
    check_engines_agree(&points);
    let index = DominanceIndex::build(&points);
    let dec = ChainDecomposition::compute_from_index(&index);
    assert_eq!(dec.width(), 6);
}
