//! Equivalence of the bitset matching engine with the reference paths.
//!
//! Agreement on random point sets (with duplicates, signed zeros, and
//! infinite sentinels):
//!
//! * `HopcroftKarpBitset` over the oracle's split graph finds a matching
//!   of the same *size* as the `O(V·E)` reference `Kuhn` over a pairwise
//!   `compare` scan of the same points, and every matched pair is an
//!   edge of that scan;
//! * `ChainDecomposition::compute` passes `validate()` (the chains
//!   partition the points and an antichain of the same size certifies
//!   them) and has `n − |M|` chains, the minimum path cover;
//! * both hold on the paper's Figure-1 fixture;
//! * the production decompositions (`compute`, `compute_from_oracle`),
//!   which match in a linear-extension labelling, return the same chains
//!   and antichain, both certified, with Kuhn's `n − |M|` chains, and the
//!   relabelled oracle's rows hold no bit below their diagonal word.

use mc_chains::ChainDecomposition;
use mc_geom::{linear_extension_order, Dominance, PointSet, RankOracle, RankTable};
use mc_matching::{BitsetGraph, HopcroftKarpBitset, Kuhn, OracleGraph};
use mc_obs::CancelToken;
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

fn point_sets(sizes: std::ops::Range<usize>, dim: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec(prop::collection::vec(0usize..PALETTE.len(), dim), sizes).prop_map(
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

/// The Lemma-6 split graph by a pairwise scan: right `v` is adjacent to
/// left `u` iff `v` dominates `u`, with equal points oriented by index.
fn pairwise_split_graph(points: &PointSet) -> BitsetGraph {
    let n = points.len();
    let mut g = BitsetGraph::new(n);
    for u in 0..n {
        let mut row = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        for v in 0..n {
            let above = match points.compare(u, v) {
                Dominance::DominatedBy => true,
                Dominance::Equal => u < v,
                _ => false,
            };
            if above {
                row[v >> 6] |= 1u64 << (v & 63);
            }
        }
        g.push(row);
    }
    g
}

/// The bitset engine against Kuhn, and the decomposition against its own
/// certificate and the path-cover count.
fn check_engines_agree(points: &PointSet) {
    let scan = pairwise_split_graph(points);
    let kuhn = Kuhn.solve(&scan);
    kuhn.validate(&scan).unwrap();

    // Matching size parity with the O(V·E) reference on the split graph.
    let oracle = RankOracle::build(points);
    let (m, stats) = HopcroftKarpBitset.solve_with_stats(&OracleGraph::new(&oracle));
    m.validate(&scan).unwrap();
    assert_eq!(m.size(), kuhn.size(), "matching size differs from Kuhn");
    assert_eq!(
        stats.greedy_matched + stats.augmented,
        m.size() as u64,
        "stats do not add up to the matching size"
    );

    // Decomposition level: a certified minimum path cover.
    let dec = ChainDecomposition::compute(points);
    dec.validate(points).unwrap();
    assert_eq!(
        dec.width(),
        points.len() - kuhn.size(),
        "width is not n - |M|"
    );
}

/// The production paths against each other and Kuhn's path-cover count
/// over the pairwise scan, plus the diagonal property the engine's scans
/// rely on.
fn check_linear_extension_paths(points: &PointSet) {
    let production = ChainDecomposition::compute(points);
    let from_oracle = ChainDecomposition::compute_from_oracle(&RankOracle::build(points));
    assert_eq!(from_oracle.chains(), production.chains(), "chains");
    assert_eq!(from_oracle.antichain(), production.antichain(), "antichain");
    production.validate(points).unwrap();
    let cover = points.len() - Kuhn.solve(&pairwise_split_graph(points)).size();
    assert_eq!(production.width(), cover, "width is not n - |M|");
    let table = RankTable::build(points);
    let labels = linear_extension_order(points.len(), points.dim(), |k, i| table.column(k)[i]);
    let oracle = RankOracle::try_from_table_subset(&table, &labels, &CancelToken::never()).unwrap();
    assert!(oracle.is_linear_extension());
    let mut sorted = labels.clone();
    sorted.sort_unstable();
    assert!(
        sorted.iter().copied().eq(0..points.len()),
        "labels are a permutation"
    );
    let mut row = vec![0u64; oracle.words()];
    let mut rows = BitsetGraph::new(oracle.len());
    for l in 0..oracle.len() {
        oracle.strict_successor_row_into(l, &mut row);
        assert!(
            row[..l / 64].iter().all(|&w| w == 0),
            "row {l} has a bit below word {}",
            l / 64
        );
        rows.push(row.clone().into_boxed_slice());
    }

    // The oracle graph's greedy seed starts each scan past the diagonal
    // bit; the materialized rows are scanned whole. Same seed, same
    // matching.
    let (masked, masked_stats) = HopcroftKarpBitset.solve_with_stats(&OracleGraph::new(&oracle));
    let (scanned, scanned_stats) = HopcroftKarpBitset.solve_with_stats(&rows);
    assert_eq!(
        masked_stats.greedy_matched, scanned_stats.greedy_matched,
        "greedy seed differs"
    );
    assert_eq!(masked_stats.rounds, scanned_stats.rounds, "rounds differ");
    assert_eq!(masked, scanned, "matchings differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// n on both sides of 64 and 128, so rows span one to three words.
    #[test]
    fn linear_extension_paths_agree_and_are_minimum(
        points in (3usize..=5).prop_flat_map(|dim| point_sets(40..170, dim))
    ) {
        check_linear_extension_paths(&points);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engines_agree_d2(points in point_sets(0..28, 2)) {
        check_engines_agree(&points);
    }

    #[test]
    fn engines_agree_d3(points in point_sets(0..24, 3)) {
        check_engines_agree(&points);
    }

    #[test]
    fn engines_agree_d5(points in point_sets(0..18, 5)) {
        check_engines_agree(&points);
    }

    /// Heavy duplication: few distinct coordinates over many points, so
    /// nontrivial dup groups (index-oriented equal points) dominate the
    /// graph.
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
    assert_eq!(ChainDecomposition::compute(&points).width(), 6);
}
