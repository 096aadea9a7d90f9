//! Property tests for the rank-compressed dominance substrate: on random
//! point sets — with duplicates, per-dimension ties, signed zeros, and
//! infinities — every strict row, existence test, duplicate group and
//! comparison that `RankOracle` and `RankTable` answer must agree with
//! the pairwise coordinate-wise scan (`PointSet::compare`/`dominates`).

use mc_geom::{bitmask_of, compress_column_ranks, Dominance, PointSet, RankOracle, RankTable};
use mc_obs::cancel::CancelToken;
use proptest::prelude::*;

/// Coordinates drawn from a small palette so duplicates, ties, and the
/// `-0.0`/`0.0` equivalence actually occur. Index 1 vs 2 is the signed
/// zero pair; the ends are infinite sentinels.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Strict rows, existence tests, duplicate groups and `dominates`/`equal_points`
    /// answered from ranks and suffix bitsets must match the pairwise
    /// coordinate-wise scan, in every dimension up to 5.
    #[test]
    fn oracle_agrees_with_pairwise_scan_d1(points in point_sets(24, 1)) {
        check_against_pairwise(&points);
    }

    #[test]
    fn oracle_agrees_with_pairwise_scan_d2(points in point_sets(24, 2)) {
        check_against_pairwise(&points);
    }

    #[test]
    fn oracle_agrees_with_pairwise_scan_d3(points in point_sets(20, 3)) {
        check_against_pairwise(&points);
    }

    #[test]
    fn oracle_agrees_with_pairwise_scan_d4(points in point_sets(16, 4)) {
        check_against_pairwise(&points);
    }

    #[test]
    fn oracle_agrees_with_pairwise_scan_d5(points in point_sets(16, 5)) {
        check_against_pairwise(&points);
    }

    /// Gathering a subset's rank columns out of a full table must be
    /// indistinguishable — row for row — from the pairwise scan of the
    /// restricted point set, which is exactly the ladder's substitution.
    #[test]
    fn oracle_subset_rows_match_the_pairwise_scan(
        points in point_sets(24, 3),
        keep_mask in prop::collection::vec(prop::bool::ANY, 24),
    ) {
        let keep: Vec<usize> = (0..points.len())
            .filter(|&i| keep_mask.get(i).copied().unwrap_or(false))
            .collect();
        let table = RankTable::build(&points);
        let oracle = RankOracle::try_from_table_subset(&table, &keep, &CancelToken::never())
            .expect("never-token cannot cancel");
        check_rows(&oracle, &points.subset(&keep));
    }
}

/// Every strict row, duplicate group and existence test at a point's
/// own positions of `oracle` against the pairwise scan of `points` (the
/// same points, in order).
fn check_rows(oracle: &RankOracle, points: &PointSet) {
    let n = points.len();
    assert_eq!(oracle.len(), n);
    let mut row = vec![0u64; oracle.words()];
    for i in 0..n {
        // At its own positions the suffixes hold `i`'s dominators, so
        // the first dominator's index is the least `end` that succeeds.
        let pos: Vec<u32> = oracle.positions(i).collect();
        let first = (0..n).find(|&j| points.dominates(j, i));
        for end in 0..=n {
            assert_eq!(
                oracle.suffix_intersects(&pos, end),
                first.is_some_and(|j| j < end),
                "dominator of {i} below {end}, {:?}",
                points.point(i)
            );
        }
        // Equal points are oriented by index: only the later ones succeed.
        oracle.strict_successor_row_into(i, &mut row);
        let strict = bitmask_of(
            n,
            (0..n).filter(|&j| match points.compare(i, j) {
                Dominance::DominatedBy => true,
                Dominance::Equal => j > i,
                _ => false,
            }),
        );
        assert_eq!(row, strict, "strict row {i} of {:?}", points.point(i));
        let group: Vec<u32> = (0..n as u32)
            .filter(|&j| points.compare(i, j as usize) == Dominance::Equal)
            .collect();
        assert_eq!(oracle.dup_group_members(i), &group[..], "group of {i}");
    }
}

/// The oracle and the rank table against the pairwise scan.
fn check_against_pairwise(points: &PointSet) {
    let oracle = RankOracle::build(points);
    check_rows(&oracle, points);
    let table = RankTable::build(points);
    for i in 0..points.len() {
        for j in 0..points.len() {
            let expected = points.compare(i, j);
            assert_eq!(
                oracle.dominates(i, j),
                expected.ge(),
                "dominates({i}, {j}) on {:?} vs {:?}",
                points.point(i),
                points.point(j)
            );
            assert_eq!(table.dominates(i, j), expected.ge());
            assert_eq!(oracle.equal_points(i, j), expected == Dominance::Equal);
        }
    }
}

/// Edge cases the proptest palette cannot force deterministically.
mod rank_table_edges {
    use super::*;

    #[test]
    fn empty_table_has_no_points() {
        let table = RankTable::build(&PointSet::new(3));
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.dim(), 3);
        assert!(table.column(0).is_empty());
        let oracle = RankOracle::try_from_table_subset(&table, &[], &CancelToken::never())
            .expect("never-token cannot cancel");
        assert!(oracle.is_empty());
    }

    #[test]
    fn single_point_gets_rank_zero_everywhere() {
        let mut ps = PointSet::new(2);
        ps.push(&[7.5, -3.0]);
        let table = RankTable::build(&ps);
        assert_eq!(table.column(0), &[0]);
        assert_eq!(table.column(1), &[0]);
        assert!(table.dominates(0, 0));
    }

    #[test]
    fn all_duplicates_share_every_rank() {
        let mut ps = PointSet::new(3);
        for _ in 0..5 {
            ps.push(&[1.0, 2.0, 3.0]);
        }
        let table = RankTable::build(&ps);
        for k in 0..3 {
            assert_eq!(table.column(k), &[0, 0, 0, 0, 0]);
        }
        for i in 0..5 {
            for j in 0..5 {
                assert!(table.dominates(i, j));
            }
        }
    }

    #[test]
    fn signed_zeros_share_a_rank() {
        let mut ps = PointSet::new(1);
        ps.push(&[-0.0]);
        ps.push(&[0.0]);
        ps.push(&[1.0]);
        let table = RankTable::build(&ps);
        assert_eq!(table.column(0), &[0, 0, 1]);
        assert!(table.dominates(0, 1) && table.dominates(1, 0));
    }

    #[test]
    fn streamed_columns_match_pointset_build() {
        let rows = [
            [3.0, f64::NEG_INFINITY],
            [-0.0, 2.0],
            [0.0, 2.0],
            [f64::INFINITY, -1.5],
            [3.0, 2.0],
        ];
        let ps = PointSet::from_rows(2, &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let built = RankTable::build(&ps);
        let mut ranks = Vec::new();
        for k in 0..2 {
            let column: Vec<f64> = rows.iter().map(|r| r[k]).collect();
            ranks.extend(compress_column_ranks(&column));
        }
        let streamed = RankTable::from_rank_columns(rows.len(), 2, ranks);
        for k in 0..2 {
            assert_eq!(streamed.column(k), built.column(k), "column {k}");
        }
    }
}
