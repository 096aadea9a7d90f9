//! Property tests for the anchor-index query fast path and the
//! canonical anchor pruning behind it.
//!
//! Two families of invariants:
//!
//! * **Bit-identical queries**: [`AnchorIndex`] must answer every point
//!   exactly like the naive anchor scan it replaces — across duplicate
//!   anchors, per-dimension ties, signed zeros, infinities, `NaN`
//!   queries, and the empty anchor set — and on the shapes that stress
//!   the index's dimension-0 bound: many anchors sharing each
//!   dimension-0 value, and batches whose every answer is 0.
//! * **Canonical pruning**: [`MonotoneClassifier::from_anchors`] must
//!   classify identically to the raw, unpruned anchor list (including
//!   `NaN`-poisoned anchors, which can never fire), keep an antichain,
//!   and produce the *same* classifier regardless of input order or
//!   duplication.

use mc_core::{AnchorIndex, MonotoneClassifier, QueryScratch};
use mc_geom::{dominates, Label};
use proptest::prelude::*;

/// Coordinate palette forcing duplicates, ties, signed zeros, and
/// infinite sentinels (same spirit as the geom index props).
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

/// Query palette: everything an anchor can hold, plus `NaN` (queries
/// may be `NaN`; canonical anchors never are).
const QUERY_PALETTE: [f64; 9] = [
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    -1.5,
    1.0,
    2.0,
    3.25,
    f64::INFINITY,
    f64::NAN,
];

fn anchor_lists(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0usize..PALETTE.len(), dim), 0..max_n).prop_map(
        |rows| {
            rows.into_iter()
                .map(|row| row.into_iter().map(|i| PALETTE[i]).collect())
                .collect()
        },
    )
}

/// Anchor lists that may also contain `NaN` coordinates (index 8 of the
/// query palette), exercising the `from_anchors` drop path.
fn raw_anchor_lists(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(0usize..QUERY_PALETTE.len(), dim),
        0..max_n,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|row| row.into_iter().map(|i| QUERY_PALETTE[i]).collect())
            .collect()
    })
}

fn query_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(0usize..QUERY_PALETTE.len(), dim),
        0..max_n,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|row| row.into_iter().map(|i| QUERY_PALETTE[i]).collect())
            .collect()
    })
}

/// The ground truth every fast path must reproduce: a raw scan over the
/// *unpruned* anchor list.
fn naive_scan(raw_anchors: &[Vec<f64>], p: &[f64]) -> Label {
    Label::from_bool(raw_anchors.iter().any(|a| dominates(p, a)))
}

fn check_index_matches_naive(raw_anchors: Vec<Vec<f64>>, queries: &[Vec<f64>], dim: usize) {
    let h = MonotoneClassifier::from_anchors(dim, raw_anchors.clone());
    let idx = AnchorIndex::build(&h);
    let mut scratch = QueryScratch::default();
    for p in queries {
        let expected = naive_scan(&raw_anchors, p);
        assert_eq!(
            h.classify(p),
            expected,
            "pruned classifier diverges on {p:?}"
        );
        assert_eq!(
            idx.classify_with(p, &mut scratch),
            expected,
            "index diverges on {p:?} with anchors {:?}",
            h.anchors()
        );
    }
    // The flat batch kernel must agree point-for-point with the
    // single-point path (and therefore with the naive scan).
    let flat: Vec<f64> = queries.iter().flatten().copied().collect();
    let batch = idx.classify_batch(&flat);
    let singles: Vec<Label> = queries
        .iter()
        .map(|p| naive_scan(&raw_anchors, p))
        .collect();
    assert_eq!(batch, singles);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index ≡ naive scan, across the dimensionalities the serving path
    /// dispatches on, including NaN queries and NaN-poisoned anchors.
    #[test]
    fn index_matches_naive_scan_d1(
        anchors in raw_anchor_lists(24, 1),
        queries in query_points(32, 1),
    ) {
        check_index_matches_naive(anchors, &queries, 1);
    }

    #[test]
    fn index_matches_naive_scan_d2(
        anchors in raw_anchor_lists(24, 2),
        queries in query_points(32, 2),
    ) {
        check_index_matches_naive(anchors, &queries, 2);
    }

    #[test]
    fn index_matches_naive_scan_d3(
        anchors in raw_anchor_lists(20, 3),
        queries in query_points(24, 3),
    ) {
        check_index_matches_naive(anchors, &queries, 3);
    }

    #[test]
    fn index_matches_naive_scan_d5(
        anchors in raw_anchor_lists(16, 5),
        queries in query_points(20, 5),
    ) {
        check_index_matches_naive(anchors, &queries, 5);
    }

    /// Pruning keeps a strict antichain of canonical representatives:
    /// no kept anchor dominates another, no `NaN` survives, `-0.0` is
    /// stored as `+0.0`, and the list is duplicate-free.
    #[test]
    fn pruned_anchors_form_canonical_antichain(anchors in raw_anchor_lists(24, 3)) {
        let h = MonotoneClassifier::from_anchors(3, anchors);
        let kept = h.anchors();
        for (i, a) in kept.iter().enumerate() {
            prop_assert!(a.iter().all(|c| !c.is_nan()));
            prop_assert!(a.iter().all(|c| !(*c == 0.0 && c.is_sign_negative())));
            for (j, b) in kept.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !dominates(a, b),
                        "kept anchor {a:?} dominates kept anchor {b:?}"
                    );
                }
            }
        }
    }

    /// Canonicality: reordering, reversing, and duplicating the input
    /// anchors must produce the *same* classifier (`==`, not merely
    /// equivalent), so snapshots are byte-stable across training runs.
    #[test]
    fn pruning_is_input_order_independent(
        anchors in anchor_lists(20, 2),
        mask in prop::collection::vec(prop::bool::ANY, 20),
    ) {
        let h = MonotoneClassifier::from_anchors(2, anchors.clone());

        let mut reversed_doubled: Vec<Vec<f64>> = anchors.iter().rev().cloned().collect();
        reversed_doubled.extend(anchors.iter().cloned());
        prop_assert_eq!(
            &MonotoneClassifier::from_anchors(2, reversed_doubled),
            &h
        );

        // Mask-driven partition: kept-first/dropped-last is a different
        // permutation for almost every mask.
        let mut partitioned: Vec<Vec<f64>> = Vec::new();
        for (i, a) in anchors.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                partitioned.push(a.clone());
            }
        }
        for (i, a) in anchors.iter().enumerate() {
            if !mask.get(i).copied().unwrap_or(false) {
                partitioned.push(a.clone());
            }
        }
        prop_assert_eq!(&MonotoneClassifier::from_anchors(2, partitioned), &h);
    }

    /// Signed-zero anchors and queries: `-0.0` and `0.0` must be fully
    /// interchangeable on both sides of the comparison.
    #[test]
    fn signed_zeros_are_interchangeable(queries in query_points(24, 2)) {
        let pos = MonotoneClassifier::from_anchors(2, vec![vec![0.0, 1.0]]);
        let neg = MonotoneClassifier::from_anchors(2, vec![vec![-0.0, 1.0]]);
        prop_assert_eq!(pos.anchors(), neg.anchors());
        let idx = AnchorIndex::build(&pos);
        let mut scratch = QueryScratch::default();
        for p in &queries {
            let flipped: Vec<f64> = p.iter().map(|&c| if c == 0.0 { -c } else { c }).collect();
            prop_assert_eq!(
                idx.classify_with(p, &mut scratch),
                idx.classify_with(&flipped, &mut scratch)
            );
        }
    }
}

/// Anchors on three planes `x₁ + x₂ = 120 − 20·x₀` with `x₀ ∈ {0, 1,
/// 2}`: an antichain whose dimension-0 values are shared by about a
/// third of the anchors each, so the index's dimension-0 prefix ends
/// inside a tie group of up to ~100 anchors and crosses words.
fn tied_dim0_anchors(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec((0usize..3, 0usize..=80), 64..max_n).prop_map(|rows| {
        rows.into_iter()
            .map(|(x0, x1)| {
                let sum = 120 - 20 * x0;
                vec![x0 as f64, x1 as f64, (sum - x1) as f64]
            })
            .collect()
    })
}

/// Queries at, between and beyond the tied dimension-0 values, with
/// coordinates 1 and 2 on the anchors' grid and a `NaN` now and then.
fn tied_dim0_queries(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    const X0: [f64; 7] = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
    prop::collection::vec(
        (0usize..X0.len(), 0usize..=130, 0usize..=130, 0usize..40),
        1..max_n,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(x0, x1, x2, nan)| {
                let x2 = if nan == 0 { f64::NAN } else { x2 as f64 };
                vec![X0[x0], x1 as f64, x2]
            })
            .collect()
    })
}

/// Anchors on the grid plane `x₀ + x₁ + x₂ = 90` and queries below it
/// (sums 60–89), each coordinate inside the anchors' range: no query
/// dominates an anchor, so every answer is 0, yet few fail on a single
/// dimension, and the index scans its whole dimension-0 prefix.
fn plane_and_queries_below(max_n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    let anchors = prop::collection::vec((0usize..=90, 0usize..=90), 64..max_n).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b)| {
                let (x0, x1) = (a.min(b), a.max(b) - a.min(b));
                vec![x0 as f64, x1 as f64, (90 - x0 - x1) as f64]
            })
            .collect::<Vec<_>>()
    });
    let queries = prop::collection::vec((0usize..=89, 0usize..=89, 60usize..90), 1..max_n)
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(a, b, sum)| {
                    let x0 = a.min(sum);
                    let x1 = b.min(sum - x0);
                    vec![x0 as f64, x1 as f64, (sum - x0 - x1) as f64]
                })
                .collect::<Vec<_>>()
        });
    (anchors, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Many anchors share each dimension-0 value; the index bounds its
    /// scan by the anchors at or below `q₀` there, a prefix that ends
    /// inside a tie group.
    #[test]
    fn index_matches_naive_scan_with_heavy_dim0_ties(
        anchors in tied_dim0_anchors(400),
        queries in tied_dim0_queries(64),
    ) {
        check_index_matches_naive(anchors, &queries, 3);
    }

    /// Batches whose every answer is 0: the index must confirm no slack
    /// bit and scan to the end of its bound.
    #[test]
    fn index_answers_all_zero_batches((anchors, queries) in plane_and_queries_below(400)) {
        prop_assert!(queries.iter().all(|p| naive_scan(&anchors, p) == Label::Zero));
        check_index_matches_naive(anchors, &queries, 3);
    }
}

/// Deterministic edges the palette cannot force reliably.
mod edges {
    use super::*;

    #[test]
    fn empty_anchor_set_classifies_everything_zero() {
        let h = MonotoneClassifier::all_zero(4);
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.classify(&[f64::INFINITY; 4]), Label::Zero);
        assert!(idx.classify_batch(&[]).is_empty());
    }

    #[test]
    fn nan_only_anchor_list_is_all_zero() {
        let h = MonotoneClassifier::from_anchors(2, vec![vec![f64::NAN, 0.0]]);
        assert!(h.anchors().is_empty());
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.classify(&[f64::INFINITY, f64::INFINITY]), Label::Zero);
    }

    #[test]
    fn duplicate_anchors_collapse_to_one() {
        let h = MonotoneClassifier::from_anchors(
            2,
            vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0, 2.0]],
        );
        assert_eq!(h.anchors().len(), 1);
    }

    #[test]
    fn many_anchors_cross_block_boundary() {
        // 520 anchors → rows of 9 words and 9 oracle checkpoints per
        // dimension.
        let anchors: Vec<Vec<f64>> = (0..520).map(|i| vec![i as f64, (520 - i) as f64]).collect();
        let raw = anchors.clone();
        let h = MonotoneClassifier::from_anchors(2, anchors);
        assert_eq!(h.anchors().len(), 520);
        let idx = AnchorIndex::build(&h);
        let mut scratch = QueryScratch::default();
        for i in 0..200 {
            let p = vec![(i * 5) as f64 - 2.0, (i * 3) as f64 + 0.5];
            assert_eq!(idx.classify_with(&p, &mut scratch), naive_scan(&raw, &p));
        }
    }
}

/// Canonical pruning against a brute-force all-pairs reference, on
/// candidate sets from 63 to 1,100 anchors with 1 to 1,000 of them kept,
/// and the index built over the result against the naive scan.
mod pruning_reference {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// All-pairs minimality, kept independent of `from_anchors`: drop
    /// `NaN` anchors, store `-0.0` as `0.0`, keep each distinct anchor
    /// that dominates no other distinct one, in lexicographic
    /// `total_cmp` order.
    fn minimal_reference(raw: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let canonical: Vec<Vec<f64>> = raw
            .iter()
            .filter(|x| x.iter().all(|c| !c.is_nan()))
            .map(|x| x.iter().map(|&c| if c == 0.0 { 0.0 } else { c }).collect())
            .collect();
        let mut out: Vec<Vec<f64>> = Vec::new();
        for x in &canonical {
            let redundant = canonical.iter().any(|y| y != x && dominates(x, y));
            if !redundant && !out.contains(x) {
                out.push(x.clone());
            }
        }
        out.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Distinct non-`NaN` candidates after canonicalization.
    fn distinct_candidates(raw: &[Vec<f64>]) -> usize {
        let mut bits: Vec<Vec<u64>> = raw
            .iter()
            .filter(|x| x.iter().all(|c| !c.is_nan()))
            .map(|x| {
                x.iter()
                    .map(|&c| if c == 0.0 { 0 } else { c.to_bits() })
                    .collect()
            })
            .collect();
        bits.sort_unstable();
        bits.dedup();
        bits.len()
    }

    fn grid_value(x: usize, g: usize, rng: &mut StdRng) -> f64 {
        match x {
            0 => f64::NEG_INFINITY,
            _ if x == g - 1 => f64::INFINITY,
            _ if x == g / 2 && rng.gen_bool(0.5) => -0.0,
            _ => x as f64 - (g / 2) as f64,
        }
    }

    /// `m` antichain points on the level `sum` of the grid `[0, g)^d`,
    /// `extra` distinct points each dominating one of them (so `m +
    /// extra` distinct candidates), a few exact and
    /// signed-zero duplicates and a few `NaN`-poisoned anchors, shuffled.
    fn candidates(
        m: usize,
        extra: usize,
        d: usize,
        g: usize,
        sum: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        let mut level: Vec<Vec<usize>> = Vec::new();
        let mut x = vec![0usize; d];
        loop {
            if x.iter().sum::<usize>() == sum {
                level.push(x.clone());
            }
            let Some(k) = (0..d).find(|&k| x[k] + 1 < g) else {
                break;
            };
            x[k] += 1;
            x[..k].iter_mut().for_each(|c| *c = 0);
        }
        assert!(
            level.len() >= m,
            "level of {} points, need {m}",
            level.len()
        );
        level.shuffle(rng);
        level.truncate(m);
        let mut grid: Vec<Vec<usize>> = level.clone();
        while grid.len() < m + extra {
            // Above the level, so distinct from every antichain point.
            let base = &level[rng.gen_range(0..m)];
            let up: Vec<usize> = base
                .iter()
                .map(|&c| (c + rng.gen_range(0..6usize)).min(g - 1))
                .collect();
            if up.iter().sum::<usize>() > sum && !grid.contains(&up) {
                grid.push(up);
            }
        }
        for _ in 0..m.min(20) {
            grid.push(level[rng.gen_range(0..m)].clone());
        }
        let mut raw: Vec<Vec<f64>> = grid
            .iter()
            .map(|x| x.iter().map(|&c| grid_value(c, g, rng)).collect())
            .collect();
        for _ in 0..5 {
            let mut poisoned = raw[rng.gen_range(0..raw.len())].clone();
            poisoned[rng.gen_range(0..d)] = f64::NAN;
            raw.push(poisoned);
        }
        raw.shuffle(rng);
        raw
    }

    #[test]
    fn from_anchors_matches_the_all_pairs_reference() {
        let mut rng = StdRng::seed_from_u64(0x5_1C7);
        // (antichain size m, dominated extras, d, g, level): m anchors
        // are kept of m + extra, from a few to nearly all.
        for (m, extra, d, g, sum) in [
            (1, 62, 3, 12, 16),
            (2, 62, 3, 12, 16),
            (3, 62, 3, 12, 16),
            (3, 149, 4, 8, 14),
            (5, 195, 4, 8, 14),
            (63, 0, 3, 20, 28),
            (65, 0, 4, 8, 14),
            (15, 985, 4, 12, 22),
            (16, 984, 4, 12, 22),
            (17, 983, 4, 12, 22),
            (200, 800, 4, 12, 22),
            (1000, 100, 4, 12, 22),
        ] {
            let raw = candidates(m, extra, d, g, sum, &mut rng);
            assert_eq!(distinct_candidates(&raw), m + extra);
            let h = MonotoneClassifier::from_anchors(d, raw.clone());
            let want = minimal_reference(&raw);
            assert_eq!(want.len(), m);
            let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
                v.iter()
                    .map(|x| x.iter().map(|c| c.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(h.anchors()), bits(&want), "m {m} extra {extra} d {d}");
            let queries: Vec<Vec<f64>> = (0..200)
                .map(|_| {
                    let base = &raw[rng.gen_range(0..raw.len())];
                    base.iter()
                        .map(|&c| if rng.gen_bool(0.2) { c - 1.0 } else { c })
                        .collect()
                })
                .collect();
            check_index_matches_naive(raw, &queries, d);
        }
    }
}
