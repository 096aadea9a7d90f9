//! Monotone classifiers.
//!
//! A classifier `h : R^d -> {0, 1}` is *monotone* if `h(p) >= h(q)`
//! whenever `p` dominates `q` (Section 1.1 of the paper). Every monotone
//! classifier is the indicator of an *up-set*; on finite data it is fully
//! determined by the minimal points of its positive region. We therefore
//! represent classifiers by a set of **anchors**: `h(x) = 1` iff `x`
//! dominates (reflexively) at least one anchor. This makes monotonicity
//! hold *by construction* — an invalid monotone classifier is
//! unrepresentable.
//!
//! The paper's 1D threshold classifiers `h^τ` (equation (6)) map `p → 1`
//! iff `p > τ`; [`MonotoneClassifier::threshold_1d`] realizes them with a
//! single anchor just above `τ` (exact on any dataset whose values differ
//! from the chosen anchor boundary; see the method docs).
//!
//! # Example
//!
//! ```
//! use mc_core::MonotoneClassifier;
//! use mc_geom::Label;
//!
//! let h = MonotoneClassifier::from_anchors(2, vec![vec![0.5, 0.5]]);
//! assert_eq!(h.classify(&[0.6, 0.9]), Label::One);
//! assert_eq!(h.classify(&[0.6, 0.4]), Label::Zero);
//! ```

use crate::anchor_index::reversed_rank_columns;
use mc_geom::{
    dominates, linear_extension_order, row_budget_bytes, Label, LabeledSet, PointSet, RankOracle,
    RankTable, WeightedSet,
};

/// A monotone classifier represented by the minimal points ("anchors") of
/// its positive region.
///
/// Invariants maintained by construction:
/// * all anchors share the classifier's dimensionality;
/// * no anchor dominates another (redundant anchors are pruned).
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneClassifier {
    dim: usize,
    /// Minimal positive anchors, flat row-major storage.
    anchors: Vec<Vec<f64>>,
}

impl MonotoneClassifier {
    /// The all-zero classifier (`h ≡ 0`).
    pub fn all_zero(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be at least 1");
        Self {
            dim,
            anchors: Vec::new(),
        }
    }

    /// The all-one classifier (`h ≡ 1`), anchored at `(-∞, …, -∞)`.
    pub fn all_one(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be at least 1");
        Self {
            dim,
            anchors: vec![vec![f64::NEG_INFINITY; dim]],
        }
    }

    /// Builds a classifier from arbitrary anchors; dominated-redundant
    /// anchors are pruned to restore minimality, **canonically**: the
    /// kept anchors are independent of the input order, stored in
    /// lexicographic order with `-0.0` normalized to `0.0`, and exact
    /// duplicates collapsed. Two anchor sets describing the same up-set
    /// of minimal points therefore produce `==` classifiers (and
    /// byte-identical CSV snapshots).
    ///
    /// Anchors containing `NaN` are dropped: no point dominates a `NaN`
    /// coordinate under IEEE `>=`, so such an anchor can never classify
    /// anything as 1 and removing it is behavior-identical.
    ///
    /// The sweep sorts first (`O(a log a)` comparisons), then scans in
    /// lexicographic order, where everything an anchor dominates comes
    /// before it. So an anchor is redundant iff it dominates an earlier
    /// one. One [`RankOracle`] over the anchors' reversed ranks answers
    /// that per anchor with [`RankOracle::suffix_intersects`]: at most
    /// `d·⌈i/64⌉` word ANDs for the `i`-th anchor, plus `d` rank
    /// compares per surviving bit, stopping at the first dominated
    /// anchor.
    ///
    /// # Panics
    ///
    /// Panics if any anchor has the wrong dimensionality.
    pub fn from_anchors(dim: usize, anchors: Vec<Vec<f64>>) -> Self {
        assert!(dim > 0, "dimensionality must be at least 1");
        for a in &anchors {
            assert_eq!(a.len(), dim, "anchor dimensionality mismatch");
        }
        let mut canonical: Vec<Vec<f64>> = anchors
            .into_iter()
            .filter(|a| a.iter().all(|c| !c.is_nan()))
            .map(|mut a| {
                for c in &mut a {
                    // -0.0 == 0.0 under the IEEE `>=` of `dominates`;
                    // store the positive representative so total_cmp
                    // sorting and PartialEq agree with classification.
                    if *c == 0.0 {
                        *c = 0.0;
                    }
                }
                a
            })
            .collect();
        canonical.sort_unstable_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        canonical.dedup();
        // If `b ⪯ a` (so `a` is redundant) then `b` sorts before `a`
        // lexicographically, so every anchor that could prune `a` comes
        // before it.
        let kept = keep_minimal(
            canonical.len(),
            dim,
            reversed_rank_columns(dim, &canonical).0,
        );
        let mut is_kept = vec![false; canonical.len()];
        for &i in &kept {
            is_kept[i] = true;
        }
        let minimal = canonical
            .into_iter()
            .zip(is_kept)
            .filter_map(|(a, keep)| keep.then_some(a))
            .collect();
        Self {
            dim,
            anchors: minimal,
        }
    }

    /// The paper's 1D threshold classifier `h^τ`: `h(p) = 1` iff `p > τ`
    /// (equation (6)).
    ///
    /// The anchor is placed at the smallest `f64` strictly above `τ`, so
    /// classification is exact for every representable input value.
    pub fn threshold_1d(tau: f64) -> Self {
        let anchor = if tau == f64::NEG_INFINITY {
            f64::NEG_INFINITY // h^{-∞} ≡ 1 on all reals
        } else {
            next_up(tau)
        };
        Self {
            dim: 1,
            anchors: vec![vec![anchor]],
        }
    }

    /// Builds the classifier whose positive region is the up-closure of
    /// the points of `points` selected by `positive`.
    ///
    /// This is the canonical way to turn a per-point 0/1 assignment into a
    /// full classifier: anchors are the minimal selected points. If the
    /// assignment itself was monotone on `points` (no 0-point dominating a
    /// 1-point), the classifier agrees with the assignment on every point
    /// of `points`; otherwise the up-closure overrides some 0s to 1.
    pub fn from_positive_points(points: &PointSet, positive: &[bool]) -> Self {
        assert_eq!(points.len(), positive.len(), "assignment length mismatch");
        let anchors = (0..points.len())
            .filter(|&i| positive[i])
            .map(|i| points.point(i).to_vec())
            .collect();
        Self::from_anchors(points.dim(), anchors)
    }

    /// [`from_positive_points`](Self::from_positive_points) off the
    /// points' rank columns: the minimal positive points are found by
    /// the same oracle sweep, over a linear extension of the positives
    /// ([`linear_extension_order`]), where everything a point dominates
    /// comes before it (an equal point is kept once), and only the kept
    /// points are copied out as anchors. [`from_anchors`](Self::from_anchors)
    /// then canonicalises them, so the result is `==` to
    /// `from_positive_points(points, positive)`.
    pub(crate) fn from_ranked_positives(
        points: &PointSet,
        table: &RankTable,
        positive: &[bool],
    ) -> Self {
        assert_eq!(points.len(), positive.len(), "assignment length mismatch");
        debug_assert_eq!(table.len(), points.len(), "table/point-set size mismatch");
        let dim = points.dim();
        let cols: Vec<&[u32]> = (0..dim).map(|k| table.column(k)).collect();
        let candidates: Vec<usize> = (0..points.len()).filter(|&i| positive[i]).collect();
        let order = linear_extension_order(candidates.len(), dim, |k, l| cols[k][candidates[l]]);
        let point = |l: usize| candidates[order[l]];
        let reversed_ranks = cols
            .iter()
            .flat_map(|col| (0..order.len()).map(move |l| u32::MAX - col[point(l)]))
            .collect();
        let kept = keep_minimal(order.len(), dim, reversed_ranks);
        let anchors = kept
            .into_iter()
            .map(|l| points.point(point(l)).to_vec())
            .collect();
        Self::from_anchors(dim, anchors)
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The minimal anchors of the positive region, in lexicographic
    /// `f64::total_cmp` order (no `NaN`, no `-0.0`). The anchor index
    /// relies on it: the anchors at or below a value on dimension 0 are
    /// a prefix of this list.
    pub fn anchors(&self) -> &[Vec<f64>] {
        &self.anchors
    }

    /// Classifies a point: 1 iff it dominates some anchor.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on dimensionality mismatch.
    pub fn classify(&self, p: &[f64]) -> Label {
        debug_assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        Label::from_bool(self.anchors.iter().any(|a| dominates(p, a)))
    }

    /// `err_P(h)` — equation (1): the number of points of `data`
    /// misclassified by this classifier.
    pub fn error_on(&self, data: &LabeledSet) -> u64 {
        data.error_of(|p| self.classify(p))
    }

    /// `w-err_P(h)` — equation (3): the weighted error on `data`.
    pub fn weighted_error_on(&self, data: &WeightedSet) -> f64 {
        data.weighted_error_of(|p| self.classify(p))
    }

    /// Evaluates the classifier on every point of a set.
    pub fn classify_set(&self, points: &PointSet) -> Vec<Label> {
        points.iter().map(|p| self.classify(p)).collect()
    }
}

/// The minimal candidates among `0..count`, ascending: the sweep of
/// [`MonotoneClassifier::from_anchors`]. The candidates must be numbered
/// so that each comes after every candidate it dominates, except equal
/// ones, of which the first is kept. Then a candidate that dominates an
/// earlier one also dominates a kept one (by transitivity), so candidate
/// `i` is kept iff it dominates no candidate `j < i`. `reversed_ranks`
/// are the candidates' column-major order-reversing ranks (`count` per
/// dimension): in one [`RankOracle`] over them, the suffixes at `i`'s
/// own positions hold exactly the candidates `i` dominates, and
/// [`RankOracle::suffix_intersects`] with `end = i` asks whether one
/// comes before `i`.
fn keep_minimal(count: usize, dim: usize, reversed_ranks: Vec<u32>) -> Vec<usize> {
    let oracle = RankOracle::from_rank_columns(count, dim, reversed_ranks, row_budget_bytes());
    let mut pos = Vec::with_capacity(dim);
    (0..count)
        .filter(|&i| {
            pos.clear();
            pos.extend(oracle.positions(i));
            !oracle.suffix_intersects(&pos, i)
        })
        .collect()
}

/// Checks that a per-point assignment is monotone *on the given points*:
/// returns the first violating pair `(i, j)` with `points[i] ⪰ points[j]`
/// but `assignment[i] < assignment[j]`, if any.
#[allow(clippy::needless_range_loop)]
pub fn find_monotonicity_violation(
    points: &PointSet,
    assignment: &[Label],
) -> Option<(usize, usize)> {
    assert_eq!(points.len(), assignment.len(), "assignment length mismatch");
    for i in 0..points.len() {
        if assignment[i].is_one() {
            continue;
        }
        for j in 0..points.len() {
            if assignment[j].is_one() && i != j && points.dominates(i, j) {
                return Some((i, j));
            }
        }
    }
    None
}

/// Smallest `f64` strictly greater than `x` (stable replacement for the
/// unstable-at-MSRV `f64::next_up`).
fn next_up(x: f64) -> f64 {
    assert!(!x.is_nan(), "threshold must not be NaN");
    if x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1); // smallest positive subnormal
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_zero_and_all_one() {
        let z = MonotoneClassifier::all_zero(2);
        let o = MonotoneClassifier::all_one(2);
        for p in [[0.0, 0.0], [-1e300, 5.0], [7.0, -2.0]] {
            assert_eq!(z.classify(&p), Label::Zero);
            assert_eq!(o.classify(&p), Label::One);
        }
    }

    #[test]
    fn threshold_semantics_strict() {
        // h^τ: 1 iff p > τ.
        let h = MonotoneClassifier::threshold_1d(2.0);
        assert_eq!(h.classify(&[2.0]), Label::Zero);
        assert_eq!(h.classify(&[2.0 + 1e-9]), Label::One);
        assert_eq!(h.classify(&[1.0]), Label::Zero);
        assert_eq!(h.classify(&[3.0]), Label::One);
    }

    #[test]
    fn threshold_neg_infinity_is_all_one() {
        let h = MonotoneClassifier::threshold_1d(f64::NEG_INFINITY);
        assert_eq!(h.classify(&[-1e308]), Label::One);
    }

    #[test]
    fn anchor_pruning_keeps_minimal() {
        let h = MonotoneClassifier::from_anchors(
            2,
            vec![vec![2.0, 2.0], vec![1.0, 1.0], vec![3.0, 0.0]],
        );
        // (2,2) dominates (1,1) so it is redundant.
        assert_eq!(h.anchors().len(), 2);
        assert!(h.anchors().contains(&vec![1.0, 1.0]));
        assert!(h.anchors().contains(&vec![3.0, 0.0]));
        assert_eq!(h.classify(&[2.0, 2.0]), Label::One);
        assert_eq!(h.classify(&[0.5, 0.5]), Label::Zero);
        assert_eq!(h.classify(&[3.0, 0.0]), Label::One);
    }

    #[test]
    fn classifier_is_monotone_by_construction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let anchors: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let h = MonotoneClassifier::from_anchors(3, anchors);
        for _ in 0..200 {
            let p: Vec<f64> = (0..3).map(|_| rng.gen_range(-6.0..6.0)).collect();
            let q: Vec<f64> = (0..3)
                .enumerate()
                .map(|(i, _)| p[i] - rng.gen_range(0.0..2.0))
                .collect();
            // p dominates q by construction.
            assert!(h.classify(&p) >= h.classify(&q));
        }
    }

    #[test]
    fn from_positive_points_agrees_with_monotone_assignment() {
        let points = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        let positive = [false, true, true];
        let h = MonotoneClassifier::from_positive_points(&points, &positive);
        assert_eq!(h.classify(points.point(0)), Label::Zero);
        assert_eq!(h.classify(points.point(1)), Label::One);
        assert_eq!(h.classify(points.point(2)), Label::One);
        assert_eq!(h.anchors().len(), 1);
    }

    #[test]
    fn from_positive_points_up_closes_invalid_assignment() {
        let points = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0]]);
        // Assign the dominated point 1 and the dominating point 0:
        // up-closure forces both to 1.
        let h = MonotoneClassifier::from_positive_points(&points, &[true, false]);
        assert_eq!(h.classify(points.point(0)), Label::One);
        assert_eq!(h.classify(points.point(1)), Label::One);
    }

    #[test]
    fn violation_detection() {
        // Point 1 = (1,1) dominates point 0 = (0,0).
        let points = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0]]);
        // Dominated 0, dominating 1: monotone.
        assert_eq!(
            find_monotonicity_violation(&points, &[Label::Zero, Label::One]),
            None
        );
        // Dominated 1 while dominating 0: violation (dominating index first).
        assert_eq!(
            find_monotonicity_violation(&points, &[Label::One, Label::Zero]),
            Some((1, 0))
        );
        // Incomparable points: any assignment is monotone.
        let points = PointSet::from_rows(2, &[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(
            find_monotonicity_violation(&points, &[Label::One, Label::Zero]),
            None
        );
    }

    #[test]
    fn errors_on_labeled_and_weighted() {
        let points = PointSet::from_rows(1, &[vec![1.0], vec![2.0], vec![3.0]]);
        let labels = vec![Label::Zero, Label::One, Label::Zero];
        let h = MonotoneClassifier::threshold_1d(1.5);
        let ls = LabeledSet::new(points.clone(), labels.clone());
        assert_eq!(h.error_on(&ls), 1); // point 3.0 predicted 1 but labeled 0
        let ws = WeightedSet::new(points, labels, vec![1.0, 1.0, 10.0]);
        assert_eq!(h.weighted_error_on(&ws), 10.0);
    }

    #[test]
    fn next_up_properties() {
        assert!(next_up(0.0) > 0.0);
        assert!(next_up(1.0) > 1.0);
        assert!(next_up(-1.0) > -1.0);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        let x = 123.456;
        assert_eq!(next_up(x), f64::from_bits(x.to_bits() + 1));
    }

    /// The naive minimal filter: `-0.0` stored as `0.0`, each distinct
    /// point kept iff it dominates no other distinct one, in
    /// lexicographic `total_cmp` order, as bit patterns.
    fn pairwise_minimal(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        let canonical: Vec<Vec<f64>> = rows
            .iter()
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
        out.iter()
            .map(|x| x.iter().map(|c| c.to_bits()).collect())
            .collect()
    }

    /// Points and a positive mask from one of three families, with the
    /// kept count when the family fixes it:
    /// * `0`: coordinates from a palette with both signed zeros and
    ///   `±∞`, so duplicates and ties abound;
    /// * `1`: a few ascending chains, so few anchors are kept;
    /// * `2`: `m` positives on the plane `x₀ + x₁ = m` (an antichain
    ///   whatever the other coordinates), positives above them, signed-
    ///   zero duplicates and negatives below, with `a` positives and `m`
    ///   one of `⌈a/64⌉ − 1`, `⌈a/64⌉`, `⌈a/64⌉ + 1`.
    fn pruning_family(
        family: usize,
        dim: usize,
        seed: u64,
    ) -> (PointSet, Vec<bool>, Option<usize>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PALETTE: [f64; 7] = [f64::NEG_INFINITY, -0.0, 0.0, 1.0, 2.5, 4.0, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(seed);
        let pick = |rng: &mut StdRng| PALETTE[rng.gen_range(0..PALETTE.len())];
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut positive = Vec::new();
        let mut kept = None;
        match family {
            0 => {
                for _ in 0..rng.gen_range(0..300) {
                    rows.push((0..dim).map(|_| pick(&mut rng)).collect());
                    positive.push(rng.gen_bool(0.6));
                }
            }
            1 => {
                for _ in 0..rng.gen_range(1..5) {
                    let mut at: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
                    for _ in 0..rng.gen_range(1..80) {
                        rows.push(at.clone());
                        positive.push(rng.gen_bool(0.8));
                        for c in &mut at {
                            *c += f64::from(rng.gen_range(0..3u8));
                        }
                    }
                }
            }
            _ => {
                let dim = dim.max(2);
                let a: usize = rng.gen_range(65..400);
                let m = (a.div_ceil(64) + rng.gen_range(0..3usize))
                    .saturating_sub(1)
                    .max(1);
                let plane: Vec<Vec<f64>> = (0..m)
                    .map(|l| {
                        let mut row = vec![l as f64, (m - l) as f64];
                        row.extend((2..dim).map(|_| pick(&mut rng)));
                        row
                    })
                    .collect();
                for row in &plane {
                    rows.push(row.clone());
                    positive.push(true);
                    // A negative strictly below every plane point.
                    rows.push(row.iter().map(|c| c - 1.0).collect());
                    positive.push(false);
                }
                while positive.iter().filter(|&&p| p).count() < a {
                    let base = &plane[rng.gen_range(0..m)];
                    let row: Vec<f64> = if rng.gen_bool(0.1) {
                        // A duplicate, with zeros flipped to `-0.0`.
                        base.iter()
                            .map(|&c| if c == 0.0 { -0.0 } else { c })
                            .collect()
                    } else {
                        base.iter()
                            .map(|&c| c + f64::from(rng.gen_range(0..4u8)))
                            .collect()
                    };
                    rows.push(row);
                    positive.push(true);
                }
                kept = Some(m);
                return (PointSet::from_rows(dim, &rows), positive, kept);
            }
        }
        let mut points = PointSet::new(dim);
        for row in &rows {
            points.push(row);
        }
        (points, positive, kept)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Both pruning entries keep exactly the pairwise-minimal
        /// positives, bit for bit.
        #[test]
        fn minimal_anchors_match_the_pairwise_filter(
            family in 0usize..3,
            dim in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let (points, positive, kept) = pruning_family(family, dim, seed);
            let rows: Vec<Vec<f64>> = (0..points.len())
                .filter(|&i| positive[i])
                .map(|i| points.point(i).to_vec())
                .collect();
            let want = pairwise_minimal(&rows);
            if let Some(m) = kept {
                proptest::prop_assert_eq!(want.len(), m, "family {} seed {}", family, seed);
            }
            let bits = |h: &MonotoneClassifier| -> Vec<Vec<u64>> {
                h.anchors()
                    .iter()
                    .map(|x| x.iter().map(|c| c.to_bits()).collect())
                    .collect()
            };
            let dim = points.dim();
            proptest::prop_assert_eq!(
                bits(&MonotoneClassifier::from_anchors(dim, rows)),
                want.clone(),
                "from_anchors: family {} seed {}",
                family,
                seed
            );
            let table = RankTable::build(&points);
            proptest::prop_assert_eq!(
                bits(&MonotoneClassifier::from_ranked_positives(&points, &table, &positive)),
                want,
                "from_ranked_positives: family {} seed {}",
                family,
                seed
            );
        }
    }

    #[test]
    fn ranked_positives_anchor_like_every_positive_point() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Duplicates, signed zeros and infinities on a small palette;
        // antichain-heavy layouts keep most of the positives.
        const PALETTE: [f64; 7] = [f64::NEG_INFINITY, -0.0, 0.0, 1.0, 2.5, 4.0, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(0xA2C4);
        for trial in 0..120 {
            let dim = 1 + trial % 4;
            let n = rng.gen_range(0..300);
            let mut points = PointSet::new(dim);
            for i in 0..n {
                let row: Vec<f64> = if trial % 3 == 0 {
                    // On the plane x + y = n: pairwise incomparable.
                    let mut row = vec![i as f64, (n - i) as f64];
                    row.extend((2..dim).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]));
                    row.truncate(dim);
                    row
                } else {
                    (0..dim)
                        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                        .collect()
                };
                points.push(&row);
            }
            let positive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            let table = RankTable::build(&points);
            assert_eq!(
                MonotoneClassifier::from_ranked_positives(&points, &table, &positive),
                MonotoneClassifier::from_positive_points(&points, &positive),
                "trial {trial}: d {dim}, n {n}"
            );
        }
    }
}
