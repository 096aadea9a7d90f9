//! Anchor index: the query fast path over [`mc_geom::RankOracle`]
//! suffixes.
//!
//! [`MonotoneClassifier::classify`] is a naive scan — every query walks
//! all `a` anchors and compares `d` floats each, `O(a·d)` float work per
//! point. That is fine for training-time evaluation but not for serving
//! millions of queries per second. [`AnchorIndex`] preprocesses the
//! anchor set once so that a single-point query costs `d` bucket lookups
//! plus one existence test over the oracle's suffix bitsets: at most
//! `(d − 1)·⌈p/64⌉` word ANDs, `p ≤ a` the dimension-0 prefix below,
//! and `d` rank compares per surviving bit, stopping at the first anchor
//! the point dominates.
//!
//! * **Values, guides and counts** (per dimension): the anchors'
//!   coordinates on dimension `k` are collapsed to dense ranks `0..m_k`
//!   via [`mc_geom::compress_column_ranks_with_values`], keeping the
//!   sorted distinct values and the cumulative count `above[k][c]` of
//!   anchors whose rank is `≥ c`. A query coordinate `q` is bound to `c`,
//!   the number of values at or below `q` under the same IEEE `<=` the
//!   naive `dominates` scan uses (so `±∞` and signed zeros agree
//!   bit-for-bit with the scan by construction; a `NaN` coordinate
//!   dominates nothing and answers [`Label::Zero`] first). A bucket
//!   guide over the values' [`rank_key`]s, about one bucket per value,
//!   finds `c` with one `partition_point` inside `q`'s bucket, `O(1)`
//!   values in expectation rather than `log m_k` steps over all of them.
//!   `c = 0` means `q` dominates no anchor on `k`, and the answer is 0.
//! * **One oracle over reversed ranks**: the [`RankOracle`] holds each
//!   anchor's reversed rank `m_k − 1 − r`, so its sorted order on `k`
//!   runs from the largest coordinate down, and the anchors `q` dominates
//!   on `k` are exactly those at sorted position `≥ above[k][c]` — a tie
//!   group start. [`RankOracle::suffix_intersects`] asks whether some
//!   anchor lies in all those suffixes; the answer is 1 iff one does. No
//!   row is built.
//! * **Dimension 0 as an index bound**: every [`MonotoneClassifier`]
//!   stores its anchors in lexicographic order, so the anchors at or
//!   below `q₀` on dimension 0 are the first `p = a − above[0][c₀]`. The
//!   existence test reads only the words below `⌈p/64⌉`, masks the bits
//!   past `p`, and needs no dimension-0 suffix. When a small
//!   `MC_MATRIX_BUDGET_BYTES` widens the oracle's stride, more bits
//!   survive the ANDs and wait for rank compares; at one checkpoint per
//!   dimension the test is a rank scan of the prefix, about `d` compare
//!   passes at worst.
//!
//! The index answers exactly like the classifier it was built from —
//! tested bit-identically against the naive scan in
//! `crates/core/tests/anchor_index_props.rs` and, at strides 64, 128
//! and one checkpoint, in this module — and is immutable after
//! construction, so it can be shared across threads behind an `Arc` and
//! hot-swapped atomically (see `mcc serve`).

use crate::classifier::MonotoneClassifier;
use mc_geom::{
    compress_column_ranks_with_values, parallel_chunks, rank_key, row_budget_bytes, Label,
    PointSet, RankOracle,
};

/// Reusable per-thread query scratch: the per-dimension oracle
/// positions. Allocation-free across queries once warm; one per worker
/// thread, never shared.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    pos: Vec<u32>,
}

/// A bucket guide over one dimension's sorted distinct values: bucket
/// `b` covers the [`rank_key`]s from `lo + b·2^shift` up to the next
/// bucket's, and `starts[b]` counts the values whose key lies below it.
/// About one bucket per value, so binding a coordinate searches one
/// bucket, `O(1)` values in expectation, instead of all `m_k`.
#[derive(Debug, Clone)]
struct KeyGuide {
    lo: u64,
    shift: u32,
    /// `buckets + 1` entries, the last one `m_k`.
    starts: Vec<u32>,
}

impl KeyGuide {
    fn build(vals: &[f64]) -> Self {
        let (Some(&first), Some(&last)) = (vals.first(), vals.last()) else {
            return Self {
                lo: 0,
                shift: 0,
                starts: vec![0],
            };
        };
        let lo = rank_key(first);
        let span = rank_key(last) - lo;
        // At most `m_k.next_power_of_two()` buckets.
        let bits = u64::BITS - span.leading_zeros();
        let shift = bits.saturating_sub(vals.len().next_power_of_two().trailing_zeros());
        let buckets = (span >> shift) as usize + 1;
        let mut starts = vec![0u32; buckets + 1];
        for &v in vals {
            starts[((rank_key(v) - lo) >> shift) as usize + 1] += 1;
        }
        for b in 1..=buckets {
            starts[b] += starts[b - 1];
        }
        Self { lo, shift, starts }
    }

    /// The number of `vals` at or below `q` under IEEE `<=`, for a
    /// non-NaN `q`: every value in a bucket below `q`'s is `< q` and
    /// every value in one above is `> q`, so one `partition_point`
    /// inside `q`'s bucket decides the count.
    #[inline]
    fn count_at_or_below(&self, vals: &[f64], q: f64) -> usize {
        let Some(offset) = rank_key(q).checked_sub(self.lo) else {
            return 0;
        };
        let b = offset >> self.shift;
        if b >= (self.starts.len() - 1) as u64 {
            return vals.len();
        }
        let (from, to) = (
            self.starts[b as usize] as usize,
            self.starts[b as usize + 1] as usize,
        );
        from + vals[from..to].partition_point(|v| *v <= q)
    }
}

/// An immutable index over a [`MonotoneClassifier`]'s anchor set. See
/// the module docs for the data layout; construction is `O(a·d·log a)`
/// plus the oracle's suffix-bitset table (`d·⌈a/B⌉·⌈a/64⌉` words,
/// fitted to the row budget), and [`Self::payload_bytes`] reports what
/// it holds.
#[derive(Debug, Clone)]
pub struct AnchorIndex {
    dim: usize,
    num_anchors: usize,
    /// `vals[k]` = sorted distinct canonical anchor values on dimension
    /// `k` (`vals[k][r]` is the coordinate shared by rank-`r` anchors).
    vals: Vec<Vec<f64>>,
    /// `guides[k]` locates a coordinate among `vals[k]`.
    guides: Vec<KeyGuide>,
    /// `above[k][c]` = anchors whose rank on dimension `k` is `≥ c`
    /// (`m_k + 1` entries): the oracle's first sorted position of the
    /// anchors with rank `< c`.
    above: Vec<Vec<u32>>,
    /// Oracle over the anchors' reversed ranks.
    oracle: RankOracle,
}

/// Column-major reversed ranks (`ranks[k * a + i] = m_k − 1 − r`) of
/// `anchors`, plus each dimension's sorted distinct values. In an oracle
/// over them, anchor `j` lies in every suffix at anchor `i`'s own
/// positions iff `i ⪰ j`.
pub(crate) fn reversed_rank_columns(dim: usize, anchors: &[Vec<f64>]) -> (Vec<u32>, Vec<Vec<f64>>) {
    let a = anchors.len();
    let mut ranks = Vec::with_capacity(dim * a);
    let mut vals = Vec::with_capacity(dim);
    let mut column = vec![0.0f64; a];
    for k in 0..dim {
        for (slot, anchor) in column.iter_mut().zip(anchors) {
            *slot = anchor[k];
        }
        let (col, distinct) = compress_column_ranks_with_values(&column);
        let top = (distinct.len() as u32).saturating_sub(1);
        ranks.extend(col.iter().map(|&r| top - r));
        vals.push(distinct);
    }
    (ranks, vals)
}

impl AnchorIndex {
    /// Builds the index from a classifier's (already minimal) anchors,
    /// with the oracle table fitted to [`mc_geom::row_budget_bytes`].
    pub fn build(h: &MonotoneClassifier) -> Self {
        Self::build_within(h, row_budget_bytes())
    }

    /// [`Self::build`] with the oracle table fitted to `budget_bytes`.
    fn build_within(h: &MonotoneClassifier, budget_bytes: u64) -> Self {
        let dim = h.dim();
        let num_anchors = h.anchors().len();
        debug_assert!(
            h.anchors()
                .windows(2)
                .all(|w| w[0][0].total_cmp(&w[1][0]).is_le()),
            "anchors must be sorted on dimension 0"
        );
        let (ranks, vals) = reversed_rank_columns(dim, h.anchors());
        let guides = vals.iter().map(|v| KeyGuide::build(v)).collect();
        let above = vals
            .iter()
            .enumerate()
            .map(|(k, distinct)| {
                // Reversed rank `rr` is rank `m_k − 1 − rr`.
                let top = distinct.len().saturating_sub(1);
                let mut counts = vec![0u32; distinct.len() + 1];
                for &rr in &ranks[k * num_anchors..(k + 1) * num_anchors] {
                    counts[top - rr as usize] += 1;
                }
                for c in (0..distinct.len()).rev() {
                    counts[c] += counts[c + 1];
                }
                counts
            })
            .collect();
        let oracle = RankOracle::from_rank_columns(num_anchors, dim, ranks, budget_bytes);
        Self {
            dim,
            num_anchors,
            vals,
            guides,
            above,
            oracle,
        }
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed anchors.
    pub fn num_anchors(&self) -> usize {
        self.num_anchors
    }

    /// Resident size of the index payload in bytes: the oracle's table
    /// and arrays ([`RankOracle::payload_bytes`]), the distinct values,
    /// their bucket guides and the cumulative counts. For capacity
    /// planning and telemetry.
    pub fn payload_bytes(&self) -> usize {
        let distinct: usize = self.vals.iter().map(|v| v.len() * 8).sum();
        let guides: usize = self.guides.iter().map(|g| g.starts.len() * 4).sum();
        let counts: usize = self.above.iter().map(|c| c.len() * 4).sum();
        self.oracle.payload_bytes() + distinct + guides + counts
    }

    /// Classifies one point, allocating fresh scratch. Convenience
    /// entry point; hot loops should reuse a [`QueryScratch`] via
    /// [`Self::classify_with`].
    pub fn classify(&self, p: &[f64]) -> Label {
        self.classify_with(p, &mut QueryScratch::default())
    }

    /// Classifies one point using caller-provided scratch:
    /// [`Label::One`] iff `p` reflexively dominates some anchor,
    /// bit-identical to [`MonotoneClassifier::classify`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on dimensionality mismatch.
    pub fn classify_with(&self, p: &[f64], scratch: &mut QueryScratch) -> Label {
        debug_assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        if self.num_anchors == 0 {
            return Label::Zero;
        }
        scratch.pos.clear();
        let mut prefix = 0;
        for (k, &q) in p.iter().enumerate() {
            // NaN compares false against everything, so it dominates no
            // anchor: the naive scan's answer.
            if q.is_nan() {
                return Label::Zero;
            }
            let c = self.guides[k].count_at_or_below(&self.vals[k], q);
            if c == 0 {
                return Label::Zero;
            }
            let start = self.above[k][c];
            if k == 0 {
                // The anchors are sorted on dimension 0, so those at or
                // below `q₀` there are exactly the first `a − start`:
                // the scan's index bound decides dimension 0, and its
                // suffix is the whole set.
                prefix = self.num_anchors - start as usize;
                scratch.pos.push(0);
            } else {
                scratch.pos.push(start);
            }
        }
        Label::from_bool(self.oracle.suffix_intersects(&scratch.pos, prefix))
    }

    /// Classifies a flat row-major batch (`data.len()` must be a
    /// multiple of `dim`), fanning out across threads via
    /// [`mc_geom::parallel_chunks`] for large batches. This is the
    /// serving kernel: `mcc serve`, `mcc classify` and the load
    /// generator all sit on top of it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn classify_batch(&self, data: &[f64]) -> Vec<Label> {
        assert_eq!(
            data.len() % self.dim,
            0,
            "flat batch length must be a multiple of dim"
        );
        let n = data.len() / self.dim;
        let chunks = parallel_chunks(n, |range| {
            let mut scratch = QueryScratch::default();
            range
                .map(|i| self.classify_with(&data[i * self.dim..(i + 1) * self.dim], &mut scratch))
                .collect::<Vec<Label>>()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// Classifies every point of a [`PointSet`] (batch entry point for
    /// in-process callers; same kernel as [`Self::classify_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the set's dimensionality differs from the index's.
    pub fn classify_set(&self, points: &PointSet) -> Vec<Label> {
        assert_eq!(points.dim(), self.dim, "point set dimensionality mismatch");
        let n = points.len();
        let chunks = parallel_chunks(n, |range| {
            let mut scratch = QueryScratch::default();
            range
                .map(|i| self.classify_with(points.point(i), &mut scratch))
                .collect::<Vec<Label>>()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_against_naive(h: &MonotoneClassifier, points: &[Vec<f64>]) {
        let idx = AnchorIndex::build(h);
        let mut scratch = QueryScratch::default();
        for p in points {
            assert_eq!(
                idx.classify_with(p, &mut scratch),
                h.classify(p),
                "index/naive disagreement on {p:?} with anchors {:?}",
                h.anchors()
            );
        }
        let flat: Vec<f64> = points.iter().flatten().copied().collect();
        let batch = idx.classify_batch(&flat);
        let naive: Vec<Label> = points.iter().map(|p| h.classify(p)).collect();
        assert_eq!(batch, naive);
    }

    #[test]
    fn empty_classifier_is_all_zero() {
        let h = MonotoneClassifier::all_zero(3);
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.num_anchors(), 0);
        assert_eq!(idx.classify(&[0.0, 0.0, 0.0]), Label::Zero);
        assert_eq!(idx.classify(&[f64::INFINITY; 3]), Label::Zero);
        assert!(idx.classify_batch(&[]).is_empty());
    }

    #[test]
    fn all_one_classifier_accepts_everything_non_nan() {
        let h = MonotoneClassifier::all_one(2);
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.classify(&[-1e308, -1e308]), Label::One);
        assert_eq!(idx.classify(&[f64::NEG_INFINITY, 0.0]), Label::One);
        // NaN dominates nothing, even the -inf anchor.
        assert_eq!(idx.classify(&[f64::NAN, 0.0]), Label::Zero);
    }

    #[test]
    fn matches_naive_on_edge_values() {
        let h = MonotoneClassifier::from_anchors(
            2,
            vec![
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![f64::NEG_INFINITY, 2.0],
                vec![3.0, f64::INFINITY],
            ],
        );
        let vals = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut points = Vec::new();
        for &x in &vals {
            for &y in &vals {
                points.push(vec![x, y]);
            }
        }
        check_against_naive(&h, &points);
    }

    #[test]
    fn batch_crosses_word_and_block_boundaries() {
        // 300 anchors → rows of 5 words and 5 oracle checkpoints per
        // dimension, so queries leave checkpoint 0.
        let anchors: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64, (300 - i) as f64]).collect();
        let h = MonotoneClassifier::from_anchors(2, anchors);
        assert_eq!(h.anchors().len(), 300); // an antichain: nothing pruned
        let points: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i * 3) as f64, (i * 2) as f64 + 0.5])
            .collect();
        check_against_naive(&h, &points);
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let h = MonotoneClassifier::from_anchors(1, vec![vec![5.0]]);
        let idx = AnchorIndex::build(&h);
        let mut scratch = QueryScratch::default();
        assert_eq!(idx.classify_with(&[9.0], &mut scratch), Label::One);
        assert_eq!(idx.classify_with(&[1.0], &mut scratch), Label::Zero);
        assert_eq!(idx.classify_with(&[5.0], &mut scratch), Label::One);
    }

    #[test]
    fn classify_set_matches_classifier_classify_set() {
        let h = MonotoneClassifier::from_anchors(2, vec![vec![1.0, 2.0], vec![2.0, 1.0]]);
        let points = PointSet::from_rows(
            2,
            &[
                vec![0.0, 0.0],
                vec![1.0, 2.0],
                vec![2.5, 2.5],
                vec![2.0, 0.5],
            ],
        );
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.classify_set(&points), h.classify_set(&points));
    }

    use mc_geom::dominates;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Grid coordinate `x ∈ 0..g` as an anchor value: strictly
    /// increasing, with `−∞` at 0, `+∞` at `g − 1`, and zero at `g / 2`
    /// written as `-0.0` or `0.0` at random.
    fn grid_value(x: usize, g: usize, rng: &mut StdRng) -> f64 {
        match x {
            0 => f64::NEG_INFINITY,
            _ if x == g - 1 => f64::INFINITY,
            _ if x == g / 2 && rng.gen_bool(0.5) => -0.0,
            _ => x as f64 - (g / 2) as f64,
        }
    }

    /// `a` distinct grid points of `[0, g)^d` with coordinate sum `sum`,
    /// so an antichain, in random order.
    fn grid_antichain(
        a: usize,
        d: usize,
        g: usize,
        sum: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<usize>> {
        let mut level = Vec::new();
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
            level.len() >= a,
            "level of {} points, need {a}",
            level.len()
        );
        level.shuffle(rng);
        level.truncate(a);
        level
    }

    /// Every index query must equal the raw scan at checkpoint strides
    /// 64 and 128 and at one checkpoint per dimension, where a row's
    /// clears exceed a compare pass and the oracle's fallback narrows it.
    #[test]
    fn matches_naive_scan_at_every_stride() {
        let mut rng = StdRng::seed_from_u64(0xA7C4);
        for (a, d, g, sum) in [
            (63, 2, 80, 79),
            (64, 3, 12, 16),
            (65, 4, 8, 14),
            (200, 3, 20, 28),
            (1000, 4, 12, 22),
            (1000, 5, 8, 17),
        ] {
            let grid = grid_antichain(a, d, g, sum, &mut rng);
            let raw: Vec<Vec<f64>> = grid
                .iter()
                .map(|x| x.iter().map(|&c| grid_value(c, g, &mut rng)).collect())
                .collect();
            let h = MonotoneClassifier::from_anchors(d, raw.clone());
            assert_eq!(h.anchors().len(), a);
            // Queries at, just below and just above anchor coordinates,
            // with a NaN or an infinity now and then.
            let queries: Vec<Vec<f64>> = (0..600)
                .map(|_| {
                    let base = &grid[rng.gen_range(0..a)];
                    base.iter()
                        .map(|&c| match rng.gen_range(0..20) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            r => {
                                let c = (c + r % 3).saturating_sub(1).min(g - 1);
                                grid_value(c, g, &mut rng)
                            }
                        })
                        .collect()
                })
                .collect();
            let expected: Vec<Label> = queries
                .iter()
                .map(|p| Label::from_bool(raw.iter().any(|x| dominates(p, x))))
                .collect();
            let ones = expected.iter().filter(|l| l.is_one()).count();
            assert!(ones > 50 && ones < 550, "a {a} d {d}: {ones} positives");

            // The suffix-bitset table's bytes at stride 64.
            let table = (d * a.div_ceil(64).pow(2) * 8) as u64;
            for (budget, stride) in [
                (256 << 20, 64),
                (table - 1, 128),
                (1, a.next_power_of_two().max(64)),
            ] {
                let idx = AnchorIndex::build_within(&h, budget);
                if a > 64 {
                    assert_eq!(idx.oracle.stride(), stride, "a {a} budget {budget}");
                }
                let mut scratch = QueryScratch::default();
                for (p, &want) in queries.iter().zip(&expected) {
                    assert_eq!(
                        idx.classify_with(p, &mut scratch),
                        want,
                        "a {a} d {d} stride {} query {p:?}",
                        idx.oracle.stride()
                    );
                }
            }
        }
    }

    #[test]
    fn payload_bytes_is_the_oracle_values_and_counts() {
        let a = 300usize;
        let anchors: Vec<Vec<f64>> = (0..a).map(|i| vec![i as f64, (a - i) as f64]).collect();
        let idx = AnchorIndex::build(&MonotoneClassifier::from_anchors(2, anchors));
        let words = a.div_ceil(64);
        // Stride 64: 2 dimensions × 5 checkpoints × 5 words; ranks,
        // orders and group starts; 300 singleton duplicate groups.
        let oracle = 2 * words * words * 8 + 12 * 2 * a + 4 * (a + a + a + 1);
        assert_eq!(idx.oracle.payload_bytes(), oracle);
        let values = 2 * a * 8;
        let counts = 2 * (a + 1) * 4;
        // At most one bucket per value, rounded up to a power of two,
        // plus the closing count.
        assert!(idx.guides.iter().all(|g| g.starts.len() <= 512 + 1));
        let guides: usize = idx.guides.iter().map(|g| g.starts.len() * 4).sum();
        assert_eq!(idx.payload_bytes(), oracle + values + guides + counts);
    }

    /// The guide's count must equal a `partition_point` over all the
    /// values, for values spread over many binades, clustered in one,
    /// with `±∞`, signed zeros and subnormals, and for queries at, next
    /// to and between them.
    #[test]
    fn key_guide_counts_like_a_full_binary_search() {
        let mut rng = StdRng::seed_from_u64(0x6E1DE);
        let tiny = f64::from_bits(1); // the smallest subnormal
        let columns: Vec<Vec<f64>> = vec![
            vec![],
            vec![5.0],
            vec![f64::NEG_INFINITY],
            vec![f64::NEG_INFINITY, f64::INFINITY],
            vec![-tiny, 0.0, tiny],
            (0..500).map(|i| 1.0 + i as f64 * 1e-12).collect(),
            (0..300).map(|_| rng.gen_range(-1e6..1e6)).collect(),
            (0..300).map(|i| (i as f64 - 150.0).powi(9)).collect(),
            (0..200)
                .map(|_| 2f64.powi(rng.gen_range(-1000..1000)) * rng.gen_range(-1.0..1.0))
                .chain([f64::NEG_INFINITY, f64::INFINITY, 0.0, f64::MAX, f64::MIN])
                .collect(),
        ];
        for column in columns {
            let (_, vals) = compress_column_ranks_with_values(&column);
            let guide = KeyGuide::build(&vals);
            assert!(guide.starts.len() <= vals.len().next_power_of_two() + 1);
            let mut queries = vec![
                f64::NEG_INFINITY,
                f64::INFINITY,
                -0.0,
                0.0,
                tiny,
                -tiny,
                f64::MAX,
                f64::MIN,
            ];
            for &v in &vals {
                queries.extend([v, v.next_up(), v.next_down(), v * 0.5, v * 2.0]);
            }
            for &q in queries.iter().filter(|q| !q.is_nan()) {
                assert_eq!(
                    guide.count_at_or_below(&vals, q),
                    vals.partition_point(|v| *v <= q),
                    "q {q:e} over {} values",
                    vals.len()
                );
            }
        }
    }
}
