//! Dense per-dimension rank compression: the one kernel behind
//! [`crate::RankTable`], [`crate::RankOracle`], [`crate::DominanceIndex`]
//! and the columnar loader.
//!
//! Each coordinate `v` becomes an order-preserving `u64` key of
//! `canon(v)` (`-0.0` folded into `0.0`, so IEEE `>=` and the ranks
//! agree on signed zeros; `±∞` order naturally; `NaN` is unsupported).
//! The key and the point's index pack into one `u128` record,
//! `key << 32 | i` ([`rank_record`]), and a plain `sort_unstable` over
//! the records puts the column in value order with no comparator
//! indirection. One walk over the sorted records then hands out dense
//! ranks: equal keys share a rank ([`rank_records_into`]). The caller
//! owns the record buffer (`16·n` bytes), so a loader ranking `d`
//! columns allocates it once, and one that decodes values from a file
//! writes the records without an intermediate `f64` column.

use crate::dataset::PointSet;
use mc_obs::cancel::{CancelToken, Cancelled};

/// Identifies `-0.0` with `0.0` so that rank order matches the IEEE
/// `>=` used by the naive [`crate::dominance::dominates`].
#[inline]
pub(crate) fn canon(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Order-preserving key: `order_key(a) < order_key(b)` iff
/// `canon(a) < canon(b)` for non-NaN `a`, `b`. Negative values flip
/// every bit, non-negative ones set the sign bit.
#[inline]
fn order_key(v: f64) -> u64 {
    let bits = canon(v).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`]: the canonical value a key encodes.
#[inline]
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// The sort record of value `v` at index `i`: its order key above the
/// index, `key << 32 | i`. A loader that decodes values one at a time
/// builds the records for [`rank_records_into`] with it directly.
#[inline]
pub fn rank_record(i: usize, v: f64) -> u128 {
    debug_assert!(
        !v.is_nan(),
        "NaN coordinates are unsupported by rank compression"
    );
    debug_assert!(i <= u32::MAX as usize, "rank records index points with u32");
    u128::from(order_key(v)) << 32 | i as u128
}

/// The rank-compression kernel: sorts `records`, made by
/// [`rank_record`] for the indices `0..out.len()`, and writes the dense
/// rank of every index `i` into `out[i]`. Returns the number of distinct
/// values. On return `records` is sorted, so its keys run through the
/// distinct values in ascending order.
///
/// # Panics
///
/// Panics if `records.len() != out.len()` or there are more than
/// `u32::MAX` of them.
pub fn rank_records_into(records: &mut [u128], out: &mut [u32]) -> usize {
    assert_eq!(records.len(), out.len(), "rank column length mismatch");
    assert!(
        out.len() <= u32::MAX as usize,
        "rank columns index points with u32"
    );
    records.sort_unstable();
    let Some(&first) = records.first() else {
        return 0;
    };
    let mut rank = 0u32;
    let mut prev = (first >> 32) as u64;
    for &record in records.iter() {
        let key = (record >> 32) as u64;
        if key != prev {
            rank += 1;
            prev = key;
        }
        out[record as u32 as usize] = rank;
    }
    rank as usize + 1
}

/// [`rank_records_into`] over the records of `values`, built in the
/// caller's reusable buffer `scratch`.
fn rank_column_into(
    values: impl IntoIterator<Item = f64>,
    scratch: &mut Vec<u128>,
    out: &mut [u32],
) -> usize {
    scratch.clear();
    scratch.extend(
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| rank_record(i, v)),
    );
    rank_records_into(scratch, out)
}

/// Dense rank compression of a single coordinate column — the
/// per-dimension kernel of [`crate::RankTable::build`], exposed for
/// callers that hold one column at a time. Identical semantics:
/// `-0.0` and `0.0` share a rank, `±∞` sentinels order naturally,
/// `NaN` is unsupported.
pub fn compress_column_ranks(values: &[f64]) -> Vec<u32> {
    let mut out = vec![0u32; values.len()];
    rank_column_into(values.iter().copied(), &mut Vec::new(), &mut out);
    out
}

/// Like [`compress_column_ranks`], but also returns the sorted distinct
/// canonical values backing the ranks: `values[r]` is the coordinate
/// every rank-`r` entry shares (`-0.0` stored as `0.0`). The pair lets a
/// consumer translate an arbitrary query coordinate `q` into the rank
/// domain with one binary search: `values.partition_point(|v| *v <= q)`
/// counts the ranks at or below `q` under the same IEEE `<=` the naive
/// dominance scan uses (`NaN` queries count zero, matching `dominates`).
pub fn compress_column_ranks_with_values(values: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut ranks = vec![0u32; values.len()];
    let mut scratch = Vec::new();
    let distinct = rank_column_into(values.iter().copied(), &mut scratch, &mut ranks);
    let mut sorted = Vec::with_capacity(distinct);
    for &record in &scratch {
        let value = key_value((record >> 32) as u64);
        if sorted.last().is_none_or(|&last: &f64| last != value) {
            sorted.push(value);
        }
    }
    (ranks, sorted)
}

/// Column-major rank compression of a point set, one
/// [`rank_column_into`] per dimension over a shared record buffer. Each
/// dimension costs an `O(n log n)` sort, so the token is polled once
/// per dimension rather than inside the sort.
pub(crate) fn try_compress_ranks(
    points: &PointSet,
    token: &CancelToken,
) -> Result<Vec<u32>, Cancelled> {
    let n = points.len();
    let mut ranks = vec![0u32; points.dim() * n];
    let mut scratch = Vec::new();
    for (k, col) in ranks.chunks_exact_mut(n.max(1)).enumerate() {
        token.poll()?;
        rank_column_into(points.iter().map(|p| p[k]), &mut scratch, col);
    }
    Ok(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference the kernel is diffed against: an indirect
    /// comparison sort of point indices by `canon(v)` under
    /// `total_cmp`, then one rank step per unequal neighbour.
    fn reference_ranks(values: &[f64]) -> Vec<u32> {
        let n = values.len();
        let mut out = vec![0u32; n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            canon(values[a as usize]).total_cmp(&canon(values[b as usize]))
        });
        let mut rank = 0u32;
        for pos in 0..n {
            if pos > 0 {
                let prev = canon(values[order[pos - 1] as usize]);
                let cur = canon(values[order[pos] as usize]);
                if prev.total_cmp(&cur) != std::cmp::Ordering::Equal {
                    rank += 1;
                }
            }
            out[order[pos] as usize] = rank;
        }
        out
    }

    const SPECIALS: [f64; 12] = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        2.2e-308,
        -2.2e-308,
    ];

    /// Checks the kernel, [`compress_column_ranks`] and
    /// [`compress_column_ranks_with_values`] against the reference.
    fn check(values: &[f64], what: &str) {
        let want = reference_ranks(values);
        assert_eq!(compress_column_ranks(values), want, "{what}");
        let (ranks, distinct) = compress_column_ranks_with_values(values);
        assert_eq!(ranks, want, "{what}");
        let num_ranks = want.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        assert_eq!(distinct.len(), num_ranks, "{what}");
        for (&r, &v) in want.iter().zip(values) {
            assert_eq!(distinct[r as usize].to_bits(), canon(v).to_bits(), "{what}");
        }
        assert!(distinct.windows(2).all(|w| w[0] < w[1]), "{what}");
    }

    #[test]
    fn kernel_matches_the_reference_sort() {
        let mut rng = StdRng::seed_from_u64(0x4A4C);
        for n in [0usize, 1, 2, 63, 64, 65, 1000] {
            let uniform: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            check(&uniform, &format!("uniform n {n}"));
            let dups: Vec<f64> = (0..n).map(|_| rng.gen_range(0..4) as f64 - 1.5).collect();
            check(&dups, &format!("heavy duplicates n {n}"));
            check(&vec![2.5; n], &format!("all equal n {n}"));
            let special: Vec<f64> = (0..n)
                .map(|_| SPECIALS[rng.gen_range(0..SPECIALS.len())])
                .collect();
            check(&special, &format!("special values n {n}"));
        }
        check(&SPECIALS, "every special value once");
        check(&[-0.0, 0.0, -0.0, 0.0], "signed zeros only");
    }

    #[test]
    fn kernel_reuses_scratch_across_columns() {
        let mut scratch = Vec::new();
        let mut out = [0u32; 4];
        assert_eq!(
            rank_column_into([3.0, 1.0, 3.0, -1.0], &mut scratch, &mut out),
            3
        );
        assert_eq!(out, [2, 1, 2, 0]);
        let mut short = [0u32; 2];
        assert_eq!(rank_column_into([-0.0, 0.0], &mut scratch, &mut short), 1);
        assert_eq!(short, [0, 0]);
        assert_eq!(scratch.len(), 2);
        // Records built one at a time, as a loader decodes them.
        let mut records: Vec<u128> = [7.0, -2.0, 7.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| rank_record(i, v))
            .collect();
        let mut ranks = [9u32; 3];
        assert_eq!(rank_records_into(&mut records, &mut ranks), 2);
        assert_eq!(ranks, [1, 0, 1]);
    }
}
