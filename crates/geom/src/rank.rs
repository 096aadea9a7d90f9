//! Dense per-dimension rank compression: the one kernel behind
//! [`crate::RankTable`], [`crate::RankOracle`], [`crate::DominanceIndex`]
//! and the columnar loader.
//!
//! Each coordinate `v` becomes an order-preserving `u64` key of
//! `canon(v)` ([`rank_key`]: `-0.0` folded into `0.0`, so IEEE `>=` and
//! the ranks agree on signed zeros; `±∞` order naturally; `NaN` is
//! unsupported). [`rank_keys_into`] ranks a column of keys in a
//! caller-owned scratch of two words per point (`16·n` bytes), so a
//! loader ranking `d` columns allocates it once, and one that decodes
//! values from a file writes the keys without an intermediate `f64`
//! column. The kernel:
//!
//! 1. ORs `key ^ first_key` over the column to find the highest bit that
//!    varies; the bits above it are shared and dropped.
//! 2. Packs the top (at most 32) varying bits above the point's `u32`
//!    index into one `u64` record, parks the remaining low key bits (at
//!    most 32) in the point's `out` slot, and counts the three 11-bit
//!    digits of the packed bits in the same pass.
//! 3. Sorts the records by LSD radix, ping-ponging between the two
//!    halves of the scratch and skipping every pass whose digit is the
//!    same for the whole column. Columns shorter than 1,024 points use
//!    `sort_unstable` instead: three 2048-bucket histograms cost more
//!    than they save there.
//! 4. Walks the sorted records handing out dense ranks. Records that tie
//!    on the packed bits but may differ below them are sorted by their
//!    parked low bits (in the free half of the scratch) before the walk
//!    overwrites their `out` slots with ranks. Equal keys share a rank.

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

/// The order-preserving sort key of a coordinate: `rank_key(a) <
/// rank_key(b)` iff `canon(a) < canon(b)` for non-NaN `a`, `b`. Negative
/// values flip every bit, non-negative ones set the sign bit. A loader
/// that decodes values one at a time writes them into the scratch of
/// [`rank_keys_into`] with it directly.
#[inline]
pub fn rank_key(v: f64) -> u64 {
    debug_assert!(
        !v.is_nan(),
        "NaN coordinates are unsupported by rank compression"
    );
    let bits = canon(v).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`rank_key`]: the canonical value a key encodes.
#[inline]
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Columns shorter than this sort their packed records with
/// `sort_unstable`; the radix passes win from about a thousand records.
const RADIX_CUTOFF: usize = 1 << 10;

/// Bits per radix digit; three digits cover the 32 packed key bits.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// The rank-compression kernel. `scratch` holds two words per point:
/// the caller writes [`rank_key`] of index `i`'s value into `scratch[i]`
/// for `i` in `0..out.len()`, and the upper half is working space. Writes
/// the dense rank of every index `i` into `out[i]` and returns the number
/// of distinct values. Allocates nothing; on return `scratch` holds
/// working state.
///
/// # Panics
///
/// Panics if `scratch.len() != 2 * out.len()` or there are more than
/// `u32::MAX` points.
pub fn rank_keys_into(scratch: &mut [u64], out: &mut [u32]) -> usize {
    rank_keys_with(scratch, out, |_| {})
}

/// [`rank_keys_into`], also handing each distinct key to `distinct`
/// in ascending order.
fn rank_keys_with(scratch: &mut [u64], out: &mut [u32], mut distinct: impl FnMut(u64)) -> usize {
    let n = out.len();
    assert_eq!(
        scratch.len(),
        2 * n,
        "rank scratch holds two words per point"
    );
    assert!(n <= u32::MAX as usize, "rank columns index points with u32");
    let (records, spare) = scratch.split_at_mut(n);
    let Some(&first) = records.first() else {
        return 0;
    };
    let varying = records.iter().fold(0, |acc, &key| acc | (key ^ first));
    // The record keeps key bits `shift .. shift + 32`, the top varying
    // ones; the bits below `shift` wait in `out`, and those above are
    // `first`'s.
    let shift = (64 - varying.leading_zeros()).saturating_sub(32);
    let low_mask = (1u64 << shift) - 1;
    let shared = first & !(u64::MAX >> (32 - shift));
    let mut counts = [[0u32; BUCKETS]; 3];
    for (i, (record, low)) in records.iter_mut().zip(out.iter_mut()).enumerate() {
        let high = (*record >> shift) as u32;
        *low = (*record & low_mask) as u32;
        for (p, digit_counts) in counts.iter_mut().enumerate() {
            digit_counts[(high >> (p as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1)] += 1;
        }
        *record = u64::from(high) << 32 | i as u64;
    }
    let (sorted, free) = if n < RADIX_CUTOFF {
        records.sort_unstable();
        (records, spare)
    } else if radix_sort(records, spare, &counts) {
        (spare, records)
    } else {
        (records, spare)
    };
    let mut ranks = 0u32;
    let mut start = 0;
    while start < n {
        let high = sorted[start] >> 32;
        let end = sorted[start + 1..]
            .iter()
            .position(|&r| r >> 32 != high)
            .map_or(n, |len| start + 1 + len);
        let group = &sorted[start..end];
        if shift == 0 || group.len() == 1 {
            distinct(shared | high << shift | u64::from(out[group[0] as u32 as usize]));
            for &record in group {
                out[record as u32 as usize] = ranks;
            }
            ranks += 1;
        } else {
            let ties = &mut free[..group.len()];
            for (tie, &record) in ties.iter_mut().zip(group) {
                let i = record as u32;
                *tie = u64::from(out[i as usize]) << 32 | u64::from(i);
            }
            ties.sort_unstable();
            let mut prev = None;
            for &tie in ties.iter() {
                let low = tie >> 32;
                if prev != Some(low) {
                    distinct(shared | high << shift | low);
                    prev = Some(low);
                    ranks += 1;
                }
                out[tie as u32 as usize] = ranks - 1;
            }
        }
        start = end;
    }
    ranks as usize
}

/// LSD radix sort of packed records by their top 32 bits, one 11-bit
/// digit per pass, ping-ponging between `a` (which holds the records)
/// and `b`. `counts[p]` is the histogram of digit `p`; a pass whose
/// digit puts every record in one bucket is skipped. Returns whether
/// the sorted records ended in `b`.
fn radix_sort<'s>(
    mut a: &'s mut [u64],
    mut b: &'s mut [u64],
    counts: &[[u32; BUCKETS]; 3],
) -> bool {
    let n = a.len();
    let mut in_b = false;
    for (p, digit_counts) in counts.iter().enumerate() {
        if digit_counts.iter().any(|&c| c as usize == n) {
            continue;
        }
        let shift = 32 + p as u32 * DIGIT_BITS;
        let mut next = [0usize; BUCKETS];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(digit_counts) {
            *slot = sum;
            sum += c as usize;
        }
        for &record in a.iter() {
            let slot = &mut next[(record >> shift) as usize & (BUCKETS - 1)];
            b[*slot] = record;
            *slot += 1;
        }
        std::mem::swap(&mut a, &mut b);
        in_b = !in_b;
    }
    in_b
}

/// Writes the keys of `values` (one per `out` slot) into the first half
/// of `scratch`, sized to the two words per point [`rank_keys_into`]
/// takes, and ranks them.
fn rank_column_with(
    values: impl IntoIterator<Item = f64>,
    scratch: &mut Vec<u64>,
    out: &mut [u32],
    distinct: impl FnMut(u64),
) -> usize {
    scratch.resize(2 * out.len(), 0);
    for (slot, v) in scratch[..out.len()].iter_mut().zip(values) {
        *slot = rank_key(v);
    }
    rank_keys_with(scratch, out, distinct)
}

/// Dense rank compression of a single coordinate column — the
/// per-dimension kernel of [`crate::RankTable::build`], exposed for
/// callers that hold one column at a time. Identical semantics:
/// `-0.0` and `0.0` share a rank, `±∞` sentinels order naturally,
/// `NaN` is unsupported.
pub fn compress_column_ranks(values: &[f64]) -> Vec<u32> {
    let mut out = vec![0u32; values.len()];
    rank_column_with(values.iter().copied(), &mut Vec::new(), &mut out, |_| {});
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
    let mut sorted = Vec::new();
    rank_column_with(values.iter().copied(), &mut Vec::new(), &mut ranks, |key| {
        sorted.push(key_value(key))
    });
    (ranks, sorted)
}

/// Column-major rank compression of a point set, one
/// [`rank_keys_into`] per dimension over a shared scratch. The token is
/// polled once per dimension rather than inside the kernel.
pub(crate) fn try_compress_ranks(
    points: &PointSet,
    token: &CancelToken,
) -> Result<Vec<u32>, Cancelled> {
    let n = points.len();
    let mut ranks = vec![0u32; points.dim() * n];
    let mut scratch = Vec::new();
    for (k, col) in ranks.chunks_exact_mut(n.max(1)).enumerate() {
        token.poll()?;
        rank_column_with(points.iter().map(|p| p[k]), &mut scratch, col, |_| {});
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

    /// A column of `n` values, each drawn from one of the families in
    /// `mask`: uniform in [-1000, 1000) and in [0, 1), heavy duplicates,
    /// a constant, special values, the long shared prefix of [1, 2),
    /// and `1.0 + k·ε`, which agrees
    /// with 1.0 on every bit but the lowest few. Mixed with a family
    /// that varies in the high bits, the last ties on the packed key
    /// bits and is ordered by the parked low bits.
    fn column(n: usize, mask: u8, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let families: Vec<u8> = (0..7).filter(|f| mask >> f & 1 == 1).collect();
        (0..n)
            .map(|_| match families[rng.gen_range(0..families.len())] {
                0 => rng.gen_range(-1e3..1e3),
                1 => rng.gen_range(0..4) as f64 - 1.5,
                2 => 2.5,
                3 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
                4 => rng.gen_range(1.0..2.0),
                5 => 1.0 + rng.gen_range(0..64) as f64 * f64::EPSILON,
                _ => rng.gen_range(0.0..1.0),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Both sorts (below and above [`RADIX_CUTOFF`]) against the
        /// reference, on mixtures of every family.
        #[test]
        fn kernel_matches_the_reference_on_mixed_columns(
            size in (0u8..3, 0usize..3 * RADIX_CUTOFF),
            mask in 1u8..128,
            seed in 0u64..u64::MAX,
        ) {
            // A third each: n ∈ {0, 1, 2}, n at the cutoff ± 2, any n.
            let n = match size {
                (0, raw) => raw % 3,
                (1, raw) => RADIX_CUTOFF - 2 + raw % 4,
                (_, raw) => raw,
            };
            check(&column(n, mask, seed), &format!("n {n} mask {mask:#b} seed {seed}"));
        }
    }

    #[test]
    fn kernel_matches_the_reference_sort() {
        let mut rng = StdRng::seed_from_u64(0x4A4C);
        for n in [0usize, 1, 2, 63, 64, 65, 1000, RADIX_CUTOFF, 5000] {
            let uniform: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            check(&uniform, &format!("uniform n {n}"));
            let dups: Vec<f64> = (0..n).map(|_| rng.gen_range(0..4) as f64 - 1.5).collect();
            check(&dups, &format!("heavy duplicates n {n}"));
            check(&vec![2.5; n], &format!("all equal n {n}"));
            let special: Vec<f64> = (0..n)
                .map(|_| SPECIALS[rng.gen_range(0..SPECIALS.len())])
                .collect();
            check(&special, &format!("special values n {n}"));
            let prefix: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..2.0)).collect();
            check(&prefix, &format!("shared prefix n {n}"));
            // More than 32 varying key bits, and ties on the top 32 of
            // them: the parked low bits decide the order.
            let mut low_bits: Vec<f64> = (0..n)
                .map(|k| 1.0 + (k % 97) as f64 * f64::EPSILON)
                .collect();
            low_bits.extend([-1.0, 0.0, 1e300]);
            check(&low_bits, &format!("low mantissa bits n {n}"));
        }
        check(&SPECIALS, "every special value once");
        check(&[-0.0, 0.0, -0.0, 0.0], "signed zeros only");
    }

    #[test]
    fn kernel_reuses_scratch_across_columns() {
        let mut scratch = Vec::new();
        let mut out = [0u32; 4];
        let rank = |values: &[f64], scratch: &mut Vec<u64>, out: &mut [u32]| {
            rank_column_with(values.iter().copied(), scratch, out, |_| {})
        };
        assert_eq!(rank(&[3.0, 1.0, 3.0, -1.0], &mut scratch, &mut out), 3);
        assert_eq!(out, [2, 1, 2, 0]);
        let mut short = [0u32; 2];
        assert_eq!(rank(&[-0.0, 0.0], &mut scratch, &mut short), 1);
        assert_eq!(short, [0, 0]);
        assert_eq!(scratch.len(), 4);
        // Keys written one at a time, as a loader decodes them.
        let mut keys = vec![0u64; 6];
        for (slot, v) in keys.iter_mut().zip([7.0, -2.0, 7.0]) {
            *slot = rank_key(v);
        }
        let mut ranks = [9u32; 3];
        assert_eq!(rank_keys_into(&mut keys, &mut ranks), 2);
        assert_eq!(ranks, [1, 0, 1]);
    }
}
