//! Blocked rank-compare kernels shared by every dominance sweep.
//!
//! The workspace's hot loop is the `u32` rank comparison that turns a
//! rank column and a threshold into a bitset of the points at or above
//! it. Its consumers:
//!
//! * the chain-head query of the passive chain-ladder sweep, and
//! * the strict-successor rows of [`crate::RankOracle`], but only on a
//!   dimension where a budget-widened checkpoint stride leaves more bits
//!   to clear than a compare pass costs (rows otherwise AND precomputed
//!   per-dimension suffix bitsets).
//!
//! The inner loops are written for autovectorization rather than
//! explicit intrinsics (safe code only, no target-specific flags): each
//! 64-rank lane is a fixed-trip-count loop over a `&[u32; 64]` chunk —
//! no bounds checks, no early exit — that writes one 0/1 byte per
//! `rank ≥ threshold` compare, and each group of 8 bytes is then packed
//! into 8 mask bits with one multiply and shift. Lanes are processed
//! [`LANES`] at a time (u64×4, 256 ranks per block); block-level
//! short-circuiting happens *between* blocks, where it does not break
//! the vector body.

/// Words per block: the kernels narrow bitset rows in u64×4 strides
/// (256 ranks at a time).
pub const LANES: usize = 4;

/// Ranks covered by one block (`LANES * 64`).
pub const BLOCK_RANKS: usize = LANES * 64;

/// Multiplier that gathers the low bit of each byte of a `u64` whose
/// bytes are all 0 or 1 into its top byte: byte `i` lands on bit
/// `56 + i`, and no two partial products share a bit, so nothing
/// carries.
const PACK_BYTES: u64 = 0x0102_0408_1020_4080;

/// Packs `chunk[b] >= threshold` into bit `b` of the returned word.
/// The 64 compares write one 0/1 byte each (a fixed-trip loop the
/// compiler turns into vector compares), then each 8 bytes become 8
/// bits with one multiply and shift.
#[inline]
fn ge_word_full(chunk: &[u32; 64], threshold: u32) -> u64 {
    let mut flags = [0u8; 64];
    for (f, &r) in flags.iter_mut().zip(chunk) {
        *f = (r >= threshold) as u8;
    }
    let mut ge = 0u64;
    for (g, bytes) in flags.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(bytes.try_into().expect("8-byte group"));
        ge |= (lanes.wrapping_mul(PACK_BYTES) >> 56) << (8 * g);
    }
    ge
}

/// Tail variant of [`ge_word_full`] for the final partial word; bits at
/// or beyond `chunk.len()` stay zero.
#[inline]
fn ge_word_partial(chunk: &[u32], threshold: u32) -> u64 {
    debug_assert!(chunk.len() <= 64);
    let mut ge = 0u64;
    for (b, &r) in chunk.iter().enumerate() {
        ge |= ((r >= threshold) as u64) << b;
    }
    ge
}

/// Narrows the bitset `row` over `col.len()` points to those with
/// `col[j] >= threshold`: `row &= ge_mask(col, threshold)`, blocked in
/// u64×4 strides with per-block skip of already-empty regions. Returns
/// `true` iff any bit of `row` survives.
///
/// `row.len()` must be `col.len().div_ceil(64)`; the caller is expected
/// to have zeroed the padding bits of the final word (the kernel never
/// sets bits, so padding stays clear).
pub fn and_ge_mask(col: &[u32], threshold: u32, row: &mut [u64]) -> bool {
    debug_assert_eq!(row.len(), col.len().div_ceil(64));
    let mut any = 0u64;
    let mut w = 0usize;
    // u64×4 body: four independent lane accumulators per block.
    while (w + LANES) * 64 <= col.len() {
        let block = &mut row[w..w + LANES];
        if block.iter().any(|&x| x != 0) {
            let ranks = &col[w * 64..w * 64 + BLOCK_RANKS];
            let mut masks = [0u64; LANES];
            for (lane, mask) in masks.iter_mut().enumerate() {
                let chunk: &[u32; 64] = ranks[lane * 64..(lane + 1) * 64]
                    .try_into()
                    .expect("exact 64-rank lane");
                *mask = ge_word_full(chunk, threshold);
            }
            for (slot, mask) in block.iter_mut().zip(masks) {
                *slot &= mask;
                any |= *slot;
            }
        }
        w += LANES;
    }
    // Word-at-a-time remainder (fewer than 4 words left).
    while w * 64 < col.len() {
        if row[w] != 0 {
            let base = w * 64;
            let len = (col.len() - base).min(64);
            let chunk = &col[base..base + len];
            row[w] &= if len == 64 {
                ge_word_full(chunk.try_into().expect("full word"), threshold)
            } else {
                ge_word_partial(chunk, threshold)
            };
            any |= row[w];
        }
        w += 1;
    }
    any != 0
}

/// Scalar reference kernel: the pre-blocking per-word loop, kept as the
/// correctness baseline for tests and as the "before" side of the
/// kernel microbench in `mc-bench`.
pub fn and_ge_mask_scalar(col: &[u32], threshold: u32, row: &mut [u64]) -> bool {
    debug_assert_eq!(row.len(), col.len().div_ceil(64));
    let mut any = 0u64;
    for (w, slot) in row.iter_mut().enumerate() {
        if *slot == 0 {
            continue;
        }
        let base = w * 64;
        let len = (col.len() - base).min(64);
        let mut ge = 0u64;
        for (b, &r) in col[base..base + len].iter().enumerate() {
            ge |= ((r >= threshold) as u64) << b;
        }
        *slot &= ge;
        any |= *slot;
    }
    any != 0
}

/// Fills `row` with the all-ones mask over `n` points (padding bits of
/// the final word cleared) — the starting state every narrowing pass
/// expects.
pub fn ones_mask_into(n: usize, row: &mut [u64]) {
    debug_assert_eq!(row.len(), n.div_ceil(64));
    row.fill(!0u64);
    let spill = n % 64;
    if spill != 0 {
        if let Some(last) = row.last_mut() {
            *last = (1u64 << spill) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn blocked_matches_scalar_on_random_columns() {
        let mut rng = StdRng::seed_from_u64(0x51D);
        for n in [0usize, 1, 63, 64, 65, 255, 256, 257, 1000] {
            let col: Vec<u32> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            for t in [0u32, 1, 25, 49, 50] {
                let mut a = vec![0u64; n.div_ceil(64)];
                let mut b = vec![0u64; n.div_ceil(64)];
                ones_mask_into(n, &mut a);
                ones_mask_into(n, &mut b);
                let ra = and_ge_mask(&col, t, &mut a);
                let rb = and_ge_mask_scalar(&col, t, &mut b);
                assert_eq!(a, b, "n {n} t {t}");
                assert_eq!(ra, rb, "n {n} t {t}");
                assert_eq!(ra, a.iter().any(|&w| w != 0));
            }
        }
    }

    /// Ranks in the top half of `u32` (where a signed compare would
    /// flip), the extreme thresholds, and a single passing rank at
    /// every bit position of every word of a block: the byte-packed
    /// kernels must agree with the scalar reference bit for bit.
    #[test]
    fn high_ranks_and_every_bit_position_match_scalar() {
        const HIGH: u32 = 1 << 31;
        let mut rng = StdRng::seed_from_u64(0xB17);
        let thresholds = [0u32, 1, HIGH, u32::MAX];
        let check = |col: &[u32], t: u32| {
            let n = col.len();
            let words = n.div_ceil(64);
            let mut reference = vec![0u64; words];
            ones_mask_into(n, &mut reference);
            let ref_any = and_ge_mask_scalar(col, t, &mut reference);
            let mut blocked = vec![0u64; words];
            ones_mask_into(n, &mut blocked);
            assert_eq!(and_ge_mask(col, t, &mut blocked), ref_any, "n {n} t {t}");
            assert_eq!(blocked, reference, "and_ge_mask, n {n} t {t}");
        };
        for n in [1usize, 63, 64, 65, 256, 300, 513] {
            let col: Vec<u32> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => u32::MAX,
                    1 => HIGH,
                    2 => rng.gen_range(HIGH..=u32::MAX),
                    _ => rng.gen_range(0..=u32::MAX),
                })
                .collect();
            for t in thresholds {
                check(&col, t);
            }
        }
        // One rank at the threshold (then at u32::MAX), every other
        // rank just below it (or at it, for t = 0), at each position of
        // a column of one u64×4 block plus one remainder word.
        let n = BLOCK_RANKS + 64;
        for t in thresholds {
            for pos in 0..n {
                let mut col = vec![t.saturating_sub(1); n];
                col[pos] = t;
                check(&col, t);
                col[pos] = u32::MAX;
                check(&col, t);
            }
        }
    }

    #[test]
    fn narrowing_composes_like_intersection() {
        let mut rng = StdRng::seed_from_u64(0xC0);
        let n = 300usize;
        let c0: Vec<u32> = (0..n).map(|_| rng.gen_range(0..9)).collect();
        let c1: Vec<u32> = (0..n).map(|_| rng.gen_range(0..9)).collect();
        let mut row = vec![0u64; n.div_ceil(64)];
        ones_mask_into(n, &mut row);
        and_ge_mask(&c0, 4, &mut row);
        and_ge_mask(&c1, 6, &mut row);
        for j in 0..n {
            let bit = row[j / 64] >> (j % 64) & 1 == 1;
            assert_eq!(bit, c0[j] >= 4 && c1[j] >= 6, "bit {j}");
        }
    }

    #[test]
    fn empty_row_reports_no_survivors() {
        let col = vec![5u32; 70];
        let mut row = vec![0u64; 2];
        ones_mask_into(70, &mut row);
        assert!(!and_ge_mask(&col, 6, &mut row));
        assert!(row.iter().all(|&w| w == 0));
    }
}
