//! Stable ordering by integer keys without comparison sorts.
//!
//! [`radix_sort_by_key`] is the one ordering pass behind the
//! [`crate::RankOracle`] build: its per-dimension sorted orders, its
//! duplicate groups, and the linear extension ([`crate::linear_extension_order`]). Keys may be
//! dense (ranks below `n`), sparse (a gathered subset keeps its parent
//! table's ranks) or wider than `u32` (rank sums); one code path serves
//! all of them, because the digits cover only the bits in which the keys
//! differ from the least key.

/// Most bits one pass consumes: `2^11` buckets stay cache-resident.
const MAX_DIGIT_BITS: u32 = 11;

/// Reorders `items`, a permutation of `0..items.len()`, stably by
/// `keys[item]`: ascending key, equal keys in their current relative
/// order. LSD radix over `key − min_key`: its significant bits are split
/// into equal digits of at most [`MAX_DIGIT_BITS`], each digit one
/// histogram and one scatter pass, and a digit that is the same for every
/// key costs no scatter. Keys whose span fits the bit length of `n`
/// (below `2n`, as dense ranks and tie-group starts do) take one
/// counting pass over `2^bits ≤ 2n` buckets instead: a bucket table no
/// larger than the items, and one scatter instead of two or more.
/// `spare` is scratch of any length; it is resized to `items.len()`.
///
/// # Panics
///
/// Panics if `keys.len() != items.len()`; an item out of range panics on
/// the index.
pub(crate) fn radix_sort_by_key<K: Copy + Into<u64>>(
    items: &mut [u32],
    keys: &[K],
    spare: &mut Vec<u32>,
) {
    let n = items.len();
    assert_eq!(keys.len(), n, "one key per item");
    let Some((lo, hi)) = keys.iter().fold(None, |acc: Option<(u64, u64)>, &k| {
        let k = k.into();
        Some(acc.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))))
    }) else {
        return;
    };
    let bits = u64::BITS - (hi - lo).leading_zeros();
    if bits == 0 {
        return;
    }
    let one_pass = MAX_DIGIT_BITS.max(usize::BITS - n.leading_zeros());
    let passes = if bits <= one_pass {
        1
    } else {
        bits.div_ceil(MAX_DIGIT_BITS)
    };
    let digit_bits = bits.div_ceil(passes);
    let mask = (1u64 << digit_bits) - 1;
    let digit =
        |item: u32, shift: u32| ((keys[item as usize].into() - lo) >> shift & mask) as usize;
    spare.clear();
    spare.resize(n, 0);
    let mut counts = vec![0u32; 1 << digit_bits];
    let (mut from, mut to): (&mut [u32], &mut [u32]) = (items, spare);
    let mut in_spare = false;
    for pass in 0..passes {
        let shift = pass * digit_bits;
        counts.fill(0);
        // The histogram reads the keys in item order: a permutation has
        // the same digits whatever its current order.
        for item in 0..n as u32 {
            counts[digit(item, shift)] += 1;
        }
        if counts.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0;
        for c in counts.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        for &item in from.iter() {
            let slot = &mut counts[digit(item, shift)];
            to[*slot as usize] = item;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
        in_spare = !in_spare;
    }
    if in_spare {
        to.copy_from_slice(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The comparison-sort reference: ascending `(key, current position)`.
    fn reference(items: &[u32], keys: &[u64]) -> Vec<u32> {
        let mut out = items.to_vec();
        out.sort_by_key(|&i| keys[i as usize]);
        out
    }

    #[test]
    fn matches_a_stable_comparison_sort_on_every_key_width() {
        let mut rng = StdRng::seed_from_u64(0x4AD1);
        let mut spare = Vec::new();
        for trial in 0..300 {
            let n = rng.gen_range(0..700);
            // Key spans from constant through dense, sparse u32 and
            // past u32::MAX, offset so the least key is rarely 0.
            let span: u64 = match trial % 5 {
                0 => 1,
                1 => rng.gen_range(1..8),
                2 => n as u64 + 1,
                3 => u64::from(u32::MAX),
                _ => 1u64 << rng.gen_range(33..63),
            };
            let base: u64 = rng.gen_range(0..1u64 << 40);
            let keys: Vec<u64> = (0..n).map(|_| base + rng.gen_range(0..span)).collect();
            let mut items: Vec<u32> = (0..n as u32).collect();
            // A shuffled start checks stability relative to the input.
            for i in (1..n).rev() {
                items.swap(i, rng.gen_range(0..=i));
            }
            let expected = reference(&items, &keys);
            radix_sort_by_key(&mut items, &keys, &mut spare);
            assert_eq!(items, expected, "trial {trial}, n {n}, span {span}");
        }
    }

    #[test]
    fn counting_pass_matches_the_reference_on_both_sides_of_its_span_rule() {
        let mut rng = StdRng::seed_from_u64(0x5B4A);
        let mut spare = Vec::new();
        for n in [1usize, 2_047, 2_048, 2_049, 5_000, 40_000] {
            // Bit length of n: spans below 2^len take one pass.
            let len = usize::BITS - n.leading_zeros();
            for bits in [len.max(MAX_DIGIT_BITS), len.max(MAX_DIGIT_BITS) + 1] {
                let base: u64 = rng.gen_range(0..1u64 << 35);
                // The least and greatest keys pin the span at `bits` bits.
                let mut keys: Vec<u64> = (0..n)
                    .map(|_| base + rng.gen_range(0..1u64 << bits))
                    .collect();
                keys[0] = base;
                keys[n - 1] = base + (1u64 << bits) - 1;
                let mut items: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    items.swap(i, rng.gen_range(0..=i));
                }
                let expected = reference(&items, &keys);
                radix_sort_by_key(&mut items, &keys, &mut spare);
                assert_eq!(items, expected, "n {n}, span bits {bits}");
            }
        }
    }

    #[test]
    fn u32_keys_sort_like_their_u64_widening() {
        let keys: Vec<u32> = vec![u32::MAX, 0, 7, u32::MAX, 7, 1 << 31];
        let mut items: Vec<u32> = (0..keys.len() as u32).collect();
        radix_sort_by_key(&mut items, &keys, &mut Vec::new());
        assert_eq!(items, vec![1, 2, 4, 5, 0, 3]);
    }
}
