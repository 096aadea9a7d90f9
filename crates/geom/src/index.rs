//! Rank columns, the one dominance substrate's first layer.
//!
//! Every stage of the paper's pipeline — Lemma-6 chain decomposition,
//! Lemma-15 contending-point discovery and the Section-5.1 flow network —
//! asks the same question: which points of `P` dominate which. Each
//! answers it off dense per-dimension ranks:
//!
//! * [`RankTable`] replaces each dimension's coordinates by dense `u32`
//!   ranks (ties share a rank, `-0.0` and `0.0` are identified, `±∞`
//!   sentinels order naturally), stored column-major. Dominance becomes
//!   `d` integer comparisons with no float semantics questions. `NaN` is
//!   rejected up front ([`crate::GeomError::NonFiniteCoordinate`] guards
//!   the data entry points).
//! * [`crate::RankOracle`] builds on the same columns and answers
//!   strict-successor rows as `⌈n/64⌉`-word bitsets, on demand, and
//!   dominance existence tests without a row, with no `Θ(n²/64)`
//!   matrix.
//!
//! This module also holds the bitset helpers the row consumers share
//! ([`iter_ones`], [`bitmask_of`]), the row budget
//! ([`row_budget_bytes`]) and the size a full row set would take
//! ([`matrix_bytes`]), which the Lemma-6 row cache sizes itself with.
//!
//! # Example
//!
//! ```
//! use mc_geom::{PointSet, RankTable};
//!
//! let points = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 2.0], vec![2.0, 1.0]]);
//! let table = RankTable::build(&points);
//! assert!(table.dominates(1, 0));
//! assert!(!table.dominates(1, 2));
//! assert_eq!(table.column(1), &[0, 2, 1]);
//! ```

use crate::dataset::PointSet;
use crate::radix::radix_sort_by_key;
use crate::rank::try_compress_ranks;
use mc_obs::cancel::{CancelToken, Cancelled};

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// Iterates the indices of the set bits of a bitset row, ascending.
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let base = wi * 64;
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(base + bit)
        })
    })
}

/// Builds an `n`-bit mask with the given indices set.
///
/// # Panics
///
/// Panics if an index is out of range.
pub fn bitmask_of(n: usize, indices: impl IntoIterator<Item = usize>) -> Vec<u64> {
    let mut mask = vec![0u64; n.div_ceil(64)];
    for i in indices {
        assert!(i < n, "bit {i} out of range for a {n}-bit mask");
        set_bit(&mut mask, i);
    }
    mask
}

/// Bytes an `n`-point bitset dominator matrix would occupy
/// (`n · ⌈n/64⌉` words of 8 bytes).
pub fn matrix_bytes(n: usize) -> u64 {
    n as u64 * n.div_ceil(64) as u64 * 8
}

/// Byte budget of the matrix-free path's row structures when
/// `MC_MATRIX_BUDGET_BYTES` is unset.
const DEFAULT_ROW_BUDGET_BYTES: u64 = 256 << 20;

/// The byte budget of the matrix-free path's row structures — the
/// [`crate::RankOracle`] suffix-bitset table and the Lemma-6 row cache in
/// `mc-chains`: `MC_MATRIX_BUDGET_BYTES` if set to a positive integer,
/// else 256 MiB. A set-but-invalid value (non-numeric, zero) falls back
/// to the default with a one-shot warning.
pub fn row_budget_bytes() -> u64 {
    let Some(raw) = std::env::var_os("MC_MATRIX_BUDGET_BYTES") else {
        return DEFAULT_ROW_BUDGET_BYTES;
    };
    match raw
        .into_string()
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        Some(v) if v >= 1 => v,
        _ => {
            mc_obs::warn_once(
                "mc_matrix_budget_env",
                "MC_MATRIX_BUDGET_BYTES must be a positive integer byte count; \
                 using the default (256 MiB)",
            );
            DEFAULT_ROW_BUDGET_BYTES
        }
    }
}

/// Dense, order-preserving rank columns of a point set: `p ⪰ q` iff
/// `p`'s rank is `≥` `q`'s on every dimension. Built in
/// `O(d·n log n)`; [`crate::RankOracle`] gathers its rows off these
/// columns, and the passive chain ladder compares ranks directly.
#[derive(Debug, Clone)]
pub struct RankTable {
    n: usize,
    dim: usize,
    /// Column-major dense ranks: `ranks[k * n + i]` is point `i`'s rank
    /// on dimension `k`.
    ranks: Vec<u32>,
}

impl RankTable {
    /// Builds the rank columns in `O(d·n log n)`.
    pub fn build(points: &PointSet) -> Self {
        Self::try_build(points, &CancelToken::never()).expect("a never-token cannot cancel")
    }

    /// [`build`](Self::build) under `token`, polled between the
    /// per-dimension sorts.
    pub fn try_build(points: &PointSet, token: &CancelToken) -> Result<Self, Cancelled> {
        Ok(Self {
            n: points.len(),
            dim: points.dim(),
            ranks: try_compress_ranks(points, token)?,
        })
    }

    /// Number of ranked points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the table covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the ranked points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The rank column of dimension `k` (`column[i]` is the dense rank
    /// of point `i`).
    pub fn column(&self, k: usize) -> &[u32] {
        assert!(k < self.dim, "dimension {k} out of range ({})", self.dim);
        &self.ranks[k * self.n..(k + 1) * self.n]
    }

    /// Reflexive dominance `p_i ⪰ p_j` from `d` rank comparisons.
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        (0..self.dim).all(|k| self.ranks[k * self.n + i] >= self.ranks[k * self.n + j])
    }

    /// The table of the points `indices`, in that order, with this
    /// table's ranks: `subset.column(k)[l] == column(k)[indices[l]]`.
    /// The gathered ranks order, tie and so dominate exactly like the
    /// points' coordinates, but they are not dense. This is how a sample
    /// of ranked points is ranked without sorting again.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut ranks = Vec::with_capacity(self.dim * indices.len());
        for k in 0..self.dim {
            let col = self.column(k);
            ranks.extend(indices.iter().map(|&i| col[i]));
        }
        Self::from_rank_columns(indices.len(), self.dim, ranks)
    }

    /// Assembles a table from prepared column-major rank columns
    /// (`ranks[k * n + i]`), the streaming entry point: callers that
    /// cannot hold all coordinates resident (e.g. a columnar file at
    /// `n = 10⁷`) rank one dimension at a time with
    /// [`crate::rank::rank_keys_into`] straight into the column slices
    /// and hand the columns here, so peak residency stays one column's
    /// sort scratch plus the `u32` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks.len() != dim * n`.
    pub fn from_rank_columns(n: usize, dim: usize, ranks: Vec<u32>) -> Self {
        assert_eq!(ranks.len(), dim * n, "rank column layout mismatch");
        Self { n, dim, ranks }
    }
}

/// The name mcbench's traced active replay still builds and restricts
/// (`DominanceIndex::build`, `.subset`). It exists only for that replay
/// and goes with ROADMAP item 9.
pub type DominanceIndex = RankTable;

/// Duplicate-group assignment: canonical ids plus per-group member
/// lists (see [`DupGroups`]), which [`crate::RankOracle`] derives from
/// its gathered rank columns.
pub(crate) struct DupGroups {
    /// Group id per point; equal rank tuples ⇔ equal group.
    pub(crate) group: Vec<u32>,
    /// Points sorted by (group, index).
    pub(crate) members: Vec<u32>,
    /// Per-group offsets into `members` (`num_groups + 1` entries).
    pub(crate) offsets: Vec<u32>,
}

/// Canonical group ids: equal rank tuples ⇔ equal group, numbered in
/// lexicographic tuple order. `keys` holds column-major per-dimension
/// keys that order and tie like the ranks (the ranks themselves, or the
/// oracle's dense tie-group starts). When dimension 0's keys are a
/// permutation of `0..n` (dense and all distinct, as the tie-group
/// starts are when no two points tie on dimension 0), that permutation
/// already is the lexicographic order and every point is its own group:
/// one pass over the column finds out and inverts it. Otherwise stable
/// radix passes from the last dimension to the first put the points in
/// lexicographic order. The member lists let consumers mask out a
/// point's duplicates in `O(|group|)` instead of rescanning rows.
pub(crate) fn duplicate_groups(n: usize, dim: usize, keys: &[u32]) -> DupGroups {
    debug_assert_eq!(keys.len(), dim * n, "one key per point and dimension");
    if let Some(order) = distinct_order(&keys[..n]) {
        // Group `g` is the point at position `g`, and lists only it.
        return DupGroups {
            group: keys[..n].to_vec(),
            members: order,
            offsets: (0..=n as u32).collect(),
        };
    }
    lexicographic_groups(n, dim, keys)
}

/// [`duplicate_groups`] by radix passes over every dimension, whatever
/// dimension 0 holds.
fn lexicographic_groups(n: usize, dim: usize, keys: &[u32]) -> DupGroups {
    let mut group = vec![0u32; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut spare = Vec::new();
    for k in (0..dim).rev() {
        radix_sort_by_key(&mut order, &keys[k * n..(k + 1) * n], &mut spare);
    }
    let same =
        |a: u32, b: u32| (0..dim).all(|k| keys[k * n + a as usize] == keys[k * n + b as usize]);
    let mut g = 0u32;
    for pos in 0..n {
        if pos > 0 && !same(order[pos - 1], order[pos]) {
            g += 1;
        }
        group[order[pos] as usize] = g;
    }
    // Bucket members by group with a counting pass; scanning points in
    // ascending index order keeps each group's members sorted.
    let num_groups = if n == 0 { 0 } else { g as usize + 1 };
    let mut offsets = vec![0u32; num_groups + 1];
    for &gid in &group {
        offsets[gid as usize + 1] += 1;
    }
    for k in 0..num_groups {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor = offsets.clone();
    let mut members = vec![0u32; n];
    for (i, &gid) in group.iter().enumerate() {
        let slot = &mut cursor[gid as usize];
        members[*slot as usize] = i as u32;
        *slot += 1;
    }
    DupGroups {
        group,
        members,
        offsets,
    }
}

/// The inverse of `column` if it is a permutation of `0..column.len()`
/// (`order[column[i]] = i`), else `None`. Stops at the first key out of
/// range or repeated.
fn distinct_order(column: &[u32]) -> Option<Vec<u32>> {
    let n = column.len();
    let mut order = vec![u32::MAX; n];
    for (i, &key) in column.iter().enumerate() {
        let slot = order.get_mut(key as usize)?;
        if *slot != u32::MAX {
            return None;
        }
        *slot = i as u32;
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::compress_column_ranks;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> PointSet {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect())
            .collect();
        if n == 0 {
            PointSet::new(dim)
        } else {
            PointSet::from_rows(dim, &rows)
        }
    }

    #[test]
    fn rank_table_dominance_matches_the_coordinates() {
        let mut rng = StdRng::seed_from_u64(0x7AB);
        for dim in [1usize, 2, 4] {
            let n = rng.gen_range(0..60);
            let points = random_points(n, dim, 4.0, &mut rng);
            let table = RankTable::build(&points);
            assert_eq!((table.len(), table.dim()), (n, dim));
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(table.dominates(i, j), points.dominates(i, j), "{i} vs {j}");
                }
            }
        }
        // Signed zeros canonicalize: -0.0 and 0.0 share a rank.
        let table = RankTable::build(&PointSet::from_rows(2, &[vec![-0.0, 0.0], vec![0.0, -0.0]]));
        assert!(table.dominates(0, 1) && table.dominates(1, 0));
    }

    #[test]
    fn ranks_are_dense_and_order_preserving() {
        let points = PointSet::from_rows(1, &[vec![5.0], vec![-1.0], vec![5.0], vec![2.0]]);
        assert_eq!(RankTable::build(&points).column(0), &[2, 0, 2, 1]);
    }

    #[test]
    fn iter_ones_and_bitmask_roundtrip() {
        let mask = bitmask_of(130, [0usize, 63, 64, 129]);
        assert_eq!(iter_ones(&mask).collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn dup_group_members_are_sorted_and_complete() {
        let points = PointSet::from_rows(
            2,
            &[
                vec![1.0, 1.0], // group A
                vec![2.0, 2.0],
                vec![1.0, 1.0],  // group A
                vec![-0.0, 0.0], // group B (signed zero)
                vec![1.0, 1.0],  // group A
                vec![0.0, -0.0], // group B
            ],
        );
        let oracle = crate::RankOracle::build(&points);
        assert_eq!(oracle.dup_group_members(0), &[0, 2, 4]);
        assert_eq!(oracle.dup_group_members(2), &[0, 2, 4]);
        assert_eq!(oracle.dup_group_members(3), &[3, 5]);
        assert_eq!(oracle.dup_group_members(1), &[1]);
        // A gathered subset rebuilds the member lists consistently.
        let table = RankTable::build(&points);
        let sub =
            crate::RankOracle::try_from_table_subset(&table, &[0, 2, 3, 5], &CancelToken::never())
                .unwrap();
        assert_eq!(sub.dup_group_members(0), &[0, 1]);
        assert_eq!(sub.dup_group_members(2), &[2, 3]);
    }

    #[test]
    fn duplicate_groups_shortcut_equals_the_full_passes() {
        let mut rng = StdRng::seed_from_u64(0xD06);
        for dim in 1..=4usize {
            for n in [0usize, 1, 2, 50, 700] {
                for ties in [false, true] {
                    // Dimension 0 is a permutation of 0..n, or n/3
                    // repeated values; the rest are drawn from a small
                    // range so tuples repeat.
                    let mut keys: Vec<u32> = (0..n as u32).collect();
                    for i in (1..n).rev() {
                        keys.swap(i, rng.gen_range(0..=i));
                    }
                    if ties {
                        keys.iter_mut().for_each(|k| *k /= 3);
                    }
                    keys.extend((n..dim * n).map(|_| rng.gen_range(0..3u32)));
                    let fast = duplicate_groups(n, dim, &keys);
                    let full = lexicographic_groups(n, dim, &keys);
                    let what = format!("dim {dim} n {n} ties {ties}");
                    assert_eq!(fast.group, full.group, "{what}: ids");
                    assert_eq!(fast.members, full.members, "{what}: members");
                    assert_eq!(fast.offsets, full.offsets, "{what}: offsets");
                }
            }
        }
        // Distinct but not dense keys take the full passes.
        assert!(distinct_order(&[0, 2]).is_none());
        assert_eq!(distinct_order(&[2, 0, 1]), Some(vec![1, 2, 0]));
    }

    #[test]
    fn subset_table_keeps_the_ranks_of_its_points() {
        let mut rng = StdRng::seed_from_u64(0x7AB);
        let points = random_points(120, 3, 5.0, &mut rng);
        let table = RankTable::build(&points);
        let picks: Vec<usize> = (0..120).filter(|_| rng.gen_bool(0.3)).rev().collect();
        let sub = table.subset(&picks);
        assert_eq!((sub.len(), sub.dim()), (picks.len(), 3));
        for (l, &i) in picks.iter().enumerate() {
            for k in 0..3 {
                assert_eq!(sub.column(k)[l], table.column(k)[i]);
            }
            for (m, &j) in picks.iter().enumerate() {
                assert_eq!(sub.dominates(l, m), points.dominates(i, j));
            }
        }
    }

    /// Streaming rank compression must reproduce the batch build
    /// column for column, including signed-zero canonicalization.
    #[test]
    fn column_compression_matches_batch_build() {
        let mut rng = StdRng::seed_from_u64(0xC01);
        for dim in [1usize, 3] {
            for n in [0usize, 1, 57, 200] {
                let points = random_points(n, dim, 6.0, &mut rng);
                let table = RankTable::build(&points);
                let mut ranks = Vec::with_capacity(dim * n);
                for k in 0..dim {
                    let col: Vec<f64> = points.iter().map(|p| p[k]).collect();
                    ranks.extend(compress_column_ranks(&col));
                }
                let streamed = RankTable::from_rank_columns(n, dim, ranks);
                for k in 0..dim {
                    assert_eq!(streamed.column(k), table.column(k), "dim {dim} n {n} k {k}");
                }
            }
        }
        let col = compress_column_ranks(&[5.0, -0.0, 0.0, -1.0]);
        assert_eq!(col, vec![2, 1, 1, 0]);
    }

    #[test]
    fn matrix_bytes_counts_whole_row_words() {
        assert_eq!(matrix_bytes(0), 0);
        assert_eq!(matrix_bytes(64), 64 * 8);
        assert_eq!(matrix_bytes(65), 65 * 2 * 8);
    }
}
