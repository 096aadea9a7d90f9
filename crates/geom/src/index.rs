//! A shared, rank-compressed dominance index with bitset rows.
//!
//! Every stage of the paper's pipeline — the Lemma-6 dominance DAG, the
//! Lemma-15 contending-point discovery, and the Section-5.1 flow-network
//! edge construction — needs the same relation: which points of `P`
//! dominate which. Re-deriving it with per-pair `O(d)` float compares
//! costs `O(d·n²)` *per consumer*. [`DominanceIndex`] computes the
//! relation once and shares it:
//!
//! 1. **Rank compression.** Each dimension's coordinates are replaced by
//!    dense `u32` ranks (ties share a rank, `-0.0` and `0.0` are
//!    identified, `±∞` sentinels order naturally), stored column-major so
//!    the build kernel streams one dimension at a time. Dominance becomes
//!    a branch-light integer comparison with no float semantics
//!    questions. `NaN` is rejected up front ([`crate::GeomError::NonFiniteCoordinate`]
//!    guards the data entry points; the index additionally
//!    `debug_assert`s).
//! 2. **Bitset rows.** Row `i` of the matrix holds the *dominators* of
//!    `i`: bit `j` is set iff `p_j ⪰ p_i` (reflexively, so bit `i` of row
//!    `i` is always set). Consumers answer their queries with word-wide
//!    `AND`/`OR`/popcount instead of pointer-chasing float compares.
//! 3. **Low-dimensional sweeps.** For `d ≤ 2` the matrix is filled by a
//!    sort + suffix-mask sweep in `O(n²/64)` word operations — no
//!    pairwise compare scan at all — and dominance-pair *counting* drops
//!    to `O(n log n)` via a binary indexed tree
//!    ([`count_dominating_pairs`]).
//!
//! The generic (`d ≥ 3`) build runs the blocked compare kernel in
//! parallel over row chunks via [`crate::parallel::parallel_chunks_mut`].
//!
//! Memory: `n²/8` bytes for the matrix (50 MB at `n = 20_000`) plus
//! `4·d·n` bytes of ranks. The index targets the solver's working sets
//! (`n` up to a few tens of thousands); sharding beyond that is future
//! work.
//!
//! # Example
//!
//! ```
//! use mc_geom::{DominanceIndex, PointSet};
//!
//! let points = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 2.0], vec![2.0, 1.0]]);
//! let index = DominanceIndex::build(&points);
//! assert!(index.dominates(1, 0));
//! assert!(!index.dominates(1, 2));
//! assert_eq!(index.num_dominating_pairs(), 2); // 1 ⪰ 0 and 2 ⪰ 0
//! ```

use crate::dataset::PointSet;
use crate::dominance::Dominance;
use crate::kernel;
use crate::parallel::parallel_chunks_mut;
use crate::radix::radix_sort_by_key;
use crate::rank::try_compress_ranks;
use mc_obs::cancel::{CancelToken, Cancelled, Checkpoint};

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 == 1
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

/// The precomputed dominance relation of a [`PointSet`]. See the module
/// docs for the layout.
#[derive(Debug, Clone)]
pub struct DominanceIndex {
    n: usize,
    dim: usize,
    /// Words per bitset row: `ceil(n / 64)`.
    words: usize,
    /// Column-major dense ranks: `ranks[k * n + i]` is point `i`'s rank
    /// on dimension `k`.
    ranks: Vec<u32>,
    /// Canonical group id per point; two points have equal coordinates
    /// iff their groups are equal.
    dup_group: Vec<u32>,
    /// Point indices sorted by (group, index): group `g`'s members are
    /// `dup_members[dup_offsets[g]..dup_offsets[g + 1]]`, ascending.
    dup_members: Vec<u32>,
    /// Per-group offsets into `dup_members` (`num_groups + 1` entries).
    dup_offsets: Vec<u32>,
    /// Row-major bitset matrix; row `i` holds the dominators of `i`.
    bits: Vec<u64>,
}

impl DominanceIndex {
    /// Builds the index: `O(d·n log n)` rank compression plus the matrix
    /// fill (`O(n²/64)` word ops for `d ≤ 2`, a parallel `O(d·n²)`
    /// SIMD-friendly compare kernel otherwise).
    ///
    /// Coordinates may include the `±∞` sentinels used by classifier
    /// anchors; `NaN` is unsupported (the fallible dataset constructors
    /// reject it before it can get here).
    pub fn build(points: &PointSet) -> Self {
        Self::try_build(points, &mc_obs::CancelToken::never()).expect("a never-token cannot cancel")
    }

    /// Cancellable twin of [`build`](Self::build): the matrix fill is
    /// the workspace's single largest memory/CPU commitment, so a
    /// deadline or an explicit cancel must be able to abandon it
    /// mid-build. The `d ≥ 3`
    /// generic kernel checkpoints the token per row chunk inside
    /// [`parallel_chunks_mut`] (workers cooperatively stop filling and
    /// the partial matrix is dropped); the `O(n²/64)` `d ≤ 2` sweeps
    /// and the rank sorts poll at phase boundaries.
    pub fn try_build(points: &PointSet, token: &CancelToken) -> Result<Self, Cancelled> {
        token.poll()?;
        let n = points.len();
        let dim = points.dim();
        let words = n.div_ceil(64);
        let ranks = try_compress_ranks(points, token)?;
        let dups = duplicate_groups(n, dim, &ranks);
        token.poll()?;
        let mut bits = vec![0u64; n * words];
        if n > 0 {
            match dim {
                1 => fill_bits_1d(n, words, &ranks, &mut bits),
                2 => fill_bits_2d(n, words, &ranks, &mut bits),
                _ => fill_bits_generic(n, dim, words, &ranks, &mut bits, token),
            }
            token.poll()?;
        }
        Ok(Self {
            n,
            dim,
            words,
            ranks,
            dup_group: dups.group,
            dup_members: dups.members,
            dup_offsets: dups.offsets,
            bits,
        })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the index covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per bitset row (`ceil(len / 64)`).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Dense rank of point `i` on dimension `k` (ties share a rank).
    pub fn rank(&self, k: usize, i: usize) -> u32 {
        self.ranks[k * self.n + i]
    }

    /// The whole rank column of dimension `k` (`column[i]` is the dense
    /// rank of point `i`), for callers doing many rank comparisons in a
    /// tight loop — e.g. the passive solver's chain-ladder builder, which
    /// binary-searches a chain per contending 0-point. Since ranks are
    /// dense and order-preserving per dimension, `p ⪰ q` iff `p`'s rank
    /// is `≥` `q`'s on every dimension.
    pub fn rank_column(&self, k: usize) -> &[u32] {
        assert!(k < self.dim, "dimension {k} out of range ({})", self.dim);
        &self.ranks[k * self.n..(k + 1) * self.n]
    }

    /// The bitset row of `i`'s dominators: bit `j` is set iff `p_j ⪰ p_i`
    /// (reflexive, so bit `i` is set).
    pub fn dominators(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Zero-copy word access to `i`'s dominator row — the name the
    /// matching engines use when they scan successors 64 at a time.
    /// Identical to [`DominanceIndex::dominators`]; bit `j` of the row
    /// is set iff `p_j ⪰ p_i` (reflexively, and equal points set each
    /// other's bits in both rows — use [`strict_successors`] /
    /// [`strict_successor_row_into`] for the DAG-edge view).
    ///
    /// [`strict_successors`]: DominanceIndex::strict_successors
    /// [`strict_successor_row_into`]: DominanceIndex::strict_successor_row_into
    #[inline]
    pub fn dominator_row_words(&self, i: usize) -> &[u64] {
        self.dominators(i)
    }

    /// Members of `i`'s duplicate group (points with coordinates equal
    /// to `p_i`), sorted ascending and always containing `i` itself.
    #[inline]
    pub fn dup_group_members(&self, i: usize) -> &[u32] {
        let g = self.dup_group[i] as usize;
        &self.dup_members[self.dup_offsets[g] as usize..self.dup_offsets[g + 1] as usize]
    }

    /// Iterates the *strict-dominance successors* of `i` in ascending
    /// order: every `j` with `p_j ≻ p_i`, plus equal points with `j > i`
    /// (the index tie-break that orients duplicate pairs). This is
    /// exactly the Lemma-6 DAG edge set `i -> j`.
    pub fn strict_successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let gi = self.dup_group[i];
        iter_ones(self.dominators(i)).filter(move |&v| v > i || self.dup_group[v] != gi)
    }

    /// Writes the strict-dominance successor row of `i` into `out`
    /// (same bits as [`DominanceIndex::strict_successors`]): a copy of
    /// the dominator row with `i` itself and smaller-index duplicates
    /// masked out. `O(words + |dup group|)`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.words()`.
    pub fn strict_successor_row_into(&self, i: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.words, "row width mismatch");
        out.copy_from_slice(self.dominators(i));
        for &v in self.dup_group_members(i) {
            let v = v as usize;
            if v > i {
                break;
            }
            out[v >> 6] &= !(1u64 << (v & 63));
        }
    }

    /// Reflexive dominance `p_i ⪰ p_j` as a single bit test.
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        get_bit(self.dominators(j), i)
    }

    /// `true` iff points `i` and `j` have equal coordinates (with
    /// `-0.0 == 0.0`, matching IEEE equality).
    pub fn equal_points(&self, i: usize, j: usize) -> bool {
        self.dup_group[i] == self.dup_group[j]
    }

    /// Full dominance comparison from two bit tests; agrees with
    /// [`crate::dominance::compare`] on the indexed points.
    pub fn compare(&self, i: usize, j: usize) -> Dominance {
        match (self.dominates(i, j), self.dominates(j, i)) {
            (true, true) => Dominance::Equal,
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            (false, false) => Dominance::Incomparable,
        }
    }

    /// Intersects `i`'s dominator row with `mask` into `out`; returns
    /// `true` iff the intersection is non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.words()`.
    pub fn dominators_and_into(&self, i: usize, mask: &[u64], out: &mut Vec<u64>) -> bool {
        assert_eq!(mask.len(), self.words, "mask width mismatch");
        let row = self.dominators(i);
        out.clear();
        out.extend(row.iter().zip(mask).map(|(a, b)| a & b));
        out.iter().any(|&w| w != 0)
    }

    /// Number of ordered pairs `(i, j)` with `i ≠ j` and `p_i ⪰ p_j`
    /// (equal points count in both directions), from row popcounts.
    pub fn num_dominating_pairs(&self) -> u64 {
        let total: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        total - self.n as u64
    }

    /// Restriction of the index to `indices` (in the given order): the
    /// result is exactly `DominanceIndex::build` of the corresponding
    /// point subset, but extracted from the existing matrix instead of
    /// re-running the compare kernel, so one index built on `P` can serve
    /// a solve on a sample `Σ ⊆ P`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Self {
        for &i in indices {
            assert!(i < self.n, "subset index {i} out of range ({})", self.n);
        }
        let m = indices.len();
        let dim = self.dim;
        let words = m.div_ceil(64);

        // Re-rank each dimension: dense ranks of the old ranks restricted
        // to the subset (order-preserving, so dominance is unchanged).
        let mut ranks = vec![0u32; dim * m];
        let mut order: Vec<u32> = (0..m as u32).collect();
        for k in 0..dim {
            let old = &self.ranks[k * self.n..(k + 1) * self.n];
            order.sort_unstable_by_key(|&i| old[indices[i as usize]]);
            let col = &mut ranks[k * m..(k + 1) * m];
            let mut rank = 0u32;
            for pos in 0..m {
                if pos > 0
                    && old[indices[order[pos] as usize]] != old[indices[order[pos - 1] as usize]]
                {
                    rank += 1;
                }
                col[order[pos] as usize] = rank;
            }
        }
        let dups = duplicate_groups(m, dim, &ranks);

        // Gather the sub-matrix bit by bit (rows parallel for large m).
        let mut bits = vec![0u64; m * words];
        parallel_chunks_mut(&mut bits, words, |rows, out| {
            for (local, r) in rows.enumerate() {
                let old_row = self.dominators(indices[r]);
                let new_row = &mut out[local * words..(local + 1) * words];
                for (c, &j) in indices.iter().enumerate() {
                    if get_bit(old_row, j) {
                        set_bit(new_row, c);
                    }
                }
            }
        });

        Self {
            n: m,
            dim,
            words,
            ranks,
            dup_group: dups.group,
            dup_members: dups.members,
            dup_offsets: dups.offsets,
            bits,
        }
    }
}

/// Rank columns *without* the bitset matrix: the `O(d·n log n)` half of
/// [`DominanceIndex::build`], for callers that only need pointwise rank
/// comparisons (`p ⪰ q ⟺ rank_k(p) ≥ rank_k(q)` for every dimension
/// `k`). The passive chain-ladder builder uses this — its entire point
/// is to avoid the `Θ(n²)` matrix fill, so handing it a full
/// [`DominanceIndex`] would spend more time building the index than the
/// sparsification saves.
///
/// Ranks are identical to the ones a [`DominanceIndex`] over the same
/// points would hold (same canonicalization: `-0.0 == 0.0`, `±∞`
/// sentinels allowed, `NaN` unsupported).
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

    /// Cancellable twin of [`build`](Self::build); polls the token
    /// between the per-dimension sorts.
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

    /// Reflexive dominance `p_i ⪰ p_j` from `d` rank comparisons;
    /// agrees with [`DominanceIndex::dominates`] on the same points.
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

/// Duplicate-group assignment: canonical ids plus per-group member
/// lists (see [`DupGroups`]). Shared with [`crate::RankOracle`], which
/// derives the same groups from its gathered rank columns.
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

/// `d = 1` sweep: row `i` is the suffix mask `{j : rank(j) ≥ rank(i)}`,
/// accumulated over descending rank groups. `O(n log n + n²/64)`.
fn fill_bits_1d(n: usize, words: usize, ranks: &[u32], bits: &mut [u64]) {
    let rx = &ranks[..n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| rx[b as usize].cmp(&rx[a as usize]));
    let mut acc = vec![0u64; words];
    let mut p = 0;
    while p < n {
        let r = rx[order[p] as usize];
        let mut q = p;
        while q < n && rx[order[q] as usize] == r {
            set_bit(&mut acc, order[q] as usize);
            q += 1;
        }
        for &i in &order[p..q] {
            bits[i as usize * words..(i as usize + 1) * words].copy_from_slice(&acc);
        }
        p = q;
    }
}

/// `d = 2` sweep: row `i` = `X(rank_x(i)) & Y(rank_y(i))` where `X(r)` /
/// `Y(r)` are the suffix masks of each dimension. `Y` is tabulated per
/// distinct rank; `X` is accumulated while scanning descending `x`-rank
/// groups. `O(n log n + n²/64)` time, one extra `n²/64`-word table.
fn fill_bits_2d(n: usize, words: usize, ranks: &[u32], bits: &mut [u64]) {
    let rx = &ranks[..n];
    let ry = &ranks[n..2 * n];
    let max_ry = *ry.iter().max().expect("n > 0") as usize;

    // Y suffix masks, built by descending-rank accumulation.
    let mut ymask = vec![0u64; (max_ry + 1) * words];
    {
        let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); max_ry + 1];
        for (i, &r) in ry.iter().enumerate() {
            by_rank[r as usize].push(i as u32);
        }
        let mut acc = vec![0u64; words];
        for r in (0..=max_ry).rev() {
            for &i in &by_rank[r] {
                set_bit(&mut acc, i as usize);
            }
            ymask[r * words..(r + 1) * words].copy_from_slice(&acc);
        }
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| rx[b as usize].cmp(&rx[a as usize]));
    let mut x = vec![0u64; words];
    let mut p = 0;
    while p < n {
        let r = rx[order[p] as usize];
        let mut q = p;
        while q < n && rx[order[q] as usize] == r {
            set_bit(&mut x, order[q] as usize);
            q += 1;
        }
        for &i in &order[p..q] {
            let i = i as usize;
            let y = &ymask[ry[i] as usize * words..(ry[i] as usize + 1) * words];
            let row = &mut bits[i * words..(i + 1) * words];
            for ((dst, &xw), &yw) in row.iter_mut().zip(&x).zip(y) {
                *dst = xw & yw;
            }
        }
        p = q;
    }
}

/// Generic blocked kernel (`d ≥ 3`): for each row, each 64-point block is
/// narrowed one dimension at a time with a vectorizable `u32 >=` compare
/// loop, short-circuiting once the block empties. Rows are filled in
/// parallel chunks.
fn fill_bits_generic(
    n: usize,
    dim: usize,
    words: usize,
    ranks: &[u32],
    bits: &mut [u64],
    token: &CancelToken,
) {
    parallel_chunks_mut(bits, words, |rows, out| {
        // Each worker carries its own checkpoint and abandons the rest
        // of its chunk once the shared token trips; the caller's poll
        // after the join turns the partial fill into an error. Workers
        // tick one unit per word written against the shared n×words
        // total, so `progress.index_build.frac` is exact.
        let mut cp = Checkpoint::with_progress(token, "index_build", n as u64 * words as u64);
        for (local, i) in rows.enumerate() {
            if cp.tick(words as u64).is_err() {
                return;
            }
            let row = &mut out[local * words..(local + 1) * words];
            fill_row_generic(n, dim, ranks, i, row);
        }
    });
}

#[inline]
fn fill_row_generic(n: usize, dim: usize, ranks: &[u32], i: usize, row: &mut [u64]) {
    kernel::ones_mask_into(n, row);
    for k in 0..dim {
        let threshold = ranks[k * n + i];
        if threshold == 0 {
            continue; // ranks are non-negative: nothing to filter
        }
        let col = &ranks[k * n..k * n + n];
        if !kernel::and_ge_mask(col, threshold, row) {
            break; // the row emptied; later dimensions cannot revive bits
        }
    }
}

/// Counts the ordered dominating pairs of `points` — the same quantity
/// as [`DominanceIndex::num_dominating_pairs`] — without materializing
/// the matrix: a binary-indexed-tree sweep in `O(n log n)` for `d ≤ 2`,
/// else the popcounts of [`crate::RankOracle`] dominator rows, one row
/// at a time.
pub fn count_dominating_pairs(points: &PointSet) -> u64 {
    let n = points.len();
    if n == 0 {
        return 0;
    }
    if points.dim() > 2 {
        let oracle = crate::RankOracle::build(points);
        let mut row = vec![0u64; oracle.words()];
        let mut total = 0u64;
        for i in 0..n {
            oracle.dominator_row_into(i, &mut row);
            total += row.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        return total - n as u64;
    }
    let ranks =
        try_compress_ranks(points, &CancelToken::never()).expect("a never-token cannot cancel");
    let rx = &ranks[..n];
    // 1D embeds as (v, v), exactly like the sparse network builder.
    let ry = if points.dim() == 2 {
        &ranks[n..2 * n]
    } else {
        &ranks[..n]
    };
    let max_ry = *ry.iter().max().expect("n > 0") as usize;

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        rx[a as usize]
            .cmp(&rx[b as usize])
            .then(ry[a as usize].cmp(&ry[b as usize]))
    });

    let mut bit = Fenwick::new(max_ry + 1);
    let mut count = 0u64;
    let mut p = 0;
    let mut group_ry: Vec<u32> = Vec::new();
    while p < n {
        let r = rx[order[p] as usize];
        let mut q = p;
        group_ry.clear();
        while q < n && rx[order[q] as usize] == r {
            group_ry.push(ry[order[q] as usize]);
            q += 1;
        }
        // Pairs across x-groups: the BIT holds all strictly-smaller-x
        // points; those with y-rank ≤ ours are dominated.
        for &y in &group_ry {
            count += bit.prefix(y as usize);
        }
        // Pairs inside the x-group (x ranks tie): ordered pairs with
        // y_i ≥ y_j; equal-y pairs count in both directions.
        group_ry.sort_unstable();
        let mut s = 0;
        while s < group_ry.len() {
            let mut t = s;
            while t < group_ry.len() && group_ry[t] == group_ry[s] {
                t += 1;
            }
            // Each member: `s` strictly-smaller ys + (tie size − 1) equals.
            count += (t - s) as u64 * (s as u64 + (t - s) as u64 - 1);
            s = t;
        }
        for &y in &group_ry {
            bit.add(y as usize);
        }
        p = q;
    }
    count
}

/// Binary indexed tree (Fenwick) over rank positions, used by the
/// `d ≤ 2` dominance-pair sweep.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
        }
    }

    /// Increments position `i` (0-based).
    fn add(&mut self, i: usize) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Naive pair count for cross-checking (`O(d·n²)`).
#[cfg(test)]
fn count_pairs_naive(points: &PointSet) -> u64 {
    let n = points.len();
    let mut count = 0;
    for i in 0..n {
        for j in 0..n {
            if i != j && crate::dominance::dominates(points.point(i), points.point(j)) {
                count += 1;
            }
        }
    }
    count
}

/// Builds the full dominator-row comparison the slow way, for tests.
#[cfg(test)]
fn dominators_naive(points: &PointSet, i: usize) -> Vec<usize> {
    (0..points.len())
        .filter(|&j| crate::dominance::dominates(points.point(j), points.point(i)))
        .collect()
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
    fn agrees_with_naive_on_random_grids() {
        let mut rng = StdRng::seed_from_u64(0x1DE);
        for dim in [1usize, 2, 3, 5] {
            for _ in 0..8 {
                let n = rng.gen_range(0..70);
                let points = random_points(n, dim, 4.0, &mut rng);
                let index = DominanceIndex::build(&points);
                for i in 0..n {
                    assert_eq!(
                        iter_ones(index.dominators(i)).collect::<Vec<_>>(),
                        dominators_naive(&points, i),
                        "dim {dim} n {n} row {i}"
                    );
                    for j in 0..n {
                        assert_eq!(index.compare(i, j), points.compare(i, j));
                    }
                }
            }
        }
    }

    #[test]
    fn rank_table_matches_index_dominance() {
        let mut rng = StdRng::seed_from_u64(0x7AB);
        for dim in [1usize, 2, 4] {
            let n = rng.gen_range(0..60);
            let points = random_points(n, dim, 4.0, &mut rng);
            let index = DominanceIndex::build(&points);
            let table = RankTable::build(&points);
            assert_eq!((table.len(), table.dim()), (n, dim));
            for k in 0..dim {
                assert_eq!(table.column(k), index.rank_column(k));
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(table.dominates(i, j), index.dominates(i, j), "{i} vs {j}");
                }
            }
        }
        // Signed zeros canonicalize: -0.0 and 0.0 share a rank.
        let table = RankTable::build(&PointSet::from_rows(2, &[vec![-0.0, 0.0], vec![0.0, -0.0]]));
        assert!(table.dominates(0, 1) && table.dominates(1, 0));
    }

    #[test]
    fn signed_zero_and_infinities() {
        let points = PointSet::from_rows(
            2,
            &[
                vec![-0.0, 0.0],
                vec![0.0, -0.0],
                vec![f64::NEG_INFINITY, 0.0],
                vec![f64::INFINITY, f64::INFINITY],
            ],
        );
        let index = DominanceIndex::build(&points);
        // -0.0 and 0.0 are equal under IEEE >=, so rows 0 and 1 are equal
        // points.
        assert!(index.equal_points(0, 1));
        assert_eq!(index.compare(0, 1), Dominance::Equal);
        assert!(index.dominates(0, 2));
        assert!(index.dominates(3, 0) && index.dominates(3, 2));
        assert_eq!(index.compare(2, 3), Dominance::DominatedBy);
        assert_eq!(index.num_dominating_pairs(), { count_pairs_naive(&points) });
    }

    #[test]
    fn reflexive_diagonal_always_set() {
        let mut rng = StdRng::seed_from_u64(7);
        for dim in [1usize, 2, 4] {
            let points = random_points(33, dim, 3.0, &mut rng);
            let index = DominanceIndex::build(&points);
            for i in 0..33 {
                assert!(index.dominates(i, i));
            }
        }
    }

    #[test]
    fn pair_count_bit_matches_matrix_and_naive() {
        let mut rng = StdRng::seed_from_u64(0xB17);
        for dim in [1usize, 2] {
            for _ in 0..10 {
                let n = rng.gen_range(0..80);
                let points = random_points(n, dim, 5.0, &mut rng);
                let via_bit = count_dominating_pairs(&points);
                let via_matrix = if n == 0 {
                    0
                } else {
                    DominanceIndex::build(&points).num_dominating_pairs()
                };
                assert_eq!(via_bit, via_matrix, "dim {dim} n {n}");
                assert_eq!(via_bit, count_pairs_naive(&points), "dim {dim} n {n}");
            }
        }
        // d ≥ 3 falls back to the matrix.
        let points = random_points(25, 3, 3.0, &mut rng);
        assert_eq!(count_dominating_pairs(&points), count_pairs_naive(&points));
    }

    #[test]
    fn subset_equals_rebuild() {
        let mut rng = StdRng::seed_from_u64(0x5B5);
        for dim in [1usize, 2, 4] {
            let n = 50;
            let points = random_points(n, dim, 4.0, &mut rng);
            let index = DominanceIndex::build(&points);
            let picks: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            let sub = index.subset(&picks);
            let rebuilt = DominanceIndex::build(&points.subset(&picks));
            assert_eq!(sub.len(), rebuilt.len());
            for i in 0..picks.len() {
                for j in 0..picks.len() {
                    assert_eq!(sub.compare(i, j), rebuilt.compare(i, j), "dim {dim}");
                    assert_eq!(sub.equal_points(i, j), rebuilt.equal_points(i, j));
                }
            }
        }
    }

    #[test]
    fn dominators_and_into_reports_hits() {
        let points = PointSet::from_values_1d(&[1.0, 2.0, 3.0]);
        let index = DominanceIndex::build(&points);
        let mask = bitmask_of(3, [2usize]);
        let mut buf = Vec::new();
        // Dominators of point 0 intersected with {2}: non-empty.
        assert!(index.dominators_and_into(0, &mask, &mut buf));
        assert_eq!(iter_ones(&buf).collect::<Vec<_>>(), vec![2]);
        // Dominators of point 2 intersected with {2}: itself.
        assert!(index.dominators_and_into(2, &mask, &mut buf));
        let empty = bitmask_of(3, std::iter::empty());
        assert!(!index.dominators_and_into(0, &empty, &mut buf));
    }

    #[test]
    fn empty_and_singleton() {
        let empty = DominanceIndex::build(&PointSet::new(3));
        assert!(empty.is_empty());
        assert_eq!(empty.num_dominating_pairs(), 0);
        assert!(empty.subset(&[]).is_empty());

        let one = DominanceIndex::build(&PointSet::from_rows(2, &[vec![1.0, 2.0]]));
        assert_eq!(one.len(), 1);
        assert!(one.dominates(0, 0));
        assert_eq!(one.num_dominating_pairs(), 0);
    }

    #[test]
    fn ranks_are_dense_and_order_preserving() {
        let points = PointSet::from_rows(1, &[vec![5.0], vec![-1.0], vec![5.0], vec![2.0]]);
        let index = DominanceIndex::build(&points);
        assert_eq!(index.rank(0, 1), 0);
        assert_eq!(index.rank(0, 3), 1);
        assert_eq!(index.rank(0, 0), 2);
        assert_eq!(index.rank(0, 2), 2);
    }

    #[test]
    fn iter_ones_and_bitmask_roundtrip() {
        let mask = bitmask_of(130, [0usize, 63, 64, 129]);
        assert_eq!(iter_ones(&mask).collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    /// The strict-successor view must agree with the naive DAG-edge
    /// rule (`v ≻ i`, or equal with `v > i`) bit for bit, via both the
    /// iterator and the row writer.
    #[test]
    fn strict_successors_match_naive_rule() {
        let mut rng = StdRng::seed_from_u64(0x57C);
        for dim in [1usize, 2, 3] {
            for _ in 0..6 {
                let n = rng.gen_range(0..90);
                // Coarse grid: plenty of duplicates.
                let points = random_points(n, dim, 3.0, &mut rng);
                let index = DominanceIndex::build(&points);
                let mut row = vec![0u64; index.words()];
                for i in 0..n {
                    let expected: Vec<usize> = (0..n)
                        .filter(|&v| {
                            v != i
                                && crate::dominance::dominates(points.point(v), points.point(i))
                                && (!crate::dominance::dominates(points.point(i), points.point(v))
                                    || v > i)
                        })
                        .collect();
                    assert_eq!(
                        index.strict_successors(i).collect::<Vec<_>>(),
                        expected,
                        "dim {dim} n {n} i {i}"
                    );
                    index.strict_successor_row_into(i, &mut row);
                    assert_eq!(
                        iter_ones(&row).collect::<Vec<_>>(),
                        expected,
                        "row writer, dim {dim} n {n} i {i}"
                    );
                }
            }
        }
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
        let index = DominanceIndex::build(&points);
        assert_eq!(index.dup_group_members(0), &[0, 2, 4]);
        assert_eq!(index.dup_group_members(2), &[0, 2, 4]);
        assert_eq!(index.dup_group_members(3), &[3, 5]);
        assert_eq!(index.dup_group_members(1), &[1]);
        // Subset restriction rebuilds the member lists consistently.
        let sub = index.subset(&[0, 2, 3, 5]);
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

    #[test]
    fn dominator_row_words_alias() {
        let points = PointSet::from_values_1d(&[1.0, 2.0]);
        let index = DominanceIndex::build(&points);
        assert_eq!(index.dominator_row_words(0), index.dominators(0));
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
