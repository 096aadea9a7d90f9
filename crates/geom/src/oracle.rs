//! Matrix-free dominator-row oracle over rank columns.
//!
//! [`RankOracle`] is the workspace's one dominance substrate. It answers
//! "which points succeed `p_i`?" as a `⌈n/64⌉`-word bitset, assembling
//! each row on demand instead of materializing a `Θ(n²/64)` dominator
//! matrix, which at `n = 10⁶` would occupy ~125 GB, and "does a point
//! below an index bound dominate `p_i`?" without a row.
//!
//! Rows come from **per-dimension suffix bitsets**. For every dimension
//! `k` the oracle keeps the points in ascending rank order and, at every
//! `B`-th sorted position, the bitset `S_k[c]` of the points at sorted
//! position `≥ c·B`. The points that weakly dominate `p_i` on dimension
//! `k` are exactly those at or after `pos_k(i)`, the first sorted
//! position of `i`'s rank tie group, so
//!
//! ```text
//! row(i) = AND_k S_k[⌊pos_k(i)/B⌋],
//!          minus, per k, the < B points at sorted positions ⌊pos_k(i)/B⌋·B .. pos_k(i)
//! ```
//!
//! That is `d·⌈n/64⌉` word ANDs plus fewer than `d·B` bit clears per
//! row, where a rank-compare pass costs `d·n` compares; the Lemma-6
//! matching reads it with `i` and smaller-index duplicates masked out
//! (the strict-successor row). The same suffixes answer any tuple of
//! tie-group starts, not only a point's own
//! ([`RankOracle::positions`]): [`RankOracle::suffix_intersects`] takes
//! the positions directly and asks only whether a point below an index
//! bound lies in every suffix. It builds no row: it ANDs the suffix
//! words a cache line at a time and confirms each surviving bit by
//! comparing its tie-group starts with the positions, stopping at the
//! first. That is how the serving `AnchorIndex` asks whether a query
//! point dominates some anchor, and how anchor pruning asks whether a
//! candidate dominates an earlier one. The stride `B` starts at 64 and doubles until the table
//! (`d·⌈n/B⌉·⌈n/64⌉·8` bytes) fits [`crate::row_budget_bytes`], or
//! until one checkpoint per dimension covers every point. A small
//! budget can widen `B` until one dimension's clears cost more than a
//! compare pass over its rank column; that dimension then narrows the
//! row with [`kernel::and_ge_mask`] instead, so a row costs at most
//! about the `d` compare passes. Besides the table the oracle holds
//! `12·d·n` bytes: ranks, sorted orders and tie-group starts.
//!
//! Its reference is the pairwise scan: bit `j` of row `i` is set iff
//! [`PointSet::dominates`]`(j, i)`, with `-0.0 == 0.0`, and the strict
//! rows orient equal points by ascending index. The tests diff every
//! row, strict row, existence test and duplicate group against that
//! scan.

use crate::dataset::PointSet;
use crate::index::{duplicate_groups, row_budget_bytes, RankTable};
use crate::kernel;
use crate::radix::radix_sort_by_key;
use crate::rank::try_compress_ranks;
use mc_obs::cancel::{CancelToken, Cancelled, Checkpoint};

/// Smallest checkpoint stride of the suffix-bitset table: one word of
/// sorted positions.
const MIN_STRIDE: usize = 64;

/// Single-bit clears that cost about as much as narrowing one row word
/// by a 64-rank compare ([`kernel::and_ge_mask`]). Past
/// `words · CLEARS_PER_COMPARE_WORD` clears on one dimension, a row
/// narrows by the compare pass instead.
const CLEARS_PER_COMPARE_WORD: usize = 16;

/// Words [`RankOracle::suffix_intersects`] ANDs across the dimensions
/// before it looks for a surviving bit: one 64-byte cache line.
const SUFFIX_CHUNK: usize = 8;

/// On-demand dominator-row oracle; see the module docs.
#[derive(Debug, Clone)]
pub struct RankOracle {
    n: usize,
    dim: usize,
    /// Words per bitset row: `ceil(n / 64)`.
    words: usize,
    /// Column-major, order-preserving ranks: `ranks[k * n + i]` is point
    /// `i`'s rank on dimension `k`. Dense when built from points; a
    /// subset gather keeps the parent's (sparser) ranks, which preserve
    /// order and therefore dominance.
    ranks: Vec<u32>,
    /// Column-major ascending rank order: `order[k * n + p]` is the point
    /// at sorted position `p` on dimension `k`.
    order: Vec<u32>,
    /// `group_start[k * n + i]` is `pos_k(i)`, the first sorted position
    /// on dimension `k` that holds `i`'s rank.
    group_start: Vec<u32>,
    /// `log2` of the checkpoint stride `B`.
    stride_shift: u32,
    /// Checkpoints per dimension: `ceil(n / B)`.
    checkpoints: usize,
    /// Suffix bitsets: the `words` words at `(k * checkpoints + c) *
    /// words` hold `S_k[c]`.
    suffix: Vec<u64>,
    /// Canonical duplicate-group id per point (equal rank tuples ⇔
    /// equal group), with each group's members listed ascending.
    dup_group: Vec<u32>,
    dup_members: Vec<u32>,
    dup_offsets: Vec<u32>,
}

/// Bytes of the suffix-bitset table at checkpoint stride `stride`.
fn table_bytes(n: usize, dim: usize, stride: usize) -> u64 {
    dim as u64 * n.div_ceil(stride) as u64 * n.div_ceil(64) as u64 * 8
}

/// The smallest power-of-two stride `≥ 64` whose table fits `budget`
/// bytes; if none does, the first that needs only one checkpoint per
/// dimension.
fn table_stride(n: usize, dim: usize, budget: u64) -> usize {
    let mut stride = MIN_STRIDE;
    while stride < n && table_bytes(n, dim, stride) > budget {
        stride *= 2;
    }
    stride
}

impl RankOracle {
    /// Builds the oracle from raw points: `O(d·n log n)` rank
    /// compression and sorting plus the budgeted suffix-bitset table.
    pub fn build(points: &PointSet) -> Self {
        let never = CancelToken::never();
        try_compress_ranks(points, &never)
            .and_then(|ranks| {
                Self::try_from_rank_columns(points.len(), points.dim(), ranks, &never)
            })
            .expect("a never-token cannot cancel")
    }

    /// Builds the oracle over this oracle's points in the order `order`:
    /// new point `l` is point `order[l]`. Ranks are copied, not
    /// recomputed, so dominance and equality are unchanged.
    pub fn try_permuted(&self, order: &[usize], token: &CancelToken) -> Result<Self, Cancelled> {
        let ranks = gather_columns(self.dim, order, |k| self.column(k));
        Self::try_from_rank_columns(order.len(), self.dim, ranks, token)
    }

    /// Builds the oracle over a subset of an existing [`RankTable`]'s
    /// points (`indices`, in the given order) by gathering their rank
    /// columns — the path the passive ladder uses to match over the
    /// label-1 points without re-ranking or building any matrix.
    pub fn try_from_table_subset(
        table: &RankTable,
        indices: &[usize],
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let m = indices.len();
        let dim = table.dim();
        let mut ranks = vec![0u32; dim * m];
        // One unit per gathered rank, so `progress.oracle_build.frac`
        // tracks the narrowing gather exactly.
        let mut cp = Checkpoint::with_progress(token, "oracle_build", (dim * m) as u64);
        for k in 0..dim {
            cp.tick(m as u64)?;
            let col = table.column(k);
            let sub = &mut ranks[k * m..(k + 1) * m];
            for (local, &g) in indices.iter().enumerate() {
                sub[local] = col[g];
            }
        }
        Self::try_from_rank_columns(m, dim, ranks, token)
    }

    /// Core constructor from prepared column-major rank columns
    /// (`ranks[k * n + i]`), with the table stride fitted to
    /// [`row_budget_bytes`]. Ranks need only be order-preserving per
    /// dimension — `p ⪰ q ⟺ rank_k(p) ≥ rank_k(q)` for every `k`.
    fn try_from_rank_columns(
        n: usize,
        dim: usize,
        ranks: Vec<u32>,
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let stride = table_stride(n, dim, row_budget_bytes());
        Self::with_stride(n, dim, ranks, stride, token)
    }

    /// Builds the oracle over caller-ranked points: `ranks[k * n + i]`
    /// is point `i`'s order-preserving rank on dimension `k`. The table
    /// stride is fitted to `budget_bytes`, which callers resolve once
    /// (normally [`row_budget_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `ranks.len() != dim * n`.
    pub fn from_rank_columns(n: usize, dim: usize, ranks: Vec<u32>, budget_bytes: u64) -> Self {
        let stride = table_stride(n, dim, budget_bytes);
        Self::with_stride(n, dim, ranks, stride, &CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// Sorts every dimension and fills the suffix-bitset table at
    /// checkpoint stride `stride` (a power of two `≥ 64`). Polls once per
    /// dimension and ticks one unit per table word written.
    ///
    /// # Panics
    ///
    /// Panics if `ranks.len() != dim * n` or `stride` is not a power of
    /// two `≥ 64`.
    fn with_stride(
        n: usize,
        dim: usize,
        ranks: Vec<u32>,
        stride: usize,
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        assert_eq!(ranks.len(), dim * n, "rank column layout mismatch");
        assert!(
            stride.is_power_of_two() && stride >= MIN_STRIDE,
            "stride {stride} must be a power of two of at least {MIN_STRIDE}"
        );
        let words = n.div_ceil(64);
        let checkpoints = n.div_ceil(stride);
        let mut order = vec![0u32; dim * n];
        let mut group_start = vec![0u32; dim * n];
        let mut suffix = vec![0u64; dim * checkpoints * words];
        let mut cp = Checkpoint::new(token);
        // Ascending (rank, index) per dimension: a stable radix pass over
        // the indices in order, whether the ranks are dense or a
        // gathered subset's sparse ones.
        let mut spare = Vec::new();
        for k in 0..dim {
            token.poll()?;
            let col = &ranks[k * n..(k + 1) * n];
            let ord = &mut order[k * n..(k + 1) * n];
            for (p, slot) in ord.iter_mut().enumerate() {
                *slot = p as u32;
            }
            radix_sort_by_key(ord, col, &mut spare);
            let starts = &mut group_start[k * n..(k + 1) * n];
            let mut start = 0u32;
            for p in 0..n {
                let i = ord[p] as usize;
                if p > 0 && col[i] != col[ord[p - 1] as usize] {
                    start = p as u32;
                }
                starts[i] = start;
            }
            // S_k[c] = S_k[c + 1] ∪ {sorted positions c·B .. (c + 1)·B},
            // filled from the last checkpoint down.
            let table = &mut suffix[k * checkpoints * words..(k + 1) * checkpoints * words];
            for c in (0..checkpoints).rev() {
                cp.tick(words as u64)?;
                let (head, tail) = table.split_at_mut((c + 1) * words);
                let set = &mut head[c * words..];
                if c + 1 < checkpoints {
                    set.copy_from_slice(&tail[..words]);
                }
                for &j in &ord[c * stride..((c + 1) * stride).min(n)] {
                    set[j as usize >> 6] |= 1u64 << (j & 63);
                }
            }
        }
        // Tie-group starts order and tie exactly like the ranks, and are
        // dense, so the lexicographic passes cost fewer digits.
        let dups = duplicate_groups(n, dim, &group_start);
        Ok(Self {
            n,
            dim,
            words,
            ranks,
            order,
            group_start,
            stride_shift: stride.trailing_zeros(),
            checkpoints,
            suffix,
            dup_group: dups.group,
            dup_members: dups.members,
            dup_offsets: dups.offsets,
        })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the oracle covers no points.
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

    /// Checkpoint stride `B` of the suffix-bitset table.
    pub fn stride(&self) -> usize {
        1 << self.stride_shift
    }

    /// Bytes the oracle holds: the suffix-bitset table, the rank, order
    /// and tie-group-start columns, and the duplicate-group arrays.
    pub fn payload_bytes(&self) -> usize {
        let words = self.suffix.len() * 8;
        let columns = (self.ranks.len() + self.order.len() + self.group_start.len()) * 4;
        let dups = (self.dup_group.len() + self.dup_members.len() + self.dup_offsets.len()) * 4;
        words + columns + dups
    }

    /// Rank of point `i` on dimension `k`.
    pub fn rank(&self, k: usize, i: usize) -> u32 {
        self.ranks[k * self.n + i]
    }

    /// The rank column of dimension `k`.
    pub fn column(&self, k: usize) -> &[u32] {
        assert!(k < self.dim, "dimension {k} out of range ({})", self.dim);
        &self.ranks[k * self.n..(k + 1) * self.n]
    }

    /// The points sorted into a linear extension of dominance:
    /// ascending `(Σ_k rank_k, index)`.
    pub fn linear_extension(&self) -> Vec<usize> {
        linear_extension_order(self.n, self.dim, |k, i| self.rank(k, i))
    }

    /// `true` iff the points' own order is a linear extension of
    /// dominance, i.e. rank sums never decrease with the index. Strict
    /// dominance raises the rank sum and equal points are oriented by
    /// index, so every strict successor of `i` then has a larger index
    /// and `i`'s strict-successor row has no bit below word `⌊i/64⌋`.
    pub fn is_linear_extension(&self) -> bool {
        let n = self.n;
        let sum = |i: usize| -> u64 {
            (0..self.dim)
                .map(|k| u64::from(self.ranks[k * n + i]))
                .sum()
        };
        (1..n).all(|i| sum(i - 1) <= sum(i))
    }

    /// Reflexive dominance `p_i ⪰ p_j` from `d` rank comparisons.
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        (0..self.dim).all(|k| self.ranks[k * self.n + i] >= self.ranks[k * self.n + j])
    }

    /// `true` iff points `i` and `j` have equal coordinates.
    pub fn equal_points(&self, i: usize, j: usize) -> bool {
        self.dup_group[i] == self.dup_group[j]
    }

    /// Members of `i`'s duplicate group, sorted ascending and always
    /// containing `i` itself.
    #[inline]
    pub fn dup_group_members(&self, i: usize) -> &[u32] {
        let g = self.dup_group[i] as usize;
        &self.dup_members[self.dup_offsets[g] as usize..self.dup_offsets[g + 1] as usize]
    }

    /// Point `i`'s own tie-group starts `pos_k(i)`, one per dimension:
    /// the positions whose suffixes hold exactly the points that
    /// dominate `i`, so [`suffix_intersects`](Self::suffix_intersects)
    /// at them asks whether some point below an index bound does.
    pub fn positions(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        (0..self.dim).map(move |k| self.group_start[k * self.n + i])
    }

    /// `true` iff some point `j < end` sits at sorted position `≥
    /// pos[k]` on every dimension `k`. Each `pos[k]` must start a rank
    /// tie group on dimension `k`, so that is also "rank ≥ the rank at
    /// `pos[k]`" on every `k`. No row is built: each chunk of 8 words
    /// (one cache line) ANDs the `d` checkpoint suffixes
    /// `S_k[⌊pos[k]/B⌋]`, and each surviving bit — a point in every
    /// suffix, possibly one of the `< B` slack points a checkpoint holds
    /// below `pos[k]` — is confirmed by `d` compares of its own tie-group
    /// starts against `pos`, so the scan stops at the first confirmed
    /// point. Only words below `⌈end/64⌉` are read. That is at most
    /// `d·⌈end/64⌉` word ANDs plus the compares of the surviving bits;
    /// under a stride widened to one checkpoint every bit survives, and
    /// the test costs about the `d` compare passes of a rank scan.
    ///
    /// # Panics
    ///
    /// Panics if `pos.len() != self.dim()` or a position is not below
    /// `len()`.
    pub fn suffix_intersects(&self, pos: &[u32], end: usize) -> bool {
        assert_eq!(pos.len(), self.dim, "one position per dimension");
        assert!(
            pos.iter().all(|&p| (p as usize) < self.n),
            "position out of range"
        );
        let n = self.n;
        let end = end.min(n);
        let end_words = end.div_ceil(64);
        // `pos[k]` and `j`'s own tie-group start are both group starts,
        // so `j` ranks at or above the group at `pos[k]` iff its group
        // starts there or later.
        let confirmed = |j: usize| (0..self.dim).all(|k| self.group_start[k * n + j] >= pos[k]);
        for from in (0..end_words).step_by(SUFFIX_CHUNK) {
            let to = (from + SUFFIX_CHUNK).min(end_words);
            let mut chunk = [!0u64; SUFFIX_CHUNK];
            for (k, &p) in pos.iter().enumerate() {
                let c = p as usize >> self.stride_shift;
                if c == 0 {
                    continue; // S_k[0] holds every point
                }
                let base = (k * self.checkpoints + c) * self.words;
                let words = &self.suffix[base + from..base + to];
                // A full chunk ANDs as a fixed-size array, which compiles
                // to vector instructions; only the last chunk is shorter.
                if let Ok(full) = <&[u64; SUFFIX_CHUNK]>::try_from(words) {
                    for (o, &w) in chunk.iter_mut().zip(full) {
                        *o &= w;
                    }
                } else {
                    for (o, &w) in chunk.iter_mut().zip(words) {
                        *o &= w;
                    }
                }
            }
            if to == end_words && !end.is_multiple_of(64) {
                chunk[to - from - 1] &= (1u64 << (end % 64)) - 1;
            }
            for (wi, &word) in (from..to).zip(&chunk) {
                let mut cand = word;
                while cand != 0 {
                    let j = (wi << 6) | cand.trailing_zeros() as usize;
                    cand &= cand - 1;
                    if confirmed(j) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The row of the points at sorted position `≥ pos(k)` on every
    /// dimension `k`, over words `from_word..` only (the words below are
    /// zeroed); each `pos(k)` is a tie-group start below `n`.
    #[inline]
    fn row_at(&self, pos: impl Fn(usize) -> usize, from_word: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.words, "row width mismatch");
        let n = self.n;
        let (below, tail) = out.split_at_mut(from_word);
        below.fill(0);
        let mut filled = false;
        for k in 0..self.dim {
            let c = pos(k) >> self.stride_shift;
            if c == 0 {
                continue; // S_k[0] holds every point
            }
            let base = (k * self.checkpoints + c) * self.words;
            let set = &self.suffix[base + from_word..base + self.words];
            if filled {
                for (o, &w) in tail.iter_mut().zip(set) {
                    *o &= w;
                }
            } else {
                tail.copy_from_slice(set);
                filled = true;
            }
        }
        if !filled {
            kernel::ones_mask_into(n, out);
            out[..from_word].fill(0);
        }
        // The points between each checkpoint and `pos(k)` are in
        // `S_k[c]` but rank below `pos(k)`'s group on dimension `k`. A
        // stride widened by a small budget can leave more of them than
        // one rank-compare pass over the column costs; narrow by that
        // pass instead.
        for k in 0..self.dim {
            let pos = pos(k);
            let from = pos >> self.stride_shift << self.stride_shift;
            let sorted = &self.order[k * n..(k + 1) * n];
            if pos - from > self.words * CLEARS_PER_COMPARE_WORD {
                let threshold = self.rank(k, sorted[pos] as usize);
                kernel::and_ge_mask(self.column(k), threshold, out);
                continue;
            }
            for &j in &sorted[from..pos] {
                out[j as usize >> 6] &= !(1u64 << (j & 63));
            }
        }
    }

    /// `true` iff bit `j` of `i`'s strict-successor row is set: `p_j ⪰
    /// p_i`, and `j > i` if the points are equal.
    #[inline]
    fn is_strict_successor(&self, i: usize, j: usize) -> bool {
        self.dominates(j, i) && (j > i || !self.equal_points(i, j))
    }

    /// The lowest strict successor of `i` (a bit of
    /// [`strict_successor_row_into`](Self::strict_successor_row_into))
    /// that is also set in `within`, looking only at bits `from_bit..`;
    /// `None` if there is none there. No row is built: each word ANDs
    /// `within` with the point's suffix-bitset words on the fly, and each
    /// surviving bit costs at most `d` rank compares, so the scan stops
    /// at the first survivor. When the points are labelled in a linear
    /// extension ([`is_linear_extension`](Self::is_linear_extension)),
    /// every strict successor of `i` is above `i`, so callers pass
    /// `from_bit = i + 1`: the bits at or below `i` in the diagonal word
    /// pass the suffix filter (`i` and the points it dominates on every
    /// checkpointed dimension) but would each cost `d` compares to reject.
    ///
    /// # Panics
    ///
    /// Panics if `within.len() != self.words()` or `i >= len()`.
    pub fn first_strict_successor(
        &self,
        i: usize,
        within: &[u64],
        from_bit: usize,
    ) -> Option<usize> {
        assert_eq!(within.len(), self.words, "row width mismatch");
        let n = self.n;
        let from_word = from_bit >> 6;
        for (wi, &w) in within.iter().enumerate().skip(from_word) {
            let mut cand = if wi == from_word {
                w & (!0u64 << (from_bit & 63))
            } else {
                w
            };
            for k in 0..self.dim {
                if cand == 0 {
                    break;
                }
                let c = self.group_start[k * n + i] as usize >> self.stride_shift;
                if c > 0 {
                    cand &= self.suffix[(k * self.checkpoints + c) * self.words + wi];
                }
            }
            while cand != 0 {
                let j = (wi << 6) | cand.trailing_zeros() as usize;
                cand &= cand - 1;
                if self.is_strict_successor(i, j) {
                    return Some(j);
                }
            }
        }
        None
    }

    /// Computes `i`'s *strict-successor row* into `out`: the dominator
    /// row with `i` itself and smaller-index duplicates masked out —
    /// the exact edge orientation of the Lemma-6 matching (duplicates
    /// chain by ascending index).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.words()`.
    pub fn strict_successor_row_into(&self, i: usize, out: &mut [u64]) {
        self.strict_successor_row_from(i, 0, out);
    }

    /// [`strict_successor_row_into`](Self::strict_successor_row_into)
    /// over words `from_word..` only, with the words below left zero: the
    /// whole row whenever no strict successor of `i` sits below
    /// `from_word`, as with `from_word = ⌊i/64⌋` when the points are
    /// labelled in a linear extension
    /// ([`is_linear_extension`](Self::is_linear_extension)). The suffix
    /// ANDs then skip the words below the diagonal. Debug builds check
    /// the skipped words against the full row.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.words()` or `from_word > self.words()`.
    pub fn strict_successor_row_from(&self, i: usize, from_word: usize, out: &mut [u64]) {
        let n = self.n;
        self.row_at(|k| self.group_start[k * n + i] as usize, from_word, out);
        for &v in self.dup_group_members(i) {
            let v = v as usize;
            if v > i {
                break;
            }
            out[v >> 6] &= !(1u64 << (v & 63));
        }
        #[cfg(debug_assertions)]
        if from_word > 0 {
            let mut full = vec![0u64; self.words];
            self.strict_successor_row_from(i, 0, &mut full);
            assert_eq!(
                full, out,
                "row {i} has a strict successor below word {from_word}"
            );
        }
    }
}

/// The points `0..n` in a linear extension of dominance: ascending
/// `(Σ_k column(k)[i], i)`. Strict dominance raises one rank and lowers
/// none, so it raises the sum; equal points keep index order. Ranks need
/// only be order-preserving per dimension. The sums accumulate column by
/// column in `u64` (they can pass `u32::MAX`) and one stable radix pass
/// orders them.
pub fn linear_extension_order(
    n: usize,
    dim: usize,
    rank: impl Fn(usize, usize) -> u32,
) -> Vec<usize> {
    let mut sums = vec![0u64; n];
    for k in 0..dim {
        for (i, sum) in sums.iter_mut().enumerate() {
            *sum += u64::from(rank(k, i));
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    radix_sort_by_key(&mut order, &sums, &mut Vec::new());
    order.into_iter().map(|i| i as usize).collect()
}

/// Column-major ranks of the points `indices`, in that order:
/// `out[k * m + l] = column(k)[indices[l]]`.
fn gather_columns<'c>(
    dim: usize,
    indices: &[usize],
    column: impl Fn(usize) -> &'c [u32],
) -> Vec<u32> {
    let mut out = Vec::with_capacity(dim * indices.len());
    for k in 0..dim {
        let col = column(k);
        out.extend(indices.iter().map(|&i| col[i]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bitmask_of, Dominance};
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

    /// `i`'s reflexive dominator row: the points at sorted position
    /// `≥ pos_k(i)` on every dimension `k`, so bit `i` is always set.
    fn dominator_row(oracle: &RankOracle, i: usize) -> Vec<u64> {
        let mut row = vec![0u64; oracle.words()];
        let pos: Vec<u32> = oracle.positions(i).collect();
        oracle.row_at(|k| pos[k] as usize, 0, &mut row);
        row
    }

    /// The pairwise reference for point `i`: its dominator row (bit `j`
    /// iff `points.dominates(j, i)`), its strict-successor row (the
    /// dominators other than `i`, equal points kept only above `i`) and
    /// its duplicate group.
    fn pairwise_rows(points: &PointSet, i: usize) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
        let n = points.len();
        let above = |j: usize| points.dominates(j, i);
        let dominators = bitmask_of(n, (0..n).filter(|&j| above(j)));
        let strict = bitmask_of(
            n,
            (0..n).filter(|&j| above(j) && (j > i || !points.dominates(i, j))),
        );
        let group = (0..n as u32)
            .filter(|&j| points.compare(i, j as usize) == Dominance::Equal)
            .collect();
        (dominators, strict, group)
    }

    #[test]
    fn rows_match_the_pairwise_scan_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0AC1E);
        for dim in [1usize, 2, 3, 4] {
            for _ in 0..6 {
                let n = rng.gen_range(0..120);
                let points = random_points(n, dim, 4.0, &mut rng);
                let oracle = RankOracle::build(&points);
                assert_eq!((oracle.len(), oracle.dim()), (n, dim));
                let mut strict = vec![0u64; oracle.words()];
                for i in 0..n {
                    let (want, want_strict, group) = pairwise_rows(&points, i);
                    assert_eq!(dominator_row(&oracle, i), want, "dim {dim} n {n} i {i}");
                    oracle.strict_successor_row_into(i, &mut strict);
                    assert_eq!(strict, want_strict, "strict, dim {dim} n {n} i {i}");
                    assert_eq!(oracle.dup_group_members(i), &group[..]);
                    for j in 0..n {
                        assert_eq!(oracle.dominates(i, j), points.dominates(i, j));
                        assert_eq!(oracle.equal_points(i, j), group.contains(&(j as u32)));
                    }
                }
            }
        }
    }

    #[test]
    fn subset_gather_matches_subset_rebuild() {
        let mut rng = StdRng::seed_from_u64(0x5AB5E7);
        for dim in [1usize, 2, 4] {
            let n = 90;
            let points = random_points(n, dim, 4.0, &mut rng);
            let table = RankTable::build(&points);
            let picks: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            let gathered =
                RankOracle::try_from_table_subset(&table, &picks, &CancelToken::never()).unwrap();
            let rebuilt = RankOracle::build(&points.subset(&picks));
            assert_eq!(gathered.len(), rebuilt.len());
            for i in 0..picks.len() {
                assert_eq!(
                    dominator_row(&gathered, i),
                    dominator_row(&rebuilt, i),
                    "dim {dim} local {i}"
                );
                for j in 0..picks.len() {
                    assert_eq!(gathered.dominates(i, j), rebuilt.dominates(i, j));
                    assert_eq!(gathered.equal_points(i, j), rebuilt.equal_points(i, j));
                }
            }
        }
    }

    #[test]
    fn empty_singleton_and_all_duplicates() {
        let empty = RankOracle::build(&PointSet::new(3));
        assert!(empty.is_empty());
        assert_eq!(empty.words(), 0);

        let one = RankOracle::build(&PointSet::from_rows(2, &[vec![1.0, 2.0]]));
        let mut row = dominator_row(&one, 0);
        assert_eq!(row, vec![1]);
        one.strict_successor_row_into(0, &mut row);
        assert_eq!(row, vec![0]);

        // All-duplicate points: every dominator row is full, and the
        // strict rows chain by ascending index.
        let dup_rows: Vec<Vec<f64>> = (0..70).map(|_| vec![3.0, 3.0]).collect();
        let dups = PointSet::from_rows(2, &dup_rows);
        let oracle = RankOracle::build(&dups);
        let mut row = dominator_row(&oracle, 33);
        assert_eq!(crate::index::iter_ones(&row).count(), 70);
        oracle.strict_successor_row_into(33, &mut row);
        assert_eq!(
            crate::index::iter_ones(&row).collect::<Vec<_>>(),
            (34..70).collect::<Vec<_>>()
        );
    }

    #[test]
    fn signed_zeros_canonicalize() {
        let points = PointSet::from_rows(2, &[vec![-0.0, 0.0], vec![0.0, -0.0], vec![1.0, -0.0]]);
        let oracle = RankOracle::build(&points);
        assert!(oracle.equal_points(0, 1));
        assert!(oracle.dominates(2, 0) && !oracle.dominates(0, 2));
        assert_eq!(dominator_row(&oracle, 0), vec![0b111]);
    }

    /// Every dominator and strict row of `ranks` (column-major over the
    /// `n` points of `points`) at checkpoint strides 64, 128 and one
    /// covering all `n` points must equal the pairwise scan of `points`
    /// bit for bit.
    fn assert_rows_match_at_every_stride(points: &PointSet, ranks: &[u32], what: &str) {
        let (n, dim) = (points.len(), points.dim());
        let want: Vec<_> = (0..n).map(|i| pairwise_rows(points, i)).collect();
        let never = CancelToken::never();
        for stride in [64, 128, n.next_power_of_two().max(MIN_STRIDE)] {
            let oracle = RankOracle::with_stride(n, dim, ranks.to_vec(), stride, &never).unwrap();
            let mut row = vec![0u64; oracle.words()];
            for (i, (dominators, strict, _)) in want.iter().enumerate() {
                assert_eq!(
                    &dominator_row(&oracle, i),
                    dominators,
                    "{what}: dim {dim} n {n} stride {stride} i {i}"
                );
                oracle.strict_successor_row_into(i, &mut row);
                assert_eq!(
                    &row, strict,
                    "{what}, strict: dim {dim} n {n} stride {stride} i {i}"
                );
            }
        }
    }

    fn dense_ranks(points: &PointSet) -> Vec<u32> {
        try_compress_ranks(points, &CancelToken::never()).unwrap()
    }

    #[test]
    fn rows_match_the_pairwise_scan_at_every_stride() {
        let mut rng = StdRng::seed_from_u64(0x5714DE);
        // No n is a multiple of 64 (so none of 128 either).
        for dim in 1..=6usize {
            for n in [1usize, 37, 65, 130, 201, 299] {
                let points = random_points(n, dim, 5.0, &mut rng);
                assert_rows_match_at_every_stride(&points, &dense_ranks(&points), "random");
            }
        }

        // Dimension 0 has tie groups at sorted positions 0..50, 50..100
        // and 100..150: the second straddles the checkpoint at 64, the
        // third the one at 128.
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![(i % 3) as f64, ((i * 7) % 5) as f64])
            .collect();
        let points = PointSet::from_rows(2, &rows);
        assert_rows_match_at_every_stride(&points, &dense_ranks(&points), "straddling ties");

        // All duplicates: every tie group starts at position 0.
        let dup_rows: Vec<Vec<f64>> = (0..150).map(|_| vec![3.0, -1.0, 2.0]).collect();
        let points = PointSet::from_rows(3, &dup_rows);
        assert_rows_match_at_every_stride(&points, &dense_ranks(&points), "duplicates");

        // Sparse ranks gathered off a parent table.
        for dim in [1usize, 3, 6] {
            let points = random_points(400, dim, 6.0, &mut rng);
            let table = RankTable::build(&points);
            let picks: Vec<usize> = (0..400).filter(|_| rng.gen_bool(0.5)).collect();
            let gathered =
                RankOracle::try_from_table_subset(&table, &picks, &CancelToken::never()).unwrap();
            assert_rows_match_at_every_stride(&points.subset(&picks), &gathered.ranks, "gathered");
        }
    }

    /// Points whose coordinates come from a short list with `±∞` and
    /// both signed zeros, so every column has large tie groups.
    fn tied_points(n: usize, dim: usize, rng: &mut StdRng) -> PointSet {
        const VALUES: [f64; 7] = [f64::NEG_INFINITY, -2.0, -0.0, 0.0, 1.5, 3.0, f64::INFINITY];
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| VALUES[rng.gen_range(0..7usize)]).collect())
            .collect();
        PointSet::from_rows(dim, &rows)
    }

    #[test]
    fn suffix_intersects_matches_a_rank_scan_at_every_stride() {
        let mut rng = StdRng::seed_from_u64(0x5_0FF1);
        let never = CancelToken::never();
        let mut mid_checkpoint = 0;
        for dim in 1..=5usize {
            for n in [1usize, 63, 64, 65, 200, 333] {
                for tied in [false, true] {
                    let points = if tied {
                        tied_points(n, dim, &mut rng)
                    } else {
                        random_points(n, dim, 6.0, &mut rng)
                    };
                    let ranks = dense_ranks(&points);
                    for stride in [64, 128, n.next_power_of_two().max(MIN_STRIDE)] {
                        let oracle =
                            RankOracle::with_stride(n, dim, ranks.clone(), stride, &never).unwrap();
                        let ends = [0, 1, n / 2, n - 1, n, n + 3, 64, 65, 127, 128, 129];
                        for t in 0..60 {
                            // Each dimension's position is the group start
                            // of an independently drawn point.
                            let pos: Vec<u32> = (0..dim)
                                .map(|k| oracle.group_start[k * n + rng.gen_range(0..n)])
                                .collect();
                            mid_checkpoint +=
                                usize::from(pos.iter().any(|&p| !p.is_multiple_of(64)));
                            let end = if t < ends.len() {
                                ends[t]
                            } else {
                                rng.gen_range(0..=n)
                            };
                            let want = (0..n.min(end)).any(|j| {
                                (0..dim).all(|k| {
                                    let at = oracle.order[k * n + pos[k] as usize] as usize;
                                    oracle.rank(k, j) >= oracle.rank(k, at)
                                })
                            });
                            assert_eq!(
                                oracle.suffix_intersects(&pos, end),
                                want,
                                "dim {dim} n {n} tied {tied} stride {stride} pos {pos:?} end {end}"
                            );
                        }
                        // At a point's own positions the suffixes hold its
                        // dominators, so the test asks the pairwise scan
                        // whether one sits below `end`.
                        for i in 0..n {
                            let pos: Vec<u32> = oracle.positions(i).collect();
                            let end = rng.gen_range(0..=n);
                            assert_eq!(
                                oracle.suffix_intersects(&pos, end),
                                (0..end).any(|j| points.dominates(j, i)),
                                "dim {dim} n {n} tied {tied} stride {stride} i {i} end {end}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            mid_checkpoint > 1000,
            "{mid_checkpoint} mid-checkpoint queries"
        );
    }

    #[test]
    fn first_strict_successor_matches_the_row_scan() {
        let mut rng = StdRng::seed_from_u64(0x1A2F);
        for dim in [1usize, 3, 5] {
            for n in [1usize, 63, 64, 65, 200] {
                // Grid 4 leaves many duplicate points.
                let points = random_points(n, dim, 4.0, &mut rng);
                let ranks = dense_ranks(&points);
                // The same points relabelled in a linear extension, where
                // the scan starts just past the diagonal bit.
                let labels = linear_extension_order(n, dim, |k, i| ranks[k * n + i]);
                let relabelled = gather_columns(dim, &labels, |k| &ranks[k * n..(k + 1) * n]);
                for (ranks, linear) in [(ranks.clone(), false), (relabelled, true)] {
                    for stride in [64, n.next_power_of_two().max(MIN_STRIDE)] {
                        let never = CancelToken::never();
                        let oracle =
                            RankOracle::with_stride(n, dim, ranks.clone(), stride, &never).unwrap();
                        assert_eq!(oracle.is_linear_extension(), linear || n < 2);
                        let mut row = vec![0u64; oracle.words()];
                        for i in 0..n {
                            oracle.strict_successor_row_into(i, &mut row);
                            let within: Vec<u64> = (0..oracle.words())
                                .map(|w| {
                                    let spill = n - 64 * w;
                                    let valid = if spill >= 64 { !0 } else { (1u64 << spill) - 1 };
                                    rng.gen::<u64>() & valid
                                })
                                .collect();
                            let scan = |from: usize| {
                                (0..n).find(|&j| {
                                    j >= from
                                        && row[j >> 6] >> (j & 63) & 1 == 1
                                        && within[j >> 6] >> (j & 63) & 1 == 1
                                })
                            };
                            let from = rng.gen_range(0..=n);
                            assert_eq!(
                                oracle.first_strict_successor(i, &within, from),
                                scan(from),
                                "dim {dim} n {n} stride {stride} i {i} from {from}"
                            );
                            if linear {
                                // Nothing at or below the diagonal is lost.
                                assert_eq!(
                                    oracle.first_strict_successor(i, &within, i + 1),
                                    scan(0),
                                    "linear: dim {dim} n {n} stride {stride} i {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linear_extension_gather_relabels_without_changing_the_poset() {
        let mut rng = StdRng::seed_from_u64(0x11E7);
        for dim in [1usize, 2, 4] {
            let points = random_points(150, dim, 4.0, &mut rng);
            let plain = RankOracle::build(&points);
            let table = RankTable::build(&points);
            let labels = linear_extension_order(150, dim, |k, i| table.column(k)[i]);
            assert_eq!(labels, plain.linear_extension());
            let sorted =
                RankOracle::try_from_table_subset(&table, &labels, &CancelToken::never()).unwrap();
            assert!(sorted.is_linear_extension());
            let mut full = vec![0u64; sorted.words()];
            let mut tail = vec![!0u64; sorted.words()];
            for l in 0..150 {
                sorted.strict_successor_row_into(l, &mut full);
                sorted.strict_successor_row_from(l, l / 64, &mut tail);
                assert_eq!(tail, full, "dim {dim} label {l}");
            }
            let permuted = plain.try_permuted(&labels, &CancelToken::never()).unwrap();
            for a in 0..150 {
                for b in 0..150 {
                    let (i, j) = (labels[a], labels[b]);
                    assert_eq!(sorted.dominates(a, b), plain.dominates(i, j));
                    assert_eq!(sorted.equal_points(a, b), plain.equal_points(i, j));
                    assert_eq!(permuted.dominates(a, b), plain.dominates(i, j));
                }
            }
        }
    }

    #[test]
    fn payload_bytes_counts_the_table_and_every_array() {
        let mut rng = StdRng::seed_from_u64(0xB17E5);
        let (n, dim) = (300, 3);
        let points = random_points(n, dim, 5.0, &mut rng);
        for stride in [64, 128, 512] {
            let oracle = RankOracle::with_stride(
                n,
                dim,
                dense_ranks(&points),
                stride,
                &CancelToken::never(),
            )
            .unwrap();
            assert_eq!(oracle.stride(), stride);
            let groups = oracle.dup_offsets.len() - 1;
            let want =
                table_bytes(n, dim, stride) as usize + 12 * dim * n + 4 * (2 * n + groups + 1);
            assert_eq!(oracle.payload_bytes(), want, "stride {stride}");
        }
        let fitted = RankOracle::from_rank_columns(n, dim, dense_ranks(&points), 1);
        assert_eq!(fitted.stride(), 512);
    }

    #[test]
    fn stride_doubles_until_the_table_fits() {
        // 24,000 points in 3 dimensions: 3.4 MB at stride 64.
        assert_eq!(table_bytes(24_000, 3, 64), 3 * 375 * 375 * 8);
        assert_eq!(table_stride(24_000, 3, 256 << 20), 64);
        assert_eq!(table_stride(24_000, 3, table_bytes(24_000, 3, 64) - 1), 128);
        // A budget nothing fits stops at one checkpoint per dimension.
        assert_eq!(table_stride(5_000, 3, 1), 8192);
        assert_eq!(table_stride(0, 3, 1), 64);
    }

    /// The build as it was with comparison sorts, for the construction
    /// properties below: per-dimension orders and tie-group starts from
    /// sorted `(rank, index)` keys, duplicate groups numbered along a
    /// tuple comparison sort, and the linear extension from sorted
    /// `(sum, index)` pairs.
    struct SortedReference {
        order: Vec<u32>,
        group_start: Vec<u32>,
        dup_group: Vec<u32>,
        linear_extension: Vec<usize>,
    }

    fn sorted_reference(n: usize, dim: usize, ranks: &[u32]) -> SortedReference {
        let mut order = vec![0u32; dim * n];
        let mut group_start = vec![0u32; dim * n];
        for k in 0..dim {
            let mut keys: Vec<u64> = (0..n)
                .map(|i| u64::from(ranks[k * n + i]) << 32 | i as u64)
                .collect();
            keys.sort_unstable();
            let mut start = 0u32;
            for (p, &key) in keys.iter().enumerate() {
                if p > 0 && key >> 32 != keys[p - 1] >> 32 {
                    start = p as u32;
                }
                order[k * n + p] = key as u32;
                group_start[k * n + key as u32 as usize] = start;
            }
        }
        let tuple = |i: usize| -> Vec<u32> { (0..dim).map(|k| ranks[k * n + i]).collect() };
        let mut by_tuple: Vec<usize> = (0..n).collect();
        by_tuple.sort_unstable_by_key(|&i| tuple(i));
        let mut dup_group = vec![0u32; n];
        let mut g = 0;
        for p in 0..n {
            if p > 0 && tuple(by_tuple[p]) != tuple(by_tuple[p - 1]) {
                g += 1;
            }
            dup_group[by_tuple[p]] = g;
        }
        let mut pairs: Vec<(u64, usize)> = (0..n)
            .map(|i| ((0..dim).map(|k| u64::from(ranks[k * n + i])).sum(), i))
            .collect();
        pairs.sort_unstable();
        SortedReference {
            order,
            group_start,
            dup_group,
            linear_extension: pairs.into_iter().map(|(_, i)| i).collect(),
        }
    }

    fn assert_built_like_the_sorted_reference(oracle: &RankOracle, what: &str) {
        let (n, dim) = (oracle.len(), oracle.dim());
        let want = sorted_reference(n, dim, &oracle.ranks);
        assert_eq!(oracle.order, want.order, "{what}: orders");
        assert_eq!(
            oracle.group_start, want.group_start,
            "{what}: tie-group starts"
        );
        assert_eq!(
            oracle.dup_group, want.dup_group,
            "{what}: duplicate-group ids"
        );
        for i in 0..n {
            let members: Vec<u32> = (0..n as u32)
                .filter(|&j| want.dup_group[j as usize] == want.dup_group[i])
                .collect();
            assert_eq!(
                oracle.dup_group_members(i),
                &members[..],
                "{what}: members of {i}"
            );
        }
        assert_eq!(
            oracle.linear_extension(),
            want.linear_extension,
            "{what}: extension"
        );
    }

    #[test]
    fn radix_build_matches_the_comparison_sort_reference() {
        let mut rng = StdRng::seed_from_u64(0x50B7);
        let never = CancelToken::never();
        for dim in [1usize, 2, 3, 5] {
            for (n, grid) in [(0, 2.0), (1, 2.0), (90, 2.0), (300, 4.0), (1_500, 40.0)] {
                // Dense ranks with heavy duplicates.
                let points = random_points(n, dim, grid, &mut rng);
                let oracle = RankOracle::build(&points);
                assert_built_like_the_sorted_reference(&oracle, &format!("dense d {dim} n {n}"));
                // Sparse ranks: a gathered subset of a table, in a
                // shuffled order, keeps the table's ranks.
                let table = RankTable::build(&points);
                let mut subset: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
                for i in (1..subset.len()).rev() {
                    subset.swap(i, rng.gen_range(0..=i));
                }
                let gathered = RankOracle::try_from_table_subset(&table, &subset, &never).unwrap();
                assert_built_like_the_sorted_reference(
                    &gathered,
                    &format!("gathered d {dim} n {n}"),
                );
            }
            // Ranks near u32::MAX: every rank sum of d ≥ 2 passes u32::MAX.
            let n = 400;
            let ranks: Vec<u32> = (0..dim * n)
                .map(|_| {
                    let below = if rng.gen_bool(0.5) { 3u32 } else { 1 << 20 };
                    u32::MAX - rng.gen_range(0..below)
                })
                .collect();
            let oracle = RankOracle::from_rank_columns(n, dim, ranks, 1 << 20);
            assert_built_like_the_sorted_reference(&oracle, &format!("high d {dim}"));
        }
    }
}
