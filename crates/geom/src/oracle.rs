//! Matrix-free dominator-row oracle over rank columns.
//!
//! [`RankOracle`] answers the same row queries as the bitset matrix of
//! [`DominanceIndex`](crate::DominanceIndex) — "which points dominate
//! `p_i`?", as a `⌈n/64⌉`-word bitset — but assembles each row on demand
//! instead of materializing the `Θ(n²/64)` matrix. That matrix is the
//! workspace's last memory wall: at `n = 10⁶` it would occupy ~125 GB.
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
//! row, where a rank-compare pass costs `d·n` compares. The same
//! formula answers any tuple of tie-group starts, not only a point's
//! own: [`RankOracle::suffix_row_into`] takes the positions directly,
//! which is how the serving `AnchorIndex` turns a query point's bound
//! coordinates into the row of anchors it dominates. The stride `B`
//! starts at 64 and doubles until the table (`d·⌈n/B⌉·⌈n/64⌉·8` bytes)
//! fits [`crate::row_budget_bytes`], or until one checkpoint per
//! dimension covers every point. A small budget can widen `B` until one
//! dimension's clears cost more than a compare pass over its rank
//! column; that dimension then narrows the row with
//! [`kernel::and_ge_mask`] instead, so a row costs at most about the
//! `d` compare passes. Besides the table the oracle holds `12·d·n`
//! bytes: ranks, sorted orders and tie-group starts.
//!
//! Rows are bit-identical to [`DominanceIndex::dominator_row_words`](crate::DominanceIndex::dominator_row_words)
//! over the same points (same rank compression, same `-0.0 == 0.0`
//! canonicalization, same duplicate-group tie-breaks), which is what
//! lets the bitset Hopcroft–Karp engine and the König certificate run
//! matrix-free with unchanged results.

use crate::dataset::PointSet;
use crate::index::{duplicate_groups, row_budget_bytes, RankTable};
use crate::kernel;
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
    /// equal group), with member lists exactly as in `DominanceIndex`.
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
        Self::try_build(points, &CancelToken::never()).expect("a never-token cannot cancel")
    }

    /// Cancellable twin of [`build`](Self::build); polls between the
    /// per-dimension rank sorts and while filling the table.
    pub fn try_build(points: &PointSet, token: &CancelToken) -> Result<Self, Cancelled> {
        let ranks = try_compress_ranks(points, token)?;
        Self::try_from_rank_columns(points.len(), points.dim(), ranks, token)
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
        // (rank, index) in one integer, so a plain sort gives a
        // deterministic order; only the rank part matters for rows.
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        for k in 0..dim {
            token.poll()?;
            keys.clear();
            keys.extend(
                ranks[k * n..(k + 1) * n]
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| u64::from(r) << 32 | i as u64),
            );
            keys.sort_unstable();
            let ord = &mut order[k * n..(k + 1) * n];
            let starts = &mut group_start[k * n..(k + 1) * n];
            let mut start = 0u32;
            for (p, &key) in keys.iter().enumerate() {
                if p > 0 && key >> 32 != keys[p - 1] >> 32 {
                    start = p as u32;
                }
                ord[p] = key as u32;
                starts[key as u32 as usize] = start;
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
        let dups = duplicate_groups(n, dim, &ranks);
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

    /// Reflexive dominance `p_i ⪰ p_j` from `d` rank comparisons.
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        (0..self.dim).all(|k| self.ranks[k * self.n + i] >= self.ranks[k * self.n + j])
    }

    /// `true` iff points `i` and `j` have equal coordinates.
    pub fn equal_points(&self, i: usize, j: usize) -> bool {
        self.dup_group[i] == self.dup_group[j]
    }

    /// Members of `i`'s duplicate group, sorted ascending and always
    /// containing `i` itself — same contract as
    /// [`crate::DominanceIndex::dup_group_members`].
    #[inline]
    pub fn dup_group_members(&self, i: usize) -> &[u32] {
        let g = self.dup_group[i] as usize;
        &self.dup_members[self.dup_offsets[g] as usize..self.dup_offsets[g + 1] as usize]
    }

    /// Computes `i`'s *reflexive dominator row* into `out`: bit `j` is
    /// set iff `p_j ⪰ p_i` (so bit `i` is always set). Bit-identical to
    /// [`crate::DominanceIndex::dominator_row_words`] over the same
    /// points. This is [`Self::suffix_row_into`] at the positions
    /// `pos_k(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.words()`.
    pub fn dominator_row_into(&self, i: usize, out: &mut [u64]) {
        let n = self.n;
        self.row_at(|k| self.group_start[k * n + i] as usize, out);
    }

    /// Computes the *suffix row* at per-dimension sorted positions
    /// `pos` into `out`: bit `j` is set iff, on every dimension `k`,
    /// point `j` sits at sorted position `≥ pos[k]`. Each `pos[k]` must
    /// start a rank tie group on dimension `k`, so the row is also
    /// "rank ≥ the rank at `pos[k]`". At most `d·⌈n/64⌉` word ANDs
    /// plus, per dimension, fewer than `B` bit clears or one
    /// rank-compare pass, whichever is cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `pos.len() != self.dim()`, `out.len() != self.words()`
    /// or a position is not below `len()`.
    pub fn suffix_row_into(&self, pos: &[u32], out: &mut [u64]) {
        assert_eq!(pos.len(), self.dim, "one position per dimension");
        assert!(
            pos.iter().all(|&p| (p as usize) < self.n),
            "position out of range"
        );
        self.row_at(|k| pos[k] as usize, out);
    }

    /// The row of the points at sorted position `≥ pos(k)` on every
    /// dimension `k`; each `pos(k)` is a tie-group start below `n`.
    #[inline]
    fn row_at(&self, pos: impl Fn(usize) -> usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.words, "row width mismatch");
        let n = self.n;
        let mut filled = false;
        for k in 0..self.dim {
            let c = pos(k) >> self.stride_shift;
            if c == 0 {
                continue; // S_k[0] holds every point
            }
            let base = (k * self.checkpoints + c) * self.words;
            let set = &self.suffix[base..base + self.words];
            if filled {
                for (o, &w) in out.iter_mut().zip(set) {
                    *o &= w;
                }
            } else {
                out.copy_from_slice(set);
                filled = true;
            }
        }
        if !filled {
            kernel::ones_mask_into(n, out);
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

    /// Computes `i`'s *strict-successor row* into `out`: the dominator
    /// row with `i` itself and smaller-index duplicates masked out —
    /// the exact edge orientation `BitsetGraph::from_index` gives the
    /// Lemma-6 matching (duplicates chain by ascending index).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.words()`.
    pub fn strict_successor_row_into(&self, i: usize, out: &mut [u64]) {
        self.dominator_row_into(i, out);
        for &v in self.dup_group_members(i) {
            let v = v as usize;
            if v > i {
                break;
            }
            out[v >> 6] &= !(1u64 << (v & 63));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DominanceIndex;
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
    fn rows_match_dominance_index_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0AC1E);
        for dim in [1usize, 2, 3, 4] {
            for _ in 0..6 {
                let n = rng.gen_range(0..120);
                let points = random_points(n, dim, 4.0, &mut rng);
                let index = DominanceIndex::build(&points);
                let oracle = RankOracle::build(&points);
                assert_eq!((oracle.len(), oracle.dim()), (n, dim));
                let mut row = vec![0u64; oracle.words()];
                let mut strict = vec![0u64; oracle.words()];
                let mut strict_ref = vec![0u64; oracle.words()];
                for i in 0..n {
                    oracle.dominator_row_into(i, &mut row);
                    assert_eq!(row, index.dominator_row_words(i), "dim {dim} n {n} i {i}");
                    oracle.strict_successor_row_into(i, &mut strict);
                    index.strict_successor_row_into(i, &mut strict_ref);
                    assert_eq!(strict, strict_ref, "strict, dim {dim} n {n} i {i}");
                    assert_eq!(oracle.dup_group_members(i), index.dup_group_members(i));
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
            let mut a = vec![0u64; gathered.words()];
            let mut b = vec![0u64; rebuilt.words()];
            for i in 0..picks.len() {
                gathered.dominator_row_into(i, &mut a);
                rebuilt.dominator_row_into(i, &mut b);
                assert_eq!(a, b, "dim {dim} local {i}");
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
        let mut row = vec![0u64; 1];
        one.dominator_row_into(0, &mut row);
        assert_eq!(row, vec![1]);
        one.strict_successor_row_into(0, &mut row);
        assert_eq!(row, vec![0]);

        // All-duplicate points: every dominator row is full, and the
        // strict rows chain by ascending index.
        let dup_rows: Vec<Vec<f64>> = (0..70).map(|_| vec![3.0, 3.0]).collect();
        let dups = PointSet::from_rows(2, &dup_rows);
        let oracle = RankOracle::build(&dups);
        let mut row = vec![0u64; oracle.words()];
        oracle.dominator_row_into(33, &mut row);
        assert_eq!(crate::index::iter_ones(&row).count(), 70);
        oracle.strict_successor_row_into(33, &mut row);
        assert_eq!(
            crate::index::iter_ones(&row).collect::<Vec<_>>(),
            (34..70).collect::<Vec<_>>()
        );
    }

    #[test]
    fn signed_zeros_canonicalize_like_the_index() {
        let points = PointSet::from_rows(2, &[vec![-0.0, 0.0], vec![0.0, -0.0], vec![1.0, -0.0]]);
        let oracle = RankOracle::build(&points);
        assert!(oracle.equal_points(0, 1));
        assert!(oracle.dominates(2, 0) && !oracle.dominates(0, 2));
        let mut row = vec![0u64; 1];
        oracle.dominator_row_into(0, &mut row);
        assert_eq!(row, vec![0b111]);
    }

    /// Every dominator and strict row of `ranks` (column-major over `n`
    /// points) at checkpoint strides 64, 128 and one covering all `n`
    /// points must equal `index`'s rows bit for bit.
    fn assert_rows_match_at_every_stride(
        n: usize,
        dim: usize,
        ranks: &[u32],
        index: &DominanceIndex,
        what: &str,
    ) {
        let never = CancelToken::never();
        for stride in [64, 128, n.next_power_of_two().max(MIN_STRIDE)] {
            let oracle = RankOracle::with_stride(n, dim, ranks.to_vec(), stride, &never).unwrap();
            let mut row = vec![0u64; oracle.words()];
            let mut strict_ref = vec![0u64; oracle.words()];
            for i in 0..n {
                oracle.dominator_row_into(i, &mut row);
                assert_eq!(
                    row,
                    index.dominator_row_words(i),
                    "{what}: dim {dim} n {n} stride {stride} i {i}"
                );
                oracle.strict_successor_row_into(i, &mut row);
                index.strict_successor_row_into(i, &mut strict_ref);
                assert_eq!(
                    row, strict_ref,
                    "{what}, strict: dim {dim} n {n} stride {stride} i {i}"
                );
            }
        }
    }

    fn dense_ranks(points: &PointSet) -> Vec<u32> {
        try_compress_ranks(points, &CancelToken::never()).unwrap()
    }

    #[test]
    fn rows_match_dominance_index_at_every_stride() {
        let mut rng = StdRng::seed_from_u64(0x5714DE);
        // No n is a multiple of 64 (so none of 128 either).
        for dim in 1..=6usize {
            for n in [1usize, 37, 65, 130, 201, 299] {
                let points = random_points(n, dim, 5.0, &mut rng);
                let index = DominanceIndex::build(&points);
                assert_rows_match_at_every_stride(n, dim, &dense_ranks(&points), &index, "random");
            }
        }

        // Dimension 0 has tie groups at sorted positions 0..50, 50..100
        // and 100..150: the second straddles the checkpoint at 64, the
        // third the one at 128.
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![(i % 3) as f64, ((i * 7) % 5) as f64])
            .collect();
        let points = PointSet::from_rows(2, &rows);
        let index = DominanceIndex::build(&points);
        assert_rows_match_at_every_stride(150, 2, &dense_ranks(&points), &index, "straddling ties");

        // All duplicates: every tie group starts at position 0.
        let dup_rows: Vec<Vec<f64>> = (0..150).map(|_| vec![3.0, -1.0, 2.0]).collect();
        let points = PointSet::from_rows(3, &dup_rows);
        let index = DominanceIndex::build(&points);
        assert_rows_match_at_every_stride(150, 3, &dense_ranks(&points), &index, "duplicates");

        // Sparse ranks gathered off a parent table.
        for dim in [1usize, 3, 6] {
            let points = random_points(400, dim, 6.0, &mut rng);
            let table = RankTable::build(&points);
            let picks: Vec<usize> = (0..400).filter(|_| rng.gen_bool(0.5)).collect();
            let gathered =
                RankOracle::try_from_table_subset(&table, &picks, &CancelToken::never()).unwrap();
            let index = DominanceIndex::build(&points.subset(&picks));
            assert_rows_match_at_every_stride(
                picks.len(),
                dim,
                &gathered.ranks,
                &index,
                "gathered",
            );
        }
    }

    #[test]
    fn suffix_rows_match_a_rank_scan_at_every_stride() {
        let mut rng = StdRng::seed_from_u64(0x5_0FF1);
        for dim in 1..=5usize {
            for n in [1usize, 63, 64, 65, 200, 333] {
                let points = random_points(n, dim, 6.0, &mut rng);
                let ranks = dense_ranks(&points);
                for stride in [64, 128, n.next_power_of_two().max(MIN_STRIDE)] {
                    let never = CancelToken::never();
                    let oracle =
                        RankOracle::with_stride(n, dim, ranks.clone(), stride, &never).unwrap();
                    let mut row = vec![0u64; oracle.words()];
                    for _ in 0..40 {
                        // Each dimension's position is the group start of
                        // an independently drawn point.
                        let pos: Vec<u32> = (0..dim)
                            .map(|k| oracle.group_start[k * n + rng.gen_range(0..n)])
                            .collect();
                        oracle.suffix_row_into(&pos, &mut row);
                        let mut want = vec![0u64; oracle.words()];
                        for j in 0..n {
                            let inside = (0..dim).all(|k| {
                                let p = pos[k] as usize;
                                oracle.rank(k, j)
                                    >= oracle.rank(k, oracle.order[k * n + p] as usize)
                            });
                            if inside {
                                want[j >> 6] |= 1 << (j & 63);
                            }
                        }
                        assert_eq!(row, want, "dim {dim} n {n} stride {stride} pos {pos:?}");
                    }
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
}
