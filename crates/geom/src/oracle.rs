//! Matrix-free dominator-row oracle over rank columns.
//!
//! [`RankOracle`] answers the same row queries as the bitset matrix of
//! [`DominanceIndex`](crate::DominanceIndex) — "which points dominate
//! `p_i`?", as a `⌈n/64⌉`-word
//! bitset — but computes each row on demand from the `O(d·n)` rank
//! columns of a [`RankTable`] instead of materializing the `Θ(n²/64)`
//! matrix. That matrix is the workspace's last memory wall: at
//! `n = 10⁶` it would occupy ~125 GB, while the oracle's whole state is
//! `4·d·n` bytes of ranks plus `~d·n/32` bytes of block summaries.
//!
//! A row query narrows an all-ones bitset one dimension at a time with
//! the shared u64×4 compare kernel ([`crate::kernel`]), pruned by
//! per-block rank summaries:
//!
//! * each dimension stores the min/max rank of every 256-point block
//!   (the kd-style bucket grain of the kernel): blocks whose max rank
//!   sits below the query threshold are zeroed without comparing, and
//!   blocks whose min rank clears it are kept without comparing;
//! * dimensions are visited most-selective-first (largest threshold
//!   relative to the column's rank range), so for `d ≥ 3` most blocks
//!   die in the first pass and later dimensions skip them entirely;
//! * for `d ≤ 2` the loop degenerates to the one/two-column sweep with
//!   the same summaries — no narrowing bookkeeping beyond the single
//!   AND.
//!
//! Rows are bit-identical to [`DominanceIndex::dominator_row_words`](crate::DominanceIndex::dominator_row_words)
//! over the same points (same rank compression, same `-0.0 == 0.0`
//! canonicalization, same duplicate-group tie-breaks), which is what
//! lets the bitset Hopcroft–Karp engine and the König certificate run
//! matrix-free with unchanged results.

use crate::dataset::PointSet;
use crate::index::{duplicate_groups, try_compress_ranks, RankTable};
use crate::kernel::{self, BLOCK_RANKS, LANES};
use mc_obs::cancel::{CancelToken, Cancelled, Checkpoint};

/// On-demand dominator-row oracle; see the module docs.
#[derive(Debug, Clone)]
pub struct RankOracle {
    n: usize,
    dim: usize,
    /// Words per bitset row: `ceil(n / 64)`.
    words: usize,
    /// 256-point blocks per column: `ceil(words / 4)`.
    blocks: usize,
    /// Column-major, order-preserving ranks: `ranks[k * n + i]` is point
    /// `i`'s rank on dimension `k`. Dense when built from points; a
    /// subset gather keeps the parent's (sparser) ranks, which preserve
    /// order and therefore dominance.
    ranks: Vec<u32>,
    /// Per-dimension, per-block minimum rank (`dim * blocks` entries).
    block_min: Vec<u32>,
    /// Per-dimension, per-block maximum rank (`dim * blocks` entries).
    block_max: Vec<u32>,
    /// Per-dimension maximum rank, for the selectivity ordering.
    col_max: Vec<u32>,
    /// Canonical duplicate-group id per point (equal rank tuples ⇔
    /// equal group), with member lists exactly as in `DominanceIndex`.
    dup_group: Vec<u32>,
    dup_members: Vec<u32>,
    dup_offsets: Vec<u32>,
}

impl RankOracle {
    /// Builds the oracle from raw points: `O(d·n log n)` rank
    /// compression plus an `O(d·n)` summary pass. No quadratic work.
    pub fn build(points: &PointSet) -> Self {
        Self::try_build(points, &CancelToken::never()).expect("a never-token cannot cancel")
    }

    /// Cancellable twin of [`build`](Self::build); polls between the
    /// per-dimension rank sorts.
    pub fn try_build(points: &PointSet, token: &CancelToken) -> Result<Self, Cancelled> {
        let ranks = try_compress_ranks(points, token)?;
        Ok(Self::from_rank_columns(points.len(), points.dim(), ranks))
    }

    /// Builds the oracle over a subset of an existing [`RankTable`]'s
    /// points (`indices`, in the given order) by gathering their rank
    /// columns — the path the passive ladder uses to match over the
    /// label-1 points without re-sorting or building any matrix.
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
        Ok(Self::from_rank_columns(m, dim, ranks))
    }

    /// Core constructor from prepared column-major rank columns
    /// (`ranks[k * n + i]`). Ranks need only be order-preserving per
    /// dimension — `p ⪰ q ⟺ rank_k(p) ≥ rank_k(q)` for every `k`.
    ///
    /// # Panics
    ///
    /// Panics if `ranks.len() != dim * n`.
    pub fn from_rank_columns(n: usize, dim: usize, ranks: Vec<u32>) -> Self {
        assert_eq!(ranks.len(), dim * n, "rank column layout mismatch");
        let words = n.div_ceil(64);
        let blocks = words.div_ceil(LANES);
        let mut block_min = vec![0u32; dim * blocks];
        let mut block_max = vec![0u32; dim * blocks];
        let mut col_max = vec![0u32; dim];
        for k in 0..dim {
            let col = &ranks[k * n..(k + 1) * n];
            for b in 0..blocks {
                let lo = b * BLOCK_RANKS;
                let hi = (lo + BLOCK_RANKS).min(n);
                let mut mn = u32::MAX;
                let mut mx = 0u32;
                for &r in &col[lo..hi] {
                    mn = mn.min(r);
                    mx = mx.max(r);
                }
                block_min[k * blocks + b] = mn;
                block_max[k * blocks + b] = mx;
                col_max[k] = col_max[k].max(mx);
            }
        }
        let dups = duplicate_groups(n, dim, &ranks);
        Self {
            n,
            dim,
            words,
            blocks,
            ranks,
            block_min,
            block_max,
            col_max,
            dup_group: dups.group,
            dup_members: dups.members,
            dup_offsets: dups.offsets,
        }
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
    /// points. `O(d·n/64)` word operations worst case, usually far less
    /// thanks to the block summaries.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.words()`.
    pub fn dominator_row_into(&self, i: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.words, "row width mismatch");
        kernel::ones_mask_into(self.n, out);
        if self.n == 0 {
            return;
        }
        // Most-selective dimension first: the larger the threshold sits
        // within its column's rank range, the fewer survivors, and every
        // later dimension skips the blocks the first one emptied. A
        // fixed-size order array covers realistic dimensionalities;
        // beyond it the natural order is used (the result is the same
        // either way — this is purely a pruning heuristic).
        const ORDER_CAP: usize = 16;
        let mut dims = [0usize; ORDER_CAP];
        let ordered = self.dim <= ORDER_CAP;
        if ordered {
            let mut keys = [0f64; ORDER_CAP];
            for k in 0..self.dim {
                dims[k] = k;
                keys[k] = self.ranks[k * self.n + i] as f64 / (self.col_max[k] as f64 + 1.0);
            }
            dims[..self.dim].sort_unstable_by(|&a, &b| keys[b].total_cmp(&keys[a]).then(a.cmp(&b)));
        }
        // Not an iterator over `dims`: when `dim > ORDER_CAP` the loop
        // runs past the fixed-size order array (unordered fallback).
        #[allow(clippy::needless_range_loop)]
        for pos in 0..self.dim {
            let k = if ordered { dims[pos] } else { pos };
            let t = self.ranks[k * self.n + i];
            if t == 0 {
                continue; // ranks are non-negative: the dimension filters nothing
            }
            if !self.narrow_dim(k, t, out) {
                return; // row emptied — impossible for dominator rows (self-bit), defensive
            }
        }
    }

    /// Narrows `out` to the points whose rank on dimension `k` is at
    /// least `t`, using the block summaries to skip decided blocks.
    /// Returns `true` iff any bit survives.
    fn narrow_dim(&self, k: usize, t: u32, out: &mut [u64]) -> bool {
        let col = &self.ranks[k * self.n..(k + 1) * self.n];
        let bmin = &self.block_min[k * self.blocks..(k + 1) * self.blocks];
        let bmax = &self.block_max[k * self.blocks..(k + 1) * self.blocks];
        let mut any = 0u64;
        for b in 0..self.blocks {
            let w0 = b * LANES;
            let w1 = (w0 + LANES).min(self.words);
            let block = &mut out[w0..w1];
            let live = block.iter().fold(0u64, |acc, &w| acc | w);
            if live == 0 {
                continue;
            }
            if bmax[b] < t {
                block.fill(0);
                continue;
            }
            if bmin[b] >= t {
                any |= live;
                continue;
            }
            let lo = w0 * 64;
            let hi = (w1 * 64).min(self.n);
            if kernel::and_ge_mask(&col[lo..hi], t, block) {
                any |= 1;
            }
        }
        any != 0
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
}
