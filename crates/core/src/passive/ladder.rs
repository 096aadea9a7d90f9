//! Dimension-generic chain-ladder sparsification of the classifier
//! network.
//!
//! The paper's Section-5.1 construction inserts one infinite type-3 edge
//! per dominating pair in `P₀^con × P₁^con` — `Θ(n²)` edges at any
//! dimension. `sparse.rs` removes the wall for `d ≤ 2` with a
//! divide-and-conquer ladder; this module removes it for **every**
//! dimension using the paper's own Lemma-6 machinery:
//!
//! 1. Run a minimum chain decomposition on the label-1 points
//!    (bitset Hopcroft–Karp over a [`RankOracle`]'s on-demand rows).
//!    This yields `w` chains `o_{c,0} ⪯ o_{c,1} ⪯ …`, `w` the dominance
//!    width of `P₁`.
//! 2. Per chain, build a rung ladder of auxiliary nodes: `a_i → o_{c,i}`
//!    and `a_i → a_{i-1}`, all [`Capacity::Infinite`], so `a_i` reaches
//!    exactly the chain prefix `o_{c,0..=i}`.
//! 3. Per 0-point `p` and chain `c`, the set of chain elements `p`
//!    dominates is a **prefix** (chains are ascending and `⪰` is
//!    transitive), so one binary search over the chain order —
//!    comparing [`RankTable`] rank columns, `O(d log n)` — finds the
//!    deepest dominated element; a single edge `p → a_{deepest}` then
//!    reproduces every dense edge `p → o` into that chain.
//!
//! Cut preservation: every gadget edge is infinite, so no finite cut
//! gains or loses weight; and a 0-node reaches a 1-node through the
//! gadget iff it dominates it, so the *reachability* relation between
//! finite-capacity edges — which is what determines which finite cuts
//! separate source from sink — is exactly that of the dense network.
//! Min cuts (and hence Lemma-16/17 classifier readouts) coincide.
//!
//! Cost after the decomposition: one head query per 0-point (below)
//! plus one `O(d log n)` search per chain it hits, so `O(w·n·log n)` in
//! the worst case, and at most `2·|P₁^con| + w·|P₀^con|` gadget edges
//! versus up to `|P₀^con|·|P₁^con|` dense edges.
//!
//! The pipeline is **matrix-free**: only the `O(d·n log n)`
//! [`RankTable`] over all points plus a [`RankOracle`] gathered from its
//! label-1 rows, whose Lemma-6 split-graph rows are computed on demand
//! (`O(d·|P₁|)` resident — no quadratic structure at any subset size).
//! The same binary searches that place the zero→rung edges double as
//! Lemma-15 contending discovery: a 0-point contends iff some chain
//! search returns a non-empty prefix, and the contending 1-points of
//! chain `c` are exactly its prefix up to the deepest rung any 0-point
//! reaches.
//!
//! The zero sweep fans out over
//! `parallel_chunks`, and a [`HeadQuery`] over the `w` chain heads finds
//! the chains a zero hits before any binary search runs. Each worker
//! first screens its zeros in blocks of [`SWEEP_BLOCK`], one pass per
//! rank column: a zero must be at or above the lowest head on every
//! dimension, and its rank sum `Σ_k rank_k` must reach the least rank
//! sum over the heads. The sum bound is sound because a head `h ⪯ z`
//! has `rank_k(h) ≤ rank_k(z)` on every `k`, so `Σ_k rank_k(h) ≤
//! Σ_k rank_k(z)`: a zero below every head's sum dominates no head.
//! The zeros that pass both go to the head query: `d` bucket lookups
//! count `c_k`, the heads at or below the zero on dimension `k`; `d²`
//! prefix minima reject a zero that no head lies below on some pair of
//! dimensions; and for the rest one bitset over the smallest prefix is
//! narrowed on the other dimensions. That is `d` adds per zero, `O(d²)`
//! work for the zeros the screen lets through and `O(d·c_min/64)` word
//! operations for the few that reach the narrowing, instead of `w` head
//! tests, and it is what carries the `n = 10⁷` scale solves of
//! [`super::scale`], where almost every zero dominates no head.

use crate::passive::contending::ContendingPoints;
use crate::passive::sparse::ClassifierNetwork;
use mc_chains::ChainDecomposition;
use mc_flow::{Capacity, FlowNetwork, NodeId};
use mc_geom::kernel::{and_ge_mask, ones_mask_into};
use mc_geom::{parallel_chunks, Label, RankOracle, RankTable, WeightedSet};
use mc_obs::{CancelToken, Cancelled, Checkpoint};

/// The chain heads a point dominates, answered from per-dimension sorted
/// head ranks, a prefix-min reject and one bitset narrowing.
///
/// For each dimension `k` the heads are kept sorted by their rank on
/// `k`. A point `p` with rank `r_k` on `k` dominates, on that dimension,
/// exactly the first `c_k` heads of the `k` order. First,
/// [`HeadQuery::screen`] retires whole blocks of points column by
/// column: a point below the lowest head on some `k` (`c_k = 0`)
/// dominates no head, and neither does one whose rank sum is below
/// `min_sum`, the least over the heads. For the rest a bucket
/// table finds each `c_k` in `O(1)` expected: `4w` buckets of `2^s`
/// ranks each, where `base[b]` counts the heads with rank `< b·2^s`, so
/// `c_k` is `base[b]` plus a search inside bucket `b` of `r_k + 1`.
/// Next, `pmin[k][j][i]`, the least rank on `j` among the first `i + 1`
/// heads of the `k` order, rejects `p` when `pmin[k][j][c_k − 1] > r_j`
/// for some `k ≠ j`: no head is at or below `p` on both `k` and `j`. Each
/// count is tested against those before it as soon as it is known.
/// Otherwise the query starts from the all-ones bitset over the shortest
/// prefix and narrows it with [`and_ge_mask`] on every other dimension
/// that some head fails (`c_j < w`). The narrowing compares reversed
/// ranks (`u32::MAX − rank`), stored per dimension in each `k` order, so
/// `rank_j(head) ≤ r_j` becomes the kernel's `≥ u32::MAX − r_j`.
///
/// Layout: `d·w` chain indices and sorted ranks, `d·(4w + 1)` bucket
/// bases, and `d²·w` reversed ranks and `d²·w` prefix minima, all `u32`,
/// plus the `u64` `min_sum`.
struct HeadQuery {
    dim: usize,
    width: usize,
    /// `order[k·w + i]`: chain of the `i`-th head in ascending `k` rank.
    order: Vec<u32>,
    /// `sorted[k·w + i]`: that head's rank on `k` (ascending in `i`).
    sorted: Vec<u32>,
    /// `shift[k]`: the bucket width on `k` is `2^shift[k]` ranks.
    shift: Vec<u32>,
    /// `base[k·(4w + 1) + b]`: how many heads rank `< b·2^shift[k]` on
    /// `k`. The buckets cover every head rank, so the trailing entries
    /// are `w`.
    base: Vec<u32>,
    /// `reversed[(k·d + j)·w + i]`: `u32::MAX − rank_j` of the `i`-th
    /// head in `k` order.
    reversed: Vec<u32>,
    /// `pmin[(k·w + i)·d + j]`: the least `rank_j` among the first
    /// `i + 1` heads in `k` order. The `d` minima of one prefix share a
    /// cache line, so a reject test costs one miss per dimension.
    pmin: Vec<u32>,
    /// The least rank sum `Σ_k rank_k(h)` over the heads `h`. It is a
    /// `u64` because gathered subsets keep sparse parent ranks up to
    /// `u32::MAX`, so `d` ranks overflow a `u32`.
    min_sum: u64,
}

/// How far a point's head query got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadHits {
    /// The prefix minima show that no head is at or below the point on
    /// some pair of dimensions.
    Rejected,
    /// The bitset narrowing ran; its hits (maybe none) are in `out`.
    Narrowed,
}

/// Per-worker scratch for [`HeadQuery::dominated_heads`].
#[derive(Default)]
struct HeadScratch {
    counts: Vec<usize>,
    row: Vec<u64>,
}

/// Buckets per head in a [`HeadQuery`] bucket table.
const BUCKETS_PER_HEAD: u64 = 4;

/// Zeros per [`HeadQuery::screen`] block in [`sweep_zeros`].
const SWEEP_BLOCK: usize = 1024;

/// `Σ_k rank_k(p)` over the rank columns `cols`.
fn rank_sum(cols: &[&[u32]], p: usize) -> u64 {
    cols.iter().map(|col| u64::from(col[p])).sum()
}

impl HeadQuery {
    /// Indexes the heads `heads[c]` (point ids into `cols`) of chains
    /// `c = 0..w`, `w ≥ 1`.
    fn new(cols: &[&[u32]], heads: &[usize]) -> Self {
        let dim = cols.len();
        let width = heads.len();
        let mut order = Vec::with_capacity(dim * width);
        let mut sorted = Vec::with_capacity(dim * width);
        let mut shift = Vec::with_capacity(dim);
        let buckets = BUCKETS_PER_HEAD * width as u64;
        let mut base = Vec::with_capacity(dim * (buckets as usize + 1));
        let mut reversed = Vec::with_capacity(dim * dim * width);
        let mut pmin = Vec::with_capacity(dim * dim * width);
        let mut by_rank: Vec<u32> = (0..width as u32).collect();
        for col in cols {
            by_rank.sort_by_key(|&c| col[heads[c as usize]]);
            order.extend_from_slice(&by_rank);
            let ranks: Vec<u32> = by_rank.iter().map(|&c| col[heads[c as usize]]).collect();
            // The narrowest buckets of `2^s` ranks of which `4w` cover
            // ranks 0..=max.
            let max = u64::from(ranks[width - 1]);
            let s = (0..32).find(|&s| max >> s < buckets).unwrap_or(32);
            let mut i = 0;
            for b in 0..=buckets {
                while i < width && u64::from(ranks[i]) < b << s {
                    i += 1;
                }
                base.push(i as u32);
            }
            shift.push(s);
            sorted.extend_from_slice(&ranks);
            let mut least = vec![u32::MAX; dim];
            for &c in &by_rank {
                for (m, other) in least.iter_mut().zip(cols) {
                    *m = (*m).min(other[heads[c as usize]]);
                }
                pmin.extend_from_slice(&least);
            }
            for other in cols {
                reversed.extend(by_rank.iter().map(|&c| u32::MAX - other[heads[c as usize]]));
            }
        }
        let min_sum = heads
            .iter()
            .map(|&h| rank_sum(cols, h))
            .min()
            .expect("a head query needs at least one head");
        Self {
            dim,
            width,
            order,
            sorted,
            shift,
            base,
            reversed,
            pmin,
            min_sum,
        }
    }

    /// Screens the points `block` one rank column at a time, with no
    /// branch per point: `floor[i]` says whether `block[i]` is at or
    /// above the lowest head on every dimension, and `sums[i]` is its
    /// rank sum. Both slices must be `block.len()` long. A point fails
    /// [`dominated_heads`](Self::dominated_heads) unless its floor flag
    /// is set and its sum is at least `min_sum`.
    fn screen(&self, cols: &[&[u32]], block: &[usize], floor: &mut [bool], sums: &mut [u64]) {
        floor.fill(true);
        sums.fill(0);
        for (k, col) in cols.iter().enumerate() {
            let lowest = self.sorted[k * self.width];
            for ((f, s), &p) in floor.iter_mut().zip(sums.iter_mut()).zip(block) {
                let r = col[p];
                *s += u64::from(r);
                *f &= r >= lowest;
            }
        }
    }

    /// `c_k`: how many heads rank at or below `r` on dimension `k`.
    fn count_at_or_below(&self, k: usize, r: u32) -> usize {
        let w = self.width;
        let sorted = &self.sorted[k * w..(k + 1) * w];
        if r >= sorted[w - 1] {
            return w;
        }
        // The heads ranked below `t = r + 1`; `t ≤` the largest head
        // rank, so its bucket and the next base exist.
        let t = r + 1;
        let stride = BUCKETS_PER_HEAD as usize * w + 1;
        let base = &self.base[k * stride..(k + 1) * stride];
        let b = (t >> self.shift[k]) as usize;
        let (lo, hi) = (base[b] as usize, base[b + 1] as usize);
        lo + sorted[lo..hi].partition_point(|&x| x < t)
    }

    /// Whether no head among the `ck ≥ 1` at or below `p` on dimension
    /// `k` is at or below `r`, `p`'s rank, on dimension `j`. A full
    /// prefix never excludes: with `c_j ≥ 1` some head is at or below
    /// `p` on `j`.
    fn excludes(&self, k: usize, ck: usize, j: usize, r: u32) -> bool {
        let (w, d) = (self.width, self.dim);
        ck < w && self.pmin[(k * w + ck - 1) * d + j] > r
    }

    /// Appends to `out`, in ascending chain order, every chain whose head
    /// point `p` dominates, and says how far the query got: `out` is
    /// touched only when the bitset narrowing ran. `p` must be at or
    /// above the lowest head on every dimension, as the floor flag of
    /// [`screen`](Self::screen) says, so that every `c_k ≥ 1`.
    fn dominated_heads(
        &self,
        cols: &[&[u32]],
        p: usize,
        scratch: &mut HeadScratch,
        out: &mut Vec<u32>,
    ) -> HeadHits {
        let (w, d) = (self.width, self.dim);
        scratch.counts.clear();
        let mut best = 0;
        for (k, col) in cols.iter().enumerate() {
            let ck = self.count_at_or_below(k, col[p]);
            for (j, &cj) in scratch.counts.iter().enumerate() {
                if self.excludes(k, ck, j, cols[j][p]) || self.excludes(j, cj, k, col[p]) {
                    return HeadHits::Rejected;
                }
            }
            scratch.counts.push(ck);
            // Strict `<`: the lowest dimension wins ties.
            if ck < scratch.counts[best] {
                best = k;
            }
        }
        let len = scratch.counts[best];
        let row = &mut scratch.row;
        row.clear();
        row.resize(len.div_ceil(64), 0);
        ones_mask_into(len, row);
        for (j, (&c, col)) in scratch.counts.iter().zip(cols).enumerate() {
            if j == best || c == w {
                continue;
            }
            let base = (best * d + j) * w;
            if !and_ge_mask(&self.reversed[base..base + len], u32::MAX - col[p], row) {
                return HeadHits::Narrowed;
            }
        }
        let start = out.len();
        let order = &self.order[best * w..(best + 1) * w];
        for (wi, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(order[wi * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        out[start..].sort_unstable();
        HeadHits::Narrowed
    }
}

/// What the zero sweep learns: each zero that hits some chain, as its
/// position in the swept list with its `(chain, dominated-prefix
/// length)` hits in ascending chain order, plus the deepest prefix any
/// zero reaches per chain.
#[derive(Default)]
struct Sweep {
    hits: Vec<(usize, Vec<(u32, u32)>)>,
    max_cnt: Vec<usize>,
    /// How far the zeros got: at or above the lowest head on every
    /// dimension (`candidates`), retired by the rank-sum bound among
    /// those (`summed`), and through to the bitset narrowing
    /// (`narrowed`). The reference sweep in the tests leaves them 0.
    candidates: u64,
    summed: u64,
    narrowed: u64,
}

/// The ladder's zero sweep: for every `zeros[zi]`, the
/// chains whose head it dominates come from one [`HeadQuery`] (after
/// its block screen), and a binary search on each of those chains finds
/// its dominated prefix. Chain entries are positions into `ones`; both
/// `zeros` and `ones` hold point ids into the rank columns `cols`.
/// Chunk results concatenate in index order, so the output equals a
/// sequential sweep's.
fn sweep_zeros(
    cols: &[&[u32]],
    zeros: &[usize],
    ones: &[usize],
    chains: &[Vec<usize>],
    token: &CancelToken,
) -> Result<Sweep, Cancelled> {
    let _span = mc_obs::span("ladder_sweep");
    let dominates = |p: usize, q: usize| cols.iter().all(|c| c[p] >= c[q]);
    let heads: Vec<usize> = chains.iter().map(|chain| ones[chain[0]]).collect();
    let query = HeadQuery::new(cols, &heads);
    let width = chains.len();
    let chunks: Vec<Sweep> = parallel_chunks(zeros.len(), |range| {
        let mut out = Sweep {
            max_cnt: vec![0; width],
            ..Sweep::default()
        };
        let mut scratch = HeadScratch::default();
        let mut hit_chains = Vec::new();
        let mut floor = [false; SWEEP_BLOCK];
        let mut sums = [0u64; SWEEP_BLOCK];
        // Every worker passes the same global total (one unit per zero),
        // so `progress.ladder_sweep.frac` is exact for the sweep.
        let mut cp = Checkpoint::with_progress(token, "ladder_sweep", zeros.len() as u64);
        let first = range.start;
        for (b, block) in zeros[range].chunks(SWEEP_BLOCK).enumerate() {
            if cp.tick(block.len() as u64).is_err() {
                break; // partial chunk; the caller polls and bails
            }
            let (floor, sums) = (&mut floor[..block.len()], &mut sums[..block.len()]);
            query.screen(cols, block, floor, sums);
            for (i, &p) in block.iter().enumerate() {
                if !floor[i] {
                    continue;
                }
                out.candidates += 1;
                if sums[i] < query.min_sum {
                    out.summed += 1;
                    continue;
                }
                hit_chains.clear();
                if query.dominated_heads(cols, p, &mut scratch, &mut hit_chains)
                    == HeadHits::Narrowed
                {
                    out.narrowed += 1;
                }
                if hit_chains.is_empty() {
                    continue;
                }
                let hits: Vec<(u32, u32)> = hit_chains
                    .iter()
                    .map(|&c| {
                        let chain = &chains[c as usize];
                        // Ascending chain ⇒ "p dominates chain[i]" holds
                        // on a prefix, and the head is already known
                        // dominated.
                        let cnt =
                            1 + chain[1..].partition_point(|&local| dominates(p, ones[local]));
                        out.max_cnt[c as usize] = out.max_cnt[c as usize].max(cnt);
                        (c, cnt as u32)
                    })
                    .collect();
                out.hits.push((first + b * SWEEP_BLOCK + i, hits));
            }
        }
        out
    });
    token.poll()?;
    let mut sweep = Sweep {
        max_cnt: vec![0; width],
        ..Sweep::default()
    };
    for chunk in chunks {
        sweep.hits.extend(chunk.hits);
        for (m, l) in sweep.max_cnt.iter_mut().zip(chunk.max_cnt) {
            *m = (*m).max(l);
        }
        sweep.candidates += chunk.candidates;
        sweep.summed += chunk.summed;
        sweep.narrowed += chunk.narrowed;
    }
    mc_obs::counter_add("passive.sweep_candidates", sweep.candidates);
    mc_obs::counter_add("passive.sweep_summed", sweep.summed);
    mc_obs::counter_add("passive.sweep_narrowed", sweep.narrowed);
    Ok(sweep)
}

/// The zero sweep's signature; the builder takes it as a parameter so
/// the tests can run it over a reference sweep.
type SweepFn =
    fn(&[&[u32]], &[usize], &[usize], &[Vec<usize>], &CancelToken) -> Result<Sweep, Cancelled>;

/// Wires the gadget into `net`: per chain `c`, a rung ladder over the
/// first `sweep.max_cnt[c]` elements, the prefix some zero reaches
/// (`rungs[c][i]` reaches elements `0..=i`), then one infinite `zero →
/// rung` edge per sweep hit, into the rung of the deepest dominated
/// element. `one_node(local)` names the node of chain entry `local`, and
/// `zero_nodes[k]` that of the `k`-th hitting zero.
fn wire_ladder(
    net: &mut FlowNetwork,
    chains: &[Vec<usize>],
    one_node: impl Fn(usize) -> NodeId,
    sweep: &Sweep,
    zero_nodes: &[NodeId],
    token: &CancelToken,
) -> Result<(), Cancelled> {
    let mut rungs: Vec<Vec<NodeId>> = Vec::with_capacity(chains.len());
    let mut rung_edges = 0u64;
    for (chain, &len) in chains.iter().zip(&sweep.max_cnt) {
        let mut ladder: Vec<NodeId> = Vec::with_capacity(len);
        for (i, &local) in chain[..len].iter().enumerate() {
            let a = net.add_node();
            net.add_edge(a, one_node(local), Capacity::Infinite);
            if i > 0 {
                net.add_edge(a, ladder[i - 1], Capacity::Infinite);
            }
            ladder.push(a);
        }
        rung_edges += (2 * ladder.len()).saturating_sub(1) as u64;
        rungs.push(ladder);
    }
    debug_assert_eq!(zero_nodes.len(), sweep.hits.len());
    let total: u64 = sweep.hits.iter().map(|(_, h)| h.len() as u64).sum();
    let mut cp = Checkpoint::with_progress(token, "ladder_wire", total);
    for (&zero, (_, hits)) in zero_nodes.iter().zip(&sweep.hits) {
        for &(c, cnt) in hits {
            cp.tick(1)?;
            net.add_edge(
                zero,
                rungs[c as usize][cnt as usize - 1],
                Capacity::Infinite,
            );
        }
    }
    mc_obs::counter_add("passive.ladder_chains", chains.len() as u64);
    mc_obs::counter_add("passive.ladder_rungs", rung_edges);
    Ok(())
}

/// Matrix-free ladder pipeline: contending discovery *and* network
/// construction without ever building the `Θ(n²)` full-set
/// [`mc_geom::DominanceIndex`]. Returns the Lemma-15 contending sets (both
/// ascending) and, when they are non-empty, the sparsified network over
/// exactly those points — identical min cut to the paper-literal dense
/// network over the same contending sets.
#[cfg(test)]
pub(crate) fn discover_and_build(
    data: &WeightedSet,
) -> (ContendingPoints, Option<ClassifierNetwork>) {
    discover_and_build_cancellable(data, &CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// Cancellable twin of [`discover_and_build`]: builds the `O(d·n)`
/// [`RankTable`] and delegates to the table-based pipeline.
pub(crate) fn discover_and_build_cancellable(
    data: &WeightedSet,
    token: &CancelToken,
) -> Result<(ContendingPoints, Option<ClassifierNetwork>), Cancelled> {
    let table = RankTable::try_build(data.points(), token)?;
    let out =
        discover_and_build_from_table_cancellable(&table, data.labels(), data.weights(), token)?;
    Ok((out.con, out.network))
}

/// Everything the matrix-free discovery learns in one pass: the
/// Lemma-15 contending sets, the ladder network over them (when any
/// contention exists), and the dominance width of the label-1 points
/// (the scale benches record it, and the parity harness checks it
/// against the matrix path bit for bit).
pub(crate) struct LadderOutcome {
    pub con: ContendingPoints,
    pub network: Option<ClassifierNetwork>,
    pub width: usize,
}

/// The matrix-free ladder pipeline off prebuilt rank columns. This is
/// the only spelling the streaming scale path can use (coordinates may
/// never have been resident all at once — see [`super::scale`]), and
/// the [`WeightedSet`] entry points delegate here.
///
/// No `Θ(n²/64)` structure exists anywhere in this path: the Lemma-6
/// matching runs over a [`RankOracle`] gathered from the table's
/// label-1 rows (`O(d·|P₁|)` resident, rows computed on demand and
/// bit-identical to the dominator matrix's), and the zero sweep is one
/// [`HeadQuery`] per zero plus binary searches on the chains it hits.
/// The sweep fans out over `parallel_chunks`; chunk results concatenate
/// in index order, so the contending sets, the network, and hence the
/// min cut are identical to the sequential pipeline.
pub(crate) fn discover_and_build_from_table_cancellable(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    token: &CancelToken,
) -> Result<LadderOutcome, Cancelled> {
    discover_with(table, labels, weights, token, sweep_zeros)
}

fn discover_with(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    token: &CancelToken,
    sweep: SweepFn,
) -> Result<LadderOutcome, Cancelled> {
    let _span = mc_obs::span("ladder");
    token.poll()?; // small inputs may never reach a checkpoint
    debug_assert_eq!(table.len(), labels.len());
    debug_assert_eq!(labels.len(), weights.len());
    let mut zeros = Vec::new();
    let mut ones = Vec::new();
    for (i, &label) in labels.iter().enumerate() {
        match label {
            Label::Zero => zeros.push(i),
            Label::One => ones.push(i),
        }
    }
    let empty = ContendingPoints {
        zeros: Vec::new(),
        ones: Vec::new(),
    };
    if zeros.is_empty() || ones.is_empty() {
        // Width 0 here means "the decomposition never ran" — with no
        // contention possible, nothing downstream reads it.
        return Ok(LadderOutcome {
            con: empty,
            network: None,
            width: 0,
        });
    }

    // Lemma 6 on the label-1 points, matrix-free: gathering rank
    // columns preserves per-dimension order (and equality), so the
    // oracle's on-demand rows — and with them the matching, chains, and
    // width — are bit-identical to a dominator matrix over the subset.
    let oracle = RankOracle::try_from_table_subset(table, &ones, token)?;
    let dec = ChainDecomposition::compute_from_oracle_cancellable(&oracle, token)?;

    // The sweep's deepest dominated prefix per chain places each rung
    // edge *and* answers Lemma 15: a zero contends iff it hits some
    // chain, and chain `c`'s contending 1-points are its prefix up to
    // the deepest rung any zero reaches.
    let cols: Vec<&[u32]> = (0..table.dim()).map(|k| table.column(k)).collect();
    let sweep = sweep(&cols, &zeros, &ones, dec.chains(), token)?;
    let width = dec.width();

    let _wire = mc_obs::span("ladder_wire");
    let con_zeros: Vec<usize> = sweep.hits.iter().map(|&(zi, _)| zeros[zi]).collect();
    let mut con_ones: Vec<usize> = dec
        .chains()
        .iter()
        .zip(&sweep.max_cnt)
        .flat_map(|(chain, &cnt)| chain[..cnt].iter().map(|&local| ones[local]))
        .collect();
    con_ones.sort_unstable();
    if con_zeros.is_empty() {
        return Ok(LadderOutcome {
            con: empty,
            network: None,
            width,
        });
    }

    let source = 0;
    let sink = 1;
    let mut net = FlowNetwork::new(2 + con_zeros.len() + con_ones.len(), source, sink);
    let zero_nodes: Vec<NodeId> = (0..con_zeros.len()).map(|i| 2 + i).collect();
    let one_nodes: Vec<NodeId> = (0..con_ones.len())
        .map(|i| 2 + con_zeros.len() + i)
        .collect();
    for (zi, &p) in con_zeros.iter().enumerate() {
        net.add_edge(source, zero_nodes[zi], weights[p]);
    }
    let mut one_pos = vec![u32::MAX; labels.len()];
    for (oi, &q) in con_ones.iter().enumerate() {
        net.add_edge(one_nodes[oi], sink, weights[q]);
        one_pos[q] = oi as u32;
    }

    // Rung ladders truncated to the reached prefix of each chain.
    wire_ladder(
        &mut net,
        dec.chains(),
        |local| one_nodes[one_pos[ones[local]] as usize],
        &sweep,
        &zero_nodes,
        token,
    )?;

    let con = ContendingPoints {
        zeros: con_zeros,
        ones: con_ones,
    };
    let network = ClassifierNetwork {
        net,
        zero_nodes,
        one_nodes,
    };
    Ok(LadderOutcome {
        con,
        network: Some(network),
        width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::brute::build_dense_network;
    use mc_flow::{Dinic, MaxFlowAlgorithm};
    use mc_geom::{DominanceIndex, Label};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weighted(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> WeightedSet {
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect();
            ws.push(
                &coords,
                Label::from_bool(rng.gen_bool(0.5)),
                rng.gen_range(1..10) as f64,
            );
        }
        ws
    }

    /// Reference sweep without [`HeadQuery`]: a per-dimension floor over
    /// the head ranks, then a dominance test against every head. The
    /// builders are diffed against it.
    fn reference_sweep(
        cols: &[&[u32]],
        zeros: &[usize],
        ones: &[usize],
        chains: &[Vec<usize>],
        _token: &CancelToken,
    ) -> Result<Sweep, Cancelled> {
        let dominates = |p: usize, q: usize| cols.iter().all(|c| c[p] >= c[q]);
        let heads: Vec<usize> = chains.iter().map(|chain| ones[chain[0]]).collect();
        let mut head_floor = vec![u32::MAX; cols.len()];
        for &h in &heads {
            for (k, col) in cols.iter().enumerate() {
                head_floor[k] = head_floor[k].min(col[h]);
            }
        }
        let mut sweep = Sweep {
            max_cnt: vec![0; chains.len()],
            ..Sweep::default()
        };
        for (zi, &p) in zeros.iter().enumerate() {
            if cols
                .iter()
                .zip(&head_floor)
                .any(|(col, &floor)| col[p] < floor)
            {
                continue;
            }
            let mut hits = Vec::new();
            for (c, chain) in chains.iter().enumerate() {
                if !dominates(p, heads[c]) {
                    continue;
                }
                let cnt = 1 + chain[1..].partition_point(|&local| dominates(p, ones[local]));
                hits.push((c as u32, cnt as u32));
                sweep.max_cnt[c] = sweep.max_cnt[c].max(cnt);
            }
            if !hits.is_empty() {
                sweep.hits.push((zi, hits));
            }
        }
        Ok(sweep)
    }

    fn edge_list(net: &FlowNetwork) -> Vec<(NodeId, NodeId, Capacity)> {
        (0..net.num_edges())
            .map(|e| {
                let (u, v) = net.endpoints(2 * e);
                (u, v, net.capacity(2 * e))
            })
            .collect()
    }

    /// What a head query over `heads` must answer for `p`, by brute
    /// force: the dominated heads, and how far the query gets (`None`
    /// when `p` is below every head on some dimension, so the screen's
    /// floor flag must be clear).
    fn naive_head_scan(cols: &[&[u32]], heads: &[usize], p: usize) -> (Vec<u32>, Option<HeadHits>) {
        let at_or_below = |k: usize, h: usize| cols[k][h] <= cols[k][p];
        let dim = cols.len();
        let hits = (0..heads.len() as u32)
            .filter(|&c| (0..dim).all(|k| at_or_below(k, heads[c as usize])))
            .collect();
        let outcome = if (0..dim).any(|k| !heads.iter().any(|&h| at_or_below(k, h))) {
            None
        } else if (0..dim).any(|k| {
            (0..dim).any(|j| {
                j != k
                    && !heads
                        .iter()
                        .any(|&h| at_or_below(k, h) && at_or_below(j, h))
            })
        }) {
            Some(HeadHits::Rejected)
        } else {
            Some(HeadHits::Narrowed)
        };
        (hits, outcome)
    }

    #[test]
    fn head_query_matches_naive_head_scan() {
        let mut rng = StdRng::seed_from_u64(0x4EAD);
        let mut seen = [0usize; 3];
        for dim in 1..=6usize {
            for w in [1usize, 2, 63, 64, 65, 255, 256, 257, 1200] {
                // Spread 1 makes every head rank equal, 4 makes most
                // heads duplicates of one another, and 64 spreads them
                // over many buckets. Offset 2^20 packs every head into
                // one bucket, far above rank 0.
                for (spread, offset) in [(1u32, 0u32), (4, 0), (64, 0), (4, 1 << 20), (64, 1 << 20)]
                {
                    // Points 0..w are the heads, the next 200 are
                    // queries. Head ranks start at offset + 1, so a
                    // query at offset or below lies below every head.
                    let n = w + 200;
                    let mut cols_owned: Vec<Vec<u32>> = (0..dim)
                        .map(|_| {
                            (0..n)
                                .map(|i| {
                                    offset
                                        + if i < w {
                                            rng.gen_range(1..=spread)
                                        } else {
                                            rng.gen_range(0..=spread + 1)
                                        }
                                })
                                .collect()
                        })
                        .collect();
                    for col in &mut cols_owned {
                        col[w - 1] = col[0]; // a duplicate head
                        col[w] = col[0]; // a query equal to a head
                        col[w + 1] = 0; // a query below every head
                        col[w + 2] = offset + spread + 1; // above every head
                        col[w + 3] = u32::MAX - 1;
                    }
                    let cols: Vec<&[u32]> = cols_owned.iter().map(Vec::as_slice).collect();
                    let heads: Vec<usize> = (0..w).collect();
                    let query = HeadQuery::new(&cols, &heads);
                    assert_eq!(
                        Some(query.min_sum),
                        heads.iter().map(|&h| rank_sum(&cols, h)).min()
                    );
                    let mut scratch = HeadScratch::default();
                    let mut got = Vec::new();
                    let block: Vec<usize> = (0..w.min(100)).chain(w..n).collect();
                    let mut floor = vec![false; block.len()];
                    let mut sums = vec![0; block.len()];
                    query.screen(&cols, &block, &mut floor, &mut sums);
                    for (i, &p) in block.iter().enumerate() {
                        let (naive, expected) = naive_head_scan(&cols, &heads, p);
                        let what = format!("dim {dim} w {w} spread {spread} offset {offset} p {p}");
                        assert_eq!(floor[i], expected.is_some(), "{what}");
                        assert_eq!(sums[i], rank_sum(&cols, p), "{what}");
                        // The screen may only retire points that hit nothing.
                        assert!(naive.is_empty() || sums[i] >= query.min_sum, "{what}");
                        let Some(expected) = expected else {
                            seen[0] += 1;
                            continue;
                        };
                        got.clear();
                        let outcome = query.dominated_heads(&cols, p, &mut scratch, &mut got);
                        assert_eq!(outcome, expected, "{what}");
                        assert_eq!(got, naive, "{what}");
                        seen[1 + outcome as usize] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&count| count > 100), "outcomes {seen:?}");
    }

    #[test]
    fn builders_match_the_reference_sweep_edge_for_edge() {
        let never = CancelToken::never();
        let mut rng = StdRng::seed_from_u64(0x1AE0);
        for dim in [4usize, 5] {
            let ws = random_weighted(1200, dim, 1e6, &mut rng);

            let table = RankTable::build(ws.points());
            let fast = discover_and_build_from_table_cancellable(
                &table,
                ws.labels(),
                ws.weights(),
                &never,
            )
            .unwrap();
            let slow =
                discover_with(&table, ws.labels(), ws.weights(), &never, reference_sweep).unwrap();
            assert!(
                fast.width > 64,
                "dim {dim}: width {} fits one word",
                fast.width
            );
            assert_eq!(fast.width, slow.width);
            assert_eq!(
                (&fast.con.zeros, &fast.con.ones),
                (&slow.con.zeros, &slow.con.ones)
            );
            let (fast_net, slow_net) = (fast.network.unwrap(), slow.network.unwrap());
            assert_eq!(
                edge_list(&fast_net.net),
                edge_list(&slow_net.net),
                "dim {dim}"
            );
        }
    }

    /// Label 1 iff the coordinate sum is above `cut`, except within
    /// `band` of it, where the label is a coin flip: zeros and ones
    /// separate by rank sum, as on the scale inputs, so the sum bound
    /// retires most zeros.
    fn threshold_weighted(
        n: usize,
        dim: usize,
        grid: f64,
        band: f64,
        rng: &mut StdRng,
    ) -> WeightedSet {
        let cut = dim as f64 * grid / 2.0;
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect();
            let sum: f64 = coords.iter().sum();
            let one = if (sum - cut).abs() <= band {
                rng.gen_bool(0.5)
            } else {
                sum > cut
            };
            ws.push(&coords, Label::from_bool(one), rng.gen_range(1..10) as f64);
        }
        ws
    }

    /// The ids of the label-0 and label-1 points, ascending.
    fn split_labels(labels: &[Label]) -> (Vec<usize>, Vec<usize>) {
        (0..labels.len()).partition(|&i| labels[i] == Label::Zero)
    }

    #[test]
    fn rank_sum_screen_matches_the_reference_sweep_at_its_boundary() {
        let never = CancelToken::never();
        let mut rng = StdRng::seed_from_u64(0x5C4E);
        for dim in [3usize, 4, 5] {
            let mut ws = threshold_weighted(3000, dim, 1000.0, 150.0, &mut rng);
            let table = RankTable::build(ws.points());
            let cols: Vec<&[u32]> = (0..dim).map(|k| table.column(k)).collect();
            let (_, ones) = split_labels(ws.labels());
            let oracle = RankOracle::try_from_table_subset(&table, &ones, &never).unwrap();
            let dec = ChainDecomposition::compute_from_oracle_cancellable(&oracle, &never).unwrap();
            assert!(
                dec.width() > 64,
                "dim {dim}: width {} fits one word",
                dec.width()
            );
            let heads: Vec<usize> = dec.chains().iter().map(|c| ones[c[0]]).collect();
            let head = *heads.iter().min_by_key(|&&h| rank_sum(&cols, h)).unwrap();
            let min_sum = rank_sum(&cols, head);

            // Plant two zeros at the bound: a copy of the least-sum head
            // (sum = min_sum, and it dominates that head), and that copy
            // one rank lower on a dimension where it stays at or above
            // every head's floor (sum = min_sum − 1). Neither adds a
            // distinct coordinate, so no rank moves and the ones' chains
            // stay the same.
            let floor = |k: usize| heads.iter().map(|&h| cols[k][h]).min().unwrap();
            let k = (0..dim).max_by_key(|&k| cols[k][head] - floor(k)).unwrap();
            assert!(
                cols[k][head] > floor(k),
                "dim {dim}: the least-sum head is every floor"
            );
            let lower = (0..ws.len())
                .find(|&p| cols[k][p] == cols[k][head] - 1)
                .unwrap();
            let copy = ws.points().point(head).to_vec();
            let mut below = copy.clone();
            below[k] = ws.points().point(lower)[k];
            let planted = ws.len();
            ws.push(&copy, Label::Zero, 1.0);
            ws.push(&below, Label::Zero, 1.0);

            let table = RankTable::build(ws.points());
            let cols: Vec<&[u32]> = (0..dim).map(|k| table.column(k)).collect();
            assert_eq!(rank_sum(&cols, planted), min_sum, "dim {dim}");
            assert_eq!(rank_sum(&cols, planted + 1), min_sum - 1, "dim {dim}");
            let fast = discover_and_build_from_table_cancellable(
                &table,
                ws.labels(),
                ws.weights(),
                &never,
            )
            .unwrap();
            let slow =
                discover_with(&table, ws.labels(), ws.weights(), &never, reference_sweep).unwrap();
            assert_eq!(fast.width, dec.width());
            assert_eq!(
                (&fast.con.zeros, &fast.con.ones),
                (&slow.con.zeros, &slow.con.ones)
            );
            assert!(fast.con.zeros.contains(&planted), "dim {dim}");
            let (fast_net, slow_net) = (fast.network.unwrap(), slow.network.unwrap());
            assert_eq!(
                edge_list(&fast_net.net),
                edge_list(&slow_net.net),
                "dim {dim}"
            );

            // The same sweep with every rank shifted up to just below
            // `u32::MAX`, as sparse parent ranks of a gathered subset can
            // be: no comparison changes, but `d` ranks overflow a `u32`.
            let (zeros, ones) = split_labels(ws.labels());
            let top = cols.iter().flat_map(|c| c.iter()).max().unwrap();
            let shifted: Vec<Vec<u32>> = cols
                .iter()
                .map(|c| c.iter().map(|&r| r + (u32::MAX - top)).collect())
                .collect();
            let shifted: Vec<&[u32]> = shifted.iter().map(Vec::as_slice).collect();
            let fast = sweep_zeros(&shifted, &zeros, &ones, dec.chains(), &never).unwrap();
            let slow = reference_sweep(&shifted, &zeros, &ones, dec.chains(), &never).unwrap();
            assert_eq!(fast.hits, slow.hits, "dim {dim}");
            assert_eq!(fast.max_cnt, slow.max_cnt, "dim {dim}");
            assert!(
                fast.summed > 0 && fast.narrowed > 0,
                "dim {dim}: the sum bound and the narrowing must both fire \
                 ({} summed, {} narrowed)",
                fast.summed,
                fast.narrowed
            );
            assert!(fast.summed + fast.narrowed <= fast.candidates, "dim {dim}");
        }
    }

    #[test]
    fn ladder_edge_count_is_bounded() {
        // ≤ 2·|ones| rung edges + w·|zeros| connector edges + the
        // finite source/sink edges — and never more than dense + rungs.
        let mut rng = StdRng::seed_from_u64(0x1ADE);
        let ws = random_weighted(600, 3, 6.0, &mut rng);
        let table = RankTable::build(ws.points());
        let out = discover_and_build_from_table_cancellable(
            &table,
            ws.labels(),
            ws.weights(),
            &CancelToken::never(),
        )
        .unwrap();
        let (con, w) = (&out.con, out.width);
        let ladder = out.network.expect("grid data at n=600 must contend");
        let bound = con.len() + 2 * con.ones.len() + w * con.zeros.len();
        assert!(
            ladder.net.num_edges() <= bound,
            "ladder edges {} exceed O(w·n) bound {bound} (w = {w})",
            ladder.net.num_edges()
        );
        let index = DominanceIndex::build(ws.points());
        let dense = build_dense_network(&ws, con, &index);
        assert!(
            ladder.net.num_edges() <= dense.net.num_edges() + 2 * con.ones.len(),
            "ladder ({}) must never exceed dense ({}) by more than the rungs",
            ladder.net.num_edges(),
            dense.net.num_edges()
        );
    }

    #[test]
    fn discover_matches_generic_contending_and_dense_cut() {
        let mut rng = StdRng::seed_from_u64(0x1ADF);
        for dim in [1usize, 2, 3, 4] {
            for trial in 0..40 {
                let n = rng.gen_range(1..50);
                let ws = random_weighted(n, dim, 4.0, &mut rng);
                let index = DominanceIndex::build(ws.points());
                let reference = ContendingPoints::compute_generic(&ws);
                let (con, network) = discover_and_build(&ws);
                assert_eq!(
                    (con.zeros, con.ones),
                    (reference.zeros.clone(), reference.ones.clone()),
                    "dim {dim} trial {trial}: matrix-free Lemma 15 disagrees\n{ws:?}"
                );
                match network {
                    None => assert!(reference.is_empty()),
                    Some(ladder) => {
                        let dense = build_dense_network(&ws, &reference, &index);
                        let dv = Dinic.solve(&dense.net).value();
                        let lv = Dinic.solve(&ladder.net).value();
                        assert!(
                            (dv - lv).abs() < 1e-9,
                            "dim {dim} trial {trial}: dense {dv} vs discover {lv}\n{ws:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn discover_handles_one_sided_and_empty_inputs() {
        let mut all_ones = WeightedSet::empty(3);
        all_ones.push(&[0.0, 0.0, 0.0], Label::One, 1.0);
        all_ones.push(&[1.0, 1.0, 1.0], Label::One, 1.0);
        let (con, network) = discover_and_build(&all_ones);
        assert!(con.is_empty() && network.is_none());

        // Zeros and ones present but no dominating pair.
        let mut incomparable = WeightedSet::empty(2);
        incomparable.push(&[0.0, 1.0], Label::One, 1.0);
        incomparable.push(&[1.0, 0.0], Label::Zero, 1.0);
        let (con, network) = discover_and_build(&incomparable);
        assert!(con.is_empty() && network.is_none());

        let (con, network) = discover_and_build(&WeightedSet::empty(2));
        assert!(con.is_empty() && network.is_none());
    }

    #[test]
    fn duplicates_across_labels_contend_through_the_ladder() {
        // Equal coordinates, opposite labels: reflexive dominance must
        // wire the zero to the one through its chain.
        let mut ws = WeightedSet::empty(3);
        ws.push(&[2.0, 2.0, 2.0], Label::One, 7.0);
        ws.push(&[2.0, 2.0, 2.0], Label::Zero, 3.0);
        let (con, network) = discover_and_build(&ws);
        assert_eq!(
            (con.zeros.as_slice(), con.ones.as_slice()),
            (&[1][..], &[0][..])
        );
        let ladder = network.expect("the duplicates contend");
        assert_eq!(Dinic.solve(&ladder.net).value(), 3.0);
    }
}
