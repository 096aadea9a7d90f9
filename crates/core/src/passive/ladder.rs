//! Dimension-generic chain-ladder sparsification of the classifier
//! network.
//!
//! The paper's Section-5.1 construction inserts one infinite type-3 edge
//! per dominating pair in `P₀^con × P₁^con` — `Θ(n²)` edges at any
//! dimension. `sparse.rs` removes the wall for `d ≤ 2` with a
//! divide-and-conquer ladder; this module removes it for **every**
//! dimension using the paper's own Lemma-6 machinery, and
//! [`super::pipeline::solve_ranked`] runs it at `d ≥ 3`:
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
//!    comparing `p`'s [`RankTable`] ranks with the chain's ranks in the
//!    gathered [`RankOracle`], `O(d log n)` — finds the
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
//! The zero sweep fans out over point ranges with `parallel_chunks`,
//! and a [`HeadQuery`] over the `w` chain heads finds the chains a zero
//! hits before any binary search runs. Each worker streams its range of
//! the rank columns and the labels in blocks of [`SWEEP_BLOCK`] points,
//! one contiguous pass per column, with no branch per point. A zero must
//! be at or above the lowest head on every dimension (the floor), and its
//! clamped sum `Σ_k f_k(z)`, with `f_k(x) = min(x − lowest_k, cap)` and
//! `cap = ⌊u32::MAX/d⌋`, must reach the least clamped sum over the heads.
//! The `d` terms fit one `u32` together, and the bound is sound because
//! `f_k` is monotone: a head `h ⪯ z` has `rank_k(h) ≤ rank_k(z)` on every
//! `k`, so `Σ_k f_k(h) ≤ Σ_k f_k(z)`, and a zero below every head's sum
//! dominates no head. While no point's rank exceeds the lowest head rank
//! by `cap` or more (dense ranks of fewer than `cap` points), no term
//! clamps and the test is the plain rank-sum bound shifted by
//! `Σ_k lowest_k`. The block's zeros that pass both tests are compacted
//! into a block buffer, and only they reach the head query: `d` bucket
//! lookups count `c_k`, the heads at or below the zero on dimension `k`;
//! `d²` prefix minima reject a zero that no head lies below on some pair
//! of dimensions; and for the rest one bitset over the smallest prefix is
//! narrowed on the other dimensions. That is `d` adds per point, `O(d²)`
//! work for the zeros the screen lets through and `O(d·c_min/64)` word
//! operations for the few that reach the narrowing, instead of `w` head
//! tests, and it is what carries the `n = 10⁷` scale solves of
//! [`super::scale`], where almost every zero dominates no head. The heads
//! and the chain searches read the ones' ranks from the [`RankOracle`]
//! the decomposition has just gathered (`O(d·|P₁|)`, cache-resident),
//! not from the `n`-length table columns.
//!
//! Before the network goes to Dinic, [`seed_ladder`] routes a greedy
//! feasible flow over it in `O(hits + rungs)` (ALGORITHMS.md §10), which
//! the network carries as its initial flow; Dinic only adds what the
//! seed missed, and the cut is the same for every maximum flow.

use crate::passive::contending::ContendingPoints;
use crate::passive::pipeline::ClassifierNetwork;
use mc_chains::ChainDecomposition;
use mc_flow::{Capacity, FlowNetwork, NodeId};
use mc_geom::kernel::{and_ge_mask, ones_mask_into};
use mc_geom::{linear_extension_order, parallel_chunks, Label, RankOracle, RankTable};
use mc_obs::{CancelToken, Cancelled, Checkpoint};
use std::ops::Range;

/// The chain heads a point dominates, answered from per-dimension sorted
/// head ranks, a prefix-min reject and one bitset narrowing.
///
/// For each dimension `k` the heads are kept sorted by their rank on
/// `k`. A point `p` with rank `r_k` on `k` dominates, on that dimension,
/// exactly the first `c_k` heads of the `k` order. First,
/// [`HeadQuery::screen`] retires whole blocks of points column by
/// column: a point below the lowest head on some `k` (`c_k = 0`)
/// dominates no head, and neither does one whose clamped sum
/// `Σ_k min(r_k − lowest_k, cap)` is below `min_sum`, the least over the
/// heads. For the rest a bucket
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
/// plus the `u32` `cap` and `min_sum`.
struct HeadQuery {
    dim: usize,
    width: usize,
    /// `order[k·w + i]`: chain of the `i`-th head in ascending `k` rank.
    order: Vec<u32>,
    /// `sorted[k·w + i]`: that head's rank on `k` (ascending in `i`), so
    /// `sorted[k·w]` is `lowest_k`, the floor on `k`.
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
    /// `⌊u32::MAX/d⌋`, the most one dimension adds to a clamped sum, so
    /// that `d` terms never overflow a `u32`.
    cap: u32,
    /// The least clamped sum `Σ_k min(rank_k(h) − lowest_k, cap)` over
    /// the heads `h`.
    min_sum: u32,
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

/// Per-worker buffers of one [`HeadQuery::screen`] block.
struct BlockScreen {
    sums: [u32; SWEEP_BLOCK],
    pass: [bool; SWEEP_BLOCK],
    keep: [usize; SWEEP_BLOCK],
}

impl BlockScreen {
    fn new() -> Self {
        Self {
            sums: [0; SWEEP_BLOCK],
            pass: [false; SWEEP_BLOCK],
            keep: [0; SWEEP_BLOCK],
        }
    }
}

/// Buckets per head in a [`HeadQuery`] bucket table.
const BUCKETS_PER_HEAD: u64 = 4;

/// Points per [`HeadQuery::screen`] block in [`sweep_range`].
const SWEEP_BLOCK: usize = 128;

impl HeadQuery {
    /// Indexes the heads `heads[c]` (point ids into `cols`) of chains
    /// `c = 0..w`, `w ≥ 1`.
    fn new(cols: &[&[u32]], heads: &[usize]) -> Self {
        let dim = cols.len();
        let width = heads.len();
        assert!(width > 0, "a head query needs at least one head");
        // `ranks[k·w + c]`: head `c`'s rank on `k`, read once.
        let ranks: Vec<u32> = cols
            .iter()
            .flat_map(|col| heads.iter().map(|&h| col[h]))
            .collect();
        let mut order = Vec::with_capacity(dim * width);
        let mut sorted = Vec::with_capacity(dim * width);
        // `(rank << 32) | chain`, so one plain sort orders the heads by
        // rank and breaks ties by chain.
        let mut keys: Vec<u64> = Vec::with_capacity(width);
        for on_k in ranks.chunks_exact(width) {
            keys.clear();
            keys.extend((0..).zip(on_k).map(|(c, &r)| (u64::from(r) << 32) | c));
            keys.sort_unstable();
            order.extend(keys.iter().map(|&key| key as u32));
            sorted.extend(keys.iter().map(|&key| (key >> 32) as u32));
        }
        let buckets = BUCKETS_PER_HEAD * width as u64;
        let mut shift = Vec::with_capacity(dim);
        let mut base = vec![0u32; dim * (buckets as usize + 1)];
        let mut reversed = Vec::with_capacity(dim * dim * width);
        let mut pmin = vec![0u32; dim * dim * width];
        let k_orders = order.chunks_exact(width).zip(sorted.chunks_exact(width));
        let k_tables = base
            .chunks_exact_mut(buckets as usize + 1)
            .zip(pmin.chunks_exact_mut(dim * width));
        for ((by_rank, on_k), (counts, prefix)) in k_orders.zip(k_tables) {
            // The narrowest buckets of `2^s` ranks of which `4w` cover
            // ranks 0..=max; a head of rank `r` counts in every base
            // after its bucket `r >> s`.
            let max = u64::from(on_k[width - 1]);
            let s = (0..32).find(|&s| max >> s < buckets).unwrap_or(32);
            for &r in on_k {
                counts[(u64::from(r) >> s) as usize + 1] += 1;
            }
            for b in 1..counts.len() {
                counts[b] += counts[b - 1];
            }
            shift.push(s);
            for (j, on_j) in ranks.chunks_exact(width).enumerate() {
                let mut least = u32::MAX;
                for (row, &c) in prefix.chunks_exact_mut(dim).zip(by_rank) {
                    least = least.min(on_j[c as usize]);
                    row[j] = least;
                }
                reversed.extend(by_rank.iter().map(|&c| u32::MAX - on_j[c as usize]));
            }
        }
        let cap = u32::MAX / dim.max(1) as u32;
        let min_sum = (0..width)
            .map(|c| {
                (0..dim)
                    .map(|k| (ranks[k * width + c] - sorted[k * width]).min(cap))
                    .sum::<u32>()
            })
            .min()
            .expect("at least one head");
        Self {
            dim,
            width,
            order,
            sorted,
            shift,
            base,
            reversed,
            pmin,
            cap,
            min_sum,
        }
    }

    /// Screens the points `range`, at most [`SWEEP_BLOCK`] of them, with
    /// one contiguous pass per rank column and no branch per point, and
    /// returns the label-0 points among them that
    /// [`dominated_heads`](Self::dominated_heads) must see, ascending,
    /// plus the candidates: the label-0 points at or above the lowest
    /// head on every dimension. A survivor is a candidate whose clamped
    /// sum reaches `min_sum`; the others dominate no head.
    fn screen<'b>(
        &self,
        cols: &[&[u32]],
        labels: &[Label],
        range: Range<usize>,
        buf: &'b mut BlockScreen,
    ) -> (&'b [usize], u64) {
        let BlockScreen { sums, pass, keep } = buf;
        let (sums, pass) = (&mut sums[..range.len()], &mut pass[..range.len()]);
        for (f, &label) in pass.iter_mut().zip(&labels[range.clone()]) {
            *f = label == Label::Zero;
        }
        sums.fill(0);
        for (k, col) in cols.iter().enumerate() {
            let lowest = self.sorted[k * self.width];
            for ((s, f), &r) in sums
                .iter_mut()
                .zip(pass.iter_mut())
                .zip(&col[range.clone()])
            {
                *f &= r >= lowest;
                // Wraps below the floor, where the flag is clear anyway.
                *s += r.wrapping_sub(lowest).min(self.cap);
            }
        }
        let (mut candidates, mut m) = (0, 0);
        for (i, (&s, &f)) in sums.iter().zip(pass.iter()).enumerate() {
            candidates += u64::from(f);
            keep[m] = range.start + i;
            m += usize::from(f & (s >= self.min_sum));
        }
        (&keep[..m], candidates)
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
    /// above the lowest head on every dimension, as every survivor of
    /// [`screen`](Self::screen) is, so that every `c_k ≥ 1`.
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

/// What the zero sweep reads: the table's rank columns and the labels
/// over all points, and the label-1 side. The chains hold positions into
/// the label-1 points, whose ranks come from the gathered oracle's
/// columns: chain entry `local` is oracle point `one_label[local]`.
struct SweepInput<'a> {
    cols: Vec<&'a [u32]>,
    labels: &'a [Label],
    one_cols: Vec<&'a [u32]>,
    one_label: Vec<u32>,
    chains: &'a [Vec<usize>],
}

impl SweepInput<'_> {
    /// The oracle point of chain `c`'s head.
    fn head(&self, c: &[usize]) -> usize {
        self.one_label[c[0]] as usize
    }

    /// Whether point `p` dominates chain entry `local`.
    fn dominates(&self, p: usize, local: usize) -> bool {
        let q = self.one_label[local] as usize;
        self.cols
            .iter()
            .zip(&self.one_cols)
            .all(|(c, o)| c[p] >= o[q])
    }
}

/// What the zero sweep learns: each zero that hits some chain, as its
/// point id with its `(chain, dominated-prefix length)` hits in
/// ascending chain order, plus the deepest prefix any zero reaches per
/// chain.
#[derive(Default)]
struct Sweep {
    hits: Vec<(usize, Vec<(u32, u32)>)>,
    max_cnt: Vec<usize>,
    /// How far the zeros got: at or above the lowest head on every
    /// dimension (`candidates`), retired by the clamped-sum bound among
    /// those (`summed`), and through to the bitset narrowing
    /// (`narrowed`). The reference sweep in the tests leaves them 0.
    candidates: u64,
    summed: u64,
    narrowed: u64,
}

impl Sweep {
    fn empty(width: usize) -> Self {
        Self {
            max_cnt: vec![0; width],
            ..Self::default()
        }
    }

    /// Appends `chunk`, the sweep of the points after this one's.
    fn extend(&mut self, chunk: Sweep) {
        self.hits.extend(chunk.hits);
        for (m, l) in self.max_cnt.iter_mut().zip(chunk.max_cnt) {
            *m = (*m).max(l);
        }
        self.candidates += chunk.candidates;
        self.summed += chunk.summed;
        self.narrowed += chunk.narrowed;
    }
}

/// The ladder's zero sweep: every label-0 point's hit chains come from
/// one [`HeadQuery`] (after its block screen), and a binary search on
/// each of those chains finds its dominated prefix. The points are split
/// into ranges over `parallel_chunks`, and the chunk results concatenate
/// in range order, so the output equals a sequential sweep's.
fn sweep_zeros(input: &SweepInput, token: &CancelToken) -> Result<Sweep, Cancelled> {
    let _span = mc_obs::span("ladder_sweep");
    let heads: Vec<usize> = input.chains.iter().map(|c| input.head(c)).collect();
    let query = HeadQuery::new(&input.one_cols, &heads);
    let chunks: Vec<Sweep> = parallel_chunks(input.labels.len(), |range| {
        sweep_range(input, &query, range, token)
    });
    token.poll()?;
    let mut sweep = Sweep::empty(input.chains.len());
    for chunk in chunks {
        sweep.extend(chunk);
    }
    mc_obs::counter_add("passive.sweep_candidates", sweep.candidates);
    mc_obs::counter_add("passive.sweep_summed", sweep.summed);
    mc_obs::counter_add("passive.sweep_narrowed", sweep.narrowed);
    Ok(sweep)
}

/// One worker's part of [`sweep_zeros`]: the points `range`, screened in
/// blocks of [`SWEEP_BLOCK`] from `range.start`. Stops early, with a
/// partial result, once `token` is cancelled; the caller polls.
fn sweep_range(
    input: &SweepInput,
    query: &HeadQuery,
    range: Range<usize>,
    token: &CancelToken,
) -> Sweep {
    let mut out = Sweep::empty(input.chains.len());
    let mut scratch = HeadScratch::default();
    let mut hit_chains = Vec::new();
    let mut buf = BlockScreen::new();
    // Every worker passes the same global total (one unit per point), so
    // `progress.ladder_sweep.frac` is exact for the sweep.
    let mut cp = Checkpoint::with_progress(token, "ladder_sweep", input.labels.len() as u64);
    for lo in range.clone().step_by(SWEEP_BLOCK) {
        let hi = (lo + SWEEP_BLOCK).min(range.end);
        if cp.tick((hi - lo) as u64).is_err() {
            break;
        }
        let (kept, candidates) = query.screen(&input.cols, input.labels, lo..hi, &mut buf);
        out.candidates += candidates;
        out.summed += candidates - kept.len() as u64;
        for &p in kept {
            hit_chains.clear();
            if query.dominated_heads(&input.cols, p, &mut scratch, &mut hit_chains)
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
                    let chain = &input.chains[c as usize];
                    // Ascending chain ⇒ "p dominates chain[i]" holds on a
                    // prefix, and the head is already known dominated.
                    let cnt = 1 + chain[1..].partition_point(|&local| input.dominates(p, local));
                    out.max_cnt[c as usize] = out.max_cnt[c as usize].max(cnt);
                    (c, cnt as u32)
                })
                .collect();
            out.hits.push((p, hits));
        }
    }
    out
}

/// The zero sweep's signature; the builder takes it as a parameter so
/// the tests can run it over a reference sweep.
type SweepFn = fn(&SweepInput, &CancelToken) -> Result<Sweep, Cancelled>;

/// A feasible flow on the ladder network, routed greedily before
/// Dinic's first BFS. Every gadget edge is infinite, so the max flow is
/// a transportation problem: each hitting zero ships its weight to the
/// ones of the chain prefixes it reaches. The seed visits the zeros in
/// ascending total reach (`Σ cnt` over their hits, ties by point id), so
/// the zeros with the fewest choices ship first, and each pushes into the
/// lowest unsaturated one of every prefix it reaches, tracked by one
/// pointer per chain: below the pointer every one is saturated, so the
/// pointer only advances and the seed costs `O(hits + rungs)`. The rung
/// flows follow from conservation as per-chain suffix sums, with no path
/// walked per push.
#[derive(Debug, Default)]
struct LadderSeed {
    /// Flow on each hitting zero's source edge, in sweep order.
    zeros: Vec<f64>,
    /// Flow on each `zero → rung` edge: the sweep's hits, flattened in
    /// order.
    hits: Vec<f64>,
    /// `ones[c][i]`: flow into chain `c`'s `i`-th one, on its `rung →
    /// one` edge and its sink edge alike.
    ones: Vec<Vec<f64>>,
    /// `rungs[c][i]`: flow down the rung edge `a_i → a_{i−1}` of chain
    /// `c` (`rungs[c][0]` is 0; that rung has no edge below it).
    rungs: Vec<Vec<f64>>,
}

/// Routes the [`LadderSeed`] over the ladder `wire_ladder` builds from
/// `chains` and `sweep`. `zero_weight(p)` is the weight of zero `p` (a
/// point id) and `one_weight(local)` that of chain entry `local`. Source
/// and sink flows are `w − remaining`, so a saturated edge's residual
/// reads exactly 0.
fn seed_ladder(
    chains: &[Vec<usize>],
    sweep: &Sweep,
    zero_weight: impl Fn(usize) -> f64,
    one_weight: impl Fn(usize) -> f64,
) -> LadderSeed {
    let _span = mc_obs::span("ladder_seed");
    let mut left: Vec<Vec<f64>> = chains
        .iter()
        .zip(&sweep.max_cnt)
        .map(|(chain, &len)| chain[..len].iter().map(|&l| one_weight(l)).collect())
        .collect();
    // Flow the zeros put into each rung.
    let mut inflow: Vec<Vec<f64>> = sweep.max_cnt.iter().map(|&len| vec![0.0; len]).collect();
    let mut first_hit = Vec::with_capacity(sweep.hits.len());
    let mut total = 0;
    for (_, hits) in &sweep.hits {
        first_hit.push(total);
        total += hits.len();
    }
    let reach: Vec<u64> = sweep
        .hits
        .iter()
        .map(|(_, hits)| hits.iter().map(|&(_, cnt)| u64::from(cnt)).sum())
        .collect();
    // Stable: equal reaches keep the sweep's ascending point order.
    let mut order: Vec<usize> = (0..sweep.hits.len()).collect();
    order.sort_by_key(|&k| reach[k]);

    let mut seed = LadderSeed {
        zeros: vec![0.0; sweep.hits.len()],
        hits: vec![0.0; total],
        ..LadderSeed::default()
    };
    let mut lowest = vec![0usize; chains.len()];
    let mut pushes = 0u64;
    for k in order {
        let (p, hits) = &sweep.hits[k];
        let weight = zero_weight(*p);
        let mut remaining = weight;
        for (h, &(c, cnt)) in hits.iter().enumerate() {
            let (c, cnt) = (c as usize, cnt as usize);
            let mut sent = 0.0;
            while remaining > 0.0 && lowest[c] < cnt {
                let slot = &mut left[c][lowest[c]];
                let push = remaining.min(*slot);
                *slot -= push;
                remaining -= push;
                sent += push;
                pushes += u64::from(push > 0.0);
                if *slot == 0.0 {
                    lowest[c] += 1;
                }
            }
            seed.hits[first_hit[k] + h] = sent;
            inflow[c][cnt - 1] += sent;
            if remaining == 0.0 {
                break;
            }
        }
        seed.zeros[k] = weight - remaining;
    }
    // Rung `i` passes down what enters it at or above `i` and is not
    // taken by the ones there.
    for ((chain, &len), (left, inflow)) in chains
        .iter()
        .zip(&sweep.max_cnt)
        .zip(left.iter().zip(&inflow))
    {
        let ones: Vec<f64> = chain[..len]
            .iter()
            .zip(left)
            .map(|(&l, &rest)| one_weight(l) - rest)
            .collect();
        let mut rungs = vec![0.0; len];
        let mut down = 0.0f64;
        for i in (1..len).rev() {
            down += inflow[i] - ones[i];
            rungs[i] = down.max(0.0);
        }
        seed.ones.push(ones);
        seed.rungs.push(rungs);
    }
    mc_obs::counter_add("passive.seed_pushes", pushes);
    seed
}

impl LadderSeed {
    /// The seed's flow on every edge of the ladder network, in the order
    /// the edges are added: the source edges (sweep order), the sink
    /// edges (`sink`, in the network's order of the ones), then
    /// [`wire_ladder`]'s, chain by chain each rung's `rung → one` edge
    /// and the rung edge below it, and last the `zero → rung` edges.
    fn edge_flows(&self, sink: &[f64]) -> Vec<f64> {
        let ladder: usize = self
            .ones
            .iter()
            .map(|o| (2 * o.len()).saturating_sub(1))
            .sum();
        let mut flow = Vec::with_capacity(self.zeros.len() + sink.len() + ladder + self.hits.len());
        flow.extend_from_slice(&self.zeros);
        flow.extend_from_slice(sink);
        for (ones, rungs) in self.ones.iter().zip(&self.rungs) {
            for (i, (&one, &rung)) in ones.iter().zip(rungs).enumerate() {
                flow.push(one);
                if i > 0 {
                    flow.push(rung);
                }
            }
        }
        flow.extend_from_slice(&self.hits);
        flow
    }
}

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

/// The matrix-free ladder pipeline off prebuilt rank columns: Lemma-15
/// contending discovery *and* network construction, the `d ≥ 3` arm of
/// [`super::pipeline::solve_ranked`]. Returns the contending sets (both
/// ascending) and, when they are non-empty, the sparsified network over
/// exactly those points — identical min cut to the paper-literal dense
/// network over the same contending sets.
///
/// No `Θ(n²/64)` structure exists anywhere in this path: the Lemma-6
/// matching runs over a [`RankOracle`] gathered from the table's
/// label-1 rows (`O(d·|P₁|)` resident, rows computed on demand), and
/// the zero sweep streams the rank columns and labels through one block
/// screen, then runs one [`HeadQuery`] per zero it lets through plus
/// binary searches on the chains that zero hits. The sweep fans out
/// over point ranges with `parallel_chunks`; chunk results concatenate
/// in range order, so the contending sets, the network, and hence the
/// min cut are identical to the sequential pipeline.
///
/// `cover`, when given, is a cover of the label-1 points by ascending
/// chains (point ids, each label-1 point in exactly one chain). The
/// ladder uses it instead of running Lemma 6 when it is certified
/// minimum ([`certified_cover`]); otherwise it is ignored.
pub(crate) fn try_discover_and_build_from_table(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    cover: Option<&[Vec<usize>]>,
    token: &CancelToken,
) -> Result<LadderOutcome, Cancelled> {
    discover_with(table, labels, weights, cover, token, sweep_zeros)
}

/// `cover` in positions of `ones`, if it is a cover of the label-1
/// points by ascending chains whose heads (lowest points) are pairwise
/// incomparable. Those heads are then an antichain as large as the
/// cover, so by Dilworth no cover has fewer chains: the cover is
/// minimum, like the Lemma-6 decomposition it replaces. The cut does not
/// depend on which ascending cover wires the ladder (ALGORITHMS.md §10),
/// so a certified cover changes only the rung nodes, never the answer.
/// The cover's shape costs `O(d·|P₁|)` to check; the heads then cost at
/// most `d` rank compares per pair, and the test stops at the first
/// comparable pair.
fn certified_cover(
    table: &RankTable,
    ones: &[usize],
    cover: &[Vec<usize>],
) -> Option<Vec<Vec<usize>>> {
    let cols: Vec<&[u32]> = (0..table.dim()).map(|k| table.column(k)).collect();
    let dominates = |p: usize, q: usize| cols.iter().all(|col| col[p] >= col[q]);
    let mut local = vec![u32::MAX; table.len()];
    for (l, &p) in ones.iter().enumerate() {
        local[p] = l as u32;
    }
    let mut covered = vec![false; ones.len()];
    let mut chains = Vec::with_capacity(cover.len());
    for chain in cover.iter().filter(|c| !c.is_empty()) {
        let mut positions = Vec::with_capacity(chain.len());
        for (i, &p) in chain.iter().enumerate() {
            let l = *local.get(p)? as usize;
            if l >= ones.len() || covered[l] || (i > 0 && !dominates(p, chain[i - 1])) {
                return None;
            }
            covered[l] = true;
            positions.push(l);
        }
        chains.push(positions);
    }
    if !covered.iter().all(|&c| c) {
        return None;
    }
    let heads: Vec<usize> = chains.iter().map(|c| ones[c[0]]).collect();
    for (a, &p) in heads.iter().enumerate() {
        if heads[a + 1..]
            .iter()
            .any(|&q| dominates(p, q) || dominates(q, p))
        {
            return None;
        }
    }
    Some(chains)
}

fn discover_with(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    cover: Option<&[Vec<usize>]>,
    token: &CancelToken,
    sweep: SweepFn,
) -> Result<LadderOutcome, Cancelled> {
    let _span = mc_obs::span("ladder");
    token.poll()?; // small inputs may never reach a checkpoint
    debug_assert_eq!(table.len(), labels.len());
    debug_assert_eq!(labels.len(), weights.len());
    let ones: Vec<usize> = (0..labels.len())
        .filter(|&i| labels[i] == Label::One)
        .collect();
    let empty = ContendingPoints {
        zeros: Vec::new(),
        ones: Vec::new(),
    };
    if ones.is_empty() || ones.len() == labels.len() {
        // Width 0 here means "the decomposition never ran" — with no
        // contention possible, nothing downstream reads it.
        return Ok(LadderOutcome {
            con: empty,
            network: None,
            width: 0,
        });
    }

    // The chains hold positions in `ones`, and the sweep reads chain
    // entry `local` at index `one_label[local]` of `one_cols`.
    let certified = cover.and_then(|cover| certified_cover(table, &ones, cover));
    let (oracle, dec);
    let (chains, one_cols, one_label): (&[Vec<usize>], Vec<&[u32]>, Vec<u32>) = match &certified {
        Some(chains) => {
            // A certified cover reads the ones' ranks off the table.
            mc_obs::counter_add("passive.cover_reused", 1);
            let one_cols = (0..table.dim()).map(|k| table.column(k)).collect();
            (chains, one_cols, ones.iter().map(|&p| p as u32).collect())
        }
        None => {
            // Lemma 6 on the label-1 points, matrix-free: gathering
            // rank columns preserves per-dimension order (and
            // equality), so the oracle's on-demand rows — and with
            // them the matching, chains, and width — equal those of
            // the subset's own points.
            // The gather visits `ones` in a linear extension (label
            // `l` is position `order[l]` of `ones`), so the one
            // oracle is already in the matching's labelling and the
            // chains come back as positions. The sweep reads the
            // ones' ranks off the oracle's gathered columns, through
            // the inverse of `order`.
            let order =
                linear_extension_order(ones.len(), table.dim(), |k, p| table.column(k)[ones[p]]);
            let gathered: Vec<usize> = order.iter().map(|&p| ones[p]).collect();
            oracle = RankOracle::try_from_table_subset(table, &gathered, token)?;
            dec = ChainDecomposition::try_compute_from_linear_extension(&oracle, &order, token)?;
            let mut one_label = vec![0u32; ones.len()];
            for (l, &local) in order.iter().enumerate() {
                one_label[local] = l as u32;
            }
            let one_cols = (0..oracle.dim()).map(|k| oracle.column(k)).collect();
            (dec.chains(), one_cols, one_label)
        }
    };

    // The sweep's deepest dominated prefix per chain places each rung
    // edge *and* answers Lemma 15: a zero contends iff it hits some
    // chain, and chain `c`'s contending 1-points are its prefix up to
    // the deepest rung any zero reaches.
    let input = SweepInput {
        cols: (0..table.dim()).map(|k| table.column(k)).collect(),
        labels,
        one_cols,
        one_label,
        chains,
    };
    let sweep = sweep(&input, token)?;
    let width = chains.len();
    let seed = seed_ladder(chains, &sweep, |p| weights[p], |local| weights[ones[local]]);

    let _wire = mc_obs::span("ladder_wire");
    let con_zeros: Vec<usize> = sweep.hits.iter().map(|&(p, _)| p).collect();
    let mut con_ones: Vec<usize> = chains
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
        chains,
        |local| one_nodes[one_pos[ones[local]] as usize],
        &sweep,
        &zero_nodes,
        token,
    )?;
    let mut sink_flow = vec![0.0; con_ones.len()];
    for (chain, into) in chains.iter().zip(&seed.ones) {
        for (&local, &f) in chain.iter().zip(into) {
            sink_flow[one_pos[ones[local]] as usize] = f;
        }
    }
    net.set_initial_flow(seed.edge_flows(&sink_flow));

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
    use mc_flow::{Dinic, EdmondsKarp, FlowSolution, MaxFlowAlgorithm};
    use mc_geom::{Label, WeightedSet};
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

    /// The ladder's contending sets and network over `ws`.
    fn ladder_of(ws: &WeightedSet) -> (ContendingPoints, Option<ClassifierNetwork>) {
        let table = RankTable::build(ws.points());
        let never = CancelToken::never();
        let out =
            try_discover_and_build_from_table(&table, ws.labels(), ws.weights(), None, &never)
                .unwrap();
        (out.con, out.network)
    }

    /// Reference sweep without [`HeadQuery`]: every label-0 point, a
    /// per-dimension floor over the head ranks, then a dominance test
    /// against every head. The builders are diffed against it.
    fn reference_sweep(input: &SweepInput, _token: &CancelToken) -> Result<Sweep, Cancelled> {
        let heads: Vec<usize> = input.chains.iter().map(|chain| chain[0]).collect();
        let rank = |k: usize, local: usize| input.one_cols[k][input.one_label[local] as usize];
        let floor: Vec<u32> = (0..input.cols.len())
            .map(|k| heads.iter().map(|&h| rank(k, h)).min().unwrap())
            .collect();
        let mut sweep = Sweep::empty(input.chains.len());
        for p in (0..input.labels.len()).filter(|&p| input.labels[p] == Label::Zero) {
            if input.cols.iter().zip(&floor).any(|(col, &f)| col[p] < f) {
                continue;
            }
            let mut hits = Vec::new();
            for (c, chain) in input.chains.iter().enumerate() {
                if !input.dominates(p, chain[0]) {
                    continue;
                }
                let cnt = 1 + chain[1..].partition_point(|&local| input.dominates(p, local));
                hits.push((c as u32, cnt as u32));
                sweep.max_cnt[c] = sweep.max_cnt[c].max(cnt);
            }
            if !hits.is_empty() {
                sweep.hits.push((p, hits));
            }
        }
        Ok(sweep)
    }

    /// `Σ_k rank_k(p)`, unclamped.
    fn rank_sum(cols: &[&[u32]], p: usize) -> u64 {
        cols.iter().map(|col| u64::from(col[p])).sum()
    }

    /// The label-1 side of a sweep over `table`: the label-1 ids, an
    /// oracle gathered over them in id order, and its minimum chain
    /// decomposition, whose entries are positions into the ids.
    struct OneSide {
        ones: Vec<usize>,
        oracle: RankOracle,
        dec: ChainDecomposition,
    }

    fn one_side(table: &RankTable, labels: &[Label]) -> OneSide {
        let ones: Vec<usize> = (0..labels.len())
            .filter(|&i| labels[i] == Label::One)
            .collect();
        let oracle =
            RankOracle::try_from_table_subset(table, &ones, &CancelToken::never()).unwrap();
        let dec = ChainDecomposition::compute_from_oracle(&oracle);
        OneSide { ones, oracle, dec }
    }

    /// The sweep input over `table` and `side`, with the identity map
    /// from chain entries to oracle points.
    fn input_of<'a>(
        table: &'a RankTable,
        labels: &'a [Label],
        side: &'a OneSide,
    ) -> SweepInput<'a> {
        SweepInput {
            cols: (0..table.dim()).map(|k| table.column(k)).collect(),
            labels,
            one_cols: (0..table.dim()).map(|k| side.oracle.column(k)).collect(),
            one_label: (0..side.ones.len() as u32).collect(),
            chains: side.dec.chains(),
        }
    }

    /// A table over the rank columns `cols`, which need not be dense.
    fn table_of(cols: &[Vec<u32>]) -> RankTable {
        RankTable::from_rank_columns(cols[0].len(), cols.len(), cols.concat())
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

    /// `Σ_k min(rank_k(p) − lowest_k, ⌊u32::MAX/d⌋)` in `u64`, for `p`
    /// at or above every `lowest_k`.
    fn clamped_sum(cols: &[&[u32]], lowest: &[u32], p: usize) -> u64 {
        let cap = u64::from(u32::MAX) / cols.len() as u64;
        cols.iter()
            .zip(lowest)
            .map(|(col, &l)| u64::from(col[p] - l).min(cap))
            .sum()
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
                        col[w + 3] = u32::MAX - 1; // clamped on every dimension
                    }
                    let cols: Vec<&[u32]> = cols_owned.iter().map(Vec::as_slice).collect();
                    let heads: Vec<usize> = (0..w).collect();
                    let query = HeadQuery::new(&cols, &heads);
                    let lowest: Vec<u32> = cols
                        .iter()
                        .map(|col| heads.iter().map(|&h| col[h]).min().unwrap())
                        .collect();
                    let min_sum = heads
                        .iter()
                        .map(|&h| clamped_sum(&cols, &lowest, h))
                        .min()
                        .unwrap();
                    assert_eq!(u64::from(query.min_sum), min_sum);
                    // The queries, and up to 100 of the heads, are label 0;
                    // the screen must skip the other heads.
                    let labels: Vec<Label> = (0..n)
                        .map(|i| Label::from_bool(i < w && i >= 100))
                        .collect();
                    let mut buf = BlockScreen::new();
                    let mut kept = Vec::new();
                    let mut candidates = 0;
                    for lo in (0..n).step_by(SWEEP_BLOCK) {
                        let (block, c) =
                            query.screen(&cols, &labels, lo..(lo + SWEEP_BLOCK).min(n), &mut buf);
                        kept.extend_from_slice(block);
                        candidates += c;
                    }
                    let mut want = Vec::new();
                    let mut want_candidates = 0;
                    let mut scratch = HeadScratch::default();
                    let mut got = Vec::new();
                    for p in (0..n).filter(|&p| labels[p] == Label::Zero) {
                        let (naive, expected) = naive_head_scan(&cols, &heads, p);
                        let what = format!("dim {dim} w {w} spread {spread} offset {offset} p {p}");
                        let Some(expected) = expected else {
                            seen[0] += 1;
                            continue;
                        };
                        want_candidates += 1;
                        let passes = clamped_sum(&cols, &lowest, p) >= min_sum;
                        if passes {
                            want.push(p);
                        }
                        // The screen may only retire points that hit nothing.
                        assert!(naive.is_empty() || passes, "{what}");
                        got.clear();
                        let outcome = query.dominated_heads(&cols, p, &mut scratch, &mut got);
                        assert_eq!(outcome, expected, "{what}");
                        assert_eq!(got, naive, "{what}");
                        seen[1 + outcome as usize] += 1;
                    }
                    let what = format!("dim {dim} w {w} spread {spread} offset {offset}");
                    assert_eq!(kept, want, "{what}");
                    assert_eq!(candidates, want_candidates, "{what}");
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
            let fast =
                try_discover_and_build_from_table(&table, ws.labels(), ws.weights(), None, &never)
                    .unwrap();
            let slow = discover_with(
                &table,
                ws.labels(),
                ws.weights(),
                None,
                &never,
                reference_sweep,
            )
            .unwrap();
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

    /// Asserts that `sweep` found what the reference finds on `input`.
    fn assert_sweeps_agree(sweep: &Sweep, input: &SweepInput, what: &str) {
        let slow = reference_sweep(input, &CancelToken::never()).unwrap();
        assert_eq!(sweep.hits, slow.hits, "{what}");
        assert_eq!(sweep.max_cnt, slow.max_cnt, "{what}");
    }

    #[test]
    fn rank_sum_screen_matches_the_reference_sweep_at_its_boundary() {
        let never = CancelToken::never();
        let mut rng = StdRng::seed_from_u64(0x5C4E);
        for dim in [3usize, 4, 5] {
            let mut ws = threshold_weighted(3000, dim, 1000.0, 150.0, &mut rng);
            let table = RankTable::build(ws.points());
            let cols: Vec<&[u32]> = (0..dim).map(|k| table.column(k)).collect();
            let side = one_side(&table, ws.labels());
            assert!(
                side.dec.width() > 64,
                "dim {dim}: width {} fits one word",
                side.dec.width()
            );
            let heads: Vec<usize> = side.dec.chains().iter().map(|c| side.ones[c[0]]).collect();
            let head = *heads.iter().min_by_key(|&&h| rank_sum(&cols, h)).unwrap();
            let min_sum = rank_sum(&cols, head);

            // Plant two zeros at the bound: a copy of the least-sum head
            // (sum = min_sum, and it dominates that head), and that copy
            // one rank lower on a dimension where it stays at or above
            // every head's floor (sum = min_sum − 1). Neither adds a
            // distinct coordinate, so no rank moves and the ones' chains
            // stay the same. Dense ranks never clamp, so the clamped
            // sums sit at the bound too, shifted by the floors' sum.
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
            let fast =
                try_discover_and_build_from_table(&table, ws.labels(), ws.weights(), None, &never)
                    .unwrap();
            let slow = discover_with(
                &table,
                ws.labels(),
                ws.weights(),
                None,
                &never,
                reference_sweep,
            )
            .unwrap();
            assert_eq!(fast.width, side.dec.width());
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
            let top = cols.iter().flat_map(|c| c.iter()).max().unwrap();
            let shifted: Vec<Vec<u32>> = cols
                .iter()
                .map(|c| c.iter().map(|&r| r + (u32::MAX - top)).collect())
                .collect();
            let table = table_of(&shifted);
            let side = one_side(&table, ws.labels());
            let input = input_of(&table, ws.labels(), &side);
            let fast = sweep_zeros(&input, &never).unwrap();
            assert_sweeps_agree(&fast, &input, &format!("dim {dim}"));
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
    fn sweep_matches_the_reference_across_block_and_chunk_edges() {
        let never = CancelToken::never();
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let b = SWEEP_BLOCK;
        for (n, dim) in [(b - 1, 3usize), (b, 4), (b + 1, 3), (9 * b + 7, 4)] {
            let ws = threshold_weighted(n, dim, 100.0, 40.0, &mut rng);
            // On the multi-block input, block 0 is all zeros and block 1
            // all ones; the blocks after keep the threshold labels.
            let labels: Vec<Label> = (0..n)
                .map(|i| match i / b {
                    0 if n > 2 * b => Label::Zero,
                    1 if n > 2 * b => Label::One,
                    _ => ws.labels()[i],
                })
                .collect();
            let table = RankTable::build(ws.points());
            let side = one_side(&table, &labels);
            let input = input_of(&table, &labels, &side);
            let what = format!("n {n} dim {dim}");
            let whole = sweep_zeros(&input, &never).unwrap();
            assert!(!whole.hits.is_empty(), "{what}: no zero hits a chain");
            assert!(whole.summed > 0, "{what}: the sum bound never fired");
            assert_sweeps_agree(&whole, &input, &what);

            // Workers start their blocks at their own range start, so a
            // chunk edge off a block multiple shifts every later block.
            let heads: Vec<usize> = input.chains.iter().map(|c| input.head(c)).collect();
            let query = HeadQuery::new(&input.one_cols, &heads);
            for split in [1, b / 2 + 3, 2 * b + 5, n - 1]
                .into_iter()
                .filter(|&s| s < n)
            {
                let mut split_sweep = sweep_range(&input, &query, 0..split, &never);
                split_sweep.extend(sweep_range(&input, &query, split..n, &never));
                let what = format!("{what} split {split}");
                assert_sweeps_agree(&split_sweep, &input, &what);
                assert_eq!(
                    (
                        split_sweep.candidates,
                        split_sweep.summed,
                        split_sweep.narrowed
                    ),
                    (whole.candidates, whole.summed, whole.narrowed),
                    "{what}"
                );
            }

            let fast =
                try_discover_and_build_from_table(&table, &labels, ws.weights(), None, &never)
                    .unwrap();
            let slow = discover_with(&table, &labels, ws.weights(), None, &never, reference_sweep)
                .unwrap();
            assert_eq!(
                (&fast.con.zeros, &fast.con.ones),
                (&slow.con.zeros, &slow.con.ones),
                "{what}"
            );
            let (fast_net, slow_net) = (fast.network.unwrap(), slow.network.unwrap());
            assert_eq!(edge_list(&fast_net.net), edge_list(&slow_net.net), "{what}");
        }
    }

    #[test]
    fn clamped_sums_match_the_reference_sweep_near_u32_max() {
        // Every rank lies within 2,000 of 0 or of `u32::MAX`, so the
        // spread of a high rank over a low floor is far above
        // `⌊u32::MAX/d⌋` and its term clamps, while points low on every
        // dimension keep their plain sums and meet the sum bound.
        let never = CancelToken::never();
        let mut rng = StdRng::seed_from_u64(0xC1A4);
        for dim in [5usize, 6] {
            let n = 3000;
            let cols: Vec<Vec<u32>> = (0..dim)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            let r = rng.gen_range(0..2000);
                            if rng.gen_bool(0.5) {
                                r
                            } else {
                                u32::MAX - r
                            }
                        })
                        .collect()
                })
                .collect();
            let mut cols = cols;
            let mut labels: Vec<Label> = (0..n)
                .map(|_| Label::from_bool(rng.gen_bool(0.5)))
                .collect();

            // Plant zeros at the clamped sum bound: a copy of the head of
            // least clamped sum (it dominates that head), and copies one
            // rank lower on each dimension where the head is above the
            // floor (one below the bound unless that term clamps). Zeros
            // leave the ones' chains as they are.
            let side = one_side(&table_of(&cols), &labels);
            let heads: Vec<usize> = side.dec.chains().iter().map(|c| side.ones[c[0]]).collect();
            let all: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
            let lowest: Vec<u32> = all
                .iter()
                .map(|col| heads.iter().map(|&h| col[h]).min().unwrap())
                .collect();
            let head = *heads
                .iter()
                .min_by_key(|&&h| clamped_sum(&all, &lowest, h))
                .unwrap();
            let copy: Vec<u32> = all.iter().map(|col| col[head]).collect();
            let mut planted = vec![copy.clone()];
            for k in (0..dim).filter(|&k| copy[k] > lowest[k]) {
                let mut below = copy.clone();
                below[k] -= 1;
                planted.push(below);
            }
            for point in &planted {
                for (col, &r) in cols.iter_mut().zip(point) {
                    col.push(r);
                }
                labels.push(Label::Zero);
            }

            let table = table_of(&cols);
            let side = one_side(&table, &labels);
            let input = input_of(&table, &labels, &side);
            let what = format!("dim {dim}");
            let fast = sweep_zeros(&input, &never).unwrap();
            assert_sweeps_agree(&fast, &input, &what);
            assert!(
                fast.hits.iter().any(|&(p, _)| p == n),
                "{what}: the copy misses"
            );

            let heads: Vec<usize> = input.chains.iter().map(|c| input.head(c)).collect();
            let query = HeadQuery::new(&input.one_cols, &heads);
            let lowest: Vec<u32> = (0..dim).map(|k| query.sorted[k * query.width]).collect();
            let clamps = |p: usize| (0..dim).any(|k| input.cols[k][p] - lowest[k] >= query.cap);
            assert!(
                fast.hits.iter().any(|&(p, _)| clamps(p)),
                "{what}: no hitting zero has a clamped term"
            );
            assert!(
                fast.hits
                    .iter()
                    .any(|&(p, _)| (0..dim).all(|k| input.cols[k][p] > u32::MAX / 2)),
                "{what}: no hitting zero is high on every dimension"
            );
            assert!(fast.summed > 0, "{what}: the sum bound never fired");
        }
    }

    #[test]
    fn ladder_edge_count_is_bounded() {
        // ≤ 2·|ones| rung edges + w·|zeros| connector edges + the
        // finite source/sink edges — and never more than dense + rungs.
        let mut rng = StdRng::seed_from_u64(0x1ADE);
        let ws = random_weighted(600, 3, 6.0, &mut rng);
        let table = RankTable::build(ws.points());
        let out = try_discover_and_build_from_table(
            &table,
            ws.labels(),
            ws.weights(),
            None,
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
        // The dense network: the source and sink edges plus one edge per
        // dominating contending (zero, one) pair, counted pairwise.
        let pairs: usize = con
            .zeros
            .iter()
            .map(|&p| {
                let dominated = |q: &&usize| ws.points().dominates(p, **q);
                con.ones.iter().filter(dominated).count()
            })
            .sum();
        let dense = con.len() + pairs;
        assert!(
            ladder.net.num_edges() <= dense + 2 * con.ones.len(),
            "ladder ({}) must never exceed dense ({dense}) by more than the rungs",
            ladder.net.num_edges()
        );
    }

    #[test]
    fn discover_matches_generic_contending_and_dense_cut() {
        let mut rng = StdRng::seed_from_u64(0x1ADF);
        for dim in [1usize, 2, 3, 4] {
            for trial in 0..40 {
                let n = rng.gen_range(1..50);
                let ws = random_weighted(n, dim, 4.0, &mut rng);
                let reference = ContendingPoints::compute_generic(&ws);
                let (con, network) = ladder_of(&ws);
                assert_eq!(
                    (con.zeros, con.ones),
                    (reference.zeros.clone(), reference.ones.clone()),
                    "dim {dim} trial {trial}: matrix-free Lemma 15 disagrees\n{ws:?}"
                );
                match network {
                    None => assert!(reference.is_empty()),
                    Some(ladder) => {
                        let dense = build_dense_network(&ws, &reference);
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
        let (con, network) = ladder_of(&all_ones);
        assert!(con.is_empty() && network.is_none());

        // Zeros and ones present but no dominating pair.
        let mut incomparable = WeightedSet::empty(2);
        incomparable.push(&[0.0, 1.0], Label::One, 1.0);
        incomparable.push(&[1.0, 0.0], Label::Zero, 1.0);
        let (con, network) = ladder_of(&incomparable);
        assert!(con.is_empty() && network.is_none());

        let (con, network) = ladder_of(&WeightedSet::empty(2));
        assert!(con.is_empty() && network.is_none());
    }

    #[test]
    fn duplicates_across_labels_contend_through_the_ladder() {
        // Equal coordinates, opposite labels: reflexive dominance must
        // wire the zero to the one through its chain.
        let mut ws = WeightedSet::empty(3);
        ws.push(&[2.0, 2.0, 2.0], Label::One, 7.0);
        ws.push(&[2.0, 2.0, 2.0], Label::Zero, 3.0);
        let (con, network) = ladder_of(&ws);
        assert_eq!(
            (con.zeros.as_slice(), con.ones.as_slice()),
            (&[1][..], &[0][..])
        );
        let ladder = network.expect("the duplicates contend");
        assert_eq!(Dinic.solve(&ladder.net).value(), 3.0);
    }

    /// Checks that the seed is a blocking greedy flow: every zero with
    /// weight left reaches, through the gadget, only ones whose sink
    /// edges it saturated. Returns how many zeros hit more than one chain.
    fn assert_seed_blocks(network: &ClassifierNetwork, seed: &FlowSolution, what: &str) -> usize {
        let net = &network.net;
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); net.num_nodes()];
        let mut sink_edge = vec![None; net.num_nodes()];
        let mut source_edge = vec![None; net.num_nodes()];
        for e in (0..2 * net.num_edges()).step_by(2) {
            let (u, v) = net.endpoints(e);
            if u == net.source() {
                source_edge[v] = Some(e);
            } else if v == net.sink() {
                sink_edge[u] = Some(e);
            } else {
                out[u].push(v);
            }
        }
        let cap = |e: usize| net.capacity(e).as_finite().expect("finite end edge");
        let mut multi = 0;
        for &zero in &network.zero_nodes {
            multi += usize::from(out[zero].len() > 1);
            let e = source_edge[zero].expect("every zero has a source edge");
            if seed.flow_on(net, e) >= cap(e) {
                continue;
            }
            let mut seen = vec![false; net.num_nodes()];
            let mut stack = vec![zero];
            while let Some(u) = stack.pop() {
                if let Some(e) = sink_edge[u] {
                    assert_eq!(
                        seed.flow_on(net, e),
                        cap(e),
                        "{what}: zero node {zero} has weight left and reaches an unsaturated one"
                    );
                }
                for &v in &out[u] {
                    if !std::mem::replace(&mut seen[v], true) {
                        stack.push(v);
                    }
                }
            }
        }
        multi
    }

    #[test]
    fn seeded_flow_matches_the_cold_solve_cut_for_cut() {
        use crate::passive::pipeline::read_cut;
        let mut rng = StdRng::seed_from_u64(0x5EED_F100);
        let never = CancelToken::never();
        let (mut multi_hit, mut dup_pairs, mut networks) = (0, 0, 0);
        for trial in 0..160 {
            let dim = 3 + trial % 2;
            let n = rng.gen_range(2..90);
            // A coarse grid: duplicate points across labels, and zeros
            // above several chains.
            let mut ws = random_weighted(n, dim, 3.0 + (trial % 3) as f64, &mut rng);
            if trial % 2 == 1 {
                let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.25..4.0)).collect();
                ws = WeightedSet::new(ws.points().clone(), ws.labels().to_vec(), weights);
            }
            let what = format!("trial {trial}: d {dim}, n {n}");
            let table = RankTable::build(ws.points());
            let out =
                try_discover_and_build_from_table(&table, ws.labels(), ws.weights(), None, &never)
                    .unwrap();
            let Some(seeded) = out.network else {
                continue;
            };
            networks += 1;
            for &z in &out.con.zeros {
                dup_pairs += out
                    .con
                    .ones
                    .iter()
                    .filter(|&&o| ws.points().point(o) == ws.points().point(z))
                    .count();
            }
            let net = &seeded.net;
            let seed = FlowSolution::initial(net);
            seed.validate(net)
                .unwrap_or_else(|e| panic!("{what}: seed: {e}"));
            multi_hit += assert_seed_blocks(&seeded, &seed, &what);

            let mut cold_net = net.clone();
            cold_net.set_initial_flow(vec![0.0; net.num_edges()]);
            let warm = Dinic.solve(net);
            let reference = EdmondsKarp.solve(net);
            let cold = Dinic.solve(&cold_net);
            let tolerance = 1e-9 * (1.0 + net.finite_capacity_sum());
            for (sol, engine) in [(&warm, "dinic"), (&reference, "edmonds-karp")] {
                sol.validate(net)
                    .unwrap_or_else(|e| panic!("{what}: {engine}: {e}"));
                assert!(
                    (sol.value() - cold.value()).abs() <= tolerance,
                    "{what}: {engine} {} vs cold {}",
                    sol.value(),
                    cold.value()
                );
                assert!(sol.value() >= seed.value() - tolerance, "{what}: {engine}");
            }
            // The source side is the same for every maximum flow, so the
            // cuts, and their weights summed in edge order, are identical.
            let cold_cut = cold.min_cut(&cold_net);
            for (sol, engine) in [(&warm, "dinic"), (&reference, "edmonds-karp")] {
                let cut = sol.min_cut(net);
                assert_eq!(cut.source_side, cold_cut.source_side, "{what}: {engine}");
                assert_eq!(cut.cut_edges, cold_cut.cut_edges, "{what}: {engine}");
                assert_eq!(
                    cut.weight.to_bits(),
                    cold_cut.weight.to_bits(),
                    "{what}: {engine}"
                );
            }

            // Through the readout: same flips and error bits, and each
            // flow's certificate audits against the data.
            let cold_network = ClassifierNetwork {
                net: cold_net,
                zero_nodes: seeded.zero_nodes.clone(),
                one_nodes: seeded.one_nodes.clone(),
            };
            let a = read_cut(out.con.clone(), Some(seeded), n, &never, true).unwrap();
            let b = read_cut(out.con, Some(cold_network), n, &never, true).unwrap();
            assert_eq!(
                a.weighted_error.to_bits(),
                b.weighted_error.to_bits(),
                "{what}"
            );
            assert_eq!((&a.to_one, &a.to_zero), (&b.to_one, &b.to_zero), "{what}");
            for cert in [a.certificate, b.certificate] {
                cert.expect("asked for")
                    .verify(&ws)
                    .unwrap_or_else(|e| panic!("{what}: certificate: {e}"));
            }
        }
        assert!(
            networks > 100 && multi_hit > 50 && dup_pairs > 20,
            "{networks} networks, {multi_hit} multi-chain zeros, {dup_pairs} duplicate pairs"
        );
    }

    /// `k` chains of `len` points each in `dim ∈ {3, 4}` dimensions:
    /// chain `c` climbs from `(c·spread + t₀, (k−1−c)·spread + t₀, t₀, …)`
    /// along the diagonal, one step of 0–2 per point (a 0 step repeats
    /// the point). Chains are ascending; heads of chains whose start
    /// offsets `t₀` differ by `spread` or more are comparable. Labels
    /// follow a per-chain threshold with 20% noise; weights vary. Points
    /// are listed chain by chain, then shuffled, and the chains come back
    /// as point ids.
    fn chain_layout(
        k: usize,
        len: usize,
        spread: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> (WeightedSet, Vec<Vec<usize>>) {
        let mut rows: Vec<(Vec<f64>, Label, f64, usize)> = Vec::new();
        for c in 0..k {
            let mut t = rng.gen_range(0..2 * spread);
            let cut = rng.gen_range(0..2 * len);
            for i in 0..len {
                t += rng.gen_range(0..=2usize);
                let mut coords = vec![(c * spread + t) as f64, ((k - 1 - c) * spread + t) as f64];
                coords.extend((2..dim).map(|j| (t * (j - 1)) as f64));
                let label = Label::from_bool((i * 2 >= cut) != rng.gen_bool(0.2));
                rows.push((coords, label, [1.0, 1.5, 2.0][rng.gen_range(0..3usize)], c));
            }
        }
        let mut ids: Vec<usize> = (0..rows.len()).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        // `ids[j]` is the row that becomes point `j`; each chain keeps its
        // rows' order, which is ascending.
        let mut point_of = vec![0; rows.len()];
        let mut ws = WeightedSet::empty(dim);
        for (j, &r) in ids.iter().enumerate() {
            point_of[r] = j;
            ws.push(&rows[r].0, rows[r].1, rows[r].2);
        }
        let mut chains = vec![Vec::new(); k];
        for (r, row) in rows.iter().enumerate() {
            chains[row.3].push(point_of[r]);
        }
        (ws, chains)
    }

    /// Σ as the active solver builds it: the points kept with
    /// probability `keep`, in index order, the layout's chains
    /// restricted to Σ's label-1 points, and the kept points' ids.
    fn sample_with_cover(
        ws: &WeightedSet,
        chains: &[Vec<usize>],
        keep: f64,
        rng: &mut StdRng,
    ) -> (WeightedSet, Vec<Vec<usize>>, Vec<usize>) {
        let mut sigma = WeightedSet::empty(ws.dim());
        let mut kept = Vec::new();
        let mut sigma_of = vec![u32::MAX; ws.len()];
        for (p, slot) in sigma_of.iter_mut().enumerate() {
            if rng.gen_bool(keep) {
                *slot = sigma.len() as u32;
                kept.push(p);
                sigma.push(ws.points().point(p), ws.label(p), ws.weight(p));
            }
        }
        let cover = crate::active::solver::sigma_cover(chains, &sigma_of, sigma.labels());
        (sigma, cover, kept)
    }

    #[test]
    fn certified_cover_gives_the_lemma6_answer_and_a_comparable_head_falls_back() {
        use crate::passive::pipeline::read_cut;
        use crate::passive::{solve_passive, PassiveSolver};
        let mut rng = StdRng::seed_from_u64(0xC0FE);
        let never = CancelToken::never();
        let (mut certified, mut fallbacks) = (0, 0);
        for trial in 0..80 {
            let dim = 3 + trial % 2;
            let k = rng.gen_range(1..7);
            let len = rng.gen_range(1..40);
            // A wide spread keeps the heads incomparable; a narrow one
            // lets start offsets make some heads comparable.
            let spread = if trial % 3 == 0 { 4 } else { 200 };
            let (ws, chains) = chain_layout(k, len, spread, dim, &mut rng);
            let keep = [1.0, 0.8, 0.5][trial % 3];
            let (sigma, cover, kept) = sample_with_cover(&ws, &chains, keep, &mut rng);
            let what = format!("trial {trial}: d {dim}, k {k}, len {len}, keep {keep}");
            let table = RankTable::build(sigma.points());
            let ones: Vec<usize> = (0..sigma.len())
                .filter(|&i| sigma.label(i) == Label::One)
                .collect();
            let heads: Vec<usize> = cover.iter().map(|c| c[0]).collect();
            let pts = sigma.points();
            let antichain = heads.iter().enumerate().all(|(a, &p)| {
                heads[a + 1..]
                    .iter()
                    .all(|&q| !pts.dominates(p, q) && !pts.dominates(q, p))
            });
            assert_eq!(
                certified_cover(&table, &ones, &cover).is_some(),
                antichain,
                "{what}"
            );
            let with = try_discover_and_build_from_table(
                &table,
                sigma.labels(),
                sigma.weights(),
                Some(&cover),
                &never,
            )
            .unwrap();
            let without = try_discover_and_build_from_table(
                &table,
                sigma.labels(),
                sigma.weights(),
                None,
                &never,
            )
            .unwrap();
            assert_eq!(with.con.zeros, without.con.zeros, "{what}");
            assert_eq!(with.con.ones, without.con.ones, "{what}");
            if antichain {
                certified += 1;
                // Dilworth: a certified cover is as small as Lemma 6's.
                if !ones.is_empty() && ones.len() < sigma.len() {
                    assert_eq!(with.width, without.width, "{what}");
                }
            } else {
                fallbacks += 1;
                let nets = (with.network.as_ref(), without.network.as_ref());
                assert_eq!(
                    nets.0.map(|n| edge_list(&n.net)),
                    nets.1.map(|n| edge_list(&n.net)),
                    "{what}: the fallback must build the Lemma-6 network"
                );
            }
            let n = sigma.len();
            let a = read_cut(with.con, with.network, n, &never, false).unwrap();
            let b = read_cut(without.con, without.network, n, &never, false).unwrap();
            assert_eq!(
                a.weighted_error.to_bits(),
                b.weighted_error.to_bits(),
                "{what}"
            );
            assert_eq!((a.to_one, a.to_zero), (b.to_one, b.to_zero), "{what}");

            // The active solver ranks Σ by gathering P's table; the
            // gathered ranks are sparse but order like Σ's own.
            let gathered = RankTable::build(ws.points()).subset(&kept);
            let plain = solve_passive(&sigma);
            for (table, name) in [(None, "reused"), (Some(gathered), "gathered")] {
                let reused = PassiveSolver::new().solve_with_cover(&sigma, table, &cover);
                assert_eq!(
                    reused.weighted_error.to_bits(),
                    plain.weighted_error.to_bits(),
                    "{what}: {name}"
                );
                assert_eq!(reused.assignment, plain.assignment, "{what}: {name}");
                assert_eq!(reused.classifier, plain.classifier, "{what}: {name}");
            }
        }
        assert!(
            certified > 20 && fallbacks > 5,
            "{certified} certified, {fallbacks} fell back"
        );
    }

    #[test]
    fn a_cover_that_is_not_an_ascending_partition_is_not_certified() {
        let mut ws = WeightedSet::empty(3);
        for (coords, label) in [
            ([0.0, 5.0, 0.0], Label::One),
            ([1.0, 6.0, 1.0], Label::One),
            ([5.0, 0.0, 0.0], Label::One),
            ([9.0, 9.0, 9.0], Label::Zero),
        ] {
            ws.push(&coords, label, 1.0);
        }
        let table = RankTable::build(ws.points());
        let ones = [0, 1, 2];
        assert!(certified_cover(&table, &ones, &[vec![0, 1], vec![2]]).is_some());
        for bad in [
            vec![vec![1, 0], vec![2]],       // descending
            vec![vec![0], vec![2]],          // point 1 uncovered
            vec![vec![0, 1], vec![2, 1]],    // point 1 twice
            vec![vec![0, 3], vec![2]],       // a label-0 point
            vec![vec![0], vec![1], vec![2]], // heads 0 ⪯ 1 comparable
        ] {
            assert!(certified_cover(&table, &ones, &bad).is_none(), "{bad:?}");
        }
    }
}
