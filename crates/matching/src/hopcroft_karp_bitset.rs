//! Hopcroft–Karp over bitset rows: word-parallel BFS/DFS.
//!
//! Hopcroft–Karp's `O(E·sqrt(V))` phases, with every neighbourhood
//! scan a `u64` word operation over a bitset row instead of a pointer
//! walk over an adjacency list. The engine is generic over
//! [`RowSource`]: rows can be owned up front
//! ([`BitsetGraph`](crate::BitsetGraph)) or computed on demand from rank
//! columns ([`OracleGraph`](crate::OracleGraph)) — the matrix-free path
//! that removes the `Θ(n²/64)` residency wall. Both produce the same row
//! bits, so the matching (and everything downstream: König set, width,
//! antichain) is identical either way.
//!
//! Three tricks keep the constant small:
//!
//! 1. **Greedy seeding, top down** — a first pass visits the left
//!    vertices in descending index order and matches each to its lowest
//!    free neighbour. On a Lemma-6 split graph labelled in a linear
//!    extension that is the top of the poset first, and each point takes
//!    the lowest free point above it: its immediate successor on a chain,
//!    so chain-heavy inputs seed almost perfectly and leave the phased
//!    search only the stragglers. The source answers each left's
//!    question itself ([`RowSource::first_free_neighbour`]); an on-demand
//!    source scans lazily from the diagonal word and builds no row.
//! 2. **Frontier-bitset BFS** — each layer ORs the frontier's rows into
//!    one `reached` bitset (fanned out via `mc_geom::parallel_chunks`
//!    above the `MC_PAR_THRESHOLD` cut-over), then walks
//!    `reached AND NOT seen` once to assign layers — and records each
//!    layer's newly seen rights as a **level mask** with a sparse list
//!    of its nonzero words.
//! 3. **Level-masked DFS** — a frame for a left at BFS layer `d` scans
//!    `row AND level_mask[d]`, touching only that level's nonzero
//!    words. Every surviving bit is productive — a free right
//!    (augment) or a next-layer left (descend) — and retiring a left
//!    clears its matched right from the level mask in place, so dead
//!    subtrees cost zero bits on later scans within the same phase.
//!
//! On-demand sources get one extra structure: a **depth-indexed row
//! cache** for the DFS. A frame's row lands in the scratch buffer for
//! its depth and stays valid while that left owns the slot, so
//! backtracking and resuming a frame never recomputes its row — the
//! per-thread scratch is reused across BFS layers, DFS descents, and
//! phases alike. The phases ask for rows through
//! [`RowSource::phase_row`] and [`RowSource::or_row_into`], so a source
//! with a row cache (an [`OracleGraph`](crate::OracleGraph) built
//! `with_row_cache`) keeps the rows they ask for; the greedy seed
//! caches nothing.
//!
//! The layering is level-synchronous and rights are claimed lowest-index
//! first, so the matching depends only on the row bits: every source of
//! the same rows gives the same matching, which the decomposition-level
//! equivalence tests in `mc-chains` lean on. Lemma-6 split graphs are
//! labelled in a linear extension before they get here, so a left's
//! successors all carry larger labels and every row starts at or after
//! its diagonal word ([`RowSource::first_word`], checked by a debug
//! assertion on every phase row).

use crate::row_source::RowSource;
use crate::{Matching, MatchingStats};
use mc_geom::parallel_chunks;
use mc_obs::cancel::Checkpoint;
use mc_obs::{CancelToken, Cancelled};

/// Bitset-native Hopcroft–Karp algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopcroftKarpBitset;

/// König's `Z` for the maximum matching: the vertices reachable from the
/// unmatched lefts by alternating paths (non-matching edges left →
/// right, matching edges right → left). The last, failing BFS layers
/// exactly this set — it layers everything reachable and finds no free
/// right — so it comes with the matching at no extra traversal.
/// `(L \ Z) ∪ (R ∩ Z)` is a minimum vertex cover (König), so a point
/// whose left copy is in `Z` and whose right copy is not lies in a
/// maximum antichain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlternatingReach {
    /// `left[l]`: left `l` is in `Z`.
    pub left: Vec<bool>,
    /// Bit `r` (word `r / 64`): right `r` is in `Z`.
    pub right: Vec<u64>,
}

impl AlternatingReach {
    /// `true` iff right `r` is in `Z`.
    pub fn right_contains(&self, r: usize) -> bool {
        self.right[r >> 6] >> (r & 63) & 1 == 1
    }
}

const INF: u32 = u32::MAX;

/// Sentinel for a DFS row-cache slot nobody owns.
const NO_OWNER: u32 = u32::MAX;

struct State<'g, 't, G: RowSource> {
    g: &'g G,
    token: &'t CancelToken,
    /// Ticks one unit per row word the DFS resolves, so on-demand row
    /// computations and cache fills stay interruptible.
    cp: Checkpoint<'t>,
    left_match: Vec<Option<u32>>,
    right_match: Vec<Option<u32>>,
    /// BFS layer of each left vertex.
    dist: Vec<u32>,
    /// Rights already assigned to a BFS layer.
    seen: Vec<u64>,
    /// Per BFS step `d`: the rights first seen at that step, as a bitset
    /// plus the sorted indices of its nonzero words. A left at layer `d`
    /// only has useful edges into `levels[d]`, so DFS scans are masked
    /// by (and retirement prunes from) these in place.
    levels: Vec<(Vec<u64>, Vec<u32>)>,
    /// Per-DFS-depth row scratch, grown lazily to the deepest frame and
    /// reused across roots and phases (rows are static per graph).
    row_pool: Vec<Vec<u64>>,
    /// Which left vertex's row currently sits in each pool slot
    /// ([`NO_OWNER`] when the slot holds no reusable row).
    pool_owner: Vec<u32>,
    words_scanned: u64,
}

impl<G: RowSource> State<'_, '_, G> {
    /// Level-synchronous layered BFS from all unmatched left vertices.
    /// Returns `true` iff an augmenting path exists. The whole reachable
    /// graph is layered every phase (no truncation at the first free
    /// right): free rights then sit in the level masks at every depth
    /// they occur, letting the DFS sweep augment along paths of several
    /// lengths per phase, which cuts the phase count enough to beat the
    /// classic truncated variant here.
    /// Workers tick one unit per row word they OR in.
    fn bfs(&mut self) -> Result<bool, Cancelled> {
        let words = self.g.words();
        let mut frontier: Vec<u32> = Vec::new();
        for l in 0..self.g.num_left() {
            if self.left_match[l].is_none() {
                self.dist[l] = 0;
                frontier.push(l as u32);
            } else {
                self.dist[l] = INF;
            }
        }
        self.seen.iter_mut().for_each(|w| *w = 0);
        self.levels.clear();
        let mut reached = vec![0u64; words];
        let mut found = false;
        let mut layer = 0u32;
        while !frontier.is_empty() {
            // Word-parallel frontier expansion: OR all frontier rows.
            reached.iter_mut().for_each(|w| *w = 0);
            let g = self.g;
            let token = self.token;
            let fr = &frontier;
            let partials = parallel_chunks(fr.len(), |range| {
                let mut acc = vec![0u64; words];
                let mut scratch = vec![0u64; words];
                let mut scanned = 0u64;
                let mut cp = Checkpoint::new(token);
                for &l in &fr[range] {
                    cp.tick(words as u64)?;
                    scanned += g.or_row_into(l as usize, &mut acc, &mut scratch);
                }
                Ok((acc, scanned))
            });
            for part in partials {
                let (acc, scanned) = part?;
                for (r, a) in reached.iter_mut().zip(acc) {
                    *r |= a;
                }
                self.words_scanned += scanned;
            }
            let mut next: Vec<u32> = Vec::new();
            let mut level_mask = vec![0u64; words];
            let mut level_nz: Vec<u32> = Vec::new();
            for (wi, &rw) in reached.iter().enumerate() {
                let new = rw & !self.seen[wi];
                if new == 0 {
                    continue;
                }
                self.seen[wi] |= new;
                level_mask[wi] = new;
                level_nz.push(wi as u32);
                let mut bits = new;
                while bits != 0 {
                    let r = (wi << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    match self.right_match[r] {
                        None => found = true,
                        Some(l2) => {
                            let l2 = l2 as usize;
                            if self.dist[l2] == INF {
                                self.dist[l2] = layer + 1;
                                next.push(l2 as u32);
                            }
                        }
                    }
                }
            }
            self.levels.push((level_mask, level_nz));
            layer += 1;
            frontier = next;
        }
        Ok(found)
    }

    /// DFS along the layered graph, flipping an augmenting path if
    /// found. Iterative: a frame for a left at layer `d` scans `row AND
    /// levels[d]` over only that level's nonzero words — every surviving
    /// bit is a free right (augment) or a next-layer left (descend), so
    /// no edge is examined in vain.
    fn dfs(&mut self, root: usize) -> Result<bool, Cancelled> {
        let words = self.g.words();
        let State {
            g,
            left_match,
            right_match,
            dist,
            levels,
            row_pool,
            pool_owner,
            words_scanned,
            cp,
            ..
        } = self;
        let g: &G = g;
        // Each frame: (left vertex, next position in its level's
        // nonzero-word list, unconsumed bits of the previously loaded
        // word); `via[depth]` is the right vertex used to reach frame
        // `depth + 1`'s left, then the free endpoint.
        let mut frames: Vec<(u32, u32, u64)> = vec![(root as u32, 0, 0)];
        let mut via: Vec<u32> = Vec::new();
        loop {
            let depth = frames.len() - 1;
            let (l, mut pos, mut word) = frames[depth];
            let lu = l as usize;
            let d = dist[lu] as usize;
            let mut descended = false;
            // Lefts layered in the BFS step that found a free right are
            // never expanded, so they have no level to scan into.
            if d < levels.len() {
                if row_pool.len() <= depth {
                    row_pool.push(vec![0u64; words]);
                    pool_owner.push(NO_OWNER);
                }
                // Resolve the frame's row, reusing the depth slot's
                // cached copy when this left still owns it (on-demand
                // sources would otherwise recompute on every resume).
                let slot = &mut row_pool[depth];
                let row: &[u64] = if pool_owner[depth] == l {
                    slot
                } else {
                    cp.tick(words as u64)?;
                    let resolved = g.phase_row(lu, slot);
                    pool_owner[depth] = if resolved.cached { l } else { NO_OWNER };
                    resolved.row
                };
                debug_assert!(
                    row[..g.first_word(lu)].iter().all(|&w| w == 0),
                    "row {lu} has a bit below its first word"
                );
                let (lvl_mask, lvl_nz) = &mut levels[d];
                'scan: loop {
                    while word == 0 {
                        if pos as usize >= lvl_nz.len() {
                            break 'scan;
                        }
                        let wi = lvl_nz[pos as usize] as usize;
                        pos += 1;
                        *words_scanned += 1;
                        word = row[wi] & lvl_mask[wi];
                    }
                    let wi = lvl_nz[(pos - 1) as usize] as usize;
                    let r = (wi << 6) | word.trailing_zeros() as usize;
                    word &= word - 1;
                    match right_match[r] {
                        None => {
                            // Augmenting path: flip matches along the stack.
                            via.push(r as u32);
                            for (fd, &(lv, _, _)) in frames.iter().enumerate() {
                                let rv = via[fd] as usize;
                                left_match[lv as usize] = Some(rv as u32);
                                right_match[rv] = Some(lv);
                            }
                            return Ok(true);
                        }
                        Some(l2) => {
                            let l2u = l2 as usize;
                            if dist[l2u] == dist[lu] + 1 {
                                frames[depth] = (l, pos, word);
                                via.push(r as u32);
                                frames.push((l2, 0, 0));
                                descended = true;
                                break 'scan;
                            }
                        }
                    }
                }
            }
            if descended {
                continue;
            }
            // Exhausted this vertex: retire it and drop its matched
            // right from the level mask it sits in (no path can use
            // that right productively any more this sweep).
            if let Some(rm) = left_match[lu] {
                if d > 0 && d - 1 < levels.len() {
                    let rm = rm as usize;
                    levels[d - 1].0[rm >> 6] &= !(1u64 << (rm & 63));
                }
            }
            dist[lu] = INF;
            frames.pop();
            if frames.is_empty() {
                return Ok(false);
            }
            via.pop();
        }
    }
}

impl HopcroftKarpBitset {
    /// Computes a maximum matching of `g` and the phase statistics
    /// (greedy hits, rounds, augmentations, words scanned). Generic over
    /// the row source: owned [`BitsetGraph`](crate::BitsetGraph) rows and
    /// on-demand [`OracleGraph`](crate::OracleGraph) rows produce
    /// identical matchings.
    pub fn solve_with_stats<G: RowSource>(&self, g: &G) -> (Matching, MatchingStats) {
        let (matching, stats, _) = self
            .solve_with_stats_cancellable(g, &mc_obs::CancelToken::never())
            .expect("a never-token cannot cancel");
        (matching, stats)
    }

    /// Cancellable twin of [`solve_with_stats`](Self::solve_with_stats),
    /// which also returns König's `Z` off the last layering
    /// ([`AlternatingReach`]): the token is checkpointed on the words the
    /// greedy seed scans, polled between Hopcroft–Karp rounds, and
    /// checkpointed once per row the BFS/DFS phases resolve (on-demand
    /// sources compute or cache rows there). On cancellation the partial
    /// matching is discarded.
    pub fn solve_with_stats_cancellable<G: RowSource>(
        &self,
        g: &G,
        token: &CancelToken,
    ) -> Result<(Matching, MatchingStats, AlternatingReach), Cancelled> {
        let _span = mc_obs::span("hopcroft_karp_bitset");
        token.poll()?;
        let nl = g.num_left();
        let nr = g.num_right();
        let words = g.words();
        // The greedy seed's worst case, every left scanning from its
        // first word to the last, is the work estimate; the seed ticks
        // the words it really scans, and BFS/DFS rounds tick nothing.
        let worst: u64 = (0..nl).map(|l| (words - g.first_word(l)) as u64 + 1).sum();
        let mut cp = Checkpoint::with_progress(token, "matching", worst);
        let mut st = State {
            g,
            token,
            cp: Checkpoint::new(token),
            left_match: vec![None; nl],
            right_match: vec![None; nr],
            dist: vec![INF; nl],
            seen: vec![0u64; words],
            levels: Vec::new(),
            row_pool: Vec::new(),
            pool_owner: Vec::new(),
            words_scanned: 0,
        };
        // All-valid-rights mask (padding bits beyond `nr` stay zero).
        let mut free = vec![!0u64; words];
        if words > 0 && nr & 63 != 0 {
            free[words - 1] = (1u64 << (nr & 63)) - 1;
        }
        // Greedy seed, top down: each left in descending index order
        // takes its lowest free neighbour. The source scans from the
        // left's first word and stops at the first hit, so on a split
        // graph labelled in a linear extension a chain's points each take
        // their successor a few words past the diagonal.
        let mut greedy = 0u64;
        let mut scratch = vec![0u64; words];
        for l in (0..nl).rev() {
            let from = g.first_word(l);
            let hit = g.first_free_neighbour(l, &free, &mut scratch);
            let scanned = (hit.map_or(words, |r| (r >> 6) + 1) - from) as u64;
            st.words_scanned += scanned;
            cp.tick(scanned + 1)?;
            if let Some(r) = hit {
                st.left_match[l] = Some(r as u32);
                st.right_match[r] = Some(l as u32);
                free[r >> 6] &= !(1u64 << (r & 63));
                greedy += 1;
            }
        }
        let mut rounds = 0u64;
        let mut augmented = 0u64;
        loop {
            token.poll()?;
            if !st.bfs()? {
                break;
            }
            rounds += 1;
            for l in 0..nl {
                if st.left_match[l].is_none() && st.dfs(l)? {
                    augmented += 1;
                }
            }
        }
        let stats = MatchingStats {
            greedy_matched: greedy,
            rounds,
            augmented,
            words_scanned: st.words_scanned,
        };
        flush_stats(&stats);
        // The loop ends on a BFS that layered every alternating-reachable
        // vertex and found no free right.
        let reach = AlternatingReach {
            left: st.dist.iter().map(|&d| d != INF).collect(),
            right: st.seen,
        };
        Ok((
            Matching {
                left_match: st.left_match,
                right_match: st.right_match,
            },
            stats,
            reach,
        ))
    }
}

/// Publishes one solve's statistics as the `matching.*` counters and
/// the `matching.greedy_hit_rate` gauge.
fn flush_stats(stats: &MatchingStats) {
    mc_obs::counter_add("matching.greedy_matched", stats.greedy_matched);
    mc_obs::counter_add("matching.hk_rounds", stats.rounds);
    mc_obs::counter_add("matching.hk_augmented", stats.augmented);
    if stats.words_scanned > 0 {
        mc_obs::counter_add("matching.bitset_words_scanned", stats.words_scanned);
    }
    let size = stats.greedy_matched + stats.augmented;
    if size > 0 {
        mc_obs::gauge_set(
            "matching.greedy_hit_rate",
            stats.greedy_matched as f64 / size as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitsetGraph, Kuhn};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The graph on `nl + nr` vertices with the given edges, as owned rows.
    fn graph(nl: usize, nr: usize, edges: &[(usize, usize)]) -> BitsetGraph {
        let mut rows = vec![vec![0u64; nr.div_ceil(64)]; nl];
        for &(l, r) in edges {
            rows[l][r >> 6] |= 1u64 << (r & 63);
        }
        let mut g = BitsetGraph::new(nr);
        for row in rows {
            g.push(row.into_boxed_slice());
        }
        g
    }

    fn solve(g: &BitsetGraph) -> Matching {
        HopcroftKarpBitset.solve_with_stats(g).0
    }

    #[test]
    fn perfect_matching_on_complete_graph() {
        let edges: Vec<_> = (0..4).flat_map(|l| (0..4).map(move |r| (l, r))).collect();
        let g = graph(4, 4, &edges);
        let m = solve(&g);
        assert_eq!(m.size(), 4);
        m.validate(&g).unwrap();
    }

    #[test]
    fn requires_augmentation() {
        // The top-down greedy seeds L2->R0 (its lowest free right), then
        // finds L1's only right taken and seeds L0->R2; the phased search
        // must undo L2->R0 via the path L1, R0, L2, R1 to match all three.
        let g = graph(3, 3, &[(0, 2), (1, 0), (2, 0), (2, 1)]);
        let (m, stats) = HopcroftKarpBitset.solve_with_stats(&g);
        assert_eq!(m.size(), 3);
        m.validate(&g).unwrap();
        assert_eq!(stats.greedy_matched, 2);
        assert_eq!(stats.augmented, 1);
        assert!(stats.words_scanned > 0);
    }

    #[test]
    fn no_edges_and_empty_sides() {
        assert_eq!(solve(&graph(5, 5, &[])).size(), 0);
        assert_eq!(solve(&graph(0, 3, &[])).size(), 0);
        assert_eq!(solve(&graph(3, 0, &[])).size(), 0);
    }

    #[test]
    fn ladder_needs_no_rounds_after_greedy() {
        // L_i -> {R_i, R_{i+1}}: the top-down greedy seeds L_{k-1} ->
        // R_{k-1} first and every L_i -> R_i after it, the perfect
        // matching, so zero phases should run.
        let k = 700; // spans many words
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i, i));
            if i + 1 < k {
                edges.push((i, i + 1));
            }
        }
        let (m, stats) = HopcroftKarpBitset.solve_with_stats(&graph(k, k, &edges));
        assert_eq!(m.size(), k);
        assert_eq!(stats.greedy_matched, k as u64);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn deep_augmenting_paths() {
        // L_i -> {R_i, R_{i+1}} for i < k plus L_k -> {R_0, R_1}. The
        // top-down greedy seeds L_k -> R_0, then L_i -> R_i for i = k-1
        // down to 1, and strands L_0 (both its rights taken); R_k is the
        // only free right, so every augmenting path is a full cascade
        // such as L_0, R_1, L_1, R_2, ..., L_{k-1}, R_k — Θ(k) frames,
        // exercising the resumable word scans on backtrack and a
        // maximally deep flip.
        let k = 900;
        let mut edges = vec![(k, 0), (k, 1)];
        for i in 0..k {
            edges.push((i, i));
            edges.push((i, i + 1));
        }
        let g = graph(k + 1, k + 1, &edges);
        let (m, stats) = HopcroftKarpBitset.solve_with_stats(&g);
        assert_eq!(m.size(), k + 1);
        m.validate(&g).unwrap();
        assert_eq!(stats.greedy_matched, k as u64);
        assert_eq!(stats.augmented, 1);
    }

    /// König's certificate, checked directly: `(L \ Z) ∪ (R ∩ Z)`
    /// covers every edge of `g` and has exactly `|M|` vertices.
    fn assert_koenig_cover<G: RowSource>(
        g: &G,
        m: &Matching,
        reach: &AlternatingReach,
        what: &str,
    ) {
        let mut scratch = vec![0u64; g.words()];
        for l in (0..g.num_left()).filter(|&l| reach.left[l]) {
            for r in mc_geom::iter_ones(g.phase_row(l, &mut scratch).row) {
                assert!(reach.right_contains(r), "{what}: edge ({l}, {r}) uncovered");
            }
        }
        let left = reach.left.iter().filter(|&&z| !z).count();
        let right = (0..g.num_right())
            .filter(|&r| reach.right_contains(r))
            .count();
        assert_eq!(left + right, m.size(), "{what}: cover size");
    }

    #[test]
    fn koenig_set_is_a_minimum_cover_on_small_graphs() {
        let complete: Vec<_> = (0..4).flat_map(|l| (0..4).map(move |r| (l, r))).collect();
        let star: Vec<_> = (0..10).map(|r| (0, r)).collect();
        for (what, nl, nr, edges, size) in [
            ("path", 3, 2, vec![(0, 0), (1, 0), (1, 1), (2, 1)], 2),
            ("complete", 4, 4, complete, 4),
            ("one left, ten rights", 1, 10, star, 1),
            ("empty", 3, 3, vec![], 0),
        ] {
            let g = graph(nl, nr, &edges);
            let (m, _, reach) = HopcroftKarpBitset
                .solve_with_stats_cancellable(&g, &CancelToken::never())
                .unwrap();
            m.validate(&g).unwrap();
            assert_eq!(m.size(), size, "{what}");
            assert_koenig_cover(&g, &m, &reach, what);
        }
    }

    #[test]
    fn agrees_with_kuhn_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..60 {
            let nl = rng.gen_range(1..40);
            let nr = rng.gen_range(1..90);
            let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * nl * nr))
                .map(|_| (rng.gen_range(0..nl), rng.gen_range(0..nr)))
                .collect();
            let g = graph(nl, nr, &edges);
            let (m, _, reach) = HopcroftKarpBitset
                .solve_with_stats_cancellable(&g, &CancelToken::never())
                .unwrap();
            m.validate(&g).unwrap();
            assert_eq!(
                m.size(),
                Kuhn.solve(&g).size(),
                "trial {trial}: sizes differ"
            );
            // The last layering is König's Z.
            assert_koenig_cover(&g, &m, &reach, &format!("trial {trial}"));
        }
    }

    /// The on-demand oracle source, with and without its phase row
    /// cache, must reproduce the matching over owned rows of the
    /// pairwise strict-successor scan vertex for vertex — not just the
    /// same size — across dimensions and duplicate-heavy grids.
    #[test]
    fn oracle_source_matches_bitset_source_exactly() {
        use crate::OracleGraph;
        use mc_geom::{PointSet, RankOracle};
        let mut rng = StdRng::seed_from_u64(0x0DD);
        for dim in [1usize, 2, 3, 4] {
            for _ in 0..4 {
                let n = rng.gen_range(1..120);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..dim)
                            .map(|_| rng.gen_range(0.0..4.0f64).round())
                            .collect()
                    })
                    .collect();
                let points = PointSet::from_rows(dim, &rows);
                let oracle = RankOracle::build(&points);
                let bg = BitsetGraph::pairwise_split(&points);
                let (mb, sb, zb) = HopcroftKarpBitset
                    .solve_with_stats_cancellable(&bg, &CancelToken::never())
                    .unwrap();
                mb.validate(&bg).unwrap();
                assert_koenig_cover(&bg, &mb, &zb, &format!("dim {dim} n {n}"));
                for og in [
                    OracleGraph::new(&oracle),
                    OracleGraph::with_row_cache(&oracle),
                ] {
                    let (mo, so, zo) = HopcroftKarpBitset
                        .solve_with_stats_cancellable(&og, &CancelToken::never())
                        .unwrap();
                    assert_eq!(mb, mo, "dim {dim} n {n}");
                    assert_eq!(sb.greedy_matched, so.greedy_matched);
                    assert_eq!(sb.rounds, so.rounds);
                    assert_eq!(sb.augmented, so.augmented);
                    assert_eq!(zb, zo, "dim {dim} n {n}");
                    mo.validate(&og).unwrap();
                }
            }
        }
    }
}
