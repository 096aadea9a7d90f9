//! Hopcroft–Karp maximum bipartite matching, `O(E·sqrt(V))` \[16\].
//!
//! This is the algorithm Lemma 6 of the paper relies on to compute a
//! minimum chain decomposition in `O(dn² + n^2.5)` time.

use crate::graph::{BipartiteGraph, Matching};
use crate::{MatchingAlgorithm, MatchingStats};
use std::collections::VecDeque;

/// Hopcroft–Karp algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopcroftKarp;

const INF: u32 = u32::MAX;

struct State<'a> {
    g: &'a BipartiteGraph,
    left_match: Vec<Option<u32>>,
    right_match: Vec<Option<u32>>,
    /// BFS layer of each left vertex.
    dist: Vec<u32>,
}

impl<'a> State<'a> {
    /// Layered BFS from all unmatched left vertices. Returns `true` iff an
    /// augmenting path exists.
    fn bfs(&mut self) -> bool {
        let mut queue = VecDeque::new();
        for l in 0..self.g.num_left() {
            if self.left_match[l].is_none() {
                self.dist[l] = 0;
                queue.push_back(l);
            } else {
                self.dist[l] = INF;
            }
        }
        let mut found = false;
        while let Some(l) = queue.pop_front() {
            for &r in self.g.neighbours(l) {
                match self.right_match[r as usize] {
                    None => found = true,
                    Some(l2) => {
                        let l2 = l2 as usize;
                        if self.dist[l2] == INF {
                            self.dist[l2] = self.dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        found
    }

    /// DFS along the layered graph, flipping an augmenting path if found.
    /// Iterative with an explicit stack of `(left vertex, next edge
    /// index)` frames — layered paths can be `Θ(V)` long on deep posets,
    /// which would overflow the call stack in a recursive formulation.
    fn dfs(&mut self, root: usize) -> bool {
        // Each frame: the left vertex and the index of the next
        // neighbour to try; `via[depth]` is the right vertex used to
        // reach frame `depth` (none for the root).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        let mut via: Vec<usize> = Vec::new();
        loop {
            let depth = frames.len() - 1;
            let (l, ref mut next) = frames[depth];
            let mut descended = false;
            while *next < self.g.neighbours(l).len() {
                let r = self.g.neighbours(l)[*next] as usize;
                *next += 1;
                match self.right_match[r] {
                    None => {
                        // Found an augmenting path: flip matches along
                        // the frame stack.
                        via.push(r);
                        for (d, &(lv, _)) in frames.iter().enumerate() {
                            let rv = via[d];
                            self.left_match[lv] = Some(rv as u32);
                            self.right_match[rv] = Some(lv as u32);
                        }
                        return true;
                    }
                    Some(l2) => {
                        let l2 = l2 as usize;
                        if self.dist[l2] == self.dist[l] + 1 {
                            via.push(r);
                            frames.push((l2, 0));
                            descended = true;
                            break;
                        }
                    }
                }
            }
            if descended {
                continue;
            }
            // Exhausted this vertex: retire it and backtrack.
            self.dist[l] = INF;
            frames.pop();
            if frames.is_empty() {
                return false;
            }
            via.pop();
        }
    }
}

impl HopcroftKarp {
    /// Like [`MatchingAlgorithm::solve`] but also returns the phase
    /// statistics (greedy hits, rounds, augmentations).
    pub fn solve_with_stats(&self, g: &BipartiteGraph) -> (Matching, MatchingStats) {
        let _span = mc_obs::span("hopcroft_karp");
        let mut st = State {
            g,
            left_match: vec![None; g.num_left()],
            right_match: vec![None; g.num_right()],
            dist: vec![INF; g.num_left()],
        };
        // Greedy seed: for each left vertex (ascending), take its first
        // free neighbour. On chain-heavy Lemma-6 inputs this already
        // matches most vertices, cutting the BFS/DFS phases to the few
        // vertices that genuinely need an augmenting path. (The bitset
        // engine seeds top down instead, so the two engines may return
        // different maximum matchings of the same size.)
        let mut greedy = 0u64;
        for l in 0..g.num_left() {
            for &r in g.neighbours(l) {
                let r = r as usize;
                if st.right_match[r].is_none() {
                    st.left_match[l] = Some(r as u32);
                    st.right_match[r] = Some(l as u32);
                    greedy += 1;
                    break;
                }
            }
        }
        // Accumulated locally; flushed once so the disabled-tracing cost
        // on this hot path is a plain integer increment.
        let mut rounds = 0u64;
        let mut augmented = 0u64;
        while st.bfs() {
            rounds += 1;
            for l in 0..g.num_left() {
                if st.left_match[l].is_none() && st.dfs(l) {
                    augmented += 1;
                }
            }
        }
        let stats = MatchingStats {
            greedy_matched: greedy,
            rounds,
            augmented,
            words_scanned: 0,
        };
        flush_stats(&stats);
        (
            Matching {
                left_match: st.left_match,
                right_match: st.right_match,
            },
            stats,
        )
    }
}

/// Emits the shared `matching.*` counters for one solve.
pub(crate) fn flush_stats(stats: &MatchingStats) {
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

impl MatchingAlgorithm for HopcroftKarp {
    fn name(&self) -> &'static str {
        "hopcroft-karp"
    }

    fn solve(&self, g: &BipartiteGraph) -> Matching {
        self.solve_with_stats(g).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_on_complete_graph() {
        let mut g = BipartiteGraph::new(4, 4);
        for l in 0..4 {
            for r in 0..4 {
                g.add_edge(l, r);
            }
        }
        let m = HopcroftKarp.solve(&g);
        assert_eq!(m.size(), 4);
        m.validate(&g).unwrap();
    }

    #[test]
    fn path_graph() {
        // L0-R0, L1-R0, L1-R1, L2-R1 : max matching 2.
        let mut g = BipartiteGraph::new(3, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        g.add_edge(2, 1);
        let m = HopcroftKarp.solve(&g);
        assert_eq!(m.size(), 2);
        m.validate(&g).unwrap();
    }

    #[test]
    fn requires_augmentation() {
        // Greedy L0->R0 must be undone to match both.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let m = HopcroftKarp.solve(&g);
        assert_eq!(m.size(), 2);
        m.validate(&g).unwrap();
    }

    #[test]
    fn no_edges() {
        let g = BipartiteGraph::new(5, 5);
        let m = HopcroftKarp.solve(&g);
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn greedy_seed_is_reported_and_consistent() {
        // L0->R0 greedily, then L1 needs the augmenting flip.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let (m, stats) = HopcroftKarp.solve_with_stats(&g);
        assert_eq!(m.size(), 2);
        assert_eq!(stats.greedy_matched + stats.augmented, 2);
        assert!(stats.greedy_matched >= 1);
        assert_eq!(stats.words_scanned, 0);
    }

    #[test]
    fn asymmetric_sides() {
        let mut g = BipartiteGraph::new(1, 10);
        for r in 0..10 {
            g.add_edge(0, r);
        }
        let m = HopcroftKarp.solve(&g);
        assert_eq!(m.size(), 1);
        m.validate(&g).unwrap();
    }
}

#[cfg(test)]
mod deep_tests {
    use super::*;

    /// A ladder graph whose only augmenting paths are Θ(V) long: checks
    /// the iterative DFS survives where recursion would overflow.
    #[test]
    fn deep_alternating_paths() {
        let k = 150_000;
        // L_i connects to R_i and R_{i+1}; a perfect matching requires
        // L_i -> R_i after a cascade of flips.
        let mut g = BipartiteGraph::new(k, k);
        for i in 0..k {
            g.add_edge(i, i);
            if i + 1 < k {
                g.add_edge(i, i + 1);
            }
        }
        let (m, stats) = HopcroftKarp.solve_with_stats(&g);
        assert_eq!(m.size(), k);
        m.validate(&g).unwrap();
        // The greedy seed picks L_i -> R_i straight away, so no
        // augmentation phases should be needed at all.
        assert_eq!(stats.greedy_matched, k as u64);
        assert_eq!(stats.rounds, 0);
    }
}
