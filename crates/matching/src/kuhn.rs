//! Kuhn's augmenting-path algorithm, `O(V·E)` — the simple reference
//! implementation used to cross-validate Hopcroft–Karp in tests.

use crate::row_source::RowSource;
use crate::Matching;

/// Kuhn's algorithm (repeated DFS augmentation).
#[derive(Debug, Clone, Copy, Default)]
pub struct Kuhn;

fn try_augment(
    adj: &[Vec<usize>],
    l: usize,
    visited: &mut [bool],
    left_match: &mut [Option<u32>],
    right_match: &mut [Option<u32>],
) -> bool {
    for &r in &adj[l] {
        if visited[r] {
            continue;
        }
        visited[r] = true;
        let free = match right_match[r] {
            None => true,
            Some(l2) => try_augment(adj, l2 as usize, visited, left_match, right_match),
        };
        if free {
            left_match[l] = Some(r as u32);
            right_match[r] = Some(l as u32);
            return true;
        }
    }
    false
}

impl Kuhn {
    /// Computes a maximum matching of `g`, reading each left's row once
    /// into a neighbour list.
    pub fn solve<G: RowSource>(&self, g: &G) -> Matching {
        let mut scratch = vec![0u64; g.words()];
        let adj: Vec<Vec<usize>> = (0..g.num_left())
            .map(|l| mc_geom::iter_ones(g.phase_row(l, &mut scratch).row).collect())
            .collect();
        let mut left_match = vec![None; g.num_left()];
        let mut right_match = vec![None; g.num_right()];
        let mut visited = vec![false; g.num_right()];
        for l in 0..g.num_left() {
            visited.iter_mut().for_each(|v| *v = false);
            try_augment(&adj, l, &mut visited, &mut left_match, &mut right_match);
        }
        Matching {
            left_match,
            right_match,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitsetGraph;

    #[test]
    fn matches_simple_cases() {
        let mut g = BitsetGraph::new(2);
        g.push(Box::new([0b11]));
        g.push(Box::new([0b01]));
        let m = Kuhn.solve(&g);
        assert_eq!(m.size(), 2);
        m.validate(&g).unwrap();
    }

    #[test]
    fn star_graph() {
        let mut g = BitsetGraph::new(1);
        for _ in 0..5 {
            g.push(Box::new([0b1]));
        }
        let m = Kuhn.solve(&g);
        assert_eq!(m.size(), 1);
        m.validate(&g).unwrap();
    }
}
