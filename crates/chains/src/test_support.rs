//! Shared fixtures for this crate's tests.
//!
//! The canonical, fully-labeled version of the paper's Figure-1 example
//! lives in `mc-data::paper_example`; this module only carries the bare
//! coordinates so `mc-chains` (a dependency of `mc-data`) can test against
//! the same geometry without a dependency cycle.

use mc_geom::PointSet;

/// Coordinates of a 16-point configuration with the chain/antichain
/// structure of the paper's Figure 1: dominance width 6, chains of sizes
/// {5, 1, 3, 1, 1, 5}, maximum antichain `{p10, p11, p12, p13, p14, p16}`.
///
/// Index `i` holds point `p_{i+1}` of the paper.
pub fn figure1_like_points() -> PointSet {
    PointSet::from_rows(
        2,
        &[
            vec![1.0, 1.5],   // p1
            vec![2.0, 3.0],   // p2
            vec![3.0, 4.0],   // p3
            vec![5.0, 5.0],   // p4
            vec![2.0, 6.0],   // p5
            vec![8.0, 0.2],   // p6
            vec![9.0, 0.4],   // p7
            vec![10.0, 0.6],  // p8
            vec![2.5, 8.0],   // p9
            vec![7.0, 14.0],  // p10
            vec![5.0, 16.0],  // p11
            vec![3.0, 18.0],  // p12
            vec![9.0, 12.0],  // p13
            vec![11.0, 10.0], // p14
            vec![12.0, 13.0], // p15
            vec![1.0, 20.0],  // p16
        ],
    )
}

/// Kuhn's minimum path cover `n − |M|` of the Lemma-6 split graph of
/// `points`, built by a pairwise dominance scan (equal points oriented by
/// ascending index): the width every decomposition must have.
#[cfg(test)]
pub(crate) fn kuhn_width(points: &PointSet) -> usize {
    use mc_geom::{bitmask_of, Dominance};
    use mc_matching::{BitsetGraph, Kuhn};
    let n = points.len();
    let mut g = BitsetGraph::new(n);
    for u in 0..n {
        let succeeds = |v: usize| match points.compare(u, v) {
            Dominance::DominatedBy => true,
            Dominance::Equal => v > u,
            _ => false,
        };
        g.push(bitmask_of(n, (0..n).filter(|&v| succeeds(v))).into_boxed_slice());
    }
    n - Kuhn.solve(&g).size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::dominance::incomparable;

    #[test]
    fn stated_chains_are_valid() {
        let pts = figure1_like_points();
        // 1-based chains from Section 2 of the paper.
        let chains: [&[usize]; 6] = [
            &[1, 2, 3, 4, 10],
            &[11],
            &[5, 9, 12],
            &[16],
            &[13],
            &[6, 7, 8, 14, 15],
        ];
        for chain in chains {
            for pair in chain.windows(2) {
                assert!(
                    pts.dominates(pair[1] - 1, pair[0] - 1),
                    "p{} should dominate p{}",
                    pair[1],
                    pair[0]
                );
            }
        }
        let mut all: Vec<usize> = chains.iter().flat_map(|c| c.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn stated_antichain_is_an_antichain() {
        let pts = figure1_like_points();
        let anti = [10, 11, 12, 13, 14, 16];
        for (a, &i) in anti.iter().enumerate() {
            for &j in &anti[a + 1..] {
                assert!(
                    incomparable(pts.point(i - 1), pts.point(j - 1)),
                    "p{i} and p{j} should be incomparable"
                );
            }
        }
    }

    #[test]
    fn brute_force_width_is_6() {
        assert_eq!(crate::brute::brute_force_width(&figure1_like_points()), 6);
    }
}
