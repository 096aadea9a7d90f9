//! Contending points — Section 5.1 and Lemma 15.
//!
//! A point `p ∈ P` is *contending* when its label can conflict with
//! monotonicity:
//!
//! * `label(p) = 0` but some label-1 point `q` is dominated by `p`, or
//! * `label(p) = 1` but some label-0 point `q` dominates `p`.
//!
//! Lemma 15 shows that an optimal monotone classifier on the contending
//! subset extends to one on all of `P` by letting every non-contending
//! point keep its own label. The passive solver therefore only feeds
//! contending points into the flow network.
//!
//! Equal points with different labels are treated as mutually dominating
//! (reflexive dominance), which is forced: any classifier assigns equal
//! points equal outputs, so such a pair always contends.
//!
//! One engine discovers them in production, and one reference checks
//! it:
//!
//! * [`ContendingPoints::compute`] runs the solver's own discovery,
//!   `crate::passive::pipeline::discover`: the `O(n log n)` rank sweep
//!   of `crate::passive::sparse` at `d ≤ 2`, the chain ladder's binary
//!   searches (`crate::passive::ladder`) at `d ≥ 3`;
//! * [`ContendingPoints::compute_generic`], the naive `O(d·n²)`
//!   pairwise scan, is its reference.
//!
//! Neither builds a `Θ(n²/64)` dominator matrix.

use crate::passive::pipeline::discover;
use mc_geom::{RankTable, WeightedSet};
use mc_obs::CancelToken;

/// The partition of contending points by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContendingPoints {
    /// Indices of contending label-0 points (`P_0^con`).
    pub zeros: Vec<usize>,
    /// Indices of contending label-1 points (`P_1^con`).
    pub ones: Vec<usize>,
}

impl ContendingPoints {
    /// Computes the contending points of `data`: ranks the points and
    /// runs the passive solver's discovery over them, keeping the sets
    /// and dropping the network it builds beside them.
    pub fn compute(data: &WeightedSet) -> Self {
        let table = RankTable::build(data.points());
        discover(
            &table,
            data.labels(),
            data.weights(),
            None,
            &CancelToken::never(),
        )
        .expect("a never-token cannot cancel")
        .con
    }

    /// The generic `O(d·n²)` pairwise scan (any dimension); the
    /// reference implementation the sweep and the ladder are tested
    /// against. A label-0 point contends iff it dominates a
    /// label-1 point, and that label-1 point contends too, so one pass
    /// over ordered pairs discovers both sides.
    pub fn compute_generic(data: &WeightedSet) -> Self {
        let n = data.len();
        let points = data.points();
        let mut zeros = Vec::new();
        let mut ones_mask = vec![false; n];
        for p in (0..n).filter(|&p| data.label(p).is_zero()) {
            let mut contends = false;
            for (q, hit) in ones_mask.iter_mut().enumerate() {
                if data.label(q).is_one() && points.dominates(p, q) {
                    contends = true;
                    *hit = true;
                }
            }
            if contends {
                zeros.push(p);
            }
        }
        let ones = (0..n).filter(|&q| ones_mask[q]).collect();
        Self { zeros, ones }
    }

    /// Total number of contending points.
    pub fn len(&self) -> usize {
        self.zeros.len() + self.ones.len()
    }

    /// `true` iff no point contends (the labeling is already monotone).
    pub fn is_empty(&self) -> bool {
        self.zeros.is_empty() && self.ones.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::{Label, PointSet};

    fn wset(rows: &[(Vec<f64>, Label, f64)]) -> WeightedSet {
        let dim = rows[0].0.len();
        let mut ws = WeightedSet::empty(dim);
        for (coords, label, weight) in rows {
            ws.push(coords, *label, *weight);
        }
        ws
    }

    #[test]
    fn monotone_labeling_has_no_contenders() {
        let ws = wset(&[
            (vec![0.0], Label::Zero, 1.0),
            (vec![1.0], Label::Zero, 1.0),
            (vec![2.0], Label::One, 1.0),
        ]);
        let con = ContendingPoints::compute(&ws);
        assert!(con.is_empty());
    }

    #[test]
    fn inversion_contends_on_both_sides() {
        let ws = wset(&[(vec![0.0], Label::One, 1.0), (vec![1.0], Label::Zero, 1.0)]);
        let con = ContendingPoints::compute(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
    }

    #[test]
    fn equal_points_with_different_labels_contend() {
        let ws = wset(&[
            (vec![1.0, 1.0], Label::One, 1.0),
            (vec![1.0, 1.0], Label::Zero, 1.0),
        ]);
        let con = ContendingPoints::compute(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
    }

    #[test]
    fn incomparable_points_never_contend() {
        let ws = wset(&[
            (vec![0.0, 1.0], Label::One, 1.0),
            (vec![1.0, 0.0], Label::Zero, 1.0),
        ]);
        assert!(ContendingPoints::compute(&ws).is_empty());
    }

    #[test]
    fn chain_of_three_with_middle_inversion() {
        // 0 < 1 < 2 with labels 0, 1, 0: the middle 1-point is dominated
        // by the top 0-point; the top contends, the bottom does not.
        let ws = wset(&[
            (vec![0.0], Label::Zero, 1.0),
            (vec![1.0], Label::One, 1.0),
            (vec![2.0], Label::Zero, 1.0),
        ]);
        let con = ContendingPoints::compute(&ws);
        assert_eq!(con.zeros, vec![2]);
        assert_eq!(con.ones, vec![1]);
    }

    #[test]
    fn paper_figure2a_contending_set() {
        // See mc-data::paper_example for the full fixture; here we spot
        // check the structural pattern: whites above a black contend.
        let ws = wset(&[
            (vec![1.0, 1.5], Label::One, 100.0), // p1
            (vec![2.0, 3.0], Label::Zero, 1.0),  // p2 ⪰ p1 → both contend
            (vec![8.0, 0.2], Label::Zero, 1.0),  // p6: no black below
        ]);
        let con = ContendingPoints::compute(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
    }

    #[test]
    fn empty_set() {
        let ws = WeightedSet::new(PointSet::new(2), vec![], vec![]);
        assert!(ContendingPoints::compute(&ws).is_empty());
    }

    /// `n` randomly labelled points in `dim` dimensions, on the grid
    /// `0..=8` or, when `tied`, on a seven-value palette with both signed
    /// zeros and `±∞`. About a quarter repeat an earlier point's
    /// coordinates under a fresh label, so duplicates cross labels.
    fn random_wset(n: usize, dim: usize, tied: bool, seed: u64) -> WeightedSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PALETTE: [f64; 7] = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 2.0, 3.0, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WeightedSet::empty(dim);
        for i in 0..n {
            let coords: Vec<f64> = if i > 0 && rng.gen_bool(0.25) {
                ws.points().point(rng.gen_range(0..i)).to_vec()
            } else if tied {
                (0..dim)
                    .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                    .collect()
            } else {
                (0..dim)
                    .map(|_| rng.gen_range(0.0f64..8.0).round())
                    .collect()
            };
            ws.push(&coords, Label::from_bool(rng.gen_bool(0.5)), 1.0);
        }
        ws
    }

    #[test]
    fn compute_matches_generic() {
        let mut cases = vec![(3000usize, 3usize, false)];
        for dim in 1..=6 {
            for n in [0usize, 1, 2, 40, 75, 200] {
                cases.extend([(n, dim, false), (n, dim, true)]);
            }
        }
        for (n, dim, tied) in cases {
            let ws = random_wset(n, dim, tied, 0xC1 + (n * 8 + dim) as u64);
            assert_eq!(
                ContendingPoints::compute(&ws),
                ContendingPoints::compute_generic(&ws),
                "n = {n}, d = {dim}, tied = {tied}"
            );
        }
    }

    #[test]
    fn all_one_and_all_zero_inputs() {
        for label in [Label::Zero, Label::One] {
            let mut ws = WeightedSet::empty(3);
            for i in 0..10 {
                ws.push(&[i as f64, 1.0, 1.0], label, 1.0);
            }
            assert!(ContendingPoints::compute(&ws).is_empty());
        }
    }
}
