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
//! Discovery strategies, fastest applicable first:
//!
//! * `d ≤ 2` — the `O(n log n)` sweep in `crate::passive::sparse`;
//! * `d ≥ 3` in the solver — the chain ladder's binary searches
//!   (`crate::passive::ladder`);
//! * `d ≥ 3` in [`ContendingPoints::compute`] — one dominator-row `AND`
//!   per label-1 point against the label-0 mask, with the rows computed
//!   on demand by a [`RankOracle`];
//! * the naive `O(d·n²)` pairwise scan, kept as the reference
//!   implementation ([`ContendingPoints::compute_generic`]).
//!
//! None of them builds a `Θ(n²/64)` dominator matrix.

use mc_geom::{bitmask_of, iter_ones, parallel_chunks, RankOracle, WeightedSet};
use std::ops::Range;

/// The partition of contending points by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContendingPoints {
    /// Indices of contending label-0 points (`P_0^con`).
    pub zeros: Vec<usize>,
    /// Indices of contending label-1 points (`P_1^con`).
    pub ones: Vec<usize>,
}

impl ContendingPoints {
    /// Computes the contending points of `data` — `O(n log n)` sweeps for
    /// `d ≤ 2`, oracle row-`AND`s otherwise: a label-1 point `q` contends
    /// iff `q`'s dominator row `AND` the label-0 mask is non-empty, and
    /// the union of those intersections is exactly the contending
    /// label-0 side. `O(d·n²/64)` word ops, parallel over the label-1
    /// points, with one row buffer per worker.
    pub fn compute(data: &WeightedSet) -> Self {
        if data.dim() <= 2 {
            return crate::passive::sparse::contending_sweep(data);
        }
        let oracle = RankOracle::build(data.points());
        let n = data.len();
        let words = oracle.words();
        let zeros_mask = bitmask_of(n, (0..n).filter(|&i| data.label(i).is_zero()));
        let ones_list: Vec<usize> = (0..n).filter(|&i| data.label(i).is_one()).collect();

        let chunks = parallel_chunks(ones_list.len(), |range: Range<usize>| {
            let mut local_ones = Vec::new();
            let mut zero_hits = vec![0u64; words];
            let mut row = vec![0u64; words];
            for &q in &ones_list[range] {
                oracle.dominator_row_into(q, &mut row);
                let mut contends = false;
                for ((hit, word), mask) in zero_hits.iter_mut().zip(&row).zip(&zeros_mask) {
                    let both = word & mask;
                    contends |= both != 0;
                    *hit |= both;
                }
                if contends {
                    local_ones.push(q);
                }
            }
            (local_ones, zero_hits)
        });

        let mut ones = Vec::new();
        let mut zero_hits = vec![0u64; words];
        for (local_ones, local_hits) in chunks {
            ones.extend(local_ones); // chunk order ⇒ ascending indices
            for (hit, word) in zero_hits.iter_mut().zip(&local_hits) {
                *hit |= word;
            }
        }
        let zeros = iter_ones(&zero_hits).collect();
        Self { zeros, ones }
    }

    /// The generic `O(d·n²)` pairwise scan (any dimension); the
    /// reference implementation the sweep and the oracle row-`AND` are
    /// tested against.
    pub fn compute_generic(data: &WeightedSet) -> Self {
        let (zeros, ones_mask) = generic_scan(data, 0..data.len());
        Self::assemble(zeros, ones_mask)
    }

    /// Parallel version of the generic scan: the outer loop over label-0
    /// points shards across cores via
    /// [`parallel_chunks`]; per-chunk hit masks for
    /// the label-1 side are OR-merged at the end. Shares its kernel body
    /// with [`ContendingPoints::compute_generic`].
    pub fn compute_generic_parallel(data: &WeightedSet) -> Self {
        let n = data.len();
        let chunks = parallel_chunks(n, |range| generic_scan(data, range));
        let mut zeros = Vec::new();
        let mut ones_mask = vec![false; n];
        for (local_zeros, local_mask) in chunks {
            zeros.extend(local_zeros);
            for (q, hit) in local_mask.into_iter().enumerate() {
                ones_mask[q] |= hit;
            }
        }
        Self::assemble(zeros, ones_mask)
    }

    fn assemble(zeros: Vec<usize>, ones_mask: Vec<bool>) -> Self {
        let ones = ones_mask
            .iter()
            .enumerate()
            .filter_map(|(q, &hit)| hit.then_some(q))
            .collect();
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

/// Shared kernel of the generic scan: examines label-0 points in
/// `range`, returning the contenders found plus a full-width hit mask
/// for the label-1 side. A label-0 point contends iff it dominates a
/// label-1 point; that label-1 point contends too, so one pass over
/// ordered pairs discovers both sides.
fn generic_scan(data: &WeightedSet, range: Range<usize>) -> (Vec<usize>, Vec<bool>) {
    let n = data.len();
    let points = data.points();
    let mut zeros = Vec::new();
    let mut ones_mask = vec![false; n];
    for p in range {
        if data.label(p).is_one() {
            continue;
        }
        let mut contends = false;
        for (q, mask_slot) in ones_mask.iter_mut().enumerate() {
            if p != q && data.label(q).is_one() && points.dominates(p, q) {
                contends = true;
                *mask_slot = true;
            }
        }
        if contends {
            zeros.push(p);
        }
    }
    (zeros, ones_mask)
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

    fn random_wset(n: usize, dim: usize, seed: u64) -> WeightedSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim)
                .map(|_| rng.gen_range(0.0f64..8.0).round())
                .collect();
            ws.push(&coords, Label::from_bool(rng.gen_bool(0.5)), 1.0);
        }
        ws
    }

    #[test]
    fn parallel_matches_sequential() {
        for &n in &[0usize, 50, 5000] {
            let ws = random_wset(n, 3, 0xC0);
            assert_eq!(
                ContendingPoints::compute_generic(&ws),
                ContendingPoints::compute_generic_parallel(&ws),
                "n = {n}"
            );
        }
    }

    #[test]
    fn compute_matches_generic() {
        for &(n, dim) in &[(0usize, 3usize), (40, 3), (75, 4), (60, 6), (3000, 3)] {
            let ws = random_wset(n, dim, 0xC1 + n as u64);
            assert_eq!(
                ContendingPoints::compute(&ws),
                ContendingPoints::compute_generic(&ws),
                "n = {n}, d = {dim}"
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
