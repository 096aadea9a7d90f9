//! Exact passive solver for 1D inputs in `O(n log n)`.
//!
//! In one dimension every monotone classifier is a threshold `h^τ`
//! (equation (6)), and only `|P| + 1` *effective* thresholds matter
//! (equation (7)): `τ ∈ P ∪ {−∞}`. A single sorted sweep with prefix
//! sums finds the optimum. It is an independent cross-check of the
//! flow-based solver (the property tests diff the two on 1D inputs) and
//! the exact 1D baseline of the experiments and benches. The active
//! algorithm does not call it: its per-chain subroutine is the Section-3
//! sampler ([`crate::active::one_dim`]), and it minimizes `w-err_Σ` with
//! the flow-based solver on the whole sample Σ.
//!
//! # Example
//!
//! ```
//! use mc_core::passive::solve_passive_1d;
//! use mc_geom::{Label, WeightedSet};
//!
//! let mut data = WeightedSet::empty(1);
//! for i in 0..10 {
//!     data.push(&[i as f64], Label::from_bool(i >= 6), 1.0);
//! }
//! let opt = solve_passive_1d(&data);
//! assert_eq!(opt.weighted_error, 0.0);
//! assert_eq!(opt.tau, 5.0);
//! ```

use crate::classifier::MonotoneClassifier;
use mc_geom::WeightedSet;

/// The optimum of a 1D passive solve.
#[derive(Debug, Clone)]
pub struct OneDimOptimum {
    /// Optimal threshold `τ` (`-∞` means "everything maps to 1").
    pub tau: f64,
    /// The classifier `h^τ`.
    pub classifier: MonotoneClassifier,
    /// The optimal weighted error.
    pub weighted_error: f64,
}

/// Exact 1D passive weighted monotone classification.
///
/// # Panics
///
/// Panics if `data.dim() != 1`.
pub fn solve_passive_1d(data: &WeightedSet) -> OneDimOptimum {
    assert_eq!(data.dim(), 1, "solve_passive_1d requires 1D data");
    let n = data.len();
    if n == 0 {
        return OneDimOptimum {
            tau: f64::NEG_INFINITY,
            classifier: MonotoneClassifier::threshold_1d(f64::NEG_INFINITY),
            weighted_error: 0.0,
        };
    }
    // Sort indices ascending by value (IEEE total order for determinism).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| data.points().point(a)[0].total_cmp(&data.points().point(b)[0]));

    // h^τ misclassifies: label-1 points with value ≤ τ, plus label-0
    // points with value > τ. Sweep τ over {−∞} ∪ values.
    let total_zero_weight: f64 = (0..n)
        .filter(|&i| data.label(i).is_zero())
        .map(|i| data.weight(i))
        .sum();

    // τ = −∞: everything predicted 1 → misclassifies all label-0 points.
    let mut best_tau = f64::NEG_INFINITY;
    let mut best_err = total_zero_weight;

    let mut ones_below = 0.0; // weight of label-1 points with value ≤ current τ
    let mut zeros_below = 0.0; // weight of label-0 points with value ≤ current τ
    let mut k = 0;
    while k < n {
        // Advance over a group of equal values: τ must sit at a value
        // boundary, never inside a duplicate group.
        let v = data.points().point(order[k])[0];
        while k < n && data.points().point(order[k])[0] == v {
            let i = order[k];
            if data.label(i).is_one() {
                ones_below += data.weight(i);
            } else {
                zeros_below += data.weight(i);
            }
            k += 1;
        }
        let err = ones_below + (total_zero_weight - zeros_below);
        if err < best_err {
            best_err = err;
            best_tau = v;
        }
    }

    OneDimOptimum {
        tau: best_tau,
        classifier: MonotoneClassifier::threshold_1d(best_tau),
        weighted_error: best_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::solver::solve_passive;
    use mc_geom::Label;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn wset1d(rows: &[(f64, Label, f64)]) -> WeightedSet {
        let mut ws = WeightedSet::empty(1);
        for &(v, label, weight) in rows {
            ws.push(&[v], label, weight);
        }
        ws
    }

    #[test]
    fn clean_threshold_data() {
        let ws = wset1d(&[
            (1.0, Label::Zero, 1.0),
            (2.0, Label::Zero, 1.0),
            (3.0, Label::One, 1.0),
            (4.0, Label::One, 1.0),
        ]);
        let opt = solve_passive_1d(&ws);
        assert_eq!(opt.weighted_error, 0.0);
        assert_eq!(opt.tau, 2.0);
        assert_eq!(opt.classifier.error_on(&ws.to_labeled()), 0);
    }

    #[test]
    fn all_ones_prefers_neg_infinity() {
        let ws = wset1d(&[(1.0, Label::One, 2.0), (2.0, Label::One, 3.0)]);
        let opt = solve_passive_1d(&ws);
        assert_eq!(opt.weighted_error, 0.0);
        assert_eq!(opt.tau, f64::NEG_INFINITY);
    }

    #[test]
    fn duplicates_are_not_split() {
        // Two points at the same value with different labels: any τ
        // misclassifies one of them; weights decide which.
        let ws = wset1d(&[(5.0, Label::One, 10.0), (5.0, Label::Zero, 1.0)]);
        let opt = solve_passive_1d(&ws);
        assert_eq!(opt.weighted_error, 1.0);
        assert_eq!(opt.tau, f64::NEG_INFINITY, "predict 1 for both");
    }

    #[test]
    fn weighted_inversion() {
        let ws = wset1d(&[(1.0, Label::One, 1.0), (2.0, Label::Zero, 5.0)]);
        let opt = solve_passive_1d(&ws);
        assert_eq!(opt.weighted_error, 1.0);
        assert_eq!(opt.tau, 2.0, "predict 0 everywhere");
    }

    #[test]
    fn empty_input() {
        let ws = WeightedSet::empty(1);
        let opt = solve_passive_1d(&ws);
        assert_eq!(opt.weighted_error, 0.0);
    }

    #[test]
    fn agrees_with_flow_solver_on_random_1d() {
        let mut rng = StdRng::seed_from_u64(0x1D);
        for trial in 0..50 {
            let n = rng.gen_range(1..40);
            let mut ws = WeightedSet::empty(1);
            for _ in 0..n {
                ws.push(
                    &[rng.gen_range(0.0f64..10.0).round()],
                    Label::from_bool(rng.gen_bool(0.5)),
                    rng.gen_range(1..8) as f64,
                );
            }
            let sweep = solve_passive_1d(&ws);
            let flow = solve_passive(&ws);
            assert!(
                (sweep.weighted_error - flow.weighted_error).abs() < 1e-9,
                "trial {trial}: sweep {} vs flow {}",
                sweep.weighted_error,
                flow.weighted_error
            );
            // The returned classifier's actual error matches the reported one.
            assert!((sweep.classifier.weighted_error_on(&ws) - sweep.weighted_error).abs() < 1e-9);
        }
    }
}
