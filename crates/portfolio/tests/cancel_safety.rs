//! S4: cancellation leaves no poisoned shared state.
//!
//! A solve cancelled at an arbitrary checkpoint abandons heaps of
//! partially-filled scratch (rank tables, oracle rows, flow levels,
//! ladder rungs) — all of which must be *local* to the cancelled solve.
//! These properties cancel solves mid-flight at seed-derived delays over
//! the same `Arc`'d inputs, then re-solve on those inputs with a live
//! token and demand answers bit-identical to an undisturbed baseline.

use mc_core::passive::{PassiveSolution, PassiveSolver};
use mc_geom::{Label, WeightedSet};
use mc_obs::CancelToken;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn build(rows: &[(u8, u8, u8, bool, u8)]) -> WeightedSet {
    let mut ws = WeightedSet::empty(3);
    for &(c0, c1, c2, label, weight) in rows {
        ws.push(
            &[c0 as f64, c1 as f64, c2 as f64],
            Label::from_bool(label),
            weight as f64,
        );
    }
    ws
}

fn assert_bit_identical(a: &PassiveSolution, b: &PassiveSolution) {
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.classifier, b.classifier);
    assert_eq!(a.weighted_error.to_bits(), b.weighted_error.to_bits());
    assert_eq!(a.contending, b.contending);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cancelling a solve at a random point in its lifetime, from a
    /// rival thread, never corrupts a subsequent solve over the same
    /// shared inputs.
    #[test]
    fn cancelled_solves_leave_no_poisoned_state(
        rows in prop::collection::vec(
            (0u8..8, 0u8..8, 0u8..8, prop::bool::ANY, 1u8..10),
            50..200,
        ),
        delay_us in 0u64..400,
    ) {
        let data = Arc::new(build(&rows));
        let baseline = PassiveSolver::new().solve(&data);

        // Race a cancel against the solve at a seed-derived delay: the
        // token may trip before the solve starts, mid-build, mid-flow,
        // or after it finished — every interleaving must be benign.
        let token = CancelToken::new();
        let solver_data = Arc::clone(&data);
        let solver_token = token.clone();
        let handle = std::thread::spawn(move || {
            PassiveSolver::new().solve_cancellable(&solver_data, &solver_token)
        });
        std::thread::sleep(Duration::from_micros(delay_us));
        token.cancel();
        let raced = handle.join().expect("cancellation must not panic");

        // If the solve outran the cancel, even its answer is identical.
        if let Ok(sol) = raced {
            assert_bit_identical(&sol, &baseline);
        }

        // The shared inputs are untouched: two fresh solves (one
        // uncertified, one certified) reproduce the baseline bit for bit.
        let after = PassiveSolver::new()
            .solve_cancellable(&data, &CancelToken::never())
            .expect("a never-token cannot cancel");
        assert_bit_identical(&after, &baseline);
        let (certified, cert) = PassiveSolver::new()
            .solve_certified_cancellable(&data, &CancelToken::never())
            .expect("a never-token cannot cancel");
        assert_bit_identical(&certified, &baseline);
        cert.verify(&data).expect("certificate audits clean");
    }
}
