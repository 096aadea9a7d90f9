//! Property tests: the production passive solver (the `d ≤ 2` sweep
//! gadget, the `d ≥ 3` chain ladder) against the paper-literal dense
//! Section-5.1 reference — identical optimal weighted error, and both
//! assignments are valid monotone labelings achieving it.

use mc_core::find_monotonicity_violation;
use mc_core::passive::{solve_passive, solve_passive_dense, PassiveSolution};
use mc_geom::{Label, WeightedSet};
use proptest::prelude::*;

/// Rows of (coords ≤ 4-dim, label, weight); each case truncates the
/// coordinates to the dimension under test.
fn rows_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u8, u8, u8, u8, bool, u8)>> {
    prop::collection::vec(
        (0u8..6, 0u8..6, 0u8..6, 0u8..6, prop::bool::ANY, 1u8..10),
        0..max_len,
    )
}

fn build(rows: &[(u8, u8, u8, u8, bool, u8)], dim: usize) -> WeightedSet {
    let mut ws = WeightedSet::empty(dim);
    for &(c0, c1, c2, c3, label, weight) in rows {
        let coords = [c0 as f64, c1 as f64, c2 as f64, c3 as f64];
        ws.push(&coords[..dim], Label::from_bool(label), weight as f64);
    }
    ws
}

/// Checks that `sol` reproduces the reference error on `ws` and that its
/// assignment is monotone and actually achieves the error it claims.
fn check_solution(ws: &WeightedSet, what: &str, sol: &PassiveSolution, reference: f64) {
    assert!(
        (sol.weighted_error - reference).abs() < 1e-9,
        "{what}: weighted error {} != reference {reference}\n{ws:?}",
        sol.weighted_error
    );
    assert_eq!(
        find_monotonicity_violation(ws.points(), &sol.assignment),
        None,
        "{what}: assignment not monotone\n{ws:?}"
    );
    // The assignment's disagreement weight is the claimed error.
    let achieved: f64 = (0..ws.len())
        .filter(|&i| sol.assignment[i] != ws.label(i))
        .map(|i| ws.weight(i))
        .sum();
    assert!(
        (achieved - sol.weighted_error).abs() < 1e-9,
        "{what}: assignment cost {achieved} != reported {}",
        sol.weighted_error
    );
}

/// Diffs the production solver against the dense reference on `ws`,
/// returning the reference's error.
fn check_against_dense(ws: &WeightedSet) -> f64 {
    let dense = solve_passive_dense(ws);
    // The reference must satisfy its own invariants too.
    check_solution(ws, "dense", &dense, dense.weighted_error);
    let sol = solve_passive(ws);
    check_solution(ws, "solver", &sol, dense.weighted_error);
    assert_eq!(sol.contending, dense.contending, "contending\n{ws:?}");
    dense.weighted_error
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production solver agrees with the dense reference at every
    /// dimension 1..=4: d ≤ 2 exercises the sweep gadget, d ≥ 3 the
    /// chain ladder.
    #[test]
    fn solver_agrees_with_dense(rows in rows_strategy(60), dim in 1usize..5) {
        check_against_dense(&build(&rows, dim));
    }

    /// Heavy duplicate pressure: coordinates from a 2-value grid force
    /// many equal points and cross-label duplicates.
    #[test]
    fn solver_agrees_with_dense_under_duplicates(rows in prop::collection::vec(
        (0u8..2, 0u8..2, 0u8..2, 0u8..2, prop::bool::ANY, 1u8..10), 0..40), dim in 1usize..5) {
        check_against_dense(&build(&rows, dim));
    }
}

#[test]
fn signed_zeros_are_one_coordinate() {
    // -0.0 and +0.0 must compare equal in the solver and the reference
    // (the index canonicalizes them; total_cmp alone would not).
    for dim in [1usize, 2, 3] {
        let mut ws = WeightedSet::empty(dim);
        ws.push(&vec![0.0; dim], Label::One, 5.0);
        ws.push(&vec![-0.0; dim], Label::Zero, 2.0);
        assert_eq!(
            check_against_dense(&ws),
            2.0,
            "dim {dim}: duplicates must contend"
        );
    }
}

#[test]
fn uniform_labels_cost_nothing() {
    for label in [Label::Zero, Label::One] {
        for dim in [1usize, 3] {
            let mut ws = WeightedSet::empty(dim);
            for i in 0..20 {
                ws.push(&vec![(i % 5) as f64; dim], label, 1.0 + i as f64);
            }
            for (what, sol) in [
                ("solver", solve_passive(&ws)),
                ("dense", solve_passive_dense(&ws)),
            ] {
                assert_eq!(sol.weighted_error, 0.0, "{label:?}/{what}/d={dim}");
                assert_eq!(sol.contending, 0);
            }
        }
    }
}
