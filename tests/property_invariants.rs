//! Cross-crate property-based tests (proptest): the structural invariants
//! the paper's proofs rely on, checked on randomized inputs.

use monotone_classification::chains::{brute::brute_force_width, ChainDecomposition};
use monotone_classification::core::classifier::find_monotonicity_violation;
use monotone_classification::core::passive::{
    solve_passive, solve_passive_1d, solve_passive_brute_force,
};
use monotone_classification::core::MonotoneClassifier;
use monotone_classification::flow::{all_algorithms, FlowNetwork};
use monotone_classification::geom::{Label, PointSet, WeightedSet};
use proptest::prelude::*;

fn small_weighted_set(max_n: usize, dim: usize) -> impl Strategy<Value = WeightedSet> {
    prop::collection::vec(
        (
            prop::collection::vec(0.0f64..6.0, dim),
            prop::bool::ANY,
            1u32..20,
        ),
        0..max_n,
    )
    .prop_map(move |rows| {
        let mut ws = WeightedSet::empty(dim);
        for (coords, label, weight) in rows {
            // Snap to a grid so dominance ties actually occur.
            let snapped: Vec<f64> = coords.iter().map(|c| c.round()).collect();
            ws.push(&snapped, Label::from_bool(label), weight as f64);
        }
        ws
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 4: the flow solver always matches the exponential oracle,
    /// through the sweep gadget (d = 2) and the chain ladder (d = 3, 4).
    #[test]
    fn passive_flow_equals_brute_force(
        ws in (2usize..=4).prop_flat_map(|dim| small_weighted_set(12, dim)),
    ) {
        let flow = solve_passive(&ws);
        let brute = solve_passive_brute_force(&ws);
        prop_assert!((flow.weighted_error - brute.weighted_error).abs() < 1e-9);
        // And the classifier's real error matches the reported optimum.
        prop_assert!(
            (flow.classifier.weighted_error_on(&ws) - flow.weighted_error).abs() < 1e-9
        );
    }

    /// Lemma 16: the passive solution is monotone on the input points.
    #[test]
    fn passive_assignment_is_monotone(ws in small_weighted_set(16, 3)) {
        let sol = solve_passive(&ws);
        prop_assert_eq!(
            find_monotonicity_violation(ws.points(), &sol.assignment),
            None
        );
    }

    /// In 1D, the sweep solver and the flow solver agree.
    #[test]
    fn passive_1d_sweep_equals_flow(ws in small_weighted_set(25, 1)) {
        let sweep = solve_passive_1d(&ws);
        let flow = solve_passive(&ws);
        prop_assert!((sweep.weighted_error - flow.weighted_error).abs() < 1e-9);
    }

    /// Dilworth duality: chain count = max antichain, and the
    /// decomposition is structurally valid.
    #[test]
    fn chain_decomposition_duality(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 2), 0..14)
    ) {
        let points = if rows.is_empty() {
            PointSet::new(2)
        } else {
            let snapped: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r.iter().map(|c| c.round()).collect())
                .collect();
            PointSet::from_rows(2, &snapped)
        };
        let dec = ChainDecomposition::compute(&points);
        prop_assert!(dec.validate(&points).is_ok());
        prop_assert_eq!(dec.width(), brute_force_width(&points));
    }

    /// Max-flow = min-cut, for Dinic and the Edmonds–Karp reference,
    /// which must agree.
    #[test]
    fn max_flow_min_cut_duality(
        edges in prop::collection::vec((0usize..8, 0usize..8, 0u32..30), 0..24)
    ) {
        let mut net = FlowNetwork::new(8, 0, 7);
        for (u, v, c) in edges {
            if u != v && v != 0 && u != 7 {
                net.add_edge(u, v, c as f64);
            }
        }
        let mut values = Vec::new();
        for algo in all_algorithms() {
            let sol = algo.solve(&net);
            prop_assert!(sol.validate(&net).is_ok());
            let cut = sol.min_cut(&net);
            prop_assert!((cut.weight - sol.value()).abs() < 1e-6);
            values.push(sol.value());
        }
        prop_assert_eq!(values.len(), 2);
        prop_assert!((values[0] - values[1]).abs() < 1e-6);
    }

    /// Anchor classifiers are monotone on arbitrary point pairs.
    #[test]
    fn classifier_monotonicity(
        anchors in prop::collection::vec(prop::collection::vec(-3.0f64..3.0, 2), 0..5),
        base in prop::collection::vec(-4.0f64..4.0, 2),
        delta in prop::collection::vec(0.0f64..2.0, 2),
    ) {
        let h = MonotoneClassifier::from_anchors(2, anchors);
        let above: Vec<f64> = base.iter().zip(&delta).map(|(b, d)| b + d).collect();
        prop_assert!(h.classify(&above) >= h.classify(&base));
    }

    /// Weighted error is monotone under weight scaling: doubling all
    /// weights doubles the optimum (cut linearity).
    #[test]
    fn passive_scales_linearly_with_weights(ws in small_weighted_set(10, 2)) {
        let doubled = WeightedSet::new(
            ws.points().clone(),
            ws.labels().to_vec(),
            ws.weights().iter().map(|w| w * 2.0).collect(),
        );
        let base = solve_passive(&ws).weighted_error;
        let scaled = solve_passive(&doubled).weighted_error;
        prop_assert!((scaled - 2.0 * base).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Fault-tolerance invariants: the fault-injection and retry oracles
// must preserve the paper's cost accounting (distinct successful probes
// only) and the solvers' structural guarantees (budgets, monotonicity)
// under arbitrary failure injection.

mod fault_tolerance {
    use super::*;
    use monotone_classification::core::active::try_solve_with_budget;
    use monotone_classification::geom::LabeledSet;
    use monotone_classification::{
        AbstainingOracle, ActiveParams, ActiveSolver, FlakyOracle, InMemoryOracle, LabelOracle,
        RetryOracle, RetryPolicy,
    };

    fn grid_staircase(n: usize) -> LabeledSet {
        let mut ls = LabeledSet::empty(2);
        for i in 0..n {
            let x = (i % 12) as f64;
            let y = (i / 12) as f64;
            ls.push(&[x, y], Label::from_bool(x + y >= 9.0));
        }
        ls
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The retry layer never double-bills: however flaky the backend
        /// and however often points are re-requested, the charged probes
        /// equal the number of *distinct* points actually revealed.
        #[test]
        fn retry_oracle_never_double_bills(
            rate in 0.0f64..0.85,
            seed in 0u64..1_000,
            n in 1usize..60,
        ) {
            let labels: Vec<Label> = (0..n).map(|i| Label::from_bool(i % 3 == 0)).collect();
            let flaky = FlakyOracle::new(InMemoryOracle::new(labels), rate, seed);
            let mut oracle = RetryOracle::new(
                flaky,
                RetryPolicy::default().with_max_attempts(64),
            );
            let mut revealed = std::collections::HashSet::new();
            for _pass in 0..2 {
                for i in 0..n {
                    if oracle.probe(i).is_ok() {
                        revealed.insert(i);
                    }
                }
            }
            prop_assert_eq!(oracle.probes_used(), revealed.len());
        }

        /// A probe budget holds no matter what fraction of calls fail:
        /// failed calls are free and successful re-probes are free, so
        /// distinct charged probes never exceed the budget.
        #[test]
        fn budget_respected_under_failure_injection(
            rate in 0.0f64..0.6,
            budget in 0usize..90,
            seed in 0u64..500,
        ) {
            let ls = grid_staircase(120);
            let flaky = FlakyOracle::from_labeled(&ls, rate, seed);
            let mut oracle = RetryOracle::new(
                flaky,
                RetryPolicy::default().with_max_attempts(16),
            );
            let sol = try_solve_with_budget(ls.points(), &mut oracle, budget, seed).unwrap();
            prop_assert!(sol.probes_used <= budget.min(ls.len()));
            prop_assert!(sol.probes_used <= oracle.probes_used());
        }

        /// However many points permanently abstain, the degraded
        /// classifier is still a *monotone* classifier, and the solve
        /// reports the degradation honestly.
        #[test]
        fn degraded_classifier_is_still_monotone(
            abstain in 0.0f64..0.5,
            seed in 0u64..400,
        ) {
            let ls = grid_staircase(96);
            let mut oracle = AbstainingOracle::from_labeled(&ls, abstain, seed);
            let solver = ActiveSolver::new(ActiveParams::new(1.0).with_seed(seed ^ 0xA));
            let sol = solver.try_solve(ls.points(), &mut oracle).unwrap();
            prop_assert_eq!(
                find_monotonicity_violation(
                    ls.points(),
                    &sol.classifier.classify_set(ls.points()),
                ),
                None
            );
            prop_assert_eq!(sol.report.degraded, sol.report.dropped > 0);
        }
    }
}
