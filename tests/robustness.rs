//! Failure-injection and invariance tests across the public API.

use monotone_classification::chains::dominance_width;
use monotone_classification::core::baselines::probe_all;
use monotone_classification::core::passive::{solve_passive, ContendingPoints};
use monotone_classification::core::{ActiveParams, ActiveSolver, LabelOracle, NoisyOracle};
use monotone_classification::data::planted::{planted_sum_concept, PlantedConfig};
use monotone_classification::geom::{LabeledSet, PointSet, RankTable, WeightedSet};

/// An unreliable-but-consistent annotator: the pipeline must behave as if
/// the flipped labels were the ground truth — no crashes, monotone
/// output, and error ≤ (1+ε)·k* *measured against the answered labels*.
#[test]
fn active_pipeline_under_annotator_noise() {
    let ds = planted_sum_concept(&PlantedConfig::new(500, 2, 0.0, 77));
    for flip in [0.0, 0.1, 0.3] {
        let mut oracle = NoisyOracle::new(ds.data.labels().to_vec(), flip, 5);
        let solver = ActiveSolver::new(ActiveParams::new(1.0).with_seed(1));
        let sol = solver.solve(ds.data.points(), &mut oracle);
        assert!(sol.probes_used <= ds.data.len());
        // Reconstruct the as-answered ground truth by re-probing
        // (consistent, free of charge for already-probed points).
        let answered: Vec<_> = (0..ds.data.len())
            .map(|i| oracle.probe(i).unwrap())
            .collect();
        let answered_set = LabeledSet::new(ds.data.points().clone(), answered);
        let k_star = solve_passive(&answered_set.with_unit_weights()).weighted_error;
        let err = sol.classifier.error_on(&answered_set) as f64;
        // The active run saw only a subset of points; its guarantee is
        // statistical. Demand the bound with slack covering the probes
        // the noisy oracle decided after the run (points never probed
        // during the solve got their flip decided during re-probing).
        assert!(
            err <= 2.0 * k_star + 0.05 * ds.data.len() as f64,
            "flip {flip}: err {err} vs k* {k_star}"
        );
    }
}

/// Dominance-order invariants survive monotone per-axis rescaling:
/// width, contending set, and optimal error are unchanged.
#[test]
fn monotone_transforms_preserve_problem_structure() {
    let ds = planted_sum_concept(&PlantedConfig::new(250, 2, 0.15, 3));
    // Axis 0 becomes its dense ranks, axis 1 `ln(1 + x − min)`: both
    // strictly increasing on the observed values.
    let points = ds.data.points();
    let ranks = RankTable::build(points);
    let min_y = points.iter().map(|p| p[1]).fold(f64::INFINITY, f64::min);
    let mut mapped_points = PointSet::new(2);
    for (i, p) in points.iter().enumerate() {
        mapped_points.push(&[f64::from(ranks.column(0)[i]), (1.0 + p[1] - min_y).ln()]);
    }
    let mapped = LabeledSet::new(mapped_points, ds.data.labels().to_vec());

    assert_eq!(
        dominance_width(ds.data.points()),
        dominance_width(mapped.points())
    );
    let con_a = ContendingPoints::compute(&ds.data.with_unit_weights());
    let con_b = ContendingPoints::compute(&mapped.with_unit_weights());
    assert_eq!(con_a, con_b);
    assert_eq!(
        solve_passive(&ds.data.with_unit_weights()).weighted_error,
        solve_passive(&mapped.with_unit_weights()).weighted_error
    );
}

/// Degenerate datasets: all points identical, single points, all-equal
/// coordinates on one axis — nothing panics, optima are sensible.
#[test]
fn degenerate_datasets() {
    // All points identical, half-and-half labels: best error = n/2.
    let mut ws = WeightedSet::empty(3);
    for i in 0..10 {
        ws.push(
            &[1.0, 1.0, 1.0],
            monotone_classification::Label::from_bool(i % 2 == 0),
            1.0,
        );
    }
    let sol = solve_passive(&ws);
    assert_eq!(sol.weighted_error, 5.0);
    // All outputs equal.
    assert!(sol.assignment.windows(2).all(|w| w[0] == w[1]));

    // Constant axis: behaves like the remaining axes.
    let mut ls = LabeledSet::empty(2);
    for i in 0..20 {
        ls.push(
            &[5.0, i as f64],
            monotone_classification::Label::from_bool(i >= 12),
        );
    }
    assert_eq!(dominance_width(ls.points()), 1);
    let mut oracle = monotone_classification::InMemoryOracle::from_labeled(&ls);
    let sol = probe_all(ls.points(), &mut oracle);
    assert_eq!(sol.classifier.error_on(&ls), 0);
}

/// Extreme weights: the solver must respect a 10^12 weight ratio.
#[test]
fn extreme_weight_ratios() {
    let mut ws = WeightedSet::empty(1);
    ws.push(&[0.0], monotone_classification::Label::One, 1e12);
    ws.push(&[1.0], monotone_classification::Label::Zero, 1.0);
    let sol = solve_passive(&ws);
    assert_eq!(sol.weighted_error, 1.0);
    assert!(sol.assignment[0].is_one());
    assert!(sol.assignment[1].is_one(), "the cheap zero flips");
}

/// Acceptance: a 30% transient failure rate behind a retry layer must
/// not change the outcome at all — the solve completes with the *same*
/// classifier and the same probe bill as a fault-free run.
#[test]
fn transient_failures_are_invisible_behind_retries() {
    use monotone_classification::{
        ActiveParams, FlakyOracle, InMemoryOracle, RetryOracle, RetryPolicy,
    };
    let ds = planted_sum_concept(&PlantedConfig::new(400, 2, 0.1, 21));
    let solver = ActiveSolver::new(ActiveParams::new(0.5).with_seed(9));

    let mut clean_oracle = InMemoryOracle::from_labeled(&ds.data);
    let clean = solver.solve(ds.data.points(), &mut clean_oracle);

    let flaky = FlakyOracle::from_labeled(&ds.data, 0.3, 77);
    let mut retrying = RetryOracle::new(flaky, RetryPolicy::default().with_max_attempts(30));
    let faulty = solver.try_solve(ds.data.points(), &mut retrying).unwrap();

    assert_eq!(faulty.classifier, clean.classifier);
    assert_eq!(faulty.probes_used, clean.probes_used);
    assert!(
        faulty.report.retries > 0,
        "30% flake rate must cause retries"
    );
    assert!(!faulty.report.degraded);
    assert!(faulty.report.is_clean() || faulty.report.retries > 0);
}

/// Acceptance: 10% permanent abstentions degrade gracefully — the solve
/// still returns a monotone classifier, flags the degradation, and
/// never panics.
#[test]
fn permanent_abstentions_degrade_gracefully() {
    use monotone_classification::core::classifier::find_monotonicity_violation;
    use monotone_classification::{AbstainingOracle, ActiveParams};
    let ds = planted_sum_concept(&PlantedConfig::new(400, 2, 0.05, 4));
    let mut oracle = AbstainingOracle::from_labeled(&ds.data, 0.1, 13);
    let unanswerable = oracle.unanswerable();
    assert!(unanswerable > 0);
    let solver = ActiveSolver::new(ActiveParams::new(0.5).with_seed(2));
    let sol = solver.try_solve(ds.data.points(), &mut oracle).unwrap();
    assert!(sol.report.degraded);
    assert!(sol.report.dropped > 0);
    assert!(find_monotonicity_violation(
        ds.data.points(),
        &sol.classifier.classify_set(ds.data.points())
    )
    .is_none());
}

/// A dead oracle (every call fails) trips the circuit breaker; the solve
/// still terminates with an empty sample instead of hammering the
/// backend or panicking.
#[test]
fn dead_oracle_trips_breaker_without_panicking() {
    use monotone_classification::{FlakyOracle, RetryOracle, RetryPolicy};
    let ds = planted_sum_concept(&PlantedConfig::new(200, 2, 0.0, 1));
    let dead = FlakyOracle::from_labeled(&ds.data, 1.0, 3);
    let mut oracle = RetryOracle::new(
        dead,
        RetryPolicy::default()
            .with_max_attempts(3)
            .with_breaker_threshold(12),
    );
    let solver = ActiveSolver::new(ActiveParams::new(1.0).with_seed(0));
    let sol = solver.try_solve(ds.data.points(), &mut oracle).unwrap();
    assert!(sol.report.breaker_tripped);
    assert!(sol.report.degraded);
    assert_eq!(sol.probes_used, 0);
    assert!(sol.sigma.is_empty());
    assert_eq!(oracle.probes_used(), 0);
}
