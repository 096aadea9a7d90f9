//! Integration tests of the race coordinator: faulty-engine isolation,
//! bit-identical answers versus solo solves, deadline fallback, counter
//! reconciliation, and cancellation latency.

use mc_core::passive::PassiveSolver;
use mc_core::McError;
use mc_geom::{Label, WeightedSet};
use mc_portfolio::{race, EngineOutcome, EngineSpec, PortfolioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Races record into the process-global mc-obs registry and History, so
/// every test here serializes on one lock (the harness runs tests in
/// parallel within this binary).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A seeded instance with plenty of inversions at dimension `d`.
fn noisy_set(n: usize, d: usize, seed: u64) -> WeightedSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = WeightedSet::empty(d);
    let mut coords = vec![0.0f64; d];
    for _ in 0..n {
        let mut sum = 0.0;
        for c in coords.iter_mut() {
            *c = rng.gen_range(0.0..10.0);
            sum += *c;
        }
        // Threshold labeling with ~20% flips keeps the flow non-trivial.
        let clean = sum >= 5.0 * d as f64;
        let label = clean != rng.gen_bool(0.2);
        ws.push(&coords, Label::from_bool(label), rng.gen_range(1.0..4.0));
    }
    ws
}

fn outcome_of(report: &mc_portfolio::RaceReport, spec: EngineSpec) -> EngineOutcome {
    report
        .outcomes
        .iter()
        .find(|(e, _)| *e == spec)
        .map(|(_, o)| o.clone())
        .expect("engine raced")
}

#[test]
fn racing_with_injected_faults_is_bit_identical_to_solo() {
    let _l = obs_lock();
    let data = noisy_set(400, 3, 7);
    let solo = PassiveSolver::new().solve(&data);

    let config = PortfolioConfig::new(vec![EngineSpec::Panic, EngineSpec::Hang, EngineSpec::Dinic]);
    let out = race(&data, &config).expect("the real engine must win");

    // Bit-identical to the solo solve: same classifier, same per-point
    // assignment, same error down to the last bit.
    assert_eq!(out.race.winner, Some(EngineSpec::Dinic));
    assert!(!out.race.fallback_used);
    assert_eq!(out.solution.assignment, solo.assignment);
    assert_eq!(out.solution.classifier, solo.classifier);
    assert_eq!(
        out.solution.weighted_error.to_bits(),
        solo.weighted_error.to_bits()
    );
    assert_eq!(out.solution.contending, solo.contending);
    out.certificate.verify(&data).expect("referee-audited");

    // Both injected faults were observed and isolated.
    assert!(matches!(
        outcome_of(&out.race, EngineSpec::Panic),
        EngineOutcome::Panicked { .. }
    ));
    assert_eq!(
        outcome_of(&out.race, EngineSpec::Hang),
        EngineOutcome::Cancelled
    );
    assert_eq!(out.report.engine_panics, 1);
    assert!(!out.report.is_clean(), "a panic taints cleanliness");
    assert!(!out.report.degraded, "a panic never corrupts the answer");
}

#[test]
fn total_timeout_falls_back_to_certified_reference() {
    let _l = obs_lock();
    let data = noisy_set(120, 2, 11);
    let reference = PassiveSolver::new().solve(&data);

    let config = PortfolioConfig::new(vec![EngineSpec::Hang, EngineSpec::Panic])
        .with_time_limit(Duration::from_millis(30));
    let out = race(&data, &config).expect("fallback must answer");

    assert!(out.race.fallback_used);
    assert_eq!(out.race.winner, None);
    assert_eq!(
        outcome_of(&out.race, EngineSpec::Hang),
        EngineOutcome::TimedOut
    );
    assert_eq!(
        out.solution.weighted_error.to_bits(),
        reference.weighted_error.to_bits()
    );
    assert_eq!(out.solution.assignment, reference.assignment);
    out.certificate
        .verify(&data)
        .expect("fallback is certified");
}

#[test]
fn total_timeout_without_fallback_is_a_typed_error() {
    let _l = obs_lock();
    let data = noisy_set(60, 2, 13);
    let config = PortfolioConfig::new(vec![EngineSpec::Hang])
        .with_time_limit(Duration::from_millis(20))
        .without_fallback();
    match race(&data, &config) {
        Err(McError::Timeout) => {}
        other => panic!("expected McError::Timeout, got {other:?}"),
    }
}

#[test]
fn empty_roster_is_rejected() {
    let _l = obs_lock();
    let data = noisy_set(10, 1, 17);
    match race(&data, &PortfolioConfig::new(Vec::new())) {
        Err(McError::InvalidParameter { .. }) => {}
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn portfolio_counters_reconcile_with_race_report() {
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();

    let data = noisy_set(250, 2, 19);
    let config = PortfolioConfig::new(vec![EngineSpec::Panic, EngineSpec::Hang, EngineSpec::Dinic]);
    let out = race(&data, &config).expect("real engine wins");

    let s = mc_obs::snapshot();
    assert_eq!(s.counter("portfolio.races"), 1);
    assert_eq!(s.counter("portfolio.wins"), 1);
    assert_eq!(
        s.counter("portfolio.panics"),
        out.report.engine_panics as u64
    );
    assert_eq!(s.counter("portfolio.panics"), 1);
    assert_eq!(s.counter("portfolio.cancelled"), 1);
    assert_eq!(s.counter("portfolio.timeouts"), 0);
    assert_eq!(s.counter("portfolio.fallbacks"), 0);
    // Per-engine counters agree with the per-engine outcomes.
    assert_eq!(s.counter("portfolio.engine.dinic.wins"), 1);
    assert_eq!(s.counter("portfolio.engine.panic.panics"), 1);
    assert_eq!(s.counter("portfolio.engine.hang.cancelled"), 1);
    // The outcome tally covers the whole roster exactly once.
    let booked = s.counter("portfolio.wins")
        + s.counter("portfolio.losses")
        + s.counter("portfolio.panics")
        + s.counter("portfolio.cancelled")
        + s.counter("portfolio.timeouts")
        + s.counter("portfolio.disqualified");
    assert_eq!(booked as usize, out.race.outcomes.len());

    mc_obs::set_level(prev);
}

#[test]
fn cancellation_latency_stays_under_50ms_at_n20k() {
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();

    // A real solve at n = 20k races the hang injector: once the real
    // engine wins, the injector (polling every 1 ms) must be observed
    // to exit well under the 50 ms budget.
    let data = noisy_set(20_000, 2, 23);
    let config = PortfolioConfig::new(vec![EngineSpec::Dinic, EngineSpec::Hang]);
    let out = race(&data, &config).expect("real engine wins");

    assert_eq!(out.race.winner, Some(EngineSpec::Dinic));
    let latency = out
        .race
        .cancel_latency
        .expect("a cancelled loser implies a measured latency");
    assert!(
        latency < Duration::from_millis(50),
        "cancellation took {latency:?}"
    );
    let gauge = mc_obs::snapshot()
        .gauges
        .iter()
        .find(|(n, _)| n == "portfolio.cancel_latency_ms")
        .map(|(_, v)| *v)
        .expect("latency gauge exported");
    assert!(gauge < 50.0, "gauge reads {gauge} ms");

    mc_obs::set_level(prev);
}

#[test]
fn history_learns_across_races_in_one_process() {
    let _l = obs_lock();
    let history = mc_portfolio::History::global();
    history.reset();

    let data = noisy_set(150, 2, 29);
    let config = PortfolioConfig::new(vec![EngineSpec::Panic, EngineSpec::Dinic]);
    for _ in 0..3 {
        race(&data, &config).expect("real engine wins");
    }
    assert!(history.score(EngineSpec::Dinic) > history.score(EngineSpec::Panic));
    let mut roster = vec![EngineSpec::Panic, EngineSpec::Dinic];
    history.rank(&mut roster);
    assert_eq!(roster[0], EngineSpec::Dinic);
    history.reset();
}

#[test]
fn default_roster_races_both_algorithms_to_the_solo_optimum() {
    let _l = obs_lock();
    let config = PortfolioConfig::default();
    assert_eq!(
        config.engines,
        vec![EngineSpec::Dinic, EngineSpec::PushRelabel]
    );
    for (d, seed) in [(2, 31), (3, 37)] {
        let data = noisy_set(300, d, seed);
        let solo = PassiveSolver::new().solve(&data);
        let out = race(&data, &config).expect("a real engine wins");
        assert!(out.race.winner.is_some(), "d {d}: {:?}", out.race);
        assert!(!out.race.fallback_used);
        assert!(
            (out.solution.weighted_error - solo.weighted_error).abs()
                <= 1e-9 * (1.0 + data.total_weight()),
            "d {d}: race {} vs solo {}",
            out.solution.weighted_error,
            solo.weighted_error
        );
        out.certificate.verify(&data).expect("referee-audited");
    }
}
