//! Active classification against an unreliable annotator.
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```
//!
//! The paper's oracle always answers; real annotators time out, flake,
//! and abstain. Every oracle here implements the one `LabelOracle`
//! trait, whose probes return a `Result`, and the fault wrappers stack
//! on any inner oracle. This demo runs the Theorem-2 active solver three
//! ways:
//!
//! 1. a clean in-memory oracle (the baseline);
//! 2. a 30%-flaky oracle behind a retrying wrapper (bounded attempts
//!    plus a circuit breaker) — the retries absorb every transient, so
//!    the run is *bit-for-bit identical* to the baseline;
//! 3. an oracle that permanently abstains on 10% of points — those
//!    points are dropped from the sample and the solve degrades
//!    gracefully, reporting exactly how.

use monotone_classification::core::classifier::find_monotonicity_violation;
use monotone_classification::data::planted::{planted_sum_concept, PlantedConfig};
use monotone_classification::{
    AbstainingOracle, ActiveParams, ActiveSolver, FlakyOracle, InMemoryOracle, RetryOracle,
    RetryPolicy, SolveReport,
};

fn describe(name: &str, report: &SolveReport) {
    println!(
        "  [{name}] attempts {}, retries {}, abstentions {}, breaker {}, degraded {}",
        report.attempts,
        report.retries,
        report.abstentions,
        report.breaker_tripped,
        report.degraded
    );
}

fn main() {
    let ds = planted_sum_concept(&PlantedConfig::new(2000, 2, 0.05, 11));
    let solver = ActiveSolver::new(ActiveParams::new(0.5).with_seed(42));
    println!(
        "planted concept: n = {}, d = {}, noise 5%\n",
        ds.data.len(),
        ds.data.dim()
    );

    // 1. Baseline: a perfectly reliable oracle.
    let mut clean_oracle = InMemoryOracle::from_labeled(&ds.data);
    let clean = solver.solve(ds.data.points(), &mut clean_oracle);
    println!(
        "clean run:    probed {} labels, error on truth = {}",
        clean.probes_used,
        clean.classifier.error_on(&ds.data)
    );
    describe("clean", &clean.report);

    // 2. Transient faults: 30% of calls fail, retries absorb them.
    let flaky = FlakyOracle::from_labeled(&ds.data, 0.3, 7);
    let policy = RetryPolicy::default()
        .with_max_attempts(25)
        .with_breaker_threshold(50);
    let mut retrying = RetryOracle::new(flaky, policy);
    let faulty = solver
        .try_solve(ds.data.points(), &mut retrying)
        .expect("inputs are valid; faults degrade, they do not error");
    println!(
        "\n30% flaky:    probed {} labels, error on truth = {}",
        faulty.probes_used,
        faulty.classifier.error_on(&ds.data)
    );
    describe("flaky", &faulty.report);
    assert_eq!(faulty.classifier, clean.classifier);
    assert_eq!(faulty.probes_used, clean.probes_used);
    println!("  -> identical classifier and probe bill: retries made the flakiness invisible");

    // 3. Permanent faults: 10% of points are unanswerable.
    let mut abstaining = AbstainingOracle::from_labeled(&ds.data, 0.1, 5);
    println!(
        "\n10% abstain:  {} of {} points permanently unanswerable",
        abstaining.unanswerable(),
        ds.data.len()
    );
    let degraded = solver
        .try_solve(ds.data.points(), &mut abstaining)
        .expect("abstentions never abort the solve");
    println!(
        "              probed {} labels, error on truth = {}",
        degraded.probes_used,
        degraded.classifier.error_on(&ds.data)
    );
    describe("abstain", &degraded.report);
    let labels = degraded.classifier.classify_set(ds.data.points());
    assert!(find_monotonicity_violation(ds.data.points(), &labels).is_none());
    println!("  -> still a monotone classifier, with the degradation reported honestly");
}
