//! Experiment implementations, one module per experiment id in
//! DESIGN.md / EXPERIMENTS.md. Each `run(quick)` returns the tables it
//! prints; `quick = true` shrinks the sweeps for CI-sized runs.

pub mod ablation;
pub mod active_cpu;
pub mod approx_ratio;
pub mod baselines;
pub mod chains;
pub mod flow;
pub mod generalization;
pub mod noise;
pub mod one_dim;
pub mod passive;
pub mod probe_scaling;
pub mod stress;
pub mod theorem1;

use crate::report::{bench_report_json, experiment_json, run_metadata_json, Table};

/// Runs every experiment, printing all tables.
pub fn run_all(quick: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    for (name, f) in all_experiments() {
        eprintln!("=== running {name} ===");
        tables.extend(f(quick));
    }
    tables
}

/// Like [`run_all`], additionally producing the JSON bench report:
/// run metadata (git SHA, effective parallelism tunables, seed) plus a
/// per-phase breakdown for every experiment. Forces the `mc-obs` level
/// up to `info` and resets the registry between experiments so each
/// entry's spans/counters cover exactly that experiment.
pub fn run_all_with_report(quick: bool, seed: u64) -> (Vec<Table>, String) {
    if mc_obs::level() < mc_obs::Level::Info {
        mc_obs::set_level(mc_obs::Level::Info);
    }
    let mut tables = Vec::new();
    let mut entries = Vec::new();
    for (name, f) in all_experiments() {
        eprintln!("=== running {name} ===");
        mc_obs::reset();
        let start = std::time::Instant::now();
        let t = f(quick);
        let wall_ns = start.elapsed().as_nanos() as u64;
        entries.push(experiment_json(name, wall_ns, t.len(), &mc_obs::snapshot()));
        tables.extend(t);
    }
    let doc = bench_report_json(&run_metadata_json(seed, quick), &entries);
    (tables, doc)
}

/// The full experiment registry: `(id, runner)`.
/// An experiment registry entry: `(id, runner)`.
pub type ExperimentEntry = (&'static str, fn(bool) -> Vec<Table>);

#[allow(clippy::type_complexity)]
pub fn all_experiments() -> Vec<ExperimentEntry> {
    vec![
        ("E1-theorem1", theorem1::run),
        ("E2-E4-probe-scaling", probe_scaling::run),
        ("E5-approx-ratio", approx_ratio::run),
        ("E6-passive", passive::run),
        ("E7-active-cpu", active_cpu::run),
        ("E8-chains", chains::run),
        ("E9-flow", flow::run),
        ("E10-baselines", baselines::run),
        ("E11-generalization", generalization::run),
        ("L9-one-dim", one_dim::run),
        ("A1-A4-ablation", ablation::run),
        ("E12-stress", stress::run),
        ("E14-noise", noise::run),
    ]
}
