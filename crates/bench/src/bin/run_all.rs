//! Runs every experiment in sequence, printing each table.
//! Run with `--full` for the paper-scale sweeps (default: quick).
//! With `--json-out <path>` the run also writes a JSON bench report:
//! run metadata (git SHA, effective `MC_THREADS`,
//! seed, thread count) and a per-phase `mc-obs` breakdown for every
//! experiment.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = !args.iter().any(|a| a == "--full");
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let seed: u64 = value_of("--seed")
        .map(|v| v.parse().expect("--seed must be a u64"))
        .unwrap_or(0);
    match value_of("--json-out") {
        Some(path) => {
            let (_tables, doc) = mc_bench::experiments::run_all_with_report(quick, seed);
            std::fs::write(&path, doc + "\n").expect("cannot write --json-out file");
            eprintln!("wrote bench report to {path}");
        }
        None => {
            mc_bench::experiments::run_all(quick);
        }
    }
}
