//! Benchmark harness and experiment support for the monotone-classification
//! reproduction. The experiment binaries live in `src/bin/` (one per
//! experiment id in DESIGN.md / EXPERIMENTS.md); Criterion
//! micro-benchmarks live in `benches/`.

pub mod experiments;
pub mod report;
pub mod serve_load;

pub use report::{fmt_duration, fmt_f64, mean_std, Table};

/// Parses the conventional `--full` flag used by all experiment binaries:
/// quick mode is the default, `--full` runs the paper-scale sweeps.
pub fn quick_from_args() -> bool {
    !std::env::args().any(|a| a == "--full")
}

/// The provenance block every committed `BENCH_*.json` record carries
/// (and `tools/validate_bench.py` enforces): the commit the numbers
/// were measured at, whether the worktree differed from it (`dirty`,
/// from `git status --porcelain`), plus the effective and physical
/// thread counts — so a scaling curve can never silently claim cores
/// the recording machine did not have.
pub fn bench_meta_json() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let sha = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // A tree whose status cannot be read is not known to be clean.
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    format!(
        r#"{{ "git_sha": "{sha}", "dirty": {dirty}, "threads": {}, "available_parallelism": {available} }}"#,
        mc_geom::max_threads(),
    )
}
