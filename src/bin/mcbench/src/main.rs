//! `mcbench`: the repository's repeatable benchmark.
//!
//! ```text
//! mcbench run --workload W [--seed S] [--seconds T] [--trace 0|1]
//!             [--out result.json] [--mcc path/to/mcc] [--work-dir DIR]
//! mcbench compare A/ B/ [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` generates the workload's inputs from the seed, drives the
//! program through its public library calls (passive, active) or a child
//! `mcc serve` over TCP (serve), checks every answer, prints each metric
//! as `name value unit` and ends with one JSON result line. A plain run
//! reports the end-to-end metrics; `--trace 1` is a separate run that
//! reports the per-layer ones. `compare` judges two directories of result
//! files against the bounds in `BENCHMARK.json`. See `README.md`.

mod active;
mod gen;
mod passive;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Outcome, RunInfo};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Seed used when `--seed` is not given; the passive goldens are for it.
pub const DEFAULT_SEED: u64 = 379_422;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "passive-match",
    "passive-sweep",
    "active-chains",
    "serve-batch",
    "serve-point",
];

/// End-to-end metrics and their units: every plain run reports each.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units: every traced run reports each,
/// with 0 for a layer the workload never calls.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("trace.latency_p50_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("geom.gather_frac", "ratio"),
    ("geom.index_build_frac", "ratio"),
    ("chains.decompose_frac", "ratio"),
    ("core.ladder_flow_frac", "ratio"),
    ("active.sampling_frac", "ratio"),
    ("core.sigma_solve_frac", "ratio"),
    ("core.index_frac", "ratio"),
    ("serve.decode_frac", "ratio"),
    ("serve.encode_frac", "ratio"),
    ("net.residual_frac", "ratio"),
    ("serve.model_load_frac", "ratio"),
    ("matching.hk_rounds", "count"),
    ("matching.bitset_words_scanned", "count"),
    ("matching.greedy_hit_rate", "ratio"),
    ("chains.count", "count"),
    ("passive.contending", "count"),
    ("passive.network_edges", "count"),
    ("passive.sweep_hit_rate", "ratio"),
    ("flow.augmenting_paths", "count"),
    ("flow.bfs_visits", "count"),
    ("active.probes", "labels"),
    ("active.error_ratio", "ratio"),
    ("active.sigma_size", "count"),
];

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where generated inputs go (removed again at the end).
    pub work_dir: PathBuf,
    /// The `mcc` binary the serve workloads spawn.
    pub mcc: PathBuf,
}

impl Ctx {
    /// A path for a generated input of this run.
    pub fn input(&self, name: &str) -> PathBuf {
        self.work_dir
            .join(format!("{}-{}-{name}", self.seed, std::process::id()))
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mebibytes in a byte count.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The end-to-end metrics of a plain run, in [`END_TO_END`] order.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    latency_ms: &[f64],
    throughput: f64,
    peak_rss_bytes: u64,
) {
    let sorted = stats::sorted(latency_ms);
    out.metric("setup_s", stats::median(setup_s), "s");
    out.metric("latency_p50_ms", stats::nearest_rank(&sorted, 0.5), "ms");
    out.metric("peak_rss_mib", mib(peak_rss_bytes), "MiB");
    // Reported but not gated. On a shared host the tail's run-to-run
    // spread reaches 0.3 of its median. Throughput adds no information
    // to the p50: it is n / p50 for a solve, the offered rate in the open
    // loop, and in-flight points / latency in the closed loop.
    out.diag("latency_p90_ms", stats::nearest_rank(&sorted, 0.9), "ms");
    out.diag("throughput_pps", throughput, "points/s");
    out.diag("latency_samples", latency_ms.len() as f64, "count");
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order;
/// layers missing from `values` read 0.
pub fn per_layer(out: &mut Outcome, values: &[(&str, f64)]) {
    for (name, unit) in PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        out.metric(name, v, unit);
    }
}

/// Counters and gauges the library's own `mc-obs` instrumentation
/// recorded, under their per-layer names.
pub fn obs_counters(snap: &mc_obs::Snapshot) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = [
        "matching.hk_rounds",
        "matching.bitset_words_scanned",
        "chains.count",
        "passive.contending",
        "passive.network_edges",
        "flow.augmenting_paths",
        "flow.bfs_visits",
    ]
    .into_iter()
    .map(|name| (name, snap.counter(name) as f64))
    .collect();
    let rate = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "matching.greedy_hit_rate")
        .map_or(0.0, |&(_, v)| v);
    out.push(("matching.greedy_hit_rate", rate));
    out
}

/// Runs `f` with the library's `mc-obs` collection on, from a clean
/// registry, and returns its result with the registry's final state.
pub fn with_obs<T>(f: impl FnOnce() -> T) -> (T, mc_obs::Snapshot) {
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();
    let out = f();
    let snap = mc_obs::snapshot();
    mc_obs::set_level(mc_obs::Level::Warn);
    (out, snap)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

const USAGE: &str = "usage:
  mcbench run --workload W [--seed S] [--seconds T] [--trace 0|1]
              [--out result.json] [--mcc path/to/mcc] [--work-dir DIR]
  mcbench compare A/ B/ [--benchmark BENCHMARK.json]
workloads: passive-match passive-sweep active-chains serve-batch serve-point";

/// `--flag value` pairs, in command-line order.
type Flags = Vec<(String, String)>;

/// Splits `args` into positionals and `--flag value` pairs.
fn parse_flags(args: &[String], known: &[&str]) -> Result<(Vec<String>, Flags), String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            pos.push(a.clone());
        }
    }
    Ok((pos, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(
        args,
        &[
            "workload", "seed", "seconds", "trace", "out", "mcc", "work-dir",
        ],
    )?;
    if let Some(p) = pos.first() {
        return Err(format!("run: unexpected argument {p:?}"));
    }
    let workload = flag(&flags, "workload").ok_or("run: --workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = parse_num(&flags, "seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let trace = match flag(&flags, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ctx = Ctx {
        seed: parse_num(&flags, "seed", DEFAULT_SEED)?,
        seconds,
        trace,
        work_dir: PathBuf::from(flag(&flags, "work-dir").unwrap_or("mcbench-work")),
        mcc: PathBuf::from(flag(&flags, "mcc").unwrap_or("mcc")),
    };
    std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("{}: {e}", ctx.work_dir.display()))?;
    // One library worker thread, for this process and the `mcc serve`
    // children it starts. On a host whose two vCPUs are shared with other
    // machines, a parallel section waits for its slowest worker, and
    // solve times spread twice as wide with two workers as with one.
    // No other thread exists yet.
    std::env::set_var("MC_THREADS", "1");
    // The library's instrumentation stays off except inside `with_obs`.
    mc_obs::set_level(mc_obs::Level::Warn);
    let outcome = match workload {
        "passive-match" => passive::run(passive::Shape::Match, &ctx),
        "passive-sweep" => passive::run(passive::Shape::Sweep, &ctx),
        "active-chains" => active::run(&ctx),
        "serve-batch" => serve::run(serve::Mode::Batch, &ctx),
        _ => serve::run(serve::Mode::Point, &ctx),
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    for line in outcome.lines() {
        println!("{line}");
    }
    if let Some(path) = flag(&flags, "out") {
        let info = RunInfo {
            workload: workload.to_string(),
            seed: ctx.seed,
            trace,
            git_sha: git_sha(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_threads: mc_geom::max_threads(),
        };
        std::fs::write(path, report::result_file(&info, &outcome))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(args, &["benchmark"])?;
    let [a, b] = pos.as_slice() else {
        return Err("compare: expected two result directories".into());
    };
    let bounds = report::read_bounds(Path::new(
        flag(&flags, "benchmark").unwrap_or("BENCHMARK.json"),
    ))?;
    let (lines, flagged) = report::compare(
        &report::load_dir(Path::new(a))?,
        &report::load_dir(Path::new(b))?,
        &bounds,
    );
    for line in lines {
        println!("{line}");
    }
    Ok(flagged == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed; the non-zero code flags wrong
        // answers (run) or a worse/unresolved metric (compare).
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mcbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_serve::JsonValue;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
        let text = std::fs::read(&path).expect("BENCHMARK.json");
        let tree = mc_serve::json_in::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, Option<String>)> {
            tree.get(key)
                .and_then(JsonValue::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    let name = e
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string();
                    let unit = e
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string);
                    (name, unit)
                })
                .collect()
        };
        let names = |v: Vec<(String, Option<String>)>| -> Vec<String> {
            v.into_iter().map(|x| x.0).collect()
        };
        assert_eq!(names(list("workloads")), WORKLOADS);
        let expect = |src: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            src.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(list("end_to_end"), expect(&END_TO_END));
        assert_eq!(list("per_layer"), expect(&PER_LAYER));
    }
}
