//! `mcc` — monotone classification on CSV files.
//!
//! ```text
//! mcc passive <data.csv> [--weighted] [--out classifier.csv]
//! mcc active  <data.csv> [--epsilon E] [--seed S] [--out classifier.csv]
//! mcc eval    <data.csv> <classifier.csv>
//! mcc stats   <data.csv>
//! ```
//!
//! Data format: one row per point, `d` numeric feature columns followed
//! by a 0/1 label column (plus a positive weight column with
//! `--weighted`). A non-numeric header row is skipped. Classifiers are
//! stored as anchor rows (`d` columns; `h(x) = 1` iff `x` dominates an
//! anchor).
//!
//! ## Exit codes
//!
//! Failures map to distinct exit codes so scripts can branch on *why*
//! a run failed without parsing stderr:
//!
//! | code | class | examples |
//! |------|-------|----------|
//! | 0 | success | |
//! | 2 | usage | unknown command, unknown flag, missing argument |
//! | 3 | I/O | unreadable input, unwritable output |
//! | 4 | data | malformed CSV, non-finite feature, bad label |
//! | 5 | parameter | `--epsilon 1.5`, `--folds 1`, rates outside [0, 1], `--time-limit -1` |
//! | 6 | oracle | oracle/input size mismatch, unrecoverable oracle failure |
//! | 7 | timeout | `mcc passive --time-limit` exceeded, or a `--watch-abort` stall cancelled the solve |
//! | 8 | — | retired (was `budget`, a dominator-matrix refusal; no `mcc` command builds one); not reused |
//!
//! ## Columnar datasets
//!
//! `mcc passive` also accepts `MCC1` columnar files (extension `.mcc`,
//! written by `mcc generate scale`). These are ranked one column at a
//! time and solved off the rank columns alone — `O(d·n)` resident, no
//! `Θ(n²)` structure — which is what carries the `n = 10⁷` solves. The
//! solve is the same pipeline a CSV takes, with the same gadget for the
//! dimension (the sweep at `d ≤ 2`, the chain ladder at `d ≥ 3`), so the
//! same points give the same contending count, error and flips either
//! way. The output is the optimal weighted error and flip counts rather
//! than a classifier file (the coordinates are never all resident, so
//! there is nothing to anchor one on). `--out` and `--weighted` (MCC1
//! files carry their own weights) are usage errors there.

use monotone_classification::bench::serve_load;
use monotone_classification::chains::{AntichainPartition, ChainDecomposition};
use monotone_classification::core::metrics::ConfusionMatrix;
use monotone_classification::core::passive::{solve_passive, ContendingPoints, PassiveSolver};
use monotone_classification::core::{ActiveParams, ActiveSolver, InMemoryOracle};
use monotone_classification::data::csv;
use monotone_classification::obs;
use monotone_classification::obs::json::Value;
use monotone_classification::serve::{self, ServeConfig};
use monotone_classification::{
    AbstainingOracle, AnchorIndex, FlakyOracle, McError, MonotoneClassifier, RetryOracle,
    RetryPolicy,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A CLI failure, classified for its exit code.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command/flag, missing argument. Exit 2.
    Usage(String),
    /// Filesystem trouble reading or writing. Exit 3.
    Io(String),
    /// The input parsed but is not valid data. Exit 4.
    Data(String),
    /// A flag value is out of range or unparsable. Exit 5.
    Param(String),
    /// The oracle could not serve the solve. Exit 6.
    Oracle(String),
    /// The solve ran out of time or was cancelled. Exit 7.
    Timeout(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Data(_) => 4,
            CliError::Param(_) => 5,
            CliError::Oracle(_) => 6,
            CliError::Timeout(_) => 7,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Data(m)
            | CliError::Param(m)
            | CliError::Oracle(m)
            | CliError::Timeout(m) => m,
        }
    }

    /// Short class name, stamped into error-path metrics and used as
    /// the flight-recorder dump reason.
    fn class(&self) -> &'static str {
        match self {
            CliError::Usage(_) => "usage",
            CliError::Io(_) => "io",
            CliError::Data(_) => "data",
            CliError::Param(_) => "param",
            CliError::Oracle(_) => "oracle",
            CliError::Timeout(_) => "timeout",
        }
    }
}

impl From<McError> for CliError {
    fn from(e: McError) -> Self {
        match e {
            McError::Geom(_) => CliError::Data(e.to_string()),
            McError::InvalidParameter { .. } => CliError::Param(e.to_string()),
            McError::Oracle(_) | McError::OracleSizeMismatch { .. } => {
                CliError::Oracle(e.to_string())
            }
            McError::Timeout | McError::Cancelled => CliError::Timeout(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {}", error.message());
            if matches!(error, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(error.exit_code())
        }
    }
}

const USAGE: &str = "usage:
  mcc passive  <data.csv> [--weighted] [--out classifier.csv]
               [--trace] [--metrics-out metrics.jsonl]
               [--telemetry ts.jsonl] [--sample-ms MS] [--stall-window-ms MS]
               [--watch-abort] [--time-limit SECS]
  mcc passive  <data.mcc> [--trace] [--metrics-out metrics.jsonl] [--time-limit SECS]
               [--telemetry ts.jsonl] [--sample-ms MS] [--stall-window-ms MS]
               [--watch-abort]
               columnar MCC1 input: streams the matrix-free solve, prints
               error and flip counts (no classifier output at scale)
               on both inputs --time-limit, --telemetry and --watch-abort
               cover the solve, which starts once the input is loaded
  mcc active   <data.csv> [--epsilon E] [--seed S] [--out classifier.csv]
               [--flaky-rate P] [--abstain-rate P] [--retry-attempts N]
               [--fault-seed S] [--trace] [--metrics-out metrics.jsonl]
  mcc eval     <data.csv> <classifier.csv>
  mcc stats    <data.csv>
  mcc crossval <data.csv> [--folds K] [--seed S]
  mcc certify  <data.csv> [--weighted]
  mcc generate <family> <out.csv> [--n N] [--noise P] [--seed S]
               families: planted | entity-matching | hard-family | width-W
  mcc generate scale <out.mcc> [--n N] [--dim D] [--seed S]
               columnar MCC1 banded scale workload (streamed; any N)
  mcc classify <model.csv> <points.csv> [--out labels.csv]
               batch-classifies through the anchor index; one 0/1 label
               per row on stdout (or --out)
  mcc serve    <model.csv> [--addr HOST:PORT] [--trace]
               [--metrics-out metrics.jsonl]
               [--telemetry ts.jsonl] [--sample-ms MS] [--stall-window-ms MS]
               TCP server, length-prefixed JSON frames; ops: classify |
               reload (atomic hot-swap) | metrics | ping | shutdown
  mcc bench-serve [--addr HOST:PORT | --model model.csv] [--duration SECS]
               [--connections N] [--pipeline DEPTH] [--batches 1,16,256]
               [--dim D] [--anchors A] [--seed S]
               [--json-out BENCH_serve.json]
               load-generates against a serve endpoint (default:
               self-hosts a synthetic model) and reports qps + latency";

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args
        .first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    match command.as_str() {
        "passive" => cmd_passive(&args[1..]),
        "active" => cmd_active(&args[1..]),
        "eval" => cmd_eval(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "crossval" => cmd_crossval(&args[1..]),
        "certify" => cmd_certify(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "classify" => cmd_classify(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "bench-serve" => cmd_bench_serve(&args[1..]),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Extracts `--flag value` pairs and bare flags, returning positionals.
#[allow(clippy::type_complexity)] // (positionals, --flag values, bare flags)
fn parse_flags(
    args: &[String],
    valued: &[&str],
    bare: &[&str],
) -> Result<(Vec<String>, Vec<(String, String)>, Vec<String>), CliError> {
    let mut positional = Vec::new();
    let mut values = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if bare.contains(&name) {
                flags.push(name.to_string());
            } else if valued.contains(&name) {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage(format!("--{name} requires a value")))?;
                values.push((name.to_string(), v.clone()));
            } else {
                return Err(CliError::Usage(format!("unknown flag --{name}")));
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Ok((positional, values, flags))
}

fn get_value(values: &[(String, String)], name: &str) -> Option<String> {
    values
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

/// Parses `--name value` as a number, or returns `default` when absent.
fn parse_num<T: std::str::FromStr>(
    values: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, CliError> {
    get_value(values, name)
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Param(format!("bad --{name} {v:?}")))
        })
        .transpose()
        .map(|o| o.unwrap_or(default))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))
}

fn parse_data(text: &str) -> Result<monotone_classification::LabeledSet, CliError> {
    csv::parse_labeled(text).map_err(|e| CliError::Data(e.to_string()))
}

/// Parsed `--telemetry` flag family (live `mc-obs/ts1` sampling).
struct TelemetryCli {
    path: String,
    sample_ms: u64,
    stall_window_ms: u64,
    watch_abort: bool,
}

/// Observability surface shared by the solve commands: `--trace` prints
/// the phase tree to stderr after the run, `--metrics-out <path>.jsonl`
/// writes the machine-readable stream, and `--telemetry <path>.jsonl`
/// streams live `mc-obs/ts1` samples while the solve runs (cadence
/// `--sample-ms`, stall watchdog window `--stall-window-ms`, with
/// `--watch-abort` letting the watchdog cancel a stalled solve). Any of
/// the flags turns collection on (without lowering an explicit
/// `MC_LOG=debug`/`trace`).
///
/// The sinks flush on *every* exit: success through
/// [`finish`](Self::finish), failures through [`fail`](Self::fail) —
/// which also appends a flight-recorder dump to the telemetry stream,
/// so a timeout leaves an autopsy record instead of
/// discarding the run's metrics.
struct ObsOutput {
    trace: bool,
    metrics_out: Option<String>,
    telemetry: Option<TelemetryCli>,
    /// Set once a flush ran, so an error unwinding out of a failed
    /// `finish` does not flush the sinks a second time via `fail`.
    finished: std::cell::Cell<bool>,
}

impl ObsOutput {
    fn from_cli(values: &[(String, String)], flags: &[String]) -> Result<Self, CliError> {
        let watch_abort = flags.iter().any(|f| f == "watch-abort");
        let telemetry = match get_value(values, "telemetry") {
            Some(path) => {
                let sample_ms: u64 = parse_num(values, "sample-ms", 100)?;
                let stall_window_ms: u64 = parse_num(values, "stall-window-ms", 10_000)?;
                if sample_ms == 0 {
                    return Err(CliError::Param("--sample-ms must be positive".into()));
                }
                if stall_window_ms == 0 {
                    return Err(CliError::Param("--stall-window-ms must be positive".into()));
                }
                Some(TelemetryCli {
                    path,
                    sample_ms,
                    stall_window_ms,
                    watch_abort,
                })
            }
            None => {
                for name in ["sample-ms", "stall-window-ms"] {
                    if get_value(values, name).is_some() {
                        return Err(CliError::Usage(format!("--{name} requires --telemetry")));
                    }
                }
                if watch_abort {
                    return Err(CliError::Usage("--watch-abort requires --telemetry".into()));
                }
                None
            }
        };
        let out = Self {
            trace: flags.iter().any(|f| f == "trace"),
            metrics_out: get_value(values, "metrics-out"),
            telemetry,
            finished: std::cell::Cell::new(false),
        };
        if (out.trace || out.metrics_out.is_some() || out.telemetry.is_some())
            && obs::level() < obs::Level::Info
        {
            obs::set_level(obs::Level::Info);
        }
        Ok(out)
    }

    /// Whether `--watch-abort` asked the stall watchdog to cancel the
    /// solve (implies `--telemetry`).
    fn watch_abort(&self) -> bool {
        self.telemetry.as_ref().is_some_and(|t| t.watch_abort)
    }

    /// Starts the background sampler when `--telemetry` was given.
    /// `abort` is the token the stall watchdog cancels under
    /// `--watch-abort` — pass the solve's own token so a detected stall
    /// unwinds the run cooperatively (exit 7).
    fn start_telemetry(
        &self,
        abort: Option<obs::CancelToken>,
        meta: &[(&str, Value)],
    ) -> Result<(), CliError> {
        let Some(t) = &self.telemetry else {
            return Ok(());
        };
        let mut config = obs::telemetry::SamplerConfig::new(&t.path);
        config.interval = Duration::from_millis(t.sample_ms);
        config.stall_window = Some(Duration::from_millis(t.stall_window_ms));
        if t.watch_abort {
            config.abort = abort;
        }
        config.meta = meta
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        obs::telemetry::start(config)
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", t.path)))?;
        Ok(())
    }

    /// Success-path flush: stops the sampler (final sample + flush) and
    /// emits the configured sinks. `extra_meta` is stamped into the
    /// JSONL `meta` line; `extra_lines` (e.g. the solver's
    /// `SolveReport::to_json`) are appended after the snapshot.
    fn finish(&self, extra_meta: &[(&str, Value)], extra_lines: &[String]) -> Result<(), CliError> {
        self.finished.set(true);
        obs::telemetry::stop();
        self.flush_sinks(extra_meta, extra_lines)
    }

    /// Error-path flush: appends a flight-recorder dump (reason = the
    /// error class) to the telemetry stream, stops the sampler, and
    /// best-effort writes the sinks with the error stamped into the
    /// meta line — so `--trace`/`--metrics-out` survive exits 2–7.
    /// Returns the error unchanged for `map_err` chaining.
    fn fail(&self, e: CliError) -> CliError {
        if self.finished.replace(true) {
            return e;
        }
        obs::telemetry::dump(e.class());
        obs::telemetry::stop();
        let _ = self.flush_sinks(
            &[
                ("error", Value::S(e.message().to_string())),
                ("error_class", Value::S(e.class().to_string())),
                ("exit_code", Value::U(u64::from(e.exit_code()))),
            ],
            &[],
        );
        e
    }

    fn flush_sinks(
        &self,
        extra_meta: &[(&str, Value)],
        extra_lines: &[String],
    ) -> Result<(), CliError> {
        if !self.trace && self.metrics_out.is_none() {
            return Ok(());
        }
        let snap = obs::snapshot();
        if self.trace {
            eprint!("{}", obs::sink::render_phase_tree(&snap));
        }
        if let Some(path) = &self.metrics_out {
            let mut meta: Vec<(&str, Value)> = vec![(
                "mc_threads",
                Value::U(monotone_classification::geom::max_threads() as u64),
            )];
            meta.extend(extra_meta.iter().cloned());
            let mut file = std::fs::File::create(path)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            obs::sink::write_jsonl(&mut file, &snap, &meta)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            use std::io::Write as _;
            for line in extra_lines {
                writeln!(file, "{line}")
                    .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            }
            eprintln!("wrote metrics to {path}");
        }
        Ok(())
    }
}

fn cmd_passive(args: &[String]) -> Result<(), CliError> {
    let (pos, values, flags) = parse_flags(
        args,
        &[
            "out",
            "metrics-out",
            "time-limit",
            "telemetry",
            "sample-ms",
            "stall-window-ms",
        ],
        &["weighted", "trace", "watch-abort"],
    )?;
    let obs_out = ObsOutput::from_cli(&values, &flags)?;
    cmd_passive_impl(&pos, &values, &flags, &obs_out).map_err(|e| obs_out.fail(e))
}

/// Parses `--name SECS` as a positive span of seconds whose end, counted
/// from now, the clock can represent; anything else (negative, NaN,
/// infinite, unparsable, or too far out) is a parameter error naming the
/// flag.
fn parse_secs(values: &[(String, String)], name: &str) -> Result<Option<Duration>, CliError> {
    let Some(v) = get_value(values, name) else {
        return Ok(None);
    };
    v.parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .and_then(|s| Duration::try_from_secs_f64(s).ok())
        .filter(|d| Instant::now().checked_add(*d).is_some())
        .map(Some)
        .ok_or_else(|| CliError::Param(format!("--{name}: expected positive seconds, got {v:?}")))
}

/// The token a solo `mcc passive` solve (plain CSV or columnar) polls,
/// made once the input is loaded so that `--time-limit` bounds the
/// solve alone: a deadline under the limit, else a live token under
/// `--watch-abort` for the stall watchdog to cancel (`never()` has no
/// shared state to cancel), else `never()`.
fn solve_token(limit: Option<Duration>, obs_out: &ObsOutput) -> obs::CancelToken {
    match limit {
        Some(limit) => obs::CancelToken::with_deadline(limit),
        None if obs_out.watch_abort() => obs::CancelToken::new(),
        None => obs::CancelToken::never(),
    }
}

fn cmd_passive_impl(
    pos: &[String],
    values: &[(String, String)],
    flags: &[String],
    obs_out: &ObsOutput,
) -> Result<(), CliError> {
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("passive: missing <data.csv>".into()))?;
    let limit = parse_secs(values, "time-limit")?;
    if path.ends_with(".mcc") {
        return cmd_passive_columnar(path, values, flags, limit, obs_out);
    }
    let text = read_file(path)?;
    let weighted = if flags.contains(&"weighted".to_string()) {
        csv::parse_weighted(&text).map_err(|e| CliError::Data(e.to_string()))?
    } else {
        parse_data(&text)?.with_unit_weights()
    };
    let token = solve_token(limit, obs_out);
    let meta = [
        ("tool", Value::S("mcc passive".into())),
        ("n", Value::U(weighted.len() as u64)),
        ("d", Value::U(weighted.dim() as u64)),
    ];
    obs_out.start_telemetry(Some(token.clone()), &meta)?;
    let sol = PassiveSolver::new().try_solve(&weighted, &token)?;
    obs_out.finish(&meta, &[])?;
    println!(
        "n = {}, d = {}, contending = {}",
        weighted.len(),
        weighted.dim(),
        sol.contending
    );
    println!("optimal weighted error = {}", sol.weighted_error);
    println!("classifier anchors = {}", sol.classifier.anchors().len());
    if let Some(out) = get_value(values, "out") {
        write_file(&out, &csv::classifier_to_csv(&sol.classifier))?;
        println!("wrote classifier to {out}");
    }
    Ok(())
}

/// Maps a columnar-format error onto the CLI's exit classes: real
/// filesystem trouble is I/O, everything else (bad magic, truncation,
/// bad labels/weights, non-finite coordinates) is a data error.
fn columnar_err(e: monotone_classification::data::columnar::ColumnarError) -> CliError {
    use monotone_classification::data::columnar::ColumnarError;
    match e {
        ColumnarError::Io(_) => CliError::Io(e.to_string()),
        _ => CliError::Data(e.to_string()),
    }
}

/// The `n = 10⁷` path: ranks an `MCC1` file column by column and solves
/// off the rank table. Residency is `O(d·n)` (the rank table, labels,
/// weights, and one column buffer during the build) — no dominator
/// matrix, no row-major coordinate set — so the only outputs are the
/// optimal error and the solve's shape, not a classifier file.
fn cmd_passive_columnar(
    path: &str,
    values: &[(String, String)],
    flags: &[String],
    limit: Option<Duration>,
    obs_out: &ObsOutput,
) -> Result<(), CliError> {
    use monotone_classification::core::passive::try_solve_passive_scale;
    use monotone_classification::data::columnar::ColumnarDataset;
    if get_value(values, "out").is_some() {
        return Err(CliError::Usage(
            "--out: columnar solves report counts, not a classifier \
             (the coordinates are never all resident)"
                .into(),
        ));
    }
    if flags.iter().any(|f| f == "weighted") {
        return Err(CliError::Usage(
            "--weighted: MCC1 files carry their own weights".into(),
        ));
    }
    let start = Instant::now();
    let mut ds = ColumnarDataset::open(path).map_err(columnar_err)?;
    let (n, d) = (ds.len(), ds.dim());
    let table = ds.rank_table().map_err(columnar_err)?;
    let labels = ds.read_labels().map_err(columnar_err)?;
    let weights = ds.read_weights().map_err(columnar_err)?;
    drop(ds);
    let load_secs = start.elapsed().as_secs_f64();
    let token = solve_token(limit, obs_out);
    obs_out.start_telemetry(
        Some(token.clone()),
        &[
            ("tool", Value::S("mcc passive".into())),
            ("format", Value::S("columnar".into())),
            ("n", Value::U(n as u64)),
            ("d", Value::U(d as u64)),
        ],
    )?;
    let sol = try_solve_passive_scale(&table, &labels, &weights, &token)?;
    let total_secs = start.elapsed().as_secs_f64();
    println!(
        "n = {n}, d = {d}, contending = {} ({} label-0, {} label-1)",
        sol.contending_zeros + sol.contending_ones,
        sol.contending_zeros,
        sol.contending_ones
    );
    println!("optimal weighted error = {}", sol.weighted_error);
    // Width 0 means the ladder never decomposed the label-1 points: the
    // d ≤ 2 sweep ran instead, or one label class is empty.
    let width = match sol.width {
        0 => "no dominance decomposition ran".to_string(),
        w => format!("dominance width = {w}"),
    };
    println!(
        "flips: {} zeros -> 1, {} ones -> 0; {width}",
        sol.flips_to_one, sol.flips_to_zero
    );
    println!(
        "network: {} nodes, {} edges",
        sol.network_nodes, sol.network_edges
    );
    println!(
        "load {load_secs:.2}s, total {total_secs:.2}s, peak rss {} MiB",
        sol.report.peak_rss_bytes / (1 << 20)
    );
    obs_out.finish(
        &[
            ("tool", Value::S("mcc passive".into())),
            ("format", Value::S("columnar".into())),
            ("n", Value::U(n as u64)),
            ("d", Value::U(d as u64)),
        ],
        &[sol.report.to_json()],
    )?;
    Ok(())
}

fn cmd_active(args: &[String]) -> Result<(), CliError> {
    let (pos, values, flags) = parse_flags(
        args,
        &[
            "epsilon",
            "seed",
            "out",
            "flaky-rate",
            "abstain-rate",
            "retry-attempts",
            "fault-seed",
            "metrics-out",
        ],
        &["trace"],
    )?;
    let obs_out = ObsOutput::from_cli(&values, &flags)?;
    cmd_active_impl(&pos, &values, &obs_out).map_err(|e| obs_out.fail(e))
}

fn cmd_active_impl(
    pos: &[String],
    values: &[(String, String)],
    obs_out: &ObsOutput,
) -> Result<(), CliError> {
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("active: missing <data.csv>".into()))?;
    let epsilon: f64 = parse_num(values, "epsilon", 0.5)?;
    let seed: u64 = parse_num(values, "seed", 0)?;
    let flaky_rate: f64 = parse_num(values, "flaky-rate", 0.0)?;
    let abstain_rate: f64 = parse_num(values, "abstain-rate", 0.0)?;
    let retry_attempts: u32 = parse_num(values, "retry-attempts", 4)?;
    let fault_seed: u64 = parse_num(values, "fault-seed", 1)?;
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(CliError::Param(format!(
            "--epsilon must lie in (0, 1], got {epsilon}"
        )));
    }
    for (name, rate) in [("flaky-rate", flaky_rate), ("abstain-rate", abstain_rate)] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(CliError::Param(format!(
                "--{name} must lie in [0, 1], got {rate}"
            )));
        }
    }
    if retry_attempts == 0 {
        return Err(CliError::Param(
            "--retry-attempts must be at least 1".into(),
        ));
    }
    let text = read_file(path)?;
    let data = parse_data(&text)?;
    let solver = ActiveSolver::new(ActiveParams::new(epsilon).with_seed(seed));
    let inject_faults = flaky_rate > 0.0 || abstain_rate > 0.0;
    let sol = if inject_faults {
        // A fixed subset permanently abstains; every other call fails
        // transiently at the flaky rate. Abstaining sits outside flaky,
        // so an unanswerable point draws no flaky fault.
        let flaky = FlakyOracle::from_labeled(&data, flaky_rate, fault_seed);
        let injected = AbstainingOracle::new(flaky, abstain_rate, fault_seed ^ 0xA5);
        let policy = RetryPolicy::default().with_max_attempts(retry_attempts);
        let mut oracle = RetryOracle::new(injected, policy);
        solver.try_solve(data.points(), &mut oracle)?
    } else {
        solver.try_solve(data.points(), &mut InMemoryOracle::from_labeled(&data))?
    };
    obs_out.finish(
        &[
            ("tool", Value::S("mcc active".into())),
            ("n", Value::U(data.len() as u64)),
            ("d", Value::U(data.dim() as u64)),
            ("seed", Value::U(seed)),
            ("epsilon", Value::F(epsilon)),
        ],
        &[sol.report.to_json()],
    )?;
    println!(
        "n = {}, d = {}, dominance width = {}",
        data.len(),
        data.dim(),
        sol.width
    );
    println!(
        "probed {} / {} labels ({:.1}%)",
        sol.probes_used,
        data.len(),
        100.0 * sol.probes_used as f64 / data.len().max(1) as f64
    );
    if inject_faults {
        let r = &sol.report;
        println!(
            "oracle report: {} attempts, {} retries, {} dropped{}",
            r.attempts,
            r.retries,
            r.dropped,
            if r.breaker_tripped {
                ", circuit breaker tripped"
            } else {
                ""
            }
        );
        if r.degraded {
            println!("result DEGRADED: unanswerable points were dropped from the sample");
        }
    }
    println!(
        "classifier error on probed-truth data = {}",
        sol.classifier.error_on(&data)
    );
    if let Some(out) = get_value(values, "out") {
        write_file(&out, &csv::classifier_to_csv(&sol.classifier))?;
        println!("wrote classifier to {out}");
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), CliError> {
    let (pos, _, _) = parse_flags(args, &[], &[])?;
    let [data_path, classifier_path] = pos.as_slice() else {
        return Err(CliError::Usage(
            "eval: need <data.csv> <classifier.csv>".into(),
        ));
    };
    let data = parse_data(&read_file(data_path)?)?;
    let classifier = csv::classifier_from_csv(&read_file(classifier_path)?, data.dim())
        .map_err(|e| CliError::Data(e.to_string()))?;
    let m = ConfusionMatrix::evaluate(&classifier, &data);
    println!("n = {}, errors = {}", m.total(), m.errors());
    println!(
        "tp = {}, fp = {}, tn = {}, fn = {}",
        m.true_positives, m.false_positives, m.true_negatives, m.false_negatives
    );
    println!(
        "accuracy = {:.4}, precision = {:.4}, recall = {:.4}, f1 = {:.4}",
        m.accuracy(),
        m.precision(),
        m.recall(),
        m.f1()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let (pos, _, _) = parse_flags(args, &[], &[])?;
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("stats: missing <data.csv>".into()))?;
    let data = parse_data(&read_file(path)?)?;
    println!("n = {}, d = {}", data.len(), data.dim());
    println!(
        "labels: {} ones, {} zeros",
        data.count_ones(),
        data.len() - data.count_ones()
    );
    let dec = ChainDecomposition::compute(data.points());
    println!("dominance width w = {}", dec.width());
    println!(
        "longest chain (height) = {}",
        AntichainPartition::compute(data.points()).longest_chain_len()
    );
    let con = ContendingPoints::compute(&data.with_unit_weights());
    println!(
        "contending points = {} ({} label-0, {} label-1)",
        con.len(),
        con.zeros.len(),
        con.ones.len()
    );
    let sol = solve_passive(&data.with_unit_weights());
    println!("optimal monotone error k* = {}", sol.weighted_error);
    Ok(())
}

fn cmd_crossval(args: &[String]) -> Result<(), CliError> {
    let (pos, values, _) = parse_flags(args, &["folds", "seed"], &[])?;
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("crossval: missing <data.csv>".into()))?;
    let folds: usize = parse_num(&values, "folds", 5)?;
    let seed: u64 = parse_num(&values, "seed", 0)?;
    let data = parse_data(&read_file(path)?)?;
    if folds < 2 {
        return Err(CliError::Param(format!(
            "--folds must be at least 2, got {folds}"
        )));
    }
    if folds > data.len() {
        return Err(CliError::Param(format!(
            "--folds {folds} exceeds the number of points ({})",
            data.len()
        )));
    }
    let results =
        monotone_classification::core::metrics::cross_validate_passive(&data, folds, seed);
    println!("{folds}-fold cross-validation of the exact passive learner:");
    let mut acc = 0.0;
    let mut f1 = 0.0;
    for (i, m) in results.iter().enumerate() {
        println!(
            "  fold {}: accuracy {:.4}, precision {:.4}, recall {:.4}, f1 {:.4}",
            i + 1,
            m.accuracy(),
            m.precision(),
            m.recall(),
            m.f1()
        );
        acc += m.accuracy();
        f1 += m.f1();
    }
    println!(
        "mean: accuracy {:.4}, f1 {:.4}",
        acc / folds as f64,
        f1 / folds as f64
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    use monotone_classification::data as mcd;
    let (pos, values, _) = parse_flags(args, &["n", "noise", "seed", "dim"], &[])?;
    let [family, out] = pos.as_slice() else {
        return Err(CliError::Usage("generate: need <family> <out.csv>".into()));
    };
    let n: usize = parse_num(&values, "n", 1000)?;
    let noise: f64 = parse_num(&values, "noise", 0.05)?;
    let seed: u64 = parse_num(&values, "seed", 0)?;
    if !(0.0..=1.0).contains(&noise) {
        return Err(CliError::Param(format!(
            "--noise must lie in [0, 1], got {noise}"
        )));
    }
    if family == "scale" {
        // Columnar: streamed one column at a time, so any n works
        // without holding the dataset resident.
        let dim: usize = parse_num(&values, "dim", 4)?;
        if dim == 0 || dim > mcd::columnar::MAX_DIM as usize {
            return Err(CliError::Param(format!(
                "--dim must lie in 1 ..= {}, got {dim}",
                mcd::columnar::MAX_DIM
            )));
        }
        let config = mcd::columnar::ScaleConfig::new(n, dim, seed);
        mcd::columnar::write_scale_dataset(out, &config).map_err(columnar_err)?;
        println!("wrote {n} points (d = {dim}) of family scale to {out}");
        return Ok(());
    }
    let data = match family.as_str() {
        "planted" => {
            mcd::planted::planted_sum_concept(&mcd::planted::PlantedConfig::new(n, 2, noise, seed))
                .data
        }
        "entity-matching" => {
            mcd::entity_matching::generate(&mcd::entity_matching::EntityMatchingConfig {
                pairs: n,
                metrics: 3,
                match_rate: 0.3,
                reliability: 1.0 - noise,
                seed,
            })
            .data
        }
        "hard-family" => {
            let even = if n.is_multiple_of(2) { n.max(2) } else { n + 1 };
            mcd::hard_family::hard_family_member(
                even,
                1 + (seed as usize % (even / 2)),
                mcd::hard_family::AnomalyKind::OneOne,
            )
        }
        other => {
            let Some(width) = other
                .strip_prefix("width-")
                .and_then(|w| w.parse::<usize>().ok())
            else {
                return Err(CliError::Usage(format!("unknown family {other:?}")));
            };
            if width == 0 || (n > 0 && width > n) {
                return Err(CliError::Param(format!(
                    "{other} needs a width in 1 ..= n, got width {width} with --n {n}"
                )));
            }
            mcd::controlled_width::generate(&mcd::controlled_width::ControlledWidthConfig {
                n,
                width,
                noise,
                seed,
            })
            .data
        }
    };
    let mut text = String::new();
    for (i, p) in data.points().iter().enumerate() {
        let row: Vec<String> = p.iter().map(|c| format!("{c}")).collect();
        text.push_str(&row.join(","));
        text.push(',');
        text.push_str(&data.label(i).to_string());
        text.push('\n');
    }
    write_file(out, &text)?;
    println!(
        "wrote {} points (d = {}) of family {family} to {out}",
        data.len(),
        data.dim()
    );
    Ok(())
}

fn cmd_certify(args: &[String]) -> Result<(), CliError> {
    let (pos, _, flags) = parse_flags(args, &[], &["weighted"])?;
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("certify: missing <data.csv>".into()))?;
    let text = read_file(path)?;
    let data = if flags.contains(&"weighted".to_string()) {
        csv::parse_weighted(&text).map_err(|e| CliError::Data(e.to_string()))?
    } else {
        parse_data(&text)?.with_unit_weights()
    };
    let (sol, cert) = monotone_classification::core::passive::certify_passive(&data);
    cert.verify(&data)
        .map_err(|e| CliError::Data(format!("certificate failed audit: {e}")))?;
    println!("optimal weighted error = {}", sol.weighted_error);
    println!(
        "dual certificate: {} inversion charges totalling {}",
        cert.charges.len(),
        cert.charges.iter().map(|c| c.amount).sum::<f64>()
    );
    println!("audit: every charge is a real inversion, no weight double-charged —");
    println!("       no monotone classifier can do better. VERIFIED.");
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), CliError> {
    let (pos, values, _) = parse_flags(args, &["out"], &[])?;
    let [model_path, points_path] = pos.as_slice() else {
        return Err(CliError::Usage(
            "classify: need <model.csv> <points.csv>".into(),
        ));
    };
    let classifier = csv::classifier_from_csv_auto(&read_file(model_path)?)
        .map_err(|e| CliError::Data(e.to_string()))?;
    let points =
        csv::parse_points(&read_file(points_path)?).map_err(|e| CliError::Data(e.to_string()))?;
    if points.dim() != classifier.dim() {
        return Err(CliError::Data(format!(
            "dimension mismatch: model is {}-d, points are {}-d",
            classifier.dim(),
            points.dim()
        )));
    }
    let index = AnchorIndex::build(&classifier);
    let labels = index.classify_set(&points);
    let mut out = String::with_capacity(labels.len() * 2);
    let mut positives = 0usize;
    for label in &labels {
        positives += usize::from(label.is_one());
        out.push(if label.is_one() { '1' } else { '0' });
        out.push('\n');
    }
    match get_value(&values, "out") {
        Some(path) => write_file(&path, &out)?,
        None => print!("{out}"),
    }
    eprintln!(
        "classified {} points through a {}-anchor index: {} positive, {} negative",
        labels.len(),
        index.num_anchors(),
        positives,
        labels.len() - positives
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (pos, values, flags) = parse_flags(
        args,
        &[
            "addr",
            "metrics-out",
            "telemetry",
            "sample-ms",
            "stall-window-ms",
        ],
        &["trace", "watch-abort"],
    )?;
    let obs_out = ObsOutput::from_cli(&values, &flags)?;
    cmd_serve_impl(&pos, &values, &obs_out).map_err(|e| obs_out.fail(e))
}

fn cmd_serve_impl(
    pos: &[String],
    values: &[(String, String)],
    obs_out: &ObsOutput,
) -> Result<(), CliError> {
    let model_path = pos
        .first()
        .ok_or_else(|| CliError::Usage("serve: missing <model.csv>".into()))?;
    let classifier = csv::classifier_from_csv_auto(&read_file(model_path)?)
        .map_err(|e| CliError::Data(e.to_string()))?;
    let (dim, anchors) = (classifier.dim(), classifier.anchors().len());
    let config = ServeConfig {
        addr: get_value(values, "addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        model_path: Some(std::path::PathBuf::from(model_path)),
        ..ServeConfig::default()
    };
    let server = serve::spawn(config, classifier)
        .map_err(|e| CliError::Io(format!("cannot bind server: {e}")))?;
    obs_out.start_telemetry(
        None,
        &[
            ("command", Value::S("serve".into())),
            ("model", Value::S(model_path.clone())),
        ],
    )?;
    // The bound address goes to stdout (and is flushed) so scripts can
    // read it even when `--addr` asked for an ephemeral port.
    println!(
        "serving {dim}-d model ({anchors} anchors) on {}",
        server.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = server.stats();
    server.join();
    use std::sync::atomic::Ordering::Relaxed;
    println!(
        "drained: {} requests ({} points), {} errors, {} swaps",
        stats.requests.load(Relaxed),
        stats.points.load(Relaxed),
        stats.errors.load(Relaxed),
        stats.swaps.load(Relaxed)
    );
    obs_out.finish(
        &[
            ("command", Value::S("serve".into())),
            ("requests", Value::U(stats.requests.load(Relaxed))),
            ("points", Value::U(stats.points.load(Relaxed))),
        ],
        &[],
    )
}

/// Parses the `--batches 1,16,256` mix (positive sizes, comma-separated).
fn parse_batch_mix(values: &[(String, String)]) -> Result<Vec<usize>, CliError> {
    let spec = get_value(values, "batches").unwrap_or_else(|| "1,16,256,1024".into());
    let mix: Vec<usize> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|&b| b > 0)
                .ok_or_else(|| CliError::Param(format!("bad --batches entry {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    if mix.is_empty() {
        return Err(CliError::Param(
            "--batches must list at least one size".into(),
        ));
    }
    Ok(mix)
}

fn cmd_bench_serve(args: &[String]) -> Result<(), CliError> {
    let (pos, values, _) = parse_flags(
        args,
        &[
            "addr",
            "model",
            "duration",
            "connections",
            "pipeline",
            "batches",
            "dim",
            "anchors",
            "seed",
            "json-out",
        ],
        &[],
    )?;
    if !pos.is_empty() {
        return Err(CliError::Usage(format!(
            "bench-serve: unexpected argument {:?}",
            pos[0]
        )));
    }
    let duration = parse_secs(&values, "duration")?.unwrap_or(Duration::from_secs(5));
    let duration_s = duration.as_secs_f64();
    let connections: usize = parse_num(&values, "connections", 2)?;
    let pipeline: usize = parse_num(&values, "pipeline", 32)?;
    if connections == 0 || pipeline == 0 {
        return Err(CliError::Param(
            "--connections and --pipeline must be positive".into(),
        ));
    }
    let seed: u64 = parse_num(&values, "seed", 0x5eed)?;
    let batch_mix = parse_batch_mix(&values)?;

    // Target: an external endpoint (`--addr`, with `--dim` describing
    // its model), or a self-hosted server over `--model` / a synthetic
    // antichain of `--anchors` random anchors.
    let external = get_value(&values, "addr");
    let (server, addr, dim, anchors) = match external {
        Some(addr) => {
            for flag in ["model", "anchors"] {
                if get_value(&values, flag).is_some() {
                    return Err(CliError::Usage(format!(
                        "--{flag} only applies when self-hosting (omit --addr)"
                    )));
                }
            }
            let dim: usize = parse_num(&values, "dim", 4)?;
            (None, addr, dim, 0usize)
        }
        None => {
            let classifier = match get_value(&values, "model") {
                Some(path) => {
                    if get_value(&values, "dim").is_some()
                        || get_value(&values, "anchors").is_some()
                    {
                        return Err(CliError::Usage(
                            "--dim/--anchors conflict with --model (the file decides)".into(),
                        ));
                    }
                    csv::classifier_from_csv_auto(&read_file(&path)?)
                        .map_err(|e| CliError::Data(e.to_string()))?
                }
                None => {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let dim: usize = parse_num(&values, "dim", 4)?;
                    let num_anchors: usize = parse_num(&values, "anchors", 1024)?;
                    if dim == 0 || num_anchors == 0 {
                        return Err(CliError::Param(
                            "--dim and --anchors must be positive".into(),
                        ));
                    }
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                    let anchors: Vec<Vec<f64>> = (0..num_anchors)
                        .map(|_| (0..dim).map(|_| rng.gen_range(0.25..1.0)).collect())
                        .collect();
                    MonotoneClassifier::from_anchors(dim, anchors)
                }
            };
            let (dim, anchors) = (classifier.dim(), classifier.anchors().len());
            let server = serve::spawn(ServeConfig::default(), classifier)
                .map_err(|e| CliError::Io(format!("cannot bind server: {e}")))?;
            let addr = server.addr().to_string();
            (Some(server), addr, dim, anchors)
        }
    };

    let self_hosted = server.is_some();
    eprintln!(
        "offering load to {addr}: {connections} connection(s) x pipeline {pipeline}, \
         batches {batch_mix:?}, {duration_s}s"
    );
    let load = serve_load::LoadConfig {
        addr: addr.clone(),
        duration,
        connections,
        pipeline_depth: pipeline,
        batch_mix: batch_mix.clone(),
        dim,
        seed,
    };
    let report = serve_load::run(&load).map_err(|e| CliError::Io(format!("load run: {e}")))?;
    // Server-side view, fetched over the wire so it works for external
    // endpoints too; best-effort (the run already has its own numbers).
    let server_metrics = serve::Client::connect(addr.as_str())
        .ok()
        .and_then(|mut c| c.metrics().ok());

    let lat_ms = |q: f64| report.latency_quantile_us(q).unwrap_or(0) as f64 / 1000.0;
    let max_ms = report.latencies_us.last().copied().unwrap_or(0) as f64 / 1000.0;
    println!(
        "frames: {} ok, {} errors in {:.2}s",
        report.frames,
        report.errors,
        report.elapsed.as_secs_f64()
    );
    println!(
        "throughput: {:.0} frames/s, {:.0} single-point qps",
        report.frames_per_sec(),
        report.points_per_sec()
    );
    println!(
        "latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {max_ms:.3} ms",
        lat_ms(0.50),
        lat_ms(0.90),
        lat_ms(0.99)
    );
    if report.errors > 0 {
        return Err(CliError::Data(format!(
            "{} of {} frames were answered with errors",
            report.errors,
            report.frames + report.errors
        )));
    }

    if let Some(path) = get_value(&values, "json-out") {
        use monotone_classification::obs::json::Obj;
        let batches_json = format!(
            "[{}]",
            batch_mix
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let config_json = Obj::new()
            .f64("duration_s", duration_s)
            .u64("connections", connections as u64)
            .u64("pipeline_depth", pipeline as u64)
            .raw("batch_mix", &batches_json)
            .u64("dim", dim as u64)
            .u64("anchors", anchors as u64)
            .bool("self_hosted", self_hosted)
            .finish();
        let throughput_json = Obj::new()
            .u64("frames", report.frames)
            .u64("errors", report.errors)
            .u64("points", report.points)
            .f64("elapsed_s", report.elapsed.as_secs_f64())
            .f64("frames_per_sec", report.frames_per_sec())
            .f64("single_point_qps", report.points_per_sec())
            .finish();
        let latency_json = Obj::new()
            .f64("p50", lat_ms(0.50))
            .f64("p90", lat_ms(0.90))
            .f64("p99", lat_ms(0.99))
            .f64("max", max_ms)
            .finish();
        let server_json = match &server_metrics {
            Some(m) => {
                let get = |k: &str| m.get(k).and_then(serve::JsonValue::as_u64).unwrap_or(0);
                Obj::new()
                    .u64("generation", get("generation"))
                    .u64("requests", get("requests"))
                    .u64("points", get("points"))
                    .u64("swaps", get("swaps"))
                    .u64("latency_us_p50", get("latency_us_p50"))
                    .u64("latency_us_p99", get("latency_us_p99"))
                    .u64("classify_us_p50", get("classify_us_p50"))
                    .u64("classify_us_p99", get("classify_us_p99"))
                    .finish()
            }
            None => "null".into(),
        };
        let record = Obj::new()
            .str("bench", "serve")
            .raw("meta", &monotone_classification::bench::bench_meta_json())
            .raw("config", &config_json)
            .raw("throughput", &throughput_json)
            .raw("latency_ms", &latency_json)
            .raw("server", &server_json)
            .finish();
        write_file(&path, &format!("{record}\n"))?;
        eprintln!("wrote {path}");
    }

    if let Some(server) = server {
        server.shutdown_and_join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["a.csv", "--epsilon", "0.5", "--weighted"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, values, flags) = parse_flags(&args, &["epsilon"], &["weighted"]).unwrap();
        assert_eq!(pos, vec!["a.csv"]);
        assert_eq!(get_value(&values, "epsilon").as_deref(), Some("0.5"));
        assert_eq!(flags, vec!["weighted"]);
    }

    #[test]
    fn unknown_flag_rejected() {
        let args = vec!["--bogus".to_string()];
        assert!(parse_flags(&args, &[], &[]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        let args = vec!["--epsilon".to_string()];
        assert!(parse_flags(&args, &["epsilon"], &[]).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["bogus".to_string()]).is_err());
    }

    #[test]
    fn error_classes_have_distinct_exit_codes() {
        let errors = [
            CliError::Usage(String::new()),
            CliError::Io(String::new()),
            CliError::Data(String::new()),
            CliError::Param(String::new()),
            CliError::Oracle(String::new()),
            CliError::Timeout(String::new()),
        ];
        let mut codes: Vec<u8> = errors.iter().map(|e| e.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "exit codes must be distinct");
        assert!(codes.iter().all(|&c| c != 0 && c != 1));
    }

    #[test]
    fn mc_errors_map_to_expected_classes() {
        let e: CliError = McError::OracleSizeMismatch {
            oracle: 3,
            points: 5,
        }
        .into();
        assert_eq!(e.exit_code(), 6);
        let e: CliError = McError::invalid_parameter("ε must lie in (0, 1], got 2").into();
        assert_eq!(e.exit_code(), 5);
        let e: CliError = McError::Timeout.into();
        assert_eq!(e.exit_code(), 7);
        let e: CliError = McError::Cancelled.into();
        assert_eq!(e.exit_code(), 7);
    }
}
