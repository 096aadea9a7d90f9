//! Run results: the printed lines, the result file, and `compare`.

use crate::stats::quartiles;
use crate::trace::Span;
use mc_obs::json::Obj;
use mc_serve::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: String,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The gated metrics: end-to-end ones in a plain run, per-layer ones
    /// in a traced run.
    pub metrics: Vec<Metric>,
    /// Printed as `diag.*` lines and kept in the result file, never gated.
    pub diag: Vec<Metric>,
    /// Operations attempted (solves, frames, certificate checks).
    pub attempted: u64,
    /// Operations whose answer was wrong or missing.
    pub failed: u64,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records one operation and whether its answer checked out.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("mcbench: check failed: {what}");
            }
        }
    }

    /// Adds a gated metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Adds a diagnostic.
    pub fn diag(&mut self, name: &str, value: f64, unit: &str) {
        self.diag.push(Metric::new(name, value, unit));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines: `name value unit`, then `diag.*`.
    pub fn lines(&self) -> Vec<String> {
        let gated = self
            .metrics
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.value, m.unit));
        let diag = self
            .diag
            .iter()
            .map(|m| format!("diag.{} {} {}", m.name, m.value, m.unit));
        gated.chain(diag).collect()
    }

    /// The one-line JSON result that ends standard output.
    pub fn result_line(&self) -> String {
        Obj::new()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics_json(&self.metrics))
            .finish()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut obj = Obj::new();
    for m in metrics {
        let inner = Obj::new()
            .f64("value", m.value)
            .str("unit", &m.unit)
            .finish();
        obj = obj.raw(&m.name, &inner);
    }
    obj.finish()
}

/// Identifies a run in its result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Commit the program was built from (`unknown` outside git).
    pub git_sha: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `mc_geom::max_threads()`: the workers the library may use.
    pub max_threads: usize,
}

/// Renders the result file: the run's identity, the result line's
/// fields, the diagnostics and the spans.
pub fn result_file(info: &RunInfo, outcome: &Outcome) -> String {
    let spans: Vec<String> = outcome
        .spans
        .iter()
        .map(|s| {
            let o = Obj::new()
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            }
            .finish()
        })
        .collect();
    Obj::new()
        .str("workload", &info.workload)
        .u64("seed", info.seed)
        .bool("trace", info.trace)
        .str("git_sha", &info.git_sha)
        .u64("nproc", info.nproc as u64)
        .u64("max_threads", info.max_threads as u64)
        .bool("correct", outcome.correct())
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .raw("metrics", &metrics_json(&outcome.metrics))
        .raw("diag", &metrics_json(&outcome.diag))
        .raw("spans", &format!("[{}]", spans.join(",")))
        .finish()
        + "\n"
}

/// A result file read back: identity, counts and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Run identity.
    pub info: RunInfo,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Gated metrics.
    pub metrics: Vec<Metric>,
    /// Diagnostics, named without their `diag.` prefix.
    pub diag: Vec<Metric>,
}

fn field<'a>(tree: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    tree.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn metrics_from(tree: &JsonValue) -> Result<Vec<Metric>, String> {
    let JsonValue::Obj(entries) = tree else {
        return Err("metrics must be an object".into());
    };
    entries
        .iter()
        .map(|(name, m)| {
            Ok(Metric {
                name: name.clone(),
                value: field(m, "value")?
                    .as_f64()
                    .ok_or("value must be a number")?,
                unit: field(m, "unit")?
                    .as_str()
                    .ok_or("unit must be a string")?
                    .to_string(),
            })
        })
        .collect()
}

/// Parses a result file written by [`result_file`].
pub fn parse_result(text: &str) -> Result<ResultRecord, String> {
    let tree = mc_serve::json_in::parse(text.trim().as_bytes())?;
    let text_of = |k: &str| -> Result<String, String> {
        Ok(field(&tree, k)?
            .as_str()
            .ok_or(format!("{k} must be a string"))?
            .to_string())
    };
    let num = |k: &str| -> Result<u64, String> {
        field(&tree, k)?
            .as_u64()
            .ok_or(format!("{k} must be a whole number"))
    };
    Ok(ResultRecord {
        info: RunInfo {
            workload: text_of("workload")?,
            seed: num("seed")?,
            trace: field(&tree, "trace")?
                .as_bool()
                .ok_or("trace must be a boolean")?,
            git_sha: text_of("git_sha")?,
            nproc: num("nproc")? as usize,
            max_threads: num("max_threads")? as usize,
        },
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: metrics_from(field(&tree, "metrics")?)?,
        diag: metrics_from(field(&tree, "diag")?)?,
    })
}

/// How one metric compares between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Same,
    /// The second set is better by more than the bound, or every run of
    /// it is better than every run of the first.
    Better,
    /// The second set is worse by more than the bound.
    Worse,
    /// A set's own quartile spread is wider than the bound.
    Unresolved,
}

/// Compares run set `b` against run set `a` for a metric where `lower`
/// values are better (or higher ones, when `lower` is false). With
/// `judge_spread` false only the medians count.
pub fn verdict(a: &[f64], b: &[f64], lower: bool, bound: f64, judge_spread: bool) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let rel = |x: f64| {
        if am != 0.0 {
            x / am.abs()
        } else if x == 0.0 {
            0.0
        } else {
            x.signum() * f64::INFINITY
        }
    };
    let spread = |q1: f64, q3: f64| rel(q3 - q1);
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let worse_by = if lower { rel(bm - am) } else { rel(am - bm) };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if judge_spread && (spread(a1, a3) > bound || spread(b1, b3) > bound) {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Direction and bound of one end-to-end metric in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Lower values are better.
    pub lower: bool,
    /// Allowed worsening, as a share of the median.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tree = mc_serve::json_in::parse(&text)?;
    let entries = field(&tree, "end_to_end")?
        .as_arr()
        .ok_or("end_to_end must be an array")?;
    entries
        .iter()
        .map(|e| {
            let name = field(e, "name")?.as_str().ok_or("name must be a string")?;
            let better = field(e, "better")?
                .as_str()
                .ok_or("better must be a string")?;
            let bound = field(e, "bound")?
                .as_f64()
                .ok_or("bound must be a number")?;
            Ok((
                name.to_string(),
                Bound {
                    lower: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

/// Loads every `*.json` result file in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<ResultRecord>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push(parse_result(&text).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    Ok(out)
}

/// Samples of each `(workload, traced, metric)` across a set of runs.
type Samples = BTreeMap<(String, bool, String), (String, Vec<f64>)>;

fn samples(records: &[ResultRecord]) -> Samples {
    let mut out = Samples::new();
    for r in records {
        let diag = r.diag.iter().map(|m| (format!("diag.{}", m.name), m));
        for (name, m) in r.metrics.iter().map(|m| (m.name.clone(), m)).chain(diag) {
            out.entry((r.info.workload.clone(), r.info.trace, name))
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push(m.value);
        }
    }
    out
}

/// The `compare` report: one row per (workload, metric or diagnostic)
/// present in both sets, with each set's median and quartiles and, for
/// the gated end-to-end metrics, a verdict against their bound.
pub fn compare(
    a: &[ResultRecord],
    b: &[ResultRecord],
    bounds: &BTreeMap<String, Bound>,
) -> (Vec<String>, usize) {
    let (sa, sb) = (samples(a), samples(b));
    let mut lines = vec![format!(
        "{:<14} {:<28} {:>34} {:>34}  verdict",
        "workload", "metric", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)"
    )];
    let mut flagged = 0;
    let cell = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{m:.6} [{q1:.6}, {q3:.6}] ({})", v.len())
    };
    for (key, (unit, va)) in &sa {
        let Some((_, vb)) = sb.get(key) else { continue };
        let (workload, traced, metric) = key;
        let verdict = match bounds.get(metric) {
            Some(b) if !traced => {
                // Set-up is a few short operations at the start of a run:
                // one slow moment on the host moves a run's value but not
                // the median of several runs, so only medians judge it.
                let v = verdict(va, vb, b.lower, b.bound, metric != "setup_s");
                if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                    flagged += 1;
                }
                format!("{v:?}").to_lowercase()
            }
            _ => "-".to_string(),
        };
        lines.push(format!(
            "{workload:<14} {:<28} {:>34} {:>34}  {verdict}",
            format!("{metric} ({unit})"),
            cell(va),
            cell(vb)
        ));
    }
    let failed: u64 = a.iter().chain(b).map(|r| r.failed).sum();
    lines.push(format!(
        "runs: A {} B {}; failed operations across both sets: {failed}",
        a.len(),
        b.len()
    ));
    (lines, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> Outcome {
        let mut o = Outcome::default();
        o.check(true, "solve");
        o.check(false, "frame");
        o.metric("latency_p50_ms", 1.2034567891234, "ms");
        o.metric("peak_rss_mib", 431.25, "MiB");
        o.diag("probes", 36717.0, "labels");
        o.spans.push(Span {
            name: "passive.solve",
            start_ns: 5,
            end_ns: 99,
            parent: None,
        });
        o.spans.push(Span {
            name: "chains.decompose",
            start_ns: 10,
            end_ns: 50,
            parent: Some(0),
        });
        o
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = sample_outcome().result_line();
        let tree = mc_serve::json_in::parse(line.as_bytes()).unwrap();
        let JsonValue::Obj(entries) = &tree else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(tree.get("correct").unwrap().as_bool(), Some(false));
        let m = tree.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        // Every digit survives.
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.2034567891234));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn result_file_round_trips() {
        let info = RunInfo {
            workload: "passive-match".into(),
            seed: 379_422,
            trace: true,
            git_sha: "abc123".into(),
            nproc: 2,
            max_threads: 2,
        };
        let outcome = sample_outcome();
        let back = parse_result(&result_file(&info, &outcome)).unwrap();
        assert_eq!(back.info, info);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.metrics, outcome.metrics);
        assert_eq!(back.diag, outcome.diag);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.2, 10.1, 10.3, 10.15, 10.25];
        let slow = [12.0, 12.1, 11.9, 12.0, 12.05];
        let fast = [8.0, 8.1, 7.9, 8.0, 8.05];
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&base, &same, true, 0.1, true), Verdict::Same);
        assert_eq!(verdict(&base, &slow, true, 0.1, true), Verdict::Worse);
        assert_eq!(verdict(&base, &fast, true, 0.1, true), Verdict::Better);
        // Higher-is-better flips the reading.
        assert_eq!(verdict(&base, &slow, false, 0.1, true), Verdict::Better);
        assert_eq!(verdict(&base, &noisy, true, 0.1, true), Verdict::Unresolved);
        // Judged on medians alone, the same sets agree.
        assert_eq!(verdict(&base, &noisy, true, 0.1, false), Verdict::Same);
        // A wide spread still resolves when every run is better.
        let wide_fast = [1.0, 3.0, 2.0, 1.5, 2.5];
        assert_eq!(verdict(&base, &wide_fast, true, 0.1, true), Verdict::Better);
        // Bound 0: exact counts.
        assert_eq!(
            verdict(&[5.0; 3], &[5.0; 3], true, 0.0, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[5.0; 3], &[6.0; 3], true, 0.0, true),
            Verdict::Worse
        );
    }
}
