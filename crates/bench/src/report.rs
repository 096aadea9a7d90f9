//! Plain-text experiment reporting (aligned tables and summary stats)
//! plus the JSON bench-report builders used by `run_all --json-out`.

use mc_obs::json::Obj;
use std::fmt;
use std::fmt::Write as _;

/// A simple column-aligned table for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:>width$} |", width = widths[i])?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Formats a float compactly (3 significant decimals, stripped zeros).
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Renders the run-level metadata object stamped into every JSON bench
/// report: git SHA, the *effective* `MC_THREADS` value (after env
/// parsing and defaulting), the sweep seed, and the machine's thread
/// count.
pub fn run_metadata_json(seed: u64, quick: bool) -> String {
    let mut obj = Obj::new();
    if let Some(sha) = mc_obs::meta::git_sha() {
        obj = obj.str("git_sha", &sha);
    }
    obj.u64("mc_threads", mc_geom::max_threads() as u64)
        .u64("threads_available", mc_obs::meta::available_threads())
        .u64("seed", seed)
        .bool("quick", quick)
        .finish()
}

/// Renders one experiment's JSON report: identity, wall time, and the
/// per-phase breakdown (spans, counters, gauges) from the `mc-obs`
/// snapshot taken right after the run.
pub fn experiment_json(name: &str, wall_ns: u64, tables: usize, snap: &mc_obs::Snapshot) -> String {
    let mut phases = String::from("[");
    for (i, span) in snap.spans.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        phases.push_str(
            &Obj::new()
                .str("path", &span.path)
                .u64("calls", span.calls)
                .u64("total_ns", span.total_ns)
                .finish(),
        );
    }
    phases.push(']');
    let mut counters = String::from("{");
    for (i, (cname, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            counters.push(',');
        }
        let _ = write!(counters, "\"{}\":{v}", mc_obs::json::escape(cname));
    }
    counters.push('}');
    let mut gauges = Obj::new();
    for (gname, v) in &snap.gauges {
        gauges = gauges.f64(gname, *v);
    }
    Obj::new()
        .str("name", name)
        .u64("wall_ns", wall_ns)
        .u64("tables", tables as u64)
        .raw("phases", &phases)
        .raw("counters", &counters)
        .raw("gauges", &gauges.finish())
        .finish()
}

/// Assembles the full bench-report document: schema tag, run metadata,
/// and one entry per experiment (each from [`experiment_json`]).
pub fn bench_report_json(meta: &str, experiments: &[String]) -> String {
    format!(
        "{{\"type\":\"bench_report\",\"schema\":\"mc-obs/1\",\"meta\":{meta},\"experiments\":[{}]}}",
        experiments.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "probes"]);
        t.add_row(vec!["100".into(), "42".into()]);
        t.add_row(vec!["100000".into(), "1234".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("probes"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        let (m, _) = mean_std(&[]);
        assert!(m.is_nan());
    }

    #[test]
    fn run_metadata_carries_tunables_and_seed() {
        let meta = run_metadata_json(42, true);
        assert!(meta.contains("\"mc_threads\":"), "{meta}");
        assert!(meta.contains("\"threads_available\":"), "{meta}");
        assert!(meta.contains("\"seed\":42"), "{meta}");
        assert!(meta.contains("\"quick\":true"), "{meta}");
    }

    #[test]
    fn experiment_json_embeds_phases_and_counters() {
        let snap = mc_obs::Snapshot {
            spans: vec![mc_obs::SpanStat {
                path: "active".into(),
                name: "active".into(),
                parent: String::new(),
                depth: 0,
                calls: 2,
                total_ns: 1000,
            }],
            counters: vec![("oracle.attempts".into(), 7)],
            gauges: vec![("chains.width".into(), 3.0)],
            hists: vec![],
            events: vec![],
            events_dropped: 0,
            active: vec![],
        };
        let doc = experiment_json("E1-theorem1", 12345, 2, &snap);
        assert!(doc.contains("\"name\":\"E1-theorem1\""), "{doc}");
        assert!(
            doc.contains("\"phases\":[{\"path\":\"active\",\"calls\":2,\"total_ns\":1000}]"),
            "{doc}"
        );
        assert!(
            doc.contains("\"counters\":{\"oracle.attempts\":7}"),
            "{doc}"
        );
        assert!(doc.contains("\"gauges\":{\"chains.width\":3}"), "{doc}");
        let full = bench_report_json(&run_metadata_json(0, true), &[doc]);
        assert!(full.starts_with("{\"type\":\"bench_report\""), "{full}");
        assert!(full.contains("\"schema\":\"mc-obs/1\""), "{full}");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(
            fmt_duration(std::time::Duration::from_millis(1500)),
            "1.50s"
        );
        assert_eq!(
            fmt_duration(std::time::Duration::from_micros(250)),
            "250.0us"
        );
    }
}
