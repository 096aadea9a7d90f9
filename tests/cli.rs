//! End-to-end tests of the `mcc` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn mcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const DEMO: &str = "x,y,label\n0.1,0.2,0\n0.9,0.8,1\n0.7,0.9,1\n0.3,0.1,0\n0.8,0.2,0\n0.2,0.9,1\n";

#[test]
fn stats_reports_structure() {
    let data = write_temp("stats.csv", DEMO);
    let out = mcc().arg("stats").arg(&data).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("n = 6, d = 2"));
    assert!(stdout.contains("dominance width w = 2"));
    assert!(stdout.contains("k* = 0"));
}

/// `mcc stats` on a d=4 CSV with duplicate rows and `-0.0` cells must
/// print exactly what the library references compute: the width of a
/// chain decomposition certified by its antichain, a pairwise
/// longest-chain height, the pairwise contending scan and the dense
/// Section-5.1 solve.
#[test]
fn stats_matches_the_library_references_at_d4() {
    use monotone_classification::chains::ChainDecomposition;
    use monotone_classification::core::passive::{solve_passive_dense, ContendingPoints};

    const PALETTE: [&str; 5] = ["-0.0", "0.0", "1", "2.5", "4"];
    let mut state = 0x5EED_u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut rows: Vec<String> = Vec::new();
    for _ in 0..90 {
        let coords: Vec<&str> = (0..4).map(|_| PALETTE[next(5) as usize]).collect();
        rows.push(format!("{},{}", coords.join(","), next(2)));
    }
    // Duplicate rows, with the same and with the opposite label.
    for i in 0..20 {
        let (coords, label) = rows[i * 3].rsplit_once(',').unwrap();
        let label = if i % 2 == 0 {
            label
        } else if label == "0" {
            "1"
        } else {
            "0"
        };
        rows.push(format!("{coords},{label}"));
    }
    let text = format!("a,b,c,d,label\n{}\n", rows.join("\n"));
    let data = write_temp("stats-d4.csv", &text);
    let out = mcc().arg("stats").arg(&data).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    let set = monotone_classification::data::csv::parse_labeled(&text).unwrap();
    let weighted = set.with_unit_weights();
    let dec = ChainDecomposition::compute(set.points());
    dec.validate(set.points()).unwrap();
    let width = dec.width();
    // Longest chain by the O(n²) DP over `dominates`, visiting points in
    // ascending coordinate sum (strict dominance raises it); equal points
    // chain up too, so a duplicate sits one above its twin.
    let points = set.points();
    let n = points.len();
    let sum = |i: usize| points.point(i).iter().sum::<f64>();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| sum(a).total_cmp(&sum(b)).then(a.cmp(&b)));
    let mut chain_len = vec![1usize; n];
    for (k, &v) in order.iter().enumerate() {
        for &u in &order[..k] {
            if points.dominates(v, u) {
                chain_len[v] = chain_len[v].max(chain_len[u] + 1);
            }
        }
    }
    let height = chain_len.iter().copied().max().unwrap_or(0);
    let con = ContendingPoints::compute_generic(&weighted);
    let k_star = solve_passive_dense(&weighted).weighted_error;
    assert!(
        !con.is_empty() && width > 1 && height > 1,
        "degenerate fixture"
    );
    for line in [
        "n = 110, d = 4".to_string(),
        format!("dominance width w = {width}"),
        format!("longest chain (height) = {height}"),
        format!(
            "contending points = {} ({} label-0, {} label-1)",
            con.len(),
            con.zeros.len(),
            con.ones.len()
        ),
        format!("optimal monotone error k* = {k_star}"),
    ] {
        assert!(
            stdout.lines().any(|l| l == line),
            "missing {line:?} in\n{stdout}"
        );
    }
}

#[test]
fn passive_writes_classifier_and_eval_reads_it() {
    let data = write_temp("roundtrip.csv", DEMO);
    let model = write_temp("model.csv", "");
    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .args(["--out"])
        .arg(&model)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("optimal weighted error = 0"));

    let out = mcc().arg("eval").arg(&data).arg(&model).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("errors = 0"), "{stdout}");
    assert!(stdout.contains("accuracy = 1.0000"));
}

#[test]
fn active_reports_probes() {
    let data = write_temp("active.csv", DEMO);
    let out = mcc()
        .args(["active"])
        .arg(&data)
        .args(["--epsilon", "0.5", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("probed 6 / 6 labels"));
}

#[test]
fn weighted_passive() {
    let weighted = "x,label,weight\n1,1,10\n2,0,2\n";
    let data = write_temp("weighted.csv", weighted);
    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .arg("--weighted")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("optimal weighted error = 2"));
}

#[test]
fn bad_input_fails_with_usage() {
    let out = mcc().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn missing_file_reports_error() {
    let out = mcc()
        .args(["stats", "/nonexistent/definitely-missing.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn generate_then_full_pipeline() {
    let dir = std::env::temp_dir().join(format!("mcc-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("gen.csv");
    let out = mcc()
        .args(["generate", "width-3"])
        .arg(&data)
        .args(["--n", "200", "--noise", "0.05", "--seed", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = mcc().arg("stats").arg(&data).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("dominance width w = 3"));

    let out = mcc()
        .args(["crossval"])
        .arg(&data)
        .args(["--folds", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3-fold cross-validation"));
}

#[test]
fn generate_rejects_unknown_family() {
    let out = mcc()
        .args(["generate", "nonsense", "/tmp/never.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown family"));
}

#[test]
fn generate_rejects_bad_parameters_cleanly() {
    let out_path = std::env::temp_dir().join(format!("mcc-never-{}.csv", std::process::id()));
    let cases: [&[&str]; 4] = [
        &["width-0", "--n", "5"],
        &["width-6", "--n", "5"],
        &["planted", "--noise", "2"],
        &["entity-matching", "--noise", "-0.5"],
    ];
    for case in cases {
        let out = mcc()
            .arg("generate")
            .arg(case[0])
            .arg(&out_path)
            .args(&case[1..])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(5), "{case:?}: {stderr}");
        assert!(stderr.contains("error:"), "{case:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
        assert!(!out_path.exists(), "{case:?} wrote {}", out_path.display());
    }
}

#[test]
fn certify_audits_optimality() {
    let data = write_temp(
        "certify.csv",
        "x,label\n1,1\n2,0\n3,1\n4,0\n", // two inversions at unit weight
    );
    let out = mcc().arg("certify").arg(&data).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VERIFIED"), "{stdout}");
}

#[test]
fn crossval_rejects_one_fold_cleanly() {
    let data = write_temp("folds.csv", DEMO);
    let out = mcc()
        .args(["crossval"])
        .arg(&data)
        .args(["--folds", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--folds must be at least 2"), "{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "panic leaked to the user: {stderr}"
    );
}

#[test]
fn exit_codes_distinguish_failure_classes() {
    // usage → 2
    let out = mcc().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // I/O → 3
    let out = mcc()
        .args(["stats", "/nonexistent/definitely-missing.csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    // data → 4
    let bad = write_temp("nonfinite.csv", "x,y,label\nNaN,0.5,0\n");
    let out = mcc().arg("stats").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("must be finite"));
    // parameter → 5
    let data = write_temp("codes.csv", DEMO);
    let out = mcc()
        .args(["active"])
        .arg(&data)
        .args(["--epsilon", "7"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    // A load duration too long for the clock is a parameter error, not
    // a panic, and is caught before any server starts.
    for bad in ["1e300", "1e19", "0"] {
        let out = mcc()
            .args(["bench-serve", "--duration", bad])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(5), "--duration {bad}: {stderr}");
        assert!(stderr.contains("--duration"), "{stderr}");
    }
}

#[test]
fn active_trace_writes_schema_valid_jsonl() {
    let dir = std::env::temp_dir().join(format!("mcc-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("trace.csv");
    let metrics = dir.join("metrics.jsonl");
    let out = mcc()
        .args(["generate", "width-3"])
        .arg(&data)
        .args(["--n", "400", "--seed", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = mcc()
        .args(["active"])
        .arg(&data)
        .args([
            "--epsilon",
            "0.5",
            "--seed",
            "3",
            "--trace",
            "--metrics-out",
        ])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The phase tree goes to stderr and covers the pipeline stages.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("phase timings:"), "{stderr}");
    for phase in ["chain_decomposition", "sampling", "passive"] {
        assert!(stderr.contains(phase), "missing {phase} in:\n{stderr}");
    }

    // Every metrics line is a flat JSON object with a "type" tag; the
    // stream leads with the schema-tagged meta line.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 5, "suspiciously short stream:\n{text}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"type\":\""),
            "malformed JSONL line: {line}"
        );
    }
    assert!(lines[0].contains("\"type\":\"meta\""), "{}", lines[0]);
    assert!(lines[0].contains("\"schema\":\"mc-obs/1\""), "{}", lines[0]);
    assert!(lines[0].contains("\"seed\":3"), "{}", lines[0]);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"path\":\"active/passive\"")),
        "no nested passive span:\n{text}"
    );

    // The exported oracle.attempts counter reconciles exactly with the
    // solve_report line (both come from the same SolveReport).
    let field = |line: &str, key: &str| -> u64 {
        let tail = &line[line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
        tail.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let counter = lines
        .iter()
        .find(|l| l.contains("\"name\":\"oracle.attempts\""))
        .expect("oracle.attempts counter line");
    let report = lines
        .iter()
        .find(|l| l.contains("\"type\":\"solve_report\""))
        .expect("solve_report line");
    assert_eq!(field(counter, "value"), field(report, "attempts"));
}

#[test]
fn active_with_transient_faults_matches_clean_run() {
    let data = write_temp("faulty.csv", DEMO);
    let clean = mcc()
        .args(["active"])
        .arg(&data)
        .args(["--seed", "3"])
        .output()
        .unwrap();
    assert!(clean.status.success());
    let faulty = mcc()
        .args(["active"])
        .arg(&data)
        .args([
            "--seed",
            "3",
            "--flaky-rate",
            "0.3",
            "--retry-attempts",
            "20",
        ])
        .output()
        .unwrap();
    assert!(
        faulty.status.success(),
        "{}",
        String::from_utf8_lossy(&faulty.stderr)
    );
    let clean_out = String::from_utf8_lossy(&clean.stdout);
    let faulty_out = String::from_utf8_lossy(&faulty.stdout);
    assert!(faulty_out.contains("oracle report:"), "{faulty_out}");
    // Retries absorb the transients: same probes, same classifier error.
    let probed = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("probed"))
            .map(str::to_string)
    };
    assert_eq!(probed(&clean_out), probed(&faulty_out));
    assert!(!faulty_out.contains("DEGRADED"), "{faulty_out}");
}

#[test]
fn active_reports_degradation_under_abstentions() {
    let data = write_temp("abstain.csv", DEMO);
    let out = mcc()
        .args(["active"])
        .arg(&data)
        .args(["--abstain-rate", "0.4", "--fault-seed", "7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("oracle report:"), "{stdout}");
    assert!(stdout.contains("DEGRADED"), "{stdout}");
}

/// Writes `generate entity-matching --n 2000 --noise 0.3 --seed 7` to a
/// temp file of the given name.
fn entity_matching_2k(name: &str) -> PathBuf {
    let path = write_temp(name, "");
    let gen = mcc()
        .args(["generate", "entity-matching"])
        .arg(&path)
        .args(["--n", "2000", "--noise", "0.3", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    path
}

fn active_stdout(data: &PathBuf, extra: &[&str]) -> String {
    let out = mcc()
        .args(["active"])
        .arg(data)
        .args(extra)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The injected faults draw their random values in a fixed order: an
/// unanswerable point draws no flaky fault. These lines change if that
/// order does.
#[test]
fn active_fault_injection_output_is_pinned() {
    let data = entity_matching_2k("pinned-faults.csv");
    let combined = active_stdout(
        &data,
        &[
            "--flaky-rate",
            "0.3",
            "--abstain-rate",
            "0.1",
            "--fault-seed",
            "7",
        ],
    );
    for line in [
        "probed 1780 / 2000 labels (89.0%)",
        "oracle report: 2000 attempts, 786 retries, 220 dropped\n",
        "classifier error on probed-truth data = 271\n",
    ] {
        assert!(combined.contains(line), "{line:?} missing from {combined}");
    }
    let flaky = active_stdout(
        &data,
        &[
            "--flaky-rate",
            "0.3",
            "--retry-attempts",
            "20",
            "--fault-seed",
            "7",
        ],
    );
    for line in [
        "probed 2000 / 2000",
        "oracle report: 2000 attempts, 910 retries, 0 dropped\n",
        "classifier error on probed-truth data = 263\n",
    ] {
        assert!(flaky.contains(line), "{line:?} missing from {flaky}");
    }
    let clean = active_stdout(&data, &[]);
    assert!(clean.contains("probed 2000 / 2000"), "{clean}");
    assert!(
        clean.contains("classifier error on probed-truth data = 263\n"),
        "{clean}"
    );
}

/// Abstentions are answers from a live oracle, so a long run of them
/// must not open the circuit breaker: every answerable point is asked.
#[test]
fn active_abstentions_leave_the_breaker_closed() {
    let data = entity_matching_2k("abstain-breaker.csv");
    let out = active_stdout(&data, &["--abstain-rate", "0.7", "--fault-seed", "7"]);
    assert!(out.contains("probed 632 / 2000"), "{out}");
    assert!(
        out.contains("oracle report: 2000 attempts, 0 retries, 1368 dropped\n"),
        "{out}"
    );
    assert!(!out.contains("circuit breaker tripped"), "{out}");
}

#[test]
fn active_rejects_bad_fault_rates_cleanly() {
    let data = write_temp("rates.csv", DEMO);
    for (flag, value) in [("--flaky-rate", "1.5"), ("--abstain-rate", "-0.2")] {
        let out = mcc()
            .args(["active"])
            .arg(&data)
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(5), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("must lie in [0, 1]"), "{stderr}");
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    }
}

#[test]
fn active_rejects_bad_epsilon_cleanly() {
    let data = write_temp("eps.csv", DEMO);
    for eps in ["0", "1.5", "-0.1"] {
        let out = mcc()
            .args(["active"])
            .arg(&data)
            .args(["--epsilon", eps])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--epsilon {eps} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--epsilon must lie in (0, 1]"), "{stderr}");
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    }
}

#[test]
fn passive_time_limit_holds_on_every_path() {
    let csv = write_temp("time-limit.csv", "");
    let mcc_file = write_temp("time-limit.mcc", "");
    for (family, path, extra) in [
        ("planted", &csv, ["--noise", "0.1"]),
        ("scale", &mcc_file, ["--dim", "3"]),
    ] {
        let gen = mcc()
            .args(["generate", family])
            .arg(path)
            .args(["--n", "6000", "--seed", "3"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            gen.status.success(),
            "{}",
            String::from_utf8_lossy(&gen.stderr)
        );
    }
    let run = |path: &PathBuf, extra: &[&str]| {
        let out = mcc().arg("passive").arg(path).args(extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
        (out.status.code(), stderr)
    };
    // A bad limit is a parameter error on the plain and columnar paths
    // alike, including limits too large for a duration (1e300) or for a
    // deadline on the clock (1e19).
    for bad in ["-1", "nan", "0", "inf", "soon", "1e300", "1e19"] {
        for path in [&csv, &mcc_file] {
            let (code, stderr) = run(path, &["--time-limit", bad]);
            assert_eq!(code, Some(5), "--time-limit {bad} {path:?}: {stderr}");
            assert!(stderr.contains("--time-limit"), "{stderr}");
        }
    }
    // An expired deadline cancels the plain solve, as it does the
    // columnar one.
    for path in [&csv, &mcc_file] {
        let (code, stderr) = run(path, &["--time-limit", "0.000001"]);
        assert_eq!(code, Some(7), "{path:?}: {stderr}");
        assert!(stderr.contains("deadline"), "{stderr}");
    }
    let (code, stderr) = run(&csv, &["--time-limit", "60"]);
    assert_eq!(code, Some(0), "{stderr}");
}

/// Extracts a bare numeric `"key":value` field from a JSONL line.
fn json_f64(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let i = line.find(&tag)? + tag.len();
    let rest = &line[i..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn metrics_out_flushes_on_timeout_exit() {
    let data = write_temp("timeout-flush.csv", DEMO);
    let metrics = write_temp("timeout-flush.jsonl", "");
    let ts = write_temp("timeout-flush-ts.jsonl", "");
    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .args(["--time-limit", "0.000001"])
        .args(["--trace", "--metrics-out"])
        .arg(&metrics)
        .arg("--telemetry")
        .arg(&ts)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7));
    // The phase tree still prints on the error path.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("phase timings:"), "{stderr}");
    // The JSONL stream exists and stamps the failure into the meta line.
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let meta = jsonl.lines().next().expect("meta line");
    assert!(meta.contains(r#""type":"meta""#), "{meta}");
    assert!(meta.contains(r#""error_class":"timeout""#), "{meta}");
    assert!(meta.contains(r#""exit_code":7"#), "{meta}");
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed JSONL line on error path: {line}"
        );
    }
    // The telemetry stream ends the run with a flight-recorder dump.
    let stream = std::fs::read_to_string(&ts).unwrap();
    let dump = stream
        .lines()
        .find(|l| l.contains(r#""type":"dump""#))
        .expect("dump line present");
    assert!(dump.contains(r#""reason":"timeout""#), "{dump}");
}

#[test]
fn telemetry_streams_live_samples_with_monotone_progress() {
    let dir = std::env::temp_dir().join(format!("mcc-ts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("ts.csv");
    let ts = dir.join("ts.jsonl");
    let out = mcc()
        .args(["generate", "planted"])
        .arg(&data)
        .args(["--n", "3000", "--seed", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .args(["--telemetry"])
        .arg(&ts)
        .args(["--sample-ms", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&ts).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Leading schema-tagged meta line carrying the run's identity.
    assert!(
        lines[0].contains(r#""schema":"mc-obs/ts1""#),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains(r#""tool":"mcc passive""#), "{}", lines[0]);
    assert!(lines[0].contains(r#""n":3000"#), "{}", lines[0]);
    // At least two live samples, each well-formed with the core fields.
    let samples: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains(r#""type":"sample""#))
        .collect();
    assert!(samples.len() >= 2, "{text}");
    for s in &samples {
        for key in ["seq", "t_ms", "rss_bytes"] {
            assert!(json_f64(s, key).is_some(), "missing {key}: {s}");
        }
        assert!(s.contains(r#""counters":{"#), "{s}");
        assert!(s.contains(r#""threads":["#), "{s}");
    }
    // seq increments and every progress.*.frac gauge is monotone.
    let mut last_seq = -1.0;
    let mut last_frac: Vec<(String, f64)> = Vec::new();
    for s in &samples {
        let seq = json_f64(s, "seq").unwrap();
        assert!(seq > last_seq, "seq regressed: {s}");
        last_seq = seq;
        let mut rest = **s;
        while let Some(i) = rest.find("\"progress.") {
            rest = &rest[i + 1..];
            let end = rest.find('"').unwrap();
            let key = rest[..end].to_string();
            rest = &rest[end + 1..];
            if !key.ends_with(".frac") {
                continue;
            }
            let tail = rest.strip_prefix(':').unwrap();
            let vend = tail.find([',', '}']).unwrap_or(tail.len());
            let frac: f64 = tail[..vend].parse().unwrap();
            assert!((0.0..=1.0).contains(&frac), "frac out of range: {s}");
            match last_frac.iter_mut().find(|(k, _)| *k == key) {
                Some((_, prev)) => {
                    assert!(frac >= *prev, "{key} regressed {prev} -> {frac}: {s}");
                    *prev = frac;
                }
                None => last_frac.push((key, frac)),
            }
        }
    }
}

#[test]
fn watch_abort_requires_telemetry_and_arms_the_plain_csv_solve() {
    let data = write_temp("watch-misuse.csv", DEMO);
    // --watch-abort without --telemetry is a usage error.
    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .arg("--watch-abort")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--watch-abort requires --telemetry"));
    // ...and with it the plain CSV solve hands the watchdog its token.
    let ts = write_temp("watch-plain-ts.jsonl", "");
    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .args(["--telemetry"])
        .arg(&ts)
        .arg("--watch-abort")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = std::fs::read_to_string(&ts).unwrap();
    let meta = stream
        .lines()
        .next()
        .expect("telemetry stream has a meta line");
    assert!(meta.contains(r#""type":"meta""#), "{meta}");
    assert!(meta.contains(r#""watch_abort":true"#), "{meta}");
}

#[test]
fn passive_rejects_the_retired_race_flags() {
    let data = write_temp("race-flags.csv", DEMO);
    for args in [
        &["--portfolio"][..],
        &["--engines", "dinic"][..],
        &["--no-fallback"][..],
    ] {
        let out = mcc()
            .args(["passive"])
            .arg(&data)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{stderr}");
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    }
}

#[test]
fn passive_columnar_refuses_out_and_weighted() {
    let data = write_temp("refusals.mcc", "");
    let gen = mcc()
        .args(["generate", "scale"])
        .arg(&data)
        .args(["--n", "2000", "--dim", "3", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let model = write_temp("refusals-model.csv", "");
    std::fs::remove_file(&model).unwrap();
    for (args, flag) in [
        (vec!["--out".as_ref(), model.as_os_str()], "--out"),
        (vec!["--weighted".as_ref()], "--weighted"),
    ] {
        let out = mcc()
            .args(["passive"])
            .arg(&data)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}: no solve may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    }
    assert!(!model.exists(), "a refused --out must write nothing");
}

#[test]
fn passive_columnar_answer_is_identical_across_thread_counts() {
    let data = write_temp("threads.mcc", "");
    let gen = mcc()
        .args(["generate", "scale"])
        .arg(&data)
        .args(["--n", "30000", "--dim", "4", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    // Above 2,048 rows the chunked kernels (the ladder's zero sweep, the
    // Hopcroft–Karp BFS layers) split their work whenever more than one
    // worker is allowed, so the two runs differ in how the work is split.
    let run = |threads: &str| {
        let metrics = write_temp(&format!("threads-{threads}.jsonl"), "");
        let out = mcc()
            .args(["passive"])
            .arg(&data)
            .arg("--metrics-out")
            .arg(&metrics)
            .env("MC_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Everything but the timing/RSS line must repeat exactly.
        let stdout = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("load "))
            .map(str::to_owned)
            .collect::<Vec<_>>();
        (stdout, std::fs::read_to_string(&metrics).unwrap())
    };
    let (one, _) = run("1");
    assert!(one.iter().any(|l| l.contains("dominance width")), "{one:?}");
    let (four, metrics) = run("4");
    assert_eq!(one, four);
    // `MC_THREADS` is capped at the host's cores, so only a host with two
    // or more cores really splits the second run.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        let dispatches = metrics
            .lines()
            .find(|l| l.contains(r#""name":"parallel.dispatches""#))
            .and_then(|l| l.split(r#""value":"#).nth(1))
            .and_then(|v| v.trim_end_matches('}').parse::<u64>().ok());
        assert!(
            dispatches.is_some_and(|d| d > 0),
            "no parallel dispatch at MC_THREADS=4:\n{metrics}"
        );
    }
}

/// The same unit-weight points as CSV and as MCC1 take the same gadget
/// and give the same answer: the sweep at d ≤ 2, the chain ladder at
/// d = 3.
#[test]
fn passive_csv_and_columnar_inputs_share_one_pipeline() {
    use monotone_classification::data::columnar::write_weighted_set;
    use monotone_classification::geom::{Label, WeightedSet};

    let mut state = 0xC5F1_u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for dim in 1..=3usize {
        // A small grid, so points tie and labels invert often.
        let mut ws = WeightedSet::empty(dim);
        let mut text = String::new();
        for k in 0..dim {
            text.push_str(&format!("x{k},"));
        }
        text.push_str("label\n");
        for _ in 0..400 {
            let coords: Vec<f64> = (0..dim).map(|_| next(12) as f64).collect();
            let label = next(2);
            ws.push(&coords, Label::from_bool(label == 1), 1.0);
            for c in &coords {
                text.push_str(&format!("{c},"));
            }
            text.push_str(&format!("{label}\n"));
        }
        let csv = write_temp(&format!("parity-d{dim}.csv"), &text);
        let columnar = write_temp(&format!("parity-d{dim}.mcc"), "");
        write_weighted_set(&columnar, &ws).unwrap();
        let metrics = write_temp(&format!("parity-d{dim}.jsonl"), "");

        let solve = |path: &PathBuf, extra: &[&std::ffi::OsStr]| {
            let out = mcc().arg("passive").arg(path).args(extra).output().unwrap();
            assert!(
                out.status.success(),
                "d = {dim}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            let field = |prefix: &str| {
                let at = stdout.find(prefix).unwrap_or_else(|| panic!("{stdout}")) + prefix.len();
                stdout[at..]
                    .split(|c: char| c.is_whitespace())
                    .next()
                    .unwrap()
                    .to_owned()
            };
            (
                (field("contending = "), field("optimal weighted error = ")),
                stdout,
            )
        };
        let (from_csv, _) = solve(&csv, &[]);
        let (from_columnar, stdout) =
            solve(&columnar, &["--metrics-out".as_ref(), metrics.as_os_str()]);
        assert_eq!(from_csv, from_columnar, "d = {dim}");
        assert_ne!(from_csv.0, "0", "d = {dim}: nothing contends");
        // Only the d ≥ 3 ladder decomposes the label-1 points; below it
        // the MCC1 flips line says so instead of printing a width of 0.
        if dim <= 2 {
            assert!(
                stdout.contains("; no dominance decomposition ran"),
                "d = {dim}: {stdout}"
            );
            assert!(!stdout.contains("dominance width"), "d = {dim}: {stdout}");
        } else {
            assert!(
                stdout.contains("; dominance width = "),
                "d = {dim}: {stdout}"
            );
        }

        let spans: Vec<String> = std::fs::read_to_string(&metrics)
            .unwrap()
            .lines()
            .filter(|l| l.contains(r#""type":"span""#))
            .map(str::to_owned)
            .collect();
        let has = |path: &str| spans.iter().any(|l| l.contains(path));
        if dim <= 2 {
            assert!(has(r#""path":"passive/sweep""#), "d = {dim}: {spans:?}");
            assert!(!has("ladder"), "d = {dim}: {spans:?}");
        } else {
            assert!(has(r#""path":"passive/ladder""#), "d = {dim}: {spans:?}");
            assert!(!has(r#""path":"passive/sweep""#), "d = {dim}: {spans:?}");
        }
    }
}

#[test]
fn classify_labels_points_through_the_index() {
    // Train on DEMO (k* = 0, so the model reproduces the labels), then
    // batch-classify the same feature rows through `mcc classify`.
    let data = write_temp("classify_train.csv", DEMO);
    let model = write_temp("classify_model.csv", "");
    let out = mcc()
        .args(["passive"])
        .arg(&data)
        .args(["--out"])
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success());

    let points = write_temp(
        "classify_points.csv",
        "x,y\n0.1,0.2\n0.9,0.8\n0.7,0.9\n0.3,0.1\n0.8,0.2\n0.2,0.9\n",
    );
    let out = mcc()
        .arg("classify")
        .arg(&model)
        .arg(&points)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let labels: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(labels, vec!["0", "1", "1", "0", "0", "1"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("classified 6 points"));

    // --out writes the same labels to a file instead of stdout.
    let labels_out = write_temp("classify_labels.csv", "");
    let out = mcc()
        .arg("classify")
        .arg(&model)
        .arg(&points)
        .args(["--out"])
        .arg(&labels_out)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out.stdout.is_empty());
    assert_eq!(
        std::fs::read_to_string(&labels_out).unwrap(),
        "0\n1\n1\n0\n0\n1\n"
    );

    // Dimension mismatch is a data error (exit 4), not a crash.
    let bad = write_temp("classify_bad.csv", "0.1,0.2,0.3\n");
    let out = mcc()
        .arg("classify")
        .arg(&model)
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("dimension mismatch"));
}

#[test]
fn serve_subcommand_serves_reloads_and_drains() {
    use monotone_classification::serve::Client;
    use std::io::{BufRead, BufReader, Read as _};

    let model = write_temp("serve_model.csv", "0.5,0.5\n");
    let mut child = mcc()
        .arg("serve")
        .arg(&model)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // The first stdout line announces the bound (ephemeral) address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .rsplit(" on ")
        .next()
        .map(str::trim)
        .expect("address in banner");
    assert!(banner.contains("serving 2-d model (1 anchors)"), "{banner}");

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.ping().unwrap(), 1);
    let reply = client.classify(&[vec![0.6, 0.6], vec![0.6, 0.4]]).unwrap();
    assert_eq!(reply.labels, vec![1, 0]);

    // Rewrite the model file; a path-less reload hot-swaps it.
    std::fs::write(&model, "0.1,0.1\n").unwrap();
    assert_eq!(client.reload(None).unwrap(), 2);
    let reply = client.classify(&[vec![0.6, 0.6], vec![0.6, 0.4]]).unwrap();
    assert_eq!(reply.generation, 2);
    assert_eq!(reply.labels, vec![1, 1]);

    client.shutdown().expect("shutdown");
    let status = child.wait().unwrap();
    assert!(status.success());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained:"), "{rest}");
}

#[test]
fn bench_serve_self_hosts_and_writes_schema_stable_json() {
    use monotone_classification::serve::json_in;

    let json_out = write_temp("BENCH_serve_test.json", "");
    let out = mcc()
        .args([
            "bench-serve",
            "--duration",
            "0.3",
            "--connections",
            "1",
            "--pipeline",
            "8",
            "--batches",
            "1,64",
            "--dim",
            "3",
            "--anchors",
            "32",
        ])
        .args(["--json-out"])
        .arg(&json_out)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("single-point qps"), "{stdout}");

    let text = std::fs::read_to_string(&json_out).unwrap();
    let tree = json_in::parse(text.trim().as_bytes()).expect("valid JSON record");
    assert_eq!(tree.get("bench").and_then(|v| v.as_str()), Some("serve"));
    for section in ["meta", "config", "throughput", "latency_ms", "server"] {
        assert!(tree.get(section).is_some(), "missing {section}");
    }
    let meta = tree.get("meta").unwrap();
    assert!(meta.get("git_sha").is_some());
    assert!(meta.get("threads").is_some());
    let throughput = tree.get("throughput").unwrap();
    let qps = throughput
        .get("single_point_qps")
        .and_then(|v| v.as_f64())
        .expect("qps");
    assert!(qps > 0.0);
    assert_eq!(throughput.get("errors").and_then(|v| v.as_u64()), Some(0));
    let latency = tree.get("latency_ms").unwrap();
    for key in ["p50", "p90", "p99", "max"] {
        assert!(latency.get(key).and_then(|v| v.as_f64()).is_some(), "{key}");
    }
    // Self-hosted runs capture the server-side reconciliation block.
    let server = tree.get("server").unwrap();
    assert_eq!(
        server.get("points").and_then(|v| v.as_u64()),
        throughput.get("points").and_then(|v| v.as_u64())
    );
}

#[test]
fn active_decomposes_matrix_free_with_rows_cached_or_on_demand() {
    let data = write_temp("active-rows.csv", "");
    let gen = mcc()
        .args(["generate", "entity-matching"])
        .arg(&data)
        .args(["--n", "800", "--seed", "2"])
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let run = |metrics: &str, budget: Option<&str>| {
        let metrics = write_temp(metrics, "");
        let mut cmd = mcc();
        cmd.args(["active"])
            .arg(&data)
            .arg("--metrics-out")
            .arg(&metrics);
        if let Some(b) = budget {
            cmd.env("MC_MATRIX_BUDGET_BYTES", b);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let jsonl = std::fs::read_to_string(&metrics).unwrap();
        let rows_cached = jsonl
            .lines()
            .find(|l| l.contains(r#""name":"matching.rows_cached""#))
            .and_then(|l| json_f64(l, "value"))
            .expect("matching.rows_cached counter");
        (String::from_utf8(out.stdout).unwrap(), jsonl, rows_cached)
    };
    let (cached_out, jsonl, cached) = run("active-rows.jsonl", None);
    assert!(cached_out.contains("d = 3"), "{cached_out}");
    // The Lemma-6 rows come from the rank oracle as the phases ask for
    // them: no up-front row pass, and no dominance matrix is filled on
    // the way.
    assert!(
        jsonl.contains(r#""path":"active/chain_decomposition/path_cover""#),
        "{jsonl}"
    );
    assert!(!jsonl.contains("path_cover/rows"), "{jsonl}");
    assert!(!jsonl.contains("progress.index_build"), "{jsonl}");
    assert!(cached > 0.0);

    // A one-byte budget computes every row on demand: same answer.
    let (on_demand_out, _, on_demand) = run("active-rows-1.jsonl", Some("1"));
    assert_eq!(on_demand, 0.0);
    assert_eq!(cached_out, on_demand_out);
}
