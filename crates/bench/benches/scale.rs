//! The memory-wall record: streaming passive solves off columnar files
//! at n ∈ {10⁵, 10⁶, 10⁷} (wall time split into span-timed stages, peak
//! RSS, network size), the scalar-vs-blocked compare-kernel microbench,
//! and the n = 20 000
//! parity check of the streaming solve against the in-memory ladder and
//! the dense Section-5.1 network — all written to `BENCH_scale.json` at
//! the repo root.
//!
//! Override the solve sizes with `MC_BENCH_SCALE_NS` (comma-separated,
//! e.g. `MC_BENCH_SCALE_NS=100000,300000` for CI smoke runs).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mc_chains::ChainDecomposition;
use mc_core::passive::{solve_passive, solve_passive_dense, solve_passive_scale};
use mc_data::columnar::{write_scale_dataset, ColumnarDataset, ScaleConfig};
use mc_geom::{kernel, PointSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Medians a few timed runs of `f`.
fn time_runs<O>(reps: usize, mut f: impl FnMut() -> O) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mc_bench_scale_{}_{tag}.mcc", std::process::id()));
    p
}

/// Scalar vs u64×4-blocked rank-compare kernel on a realistic column
/// length. Measures one full `rank ≥ t` compare-and-pack sweep over a
/// dense row — both kernels share the empty-word short-circuit, so this
/// isolates the blocked kernel's fixed-trip vectorized compare+pack,
/// which is the part that differs. Also proves the two produce
/// identical rows, so the speedup is not bought with a semantics change.
fn kernel_section() -> String {
    let n: usize = 1 << 20;
    let dims = 1;
    let reps = 9;
    let mut state = 0x9E37_79B9u64;
    let col: Vec<u32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as u32 % (n as u32)
        })
        .collect();
    let words = n.div_ceil(64);
    // Median rank threshold: every 64-bit word survives, so neither
    // kernel can skip and the timing is pure compare+pack throughput.
    let threshold = (n / 2) as u32;

    let mut scalar_row = vec![0u64; words];
    let scalar_pass = |row: &mut Vec<u64>| {
        kernel::ones_mask_into(n, row);
        kernel::and_ge_mask_scalar(&col, threshold, row);
    };
    let blocked_pass = |row: &mut Vec<u64>| {
        kernel::ones_mask_into(n, row);
        kernel::and_ge_mask(&col, threshold, row);
    };
    let scalar = time_runs(reps, || scalar_pass(&mut scalar_row));
    let mut blocked_row = vec![0u64; words];
    let blocked = time_runs(reps, || blocked_pass(&mut blocked_row));
    scalar_pass(&mut scalar_row);
    blocked_pass(&mut blocked_row);
    let identical = scalar_row == blocked_row;
    let speedup = scalar.as_secs_f64() / blocked.as_secs_f64();
    println!(
        "scale/kernel: {n} ranks | scalar {scalar:?} -> blocked {blocked:?} \
         ({speedup:.2}x), identical: {identical}"
    );
    format!(
        r#"{{
    "ranks": {n},
    "dims": {dims},
    "reps": {reps},
    "scalar_ms": {:.3},
    "blocked_ms": {:.3},
    "speedup": {speedup:.2},
    "identical": {identical}
  }}"#,
        scalar.as_secs_f64() * 1e3,
        blocked.as_secs_f64() * 1e3,
    )
}

/// n = 20 000 parity: the streaming solve must agree with the in-memory
/// ladder pipeline exactly (same algorithm, different plumbing) and
/// with the paper-literal dense network to flow tolerance; its width must
/// be certified minimum by a decomposition of the label-1 points that
/// passes `validate()` (chains plus an antichain of the same size).
fn parity_section() -> String {
    let n = 20_000;
    let config = ScaleConfig::new(n, 4, 0x5CA1E);
    let path = temp_path("parity");
    write_scale_dataset(&path, &config).expect("write parity dataset");
    let mut ds = ColumnarDataset::open(&path).expect("open parity dataset");
    let table = ds.rank_table().expect("rank table");
    let labels = ds.read_labels().expect("labels");
    let weights = ds.read_weights().expect("weights");
    let ws = ds.to_weighted_set().expect("weighted set");
    std::fs::remove_file(&path).ok();

    let scale = solve_passive_scale(&table, &labels, &weights);
    let ladder = solve_passive(&ws);
    let dense = solve_passive_dense(&ws);

    // The certified width: a decomposition of the label-1 points whose
    // antichain proves it minimum.
    let one_rows: Vec<Vec<f64>> = (0..ws.len())
        .filter(|&i| ws.label(i).is_one())
        .map(|i| ws.points().point(i).to_vec())
        .collect();
    let ones_points = PointSet::from_rows(ws.dim(), &one_rows);
    let dec = ChainDecomposition::compute(&ones_points);
    let width_certified = dec.validate(&ones_points).is_ok() && dec.width() == scale.width;

    let ladder_identical = scale.weighted_error == ladder.weighted_error;
    let dense_delta = (scale.weighted_error - dense.weighted_error).abs();
    println!(
        "scale/parity: n = {n} | error {} (ladder identical: {ladder_identical}, \
         dense delta {dense_delta:.2e}) | width {} (certified: {width_certified})",
        scale.weighted_error, scale.width
    );
    assert!(ladder_identical, "streaming vs in-memory ladder disagree");
    assert!(dense_delta < 1e-9, "streaming vs dense network disagree");
    assert!(width_certified, "width is not certified minimum");
    format!(
        r#"{{
    "n": {n},
    "weighted_error": {},
    "error_identical_to_ladder": {ladder_identical},
    "error_delta_vs_dense": {dense_delta:.3e},
    "width": {},
    "width_certified": {width_certified}
  }}"#,
        scale.weighted_error, scale.width
    )
}

/// Live-telemetry overhead: the same streamed solve with collection off
/// vs with the 100 ms sampler running (progress gauges, live RSS,
/// active-span sampling). Guards the "< 2% at the default cadence"
/// promise in docs/OBSERVABILITY.md; `MC_BENCH_TELEMETRY_N` overrides
/// the instance size (CI smoke runs it small).
fn telemetry_section() -> String {
    let n: usize = std::env::var("MC_BENCH_TELEMETRY_N")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1_000_000);
    // An n = 10⁶ solve takes well under a second, so drift in the
    // host's load between a block of plain runs and a block of sampled
    // runs can exceed the 2% budget. The runs therefore alternate, one
    // plain and one sampled per rep, and the overhead is the median of
    // the per-rep ratios: each sampled run against the plain run next to
    // it, so drift between reps cancels.
    let reps = 9;
    let config = ScaleConfig::new(n, 4, 0x5CA1E);
    let path = temp_path("telemetry");
    write_scale_dataset(&path, &config).expect("write telemetry dataset");
    let mut ds = ColumnarDataset::open(&path).expect("open telemetry dataset");
    let table = ds.rank_table().expect("rank table");
    let labels = ds.read_labels().expect("labels");
    let weights = ds.read_weights().expect("weights");
    drop(ds);
    std::fs::remove_file(&path).ok();

    let ts_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("mc_bench_scale_{}_ts.jsonl", std::process::id()));
        p
    };
    let prev_level = mc_obs::level();
    let mut plain_runs = Vec::with_capacity(reps);
    let mut sampled_runs = Vec::with_capacity(reps);
    let mut samples = 0;
    for _ in 0..reps {
        plain_runs.push(time_runs(1, || {
            solve_passive_scale(&table, &labels, &weights)
        }));
        mc_obs::set_level(mc_obs::Level::Info);
        let mut sampler = mc_obs::telemetry::SamplerConfig::new(&ts_path);
        sampler.interval = Duration::from_millis(100);
        assert!(
            mc_obs::telemetry::start(sampler).expect("start sampler"),
            "a sampler was already running"
        );
        sampled_runs.push(time_runs(1, || {
            solve_passive_scale(&table, &labels, &weights)
        }));
        mc_obs::telemetry::stop();
        mc_obs::set_level(prev_level);
        // The sampler truncates its file on start, so count per run.
        samples += std::fs::read_to_string(&ts_path)
            .map(|t| {
                t.lines()
                    .filter(|l| l.contains(r#""type":"sample""#))
                    .count()
            })
            .unwrap_or(0);
    }
    std::fs::remove_file(&ts_path).ok();
    let mut ratios: Vec<f64> = plain_runs
        .iter()
        .zip(&sampled_runs)
        .map(|(plain, sampled)| sampled.as_secs_f64() / plain.as_secs_f64() - 1.0)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let overhead = ratios[reps / 2];
    plain_runs.sort_unstable();
    sampled_runs.sort_unstable();
    let plain = plain_runs[reps / 2];
    let sampled = sampled_runs[reps / 2];

    println!(
        "scale/telemetry: n = {n} | plain {plain:?} -> sampled {sampled:?} \
         (median paired overhead {:+.2}%, {samples} samples at 100 ms)",
        overhead * 1e2
    );
    format!(
        r#"{{
    "n": {n},
    "reps": {reps},
    "interval_ms": 100,
    "plain_solve_ms": {:.1},
    "sampled_solve_ms": {:.1},
    "overhead_frac": {overhead:.4},
    "samples": {samples}
  }}"#,
        plain.as_secs_f64() * 1e3,
        sampled.as_secs_f64() * 1e3,
    )
}

/// The solve's stages as the `mc-obs` span tree times them, in ms:
/// the Lemma-6 matching, the ladder's zero sweep and wiring, max flow,
/// and `other` for the rest of `solve_ms` (rank gathering, readout).
/// `tools/validate_bench.py` checks that they sum to `solve_ms`.
fn stages_json(snap: &mc_obs::Snapshot, solve_ms: f64) -> String {
    let ms = |path: &str| snap.span(path).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let stages = [
        ("path_cover", ms("passive/ladder/path_cover")),
        ("ladder_sweep", ms("passive/ladder/ladder_sweep")),
        ("ladder_wire", ms("passive/ladder/ladder_wire")),
        ("maxflow", ms("passive/maxflow")),
    ];
    let other = solve_ms - stages.iter().map(|&(_, v)| v).sum::<f64>();
    let fields: Vec<String> = stages
        .iter()
        .chain(&[("other", other)])
        .map(|(name, v)| format!("\"{name}\": {v:.1}"))
        .collect();
    format!("{{ {} }}", fields.join(", "))
}

/// The load's stages as the `mc-obs` span tree times them, in ms: the
/// MCC1 reads, the rank compression, and `other` for the rest of
/// `load_ms` (opening the file). `tools/validate_bench.py` checks that
/// they sum to `load_ms`.
fn load_stages_json(snap: &mc_obs::Snapshot, load_ms: f64) -> String {
    let ms = |path: &str| snap.span(path).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let (read, rank) = (ms("columnar_load/read"), ms("columnar_load/rank"));
    format!(
        "{{ \"read\": {read:.1}, \"rank\": {rank:.1}, \"other\": {:.1} }}",
        load_ms - read - rank
    )
}

/// One streamed solve at `n`: generate → load (rank table + labels +
/// weights) → solve, timing each leg, splitting the load and the solve
/// into stages off the span tree, reading the Lemma-6 matching's
/// greedy-seed and round counters, and recording the process peak RSS
/// after the solve (sizes run ascending, so each entry's RSS is set by
/// its own run, not a later one).
fn size_entry(n: usize) -> String {
    let config = ScaleConfig::new(n, 4, 0x5CA1E);
    let path = temp_path(&format!("n{n}"));
    let gen_start = Instant::now();
    write_scale_dataset(&path, &config).expect("write scale dataset");
    let generate = gen_start.elapsed();

    let prev_level = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();
    let load_start = Instant::now();
    let mut ds = ColumnarDataset::open(&path).expect("open scale dataset");
    let table = ds.rank_table().expect("rank table");
    let labels = ds.read_labels().expect("labels");
    let weights = ds.read_weights().expect("weights");
    drop(ds);
    let load = load_start.elapsed();
    let load_stages = load_stages_json(&mc_obs::snapshot(), load.as_secs_f64() * 1e3);
    std::fs::remove_file(&path).ok();

    let ones = labels.iter().filter(|l| l.is_one()).count();
    mc_obs::reset();
    let solve_start = Instant::now();
    let sol = solve_passive_scale(&table, &labels, &weights);
    let solve = solve_start.elapsed();
    let snap = mc_obs::snapshot();
    let stages = stages_json(&snap, solve.as_secs_f64() * 1e3);
    let hk_rounds = snap.counter("matching.hk_rounds");
    let greedy_matched = snap.counter("matching.greedy_matched");
    mc_obs::set_level(prev_level);
    println!(
        "scale/solve: n = {n} | ones {ones} | gen {generate:?}, load {load:?} {load_stages}, \
         solve {solve:?} {stages} | err {}, contending {}, width {}, edges {}, rss {} MiB",
        sol.weighted_error,
        sol.contending_zeros + sol.contending_ones,
        sol.width,
        sol.network_edges,
        sol.report.peak_rss_bytes / (1 << 20)
    );
    format!(
        r#"{{
      "n": {n},
      "ones": {ones},
      "contending": {},
      "width": {},
      "network_edges": {},
      "hk_rounds": {hk_rounds},
      "greedy_matched": {greedy_matched},
      "weighted_error": {},
      "generate_ms": {:.1},
      "load_ms": {:.1},
      "load_stages_ms": {load_stages},
      "solve_ms": {:.1},
      "stages_ms": {stages},
      "peak_rss_bytes": {}
    }}"#,
        sol.contending_zeros + sol.contending_ones,
        sol.width,
        sol.network_edges,
        sol.weighted_error,
        generate.as_secs_f64() * 1e3,
        load.as_secs_f64() * 1e3,
        solve.as_secs_f64() * 1e3,
        sol.report.peak_rss_bytes,
    )
}

/// The whole record, written as one JSON document. Section order is
/// load-bearing for the RSS column: kernel (tiny) → solves ascending →
/// parity (whose dense network holds an edge per dominating pair, after
/// every RSS is taken).
fn record_scale(_c: &mut Criterion) {
    let sizes: Vec<usize> = std::env::var("MC_BENCH_SCALE_NS")
        .unwrap_or_else(|_| "100000,1000000,10000000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(!sizes.is_empty(), "MC_BENCH_SCALE_NS parsed to no sizes");

    let kernel_json = kernel_section();
    let size_entries: Vec<String> = sizes.iter().map(|&n| size_entry(n)).collect();
    let parity_json = parity_section();
    let telemetry_json = telemetry_section();

    let mut json = String::from("{\n  \"bench\": \"scale\",\n");
    let _ = writeln!(json, "  \"meta\": {},", mc_bench::bench_meta_json());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"dim\": 4, \"seed\": {}, \"threshold\": 0.82, \"band\": 0.02, \
         \"profile\": \"bench\" }},",
        0x5CA1E
    );
    let _ = writeln!(json, "  \"kernel\": {kernel_json},");
    let _ = writeln!(json, "  \"parity\": {parity_json},");
    let _ = writeln!(json, "  \"telemetry\": {telemetry_json},");
    let _ = writeln!(
        json,
        "  \"sizes\": [\n    {}\n  ]\n}}",
        size_entries.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
    println!("scale: wrote {path}");
}

criterion_group!(benches, record_scale);
criterion_main!(benches);
