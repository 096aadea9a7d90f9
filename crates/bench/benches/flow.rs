//! Criterion benchmarks for the Theorem-4 passive flow pipeline: the
//! paper-literal dense `O(n²)`-edge reference (`solve_passive_dense`) vs
//! the chain-ladder sparsification (`O(w·n)` edges) that `PassiveSolver`
//! builds at `d ≥ 3`, end to end, recorded to `BENCH_flow.json` at the
//! repo root under the keys `dense` and `ladder` (n = 2 000 and 20 000,
//! d = 4; override the size list with `MC_BENCH_FLOW_N` for smoke runs).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_core::passive::{solve_passive_dense, PassiveSolution, PassiveSolver};
use mc_geom::{Label, WeightedSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A d = 4 dataset with *controlled* chain width: `width` ascending
/// chains, pairwise incomparable across chains (the first two dimensions
/// use the 2D block construction: later chains are larger in dim 0 and
/// smaller in dim 1). Labels follow a per-chain threshold with a `noise`
/// fraction flipped, so dominating cross-label pairs — hence dense
/// type-3 edges — number Θ(n²/w) while the ladder needs only `O(w·n)`.
fn banded_weighted(n: usize, width: usize, noise: f64, seed: u64) -> WeightedSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = n / width + 1; // coordinate stride separating the chain blocks
    let mut rows: Vec<(Vec<f64>, Label, f64)> = Vec::with_capacity(n);
    for c in 0..width {
        let len = n / width + usize::from(c < n % width);
        let boundary = rng.gen_range(len / 5..len - len / 5 + 1);
        for t in 0..len {
            let coords = vec![
                (c * per + t) as f64,
                ((width - 1 - c) * per + t) as f64,
                t as f64 + rng.gen_range(0.0..0.5),
                t as f64 + rng.gen_range(0.0..0.5),
            ];
            let mut label = Label::from_bool(t >= boundary);
            if rng.gen_bool(noise) {
                label = label.flipped();
            }
            rows.push((coords, label, rng.gen_range(1..10) as f64));
        }
    }
    rows.shuffle(&mut rng);
    let mut ws = WeightedSet::empty(4);
    for (coords, label, weight) in rows {
        ws.push(&coords, label, weight);
    }
    ws
}

/// Criterion-scale face-off on the banded workload.
fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow/strategy");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let ws = banded_weighted(n, 16, 0.25, 0xF1);
        group.bench_with_input(BenchmarkId::new("dense", n), &ws, |b, ws| {
            b.iter(|| solve_passive_dense(ws).weighted_error)
        });
        group.bench_with_input(BenchmarkId::new("ladder", n), &ws, |b, ws| {
            b.iter(|| PassiveSolver::new().solve(ws).weighted_error)
        });
    }
    group.finish();
}

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

struct SizeResult {
    n: usize,
    dense: Duration,
    ladder: Duration,
    dense_edges: u64,
    ladder_edges: u64,
    width: u64,
    contending: u64,
    error_identical: bool,
    weighted_error: f64,
}

/// Solves once at `Level::Info` and reads the network counters back.
fn instrumented_solve(
    ws: &WeightedSet,
    solve: fn(&WeightedSet) -> PassiveSolution,
) -> (f64, mc_obs::Snapshot) {
    mc_obs::reset();
    mc_obs::set_level(mc_obs::Level::Info);
    let err = solve(ws).weighted_error;
    let snap = mc_obs::snapshot();
    mc_obs::set_level(mc_obs::Level::Warn);
    mc_obs::reset();
    (err, snap)
}

fn measure(n: usize, width: usize, noise: f64, reps: usize) -> SizeResult {
    let ws = banded_weighted(n, width, noise, 0xF10 + n as u64);
    println!("flow/comparison: dense vs chain ladder at n = {n}, d = 4 ({reps} reps each)");

    let dense = time_runs(reps, || solve_passive_dense(&ws).weighted_error);
    let ladder = time_runs(reps, || PassiveSolver::new().solve(&ws).weighted_error);

    // Equivalence + counters off one instrumented solve per network.
    let (dense_err, dense_snap) = instrumented_solve(&ws, solve_passive_dense);
    let (ladder_err, ladder_snap) = instrumented_solve(&ws, |ws| PassiveSolver::new().solve(ws));

    let result = SizeResult {
        n,
        dense,
        ladder,
        dense_edges: dense_snap.counter("passive.network_edges"),
        ladder_edges: ladder_snap.counter("passive.network_edges"),
        width: ladder_snap.counter("passive.ladder_chains"),
        contending: ladder_snap.counter("passive.contending"),
        error_identical: (dense_err - ladder_err).abs() < 1e-9,
        weighted_error: ladder_err,
    };
    println!(
        "flow/comparison: n = {n} | dense {dense:?} ({} edges) -> ladder {ladder:?} \
         ({} edges, width {}) = {:.1}x, errors identical: {}",
        result.dense_edges,
        result.ladder_edges,
        result.width,
        dense.as_secs_f64() / ladder.as_secs_f64(),
        result.error_identical,
    );
    result
}

/// The acceptance-gate comparison: dense vs chain-ladder network for the
/// full passive solve (contending discovery + build + max flow +
/// readout), with the equivalence flag, saved as JSON for the record.
fn record_comparison(_c: &mut Criterion) {
    let sizes: Vec<usize> = match std::env::var("MC_BENCH_FLOW_N") {
        Ok(v) => vec![v.parse().expect("MC_BENCH_FLOW_N must be an integer")],
        Err(_) => vec![2_000, 20_000],
    };
    let (width, noise, reps) = (16usize, 0.25f64, 3usize);

    let results: Vec<SizeResult> = sizes
        .iter()
        .map(|&n| measure(n, width, noise, reps))
        .collect();
    let last = results.last().expect("at least one size");
    let speedup = last.dense.as_secs_f64() / last.ladder.as_secs_f64();
    let error_identical = results.iter().all(|r| r.error_identical);

    let size_entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                r#"    {{
      "n": {},
      "timings_ms": {{ "dense_solve": {:.3}, "ladder_solve": {:.3} }},
      "edges": {{ "dense": {}, "ladder": {} }},
      "stats": {{ "width": {}, "contending": {}, "weighted_error": {:.3} }},
      "speedup": {:.2},
      "error_identical": {}
    }}"#,
                r.n,
                r.dense.as_secs_f64() * 1e3,
                r.ladder.as_secs_f64() * 1e3,
                r.dense_edges,
                r.ladder_edges,
                r.width,
                r.contending,
                r.weighted_error,
                r.dense.as_secs_f64() / r.ladder.as_secs_f64(),
                r.error_identical,
            )
        })
        .collect();

    let meta = mc_bench::bench_meta_json();
    let json = format!(
        r#"{{
  "bench": "flow",
  "meta": {meta},
  "config": {{ "dim": 4, "chain_width": {width}, "noise": {noise}, "reps": {reps}, "profile": "bench" }},
  "sizes": [
{}
  ],
  "timings_ms": {{ "dense_solve": {:.3}, "ladder_solve": {:.3} }},
  "edges": {{ "dense": {}, "ladder": {} }},
  "speedup": {{ "end_to_end": {speedup:.2} }},
  "equivalence": {{ "error_identical": {error_identical} }}
}}
"#,
        size_entries.join(",\n"),
        last.dense.as_secs_f64() * 1e3,
        last.ladder.as_secs_f64() * 1e3,
        last.dense_edges,
        last.ladder_edges,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow.json");
    std::fs::write(path, json).expect("write BENCH_flow.json");
    println!("flow/comparison: wrote {path}");
}

criterion_group!(benches, bench_strategies, record_comparison);
criterion_main!(benches);
