//! Benchmarks for the rank-compressed dominance index and its two main
//! consumers (DAG construction and contending-point discovery), plus a
//! naive-vs-indexed comparison recorded to `BENCH_dominance.json` at the
//! repo root (the ISSUE's ≥3× acceptance gate at n = 20 000, d = 4).
//!
//! Run with `cargo bench --bench dominance` (release profile; the
//! comparison alone takes a couple of minutes because the naive
//! `O(d·n²)` baselines are genuinely slow at n = 20 000).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_chains::DominanceDag;
use mc_core::passive::ContendingPoints;
use mc_geom::{DominanceIndex, Label, PointSet, WeightedSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    PointSet::from_rows(dim, &rows)
}

fn random_weighted(points: &PointSet, seed: u64) -> WeightedSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = WeightedSet::empty(points.dim());
    for i in 0..points.len() {
        ws.push(points.point(i), Label::from_bool(rng.gen_bool(0.5)), 1.0);
    }
    ws
}

const SIZES: [usize; 3] = [1_000, 5_000, 20_000];
const DIMS: [usize; 3] = [2, 4, 8];

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance/index-build");
    group.sample_size(5);
    for n in SIZES {
        for dim in DIMS {
            let points = random_points(n, dim, 0xB0);
            group.bench_with_input(
                BenchmarkId::new(format!("d{dim}"), n),
                &points,
                |b, points| b.iter(|| DominanceIndex::build(points).num_dominating_pairs()),
            );
        }
    }
    group.finish();
}

fn bench_dag_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance/dag-build");
    group.sample_size(5);
    for n in SIZES {
        for dim in DIMS {
            let points = random_points(n, dim, 0xB1);
            group.bench_with_input(
                BenchmarkId::new(format!("d{dim}"), n),
                &points,
                |b, points| b.iter(|| DominanceDag::build(points).num_edges()),
            );
        }
    }
    group.finish();
}

fn bench_contending(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance/contending");
    group.sample_size(5);
    for n in SIZES {
        for dim in DIMS {
            let points = random_points(n, dim, 0xB2);
            let ws = random_weighted(&points, 0xB3);
            group.bench_with_input(BenchmarkId::new(format!("d{dim}"), n), &ws, |b, ws| {
                b.iter(|| ContendingPoints::compute(ws).len())
            });
        }
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

/// The acceptance-gate comparison: naive pairwise scans vs the shared
/// index at n = 20 000, d = 4, with behavioral-equivalence checks, saved
/// as JSON for the record.
fn record_comparison(_c: &mut Criterion) {
    let n = 20_000;
    let dim = 4;
    let reps = 3;
    let points = random_points(n, dim, 0xB4);
    let ws = random_weighted(&points, 0xB5);

    println!("dominance/comparison: naive vs indexed at n = {n}, d = {dim} ({reps} reps each)");
    let index_build = time_runs(reps, || DominanceIndex::build(&points).len());

    let dag_naive = time_runs(reps, || DominanceDag::build_naive(&points).num_edges());
    let dag_indexed = time_runs(reps, || DominanceDag::build(&points).num_edges());

    let con_naive = time_runs(reps, || {
        ContendingPoints::compute_generic_parallel(&ws).len()
    });
    // Rank-oracle row-ANDs, oracle build included: no matrix.
    let con_oracle = time_runs(reps, || ContendingPoints::compute(&ws).len());

    // Behavioral equivalence at full scale: identical edges, identical
    // contending sets.
    let naive_dag = DominanceDag::build_naive(&points);
    let indexed_dag = DominanceDag::build(&points);
    let dag_equal = naive_dag.num_edges() == indexed_dag.num_edges()
        && (0..n).all(|u| naive_dag.successors(u) == indexed_dag.successors(u));
    let con_equal =
        ContendingPoints::compute_generic_parallel(&ws) == ContendingPoints::compute(&ws);

    let dag_speedup = dag_naive.as_secs_f64() / dag_indexed.as_secs_f64();
    let con_speedup = con_naive.as_secs_f64() / con_oracle.as_secs_f64();
    println!(
        "dominance/comparison: dag {:?} -> {:?} ({dag_speedup:.1}x), contending {:?} -> {:?} oracle ({con_speedup:.1}x), equivalent: {}",
        dag_naive,
        dag_indexed,
        con_naive,
        con_oracle,
        dag_equal && con_equal
    );

    let meta = mc_bench::bench_meta_json();
    let json = format!(
        r#"{{
  "bench": "dominance",
  "meta": {meta},
  "config": {{ "n": {n}, "dim": {dim}, "reps": {reps}, "profile": "bench" }},
  "timings_ms": {{
    "index_build": {:.3},
    "dag_build_naive": {:.3},
    "dag_build_indexed": {:.3},
    "contending_naive_parallel": {:.3},
    "contending_oracle": {:.3}
  }},
  "speedup": {{
    "dag_build": {dag_speedup:.2},
    "contending_oracle": {con_speedup:.2}
  }},
  "equivalence": {{
    "dag_edges_identical": {dag_equal},
    "contending_sets_identical": {con_equal}
  }}
}}
"#,
        index_build.as_secs_f64() * 1e3,
        dag_naive.as_secs_f64() * 1e3,
        dag_indexed.as_secs_f64() * 1e3,
        con_naive.as_secs_f64() * 1e3,
        con_oracle.as_secs_f64() * 1e3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dominance.json");
    std::fs::write(path, json).expect("write BENCH_dominance.json");
    println!("dominance/comparison: wrote {path}");
}

criterion_group!(
    benches,
    bench_index_build,
    bench_dag_build,
    bench_contending,
    record_comparison
);
criterion_main!(benches);
