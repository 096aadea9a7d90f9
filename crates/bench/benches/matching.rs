//! Criterion micro-benchmarks: bipartite matching (bitset Hopcroft–Karp
//! vs the Kuhn reference) on random graphs and on dominance split
//! graphs, plus the end-to-end `ChainDecomposition` record written to
//! `BENCH_matching.json` at the repo root (n = 20 000, d = 4; override
//! the size with `MC_BENCH_MATCHING_N` for smoke runs), and the
//! `compute_from_oracle` timings on the scale workload's Lemma-6
//! instances at n ∈ {10⁵, 10⁶}. Every decomposition recorded must pass
//! its Dilworth certificate (`validate()`).
//!
//! `cargo bench -p mc-bench --bench matching -- record_comparison` runs
//! the record alone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_chains::ChainDecomposition;
use mc_data::columnar::{write_scale_dataset, ColumnarDataset, ScaleConfig};
use mc_geom::{PointSet, RankOracle};
use mc_matching::{BitsetGraph, HopcroftKarpBitset, Kuhn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// An `n × n` graph as owned rows, with right `r` adjacent to left `l`
/// iff `edge(l, r)`.
fn rows_graph(n: usize, mut edge: impl FnMut(usize, usize) -> bool) -> BitsetGraph {
    let mut g = BitsetGraph::new(n);
    for l in 0..n {
        let mut row = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        for r in 0..n {
            if edge(l, r) {
                row[r >> 6] |= 1u64 << (r & 63);
            }
        }
        g.push(row);
    }
    g
}

fn random_bipartite(n: usize, avg_degree: usize, seed: u64) -> BitsetGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    rows_graph(n, |_, _| rng.gen_range(0..n) < avg_degree)
}

/// The split graph of a random 2D dominance DAG — the Lemma-6 workload.
fn dominance_split_graph(n: usize, seed: u64) -> BitsetGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    rows_graph(n, |u, v| {
        let ((xu, yu), (xv, yv)) = (points[u], points[v]);
        u != v && xv >= xu && yv >= yu && (xv, yv) != (xu, yu)
    })
}

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching/random");
    for n in [200usize, 500, 1000] {
        let g = random_bipartite(n, 5, 1);
        group.bench_with_input(BenchmarkId::new("hopcroft-karp-bitset", n), &g, |b, g| {
            b.iter(|| HopcroftKarpBitset.solve_with_stats(g).0.size())
        });
        group.bench_with_input(BenchmarkId::new("kuhn", n), &g, |b, g| {
            b.iter(|| Kuhn.solve(g).size())
        });
    }
    group.finish();
}

fn bench_dominance(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching/dominance-split");
    group.sample_size(20);
    for n in [200usize, 400] {
        let g = dominance_split_graph(n, 2);
        group.bench_with_input(BenchmarkId::new("hopcroft-karp-bitset", n), &g, |b, g| {
            b.iter(|| HopcroftKarpBitset.solve_with_stats(g).0.size())
        });
        group.bench_with_input(BenchmarkId::new("kuhn", n), &g, |b, g| {
            b.iter(|| Kuhn.solve(g).size())
        });
    }
    group.finish();
}

fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    PointSet::from_rows(dim, &rows)
}

/// The decomposition on the real Lemma-6 workload at criterion scale.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching/engine");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let points = random_points(n, 4, 0xE0);
        group.bench_with_input(BenchmarkId::new("bitset", n), &points, |b, points| {
            b.iter(|| ChainDecomposition::compute(points).width())
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

/// The Lemma-6 instance the pipeline actually hands the matching
/// engine at scale `n`: the label-1 points of the banded scale
/// workload, lifted into a [`RankOracle`].
fn scale_ones_oracle(n: usize) -> (PointSet, RankOracle) {
    let mut path = std::env::temp_dir();
    path.push(format!("mc_bench_matching_{}_n{n}.mcc", std::process::id()));
    write_scale_dataset(&path, &ScaleConfig::new(n, 4, 0x5CA1E)).expect("write scale dataset");
    let mut ds = ColumnarDataset::open(&path).expect("open scale dataset");
    let ws = ds.to_weighted_set().expect("weighted set");
    drop(ds);
    std::fs::remove_file(&path).ok();
    let rows: Vec<Vec<f64>> = (0..ws.len())
        .filter(|&i| ws.label(i).is_one())
        .map(|i| ws.points().point(i).to_vec())
        .collect();
    let ones = PointSet::from_rows(ws.dim(), &rows);
    let oracle = RankOracle::build(&ones);
    (ones, oracle)
}

/// The matrix-free record: `compute_from_oracle` on the pipeline's own
/// Lemma-6 instances, each certified by its antichain.
fn matrix_free_section() -> String {
    let reps = 3;
    let mut entries = Vec::new();
    for n in [100_000usize, 1_000_000] {
        let (ones, oracle) = scale_ones_oracle(n);
        let t = time_runs(reps, || ChainDecomposition::compute_from_oracle(&oracle));
        let dec = ChainDecomposition::compute_from_oracle(&oracle);
        let certified = dec.validate(&ones).is_ok();
        println!(
            "matching/matrix-free: n = {n} ({} ones) | width {} | {t:?} | \
             certified: {certified}",
            oracle.len(),
            dec.width()
        );
        entries.push(format!(
            r#"{{
      "n": {n},
      "instance": {},
      "width": {},
      "oracle_ms": {:.3},
      "certified": {certified}
    }}"#,
            oracle.len(),
            dec.width(),
            t.as_secs_f64() * 1e3,
        ));
    }
    format!(
        r#"{{
    "workload": "scale-ones",
    "dim": 4,
    "reps": {reps},
    "sizes": [
    {}
    ]
  }}"#,
        entries.join(",\n    ")
    )
}

/// The end-to-end record: `ChainDecomposition::compute` (rank, gather
/// the oracle in a linear extension, match), certified by `validate()`,
/// with the matching's phase counters, saved as JSON.
fn record_comparison(_c: &mut Criterion) {
    let n: usize = std::env::var("MC_BENCH_MATCHING_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let dim = 4;
    let reps = 3;
    let points = random_points(n, dim, 0xE4);

    println!("matching/comparison: n = {n}, d = {dim} ({reps} reps each)");
    let bitset = time_runs(reps, || ChainDecomposition::compute(&points).width());

    // One more run with the counters on, for the phase statistics of
    // the decomposition just timed, and its Dilworth certificate.
    let level = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();
    let bitset_dec = ChainDecomposition::compute(&points);
    let snap = mc_obs::snapshot();
    mc_obs::set_level(level);
    let certified = bitset_dec.validate(&points).is_ok();
    let greedy_matched = snap.counter("matching.greedy_matched");
    let hk_rounds = snap.counter("matching.hk_rounds");
    let hk_augmented = snap.counter("matching.hk_augmented");
    let words_scanned = snap.counter("matching.bitset_words_scanned");
    let matched = greedy_matched + hk_augmented;
    let greedy_hit_rate = if matched > 0 {
        greedy_matched as f64 / matched as f64
    } else {
        0.0
    };
    println!(
        "matching/comparison: width {} | bitset {bitset:?}, greedy hit rate \
         {greedy_hit_rate:.3}, rounds {hk_rounds}, words scanned {words_scanned}, \
         certified: {certified}",
        bitset_dec.width(),
    );

    let matrix_free = matrix_free_section();
    let meta = mc_bench::bench_meta_json();
    let json = format!(
        r#"{{
  "bench": "matching",
  "meta": {meta},
  "config": {{ "n": {n}, "dim": {dim}, "reps": {reps}, "profile": "bench" }},
  "timings_ms": {{
    "chain_decomposition_bitset": {:.3}
  }},
  "stats": {{
    "width": {},
    "greedy_matched": {greedy_matched},
    "greedy_hit_rate": {greedy_hit_rate:.4},
    "hk_rounds": {hk_rounds},
    "hk_augmented": {hk_augmented},
    "bitset_words_scanned": {words_scanned}
  }},
  "equivalence": {{
    "certified": {certified}
  }},
  "matrix_free": {matrix_free}
}}
"#,
        bitset.as_secs_f64() * 1e3,
        bitset_dec.width(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json");
    std::fs::write(path, json).expect("write BENCH_matching.json");
    println!("matching/comparison: wrote {path}");
}

criterion_group!(
    benches,
    bench_random,
    bench_dominance,
    bench_engines,
    record_comparison
);
criterion_main!(benches);
