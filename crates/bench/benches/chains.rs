//! Criterion micro-benchmarks: minimum chain decomposition (the
//! `O(d·n² + n^2.5)` Lemma-6 pipeline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_chains::ChainDecomposition;
use mc_geom::PointSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    PointSet::from_rows(dim, &rows)
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("chains/decomposition");
    group.sample_size(20);
    for n in [200usize, 400, 800] {
        let points = random_points(n, 2, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, points| {
            b.iter(|| ChainDecomposition::compute(points).width())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decomposition);
criterion_main!(benches);
