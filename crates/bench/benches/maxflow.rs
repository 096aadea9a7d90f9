//! Criterion micro-benchmarks: Dinic and the Edmonds–Karp reference on
//! random graphs, and Dinic on passive-classifier-shaped (3-layer)
//! networks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_flow::{Dinic, EdmondsKarp, FlowNetwork, MaxFlowAlgorithm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_network(n: usize, density: f64, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new(n, 0, n - 1);
    for u in 0..n {
        for v in 0..n {
            if u != v && v != 0 && u != n - 1 && rng.gen_bool(density) {
                net.add_edge(u, v, rng.gen_range(1..50) as f64);
            }
        }
    }
    net
}

/// A network shaped like the Theorem-4 reduction: source → zeros → ones →
/// sink with infinite middle edges.
fn classifier_network(half: usize, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + 2 * half;
    let mut net = FlowNetwork::new(n, 0, 1);
    for z in 0..half {
        net.add_edge(0, 2 + z, rng.gen_range(1..100) as f64);
    }
    for o in 0..half {
        net.add_edge(2 + half + o, 1, rng.gen_range(1..100) as f64);
    }
    for z in 0..half {
        for o in 0..half {
            if rng.gen_bool(0.2) {
                net.add_edge(2 + z, 2 + half + o, mc_flow::Capacity::Infinite);
            }
        }
    }
    net
}

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow/random");
    for n in [64usize, 128, 256] {
        let net = random_network(n, 0.1, 42);
        group.bench_with_input(BenchmarkId::new("dinic", n), &net, |b, net| {
            b.iter(|| Dinic.solve(net).value())
        });
        group.bench_with_input(BenchmarkId::new("edmonds-karp", n), &net, |b, net| {
            b.iter(|| EdmondsKarp.solve(net).value())
        });
    }
    group.finish();
}

fn bench_classifier_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow/classifier-shape");
    for half in [50usize, 150, 400] {
        let net = classifier_network(half, 7);
        group.bench_with_input(BenchmarkId::new("dinic", half), &net, |b, net| {
            b.iter(|| Dinic.solve(net).value())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_random, bench_classifier_shape);
criterion_main!(benches);
