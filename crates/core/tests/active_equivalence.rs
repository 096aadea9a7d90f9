//! Differential test: the active solve equals its pipeline rebuilt here
//! from public parts — a certified Lemma-6 decomposition of P
//! (`validate()`, and Kuhn's `n − |M|` over a pairwise dominance scan)
//! and the per-chain sampling — and its Σ solve matches the
//! paper-literal dense reference.
//!
//! Compared per input: probes, width, and Σ (points, labels, weights)
//! bit for bit. Σ's weighted error must match the dense reference's
//! within `1e-9·(1 + total weight)`, and the classifier's labels on Σ
//! must be monotone and achieve that error. (The two networks may pick
//! different optimal cuts, so the error's bits and the anchors need not
//! agree.)

use mc_chains::ChainDecomposition;
use mc_core::passive::solve_passive_dense;
use mc_core::{find_monotonicity_violation, ActiveParams, ActiveSolver, InMemoryOracle};
use mc_geom::{bitmask_of, Dominance, Label, LabeledSet, PointSet};
use mc_matching::{BitsetGraph, Kuhn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Largest input whose width is also checked against Kuhn: its
/// adjacency lists hold every dominating pair, `Θ(n²)` words. Above it
/// the antichain certificate that `validate()` checks proves the width
/// minimum on its own.
const KUHN_MAX_N: usize = 1_500;

/// Kuhn's minimum path cover `n − |M|` over the Lemma-6 split graph of
/// `points`, built by a pairwise scan (equal points oriented by index).
fn kuhn_width(points: &PointSet) -> usize {
    let n = points.len();
    let mut g = BitsetGraph::new(n);
    for u in 0..n {
        let succeeds = |v: usize| match points.compare(u, v) {
            Dominance::DominatedBy => true,
            Dominance::Equal => v > u,
            _ => false,
        };
        g.push(bitmask_of(n, (0..n).filter(|&v| succeeds(v))).into_boxed_slice());
    }
    n - Kuhn.solve(&g).size()
}

/// Runs both pipelines with the same parameters and asserts identical
/// output; returns the probes used.
fn assert_same_as_staged_pipeline(data: &LabeledSet, params: ActiveParams, what: &str) -> usize {
    let solver = ActiveSolver::new(params);
    let mut oracle = InMemoryOracle::from_labeled(data);
    let new = solver.solve(data.points(), &mut oracle);

    let dec = ChainDecomposition::compute(data.points());
    dec.validate(data.points())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    if data.len() <= KUHN_MAX_N {
        assert_eq!(dec.width(), kuhn_width(data.points()), "{what}: Kuhn width");
    }
    let mut oracle = InMemoryOracle::from_labeled(data);
    let (sigma, probes) =
        solver.collect_sigma_with_chains(data.points(), dec.chains(), &mut oracle);
    let dense = solve_passive_dense(&sigma);

    assert_eq!(new.probes_used, probes, "{what}: probes");
    assert_eq!(new.width, dec.width(), "{what}: width");
    assert_eq!(new.sigma.len(), sigma.len(), "{what}: |Σ|");
    for i in 0..sigma.len() {
        assert_eq!(
            bits(new.sigma.points().point(i)),
            bits(sigma.points().point(i)),
            "{what}: Σ point {i}"
        );
        assert_eq!(new.sigma.label(i), sigma.label(i), "{what}: Σ label {i}");
        assert_eq!(
            new.sigma.weight(i).to_bits(),
            sigma.weight(i).to_bits(),
            "{what}: Σ weight {i}"
        );
    }
    let tolerance = 1e-9 * (1.0 + sigma.total_weight());
    assert!(
        (new.sigma_weighted_error - dense.weighted_error).abs() <= tolerance,
        "{what}: w-err_Σ {} vs dense {}",
        new.sigma_weighted_error,
        dense.weighted_error
    );
    let labels: Vec<Label> = (0..sigma.len())
        .map(|i| new.classifier.classify(sigma.points().point(i)))
        .collect();
    assert_eq!(
        find_monotonicity_violation(sigma.points(), &labels),
        None,
        "{what}: labels on Σ not monotone"
    );
    let achieved = new.classifier.weighted_error_on(&sigma);
    assert!(
        (achieved - new.sigma_weighted_error).abs() <= tolerance,
        "{what}: classifier achieves {achieved} on Σ, reported {}",
        new.sigma_weighted_error
    );
    probes
}

/// Coordinate on a small grid (so duplicates and ties are common), with
/// zeros drawn as `+0.0` or `-0.0` at random.
fn grid_coord(rng: &mut StdRng, levels: u32) -> f64 {
    let v = rng.gen_range(0..levels) as f64;
    if v == 0.0 && rng.gen_bool(0.5) {
        -0.0
    } else {
        v
    }
}

/// Labels from a planted monotone threshold on the coordinate sum, with
/// a fraction flipped.
fn planted_label(rng: &mut StdRng, coords: &[f64], cut: f64, noise: f64) -> Label {
    let clean = coords.iter().sum::<f64>() > cut;
    Label::from_bool(clean != rng.gen_bool(noise))
}

#[test]
fn random_sets_with_duplicates_and_signed_zeros() {
    let mut rng = StdRng::seed_from_u64(0xAC71);
    for case in 0..24u64 {
        let dim = 3 + (case % 3) as usize;
        let n = match case % 4 {
            0 => rng.gen_range(1..40),
            1 => rng.gen_range(40..300),
            2 => rng.gen_range(300..900),
            _ => rng.gen_range(900..=1500),
        };
        // Coarse grids force many exact duplicates; fine ones few.
        let levels = if case % 2 == 0 { 4 } else { 60 };
        let noise = [0.0, 0.05, 0.2][(case % 3) as usize];
        let cut = dim as f64 * (levels as f64 - 1.0) / 2.0;
        let mut data = LabeledSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| grid_coord(&mut rng, levels)).collect();
            let label = planted_label(&mut rng, &coords, cut, noise);
            data.push(&coords, label);
        }
        assert_same_as_staged_pipeline(
            &data,
            ActiveParams::new(0.5).with_seed(case),
            &format!("random case {case} (d {dim}, n {n})"),
        );
    }
}

/// `width` mutually incomparable chains of `len` points in `dim`
/// dimensions, each labeled by a random boundary with 5% noise. Chain c
/// sits in block c on axis 0 and block width-1-c on axis 1, so points of
/// different chains are incomparable; within a chain every axis ascends
/// with the position. Points are pushed in shuffled order so chain
/// membership is not the input order.
fn incomparable_chains(rng: &mut StdRng, dim: usize, width: usize, len: usize) -> LabeledSet {
    let block = len as f64 + 1.0;
    let mut rows: Vec<(Vec<f64>, Label)> = Vec::new();
    for c in 0..width {
        let boundary = rng.gen_range(0..=len);
        for t in 0..len {
            let mut coords = vec![
                c as f64 * block + t as f64,
                (width - 1 - c) as f64 * block + t as f64,
            ];
            coords.extend((2..dim).map(|k| (t * k) as f64));
            let clean = t >= boundary;
            rows.push((coords, Label::from_bool(clean != rng.gen_bool(0.05))));
        }
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let mut data = LabeledSet::empty(dim);
    for (coords, label) in &rows {
        data.push(coords, *label);
    }
    data
}

#[test]
fn mutually_incomparable_chains() {
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    for (case, &(dim, width, len)) in [
        (3, 2, 700),
        (3, 5, 200),
        (4, 3, 400),
        (5, 8, 150),
        (5, 1, 1200),
    ]
    .iter()
    .enumerate()
    {
        let data = incomparable_chains(&mut rng, dim, width, len);
        assert_same_as_staged_pipeline(
            &data,
            ActiveParams::new(0.5).with_seed(100 + case as u64),
            &format!("chains case {case} (d {dim}, width {width}, len {len})"),
        );
    }
}

/// Below a few thousand points per chain the sampler probes every point,
/// so Σ is P with unit weights. Chains long enough to be sampled check
/// that the per-chain draws, Σ's merged weights and its solve still
/// agree.
#[test]
fn sampled_long_chains() {
    let mut rng = StdRng::seed_from_u64(0x5A3);
    let data = incomparable_chains(&mut rng, 3, 2, 4000);
    let probes = assert_same_as_staged_pipeline(
        &data,
        ActiveParams::new(1.0).with_seed(7).with_delta(0.5),
        "sampled chains (d 3, width 2, len 4000)",
    );
    assert!(probes < data.len(), "expected sampling, probed {probes}");
}
