//! **E8 (Lemma 6).** Minimum chain decomposition: correctness certificate
//! and `O(d·n² + n^2.5)` scaling.
//!
//! Every decomposition is validated (partition into valid chains, chain
//! count = antichain-certificate size) and, for tiny inputs, checked
//! against the exponential maximum-antichain search. Timing across `n`
//! shows the near-quadratic growth of the split-graph rows + matching.

use crate::report::{fmt_duration, Table};
use mc_chains::{brute::brute_force_width, ChainDecomposition};
use mc_geom::PointSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn random_points(n: usize, dim: usize, rng: &mut StdRng) -> PointSet {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    PointSet::from_rows(dim, &rows)
}

/// Runs E8.
pub fn run(quick: bool) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(0xE8);

    // Part A: brute-force agreement on tiny posets.
    let trials = if quick { 25 } else { 100 };
    let mut agree = 0;
    for _ in 0..trials {
        let n = rng.gen_range(1..13);
        let dim = rng.gen_range(1..4);
        let points = random_points(n, dim, &mut rng);
        let dec = ChainDecomposition::compute(&points);
        dec.validate(&points).unwrap();
        if dec.width() == brute_force_width(&points) {
            agree += 1;
        }
    }
    let mut a = Table::new(
        "E8a (Lemma 6): width vs exponential max-antichain search",
        &["random posets", "agreements"],
    );
    a.add_row(vec![trials.to_string(), format!("{agree}/{trials}")]);
    println!("{a}");
    assert_eq!(agree, trials);

    // Part B: scaling; width behaviour for uniform data in d dims is
    // ~ n^(1 - 1/d) in expectation, visible in the width column.
    let mut b = Table::new(
        "E8b (Lemma 6): decomposition time and width on uniform data",
        &["n", "d", "width", "antichain cert", "time"],
    );
    let sizes: &[usize] = if quick {
        &[200, 400, 800]
    } else {
        &[200, 400, 800, 1600, 3200]
    };
    for &n in sizes {
        for dim in [2usize, 4] {
            let points = random_points(n, dim, &mut rng);
            let t0 = Instant::now();
            let dec = ChainDecomposition::compute(&points);
            let elapsed = t0.elapsed();
            dec.validate(&points).unwrap();
            b.add_row(vec![
                n.to_string(),
                dim.to_string(),
                dec.width().to_string(),
                dec.antichain().len().to_string(),
                fmt_duration(elapsed),
            ]);
        }
    }
    println!("{b}");
    vec![a, b]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_tables() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
    }
}
