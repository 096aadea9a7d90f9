//! **E9 (Lemmas 7/8).** Dinic and the Edmonds–Karp reference agree, min
//! cut equals max flow, and relative running times behave as their
//! complexities predict (Edmonds–Karp slower on these graphs).

use crate::report::{fmt_duration, fmt_f64, Table};
use mc_flow::{all_algorithms, FlowNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn random_network(n: usize, density: f64, rng: &mut StdRng) -> FlowNetwork {
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

/// Runs E9.
pub fn run(quick: bool) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(0xE9);
    let sizes: &[usize] = if quick {
        &[50, 100]
    } else {
        &[50, 100, 200, 400]
    };

    let mut table = Table::new(
        "E9 (Lemmas 7/8): max-flow solvers cross-validated (random graphs, 10% density)",
        &["n", "algorithm", "flow value", "cut weight", "time"],
    );
    for &n in sizes {
        let net = random_network(n, 0.1, &mut rng);
        let mut reference: Option<f64> = None;
        for algo in all_algorithms() {
            let t0 = Instant::now();
            let sol = algo.solve(&net);
            let elapsed = t0.elapsed();
            sol.validate(&net).expect("invalid flow");
            let cut = sol.min_cut(&net);
            assert!(
                (cut.weight - sol.value()).abs() < 1e-6,
                "min cut != max flow for {}",
                algo.name()
            );
            match reference {
                None => reference = Some(sol.value()),
                Some(r) => assert!(
                    (r - sol.value()).abs() < 1e-6,
                    "{} disagrees with reference",
                    algo.name()
                ),
            }
            table.add_row(vec![
                n.to_string(),
                algo.name().to_string(),
                fmt_f64(sol.value()),
                fmt_f64(cut.weight),
                fmt_duration(elapsed),
            ]);
        }
    }
    println!("{table}");
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_rows() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 1);
        // Two solvers (Dinic, Edmonds–Karp) on two quick sizes.
        assert_eq!(tables[0].num_rows(), 4);
    }
}
