//! **E1 (Theorem 1).** Exact monotone classification needs `Ω(n)` probes.
//!
//! We run three strategies over the Section-6 hard family and report (a)
//! the probing cost and (b) how often each returns an *exactly optimal*
//! classifier (error `n/2 − 1`). The shape to observe:
//!
//! * `probe-all` is always optimal at cost exactly `n` — Theorem 1 says
//!   no exact algorithm can do asymptotically better;
//! * the `(1+ε)`-approximate active algorithm probes sublinearly once
//!   `n` clears the Lemma-5 sample sizes, and then stops being exactly
//!   optimal: it returns a near-optimal classifier without ever finding
//!   the anomaly pair — sub-linear probing and guaranteed exactness
//!   cannot coexist;
//! * the binary-search baseline probes `O(log n)` labels and is optimal
//!   only when its search path happens to cross the anomaly.
//!
//! The family is 1-dimensional (a single chain), so the probe-all arm
//! uses the exact `O(n log n)` 1D sweep, and the active solver gets the
//! trivial single-chain decomposition directly.

use crate::report::{fmt_f64, mean_std, Table};
use mc_core::baselines::chain_binary_search;
use mc_core::passive::solve_passive_1d;
use mc_core::{ActiveParams, ActiveSolver, InMemoryOracle, LabelOracle, MonotoneClassifier};
use mc_data::hard_family::{hard_family_member, hard_family_optimal_error, AnomalyKind};
use mc_geom::LabeledSet;

fn run_probe_all(member: &LabeledSet, oracle: &mut InMemoryOracle) -> (MonotoneClassifier, usize) {
    // Probe everything, then run the exact 1D sweep.
    let mut ws = mc_geom::WeightedSet::empty(1);
    for i in 0..member.len() {
        let label = oracle.probe(i).expect("in-memory oracles always answer");
        ws.push(member.points().point(i), label, 1.0);
    }
    (solve_passive_1d(&ws).classifier, oracle.probes_used())
}

fn run_active(
    member: &LabeledSet,
    oracle: &mut InMemoryOracle,
    seed: u64,
) -> (MonotoneClassifier, usize) {
    // The family is a single ascending chain: indices 0..n in order.
    let chain: Vec<usize> = (0..member.len()).collect();
    let solver = ActiveSolver::new(ActiveParams::new(0.5).with_seed(seed));
    let sol = solver.solve_with_chains(member.points(), &[chain], oracle);
    (sol.classifier, sol.probes_used)
}

/// Runs E1.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[256, 1024, 4096]
    } else {
        &[256, 1024, 4096, 16384, 65536]
    };
    let mut table = Table::new(
        "E1 (Theorem 1): probes vs. exact-optimality on the hard family",
        &[
            "n",
            "k*",
            "algorithm",
            "mean probes",
            "probes/n",
            "optimal runs",
            "mean err/k*",
        ],
    );

    for &n in sizes {
        let opt = hard_family_optimal_error(n);
        let num_positions = if quick { 3 } else { 6 };
        let mut members = Vec::new();
        for k in 0..num_positions {
            let pair = 1 + k * (n / 2 - 1) / (num_positions - 1).max(1);
            members.push(hard_family_member(n, pair, AnomalyKind::ZeroZero));
            members.push(hard_family_member(n, pair, AnomalyKind::OneOne));
        }

        for algo in ["probe-all", "active(eps=0.5)", "chain-binary-search"] {
            let mut probes = Vec::new();
            let mut errs = Vec::new();
            let mut optimal_runs = 0usize;
            for (i, member) in members.iter().enumerate() {
                let mut oracle = InMemoryOracle::from_labeled(member);
                let (classifier, used) = match algo {
                    "probe-all" => run_probe_all(member, &mut oracle),
                    "active(eps=0.5)" => run_active(member, &mut oracle, 9000 + i as u64),
                    _ => {
                        let sol = chain_binary_search(member.points(), &mut oracle);
                        (sol.classifier, sol.probes_used)
                    }
                };
                probes.push(used as f64);
                let err = classifier.error_on(member);
                errs.push(err as f64 / opt as f64);
                if err == opt {
                    optimal_runs += 1;
                }
            }
            let (mean_probes, _) = mean_std(&probes);
            let (mean_ratio, _) = mean_std(&errs);
            table.add_row(vec![
                n.to_string(),
                opt.to_string(),
                algo.to_string(),
                fmt_f64(mean_probes),
                format!("{:.3}", mean_probes / n as f64),
                format!("{optimal_runs}/{}", members.len()),
                format!("{mean_ratio:.4}"),
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
        assert!(tables[0].num_rows() >= 9);
    }
}
