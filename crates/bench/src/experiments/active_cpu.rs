//! **E7 (Theorem 3).** The full active pipeline runs in time polynomial
//! in `n`, `d`, `1/ε` — dominated by the `O(d·n² + n^2.5)` chain
//! decomposition, with the sampling and passive phases comparatively
//! cheap. The phase breakdown makes the Theorem-3 cost decomposition
//! `Õ(dn² + n^2.5 + w/ε²) + T_prob2(d, N)` visible. The phase times
//! are the solve's own `mc-obs` spans, so collection is raised to
//! [`mc_obs::Level::Info`] for the run.

use crate::report::{fmt_duration, Table};
use mc_core::{ActiveParams, ActiveSolver, InMemoryOracle};
use mc_data::planted::{planted_sum_concept, PlantedConfig};
use std::time::Duration;

/// The span paths of the three phases, in table order.
const PHASES: [&str; 3] = [
    "active/chain_decomposition",
    "active/sampling",
    "active/passive",
];

/// Runs E7.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[250, 500, 1000]
    } else {
        &[250, 500, 1000, 2000, 4000]
    };
    let mut table = Table::new(
        "E7 (Theorem 3): active pipeline CPU-time breakdown [planted 2D, noise 5%, eps = 1.0]",
        &[
            "n",
            "width",
            "probes",
            "|Sigma|",
            "decomposition",
            "sampling",
            "passive",
        ],
    );
    let level = mc_obs::level();
    if level < mc_obs::Level::Info {
        mc_obs::set_level(mc_obs::Level::Info);
    }
    let span_ns = |snap: &mc_obs::Snapshot, path: &str| snap.span(path).map_or(0, |s| s.total_ns);
    for &n in sizes {
        let ds = planted_sum_concept(&PlantedConfig::new(n, 2, 0.05, 0xE7));
        let mut oracle = InMemoryOracle::from_labeled(&ds.data);
        let solver = ActiveSolver::new(ActiveParams::new(1.0).with_seed(7));
        let before = mc_obs::snapshot();
        let sol = solver.solve(ds.data.points(), &mut oracle);
        let after = mc_obs::snapshot();
        let mut row = vec![
            n.to_string(),
            sol.width.to_string(),
            sol.probes_used.to_string(),
            sol.sigma.len().to_string(),
        ];
        row.extend(PHASES.iter().map(|path| {
            let ns = span_ns(&after, path).saturating_sub(span_ns(&before, path));
            fmt_duration(Duration::from_nanos(ns))
        }));
        table.add_row(row);
    }
    mc_obs::set_level(level);
    println!("{table}");
    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_rows() {
        let tables = super::run(true);
        assert_eq!(tables[0].num_rows(), 3);
    }
}
