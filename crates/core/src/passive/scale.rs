//! Streaming-scale passive solves — Theorem 4 at `n = 10⁷`.
//!
//! [`solve_passive`](super::solve_passive) takes a
//! [`WeightedSet`](mc_geom::WeightedSet), which holds every coordinate
//! resident (`d·n` f64s) and hands back a
//! [`MonotoneClassifier`](crate::classifier::MonotoneClassifier) built
//! from those coordinates. At `n = 10⁷` the coordinates themselves are
//! the wall: a columnar reader can stream them through
//! [`mc_geom::rank_keys_into`] one dimension at a time, after
//! which only the `O(d·n)` u32 [`RankTable`] — not the f64s — needs to
//! exist. Dominance is a rank comparison, so the *solve* never misses
//! them; only the anchor-representation classifier would, and at this
//! scale nobody asks for one.
//!
//! This module is that entry point: Problem 2 off `(RankTable, labels,
//! weights)` alone. It runs the one rank-space pipeline of
//! [`PassiveSolver`](super::PassiveSolver) — the same gadget for the
//! dimension (the sweep ladder at `d ≤ 2`, the Lemma-6 chain ladder at
//! `d ≥ 3`), the same [`Dinic`](mc_flow::Dinic) min cut, identical
//! weighted error and flip decisions — and counts the flips instead of
//! anchoring a classifier on them. The answer structures are
//! `O(con + w·n)`; no `Θ(n²)` object exists at any stage.

use crate::error::McError;
use crate::passive::pipeline::solve_ranked;
use crate::report::SolveReport;
use mc_geom::{Label, RankTable};
use mc_obs::CancelToken;

/// Outcome of a streaming passive solve: the optimal weighted error and
/// the solve's shape, without a classifier (the coordinates needed to
/// anchor one may never have been resident — see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSolution {
    /// The optimal weighted error `w-err_P(h)` — identical to what
    /// [`super::solve_passive`] reports on the same data.
    pub weighted_error: f64,
    /// Lemma-15 contending label-0 points fed into the network.
    pub contending_zeros: usize,
    /// Lemma-15 contending label-1 points fed into the network.
    pub contending_ones: usize,
    /// Label-0 points the optimal classifier relabels to 1.
    pub flips_to_one: usize,
    /// Label-1 points the optimal classifier relabels to 0.
    pub flips_to_zero: usize,
    /// Dominance width of the label-1 points (Lemma-6 chain count). 0
    /// means no Lemma-6 decomposition ran: `d ≤ 2`, where the sweep
    /// gadget needs none, or one label class is empty.
    pub width: usize,
    /// Nodes in the flow network (0 when nothing contends).
    pub network_nodes: usize,
    /// Edges in the flow network (0 when nothing contends).
    pub network_edges: usize,
    /// Resilience/residency report; `peak_rss_bytes` is stamped at the
    /// end of the solve, so it upper-bounds the pipeline's residency.
    pub report: SolveReport,
}

/// Solves Problem 2 off prebuilt rank columns. The infallible
/// convenience of [`try_solve_passive_scale`] for callers without a
/// deadline.
///
/// # Panics
///
/// Panics if `labels` and `weights` do not both match `table.len()`
/// (the fallible entry returns a typed error instead).
pub fn solve_passive_scale(table: &RankTable, labels: &[Label], weights: &[f64]) -> ScaleSolution {
    match try_solve_passive_scale(table, labels, weights, &CancelToken::never()) {
        Ok(s) => s,
        Err(McError::InvalidParameter { message }) => panic!("{message}"),
        Err(_) => unreachable!("a never-token cannot cancel"),
    }
}

/// Streaming passive solve under `token`: Theorem 4 on `(RankTable,
/// labels, weights)` with `O(d·n + w·n)` residency end to end.
///
/// The token reaches the max-flow phases and, at `d ≥ 3`, the ladder's
/// super-linear stages — rank-column gathering, the Hopcroft–Karp
/// matching behind the chain decomposition and the parallel zero sweep. Errors are
/// [`McError::InvalidParameter`] on length mismatches and
/// [`McError::Timeout`]/[`McError::Cancelled`] on cancellation.
pub fn try_solve_passive_scale(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    token: &CancelToken,
) -> Result<ScaleSolution, McError> {
    let _span = mc_obs::span("passive");
    token.poll()?; // small inputs may never reach a checkpoint
    if labels.len() != table.len() || weights.len() != table.len() {
        return Err(McError::invalid_parameter(format!(
            "rank table covers {} points but got {} labels and {} weights",
            table.len(),
            labels.len(),
            weights.len()
        )));
    }

    let cut = solve_ranked(table, labels, weights, None, token, false)?;
    let mut solution = ScaleSolution {
        weighted_error: cut.weighted_error,
        contending_zeros: cut.con.zeros.len(),
        contending_ones: cut.con.ones.len(),
        flips_to_one: cut.to_one.len(),
        flips_to_zero: cut.to_zero.len(),
        width: cut.width,
        network_nodes: cut.network_nodes,
        network_edges: cut.network_edges,
        report: SolveReport::default(),
    };
    solution.report.stamp_peak_rss();
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::solve_passive;
    use mc_geom::WeightedSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weighted(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> WeightedSet {
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect();
            ws.push(
                &coords,
                Label::from_bool(rng.gen_bool(0.5)),
                rng.gen_range(1..10) as f64,
            );
        }
        ws
    }

    #[test]
    fn scale_solve_matches_full_solve() {
        let mut rng = StdRng::seed_from_u64(0x5CA1);
        for dim in [1usize, 2, 3, 4] {
            for trial in 0..25 {
                let n = rng.gen_range(1..60);
                let ws = random_weighted(n, dim, 4.0, &mut rng);
                let reference = solve_passive(&ws);
                let table = RankTable::build(ws.points());
                let scale = solve_passive_scale(&table, ws.labels(), ws.weights());
                assert!(
                    (scale.weighted_error - reference.weighted_error).abs() < 1e-9,
                    "dim {dim} trial {trial}: scale {} vs full {}\n{ws:?}",
                    scale.weighted_error,
                    reference.weighted_error
                );
                assert_eq!(
                    scale.contending_zeros + scale.contending_ones,
                    reference.contending,
                    "dim {dim} trial {trial}: contending sets disagree"
                );
                // Both entries run the same gadget, so they read the
                // same cut: the flip counts match the full solver's
                // assignment diff exactly.
                let mut to_one = 0;
                let mut to_zero = 0;
                for (i, &l) in ws.labels().iter().enumerate() {
                    match (l, reference.assignment[i]) {
                        (Label::Zero, Label::One) => to_one += 1,
                        (Label::One, Label::Zero) => to_zero += 1,
                        _ => {}
                    }
                }
                assert_eq!(
                    (scale.flips_to_one, scale.flips_to_zero),
                    (to_one, to_zero),
                    "dim {dim} trial {trial}: flip decisions disagree\n{ws:?}"
                );
            }
        }
    }

    #[test]
    fn scale_solve_handles_degenerate_inputs() {
        // Empty.
        let table = RankTable::from_rank_columns(0, 2, vec![0u32; 0]);
        let s = solve_passive_scale(&table, &[], &[]);
        assert_eq!(s.weighted_error, 0.0);
        assert_eq!((s.width, s.network_edges), (0, 0));

        // One-sided labels: no contention, width 0 (decomposition skipped).
        let mut ws = WeightedSet::empty(3);
        ws.push(&[0.0, 0.0, 0.0], Label::One, 1.0);
        ws.push(&[1.0, 1.0, 1.0], Label::One, 1.0);
        let table = RankTable::build(ws.points());
        let s = solve_passive_scale(&table, ws.labels(), ws.weights());
        assert_eq!(s.weighted_error, 0.0);
        assert_eq!((s.contending_zeros, s.contending_ones, s.width), (0, 0, 0));
    }

    #[test]
    fn scale_solve_rejects_length_mismatch() {
        let mut ws = WeightedSet::empty(2);
        ws.push(&[0.0, 0.0], Label::Zero, 1.0);
        let table = RankTable::build(ws.points());
        let err = try_solve_passive_scale(&table, &[], &[1.0], &CancelToken::never()).unwrap_err();
        assert!(matches!(err, McError::InvalidParameter { .. }));
    }

    #[test]
    fn scale_solve_reports_width_and_rss() {
        // A 2-antichain of ones, each inverted below a zero: width 2.
        let mut ws = WeightedSet::empty(3);
        ws.push(&[0.0, 3.0, 0.0], Label::One, 2.0);
        ws.push(&[3.0, 0.0, 0.0], Label::One, 2.0);
        ws.push(&[1.0, 4.0, 1.0], Label::Zero, 1.0);
        ws.push(&[4.0, 1.0, 1.0], Label::Zero, 1.0);
        let table = RankTable::build(ws.points());
        let s = solve_passive_scale(&table, ws.labels(), ws.weights());
        assert_eq!(s.width, 2);
        assert_eq!(s.weighted_error, 2.0);
        assert_eq!((s.flips_to_one, s.flips_to_zero), (2, 0));
        if cfg!(target_os = "linux") {
            assert!(s.report.peak_rss_bytes > 0, "VmHWM must be readable");
        }
    }

    #[test]
    fn scale_solve_is_cancellable() {
        let mut rng = StdRng::seed_from_u64(0x5CA2);
        let ws = random_weighted(400, 3, 5.0, &mut rng);
        let table = RankTable::build(ws.points());
        let token = CancelToken::new();
        token.cancel();
        let err = try_solve_passive_scale(&table, ws.labels(), ws.weights(), &token).unwrap_err();
        assert_eq!(err, McError::Cancelled);
    }
}
