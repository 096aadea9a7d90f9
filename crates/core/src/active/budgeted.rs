//! Budget-constrained active classification — an engineering extension.
//!
//! The paper's algorithm (Theorem 2) spends whatever
//! `O((w/ε²)·log(n/w)·log n)` evaluates to; real labeling campaigns run
//! the other way around: *"we can afford B human verdicts — make them
//! count."* This module allocates a hard probe budget over the minimum
//! chain decomposition and solves the passive problem on the resulting
//! importance-weighted sample:
//!
//! * each chain gets a base allocation proportional to `log(1 + m_c)`
//!   (the shape of the per-chain cost in Theorem 2), rescaled to the
//!   budget;
//! * a chain whose allocation covers it is probed exhaustively (weight-1
//!   entries — exact, mirroring the main algorithm's graceful
//!   degradation), and the slack is redistributed to the others;
//! * the rest of each chain's allocation is spent on a uniform
//!   within-chain sample at weight `m_c / t_c`.
//!
//! No `(1+ε)` guarantee is claimed (that requires the adaptive recursion
//! of Section 3); what is guaranteed: the budget is respected, the output
//! is monotone, and as `B → n` the result converges to the exact
//! optimum.

use crate::active::solver::{check_oracle_size, close_sigma, decompose};
use crate::active::ActiveSolution;
use crate::error::McError;
use crate::oracle::LabelOracle;
use crate::report::SolveReport;
use mc_geom::{Label, PointSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Learns a monotone classifier probing at most `budget` distinct
/// labels, returning invalid inputs (an oracle/points size mismatch) as
/// errors. Failed probes are dropped from the sample (the survivors'
/// weights are rescaled), and the budget is still respected — failed
/// probes are never billed. Oracle failures degrade the result instead
/// of aborting it (see [`ActiveSolution::report`]). The solution's
/// `sigma` is the importance-weighted sample the classifier was fit on,
/// in point order.
pub fn try_solve_with_budget(
    points: &PointSet,
    oracle: &mut dyn LabelOracle,
    budget: usize,
    seed: u64,
) -> Result<ActiveSolution, McError> {
    check_oracle_size(points, oracle)?;
    let n = points.len();
    let before = oracle.probes_used();
    let stats_before = oracle.stats();
    let (dec, table) = decompose(points);
    let chains = dec.chains();
    let budget = budget.min(n);

    // Proportional allocation by log(1 + m), then redistribute the slack
    // of chains that are fully covered (smallest chains first so slack
    // cascades to the large ones that can absorb it).
    let mut order: Vec<usize> = (0..chains.len()).collect();
    order.sort_by_key(|&c| chains[c].len());
    let mut allocation = vec![0usize; chains.len()];
    let total_score: f64 = chains.iter().map(|c| (1.0 + c.len() as f64).ln()).sum();
    let mut remaining = budget;
    let mut remaining_score = total_score;
    for &c in &order {
        let m = chains[c].len();
        let score = (1.0 + m as f64).ln();
        let share = if remaining_score > 0.0 {
            ((remaining as f64) * score / remaining_score).round() as usize
        } else {
            0
        };
        let take = share.min(m).min(remaining);
        allocation[c] = take;
        remaining -= take;
        remaining_score -= score;
    }
    // Spend any leftover on the largest chains.
    for &c in order.iter().rev() {
        if remaining == 0 {
            break;
        }
        let extra = (chains[c].len() - allocation[c]).min(remaining);
        allocation[c] += extra;
        remaining -= extra;
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = SolveReport::default();
    let mut slots: Vec<Option<(Label, f64)>> = vec![None; n];
    for (c, chain) in chains.iter().enumerate() {
        let m = chain.len();
        let t = allocation[c];
        if t == 0 {
            continue;
        }
        if t >= m {
            for &i in chain {
                report.attempts += 1;
                match oracle.probe(i) {
                    Ok(label) => slots[i] = Some((label, 1.0)),
                    Err(_) => report.dropped += 1,
                }
            }
            continue;
        }
        // Uniform sample of t distinct positions (partial Fisher–Yates).
        let mut positions: Vec<usize> = (0..m).collect();
        for k in 0..t {
            let j = rng.gen_range(k..m);
            positions.swap(k, j);
        }
        // Collect the answered probes first: failed ones are dropped and
        // the weight rescales to the survivors, keeping the chain's total
        // Σ weight near m.
        let mut answered: Vec<(usize, Label)> = Vec::with_capacity(t);
        for &pos in &positions[..t] {
            let i = chain[pos];
            report.attempts += 1;
            match oracle.probe(i) {
                Ok(label) => answered.push((i, label)),
                Err(_) => report.dropped += 1,
            }
        }
        if !answered.is_empty() {
            let weight = m as f64 / answered.len() as f64;
            for (i, label) in answered {
                slots[i] = Some((label, weight));
            }
        }
    }
    report.finalize(&stats_before, &oracle.stats());
    let probes_used = oracle.probes_used() - before;
    Ok(close_sigma(
        points,
        chains,
        Some(&table),
        &slots,
        probes_used,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InMemoryOracle;
    use mc_geom::{Label, LabeledSet};

    fn staircase_2d(n: usize) -> LabeledSet {
        let mut ls = LabeledSet::empty(2);
        for i in 0..n {
            let x = (i % 100) as f64;
            let y = (i / 100) as f64;
            ls.push(&[x, y], Label::from_bool(x + y >= 75.0));
        }
        ls
    }

    #[test]
    fn budget_is_respected() {
        let ls = staircase_2d(1000);
        for budget in [0usize, 10, 100, 500, 1000, 5000] {
            let mut oracle = InMemoryOracle::from_labeled(&ls);
            let sol = try_solve_with_budget(ls.points(), &mut oracle, budget, 1).unwrap();
            assert!(
                sol.probes_used <= budget.min(1000),
                "budget {budget}: used {}",
                sol.probes_used
            );
            // Every answered probe is one Σ entry.
            assert_eq!(sol.sigma.len(), sol.probes_used, "budget {budget}");
        }
    }

    #[test]
    fn full_budget_recovers_exact_optimum() {
        let ls = staircase_2d(600);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = try_solve_with_budget(ls.points(), &mut oracle, 600, 2).unwrap();
        assert_eq!(sol.probes_used, 600);
        assert_eq!(sol.classifier.error_on(&ls), 0);
    }

    #[test]
    fn error_improves_with_budget() {
        let ls = staircase_2d(2000);
        let err_at = |budget: usize| {
            // Average over seeds to de-noise the comparison.
            let mut total = 0u64;
            for seed in 0..5 {
                let mut oracle = InMemoryOracle::from_labeled(&ls);
                let sol = try_solve_with_budget(ls.points(), &mut oracle, budget, seed).unwrap();
                total += sol.classifier.error_on(&ls);
            }
            total
        };
        let coarse = err_at(60);
        let fine = err_at(1200);
        assert!(
            fine <= coarse,
            "error should not get worse with 20x budget: {coarse} -> {fine}"
        );
    }

    #[test]
    fn zero_budget_returns_trivial_classifier() {
        let ls = staircase_2d(50);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = try_solve_with_budget(ls.points(), &mut oracle, 0, 3).unwrap();
        assert_eq!(sol.probes_used, 0);
        assert!(sol.sigma.is_empty());
    }

    #[test]
    fn empty_input() {
        let ls = LabeledSet::empty(3);
        let mut oracle = InMemoryOracle::from_labeled(&ls);
        let sol = try_solve_with_budget(ls.points(), &mut oracle, 10, 4).unwrap();
        assert_eq!(sol.probes_used, 0);
    }

    #[test]
    fn budget_respected_under_failure_injection() {
        use crate::oracle::{FlakyOracle, MeteredOracle, RetryOracle, RetryPolicy};
        let ls = staircase_2d(800);
        for budget in [25usize, 100, 400] {
            let flaky = FlakyOracle::from_labeled(&ls, 0.25, 31);
            let metered = MeteredOracle::new(flaky, budget);
            let mut oracle =
                RetryOracle::new(metered, RetryPolicy::default().with_max_attempts(12));
            let sol = try_solve_with_budget(ls.points(), &mut oracle, budget, 4).unwrap();
            assert!(
                sol.probes_used <= budget,
                "budget {budget}: used {}",
                sol.probes_used
            );
            assert!(sol.sigma.len() <= budget);
        }
    }

    #[test]
    fn abstentions_degrade_budgeted_solve() {
        use crate::classifier::find_monotonicity_violation;
        use crate::oracle::AbstainingOracle;
        let ls = staircase_2d(500);
        let mut oracle = AbstainingOracle::from_labeled(&ls, 0.15, 8);
        let sol = try_solve_with_budget(ls.points(), &mut oracle, 500, 2).unwrap();
        assert!(sol.report.degraded);
        assert!(sol.report.dropped > 0);
        assert!(find_monotonicity_violation(
            ls.points(),
            &sol.classifier.classify_set(ls.points())
        )
        .is_none());
        assert!(sol.probes_used < 500);
    }

    #[test]
    fn try_budget_rejects_size_mismatch() {
        use crate::oracle::InMemoryOracle;
        let ls = staircase_2d(10);
        let mut oracle = InMemoryOracle::new(vec![mc_geom::Label::One; 4]);
        assert!(try_solve_with_budget(ls.points(), &mut oracle, 5, 0).is_err());
    }

    #[test]
    fn deterministic_by_seed() {
        let ls = staircase_2d(400);
        let run = |seed| {
            let mut oracle = InMemoryOracle::from_labeled(&ls);
            try_solve_with_budget(ls.points(), &mut oracle, 150, seed)
                .unwrap()
                .probes_used
        };
        assert_eq!(run(9), run(9));
    }
}
