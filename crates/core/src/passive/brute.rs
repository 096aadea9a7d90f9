//! The passive solver's slow references:
//!
//! * [`solve_passive_brute_force`] — the exponential baseline from
//!   Section 1.2 ("examine every possible subset S ⊆ P"), a correctness
//!   oracle for the flow-based solver and the E6 experiment's timing
//!   contrast;
//! * [`solve_passive_dense`] — the paper-literal Section-5.1 network,
//!   one infinite type-3 edge per dominating pair, which the production
//!   gadgets are diffed against.

use crate::classifier::MonotoneClassifier;
use crate::passive::contending::ContendingPoints;
use crate::passive::solver::{solve_network, PassiveSolution};
use crate::passive::sparse::ClassifierNetwork;
use mc_flow::{Capacity, Dinic, FlowNetwork};
use mc_geom::{bitmask_of, iter_ones, DominanceIndex, Label, WeightedSet};
use mc_obs::CancelToken;

/// Optimal passive solve by enumerating all `2^n` label assignments and
/// keeping the best monotone one.
///
/// # Panics
///
/// Panics if `data.len() > 22` — this is a test oracle, not a production
/// path.
#[allow(clippy::needless_range_loop)]
pub fn solve_passive_brute_force(data: &WeightedSet) -> PassiveSolution {
    let n = data.len();
    assert!(n <= 22, "brute force is exponential; n = {n} too large");
    if n == 0 {
        return PassiveSolution::empty(data.dim());
    }
    let points = data.points();
    // dominated_by[i] = bitmask of points j (j != i) that dominate i.
    let mut dominated_by = vec![0u32; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && points.dominates(j, i) {
                dominated_by[i] |= 1 << j;
            }
        }
    }
    let mut best_mask = 0u32;
    let mut best_err = f64::INFINITY;
    'mask: for mask in 0u32..(1u32 << n) {
        // Monotone ⟺ the 1-set is an up-set: every point dominating a
        // 1-assigned point is itself 1-assigned.
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if dominated_by[i] & !mask != 0 {
                continue 'mask;
            }
        }
        let mut err = 0.0;
        for i in 0..n {
            let assigned_one = mask >> i & 1 == 1;
            if assigned_one != data.label(i).is_one() {
                err += data.weight(i);
            }
        }
        if err < best_err {
            best_err = err;
            best_mask = mask;
        }
    }
    let assignment: Vec<Label> = (0..n)
        .map(|i| Label::from_bool(best_mask >> i & 1 == 1))
        .collect();
    let positive: Vec<bool> = assignment.iter().map(|l| l.is_one()).collect();
    PassiveSolution {
        classifier: MonotoneClassifier::from_positive_points(points, &positive),
        weighted_error: best_err,
        assignment,
        contending: ContendingPoints::compute(data).len(),
    }
}

/// Optimal passive solve over the paper's literal Section-5.1 network:
/// contending points from the independent pairwise scan
/// ([`ContendingPoints::compute_generic_parallel`]), one infinite type-3
/// edge per dominating `(zero, one)` pair read off a full
/// [`DominanceIndex`], then Dinic and the same cut readout as
/// [`crate::passive::PassiveSolver`]. `Θ(n²)` time, edges and matrix
/// bits: the slow reference the production gadgets are tested and
/// benchmarked against, not a production path.
pub fn solve_passive_dense(data: &WeightedSet) -> PassiveSolution {
    if data.is_empty() {
        return PassiveSolution::empty(data.dim());
    }
    let con = ContendingPoints::compute_generic_parallel(data);
    let network = (!con.is_empty())
        .then(|| build_dense_network(data, &con, &DominanceIndex::build(data.points())));
    solve_network(&Dinic, data, con, network, &CancelToken::never(), false)
        .expect("a never-token cannot cancel")
        .0
}

/// The Section-5.1 network over `con`: one infinite type-3 edge per
/// dominating `(zero, one)` pair, enumerated as set bits of
/// `row(q) AND zeros_mask` per contending label-1 point `q`. Each zero
/// node's forward edges arrive in ascending one-index order and each one
/// node's residual edges in ascending zero-index order.
pub(crate) fn build_dense_network(
    data: &WeightedSet,
    con: &ContendingPoints,
    index: &DominanceIndex,
) -> ClassifierNetwork {
    let n = data.len();
    let source = 0;
    let sink = 1;
    let mut net = FlowNetwork::new(2 + con.len(), source, sink);
    let zero_nodes: Vec<usize> = (0..con.zeros.len()).map(|i| 2 + i).collect();
    let one_nodes: Vec<usize> = (0..con.ones.len())
        .map(|i| 2 + con.zeros.len() + i)
        .collect();
    for (zi, &p) in con.zeros.iter().enumerate() {
        net.add_edge(source, zero_nodes[zi], data.weight(p));
    }
    for (oi, &q) in con.ones.iter().enumerate() {
        net.add_edge(one_nodes[oi], sink, data.weight(q));
    }
    // Global index → position in `con.zeros` (which is ascending, so bit
    // order and zero-index order coincide).
    let mut zero_pos = vec![u32::MAX; n];
    for (zi, &p) in con.zeros.iter().enumerate() {
        zero_pos[p] = zi as u32;
    }
    let zeros_mask = bitmask_of(n, con.zeros.iter().copied());
    let mut row = Vec::with_capacity(index.words());
    for (oi, &q) in con.ones.iter().enumerate() {
        if index.dominators_and_into(q, &zeros_mask, &mut row) {
            for p in iter_ones(&row) {
                let zi = zero_pos[p] as usize;
                net.add_edge(zero_nodes[zi], one_nodes[oi], Capacity::Infinite);
            }
        }
    }
    ClassifierNetwork {
        net,
        zero_nodes,
        one_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::solver::solve_passive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flow_solver_matches_brute_force_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0xB0B);
        for dim in [1usize, 2, 3] {
            for trial in 0..40 {
                let n = rng.gen_range(0..11);
                let mut ws = WeightedSet::empty(dim);
                for _ in 0..n {
                    let coords: Vec<f64> = (0..dim)
                        .map(|_| rng.gen_range(0.0f64..4.0).round())
                        .collect();
                    let label = Label::from_bool(rng.gen_bool(0.5));
                    let weight = rng.gen_range(1..10) as f64;
                    ws.push(&coords, label, weight);
                }
                let flow = solve_passive(&ws);
                let dense = solve_passive_dense(&ws);
                let brute = solve_passive_brute_force(&ws);
                for (what, sol) in [("flow", &flow), ("dense", &dense)] {
                    assert!(
                        (sol.weighted_error - brute.weighted_error).abs() < 1e-9,
                        "dim {dim} trial {trial}: {what} {} vs brute {} on {ws:?}",
                        sol.weighted_error,
                        brute.weighted_error
                    );
                }
                assert_eq!(flow.contending, dense.contending, "dim {dim} trial {trial}");
            }
        }
    }

    #[test]
    fn unweighted_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for trial in 0..30 {
            let n = rng.gen_range(1..13);
            let mut ws = WeightedSet::empty(2);
            for _ in 0..n {
                let coords = vec![
                    rng.gen_range(0.0f64..3.0).round(),
                    rng.gen_range(0.0f64..3.0).round(),
                ];
                ws.push(&coords, Label::from_bool(rng.gen_bool(0.5)), 1.0);
            }
            let flow = solve_passive(&ws);
            let brute = solve_passive_brute_force(&ws);
            assert_eq!(
                flow.weighted_error, brute.weighted_error,
                "trial {trial}: {ws:?}"
            );
        }
    }
}
