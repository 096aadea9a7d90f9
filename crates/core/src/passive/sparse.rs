//! Sparsified flow networks for low-dimensional inputs.
//!
//! The paper's Section-5 construction inserts a type-3 edge for **every**
//! dominating pair `(p, q) ∈ P₀^con × P₁^con`, which is `Θ(n²)` edges —
//! fine for the theory (the `O(dn²)` bound absorbs it), but a memory wall
//! at `n ≈ 10⁵`, exactly the Σ sizes Theorem 3 produces on large inputs.
//!
//! For `d ≤ 2` the bipartite dominance relation admits a classic
//! `O(n log n)`-edge sparsification that preserves *connectivity* (and
//! therefore min cuts, since the replaced edges are all infinite):
//! divide and conquer on the `x`-order. At each split, the pairs
//! crossing it (zero on the right, one on the left) are exactly those
//! with `y_one ≤ y_zero` — a 1D containment structure expressible with a
//! *ladder*: auxiliary nodes `a_1 → a_0 → …` over the left ones sorted
//! by `y`, with each `a_i` feeding one `o_i` and the previous rung, and
//! each right zero entering the highest rung it dominates. All gadget
//! edges are infinite, so no new finite cuts are introduced, and a zero
//! reaches a one through the gadget iff it dominates it.
//!
//! The gadget reads rank columns, so it sees what the chain ladder
//! sees: ranks merge `-0.0` and `+0.0`, and equal coordinates share a
//! rank. 1D inputs embed as `(r, r)` and reuse the same builder.
//!
//! Similarly, [`contending_sweep`] finds the contending points with a
//! single `O(n log n)` sweep instead of the generic `O(d·n²)` scan.

use crate::passive::contending::ContendingPoints;
use crate::passive::pipeline::ClassifierNetwork;
use mc_flow::{Capacity, FlowNetwork, NodeId};
use mc_geom::{Label, RankTable};

/// The `(x, y)` rank columns of a `d ≤ 2` table: its two columns, or
/// its one column twice for `d = 1`.
fn xy_columns(table: &RankTable) -> (&[u32], &[u32]) {
    match table.dim() {
        1 => (table.column(0), table.column(0)),
        2 => (table.column(0), table.column(1)),
        d => unreachable!("the sweep gadget requires 1 ≤ d ≤ 2, got {d}"),
    }
}

/// Builds the sparsified network for `d ≤ 2` over the contending points
/// `con` of `table`.
pub(crate) fn build_sparse_network(
    table: &RankTable,
    weights: &[f64],
    con: &ContendingPoints,
) -> ClassifierNetwork {
    let _span = mc_obs::span("sweep");
    let (x, y) = xy_columns(table);
    let source = 0;
    let sink = 1;
    let mut net = FlowNetwork::new(2 + con.len(), source, sink);
    let zero_nodes: Vec<NodeId> = (0..con.zeros.len()).map(|i| 2 + i).collect();
    let one_nodes: Vec<NodeId> = (0..con.ones.len())
        .map(|i| 2 + con.zeros.len() + i)
        .collect();
    for (zi, &p) in con.zeros.iter().enumerate() {
        net.add_edge(source, zero_nodes[zi], weights[p]);
    }
    for (oi, &q) in con.ones.iter().enumerate() {
        net.add_edge(one_nodes[oi], sink, weights[q]);
    }

    // Items: (x, y, is_one, node). Sorted stably by (x, y, ones-first) so
    // that on full rank ties a zero lands on the *right* side of the
    // split that separates it from an equal one (reflexive dominance
    // counts).
    let mut items: Vec<SweepItem> = Vec::with_capacity(con.len());
    for (zi, &p) in con.zeros.iter().enumerate() {
        items.push((x[p], y[p], false, zero_nodes[zi]));
    }
    for (oi, &q) in con.ones.iter().enumerate() {
        items.push((x[q], y[q], true, one_nodes[oi]));
    }
    items.sort_by_key(|&(x, y, is_one, _)| (x, y, !is_one));

    build_recursive(&mut net, &items);

    ClassifierNetwork {
        net,
        zero_nodes,
        one_nodes,
    }
}

/// `(x rank, y rank, is_one, node)` of one contending point.
type SweepItem = (u32, u32, bool, NodeId);

/// Recursively wires zeros on the right half to ones on the left half.
fn build_recursive(net: &mut FlowNetwork, items: &[SweepItem]) {
    if items.len() <= 1 {
        return;
    }
    let mid = items.len() / 2;
    let (left, right) = items.split_at(mid);

    // Left ones sorted by y ascending (stable: already sorted by (x, y),
    // so re-sort by y only).
    let mut ones_left: Vec<(u32, NodeId)> = left
        .iter()
        .filter(|it| it.2)
        .map(|it| (it.1, it.3))
        .collect();
    ones_left.sort_by_key(|&(y, _)| y);
    if !ones_left.is_empty() {
        // Ladder: aux[i] reaches ones_left[0..=i].
        let mut aux: Vec<NodeId> = Vec::with_capacity(ones_left.len());
        for (i, &(_, one_node)) in ones_left.iter().enumerate() {
            let a = net.add_node();
            net.add_edge(a, one_node, Capacity::Infinite);
            if i > 0 {
                net.add_edge(a, aux[i - 1], Capacity::Infinite);
            }
            aux.push(a);
        }
        for it in right.iter().filter(|it| !it.2) {
            // Highest rung whose one has y ≤ the zero's y.
            let count = ones_left.partition_point(|&(y, _)| y <= it.1);
            if count > 0 {
                net.add_edge(it.3, aux[count - 1], Capacity::Infinite);
            }
        }
    }

    build_recursive(net, left);
    build_recursive(net, right);
}

/// Sweep-based contending-point computation for `d ≤ 2` in `O(n log n)`.
///
/// A label-0 point contends iff some label-1 point is coordinate-wise
/// `≤` it: sweeping in `(x, y, ones-first)` order, that is equivalent to
/// "the minimum `y` among ones seen so far is `≤` its `y`". The label-1
/// side is symmetric with the reversed sweep.
pub(crate) fn contending_sweep(table: &RankTable, labels: &[Label]) -> ContendingPoints {
    let (x, y) = xy_columns(table);
    let mut order: Vec<usize> = (0..table.len()).collect();
    // Ones first on full ties (a one at identical coordinates is "≤" for
    // the forward sweep and "≥" for the backward sweep).
    order.sort_by_key(|&i| (x[i], y[i], labels[i].is_zero()));

    // Forward: zeros contending against ones below-left.
    let mut zeros = Vec::new();
    let mut min_one_y = u32::MAX;
    let mut seen_one = false;
    for &i in &order {
        if labels[i].is_one() {
            min_one_y = min_one_y.min(y[i]);
            seen_one = true;
        } else if seen_one && min_one_y <= y[i] {
            zeros.push(i);
        }
    }
    // Backward: ones contending against zeros above-right. Ones sort
    // before zeros on ties, so in reverse order zeros at identical
    // coordinates are seen before the one — as required.
    let mut ones = Vec::new();
    let mut max_zero_y = None;
    for &i in order.iter().rev() {
        if labels[i].is_zero() {
            max_zero_y = max_zero_y.max(Some(y[i]));
        } else if max_zero_y >= Some(y[i]) {
            ones.push(i);
        }
    }
    zeros.sort_unstable();
    ones.sort_unstable();
    ContendingPoints { zeros, ones }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_flow::{Dinic, MaxFlowAlgorithm};
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

    fn sweep(ws: &WeightedSet) -> ContendingPoints {
        contending_sweep(&RankTable::build(ws.points()), ws.labels())
    }

    fn network(ws: &WeightedSet, con: &ContendingPoints) -> ClassifierNetwork {
        build_sparse_network(&RankTable::build(ws.points()), ws.weights(), con)
    }

    #[test]
    fn sweep_matches_generic_contending() {
        let mut rng = StdRng::seed_from_u64(0x5EEE);
        for dim in [1usize, 2] {
            for trial in 0..60 {
                let n = rng.gen_range(0..60);
                let ws = random_weighted(n, dim, 5.0, &mut rng);
                let got = sweep(&ws);
                let generic = ContendingPoints::compute_generic(&ws);
                assert_eq!(got, generic, "dim {dim} trial {trial}: {ws:?}");
            }
        }
    }

    #[test]
    fn sparse_min_cut_matches_dense() {
        let mut rng = StdRng::seed_from_u64(0x5EEF);
        for dim in [1usize, 2] {
            for trial in 0..40 {
                let n = rng.gen_range(1..40);
                let ws = random_weighted(n, dim, 4.0, &mut rng);
                let con = ContendingPoints::compute_generic(&ws);
                if con.is_empty() {
                    continue;
                }
                // Dense network.
                let mut dense = FlowNetwork::new(2 + con.len(), 0, 1);
                for (zi, &p) in con.zeros.iter().enumerate() {
                    dense.add_edge(0, 2 + zi, ws.weight(p));
                }
                for (oi, &q) in con.ones.iter().enumerate() {
                    dense.add_edge(2 + con.zeros.len() + oi, 1, ws.weight(q));
                }
                for (zi, &p) in con.zeros.iter().enumerate() {
                    for (oi, &q) in con.ones.iter().enumerate() {
                        if ws.points().dominates(p, q) {
                            dense.add_edge(2 + zi, 2 + con.zeros.len() + oi, Capacity::Infinite);
                        }
                    }
                }
                let dense_value = Dinic.solve(&dense).value();
                let sparse = network(&ws, &con);
                let sparse_value = Dinic.solve(&sparse.net).value();
                assert!(
                    (dense_value - sparse_value).abs() < 1e-9,
                    "dim {dim} trial {trial}: dense {dense_value} vs sparse {sparse_value}\n{ws:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_edge_count_is_near_linear() {
        let mut rng = StdRng::seed_from_u64(0x5EF0);
        let ws = random_weighted(4000, 2, 1e6, &mut rng);
        let con = sweep(&ws);
        let sparse = network(&ws, &con);
        let n = con.len();
        let bound = 20 * n * ((n as f64).log2().ceil() as usize + 1) + 2 * n + 16;
        assert!(
            sparse.net.num_edges() <= bound,
            "edges {} exceed O(n log n) bound {bound} for n = {n}",
            sparse.net.num_edges()
        );
    }

    #[test]
    fn signed_zero_duplicates_contend() {
        // -0.0 and +0.0 are the same coordinate under IEEE dominance;
        // their ranks must not separate them.
        let mut ws = WeightedSet::empty(2);
        ws.push(&[0.0, -0.0], Label::One, 5.0);
        ws.push(&[-0.0, 0.0], Label::Zero, 2.0);
        let con = sweep(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
        assert_eq!(con, ContendingPoints::compute_generic(&ws));
        let sparse = network(&ws, &con);
        assert_eq!(Dinic.solve(&sparse.net).value(), 2.0);
    }

    #[test]
    fn duplicate_points_cross_labels() {
        // Equal coordinates, different labels: the pair must contend and
        // the sparse network must charge min(weight) as the cut.
        let mut ws = WeightedSet::empty(2);
        ws.push(&[3.0, 3.0], Label::One, 7.0);
        ws.push(&[3.0, 3.0], Label::Zero, 2.0);
        let con = sweep(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
        let sparse = network(&ws, &con);
        assert_eq!(Dinic.solve(&sparse.net).value(), 2.0);
    }
}
