//! Property tests for the max-flow substrate, including infinite
//! capacities and gadget-like deep networks.

use mc_flow::{all_algorithms, Capacity, Dinic, EdmondsKarp, FlowNetwork, MaxFlowAlgorithm};
use proptest::prelude::*;

fn arbitrary_network(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, Option<u32>)>)> {
    (3usize..max_nodes).prop_flat_map(move |n| {
        let edges = prop::collection::vec(
            (0usize..n, 0usize..n, prop::option::weighted(0.9, 0u32..40)),
            0..max_edges,
        );
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize, Option<u32>)]) -> FlowNetwork {
    let mut net = FlowNetwork::new(n, 0, n - 1);
    for &(u, v, cap) in edges {
        if u == v || v == 0 || u == n - 1 {
            continue;
        }
        match cap {
            Some(c) => net.add_edge(u, v, c as f64),
            None => net.add_edge(u, v, Capacity::Infinite),
        };
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All solvers agree; flows validate; min cut = max flow whenever the
    /// flow is finite (no all-infinite cut).
    #[test]
    fn solvers_agree_with_infinite_edges((n, edges) in arbitrary_network(12, 40)) {
        let net = build(n, &edges);
        let reference = Dinic.solve(&net);
        let finite = !net.max_flow_value_is_unbounded(reference.value());
        for algo in all_algorithms() {
            let sol = algo.solve(&net);
            prop_assert!((sol.value() - reference.value()).abs() < 1e-6,
                "{} = {} vs dinic {}", algo.name(), sol.value(), reference.value());
            prop_assert!(sol.validate(&net).is_ok(), "{}: invalid flow", algo.name());
            let cut = sol.min_cut(&net);
            if finite {
                prop_assert!(!cut.crosses_infinite);
                prop_assert!((cut.weight - sol.value()).abs() < 1e-6);
            } else {
                prop_assert!(cut.crosses_infinite);
            }
        }
    }

    /// Dinic and Edmonds–Karp read the same cut: the residual-reachable
    /// source side is the same for every maximum flow, so the cut edges
    /// and their weight must match exactly, infinite edges included.
    #[test]
    fn dinic_and_edmonds_karp_read_the_same_cut((n, edges) in arbitrary_network(14, 50)) {
        let net = build(n, &edges);
        let dinic = Dinic.solve(&net);
        let ek = EdmondsKarp.solve(&net);
        prop_assert!((dinic.value() - ek.value()).abs() < 1e-6);
        let (a, b) = (dinic.min_cut(&net), ek.min_cut(&net));
        prop_assert_eq!(&a.source_side, &b.source_side);
        prop_assert_eq!(&a.cut_edges, &b.cut_edges);
        prop_assert_eq!(a.weight, b.weight);
        prop_assert_eq!(a.crosses_infinite, b.crosses_infinite);
    }

    /// Monotonicity: adding an edge never decreases the max flow, and a
    /// finite flow grows by at most the added capacity. (The growth bound
    /// only applies to finite flows: an unbounded flow is reported via a
    /// surrogate value that scales with the total finite capacity.)
    #[test]
    fn adding_edges_is_monotone((n, edges) in arbitrary_network(10, 25)) {
        let net = build(n, &edges);
        let before = Dinic.solve(&net).value();
        let unbounded = net.max_flow_value_is_unbounded(before);
        let mut bigger = net.clone();
        bigger.add_edge(0, n - 1, 5.0);
        let after = Dinic.solve(&bigger).value();
        prop_assert!(after >= before - 1e-9);
        if !unbounded {
            prop_assert!(after <= before + 5.0 + 1e-9);
        }
    }
}

/// A deep ladder network: source → chain of k aux nodes → sink. Checks
/// the iterative Dinic handles Θ(V)-long augmenting paths (this is the
/// shape the sparsified classifier networks produce).
#[test]
fn deep_ladder_no_stack_overflow() {
    let k = 200_000;
    let mut net = FlowNetwork::new(k + 2, 0, k + 1);
    net.add_edge(0, 1, 3.0);
    for i in 1..k {
        net.add_edge(i, i + 1, Capacity::Infinite);
    }
    net.add_edge(k, k + 1, 2.0);
    let sol = Dinic.solve(&net);
    assert_eq!(sol.value(), 2.0);
    let cut = sol.min_cut(&net);
    assert_eq!(cut.weight, 2.0);
}
