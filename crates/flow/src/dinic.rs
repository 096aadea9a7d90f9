//! Dinic's blocking-flow algorithm, `O(V²·E)`.
//!
//! This is the workspace's default max-flow solver: on the shallow
//! three-layer networks produced by the passive classifier (source →
//! label-0 points → label-1 points → sink, Section 5.1 of the paper) it
//! runs in `O(E·sqrt(V))`-like time in practice and comfortably meets the
//! `T_maxflow(n)` budget of Theorem 4.
//!
//! The front-end here is thin: it freezes the network into the CSR
//! layout and runs the reusable [`DinicEngine`], which owns the BFS/DFS
//! phases and their scratch buffers (see [`crate::csr`]), from the
//! network's initial flow ([`FlowNetwork::set_initial_flow`]).

use crate::csr::DinicEngine;
use crate::network::FlowNetwork;
use crate::solution::FlowSolution;
use crate::MaxFlowAlgorithm;

/// Dinic's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dinic;

impl MaxFlowAlgorithm for Dinic {
    fn name(&self) -> &'static str {
        "dinic"
    }

    fn solve(&self, net: &FlowNetwork) -> FlowSolution {
        self.solve_cancellable(net, &mc_obs::CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    fn solve_cancellable(
        &self,
        net: &FlowNetwork,
        token: &mc_obs::CancelToken,
    ) -> Result<FlowSolution, mc_obs::Cancelled> {
        let _span = mc_obs::span("maxflow");
        mc_obs::counter_add("flow.edges", net.num_edges() as u64);
        let (mut residual, surrogate) = net.initial_residuals();
        let csr = net.freeze();
        let mut engine = DinicEngine::new();
        // The engine augments the network's initial flow, if any, and
        // returns only what it added.
        let added = engine.max_flow(&csr, &mut residual, token);
        engine.flush_stats();
        let value = net.initial_flow_value() + added?;
        Ok(FlowSolution::new(value, residual, surrogate, csr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Capacity;

    #[test]
    fn trivial_single_edge() {
        let mut net = FlowNetwork::new(2, 0, 1);
        net.add_edge(0, 1, 4.5);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 4.5);
        sol.validate(&net).unwrap();
    }

    #[test]
    fn diamond() {
        // Classic: two disjoint paths of bottleneck 3 and 2.
        let mut net = FlowNetwork::new(4, 0, 3);
        net.add_edge(0, 1, 3.0);
        net.add_edge(1, 3, 5.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(2, 3, 2.0);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 5.0);
        sol.validate(&net).unwrap();
    }

    #[test]
    fn clrs_figure() {
        // The CLRS example network: max flow 23.
        let mut net = FlowNetwork::new(6, 0, 5);
        net.add_edge(0, 1, 16.0);
        net.add_edge(0, 2, 13.0);
        net.add_edge(1, 3, 12.0);
        net.add_edge(2, 1, 4.0);
        net.add_edge(2, 4, 14.0);
        net.add_edge(3, 2, 9.0);
        net.add_edge(3, 5, 20.0);
        net.add_edge(4, 3, 7.0);
        net.add_edge(4, 5, 4.0);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 23.0);
        sol.validate(&net).unwrap();
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(4, 0, 3);
        net.add_edge(0, 1, 10.0);
        net.add_edge(2, 3, 10.0);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 0.0);
        assert!(sol.min_cut(&net).cut_edges.is_empty());
    }

    #[test]
    fn infinite_middle_edge_not_cut() {
        // source -1-> a -inf-> b -2-> sink: max flow 1, cut = {source->a}.
        let mut net = FlowNetwork::new(4, 0, 3);
        let e0 = net.add_edge(0, 1, 1.0);
        net.add_edge(1, 2, Capacity::Infinite);
        net.add_edge(2, 3, 2.0);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 1.0);
        let cut = sol.min_cut(&net);
        assert_eq!(cut.cut_edges, vec![e0]);
        assert!(!cut.crosses_infinite);
        assert_eq!(cut.weight, 1.0);
    }

    #[test]
    fn all_infinite_reports_unbounded() {
        let mut net = FlowNetwork::new(2, 0, 1);
        net.add_edge(0, 1, Capacity::Infinite);
        let sol = Dinic.solve(&net);
        assert!(net.max_flow_value_is_unbounded(sol.value()));
        let cut = sol.min_cut(&net);
        assert!(cut.crosses_infinite);
    }

    #[test]
    fn min_cut_weight_equals_flow_value() {
        let mut net = FlowNetwork::new(6, 0, 5);
        net.add_edge(0, 1, 10.0);
        net.add_edge(0, 2, 10.0);
        net.add_edge(1, 2, 2.0);
        net.add_edge(1, 3, 4.0);
        net.add_edge(1, 4, 8.0);
        net.add_edge(2, 4, 9.0);
        net.add_edge(4, 3, 6.0);
        net.add_edge(3, 5, 10.0);
        net.add_edge(4, 5, 10.0);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 19.0);
        let cut = sol.min_cut(&net);
        assert!((cut.weight - sol.value()).abs() < 1e-9);
        sol.validate(&net).unwrap();
    }

    #[test]
    fn initial_flow_is_augmented_and_counted() {
        // Route 1 of the diamond's 5 units up front, through a path the
        // maximum flow does not keep as is: the solvers add the other 4.
        let mut net = FlowNetwork::new(4, 0, 3);
        net.add_edge(0, 1, 3.0);
        net.add_edge(1, 3, 5.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(2, 3, 2.0);
        net.add_edge(1, 2, Capacity::Infinite);
        net.set_initial_flow(vec![1.0, 0.0, 0.0, 1.0, 1.0]);
        for sol in [Dinic.solve(&net), crate::EdmondsKarp.solve(&net)] {
            assert_eq!(sol.value(), 5.0);
            sol.validate(&net).unwrap();
            assert_eq!(sol.min_cut(&net).weight, 5.0);
        }
    }

    #[test]
    fn flow_on_reports_per_edge_flow() {
        let mut net = FlowNetwork::new(3, 0, 2);
        let e0 = net.add_edge(0, 1, 3.0);
        let e1 = net.add_edge(1, 2, 2.0);
        let sol = Dinic.solve(&net);
        assert_eq!(sol.value(), 2.0);
        assert_eq!(sol.flow_on(&net, e0), 2.0);
        assert_eq!(sol.flow_on(&net, e1), 2.0);
    }
}
