//! Edmonds–Karp (BFS augmenting paths), `O(V·E²)`.
//!
//! Kept as a slow, obviously-correct reference implementation used in
//! property tests to cross-validate [`Dinic`](crate::Dinic), and as a
//! baseline in the flow micro-benchmarks (experiment E9).

use crate::network::FlowNetwork;
use crate::solution::FlowSolution;
use crate::{MaxFlowAlgorithm, EPS};
use std::collections::VecDeque;

/// Edmonds–Karp algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdmondsKarp;

impl MaxFlowAlgorithm for EdmondsKarp {
    fn name(&self) -> &'static str {
        "edmonds-karp"
    }

    fn solve(&self, net: &FlowNetwork) -> FlowSolution {
        let (mut residual, surrogate) = net.initial_residuals();
        let csr = net.freeze();
        let n = net.num_nodes();
        let (s, t) = (net.source(), net.sink());
        // Augments from the network's initial flow, like Dinic.
        let mut value = net.initial_flow_value();
        // parent_edge[v] = residual edge used to reach v in the BFS.
        let mut parent_edge = vec![usize::MAX; n];

        loop {
            parent_edge.iter_mut().for_each(|p| *p = usize::MAX);
            let mut queue = VecDeque::new();
            queue.push_back(s);
            let mut reached = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for &e in csr.adjacent(u) {
                    let e = e as usize;
                    let v = csr.head(e);
                    if residual[e] > EPS && v != s && parent_edge[v] == usize::MAX {
                        parent_edge[v] = e;
                        if v == t {
                            reached = true;
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !reached {
                break;
            }
            // Find bottleneck along the path.
            let mut bottleneck = f64::INFINITY;
            let mut v = t;
            while v != s {
                let e = parent_edge[v];
                bottleneck = bottleneck.min(residual[e]);
                v = csr.head(e ^ 1);
            }
            // Augment.
            let mut v = t;
            while v != s {
                let e = parent_edge[v];
                residual[e] -= bottleneck;
                residual[e ^ 1] += bottleneck;
                v = csr.head(e ^ 1);
            }
            value += bottleneck;
        }

        FlowSolution::new(value, residual, surrogate, csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clrs_example() {
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
        let sol = EdmondsKarp.solve(&net);
        assert_eq!(sol.value(), 23.0);
        sol.validate(&net).unwrap();
    }

    #[test]
    fn zero_capacity_edges_ignored() {
        let mut net = FlowNetwork::new(3, 0, 2);
        net.add_edge(0, 1, 0.0);
        net.add_edge(1, 2, 5.0);
        let sol = EdmondsKarp.solve(&net);
        assert_eq!(sol.value(), 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::new(4, 0, 3);
        net.add_edge(0, 1, 0.5);
        net.add_edge(0, 2, 0.25);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        let sol = EdmondsKarp.solve(&net);
        assert!((sol.value() - 0.75).abs() < 1e-12);
        sol.validate(&net).unwrap();
    }
}
