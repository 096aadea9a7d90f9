//! Solver-independent solution object: flow values, validation, min cut.

use crate::csr::CsrNetwork;
use crate::network::{EdgeId, FlowNetwork, NodeId};
use crate::EPS;

/// A computed maximum flow, with enough residual information to extract
/// per-edge flows and a minimum cut.
#[derive(Debug, Clone)]
pub struct FlowSolution {
    value: f64,
    /// Residual capacity of every residual edge after the flow (paired
    /// layout, matching the network's edge ids).
    residual: Vec<f64>,
    /// Surrogate used for infinite capacities during the solve.
    surrogate: f64,
    /// The frozen adjacency the solver ran on, which the cut readout
    /// walks again.
    csr: CsrNetwork,
}

impl FlowSolution {
    pub(crate) fn new(value: f64, residual: Vec<f64>, surrogate: f64, csr: CsrNetwork) -> Self {
        Self {
            value,
            residual,
            surrogate,
            csr,
        }
    }

    /// The network's initial flow
    /// ([`FlowNetwork::set_initial_flow`]) as a solution, before any
    /// augmentation, so a seed can be audited with
    /// [`validate`](Self::validate) and [`flow_on`](Self::flow_on). It is
    /// a maximum flow only if the seed is one.
    pub fn initial(net: &FlowNetwork) -> Self {
        let (residual, surrogate) = net.initial_residuals();
        Self::new(net.initial_flow_value(), residual, surrogate, net.freeze())
    }

    /// The max-flow value (equivalently, by Lemmas 7 and 8 of the paper,
    /// the minimum weight of all cut-edge sets).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Flow routed through forward edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a forward edge id of `net`.
    pub fn flow_on(&self, net: &FlowNetwork, e: EdgeId) -> f64 {
        assert_eq!(e % 2, 0, "flow_on() takes forward edge ids");
        let initial = match net.capacity(e) {
            crate::network::Capacity::Finite(c) => c,
            crate::network::Capacity::Infinite => self.surrogate,
        };
        (initial - self.residual[e]).max(0.0)
    }

    /// Residual capacity of residual edge `e` (forward or backward).
    #[allow(dead_code)]
    pub(crate) fn residual(&self, e: EdgeId) -> f64 {
        self.residual[e]
    }

    /// Checks capacity and conservation constraints (Section 2 of the
    /// paper), returning a human-readable violation if any.
    #[allow(clippy::needless_range_loop)]
    pub fn validate(&self, net: &FlowNetwork) -> Result<(), String> {
        let mut net_out = vec![0.0f64; net.num_nodes()];
        for e in (0..net.num_edges() * 2).step_by(2) {
            let f = self.flow_on(net, e);
            if f < -EPS {
                return Err(format!("edge {e}: negative flow {f}"));
            }
            if let Some(c) = net.capacity(e).as_finite() {
                if f > c + EPS {
                    return Err(format!("edge {e}: flow {f} exceeds capacity {c}"));
                }
            }
            let (u, v) = net.endpoints(e);
            net_out[u] += f;
            net_out[v] -= f;
        }
        for u in 0..net.num_nodes() {
            if u == net.source() || u == net.sink() {
                continue;
            }
            if net_out[u].abs() > EPS * (1.0 + net.finite_capacity_sum()) {
                return Err(format!("node {u}: conservation violated by {}", net_out[u]));
            }
        }
        let src_out = net_out[net.source()];
        if (src_out - self.value).abs() > EPS * (1.0 + net.finite_capacity_sum()) {
            return Err(format!(
                "source outflow {src_out} != reported value {}",
                self.value
            ));
        }
        Ok(())
    }

    /// Extracts a minimum cut from the residual graph: the source side is
    /// everything reachable from the source along positive-residual edges,
    /// and the cut-edge set is the saturated forward edges crossing it.
    /// This realizes the construction in the paper's proof of Lemma 8.
    /// The search walks the solver's frozen adjacency; `net` must be the
    /// network that was solved.
    pub fn min_cut(&self, net: &FlowNetwork) -> MinCut {
        debug_assert_eq!(
            self.csr.num_nodes(),
            net.num_nodes(),
            "not the solved network"
        );
        let n = net.num_nodes();
        let mut source_side = vec![false; n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        source_side[net.source()] = true;
        queue.push_back(net.source());
        while let Some(u) = queue.pop_front() {
            for &e in self.csr.adjacent(u) {
                let e = e as usize;
                if self.residual[e] > EPS {
                    let v = self.csr.head(e);
                    if !source_side[v] {
                        source_side[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        debug_assert!(
            !source_side[net.sink()],
            "sink reachable in residual graph: flow not maximum"
        );
        let mut cut_edges = Vec::new();
        let mut weight = 0.0;
        let mut crosses_infinite = false;
        for e in (0..net.num_edges() * 2).step_by(2) {
            let (u, v) = net.endpoints(e);
            if source_side[u] && !source_side[v] {
                match net.capacity(e) {
                    crate::network::Capacity::Finite(c) => weight += c,
                    crate::network::Capacity::Infinite => crosses_infinite = true,
                }
                cut_edges.push(e);
            }
        }
        mc_obs::counter_add("flow.cut_edges", cut_edges.len() as u64);
        MinCut {
            source_side,
            cut_edges,
            weight,
            crosses_infinite,
        }
    }
}

/// A minimum source-sink cut, in both of the paper's equivalent views:
/// the vertex bipartition `(V_⊏, V_⊐)` (Lemma 7) and the cut-edge set
/// `E_cut` (Lemma 8).
#[derive(Debug, Clone)]
pub struct MinCut {
    /// `source_side[u]` is `true` iff `u ∈ V_⊏`.
    pub source_side: Vec<bool>,
    /// Forward edge ids crossing from `V_⊏` to `V_⊐` — a minimum-weight
    /// cut-edge set.
    pub cut_edges: Vec<EdgeId>,
    /// Total finite weight of the cut edges.
    pub weight: f64,
    /// `true` iff the cut crosses a declared-infinite edge (only possible
    /// when every source-sink cut does; see
    /// [`FlowNetwork::max_flow_value_is_unbounded`]).
    pub crosses_infinite: bool,
}

impl MinCut {
    /// `true` iff node `u` lies on the source side of the cut.
    pub fn on_source_side(&self, u: NodeId) -> bool {
        self.source_side[u]
    }

    /// `true` iff forward edge `e` belongs to the cut-edge set.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.cut_edges.contains(&e)
    }
}
