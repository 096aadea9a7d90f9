//! Flow-network representation.
//!
//! Edges are stored in forward/backward pairs (indices `2k` and `2k+1`),
//! the classic residual-graph layout: pushing `f` units along edge `e`
//! decreases `residual[e]` and increases `residual[e ^ 1]`.
//!
//! Infinite capacities (the paper's "type-3" edges, Section 5.1) are
//! supported first-class: callers pass [`Capacity::Infinite`], and the
//! network internally substitutes a *finite surrogate* `B` strictly larger
//! than the total finite capacity. Any flow value `< B` is therefore exact,
//! and a min cut never contains an infinite edge unless *every* source-sink
//! cut does (in which case [`FlowNetwork::max_flow_value_is_unbounded`]
//! reports it).

use crate::csr::CsrNetwork;
use std::fmt;

/// Node identifier.
pub type NodeId = usize;

/// Edge identifier. Even ids are forward edges in insertion order;
/// `id ^ 1` is the paired residual (backward) edge.
pub type EdgeId = usize;

/// An edge capacity: a non-negative finite real, or `+∞`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Capacity {
    /// Finite non-negative capacity.
    Finite(f64),
    /// Unbounded capacity (never the bottleneck of a finite cut).
    Infinite,
}

impl Capacity {
    /// Finite value, if any.
    pub fn as_finite(self) -> Option<f64> {
        match self {
            Capacity::Finite(c) => Some(c),
            Capacity::Infinite => None,
        }
    }

    /// `true` for [`Capacity::Infinite`].
    pub fn is_infinite(self) -> bool {
        matches!(self, Capacity::Infinite)
    }
}

impl From<f64> for Capacity {
    fn from(c: f64) -> Self {
        if c.is_infinite() {
            Capacity::Infinite
        } else {
            Capacity::Finite(c)
        }
    }
}

/// A directed flow network with designated source and sink.
#[derive(Clone)]
pub struct FlowNetwork {
    n: usize,
    source: NodeId,
    sink: NodeId,
    /// Head (target) of each residual edge.
    head: Vec<u32>,
    /// Original capacity of each residual edge (backward edges start at 0).
    cap: Vec<f64>,
    /// Whether the *forward* edge of the pair was declared infinite.
    infinite: Vec<bool>,
    /// Sum of all finite declared capacities (used to build the surrogate).
    finite_cap_sum: f64,
    /// Initial flow on each forward edge (`flow[e / 2]`), which the
    /// solvers start from; empty for the zero flow.
    flow: Vec<f64>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn new(n: usize, source: NodeId, sink: NodeId) -> Self {
        assert!(source < n, "source {source} out of range (n = {n})");
        assert!(sink < n, "sink {sink} out of range (n = {n})");
        assert_ne!(source, sink, "source and sink must differ");
        Self {
            n,
            source,
            sink,
            head: Vec::new(),
            cap: Vec::new(),
            infinite: Vec::new(),
            finite_cap_sum: 0.0,
            flow: Vec::new(),
        }
    }

    /// Adds a fresh node (no incident edges yet) and returns its id.
    /// Used by gadget constructions (e.g. the sparsified dominance
    /// networks of the passive solver) whose auxiliary node count is not
    /// known upfront.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.n - 1
    }

    /// Adds a directed edge `u -> v` with the given capacity and returns the
    /// id of its forward residual edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, `u == v`, negative or NaN capacity.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, capacity: impl Into<Capacity>) -> EdgeId {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops carry no flow");
        let capacity = capacity.into();
        let (c, inf) = match capacity {
            Capacity::Finite(c) => {
                assert!(
                    c >= 0.0 && c.is_finite(),
                    "capacity must be non-negative and finite, got {c}"
                );
                self.finite_cap_sum += c;
                (c, false)
            }
            // Placeholder; the true surrogate is patched in `finalize`.
            Capacity::Infinite => (f64::INFINITY, true),
        };
        let id = self.head.len();
        self.head.push(v as u32);
        self.cap.push(c);
        self.infinite.push(inf);
        self.head.push(u as u32);
        self.cap.push(0.0);
        self.infinite.push(inf);
        if !self.flow.is_empty() {
            self.flow.push(0.0);
        }
        id
    }

    /// Sets the flow the solvers start from: `flow[k]` units on forward
    /// edge `2k`, one entry per declared edge. It must be a feasible
    /// flow — within every capacity and conserved at every node but the
    /// source and sink — and the solvers augment it to a maximum flow,
    /// so [`FlowSolution::value`](crate::FlowSolution::value) counts it.
    /// A greedy seed that routes most of the flow in one linear pass
    /// leaves the solver only the remainder to find. Edges added later
    /// start at zero flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` has not one entry per edge, or an entry is
    /// negative, not finite, or above a finite capacity. Debug builds
    /// also check conservation.
    pub fn set_initial_flow(&mut self, flow: Vec<f64>) {
        assert_eq!(flow.len(), self.num_edges(), "one flow per edge");
        for (k, &f) in flow.iter().enumerate() {
            let cap = if self.infinite[2 * k] {
                f64::INFINITY
            } else {
                self.cap[2 * k]
            };
            assert!(
                f >= 0.0 && f.is_finite() && f <= cap,
                "edge {}: initial flow {f} outside [0, {cap}]",
                2 * k
            );
        }
        self.flow = flow;
        #[cfg(debug_assertions)]
        {
            let mut net_out = vec![0.0f64; self.n];
            for (k, &f) in self.flow.iter().enumerate() {
                let (u, v) = self.endpoints(2 * k);
                net_out[u] += f;
                net_out[v] -= f;
            }
            let tolerance = crate::EPS * (1.0 + self.finite_cap_sum);
            for (u, &excess) in net_out.iter().enumerate() {
                debug_assert!(
                    u == self.source || u == self.sink || excess.abs() <= tolerance,
                    "initial flow not conserved at node {u}: {excess}"
                );
            }
        }
    }

    /// Value of the initial flow: its net outflow from the source (0
    /// without one).
    pub fn initial_flow_value(&self) -> f64 {
        let mut value = 0.0;
        for (k, &f) in self.flow.iter().enumerate() {
            let (u, v) = self.endpoints(2 * k);
            if u == self.source {
                value += f;
            } else if v == self.source {
                value -= f;
            }
        }
        value
    }

    /// Replaces every infinite capacity by the surrogate
    /// `B = finite_cap_sum + 1` — strictly larger than any finite cut, so
    /// a surrogate edge is never the bottleneck of one — and applies the
    /// initial flow ([`set_initial_flow`](Self::set_initial_flow)),
    /// returning the per-edge residual capacities solvers work on and the
    /// surrogate. An edge carrying flow `f` keeps `cap − f` forward and
    /// `f` on its twin, so a saturated edge reads exactly 0. Solvers call
    /// this once at the start.
    pub(crate) fn initial_residuals(&self) -> (Vec<f64>, f64) {
        let surrogate = self.finite_cap_sum + 1.0;
        let mut residual = self.cap.clone();
        for (i, r) in residual.iter_mut().enumerate() {
            if self.infinite[i] && i % 2 == 0 {
                *r = surrogate;
            }
        }
        for (k, &f) in self.flow.iter().enumerate() {
            residual[2 * k] -= f;
            residual[2 * k + 1] = f;
        }
        (residual, surrogate)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of declared (forward) edges.
    pub fn num_edges(&self) -> usize {
        self.head.len() / 2
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Declared capacity of forward edge `e` (`e` must be even).
    pub fn capacity(&self, e: EdgeId) -> Capacity {
        assert_eq!(e % 2, 0, "capacity() takes forward edge ids");
        if self.infinite[e] {
            Capacity::Infinite
        } else {
            Capacity::Finite(self.cap[e])
        }
    }

    /// Endpoints `(u, v)` of forward edge `e` (`e` must be even).
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        assert_eq!(e % 2, 0, "endpoints() takes forward edge ids");
        (self.head[e ^ 1] as usize, self.head[e] as usize)
    }

    /// Sum of all finite declared capacities.
    pub fn finite_capacity_sum(&self) -> f64 {
        self.finite_cap_sum
    }

    /// Freezes the edge pairs into the contiguous CSR adjacency the
    /// solvers and the cut readout walk. One counting pass over the
    /// residual edges' tails (`head[e ^ 1]`) sizes each node's slice, and
    /// a second places the ids in ascending order, so each node lists
    /// its edges in insertion order. Edge ids (and therefore the `e ^ 1`
    /// residual pairing and every per-edge array such as the residuals
    /// from `initial_residuals`) are unchanged.
    pub fn freeze(&self) -> CsrNetwork {
        CsrNetwork::from_pairs(self.source, self.sink, self.n, self.head.clone())
    }

    /// `true` iff a computed max-flow `value` can only be explained by
    /// saturating an infinite edge, i.e. every source-sink cut crosses an
    /// infinite edge and the true max flow is unbounded.
    pub fn max_flow_value_is_unbounded(&self, value: f64) -> bool {
        value > self.finite_cap_sum
    }
}

impl fmt::Debug for FlowNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FlowNetwork(n={}, source={}, sink={}, m={})",
            self.n,
            self.source,
            self.sink,
            self.num_edges()
        )?;
        for e in (0..self.head.len()).step_by(2) {
            let (u, v) = self.endpoints(e);
            writeln!(f, "  {u} -> {v}: {:?}", self.capacity(e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut net = FlowNetwork::new(4, 0, 3);
        let e0 = net.add_edge(0, 1, 5.0);
        let e1 = net.add_edge(1, 2, Capacity::Infinite);
        let e2 = net.add_edge(2, 3, 7.0);
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_edges(), 3);
        assert_eq!(net.endpoints(e0), (0, 1));
        assert_eq!(net.endpoints(e2), (2, 3));
        assert_eq!(net.capacity(e0), Capacity::Finite(5.0));
        assert!(net.capacity(e1).is_infinite());
        assert_eq!(net.finite_capacity_sum(), 12.0);
    }

    #[test]
    fn surrogate_exceeds_finite_sum() {
        let mut net = FlowNetwork::new(3, 0, 2);
        net.add_edge(0, 1, 5.0);
        net.add_edge(1, 2, Capacity::Infinite);
        let (residual, surrogate) = net.initial_residuals();
        assert_eq!(surrogate, 6.0);
        assert_eq!(residual[0], 5.0); // forward finite
        assert_eq!(residual[1], 0.0); // backward
        assert_eq!(residual[2], 6.0); // forward infinite -> surrogate
        assert_eq!(residual[3], 0.0);
    }

    #[test]
    fn initial_flow_sets_both_residuals_and_the_value() {
        let mut net = FlowNetwork::new(4, 0, 3);
        net.add_edge(0, 1, 5.0);
        net.add_edge(1, 2, Capacity::Infinite);
        net.add_edge(2, 3, 3.0);
        net.add_edge(2, 0, 2.0);
        // 3 units leave the source, 1 of them loops back.
        net.set_initial_flow(vec![4.0, 4.0, 3.0, 1.0]);
        assert_eq!(net.initial_flow_value(), 3.0);
        let (residual, surrogate) = net.initial_residuals();
        assert_eq!(surrogate, 11.0);
        assert_eq!(residual, vec![1.0, 4.0, 7.0, 4.0, 0.0, 3.0, 1.0, 1.0]);
        // An edge added afterwards starts empty.
        net.add_edge(1, 3, 1.0);
        let (residual, _) = net.initial_residuals();
        assert_eq!(&residual[8..], &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 5]")]
    fn initial_flow_above_capacity_rejected() {
        let mut net = FlowNetwork::new(2, 0, 1);
        net.add_edge(0, 1, 5.0);
        net.set_initial_flow(vec![6.0]);
    }

    #[test]
    fn f64_infinity_converts() {
        let c: Capacity = f64::INFINITY.into();
        assert!(c.is_infinite());
        let c: Capacity = 3.0.into();
        assert_eq!(c.as_finite(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_sink_rejected() {
        FlowNetwork::new(2, 1, 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let mut net = FlowNetwork::new(2, 0, 1);
        net.add_edge(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut net = FlowNetwork::new(2, 0, 1);
        net.add_edge(1, 1, 1.0);
    }

    #[test]
    fn unbounded_detection() {
        let mut net = FlowNetwork::new(2, 0, 1);
        net.add_edge(0, 1, Capacity::Infinite);
        // finite_cap_sum = 0, so any positive value is "unbounded".
        assert!(net.max_flow_value_is_unbounded(0.5));
        assert!(!net.max_flow_value_is_unbounded(0.0));
    }
}
