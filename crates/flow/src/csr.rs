//! Frozen CSR flow topology and a reusable Dinic engine.
//!
//! [`FlowNetwork`](crate::FlowNetwork) grows by `add_edge` into nested
//! `Vec<Vec<u32>>` adjacency — convenient to build, but the max-flow hot
//! loops (BFS level construction, current-arc DFS) then chase a pointer
//! per visited node. Freezing the finished network into a [`CsrNetwork`]
//! packs the adjacency into two contiguous arrays (`start` offsets +
//! flattened residual-edge ids) so the phases stream over slices.
//!
//! Edge **ids are preserved** by the freeze: `e ^ 1` still addresses the
//! paired residual edge, and any per-edge array built against the
//! original network (initial residuals, capacities) indexes the frozen
//! view unchanged.
//!
//! [`DinicEngine`] factors the blocking-flow algorithm out of the
//! [`Dinic`](crate::Dinic) front-end so its level/arc/queue/path buffers
//! can be reused across phases and across solves on a [`CsrNetwork`].

use crate::EPS;
use mc_obs::cancel::{CancelToken, Cancelled, Checkpoint};

/// Contiguous (CSR) snapshot of a flow network's adjacency, produced by
/// [`FlowNetwork::freeze`](crate::FlowNetwork::freeze).
#[derive(Debug, Clone)]
pub struct CsrNetwork {
    source: usize,
    sink: usize,
    /// `start[u]..start[u + 1]` indexes `u`'s slice of `edge_ids`.
    start: Vec<u32>,
    /// All residual edge ids, grouped by tail node in insertion order.
    edge_ids: Vec<u32>,
    /// Head of each residual edge (same ids as the source network).
    head: Vec<u32>,
}

impl CsrNetwork {
    pub(crate) fn from_adjacency(
        source: usize,
        sink: usize,
        adj: &[Vec<u32>],
        head: Vec<u32>,
    ) -> Self {
        let mut start = Vec::with_capacity(adj.len() + 1);
        let mut edge_ids = Vec::with_capacity(head.len());
        start.push(0u32);
        for row in adj {
            edge_ids.extend_from_slice(row);
            start.push(edge_ids.len() as u32);
        }
        Self {
            source,
            sink,
            start,
            edge_ids,
            head,
        }
    }

    /// The source node.
    pub fn source(&self) -> usize {
        self.source
    }

    /// The sink node.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.start.len() - 1
    }

    /// Residual edge ids (forward and backward) leaving node `u`.
    pub(crate) fn adjacent(&self, u: usize) -> &[u32] {
        &self.edge_ids[self.start[u] as usize..self.start[u + 1] as usize]
    }

    /// Head (target) node of residual edge `e`.
    pub(crate) fn head(&self, e: usize) -> usize {
        self.head[e] as usize
    }
}

/// Dinic's blocking-flow algorithm with caller-owned residuals and
/// reusable scratch buffers.
///
/// One engine can serve many `max_flow` calls (even on graphs of
/// different sizes — buffers grow monotonically and are reinitialized,
/// not reallocated, per call). Each call *augments* the flow already
/// present in `residual` and returns only the amount it added, so a
/// caller can warm-start it: any feasible flow already in `residual`
/// (a previous solve's, kept after capacity-only additions, or a greedy
/// seed) stays put, and the engine pushes exactly the delta.
#[derive(Debug, Clone, Default)]
pub struct DinicEngine {
    level: Vec<i32>,
    /// Current-arc pointers for the DFS phase.
    arc: Vec<u32>,
    /// Flat FIFO for the BFS phase (index `qhead` is the front).
    queue: Vec<u32>,
    /// Edge stack forming the DFS path under construction.
    path: Vec<u32>,
    // Stats accumulated locally so the hot loops pay only integer
    // increments; `flush_stats` publishes them as `flow.*` counters.
    bfs_rounds: u64,
    augmenting_paths: u64,
    bfs_visits: u64,
}

impl DinicEngine {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Dinic phases over `g` from its source to its sink until the
    /// sink is unreachable, mutating `residual` in place; returns the
    /// flow **added** by this call.
    ///
    /// `residual.len()` must cover every edge id of `g`, with the
    /// `e ^ 1` pairing (pushing on `e` credits `e ^ 1`).
    ///
    /// Polls `token` every [`mc_obs::cancel::CHECK_INTERVAL`] units of
    /// work (edges scanned by the BFS, DFS advances/augment steps), so
    /// cancellation latency is bounded by a constant amount of work
    /// rather than a phase. On `Err(Cancelled)` the residual array is
    /// left mid-solve — partially augmented but internally consistent
    /// (`e ^ 1` pairing preserved); callers that might resume must
    /// re-run on a fresh residual array.
    pub fn max_flow(
        &mut self,
        g: &CsrNetwork,
        residual: &mut [f64],
        token: &CancelToken,
    ) -> Result<f64, Cancelled> {
        token.poll()?; // small graphs may never reach a checkpoint
        let (source, sink) = (g.source(), g.sink());
        let n = g.num_nodes();
        self.level.clear();
        self.level.resize(n, -1);
        self.arc.clear();
        self.arc.resize(n, 0);
        // One BFS sweep over the residual edges is the natural unit of
        // the work estimate; later rounds push `frac` toward (and cap
        // at) 1, which still reads correctly as "nearly done".
        let mut cp = Checkpoint::with_progress(token, "maxflow", residual.len() as u64);
        let mut added = 0.0;
        while self.build_levels(g, source, sink, residual, &mut cp)? {
            self.bfs_rounds += 1;
            self.arc.iter_mut().for_each(|a| *a = 0);
            loop {
                let pushed = self.push_one_path(g, source, sink, residual, &mut cp)?;
                if pushed <= EPS {
                    break;
                }
                self.augmenting_paths += 1;
                added += pushed;
            }
        }
        Ok(added)
    }

    /// BFS from the source over positive-residual edges; returns `true`
    /// iff the sink is reachable.
    fn build_levels(
        &mut self,
        g: &CsrNetwork,
        source: usize,
        sink: usize,
        residual: &[f64],
        cp: &mut Checkpoint<'_>,
    ) -> Result<bool, Cancelled> {
        self.level.iter_mut().for_each(|l| *l = -1);
        self.queue.clear();
        self.level[source] = 0;
        self.queue.push(source as u32);
        let mut qhead = 0usize;
        while qhead < self.queue.len() {
            let u = self.queue[qhead] as usize;
            qhead += 1;
            let adj = g.adjacent(u);
            cp.tick(adj.len() as u64 + 1)?;
            for &e in adj {
                let e = e as usize;
                if residual[e] > EPS {
                    let v = g.head(e);
                    if self.level[v] < 0 {
                        self.level[v] = self.level[u] + 1;
                        self.queue.push(v as u32);
                    }
                }
            }
        }
        self.bfs_visits += self.queue.len() as u64;
        Ok(self.level[sink] >= 0)
    }

    /// Iterative DFS pushing one augmenting path along the level graph;
    /// returns the amount pushed (0 when the blocking flow is complete).
    /// Iterative on an explicit path stack — augmenting paths can be
    /// `Θ(V)` long (e.g. through the ladder gadgets of the sparsified
    /// classifier networks), which would overflow the call stack in a
    /// recursive formulation.
    fn push_one_path(
        &mut self,
        g: &CsrNetwork,
        source: usize,
        sink: usize,
        residual: &mut [f64],
        cp: &mut Checkpoint<'_>,
    ) -> Result<f64, Cancelled> {
        self.path.clear();
        loop {
            let u = match self.path.last() {
                Some(&e) => g.head(e as usize),
                None => source,
            };
            if u == sink {
                // Augment by the bottleneck along the path.
                let mut bottleneck = f64::INFINITY;
                for &e in &self.path {
                    bottleneck = bottleneck.min(residual[e as usize]);
                }
                for &e in &self.path {
                    residual[e as usize] -= bottleneck;
                    residual[e as usize ^ 1] += bottleneck;
                }
                cp.tick(self.path.len() as u64)?;
                return Ok(bottleneck);
            }
            // Advance u's current arc to an admissible edge.
            let adj = g.adjacent(u);
            let mut advanced = false;
            let arc_before = self.arc[u];
            while (self.arc[u] as usize) < adj.len() {
                let e = adj[self.arc[u] as usize] as usize;
                let v = g.head(e);
                if residual[e] > EPS && self.level[v] == self.level[u] + 1 {
                    self.path.push(e as u32);
                    advanced = true;
                    break;
                }
                self.arc[u] += 1;
            }
            cp.tick((self.arc[u] - arc_before) as u64 + 1)?;
            if advanced {
                continue;
            }
            // Dead end: retreat (and retire the edge that led here).
            match self.path.pop() {
                Some(e) => {
                    let parent = g.head(e as usize ^ 1);
                    self.arc[parent] += 1;
                }
                None => return Ok(0.0), // source exhausted: blocking flow done
            }
        }
    }

    /// Publishes and zeroes the accumulated `flow.{bfs_rounds,
    /// augmenting_paths, bfs_visits}` counters. Callers flush once per
    /// solve so hot loops never touch the registry.
    pub fn flush_stats(&mut self) {
        mc_obs::counter_add("flow.bfs_rounds", self.bfs_rounds);
        mc_obs::counter_add("flow.augmenting_paths", self.augmenting_paths);
        mc_obs::counter_add("flow.bfs_visits", self.bfs_visits);
        self.bfs_rounds = 0;
        self.augmenting_paths = 0;
        self.bfs_visits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Capacity, FlowNetwork};

    fn clrs() -> FlowNetwork {
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
        net
    }

    #[test]
    fn freeze_preserves_ids_and_order() {
        let net = clrs();
        let csr = net.freeze();
        assert_eq!(csr.num_nodes(), 6);
        assert_eq!(csr.source(), 0);
        assert_eq!(csr.sink(), 5);
        // Node 0 emits forward edges 0 (→1) and 2 (→2), in that order.
        assert_eq!(csr.adjacent(0), &[0, 2]);
        // Edge 0 goes 0 → 1; its residual twin (id `0 ^ 1` = 1) back.
        assert_eq!(csr.head(0), 1);
        assert_eq!(csr.head(1), 0);
        // Node 2 sees the backward twin of 0→2, then its own forwards.
        assert_eq!(csr.adjacent(2)[0], 3);
    }

    #[test]
    fn engine_reuse_across_different_graphs() {
        let never = CancelToken::never();
        let mut engine = DinicEngine::new();
        let net = clrs();
        let (mut residual, _) = net.initial_residuals();
        let csr = net.freeze();
        assert_eq!(engine.max_flow(&csr, &mut residual, &never), Ok(23.0));

        // Smaller graph afterwards: buffers shrink logically, not physically.
        let mut small = FlowNetwork::new(2, 0, 1);
        small.add_edge(0, 1, 4.0);
        let (mut residual, _) = small.initial_residuals();
        let csr = small.freeze();
        assert_eq!(engine.max_flow(&csr, &mut residual, &never), Ok(4.0));
    }

    #[test]
    fn warm_start_returns_only_the_delta() {
        // Solve, then raise capacity by adding a parallel edge and solve
        // again on the same residual array extended with the new pair:
        // the second call must return only the additional flow.
        let mut net = FlowNetwork::new(3, 0, 2);
        net.add_edge(0, 1, 3.0);
        net.add_edge(1, 2, 3.0);
        let (mut residual, _) = net.initial_residuals();
        let never = CancelToken::never();
        let mut engine = DinicEngine::new();
        assert_eq!(
            engine.max_flow(&net.freeze(), &mut residual, &never),
            Ok(3.0)
        );

        net.add_edge(1, 2, 2.0);
        net.add_edge(0, 1, Capacity::Infinite);
        let (fresh, _) = net.initial_residuals();
        residual.extend_from_slice(&fresh[residual.len()..]);
        let delta = engine.max_flow(&net.freeze(), &mut residual, &never);
        assert_eq!(delta, Ok(2.0));
    }

    #[test]
    fn cancelled_engine_stops_and_fresh_resolve_is_identical() {
        use mc_obs::cancel::CancelCause;
        let net = clrs();
        let csr = net.freeze();

        // Pre-cancelled token: the engine must give up before finishing.
        let token = CancelToken::new();
        token.cancel();
        let (mut residual, _) = net.initial_residuals();
        let err = DinicEngine::new()
            .max_flow(&csr, &mut residual, &token)
            .unwrap_err();
        assert_eq!(err.cause, CancelCause::Explicit);

        // The abandoned residual array is garbage to the caller; a fresh
        // solve on fresh residuals must be bit-identical to an
        // uncancelled one (no poisoned engine or topology state).
        let (mut r1, _) = net.initial_residuals();
        let (mut r2, _) = net.initial_residuals();
        let v1 = DinicEngine::new()
            .max_flow(&csr, &mut r1, &CancelToken::never())
            .unwrap();
        let v2 = DinicEngine::new()
            .max_flow(&csr, &mut r2, &CancelToken::new())
            .unwrap();
        assert_eq!(v1, 23.0);
        assert_eq!(v1, v2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn expired_deadline_reports_deadline_cause() {
        use mc_obs::cancel::CancelCause;
        let net = clrs();
        let csr = net.freeze();
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (mut residual, _) = net.initial_residuals();
        let err = DinicEngine::new()
            .max_flow(&csr, &mut residual, &token)
            .unwrap_err();
        assert_eq!(err.cause, CancelCause::Deadline);
    }
}
