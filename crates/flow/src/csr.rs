//! Frozen CSR flow topology and a reusable Dinic engine.
//!
//! [`FlowNetwork`](crate::FlowNetwork) grows by `add_edge` into paired
//! edge arrays and keeps no adjacency. Freezing the finished network
//! into a [`CsrNetwork`] builds it in two contiguous arrays (`start`
//! offsets + residual-edge ids grouped by tail) with one counting pass,
//! so the max-flow phases and the cut readout stream over slices.
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
    /// Builds the adjacency of `n` nodes from paired residual heads
    /// (`head[e]` is the head of residual edge `e`, so `head[e ^ 1]` is
    /// its tail): a counting pass over the tails, a prefix sum, and a
    /// placement pass in ascending edge id.
    pub(crate) fn from_pairs(source: usize, sink: usize, n: usize, head: Vec<u32>) -> Self {
        let mut start = vec![0u32; n + 1];
        for e in 0..head.len() {
            start[head[e ^ 1] as usize + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut next = start[..n].to_vec();
        let mut edge_ids = vec![0u32; head.len()];
        for e in 0..head.len() {
            let slot = &mut next[head[e ^ 1] as usize];
            edge_ids[*slot as usize] = e as u32;
            *slot += 1;
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
    /// DFS arcs walked: each arc pushed onto a path plus each retreat
    /// off one.
    dfs_steps: u64,
}

impl DinicEngine {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Dinic phases over `g` from its source to its sink until the
    /// sink is unreachable, mutating `residual` in place; returns the
    /// flow **added** by this call. Each phase is layered from the sink
    /// (see `build_levels`).
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
            let paths_before = self.augmenting_paths;
            loop {
                let pushed = self.push_one_path(g, source, sink, residual, &mut cp)?;
                if pushed <= EPS {
                    break;
                }
                self.augmenting_paths += 1;
                added += pushed;
            }
            // A layered source lies on a shortest path of positive
            // residual arcs, so every phase augments at least once.
            debug_assert!(
                self.augmenting_paths > paths_before,
                "a layered phase found no augmenting path"
            );
        }
        Ok(added)
    }

    /// Layers the phase from the sink: a BFS backwards over
    /// positive-residual arcs gives every node its residual distance to
    /// the sink, and stops as soon as the source is layered. Returns
    /// `true` iff the source reaches the sink.
    ///
    /// A walk from the source that lowers the level by one per arc
    /// stays on shortest source–sink paths, and its arcs are exactly the
    /// arcs a source layering admits on those paths, in the same
    /// adjacency order. So the DFS finds the same augmenting paths in the
    /// same order as under source layering; it only never enters the
    /// dead ends (nodes one level further from the source that cannot
    /// reach the sink in the level graph) that source layering admits.
    /// Nodes at or beyond the source's distance are never admissible, so
    /// the BFS need not layer them.
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
        self.level[sink] = 0;
        self.queue.push(sink as u32);
        let mut qhead = 0usize;
        'bfs: while qhead < self.queue.len() {
            let v = self.queue[qhead] as usize;
            qhead += 1;
            let adj = g.adjacent(v);
            cp.tick(adj.len() as u64 + 1)?;
            for &e in adj {
                // `e` leaves `v`; its twin `e ^ 1` is the arc `u → v`.
                let e = e as usize;
                if residual[e ^ 1] > EPS {
                    let u = g.head(e);
                    if self.level[u] < 0 {
                        self.level[u] = self.level[v] + 1;
                        self.queue.push(u as u32);
                        if u == source {
                            break 'bfs;
                        }
                    }
                }
            }
        }
        self.bfs_visits += self.queue.len() as u64;
        Ok(self.level[source] >= 0)
    }

    /// Iterative DFS pushing one augmenting path along the level graph,
    /// each arc one level closer to the sink; returns the amount pushed
    /// (0 when the blocking flow is complete).
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
                if residual[e] > EPS && self.level[v] == self.level[u] - 1 {
                    self.path.push(e as u32);
                    self.dfs_steps += 1;
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
                    self.dfs_steps += 1;
                    let parent = g.head(e as usize ^ 1);
                    self.arc[parent] += 1;
                }
                None => return Ok(0.0), // source exhausted: blocking flow done
            }
        }
    }

    /// Publishes and zeroes the accumulated `flow.{bfs_rounds,
    /// augmenting_paths, bfs_visits, dfs_steps}` counters. Callers flush
    /// once per solve so hot loops never touch the registry.
    pub fn flush_stats(&mut self) {
        mc_obs::counter_add("flow.bfs_rounds", self.bfs_rounds);
        mc_obs::counter_add("flow.augmenting_paths", self.augmenting_paths);
        mc_obs::counter_add("flow.bfs_visits", self.bfs_visits);
        mc_obs::counter_add("flow.dfs_steps", self.dfs_steps);
        self.bfs_rounds = 0;
        self.augmenting_paths = 0;
        self.bfs_visits = 0;
        self.dfs_steps = 0;
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

    /// Dinic layered from the source, as the engine ran before sink
    /// layering: the reference the sink-layered engine must match path
    /// for path. Returns `(value, rounds, augmenting paths)`.
    fn source_layered_reference(g: &CsrNetwork, residual: &mut [f64]) -> (f64, u64, u64) {
        let (source, sink) = (g.source(), g.sink());
        let n = g.num_nodes();
        let (mut value, mut rounds, mut paths) = (0.0, 0, 0);
        loop {
            let mut level = vec![-1i32; n];
            level[source] = 0;
            let mut queue = vec![source];
            let mut qhead = 0;
            while qhead < queue.len() {
                let u = queue[qhead];
                qhead += 1;
                for &e in g.adjacent(u) {
                    let v = g.head(e as usize);
                    if residual[e as usize] > EPS && level[v] < 0 {
                        level[v] = level[u] + 1;
                        queue.push(v);
                    }
                }
            }
            if level[sink] < 0 {
                return (value, rounds, paths);
            }
            rounds += 1;
            let mut arc = vec![0usize; n];
            loop {
                let mut path: Vec<usize> = Vec::new();
                let pushed = loop {
                    let u = path.last().map_or(source, |&e| g.head(e));
                    if u == sink {
                        let b = path
                            .iter()
                            .map(|&e| residual[e])
                            .fold(f64::INFINITY, f64::min);
                        for &e in &path {
                            residual[e] -= b;
                            residual[e ^ 1] += b;
                        }
                        break b;
                    }
                    let adj = g.adjacent(u);
                    let next = adj[arc[u]..]
                        .iter()
                        .map(|&e| e as usize)
                        .find(|&e| residual[e] > EPS && level[g.head(e)] == level[u] + 1);
                    match next {
                        Some(e) => {
                            arc[u] = adj.iter().position(|&x| x as usize == e).unwrap();
                            path.push(e);
                        }
                        None => {
                            arc[u] = adj.len();
                            match path.pop() {
                                Some(e) => arc[g.head(e ^ 1)] += 1,
                                None => break 0.0,
                            }
                        }
                    }
                };
                if pushed <= EPS {
                    break;
                }
                paths += 1;
                value += pushed;
            }
        }
    }

    /// A random network whose inner edges are mostly infinite, like the
    /// classifier gadgets, with parallel and antiparallel edges.
    fn random_network(rng: &mut rand::rngs::StdRng) -> FlowNetwork {
        use rand::Rng;
        let n = rng.gen_range(3..30);
        let mut net = FlowNetwork::new(n, 0, n - 1);
        for _ in 0..rng.gen_range(0..5 * n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            if rng.gen_bool(0.4) {
                net.add_edge(u, v, Capacity::Infinite);
            } else {
                net.add_edge(u, v, rng.gen_range(0..9) as f64);
            }
        }
        net
    }

    #[test]
    fn sink_layering_augments_the_same_paths_as_source_layering() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51AC);
        let never = CancelToken::never();
        for trial in 0..400 {
            let net = random_network(&mut rng);
            let csr = net.freeze();
            let (mut expected, _) = net.initial_residuals();
            let (value, rounds, paths) = source_layered_reference(&csr, &mut expected);
            let (mut residual, _) = net.initial_residuals();
            let mut engine = DinicEngine::new();
            let got = engine.max_flow(&csr, &mut residual, &never).unwrap();
            // Same paths in the same order leave bit-identical residuals.
            assert_eq!(got, value, "trial {trial}");
            assert_eq!(residual, expected, "trial {trial}");
            assert_eq!(
                (engine.bfs_rounds, engine.augmenting_paths),
                (rounds, paths),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn freeze_lists_each_nodes_edges_in_insertion_order() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5A);
        for _ in 0..50 {
            let net = random_network(&mut rng);
            let csr = net.freeze();
            let mut nested = vec![Vec::new(); net.num_nodes()];
            for e in (0..2 * net.num_edges()).step_by(2) {
                let (u, v) = net.endpoints(e);
                nested[u].push(e as u32);
                nested[v].push(e as u32 + 1);
            }
            for (u, edges) in nested.iter().enumerate() {
                assert_eq!(csr.adjacent(u), &edges[..], "node {u}");
                for &e in edges {
                    assert_eq!(csr.head(e as usize ^ 1), u);
                }
            }
        }
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
