//! Max-flow substrate for the passive monotone classifier (Theorem 4).
//!
//! The paper reduces passive weighted monotone classification to a
//! minimum-weight *cut-edge set* (Section 5.1), which by Lemmas 7 and 8
//! equals the maximum-flow value. This crate provides:
//!
//! * [`FlowNetwork`] — a residual-graph network with first-class infinite
//!   capacities (for the paper's type-3 edges);
//! * two interchangeable solvers behind [`MaxFlowAlgorithm`]: [`Dinic`]
//!   (the one production engine) and [`EdmondsKarp`] (the one slow
//!   reference it is diffed against);
//! * [`FlowSolution::min_cut`] — extraction of a minimum cut-edge set from
//!   the residual graph, realizing the constructive proof of Lemma 8.
//!
//! # Example
//!
//! ```
//! use mc_flow::{Capacity, Dinic, FlowNetwork, MaxFlowAlgorithm};
//!
//! let mut net = FlowNetwork::new(4, 0, 3);
//! net.add_edge(0, 1, 3.0);
//! net.add_edge(1, 2, Capacity::Infinite);
//! net.add_edge(2, 3, 2.0);
//! let sol = Dinic.solve(&net);
//! assert_eq!(sol.value(), 2.0);
//! let cut = sol.min_cut(&net);
//! assert_eq!(cut.weight, 2.0); // min cut == max flow (Lemma 7)
//! ```

mod csr;
pub mod dinic;
pub mod edmonds_karp;
pub mod network;
pub mod solution;

pub use dinic::Dinic;
pub use edmonds_karp::EdmondsKarp;
pub use network::{Capacity, EdgeId, FlowNetwork, NodeId};
pub use solution::{FlowSolution, MinCut};

/// Tolerance for "positive residual" tests. Inputs with integer-valued
/// capacities are handled exactly; `EPS` only matters for fractional data.
pub const EPS: f64 = 1e-9;

/// A maximum-flow algorithm.
///
/// Implementations are stateless unit structs so they can be passed by
/// value and composed into experiment sweeps.
pub trait MaxFlowAlgorithm {
    /// Short machine-readable name for reports.
    fn name(&self) -> &'static str;

    /// Computes a maximum flow on `net`.
    fn solve(&self, net: &FlowNetwork) -> FlowSolution;

    /// [`solve`](Self::solve) polled through `token`, so a deadline or
    /// an explicit cancel can stop the solver mid-flow.
    ///
    /// The default implementation polls once up front and then runs the
    /// plain `solve` to completion — correct for the reference
    /// [`EdmondsKarp`], whose loop is not instrumented, but with
    /// unbounded cancellation latency. The production engine
    /// ([`Dinic`]) overrides it with bounded-latency checkpoint polling
    /// in its hot loops.
    fn try_solve(
        &self,
        net: &FlowNetwork,
        token: &mc_obs::CancelToken,
    ) -> Result<FlowSolution, mc_obs::Cancelled> {
        token.poll()?;
        Ok(self.solve(net))
    }
}

/// All bundled solvers, for cross-validation sweeps.
pub fn all_algorithms() -> Vec<Box<dyn MaxFlowAlgorithm>> {
    vec![Box::new(Dinic), Box::new(EdmondsKarp)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build deterministic pseudo-random networks and check both solvers
    /// agree and produce valid flows with matching min cuts.
    #[test]
    fn algorithms_agree_on_random_networks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF10F);
        for trial in 0..25 {
            let n = rng.gen_range(4..20);
            let mut net = FlowNetwork::new(n, 0, n - 1);
            let m = rng.gen_range(n..4 * n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v || v == 0 || u == n - 1 {
                    continue;
                }
                let cap = rng.gen_range(0..20) as f64;
                net.add_edge(u, v, cap);
            }
            let sols: Vec<_> = all_algorithms().iter().map(|a| a.solve(&net)).collect();
            let v0 = sols[0].value();
            for (algo, sol) in all_algorithms().iter().zip(&sols) {
                assert!(
                    (sol.value() - v0).abs() < 1e-6,
                    "trial {trial}: {} disagrees: {} vs {}",
                    algo.name(),
                    sol.value(),
                    v0
                );
                sol.validate(&net)
                    .unwrap_or_else(|e| panic!("trial {trial} {}: {e}", algo.name()));
                let cut = sol.min_cut(&net);
                assert!(
                    (cut.weight - v0).abs() < 1e-6,
                    "trial {trial} {}: cut {} != flow {}",
                    algo.name(),
                    cut.weight,
                    v0
                );
            }
        }
    }
}
