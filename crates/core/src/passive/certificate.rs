//! Optimality certificates for the passive solver.
//!
//! Theorem 4's solver returns an upper bound (a classifier achieving
//! weighted error `W`). LP duality provides the matching *lower* bound:
//! a feasible flow of value `W` decomposes into source→zero→…→one→sink
//! paths, and each path is an **inversion** — a contending label-0 point
//! dominating a contending label-1 point — carrying some flow amount.
//! Any monotone classifier must misclassify at least one endpoint of
//! every inversion, and the flow's capacity constraints make the per-path
//! amounts a fractional packing: summed up, *no* monotone classifier can
//! have weighted error below the flow value.
//!
//! [`certify_passive`] solves the instance, decomposes the max flow on
//! whichever network the solver built (`decompose_flow` handles both
//! gadget topologies and the dense reference), and returns the packing together with an
//! independent [`Certificate::verify`] that checks every claim against
//! the raw data — so a downstream user can audit optimality without
//! trusting the solver (or this crate's flow code), and without a dense
//! re-solve.

use crate::passive::contending::ContendingPoints;
use crate::passive::solver::PassiveSolution;
use mc_geom::WeightedSet;

/// One inversion of the packing: `zero ⪰ one`, charged `amount`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InversionCharge {
    /// Index of the label-0 point (the dominating endpoint).
    pub zero: usize,
    /// Index of the label-1 point (the dominated endpoint).
    pub one: usize,
    /// Flow routed through this inversion.
    pub amount: f64,
}

/// A dual certificate: a fractional packing of inversions whose total
/// equals the claimed optimal weighted error.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The claimed optimum (= the primal classifier's weighted error).
    pub optimal_error: f64,
    /// The packing; amounts sum to `optimal_error`.
    pub charges: Vec<InversionCharge>,
}

impl Certificate {
    /// Independently audits the certificate against the raw data:
    ///
    /// 1. every charge is a genuine inversion (`label(zero) = 0`,
    ///    `label(one) = 1`, `zero ⪰ one`, positive amount);
    /// 2. the total charge on any single point never exceeds its weight
    ///    (so the packing is feasible);
    /// 3. the amounts sum to `optimal_error`.
    ///
    /// Together these prove every monotone classifier has weighted error
    /// `≥ optimal_error` on `data`: each inversion forces one of its
    /// endpoints to be misclassified, and by (2) the same weight is never
    /// charged twice.
    pub fn verify(&self, data: &WeightedSet) -> Result<(), String> {
        let mut charged = vec![0.0f64; data.len()];
        let mut total = 0.0;
        for (k, c) in self.charges.iter().enumerate() {
            if c.amount <= 0.0 || !c.amount.is_finite() {
                return Err(format!("charge {k}: non-positive amount {}", c.amount));
            }
            if !data.label(c.zero).is_zero() || !data.label(c.one).is_one() {
                return Err(format!("charge {k}: endpoints have wrong labels"));
            }
            if !data.points().dominates(c.zero, c.one) {
                return Err(format!(
                    "charge {k}: point {} does not dominate point {}",
                    c.zero, c.one
                ));
            }
            charged[c.zero] += c.amount;
            charged[c.one] += c.amount;
            total += c.amount;
        }
        for (i, &ch) in charged.iter().enumerate() {
            if ch > data.weight(i) + 1e-6 {
                return Err(format!(
                    "point {i} charged {ch} beyond its weight {}",
                    data.weight(i)
                ));
            }
        }
        if (total - self.optimal_error).abs() > 1e-6 * (1.0 + self.optimal_error) {
            return Err(format!(
                "charges sum to {total}, claimed optimum {}",
                self.optimal_error
            ));
        }
        Ok(())
    }
}

/// Solves Problem 2 and returns the solution together with a verifiable
/// dual certificate of optimality.
///
/// The certificate comes from `decompose_flow` on whatever network
/// the solver built — the `d ≤ 2` sweep or the `d ≥ 3` ladder — so this
/// costs one solve plus a near-linear decomposition, and works at any
/// scale the solver itself handles. `±∞` coordinates are solved.
///
/// # Panics
///
/// Panics with the [`mc_geom::GeomError::NonFiniteCoordinate`] text on
/// a NaN coordinate.
pub fn certify_passive(data: &WeightedSet) -> (PassiveSolution, Certificate) {
    crate::passive::solver::assert_no_nan(data.points());
    crate::passive::solver::PassiveSolver::new()
        .solve_certified(data, &mc_obs::CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// Decomposes a solved max flow into inversion charges, generically
/// over the network topology.
///
/// All three builders share one structural invariant: the source's out
/// edges land only on zero nodes, the sink's in edges leave only from
/// one nodes, and every interior gadget edge is infinite and descends
/// a chain (the positive-flow subgraph is a DAG). So each stripped
/// path `source → zero → … → one → sink` charges exactly one inversion
/// `(zero, one)` with its bottleneck amount; conservation makes the
/// per-path amounts a feasible fractional packing summing to the flow
/// value. Numeric cycles (possible only through rounding) are cancelled
/// rather than charged. Runs in `O(E·paths)` worst case but near-linear
/// in practice: every strip zeroes at least one edge and the current-arc
/// pointers never move backwards.
pub(crate) fn decompose_flow(
    con: &ContendingPoints,
    network: &crate::passive::pipeline::ClassifierNetwork,
    flow: &mc_flow::FlowSolution,
) -> Vec<InversionCharge> {
    const EPS: f64 = 1e-9;
    let net = &network.net;
    let n = net.num_nodes();
    let (source, sink) = (net.source(), net.sink());

    // Positive-flow forward adjacency (forward edges are the even ids
    // of the paired residual layout).
    let mut fl = vec![0.0f64; net.num_edges() * 2];
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for e in (0..net.num_edges() * 2).step_by(2) {
        let amount = flow.flow_on(net, e);
        if amount > EPS {
            let (u, v) = net.endpoints(e);
            fl[e] = amount;
            adj[u].push((e, v));
        }
    }
    // Node → input point, defined exactly on zero/one nodes.
    let mut point_of = vec![usize::MAX; n];
    for (zi, &node) in network.zero_nodes.iter().enumerate() {
        point_of[node] = con.zeros[zi];
    }
    for (oi, &node) in network.one_nodes.iter().enumerate() {
        point_of[node] = con.ones[oi];
    }

    let mut arc = vec![0usize; n];
    let mut stamp = vec![usize::MAX; n]; // position on the current path
    let mut charges = Vec::new();
    'strip: loop {
        let mut path_edges: Vec<usize> = Vec::new();
        let mut path_nodes: Vec<usize> = vec![source];
        stamp[source] = 0;
        let mut u = source;
        let reached_sink = loop {
            while arc[u] < adj[u].len() && fl[adj[u][arc[u]].0] <= EPS {
                arc[u] += 1;
            }
            if arc[u] == adj[u].len() {
                break false;
            }
            let (e, v) = adj[u][arc[u]];
            if v == sink {
                path_edges.push(e);
                break true;
            }
            if stamp[v] != usize::MAX {
                // A rounding-induced cycle: cancel its flow and resume
                // the walk from the repeat node.
                let pos = stamp[v];
                let amt = path_edges[pos..]
                    .iter()
                    .map(|&c| fl[c])
                    .fold(fl[e], f64::min);
                fl[e] -= amt;
                for &c in &path_edges[pos..] {
                    fl[c] -= amt;
                }
                for &w in &path_nodes[pos + 1..] {
                    stamp[w] = usize::MAX;
                }
                path_edges.truncate(pos);
                path_nodes.truncate(pos + 1);
                u = v;
                continue;
            }
            path_edges.push(e);
            path_nodes.push(v);
            stamp[v] = path_nodes.len() - 1;
            u = v;
        };
        for &w in &path_nodes {
            stamp[w] = usize::MAX;
        }
        if !reached_sink {
            if u == source {
                break 'strip; // source's flow is fully decomposed
            }
            // A dead end below the strip threshold (conservation leaks
            // only by rounding): drop the edge that led here and retry.
            fl[*path_edges.last().expect("u ≠ source ⇒ an edge led here")] = 0.0;
            continue;
        }
        let amount = path_edges
            .iter()
            .map(|&e| fl[e])
            .fold(f64::INFINITY, f64::min);
        for &e in &path_edges {
            fl[e] -= amount;
        }
        let zero = point_of[path_nodes[1]];
        let one = point_of[*path_nodes.last().expect("path holds ≥ the zero node")];
        debug_assert!(
            zero != usize::MAX && one != usize::MAX,
            "paths must enter through a zero node and leave through a one node"
        );
        charges.push(InversionCharge { zero, one, amount });
    }
    charges
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::Label;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weighted(n: usize, dim: usize, rng: &mut StdRng) -> WeightedSet {
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim)
                .map(|_| rng.gen_range(0.0f64..5.0).round())
                .collect();
            ws.push(
                &coords,
                Label::from_bool(rng.gen_bool(0.5)),
                rng.gen_range(1..10) as f64,
            );
        }
        ws
    }

    #[test]
    #[should_panic(expected = "point 0, axis 1: coordinate NaN is not finite")]
    fn certify_passive_panics_on_nan_with_the_geom_error() {
        let mut ws = WeightedSet::empty(2);
        ws.push(&[0.0, f64::NAN], Label::One, 1.0);
        ws.push(&[f64::INFINITY, 1.0], Label::Zero, 1.0);
        certify_passive(&ws);
    }

    #[test]
    fn certificates_verify_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0xCE47);
        for dim in [1usize, 2, 3] {
            for trial in 0..30 {
                let n = rng.gen_range(1..40);
                let ws = random_weighted(n, dim, &mut rng);
                let (sol, cert) = certify_passive(&ws);
                assert_eq!(cert.optimal_error, sol.weighted_error);
                cert.verify(&ws)
                    .unwrap_or_else(|e| panic!("dim {dim} trial {trial}: {e}"));
            }
        }
    }

    #[test]
    fn certificate_on_paper_example() {
        let ws = mc_data_like_figure2();
        let (sol, cert) = certify_passive(&ws);
        assert_eq!(sol.weighted_error, 104.0);
        cert.verify(&ws).unwrap();
        let total: f64 = cert.charges.iter().map(|c| c.amount).sum();
        assert!((total - 104.0).abs() < 1e-9);
    }

    /// A local copy of the Figure-2 weighted example (mc-data depends on
    /// mc-core, so we cannot import it here).
    fn mc_data_like_figure2() -> WeightedSet {
        let coords: [[f64; 2]; 16] = [
            [1.0, 1.5],
            [2.0, 3.0],
            [3.0, 4.0],
            [5.0, 5.0],
            [2.0, 6.0],
            [8.0, 0.2],
            [9.0, 0.4],
            [10.0, 0.6],
            [2.5, 8.0],
            [7.0, 14.0],
            [5.0, 16.0],
            [3.0, 18.0],
            [9.0, 12.0],
            [11.0, 10.0],
            [12.0, 13.0],
            [1.0, 20.0],
        ];
        let labels = [1u8, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1];
        let mut ws = WeightedSet::empty(2);
        for (i, c) in coords.iter().enumerate() {
            let weight = match i {
                0 => 100.0,
                10 | 14 => 60.0,
                _ => 1.0,
            };
            ws.push(c, Label::try_from(labels[i]).unwrap(), weight);
        }
        ws
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let mut rng = StdRng::seed_from_u64(0xBAD);
        let ws = random_weighted(20, 2, &mut rng);
        let (_, mut cert) = certify_passive(&ws);
        if let Some(first) = cert.charges.first_mut() {
            first.amount *= 2.0; // inflate a charge
            assert!(cert.verify(&ws).is_err());
        } else {
            // No inversions: claim a positive optimum with no charges.
            cert.optimal_error = 1.0;
            assert!(cert.verify(&ws).is_err());
        }
    }

    /// A fixed instance with one inversion: `(1,1) ⪰ (0,0)` with the
    /// zero on top, so the optimum flips the lighter endpoint (cost 2).
    fn one_inversion() -> WeightedSet {
        let mut ws = WeightedSet::empty(2);
        ws.push(&[0.0, 0.0], Label::One, 5.0);
        ws.push(&[1.0, 1.0], Label::Zero, 2.0);
        ws.push(&[2.0, 0.0], Label::One, 1.0); // incomparable bystander
        ws
    }

    #[test]
    fn wrong_claimed_optimum_is_rejected() {
        let ws = one_inversion();
        let (sol, mut cert) = certify_passive(&ws);
        assert_eq!(sol.weighted_error, 2.0);
        cert.verify(&ws).unwrap();
        cert.optimal_error += 1.0;
        let err = cert.verify(&ws).unwrap_err();
        assert!(
            err.contains("charges sum to") && err.contains("claimed optimum"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn wrong_label_endpoints_are_rejected() {
        let ws = one_inversion();
        // Point 2 is label-1, so it cannot be a `zero` endpoint: the
        // claimed assignment is not a monotone contradiction at all.
        let cert = Certificate {
            optimal_error: 1.0,
            charges: vec![InversionCharge {
                zero: 2,
                one: 0,
                amount: 1.0,
            }],
        };
        let err = cert.verify(&ws).unwrap_err();
        assert!(err.contains("wrong labels"), "unexpected message: {err}");
    }

    #[test]
    fn non_dominating_pair_is_rejected() {
        let ws = one_inversion();
        // 1 (at (1,1)) does not dominate... point 2 at (2,0): labels are
        // right (zero, one) but there is no inversion between them.
        let cert = Certificate {
            optimal_error: 1.0,
            charges: vec![InversionCharge {
                zero: 1,
                one: 2,
                amount: 1.0,
            }],
        };
        let err = cert.verify(&ws).unwrap_err();
        assert!(
            err.contains("does not dominate"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn tampered_amounts_are_rejected_descriptively() {
        let ws = one_inversion();
        let (_, mut cert) = certify_passive(&ws);
        let original = cert.clone();

        // Inflating a charge overdraws the zero endpoint's weight.
        cert.charges[0].amount = 10.0;
        cert.optimal_error = 10.0;
        let err = cert.verify(&ws).unwrap_err();
        assert!(err.contains("beyond its weight"), "unexpected: {err}");

        // Negative, zero, and NaN amounts are rejected up front.
        for bad in [-1.0, 0.0, f64::NAN] {
            let mut cert = original.clone();
            cert.charges[0].amount = bad;
            let err = cert.verify(&ws).unwrap_err();
            assert!(
                err.contains("non-positive amount"),
                "amount {bad}: unexpected message: {err}"
            );
        }
    }

    #[test]
    fn certificates_verify_across_both_gadgets() {
        // The decomposition must produce a valid packing whichever
        // gadget built the network (d ≤ 2 sweep, d ≥ 3 ladder).
        use crate::passive::solver::PassiveSolver;
        let mut rng = StdRng::seed_from_u64(0x9EF3);
        for dim in [1usize, 2, 3] {
            for trial in 0..30 {
                let n = rng.gen_range(1..40);
                let ws = random_weighted(n, dim, &mut rng);
                let (sol, cert) = PassiveSolver::new()
                    .try_solve_certified(&ws, &mc_obs::CancelToken::never())
                    .unwrap();
                assert_eq!(cert.optimal_error, sol.weighted_error);
                cert.verify(&ws)
                    .unwrap_or_else(|e| panic!("dim {dim} trial {trial}: {e}"));
                let total: f64 = cert.charges.iter().map(|c| c.amount).sum();
                assert!(
                    (total - sol.weighted_error).abs() <= 1e-6 * (1.0 + sol.weighted_error),
                    "dim {dim} trial {trial}: packing total {total} vs optimum {}",
                    sol.weighted_error
                );
            }
        }
    }

    #[test]
    fn monotone_data_has_empty_certificate() {
        let mut ws = WeightedSet::empty(1);
        ws.push(&[0.0], Label::Zero, 2.0);
        ws.push(&[1.0], Label::One, 3.0);
        let (sol, cert) = certify_passive(&ws);
        assert_eq!(sol.weighted_error, 0.0);
        assert!(cert.charges.is_empty());
        cert.verify(&ws).unwrap();
    }
}
