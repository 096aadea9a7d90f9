//! The passive weighted monotone classification solver — Theorem 4.
//!
//! Pipeline (Section 5.1 of the paper):
//!
//! 1. restrict to contending points (Lemma 15);
//! 2. build the flow network `G`:
//!    * type-1 edges `source → p` with capacity `weight(p)` for each
//!      contending label-0 point `p`;
//!    * type-2 edges `q → sink` with capacity `weight(q)` for each
//!      contending label-1 point `q`;
//!    * type-3 edges `p → q` with capacity `∞` whenever `p ⪰ q`;
//! 3. compute a minimum-weight cut-edge set (max flow + residual BFS,
//!    Lemmas 7/8);
//! 4. read the classifier off the cut: a contending label-0 point flips to
//!    1 iff its source edge is cut; a contending label-1 point flips to 0
//!    iff its sink edge is cut; non-contending points keep their labels
//!    (Lemmas 16/17 prove this is monotone and optimal).
//!
//! Total cost `O(d·n²) + T_maxflow(n)`. The type-3 edge set is built by
//! one gadget per dimension class, each with the min cut of the
//! paper-literal network: the divide-and-conquer sweep ladder
//! (`O(n log n)` edges) at `d ≤ 2`, and the matrix-free Lemma-6 chain
//! ladder (`O(w·n)` edges) at `d ≥ 3`. The paper-literal network itself
//! is the test reference [`super::brute::solve_passive_dense`].
//!
//! # Example
//!
//! ```
//! use mc_core::passive::solve_passive;
//! use mc_geom::{Label, WeightedSet};
//!
//! let mut data = WeightedSet::empty(1);
//! data.push(&[0.0], Label::One, 3.0);  // heavy 1 below...
//! data.push(&[1.0], Label::Zero, 1.0); // ...a cheap 0: flip the 0.
//! let sol = solve_passive(&data);
//! assert_eq!(sol.weighted_error, 1.0);
//! ```

use crate::classifier::MonotoneClassifier;
use crate::passive::certificate::Certificate;
use crate::passive::contending::ContendingPoints;
use crate::passive::sparse::ClassifierNetwork;
use mc_flow::{Dinic, MaxFlowAlgorithm};
use mc_geom::{DominanceIndex, Label, WeightedSet};
use mc_obs::{CancelToken, Cancelled};

/// Result of a passive solve.
#[derive(Debug, Clone)]
pub struct PassiveSolution {
    /// The optimal monotone classifier (anchor representation; defined on
    /// all of `R^d`).
    pub classifier: MonotoneClassifier,
    /// The optimal weighted error `w-err_P(h)` (equation (3)).
    pub weighted_error: f64,
    /// Per-point outputs of the classifier on the input set.
    pub assignment: Vec<Label>,
    /// Number of contending points fed into the flow network.
    pub contending: usize,
}

impl PassiveSolution {
    /// The solution on an empty input: the all-zero classifier.
    pub(crate) fn empty(dim: usize) -> Self {
        Self {
            classifier: MonotoneClassifier::all_zero(dim.max(1)),
            weighted_error: 0.0,
            assignment: Vec::new(),
            contending: 0,
        }
    }
}

/// Solver for Problem 2 (passive weighted monotone classification),
/// parameterized by the max-flow algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveSolver<A: MaxFlowAlgorithm = Dinic> {
    algorithm: A,
}

impl PassiveSolver<Dinic> {
    /// Solver using the default max-flow algorithm (Dinic).
    pub fn new() -> Self {
        Self { algorithm: Dinic }
    }
}

impl<A: MaxFlowAlgorithm> PassiveSolver<A> {
    /// Solver using a specific max-flow algorithm.
    pub fn with_algorithm(algorithm: A) -> Self {
        Self { algorithm }
    }

    /// Validating variant of [`PassiveSolver::solve`] for user-supplied
    /// data: rejects non-finite coordinates (which would poison every
    /// dominance comparison) with a typed error instead of computing
    /// nonsense. Weights and lengths are already guaranteed by
    /// [`WeightedSet`]'s constructors, and the solve is matrix-free at
    /// every `n`. The solve then runs under `token` as in
    /// [`PassiveSolver::solve_cancellable`]; an expired deadline comes
    /// back as [`crate::McError::Timeout`].
    pub fn try_solve(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<PassiveSolution, crate::error::McError> {
        for (index, p) in data.points().iter().enumerate() {
            for (axis, &value) in p.iter().enumerate() {
                if !value.is_finite() {
                    return Err(
                        mc_geom::GeomError::NonFiniteCoordinate { index, axis, value }.into(),
                    );
                }
            }
        }
        Ok(self.solve_cancellable(data, token)?)
    }

    /// Solves Problem 2 on `data`, returning an optimal monotone
    /// classifier and its weighted error.
    pub fn solve(&self, data: &WeightedSet) -> PassiveSolution {
        self.solve_cancellable(data, &CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// Cancellable twin of [`PassiveSolver::solve`]: the token reaches
    /// every super-linear stage of the pipeline — rank sorts,
    /// Hopcroft–Karp matching, ladder binary searches, and the max-flow
    /// phases — each of which polls it at least every ~64k units of
    /// work. On cancellation the partially-built state is dropped
    /// wholesale; the inputs are never mutated, so a fresh solve on the
    /// same data is unaffected (`tests/cancel_safety.rs` asserts
    /// bit-identical re-solves).
    pub fn solve_cancellable(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<PassiveSolution, Cancelled> {
        Ok(self.solve_inner_cancellable(data, token, false)?.0)
    }

    /// Like [`PassiveSolver::solve_cancellable`], but also decomposes
    /// the max flow into a verifiable dual [`Certificate`] — the packing
    /// of inversions proving the returned error optimal. The
    /// decomposition walks flow paths `source → zero → gadget… → one →
    /// sink`, a shape both gadgets (and the dense reference) share, so
    /// [`Certificate::verify`] can audit the answer against the raw data
    /// without re-solving.
    pub fn solve_certified_cancellable(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<(PassiveSolution, Certificate), Cancelled> {
        let (solution, certificate) = self.solve_inner_cancellable(data, token, true)?;
        let certificate = certificate.unwrap_or(Certificate {
            optimal_error: solution.weighted_error,
            charges: Vec::new(),
        });
        Ok((solution, certificate))
    }

    /// [`PassiveSolver::solve`] for callers that hold a
    /// [`DominanceIndex`] over `data.points()`. The index is unused: the
    /// solve is matrix-free at every dimension. This spelling remains
    /// only for mcbench's traced active replay, and goes when ROADMAP
    /// item 3 retires that replay.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not built over exactly `data.points()`.
    pub fn solve_with_index(&self, data: &WeightedSet, index: &DominanceIndex) -> PassiveSolution {
        assert_eq!(index.len(), data.len(), "index/point-set size mismatch");
        self.solve(data)
    }

    fn solve_inner_cancellable(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
        certify: bool,
    ) -> Result<(PassiveSolution, Option<Certificate>), Cancelled> {
        let _span = mc_obs::span("passive");
        token.poll()?; // small inputs may never reach a checkpoint
        if data.is_empty() {
            return Ok((PassiveSolution::empty(data.dim()), None));
        }

        // Both gadgets have the dense network's min cut; see
        // `super::sparse` and `super::ladder`. Each tags itself with a
        // child span so `--trace` shows which one ran. Neither reads a
        // `Θ(n²)` dominator matrix.
        let (con, network) = if data.dim() <= 2 {
            let con = {
                let _span = mc_obs::span("contending");
                crate::passive::sparse::contending_sweep(data)
            };
            token.poll()?;
            let network = (!con.is_empty()).then(|| {
                let _span = mc_obs::span("build_network");
                crate::passive::sparse::build_sparse_network(data, &con)
            });
            token.poll()?;
            (con, network)
        } else {
            // Matrix-free ladder: the chain binary searches double as
            // Lemma-15 contending discovery.
            let _span = mc_obs::span("build_network");
            crate::passive::ladder::discover_and_build_cancellable(data, token)?
        };
        solve_network(&self.algorithm, data, con, network, token, certify)
    }
}

/// Max flow, min cut and classifier readout over a built network — the
/// second half of every passive solve, shared by [`PassiveSolver`] and
/// the dense reference [`super::brute::solve_passive_dense`]. `network`
/// is `None` exactly when nothing contends.
pub(crate) fn solve_network<A: MaxFlowAlgorithm>(
    algorithm: &A,
    data: &WeightedSet,
    con: ContendingPoints,
    network: Option<ClassifierNetwork>,
    token: &CancelToken,
    certify: bool,
) -> Result<(PassiveSolution, Option<Certificate>), Cancelled> {
    let n = data.len();
    mc_obs::counter_add("passive.points", n as u64);
    mc_obs::counter_add("passive.contending", con.len() as u64);
    // Start from the labels themselves; only contending points can flip.
    let mut assignment: Vec<Label> = data.labels().to_vec();

    let mut weighted_error = 0.0;
    let mut certificate = None;
    if let Some(network) = network {
        mc_obs::counter_add("passive.network_nodes", network.net.num_nodes() as u64);
        mc_obs::counter_add("passive.network_edges", network.net.num_edges() as u64);

        let flow = algorithm.solve_cancellable(&network.net, token)?;
        let cut = flow.min_cut(&network.net);
        mc_obs::gauge_set("passive.cut_weight", cut.weight);
        debug_assert!(
            !cut.crosses_infinite,
            "every label-1 contender has a finite sink edge, so a finite cut exists"
        );
        weighted_error = cut.weight;

        // Edge (source, p) is cut ⟺ p left the source side.
        for (zi, &p) in con.zeros.iter().enumerate() {
            if !cut.on_source_side(network.zero_nodes[zi]) {
                assignment[p] = Label::One;
            }
        }
        // Edge (q, sink) is cut ⟺ q stayed on the source side.
        for (oi, &q) in con.ones.iter().enumerate() {
            if cut.on_source_side(network.one_nodes[oi]) {
                assignment[q] = Label::Zero;
            }
        }
        if certify {
            token.poll()?;
            certificate = Some(Certificate {
                optimal_error: weighted_error,
                charges: crate::passive::certificate::decompose_flow(&con, &network, &flow),
            });
        }
    }

    // Verify the Lemma-16/17 invariants in debug builds. Both checks
    // are quadratic-ish, so they are capped to small inputs — the
    // property-test suites cover the same invariants exhaustively at
    // those sizes.
    #[cfg(debug_assertions)]
    if n <= 2_000 {
        debug_assert_eq!(
            crate::classifier::find_monotonicity_violation(data.points(), &assignment),
            None,
            "Lemma 16: the cut classifier must be monotone on P"
        );
    }
    let positive: Vec<bool> = assignment.iter().map(|l| l.is_one()).collect();
    let classifier = MonotoneClassifier::from_positive_points(data.points(), &positive);
    #[cfg(debug_assertions)]
    if n <= 2_000 {
        debug_assert!(
            (classifier.weighted_error_on(data) - weighted_error).abs()
                <= 1e-9 * (1.0 + data.total_weight()),
            "cut weight {} must equal the classifier's weighted error {}",
            weighted_error,
            classifier.weighted_error_on(data)
        );
    }

    Ok((
        PassiveSolution {
            classifier,
            weighted_error,
            assignment,
            contending: con.len(),
        },
        certificate,
    ))
}

/// Solves Problem 2 with the default solver.
pub fn solve_passive(data: &WeightedSet) -> PassiveSolution {
    PassiveSolver::new().solve(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::PointSet;

    fn wset(rows: &[(Vec<f64>, Label, f64)]) -> WeightedSet {
        let dim = rows[0].0.len();
        let mut ws = WeightedSet::empty(dim);
        for (coords, label, weight) in rows {
            ws.push(coords, *label, *weight);
        }
        ws
    }

    #[test]
    fn try_solve_types_a_stopped_token() {
        use crate::McError;
        let ws = wset(&[(vec![0.0], Label::One, 10.0), (vec![1.0], Label::Zero, 2.0)]);
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = PassiveSolver::new().try_solve(&ws, &expired).unwrap_err();
        assert_eq!(err, McError::Timeout);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = PassiveSolver::new().try_solve(&ws, &cancelled).unwrap_err();
        assert_eq!(err, McError::Cancelled);
    }

    #[test]
    fn already_monotone_has_zero_error() {
        let ws = wset(&[(vec![0.0], Label::Zero, 5.0), (vec![1.0], Label::One, 7.0)]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 0.0);
        assert_eq!(sol.contending, 0);
        assert_eq!(sol.assignment, vec![Label::Zero, Label::One]);
    }

    #[test]
    fn single_inversion_flips_cheaper_point() {
        // 1-labeled point below a 0-labeled point; flipping the lighter
        // one is optimal.
        let ws = wset(&[(vec![0.0], Label::One, 10.0), (vec![1.0], Label::Zero, 2.0)]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 2.0);
        // The cheap 0-point flips to 1 (classifier maps both to 1).
        assert_eq!(sol.assignment, vec![Label::One, Label::One]);
    }

    #[test]
    fn single_inversion_other_direction() {
        let ws = wset(&[(vec![0.0], Label::One, 2.0), (vec![1.0], Label::Zero, 10.0)]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 2.0);
        assert_eq!(sol.assignment, vec![Label::Zero, Label::Zero]);
    }

    #[test]
    fn equal_points_conflicting_labels() {
        let ws = wset(&[
            (vec![1.0, 1.0], Label::One, 3.0),
            (vec![1.0, 1.0], Label::Zero, 4.0),
        ]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 3.0);
        // Both points must receive the same output.
        assert_eq!(sol.assignment[0], sol.assignment[1]);
    }

    #[test]
    fn alternating_1d_chain() {
        // Values 1..6 labeled 1,0,1,0,1,0 with unit weights: every
        // threshold misclassifies at least 3 points (e.g. all-zero output
        // misses the three 1-labels), and 3 is achievable.
        let ws = wset(&[
            (vec![1.0], Label::One, 1.0),
            (vec![2.0], Label::Zero, 1.0),
            (vec![3.0], Label::One, 1.0),
            (vec![4.0], Label::Zero, 1.0),
            (vec![5.0], Label::One, 1.0),
            (vec![6.0], Label::Zero, 1.0),
        ]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 3.0);
    }

    #[test]
    fn incomparable_points_cost_nothing() {
        let ws = wset(&[
            (vec![0.0, 1.0], Label::One, 9.0),
            (vec![1.0, 0.0], Label::Zero, 9.0),
        ]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 0.0);
        assert_eq!(sol.assignment, vec![Label::One, Label::Zero]);
    }

    #[test]
    fn empty_input() {
        let ws = WeightedSet::new(PointSet::new(2), vec![], vec![]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 0.0);
        assert!(sol.assignment.is_empty());
    }

    #[test]
    fn middle_heavy_point_wins() {
        // 0 < 1 < 2, labels 0, 1, 0, middle weight huge: flip the outer
        // zeros... only the top one conflicts (bottom 0 is below the 1).
        let ws = wset(&[
            (vec![0.0], Label::Zero, 1.0),
            (vec![1.0], Label::One, 100.0),
            (vec![2.0], Label::Zero, 1.0),
        ]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.weighted_error, 1.0);
        assert_eq!(
            sol.assignment,
            vec![Label::Zero, Label::One, Label::One],
            "the top zero flips to 1"
        );
    }

    #[test]
    fn classifier_generalizes_beyond_input() {
        let ws = wset(&[
            (vec![0.0, 0.0], Label::Zero, 1.0),
            (vec![2.0, 2.0], Label::One, 1.0),
        ]);
        let sol = solve_passive(&ws);
        assert_eq!(sol.classifier.classify(&[3.0, 3.0]), Label::One);
        assert_eq!(sol.classifier.classify(&[1.0, 1.0]), Label::Zero);
        assert_eq!(sol.classifier.classify(&[2.0, 1.9]), Label::Zero);
    }
}
