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
//! one of three interchangeable gadgets with identical min cuts (see
//! [`NetworkStrategy`]): the paper-literal dense enumeration, the `d ≤ 2`
//! divide-and-conquer sweep ladder, or the dimension-generic Lemma-6
//! chain ladder (`O(w·n)` edges) that is the default for `d ≥ 3`.
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
use mc_flow::{Capacity, Dinic, FlowNetwork, MaxFlowAlgorithm};
use mc_geom::{bitmask_of, iter_ones, DominanceIndex, Label, WeightedSet};
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

/// Which type-3 connectivity gadget the passive solver builds.
///
/// All three strategies produce networks with identical minimum cuts
/// (the gadget edges are all infinite and preserve zero→one
/// reachability), so they differ only in edge count and build cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NetworkStrategy {
    /// Dimension-dispatched default: the `O(n log n)`-edge
    /// divide-and-conquer sweep gadget for `d ≤ 2`, the `O(w·n)`-edge
    /// chain ladder for `d ≥ 3`. An unset (or `auto`) `MC_FLOW_NET`
    /// resolves here.
    #[default]
    Auto,
    /// The paper-literal Section-5.1 network — one infinite edge per
    /// dominating pair, `Θ(n²)` worst case. Kept as the tested
    /// reference path (`MC_FLOW_NET=dense`).
    Dense,
    /// Force the dimension-generic chain ladder at any `d`, including
    /// `d ≤ 2` (`MC_FLOW_NET=sparse`); used to cross-check the sweep
    /// gadget against the generic one.
    Sparse,
}

impl NetworkStrategy {
    /// Parses a strategy name: `auto`, `dense`, or `sparse`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("auto") || s.is_empty() {
            Some(Self::Auto)
        } else if s.eq_ignore_ascii_case("dense") {
            Some(Self::Dense)
        } else if s.eq_ignore_ascii_case("sparse") {
            Some(Self::Sparse)
        } else {
            None
        }
    }

    /// Reads the `MC_FLOW_NET` env toggle: `auto` (the default),
    /// `dense`, or `sparse`. Unrecognised values warn once and fall back
    /// to the default.
    pub fn from_env() -> Self {
        match std::env::var("MC_FLOW_NET") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|| {
                mc_obs::warn_once(
                    "mc_flow_net_env",
                    "unrecognised MC_FLOW_NET value (expected 'auto', 'dense' or 'sparse'); \
                     using auto",
                );
                Self::Auto
            }),
            Err(_) => Self::Auto,
        }
    }
}

/// Solver for Problem 2 (passive weighted monotone classification),
/// parameterized by the max-flow algorithm and the network-building
/// strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveSolver<A: MaxFlowAlgorithm = Dinic> {
    algorithm: A,
    network: NetworkStrategy,
}

impl PassiveSolver<Dinic> {
    /// Solver using the default max-flow algorithm (Dinic) and the
    /// [`NetworkStrategy::Auto`] network (which defers to `MC_FLOW_NET`).
    pub fn new() -> Self {
        Self {
            algorithm: Dinic,
            network: NetworkStrategy::Auto,
        }
    }
}

impl<A: MaxFlowAlgorithm> PassiveSolver<A> {
    /// Solver using a specific max-flow algorithm.
    pub fn with_algorithm(algorithm: A) -> Self {
        Self {
            algorithm,
            network: NetworkStrategy::Auto,
        }
    }

    /// Overrides the network-building strategy. An explicit setting wins
    /// over the `MC_FLOW_NET` env toggle (which only applies while the
    /// solver is at [`NetworkStrategy::Auto`]).
    pub fn with_network(mut self, network: NetworkStrategy) -> Self {
        self.network = network;
        self
    }

    /// Validating variant of [`PassiveSolver::solve`] for user-supplied
    /// data: rejects non-finite coordinates (which would poison every
    /// dominance comparison) with a typed error instead of computing
    /// nonsense, and refuses up front — [`crate::McError::Budget`], not
    /// an OOM kill — when the strategy would materialize a dominator
    /// matrix over the `MC_MATRIX_BUDGET_BYTES` budget (only the
    /// paper-literal [`NetworkStrategy::Dense`] path builds one; the
    /// default ladder pipeline is matrix-free at every `n`). Weights
    /// and lengths are already guaranteed by [`WeightedSet`]'s
    /// constructors. The solve then runs under `token` as in
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
        let strategy = match self.network {
            NetworkStrategy::Auto => NetworkStrategy::from_env(),
            s => s,
        };
        if strategy == NetworkStrategy::Dense {
            mc_geom::check_matrix_budget(data.len())?;
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
    /// every super-linear stage of the pipeline — the dominance-matrix
    /// fill, rank sorts, Hopcroft–Karp matching, ladder binary searches,
    /// and the max-flow phases — each of which polls it at least every
    /// ~64k units of work. On cancellation the partially-built state is
    /// dropped wholesale; the inputs are never mutated, so a fresh solve
    /// on the same data is unaffected (the portfolio property tests
    /// assert bit-identical re-solves).
    pub fn solve_cancellable(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<PassiveSolution, Cancelled> {
        Ok(self.solve_inner_cancellable(data, None, token, false)?.0)
    }

    /// Like [`PassiveSolver::solve_cancellable`], but also decomposes
    /// the max flow into a verifiable dual [`Certificate`] — the packing
    /// of inversions proving the returned error optimal. Works with
    /// every network strategy (the decomposition walks flow paths
    /// `source → zero → gadget… → one → sink`, a shape all three
    /// builders share), so a portfolio referee can audit any engine's
    /// answer without re-solving densely.
    pub fn solve_certified_cancellable(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<(PassiveSolution, Certificate), Cancelled> {
        let (solution, certificate) = self.solve_inner_cancellable(data, None, token, true)?;
        let certificate = certificate.unwrap_or(Certificate {
            optimal_error: solution.weighted_error,
            charges: Vec::new(),
        });
        Ok((solution, certificate))
    }

    /// Like [`PassiveSolver::solve`], but reuses a prebuilt
    /// [`DominanceIndex`] over `data.points()` for contending-point
    /// discovery and network construction (`d ≥ 3`; for `d ≤ 2` under
    /// [`NetworkStrategy::Auto`] the sparse sweep is faster and the
    /// index is ignored), for callers that already hold an index. The
    /// default [`PassiveSolver::solve`] needs none: at `d ≥ 3` it runs
    /// the matrix-free chain ladder.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not built over exactly `data.points()`.
    pub fn solve_with_index(&self, data: &WeightedSet, index: &DominanceIndex) -> PassiveSolution {
        assert_eq!(index.len(), data.len(), "index/point-set size mismatch");
        self.solve_inner_cancellable(data, Some(index), &CancelToken::never(), false)
            .expect("a never-token cannot cancel")
            .0
    }

    fn solve_inner_cancellable(
        &self,
        data: &WeightedSet,
        index: Option<&DominanceIndex>,
        token: &CancelToken,
        certify: bool,
    ) -> Result<(PassiveSolution, Option<Certificate>), Cancelled> {
        let _span = mc_obs::span("passive");
        token.poll()?; // small inputs may never reach a checkpoint
        let n = data.len();
        if n == 0 {
            return Ok((
                PassiveSolution {
                    classifier: MonotoneClassifier::all_zero(data.dim().max(1)),
                    weighted_error: 0.0,
                    assignment: Vec::new(),
                    contending: 0,
                },
                None,
            ));
        }

        // Resolve the network strategy: an explicit `with_network` choice
        // wins; `Auto` defers to the `MC_FLOW_NET` env toggle (which
        // itself defaults to `Auto` = dimension-dispatched).
        let strategy = match self.network {
            NetworkStrategy::Auto => NetworkStrategy::from_env(),
            s => s,
        };
        let dim = data.dim();

        // Route to a builder. Only the dense network (and a sparse solve
        // that can reuse a caller-shared index for free) reads the
        // `Θ(n²)` bitset matrix; the `d ≤ 2` sweep and the matrix-free
        // ladder pipeline never build it — that is where the ladder's
        // speedup lives, since the matrix fill would dwarf the
        // `O(w·n·log n)` construction it feeds.
        let use_sweep = dim <= 2 && strategy == NetworkStrategy::Auto;
        let owned_index;
        let index = if strategy == NetworkStrategy::Dense && index.is_none() {
            owned_index = DominanceIndex::try_build(data.points(), token)?;
            Some(&owned_index)
        } else {
            index
        };

        // All three builders (sweep gadget, chain ladder, paper-literal
        // dense) have identical min cuts; see `super::sparse` and
        // `super::ladder`. Each tags itself with a child span so
        // `--trace` shows which one ran.
        let (con, network) = if !use_sweep && strategy != NetworkStrategy::Dense && index.is_none()
        {
            // Matrix-free ladder: the chain binary searches double as
            // Lemma-15 contending discovery.
            let _span = mc_obs::span("build_network");
            crate::passive::ladder::discover_and_build_cancellable(data, token)?
        } else {
            let con = {
                let _span = mc_obs::span("contending");
                if dim <= 2 {
                    // The sweep is cheaper than the indexed scan and
                    // yields the same set (tested in `sparse`),
                    // whichever builder runs next.
                    crate::passive::sparse::contending_sweep(data)
                } else {
                    ContendingPoints::compute_indexed(data, index.expect("index exists for d ≥ 3"))
                }
            };
            token.poll()?;
            let network = if con.is_empty() {
                None
            } else {
                let _span = mc_obs::span("build_network");
                Some(match (strategy, index) {
                    (_, None) => crate::passive::sparse::build_sparse_network(data, &con),
                    (NetworkStrategy::Dense, Some(idx)) => build_dense_network(data, &con, idx),
                    (_, Some(idx)) => crate::passive::ladder::build_ladder_network_cancellable(
                        data, &con, idx, token,
                    )?,
                })
            };
            token.poll()?;
            (con, network)
        };
        mc_obs::counter_add("passive.points", n as u64);
        mc_obs::counter_add("passive.contending", con.len() as u64);
        // Start from the labels themselves; only contending points can flip.
        let mut assignment: Vec<Label> = data.labels().to_vec();

        let mut weighted_error = 0.0;
        let mut certificate = None;
        if let Some(network) = network {
            mc_obs::counter_add("passive.network_nodes", network.net.num_nodes() as u64);
            mc_obs::counter_add("passive.network_edges", network.net.num_edges() as u64);

            let flow = self.algorithm.solve_cancellable(&network.net, token)?;
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
}

/// Builds the paper's literal Section-5.1 network: one infinite type-3
/// edge per dominating `(zero, one)` pair, enumerated as set bits of
/// `row(q) AND zeros_mask` per contending label-1 point `q` instead of
/// an `O(d·|P₀|·|P₁|)` coordinate scan. Still `Θ(n²)` edges in the worst
/// case; kept as the tested reference path behind
/// [`NetworkStrategy::Dense`] / `MC_FLOW_NET=dense` (the default for
/// `d ≥ 3` is now the `O(w·n)` chain ladder of `super::ladder`).
///
/// Edge insertion order matches the old pairwise scan exactly — each
/// zero node's forward edges arrive in ascending one-index order and
/// each one node's residual edges in ascending zero-index order — so
/// max-flow results are bit-identical.
pub(crate) fn build_dense_network(
    data: &WeightedSet,
    con: &ContendingPoints,
    index: &DominanceIndex,
) -> crate::passive::sparse::ClassifierNetwork {
    let _span = mc_obs::span("dense");
    let n = data.len();
    let source = 0;
    let sink = 1;
    let mut net = FlowNetwork::new(2 + con.len(), source, sink);
    let zero_nodes: Vec<usize> = (0..con.zeros.len()).map(|i| 2 + i).collect();
    let one_nodes: Vec<usize> = (0..con.ones.len())
        .map(|i| 2 + con.zeros.len() + i)
        .collect();
    for (zi, &p) in con.zeros.iter().enumerate() {
        net.add_edge(source, zero_nodes[zi], data.weight(p));
    }
    for (oi, &q) in con.ones.iter().enumerate() {
        net.add_edge(one_nodes[oi], sink, data.weight(q));
    }
    // Global index → position in `con.zeros` (which is ascending, so bit
    // order and zero-index order coincide).
    let mut zero_pos = vec![u32::MAX; n];
    for (zi, &p) in con.zeros.iter().enumerate() {
        zero_pos[p] = zi as u32;
    }
    let zeros_mask = bitmask_of(n, con.zeros.iter().copied());
    let mut row = Vec::with_capacity(index.words());
    for (oi, &q) in con.ones.iter().enumerate() {
        if index.dominators_and_into(q, &zeros_mask, &mut row) {
            for p in iter_ones(&row) {
                let zi = zero_pos[p] as usize;
                net.add_edge(zero_nodes[zi], one_nodes[oi], Capacity::Infinite);
            }
        }
    }
    crate::passive::sparse::ClassifierNetwork {
        net,
        zero_nodes,
        one_nodes,
    }
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
