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
//! Total cost `O(d·n²) + T_maxflow(n)`. The solver ranks the points
//! into a [`RankTable`] and runs the one rank-space pipeline
//! `pipeline::solve_ranked`, which picks the type-3 gadget by
//! dimension: the divide-and-conquer sweep ladder (`O(n log n)` edges)
//! at `d ≤ 2`, and the matrix-free Lemma-6 chain ladder (`O(w·n)`
//! edges) at `d ≥ 3`. Each has the min cut of the paper-literal network,
//! which is itself the test reference [`super::brute::solve_passive_dense`].
//! The solver then anchors a classifier on the flips the cut reads.
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
use crate::error::McError;
use crate::passive::certificate::Certificate;
use crate::passive::pipeline::{solve_ranked, CutReadout};
use mc_geom::{DominanceIndex, GeomError, Label, RankTable, WeightedSet};
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

    /// Applies the cut's flips to `data`'s labels (non-contending points
    /// keep theirs, Lemma 15) and anchors the classifier on the result.
    /// With `data`'s rank table the minimal positives are found on its
    /// columns ([`MonotoneClassifier::from_ranked_positives`]); the dense
    /// reference passes `None` and anchors every positive point. The
    /// classifiers are `==`.
    pub(crate) fn from_cut(data: &WeightedSet, table: Option<&RankTable>, cut: CutReadout) -> Self {
        let mut assignment: Vec<Label> = data.labels().to_vec();
        for &p in &cut.to_one {
            assignment[p] = Label::One;
        }
        for &q in &cut.to_zero {
            assignment[q] = Label::Zero;
        }
        let weighted_error = cut.weighted_error;

        // Verify the Lemma-16/17 invariants in debug builds. Both checks
        // are quadratic-ish, so they are capped to small inputs — the
        // property-test suites cover the same invariants exhaustively at
        // those sizes.
        #[cfg(debug_assertions)]
        if data.len() <= 2_000 {
            debug_assert_eq!(
                crate::classifier::find_monotonicity_violation(data.points(), &assignment),
                None,
                "Lemma 16: the cut classifier must be monotone on P"
            );
        }
        let positive: Vec<bool> = assignment.iter().map(|l| l.is_one()).collect();
        let classifier = match table {
            Some(table) => {
                MonotoneClassifier::from_ranked_positives(data.points(), table, &positive)
            }
            None => MonotoneClassifier::from_positive_points(data.points(), &positive),
        };
        #[cfg(debug_assertions)]
        if data.len() <= 2_000 {
            debug_assert!(
                (classifier.weighted_error_on(data) - weighted_error).abs()
                    <= 1e-9 * (1.0 + data.total_weight()),
                "cut weight {} must equal the classifier's weighted error {}",
                weighted_error,
                classifier.weighted_error_on(data)
            );
        }

        Self {
            classifier,
            weighted_error,
            assignment,
            contending: cut.con.len(),
        }
    }
}

/// Solver for Problem 2 (passive weighted monotone classification).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveSolver;

impl PassiveSolver {
    /// The solver; it has no options.
    pub fn new() -> Self {
        Self
    }

    /// Solves Problem 2 on user-supplied data under `token`, returning
    /// an optimal monotone classifier and its weighted error. Rejects
    /// non-finite coordinates (which would poison every dominance
    /// comparison) with a typed error instead of computing nonsense;
    /// weights and lengths are already guaranteed by [`WeightedSet`]'s
    /// constructors, and the solve is matrix-free at every `n`.
    ///
    /// The token reaches every super-linear stage of the pipeline — rank
    /// sorts, Hopcroft–Karp matching, ladder binary searches, and the
    /// max-flow phases — each of which polls it at least every ~64k
    /// units of work; an expired deadline comes back as
    /// [`McError::Timeout`], a cancel as [`McError::Cancelled`]. On
    /// cancellation the partially-built state is dropped wholesale; the
    /// inputs are never mutated, so a fresh solve on the same data is
    /// unaffected (`tests/cancel_safety.rs` asserts bit-identical
    /// re-solves).
    pub fn try_solve(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<PassiveSolution, McError> {
        check_finite(data)?;
        Ok(self.solve_inner(data, None, None, token, false)?.0)
    }

    /// Like [`PassiveSolver::try_solve`], but also decomposes the max
    /// flow into a verifiable dual [`Certificate`] — the packing of
    /// inversions proving the returned error optimal. The decomposition
    /// walks flow paths `source → zero → gadget… → one → sink`, a shape
    /// both gadgets (and the dense reference) share, so
    /// [`Certificate::verify`] can audit the answer against the raw data
    /// without re-solving.
    pub fn try_solve_certified(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<(PassiveSolution, Certificate), McError> {
        check_finite(data)?;
        Ok(self.solve_certified(data, token)?)
    }

    /// [`solve_passive`] for the active solvers, which hold a chain
    /// cover of `data`'s label-1 points and, at `d ≥ 3`, its rank
    /// table. `cover` lists point ids of `data` in ascending chains, each
    /// label-1 point in one chain. The `d ≥ 3` ladder wires its rungs on
    /// the cover instead of running Lemma 6 when the cover is certified
    /// minimum, and runs Lemma 6 otherwise. `table`, when given, ranks
    /// `data`'s points (a gather of the input's table, order-preserving
    /// but not dense); otherwise the points are ranked here. The solution
    /// is the same either way.
    pub(crate) fn solve_with_cover(
        &self,
        data: &WeightedSet,
        table: Option<RankTable>,
        cover: &[Vec<usize>],
    ) -> PassiveSolution {
        self.solve_inner(data, table, Some(cover), &CancelToken::never(), false)
            .expect("a never-token cannot cancel")
            .0
    }

    /// [`PassiveSolver::try_solve_certified`] without the finiteness
    /// check, returning the token's stop as [`Cancelled`].
    pub(crate) fn solve_certified(
        &self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<(PassiveSolution, Certificate), Cancelled> {
        let (solution, certificate) = self.solve_inner(data, None, None, token, true)?;
        let certificate = certificate.unwrap_or(Certificate {
            optimal_error: solution.weighted_error,
            charges: Vec::new(),
        });
        Ok((solution, certificate))
    }

    /// [`solve_passive`] for callers that hold a [`DominanceIndex`] over
    /// `data.points()`. The index is unused: the solve is matrix-free at
    /// every dimension. This spelling remains only for mcbench's traced
    /// active replay, and goes when ROADMAP item 9 retires that replay.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not built over exactly `data.points()`.
    pub fn solve_with_index(&self, data: &WeightedSet, index: &DominanceIndex) -> PassiveSolution {
        assert_eq!(index.len(), data.len(), "index/point-set size mismatch");
        solve_passive(data)
    }

    fn solve_inner(
        &self,
        data: &WeightedSet,
        table: Option<RankTable>,
        cover: Option<&[Vec<usize>]>,
        token: &CancelToken,
        certify: bool,
    ) -> Result<(PassiveSolution, Option<Certificate>), Cancelled> {
        let _span = mc_obs::span("passive");
        token.poll()?; // small inputs may never reach a checkpoint
        if data.is_empty() {
            return Ok((PassiveSolution::empty(data.dim()), None));
        }
        let table = match table {
            Some(table) => {
                debug_assert_eq!(table.len(), data.len(), "table/point-set size mismatch");
                table
            }
            None => RankTable::try_build(data.points(), token)?,
        };
        let mut cut = solve_ranked(&table, data.labels(), data.weights(), cover, token, certify)?;
        let certificate = cut.certificate.take();
        Ok((
            PassiveSolution::from_cut(data, Some(&table), cut),
            certificate,
        ))
    }
}

/// Rejects the first non-finite coordinate of `data`.
fn check_finite(data: &WeightedSet) -> Result<(), GeomError> {
    for (index, p) in data.points().iter().enumerate() {
        for (axis, &value) in p.iter().enumerate() {
            if !value.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { index, axis, value });
            }
        }
    }
    Ok(())
}

/// Solves Problem 2 with the default solver, returning an optimal
/// monotone classifier and its weighted error. The infallible
/// convenience of [`PassiveSolver::try_solve`]: no deadline and no
/// finiteness check.
pub fn solve_passive(data: &WeightedSet) -> PassiveSolution {
    PassiveSolver::new()
        .solve_inner(data, None, None, &CancelToken::never(), false)
        .expect("a never-token cannot cancel")
        .0
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
        use crate::passive::try_solve_passive_scale;
        use crate::McError;
        let ws = wset(&[(vec![0.0], Label::One, 10.0), (vec![1.0], Label::Zero, 2.0)]);
        let table = RankTable::build(ws.points());
        let solver = PassiveSolver::new();
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for (token, want) in [
            (&expired, McError::Timeout),
            (&cancelled, McError::Cancelled),
        ] {
            assert_eq!(solver.try_solve(&ws, token).unwrap_err(), want);
            assert_eq!(solver.try_solve_certified(&ws, token).unwrap_err(), want);
            let scale = try_solve_passive_scale(&table, ws.labels(), ws.weights(), token);
            assert_eq!(scale.unwrap_err(), want);
        }
    }

    #[test]
    fn try_entries_reject_non_finite_coordinates() {
        use crate::McError;
        let never = CancelToken::never();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ws = wset(&[
                (vec![0.0, 1.0], Label::One, 1.0),
                (vec![2.0, bad], Label::Zero, 1.0),
            ]);
            let want = |e: McError| {
                matches!(
                    e,
                    McError::Geom(GeomError::NonFiniteCoordinate {
                        index: 1,
                        axis: 1,
                        ..
                    })
                )
            };
            let solver = PassiveSolver::new();
            assert!(want(solver.try_solve(&ws, &never).unwrap_err()), "{bad}");
            assert!(
                want(solver.try_solve_certified(&ws, &never).unwrap_err()),
                "{bad}"
            );
        }
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
