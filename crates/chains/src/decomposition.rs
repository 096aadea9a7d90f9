//! Minimum chain decomposition via Dilworth's theorem (Lemma 6).
//!
//! Dilworth \[10\]: the minimum number of chains that partition a poset
//! equals the maximum antichain size (the *dominance width* `w`). The
//! constructive route, used by the paper's Lemma 6:
//!
//! 1. build the dominance DAG (it is its own transitive closure);
//! 2. a partition into `k` chains = a cover of the DAG by `k`
//!    vertex-disjoint paths;
//! 3. minimum path cover = `n − (maximum matching of the split bipartite
//!    graph)`, solved with Hopcroft–Karp in `O(E·sqrt(V))`;
//! 4. König's minimum vertex cover of the same graph yields a maximum
//!    antichain *certificate* of the same size.
//!
//! Total: `O(d·n² + n^2.5)`, matching Lemma 6.
//!
//! One matching engine implements steps 3 and 4:
//! `mc_matching::HopcroftKarpBitset` runs word-parallel phases straight
//! over bitset rows, so no DAG adjacency lists (Θ(n²) edges) are ever
//! materialized, and its last, failing BFS layering is König's
//! alternating-reachable set, so the antichain needs no second
//! traversal.
//! [`ChainDecomposition::compute`] takes its rows from a `RankOracle`'s
//! suffix bitsets and, when all `n` rows would fit the row budget, keeps
//! the rows the Hopcroft–Karp phases ask for; no dominator matrix is
//! built.
//!
//! Every path matches in one labelling: a *linear extension* of the
//! poset, ascending `(Σ_k rank_k, index)`. Each point then comes after
//! everything it dominates, so the split graph's row `l` holds no bit
//! below word `⌊l/64⌋`, and the engine's top-down greedy seed finds each
//! point's successor a few words past the diagonal. The oracle is built
//! over the relabelled points (one oracle per decomposition), and the
//! chains and antichain are mapped back to the caller's indices, chains
//! listed by ascending head and the antichain ascending.
//!
//! Every result is certified by [`ChainDecomposition::validate`]: the
//! chains partition the points and an antichain of the same size proves
//! them minimum (Dilworth). The tests also check the width against
//! Kuhn's `n − |M|` over a pairwise dominance scan.

use mc_geom::{
    linear_extension_order, matrix_bytes, row_budget_bytes, DominanceIndex, PointSet, RankOracle,
    RankTable,
};
use mc_matching::{HopcroftKarpBitset, Matching, OracleGraph, RowSource};
use mc_obs::{CancelToken, Cancelled};

/// `true` iff all of the `n`-point split graph's rows (`n·⌈n/64⌉·8`
/// bytes) would fit [`row_budget_bytes`]: `MC_MATRIX_BUDGET_BYTES` if
/// configured, else 256 MiB.
fn rows_fit_cache(n: usize) -> bool {
    matrix_bytes(n) <= row_budget_bytes()
}

/// A partition of point indices into chains, each sorted in ascending
/// dominance order, together with a maximum-antichain certificate.
#[derive(Debug, Clone)]
pub struct ChainDecomposition {
    /// The chains; `chains[c][i]` is a point index, and
    /// `chains[c][i+1]` dominates `chains[c][i]`.
    chains: Vec<Vec<usize>>,
    /// Point indices forming a maximum antichain (one certificate).
    antichain: Vec<usize>,
}

impl ChainDecomposition {
    /// Computes a minimum chain decomposition of `points` matrix-free:
    /// the points are ranked once and decomposed off the ranks
    /// ([`try_compute_from_table`](Self::try_compute_from_table)).
    /// No `Θ(n²/64)` dominator matrix is built; the row cache stays
    /// within [`row_budget_bytes`].
    pub fn compute(points: &PointSet) -> Self {
        Self::try_compute_from_table(&RankTable::build(points), &CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// Decomposes the points of `table` off their ranks: they are
    /// ordered in a linear extension ([`linear_extension_order`]), one
    /// [`RankOracle`] gathers their rank columns in that order
    /// ([`RankOracle::try_from_table_subset`]), and the matching runs on
    /// it ([`try_compute_from_linear_extension`](Self::try_compute_from_linear_extension)).
    /// Callers that keep the table, such as the active solver, rank
    /// their points once for Lemma 6 and for later restrictions.
    pub fn try_compute_from_table(
        table: &RankTable,
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let labels = linear_extension_order(table.len(), table.dim(), |k, i| table.column(k)[i]);
        let oracle = RankOracle::try_from_table_subset(table, &labels, token)?;
        Self::try_compute_from_linear_extension(&oracle, &labels, token)
    }

    /// Matrix-free decomposition over any [`RankOracle`]: the points are
    /// relabelled in a linear extension and matched over a permuted copy
    /// of the oracle (callers that can build the oracle in that order use
    /// [`try_compute_from_linear_extension`](Self::try_compute_from_linear_extension)
    /// and hold one). The labelling and the rows equal
    /// [`compute`](Self::compute)'s, so the chains, width, and antichain
    /// certificate do too.
    pub fn compute_from_oracle(oracle: &RankOracle) -> Self {
        let never = CancelToken::never();
        let labels = oracle.linear_extension();
        oracle
            .try_permuted(&labels, &never)
            .and_then(|sorted| Self::try_compute_from_linear_extension(&sorted, &labels, &never))
            .expect("a never-token cannot cancel")
    }

    /// Decomposes the points of `oracle`, which must be labelled in a
    /// linear extension of dominance (ascending rank sum, as
    /// [`RankOracle::is_linear_extension`] checks), where oracle point
    /// `l` is caller index `labels[l]`; the chains and antichain come
    /// back in caller indices. Hopcroft–Karp phases revisit rows, so
    /// when all rows would fit the row budget the graph keeps every row
    /// a phase asks for; otherwise every visit recomputes its row. The
    /// rows are bit-identical either way, so the result is too.
    pub fn try_compute_from_linear_extension(
        oracle: &RankOracle,
        labels: &[usize],
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        debug_assert!(
            oracle.is_linear_extension(),
            "labels are not a linear extension"
        );
        let og = if rows_fit_cache(oracle.len()) {
            OracleGraph::with_row_cache(oracle)
        } else {
            OracleGraph::new(oracle)
        };
        Self::from_oracle_graph(&og, labels, token)
    }

    /// Decomposes over `og` and reports the rows its phases cached as
    /// `matching.rows_cached`.
    fn from_oracle_graph(
        og: &OracleGraph<'_>,
        labels: &[usize],
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let _span = mc_obs::span("path_cover");
        let dec = Self::from_rows(og, labels, token)?;
        mc_obs::counter_add("matching.rows_cached", og.rows_cached() as u64);
        Ok(dec)
    }

    /// [`try_compute_from_table`](Self::try_compute_from_table)
    /// under the [`DominanceIndex`] name, for mcbench's traced active
    /// replay; it goes with that name (ROADMAP item 9).
    pub fn compute_from_index(index: &DominanceIndex) -> Self {
        Self::try_compute_from_table(index, &CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// Matches the split graph `g`, whose vertex `l` is caller index
    /// `labels[l]`, with the bitset engine, reads off the chains and the
    /// König antichain, and maps both back to caller indices. The
    /// antichain is read off the engine's last layering: a point whose
    /// left copy is alternating-reachable and whose right copy is not
    /// has neither copy in König's cover. Records `chains.count` and
    /// the `chains.chain_len` histogram.
    fn from_rows<G: RowSource>(
        g: &G,
        labels: &[usize],
        token: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let n = g.num_left();
        if n == 0 {
            return Ok(Self {
                chains: Vec::new(),
                antichain: Vec::new(),
            });
        }
        let (matching, _, reach) = HopcroftKarpBitset.try_solve(g, token)?;
        token.poll()?;
        let mut chains = Self::chains_from_matching(n, &matching);
        let mut antichain: Vec<usize> = (0..n)
            .filter(|&v| reach.left[v] && !reach.right_contains(v))
            .collect();
        for v in chains.iter_mut().flatten().chain(&mut antichain) {
            *v = labels[*v];
        }
        chains.sort_unstable_by_key(|chain| chain[0]);
        antichain.sort_unstable();
        debug_assert_eq!(chains.len(), antichain.len(), "Dilworth duality violated");
        mc_obs::counter_add("chains.count", chains.len() as u64);
        if mc_obs::enabled() {
            let h = mc_obs::histogram("chains.chain_len");
            for c in &chains {
                h.record(c.len() as u64);
            }
        }
        Ok(Self { chains, antichain })
    }

    /// Follows matched successors from every chain head (a vertex whose
    /// right copy is unmatched).
    fn chains_from_matching(n: usize, matching: &Matching) -> Vec<Vec<usize>> {
        let mut chains = Vec::new();
        for start in 0..n {
            if matching.right_match[start].is_some() {
                continue; // not a chain head
            }
            let mut chain = vec![start];
            let mut cur = start;
            while let Some(next) = matching.left_match[cur] {
                cur = next as usize;
                chain.push(cur);
            }
            chains.push(chain);
        }
        chains
    }

    /// The chains (ascending dominance order within each chain).
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// Chain `c` in ascending dominance order: `chain(c)[i + 1] ⪰
    /// chain(c)[i]`. Because `⪰` is transitive, any predicate of the form
    /// "`p ⪰` chain element" is monotone along the chain — downstream
    /// consumers (the passive solver's ladder gadget) exploit this to
    /// binary-search the deepest dominated element.
    pub fn chain(&self, c: usize) -> &[usize] {
        &self.chains[c]
    }

    /// The dominance width `w` (number of chains = max antichain size).
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// A maximum antichain certifying minimality (its size equals
    /// [`ChainDecomposition::width`]).
    pub fn antichain(&self) -> &[usize] {
        &self.antichain
    }

    /// Verifies all structural invariants against `points`:
    /// the chains partition the index set, consecutive chain elements are
    /// dominance-comparable (ascending), the certificate is an antichain,
    /// and its size equals the number of chains.
    pub fn validate(&self, points: &PointSet) -> Result<(), String> {
        let n = points.len();
        let mut seen = vec![false; n];
        for (c, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return Err(format!("chain {c} is empty"));
            }
            for &i in chain {
                if i >= n {
                    return Err(format!("chain {c} contains out-of-range index {i}"));
                }
                if seen[i] {
                    return Err(format!("index {i} appears in two chains"));
                }
                seen[i] = true;
            }
            for pair in chain.windows(2) {
                if !points.dominates(pair[1], pair[0]) {
                    return Err(format!(
                        "chain {c}: point {} does not dominate its predecessor {}",
                        pair[1], pair[0]
                    ));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("chains do not cover every point".into());
        }
        for (a, &i) in self.antichain.iter().enumerate() {
            for &j in &self.antichain[a + 1..] {
                if points.dominates(i, j) || points.dominates(j, i) {
                    return Err(format!("certificate points {i} and {j} are comparable"));
                }
            }
        }
        if self.antichain.len() != self.chains.len() {
            return Err(format!(
                "certificate size {} != chain count {}",
                self.antichain.len(),
                self.chains.len()
            ));
        }
        Ok(())
    }
}

/// The dominance width `w` of a point set: the size of its largest
/// antichain (Section 1.2 of the paper).
pub fn dominance_width(points: &PointSet) -> usize {
    ChainDecomposition::compute(points).width()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_in_1d() {
        let points = PointSet::from_values_1d(&[5.0, 2.0, 9.0, 1.0]);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
        // The single chain must be fully sorted ascending.
        let chain = &dec.chains()[0];
        let vals: Vec<f64> = chain.iter().map(|&i| points.point(i)[0]).collect();
        assert_eq!(vals, vec![1.0, 2.0, 5.0, 9.0]);
    }

    #[test]
    fn pure_antichain() {
        let points = PointSet::from_rows(
            2,
            &[
                vec![0.0, 3.0],
                vec![1.0, 2.0],
                vec![2.0, 1.0],
                vec![3.0, 0.0],
            ],
        );
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 4);
        assert_eq!(dec.antichain().len(), 4);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn grid_width_is_side_length() {
        // A k×k grid of points (i, j): the width equals k (the
        // anti-diagonal is a maximum antichain).
        let k = 5;
        let mut rows = Vec::new();
        for i in 0..k {
            for j in 0..k {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let points = PointSet::from_rows(2, &rows);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), k);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn duplicates_share_a_chain() {
        let points = PointSet::from_rows(2, &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn empty_and_singleton() {
        let empty = PointSet::new(3);
        let dec = ChainDecomposition::compute(&empty);
        assert_eq!(dec.width(), 0);
        dec.validate(&empty).unwrap();

        let single = PointSet::from_rows(3, &[vec![1.0, 2.0, 3.0]]);
        let dec = ChainDecomposition::compute(&single);
        assert_eq!(dec.width(), 1);
        dec.validate(&single).unwrap();
    }

    #[test]
    fn oracle_paths_are_certified_minimum_covers() {
        // Same chains, same antichain on every entry — not merely the
        // same width — each certified by its antichain and as wide as
        // Kuhn's minimum path cover over the pairwise scan.
        let cases = [
            crate::test_support::figure1_like_points(),
            PointSet::from_rows(2, &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]),
            PointSet::from_values_1d(&[5.0, 2.0, 9.0, 1.0, 2.0]),
        ];
        for points in &cases {
            let via_table = ChainDecomposition::compute(points);
            let via_oracle = ChainDecomposition::compute_from_oracle(&RankOracle::build(points));
            let via_index = ChainDecomposition::compute_from_index(&RankTable::build(points));
            for dec in [&via_oracle, &via_index] {
                assert_eq!(dec.chains(), via_table.chains());
                assert_eq!(dec.antichain(), via_table.antichain());
            }
            via_table.validate(points).unwrap();
            assert_eq!(via_table.width(), crate::test_support::kuhn_width(points));
        }
    }

    #[test]
    fn oracle_path_handles_empty_input() {
        let dec = ChainDecomposition::compute_from_oracle(&RankOracle::build(&PointSet::new(2)));
        assert_eq!(dec.width(), 0);
    }

    /// Decomposes `oracle` (labelled in a linear extension, point `l`
    /// being caller index `labels[l]`) with and without the phase row
    /// cache; returns both results with the rows each cached (the count
    /// the decomposition reports as `matching.rows_cached`).
    fn decompose_cached_and_on_demand(
        oracle: &RankOracle,
        labels: &[usize],
    ) -> ((ChainDecomposition, usize), (ChainDecomposition, usize)) {
        let never = CancelToken::never();
        let run = |og: OracleGraph<'_>| {
            let dec = ChainDecomposition::from_oracle_graph(&og, labels, &never).unwrap();
            (dec, og.rows_cached())
        };
        (
            run(OracleGraph::with_row_cache(oracle)),
            run(OracleGraph::new(oracle)),
        )
    }

    #[test]
    fn cached_and_on_demand_rows_give_identical_decompositions() {
        use mc_matching::HopcroftKarpBitset;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // A small palette so duplicates, `-0.0`/`0.0` ties and infinite
        // coordinates actually occur.
        const PALETTE: [f64; 8] = [
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -1.5,
            1.0,
            2.0,
            3.25,
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        let assert_identical = |points: &PointSet, what: &str| {
            let table = RankTable::build(points);
            let labels =
                linear_extension_order(points.len(), points.dim(), |k, i| table.column(k)[i]);
            let oracle =
                RankOracle::try_from_table_subset(&table, &labels, &CancelToken::never()).unwrap();
            let ((cached, rows_cached), (on_demand, none_cached)) =
                decompose_cached_and_on_demand(&oracle, &labels);
            assert_eq!(cached.chains(), on_demand.chains(), "{what}");
            assert_eq!(cached.antichain(), on_demand.antichain(), "{what}");
            cached.validate(points).unwrap();
            assert_eq!(
                cached.width(),
                crate::test_support::kuhn_width(points),
                "{what}"
            );
            assert_eq!(none_cached, 0, "{what}");
            let rounds = HopcroftKarpBitset
                .try_solve(&OracleGraph::new(&oracle), &CancelToken::never())
                .unwrap()
                .1
                .rounds;
            (rows_cached, rounds, cached.chains().len())
        };
        for dim in 1..=4usize {
            for _ in 0..12 {
                let n = rng.gen_range(0..160);
                let mut points = PointSet::new(dim);
                for _ in 0..n {
                    let row: Vec<f64> = (0..dim)
                        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                        .collect();
                    points.push(&row);
                }
                assert_identical(&points, &format!("palette dim {dim} n {n}"));
            }
        }

        // Uniform points in 3 dimensions leave the greedy seed short, so
        // Hopcroft–Karp runs phases and the cache keeps their rows.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let (rows_cached, rounds, _) = assert_identical(&PointSet::from_rows(3, &rows), "uniform");
        assert!(rounds >= 1, "uniform input needs at least one phase");
        assert!(rows_cached > 0, "phases cached no row");

        // A shuffled chain: the greedy seed matches it fully, so no
        // round runs and the one BFS caches at most the rows of the
        // unmatched lefts (one per chain).
        let mut chain: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64; 3]).collect();
        for i in (1..chain.len()).rev() {
            chain.swap(i, rng.gen_range(0..=i));
        }
        let (rows_cached, rounds, unmatched) =
            assert_identical(&PointSet::from_rows(3, &chain), "chain");
        assert_eq!(rounds, 0);
        assert!(rows_cached <= unmatched, "{rows_cached} rows cached");
    }

    #[test]
    fn paper_figure1_has_width_6() {
        // Section 2 of the paper decomposes the Figure-1 input into 6
        // chains. We reproduce a 16-point configuration with the same
        // chain/antichain structure: 6 chains of sizes 5,1,3,1,1,5.
        let points = crate::test_support::figure1_like_points();
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 6);
        dec.validate(&points).unwrap();
        let mut sizes: Vec<usize> = dec.chains().iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
    }
}
