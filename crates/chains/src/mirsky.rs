//! Mirsky's theorem: the dual decomposition.
//!
//! Where Dilworth partitions the poset into `w` *chains* (`w` = maximum
//! antichain), Mirsky partitions it into `ℓ` *antichains* where `ℓ` is the
//! length of the longest chain. The workspace uses this for workload
//! diagnostics (e.g. `mcc stats` reports the height of a dataset). The
//! production path ([`AntichainPartition::compute`]) reads dominance off
//! `RankOracle` rows and builds no matrix or DAG; the explicit
//! [`DominanceDag`] path ([`AntichainPartition::from_dag`]) is its
//! reference.
//!
//! # Example
//!
//! ```
//! use mc_chains::longest_chain_len;
//! use mc_geom::PointSet;
//!
//! let points = PointSet::from_values_1d(&[3.0, 1.0, 2.0]);
//! assert_eq!(longest_chain_len(&points), 3); // a 1D set is one chain
//! ```

use crate::dag::DominanceDag;
use mc_geom::{iter_ones, PointSet, RankOracle};

/// A partition of point indices into antichains by "height": level `k`
/// contains the points whose longest descending chain has length `k + 1`.
#[derive(Debug, Clone)]
pub struct AntichainPartition {
    levels: Vec<Vec<usize>>,
}

impl AntichainPartition {
    /// Computes the Mirsky partition matrix-free: heights relax over
    /// [`RankOracle::strict_successor_row_into`] rows, one row per point,
    /// visiting points in ascending (rank sum, index) order. Strict
    /// dominance raises one rank and lowers none, so it raises the rank
    /// sum, and equal points are oriented by index; that order is thus a
    /// linear extension of the dominance DAG, and every point's height
    /// is final before its row is pushed. `O(d·n²/64 + E)` time, no
    /// `Θ(n²)` structure.
    pub fn compute(points: &PointSet) -> Self {
        let oracle = RankOracle::build(points);
        let mut height = vec![0usize; oracle.len()];
        let mut row = vec![0u64; oracle.words()];
        for u in oracle.linear_extension() {
            oracle.strict_successor_row_into(u, &mut row);
            let above = height[u] + 1;
            for v in iter_ones(&row) {
                height[v] = height[v].max(above);
            }
        }
        Self::from_heights(&height)
    }

    /// Computes the partition from a pre-built DAG: the reference that
    /// [`compute`](Self::compute) is tested against.
    pub fn from_dag(dag: &DominanceDag) -> Self {
        let n = dag.num_nodes();
        // The DAG is transitively closed, so height[u] = 1 + max height of
        // predecessors. Process in topological order via in-degrees.
        let mut indeg = vec![0usize; n];
        for u in 0..n {
            for &v in dag.successors(u) {
                indeg[v as usize] += 1;
            }
        }
        let mut height = vec![0usize; n];
        let mut stack: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut processed = 0;
        while let Some(u) = stack.pop() {
            processed += 1;
            for &v in dag.successors(u) {
                let v = v as usize;
                height[v] = height[v].max(height[u] + 1);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        assert_eq!(processed, n, "dominance DAG contains a cycle");
        Self::from_heights(&height)
    }

    /// Groups point indices by height, ascending within each level.
    fn from_heights(height: &[usize]) -> Self {
        let num_levels = height.iter().max().map_or(0, |&h| h + 1);
        let mut levels = vec![Vec::new(); num_levels];
        for (u, &h) in height.iter().enumerate() {
            levels[h].push(u);
        }
        Self { levels }
    }

    /// The antichain levels, bottom (minimal points) first.
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// The length of the longest chain (the poset height).
    pub fn longest_chain_len(&self) -> usize {
        self.levels.len()
    }

    /// Validates that every level is an antichain and the levels partition
    /// the index set.
    pub fn validate(&self, points: &PointSet) -> Result<(), String> {
        let n = points.len();
        let mut seen = vec![false; n];
        for (k, level) in self.levels.iter().enumerate() {
            if level.is_empty() {
                return Err(format!("level {k} is empty"));
            }
            for (a, &i) in level.iter().enumerate() {
                if seen[i] {
                    return Err(format!("index {i} in two levels"));
                }
                seen[i] = true;
                for &j in &level[a + 1..] {
                    // Equal points are tie-broken comparable, so they may
                    // not share a level either.
                    if points.dominates(i, j) || points.dominates(j, i) {
                        return Err(format!("level {k}: {i} and {j} comparable"));
                    }
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("levels do not cover every point".into());
        }
        Ok(())
    }
}

/// Length of the longest chain in `points` (the poset height).
pub fn longest_chain_len(points: &PointSet) -> usize {
    AntichainPartition::compute(points).longest_chain_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_has_n_levels() {
        let points = PointSet::from_values_1d(&[4.0, 2.0, 3.0, 1.0]);
        let part = AntichainPartition::compute(&points);
        assert_eq!(part.longest_chain_len(), 4);
        part.validate(&points).unwrap();
    }

    #[test]
    fn antichain_has_one_level() {
        let points = PointSet::from_rows(2, &[vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]]);
        let part = AntichainPartition::compute(&points);
        assert_eq!(part.longest_chain_len(), 1);
        part.validate(&points).unwrap();
    }

    #[test]
    fn grid_height_is_2k_minus_1() {
        let k = 4;
        let mut rows = Vec::new();
        for i in 0..k {
            for j in 0..k {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let points = PointSet::from_rows(2, &rows);
        let part = AntichainPartition::compute(&points);
        assert_eq!(part.longest_chain_len(), 2 * k - 1);
        part.validate(&points).unwrap();
    }

    #[test]
    fn empty_set_has_no_levels() {
        let points = PointSet::new(2);
        let part = AntichainPartition::compute(&points);
        assert_eq!(part.longest_chain_len(), 0);
        part.validate(&points).unwrap();
    }

    #[test]
    fn oracle_levels_match_the_naive_dag_reference() {
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
        let mut rng = StdRng::seed_from_u64(0x3141);
        for dim in 1..=5usize {
            for _ in 0..10 {
                let n = rng.gen_range(0..=200);
                let mut points = PointSet::new(dim);
                for _ in 0..n {
                    let row: Vec<f64> = (0..dim)
                        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                        .collect();
                    points.push(&row);
                }
                let part = AntichainPartition::compute(&points);
                let reference = AntichainPartition::from_dag(&DominanceDag::build_naive(&points));
                assert_eq!(part.levels(), reference.levels(), "dim {dim} n {n}");
                part.validate(&points).unwrap();
            }
        }
    }

    #[test]
    fn mirsky_times_dilworth_bounds_n() {
        // height * width >= n for any poset (pigeonhole on either
        // decomposition).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let n = rng.gen_range(1..40);
            let mut rows = Vec::new();
            for _ in 0..n {
                rows.push(vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]);
            }
            let points = PointSet::from_rows(2, &rows);
            let height = longest_chain_len(&points);
            let width = crate::decomposition::dominance_width(&points);
            assert!(height * width >= n, "{height} * {width} < {n}");
        }
    }
}
