//! Mirsky's theorem: the dual decomposition.
//!
//! Where Dilworth partitions the poset into `w` *chains* (`w` = maximum
//! antichain), Mirsky partitions it into `ℓ` *antichains* where `ℓ` is the
//! length of the longest chain. The workspace uses this for workload
//! diagnostics (e.g. `mcc stats` reports the height of a dataset). The
//! only path ([`AntichainPartition::compute`]) reads dominance off
//! `RankOracle` rows and builds no matrix or DAG; its tests diff it
//! against a pairwise longest-chain scan.
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

    /// Heights by the `O(n²)` longest-chain recursion over pairwise
    /// `compare`: `u` sits below `v` iff `v` dominates `u`, with equal
    /// points oriented by index.
    fn naive_heights(points: &PointSet) -> Vec<usize> {
        use mc_geom::Dominance;
        fn height(points: &PointSet, v: usize, memo: &mut [Option<usize>]) -> usize {
            if let Some(h) = memo[v] {
                return h;
            }
            let h = (0..points.len())
                .filter(|&u| match points.compare(u, v) {
                    Dominance::DominatedBy => true,
                    Dominance::Equal => u < v,
                    _ => false,
                })
                .map(|u| height(points, u, memo) + 1)
                .max()
                .unwrap_or(0);
            memo[v] = Some(h);
            h
        }
        let mut memo = vec![None; points.len()];
        (0..points.len())
            .map(|v| height(points, v, &mut memo))
            .collect()
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
                let reference = AntichainPartition::from_heights(&naive_heights(&points));
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
