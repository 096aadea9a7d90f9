//! Greedy-seed regression guard, asserted through the `matching.*`
//! observability counters.
//!
//! Lives in an integration test (own process) because the obs registry
//! is a process-global: unit tests running in parallel threads would
//! race on the counter values.

use mc_matching::{BitsetGraph, HopcroftKarpBitset};
use mc_obs::Level;

/// On the ladder graph (`L_i -> {R_i, R_{i+1}}`) the greedy seed already
/// finds the perfect matching, so the phased search must run zero
/// rounds — previously this input cost a full cascade of augmentations.
#[test]
fn ladder_runs_zero_rounds_after_greedy_seed() {
    mc_obs::set_level(Level::Info);
    let k = 10_000;
    let mut g = BitsetGraph::new(k);
    for i in 0..k {
        let mut row = vec![0u64; k.div_ceil(64)].into_boxed_slice();
        for r in [i, i + 1].into_iter().filter(|&r| r < k) {
            row[r >> 6] |= 1u64 << (r & 63);
        }
        g.push(row);
    }
    let (m, _) = HopcroftKarpBitset.solve_with_stats(&g);
    assert_eq!(m.size(), k);

    let snap = mc_obs::snapshot();
    assert_eq!(
        snap.counter("matching.greedy_matched"),
        k as u64,
        "greedy seed should fully match the ladder"
    );
    assert_eq!(
        snap.counter("matching.hk_rounds"),
        0,
        "a fully seeded matching must not trigger BFS/DFS rounds"
    );
    assert_eq!(snap.counter("matching.hk_augmented"), 0);
}
