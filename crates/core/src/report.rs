//! Solve-level resilience reporting.
//!
//! Every active solve produces a [`SolveReport`] describing how the run
//! interacted with its oracle: how many probe requests it issued, how
//! many failed and were given up on, whether a circuit breaker opened,
//! and — the headline bit — whether the result is *degraded* (fit on a
//! sample missing points the fault-free run would have had).

use crate::oracle::OracleStats;

/// How a solve fared against its oracle.
///
/// A fault-free run reports all-zero counters except `attempts` and
/// `degraded == false`. `degraded == true` means at least one probe
/// request failed for good (an abstention, a spent budget, retries run
/// out, or an open breaker), so the classifier was fit on a sample Σ
/// missing those points; the result is still monotone and still
/// minimizes `w-err_Σ` on what *was* answered, but the paper's `(1+ε)`
/// guarantee no longer covers the dropped points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveReport {
    /// Probe requests issued by the solver (with-replacement draws plus
    /// exhaustive probes; a retry layer may multiply these into more
    /// backend attempts — see `retries`).
    pub attempts: usize,
    /// Extra backend attempts spent by a
    /// [`RetryOracle`](crate::oracle::RetryOracle) beyond the first per
    /// request (0 for oracles without one).
    pub retries: usize,
    /// Probe requests that failed for good, whatever the cause: an
    /// abstention, a spent budget, retries run out or an open breaker.
    /// The corresponding draws or points were dropped from the sample Σ.
    pub dropped: usize,
    /// `true` iff a circuit breaker opened during the solve.
    pub breaker_tripped: bool,
    /// `true` iff the result was fit on a sample degraded by permanent
    /// failures.
    pub degraded: bool,
    /// Process peak RSS in bytes when the report was finalized (`VmHWM`
    /// on Linux, 0 elsewhere — see `mc_obs::peak_rss_bytes`). A
    /// process-wide high-water mark, not a per-solve delta, so it upper
    /// bounds the solve's residency. Purely informational: never
    /// affects [`is_clean`](Self::is_clean).
    pub peak_rss_bytes: u64,
}

impl SolveReport {
    /// `true` iff the run saw no failures at all (retries included).
    pub fn is_clean(&self) -> bool {
        self.retries == 0 && self.dropped == 0 && !self.breaker_tripped && !self.degraded
    }

    /// Folds in the oracle-layer counter movement across the solve
    /// (`after − before`) and computes the `degraded` verdict.
    pub(crate) fn finalize(&mut self, before: &OracleStats, after: &OracleStats) {
        self.retries += after.retries.saturating_sub(before.retries);
        self.breaker_tripped |= after.breaker_tripped;
        self.degraded = self.dropped > 0 || self.breaker_tripped;
        self.stamp_peak_rss();
    }

    /// Records the process's current peak RSS into the report and the
    /// `mem.peak_rss_bytes` gauge. Called by `finalize` on the active
    /// paths; passive/scale report builders call it directly.
    pub fn stamp_peak_rss(&mut self) {
        self.peak_rss_bytes = mc_obs::record_peak_rss();
    }

    /// Renders the report as one JSON object in the `mc-obs` JSONL
    /// schema (`"type": "solve_report"`), so bench reports and the
    /// `--metrics-out` stream share one vocabulary. The counter fields
    /// here reconcile with the registry's `oracle.*` counters (the
    /// active solver bulk-adds them from this same struct).
    pub fn to_json(&self) -> String {
        mc_obs::json::Obj::new()
            .str("type", "solve_report")
            .u64("attempts", self.attempts as u64)
            .u64("retries", self.retries as u64)
            .u64("dropped", self.dropped as u64)
            .bool("breaker_tripped", self.breaker_tripped)
            .bool("degraded", self.degraded)
            .u64("peak_rss_bytes", self.peak_rss_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_by_default() {
        let r = SolveReport::default();
        assert!(r.is_clean());
        assert!(!r.degraded);
    }

    #[test]
    fn finalize_folds_stats_delta() {
        let mut r = SolveReport {
            attempts: 10,
            dropped: 2,
            ..SolveReport::default()
        };
        let before = OracleStats {
            retries: 3,
            ..OracleStats::default()
        };
        let after = OracleStats {
            retries: 8,
            breaker_tripped: true,
            ..OracleStats::default()
        };
        r.finalize(&before, &after);
        assert_eq!(r.retries, 5);
        assert!(r.breaker_tripped);
        assert!(r.degraded);
        assert!(!r.is_clean());
    }

    #[test]
    fn to_json_is_schema_tagged() {
        let r = SolveReport {
            attempts: 12,
            retries: 3,
            dropped: 1,
            breaker_tripped: false,
            degraded: true,
            peak_rss_bytes: 4096,
        };
        assert_eq!(
            r.to_json(),
            r#"{"type":"solve_report","attempts":12,"retries":3,"dropped":1,"breaker_tripped":false,"degraded":true,"peak_rss_bytes":4096}"#
        );
    }

    #[test]
    fn no_failures_is_not_degraded() {
        let mut r = SolveReport {
            attempts: 4,
            ..SolveReport::default()
        };
        let stats = OracleStats::default();
        r.finalize(&stats, &stats);
        assert!(!r.degraded);
        assert!(r.is_clean());
    }
}
