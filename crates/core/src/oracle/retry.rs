//! Retrying oracle wrapper: bounded attempts and a circuit breaker.
//!
//! [`RetryOracle`] wraps any [`LabelOracle`] and absorbs *retryable*
//! failures ([`OracleError::is_retryable`]): each probe request is
//! attempted up to [`RetryPolicy::max_attempts`] times. Permanent
//! failures (abstentions, budget exhaustion) pass straight through.
//!
//! The circuit breaker guards against a *down* backend: after
//! [`RetryPolicy::breaker_threshold`] consecutive retryable failures the
//! breaker opens and every subsequent request fails fast with the error
//! that tripped it, without touching the backend. This bounds the work a
//! solve can waste on a dead oracle; the solver then degrades gracefully
//! (see [`SolveReport`](crate::report::SolveReport)). A permanent
//! failure is an answer from a live backend, so it resets the streak as
//! a success does: a run of abstentions or a spent budget never opens
//! the breaker.

use crate::oracle::{LabelOracle, OracleError, OracleStats};
use mc_geom::Label;

/// Retry and breaker configuration for [`RetryOracle`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per probe request (≥ 1; 1 disables retrying).
    pub max_attempts: u32,
    /// Consecutive retryable failures (across probe requests) that open
    /// the circuit breaker; `0` disables the breaker. Any answer or
    /// permanent failure resets the count.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            breaker_threshold: 16,
        }
    }
}

impl RetryPolicy {
    /// Replaces the attempt cap.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Replaces the breaker threshold (`0` disables the breaker).
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold;
        self
    }
}

/// A [`LabelOracle`] wrapper adding retries and a circuit breaker around
/// an inner oracle.
#[derive(Debug, Clone)]
pub struct RetryOracle<O> {
    inner: O,
    policy: RetryPolicy,
    consecutive_failures: u32,
    /// `Some(err)` once the breaker opened; `err` is what tripped it and
    /// is what every fail-fast request returns from then on.
    open: Option<OracleError>,
    attempts: usize,
    retries: usize,
}

impl<O: LabelOracle> RetryOracle<O> {
    /// Wraps `inner` under the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_attempts == 0`.
    pub fn new(inner: O, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "max_attempts must be at least 1");
        Self {
            inner,
            policy,
            consecutive_failures: 0,
            open: None,
            attempts: 0,
            retries: 0,
        }
    }

    /// `true` iff the circuit breaker has opened.
    pub fn breaker_open(&self) -> bool {
        self.open.is_some()
    }
}

impl<O: LabelOracle> LabelOracle for RetryOracle<O> {
    fn probe(&mut self, idx: usize) -> Result<Label, OracleError> {
        if let Some(err) = self.open {
            // Breaker open: fail fast without touching the backend.
            return Err(err);
        }
        for attempt in 1..=self.policy.max_attempts {
            self.attempts += 1;
            if attempt > 1 {
                self.retries += 1;
            }
            match self.inner.probe(idx) {
                Err(err) if err.is_retryable() => {
                    self.consecutive_failures += 1;
                    if self.policy.breaker_threshold > 0
                        && self.consecutive_failures >= self.policy.breaker_threshold
                    {
                        self.open = Some(err);
                        return Err(err);
                    }
                    if attempt == self.policy.max_attempts {
                        return Err(err);
                    }
                }
                answer => {
                    self.consecutive_failures = 0;
                    return answer;
                }
            }
        }
        unreachable!("the loop returns on the last attempt")
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            attempts: self.attempts,
            retries: self.retries,
            breaker_tripped: self.open.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::inject::FlakyOracle;
    use crate::oracle::InMemoryOracle;

    /// Fails the first `fail_first` attempts of every probe request,
    /// then answers `Label::One`.
    struct NthTimeLucky {
        fail_first: u32,
        seen: u32,
        err: OracleError,
    }

    impl LabelOracle for NthTimeLucky {
        fn probe(&mut self, _idx: usize) -> Result<Label, OracleError> {
            if self.seen < self.fail_first {
                self.seen += 1;
                Err(self.err)
            } else {
                self.seen = 0;
                Ok(Label::One)
            }
        }

        fn len(&self) -> usize {
            64
        }

        fn probes_used(&self) -> usize {
            0
        }
    }

    #[test]
    fn transient_failures_absorbed() {
        let inner = NthTimeLucky {
            fail_first: 2,
            seen: 0,
            err: OracleError::Transient { probe: 0 },
        };
        let mut o = RetryOracle::new(inner, RetryPolicy::default().with_max_attempts(3));
        assert_eq!(o.probe(0), Ok(Label::One));
        let stats = o.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert!(!stats.breaker_tripped);
    }

    #[test]
    fn attempts_bounded() {
        let inner = NthTimeLucky {
            fail_first: u32::MAX,
            seen: 0,
            err: OracleError::Timeout { probe: 3 },
        };
        let policy = RetryPolicy::default()
            .with_max_attempts(3)
            .with_breaker_threshold(0);
        let mut o = RetryOracle::new(inner, policy);
        assert_eq!(o.probe(3), Err(OracleError::Timeout { probe: 3 }));
        assert_eq!(o.stats().attempts, 3);
    }

    #[test]
    fn permanent_failures_not_retried() {
        let inner = NthTimeLucky {
            fail_first: u32::MAX,
            seen: 0,
            err: OracleError::Abstain { probe: 5 },
        };
        let mut o = RetryOracle::new(inner, RetryPolicy::default().with_max_attempts(10));
        assert_eq!(o.probe(5), Err(OracleError::Abstain { probe: 5 }));
        assert_eq!(o.stats().attempts, 1, "abstentions must not be retried");
    }

    #[test]
    fn breaker_trips_and_fails_fast() {
        let inner = NthTimeLucky {
            fail_first: u32::MAX,
            seen: 0,
            err: OracleError::Transient { probe: 1 },
        };
        let policy = RetryPolicy::default()
            .with_max_attempts(4)
            .with_breaker_threshold(6);
        let mut o = RetryOracle::new(inner, policy);
        // Request 1: 4 attempts, all fail (consecutive = 4).
        assert!(o.probe(1).is_err());
        assert!(!o.breaker_open());
        // Request 2: trips at the 6th consecutive failed attempt.
        assert!(o.probe(1).is_err());
        assert!(o.breaker_open());
        let attempts_at_trip = o.stats().attempts;
        assert_eq!(attempts_at_trip, 6);
        // Fail-fast: the backend is no longer touched.
        assert_eq!(o.probe(2), Err(OracleError::Transient { probe: 1 }));
        assert_eq!(o.stats().attempts, attempts_at_trip);
        assert!(o.stats().breaker_tripped);
    }

    #[test]
    fn success_resets_consecutive_count() {
        // Alternating fail/success never accumulates enough consecutive
        // failures to trip a threshold of 2.
        let inner = NthTimeLucky {
            fail_first: 1,
            seen: 0,
            err: OracleError::Transient { probe: 0 },
        };
        let policy = RetryPolicy::default()
            .with_max_attempts(2)
            .with_breaker_threshold(2);
        let mut o = RetryOracle::new(inner, policy);
        for _ in 0..20 {
            assert_eq!(o.probe(0), Ok(Label::One));
        }
        assert!(!o.breaker_open());
    }

    #[test]
    fn abstain_streak_leaves_breaker_closed() {
        // Abstentions are answers from a live backend: a streak far
        // longer than the threshold must not open the breaker.
        let inner = NthTimeLucky {
            fail_first: u32::MAX,
            seen: 0,
            err: OracleError::Abstain { probe: 4 },
        };
        let policy = RetryPolicy::default().with_breaker_threshold(3);
        let mut o = RetryOracle::new(inner, policy);
        for _ in 0..20 {
            assert_eq!(o.probe(4), Err(OracleError::Abstain { probe: 4 }));
        }
        assert!(!o.breaker_open());
        assert_eq!(o.stats().attempts, 20, "every request reached the backend");
    }

    #[test]
    fn permanent_failure_resets_the_transient_streak() {
        use crate::oracle::inject::AbstainingOracle;
        // Two transient failures, an abstention, two more: never three
        // retryable failures in a row, so a threshold of 3 stays closed.
        let flaky = FlakyOracle::new(InMemoryOracle::new(vec![Label::One; 4]), 1.0, 0);
        let inner = AbstainingOracle::with_unanswerable(flaky, &[3]);
        let policy = RetryPolicy::default()
            .with_max_attempts(2)
            .with_breaker_threshold(3);
        let mut o = RetryOracle::new(inner, policy);
        assert!(o.probe(0).unwrap_err().is_retryable());
        assert_eq!(o.probe(3), Err(OracleError::Abstain { probe: 3 }));
        assert!(o.probe(1).unwrap_err().is_retryable());
        assert!(!o.breaker_open());
    }

    #[test]
    fn spent_budget_leaves_revealed_points_reachable() {
        use crate::oracle::inject::MeteredOracle;
        let metered = MeteredOracle::new(InMemoryOracle::new(vec![Label::One; 40]), 2);
        let policy = RetryPolicy::default().with_breaker_threshold(4);
        let mut o = RetryOracle::new(metered, policy);
        assert_eq!(o.probe(0), Ok(Label::One));
        assert_eq!(o.probe(1), Ok(Label::One));
        for i in 2..40 {
            assert_eq!(o.probe(i), Err(OracleError::BudgetExhausted { budget: 2 }));
        }
        assert!(!o.breaker_open());
        // Re-probing a revealed point is free and still answered.
        assert_eq!(o.probe(0), Ok(Label::One));
        assert_eq!(o.probes_used(), 2);
    }

    #[test]
    fn passthrough_on_healthy_oracle() {
        let inner = InMemoryOracle::new(vec![Label::Zero, Label::One]);
        let mut o = RetryOracle::new(inner, RetryPolicy::default());
        assert_eq!(o.probe(0), Ok(Label::Zero));
        assert_eq!(o.probe(0), Ok(Label::Zero));
        assert_eq!(o.probes_used(), 1, "re-probing stays free");
        assert_eq!(o.len(), 2);
        assert_eq!(o.stats().retries, 0);
    }

    #[test]
    fn flaky_backend_eventually_answers_everything() {
        let labels: Vec<Label> = (0..200).map(|i| Label::from_bool(i % 3 == 0)).collect();
        let flaky = FlakyOracle::new(InMemoryOracle::new(labels.clone()), 0.3, 11);
        let mut o = RetryOracle::new(flaky, RetryPolicy::default().with_max_attempts(16));
        for (i, &expect) in labels.iter().enumerate() {
            assert_eq!(o.probe(i), Ok(expect));
        }
        assert_eq!(o.probes_used(), 200);
        assert!(o.stats().retries > 0, "30% failure rate must cause retries");
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_rejected() {
        RetryOracle::new(
            InMemoryOracle::new(vec![]),
            RetryPolicy::default().with_max_attempts(0),
        );
    }
}
