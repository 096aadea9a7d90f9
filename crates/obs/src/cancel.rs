//! Cooperative cancellation: a shared flag + optional deadline that hot
//! loops poll at bounded intervals.
//!
//! A solve stops early when its deadline (`mcc --time-limit`) passes or
//! when someone cancels it (the stall watchdog under `mcc
//! --watch-abort`). That only works if every hot loop — Dinic BFS/DFS
//! phases, Hopcroft–Karp rounds, ladder sweeps, dominance-index build
//! chunks — periodically asks "should I still be running?". This module
//! provides the shared primitive they poll. It lives in `mc-obs` for the
//! same reason the counters do: it is cross-cutting runtime substrate,
//! and `mc-obs` is the one crate every other workspace crate already
//! links (`mc-flow` and `mc-geom` have no other common dependency).
//!
//! # Design
//!
//! * [`CancelToken`] is a cheap-to-clone handle (one `Arc`) over an
//!   atomic state plus an optional monotonic deadline. `cancel()` and
//!   deadline expiry are sticky and record *why* the token stopped
//!   ([`CancelCause::Explicit`] vs [`CancelCause::Deadline`]) so callers
//!   can map the two to distinct errors (`McError::Cancelled` vs
//!   `McError::Timeout` in `mc-core`).
//! * [`CancelToken::never`] costs nothing (no allocation) and makes the
//!   non-cancellable entry points zero-overhead wrappers over the
//!   cancellable ones.
//! * [`Checkpoint`] amortizes polling: hot loops `tick(units)` with
//!   their natural work measure (edges scanned, words ANDed, pushes)
//!   and the token is actually consulted only once per
//!   [`CHECK_INTERVAL`] units, so cancellation latency is bounded by a
//!   constant amount of work — not by a phase or a solve — while the
//!   fast path stays a single integer add.
//!
//! ```
//! use mc_obs::cancel::{CancelToken, Checkpoint};
//!
//! let token = CancelToken::new();
//! let mut cp = Checkpoint::new(&token);
//! for _edge in 0..10_000 {
//!     if cp.tick(1).is_err() {
//!         return; // cancelled: unwind cooperatively
//!     }
//! }
//! ```

use crate::registry::{progress_cell, ProgressCell};
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in caller-defined work units) [`Checkpoint`] consults its
/// token. 64Ki units keeps the common-case cost of cancellation support
/// at one integer add per unit while bounding cancellation latency to
/// the time a hot loop needs to burn ~64k units (microseconds for the
/// word/edge-granularity loops that tick it).
pub const CHECK_INTERVAL: u64 = 64 * 1024;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const EXPIRED: u8 = 2;

/// Why a [`CancelToken`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// Someone called [`CancelToken::cancel`] (e.g. the stall watchdog
    /// under `mcc --watch-abort`).
    Explicit,
    /// The token's deadline passed.
    Deadline,
}

/// Error returned by cancellable operations when their token stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// Why the operation was stopped.
    pub cause: CancelCause,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cause {
            CancelCause::Explicit => f.write_str("operation cancelled"),
            CancelCause::Deadline => f.write_str("operation deadline expired"),
        }
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    deadline: Option<Instant>,
}

/// A shared cooperative-cancellation handle.
///
/// Cloning shares the underlying state: cancelling any clone stops all
/// of them. The default token ([`CancelToken::never`]) has no shared
/// state at all and never stops.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A live token with no deadline; stops only via [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            })),
        }
    }

    /// A live token that additionally expires `limit` from now. A
    /// deadline too far out for [`Instant`] to represent is no deadline:
    /// the token then stops only via [`cancel`](Self::cancel).
    pub fn with_deadline(limit: Duration) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Instant::now().checked_add(limit),
            })),
        }
    }

    /// A token that never stops. Free to construct (no allocation);
    /// every poll short-circuits. Infallible conveniences call their
    /// stage's `try_*` entry with this.
    pub fn never() -> Self {
        Self { inner: None }
    }

    /// Requests cancellation. Sticky; idempotent; a deadline that
    /// already fired wins (the first recorded cause is kept).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            let _ = inner
                .state
                .compare_exchange(LIVE, CANCELLED, Relaxed, Relaxed);
        }
    }

    /// `true` iff the token has stopped (cancelled or expired). Only
    /// reads the atomic — does **not** check the clock; use
    /// [`poll`](Self::poll) (or a [`Checkpoint`]) inside loops so
    /// deadlines actually fire.
    pub fn is_stopped(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.state.load(Relaxed) != LIVE,
            None => false,
        }
    }

    /// Why the token stopped, if it has.
    pub fn cause(&self) -> Option<CancelCause> {
        let inner = self.inner.as_ref()?;
        match inner.state.load(Relaxed) {
            CANCELLED => Some(CancelCause::Explicit),
            EXPIRED => Some(CancelCause::Deadline),
            _ => None,
        }
    }

    /// Checks the flag *and* the deadline, recording expiry so later
    /// polls (and other clones) observe it without re-reading the
    /// clock. The cancellable entry points call this at phase
    /// boundaries; hot loops go through [`Checkpoint`] instead.
    pub fn poll(&self) -> Result<(), Cancelled> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        match inner.state.load(Relaxed) {
            CANCELLED => Err(Cancelled {
                cause: CancelCause::Explicit,
            }),
            EXPIRED => Err(Cancelled {
                cause: CancelCause::Deadline,
            }),
            _ => match inner.deadline {
                Some(d) if Instant::now() >= d => {
                    let _ = inner
                        .state
                        .compare_exchange(LIVE, EXPIRED, Relaxed, Relaxed);
                    // Re-read: a concurrent cancel() may have won the race.
                    self.poll()
                }
                _ => Ok(()),
            },
        }
    }
}

/// Amortized poller for hot loops: counts work units locally and
/// consults the token once per [`CHECK_INTERVAL`] units.
///
/// Deliberately *not* `Clone`: each worker loop owns its own checkpoint
/// so the unit counters never contend.
///
/// With [`with_progress`](Self::with_progress), the checkpoint also
/// publishes the units it has counted into a shared per-phase
/// [`ProgressCell`] — but only on the existing slow path (once per
/// [`CHECK_INTERVAL`] units) and on drop, so live progress reporting
/// costs the hot loop nothing beyond the subtract-and-branch it already
/// pays for cancellation.
#[derive(Debug)]
pub struct Checkpoint<'t> {
    token: &'t CancelToken,
    /// Units until the next poll (counts down; ≤ 0 triggers).
    budget: i64,
    /// Shared progress cell to flush spent units into (`None` unless
    /// collection was enabled at construction).
    progress: Option<&'static ProgressCell>,
}

impl<'t> Checkpoint<'t> {
    /// A checkpoint that polls `token` every [`CHECK_INTERVAL`] units.
    pub fn new(token: &'t CancelToken) -> Self {
        Self {
            token,
            budget: CHECK_INTERVAL as i64,
            progress: None,
        }
    }

    /// A checkpoint that additionally publishes its ticked units as
    /// `progress.<phase>.units`, with `total_hint` seeding the phase's
    /// work-budget estimate. The first nonzero hint of an epoch wins
    /// and later hints are ignored: a stable total keeps the derived
    /// `progress.<phase>.frac` monotone, which the stall watchdog and
    /// the CI telemetry smoke rely on (parallel workers all pass the
    /// same global total, so "first wins" is not a race in practice).
    /// When collection is disabled this is exactly [`new`](Self::new):
    /// no cell is touched and the single-relaxed-load discipline holds.
    pub fn with_progress(token: &'t CancelToken, phase: &'static str, total_hint: u64) -> Self {
        let progress = if crate::enabled() {
            let cell = progress_cell(phase);
            if total_hint > 0 {
                let _ = cell.total.compare_exchange(0, total_hint, Relaxed, Relaxed);
            }
            Some(cell)
        } else {
            None
        };
        Self {
            token,
            budget: CHECK_INTERVAL as i64,
            progress,
        }
    }

    /// Records `units` of work; polls the token when the interval is
    /// spent. The fast path (interval not yet spent, or a `never`
    /// token) is a subtract and a branch.
    #[inline]
    pub fn tick(&mut self, units: u64) -> Result<(), Cancelled> {
        self.budget -= units as i64;
        if self.budget <= 0 {
            self.flush_spent();
            self.budget = CHECK_INTERVAL as i64;
            self.token.poll()?;
        }
        Ok(())
    }

    /// Publishes the units consumed since the last flush (runs only on
    /// the slow path and on drop, never per tick).
    #[cold]
    fn flush_spent(&self) {
        if let Some(cell) = self.progress {
            let spent = CHECK_INTERVAL as i64 - self.budget;
            if spent > 0 {
                cell.done.fetch_add(spent as u64, Relaxed);
            }
        }
    }
}

impl Drop for Checkpoint<'_> {
    fn drop(&mut self) {
        // Flush the sub-interval remainder so short loops still report.
        self.flush_spent();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_stops() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_stopped());
        assert!(t.poll().is_ok());
        assert_eq!(t.cause(), None);
        let mut cp = Checkpoint::new(&t);
        for _ in 0..4 {
            assert!(cp.tick(CHECK_INTERVAL).is_ok());
        }
    }

    #[test]
    fn cancel_is_sticky_and_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(t.poll().is_ok());
        clone.cancel();
        assert!(t.is_stopped());
        assert_eq!(
            t.poll(),
            Err(Cancelled {
                cause: CancelCause::Explicit
            })
        );
        assert_eq!(t.cause(), Some(CancelCause::Explicit));
        t.cancel(); // idempotent
        assert_eq!(t.cause(), Some(CancelCause::Explicit));
    }

    #[test]
    fn deadline_expiry_reports_deadline_cause() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            t.poll(),
            Err(Cancelled {
                cause: CancelCause::Deadline
            })
        );
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
        // Expiry is sticky: a later cancel() does not rewrite the cause.
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
    }

    #[test]
    fn unrepresentable_deadline_is_no_deadline() {
        // Far past what `Instant` can hold: no panic, and the token
        // stays live until an explicit cancel.
        for limit in [Duration::MAX, Duration::from_secs(u64::MAX / 2)] {
            let t = CancelToken::with_deadline(limit);
            assert!(t.poll().is_ok());
            assert_eq!(t.cause(), None);
            t.cancel();
            assert_eq!(t.cause(), Some(CancelCause::Explicit));
        }
    }

    #[test]
    fn is_stopped_does_not_consult_the_clock() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        // Only poll() turns the expired clock into a stopped state.
        assert!(!t.is_stopped());
        assert!(t.poll().is_err());
        assert!(t.is_stopped());
    }

    #[test]
    fn checkpoint_fires_within_one_interval() {
        let t = CancelToken::new();
        t.cancel();
        let mut cp = Checkpoint::new(&t);
        let mut ticks = 0u64;
        let step = 1_000u64;
        loop {
            if cp.tick(step).is_err() {
                break;
            }
            ticks += step;
            assert!(ticks <= CHECK_INTERVAL + step, "checkpoint never fired");
        }
    }

    #[test]
    fn checkpoint_handles_oversized_ticks() {
        let t = CancelToken::new();
        t.cancel();
        let mut cp = Checkpoint::new(&t);
        assert!(cp.tick(CHECK_INTERVAL * 10).is_err());
    }

    #[test]
    fn oversized_ticks_on_live_token_flush_progress() {
        let _l = crate::registry::test_lock();
        let prev = crate::level();
        crate::set_level(crate::Level::Info);
        crate::reset();
        let t = CancelToken::new();
        {
            let mut cp = Checkpoint::with_progress(&t, "test_cancel_oversized", CHECK_INTERVAL * 8);
            // A tick far past the interval polls (live token: Ok) and
            // flushes the full spent amount, not one interval's worth.
            assert!(cp.tick(CHECK_INTERVAL * 10).is_ok());
        } // drop flushes any sub-interval remainder
        let cell = progress_cell("test_cancel_oversized");
        assert_eq!(cell.done.load(Relaxed), CHECK_INTERVAL * 10);
        assert_eq!(cell.total.load(Relaxed), CHECK_INTERVAL * 8);
        // done > total still reports frac = 1 (capped), keeping the
        // derived gauge monotone for the watchdog.
        let snap = crate::snapshot();
        let frac = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "progress.test_cancel_oversized.frac")
            .expect("frac gauge published")
            .1;
        assert_eq!(frac, 1.0);
        crate::set_level(prev);
        crate::reset();
    }

    #[test]
    fn first_nonzero_total_hint_wins() {
        let _l = crate::registry::test_lock();
        let prev = crate::level();
        crate::set_level(crate::Level::Info);
        crate::reset();
        let t = CancelToken::new();
        let _a = Checkpoint::with_progress(&t, "test_cancel_hint", 100);
        let _b = Checkpoint::with_progress(&t, "test_cancel_hint", 999); // ignored
        let _c = Checkpoint::with_progress(&t, "test_cancel_hint", 0); // no-op hint
        assert_eq!(progress_cell("test_cancel_hint").total.load(Relaxed), 100);
        crate::set_level(prev);
        crate::reset();
    }

    #[test]
    fn with_progress_is_inert_when_collection_is_off() {
        let _l = crate::registry::test_lock();
        let prev = crate::level();
        crate::set_level(crate::Level::Warn);
        crate::reset();
        let t = CancelToken::new();
        {
            let mut cp = Checkpoint::with_progress(&t, "test_cancel_gated", CHECK_INTERVAL);
            assert!(cp.tick(CHECK_INTERVAL * 2).is_ok());
        }
        // The phase cell was never registered, let alone written.
        let snap = crate::snapshot();
        assert!(
            !snap
                .gauges
                .iter()
                .any(|(n, _)| n.starts_with("progress.test_cancel_gated")),
            "disabled checkpoint leaked progress gauges"
        );
        crate::set_level(prev);
        crate::reset();
    }

    #[test]
    fn cancelled_error_displays_cause() {
        let c = Cancelled {
            cause: CancelCause::Explicit,
        };
        assert_eq!(c.to_string(), "operation cancelled");
        let d = Cancelled {
            cause: CancelCause::Deadline,
        };
        assert_eq!(d.to_string(), "operation deadline expired");
    }
}
