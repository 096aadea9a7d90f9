//! Shared chunked-parallelism helper for the quadratic kernels.
//!
//! Several hot paths in the workspace (contending-point discovery, the
//! ladder's zero sweep, the Hopcroft–Karp BFS layers) are embarrassingly
//! parallel over a range of row indices. This module holds the one
//! chunking helper and its limits:
//!
//! * [`PAR_THRESHOLD`] — minimum `n` before threads are spawned; below
//!   it the kernel runs inline on the calling thread.
//! * `MC_THREADS` — cap on the number of worker threads (default: all
//!   available cores).
//!
//! `MC_THREADS` is read from the environment on every call, so a caller
//! can set it at start-up (as benchmark drivers do) and tests can vary
//! it per process. The machine's available parallelism is probed once
//! per process instead: on Linux
//! the probe reads cgroup files and takes tens of microseconds, as long
//! as some dispatched kernels run (a Hopcroft–Karp BFS layer, a
//! single-point classify frame), and a solve or a connection dispatches
//! many of them.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Sequential cutoff: below this many rows, thread startup costs more
/// than it saves.
pub const PAR_THRESHOLD: usize = 2_048;

/// Parses a tunable env value. `None` (unset) quietly yields the
/// default; a set-but-invalid value — non-UTF-8, non-numeric, or zero
/// (a thread count is at least 1) — yields the default *with* a
/// one-shot warning, instead of being silently swallowed.
fn parse_env(var: &'static str, value: Option<std::ffi::OsString>, default: usize) -> usize {
    let Some(raw) = value else {
        return default;
    };
    match raw
        .into_string()
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(v) if v >= 1 => v,
        _ => {
            mc_obs::warn_once(
                var,
                &format!("{var} must be a positive integer; ignoring it (using {default})"),
            );
            default
        }
    }
}

/// The number of worker threads the helpers may use: the machine's
/// available parallelism (probed once per process), capped by
/// `MC_THREADS`.
pub fn max_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available = *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    parse_env("MC_THREADS", std::env::var_os("MC_THREADS"), available)
        .clamp(1, available)
        .max(1)
}

/// Publishes per-chunk timing and thread-utilization stats for one
/// parallel dispatch. Utilization is the mean chunk time over the
/// slowest chunk time: 100% means perfectly balanced chunks, low values
/// mean most workers idled waiting for a straggler.
fn note_dispatch(chunk_ns: &[AtomicU64]) {
    let ns: Vec<u64> = chunk_ns.iter().map(|c| c.load(Relaxed)).collect();
    mc_obs::counter_add("parallel.dispatches", 1);
    mc_obs::counter_add("parallel.chunks", ns.len() as u64);
    let mut sum = 0u64;
    let mut max = 0u64;
    for &v in &ns {
        mc_obs::record("parallel.chunk_ns", v);
        sum += v;
        max = max.max(v);
    }
    if max > 0 {
        let pct = (100 * sum) / (max * ns.len() as u64);
        mc_obs::record("parallel.utilization_pct", pct);
    }
}

/// Splits `0..n` into per-thread contiguous ranges, runs `kernel` on
/// each, and returns the per-chunk results in range order (so
/// concatenating them reproduces the sequential output).
///
/// Runs inline on the calling thread (one chunk) when `n` is below
/// [`PAR_THRESHOLD`] or only one thread is allowed.
pub fn parallel_chunks<T, F>(n: usize, kernel: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = max_threads();
    if n < PAR_THRESHOLD || threads <= 1 {
        mc_obs::counter_add("parallel.sequential", 1);
        return vec![kernel(0..n)];
    }
    let obs_on = mc_obs::enabled();
    let chunk_ns: Vec<AtomicU64> = if obs_on {
        (0..threads).map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    let chunk = n.div_ceil(threads);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                let kernel = &kernel;
                let chunk_ns = &chunk_ns;
                scope.spawn(move || {
                    let start = obs_on.then(Instant::now);
                    let out = kernel(lo..hi);
                    if let Some(start) = start {
                        chunk_ns[t].store(start.elapsed().as_nanos() as u64, Relaxed);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_chunks worker panicked"))
            .collect()
    });
    if obs_on {
        note_dispatch(&chunk_ns);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip the process-global `mc-obs` level
    /// (a concurrent restore to `warn` would disable another test's
    /// counters mid-count).
    fn level_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_env_accepts_positive_numbers() {
        assert_eq!(parse_env("MC_TEST_OK", Some("123".into()), 7), 123);
        assert_eq!(parse_env("MC_TEST_OK", Some(" 64 ".into()), 7), 64);
        assert_eq!(parse_env("MC_TEST_OK", Some("1".into()), 7), 1);
    }

    #[test]
    fn parse_env_unset_is_quietly_default() {
        assert_eq!(parse_env("MC_TEST_UNSET", None, 7), 7);
    }

    #[test]
    fn parse_env_rejects_empty_garbage_and_zero() {
        // Empty string, whitespace, garbage, negatives, and zero all
        // fall back to the default (with a one-shot warning).
        assert_eq!(parse_env("MC_TEST_BAD", Some("".into()), 7), 7);
        assert_eq!(parse_env("MC_TEST_BAD", Some("   ".into()), 7), 7);
        assert_eq!(parse_env("MC_TEST_BAD", Some("garbage".into()), 7), 7);
        assert_eq!(parse_env("MC_TEST_BAD", Some("-3".into()), 7), 7);
        assert_eq!(parse_env("MC_TEST_BAD", Some("1.5".into()), 7), 7);
        assert_eq!(parse_env("MC_TEST_BAD", Some("0".into()), 7), 7);
    }

    #[test]
    fn parse_env_invalid_value_warns_once() {
        parse_env("MC_TEST_WARNKEY", Some("junk".into()), 7);
        parse_env("MC_TEST_WARNKEY", Some("junk".into()), 7);
        let warns = mc_obs::snapshot()
            .events
            .iter()
            .filter(|e| e.contains("MC_TEST_WARNKEY"))
            .count();
        assert_eq!(warns, 1);
    }

    #[test]
    fn chunks_concatenate_in_order() {
        // Small n stays sequential; the contract is the same either way.
        let parts = parallel_chunks(10, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<usize>>());

        // Large n goes parallel (unless capped); order must still hold.
        let parts = parallel_chunks(10_000, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10_000).collect::<Vec<usize>>());
    }

    #[test]
    fn threads_have_a_sane_default() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn counter_increments_from_chunk_workers_are_race_free() {
        // Workers in both dispatch paths bump the same global counter;
        // the total must be exact regardless of how the range chunks.
        let _l = level_lock();
        let prev = mc_obs::level();
        mc_obs::set_level(mc_obs::Level::Info);
        let before = mc_obs::snapshot().counter("test.parallel.items");
        let n = 10_000;
        let parts = parallel_chunks(n, |r| {
            mc_obs::counter_add("test.parallel.items", r.len() as u64);
            r.len()
        });
        assert_eq!(parts.into_iter().sum::<usize>(), n);
        assert_eq!(
            mc_obs::snapshot().counter("test.parallel.items"),
            before + n as u64
        );
        mc_obs::set_level(prev);
    }

    #[test]
    fn counter_adds_from_many_threads_are_exact() {
        // Guaranteed-concurrent version of the above: 8 scoped threads
        // hammer one counter (this box may cap parallel_chunks at one
        // worker, so the dispatch test alone can't prove thread safety).
        let _l = level_lock();
        let prev = mc_obs::level();
        mc_obs::set_level(mc_obs::Level::Info);
        let before = mc_obs::snapshot().counter("test.parallel.race");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        mc_obs::counter_add("test.parallel.race", 1);
                    }
                });
            }
        });
        assert_eq!(
            mc_obs::snapshot().counter("test.parallel.race"),
            before + 8_000
        );
        mc_obs::set_level(prev);
    }
}
