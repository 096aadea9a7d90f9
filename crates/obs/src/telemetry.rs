//! Live telemetry: a background time-series sampler, a flight-recorder
//! ring, and a progress/stall watchdog.
//!
//! The snapshot sinks in [`crate::sink`] answer "what happened" after a
//! run ends; this module answers "what is happening" while a
//! multi-minute solve is still going, and "what was happening" when one
//! dies. An opt-in background thread ([`start`]) wakes every
//! `interval` and appends one `sample` JSON line to the `mc-obs/ts1`
//! stream: counter deltas since the previous tick, current gauges
//! (including the `progress.<phase>.*` gauges published by
//! [`Checkpoint::with_progress`](crate::cancel::Checkpoint::with_progress)),
//! the live resident set ([`crate::mem::current_rss_bytes`]), and the
//! innermost open span of every thread.
//!
//! Every emitted line is also kept in a fixed-size ring. When a solve
//! ends abnormally, [`dump`] appends a single `dump` line carrying the
//! ring (the last N `sample`/`stall` lines), the active span stack of
//! every thread, and a registry snapshot — the autopsy record a timeout
//! would otherwise discard.
//!
//! The watchdog rides inside the sampler thread: when
//! [`SamplerConfig::stall_window`] is set and the sum of all
//! `progress.*.units` gauges fails to advance for that long, it emits a
//! `stall` line (stream + ring + registry event) and, if an abort token
//! was supplied, cancels it so the solve unwinds cooperatively through
//! the existing [`CancelToken`] plumbing.
//!
//! # Cost discipline
//!
//! Nothing here touches the hot path. When the sampler is not running
//! (the default), no thread exists. Progress publication happens on the
//! checkpoint slow path only (once per `CHECK_INTERVAL` units). The
//! sampler itself takes the registry lock once per tick — at a 100 ms
//! cadence that is noise next to any solve worth watching.
//!
//! The stream schema is documented in `docs/OBSERVABILITY.md`.

use crate::cancel::CancelToken;
use crate::json::{Obj, Value};
use crate::registry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of the time-series stream (the first line of every
/// telemetry file is a `meta` record carrying it).
pub const TS_SCHEMA: &str = "mc-obs/ts1";

/// Configuration for [`start`].
#[derive(Debug)]
pub struct SamplerConfig {
    /// Output file for the JSONL stream (truncated on start).
    pub path: PathBuf,
    /// Sampling cadence (default 100 ms).
    pub interval: Duration,
    /// How many recent lines the flight-recorder ring retains
    /// (default 64).
    pub ring_capacity: usize,
    /// Enables the stall watchdog: with no `progress.*.units` advance
    /// for this long, a `stall` line is emitted (default off).
    pub stall_window: Option<Duration>,
    /// Token the watchdog cancels when it detects a stall (typically
    /// the solve's own token, so the run unwinds as `Cancelled`).
    pub abort: Option<CancelToken>,
    /// Extra fields for the leading `meta` line (tool name, n, seed).
    pub meta: Vec<(String, Value)>,
}

impl SamplerConfig {
    /// A sampler writing to `path` with the default 100 ms cadence, a
    /// 64-line ring, and no watchdog.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            interval: Duration::from_millis(100),
            ring_capacity: 64,
            stall_window: None,
            abort: None,
            meta: Vec::new(),
        }
    }
}

/// State shared between the sampler thread and the control functions.
struct Shared {
    file: Mutex<File>,
    ring: Mutex<VecDeque<String>>,
    ring_capacity: usize,
    stop: AtomicBool,
    start: Instant,
}

impl Shared {
    fn t_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn lock_file(&self) -> MutexGuard<'_, File> {
        self.file.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `line` to both the stream and the flight-recorder ring.
    fn emit(&self, line: String) {
        {
            let mut f = self.lock_file();
            let _ = writeln!(f, "{line}");
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(line);
    }
}

struct Handle {
    shared: Arc<Shared>,
    join: JoinHandle<()>,
}

fn state() -> &'static Mutex<Option<Handle>> {
    static STATE: OnceLock<Mutex<Option<Handle>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn shared() -> Option<Arc<Shared>> {
    state()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|h| Arc::clone(&h.shared))
}

/// Starts the background sampler. Returns `Ok(true)` when a new sampler
/// was spawned, `Ok(false)` when one is already running (idempotent —
/// the existing sampler keeps its configuration). The leading `meta`
/// line is written synchronously, so a bad path fails here, not later
/// in the thread.
pub fn start(config: SamplerConfig) -> io::Result<bool> {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        return Ok(false);
    }
    let mut file = File::create(&config.path)?;
    let mut meta = Obj::new().str("type", "meta").str("schema", TS_SCHEMA);
    if let Some(sha) = crate::meta::git_sha() {
        meta = meta.str("git_sha", &sha);
    }
    meta = meta
        .u64("pid", u64::from(std::process::id()))
        .u64("interval_ms", config.interval.as_millis() as u64)
        .u64("ring_capacity", config.ring_capacity as u64)
        .u64("threads_available", crate::meta::available_threads());
    if let Some(w) = config.stall_window {
        meta = meta
            .u64("stall_window_ms", w.as_millis() as u64)
            .bool("watch_abort", config.abort.is_some());
    }
    for (k, v) in &config.meta {
        meta = meta.value(k, v);
    }
    writeln!(file, "{}", meta.finish())?;
    let shared = Arc::new(Shared {
        file: Mutex::new(file),
        ring: Mutex::new(VecDeque::with_capacity(config.ring_capacity.max(1))),
        ring_capacity: config.ring_capacity.max(1),
        stop: AtomicBool::new(false),
        start: Instant::now(),
    });
    let thread_shared = Arc::clone(&shared);
    let join = std::thread::Builder::new()
        .name("mc-obs-sampler".into())
        .spawn(move || run(&thread_shared, &config))?;
    *guard = Some(Handle { shared, join });
    Ok(true)
}

/// Whether a sampler is currently running.
pub fn is_running() -> bool {
    shared().is_some()
}

/// Stops the sampler: the thread takes one final sample, the stream is
/// flushed, and the file is closed. Returns whether a sampler was
/// actually running (so a second `stop` is a no-op, not an error).
pub fn stop() -> bool {
    let handle = state().lock().unwrap_or_else(|e| e.into_inner()).take();
    let Some(h) = handle else {
        return false;
    };
    h.shared.stop.store(true, Relaxed);
    let _ = h.join.join();
    let _ = h.shared.lock_file().flush();
    true
}

/// Appends a flight-recorder `dump` line — the ring of recent
/// `sample`/`stall` lines, every thread's active span stack, current
/// RSS, and a registry counter/gauge snapshot — to the telemetry stream.
/// Call when a solve ends abnormally (timeout, cancellation, stall),
/// *before* [`stop`]. Returns whether a dump was written (false when no
/// sampler is running — there is no ring to dump).
pub fn dump(reason: &str) -> bool {
    let Some(sh) = shared() else {
        return false;
    };
    let read = registry_read();
    let samples: Vec<String> = {
        let ring = sh.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    };
    let mut arr = String::from("[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        arr.push_str(s);
    }
    arr.push(']');
    let line = Obj::new()
        .str("type", "dump")
        .str("reason", reason)
        .u64("t_ms", sh.t_ms())
        .u64("rss_bytes", crate::mem::current_rss_bytes())
        .raw("threads", &threads_json(&read.threads))
        .raw("counters", &counters_json(&read.counters))
        .raw("gauges", &gauges_json(&read.gauges))
        .raw("samples", &arr)
        .finish();
    let mut f = sh.lock_file();
    let _ = writeln!(f, "{line}");
    let _ = f.flush();
    true
}

/// One consistent read of what the sampler needs: counter values,
/// gauges (stored + progress-derived), and per-thread active spans.
/// Cheaper than [`crate::snapshot`] — no span-forest walk, no event
/// buffer clone.
struct RegistryRead {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    threads: Vec<(u64, String)>,
}

fn registry_read() -> RegistryRead {
    let g = registry::inner();
    let counters = g
        .counters
        .iter()
        .map(|(&n, c)| (n.to_string(), c.load(Relaxed)))
        .collect();
    let mut gauges: Vec<(String, f64)> =
        g.gauges.iter().map(|(&n, &v)| (n.to_string(), v)).collect();
    g.progress_gauges(&mut gauges);
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let threads = g.active_paths();
    RegistryRead {
        counters,
        gauges,
        threads,
    }
}

fn threads_json(threads: &[(u64, String)]) -> String {
    let mut arr = String::from("[");
    for (i, (tid, span)) in threads.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        let _ = write!(
            arr,
            r#"{{"tid":{tid},"span":"{}"}}"#,
            crate::json::escape(span)
        );
    }
    arr.push(']');
    arr
}

fn counters_json(counters: &[(String, u64)]) -> String {
    let mut obj = Obj::new();
    for (name, v) in counters {
        obj = obj.u64(name, *v);
    }
    obj.finish()
}

fn gauges_json(gauges: &[(String, f64)]) -> String {
    let mut obj = Obj::new();
    for (name, v) in gauges {
        obj = obj.f64(name, *v);
    }
    obj.finish()
}

/// Watchdog bookkeeping across ticks.
struct Watch {
    last_units: f64,
    last_advance: Instant,
    tripped: bool,
}

/// The sampler thread body: sample immediately (so even sub-interval
/// runs record at least one live sample), then once per interval until
/// stopped, with one final sample on the way out.
fn run(sh: &Shared, config: &SamplerConfig) {
    let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut seq = 0u64;
    let mut watch = Watch {
        last_units: 0.0,
        last_advance: Instant::now(),
        tripped: false,
    };
    loop {
        take_sample(sh, config, &mut last_counters, &mut seq, &mut watch);
        // Sleep in short slices so stop() returns promptly even with a
        // long sampling interval.
        let deadline = Instant::now() + config.interval;
        loop {
            if sh.stop.load(Relaxed) {
                take_sample(sh, config, &mut last_counters, &mut seq, &mut watch);
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
        }
    }
}

fn take_sample(
    sh: &Shared,
    config: &SamplerConfig,
    last_counters: &mut BTreeMap<String, u64>,
    seq: &mut u64,
    watch: &mut Watch,
) {
    let read = registry_read();
    // Counter deltas since the previous sample; zero deltas are elided
    // so idle counters do not bloat every line.
    let mut deltas = Obj::new();
    for (name, v) in &read.counters {
        let prev = last_counters.insert(name.clone(), *v).unwrap_or(0);
        if *v > prev {
            deltas = deltas.u64(name, *v - prev);
        }
    }
    let line = Obj::new()
        .str("type", "sample")
        .u64("seq", *seq)
        .u64("t_ms", sh.t_ms())
        .u64("rss_bytes", crate::mem::current_rss_bytes())
        .raw("counters", &deltas.finish())
        .raw("gauges", &gauges_json(&read.gauges))
        .raw("threads", &threads_json(&read.threads))
        .finish();
    sh.emit(line);
    *seq += 1;

    let Some(window) = config.stall_window else {
        return;
    };
    // `+ 0.0` normalizes the empty sum, whose identity is -0.0, so the
    // stall line never prints "units":-0.
    let units: f64 = read
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("progress.") && n.ends_with(".units"))
        .map(|&(_, v)| v)
        .sum::<f64>()
        + 0.0;
    if units > watch.last_units {
        watch.last_units = units;
        watch.last_advance = Instant::now();
        watch.tripped = false;
    } else if !watch.tripped && watch.last_advance.elapsed() >= window {
        watch.tripped = true;
        let aborted = config.abort.is_some();
        let stall = Obj::new()
            .str("type", "stall")
            .u64("t_ms", sh.t_ms())
            .u64("window_ms", window.as_millis() as u64)
            .f64("units", units)
            .bool("aborted", aborted)
            .raw("threads", &threads_json(&read.threads))
            .finish();
        sh.emit(stall);
        crate::event(
            "telemetry.stall",
            &[
                ("window_ms", Value::U(window.as_millis() as u64)),
                ("aborted", Value::B(aborted)),
            ],
        );
        if let Some(token) = &config.abort {
            token.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::{CancelToken, Checkpoint, CHECK_INTERVAL};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mc-obs-ts-{tag}-{}.jsonl", std::process::id()))
    }

    /// Extracts a bare numeric `"key":value` field from a JSONL line.
    fn field_f64(line: &str, key: &str) -> Option<f64> {
        let tag = format!("\"{key}\":");
        let i = line.find(&tag)? + tag.len();
        let rest = &line[i..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    #[test]
    fn start_and_stop_are_idempotent() {
        let _l = crate::registry::test_lock();
        let path = temp_path("idem");
        assert!(start(SamplerConfig::new(&path)).unwrap());
        assert!(
            !start(SamplerConfig::new(&path)).unwrap(),
            "second start must be a no-op"
        );
        assert!(is_running());
        assert!(dump("test-reason"));
        assert!(stop());
        assert!(!is_running());
        assert!(!stop(), "second stop must be a no-op");
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains(r#""schema":"mc-obs/ts1""#), "{first}");
        // Immediate first sample + final sample on stop: even a
        // sub-interval run records at least two.
        let samples = text
            .lines()
            .filter(|l| l.contains(r#""type":"sample""#))
            .count();
        assert!(samples >= 2, "{text}");
        assert!(
            text.contains(r#""type":"dump","reason":"test-reason""#),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dump_is_a_noop_without_a_sampler() {
        let _l = crate::registry::test_lock();
        assert!(!dump("no-sampler"));
    }

    #[test]
    fn sampler_records_counter_deltas_and_monotone_progress() {
        let _l = crate::registry::test_lock();
        let prev = crate::level();
        crate::set_level(crate::Level::Info);
        crate::reset();
        let path = temp_path("deltas");
        let mut config = SamplerConfig::new(&path);
        config.interval = Duration::from_millis(5);
        assert!(start(config).unwrap());
        let token = CancelToken::new();
        {
            let mut cp = Checkpoint::with_progress(&token, "test_ts_phase", 4 * CHECK_INTERVAL);
            for _ in 0..4 {
                crate::counter_add("test.ts.work", 10);
                let _ = cp.tick(CHECK_INTERVAL);
                std::thread::sleep(Duration::from_millis(8));
            }
        }
        stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let samples: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(r#""type":"sample""#))
            .collect();
        assert!(samples.len() >= 2, "{text}");
        // Per-sample counter deltas reconcile with the total: zero
        // deltas are elided, nonzero ones sum back to what was added.
        let delta_sum: f64 = samples
            .iter()
            .filter_map(|l| field_f64(l, "test.ts.work"))
            .sum();
        assert_eq!(delta_sum, 40.0, "{text}");
        // The derived frac gauge is monotone and ends complete.
        let mut last = -1.0;
        for s in &samples {
            if let Some(f) = field_f64(s, "progress.test_ts_phase.frac") {
                assert!(f >= last, "frac regressed: {s}");
                last = f;
            }
        }
        assert_eq!(last, 1.0, "{text}");
        let _ = std::fs::remove_file(&path);
        crate::set_level(prev);
        crate::reset();
    }

    #[test]
    fn stall_watchdog_cancels_the_abort_token_and_dump_keeps_the_ring() {
        use crate::cancel::CancelCause;
        let _l = crate::registry::test_lock();
        let prev = crate::level();
        crate::set_level(crate::Level::Info);
        crate::reset();
        let path = temp_path("stall");
        let token = CancelToken::new();
        let mut config = SamplerConfig::new(&path);
        config.interval = Duration::from_millis(10);
        config.stall_window = Some(Duration::from_millis(100));
        config.abort = Some(token.clone());
        assert!(start(config).unwrap());
        {
            let _span = crate::span("test_stalled_phase");
            let mut cp = Checkpoint::with_progress(&token, "test_stall", 4 * CHECK_INTERVAL);
            // Some progress, then none: the "solve" hangs inside its span
            // until the watchdog cancels the token.
            assert!(cp.tick(CHECK_INTERVAL).is_ok());
            let give_up = Instant::now() + Duration::from_secs(10);
            while !token.is_stopped() && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(5));
            }
            // The hung loop's next poll unwinds it cooperatively.
            assert!(cp.tick(CHECK_INTERVAL).is_err());
        }
        assert_eq!(token.cause(), Some(CancelCause::Explicit));
        assert!(dump("timeout"));
        stop();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines()
                .next()
                .unwrap()
                .contains(r#""watch_abort":true"#),
            "{text}"
        );
        let stall = text
            .lines()
            .find(|l| l.contains(r#""type":"stall""#))
            .expect("stall line present");
        assert!(stall.contains(r#""aborted":true"#), "{stall}");
        assert!(stall.contains(r#""window_ms":100"#), "{stall}");
        // The stall names the span that was live when progress stopped.
        assert!(stall.contains(r#""span":"test_stalled_phase""#), "{stall}");
        // The dump runs after the span closed, so the span can only
        // appear in it through the ring's pre-abort samples.
        let dump = text
            .lines()
            .find(|l| l.contains(r#""type":"dump""#))
            .expect("dump line present");
        assert!(dump.contains(r#""reason":"timeout""#), "{dump}");
        let ring = &dump[dump.find(r#""samples":[{"#).expect("ring is non-empty")..];
        assert!(ring.contains(r#""type":"sample""#), "{dump}");
        assert!(ring.contains(r#""type":"stall""#), "{dump}");
        assert!(ring.contains(r#""span":"test_stalled_phase""#), "{dump}");
        let _ = std::fs::remove_file(&path);
        crate::set_level(prev);
        crate::reset();
    }
}
