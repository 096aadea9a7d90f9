//! Server-side counters and latency histograms.
//!
//! [`ServeStats`] is always on — the `metrics` control frame must
//! reconcile with client-side counts even when the process-global
//! `mc-obs` registry is at its default (disabled) level. Every update
//! is therefore applied to these local atomics unconditionally and
//! *mirrored* into the `mc-obs` registry (`serve.*` names) when that is
//! enabled, so `--telemetry` sampling and `--obs` summaries see the
//! same numbers.
//!
//! Inventory (matching OBSERVABILITY.md):
//!
//! * `serve.connections` — connections accepted (counter)
//! * `serve.requests` — frames served, including errors (counter)
//! * `serve.errors` — error responses sent (counter)
//! * `serve.points` — single-point classifications performed (counter)
//! * `serve.swaps` — snapshot hot-swaps (counter)
//! * `serve.batch_points` — classify batch sizes (histogram)
//! * `serve.latency_us` — per-request service time, µs (histogram)
//! * `serve.decode_us` — time parsing each classify frame's request,
//!   µs (histogram)
//! * `serve.classify_us` — time inside the anchor index's
//!   `classify_batch` per classify frame, µs (histogram)
//! * `serve.encode_us` — time encoding each classify frame's reply,
//!   µs (histogram)
//!
//! The three stage histograms count the classify frames answered
//! without error; `latency_us` minus their sum is the frame's write,
//! flush and bookkeeping.

use mc_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Always-on serving statistics (one per server).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request frames served (including ones answered with an error).
    pub requests: AtomicU64,
    /// Error responses sent.
    pub errors: AtomicU64,
    /// Total single-point classifications.
    pub points: AtomicU64,
    /// Snapshot swaps performed.
    pub swaps: AtomicU64,
    /// Classify batch sizes.
    pub batch_points: Histogram,
    /// Per-request service latency in microseconds (time from frame
    /// decode start to the flushed reply).
    pub latency_us: Histogram,
    /// Per classify frame, the microseconds spent parsing the request.
    pub decode_us: Histogram,
    /// Per classify frame, the microseconds spent inside
    /// `AnchorIndex::classify_batch`: the index's share of `latency_us`.
    pub classify_us: Histogram,
    /// Per classify frame, the microseconds spent encoding the reply.
    pub encode_us: Histogram,
}

impl ServeStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes an accepted connection.
    pub fn note_connection(&self) {
        self.connections.fetch_add(1, Relaxed);
        mc_obs::counter_add("serve.connections", 1);
    }

    /// Notes one served request: its batch size (for classify frames)
    /// and whether it was answered with an error. Called before the
    /// reply is written, so a client that has read its reply always
    /// finds the request counted.
    pub fn note_request(&self, batch_points: Option<u64>, errored: bool) {
        self.requests.fetch_add(1, Relaxed);
        mc_obs::counter_add("serve.requests", 1);
        if let Some(n) = batch_points {
            self.points.fetch_add(n, Relaxed);
            self.batch_points.record(n);
            mc_obs::counter_add("serve.points", n);
            mc_obs::record("serve.batch_points", n);
        }
        if errored {
            self.errors.fetch_add(1, Relaxed);
            mc_obs::counter_add("serve.errors", 1);
        }
    }

    /// Notes one request's service latency, reply write included.
    pub fn note_latency(&self, latency_us: u64) {
        self.latency_us.record(latency_us);
        mc_obs::record("serve.latency_us", latency_us);
    }

    /// Notes one answered classify frame's stage times: request
    /// decode, the index query and reply encode.
    pub fn note_classify_frame(&self, decode_us: u64, classify_us: u64, encode_us: u64) {
        for (h, name, us) in [
            (&self.decode_us, "serve.decode_us", decode_us),
            (&self.classify_us, "serve.classify_us", classify_us),
            (&self.encode_us, "serve.encode_us", encode_us),
        ] {
            h.record(us);
            mc_obs::record(name, us);
        }
    }

    /// Notes a snapshot swap.
    pub fn note_swap(&self) {
        self.swaps.fetch_add(1, Relaxed);
        mc_obs::counter_add("serve.swaps", 1);
    }

    /// Renders the metrics-frame payload body (the `"metrics"` object).
    pub fn to_json(&self, generation: u64) -> String {
        let q = |h: &Histogram, p: f64| h.quantile(p).unwrap_or(0);
        mc_obs::json::Obj::new()
            .u64("generation", generation)
            .u64("connections", self.connections.load(Relaxed))
            .u64("requests", self.requests.load(Relaxed))
            .u64("errors", self.errors.load(Relaxed))
            .u64("points", self.points.load(Relaxed))
            .u64("swaps", self.swaps.load(Relaxed))
            .u64("batch_p50", q(&self.batch_points, 0.50))
            .u64("batch_p99", q(&self.batch_points, 0.99))
            .u64("latency_us_p50", q(&self.latency_us, 0.50))
            .u64("latency_us_p99", q(&self.latency_us, 0.99))
            .u64("latency_us_max", self.latency_us.max().unwrap_or(0))
            .u64("decode_us_count", self.decode_us.count())
            .u64("decode_us_p50", q(&self.decode_us, 0.50))
            .u64("decode_us_p99", q(&self.decode_us, 0.99))
            .u64("decode_us_max", self.decode_us.max().unwrap_or(0))
            .u64("classify_us_count", self.classify_us.count())
            .u64("classify_us_p50", q(&self.classify_us, 0.50))
            .u64("classify_us_p99", q(&self.classify_us, 0.99))
            .u64("classify_us_max", self.classify_us.max().unwrap_or(0))
            .u64("encode_us_count", self.encode_us.count())
            .u64("encode_us_p50", q(&self.encode_us, 0.50))
            .u64("encode_us_p99", q(&self.encode_us, 0.99))
            .u64("encode_us_max", self.encode_us.max().unwrap_or(0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_in;

    #[test]
    fn counters_accumulate_without_obs() {
        // mc-obs stays at its default level here; the local stats must
        // still count.
        let s = ServeStats::new();
        s.note_connection();
        s.note_request(Some(100), false);
        s.note_latency(250);
        s.note_request(None, true);
        s.note_latency(10);
        s.note_classify_frame(12, 40, 3);
        s.note_swap();
        assert_eq!(s.connections.load(Relaxed), 1);
        assert_eq!(s.requests.load(Relaxed), 2);
        assert_eq!(s.errors.load(Relaxed), 1);
        assert_eq!(s.points.load(Relaxed), 100);
        assert_eq!(s.swaps.load(Relaxed), 1);
        assert_eq!(s.batch_points.count(), 1);
        assert_eq!(s.latency_us.count(), 2);
        assert_eq!(s.decode_us.count(), 1);
        assert_eq!(s.classify_us.count(), 1);
        assert_eq!(s.encode_us.count(), 1);
    }

    #[test]
    fn metrics_json_is_parseable_and_complete() {
        let s = ServeStats::new();
        s.note_request(Some(7), false);
        s.note_latency(123);
        s.note_classify_frame(20, 45, 5);
        let json = s.to_json(3);
        let tree = json_in::parse(json.as_bytes()).expect("valid JSON");
        for key in [
            "generation",
            "connections",
            "requests",
            "errors",
            "points",
            "swaps",
            "batch_p50",
            "batch_p99",
            "latency_us_p50",
            "latency_us_p99",
            "latency_us_max",
            "decode_us_count",
            "decode_us_p50",
            "decode_us_p99",
            "decode_us_max",
            "classify_us_count",
            "classify_us_p50",
            "classify_us_p99",
            "classify_us_max",
            "encode_us_count",
            "encode_us_p50",
            "encode_us_p99",
            "encode_us_max",
        ] {
            assert!(tree.get(key).is_some(), "missing {key}");
        }
        assert_eq!(tree.get("points").unwrap().as_u64(), Some(7));
        assert_eq!(tree.get("generation").unwrap().as_u64(), Some(3));
        for key in ["decode_us_count", "classify_us_count", "encode_us_count"] {
            assert_eq!(tree.get(key).unwrap().as_u64(), Some(1), "{key}");
        }
        assert_eq!(tree.get("decode_us_p50").unwrap().as_u64(), Some(20));
    }
}
