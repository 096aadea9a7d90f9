//! Memory introspection for scale runs and live telemetry.
//!
//! The scale benches (and the CI memory-budget assert) need the
//! process's high-water resident set, and the telemetry sampler needs
//! the *current* resident set, without any profiler attached. On Linux
//! the kernel tracks both for free: `VmHWM` and `VmRSS` in
//! `/proc/self/status` (kB; `VmHWM` is the peak since process start or
//! the last reset via `/proc/self/clear_refs`, which we never touch).
//!
//! # Platform behavior
//!
//! Elsewhere there is no portable zero-dependency source, so both
//! readings return 0 and a one-shot warning
//! (`mem.proc_status_unavailable`) is emitted the first time a reading
//! is attempted — consumers treat 0 as "measurement unavailable", never
//! as a real size. The same warning fires on Linux if
//! `/proc/self/status` cannot be read or parsed (e.g. a hardened
//! sandbox masking `/proc`).

/// Reads `/proc/self/status`, warning once per process when it is
/// unavailable (off-Linux, or `/proc` masked).
fn proc_self_status() -> Option<String> {
    #[cfg(target_os = "linux")]
    let status = std::fs::read_to_string("/proc/self/status").ok();
    #[cfg(not(target_os = "linux"))]
    let status: Option<String> = None;
    if status.is_none() {
        crate::warn_once(
            "mem.proc_status_unavailable",
            "/proc/self/status unavailable on this platform; \
             RSS gauges will read 0 (measurement unavailable)",
        );
    }
    status
}

/// The process's peak resident set size in bytes: `VmHWM` from
/// `/proc/self/status` on Linux; 0 (plus a one-shot warning) when the
/// source is unavailable — the measurement is best-effort by design.
pub fn peak_rss_bytes() -> u64 {
    proc_self_status()
        .and_then(|s| parse_kb_field(&s, "VmHWM:"))
        .unwrap_or(0)
}

/// The process's *current* resident set size in bytes: `VmRSS` from
/// `/proc/self/status` on Linux; 0 (plus a one-shot warning) when the
/// source is unavailable. Sampled live by the telemetry stream, where
/// peak-only numbers would hide deallocation phases.
pub fn current_rss_bytes() -> u64 {
    proc_self_status()
        .and_then(|s| parse_kb_field(&s, "VmRSS:"))
        .unwrap_or(0)
}

/// Reads the peak RSS and publishes it as the `mem.peak_rss_bytes`
/// gauge (when collection is enabled), returning the value either way.
/// Call at the end of a solve so the phase tree and JSONL stream carry
/// the run's high-water mark.
pub fn record_peak_rss() -> u64 {
    let bytes = peak_rss_bytes();
    crate::gauge_set("mem.peak_rss_bytes", bytes as f64);
    bytes
}

/// Extracts `<key>  <n> kB` from a `/proc/self/status` dump.
fn parse_kb_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line
        .strip_prefix(key)?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_fields() {
        let status = "Name:\tmcc\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_kb_field(status, "VmHWM:"), Some(123456 * 1024));
        assert_eq!(parse_kb_field(status, "VmRSS:"), Some(5 * 1024));
        assert_eq!(parse_kb_field("Name:\tmcc\n", "VmHWM:"), None);
        assert_eq!(parse_kb_field("VmHWM:\tgarbage kB\n", "VmHWM:"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_reports_nonzero_rss() {
        // Any live process has touched at least a page.
        assert!(peak_rss_bytes() > 0);
        assert!(current_rss_bytes() > 0);
        // Peak is at least the current resident set. Read current first:
        // the peak only grows, so a later peak read bounds it even when
        // other tests allocate in between.
        let current = current_rss_bytes();
        assert!(peak_rss_bytes() >= current);
    }
}
