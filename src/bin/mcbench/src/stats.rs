//! Order statistics shared by the runner and `compare`.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median` computes it (the mean of the
/// two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// and `statistics.median` give them, which is how run-to-run spread is
/// judged.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let med = median(&s);
    if s.len() == 1 {
        return (s[0], med, s[0]);
    }
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), med, cut(3))
}

/// Median over the complete one-second windows of a run of `duration_s`
/// seconds of the amount acknowledged in each window. `events` holds
/// `(seconds since the run started, amount)`; the trailing partial window
/// is dropped. Returns `None` when the run has no complete window.
pub fn window_median(events: &[(f64, u64)], duration_s: f64) -> Option<f64> {
    let windows = duration_s.floor() as usize;
    if windows == 0 {
        return None;
    }
    let mut sums = vec![0u64; windows];
    for &(t, amount) in events {
        if t >= 0.0 {
            if let Some(slot) = sums.get_mut(t as usize) {
                *slot += amount;
            }
        }
    }
    let sums: Vec<f64> = sums.into_iter().map(|s| s as f64).collect();
    Some(median(&sums))
}

/// The open-loop schedule: frame `i` is due `i / rate` seconds after the
/// start, whatever happened to the frames before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Frames per second.
    pub rate: u64,
}

impl Schedule {
    /// Nanoseconds after the start at which frame `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// Frames due within the first `seconds` of the run.
    pub fn frames_in(&self, seconds: f64) -> u64 {
        (seconds * self.rate as f64).round() as u64
    }

    /// How late frame `i` went out if it was written `sent_ns` after the
    /// start (0 when it was on time).
    pub fn lateness_ns(&self, i: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.91), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        // p90 of 1,000 samples leaves exactly 100 above it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p90 = nearest_rank(&big, 0.9);
        assert_eq!(big.iter().filter(|&&v| v > p90).count(), 100);
    }

    #[test]
    fn median_and_quartiles_follow_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn window_median_drops_the_partial_window() {
        let mut events = Vec::new();
        for (second, per_event) in [(0, 10u64), (1, 30), (2, 20)] {
            for k in 0..4 {
                events.push((second as f64 + k as f64 * 0.25, per_event));
            }
        }
        // A burst in the partial fourth window must not count.
        events.push((3.5, 1_000_000));
        assert_eq!(window_median(&events, 3.9), Some(80.0));
        assert_eq!(window_median(&events, 0.5), None);
        // Events before the start are ignored, not wrapped into window 0.
        assert_eq!(window_median(&[(-0.1, 5), (0.2, 7)], 1.0), Some(7.0));
    }

    #[test]
    fn open_loop_schedule_keeps_its_rate() {
        let s = Schedule { rate: 5_000 };
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 200_000);
        assert_eq!(s.due_ns(5_000), 1_000_000_000);
        assert_eq!(s.frames_in(20.0), 100_000);
        assert_eq!(s.lateness_ns(1, 150_000), 0);
        assert_eq!(s.lateness_ns(1, 450_000), 250_000);
        // Due times do not drift when the rate does not divide 1e9.
        let odd = Schedule { rate: 3 };
        assert_eq!(odd.due_ns(3), 1_000_000_000);
        assert_eq!(odd.due_ns(1), 333_333_333);
    }
}
