//! Small statistics helpers: medians, tail percentiles with a minimum
//! tail size, and the open-loop generator's schedule.

use std::time::{Duration, Instant};

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the "tail" is a handful of samples and moves
/// from run to run for no reason.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 0 { (sorted[mid - 1] + sorted[mid]) / 2.0 } else { sorted[mid] })
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `values`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it — so
/// p90 needs at least 100 samples and p50 at least 20.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support under
/// the tail rule of [`percentile`], as a fraction; `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5].into_iter().find(|&q| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        n > 0 && n - rank >= MIN_TAIL_SAMPLES
    })
}

/// "`n` samples (tail to p90)" — the sample count a timing is reported
/// with, and how far into the tail it reaches.
pub fn sample_note(n: usize) -> String {
    match highest_supported_percentile(n) {
        Some(q) => format!("{n} samples (tail to p{})", q * 100.0),
        None => format!("{n} samples (too few for a percentile)"),
    }
}

/// The send schedule of an open-loop generator: request `k` is due at
/// `start + k × period`, whatever happened to the requests before it.
/// Lateness is measured from the due time, so a stall shows up in every
/// request it delays.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    sends: u64,
    late_sends: u64,
    max_lag: Duration,
    total_lag: Duration,
}

impl OpenLoop {
    /// A schedule sending `rate_per_sec` requests per second from `start`.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive.
    pub fn new(start: Instant, rate_per_sec: f64) -> Self {
        assert!(rate_per_sec.is_finite() && rate_per_sec > 0.0, "rate must be positive");
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_sec),
            sends: 0,
            late_sends: 0,
            max_lag: Duration::ZERO,
            total_lag: Duration::ZERO,
        }
    }

    /// When the schedule started.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }

    /// Records that request `k` went out at `sent`; returns how late it was.
    /// A send counts as late when it missed its due time by more than
    /// `slack` (scheduler wake-up jitter is not lateness).
    pub fn record_send(&mut self, k: u64, sent: Instant, slack: Duration) -> Duration {
        let lag = sent.saturating_duration_since(self.due(k));
        self.sends += 1;
        if lag > slack {
            self.late_sends += 1;
        }
        self.max_lag = self.max_lag.max(lag);
        self.total_lag += lag;
        lag
    }

    /// Requests sent so far.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Sends that missed their due time by more than the slack.
    pub fn late_sends(&self) -> u64 {
        self.late_sends
    }

    /// The largest lateness of any send.
    pub fn max_lag(&self) -> Duration {
        self.max_lag
    }

    /// Mean lateness over all sends (zero before the first).
    pub fn mean_lag(&self) -> Duration {
        if self.sends == 0 {
            Duration::ZERO
        } else {
            self.total_lag.div_f64(self.sends as f64)
        }
    }
}

/// Total length of the union of `[start, end]` intervals, in seconds.
/// Empty or inverted intervals contribute nothing.
pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
    let mut spans: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    spans.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in spans {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = current {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        // 99 samples leave only nine beyond p90.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        // p50 needs twenty samples.
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&hundred, 0.0), None);
        assert_eq!(percentile(&hundred, 1.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=200).map(f64::from).collect();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(180.0));
    }

    #[test]
    fn highest_supported_percentile_follows_the_tail_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn open_loop_measures_lateness_from_the_due_time() {
        let start = Instant::now();
        let mut schedule = OpenLoop::new(start, 100.0);
        let slack = Duration::from_millis(1);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(3), start + Duration::from_millis(30));
        // On time, and early (an early send is not negative lateness).
        assert_eq!(schedule.record_send(0, start, slack), Duration::ZERO);
        assert_eq!(schedule.record_send(1, start, slack), Duration::ZERO);
        // A 25 ms stall delays request 2 and makes request 3 late as well,
        // even though request 3 itself was sent the moment it could be.
        let stalled = start + Duration::from_millis(45);
        assert_eq!(schedule.record_send(2, stalled, slack), Duration::from_millis(25));
        assert_eq!(schedule.record_send(3, stalled, slack), Duration::from_millis(15));
        // Within the slack: not late, but still counted in the lag.
        let jitter = schedule.due(4) + Duration::from_micros(500);
        assert_eq!(schedule.record_send(4, jitter, slack), Duration::from_micros(500));
        assert_eq!(schedule.sends(), 5);
        assert_eq!(schedule.late_sends(), 2);
        assert_eq!(schedule.max_lag(), Duration::from_millis(25));
        assert_eq!(schedule.mean_lag(), Duration::from_micros(40_500 / 5));
    }

    #[test]
    fn union_length_merges_overlaps() {
        assert_eq!(union_length(&[]), 0.0);
        assert_eq!(union_length(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(union_length(&[(0.0, 2.0), (1.0, 3.0), (5.0, 5.0), (6.0, 4.0)]), 3.0);
        assert_eq!(union_length(&[(1.0, 3.0), (0.0, 4.0)]), 4.0);
    }
}
