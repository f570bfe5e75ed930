//! The benchmark's own arithmetic: due-time latency, exact percentiles,
//! failure accounting and span self time. Kept free of program types so
//! the unit tests below pin down exactly what every reported figure means.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it names is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The open-loop schedule of a paced phase: step `i` is due at
/// `start + i / rate`, whether or not earlier steps have completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, steps_per_sec: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / steps_per_sec),
        }
    }

    /// When step `i` is due to be sent.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }
}

/// Latency charged to a request: from when it was *due*, not from when
/// the generator got round to sending it, so a stall also delays every
/// request scheduled behind it.
pub fn due_latency_ns(due: Instant, answered: Instant) -> u64 {
    answered.saturating_duration_since(due).as_nanos() as u64
}

/// Nearest-rank percentile `p` (0..1) of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Percentile `p` of each slice's samples, then the median across
/// slices; `None` unless every slice can report it.
pub fn sliced_percentile(slices: &[Vec<u64>], p: f64) -> Option<u64> {
    let per_slice: Option<Vec<f64>> = slices
        .iter()
        .map(|s| {
            let mut sorted = s.clone();
            sorted.sort_unstable();
            percentile(&sorted, p).map(|v| v as f64)
        })
        .collect();
    per_slice.map(|v| median(&v).round() as u64)
}

/// Steal below this share of a slice is a few scheduler ticks, not an
/// event on the host: such a slice is always kept.
pub const STEAL_FLOOR: f64 = 0.02;

/// Which of the slices to measure from: the `keep` the hypervisor stole
/// least from, every other slice stolen from no more than those, and
/// every slice below [`STEAL_FLOOR`]. A slice in which the machine lost
/// its CPU measures the host, not the program.
pub fn least_stolen(steal: &[f64], keep: usize) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let limit = sorted
        .get(keep.max(1) - 1)
        .map_or(f64::INFINITY, |&s| s.max(STEAL_FLOOR));
    steal.iter().map(|&s| s <= limit).collect()
}

/// Median of a small set of repeated measurements (e.g. set-up times or
/// per-slice rates).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A rate measured over a slice in which the hypervisor took `steal`
/// (0..1) of the machine's CPU time, as a rate per unit of the time it
/// left the run: a closed loop that keeps every CPU busy does work in
/// proportion to that time, not to the wall clock.
pub fn steal_corrected(rate: f64, steal: f64) -> f64 {
    rate / (1.0 - steal.clamp(0.0, 0.5))
}

/// What became of the requests a run attempted. Errors, refusals and
/// wrong answers all count as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    /// The request returned an error.
    pub errors: u64,
    /// The front door refused the request (backpressure).
    pub refused: u64,
    /// The request answered, but with the wrong shape or content — or a
    /// post-drain consistency check failed.
    pub wrong: u64,
}

impl Outcomes {
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.wrong
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// A span's self time: its duration minus the part of its interval that
/// child spans cover (overlapping children are counted once, and the
/// parts of a child outside the parent are ignored).
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(c0, c1)| (c0.max(p0), c1.min(p1)))
        .filter(|(c0, c1)| c0 < c1)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (c0, c1) in clipped {
        let from = c0.max(reach);
        if c1 > from {
            covered += c1 - from;
            reach = c1;
        }
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_request_charges_its_delay_to_requests_due_after_it() {
        // One server, 1 ms per request, paced at one request per 2 ms;
        // request 2 stalls for 7 ms. Each request is sent when due and
        // starts when the server frees up.
        let start = Instant::now();
        let schedule = Schedule::new(start, 500.0);
        let mut free = start;
        let mut latency = Vec::new();
        for i in 0..6 {
            let due = schedule.due(i);
            let service = Duration::from_millis(if i == 2 { 7 } else { 1 });
            let begin = due.max(free);
            free = begin + service;
            latency.push((due_latency_ns(due, free) + 500_000) / 1_000_000);
        }
        // Requests 3 and 4 were due during the stall: they wait it out.
        assert_eq!(latency, vec![1, 1, 7, 6, 5, 4]);
    }

    #[test]
    fn refusals_and_wrong_answers_count_as_failed() {
        let o = Outcomes {
            attempted: 200,
            errors: 1,
            refused: 2,
            wrong: 3,
        };
        assert_eq!(o.failed(), 6);
        assert!((o.failed_frac() - 0.03).abs() < 1e-12);
        assert_eq!(Outcomes::default().failed_frac(), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(100));
        // 200 samples: p95 is the 190th, exactly 10 beyond it.
        assert_eq!(percentile(&sorted, 0.95), Some(190));
        // p99 would have only 2 beyond it.
        assert_eq!(percentile(&sorted, 0.99), None);
        assert_eq!(percentile(&sorted[..199], 0.95), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        // Overlapping children count once; a child sticking out of the
        // parent counts only inside it.
        assert_eq!(
            self_time_ns((10, 110), &[(20, 40), (30, 50), (100, 130), (0, 15)]),
            100 - (30 + 10 + 5)
        );
        // A child fully covering the parent leaves no self time.
        assert_eq!(self_time_ns((10, 20), &[(0, 30)]), 0);
    }

    #[test]
    fn a_sliced_percentile_is_the_median_of_slice_percentiles() {
        let slice = |offset: u64| (1..=100).map(|v| v + offset).collect::<Vec<u64>>();
        // One slice hit by a stall does not move the figure.
        let slices = vec![slice(0), slice(1_000_000), slice(2), slice(1), slice(3)];
        assert_eq!(sliced_percentile(&slices, 0.5), Some(52));
        // Every slice must have ten samples beyond the percentile.
        assert_eq!(sliced_percentile(&slices, 0.95), None);
    }

    #[test]
    fn a_saturated_rate_counts_only_the_cpu_time_the_host_left() {
        assert_eq!(steal_corrected(1_000.0, 0.0), 1_000.0);
        assert_eq!(steal_corrected(800.0, 0.2), 1_000.0);
        // Past half the machine stolen, the correction stops growing.
        assert_eq!(steal_corrected(100.0, 0.9), 200.0);
    }

    #[test]
    fn slices_the_hypervisor_stole_from_are_left_out() {
        let steal = [0.0, 0.3, 0.04, 0.5, 0.0, 0.2];
        assert_eq!(
            least_stolen(&steal, 3),
            vec![true, false, true, false, true, false]
        );
        // Ties with the last kept slice are kept too, and so is every
        // slice below the floor.
        assert_eq!(least_stolen(&[0.0; 5], 3), vec![true; 5]);
        assert_eq!(
            least_stolen(&[0.0, 0.003, 0.01, 0.0, 0.3], 2),
            vec![true, true, true, true, false]
        );
        assert_eq!(least_stolen(&[0.1, 0.2], 3), vec![true, true]);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
