//! Summary statistics: percentiles under the tail rule, and open-loop
//! lateness accounting.

/// Nearest-rank value at 1-based `rank` of unsorted `values`.
fn at_rank(values: &[f64], rank: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    at_rank(values, values.len().div_ceil(2))
}

/// Tail percentile under the benchmark's rule: the 99th percentile, or
/// the highest percentile that still has at least ten samples beyond it,
/// and never below the median. Returns `(value, level)` with the level
/// actually reported (e.g. 0.98 for 500 samples); 0 for no samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let p99 = (99 * n).div_ceil(100);
    let rank = p99.min(n.saturating_sub(10)).max(n.div_ceil(2));
    (at_rank(values, rank), rank as f64 / n as f64)
}

/// One request of an open-loop generator, in seconds from the start of
/// the schedule: when it was due, when the generator actually sent it,
/// and when its reply was observed.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency from the *due* time, so a stall that delays later sends is
    /// charged to every request it delayed.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator ran for this request (never negative).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (x, level) = tail(&v);
        assert_eq!(x, 1980.0);
        assert_eq!(level, 0.99);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 20);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 0.99));
        // 200 samples: p99 would leave two beyond, so fall back to p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (x, level) = tail(&v);
        assert_eq!(x, 190.0);
        assert_eq!(level, 0.95);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), (6.0, 0.5));
        assert_eq!(tail(&[7.0]), (7.0, 1.0));
    }

    #[test]
    fn stall_is_charged_to_every_request_it_delays() {
        // Due every 1 ms; the generator stalls until 5 ms, then catches up.
        let sent = [0.000, 0.005, 0.0051, 0.0052];
        let t: Vec<Timing> = sent
            .iter()
            .enumerate()
            .map(|(i, &s)| Timing {
                due: i as f64 * 1e-3,
                sent: s,
                done: s + 0.5e-3,
            })
            .collect();
        let lat: Vec<f64> = t.iter().map(|x| (x.latency() * 1e4).round()).collect();
        let late: Vec<f64> = t.iter().map(|x| (x.lateness() * 1e4).round()).collect();
        assert_eq!(lat, [5.0, 45.0, 36.0, 27.0]);
        assert_eq!(late, [0.0, 40.0, 31.0, 22.0]);
        // Sending early (a clock quirk) is not negative lateness.
        let early = Timing {
            due: 1.0,
            sent: 0.9,
            done: 1.2,
        };
        assert_eq!(early.lateness(), 0.0);
        assert!((early.latency() - 0.2).abs() < 1e-12);
    }
}
