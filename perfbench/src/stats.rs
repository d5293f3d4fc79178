//! The benchmark's own statistics: percentiles, quartiles, span self time
//! and open-loop due-time accounting. Everything here is pure and tested.

/// A seeded splitmix64 generator: the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// An exponential gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample, with the
/// number of samples that lie beyond it. `f64::INFINITY` entries (failed or
/// refused requests) sort above every real sample. A tail figure rests on
/// the samples beyond it, so callers report that count beside it and treat
/// a percentile with fewer than ten beyond it as a maximum.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], sorted.len() - rank)
}

/// Window length, in verdicts, of [`windowed_p99`]: enough for ten
/// samples beyond each window's 99th percentile.
pub const P99_WINDOW: usize = 1000;

/// The 99th percentile as the median, over consecutive windows of
/// [`P99_WINDOW`] verdicts in arrival order, of each window's 99th
/// percentile. A short stall of the machine lifts the tail of the windows
/// it falls in, not the whole run's figure. A sample shorter than one
/// window is its own window; a trailing partial window is dropped.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    if samples.len() < P99_WINDOW {
        return percentile(samples, 99.0).0;
    }
    let tails: Vec<f64> = samples
        .chunks_exact(P99_WINDOW)
        .map(|window| percentile(window, 99.0).0)
        .collect();
    median(&tails)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones computed in Python.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = (n + 1) as f64;
    let at = |j: usize| {
        let pos = j as f64 * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        sorted[k - 1] + (sorted[k] - sorted[k - 1]) * frac
    };
    (at(1), at(3))
}

/// One recorded span: a layer boundary crossed by one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request (job) the span belongs to.
    pub request: u64,
    /// Index of the parent span in the same recording, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let total = span.end.saturating_sub(span.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end);
                let end = end.clamp(span.start, span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            total - covered
        })
        .collect()
}

/// Open-loop accounting of one request: when it was due, when the
/// generator actually sent it, and when its verdict was observed
/// (`None` = never: failed, refused or lost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: u64,
    pub sent: u64,
    pub done: Option<u64>,
}

impl Arrival {
    /// Time to verdict in milliseconds, counted from the *due* time, so a
    /// stall that delays later sends is charged to every request behind
    /// it. Requests without a verdict count as above any limit.
    pub fn verdict_ms(&self) -> f64 {
        match self.done {
            Some(done) => done.saturating_sub(self.due) as f64 / 1e6,
            None => f64::INFINITY,
        }
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due) as f64 / 1e6
    }
}

/// Due times (ns from the schedule's start) of an open-loop arrival
/// process with seeded exponential gaps at `rate` per second, up to
/// `horizon_ns`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, horizon_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate;
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_its_tail_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), (500.0, 500));
        // Exactly ten samples beyond the 99th percentile at n = 1000 ...
        assert_eq!(percentile(&samples, 99.0), (990.0, 10));
        // ... and only nine at n = 999, one short of a reportable tail.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), (990.0, 9));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), (2.0, 1));
    }

    #[test]
    fn failures_sort_above_every_latency() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for s in samples.iter_mut().take(20) {
            *s = f64::INFINITY;
        }
        assert_eq!(percentile(&samples, 99.0).0, f64::INFINITY);
        assert_eq!(percentile(&samples, 50.0).0, 520.0);
    }

    #[test]
    fn windowed_p99_takes_the_median_window() {
        // Three windows of 1000: one hit by a stall, two quiet.
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for s in samples.iter_mut().take(50) {
            *s = 10_000.0;
        }
        assert_eq!(windowed_p99(&samples), 989.0);
        // The whole-run percentile would report the stall.
        assert_eq!(percentile(&samples, 99.0).0, 10_000.0);
        // A partial trailing window is dropped; a short sample is one window.
        samples.extend([1e9; 999]);
        assert_eq!(windowed_p99(&samples), 989.0);
        assert_eq!(windowed_p99(&[1.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), (2.0, 8.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&ten), 5.5);
    }

    #[test]
    fn self_time_subtracts_the_childrens_cover_once() {
        let span = |name, parent, start, end| Span {
            name,
            request: 7,
            parent,
            start,
            end,
        };
        let spans = vec![
            span("job", None, 0, 100),
            span("compose", Some(0), 10, 30),
            // Overlaps the previous child: 25..30 is covered only once.
            span("check", Some(0), 25, 50),
            // Sticks out past the parent's end: only 90..100 counts.
            span("reply", Some(0), 90, 120),
            span("inner", Some(1), 12, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (50 - 10) - 10);
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 25);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn open_loop_time_counts_from_the_due_time() {
        // A stalled request: due at 1 ms, sent 4 ms late, verdict 1 ms
        // after sending. The client-side view would say 1 ms; the due-time
        // view charges the stall.
        let stalled = Arrival {
            due: 1_000_000,
            sent: 5_000_000,
            done: Some(6_000_000),
        };
        assert_eq!(stalled.verdict_ms(), 5.0);
        assert_eq!(stalled.late_ms(), 4.0);
        // A request behind it, due while the generator was stalled, is
        // charged the wait too.
        let behind = Arrival {
            due: 2_000_000,
            sent: 5_100_000,
            done: Some(5_600_000),
        };
        assert_eq!(behind.verdict_ms(), 3.6);
        // A request that never got a verdict is above any limit.
        let lost = Arrival {
            due: 3_000_000,
            sent: 3_000_000,
            done: None,
        };
        assert_eq!(lost.verdict_ms(), f64::INFINITY);
        let all: Vec<f64> = [stalled, behind, lost]
            .iter()
            .map(Arrival::verdict_ms)
            .collect();
        assert_eq!(percentile(&all, 50.0).0, 5.0);
    }

    #[test]
    fn schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(&mut Rng::new(3), 1000.0, 10_000_000_000);
        let b = poisson_schedule(&mut Rng::new(3), 1000.0, 10_000_000_000);
        assert_eq!(a, b);
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
