//! Order statistics and a fixed-memory latency histogram.

/// Median of `values` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so a spread computed here matches
/// the one the driver computes. Fewer than two values have no spread: both
/// quartiles are the single value (or zero).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; zero when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sub-buckets per power of two: values below this are counted exactly,
/// larger ones to within 1/32 (≈ 3%).
const SUB: u64 = 32;
const SUB_BITS: u32 = 5;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A log-linear histogram of nanosecond durations: constant memory however
/// many spans a traced run records, so the recording path never allocates.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let mantissa = (v >> (e - SUB_BITS)) & (SUB - 1);
        (SUB + u64::from(e - SUB_BITS) * SUB + mantissa) as usize
    }

    /// The middle of bucket `index`'s value range.
    fn value(index: usize) -> f64 {
        let index = index as u64;
        if index < SUB {
            return index as f64;
        }
        let e = (index - SUB) / SUB + u64::from(SUB_BITS);
        let mantissa = (index - SUB) % SUB;
        let shift = e - u64::from(SUB_BITS);
        let low = (SUB + mantissa) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Hist::bucket(v)] += 1;
        self.n += 1;
        self.sum += v;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank quantile (`q` in 0..=1); zero when nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Hist::value(i);
            }
        }
        unreachable!("rank is within the recorded count")
    }
}

/// Throughput over fixed windows of a closed loop: the caller marks its
/// running total after each operation, and each window's rate is the work
/// done between the first marks at or past consecutive window boundaries,
/// over the time that really passed between them.
pub struct WindowRate {
    start: std::time::Instant,
    window: f64,
    next: f64,
    last: (f64, u64),
    pub rates: Vec<f64>,
}

impl WindowRate {
    /// Windows of a fifth of a second, or a quarter of a run shorter than
    /// four of those: short enough that a burst of interference from the
    /// host spoils a few windows and leaves the median alone.
    pub fn new(run_seconds: f64) -> WindowRate {
        let window = (run_seconds / 4.0).min(0.2);
        WindowRate {
            start: std::time::Instant::now(),
            window,
            next: window,
            last: (0.0, 0),
            rates: Vec::new(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Seconds until the open window ends.
    pub fn until_next(&self) -> f64 {
        (self.next - self.elapsed()).max(0.0)
    }

    /// Note that `total` units of work are done now; true when that closed
    /// a window.
    pub fn mark(&mut self, total: u64) -> bool {
        let now = self.elapsed();
        if now < self.next {
            return false;
        }
        self.rates
            .push((total - self.last.1) as f64 / (now - self.last.0));
        self.last = (now, total);
        self.next += self.window;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn histogram_quantiles_stay_within_bucket_resolution() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.04, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
        let mut small = Hist::default();
        small.record(7);
        assert_eq!(small.quantile(0.5), 7.0);
    }
}
