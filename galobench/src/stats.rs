//! Order statistics for latency samples.
//!
//! Every timing is reported as a median and a tail. The tail follows one
//! rule: the highest percentile, up to the 99th, that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it. A `_p99` metric is therefore a
//! true 99th percentile only from 1,000 samples on; with fewer it is the
//! highest percentile the sample supports, and the run's characterization
//! line names the percentile used.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Latency samples of one operation, in nanoseconds.
///
/// Long closed loops (a warm serve takes well under a microsecond) would
/// otherwise hold tens of millions of samples. Past `cap` samples the
/// buffer keeps every other one and doubles its stride, so it always
/// holds an evenly spaced subsample of the whole run.
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<u64>,
    stride: u64,
    seen: u64,
    cap: usize,
}

impl Default for Samples {
    fn default() -> Self {
        Samples::with_cap(1 << 20)
    }
}

impl Samples {
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap >= 2, "a sample buffer needs room to halve");
        Samples {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
            cap,
        }
    }

    pub fn push(&mut self, ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(ns);
            }
        }
        self.seen += 1;
    }

    /// Operations recorded, including those the subsample dropped.
    pub fn count(&self) -> u64 {
        self.seen
    }

    pub fn sorted(&self) -> Sorted {
        let mut v = self.kept.clone();
        v.sort_unstable();
        Sorted {
            v,
            count: self.seen,
        }
    }
}

/// A sorted sample, ready for quantiles.
#[derive(Debug, Clone)]
pub struct Sorted {
    v: Vec<u64>,
    count: u64,
}

impl Sorted {
    pub fn from_ns(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        let count = v.len() as u64;
        Sorted { v, count }
    }

    /// Linearly interpolated quantile `q` in `[0, 1]`, in nanoseconds;
    /// 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.v[lo] as f64 + (self.v[hi] as f64 - self.v[lo] as f64) * frac
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail by the module's rule: `(percentile, value in ns)`.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.count as usize);
        (q * 100.0, self.quantile(q))
    }

    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.v.iter().map(|&x| x as f64).sum::<f64>() / self.v.len() as f64
    }
}

/// Samples split into consecutive time windows of the load loop.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    per: Vec<Samples>,
}

/// Samples kept per window at most.
const WINDOW_CAP: usize = 1 << 16;

impl Windows {
    pub fn push(&mut self, window: usize, ns: u64) {
        if self.per.len() <= window {
            self.per
                .resize_with(window + 1, || Samples::with_cap(WINDOW_CAP));
        }
        self.per[window].push(ns);
    }

    pub fn count(&self) -> u64 {
        self.per.iter().map(Samples::count).sum()
    }

    /// All windows' samples together.
    pub fn all(&self) -> Sorted {
        let mut v: Vec<u64> = self
            .per
            .iter()
            .flat_map(|s| s.kept.iter().copied())
            .collect();
        v.sort_unstable();
        Sorted {
            v,
            count: self.count(),
        }
    }

    /// The median across windows of `stat` per window holding at least
    /// `min` samples; `stat` over all samples when fewer than four
    /// windows qualify.
    ///
    /// A shared 2-CPU machine slows down by up to ~1.7x, in phases from
    /// under a second to minutes, when its neighbours load it. A phase
    /// that covers less than half of the windows does not move the
    /// median across windows; a slowdown the program causes in most
    /// windows, such as background compaction, does.
    pub fn median(&self, min: u64, stat: impl Fn(&Sorted) -> f64) -> f64 {
        let per: Vec<f64> = self
            .per
            .iter()
            .filter(|s| s.count() >= min)
            .map(|s| stat(&s.sorted()))
            .collect();
        if per.len() < 4 {
            return stat(&self.all());
        }
        median(&per)
    }
}

/// Linearly interpolated quantile of plain values; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest quantile, capped at 0.99, with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it. A sample too small to
/// support any tail above the median reports the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let q = 1.0 - TAIL_MIN_BEYOND as f64 / n as f64;
    q.clamp(0.5, 0.99)
}

/// Median of plain values (set-up times); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(50_000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        assert_eq!(tail_quantile(15), 0.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [20usize, 100, 999, 1000, 1001, 5000] {
            let s = Sorted::from_ns((1..=n as u64).collect());
            let (_, value) = s.tail();
            let beyond = (1..=n as u64).filter(|&x| x as f64 > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Sorted::from_ns(vec![40, 10, 30, 20]);
        assert_eq!(s.p50(), 25.0);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(Sorted::from_ns(vec![]).p50(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn window_median_skips_a_disturbed_minority() {
        let mut w = Windows::default();
        // Eight windows: six quiet at ~100 ns, two disturbed at ~200 ns.
        for window in 0..8 {
            let base = if window % 4 == 3 { 200 } else { 100 };
            for i in 0..50 {
                w.push(window, base + i % 3);
            }
        }
        let p50 = w.median(20, Sorted::p50);
        assert!((100.0..=102.0).contains(&p50), "{p50}");
        // Too few qualifying windows: the statistic over everything.
        let mut sparse = Windows::default();
        for i in 0..10 {
            sparse.push(0, i);
        }
        assert_eq!(sparse.median(20, Sorted::p50), 4.5);
        assert_eq!(sparse.count(), 10);
    }

    #[test]
    fn decimation_keeps_an_even_subsample() {
        let mut s = Samples::with_cap(8);
        for i in 0..100u64 {
            s.push(i);
        }
        assert_eq!(s.count(), 100);
        let sorted = s.sorted();
        assert!(sorted.v.len() <= 8 && sorted.v.len() >= 4);
        // Evenly spaced: every kept value is a multiple of the stride.
        assert!(sorted.v.iter().all(|v| v % s.stride == 0));
        // The tail rule counts every recorded operation, not the subsample.
        assert_eq!(sorted.tail().0, 90.0);
    }
}
