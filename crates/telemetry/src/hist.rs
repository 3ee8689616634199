//! Log-bucketed duration histograms.
//!
//! The registry's original [`TimerStat`] kept count/sum/min/max — enough
//! for a mean, useless for tail latency. This module adds an HDR-style
//! histogram with *fixed, power-of-two bucket boundaries*: bucket `i`
//! covers `(2^(i+MIN_POW-1), 2^(i+MIN_POW)]` nanoseconds, spanning 1 µs to
//! ~69 s, plus an overflow bucket. Fixed boundaries make the rendered
//! `/metrics` output a pure function of the observations — no
//! state-dependent resizing.
//!
//! Exact `count`, `sum`, `min`, and `max` are carried alongside the
//! buckets, so the old summary view stays derivable and quantile
//! estimates can be clamped into the true observed range.
//!
//! [`TimerStat`]: crate::registry::TimerStat

use crate::registry::TimerStat;

/// Smallest bucketed power: bucket 0 holds observations `<= 2^MIN_POW` ns
/// (1.024 µs — below timer resolution for everything we measure).
const MIN_POW: u32 = 10;
/// Largest bucketed power: `2^MAX_POW` ns ≈ 68.7 s.
const MAX_POW: u32 = 36;
/// Finite buckets; one more slot holds the `+Inf` overflow.
const N_BUCKETS: usize = (MAX_POW - MIN_POW + 1) as usize;

/// A log-bucketed histogram of durations in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; N_BUCKETS + 1],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; N_BUCKETS + 1],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

/// Index of the finite bucket holding `ns`, or `N_BUCKETS` for overflow.
fn bucket_index(ns: u64) -> usize {
    if ns <= (1 << MIN_POW) {
        return 0;
    }
    // smallest p with ns <= 2^p, i.e. ceil(log2(ns)) for ns > 1
    let p = 64 - (ns - 1).leading_zeros();
    if p > MAX_POW {
        N_BUCKETS
    } else {
        (p - MIN_POW) as usize
    }
}

/// Inclusive upper bound of finite bucket `i`, in nanoseconds.
fn bucket_bound_ns(i: usize) -> u64 {
    1u64 << (MIN_POW + i as u32)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// The flat summary view ([`TimerStat`]) of this histogram.
    pub fn stat(&self) -> TimerStat {
        TimerStat {
            count: self.count,
            sum_ns: self.sum_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) in nanoseconds.
    ///
    /// Walks the cumulative bucket counts to the target rank and linearly
    /// interpolates within the bucket, then clamps into the exact
    /// observed `[min, max]` range. Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lower = if i == 0 { 0 } else { bucket_bound_ns(i - 1) };
                let upper = if i < N_BUCKETS {
                    bucket_bound_ns(i)
                } else {
                    self.max_ns.max(lower)
                };
                let frac = (target - seen) as f64 / c as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return (est as u64).clamp(self.min_ns, self.max_ns);
            }
            seen += c;
        }
        self.max_ns
    }

    /// Cumulative bucket counts as `(upper_bound_seconds, count)` pairs in
    /// ascending bound order, ending with the `+Inf` total. Empty buckets
    /// between occupied ones are included (Prometheus requires cumulative
    /// monotone series); fully trailing-empty finite buckets above the
    /// maximum observation are elided to keep `/metrics` compact.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        let last = if self.count == 0 {
            0
        } else {
            bucket_index(self.max_ns).min(N_BUCKETS - 1)
        };
        for i in 0..=last {
            cum += self.buckets[i];
            out.push((bucket_bound_ns(i) as f64 * 1e-9, cum));
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // exactly-on-boundary values land in the lower bucket
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1024), 0);
        assert_eq!(bucket_index(1025), 1);
        assert_eq!(bucket_index(2048), 1);
        assert_eq!(bucket_index(2049), 2);
        assert_eq!(bucket_index(1 << 36), N_BUCKETS - 1);
        assert_eq!(bucket_index((1 << 36) + 1), N_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS);
    }

    #[test]
    fn exact_stats_survive_bucketing() {
        let mut h = Histogram::new();
        for ns in [500, 1500, 3000, 3000, 1 << 20] {
            h.observe_ns(ns);
        }
        let s = h.stat();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 500 + 1500 + 3000 + 3000 + (1 << 20));
        assert_eq!(s.min_ns, 500);
        assert_eq!(s.max_ns, 1 << 20);
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut h = Histogram::new();
        // 90 fast observations (~2 µs) and 10 slow (~1 ms)
        for _ in 0..90 {
            h.observe_ns(2_000);
        }
        for _ in 0..10 {
            h.observe_ns(1_000_000);
        }
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        assert!((1_000..=4_096).contains(&p50), "p50 = {p50}");
        assert!((500_000..=1_048_576).contains(&p99), "p99 = {p99}");
        assert!(h.quantile_ns(0.0) >= h.stat().min_ns);
        assert_eq!(h.quantile_ns(1.0), 1_000_000);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let mut h = Histogram::new();
        for ns in [100, 10_000, 1_000_000, u64::MAX] {
            h.observe_ns(ns);
        }
        let buckets = h.cumulative_buckets();
        let mut prev = 0;
        for &(bound, c) in &buckets {
            assert!(bound > 0.0);
            assert!(c >= prev, "cumulative counts must be monotone");
            prev = c;
        }
        let (last_bound, last_count) = *buckets.last().unwrap();
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, 4);
    }

    #[test]
    fn empty_histogram_renders_a_single_inf_bucket() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        let buckets = h.cumulative_buckets();
        // lone finite bucket 0 plus +Inf
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets.last().unwrap().1, 0);
    }
}
