//! Online statistics used by every experiment table.
//!
//! The MITS evaluation reports latencies, jitter, loss ratios, waiting-time
//! distributions and bandwidth usage. These collectors accumulate samples in
//! O(1) memory (except the histogram, which grows with its occupied bins)
//! so multi-million cell simulations stay cheap.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance plus min/max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty collector.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record a sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Smallest sample (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }
    /// Largest sample (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another collector into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A pointer from a histogram bucket back into the trace store: the
/// sample currently "representing" the bucket, with enough identity
/// (`trace_id`, `span_id`, virtual instant) to pull the matching span
/// out of the sampled traces. In campus runs `trace_id` is the student
/// index and `span_id` the session root span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The sample value.
    pub value: f64,
    /// Trace the sample belongs to (campus: student index).
    pub trace_id: u64,
    /// Span the sample was measured on (0 when unknown).
    pub span_id: u64,
    /// Virtual instant of the sample.
    pub at: SimTime,
}

impl Exemplar {
    /// Total order used for deterministic per-bucket selection: the
    /// *largest* value wins (the worst sample is the most interesting
    /// one to link), ties broken toward the smallest
    /// `(trace_id, span_id, at)`. Because this is a total order, the
    /// per-bucket join is associative and commutative, which keeps
    /// histogram merges byte-identical across merge orders.
    fn beats(&self, other: &Exemplar) -> bool {
        match self.value.total_cmp(&other.value) {
            core::cmp::Ordering::Greater => true,
            core::cmp::Ordering::Less => false,
            core::cmp::Ordering::Equal => {
                (other.trace_id, other.span_id, other.at) > (self.trace_id, self.span_id, self.at)
            }
        }
    }
}

/// Fixed-bin histogram over [lo, hi) with overflow/underflow buckets and
/// percentile queries. Used for waiting-time and jitter distributions.
///
/// Storage is sparse: only occupied bins are kept, as `(index, count)`
/// pairs sorted by index, so a 6,000-bin latency histogram holding two
/// samples costs two entries to allocate, clone and merge. The geometry
/// (`lo`, `hi`, bin count) still defines which bin a sample lands in,
/// and every query answers exactly as a dense array of all bins would.
///
/// A histogram may optionally carry an [`Exemplar`] per bucket
/// (including the under/overflow buckets); exemplar selection and
/// merging are deterministic, so an exemplar-carrying histogram keeps
/// the registry's byte-identity guarantees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    num_bins: usize,
    /// Occupied bins as `(index, count)`, sorted by index, counts > 0.
    bins: Vec<(usize, u64)>,
    underflow: u64,
    overflow: u64,
    count: u64,
    /// Occupied exemplar slots as `(slot, exemplar)`, sorted by slot
    /// (slot 0 = underflow, `1..=num_bins` = bins, last = overflow).
    exemplars: Vec<(usize, Exemplar)>,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "zero bins");
        assert!(lo < hi, "empty range");
        Histogram {
            lo,
            hi,
            num_bins: bins,
            bins: Vec::new(),
            underflow: 0,
            overflow: 0,
            count: 0,
            exemplars: Vec::new(),
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.num_bins as f64
    }

    /// Bin index of an in-range sample (NaN lands in bin 0).
    fn bin_index(&self, x: f64) -> usize {
        // Guard against floating error landing exactly on num_bins.
        (((x - self.lo) / self.width()) as usize).min(self.num_bins - 1)
    }

    /// Exemplar slot index for sample `x`: 0 for underflow, then one
    /// slot per bin, then overflow.
    fn exemplar_slot(&self, x: f64) -> usize {
        if x < self.lo {
            0
        } else if x >= self.hi {
            self.num_bins + 1
        } else {
            self.bin_index(x) + 1
        }
    }

    /// Record a sample and offer `ex` as the bucket's exemplar
    /// (enabling exemplar tracking on first use). The bucket keeps the
    /// exemplar with the largest value, ties broken toward the smallest
    /// `(trace_id, span_id, at)` — a deterministic selection that
    /// merges associatively.
    pub fn record_exemplar(&mut self, x: f64, ex: Exemplar) {
        self.record(x);
        let slot = self.exemplar_slot(x);
        match self.exemplars.binary_search_by_key(&slot, |e| e.0) {
            Ok(i) => Self::join_exemplar(&mut self.exemplars[i].1, &ex),
            Err(i) => self.exemplars.insert(i, (slot, ex)),
        }
    }

    fn join_exemplar(cur: &mut Exemplar, cand: &Exemplar) {
        if cand.beats(cur) {
            *cur = *cand;
        }
    }

    /// Whether any bucket carries an exemplar.
    pub fn has_exemplars(&self) -> bool {
        !self.exemplars.is_empty()
    }

    /// Present exemplars, in bucket order (underflow, bins, overflow).
    pub fn exemplars(&self) -> impl Iterator<Item = &Exemplar> {
        self.exemplars.iter().map(|(_, e)| e)
    }

    /// Record a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = self.bin_index(x);
            match self.bins.binary_search_by_key(&idx, |b| b.0) {
                Ok(i) => self.bins[i].1 += 1,
                Err(i) => self.bins.insert(i, (idx, 1)),
            }
        }
    }

    /// Total samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of bins the range `[lo, hi)` is divided into.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Occupied bins as `(index, count)` in index order; every bin not
    /// listed holds zero samples.
    pub fn occupied_bins(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins.iter().copied()
    }

    /// Approximate `q`-quantile by linear interpolation within the
    /// containing bin.
    ///
    /// Return behavior, exhaustively:
    ///
    /// * **Empty histogram** (`count == 0`): `None`, for every `q`.
    /// * **`q` outside `[0, 1]`** is clamped; a **NaN** `q` is treated
    ///   as `0.0`.
    /// * **`q == 0.0`**: the left edge of the lowest occupied region —
    ///   `lo` if any underflow sample exists, else the left edge of the
    ///   first non-empty bin, else `hi` (all samples in overflow).
    /// * **`q == 1.0`**: the right edge of the highest occupied region —
    ///   `hi` if any overflow sample exists, else the right edge of the
    ///   last non-empty bin, else `lo` (all samples in underflow).
    /// * **Interior `q`**: underflow samples count as `lo`, overflow as
    ///   `hi`; in particular, if every sample landed in overflow the
    ///   result is `hi`, never a value beyond the range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let w = self.width();
        if q == 0.0 {
            if self.underflow > 0 {
                return Some(self.lo);
            }
            return Some(match self.bins.first() {
                Some(&(i, _)) => self.lo + w * i as f64,
                None => self.hi, // all samples in overflow
            });
        }
        if q == 1.0 {
            if self.overflow > 0 {
                return Some(self.hi);
            }
            return Some(match self.bins.last() {
                Some(&(i, _)) => self.lo + w * (i + 1) as f64,
                None => self.lo, // all samples in underflow
            });
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.lo);
        }
        // Empty bins cannot reach the target (cum < target between
        // steps), so walking only occupied bins visits the same answer.
        for &(i, b) in &self.bins {
            if cum + b >= target {
                let within = (target - cum) as f64 / b.max(1) as f64;
                return Some(self.lo + w * (i as f64 + within));
            }
            cum += b;
        }
        Some(self.hi)
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Whether `other` has the same range and bin count, so the two can
    /// [`Histogram::merge`].
    pub(crate) fn same_geometry(&self, other: &Histogram) -> bool {
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.num_bins == other.num_bins
    }

    /// Merge another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(self.same_geometry(other), "geometry mismatch");
        merge_join(&mut self.bins, &other.bins, |a, b| *a += b);
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        merge_join(&mut self.exemplars, &other.exemplars, Self::join_exemplar);
    }
}

/// Merge-join the sorted, key-unique `theirs` into the sorted,
/// key-unique `ours`: equal keys combine through `join`, new keys are
/// inserted in order. One pass joins in place; only when `theirs` brings
/// new keys does a second pass grow `ours` and merge from the back, so
/// every entry moves at most once.
fn merge_join<T: Copy>(
    ours: &mut Vec<(usize, T)>,
    theirs: &[(usize, T)],
    join: impl Fn(&mut T, &T),
) {
    let mut fresh = 0;
    let mut i = 0;
    for (k, v) in theirs {
        while i < ours.len() && ours[i].0 < *k {
            i += 1;
        }
        match ours.get_mut(i) {
            Some((ok, ov)) if *ok == *k => join(ov, v),
            _ => fresh += 1,
        }
    }
    if fresh == 0 {
        return;
    }
    let mut read = ours.len();
    ours.resize(read + fresh, theirs[0]);
    let mut write = ours.len();
    for &(k, v) in theirs.iter().rev() {
        while read > 0 && ours[read - 1].0 > k {
            read -= 1;
            write -= 1;
            ours[write] = ours[read];
        }
        if read > 0 && ours[read - 1].0 == k {
            continue; // joined in the first pass
        }
        write -= 1;
        ours[write] = (k, v);
    }
}

/// Exact moments of a stream of whole-microsecond delays: the count, Σx
/// and Σx² as integers, plus min and max.
///
/// Nothing rounds until a query, so the moments do not depend on how
/// the samples were grouped: [`DelayMoments::record_run`] books an
/// arithmetic progression of delays in closed form and equals recording
/// them one at a time, and [`DelayMoments::merge`] is exactly
/// associative and commutative. The sums are `u128` and every update is
/// checked: a sum that would overflow (some 10¹⁹ hour-long samples)
/// saturates at `u128::MAX` instead of panicking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayMoments {
    n: u64,
    sum: u128,
    sum_sq: u128,
    /// Smallest and largest sample in µs; meaningful only when `n > 0`.
    min: u64,
    max: u64,
}

impl DelayMoments {
    /// Record one delay.
    pub fn record(&mut self, d: SimDuration) {
        let x = d.as_micros();
        self.add(1, u128::from(x), u128::from(x) * u128::from(x), x, x);
    }

    /// Record the `n` delays `first + k·step`, k = 0..n, in O(1): a cell
    /// train's transfer delays, whose cells arrive `step` apart. Equal to
    /// `n` calls of [`DelayMoments::record`].
    pub fn record_run(&mut self, first: SimDuration, step: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let (a, d, m) = (
            u128::from(first.as_micros()),
            u128::from(step.as_micros()),
            u128::from(n),
        );
        // Σk = t = n(n−1)/2 and Σk² = t(2n−1)/3 over k < n. Each factor
        // is divided before it is multiplied, so no intermediate exceeds
        // the term it builds and a failed check means the true sum
        // exceeds u128 — exactly when the one-by-one sums saturate.
        let t = if n.is_multiple_of(2) {
            (m / 2) * (m - 1)
        } else {
            m * ((m - 1) / 2)
        };
        let sum = d
            .checked_mul(t)
            .and_then(|s| s.checked_add(m * a))
            .unwrap_or(u128::MAX);
        let sq_k = if d == 0 {
            Some(0)
        } else if (2 * m - 1) % 3 == 0 {
            t.checked_mul((2 * m - 1) / 3)
        } else {
            (t / 3).checked_mul(2 * m - 1)
        };
        let sum_sq = (a * a)
            .checked_mul(m)
            .zip((a * d).checked_mul(t).and_then(|x| x.checked_mul(2)))
            .and_then(|(x, y)| x.checked_add(y))
            .zip(sq_k.and_then(|s| s.checked_mul(d * d)))
            .and_then(|(x, y)| x.checked_add(y))
            .unwrap_or(u128::MAX);
        let last = first
            .as_micros()
            .saturating_add(step.as_micros().saturating_mul(n - 1));
        self.add(n, sum, sum_sq, first.as_micros(), last);
    }

    fn add(&mut self, n: u64, sum: u128, sum_sq: u128, min: u64, max: u64) {
        if self.n == 0 {
            (self.min, self.max) = (min, max);
        } else {
            self.min = self.min.min(min);
            self.max = self.max.max(max);
        }
        self.n = self.n.saturating_add(n);
        self.sum = self.sum.saturating_add(sum);
        self.sum_sq = self.sum_sq.saturating_add(sum_sq);
    }

    /// Merge another collector into this one.
    pub fn merge(&mut self, other: &DelayMoments) {
        if other.n > 0 {
            self.add(other.n, other.sum, other.sum_sq, other.min, other.max);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean delay in seconds (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum as f64 / self.n as f64 / 1e6
    }

    /// Population variance in seconds² (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = u128::from(self.n);
        let (q, r) = (self.sum / n, self.sum % n);
        // Σ(x − q)² = Σx² − q(Σx + r) lies in [0, Σx²], so wrapping
        // arithmetic computes it exactly.
        let dev = self
            .sum_sq
            .wrapping_sub(q.wrapping_mul(self.sum.wrapping_add(r)));
        // n·Σ(x − mean)² = n·dev − r², with r² < n² split by n so the
        // subtraction stays in range.
        let (r2q, r2r) = (r * r / n, r * r % n);
        let e = dev.saturating_sub(r2q);
        let us2 = match e.checked_mul(n) {
            Some(ne) => ne.saturating_sub(r2r) as f64 / (n as f64 * n as f64),
            // r2r/n² < 1/n is below the resolution of e/n ≥ 2^64.
            None => e as f64 / n as f64,
        };
        us2 / 1e12
    }

    /// Standard deviation in seconds.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (None when empty).
    pub fn min(&self) -> Option<SimDuration> {
        (self.n > 0).then_some(SimDuration::from_micros(self.min))
    }

    /// Largest sample (None when empty).
    pub fn max(&self) -> Option<SimDuration> {
        (self.n > 0).then_some(SimDuration::from_micros(self.max))
    }
}

/// Time-weighted average of a piecewise-constant integer signal over
/// virtual time, e.g. a link's busy flag, whose integral is its busy
/// microseconds.
///
/// The integral is exact: value × microseconds in a `u128` that
/// saturates instead of overflowing, rounded once by `mean_until`.
/// Setting the value it already has adds nothing, so back-to-back busy
/// intervals book with one `set` at the first one's start.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: u64,
    /// ∫ value dt over `[start, last_t]`, in value × µs.
    integral: u128,
    started: Option<SimTime>,
    max: u64,
}

impl TimeWeighted {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the signal changed to `v` at time `t`.
    ///
    /// Times should be non-decreasing; a `t` earlier than the previous
    /// call is clamped to that call's time (the out-of-order update
    /// contributes zero weight for the past, then takes effect as the
    /// new current value), so the collector never goes backwards and
    /// `mean_until` stays finite and within the observed value range.
    pub fn set(&mut self, t: SimTime, v: u64) {
        let t = t.max(self.last_t);
        if self.started.is_none() {
            self.started = Some(t);
        } else {
            let dt = t.since(self.last_t).as_micros();
            self.integral = self
                .integral
                .saturating_add(u128::from(self.last_v) * u128::from(dt));
        }
        self.last_t = t;
        self.last_v = v;
        self.max = self.max.max(v);
    }

    /// Time-weighted mean over [start, `until`].
    pub fn mean_until(&self, until: SimTime) -> f64 {
        let Some(start) = self.started else {
            return 0.0;
        };
        let total = until.since(start).as_micros();
        if total == 0 {
            return self.last_v as f64;
        }
        let tail = u128::from(self.last_v) * u128::from(until.since(self.last_t).as_micros());
        self.integral.saturating_add(tail) as f64 / total as f64
    }

    /// Maximum value observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Current value of the signal.
    pub fn current(&self) -> u64 {
        self.last_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn histogram_counts_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        // 0.0 and 0.5 in bin 0, 5.0 in bin 5, 9.99 in bin 9.
        let bins: Vec<(usize, u64)> = h.occupied_bins().collect();
        assert_eq!(bins, vec![(0, 2), (5, 1), (9, 1)]);
        assert_eq!(h.num_bins(), 10);
    }

    #[test]
    fn histogram_median_uniform() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 10.0);
        }
        let med = h.median().unwrap();
        assert!((med - 50.0).abs() < 2.0, "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() < 2.0, "p99 {p99}");
    }

    #[test]
    fn histogram_quantile_empty() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.median(), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn histogram_quantile_extremes_track_occupied_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(3.5); // bin 3: [3, 4)
        h.record(7.2); // bin 7: [7, 8)
        assert_eq!(h.quantile(0.0), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
        // Under/overflow samples pull the extremes to the range edges.
        h.record(-1.0);
        h.record(99.0);
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn histogram_quantile_all_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(5.0);
        h.record(6.0);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1.0));
    }

    #[test]
    fn histogram_quantile_all_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(0.0));
    }

    #[test]
    fn histogram_quantile_clamps_weird_q() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(4.5);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    #[test]
    fn time_weighted_out_of_order_set_is_clamped() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(2), 4);
        // Out-of-order update: clamped to t=2, becomes the current value.
        tw.set(SimTime::from_secs(1), 8);
        let mean = tw.mean_until(SimTime::from_secs(4));
        assert!((mean - 8.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(tw.current(), 8);
    }

    #[test]
    fn delay_moments_basic() {
        let mut m = DelayMoments::default();
        assert_eq!((m.count(), m.mean(), m.variance()), (0, 0.0, 0.0));
        assert_eq!((m.min(), m.max()), (None, None));
        for us in [2, 4, 4, 4, 5, 5, 7, 9] {
            m.record(SimDuration::from_micros(us));
        }
        assert_eq!(m.count(), 8);
        assert_eq!(m.mean(), 5e-6);
        assert!((m.variance() - 4e-12).abs() < 1e-24);
        assert_eq!(m.min(), Some(SimDuration::from_micros(2)));
        assert_eq!(m.max(), Some(SimDuration::from_micros(9)));
        // A run of arrivals 3 µs apart books in closed form.
        let mut run = DelayMoments::default();
        run.record_run(
            SimDuration::from_micros(100),
            SimDuration::from_micros(3),
            5,
        );
        let mut one = DelayMoments::default();
        for k in 0..5 {
            one.record(SimDuration::from_micros(100 + 3 * k));
        }
        assert_eq!(run, one);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(9.0);
        b.record(-5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.underflow(), 1);
        let bins: Vec<(usize, u64)> = a.occupied_bins().collect();
        assert_eq!(bins, vec![(0, 1), (4, 1)]);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new();
        // 0 for 1s, then 10 for 1s → mean 5 over [0, 2].
        tw.set(SimTime::ZERO, 0);
        tw.set(SimTime::from_secs(1), 10);
        let mean = tw.mean_until(SimTime::from_secs(2));
        assert_eq!(mean, 5.0);
        assert_eq!(tw.max(), 10);
        assert_eq!(tw.current(), 10);
    }

    #[test]
    fn exemplars_keep_the_worst_sample_per_bucket() {
        let ex = |v: f64, trace: u64| Exemplar {
            value: v,
            trace_id: trace,
            span_id: 1,
            at: SimTime::from_secs(trace),
        };
        let mut h = Histogram::new(0.0, 10.0, 2);
        assert!(!h.has_exemplars());
        h.record_exemplar(1.0, ex(1.0, 3));
        h.record_exemplar(4.0, ex(4.0, 9)); // same bucket, larger value wins
        h.record_exemplar(7.0, ex(7.0, 5));
        h.record_exemplar(-1.0, ex(-1.0, 2)); // underflow slot
        h.record_exemplar(99.0, ex(99.0, 8)); // overflow slot
        assert!(h.has_exemplars());
        let traces: Vec<u64> = h.exemplars().map(|e| e.trace_id).collect();
        assert_eq!(traces, vec![2, 9, 5, 8]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn exemplar_ties_break_to_the_smallest_identity() {
        let ex = |trace: u64| Exemplar {
            value: 2.0,
            trace_id: trace,
            span_id: 0,
            at: SimTime::ZERO,
        };
        let mut a = Histogram::new(0.0, 10.0, 1);
        a.record_exemplar(2.0, ex(7));
        let mut b = Histogram::new(0.0, 10.0, 1);
        b.record_exemplar(2.0, ex(3));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.exemplars().next().unwrap().trace_id, 3);
        assert_eq!(ba.exemplars().next().unwrap().trace_id, 3);
    }

    #[test]
    fn exemplar_merge_is_associative() {
        let make = |v: f64, trace: u64| {
            let mut h = Histogram::new(0.0, 10.0, 4);
            h.record_exemplar(
                v,
                Exemplar {
                    value: v,
                    trace_id: trace,
                    span_id: trace,
                    at: SimTime::from_secs(trace),
                },
            );
            h
        };
        let (a, b, c) = (make(1.0, 1), make(1.5, 2), make(9.0, 3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        let l: Vec<&Exemplar> = left.exemplars().collect();
        let r: Vec<&Exemplar> = right.exemplars().collect();
        assert_eq!(l, r);
        assert_eq!(l[0].trace_id, 2, "bucket 0 keeps the larger 1.5 sample");
        assert_eq!(l[1].trace_id, 3);
        // Merging an exemplar-free histogram in leaves exemplars alone.
        let mut plain = Histogram::new(0.0, 10.0, 4);
        plain.record(2.0);
        left.merge(&plain);
        assert_eq!(left.exemplars().count(), 2);
    }
}
