//! Property tests for the simulation kernel: timer ordering, statistics
//! merge equivalence, histogram conservation, token-bucket conformance.

use mits_sim::{
    Histogram, OnlineStats, SimDuration, SimTime, TimeWeighted, TimerQueue, TokenBucket,
};
use proptest::prelude::*;

fn stats_approx_eq(a: &OnlineStats, b: &OnlineStats) -> bool {
    a.count() == b.count()
        && (a.mean() - b.mean()).abs() < 1e-6 * (1.0 + b.mean().abs())
        && (a.variance() - b.variance()).abs() < 1e-3 * (1.0 + b.variance())
        && a.min() == b.min()
        && a.max() == b.max()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the insertion order, events pop in ascending instant and,
    /// within an instant, in push order.
    #[test]
    fn events_execute_in_time_order(times in prop::collection::vec(0u64..64, 1..100)) {
        let mut q = TimerQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut expect: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expect.sort_unstable();
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(at, _, i)| (at.as_micros(), i)).collect();
        prop_assert_eq!(popped, expect);
    }

    /// Merging split statistics equals computing them whole.
    #[test]
    fn stats_merge_equivalence(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance()));
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
    }

    /// Histograms conserve counts: bins + underflow + overflow == total.
    #[test]
    fn histogram_conserves_mass(xs in prop::collection::vec(-100f64..200.0, 0..300)) {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for &x in &xs {
            h.record(x);
        }
        let binned: u64 = h.occupied_bins().map(|(_, n)| n).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
        if !xs.is_empty() {
            let med = h.median().unwrap();
            prop_assert!((0.0..=100.0).contains(&med));
        }
    }

    /// OnlineStats::merge is associative (up to floating-point noise):
    /// (a ∪ b) ∪ c agrees with a ∪ (b ∪ c).
    #[test]
    fn online_stats_merge_is_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..60),
        ys in prop::collection::vec(-1e6f64..1e6, 0..60),
        zs in prop::collection::vec(-1e6f64..1e6, 0..60),
    ) {
        let collect = |v: &[f64]| {
            let mut s = OnlineStats::new();
            for &x in v {
                s.record(x);
            }
            s
        };
        let (a, b, c) = (collect(&xs), collect(&ys), collect(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert!(
            stats_approx_eq(&left, &right),
            "left {:?} right {:?}",
            left,
            right
        );
    }

    /// Histogram::merge is exactly associative — bins are integer counts.
    #[test]
    fn histogram_merge_is_associative(
        xs in prop::collection::vec(-50f64..150.0, 0..60),
        ys in prop::collection::vec(-50f64..150.0, 0..60),
        zs in prop::collection::vec(-50f64..150.0, 0..60),
    ) {
        let collect = |v: &[f64]| {
            let mut h = Histogram::new(0.0, 100.0, 20);
            for &x in v {
                h.record(x);
            }
            h
        };
        let (a, b, c) = (collect(&xs), collect(&ys), collect(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert!(left.occupied_bins().eq(right.occupied_bins()));
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.underflow(), right.underflow());
        prop_assert_eq!(left.overflow(), right.overflow());
    }

    /// TimeWeighted::set with out-of-order timestamps never panics and
    /// keeps mean_until finite and inside the observed value range.
    #[test]
    fn time_weighted_tolerates_out_of_order_sets(
        points in prop::collection::vec((0u64..10_000, 0u64..100), 1..80),
        until_extra in 0u64..10_000,
    ) {
        let mut tw = TimeWeighted::new();
        let mut lo = u64::MAX;
        let mut hi = 0;
        let mut max_t = 0u64;
        for &(t, v) in &points {
            tw.set(SimTime::from_micros(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
            max_t = max_t.max(t);
        }
        let until = SimTime::from_micros(max_t + until_extra);
        let mean = tw.mean_until(until);
        prop_assert!(mean.is_finite(), "mean {}", mean);
        prop_assert!(
            mean >= lo as f64 - 1e-9 && mean <= hi as f64 + 1e-9,
            "mean {} outside [{}, {}]",
            mean,
            lo,
            hi
        );
        prop_assert!(tw.max() >= hi);
    }

    /// A token bucket never admits more than rate*t + depth tokens over
    /// any interval (the GCRA conformance bound).
    #[test]
    fn token_bucket_conformance_bound(
        rate in 1.0f64..10_000.0,
        depth in 1.0f64..100.0,
        arrivals in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut tb = TokenBucket::new(rate, depth);
        let mut t = SimTime::ZERO;
        let mut admitted = 0u64;
        for &gap in &arrivals {
            t += SimDuration::from_micros(gap);
            if tb.try_take(t, 1.0) {
                admitted += 1;
            }
        }
        let elapsed = t.as_secs_f64();
        let bound = rate * elapsed + depth + 1.0;
        prop_assert!(
            (admitted as f64) <= bound,
            "admitted {} > bound {}",
            admitted,
            bound
        );
    }
}
