//! Exact accumulators: the integer delay moments and busy-time integral
//! a cell train books in one step, and the integer threshold it draws
//! line noise against, must each equal the per-sample computation they
//! replace exactly — not approximately.

use mits_sim::{ChanceThreshold, DelayMoments, SimDuration, SimRng, SimTime, TimeWeighted};
use proptest::prelude::*;

fn us(x: u64) -> SimDuration {
    SimDuration::from_micros(x)
}

/// One accumulator input: a single sample or an arithmetic run.
#[derive(Debug, Clone)]
enum Input {
    One(u64),
    Run(u64, u64, u64),
}

fn input() -> impl Strategy<Value = Input> {
    prop_oneof![
        (0u64..1_000_000_000).prop_map(Input::One),
        (0u64..1_000_000_000, 0u64..100_000, 0u64..3_000).prop_map(|(a, d, n)| Input::Run(a, d, n)),
    ]
}

fn collect(inputs: &[Input]) -> DelayMoments {
    let mut m = DelayMoments::default();
    for i in inputs {
        match *i {
            Input::One(x) => m.record(us(x)),
            Input::Run(a, d, n) => m.record_run(us(a), us(d), n),
        }
    }
    m
}

fn merged(a: &DelayMoments, b: &DelayMoments) -> DelayMoments {
    let mut m = *a;
    m.merge(b);
    m
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * got.abs().max(want.abs())
}

/// The probabilities the threshold must handle like `chance`: below
/// zero, zero, subnormal, tiny, even, one, above one, and NaN.
const EDGE_PS: [f64; 8] = [-1.0, 0.0, 5e-324, 1e-9, 0.5, 1.0, 2.0, f64::NAN];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A run booked in closed form equals its n delays booked one by
    /// one, whatever the collector already held.
    #[test]
    fn closed_form_run_equals_single_samples(
        before in prop::collection::vec(0u64..1_000_000_000, 0..4),
        first in 0u64..1_000_000_000_000,
        step in 0u64..10_000_000,
        n in 0u64..5_000,
    ) {
        let mut run = DelayMoments::default();
        let mut one = DelayMoments::default();
        for &x in &before {
            run.record(us(x));
            one.record(us(x));
        }
        run.record_run(us(first), us(step), n);
        for k in 0..n {
            one.record(us(first + k * step));
        }
        prop_assert_eq!(run, one);
    }

    /// Merging is exactly associative and commutative: grouping and
    /// order cannot change a single bit.
    #[test]
    fn merge_is_exactly_associative_and_commutative(
        xs in prop::collection::vec(input(), 0..8),
        ys in prop::collection::vec(input(), 0..8),
        zs in prop::collection::vec(input(), 0..8),
    ) {
        let (a, b, c) = (collect(&xs), collect(&ys), collect(&zs));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        let all: Vec<Input> = xs.iter().chain(&ys).chain(&zs).cloned().collect();
        prop_assert_eq!(merged(&merged(&a, &b), &c), collect(&all));
    }

    /// Mean and standard deviation agree with a two-pass f64 reference
    /// to 1e-9 relative, including tightly clustered large delays where
    /// a one-pass Σx² − (Σx)²/n formula would cancel catastrophically.
    #[test]
    fn moments_match_a_two_pass_reference(
        base in 0u64..10_000_000_000,
        spread in prop::sample::select(vec![1u64, 2, 7, 1_000, 1_000_000]),
        offsets in prop::collection::vec(0u64..1_000_000, 1..500),
    ) {
        let xs: Vec<u64> = offsets.iter().map(|o| base + o % spread).collect();
        let mut m = DelayMoments::default();
        for &x in &xs {
            m.record(us(x));
        }
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        prop_assert_eq!(m.count(), xs.len() as u64);
        prop_assert!(close(m.mean() * 1e6, mean), "mean {} vs {}", m.mean() * 1e6, mean);
        prop_assert!(
            close(m.std_dev() * 1e6, var.sqrt()),
            "std dev {} vs {}",
            m.std_dev() * 1e6,
            var.sqrt()
        );
        prop_assert_eq!(m.min(), xs.iter().min().map(|&x| us(x)));
        prop_assert_eq!(m.max(), xs.iter().max().map(|&x| us(x)));
    }

    /// Extreme counts and delays saturate instead of overflowing: no
    /// update, merge or query panics, and the queries stay numbers.
    #[test]
    fn extreme_inputs_never_panic(
        runs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
        singles in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut m = DelayMoments::default();
        for &(a, d, n) in &runs {
            m.record_run(us(a), us(d), n);
            let copy = m;
            m.merge(&copy);
        }
        for &x in &singles {
            m.record(us(x));
        }
        for v in [m.mean(), m.variance(), m.std_dev()] {
            prop_assert!(v.is_finite() && v >= 0.0, "query {}", v);
        }
        prop_assert!(m.min() <= m.max());
    }

    /// A busy flag set at every cell boundary of a back-to-back run and
    /// one set at the run's start book the same integral: the one-step
    /// train booking is exact, for every observation instant.
    #[test]
    fn busy_run_books_in_one_set(
        start in 0u64..1_000_000,
        ct in 1u64..20_000,
        n in 1u64..2_000,
        idle_for in 0u64..50_000,
        probe in 0u64..200_000_000,
    ) {
        let mut per_cell = TimeWeighted::new();
        let mut one = TimeWeighted::new();
        per_cell.set(SimTime::ZERO, 0);
        one.set(SimTime::ZERO, 0);
        for k in 0..n {
            per_cell.set(SimTime::from_micros(start + k * ct), 1);
        }
        one.set(SimTime::from_micros(start), 1);
        let end = SimTime::from_micros(start + n * ct);
        // Observed mid-run, at its end, and after idling.
        let mid = SimTime::from_micros(start + (n - 1) * ct);
        prop_assert_eq!(per_cell.mean_until(mid).to_bits(), one.mean_until(mid).to_bits());
        per_cell.set(end, 0);
        one.set(end, 0);
        let until = end + SimDuration::from_micros(idle_for + probe % 1_000);
        prop_assert_eq!(per_cell.mean_until(until).to_bits(), one.mean_until(until).to_bits());
        let busy = (n * ct) as f64 / until.as_micros() as f64;
        prop_assert_eq!(one.mean_until(until), busy);
    }

    /// Extreme values and instants, in any order, never panic and keep
    /// the mean finite.
    #[test]
    fn busy_time_tolerates_extremes(
        points in prop::collection::vec((any::<u64>(), any::<u64>()), 1..20),
        until in any::<u64>(),
    ) {
        let mut tw = TimeWeighted::new();
        for &(t, v) in &points {
            tw.set(SimTime::from_micros(t), v);
        }
        prop_assert!(tw.mean_until(SimTime::from_micros(until)).is_finite());
        prop_assert_eq!(tw.max(), points.iter().map(|p| p.1).max().unwrap());
    }

    /// The threshold draw matches `chance` draw for draw, at the edge
    /// probabilities and at random ones, and consumes the stream alike.
    #[test]
    fn threshold_matches_chance_draw_for_draw(seed in any::<u64>(), p in 0f64..1.0) {
        for p in EDGE_PS.iter().copied().chain([p]) {
            let mut a = SimRng::seed_from_u64(seed);
            let mut b = a.clone();
            let t = ChanceThreshold::new(p);
            for _ in 0..256 {
                prop_assert_eq!(a.chance(p), b.trial(t), "p = {}", p);
            }
            prop_assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    /// Draws that land exactly on the threshold: `p` is taken from the
    /// upcoming draw `u` itself (`p = u·2⁻⁵³`) and one ulp either side.
    #[test]
    fn threshold_is_exact_at_the_boundary(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            let u = rng.clone().next_raw() >> 11;
            let f = u as f64 / (1u64 << 53) as f64;
            let below = f64::from_bits(f.to_bits().saturating_sub(1));
            for p in [below, f, f64::from_bits(f.to_bits() + 1)] {
                let (mut a, mut b) = (rng.clone(), rng.clone());
                prop_assert_eq!(a.chance(p), b.trial(ChanceThreshold::new(p)), "u {} p {}", u, p);
            }
            rng.next_raw();
        }
    }
}
