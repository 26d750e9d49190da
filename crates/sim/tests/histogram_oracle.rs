//! The sparse `Histogram` against the dense one it replaced.
//!
//! `DenseHistogram` below is the previous implementation kept as a
//! reference: one `u64` per bin and one exemplar slot per bucket. For
//! random geometries (1 to 60,000 bins) and samples below `lo`, at or
//! above `hi`, on exact bin edges, inside the range and NaN, the sparse
//! histogram must report the same count, under/overflow, occupied bins,
//! exemplars (in bucket order) and bit-identical quantiles, before and
//! after merging — and its merge must be associative.

use mits_sim::{Exemplar, Histogram, SimTime};
use proptest::prelude::*;

/// The dense reference: every bin and every exemplar slot allocated.
#[derive(Clone)]
struct DenseHistogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    exemplars: Vec<Option<Exemplar>>,
}

/// Exemplar order: the largest value wins, ties go to the smallest
/// `(trace_id, span_id, at)`.
fn beats(cand: &Exemplar, cur: &Exemplar) -> bool {
    match cand.value.total_cmp(&cur.value) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => {
            (cur.trace_id, cur.span_id, cur.at) > (cand.trace_id, cand.span_id, cand.at)
        }
    }
}

fn join(slot: &mut Option<Exemplar>, cand: &Exemplar) {
    match slot {
        Some(cur) if !beats(cand, cur) => {}
        _ => *slot = Some(*cand),
    }
}

impl DenseHistogram {
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        DenseHistogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            exemplars: Vec::new(),
        }
    }

    fn slot(&self, x: f64) -> usize {
        if x < self.lo {
            0
        } else if x >= self.hi {
            self.bins.len() + 1
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            (((x - self.lo) / w) as usize).min(self.bins.len() - 1) + 1
        }
    }

    fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    fn record_exemplar(&mut self, x: f64, ex: Exemplar) {
        self.record(x);
        if self.exemplars.is_empty() {
            self.exemplars = vec![None; self.bins.len() + 2];
        }
        let slot = self.slot(x);
        join(&mut self.exemplars[slot], &ex);
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        if q == 0.0 {
            if self.underflow > 0 {
                return Some(self.lo);
            }
            return Some(match self.bins.iter().position(|&b| b > 0) {
                Some(i) => self.lo + w * i as f64,
                None => self.hi,
            });
        }
        if q == 1.0 {
            if self.overflow > 0 {
                return Some(self.hi);
            }
            return Some(match self.bins.iter().rposition(|&b| b > 0) {
                Some(i) => self.lo + w * (i + 1) as f64,
                None => self.lo,
            });
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.lo);
        }
        for (i, &b) in self.bins.iter().enumerate() {
            if cum + b >= target {
                let within = (target - cum) as f64 / b.max(1) as f64;
                return Some(self.lo + w * (i as f64 + within));
            }
            cum += b;
        }
        Some(self.hi)
    }

    fn merge(&mut self, other: &DenseHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        if !other.exemplars.is_empty() {
            if self.exemplars.is_empty() {
                self.exemplars = vec![None; self.bins.len() + 2];
            }
            for (slot, theirs) in self.exemplars.iter_mut().zip(&other.exemplars) {
                if let Some(ex) = theirs {
                    join(slot, ex);
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Geometry {
    lo: f64,
    hi: f64,
    bins: usize,
}

fn geometry() -> impl Strategy<Value = Geometry> {
    (
        -1e3f64..1e3,
        1e-3f64..1e4,
        prop_oneof![1usize..=8, 1usize..=600, 1usize..=60_000],
    )
        .prop_map(|(lo, span, bins)| Geometry {
            lo,
            hi: lo + span,
            bins,
        })
}

/// Where a sample falls, independent of the geometry it is applied to.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// `lo + f * (hi - lo)` for `f` in `[0, 1)`.
    Inside(f64),
    /// Below `lo` by at least a millionth.
    Below(f64),
    /// `hi` plus a non-negative offset (zero included: exactly `hi`).
    AtOrAbove(f64),
    /// The left edge of bin `k % (bins + 1)`, computed as the histogram
    /// computes bin widths (`k == bins` is `hi` up to rounding).
    Edge(u32),
    Nan,
}

fn place() -> impl Strategy<Value = Place> {
    // Listed twice to weight them: inside samples and bin edges.
    prop_oneof![
        (0.0f64..1.0).prop_map(Place::Inside),
        (0.0f64..1.0).prop_map(Place::Inside),
        (0.0f64..1e3).prop_map(Place::Below),
        prop_oneof![Just(0.0), 0.0f64..1e3].prop_map(Place::AtOrAbove),
        any::<u32>().prop_map(Place::Edge),
        any::<u32>().prop_map(Place::Edge),
        Just(Place::Nan),
    ]
}

impl Place {
    fn value(self, g: Geometry) -> f64 {
        match self {
            Place::Inside(f) => g.lo + f * (g.hi - g.lo),
            Place::Below(d) => g.lo - (d + 1e-6),
            Place::AtOrAbove(d) => g.hi + d,
            Place::Edge(k) => {
                let w = (g.hi - g.lo) / g.bins as f64;
                g.lo + w * (k as usize % (g.bins + 1)) as f64
            }
            Place::Nan => f64::NAN,
        }
    }
}

/// One recorded sample: where it lands, and optionally the identity of
/// the exemplar it offers (small ids, so value ties are common).
type Sample = (Place, Option<(u64, u64, u64)>);

fn samples(max: usize) -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec(
        (place(), prop::option::of((0u64..4, 0u64..3, 0u64..3))),
        0..max,
    )
}

fn build(g: Geometry, samples: &[Sample]) -> (Histogram, DenseHistogram) {
    let mut sparse = Histogram::new(g.lo, g.hi, g.bins);
    let mut dense = DenseHistogram::new(g.lo, g.hi, g.bins);
    for &(place, ex) in samples {
        let x = place.value(g);
        match ex {
            Some((trace_id, span_id, at)) => {
                let ex = Exemplar {
                    value: x,
                    trace_id,
                    span_id,
                    at: SimTime::from_micros(at),
                };
                sparse.record_exemplar(x, ex);
                dense.record_exemplar(x, ex);
            }
            None => {
                sparse.record(x);
                dense.record(x);
            }
        }
    }
    (sparse, dense)
}

/// Exemplars as comparable tuples (NaN values compare by bits).
fn exemplar_keys<'a>(it: impl Iterator<Item = &'a Exemplar>) -> Vec<(u64, u64, u64, SimTime)> {
    it.map(|e| (e.value.to_bits(), e.trace_id, e.span_id, e.at))
        .collect()
}

fn assert_same(s: &Histogram, d: &DenseHistogram, qs: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.count(), d.count);
    prop_assert_eq!(s.underflow(), d.underflow);
    prop_assert_eq!(s.overflow(), d.overflow);
    prop_assert_eq!(s.num_bins(), d.bins.len());
    let occupied: Vec<(usize, u64)> = d
        .bins
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    prop_assert_eq!(s.occupied_bins().collect::<Vec<_>>(), occupied);
    for &q in [0.0, 0.5, 0.99, 1.0].iter().chain(qs) {
        prop_assert_eq!(
            s.quantile(q).map(f64::to_bits),
            d.quantile(q).map(f64::to_bits),
            "quantile({}) differs",
            q
        );
    }
    prop_assert_eq!(s.has_exemplars(), d.exemplars.iter().any(Option::is_some));
    prop_assert_eq!(
        exemplar_keys(s.exemplars()),
        exemplar_keys(d.exemplars.iter().flatten())
    );
    Ok(())
}

fn quantiles() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop_oneof![-0.5f64..1.5, 0.0f64..1.0, Just(f64::NAN)], 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Recording and every query agree with the dense reference.
    #[test]
    fn sparse_histogram_matches_dense_reference(
        g in geometry(),
        xs in samples(200),
        qs in quantiles(),
    ) {
        let (sparse, dense) = build(g, &xs);
        assert_same(&sparse, &dense, &qs)?;
    }

    /// Merging agrees with the dense merge, in either grouping, and
    /// merging an empty histogram changes nothing.
    #[test]
    fn sparse_merge_matches_dense_and_is_associative(
        g in geometry(),
        xs in samples(60),
        ys in samples(60),
        zs in samples(60),
        qs in quantiles(),
    ) {
        let (a, da) = build(g, &xs);
        let (b, db) = build(g, &ys);
        let (c, dc) = build(g, &zs);
        let mut dense = da.clone();
        dense.merge(&db);
        dense.merge(&dc);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        assert_same(&left, &dense, &qs)?;

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_same(&right, &dense, &qs)?;

        right.merge(&Histogram::new(g.lo, g.hi, g.bins));
        assert_same(&right, &dense, &qs)?;
    }
}
