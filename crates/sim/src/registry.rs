//! A unified metrics registry: named counters, gauges and histograms
//! that every layer of the MITS stack registers into.
//!
//! Before this existed each layer kept private ad-hoc counters
//! (`DbClientMetrics`, `FaultStats`, `CodReport`, ...). The registry
//! gives them one namespace — dotted, lowercase names such as
//! `atm.link.client0->switch.drops` or `db.server0.wal.bytes_journaled`
//! — and two deterministic exporters: an aligned text snapshot for the
//! bench tables and a JSON object for machine consumption. Names are
//! stored in a `BTreeMap`, so export order is sorted and byte-stable,
//! as shared `Arc<str>`s: a registry allocates a name once, rewrites
//! it in place on every later export (also after
//! [`MetricsRegistry::recycle`] hands it to the next session), and
//! snapshots share it.
//!
//! Counters are monotonic `u64`s, gauges are instantaneous `f64`s, and
//! histograms reuse [`Histogram`] from the stats module (exported as
//! count plus p50/p99). There is no background aggregation thread —
//! the simulation is single-threaded and layers either update metrics
//! in place or snapshot their internal stats into the registry at
//! export time.
//!
//! For campus-scale runs, a registry can be frozen into a
//! [`MetricsSnapshot`] and snapshots from independent shards merged into
//! one rollup: counters add, histograms merge bin for bin, and gauges
//! take the value with the latest virtual timestamp (stamped from the
//! registry clock set via [`MetricsRegistry::set_clock`]). Merging in
//! shard-index order makes the rollup byte-identical regardless of how
//! many worker threads ran the shards. A live registry can also be
//! folded in directly ([`MetricsSnapshot::merge_registry`]), which is
//! how the campus rolls up sessions without freezing each one.

use crate::stats::{Exemplar, Histogram};
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Named entries, sorted by name. A name is allocated once, when a
/// registry first writes it; snapshots and merges share it by reference
/// count instead of copying it.
type Entries = BTreeMap<Arc<str>, SnapshotValue>;

/// A registry entry and the generation that last wrote it.
struct Slot {
    generation: u64,
    value: SnapshotValue,
}

#[derive(Default)]
struct RegistryInner {
    /// Entries stored as a snapshot holds them (gauges carry their
    /// stamp). Only slots of the current `generation` are visible; older
    /// ones are the names a recycled registry keeps allocated (see
    /// [`MetricsRegistry::recycle`]).
    map: BTreeMap<Arc<str>, Slot>,
    generation: u64,
    /// Stamp applied to gauge writes; layers that export at a known
    /// virtual instant call [`MetricsRegistry::set_clock`] first.
    clock: SimTime,
}

impl RegistryInner {
    fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.map
            .get(name)
            .filter(|s| s.generation == self.generation)
            .map(|s| &s.value)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut SnapshotValue> {
        let generation = self.generation;
        self.map
            .get_mut(name)
            .filter(|s| s.generation == generation)
            .map(|s| &mut s.value)
    }

    /// The visible entries, sorted by name.
    fn entries(&self) -> impl Iterator<Item = (&Arc<str>, &SnapshotValue)> {
        self.map
            .iter()
            .filter(|(_, s)| s.generation == self.generation)
            .map(|(k, s)| (k, &s.value))
    }

    /// Overwrite `name` in place, allocating the name only if it is new.
    fn set(&mut self, name: &str, value: SnapshotValue) {
        let slot = Slot {
            generation: self.generation,
            value,
        };
        match self.map.get_mut(name) {
            Some(s) => *s = slot,
            None => {
                self.map.insert(Arc::from(name), slot);
            }
        }
    }
}

/// A shared, cloneable registry of named metrics. Clones view the same
/// underlying map, so each layer can hold its own handle.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set the virtual timestamp stamped onto subsequent gauge writes.
    /// Snapshot merges resolve gauge conflicts by "latest stamp wins",
    /// so exporters should set the clock to the simulation's `now`
    /// before refreshing their gauges.
    pub fn set_clock(&self, now: SimTime) {
        self.inner.lock().clock = now;
    }

    /// Add `by` to the counter `name`, creating it at zero first. If
    /// `name` exists with a different type it becomes a counter.
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock();
        match inner.get_mut(name) {
            Some(SnapshotValue::Counter(c)) => *c += by,
            _ => inner.set(name, SnapshotValue::Counter(by)),
        }
    }

    /// Set the counter `name` to an absolute value (for layers that
    /// already maintain their own totals and snapshot them at export).
    pub fn counter_set(&self, name: &str, value: u64) {
        self.inner.lock().set(name, SnapshotValue::Counter(value));
    }

    /// Set the gauge `name`, stamped with the registry clock.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        let at = inner.clock;
        inner.set(name, SnapshotValue::Gauge { at, value });
    }

    /// Record one sample into the histogram `name`, creating it with
    /// range `[lo, hi)` and `bins` buckets if absent. An existing
    /// non-histogram entry is replaced.
    pub fn observe(&self, name: &str, x: f64, lo: f64, hi: f64, bins: usize) {
        let mut inner = self.inner.lock();
        match inner.get_mut(name) {
            Some(SnapshotValue::Histogram(h)) => h.record(x),
            _ => {
                let mut h = Histogram::new(lo, hi, bins);
                h.record(x);
                inner.set(name, SnapshotValue::Histogram(h));
            }
        }
    }

    /// Like [`MetricsRegistry::observe`], but also offer an
    /// [`Exemplar`] linking the sample back to its trace: the bucket
    /// the sample lands in keeps the exemplar with the largest value
    /// (deterministic tie-break), so merged snapshots agree on
    /// exemplars byte-for-byte regardless of merge order.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_exemplar(
        &self,
        name: &str,
        x: f64,
        lo: f64,
        hi: f64,
        bins: usize,
        trace_id: u64,
        span_id: u64,
        at: SimTime,
    ) {
        let ex = Exemplar {
            value: x,
            trace_id,
            span_id,
            at,
        };
        let mut inner = self.inner.lock();
        match inner.get_mut(name) {
            Some(SnapshotValue::Histogram(h)) => h.record_exemplar(x, ex),
            _ => {
                let mut h = Histogram::new(lo, hi, bins);
                h.record_exemplar(x, ex);
                inner.set(name, SnapshotValue::Histogram(h));
            }
        }
    }

    /// Store a snapshot of an externally maintained histogram under
    /// `name` (replacing any previous snapshot).
    pub fn record_histogram(&self, name: &str, h: &Histogram) {
        self.inner
            .lock()
            .set(name, SnapshotValue::Histogram(h.clone()));
    }

    /// Current value of the counter `name`, if it is a counter.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        match self.inner.lock().get(name) {
            Some(SnapshotValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Current value of the gauge `name`, if it is a gauge.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        match self.inner.lock().get(name) {
            Some(SnapshotValue::Gauge { value, .. }) => Some(*value),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().entries().count()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries().next().is_none()
    }

    /// All metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .lock()
            .entries()
            .map(|(k, _)| k.to_string())
            .collect()
    }

    /// Freeze the registry into an owned, mergeable snapshot. Names are
    /// shared with the registry, not copied.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .inner
                .lock()
                .entries()
                .map(|(k, v)| (Arc::clone(k), v.clone()))
                .collect(),
        }
    }

    /// Retire this registry for reuse by the next one: the registry
    /// returned is empty to every reader and its clock is back at zero,
    /// but it keeps the names written since it was last recycled, so
    /// writing one again updates it in place instead of allocating.
    /// `None` when another handle still shares the registry, since
    /// emptying it would change what that handle sees.
    pub fn recycle(mut self) -> Option<MetricsRegistry> {
        let inner = Arc::get_mut(&mut self.inner)?.get_mut();
        let generation = inner.generation;
        inner.map.retain(|_, s| s.generation == generation);
        inner.generation += 1;
        inner.clock = SimTime::ZERO;
        Some(self)
    }

    /// Aligned text snapshot, one metric per line, names sorted.
    /// Histograms render as `count=N p50=X p99=Y`.
    pub fn to_text(&self) -> String {
        self.snapshot().to_text()
    }

    /// JSON object snapshot (hand-written; names sorted). Counters are
    /// integers, gauges floats, histograms
    /// `{"count":N,"p50":X,"p99":Y}`.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// One named metric: an entry of a [`MetricsRegistry`] and of a frozen
/// [`MetricsSnapshot`] alike.
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// Monotonic count — merges by addition.
    Counter(u64),
    /// Instantaneous measurement — merges by latest virtual stamp
    /// (ties resolved in favour of the merged-in value, which in a
    /// campus rollup walking shards in index order means the highest
    /// shard index).
    Gauge {
        /// Virtual instant the gauge was last set.
        at: SimTime,
        /// The measurement.
        value: f64,
    },
    /// Distribution — merges bin for bin ([`Histogram::merge`]).
    Histogram(Histogram),
}

/// An owned, mergeable freeze of a [`MetricsRegistry`]. The campus
/// runner folds every session's registry, in student-index order, into
/// the rollup reported for the whole student population.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    entries: Entries,
}

impl MetricsSnapshot {
    /// An empty snapshot (the identity for [`MetricsSnapshot::merge`]).
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries.get(name)
    }

    /// Counter value under `name`, if it is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(SnapshotValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value under `name`, if it is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(SnapshotValue::Gauge { value, .. }) => Some(*value),
            _ => None,
        }
    }

    /// Histogram under `name`, if it is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.entries.get(name) {
            Some(SnapshotValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All metric names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|k| &**k)
    }

    /// Merge `other` into this snapshot: counters add, histograms merge,
    /// gauges keep the later virtual stamp (`other` wins ties). A name
    /// present on only one side is kept as-is; a name whose kind or
    /// histogram geometry differs between the two sides takes `other`'s
    /// entry (last writer wins, mirroring the registry's own
    /// type-coercion rule), so a conflicting registration never panics.
    ///
    /// While every name keeps one kind and one geometry the operation is
    /// associative, so folding shard snapshots in index order yields the
    /// same rollup regardless of how the shards were scheduled across
    /// worker threads. A conflict resolves by fold order instead.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_entries(&mut self.entries, other.entries.iter());
    }

    /// Fold a live registry in without freezing it first:
    /// `s.merge_registry(&reg)` leaves `s` exactly as
    /// `s.merge(&reg.snapshot())` would, sharing `reg`'s names.
    pub fn merge_registry(&mut self, reg: &MetricsRegistry) {
        merge_entries(&mut self.entries, reg.inner.lock().entries());
    }

    /// Aligned text rendering, one metric per line, names sorted.
    pub fn to_text(&self) -> String {
        let width = self.entries.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, v) in &self.entries {
            let _ = write!(out, "{name:<width$}  ");
            match v {
                SnapshotValue::Counter(c) => {
                    let _ = writeln!(out, "{c}");
                }
                SnapshotValue::Gauge { value, .. } => {
                    let _ = writeln!(out, "{value:.6}");
                }
                SnapshotValue::Histogram(h) => {
                    let p50 = h.quantile(0.50).unwrap_or(0.0);
                    let p99 = h.quantile(0.99).unwrap_or(0.0);
                    let _ = writeln!(out, "count={} p50={:.3} p99={:.3}", h.count(), p50, p99);
                }
            }
        }
        out
    }

    /// JSON object rendering (names sorted; byte-stable). Counters are
    /// integers, gauges floats (non-finite values render as `null` to
    /// keep the document valid JSON), histograms
    /// `{"count":N,"p50":X,"p99":Y}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", crate::trace::json_escape(name));
            match v {
                SnapshotValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                SnapshotValue::Gauge { value, .. } => write_json_f64(&mut out, *value),
                SnapshotValue::Histogram(h) => {
                    let p50 = h.quantile(0.50).unwrap_or(0.0);
                    let p99 = h.quantile(0.99).unwrap_or(0.0);
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"p50\":{:.3},\"p99\":{:.3}}}",
                        h.count(),
                        p50,
                        p99
                    );
                }
            }
        }
        out.push('}');
        out
    }
}

/// The merge behind [`MetricsSnapshot::merge`] and
/// [`MetricsSnapshot::merge_registry`].
fn merge_entries<'a>(
    ours: &mut Entries,
    theirs: impl Iterator<Item = (&'a Arc<str>, &'a SnapshotValue)>,
) {
    for (name, theirs) in theirs {
        match (ours.get_mut(&**name), theirs) {
            (Some(SnapshotValue::Counter(a)), SnapshotValue::Counter(b)) => *a += b,
            (
                Some(SnapshotValue::Gauge { at, value }),
                SnapshotValue::Gauge {
                    at: at_b,
                    value: value_b,
                },
            ) => {
                if *at_b >= *at {
                    *at = *at_b;
                    *value = *value_b;
                }
            }
            (Some(SnapshotValue::Histogram(a)), SnapshotValue::Histogram(b))
                if a.same_geometry(b) =>
            {
                a.merge(b)
            }
            (Some(e), theirs) => *e = theirs.clone(),
            (None, theirs) => {
                ours.insert(Arc::clone(name), theirs.clone());
            }
        }
    }
}

/// Write an `f64` as a valid JSON value: fixed six-decimal notation for
/// finite values, `null` for NaN/infinities (JSON has no spelling for
/// them, and a bare `inf` would corrupt the whole document).
pub(crate) fn write_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:.6}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_set() {
        let reg = MetricsRegistry::new();
        reg.inc("a.count", 2);
        reg.inc("a.count", 3);
        assert_eq!(reg.get_counter("a.count"), Some(5));
        reg.counter_set("a.count", 1);
        assert_eq!(reg.get_counter("a.count"), Some(1));
        assert_eq!(reg.get_counter("missing"), None);
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let other = reg.clone();
        other.inc("shared", 7);
        assert_eq!(reg.get_counter("shared"), Some(7));
    }

    #[test]
    fn text_export_is_sorted_and_aligned() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("zz.util", 0.25);
        reg.inc("aa.count", 4);
        reg.observe("mm.lat", 1.0, 0.0, 10.0, 10);
        reg.observe("mm.lat", 2.0, 0.0, 10.0, 10);
        let text = reg.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("aa.count"));
        assert!(lines[1].starts_with("mm.lat"));
        assert!(lines[2].starts_with("zz.util"));
        assert!(lines[1].contains("count=2"));
        let a = reg.to_text();
        let b = reg.to_text();
        assert_eq!(a, b);
    }

    #[test]
    fn json_export_has_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.inc("c", 3);
        reg.gauge_set("g", 0.5);
        reg.observe("h", 1.0, 0.0, 2.0, 4);
        let json = reg.to_json();
        assert_eq!(
            json,
            "{\"c\":3,\"g\":0.500000,\"h\":{\"count\":1,\"p50\":1.500,\"p99\":1.500}}"
        );
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("bad.ratio", f64::NAN);
        reg.gauge_set("bad.rate", f64::INFINITY);
        assert_eq!(reg.to_json(), "{\"bad.rate\":null,\"bad.ratio\":null}");
    }

    #[test]
    fn snapshot_merge_counters_add_histograms_fold() {
        let a = MetricsRegistry::new();
        a.inc("reqs", 3);
        a.observe("lat", 1.0, 0.0, 10.0, 10);
        let b = MetricsRegistry::new();
        b.inc("reqs", 4);
        b.observe("lat", 9.0, 0.0, 10.0, 10);
        b.inc("only_b", 1);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("reqs"), Some(7));
        assert_eq!(merged.counter("only_b"), Some(1));
        assert_eq!(merged.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn snapshot_merge_gauges_take_latest_stamp() {
        let a = MetricsRegistry::new();
        a.set_clock(SimTime::from_secs(10));
        a.gauge_set("depth", 5.0);
        let b = MetricsRegistry::new();
        b.set_clock(SimTime::from_secs(3));
        b.gauge_set("depth", 9.0);
        // a is later: merging b into a keeps a's value...
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.gauge("depth"), Some(5.0));
        // ...and merging a into b adopts a's value.
        let mut m = b.snapshot();
        m.merge(&a.snapshot());
        assert_eq!(m.gauge("depth"), Some(5.0));
        // Equal stamps: the merged-in side wins (last writer).
        let c = MetricsRegistry::new();
        c.set_clock(SimTime::from_secs(10));
        c.gauge_set("depth", 7.0);
        let mut m = a.snapshot();
        m.merge(&c.snapshot());
        assert_eq!(m.gauge("depth"), Some(7.0));
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let make = |clock: u64, n: u64| {
            let r = MetricsRegistry::new();
            r.set_clock(SimTime::from_secs(clock));
            r.inc("c", n);
            r.gauge_set("g", n as f64);
            r.observe("h", n as f64, 0.0, 10.0, 5);
            r.snapshot()
        };
        let (a, b, c) = (make(1, 1), make(3, 2), make(2, 3));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.to_json(), right.to_json());
        assert_eq!(left.counter("c"), Some(6));
        assert_eq!(left.gauge("g"), Some(2.0), "latest stamp (t=3) wins");
    }

    #[test]
    fn merge_registry_equals_merging_its_snapshot() {
        let base = MetricsRegistry::new();
        base.set_clock(SimTime::from_secs(2));
        base.inc("c", 1);
        base.gauge_set("g", 1.0);
        base.observe_exemplar("h", 3.0, 0.0, 10.0, 10, 1, 1, SimTime::ZERO);
        base.observe("only_base", 1.0, 0.0, 1.0, 2);
        let reg = MetricsRegistry::new();
        reg.set_clock(SimTime::from_secs(5));
        reg.inc("c", 2);
        reg.gauge_set("g", 9.0);
        reg.observe_exemplar("h", 7.5, 0.0, 10.0, 10, 2, 4, SimTime::from_secs(5));
        reg.observe_exemplar("h", 3.1, 0.0, 10.0, 10, 3, 4, SimTime::from_secs(5));
        reg.inc("only_reg", 4);
        for start in [MetricsSnapshot::new(), base.snapshot()] {
            let mut via_snapshot = start.clone();
            via_snapshot.merge(&reg.snapshot());
            let mut direct = start;
            direct.merge_registry(&reg);
            assert_eq!(format!("{direct:?}"), format!("{via_snapshot:?}"));
        }
        // The fold leaves the registry itself untouched.
        assert_eq!(reg.get_counter("c"), Some(2));
    }

    #[test]
    fn recycled_registry_is_observably_fresh() {
        let used = MetricsRegistry::new();
        used.set_clock(SimTime::from_secs(9));
        used.inc("c", 5);
        used.gauge_set("g", 1.0);
        used.observe("h", 1.0, 0.0, 10.0, 10);
        used.inc("only_used", 1);
        assert!(used.clone().recycle().is_none(), "a shared registry stays");
        let reg = used.recycle().expect("sole handle");
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
        assert!(reg.names().is_empty());
        assert_eq!(reg.get_counter("c"), None);
        assert_eq!(reg.to_json(), "{}");
        let fresh = MetricsRegistry::new();
        for r in [&reg, &fresh] {
            r.inc("c", 2);
            r.gauge_set("g", 3.0);
            r.observe("h", 4.0, 0.0, 10.0, 10);
        }
        assert_eq!(
            format!("{:?}", reg.snapshot()),
            format!("{:?}", fresh.snapshot())
        );
        let (mut a, mut b) = (MetricsSnapshot::new(), MetricsSnapshot::new());
        a.merge_registry(&reg);
        b.merge_registry(&fresh);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn histogram_geometry_mismatch_takes_the_merged_in_entry() {
        let a = MetricsRegistry::new();
        a.observe("lat", 1.0, 0.0, 10.0, 10);
        let b = MetricsRegistry::new();
        b.observe("lat", 2.0, 0.0, 60.0, 600);
        b.observe("lat", 3.0, 0.0, 60.0, 600);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let h = merged.histogram("lat").unwrap();
        assert_eq!((h.count(), h.num_bins()), (2, 600));
        let mut folded = a.snapshot();
        folded.merge_registry(&b);
        assert_eq!(format!("{folded:?}"), format!("{merged:?}"));
        // The other way round, `a`'s geometry wins.
        let mut back = b.snapshot();
        back.merge_registry(&a);
        let h = back.histogram("lat").unwrap();
        assert_eq!((h.count(), h.num_bins()), (1, 10));
    }

    #[test]
    fn registry_renderers_match_snapshot_renderers() {
        let reg = MetricsRegistry::new();
        reg.inc("a", 1);
        reg.gauge_set("b", 2.0);
        assert_eq!(reg.to_text(), reg.snapshot().to_text());
        assert_eq!(reg.to_json(), reg.snapshot().to_json());
    }
}
