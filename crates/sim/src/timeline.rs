//! Windowed telemetry timeline: when did things happen, not just how
//! often.
//!
//! The metrics rollup ([`MetricsSnapshot`](crate::registry::MetricsSnapshot))
//! answers "how many retries did the campus see?"; this module answers
//! "in which 250 ms of virtual time did they cluster?". A
//! [`TimelineRecorder`] folds each session's flight-recorder events and
//! its retirement into fixed-width virtual-time windows; the resulting
//! [`Timeline`]s merge per-window by addition, which is associative and
//! commutative, so the campus fold in batch-index order produces a
//! timeline that is byte-identical across thread counts — the same
//! contract the rollup already honours.
//!
//! Every session runs its own virtual clock starting near zero, so the
//! campus timeline's axis is *session-local* virtual time aggregated
//! across the population: window `i` of the merged timeline describes
//! what all sessions experienced during their own `[i·w, (i+1)·w)`.
//! That is exactly the alignment forensics needs — an injected fault
//! schedule fires at the same session-local instant in every session.
//!
//! Session durations are folded into per-window log2 buckets (not the
//! fixed-range histograms of the registry) because a window may hold
//! one session or ten thousand; log2 buckets bound the state at 32
//! counters while still giving usable p50/p99 upper bounds.

use crate::forensics::{FlightEvent, FlightKind, FLIGHT_KINDS};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 duration buckets per window. Bucket `i` holds
/// durations `d` with `floor(log2(d_us)) == i`, so 32 buckets cover
/// durations up to ~2^32 µs (over an hour of virtual time).
const DUR_BUCKETS: usize = 32;

/// Telemetry folded into one virtual-time window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Flight-event counts by [`FlightKind`] slot.
    pub counts: [u64; FLIGHT_KINDS],
    /// Sessions that retired inside this window.
    pub sessions: u64,
    /// Of those, sessions that retired degraded (failures included).
    pub sessions_degraded: u64,
    /// Of those, sessions that retired failed.
    pub sessions_failed: u64,
    /// log2 buckets of the retired sessions' durations (µs).
    dur_bins: [u64; DUR_BUCKETS],
    /// Sum of retired sessions' durations, µs.
    pub dur_sum_us: u64,
    /// Longest retired session's duration, µs.
    pub dur_max_us: u64,
}

impl Default for WindowStats {
    fn default() -> Self {
        WindowStats {
            counts: [0; FLIGHT_KINDS],
            sessions: 0,
            sessions_degraded: 0,
            sessions_failed: 0,
            dur_bins: [0; DUR_BUCKETS],
            dur_sum_us: 0,
            dur_max_us: 0,
        }
    }
}

fn dur_bucket(us: u64) -> usize {
    (63 - us.max(1).leading_zeros() as usize).min(DUR_BUCKETS - 1)
}

impl WindowStats {
    fn merge(&mut self, other: &WindowStats) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sessions += other.sessions;
        self.sessions_degraded += other.sessions_degraded;
        self.sessions_failed += other.sessions_failed;
        for (a, b) in self.dur_bins.iter_mut().zip(&other.dur_bins) {
            *a += b;
        }
        self.dur_sum_us += other.dur_sum_us;
        self.dur_max_us = self.dur_max_us.max(other.dur_max_us);
    }

    /// Count for one event kind.
    pub fn count(&self, kind: FlightKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Whether anything anomalous landed in this window: any
    /// non-fence flight event, or a degraded/failed retirement.
    /// (Epoch fences alone are routine recovery bookkeeping;
    /// fault onsets/clears are anomalies by definition.)
    pub fn anomalous(&self) -> bool {
        let fences = self.count(FlightKind::EpochFence);
        let events: u64 = self.counts.iter().sum();
        events > fences || self.sessions_degraded > 0 || self.sessions_failed > 0
    }

    /// Upper bound (µs) of the `q`-quantile of session durations in
    /// this window, from the log2 buckets. Returns 0 when no session
    /// retired here. Never exceeds [`Self::dur_max_us`]: the bucket's
    /// power-of-two ceiling would otherwise overstate a lone slow
    /// session (one 800 ms sample must not report a 1.05 s p99).
    pub fn dur_quantile_us(&self, q: f64) -> u64 {
        if self.sessions == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * self.sessions as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.dur_bins.iter().enumerate() {
            cum += b;
            if cum >= target {
                return upper_bound_us(i).min(self.dur_max_us);
            }
        }
        self.dur_max_us
    }
}

fn upper_bound_us(bucket: usize) -> u64 {
    if bucket + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (bucket + 1)
    }
}

/// A merged, windowed view of campus telemetry over session-local
/// virtual time. Sparse: only windows that saw an event or a
/// retirement are stored.
#[derive(Debug, Clone)]
pub struct Timeline {
    window: SimDuration,
    windows: BTreeMap<u64, WindowStats>,
}

impl Timeline {
    /// An empty timeline with the given window width.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "zero timeline window");
        Timeline {
            window,
            windows: BTreeMap::new(),
        }
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of populated windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window is populated.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Populated windows in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &WindowStats)> {
        self.windows.iter().map(|(i, w)| (*i, w))
    }

    /// Stats of window `index`, if populated.
    pub fn get(&self, index: u64) -> Option<&WindowStats> {
        self.windows.get(&index)
    }

    fn index_of(&self, at: SimTime) -> u64 {
        at.as_micros() / self.window.as_micros()
    }

    fn window_start(&self, index: u64) -> SimTime {
        SimTime::from_micros(index.saturating_mul(self.window.as_micros()))
    }

    fn stats_mut(&mut self, index: u64) -> &mut WindowStats {
        self.windows.entry(index).or_default()
    }

    /// Fold one flight event into its window.
    pub fn record_event(&mut self, e: &FlightEvent) {
        let idx = self.index_of(e.at);
        self.stats_mut(idx).counts[e.kind.index()] += 1;
    }

    /// Fold one session retirement (at virtual instant `end`, having
    /// run for `duration`) into its window.
    pub fn record_session(
        &mut self,
        end: SimTime,
        duration: SimDuration,
        degraded: bool,
        failed: bool,
    ) {
        let idx = self.index_of(end);
        let w = self.stats_mut(idx);
        w.sessions += 1;
        w.sessions_degraded += u64::from(degraded);
        w.sessions_failed += u64::from(failed);
        let us = duration.as_micros();
        w.dur_bins[dur_bucket(us)] += 1;
        w.dur_sum_us += us;
        w.dur_max_us = w.dur_max_us.max(us);
    }

    /// Merge another timeline in: per-window addition, so the
    /// operation is associative and commutative and the campus fold is
    /// order-insensitive at the byte level.
    ///
    /// # Panics
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(
            self.window.as_micros(),
            other.window.as_micros(),
            "timeline window mismatch"
        );
        for (idx, theirs) in &other.windows {
            self.stats_mut(*idx).merge(theirs);
        }
    }

    /// `[start, end)` of the full populated span, if any. The end is
    /// exclusive; a populated final window (index `u64::MAX / w`)
    /// saturates rather than wrapping to an empty span.
    pub fn full_span(&self) -> Option<(SimTime, SimTime)> {
        let first = *self.windows.keys().next()?;
        let last = *self.windows.keys().next_back()?;
        Some((
            self.window_start(first),
            self.window_start(last.saturating_add(1)),
        ))
    }

    /// `[start, end)` covering the first through last anomalous
    /// window, if any window is anomalous (see
    /// [`WindowStats::anomalous`]).
    pub fn anomaly_span(&self) -> Option<(SimTime, SimTime)> {
        let mut first = None;
        let mut last = None;
        for (idx, w) in &self.windows {
            if w.anomalous() {
                first.get_or_insert(*idx);
                last = Some(*idx);
            }
        }
        Some((
            self.window_start(first?),
            self.window_start(last?.saturating_add(1)),
        ))
    }

    /// Total count of `kind` over windows intersecting `[start, end)`.
    pub fn sum_kind_in(&self, kind: FlightKind, start: SimTime, end: SimTime) -> u64 {
        self.range(start, end).map(|(_, w)| w.count(kind)).sum()
    }

    /// Start of the first window in `[start, end)` holding `kind`.
    pub fn first_at_of(&self, kind: FlightKind, start: SimTime, end: SimTime) -> Option<SimTime> {
        self.range(start, end)
            .find(|(_, w)| w.count(kind) > 0)
            .map(|(i, _)| self.window_start(i))
    }

    /// `(degraded-or-failed retirements, start of first such window)`
    /// over `[start, end)`.
    pub fn degraded_in(&self, start: SimTime, end: SimTime) -> (u64, Option<SimTime>) {
        let mut total = 0;
        let mut first = None;
        for (i, w) in self.range(start, end) {
            if w.sessions_degraded > 0 || w.sessions_failed > 0 {
                total += w.sessions_degraded.max(w.sessions_failed);
                if first.is_none() {
                    first = Some(self.window_start(i));
                }
            }
        }
        (total, first)
    }

    fn range(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = (u64, &WindowStats)> {
        let w = self.window.as_micros();
        let lo = start.as_micros() / w;
        let hi = end.as_micros().div_ceil(w);
        self.windows.range(lo..hi).map(|(i, stats)| (*i, stats))
    }

    /// Hand-written, byte-stable JSON: window width plus one object per
    /// populated window. Event counts render only non-zero kinds, in
    /// [`FlightKind::ALL`] order, to keep the document compact.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"v\":1,\"window_us\":{},\"windows\":[",
            self.window.as_micros()
        );
        for (n, (idx, w)) in self.windows.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"i\":{},\"start_us\":{},\"sessions\":{},\"degraded\":{},\"failed\":{},\
                 \"dur_p50_us\":{},\"dur_p99_us\":{},\"dur_max_us\":{},\"events\":{{",
                idx,
                self.window_start(*idx).as_micros(),
                w.sessions,
                w.sessions_degraded,
                w.sessions_failed,
                w.dur_quantile_us(0.50),
                w.dur_quantile_us(0.99),
                w.dur_max_us
            );
            let mut wrote = false;
            for kind in FlightKind::ALL {
                let c = w.count(kind);
                if c > 0 {
                    if wrote {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", kind.as_str(), c);
                    wrote = true;
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable rendering, one line per populated window.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline (window {} ms, {} populated windows)",
            self.window.as_millis(),
            self.windows.len()
        );
        for (idx, w) in &self.windows {
            let start = self.window_start(*idx);
            let _ = write!(
                out,
                "[{:>5}] {:>9.3}s  sessions={:<6} degraded={:<4} failed={:<4}",
                idx,
                start.as_secs_f64(),
                w.sessions,
                w.sessions_degraded,
                w.sessions_failed
            );
            for kind in FlightKind::ALL {
                let c = w.count(kind);
                if c > 0 {
                    let _ = write!(out, " {}={}", kind.as_str(), c);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Per-session builder for a [`Timeline`]: the campus runner creates
/// one per retiring session, folds the session's flight events and its
/// retirement in, and merges the finished timeline into the batch
/// rollup.
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    timeline: Timeline,
}

impl TimelineRecorder {
    /// A recorder producing a timeline with the given window width.
    pub fn new(window: SimDuration) -> Self {
        TimelineRecorder {
            timeline: Timeline::new(window),
        }
    }

    /// Fold one flight event.
    pub fn record_event(&mut self, e: &FlightEvent) {
        self.timeline.record_event(e);
    }

    /// Fold a slice of flight events.
    pub fn record_events(&mut self, events: &[FlightEvent]) {
        for e in events {
            self.timeline.record_event(e);
        }
    }

    /// Fold the session's retirement.
    pub fn record_session(
        &mut self,
        end: SimTime,
        duration: SimDuration,
        degraded: bool,
        failed: bool,
    ) {
        self.timeline
            .record_session(end, duration, degraded, failed);
    }

    /// Finish into an owned timeline.
    pub fn finish(self) -> Timeline {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: SimTime, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            at,
            kind,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn events_and_sessions_land_in_their_windows() {
        let mut tl = Timeline::new(SimDuration::from_millis(250));
        tl.record_event(&ev(SimTime::from_millis(100), FlightKind::Retry));
        tl.record_event(&ev(SimTime::from_millis(260), FlightKind::Retry));
        tl.record_session(
            SimTime::from_millis(510),
            SimDuration::from_millis(510),
            false,
            false,
        );
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.get(0).unwrap().count(FlightKind::Retry), 1);
        assert_eq!(tl.get(1).unwrap().count(FlightKind::Retry), 1);
        assert_eq!(tl.get(2).unwrap().sessions, 1);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let make = |at_ms: u64, kind: FlightKind| {
            let mut t = Timeline::new(SimDuration::from_millis(250));
            t.record_event(&ev(SimTime::from_millis(at_ms), kind));
            t.record_session(
                SimTime::from_millis(at_ms),
                SimDuration::from_millis(at_ms),
                kind == FlightKind::Failover,
                false,
            );
            t
        };
        let (a, b, c) = (
            make(10, FlightKind::Retry),
            make(300, FlightKind::Failover),
            make(20, FlightKind::Shed),
        );
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.to_json(), right.to_json());
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left.to_json(), rev.to_json());
    }

    #[test]
    #[should_panic(expected = "timeline window mismatch")]
    fn merge_rejects_mismatched_windows() {
        let mut a = Timeline::new(SimDuration::from_millis(250));
        let b = Timeline::new(SimDuration::from_millis(100));
        a.merge(&b);
    }

    #[test]
    fn anomaly_span_covers_first_to_last_anomalous_window() {
        let mut tl = Timeline::new(SimDuration::from_secs(1));
        // Routine fence at t=0 must not open the span.
        tl.record_event(&ev(SimTime::from_millis(500), FlightKind::EpochFence));
        tl.record_event(&ev(SimTime::from_secs(10), FlightKind::FaultOnset));
        tl.record_event(&ev(SimTime::from_secs(12), FlightKind::Retry));
        tl.record_session(
            SimTime::from_secs(20),
            SimDuration::from_secs(20),
            false,
            false,
        );
        let (start, end) = tl.anomaly_span().expect("anomalies present");
        assert_eq!(start, SimTime::from_secs(10));
        assert_eq!(end, SimTime::from_secs(13));
        assert_eq!(tl.sum_kind_in(FlightKind::Retry, start, end), 1);
        assert_eq!(
            tl.first_at_of(FlightKind::Retry, start, end),
            Some(SimTime::from_secs(12))
        );
    }

    #[test]
    fn duration_quantiles_bound_the_samples() {
        let mut tl = Timeline::new(SimDuration::from_secs(1));
        for ms in [100u64, 200, 400, 800] {
            tl.record_session(
                SimTime::from_millis(500),
                SimDuration::from_millis(ms),
                false,
                false,
            );
        }
        let w = tl.get(0).unwrap();
        assert_eq!(w.sessions, 4);
        assert!(w.dur_quantile_us(0.5) >= 200_000);
        assert!(w.dur_quantile_us(0.99) >= 800_000);
        assert_eq!(w.dur_max_us, 800_000);
    }

    #[test]
    fn empty_timeline_has_no_spans_and_zero_quantiles() {
        let tl = Timeline::new(SimDuration::from_millis(250));
        assert!(tl.is_empty());
        assert_eq!(tl.full_span(), None);
        assert_eq!(tl.anomaly_span(), None);
        assert_eq!(WindowStats::default().dur_quantile_us(0.99), 0);
    }

    #[test]
    fn single_window_timeline_brackets_itself() {
        let mut tl = Timeline::new(SimDuration::from_secs(1));
        tl.record_event(&ev(SimTime::from_millis(400), FlightKind::Retry));
        tl.record_session(
            SimTime::from_millis(600),
            SimDuration::from_millis(600),
            true,
            false,
        );
        assert_eq!(tl.len(), 1);
        let span = (SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(tl.full_span(), Some(span));
        assert_eq!(tl.anomaly_span(), Some(span));
        assert_eq!(tl.sum_kind_in(FlightKind::Retry, span.0, span.1), 1);
    }

    #[test]
    fn anomalies_only_in_final_window_bracket_correctly() {
        let mut tl = Timeline::new(SimDuration::from_secs(1));
        // Clean traffic up front, the only anomaly in the last
        // populated window: the span must cover exactly that window.
        for s in 0..5u64 {
            tl.record_session(
                SimTime::from_secs(s),
                SimDuration::from_millis(100),
                false,
                false,
            );
        }
        tl.record_event(&ev(SimTime::from_secs(9), FlightKind::FaultOnset));
        let (start, end) = tl.anomaly_span().expect("anomaly present");
        assert_eq!(start, SimTime::from_secs(9));
        assert_eq!(end, SimTime::from_secs(10));
        let (full_start, full_end) = tl.full_span().unwrap();
        assert_eq!(full_start, SimTime::ZERO);
        assert_eq!(full_end, SimTime::from_secs(10));
    }

    #[test]
    fn final_window_index_saturates_instead_of_wrapping() {
        // A window at the top of the index space: `last + 1` must
        // saturate, producing a non-inverted (if clamped) span.
        let mut tl = Timeline::new(SimDuration::from_micros(1));
        tl.record_event(&ev(SimTime::from_micros(u64::MAX), FlightKind::FaultOnset));
        let (start, end) = tl.anomaly_span().expect("anomaly present");
        assert!(start <= end, "span inverted: {start} > {end}");
        assert_eq!(start, SimTime::from_micros(u64::MAX));
        let (fs, fe) = tl.full_span().unwrap();
        assert!(fs <= fe);
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        let mut tl = Timeline::new(SimDuration::from_secs(1));
        // One 800 ms session: bucket ceiling is 2^20 µs ≈ 1.05 s, but
        // the reported quantiles must stay at the observed 800 ms.
        tl.record_session(
            SimTime::from_millis(500),
            SimDuration::from_millis(800),
            false,
            false,
        );
        let w = tl.get(0).unwrap();
        assert_eq!(w.dur_quantile_us(0.50), 800_000);
        assert_eq!(w.dur_quantile_us(0.99), 800_000);
        assert_eq!(w.dur_quantile_us(1.0), w.dur_max_us);
    }

    #[test]
    fn json_is_deterministic_and_skips_zero_counts() {
        let mut tl = Timeline::new(SimDuration::from_millis(250));
        tl.record_event(&ev(SimTime::from_millis(10), FlightKind::Shed));
        let json = tl.to_json();
        assert_eq!(json, tl.to_json());
        assert!(json.contains("\"shed\":1"));
        assert!(!json.contains("retry"));
        assert!(json.starts_with("{\"v\":1,\"window_us\":250000"));
    }
}
