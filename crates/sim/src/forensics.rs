//! Always-on flight recorder and breach forensics.
//!
//! All telemetry before this module was end-of-run: one merged
//! [`MetricsSnapshot`](crate::registry::MetricsSnapshot), sampled
//! traces, and a pass/fail SLO verdict — no notion of *when* a
//! degradation happened or *which* fault caused it. This module adds
//! the two missing pieces:
//!
//! * [`FlightRecorder`] — a bounded ring buffer of compact structured
//!   events (fault onset/clear, retry, timeout, stale epoch, failover,
//!   epoch fence, shed, edge invalidation) that every session carries,
//!   sampled or not. Recording is a mutex lock and a ring push, so it
//!   is cheap enough to be always-on; the ring bounds memory no matter
//!   how pathological the session.
//! * [`ForensicBundle`] — a machine-readable incident report generated
//!   when an SLO breaches or a session retires failed. The generator
//!   walks the windowed [`Timeline`](crate::timeline::Timeline) to
//!   find the breach window, pulls the flight-recorder tails and
//!   exemplar-linked samples overlapping it, aligns them against the
//!   injected fault schedule ([`FaultWindow`]), and emits a suspected
//!   cause chain: fault event → retries/failovers → degraded sessions.
//!
//! Everything here is stamped with virtual time only, so bundles and
//! timelines are byte-identical across thread counts, exactly like the
//! metrics rollup.

use crate::registry::write_json_f64;
use crate::slo::{SloReport, Verdict};
use crate::stats::Exemplar;
use crate::time::SimTime;
use crate::timeline::Timeline;
use crate::trace::json_escape;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

/// Default ring capacity of a [`FlightRecorder`]. Sixty-four events
/// comfortably cover the anomalous tail of a session (a storm session
/// sees a couple of fault onsets, a handful of retries and one or two
/// failovers) while bounding the recorder at ~2 KiB.
pub const FLIGHT_RING_CAP: usize = 64;

/// The kinds of structured events a [`FlightRecorder`] captures. The
/// set is deliberately closed and small: each kind is a fixed-size
/// counter slot in the timeline, and forensics reasons about them by
/// kind, not by free-form label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlightKind {
    /// A server crash was observed (fault injection fired).
    FaultOnset,
    /// A crashed server finished recovery and rejoined.
    FaultClear,
    /// A client re-issued a request (backoff expired or shed retry).
    Retry,
    /// A client attempt died quiet (per-attempt timeout).
    Timeout,
    /// A response from a deposed primary was fenced by epoch.
    StaleEpoch,
    /// A client endpoint rotated away from a quiet shard.
    Failover,
    /// An epoch floor advanced (client- or edge-side fence raise).
    EpochFence,
    /// A server rejected a request under queue overload.
    Shed,
    /// A fenced edge-cache entry was evicted on access.
    EdgeInvalidation,
}

impl FlightKind {
    /// Every kind, in canonical (timeline slot) order.
    pub const ALL: [FlightKind; 9] = [
        FlightKind::FaultOnset,
        FlightKind::FaultClear,
        FlightKind::Retry,
        FlightKind::Timeout,
        FlightKind::StaleEpoch,
        FlightKind::Failover,
        FlightKind::EpochFence,
        FlightKind::Shed,
        FlightKind::EdgeInvalidation,
    ];

    /// Slot index of this kind in [`FlightKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            FlightKind::FaultOnset => 0,
            FlightKind::FaultClear => 1,
            FlightKind::Retry => 2,
            FlightKind::Timeout => 3,
            FlightKind::StaleEpoch => 4,
            FlightKind::Failover => 5,
            FlightKind::EpochFence => 6,
            FlightKind::Shed => 7,
            FlightKind::EdgeInvalidation => 8,
        }
    }

    /// Stable lowercase name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::FaultOnset => "fault_onset",
            FlightKind::FaultClear => "fault_clear",
            FlightKind::Retry => "retry",
            FlightKind::Timeout => "timeout",
            FlightKind::StaleEpoch => "stale_epoch",
            FlightKind::Failover => "failover",
            FlightKind::EpochFence => "epoch_fence",
            FlightKind::Shed => "shed",
            FlightKind::EdgeInvalidation => "edge_invalidation",
        }
    }
}

/// Number of [`FlightKind`] slots (timeline counter width).
pub const FLIGHT_KINDS: usize = FlightKind::ALL.len();

/// One recorded flight event. `a` and `b` are kind-specific details
/// (shard index, server index, epoch, attempt count, queue depth...);
/// they are opaque to the recorder and rendered verbatim in JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual instant the event fired.
    pub at: SimTime,
    /// What happened.
    pub kind: FlightKind,
    /// First kind-specific detail (conventionally the shard or server).
    pub a: u64,
    /// Second kind-specific detail (conventionally epoch/attempt/depth).
    pub b: u64,
}

impl FlightEvent {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"at_us\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            self.at.as_micros(),
            self.kind.as_str(),
            self.a,
            self.b
        );
    }
}

#[derive(Default)]
struct FlightInner {
    ring: VecDeque<FlightEvent>,
    cap: usize,
    dropped: u64,
    totals: [u64; FLIGHT_KINDS],
}

/// A shared, cloneable bounded ring of recent [`FlightEvent`]s. Clones
/// view the same ring, so each layer (client, edge cache, system) can
/// hold its own handle — the same sharing shape as
/// [`Tracer`](crate::trace::Tracer) and
/// [`MetricsRegistry`](crate::registry::MetricsRegistry).
///
/// Unlike the tracer, the recorder is *always on*: it never samples,
/// and the ring cap keeps both cost and memory bounded. Kind totals
/// are kept even for events the ring has already dropped.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FLIGHT_RING_CAP)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("FlightRecorder")
            .field("len", &g.ring.len())
            .field("cap", &g.cap)
            .field("dropped", &g.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder whose ring holds at most `cap` events (`cap` is
    /// clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                ring: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
                totals: [0; FLIGHT_KINDS],
            })),
        }
    }

    /// Record one event. When the ring is full the oldest event is
    /// dropped (and counted in [`FlightRecorder::dropped`]); kind
    /// totals are never lost.
    pub fn record(&self, at: SimTime, kind: FlightKind, a: u64, b: u64) {
        let mut g = self.inner.lock();
        g.totals[kind.index()] += 1;
        if g.ring.len() == g.cap {
            g.ring.pop_front();
            g.dropped += 1;
        }
        g.ring.push_back(FlightEvent { at, kind, a, b });
    }

    /// Events currently retained, oldest first.
    pub fn tail(&self) -> Vec<FlightEvent> {
        self.inner.lock().ring.iter().copied().collect()
    }

    /// Total events recorded for `kind`, including dropped ones.
    pub fn total(&self, kind: FlightKind) -> u64 {
        self.inner.lock().totals[kind.index()]
    }

    /// All kind totals, in [`FlightKind::ALL`] order.
    pub fn totals(&self) -> [u64; FLIGHT_KINDS] {
        self.inner.lock().totals
    }

    /// Events lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }
}

/// The flight-recorder tail of one retired session, kept as forensic
/// evidence. The campus runner retains tails only for degraded or
/// failed sessions (and caps how many it keeps), so memory stays
/// bounded by the anomaly count, not the population.
#[derive(Debug, Clone)]
pub struct SessionTail {
    /// Student index (doubles as the exemplar trace id).
    pub student: u64,
    /// Whether the session retired failed.
    pub failed: bool,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events the session's ring dropped before retirement.
    pub dropped: u64,
}

impl SessionTail {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"student\":{},\"failed\":{},\"dropped\":{},\"events\":[",
            self.student, self.failed, self.dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.write_json(out);
        }
        out.push_str("]}");
    }
}

/// One entry of an injected fault schedule: what the harness broke,
/// where, and when. Forensics aligns breach windows against these to
/// name a suspected cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// Human-readable fault label, e.g. `fault_storm.shard1`.
    pub label: String,
    /// Shard the fault targets.
    pub shard: u64,
    /// Virtual instant the fault fires.
    pub onset: SimTime,
    /// Virtual instant the fault clears, if it ever does.
    pub clear: Option<SimTime>,
}

impl FaultWindow {
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"shard\":{},\"onset_us\":{}",
            json_escape(&self.label),
            self.shard,
            self.onset.as_micros()
        );
        match self.clear {
            Some(t) => {
                let _ = write!(out, ",\"clear_us\":{}}}", t.as_micros());
            }
            None => out.push_str(",\"clear_us\":null}"),
        }
    }

    /// Whether this fault is plausibly active somewhere in
    /// `[start, end)` (onset before the window closes, clear — if any —
    /// after it opens).
    pub fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.onset < end && self.clear.is_none_or(|c| c > start)
    }
}

/// One link of a suspected-cause chain, ordered cause → effect.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// Stage name: `fault`, `retries`, `failovers` or `degraded_sessions`.
    pub stage: &'static str,
    /// Human-readable description of the link.
    pub label: String,
    /// Virtual instant the stage first manifested.
    pub at: SimTime,
    /// How many events/sessions the stage covers in the breach window.
    pub count: u64,
}

impl ChainLink {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"label\":\"{}\",\"at_us\":{},\"count\":{}}}",
            self.stage,
            json_escape(&self.label),
            self.at.as_micros(),
            self.count
        );
    }
}

/// Maximum session tails embedded per bundle (the full tail set is
/// still bounded upstream by the campus runner).
const BUNDLE_TAIL_CAP: usize = 8;

/// Maximum exemplars embedded per bundle.
const BUNDLE_EXEMPLAR_CAP: usize = 8;

/// A machine-readable incident report for one breach: the breach
/// window, the suspected injected fault, the causal chain, and the
/// evidence (affected students, exemplar-linked samples, flight
/// recorder tails).
#[derive(Debug, Clone)]
pub struct ForensicBundle {
    /// Why the bundle exists: `sessions_failed` or `slo_breach:<name>`.
    pub reason: String,
    /// Breach window start (inclusive), virtual time.
    pub window_start: SimTime,
    /// Breach window end (exclusive), virtual time.
    pub window_end: SimTime,
    /// The injected fault the window aligns with, if any.
    pub suspect: Option<FaultWindow>,
    /// Suspected-cause chain, cause first.
    pub chain: Vec<ChainLink>,
    /// Affected students (sorted, deduplicated).
    pub students: Vec<u64>,
    /// Exemplar samples of affected students inside the window.
    pub exemplars: Vec<Exemplar>,
    /// Flight-recorder tails of affected sessions (capped).
    pub tails: Vec<SessionTail>,
    /// Ready-to-run replay handles, one `(student, derived seed)` pair
    /// per affected student — feed either half to `Campus::replay` to
    /// re-run the victim solo at full instrumentation.
    pub replays: Vec<(u64, u64)>,
}

impl ForensicBundle {
    /// Render the bundle as one JSON object (hand-written, byte-stable).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"reason\":\"{}\",\"window\":{{\"start_us\":{},\"end_us\":{}}},\"suspect\":",
            json_escape(&self.reason),
            self.window_start.as_micros(),
            self.window_end.as_micros()
        );
        match &self.suspect {
            Some(f) => f.write_json(&mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"chain\":[");
        for (i, link) in self.chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            link.write_json(&mut out);
        }
        out.push_str("],\"students\":[");
        for (i, s) in self.students.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s}");
        }
        out.push_str("],\"exemplars\":[");
        for (i, e) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"value\":",);
            write_json_f64(&mut out, e.value);
            let _ = write!(
                out,
                ",\"trace\":{},\"span\":{},\"at_us\":{}}}",
                e.trace_id,
                e.span_id,
                e.at.as_micros()
            );
        }
        out.push_str("],\"tails\":[");
        for (i, t) in self.tails.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            t.write_json(&mut out);
        }
        out.push_str("],\"replay\":[");
        for (i, (student, seed)) in self.replays.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"student\":{student},\"seed\":{seed}}}");
        }
        out.push_str("]}");
        out
    }
}

/// Render a slice of bundles as one JSON array (byte-stable).
pub fn bundles_json(bundles: &[ForensicBundle]) -> String {
    let mut out = String::from("[");
    for (i, b) in bundles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&b.to_json());
    }
    out.push(']');
    out
}

/// Everything the bundle generator walks: the merged timeline, the
/// retained session tails, the injected fault schedule, the SLO report
/// and the exemplar table of the session-duration histogram.
pub struct ForensicInput<'a> {
    /// Campus-merged windowed timeline.
    pub timeline: &'a Timeline,
    /// Flight-recorder tails of degraded/failed sessions.
    pub tails: &'a [SessionTail],
    /// Injected fault schedule (empty when the run was calm).
    pub schedule: &'a [FaultWindow],
    /// End-of-run SLO verdicts, if SLOs were configured.
    pub slo: Option<&'a SloReport>,
    /// Exemplars of the session-duration histogram.
    pub exemplars: &'a [Exemplar],
    /// Total sessions that retired failed.
    pub sessions_failed: u64,
    /// Total sessions that retired degraded (failures included).
    pub sessions_degraded: u64,
    /// The campus base seed, so bundles can embed `(student, seed)`
    /// replay handles via [`crate::replay::derive_seed`].
    pub base_seed: u64,
}

/// Generate one bundle per incident: one if any session retired
/// failed, plus one per breached SLO. A healthy run — no failures, no
/// breaches — produces no bundles, so the calm twin of a storm
/// campaign stays empty.
pub fn generate(input: &ForensicInput) -> Vec<ForensicBundle> {
    let mut bundles = Vec::new();
    if input.sessions_failed > 0 {
        bundles.push(build_bundle(input, "sessions_failed".to_string()));
    }
    if let Some(slo) = input.slo {
        for o in &slo.outcomes {
            if o.verdict == Verdict::Breach {
                bundles.push(build_bundle(input, format!("slo_breach:{}", o.name)));
            }
        }
    }
    bundles
}

fn build_bundle(input: &ForensicInput, reason: String) -> ForensicBundle {
    let tl = input.timeline;
    let (window_start, window_end) = tl
        .anomaly_span()
        .unwrap_or_else(|| tl.full_span().unwrap_or((SimTime::ZERO, SimTime::ZERO)));

    // Align the breach window against the injected schedule: the
    // earliest-onset fault active anywhere inside the window.
    let suspect = input
        .schedule
        .iter()
        .filter(|f| f.overlaps(window_start, window_end))
        .min_by_key(|f| f.onset)
        .cloned();

    let mut chain = Vec::new();
    if let Some(f) = &suspect {
        let onsets = tl.sum_kind_in(FlightKind::FaultOnset, window_start, window_end);
        chain.push(ChainLink {
            stage: "fault",
            label: format!("{} (shard {})", f.label, f.shard),
            at: f.onset,
            count: onsets.max(1),
        });
    }
    let retries = tl.sum_kind_in(FlightKind::Retry, window_start, window_end)
        + tl.sum_kind_in(FlightKind::Timeout, window_start, window_end);
    if retries > 0 {
        let at = tl
            .first_at_of(FlightKind::Retry, window_start, window_end)
            .or_else(|| tl.first_at_of(FlightKind::Timeout, window_start, window_end))
            .unwrap_or(window_start);
        chain.push(ChainLink {
            stage: "retries",
            label: "client retries and attempt timeouts".to_string(),
            at,
            count: retries,
        });
    }
    let failovers = tl.sum_kind_in(FlightKind::Failover, window_start, window_end);
    if failovers > 0 {
        let at = tl
            .first_at_of(FlightKind::Failover, window_start, window_end)
            .unwrap_or(window_start);
        chain.push(ChainLink {
            stage: "failovers",
            label: "endpoints rotated off the quiet shard".to_string(),
            at,
            count: failovers,
        });
    }
    let (degraded, first_degraded) = tl.degraded_in(window_start, window_end);
    if degraded > 0 {
        chain.push(ChainLink {
            stage: "degraded_sessions",
            label: "sessions retired degraded or failed".to_string(),
            at: first_degraded.unwrap_or(window_start),
            count: degraded,
        });
    }

    let mut students: Vec<u64> = input.tails.iter().map(|t| t.student).collect();
    students.sort_unstable();
    students.dedup();

    // Exemplars: only samples of affected students inside the breach
    // window — those sessions are tail-sampled, so every exemplar trace
    // id here is resolvable against the sampled traces.
    let exemplars: Vec<Exemplar> = input
        .exemplars
        .iter()
        .filter(|e| {
            e.at >= window_start && e.at < window_end && students.binary_search(&e.trace_id).is_ok()
        })
        .take(BUNDLE_EXEMPLAR_CAP)
        .copied()
        .collect();

    let tails: Vec<SessionTail> = input.tails.iter().take(BUNDLE_TAIL_CAP).cloned().collect();

    // Every affected student gets a ready-to-run replay handle: the
    // (student, derived seed) pair is all `Campus::replay` needs.
    let replays: Vec<(u64, u64)> = students
        .iter()
        .map(|&s| (s, crate::replay::derive_seed(input.base_seed, s)))
        .collect();

    ForensicBundle {
        reason,
        window_start,
        window_end,
        suspect,
        chain,
        students,
        exemplars,
        tails,
        replays,
    }
}

/// Render the timeline plus bundles as a human-readable incident
/// report (used by `tables --exp forensics`).
pub fn render_report(timeline: &Timeline, bundles: &[ForensicBundle]) -> String {
    let mut out = timeline.render();
    if bundles.is_empty() {
        out.push_str("\nno forensic bundles: run was healthy\n");
        return out;
    }
    for b in bundles {
        let _ = writeln!(
            out,
            "\nincident: {} [{:.3}s, {:.3}s)",
            b.reason,
            b.window_start.as_secs_f64(),
            b.window_end.as_secs_f64()
        );
        match &b.suspect {
            Some(f) => {
                let _ = writeln!(
                    out,
                    "  suspect: {} (shard {}) onset {:.3}s",
                    f.label,
                    f.shard,
                    f.onset.as_secs_f64()
                );
            }
            None => {
                let _ = writeln!(out, "  suspect: none (no schedule entry overlaps)");
            }
        }
        for link in &b.chain {
            let _ = writeln!(
                out,
                "    -> {:<18} t={:>8.3}s count={:<6} {}",
                link.stage,
                link.at.as_secs_f64(),
                link.count,
                link.label
            );
        }
        let _ = writeln!(
            out,
            "  students: {:?}  exemplars: {}  tails: {}",
            b.students,
            b.exemplars.len(),
            b.tails.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::timeline::TimelineRecorder;

    fn ev(at_s: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            at: SimTime::from_secs(at_s),
            kind,
            a: 1,
            b: 0,
        }
    }

    #[test]
    fn ring_bounds_and_totals_survive_overflow() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.record(SimTime::from_secs(i), FlightKind::Retry, i, 0);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.total(FlightKind::Retry), 10);
        let tail = rec.tail();
        assert_eq!(tail[0].a, 6, "oldest retained is the 7th event");
        assert_eq!(tail[3].a, 9);
    }

    #[test]
    fn clones_share_one_ring() {
        let rec = FlightRecorder::default();
        let other = rec.clone();
        other.record(SimTime::ZERO, FlightKind::Shed, 0, 3);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.total(FlightKind::Shed), 1);
    }

    #[test]
    fn healthy_run_produces_no_bundles() {
        let mut tr = TimelineRecorder::new(SimDuration::from_millis(250));
        tr.record_session(
            SimTime::from_secs(1),
            SimDuration::from_millis(900),
            false,
            false,
        );
        let tl = tr.finish();
        let bundles = generate(&ForensicInput {
            timeline: &tl,
            tails: &[],
            schedule: &[],
            slo: None,
            exemplars: &[],
            sessions_failed: 0,
            sessions_degraded: 0,
            base_seed: 42,
        });
        assert!(bundles.is_empty());
    }

    #[test]
    fn failed_session_bundle_names_the_overlapping_fault() {
        let mut tr = TimelineRecorder::new(SimDuration::from_secs(1));
        tr.record_event(&ev(10, FlightKind::FaultOnset));
        tr.record_event(&ev(11, FlightKind::Retry));
        tr.record_event(&ev(12, FlightKind::Failover));
        tr.record_session(
            SimTime::from_secs(14),
            SimDuration::from_secs(14),
            true,
            true,
        );
        let tl = tr.finish();
        let schedule = vec![FaultWindow {
            label: "fault_storm.shard1".to_string(),
            shard: 1,
            onset: SimTime::from_secs(10),
            clear: None,
        }];
        let tails = vec![SessionTail {
            student: 7,
            failed: true,
            events: vec![ev(11, FlightKind::Retry)],
            dropped: 0,
        }];
        let bundles = generate(&ForensicInput {
            timeline: &tl,
            tails: &tails,
            schedule: &schedule,
            slo: None,
            exemplars: &[],
            sessions_failed: 1,
            sessions_degraded: 1,
            base_seed: 42,
        });
        assert_eq!(bundles.len(), 1);
        let b = &bundles[0];
        assert_eq!(b.reason, "sessions_failed");
        let suspect = b.suspect.as_ref().expect("fault aligned");
        assert_eq!(suspect.shard, 1);
        assert_eq!(b.chain[0].stage, "fault");
        assert!(b.chain[0].label.contains("fault_storm.shard1"));
        assert!(b.chain.iter().any(|l| l.stage == "retries"));
        assert!(b.chain.iter().any(|l| l.stage == "failovers"));
        assert!(b.chain.iter().any(|l| l.stage == "degraded_sessions"));
        assert_eq!(b.students, vec![7]);
        assert_eq!(
            b.replays,
            vec![(7, crate::replay::derive_seed(42, 7))],
            "each affected student carries a ready-to-run replay handle"
        );
        assert!(b.window_start <= SimTime::from_secs(10));
        let json = b.to_json();
        assert!(json.contains("\"reason\":\"sessions_failed\""));
        assert!(json.contains("fault_storm.shard1"));
        assert!(json.contains(&format!(
            "\"replay\":[{{\"student\":7,\"seed\":{}}}]",
            crate::replay::derive_seed(42, 7)
        )));
    }

    #[test]
    fn bundle_json_is_deterministic() {
        let make = || {
            let mut tr = TimelineRecorder::new(SimDuration::from_secs(1));
            tr.record_event(&ev(3, FlightKind::Timeout));
            tr.record_session(SimTime::from_secs(5), SimDuration::from_secs(5), true, true);
            let tl = tr.finish();
            let bundles = generate(&ForensicInput {
                timeline: &tl,
                tails: &[],
                schedule: &[],
                slo: None,
                exemplars: &[],
                sessions_failed: 1,
                sessions_degraded: 1,
                base_seed: 42,
            });
            bundles_json(&bundles)
        };
        assert_eq!(make(), make());
    }
}
