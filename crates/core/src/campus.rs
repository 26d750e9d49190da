//! Memory-bounded campus runner: many independent student sessions with
//! an explicit lifecycle.
//!
//! The paper sizes MITS for a campus, not a single seat — the broadband
//! network exists so that "a thousand students" can pull courseware
//! concurrently. One `MitsSystem` models one student's end-to-end session
//! on one virtual clock; a campus run executes the population as a stream
//! of short-lived sessions over a pool of worker threads.
//!
//! Two mechanisms keep live memory bounded by the worker count, never by
//! population:
//!
//! * **Session lifecycle (`claim → run → retire`)** — a student exists as
//!   a compact [`SessionSpec`] (index + derived seed) until a worker
//!   claims its batch, builds its `MitsSystem`, runs the fetches, and
//!   retires it. A worker runs one session at a time, so
//!   [`Campus::threads`] is also the number of live sessions. Retiring
//!   folds the session's digest, metrics and (if sampled) trace into
//!   per-batch accumulators and frees the whole per-student world.
//! * **In-order claims, streaming merge** — student indices are grouped
//!   into contiguous batches, and every worker claims the next batch off
//!   one shared cursor, so batches start in index order. Completed
//!   batches flush through an in-order frontier: batch *i* streams into
//!   the rollup (and into any [`ReportSink`]) as soon as every batch
//!   before it has, then its buffers are dropped. Since every earlier
//!   batch was claimed first, the batches parked behind the frontier are
//!   the ones other workers finish while the oldest running batch
//!   completes — a function of stragglers, never of the population.
//!
//! The courseware is **published once per layout, then mounted**: the
//! first session needing a (workload, shards, replica) combination
//! builds a throwaway installation from its own config, `load_doc`s the
//! workload into it and captures a [`CourseImage`]; every session then
//! mounts that image into its freshly built installation instead of
//! journaling the same courseware and re-hashing the same store again.
//! A mounted installation is byte-identical to a `load_doc`'d one.
//!
//! Determinism is the contract: student `i` always runs with the seed
//! derived from `(base_seed, i)`, every merge walks strict index order,
//! and nothing host-dependent reaches a digest — so the campus digest,
//! merged metrics rollup, sampled-trace bundle and SLO verdicts are
//! byte-identical whether the sessions ran on one thread or eight. Host
//! wall-clock is reported for throughput numbers but never folded into a
//! digest.
//!
//! Telemetry scales the same way: every session's
//! [`MetricsRegistry`](mits_sim::MetricsRegistry) folds straight into its
//! batch's [`MetricsSnapshot`] ([`MetricsSnapshot::merge_registry`]:
//! counters add, histograms merge, gauges keep the latest virtual
//! stamp) without being frozen on its own, traces are sampled Dapper-style
//! ([`TraceSampler`] head lottery plus always-keep tails for degraded /
//! failed-over / slow / failed sessions), and the merged snapshot is
//! judged against declarative SLOs ([`default_campus_slos`]).

use crate::system::{ClientId, CourseImage, MitsSystem, SessionScratch, SystemConfig, SystemError};
use bytes::Bytes;
use mits_db::{RetryPolicy, ShardRouter};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{ClassLibrary, GenericValue, MhegId, MhegObject};
use mits_sim::{
    derive_seed, forensics, DigestTrace, Exemplar, FaultWindow, FlightEvent, ForensicBundle,
    ForensicInput, Histogram, MetricsRegistry, MetricsSnapshot, ReplayBundle, SampleReason,
    SessionTail, SimDuration, SimTime, Slo, SloInput, SloReport, TailSignals, Timeline,
    TimelineRecorder, TraceSampler,
};
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Histogram geometry for per-session simulated time, shared by every
/// session so the merged campus histogram is well-defined.
const SESSION_SECS_HI: f64 = 60.0;
const SESSION_SECS_BINS: usize = 600;

/// The virtual time a panicked session is charged. Its world unwound, so
/// the time it burned is unknown; the top of the session-time range puts
/// its sample in the slow tail a failed session belongs to, where a zero
/// would pull the session-time percentiles down.
const PANICKED_SESSION: SimDuration = SimDuration::from_secs(SESSION_SECS_HI as u64);

/// Host-wall histogram geometry for per-session wall time (1 ms bins).
const WALL_SECS_HI: f64 = 60.0;
const WALL_SECS_BINS: usize = 60_000;

/// Folded into a failed session's digest so a retire-under-fault session
/// is distinguishable from a clean one that happened to deliver the same
/// byte counts.
const SESSION_FAILED_MARK: u64 = 0xFA11_ED00_5E55_10FF;

/// Timeline window: 250 ms of session-local virtual time.
const TIMELINE_WINDOW: SimDuration = SimDuration::from_millis(250);

/// Sessions simulating longer than this are tail-sampled as slow.
const SLOW_SESSION: SimDuration = SimDuration::from_secs(30);

/// Campus-wide cap on retained flight-recorder tails. Tails are kept
/// only for degraded/failed sessions and only up to this many (in
/// student-index order), so forensic evidence is bounded by the anomaly
/// count, never the population.
const FORENSIC_TAIL_CAP: usize = 64;

/// The schedulable core count of this host: `available_parallelism`
/// (which respects CPU affinity masks and cgroup quotas) with a
/// `/proc/cpuinfo` fallback for platforms where it errors out. Never
/// reports zero. This is the count worth sizing a worker pool by; a
/// container pinned to one core reports 1 here even when the machine
/// has more sockets present.
pub fn host_cores() -> usize {
    if let Ok(n) = std::thread::available_parallelism() {
        return n.get();
    }
    if let Ok(s) = std::fs::read_to_string("/proc/cpuinfo") {
        let n = s.lines().filter(|l| l.starts_with("processor")).count();
        if n > 0 {
            return n;
        }
    }
    1
}

/// Everything the campus knows about a student before its session runs:
/// its index and derived seed. A million students is a million of these
/// — two words each — not a million simulated worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Student index in `0..students`.
    pub student: usize,
    /// SplitMix64-derived seed for this student's whole session.
    pub seed: u64,
}

/// The courseware every student session fetches.
#[derive(Debug, Clone)]
pub struct CampusWorkload {
    /// Scenario objects preloaded into each session's database.
    pub objects: Vec<MhegObject>,
    /// Media catalogue; every student fetches every object once.
    pub media: Vec<MediaObject>,
    /// Root container fetched as the courseware closure.
    pub root: MhegId,
}

/// One sampled session trace: the student's full JSONL span/event export
/// plus why the sampler kept it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTrace {
    /// Student index.
    pub student: usize,
    /// The seed the session ran with.
    pub seed: u64,
    /// Why the sampler kept this trace.
    pub reason: SampleReason,
    /// The session tracer's JSONL export.
    pub jsonl: String,
}

/// Outcome of one retired student session. All fields except `wall_secs`
/// are deterministic functions of `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Student index.
    pub student: usize,
    /// The derived seed the session ran with.
    pub seed: u64,
    /// FNV digest over the session's simulated observables.
    pub digest: u64,
    /// Bytes delivered to the student across the simulated downlink.
    pub bytes: u64,
    /// Simulated session time (courseware fetch + every media fetch).
    pub session: SimDuration,
    /// Whether the session was anomalous: client retries/timeouts/
    /// decode errors (degraded service), a database failover, or an
    /// outright failure.
    pub anomalous: bool,
    /// The session died mid-run (deadline expired, server gone). It
    /// still retired: its partial observables are folded into the
    /// rollup under [`SESSION_FAILED_MARK`].
    pub failed: bool,
    /// Human-readable failure cause, when `failed`.
    pub error: Option<String>,
    /// The sampler's decision for this session, if it kept the trace.
    pub sampled: Option<SampleReason>,
    /// The virtual instant the session retired — the end of its span,
    /// used to slice the fault schedule for a [`ReplayBundle`].
    pub end: SimTime,
    /// Layer-by-layer digest checkpoints of the session fold, so a
    /// replay mismatch can name the first divergent layer instead of an
    /// opaque final-digest difference.
    pub layers: DigestTrace,
    /// Host wall-clock the session took (not part of any digest).
    pub wall_secs: f64,
}

/// The campus-wide merge a run ends with: everything deterministic
/// (digest, metrics, SLOs) plus the host wall totals.
#[derive(Debug, Clone)]
pub struct CampusRollup {
    /// Students simulated (== sessions retired).
    pub students: usize,
    /// Worker threads used.
    pub threads: usize,
    /// FNV fold over per-session digests in student-index order.
    pub digest: u64,
    /// Total bytes delivered across all sessions.
    pub bytes: u64,
    /// Sessions that died mid-run but still retired into the rollup.
    pub sessions_failed: u64,
    /// Host wall-clock for the whole campus run.
    pub wall_secs: f64,
    /// Every session's metrics folded in student-index order.
    pub metrics: MetricsSnapshot,
    /// Default campus SLOs judged against the merged snapshot.
    pub slo: SloReport,
    /// Windowed telemetry timeline over session-local virtual time,
    /// merged associatively — byte-identical across thread counts.
    pub timeline: Timeline,
    /// Forensic incident bundles: one if any session retired failed,
    /// plus one per breached SLO. Empty for a healthy run.
    pub forensics: Vec<ForensicBundle>,
}

/// A consumer of campus output, fed *while the campus runs* instead of
/// from a buffered report. All callbacks arrive in deterministic
/// student-index order regardless of thread count or completion order;
/// `rollup` is called exactly once at the end of a successful run.
/// [`CampusReport`] is one provided sink; `examples/campus_scale.rs`
/// streams into its own progress-printing sink.
pub trait ReportSink: Send {
    /// A session retired. Called in student-index order.
    fn session(&mut self, _report: &SessionReport) {}
    /// A sampled trace, in student-index order.
    fn trace(&mut self, _trace: &ShardTrace) {}
    /// The final merge of a completed campus run.
    fn rollup(&mut self, _rollup: &CampusRollup) {}
}

/// Merged outcome of a campus run — the provided [`ReportSink`] that
/// keeps the compact rollup: digest, merged metrics, sampled traces, SLO
/// verdicts and bounded wall-time histograms. It does **not** buffer
/// per-session reports, so its memory is independent of population size.
#[derive(Debug, Clone)]
pub struct CampusReport {
    /// Students simulated.
    pub students: usize,
    /// Worker threads used.
    pub threads: usize,
    /// FNV fold over per-session digests in student-index order.
    pub digest: u64,
    /// Total bytes delivered across all sessions.
    pub bytes: u64,
    /// Sessions that died mid-run but still retired into the rollup.
    pub sessions_failed: u64,
    /// Sessions flagged anomalous (degraded, failed over, or failed).
    pub sessions_anomalous: u64,
    /// Host wall-clock for the whole campus run.
    pub wall_secs: f64,
    /// Every session's metrics folded in student-index order:
    /// counters add, histograms merge, gauges keep the latest virtual
    /// stamp. Byte-identical across thread counts.
    pub metrics: MetricsSnapshot,
    /// Sampled traces in student-index order — head winners plus every
    /// anomalous, failed or slow session.
    pub traces: Vec<ShardTrace>,
    /// Default campus SLOs judged against the merged snapshot.
    pub slo: SloReport,
    /// Windowed telemetry timeline over session-local virtual time.
    pub timeline: Timeline,
    /// Forensic incident bundles (empty for a healthy run).
    pub forensics: Vec<ForensicBundle>,
    /// Per-session host wall times, binned at 1 ms (not deterministic,
    /// never folded into a digest).
    wall_hist: Histogram,
}

impl Default for CampusReport {
    fn default() -> Self {
        CampusReport::new()
    }
}

impl CampusReport {
    /// An empty report, ready to be streamed into as a [`ReportSink`].
    pub fn new() -> Self {
        CampusReport {
            students: 0,
            threads: 0,
            digest: 0,
            bytes: 0,
            sessions_failed: 0,
            sessions_anomalous: 0,
            wall_secs: 0.0,
            metrics: MetricsSnapshot::new(),
            traces: Vec::new(),
            slo: SloReport::default(),
            timeline: Timeline::new(TIMELINE_WINDOW),
            forensics: Vec::new(),
            wall_hist: Histogram::new(0.0, WALL_SECS_HI, WALL_SECS_BINS),
        }
    }

    /// Students completed per host second.
    pub fn students_per_sec(&self) -> f64 {
        self.students as f64 / self.wall_secs.max(1e-9)
    }

    /// Simulated bytes delivered per host second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.wall_secs.max(1e-9)
    }

    /// Percentile (0.0..=1.0) of per-session host wall-time, in seconds,
    /// from the 1 ms-binned histogram. An empty report reads 0.0.
    pub fn wall_percentile(&self, p: f64) -> f64 {
        self.wall_hist.quantile(p.clamp(0.0, 1.0)).unwrap_or(0.0)
    }

    /// Percentile (0.0..=1.0) of simulated session time, in seconds,
    /// from the merged `campus.session_secs` histogram. An empty report
    /// reads 0.0.
    pub fn session_percentile(&self, p: f64) -> f64 {
        self.metrics
            .histogram("campus.session_secs")
            .and_then(|h| h.quantile(p.clamp(0.0, 1.0)))
            .unwrap_or(0.0)
    }

    /// The sampled traces concatenated into one JSONL document, each
    /// session prefixed by a header line. Deterministic byte for byte.
    ///
    /// Header schema (versioned since `"v":1`; consumers must tolerate
    /// unknown fields so the header can evolve without breakage):
    /// `{"t":"shard","v":1,"student":N,"seed":N,"reason":"..."}`.
    pub fn traces_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.traces {
            out.push_str(&format!(
                "{{\"t\":\"shard\",\"v\":1,\"student\":{},\"seed\":{},\"reason\":\"{}\"}}\n",
                t.student,
                t.seed,
                t.reason.as_str()
            ));
            out.push_str(&t.jsonl);
        }
        out
    }

    /// The windowed timeline as byte-stable JSON (see
    /// [`Timeline::to_json`]).
    pub fn timeline_json(&self) -> String {
        self.timeline.to_json()
    }

    /// The forensic bundles as one byte-stable JSON array.
    pub fn forensics_json(&self) -> String {
        forensics::bundles_json(&self.forensics)
    }
}

impl ReportSink for CampusReport {
    fn session(&mut self, report: &SessionReport) {
        self.wall_hist.record(report.wall_secs);
        self.sessions_anomalous += u64::from(report.anomalous);
    }

    fn trace(&mut self, trace: &ShardTrace) {
        self.traces.push(trace.clone());
    }

    fn rollup(&mut self, rollup: &CampusRollup) {
        self.students = rollup.students;
        self.threads = rollup.threads;
        self.digest = rollup.digest;
        self.bytes = rollup.bytes;
        self.sessions_failed = rollup.sessions_failed;
        self.wall_secs = rollup.wall_secs;
        self.metrics = rollup.metrics.clone();
        self.slo = rollup.slo.clone();
        self.timeline = rollup.timeline.clone();
        self.forensics = rollup.forensics.clone();
    }
}

/// The default campus service-level objectives, judged against the
/// merged snapshot (all inputs are simulated quantities, so the
/// verdicts are as deterministic as the digest):
///
/// * `session_p99_wall` — p99 simulated session time under 10 s
///   (warn) / 30 s (breach), from the merged `campus.session_secs`
///   histogram.
/// * `retry_rate` — client re-issues per attempt ≤ 1% / 10%.
/// * `shed_rate` — primary-server load shedding ≤ 0 / 5%.
/// * `degraded_fraction` — sessions with client anomalies or failovers
///   ≤ 0 / 2%.
pub fn default_campus_slos() -> Vec<Slo> {
    vec![
        Slo::upper(
            "session_p99_wall",
            SloInput::HistogramQuantile {
                name: "campus.session_secs".into(),
                q: 0.99,
            },
            10.0,
            30.0,
        ),
        Slo::upper(
            "retry_rate",
            SloInput::Ratio {
                numerator: "client0.retries".into(),
                denominator: "client0.attempts".into(),
            },
            0.01,
            0.10,
        ),
        Slo::upper(
            "shed_rate",
            SloInput::Ratio {
                numerator: "db.server0.requests_shed".into(),
                denominator: "db.server0.requests_served".into(),
            },
            0.0,
            0.05,
        ),
        Slo::upper(
            "degraded_fraction",
            SloInput::Ratio {
                numerator: "campus.sessions_degraded".into(),
                denominator: "campus.sessions".into(),
            },
            0.0,
            0.02,
        ),
    ]
}

/// Build one workload per shard, each keyed *entirely* to its shard:
/// the root container (and with it the whole object closure, which the
/// ring places by root) hashes to shard `d`, and so does every one of
/// its media clips. Rotated through [`Campus::workloads`], student `i`
/// touches only shard `i % shards` — a shard fault's blast radius
/// becomes a residue class of the student population, which the
/// fault-storm gate asserts exactly.
///
/// Placement is a pure function of object/media ids, so the searches
/// here are deterministic and seed-free.
pub fn sharded_workloads(shards: usize, clips: usize, clip_bytes: usize) -> Vec<CampusWorkload> {
    let router = ShardRouter::new(shards.max(1));
    (0..shards.max(1))
        .map(|d| {
            // Scan application ids until the compiled root lands on `d`.
            let mut app = 1 + d as u32;
            let (objects, root) = loop {
                let mut lib = ClassLibrary::new(app);
                let v = lib.value_content("v", GenericValue::Int(1));
                let root = lib.container(&format!("Course shard {d}"), vec![v]);
                if router.shard_for_object(root) == d {
                    break (lib.into_objects(), root);
                }
                app += shards.max(1) as u32;
            };
            // Same scan for media ids: only ids hashing to `d` are used.
            let mut media = Vec::with_capacity(clips);
            let mut next = 0x0900_0000_u64 + ((d as u64) << 40);
            while media.len() < clips {
                let id = MediaId(next);
                next += 1;
                if router.shard_for_media(id) != d {
                    continue;
                }
                let i = media.len();
                let data: Vec<u8> = (0..clip_bytes)
                    .map(|j| ((i * 31 + j) % 251) as u8)
                    .collect();
                media.push(MediaObject::new(
                    id,
                    format!("shard{d}-clip{i}.mpg"),
                    MediaFormat::Mpeg,
                    SimDuration::from_secs(1),
                    VideoDims::new(160, 120),
                    Bytes::from(data),
                ));
            }
            CampusWorkload {
                objects,
                media,
                root,
            }
        })
        .collect()
}

/// A correlated fault storm aimed at one shard, replayed inside every
/// student session's virtual clock: at [`FaultStorm::crash_at`] the
/// victim shard's primary *and* its hot standby crash together, and
/// every link between the victim group and the switch goes down until
/// [`FaultStorm::outage_until`] — so per-shard failover, which saves a
/// session from a lone primary crash, cannot save one from the storm.
/// Sessions whose working set hashes to the victim fail at their retry
/// deadline; sessions keyed to healthy shards must be byte-identical
/// to a storm-free twin run ([`FaultStorm::apply_calm`]).
#[derive(Debug, Clone)]
pub struct FaultStorm {
    /// Shard groups in every session's store.
    pub shards: usize,
    /// The shard the storm takes out.
    pub victim: usize,
    /// When (virtual, per session) the victim's servers crash.
    pub crash_at: SimTime,
    /// End of the victim group's link outage window.
    pub outage_until: SimTime,
    /// Optional restart of the victim primary (failback drills).
    pub restart_at: Option<SimTime>,
    /// Campus-edge cache budget per session (0 = no edge tier).
    pub edge_cache_bytes: usize,
    /// Client retry policy under the storm. Victim sessions must *fail*
    /// at this policy's deadline, never hang.
    pub retry: RetryPolicy,
}

impl FaultStorm {
    /// A storm with the default interactive retry policy, no failback
    /// and no edge tier.
    pub fn new(shards: usize, victim: usize, crash_at: SimTime, outage_until: SimTime) -> Self {
        FaultStorm {
            shards,
            victim,
            crash_at,
            outage_until,
            restart_at: None,
            edge_cache_bytes: 0,
            retry: RetryPolicy::interactive(),
        }
    }

    /// The storm-free twin: the same topology (shards, per-shard
    /// replicas, edge budget, retry policy) with no faults at all. The
    /// survival gate diffs healthy-shard session digests against this.
    pub fn apply_calm(&self, config: SystemConfig) -> SystemConfig {
        config
            .with_shards(self.shards)
            .with_replica()
            .with_edge_cache(self.edge_cache_bytes)
            .with_retry(self.retry)
    }

    /// The storm itself: the calm topology plus the correlated crash
    /// pair and the shard-wide link outage (and the optional failback
    /// restart).
    pub fn apply(&self, config: SystemConfig) -> SystemConfig {
        let mut c = self
            .apply_calm(config)
            .with_shard_crash(self.crash_at, self.victim, 0)
            .with_shard_crash(self.crash_at, self.victim, 1)
            .with_shard_outage(self.victim, self.crash_at, self.outage_until);
        if let Some(at) = self.restart_at {
            c = c.with_shard_restart(at, self.victim, 0);
        }
        c
    }

    /// The storm as an injected fault schedule for forensics: one
    /// window labelled `fault_storm.shard<victim>`, opening at the
    /// crash and clearing only if a failback restart is planned (with
    /// no restart the victim's primary *and* standby stay dead, so the
    /// fault never clears). Feed this to [`Campus::fault_schedule`] so
    /// breach bundles can name the storm as their suspect.
    pub fn schedule(&self) -> Vec<FaultWindow> {
        vec![FaultWindow {
            label: format!("fault_storm.shard{}", self.victim),
            shard: self.victim as u64,
            onset: self.crash_at,
            clear: self.restart_at.map(|r| r.max(self.outage_until)),
        }]
    }
}

/// SLOs for a fault-storm campaign. The storm *intends* to fail the
/// victim shard's sessions, so the failure budget is the victim's share
/// of the population — one session more than that share is a breach,
/// because it means the blast radius leaked past the victim shard.
pub fn fault_storm_slos(victim_share: f64) -> Vec<Slo> {
    vec![
        Slo::upper(
            "storm_failed_fraction",
            SloInput::Ratio {
                numerator: "campus.sessions_failed".into(),
                denominator: "campus.sessions".into(),
            },
            victim_share,
            victim_share,
        ),
        Slo::upper(
            "storm_degraded_fraction",
            SloInput::Ratio {
                numerator: "campus.sessions_degraded".into(),
                denominator: "campus.sessions".into(),
            },
            victim_share,
            victim_share,
        ),
    ]
}

/// SLOs for an edge-cached flash crowd: the hit rate must stay *above*
/// `min_hit_rate` (a [`Slo::lower`] floor — half the floor is a
/// breach), and origin traffic per lookup must stay under the
/// complementary bound (an origin request for every lookup means the
/// cache absorbed nothing).
pub fn edge_cache_slos(min_hit_rate: f64) -> Vec<Slo> {
    vec![
        Slo::lower(
            "edge_hit_rate",
            SloInput::Ratio {
                numerator: "edge.hits".into(),
                denominator: "edge.lookups".into(),
            },
            min_hit_rate,
            min_hit_rate / 2.0,
        ),
        Slo::upper(
            "edge_origin_fraction",
            SloInput::Ratio {
                numerator: "edge.origin_requests".into(),
                denominator: "edge.lookups".into(),
            },
            1.0 - min_hit_rate,
            1.0,
        ),
    ]
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-student `SystemConfig` hook (see [`Campus::configure_sessions`]).
type SessionConfigFn = dyn Fn(&SessionSpec, SystemConfig) -> SystemConfig + Send + Sync;

/// Builder for a campus run.
///
/// ```no_run
/// # use mits_core::campus::{Campus, CampusWorkload};
/// # fn demo(workload: CampusWorkload) -> Result<(), mits_core::system::SystemError> {
/// let report = Campus::new(10_000, 42)
///     .threads(8)
///     .workload(workload)
///     .run()?;
/// assert_eq!(report.students, 10_000);
/// # Ok(())
/// # }
/// ```
///
/// `threads(0)` (the default) sizes the pool to [`host_cores`]. Each
/// worker runs one session at a time, so the thread count is also the
/// number of live sessions; results never depend on it.
pub struct Campus {
    students: usize,
    base_seed: u64,
    threads: usize,
    trace_sample_rate: f64,
    workloads: Vec<CampusWorkload>,
    slos: Option<Vec<Slo>>,
    session_config: Option<Arc<SessionConfigFn>>,
    fault_schedule: Vec<FaultWindow>,
    flight_ring: usize,
}

impl Campus {
    /// A campus of `students` sessions, seeded by `base_seed`, with
    /// default telemetry: 5% head sampling, 30 s slow threshold.
    pub fn new(students: usize, base_seed: u64) -> Self {
        Campus {
            students,
            base_seed,
            threads: 0,
            trace_sample_rate: 0.05,
            workloads: Vec::new(),
            slos: None,
            session_config: None,
            fault_schedule: Vec::new(),
            flight_ring: mits_sim::FLIGHT_RING_CAP,
        }
    }

    /// Worker threads, each running one session at a time; 0 = auto
    /// ([`host_cores`]), 1 runs inline on the caller's thread.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The courseware every session fetches. Required (or
    /// [`Campus::workloads`]).
    pub fn workload(mut self, w: CampusWorkload) -> Self {
        self.workloads = vec![w];
        self
    }

    /// A rotation of workloads: student `i` fetches
    /// `workloads[i % workloads.len()]`. With per-shard workloads (see
    /// [`sharded_workloads`]) this keys each student's whole working
    /// set to one shard, so a shard fault's blast radius is a residue
    /// class of the student population.
    pub fn workloads(mut self, ws: Vec<CampusWorkload>) -> Self {
        self.workloads = ws;
        self
    }

    /// Override the SLO list the rollup is judged against (default:
    /// [`default_campus_slos`]). A fault-storm campaign judges with
    /// [`fault_storm_slos`] instead, which budgets for the victim
    /// shard's share of sessions.
    pub fn slos(mut self, slos: Vec<Slo>) -> Self {
        self.slos = Some(slos);
        self
    }

    /// Fraction of students whose traces are head-sampled (0.0..=1.0).
    /// Anomalous sessions are kept regardless (tail sampling).
    pub fn trace_sample_rate(mut self, rate: f64) -> Self {
        self.trace_sample_rate = rate;
        self
    }

    /// Capacity of every session's flight-recorder ring (default
    /// [`mits_sim::FLIGHT_RING_CAP`]). The ring never reaches the
    /// session digest, but its tail feeds the timeline and forensic
    /// evidence — so compare timelines only at equal caps. Zero keeps
    /// the default; [`Campus::replay`] forces an effectively unbounded
    /// ring on the replayed session.
    pub fn flight_ring(mut self, cap: usize) -> Self {
        if cap != 0 {
            self.flight_ring = cap;
        }
        self
    }

    /// Declare the fault schedule injected via
    /// [`Campus::configure_sessions`] (e.g. [`FaultStorm::schedule`]),
    /// so forensic bundles can align breach windows against it and
    /// name a suspected cause. Purely declarative: it injects nothing.
    pub fn fault_schedule(mut self, schedule: Vec<FaultWindow>) -> Self {
        self.fault_schedule = schedule;
        self
    }

    /// Customise a student's `SystemConfig` (fault plans, crash
    /// schedules, retry policies). The hook receives the session spec
    /// and the seeded single-seat base config; it must stay a pure
    /// function of the spec or the determinism contract breaks.
    pub fn configure_sessions(
        mut self,
        f: impl Fn(&SessionSpec, SystemConfig) -> SystemConfig + Send + Sync + 'static,
    ) -> Self {
        self.session_config = Some(Arc::new(f));
        self
    }

    /// Run the campus into the provided [`CampusReport`] sink.
    pub fn run(&self) -> Result<CampusReport, SystemError> {
        let mut report = CampusReport::new();
        self.run_with(&mut report)?;
        Ok(report)
    }

    /// Run the campus, streaming sessions, traces and the final rollup
    /// into `sink` in deterministic student-index order.
    pub fn run_with(&self, sink: &mut dyn ReportSink) -> Result<(), SystemError> {
        if self.workloads.is_empty() {
            return Err(SystemError::Protocol(
                "Campus::workload(..) must be set before run()".into(),
            ));
        }
        let students = self.students;
        let threads = if self.threads == 0 {
            host_cores()
        } else {
            self.threads
        };
        let batch = (students / (threads.max(1) * 4)).clamp(1, 64);
        let n_batches = students.div_ceil(batch);
        let workers = threads.max(1).min(n_batches.max(1));
        let sampler = TraceSampler::new(self.base_seed, self.trace_sample_rate)
            .with_latency_threshold(SLOW_SESSION);
        let start = Instant::now();

        // The next unclaimed batch. Claims run in index order, so the
        // merge only ever waits on a batch that is already running; a
        // fatal error stores `n_batches` to stop the pool. Relaxed is
        // enough: `fetch_add` hands out each index once under any
        // ordering, and results reach the merge through its mutex.
        let cursor = AtomicUsize::new(0);
        let images = CourseImages::default();
        let merge = Mutex::new(MergeState::new(sink));
        let fatal: Mutex<Option<SystemError>> = Mutex::new(None);

        let work = || {
            let mut scratch = SessionScratch::default();
            loop {
                let b = cursor.fetch_add(1, Ordering::Relaxed);
                if b >= n_batches {
                    return;
                }
                let lo = b * batch;
                let hi = ((b + 1) * batch).min(students);
                let mut out = BatchOut::new();
                for student in lo..hi {
                    let spec = SessionSpec {
                        student,
                        seed: derive_seed(self.base_seed, student as u64),
                    };
                    let started = Instant::now();
                    // run: configure the session, build its world
                    // (reusing this worker's scratch), mount its
                    // courseware and fetch. A panic anywhere in there
                    // is this session's alone: it unwinds to here.
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                        let base = SystemConfig::broadband(1)
                            .with_seed(spec.seed)
                            .with_flight_ring(self.flight_ring);
                        let config = match &self.session_config {
                            Some(f) => f(&spec, base),
                            None => base,
                        };
                        let workload = student % self.workloads.len();
                        images
                            .get(&self.workloads, workload, &config)
                            .and_then(|image| {
                                run_session(
                                    &self.workloads[workload],
                                    &image,
                                    &sampler,
                                    &spec,
                                    &config,
                                    std::mem::take(&mut scratch),
                                    &mut out.snapshot,
                                    None,
                                )
                            })
                    }));
                    // retire: the session's world is already torn down
                    // (its allocations harvested into `scratch`); fold
                    // the outcome.
                    match ran {
                        Ok(Ok((outcome, recycled))) => {
                            scratch = recycled;
                            out.push(outcome);
                        }
                        Err(payload) => {
                            // Whatever the unwound session held is gone;
                            // the next one starts from a fresh scratch.
                            scratch = SessionScratch::default();
                            let error = format!("session panicked: {}", panic_message(&*payload));
                            let outcome =
                                panicked_session(&spec, error, started, &mut out.snapshot);
                            out.push(outcome);
                        }
                        Ok(Err(e)) => {
                            cursor.store(n_batches, Ordering::Relaxed);
                            if let Ok(mut f) = fatal.lock() {
                                f.get_or_insert(e);
                            }
                            return;
                        }
                    }
                }
                // The sink runs under the merge lock: if it panicked in
                // another worker, the lock is poisoned. Stop the pool;
                // `run_with` re-raises that panic.
                let Ok(mut state) = merge.lock() else {
                    cursor.store(n_batches, Ordering::Relaxed);
                    return;
                };
                state.complete(b, out);
            }
        };

        if workers <= 1 {
            work();
        } else {
            let work = &work;
            let panicked = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                joined.into_iter().find_map(Result::err)
            });
            if let Some(payload) = panicked {
                panic::resume_unwind(payload);
            }
        }

        if let Some(e) = fatal.into_inner().expect("campus fatal") {
            return Err(e);
        }
        let mut merged = merge.into_inner().expect("campus merge");
        if merged.next != n_batches {
            return Err(SystemError::Protocol(format!(
                "campus batch {} never retired",
                merged.next
            )));
        }

        let slos = match &self.slos {
            Some(s) => s.clone(),
            None => default_campus_slos(),
        };
        let slo = SloReport::evaluate(&slos, &merged.metrics, &BTreeMap::new());

        // Breach forensics: walk the merged timeline for the anomaly
        // window, align it against the declared fault schedule, and
        // attach the exemplar-linked samples and flight-recorder tails
        // as evidence. Healthy run => no bundles.
        let timeline = std::mem::replace(&mut merged.timeline, Timeline::new(TIMELINE_WINDOW));
        let exemplars: Vec<Exemplar> = merged
            .metrics
            .histogram("campus.session_secs")
            .map(|h| h.exemplars().copied().collect())
            .unwrap_or_default();
        let bundles = forensics::generate(&ForensicInput {
            timeline: &timeline,
            tails: &merged.tails,
            schedule: &self.fault_schedule,
            slo: Some(&slo),
            exemplars: &exemplars,
            sessions_failed: merged.failed,
            sessions_degraded: merged.degraded,
            base_seed: self.base_seed,
        });

        let rollup = CampusRollup {
            students,
            threads: workers,
            digest: merged.digest,
            bytes: merged.bytes,
            sessions_failed: merged.failed,
            wall_secs: start.elapsed().as_secs_f64(),
            metrics: std::mem::replace(&mut merged.metrics, MetricsSnapshot::new()),
            slo,
            timeline,
            forensics: bundles,
        };
        merged.sink.rollup(&rollup);
        Ok(())
    }

    /// Capture everything needed to re-run `report`'s session
    /// standalone: the spec, workload id, shard/replica topology (read
    /// off the configured session's `SystemConfig`), the fault-schedule
    /// slice intersecting the session's span, and the campus-recorded
    /// digest checkpoints. Pure — nothing is simulated here.
    pub fn extract(&self, report: &SessionReport) -> ReplayBundle {
        let spec = SessionSpec {
            student: report.student,
            seed: report.seed,
        };
        let base = SystemConfig::broadband(1).with_seed(spec.seed);
        // A hook that panics for this session (which then retired as
        // failed) leaves the base topology in the bundle.
        let config = match &self.session_config {
            Some(f) => {
                panic::catch_unwind(AssertUnwindSafe(|| f(&spec, base.clone()))).unwrap_or(base)
            }
            None => base,
        };
        let faults = self
            .fault_schedule
            .iter()
            .filter(|w| w.overlaps(SimTime::ZERO, report.end))
            .cloned()
            .collect();
        ReplayBundle {
            student: report.student,
            seed: report.seed,
            workload: report.student % self.workloads.len().max(1),
            shards: config.shards,
            replica: config.replica,
            digest: report.digest,
            layers: report.layers.clone(),
            anomalous: report.anomalous,
            failed: report.failed,
            faults,
        }
    }

    /// Re-run one captured session standalone with instrumentation
    /// forced to maximum — trace kept unconditionally, an effectively
    /// unbounded flight ring, and the link weathermap harvested off the
    /// live network — then prove faithfulness: the replayed digest
    /// checkpoints must equal the campus-recorded ones layer for layer.
    /// A divergence is a hard error naming the first layer that
    /// disagrees. Neither the sampler nor the flight-ring cap feeds the
    /// digest, so the instrumentation delta cannot cause one. A session
    /// that panics is retired as the campus retired it (see
    /// [`Campus::run_with`]), so its replay reproduces the failure
    /// instead of re-raising the panic.
    pub fn replay_bundle(&self, bundle: &ReplayBundle) -> Result<ReplayReport, SystemError> {
        if self.workloads.is_empty() {
            return Err(SystemError::Protocol(
                "Campus::workload(..) must be set before replay".into(),
            ));
        }
        let spec = SessionSpec {
            student: bundle.student,
            seed: bundle.seed,
        };
        let started = Instant::now();
        let base = SystemConfig::broadband(1)
            .with_seed(spec.seed)
            .with_flight_ring(usize::MAX);
        // Rate 1.0 head-samples every student, so the replayed trace is
        // always kept; the decision stays out of the digest.
        let sampler = TraceSampler::new(self.base_seed, 1.0).with_latency_threshold(SLOW_SESSION);
        let mut weathermap = String::new();
        let mut route = Vec::new();
        let mut waterfall = String::new();
        let mut profile_top = String::new();
        let mut observe = |sys: &MitsSystem| {
            weathermap = sys.net.weathermap_json();
            route = sys.net.active_links();
            // The session's root span is the first ever opened, so the
            // waterfall renders the whole replayed session end to end.
            if let Some(root) = sys.tracer.spans().first().map(|s| s.id) {
                waterfall = sys.tracer.waterfall(root);
            }
            profile_top = mits_sim::profile_tracer(&sys.tracer).render_top(10);
        };
        let workload = &self.workloads[bundle.workload % self.workloads.len()];
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let config = match &self.session_config {
                Some(f) => f(&spec, base),
                None => base,
            };
            run_session(
                workload,
                &publish(workload, &config)?,
                &sampler,
                &spec,
                &config,
                SessionScratch::default(),
                &mut MetricsSnapshot::new(),
                Some(&mut observe),
            )
        }));
        let (report, trace_jsonl) = match ran {
            Ok(ran) => {
                let (outcome, _) = ran?;
                let trace = outcome.trace.map(|t| t.jsonl).unwrap_or_default();
                (outcome.report, trace)
            }
            Err(payload) => {
                let error = format!("session panicked: {}", panic_message(&*payload));
                let outcome = panicked_session(&spec, error, started, &mut MetricsSnapshot::new());
                (outcome.report, String::new())
            }
        };
        report.layers.compare(&bundle.layers).map_err(|d| {
            SystemError::Protocol(format!(
                "replay of student {} unfaithful: {d}",
                bundle.student
            ))
        })?;
        if report.digest != bundle.digest {
            return Err(SystemError::Protocol(format!(
                "replay of student {} unfaithful: final digest {:#018x} != campus {:#018x}",
                bundle.student, report.digest, bundle.digest
            )));
        }
        let breach_reproduced =
            report.failed == bundle.failed && report.anomalous == bundle.anomalous;
        Ok(ReplayReport {
            bundle: bundle.clone(),
            digest_match: true,
            breach_reproduced,
            report,
            trace_jsonl,
            weathermap,
            route,
            waterfall,
            profile_top,
        })
    }

    /// Extract-and-replay one student: run the campus (streaming, so
    /// memory stays bounded), capture that student's [`SessionReport`],
    /// and [`Campus::replay_bundle`] it. This is the one-call debugging
    /// loop: name a victim (e.g. from a [`ForensicBundle`]'s replay
    /// handles) and get back its solo re-run at full instrumentation,
    /// faithfulness already proven.
    pub fn replay(&self, student: usize) -> Result<ReplayReport, SystemError> {
        let mut sink = CaptureSink {
            student,
            report: None,
        };
        self.run_with(&mut sink)?;
        let report = sink.report.ok_or_else(|| {
            SystemError::Protocol(format!(
                "student {student} is outside this campus (population {})",
                self.students
            ))
        })?;
        self.replay_bundle(&self.extract(&report))
    }
}

/// Outcome of a faithful solo re-run of one captured session (see
/// [`Campus::replay_bundle`]). Existence implies the digest proof
/// passed — an unfaithful replay is an error, not a report.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The bundle that was replayed.
    pub bundle: ReplayBundle,
    /// Always true: a digest mismatch errors instead of reporting.
    pub digest_match: bool,
    /// Whether the replay also reproduced the campus-recorded outcome
    /// flags (failed / anomalous) — the SLO-breach behaviour, which is
    /// not entirely covered by the digest.
    pub breach_reproduced: bool,
    /// The replayed session's report (digest, bytes, timings, layers).
    pub report: SessionReport,
    /// The replayed session's full trace (sample rate forced to 1.0).
    pub trace_jsonl: String,
    /// Versioned `{"t":"weathermap","v":1,...}` JSON of the replayed
    /// session's network.
    pub weathermap: String,
    /// The links that carried cells, `(from, to)` node names in link-id
    /// order — the victim's route.
    pub route: Vec<(String, String)>,
    /// The replayed session's latency waterfall, rendered from the root
    /// span (virtual-time offsets and bars).
    pub waterfall: String,
    /// Per-layer self-time profile of the replayed trace (flame-style
    /// "top", 10 rows).
    pub profile_top: String,
}

/// Sink that keeps exactly one student's report and drops the rest.
struct CaptureSink {
    student: usize,
    report: Option<SessionReport>,
}

impl ReportSink for CaptureSink {
    fn session(&mut self, report: &SessionReport) {
        if report.student == self.student {
            self.report = Some(report.clone());
        }
    }
}

/// Build a throwaway installation from `config`, journal `workload` into
/// it with [`MitsSystem::load_doc`] and capture the result. `load_doc`
/// stays the only path that writes a WAL; sessions mount the image.
fn publish(workload: &CampusWorkload, config: &SystemConfig) -> Result<CourseImage, SystemError> {
    let mut sys = MitsSystem::build(config)?;
    sys.load_doc(&workload.objects, &workload.media, workload.root);
    sys.image()
}

/// The course images of one campus run, published lazily: one per
/// (workload, shards, replica), since the store a publication leaves
/// depends on nothing else in a session's config.
#[derive(Default)]
struct CourseImages(Mutex<HashMap<(usize, usize, bool), Arc<CourseImage>>>);

impl CourseImages {
    fn get(
        &self,
        workloads: &[CampusWorkload],
        workload: usize,
        config: &SystemConfig,
    ) -> Result<Arc<CourseImage>, SystemError> {
        let key = (workload, config.shards.max(1), config.replica);
        // A session that panicked while publishing left the map as it
        // was (an image is inserted only once published), so a poisoned
        // lock is still sound.
        let mut images = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(image) = images.get(&key) {
            return Ok(Arc::clone(image));
        }
        let image = Arc::new(publish(&workloads[workload], config)?);
        images.insert(key, Arc::clone(&image));
        Ok(image)
    }
}

/// What one retired session hands to the merge.
struct SessionOutcome {
    report: SessionReport,
    trace: Option<ShardTrace>,
    timeline: Timeline,
    tail: Option<SessionTail>,
}

/// A completed batch: its sessions in index order, ready to flush.
struct BatchOut {
    sessions: Vec<SessionReport>,
    traces: Vec<ShardTrace>,
    snapshot: MetricsSnapshot,
    timeline: Timeline,
    tails: Vec<SessionTail>,
}

impl BatchOut {
    fn new() -> Self {
        BatchOut {
            sessions: Vec::new(),
            traces: Vec::new(),
            snapshot: MetricsSnapshot::new(),
            timeline: Timeline::new(TIMELINE_WINDOW),
            tails: Vec::new(),
        }
    }

    fn push(&mut self, outcome: SessionOutcome) {
        self.timeline.merge(&outcome.timeline);
        if let Some(t) = outcome.trace {
            self.traces.push(t);
        }
        if let Some(t) = outcome.tail {
            self.tails.push(t);
        }
        self.sessions.push(outcome.report);
    }
}

/// The streaming rollup: batches arrive in completion order, flush in
/// index order. Batches are claimed in index order, so `parked` holds
/// only batches that finished while an earlier, already running one is
/// still in flight: its size is set by stragglers, not by population.
struct MergeState<'a> {
    sink: &'a mut dyn ReportSink,
    next: usize,
    parked: BTreeMap<usize, BatchOut>,
    digest: u64,
    bytes: u64,
    failed: u64,
    degraded: u64,
    metrics: MetricsSnapshot,
    timeline: Timeline,
    tails: Vec<SessionTail>,
}

impl<'a> MergeState<'a> {
    fn new(sink: &'a mut dyn ReportSink) -> Self {
        MergeState {
            sink,
            next: 0,
            parked: BTreeMap::new(),
            digest: FNV_OFFSET,
            bytes: 0,
            failed: 0,
            degraded: 0,
            metrics: MetricsSnapshot::new(),
            timeline: Timeline::new(TIMELINE_WINDOW),
            tails: Vec::new(),
        }
    }

    fn complete(&mut self, batch: usize, out: BatchOut) {
        self.parked.insert(batch, out);
        while let Some(out) = self.parked.remove(&self.next) {
            for s in &out.sessions {
                self.digest = fnv_fold(self.digest, s.digest);
                self.bytes += s.bytes;
                self.failed += u64::from(s.failed);
                self.degraded += u64::from(s.anomalous);
                self.sink.session(s);
            }
            for t in &out.traces {
                self.sink.trace(t);
            }
            self.metrics.merge(&out.snapshot);
            self.timeline.merge(&out.timeline);
            // Tails flush in batch (== student-index) order, so the
            // retained set under the cap is thread-count invariant.
            for t in out.tails {
                if self.tails.len() < FORENSIC_TAIL_CAP {
                    self.tails.push(t);
                }
            }
            self.next += 1;
        }
    }
}

/// Run one student's whole session: mount the published courseware,
/// fetch its closure, then fetch every media object (cold cache — each
/// session is a fresh seat). A mid-session failure (deadline expired,
/// server gone for good) does *not* abort the campus: the session
/// retires with `failed` set, its partial observables folded under
/// [`SESSION_FAILED_MARK`]. Only a build or mount failure — a broken
/// config — is fatal.
#[allow(clippy::too_many_arguments)]
fn run_session(
    workload: &CampusWorkload,
    image: &CourseImage,
    sampler: &TraceSampler,
    spec: &SessionSpec,
    config: &SystemConfig,
    scratch: SessionScratch,
    // The batch's metrics, which the session's registry folds into.
    rollup: &mut MetricsSnapshot,
    // Called with the live system just before teardown — replay uses it
    // to harvest the weathermap and route. The campus path passes None.
    observe: Option<&mut dyn FnMut(&MitsSystem)>,
) -> Result<(SessionOutcome, SessionScratch), SystemError> {
    let start = Instant::now();
    let mut sys = MitsSystem::build_with_scratch(config, scratch)?;
    sys.mount(image)?;
    let student_id = ClientId(0);

    // Root span over the whole session: every request span nests under
    // it, and its id is the span half of this session's histogram
    // exemplars — so an exemplar in a forensic bundle resolves to a
    // concrete span in the sampled trace.
    let root = sys.tracer.root_span("campus.session", sys.now());
    sys.tracer.push_context(root);

    // Each fold checkpoint is recorded into the layer trace, so two
    // executions of the same session can be diffed layer by layer —
    // the replay faithfulness proof names the first divergent layer.
    let mut layers = DigestTrace::new();
    let mut digest = fnv_fold(FNV_OFFSET, spec.seed);
    layers.record("seed", digest);
    let mut session = SimDuration::ZERO;
    let mut error: Option<String> = None;
    match sys.fetch_courseware(student_id, workload.root) {
        Ok((objects, t)) => {
            session = t;
            digest = fnv_fold(digest, objects.len() as u64);
            layers.record("courseware", digest);
        }
        Err(e) => error = Some(e.to_string()),
    }
    if error.is_none() {
        for (i, m) in workload.media.iter().enumerate() {
            match sys.fetch_content(student_id, m.id) {
                Ok((got, t)) => {
                    session += t;
                    digest = fnv_fold(digest, got.data.len() as u64);
                    layers.record(format!("media.{i}"), digest);
                }
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
    }
    let failed = error.is_some();
    if failed {
        digest = fnv_fold(digest, SESSION_FAILED_MARK);
        layers.record("failure", digest);
    }
    let end_at = sys.now();
    sys.tracer.pop_context();
    sys.tracer.end(root, end_at);
    let bytes = sys.bytes_to_client(student_id);
    digest = fnv_fold(digest, bytes);
    layers.record("bytes", digest);
    digest = fnv_fold(digest, session.as_micros());
    layers.record("session_time", digest);
    digest = fnv_fold(digest, sys.db().state_digest());
    layers.record("db_state", digest);

    // Telemetry: refresh this session's registry (stamped at the final
    // virtual instant); `retire` adds the campus-level session counters,
    // and the registry folds straight into the batch's metrics.
    sys.export_metrics();
    let degraded = sys.client_metrics(student_id).tail_sample_signal() || failed;
    let failed_over = sys.failovers > 0;
    let anomalous = degraded || failed_over;
    // A failed session's fetch-time sum only counts the fetches that
    // succeeded, which understates how long the seat was held; charge
    // it the virtual time it burned until retirement instead, so its
    // histogram sample lands in the slow tail it belongs to.
    let observed = if failed {
        end_at.since(SimTime::ZERO)
    } else {
        session
    };
    let sampled = sampler.decide(
        spec.student as u64,
        &TailSignals {
            degraded,
            failed_over,
            session,
        },
    );
    let trace = sampled.map(|reason| ShardTrace {
        student: spec.student,
        seed: spec.seed,
        reason,
        jsonl: sys.tracer.to_jsonl(),
    });

    let report = SessionReport {
        student: spec.student,
        seed: spec.seed,
        digest,
        bytes,
        session,
        anomalous,
        failed,
        error,
        sampled,
        end: end_at,
        layers,
        wall_secs: start.elapsed().as_secs_f64(),
    };
    let (timeline, tail) = retire(
        &report,
        observed,
        root.as_u64(),
        &sys.metrics,
        sys.flight.tail(),
        sys.flight.dropped(),
    );
    if let Some(observe) = observe {
        observe(&sys);
    }
    // Fold the registry before teardown recycles it for the next session.
    rollup.merge_registry(&sys.metrics);
    let scratch = sys.into_scratch();
    Ok((
        SessionOutcome {
            report,
            trace,
            timeline,
            tail,
        },
        scratch,
    ))
}

/// Count a retiring session into its metrics registry and its timeline
/// slice, the same way whether it ran to its end or panicked: the
/// campus-level session counters the SLO layer reads from the merged
/// rollup, and the session-time sample `observed`. The sample carries an
/// exemplar (student index as trace id, root span id `span`, retire
/// instant); exemplar selection is a deterministic total order, so the
/// merged histogram keeps the same exemplars regardless of merge
/// grouping. The flight-recorder tail `events` and the retirement fold
/// into the timeline slice; the raw tail is kept as forensic evidence
/// only when the session was anomalous (tail-sampled sessions are
/// exactly the ones bundles reference).
fn retire(
    report: &SessionReport,
    observed: SimDuration,
    span: u64,
    metrics: &MetricsRegistry,
    events: Vec<FlightEvent>,
    dropped: u64,
) -> (Timeline, Option<SessionTail>) {
    metrics.counter_set("campus.sessions", 1);
    metrics.counter_set("campus.sessions_degraded", u64::from(report.anomalous));
    metrics.counter_set("campus.sessions_failed", u64::from(report.failed));
    metrics.counter_set("campus.traces_sampled", u64::from(report.sampled.is_some()));
    metrics.observe_exemplar(
        "campus.session_secs",
        observed.as_secs_f64(),
        0.0,
        SESSION_SECS_HI,
        SESSION_SECS_BINS,
        report.student as u64,
        span,
        report.end,
    );
    let mut recorder = TimelineRecorder::new(TIMELINE_WINDOW);
    recorder.record_events(&events);
    recorder.record_session(report.end, observed, report.anomalous, report.failed);
    let tail = report.anomalous.then_some(SessionTail {
        student: report.student as u64,
        failed: report.failed,
        events,
        dropped,
    });
    (recorder.finish(), tail)
}

/// The message a panic carried, when it is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Retire a session that panicked — in the configure hook or anywhere in
/// [`run_session`] — as failed, exactly as a session that died of an
/// error retires: its digest folds the seed and [`SESSION_FAILED_MARK`],
/// and it counts as a failed, anomalous session in the rollup, the
/// timeline and the forensic tails. Nothing of its unwound world
/// survives, so it reports no bytes and no trace, and it is charged
/// [`PANICKED_SESSION`] of virtual time.
fn panicked_session(
    spec: &SessionSpec,
    error: String,
    started: Instant,
    rollup: &mut MetricsSnapshot,
) -> SessionOutcome {
    let mut layers = DigestTrace::new();
    let mut digest = fnv_fold(FNV_OFFSET, spec.seed);
    layers.record("seed", digest);
    digest = fnv_fold(digest, SESSION_FAILED_MARK);
    layers.record("failure", digest);
    let report = SessionReport {
        student: spec.student,
        seed: spec.seed,
        digest,
        bytes: 0,
        session: SimDuration::ZERO,
        anomalous: true,
        failed: true,
        error: Some(error),
        sampled: None,
        end: SimTime::ZERO + PANICKED_SESSION,
        layers,
        wall_secs: started.elapsed().as_secs_f64(),
    };
    let metrics = MetricsRegistry::new();
    let (timeline, tail) = retire(&report, PANICKED_SESSION, 0, &metrics, Vec::new(), 0);
    rollup.merge_registry(&metrics);
    SessionOutcome {
        report,
        trace: None,
        timeline,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mits_media::{MediaFormat, MediaId, VideoDims};
    use mits_mheg::{ClassLibrary, GenericValue};
    use mits_sim::Verdict;

    fn tiny_workload(clips: usize, clip_bytes: usize) -> CampusWorkload {
        let mut lib = ClassLibrary::new(1);
        let v = lib.value_content("v", GenericValue::Int(1));
        let root = lib.container("Course", vec![v]);
        let media = (0..clips)
            .map(|i| {
                let data: Vec<u8> = (0..clip_bytes)
                    .map(|j| ((i * 31 + j) % 251) as u8)
                    .collect();
                MediaObject::new(
                    MediaId(900 + i as u64),
                    format!("clip{i}.mpg"),
                    MediaFormat::Mpeg,
                    SimDuration::from_secs(1),
                    VideoDims::new(160, 120),
                    Bytes::from(data),
                )
            })
            .collect();
        CampusWorkload {
            objects: lib.into_objects(),
            media,
            root,
        }
    }

    fn campus(students: usize, threads: usize, seed: u64, w: &CampusWorkload) -> Campus {
        Campus::new(students, seed)
            .threads(threads)
            .workload(w.clone())
    }

    #[test]
    fn replay_of_a_healthy_student_is_faithful() {
        let w = tiny_workload(2, 4096);
        let c = campus(4, 1, 42, &w);
        let full = c.run().unwrap();
        let r = c.replay(2).unwrap();
        assert!(r.digest_match);
        assert!(r.breach_reproduced, "healthy flags must reproduce too");
        assert_eq!(r.bundle.student, 2);
        assert_eq!(r.bundle.seed, derive_seed(42, 2));
        assert!(!r.trace_jsonl.is_empty(), "replay always keeps the trace");
        assert!(r.weathermap.starts_with("{\"t\":\"weathermap\",\"v\":1,"));
        assert!(
            !r.route.is_empty(),
            "a session that moved bytes has a route"
        );
        // The replayed digest is the same fold the campus recorded.
        assert_eq!(r.report.layers.final_digest(), Some(r.report.digest));
        // Replaying every student must leave the campus digest derivable.
        let _ = full;
    }

    #[test]
    fn tampered_bundle_names_the_divergent_layer() {
        let w = tiny_workload(1, 2048);
        let c = campus(2, 1, 7, &w);
        let mut sink = CaptureSink {
            student: 1,
            report: None,
        };
        c.run_with(&mut sink).unwrap();
        let report = sink.report.unwrap();
        let mut bundle = c.extract(&report);
        // Corrupt the courseware checkpoint: the replay must hard-error
        // and name that layer, not report success or a generic mismatch.
        let mut forged = DigestTrace::new();
        for (name, d) in bundle.layers.layers() {
            forged.record(name.clone(), if name == "courseware" { d ^ 1 } else { *d });
        }
        bundle.layers = forged;
        let err = c.replay_bundle(&bundle).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unfaithful"), "{msg}");
        assert!(msg.contains("courseware"), "{msg}");
    }

    #[test]
    fn extract_slices_the_fault_schedule_to_the_session_span() {
        let w = tiny_workload(1, 2048);
        let late = FaultWindow {
            label: "late.shard0".into(),
            shard: 0,
            onset: SimTime::from_secs(3_600),
            clear: None,
        };
        let early = FaultWindow {
            label: "early.shard0".into(),
            shard: 0,
            onset: SimTime::from_millis(1),
            clear: Some(SimTime::from_millis(2)),
        };
        let c = campus(1, 1, 9, &w).fault_schedule(vec![early.clone(), late]);
        let mut sink = CaptureSink {
            student: 0,
            report: None,
        };
        c.run_with(&mut sink).unwrap();
        let report = sink.report.unwrap();
        let bundle = c.extract(&report);
        assert_eq!(
            bundle.faults,
            vec![early],
            "only windows overlapping the session span ride along"
        );
    }

    #[test]
    fn campus_digest_is_thread_count_invariant() {
        let w = tiny_workload(2, 4096);
        let serial = campus(6, 1, 42, &w).run().unwrap();
        for threads in [2, 8] {
            let parallel = campus(6, threads, 42, &w).run().unwrap();
            assert_eq!(serial.digest, parallel.digest, "threads={threads}");
            assert_eq!(serial.bytes, parallel.bytes);
        }
    }

    #[test]
    fn campus_telemetry_is_thread_count_invariant() {
        let w = tiny_workload(2, 4096);
        // High head rate so the sampled set is non-trivial.
        let serial = campus(6, 1, 42, &w).trace_sample_rate(0.5).run().unwrap();
        assert!(
            !serial.traces.is_empty(),
            "a 50% lottery over 6 students should keep something"
        );
        assert!(
            serial.traces.len() < serial.students,
            "sampling must bound the trace set"
        );
        for threads in [2, 8] {
            let parallel = campus(6, threads, 42, &w)
                .trace_sample_rate(0.5)
                .run()
                .unwrap();
            assert_eq!(
                serial.metrics.to_json(),
                parallel.metrics.to_json(),
                "merged snapshot must be byte-identical at threads={threads}"
            );
            assert_eq!(
                serial.metrics.to_text(),
                parallel.metrics.to_text(),
                "text rendering too"
            );
            assert_eq!(
                serial.traces_jsonl(),
                parallel.traces_jsonl(),
                "sampled trace set must be byte-identical at threads={threads}"
            );
            assert_eq!(serial.slo.to_json(), parallel.slo.to_json());
        }
    }

    #[test]
    fn campus_rollup_sums_counters_and_judges_slos() {
        let w = tiny_workload(1, 2048);
        let report = campus(4, 2, 9, &w).run().unwrap();
        assert_eq!(report.metrics.counter("campus.sessions"), Some(4));
        assert_eq!(report.metrics.counter("campus.sessions_degraded"), Some(0));
        assert_eq!(report.metrics.counter("campus.sessions_failed"), Some(0));
        assert_eq!(report.sessions_failed, 0);
        assert_eq!(report.sessions_anomalous, 0);
        let h = report.metrics.histogram("campus.session_secs").unwrap();
        assert_eq!(h.count(), 4, "one session sample per student");
        // Client attempts accumulate across sessions.
        let attempts = report.metrics.counter("client0.attempts").unwrap();
        assert!(attempts >= 4 * 2, "each session fetched courseware + clip");
        // Zero-fault campus: every default SLO passes.
        assert_eq!(report.slo.breaches(), 0, "{}", report.slo.to_json());
        assert!(report
            .slo
            .outcomes
            .iter()
            .all(|o| o.verdict == Verdict::Pass));
    }

    #[test]
    fn sink_streams_sessions_in_index_order() {
        struct OrderSink {
            students: Vec<usize>,
            bytes: u64,
            rollups: usize,
            rollup_bytes: u64,
        }
        impl ReportSink for OrderSink {
            fn session(&mut self, r: &SessionReport) {
                self.students.push(r.student);
                self.bytes += r.bytes;
            }
            fn rollup(&mut self, rollup: &CampusRollup) {
                self.rollups += 1;
                self.rollup_bytes = rollup.bytes;
            }
        }
        let w = tiny_workload(1, 1024);
        let mut sink = OrderSink {
            students: Vec::new(),
            bytes: 0,
            rollups: 0,
            rollup_bytes: 0,
        };
        campus(9, 4, 7, &w).run_with(&mut sink).unwrap();
        assert_eq!(sink.students, (0..9).collect::<Vec<_>>());
        assert_eq!(sink.rollups, 1);
        assert_eq!(sink.bytes, sink.rollup_bytes, "streamed == merged");
    }

    #[test]
    fn campus_seeds_are_distinct_and_coverage_is_full() {
        struct SeedSink {
            seeds: Vec<u64>,
            bytes: Vec<u64>,
        }
        impl ReportSink for SeedSink {
            fn session(&mut self, r: &SessionReport) {
                self.seeds.push(r.seed);
                self.bytes.push(r.bytes);
            }
        }
        let w = tiny_workload(1, 1024);
        let mut sink = SeedSink {
            seeds: Vec::new(),
            bytes: Vec::new(),
        };
        campus(5, 3, 7, &w).run_with(&mut sink).unwrap();
        assert_eq!(sink.seeds.len(), 5);
        assert!(sink.bytes.iter().all(|&b| b == sink.bytes[0]));
        assert!(sink.bytes[0] > 1024, "content plus protocol overhead");
        let mut seeds = sink.seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5, "derived seeds must not collide");
    }

    #[test]
    fn base_seed_changes_the_campus_digest() {
        let w = tiny_workload(1, 2048);
        let a = campus(3, 2, 1, &w).run().unwrap();
        let b = campus(3, 2, 2, &w).run().unwrap();
        assert_ne!(a.digest, b.digest, "seed must reach the digest");
    }

    #[test]
    fn missing_workload_is_an_error_not_a_panic() {
        let err = Campus::new(4, 1).run().unwrap_err();
        assert!(matches!(err, SystemError::Protocol(_)));
    }

    #[test]
    fn percentile_edge_cases_do_not_panic_or_extrapolate() {
        let empty = CampusReport::new();
        assert_eq!(empty.wall_percentile(0.99), 0.0);
        assert_eq!(empty.session_percentile(0.5), 0.0);
        // Out-of-range p clamps instead of panicking.
        let w = tiny_workload(0, 0);
        let one = campus(1, 1, 3, &w).run().unwrap();
        for p in [-3.0, 0.0, 0.5, 1.0, 7.0] {
            assert!(one.wall_percentile(p) >= 0.0, "p={p}");
            assert!(one.session_percentile(p) >= 0.0, "p={p}");
        }
    }

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn calm_campus_has_a_timeline_but_no_forensics() {
        let w = tiny_workload(1, 2048);
        let report = campus(4, 2, 9, &w).run().unwrap();
        assert!(
            !report.timeline.is_empty(),
            "retirements must land in the timeline"
        );
        assert!(
            report.forensics.is_empty(),
            "healthy run must not produce bundles"
        );
        assert!(report.timeline_json().starts_with("{\"v\":1,"));
        assert_eq!(report.forensics_json(), "[]");
        // Session exemplars ride the merged histogram, keyed by student.
        let h = report.metrics.histogram("campus.session_secs").unwrap();
        assert!(h.exemplars().count() >= 1, "exemplars must survive merge");
        assert!(h.exemplars().all(|e| (e.trace_id as usize) < 4));
    }

    #[test]
    fn trace_headers_carry_a_schema_version() {
        let w = tiny_workload(1, 1024);
        let report = campus(6, 1, 42, &w).trace_sample_rate(1.0).run().unwrap();
        assert!(!report.traces.is_empty());
        for line in report.traces_jsonl().lines() {
            if line.starts_with("{\"t\":\"shard\"") {
                assert!(line.contains("\"v\":1,"), "unversioned header: {line}");
            }
        }
    }

    #[test]
    fn fault_storm_schedule_names_the_victim() {
        let storm = FaultStorm::new(3, 1, SimTime::from_millis(100), SimTime::from_millis(400));
        let sched = storm.schedule();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].label, "fault_storm.shard1");
        assert_eq!(sched[0].shard, 1);
        assert_eq!(sched[0].onset, SimTime::from_millis(100));
        assert_eq!(sched[0].clear, None, "no restart => the fault never clears");
        let mut with_restart = storm.clone();
        with_restart.restart_at = Some(SimTime::from_millis(300));
        assert_eq!(
            with_restart.schedule()[0].clear,
            Some(SimTime::from_millis(400)),
            "clear waits for both the restart and the link outage"
        );
    }
}
