//! The `campus` and `faults` workloads: closed-loop campus runs on one
//! worker thread, and, in the traced run, a replay of the same sessions
//! through the public calls with a span around each.

use crate::inputs::{self, Hook};
use crate::report::{self, Counts, Round, RunResult, Timed, Traced};
use crate::spans::Spans;
use mits_core::system::{SessionScratch, SystemError};
use mits_core::{
    Campus, CampusRollup, CampusWorkload, ClientId, MitsSystem, ReportSink, SessionReport,
    SessionSpec, ShardTrace,
};
use mits_media::MediaObject;
use mits_mheg::{encode_object, MhegObject, WireFormat};
use mits_sim::{
    derive_seed, MetricsSnapshot, SimDuration, SimTime, TailSignals, Timeline, TimelineRecorder,
    TraceSampler,
};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Campus,
    Faults,
}

/// Students per campus run (one timed round): enough for a p99 with ten
/// samples beyond it. A round takes about 1 s (`campus`) or 3.5 s
/// (`faults`) of host time on one worker.
const CAMPUS_STUDENTS: usize = 1000;
const FAULTS_STUDENTS: usize = 1000;
/// Sessions replayed through the public calls during set-up: they warm
/// the allocator and prove the payload check before timing starts.
const REFERENCE_SESSIONS: usize = 12;
/// Set-ups before the first round; one more follows every round.
const SETUP_REPEATS: usize = 9;

/// `Campus` defaults the replay mirrors: head-sampling rate, slow
/// session threshold, timeline window, and the geometry of the
/// `campus.session_secs` histogram.
const HEAD_RATE: f64 = 0.05;
const SLOW_SESSION_S: u64 = 30;
const TIMELINE_WINDOW_MS: u64 = 250;
const SESSION_SECS_HI: f64 = 60.0;
const SESSION_SECS_BINS: usize = 600;

struct Setup {
    campus: Campus,
    workloads: Vec<CampusWorkload>,
    hook: Option<Hook>,
    base_seed: u64,
    students: usize,
    /// Courseware plus clip bytes of each workload.
    payload: Vec<u64>,
    /// Downlink bytes of one clean session (`campus` only), taken from
    /// reference replays whose payload was checked byte for byte.
    clean_bytes: Option<u64>,
}

impl Setup {
    fn new(kind: Kind, seed: u64) -> Result<Self, SystemError> {
        let (workloads, hook, storm, students) = match kind {
            Kind::Campus => (
                vec![inputs::campus_course(seed)],
                None,
                None,
                CAMPUS_STUDENTS,
            ),
            Kind::Faults => {
                let f = inputs::faults(seed)?;
                (f.workloads, Some(f.hook), Some(f.storm), FAULTS_STUDENTS)
            }
        };
        let mut campus = Campus::new(students, seed)
            .threads(1)
            .workloads(workloads.clone());
        if let Some(h) = &hook {
            let h = h.clone();
            campus = campus.configure_sessions(move |spec, base| h(spec, base));
        }
        if let Some(storm) = &storm {
            campus = campus.fault_schedule(storm.schedule());
        }
        let payload = workloads
            .iter()
            .map(|w| {
                let objects: usize = w
                    .objects
                    .iter()
                    .map(|o| encode_object(o, WireFormat::Tlv).len())
                    .sum();
                let clips: usize = w.media.iter().map(|m| m.data.len()).sum();
                (objects + clips) as u64
            })
            .collect();
        let mut setup = Setup {
            campus,
            workloads,
            hook,
            base_seed: seed,
            students,
            payload,
            clean_bytes: None,
        };

        let mut replayer = Replayer::new(&setup, false);
        let mut bytes = Vec::new();
        for student in 0..REFERENCE_SESSIONS {
            let r = replayer.session(&setup, student)?;
            if !r.payload_ok {
                return Err(SystemError::Protocol(format!(
                    "reference session {student} did not deliver its courseware"
                )));
            }
            bytes.push(r.outcome.bytes);
        }
        if kind == Kind::Campus {
            if bytes.iter().any(|&b| b != bytes[0]) {
                return Err(SystemError::Protocol(
                    "clean reference sessions delivered different byte counts".into(),
                ));
            }
            setup.clean_bytes = Some(bytes[0]);
        }
        Ok(setup)
    }

    fn spec(&self, student: usize) -> SessionSpec {
        SessionSpec {
            student,
            seed: derive_seed(self.base_seed, student as u64),
        }
    }

    fn workload(&self, student: usize) -> usize {
        student % self.workloads.len()
    }

    /// Clip bytes every run of the campus hands to `load_doc`.
    fn media_loaded(&self) -> u64 {
        (0..self.students)
            .map(|s| {
                self.workloads[self.workload(s)]
                    .media
                    .iter()
                    .map(|m| m.data.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

/// What one session of the untraced run reported.
#[derive(Clone, Copy, PartialEq)]
struct Outcome {
    bytes: u64,
    virt: SimDuration,
    failed: bool,
    anomalous: bool,
}

/// The deterministic part of a campus rollup, compared across rounds.
#[derive(PartialEq)]
struct Rollup {
    digest: u64,
    metrics_json: String,
    traces: usize,
    forensics: usize,
}

/// The benchmark's own `ReportSink`: it keeps every session's outcome
/// and host wall time so percentiles are computed from the samples.
#[derive(Default)]
struct Sink {
    sessions: Vec<(Outcome, f64)>,
    traces: usize,
    metrics: Option<MetricsSnapshot>,
    digest: u64,
    forensics: usize,
}

impl ReportSink for Sink {
    fn session(&mut self, r: &SessionReport) {
        let outcome = Outcome {
            bytes: r.bytes,
            virt: r.session,
            failed: r.failed,
            anomalous: r.anomalous,
        };
        self.sessions.push((outcome, r.wall_secs));
    }

    fn trace(&mut self, _trace: &ShardTrace) {
        self.traces += 1;
    }

    fn rollup(&mut self, rollup: &CampusRollup) {
        self.metrics = Some(rollup.metrics.clone());
        self.digest = rollup.digest;
        self.forensics = rollup.forensics.len();
    }
}

/// One session replayed through the public calls.
struct Replayed {
    outcome: Outcome,
    /// The trace sampler kept the session's trace.
    sampled: bool,
    /// The session delivered exactly its courseware objects and clips.
    payload_ok: bool,
}

/// What a replayed session fetched, checked outside the timed region.
struct Fetched {
    objects: Vec<MhegObject>,
    clips: Vec<MediaObject>,
}

/// Replays campus sessions one at a time exactly as `Campus` runs them:
/// same `SystemConfig`, same calls in the same order, same telemetry.
struct Replayer {
    spans: Spans,
    sampler: TraceSampler,
    scratch: SessionScratch,
    metrics: MetricsSnapshot,
    timeline: Timeline,
    /// Host seconds spent inside sessions (payload checks excluded).
    wall_s: f64,
}

impl Replayer {
    fn new(setup: &Setup, traced: bool) -> Self {
        Replayer {
            spans: Spans::new(traced),
            sampler: TraceSampler::new(setup.base_seed, HEAD_RATE)
                .with_latency_threshold(SimDuration::from_secs(SLOW_SESSION_S)),
            scratch: SessionScratch::default(),
            metrics: MetricsSnapshot::new(),
            timeline: Timeline::new(SimDuration::from_millis(TIMELINE_WINDOW_MS)),
            wall_s: 0.0,
        }
    }

    /// Replay `student` and check what it delivered against the inputs.
    fn session(&mut self, setup: &Setup, student: usize) -> Result<Replayed, SystemError> {
        let workload = &setup.workloads[setup.workload(student)];
        let (mut r, mut got) = self.run(setup, student)?;
        got.objects.sort_by_key(|o| o.id);
        let mut expected = workload.objects.clone();
        expected.sort_by_key(|o| o.id);
        r.payload_ok = !r.outcome.failed
            && got.objects == expected
            && got.clips.len() == workload.media.len()
            && got
                .clips
                .iter()
                .zip(&workload.media)
                .all(|(got, src)| got.id == src.id && got.data == src.data);
        Ok(r)
    }

    /// The session itself, timed as one region; returns what it fetched
    /// so the caller can check it outside the timed region.
    fn run(&mut self, setup: &Setup, student: usize) -> Result<(Replayed, Fetched), SystemError> {
        let started = Instant::now();
        let spec = setup.spec(student);
        let workload = &setup.workloads[setup.workload(student)];
        let id = student as u64;
        let spans = &mut self.spans;
        let scratch = std::mem::take(&mut self.scratch);
        let mut sys = spans.time("core.build", id, || {
            let config = inputs::session_config(&spec, setup.hook.as_ref());
            MitsSystem::build_with_scratch(&config, scratch)
        })?;
        spans.time("db.preload", id, || {
            sys.load_doc(&workload.objects, &workload.media, workload.root)
        });
        let me = ClientId(0);
        let root = sys.tracer.root_span("campus.session", sys.now());
        sys.tracer.push_context(root);
        let mut virt = SimDuration::ZERO;
        let mut failed = false;
        let mut objects = Vec::new();
        let mut clips = Vec::with_capacity(workload.media.len());
        match spans.time("core.fetch_courseware", id, || {
            sys.fetch_courseware(me, workload.root)
        }) {
            Ok((objs, t)) => {
                virt = t;
                objects = objs;
            }
            Err(_) => failed = true,
        }
        if !failed {
            for m in &workload.media {
                match spans.time("core.fetch_content", id, || sys.fetch_content(me, m.id)) {
                    Ok((got, t)) => {
                        virt += t;
                        clips.push(got);
                    }
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        let end_at = sys.now();
        sys.tracer.pop_context();
        sys.tracer.end(root, end_at);
        let bytes = sys.bytes_to_client(me);
        std::hint::black_box(spans.time("db.state_digest", id, || sys.db().state_digest()));

        let (snapshot, anomalous, degraded, failed_over, observed) =
            spans.time("sim.export", id, || {
                sys.export_metrics();
                let degraded = sys.client_metrics(me).tail_sample_signal() || failed;
                let failed_over = sys.failovers > 0;
                let anomalous = degraded || failed_over;
                sys.metrics.counter_set("campus.sessions", 1);
                sys.metrics
                    .counter_set("campus.sessions_degraded", u64::from(anomalous));
                sys.metrics
                    .counter_set("campus.sessions_failed", u64::from(failed));
                let observed = if failed {
                    end_at.since(SimTime::ZERO)
                } else {
                    virt
                };
                sys.metrics.observe_exemplar(
                    "campus.session_secs",
                    observed.as_secs_f64(),
                    0.0,
                    SESSION_SECS_HI,
                    SESSION_SECS_BINS,
                    id,
                    root.as_u64(),
                    end_at,
                );
                (
                    sys.metrics.snapshot(),
                    anomalous,
                    degraded,
                    failed_over,
                    observed,
                )
            });
        let sampled = self.sampler.decide(
            id,
            &TailSignals {
                degraded,
                failed_over,
                session: virt,
            },
        );
        if sampled.is_some() {
            std::hint::black_box(spans.time("sim.trace_jsonl", id, || sys.tracer.to_jsonl()));
        }
        let (metrics, timeline) = (&mut self.metrics, &mut self.timeline);
        spans.time("sim.rollup", id, || {
            let mut recorder = TimelineRecorder::new(timeline.window());
            recorder.record_events(&sys.flight.tail());
            recorder.record_session(end_at, observed, anomalous, failed);
            timeline.merge(&recorder.finish());
            metrics.merge(&snapshot);
        });
        self.scratch = spans.time("core.teardown", id, || sys.into_scratch());
        self.wall_s += started.elapsed().as_secs_f64();
        Ok((
            Replayed {
                outcome: Outcome {
                    bytes,
                    virt,
                    failed,
                    anomalous,
                },
                sampled: sampled.is_some(),
                payload_ok: false,
            },
            Fetched { objects, clips },
        ))
    }
}

pub fn run(
    kind: Kind,
    seed: u64,
    budget: Duration,
    traced: bool,
    spans_out: Option<&str>,
) -> Result<RunResult, SystemError> {
    let (setup, setup_s) = report::repeated_setup(SETUP_REPEATS, || Setup::new(kind, seed))?;
    let mut timed = Timed {
        setup_s,
        ..Timed::default()
    };

    // Rounds are whole campus runs, timed from outside. The traced run
    // follows each with a replay of the same sessions, so drift in the
    // host's speed touches both sides alike.
    let mut first: Option<(Vec<Outcome>, Rollup, Counts)> = None;
    let mut consistent = true;
    let mut merge_s = 0.0;
    let mut replayer = Replayer::new(&setup, true);
    let started = Instant::now();
    while first.is_none() || started.elapsed() < budget {
        let mut sink = Sink::default();
        let t0 = Instant::now();
        setup.campus.run_with(&mut sink)?;
        let wall_s = t0.elapsed().as_secs_f64();

        let mut round = Round {
            ops: sink.sessions.len() as u64,
            wall_s,
            ..Round::default()
        };
        for (student, (o, w)) in sink.sessions.iter().enumerate() {
            round.op_wall_s.push(*w);
            timed.op_virt_s.push(o.virt.as_secs_f64());
            let clean_ok = setup
                .clean_bytes
                .is_none_or(|b| !o.anomalous && o.bytes == b);
            if !o.failed && clean_ok {
                round.payload += setup.payload[setup.workload(student)];
            } else {
                timed.failed += 1;
            }
        }
        merge_s += wall_s - round.op_wall_s.iter().sum::<f64>();
        timed.attempted += setup.students as u64;
        consistent &= sink.sessions.len() == setup.students;
        timed.rounds.push(round);

        let metrics = sink.metrics.take().unwrap_or_default();
        let rollup = Rollup {
            digest: sink.digest,
            metrics_json: metrics.to_json(),
            traces: sink.traces,
            forensics: sink.forensics,
        };
        match &first {
            None => {
                timed.peak_rss_mb = report::peak_rss_mb();
                let outcomes = sink.sessions.iter().map(|(o, _)| *o).collect();
                first = Some((outcomes, rollup, Counts::from_snapshot(&metrics)));
            }
            Some((_, r, _)) => consistent &= *r == rollup,
        }
        timed
            .setup_s
            .push(report::extra_setup_s(|| Setup::new(kind, seed))?);
        if !traced {
            continue;
        }

        // Replay every session of the round with spans. Each must
        // reproduce its untraced bytes and simulated session time; one
        // that disagrees counts as failed.
        let (outcomes, rollup, _) = first.as_ref().expect("first round kept");
        let mut sampled = 0;
        for (student, expected) in outcomes.iter().enumerate() {
            timed.attempted += 1;
            let faithful = replayer.session(&setup, student).is_ok_and(|r| {
                sampled += usize::from(r.sampled);
                r.outcome == *expected && (r.outcome.failed || r.payload_ok)
            });
            timed.failed += u64::from(!faithful);
        }
        consistent &= sampled == rollup.traces;
    }
    let (_, rollup, counts) = first.expect("one round ran");
    if !traced {
        return Ok(RunResult {
            attempted: timed.attempted,
            failed: timed.failed,
            consistent,
            metrics: timed.end_to_end(),
        });
    }

    // Against the sessions' own wall time: the replay does not redo the
    // campus merge, which `core.campus.merge_s` reports instead.
    let untraced_wall: f64 = timed.rounds.iter().flat_map(|r| &r.op_wall_s).sum();
    let traced = Traced {
        spans: &replayer.spans,
        wall_s: replayer.wall_s,
        overhead: replayer.wall_s / untraced_wall - 1.0,
        merge_s,
    };
    let counts = counts.metrics(setup.media_loaded(), rollup.forensics as u64);
    let metrics = report::per_layer(traced, &timed, counts, spans_out)
        .map_err(|e| SystemError::Protocol(format!("writing spans: {e}")))?;
    Ok(RunResult {
        attempted: timed.attempted,
        failed: timed.failed,
        consistent,
        metrics,
    })
}
