//! Campus lifecycle integration tests: the determinism contract of the
//! memory-bounded runner across thread counts, the bound on sessions
//! held back by the in-order merge, retire-under-fault, and a panicking
//! session contained to itself.
//!
//! The campus digest is the repo's best regression tripwire — it folds
//! every session's observables in student-index order, so any
//! scheduling leak (worker identity, completion order) shows up as a
//! digest mismatch between thread counts.

use bytes::Bytes;
use mits::core::{Campus, CampusRollup, CampusWorkload, ReportSink, SessionReport, ShardTrace};
use mits::db::RetryPolicy;
use mits::media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits::mheg::{ClassLibrary, GenericValue};
use mits::sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn workload(clips: usize, clip_bytes: usize) -> CampusWorkload {
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let media = (0..clips)
        .map(|i| {
            let data: Vec<u8> = (0..clip_bytes)
                .map(|j| ((i * 13 + j * 5) % 251) as u8)
                .collect();
            MediaObject::new(
                MediaId(700 + i as u64),
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

/// Determinism at 1k students: the digest, merged metrics and
/// sampled-trace bundle must be byte-identical on 1, 2 and 8 threads
/// (batches finish in any order; the frontier merge must hide it).
#[test]
fn thousand_students_are_deterministic_across_thread_counts() {
    let students = 1000;
    let w = workload(1, 2048);
    let base = Campus::new(students, 42)
        .threads(1)
        .workload(w.clone())
        .run()
        .unwrap();
    assert_eq!(base.students, students);
    assert_eq!(
        base.metrics.counter("campus.sessions"),
        Some(students as u64)
    );

    for threads in [2, 8] {
        let r = Campus::new(students, 42)
            .threads(threads)
            .workload(w.clone())
            .run()
            .unwrap();
        assert_eq!(base.digest, r.digest, "digest drifted at threads={threads}");
        assert_eq!(base.bytes, r.bytes);
        assert_eq!(
            base.metrics.to_json(),
            r.metrics.to_json(),
            "metrics drifted at threads={threads}"
        );
        assert_eq!(
            base.traces_jsonl(),
            r.traces_jsonl(),
            "traces drifted at threads={threads}"
        );
    }
}

/// The in-order merge may hold back only what other workers finish
/// while the oldest running batch completes — a few batches, not a
/// share of the population. When a session streams, every session
/// started after it is held back (its batch has not flushed); the most
/// ever held back must stay far below the campus size.
#[test]
fn merge_holds_back_a_few_batches_not_the_population() {
    struct HeldBack {
        started: Arc<AtomicUsize>,
        max: usize,
    }
    impl ReportSink for HeldBack {
        fn session(&mut self, r: &SessionReport) {
            let started = self.started.load(Ordering::SeqCst);
            self.max = self.max.max(started - (r.student + 1));
        }
    }
    let students = 2048;
    let started = Arc::new(AtomicUsize::new(0));
    let mut sink = HeldBack {
        started: Arc::clone(&started),
        max: 0,
    };
    Campus::new(students, 42)
        .threads(2)
        .workload(workload(1, 256))
        .configure_sessions(move |_, config| {
            started.fetch_add(1, Ordering::SeqCst);
            config
        })
        .run_with(&mut sink)
        .unwrap();
    assert!(
        sink.max < students / 4,
        "{} of {students} sessions held back at once",
        sink.max
    );
}

/// A session that dies mid-run (its database server crashes and never
/// restarts) still retires: the campus completes, the failure is
/// counted and folded into the digest, the dead session's trace is
/// tail-sampled — and all of it is thread-count invariant.
#[test]
fn crashed_session_retires_and_folds_into_the_rollup() {
    let w = workload(1, 2048);
    let campus = |threads: usize| {
        Campus::new(6, 77)
            .threads(threads)
            .workload(w.clone())
            .trace_sample_rate(0.0) // only tail sampling below
            .configure_sessions(|spec, config| {
                if spec.student == 3 {
                    // Student 3's server dies before the first fetch and
                    // never comes back; the bounded retry deadline turns
                    // that into a session failure instead of an endless
                    // ARQ storm.
                    config
                        .with_retry(
                            RetryPolicy::interactive().with_deadline(SimDuration::from_secs(2)),
                        )
                        .with_crash(SimTime::from_millis(1), 0)
                } else {
                    config
                }
            })
    };

    let base = campus(1).run().unwrap();
    assert_eq!(base.students, 6, "campus must complete despite the crash");
    assert_eq!(base.sessions_failed, 1);
    assert_eq!(base.metrics.counter("campus.sessions_failed"), Some(1));
    assert_eq!(base.metrics.counter("campus.sessions"), Some(6));
    assert_eq!(
        base.traces.len(),
        1,
        "the dead session must be tail-sampled"
    );
    assert_eq!(base.traces[0].student, 3);

    for threads in [2, 8] {
        let r = campus(threads).run().unwrap();
        assert_eq!(base.digest, r.digest, "threads={threads}");
        assert_eq!(base.metrics.to_json(), r.metrics.to_json());
        assert_eq!(base.traces_jsonl(), r.traces_jsonl());
        assert_eq!(r.sessions_failed, 1);
    }
}

/// The failure marker must reach the digest: a campus with the crash is
/// distinguishable from the same campus without it.
#[test]
fn failed_sessions_change_the_campus_digest() {
    let w = workload(1, 2048);
    let clean = Campus::new(4, 9)
        .threads(2)
        .workload(w.clone())
        .run()
        .unwrap();
    let faulty = Campus::new(4, 9)
        .threads(2)
        .workload(w.clone())
        .configure_sessions(|spec, config| {
            if spec.student == 2 {
                config
                    .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(2)))
                    .with_crash(SimTime::from_millis(1), 0)
            } else {
                config
            }
        })
        .run()
        .unwrap();
    assert_eq!(clean.sessions_failed, 0);
    assert_eq!(faulty.sessions_failed, 1);
    assert_ne!(clean.digest, faulty.digest);
}

/// Keeps every session's outcome, the rollup's digest, and where the
/// failed sessions' time landed.
#[derive(Default)]
struct Outcomes {
    sessions: Vec<(usize, bool, Option<String>, u64)>,
    digest: u64,
    failed: u64,
    /// Session-time samples past the histogram's range.
    slow_samples: u64,
    /// Shortest duration (µs) among the timeline windows a failed
    /// session retired in.
    failed_dur_us: Option<u64>,
}

impl ReportSink for Outcomes {
    fn session(&mut self, r: &SessionReport) {
        self.sessions
            .push((r.student, r.failed, r.error.clone(), r.digest));
    }

    fn trace(&mut self, _trace: &ShardTrace) {}

    fn rollup(&mut self, rollup: &CampusRollup) {
        self.digest = rollup.digest;
        self.failed = rollup.sessions_failed;
        self.slow_samples = rollup
            .metrics
            .histogram("campus.session_secs")
            .map_or(0, |h| h.overflow());
        self.failed_dur_us = rollup
            .timeline
            .iter()
            .filter(|(_, w)| w.sessions_failed > 0)
            .map(|(_, w)| w.dur_max_us)
            .min();
    }
}

/// A panic in one session — here in the configure hook, which runs
/// inside the session boundary — retires that session as failed and
/// nothing else: the campus completes, every other student is clean,
/// the failure names the panic, and the digest is the same on 1 and 2
/// threads. The next session on the same worker starts fresh. Its time
/// sample and timeline retirement land in the slow tail, not at zero.
/// A report sink that panics part-way through a campus: the panic
/// reaches the caller as itself, however many workers run, and no
/// worker panics on the lock it poisoned.
#[test]
fn a_panicking_sink_reaches_the_caller_as_itself() {
    struct Refuses;
    impl ReportSink for Refuses {
        fn session(&mut self, r: &SessionReport) {
            if r.student == 5 {
                panic!("sink refuses student 5");
            }
        }
    }
    let w = workload(1, 256);
    for threads in [1, 2, 8] {
        // 32 students make 8 batches for 2 threads and 32 for 8, so
        // every requested worker is spawned.
        let campus = Campus::new(32, 9).threads(threads).workload(w.clone());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            campus.run_with(&mut Refuses)
        }))
        .expect_err("the sink's panic propagates");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("sink refuses student 5"), "threads={threads}");
    }
}

#[test]
fn panicking_session_fails_alone() {
    let w = workload(1, 2048);
    let run = |threads: usize| {
        let mut out = Outcomes::default();
        Campus::new(12, 5)
            .threads(threads)
            .workload(w.clone())
            .configure_sessions(|spec, config| {
                assert!(spec.student != 7, "hook refuses student 7");
                config
            })
            .run_with(&mut out)
            .expect("a panicking session must not take the campus down");
        out
    };
    let one = run(1);
    assert_eq!(one.sessions.len(), 12);
    assert_eq!(one.failed, 1);
    for (student, failed, error, _) in &one.sessions {
        assert_eq!(*failed, *student == 7, "student {student}");
        if *student == 7 {
            let error = error.as_deref().unwrap_or_default();
            assert!(error.contains("hook refuses student 7"), "{error}");
        }
    }
    assert_eq!(one.slow_samples, 1, "the panicked session is the slow tail");
    assert!(
        one.failed_dur_us >= Some(60_000_000),
        "{:?}",
        one.failed_dur_us
    );
    let two = run(2);
    assert_eq!(one.digest, two.digest, "threads must not change the digest");
    assert_eq!(one.sessions, two.sessions);
    // Replaying the panicked session retires it again, as the campus
    // did: same digest and layers (seed, then the failure mark), failed.
    for threads in [1, 2] {
        let replay = Campus::new(12, 5)
            .threads(threads)
            .workload(w.clone())
            .configure_sessions(|spec, config| {
                assert!(spec.student != 7, "hook refuses student 7");
                config
            })
            .replay(7)
            .expect("the replay reports the panic instead of raising it");
        assert!(replay.digest_match && replay.breach_reproduced);
        assert!(replay.report.failed && replay.report.anomalous);
        let error = replay.report.error.as_deref().unwrap_or_default();
        assert!(error.contains("hook refuses student 7"), "{error}");
        assert!(
            replay.trace_jsonl.is_empty(),
            "an unwound session has no trace"
        );
    }
    let clean = Campus::new(12, 5).threads(1).workload(w).run().unwrap();
    assert_ne!(clean.digest, one.digest, "the failure reaches the digest");
}
