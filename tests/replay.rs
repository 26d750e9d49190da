//! Replay faithfulness across the fault matrix (the replay
//! observatory's core guarantee): for every fault family the campus
//! supports — link loss, shard outage, crash/restart, replica
//! failover, and the full correlated fault storm — extracting any
//! session and re-running it standalone at maximum instrumentation
//! must reproduce the campus digest layer for layer *and* the
//! session's outcome flags, on 1 and 8 worker threads. Faithfulness is
//! a hard error inside `Campus::replay`, so these tests assert `Ok`
//! plus the report flags.

use bytes::Bytes;
use mits::atm::{FaultPlan, LinkFaults};
use mits::core::{fault_storm_slos, sharded_workloads, Campus, CampusWorkload, FaultStorm};
use mits::db::RetryPolicy;
use mits::media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits::mheg::{ClassLibrary, GenericValue};
use mits::sim::{derive_seed, SimDuration, SimTime};

const STUDENTS: usize = 6;

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

/// Replay `student` serially and 8-way, and assert the faithfulness
/// proof holds, the replay handle seed matches the campus derivation,
/// the outcome flags reproduce, and the extracted bundle itself is
/// schedule-invariant.
fn assert_faithful<F>(mk: F, base_seed: u64, student: usize, expect_failed: Option<bool>)
where
    F: Fn() -> Campus,
{
    let population = {
        let r = mk().replay(student).expect("baseline replay is faithful");
        assert_eq!(r.bundle.seed, derive_seed(base_seed, student as u64));
        r
    };
    for threads in [1, 8] {
        let r = mk()
            .threads(threads)
            .replay(student)
            .unwrap_or_else(|e| panic!("replay unfaithful at {threads} threads: {e}"));
        assert!(r.digest_match, "digest proof at {threads} threads");
        assert!(
            r.breach_reproduced,
            "outcome flags reproduce at {threads} threads"
        );
        assert_eq!(r.bundle.student, student);
        if let Some(failed) = expect_failed {
            assert_eq!(r.bundle.failed, failed, "campaign outcome as staged");
            assert_eq!(r.report.failed, failed, "replayed outcome as staged");
        }
        // The extracted bundle never depends on the schedule that ran it.
        assert_eq!(r.bundle, population.bundle, "bundle at {threads} threads");
        assert_eq!(
            r.report.layers.final_digest(),
            Some(r.bundle.digest),
            "layer trace folds to the proven digest"
        );
    }
}

/// Random cell loss on every link: the session's retransmissions are
/// seed-driven, so the solo re-run must walk the identical recovery
/// path the campus run took.
#[test]
fn replay_is_faithful_under_link_loss() {
    // Clips stay small: loss applies per cell, so a PDU's survival
    // odds shrink exponentially with its cell count and a large clip
    // would never reassemble.
    let w = workload(2, 2_048);
    let mk = move || {
        Campus::new(STUDENTS, 42)
            .workload(w.clone())
            .configure_sessions(|_, base| {
                base.with_fault_plan(FaultPlan::uniform(LinkFaults::loss(0.01)))
                    .with_retry(
                        RetryPolicy::interactive().with_deadline(SimDuration::from_secs(120)),
                    )
            })
    };
    assert_faithful(mk, 42, 3, Some(false));
}

/// A shard-wide link outage that clears: sessions on the dark shard
/// stall and retry through the window, and the replay reproduces the
/// stall timing exactly.
#[test]
fn replay_is_faithful_under_shard_outage() {
    let mk = || {
        Campus::new(STUDENTS, 7)
            .workloads(sharded_workloads(2, 2, 30_000))
            .configure_sessions(|_, base| {
                base.with_shards(2)
                    .with_retry(
                        RetryPolicy::interactive().with_deadline(SimDuration::from_secs(30)),
                    )
                    .with_shard_outage(1, SimTime::from_millis(1), SimTime::from_millis(40))
            })
    };
    // Student 1 lives on the darkened shard 1.
    assert_faithful(mk, 7, 1, None);
}

/// Primary crash followed by a restart: the recovery (reconnect,
/// replayed WAL, resumed fetches) is part of the digest, so the solo
/// re-run must recover identically.
#[test]
fn replay_is_faithful_across_crash_and_restart() {
    let w = workload(2, 30_000);
    let mk = move || {
        Campus::new(STUDENTS, 11)
            .workload(w.clone())
            .configure_sessions(|_, base| {
                base.with_retry(
                    RetryPolicy::interactive().with_deadline(SimDuration::from_secs(30)),
                )
                .with_crash(SimTime::from_millis(1), 0)
                .with_restart(SimTime::from_millis(20), 0)
            })
    };
    assert_faithful(mk, 11, 2, None);
}

/// Primary crash with a live replica: the failover handoff must land
/// on the same replica state at the same virtual instant in the
/// replay.
#[test]
fn replay_is_faithful_across_replica_failover() {
    let w = workload(2, 30_000);
    let mk = move || {
        Campus::new(STUDENTS, 13)
            .workload(w.clone())
            .configure_sessions(|_, base| {
                base.with_replica()
                    .with_retry(
                        RetryPolicy::interactive().with_deadline(SimDuration::from_secs(30)),
                    )
                    .with_crash(SimTime::from_millis(1), 0)
            })
    };
    assert_faithful(mk, 13, 4, None);
}

/// The full correlated storm (crash pair + shard-wide outage): the
/// victim's session *fails* at the retry deadline in the campaign, and
/// the replay must reproduce that breach — failure marker in the
/// digest, `failed` flag, and all.
#[test]
fn replay_reproduces_the_storm_victims_breach() {
    let storm = FaultStorm::new(3, 1, SimTime::from_millis(2), SimTime::from_secs(120));
    let mk = move || {
        let s = storm.clone();
        Campus::new(9, 42)
            .workloads(sharded_workloads(3, 2, 60_000))
            .slos(fault_storm_slos(1.0 / 3.0))
            .configure_sessions(move |_, base| s.apply(base))
            .fault_schedule(storm.schedule())
    };
    // Student 1 lives on victim shard 1 (student % shards).
    assert_faithful(&mk, 42, 1, Some(true));

    // The bundle carries the fault-schedule slice covering the breach,
    // and the weathermap covers every hop the victim's cells crossed.
    let r = mk().replay(1).expect("storm victim replays faithfully");
    assert_eq!(r.bundle.faults.len(), 1);
    assert_eq!(r.bundle.faults[0].label, "fault_storm.shard1");
    assert!(!r.route.is_empty(), "victim route captured");
    assert!(
        r.weathermap.starts_with("{\"t\":\"weathermap\",\"v\":1,"),
        "versioned weathermap: {}",
        &r.weathermap[..60.min(r.weathermap.len())]
    );
    for (from, to) in &r.route {
        assert!(
            r.weathermap
                .contains(&format!("\"from\":\"{from}\",\"to\":\"{to}\"")),
            "weathermap misses hop {from}->{to}"
        );
    }
    assert!(!r.trace_jsonl.is_empty(), "trace kept at rate 1.0");
    assert!(!r.waterfall.is_empty(), "waterfall renders the replay");
    assert!(!r.profile_top.is_empty(), "profiler renders the replay");
}

/// A student outside the population is a named error, not a replay.
#[test]
fn replay_rejects_unknown_students() {
    let w = workload(1, 4_096);
    let campus = Campus::new(3, 5).workload(w);
    let err = campus.replay(99).unwrap_err();
    assert!(
        err.to_string().contains("outside this campus"),
        "names the population: {err}"
    );
}
