//! The flight-recorder forensics layer, end to end: the windowed
//! telemetry timeline and exemplar selection must be byte-identical
//! across thread counts, and a seeded fault storm
//! must auto-produce a reproducible incident bundle whose causal chain
//! names the injected fault on the correct shard.

use mits::core::{fault_storm_slos, sharded_workloads, Campus, CampusReport, FaultStorm};
use mits::sim::{derive_seed, Exemplar, SimTime};

const SHARDS: usize = 3;
const STUDENTS: usize = 9;
const VICTIM: usize = 1;

fn storm() -> FaultStorm {
    FaultStorm::new(
        SHARDS,
        VICTIM,
        SimTime::from_millis(2),
        SimTime::from_secs(120),
    )
}

fn run_campaign(threads: usize, stormy: bool) -> CampusReport {
    let s = storm();
    let mut campus = Campus::new(STUDENTS, 42)
        .threads(threads)
        .workloads(sharded_workloads(SHARDS, 2, 100_000))
        .slos(fault_storm_slos(1.0 / SHARDS as f64))
        .configure_sessions(move |_, base| {
            if stormy {
                s.apply(base)
            } else {
                s.apply_calm(base)
            }
        });
    if stormy {
        campus = campus.fault_schedule(storm().schedule());
    }
    campus.run().unwrap()
}

/// Exemplars of the merged session-duration histogram, as comparable
/// tuples (value bits, trace, span, instant).
fn exemplar_keys(report: &CampusReport) -> Vec<(u64, u64, u64, u64)> {
    report
        .metrics
        .histogram("campus.session_secs")
        .map(|h| {
            h.exemplars()
                .map(|e: &Exemplar| (e.value.to_bits(), e.trace_id, e.span_id, e.at.as_micros()))
                .collect()
        })
        .unwrap_or_default()
}

/// The determinism gate for the new surfaces: timeline JSON, forensic
/// bundle JSON and exemplar identities are byte-identical whether the
/// campus runs serially, on two workers or on eight.
#[test]
fn timeline_and_bundles_are_byte_identical_across_schedules() {
    let serial = run_campaign(1, true);
    let wide = run_campaign(8, true);
    let narrow = run_campaign(2, true);

    assert_eq!(serial.digest, wide.digest);
    assert_eq!(serial.digest, narrow.digest);

    let tl = serial.timeline_json();
    assert!(tl.starts_with("{\"v\":1,"), "versioned timeline: {tl}");
    assert_eq!(tl, wide.timeline_json());
    assert_eq!(tl, narrow.timeline_json());

    let fx = serial.forensics_json();
    assert_eq!(fx, wide.forensics_json());
    assert_eq!(fx, narrow.forensics_json());

    let ex = exemplar_keys(&serial);
    assert!(!ex.is_empty(), "merged histogram keeps exemplars");
    assert_eq!(ex, exemplar_keys(&wide));
    assert_eq!(ex, exemplar_keys(&narrow));
}

/// A seeded storm campaign auto-produces at least one bundle whose
/// causal chain starts at the injected fault, labelled with the victim
/// shard and its onset window; a second identical campaign reproduces
/// the bundles byte for byte, and the calm twin produces none.
#[test]
fn storm_bundle_names_the_injected_fault_and_reproduces() {
    let hit = run_campaign(2, true);
    assert!(!hit.forensics.is_empty(), "storm must yield a bundle");
    for b in &hit.forensics {
        let suspect = b.suspect.as_ref().expect("bundle aligns with the storm");
        assert_eq!(suspect.label, format!("fault_storm.shard{VICTIM}"));
        assert_eq!(suspect.shard, VICTIM as u64);
        assert_eq!(suspect.onset, SimTime::from_millis(2));
        // The chain leads with the fault, inside the breach window.
        let first = &b.chain[0];
        assert_eq!(first.stage, "fault");
        assert!(first.label.contains(&format!("shard {VICTIM}")));
        assert!(b.window_start <= suspect.onset && suspect.onset < b.window_end);
        assert!(!b.students.is_empty());
        // Every bundle exemplar resolves to a sampled trace: anomalous
        // sessions are always tail-sampled, so the flight recorder, the
        // exemplar and the trace tell one joined-up story.
        for e in &b.exemplars {
            assert!(
                hit.traces.iter().any(|t| t.student as u64 == e.trace_id),
                "exemplar trace {} not sampled",
                e.trace_id
            );
        }
        // Every implicated student ships with a ready-to-run replay
        // handle whose seed matches the campus derivation, so
        // `Campus::replay` can re-run the victim without guessing.
        assert_eq!(b.replays.len(), b.students.len());
        for (&s, &(rs, seed)) in b.students.iter().zip(&b.replays) {
            assert_eq!(rs, s);
            assert_eq!(seed, derive_seed(42, s));
        }
    }

    let again = run_campaign(2, true);
    assert_eq!(hit.forensics_json(), again.forensics_json());
    assert_eq!(hit.timeline_json(), again.timeline_json());

    let calm = run_campaign(2, false);
    assert!(calm.forensics.is_empty(), "calm twin stays incident-free");
    assert_eq!(calm.forensics_json(), "[]");
}
