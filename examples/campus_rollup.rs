//! The campus rollup golden: two seeded campuses, each run on 1 and on
//! 2 worker threads, rendered as the digest, the merged metrics (JSON
//! and text), the SLO verdicts and the timeline.
//!
//! * `clean` — 200 students, one container and two 64 KiB clips, no
//!   faults.
//! * `storm` — 90 students over `sharded_workloads(3, 2, 64 KiB)` with
//!   per-shard replicas, a failback `FaultStorm` on shard 1 and 1e-3
//!   cell loss on each student's access link.
//!
//! `scripts/check.sh` diffs the output against
//! `tests/golden/campus_rollup.txt`, and `tests/campus_rollup.rs`
//! asserts the same bytes. Thread-count invariance alone cannot catch a
//! change to how the rollup is stored or merged that moves every value
//! alike; this golden does.
//!
//! Run with: `cargo run --release --example campus_rollup [-- --out rollup.txt]`

use bytes::Bytes;
use mits::atm::LinkFaults;
use mits::core::{
    sharded_workloads, Campus, CampusWorkload, ClientId, FaultStorm, MitsSystem, SystemConfig,
};
use mits::media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits::mheg::{ClassLibrary, GenericValue};
use mits::sim::{SimDuration, SimTime};
use std::fmt::Write as _;

const SEED: u64 = 42;
const CLIP_BYTES: usize = 64 * 1024;

/// One container plus two 64 KiB clips of patterned bytes.
fn clean_course() -> CampusWorkload {
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let media = (0..2)
        .map(|i| {
            let data: Vec<u8> = (0..CLIP_BYTES)
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

fn clean_campus(threads: usize) -> Campus {
    Campus::new(200, SEED)
        .threads(threads)
        .workload(clean_course())
}

fn storm_campus(threads: usize) -> Campus {
    let shards = 3;
    let mut storm = FaultStorm::new(
        shards,
        1,
        SimTime::from_millis(2),
        SimTime::from_millis(300),
    );
    storm.restart_at = Some(SimTime::from_millis(400));
    // Node ids depend only on the topology, so one probe build names
    // every session's access link.
    let probe = MitsSystem::build(&storm.apply(SystemConfig::broadband(1))).expect("probe build");
    let (host, switch) = (probe.client_host(ClientId(0)), probe.switch());
    let schedule = storm.schedule();
    Campus::new(90, SEED)
        .threads(threads)
        .workloads(sharded_workloads(shards, 2, CLIP_BYTES))
        .configure_sessions(move |_, base| {
            let config = storm.apply(base);
            let plan = config
                .fault_plan
                .clone()
                .with_link(host, switch, LinkFaults::loss(1e-3))
                .with_link(switch, host, LinkFaults::loss(1e-3));
            config.with_fault_plan(plan)
        })
        .fault_schedule(schedule)
}

/// The whole golden document.
pub fn render() -> String {
    let mut out = String::new();
    for name in ["clean", "storm"] {
        for threads in [1, 2] {
            let campus = match name {
                "clean" => clean_campus(threads),
                _ => storm_campus(threads),
            };
            let r = campus.run().expect("campus run");
            let _ = writeln!(out, "== {name} students={} threads={threads}", r.students);
            let _ = writeln!(out, "digest {:#018x}", r.digest);
            let _ = writeln!(out, "-- metrics.json\n{}", r.metrics.to_json());
            let _ = write!(out, "-- metrics.txt\n{}", r.metrics.to_text());
            let _ = writeln!(out, "-- slo.json\n{}", r.slo.to_json());
            let _ = writeln!(out, "-- timeline.json\n{}", r.timeline_json());
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let doc = render();
    match args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
    {
        Some(path) => std::fs::write(path, doc).expect("write rollup"),
        None => print!("{doc}"),
    }
}
