//! Per-link cell trains at system level. A sharded storm session with
//! 1e-3 cell loss on the student's access link rides cell trains on its
//! clean server hops and expands them into cells at the lossy hop. It
//! must be indistinguishable from the same session pinned to the
//! per-cell scheduler: the same fetched bytes and digest, session time,
//! store state and exported metrics JSON — apart from the counters that
//! say how cells were served.

use mits::atm::LinkFaults;
use mits::core::{
    sharded_workloads, CampusWorkload, ClientId, FaultStorm, MitsSystem, SystemConfig,
};
use mits::sim::{SimDuration, SimTime};

/// Metric names that count serve modes, which the two schedulers report
/// differently by design.
const SERVE_MODE: [&str; 4] = [
    "cells_trained",
    "cells_per_cell",
    "cells_parked",
    "net.train.",
];

#[derive(Debug, PartialEq)]
struct Outcome {
    digest: u64,
    bytes: u64,
    session: SimDuration,
    error: Option<String>,
    state_digest: u64,
    metrics: Vec<String>,
}

/// The campus rollup golden's storm: shard 1 crashes at 2 ms, its links
/// go down until 300 ms and its primary restarts at 400 ms, plus cell
/// loss both ways on the student's access link.
fn storm_config(seed: u64) -> SystemConfig {
    let mut storm = FaultStorm::new(3, 1, SimTime::from_millis(2), SimTime::from_millis(300));
    storm.restart_at = Some(SimTime::from_millis(400));
    let config = storm.apply(SystemConfig::broadband(1).with_seed(seed));
    let probe = MitsSystem::build(&config).expect("probe build");
    let (host, switch) = (probe.client_host(ClientId(0)), probe.switch());
    let plan = config
        .fault_plan
        .clone()
        .with_link(host, switch, LinkFaults::loss(1e-3))
        .with_link(switch, host, LinkFaults::loss(1e-3));
    config.with_fault_plan(plan)
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Top-level `"key":value` items of a flat JSON object whose values may
/// be nested objects, minus the serve-mode keys.
fn metric_items(json: &str) -> Vec<String> {
    let body = &json[1..json.len() - 1];
    let (mut items, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&body[start..]);
    items
        .into_iter()
        .filter(|item| !SERVE_MODE.iter().any(|name| item.contains(name)))
        .map(str::to_string)
        .collect()
}

/// One student session as a campus runs it: mount the published
/// courseware, fetch its closure, then every clip. Returns the outcome
/// and the train runs the network batched.
fn session(config: &SystemConfig, w: &CampusWorkload, per_cell: bool) -> (Outcome, u64) {
    let mut publisher = MitsSystem::build(config).expect("build publisher");
    publisher.load_doc(&w.objects, &w.media, w.root);
    let image = publisher.image().expect("publish");
    let mut sys = MitsSystem::build(config).expect("build");
    if per_cell {
        sys.net.force_per_cell();
    }
    sys.mount(&image).expect("mount");
    let student = ClientId(0);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut session = SimDuration::ZERO;
    let mut error = None;
    match sys.fetch_courseware(student, w.root) {
        Ok((objects, t)) => {
            session = t;
            digest = fnv(digest, &(objects.len() as u64).to_le_bytes());
            for m in &w.media {
                match sys.fetch_content(student, m.id) {
                    Ok((got, t)) => {
                        session += t;
                        digest = fnv(digest, &got.data);
                    }
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
            }
        }
        Err(e) => error = Some(e.to_string()),
    }
    sys.export_metrics();
    let outcome = Outcome {
        digest,
        bytes: sys.bytes_to_client(student),
        session,
        error,
        state_digest: sys.db().state_digest(),
        metrics: metric_items(&sys.metrics.snapshot().to_json()),
    };
    (outcome, sys.net.train_stats().runs)
}

#[test]
fn storm_session_with_lossy_access_link_matches_per_cell() {
    let workloads = sharded_workloads(3, 2, 64 * 1024);
    for seed in [42, 7] {
        let config = storm_config(seed);
        for (shard, w) in workloads.iter().enumerate() {
            let (batched, runs) = session(&config, w, false);
            let (per_cell, pinned_runs) = session(&config, w, true);
            assert_eq!(batched, per_cell, "seed {seed}, shard {shard}");
            assert_eq!(pinned_runs, 0, "force_per_cell must disable trains");
            assert!(
                batched
                    .metrics
                    .iter()
                    .any(|m| m.contains("atm.faults.random_losses")),
                "the filter kept the fault counters"
            );
            if shard != 1 {
                assert!(batched.error.is_none(), "healthy shard {shard} failed");
                assert!(runs > 0, "trains must ride the clean server hops");
            }
        }
    }
}
