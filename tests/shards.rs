//! The partitioned courseware store, end to end: a seeded fault storm
//! whose blast radius is exactly the victim shard, scatter/gather
//! queries that degrade to partial results instead of hanging, and a
//! campus-edge cache whose entries are fenced by failover epochs.

use mits::author::{
    compile_imd, CompiledCourseware, ElementKind, ImDocument, Scene, Section, Subsection,
    TimelineEntry,
};
use mits::core::system::SystemError;
use mits::core::{
    fault_storm_slos, sharded_workloads, Campus, CampusRollup, ClientId, FaultStorm, MitsSystem,
    ReportSink, SessionReport, SystemConfig,
};
use mits::db::{RetryPolicy, ShardRouter};
use mits::media::{CaptureSpec, MediaFormat, MediaObject, ProductionCenter, VideoDims};
use mits::mheg::MhegId;
use mits::sim::{SimDuration, SimTime};

const SHARDS: usize = 3;
const STUDENTS: usize = 9;
const VICTIM: usize = 1;

/// The reference storm: at 2 ms (mid-session — each clip takes ~15 ms
/// to cross OC-3) the victim shard's primary and replica crash together
/// and the group's links stay down for the rest of the session.
fn storm() -> FaultStorm {
    FaultStorm::new(
        SHARDS,
        VICTIM,
        SimTime::from_millis(2),
        SimTime::from_secs(120),
    )
}

/// Collects per-session outcomes in student order plus the rollup SLOs.
#[derive(Default)]
struct OutcomeSink {
    digests: Vec<(usize, u64)>,
    failed: Vec<usize>,
    anomalous: Vec<usize>,
    slo_json: String,
    breaches: usize,
}

impl ReportSink for OutcomeSink {
    fn session(&mut self, r: &SessionReport) {
        self.digests.push((r.student, r.digest));
        if r.failed {
            self.failed.push(r.student);
        }
        if r.anomalous {
            self.anomalous.push(r.student);
        }
    }
    fn rollup(&mut self, rollup: &CampusRollup) {
        self.slo_json = rollup.slo.to_json();
        self.breaches = rollup.slo.breaches();
    }
}

fn run_campaign(seed: u64, stormy: bool) -> OutcomeSink {
    let s = storm();
    let mut sink = OutcomeSink::default();
    Campus::new(STUDENTS, seed)
        .threads(2)
        .workloads(sharded_workloads(SHARDS, 2, 300_000))
        .slos(fault_storm_slos(1.0 / SHARDS as f64))
        .configure_sessions(move |_, base| {
            if stormy {
                s.apply(base)
            } else {
                s.apply_calm(base)
            }
        })
        .run_with(&mut sink)
        .unwrap();
    sink
}

/// The survival gate: killing shard k mid-campus degrades *only* the
/// sessions whose working set hashes to shard k. Every healthy-shard
/// session's digest is byte-identical to its storm-free twin, and the
/// storm SLOs — which budget exactly the victim's share of sessions —
/// report zero breaches.
#[test]
fn storm_blast_radius_is_exactly_the_victim_shard() {
    let hit = run_campaign(77, true);
    let twin = run_campaign(77, false);

    let victims: Vec<usize> = (0..STUDENTS).filter(|s| s % SHARDS == VICTIM).collect();
    assert_eq!(hit.failed, victims, "exactly the victim residue class");
    assert_eq!(hit.anomalous, victims, "healthy sessions saw nothing");
    assert!(twin.failed.is_empty(), "the calm twin is storm-free");
    assert!(twin.anomalous.is_empty());

    for (&(s, d), &(ts, td)) in hit.digests.iter().zip(&twin.digests) {
        assert_eq!(s, ts, "sessions stream in student order");
        if s % SHARDS == VICTIM {
            assert_ne!(d, td, "victim session {s} must feel the storm");
        } else {
            assert_eq!(d, td, "healthy session {s} must be byte-identical");
        }
    }
    assert_eq!(hit.breaches, 0, "blast radius leaked: {}", hit.slo_json);
    assert_eq!(twin.breaches, 0, "{}", twin.slo_json);
}

/// The storm is deterministic under its seed: same seed, same campus
/// digest and metrics bytes; a different seed moves the digest.
#[test]
fn fault_storm_is_deterministic_under_seed() {
    let run = |seed: u64| {
        let s = storm();
        Campus::new(STUDENTS, seed)
            .threads(2)
            .workloads(sharded_workloads(SHARDS, 2, 300_000))
            .slos(fault_storm_slos(1.0 / SHARDS as f64))
            .configure_sessions(move |_, base| s.apply(base))
            .run()
            .unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.digest, b.digest, "same seed, same storm");
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.slo.to_json(), b.slo.to_json());
    let c = run(6);
    assert_ne!(a.digest, c.digest, "the seed must reach the storm digest");
}

/// One keyworded courseware per shard, built the way
/// `tests/concurrency.rs` builds its loaded server: a one-scene document
/// tagged `telecom/atm` around a captured video clip. Application ids
/// are scanned until each root lands on its own shard.
fn keyworded_docs() -> Vec<(CompiledCourseware, Vec<MediaObject>)> {
    let router = ShardRouter::new(SHARDS);
    let mut studio = ProductionCenter::new(21);
    let mut app = 1000;
    (0..SHARDS)
        .map(|d| {
            let clip = studio.capture(&CaptureSpec::video(
                format!("clip{d}.mpg"),
                MediaFormat::Mpeg,
                SimDuration::from_millis(300),
                VideoDims::new(160, 120),
            ));
            let mut doc = ImDocument::new(&format!("Keyword Course {d}"));
            doc.keywords = vec!["telecom/atm".into()];
            doc.sections.push(Section {
                title: "s".into(),
                subsections: vec![Subsection {
                    title: "ss".into(),
                    scenes: vec![Scene::new("only")
                        .element("v", ElementKind::Media((&clip).into()))
                        .entry(TimelineEntry::at_start("v"))],
                }],
            });
            let compiled = loop {
                app += 1;
                let compiled = compile_imd(app, &doc);
                if router.shard_for_object(compiled.root) == d {
                    break compiled;
                }
            };
            (compiled, vec![clip])
        })
        .collect()
}

/// Scatter/gather queries against a ring with a dead shard degrade to
/// the reachable shards' results — bounded by the client's retry
/// deadline, never the hour-long call timeout, and never a hang. With
/// no shard reachable they fail instead of answering empty.
#[test]
fn scatter_gather_degrades_to_partial_results_not_a_hang() {
    let workloads = sharded_workloads(SHARDS, 1, 40_000);
    let docs = keyworded_docs();
    let cfg = SystemConfig::broadband(1)
        .with_shards(SHARDS)
        .with_retry(RetryPolicy::interactive())
        .with_shard_crash(SimTime::from_millis(1), VICTIM, 0);
    let mut sys = MitsSystem::build(&cfg).unwrap();
    for w in &workloads {
        sys.load_doc(&w.objects, &w.media, w.root);
    }
    for (c, media) in &docs {
        sys.load_doc(&c.objects, media, c.root);
    }

    let (all, _) = sys.get_list_doc(ClientId(0)).unwrap();
    assert_eq!(
        all.len(),
        2 * SHARDS,
        "two documents per shard before the crash"
    );

    sys.pump_until(SimTime::from_millis(2)).unwrap();
    assert!(!sys.server_up(sys.server_index(VICTIM, 0)), "victim down");

    let before = sys.now();
    let (partial, _) = sys.get_list_doc(ClientId(0)).unwrap();
    assert_eq!(
        partial.len(),
        2 * (SHARDS - 1),
        "victim's entries degraded away"
    );
    assert!(partial
        .iter()
        .all(|(id, _)| sys.shard_of_object(*id) != VICTIM));
    assert!(sys.scatter_partial >= 1, "the degradation was counted");
    assert!(
        sys.now().since(before) <= SimDuration::from_secs(11),
        "the dead leg resolved at the client's 10 s deadline, not the call timeout"
    );

    // The keyword query and the keyword tree scatter the same way:
    // reachable shards merge, the dead one contributes nothing, and the
    // call still returns.
    let mut reachable: Vec<MhegId> = docs
        .iter()
        .map(|(c, _)| c.root)
        .filter(|r| sys.shard_of_object(*r) != VICTIM)
        .collect();
    reachable.sort();
    assert_eq!(reachable.len(), SHARDS - 1);
    let (ids, _) = sys.get_doc_by_keyword(ClientId(0), "telecom").unwrap();
    assert_eq!(ids, reachable, "exactly the reachable shards' documents");
    let (tree, _) = sys.get_keyword_tree(ClientId(0)).unwrap();
    assert_eq!(tree.lookup_subtree("telecom"), reachable);

    // With every shard's primary down no leg answers: each gathered
    // facade fails with a leg's error instead of an empty Ok.
    let mut cfg = SystemConfig::broadband(1)
        .with_shards(SHARDS)
        .with_retry(RetryPolicy::interactive());
    for shard in 0..SHARDS {
        cfg = cfg.with_shard_crash(SimTime::from_millis(1), shard, 0);
    }
    let mut dark = MitsSystem::build(&cfg).unwrap();
    for (c, media) in &docs {
        dark.load_doc(&c.objects, media, c.root);
    }
    dark.pump_until(SimTime::from_millis(2)).unwrap();
    assert!(matches!(
        dark.get_list_doc(ClientId(0)),
        Err(SystemError::Db(_))
    ));
    assert!(matches!(
        dark.get_keyword_tree(ClientId(0)),
        Err(SystemError::Db(_))
    ));
    assert!(matches!(
        dark.get_doc_by_keyword(ClientId(0), "telecom"),
        Err(SystemError::Db(_))
    ));
}

/// A hot-document flash crowd with the edge tier on: the origin serves
/// the document once, every later client is absorbed at the campus
/// edge, and origin requests never exceed misses + invalidations.
#[test]
fn flash_crowd_is_absorbed_at_the_campus_edge() {
    const CLIENTS: usize = 8;
    let workloads = sharded_workloads(SHARDS, 1, 100_000);
    let hot = workloads[0].media[0].clone();
    let build = |edge_bytes: usize| {
        let cfg = SystemConfig::broadband(CLIENTS)
            .with_shards(SHARDS)
            .with_edge_cache(edge_bytes);
        let mut sys = MitsSystem::build(&cfg).unwrap();
        for w in &workloads {
            sys.load_doc(&w.objects, &w.media, w.root);
        }
        sys
    };

    let mut warm = build(4 << 20);
    for c in 0..CLIENTS {
        let (m, _) = warm.fetch_content(ClientId(c), hot.id).unwrap();
        assert_eq!(m.data, hot.data, "edge hits serve the same bytes");
    }
    let edge = warm.edge_cache().unwrap();
    assert_eq!(edge.origin_requests, 1, "origin saw the crowd once");
    assert_eq!(edge.misses, 1);
    assert_eq!(edge.hits, CLIENTS as u64 - 1);
    assert!(
        edge.origin_requests <= edge.misses + edge.invalidations,
        "origin load is bounded by misses + invalidations"
    );
    assert_eq!(warm.requests_sent, 1, "one wire request total");

    // The same crowd without the edge tier hits the origin every time.
    let mut cold = build(0);
    for c in 0..CLIENTS {
        cold.fetch_content(ClientId(c), hot.id).unwrap();
    }
    assert!(cold.edge_cache().is_none());
    assert_eq!(
        cold.requests_sent, CLIENTS as u64,
        "every client paid origin"
    );
}

/// Epoch fencing at the edge: entries filled under the deposed
/// primary's epoch are evicted — counted as invalidations, never served
/// — once any response from the promoted replica raises the shard's
/// floor. After the invalidation the edge refills at the new epoch and
/// serves hits again, including across failback.
#[test]
fn failover_fences_edge_entries_filled_by_the_deposed_primary() {
    let workloads = sharded_workloads(SHARDS, 1, 60_000);
    let hot = workloads[0].media[0].clone();
    let hot_shard = 0usize;
    let cfg = SystemConfig::broadband(3)
        .with_shards(SHARDS)
        .with_replica()
        .with_edge_cache(4 << 20)
        .with_retry(RetryPolicy::interactive())
        .with_shard_crash(SimTime::from_millis(40), hot_shard, 0)
        .with_shard_restart(SimTime::from_secs(2), hot_shard, 0);
    let mut sys = MitsSystem::build(&cfg).unwrap();
    for w in &workloads {
        sys.load_doc(&w.objects, &w.media, w.root);
    }

    // Client 0 warms the edge under the original primary's epoch.
    sys.fetch_content(ClientId(0), hot.id).unwrap();
    {
        let edge = sys.edge_cache().unwrap();
        assert_eq!((edge.origin_requests, edge.invalidations), (1, 0));
    }

    // The primary dies; client 1's courseware fetch fails over to the
    // replica and its promoted epoch raises the edge's shard floor.
    sys.pump_until(SimTime::from_millis(45)).unwrap();
    assert!(!sys.server_up(sys.server_index(hot_shard, 0)));
    sys.fetch_courseware(ClientId(1), workloads[0].root)
        .unwrap();
    assert!(sys.failovers >= 1, "client 1 rotated to the replica");

    // Client 1's media fetch finds the stale-epoch entry: it must be
    // evicted (an invalidation, not a hit) and refilled from the
    // replica at the promoted epoch.
    let (m, _) = sys.fetch_content(ClientId(1), hot.id).unwrap();
    assert_eq!(m.data, hot.data);
    {
        let edge = sys.edge_cache().unwrap();
        assert_eq!(edge.invalidations, 1, "stale entry evicted, not served");
        assert_eq!(edge.origin_requests, 2, "the eviction went back to origin");
        assert_eq!(edge.hits, 0, "the fenced entry never counted as a hit");
    }

    // After failback the refilled entry is current: client 2 hits.
    // (The failover fetch burned its 500 ms attempt timeout, so the
    // clock is far past the crash by now; the restart lands at 2 s.)
    sys.pump_until(SimTime::from_secs(3)).unwrap();
    assert!(sys.server_up(sys.server_index(hot_shard, 0)), "failed back");
    let (m, dt) = sys.fetch_content(ClientId(2), hot.id).unwrap();
    assert_eq!(m.data, hot.data);
    assert_eq!(dt, SimDuration::ZERO, "served at the edge");
    {
        let edge = sys.edge_cache().unwrap();
        assert_eq!(edge.hits, 1);
        assert_eq!(edge.invalidations, 1, "no further evictions");
        assert!(edge.origin_requests <= edge.misses + edge.invalidations);
    }
}

/// The classic single-shard deployment is untouched by all of this: a
/// `shards = 1` config routes every request to the one store and keeps
/// the scatter counters dark.
#[test]
fn single_shard_deployment_never_scatters() {
    let workloads = sharded_workloads(1, 1, 20_000);
    let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
    let w = &workloads[0];
    sys.load_doc(&w.objects, &w.media, w.root);
    sys.get_list_doc(ClientId(0)).unwrap();
    sys.fetch_courseware(ClientId(0), w.root).unwrap();
    sys.fetch_content(ClientId(0), w.media[0].id).unwrap();
    assert_eq!(sys.shards(), 1);
    assert_eq!(sys.scatter_queries, 0, "no scatter on one shard");
    assert!(sys.edge_cache().is_none(), "no edge tier unless configured");
}
