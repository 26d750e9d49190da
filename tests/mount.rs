//! Course images: an installation that mounts a published image must be
//! byte-identical to one that journals the same courseware with
//! `load_doc` — on every server, for every shard/replica layout, and
//! still after a checkpoint and after a crash and restart. Mounting
//! anything but a fresh installation of the image's own layout is an
//! error, never a panic.

use bytes::Bytes;
use mits::core::system::SystemError;
use mits::core::{sharded_workloads, CampusWorkload, ClientId, MitsSystem, SystemConfig};
use mits::media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits::mheg::{ClassLibrary, GenericValue};
use mits::sim::{SimDuration, SimTime};

/// The campus benchmark's courseware: one container over a value, plus
/// two 64 KiB clips.
fn campus_course() -> CampusWorkload {
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let media = (0..2u64)
        .map(|i| {
            let data: Vec<u8> = (0..64 * 1024u64)
                .map(|j| ((i * 31 + j * 7) % 253) as u8)
                .collect();
            MediaObject::new(
                MediaId(1000 + i),
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

fn coursewares() -> Vec<(&'static str, Vec<CampusWorkload>)> {
    vec![
        ("campus course", vec![campus_course()]),
        ("sharded workloads", sharded_workloads(3, 2, 64 * 1024)),
    ]
}

fn layout(shards: usize, replica: bool) -> SystemConfig {
    let config = SystemConfig::broadband(1).with_shards(shards);
    if replica {
        config.with_replica()
    } else {
        config
    }
}

fn load_doc(config: &SystemConfig, w: &CampusWorkload) -> MitsSystem {
    let mut sys = MitsSystem::build(config).expect("build");
    sys.load_doc(&w.objects, &w.media, w.root);
    sys
}

/// The same config and courseware twice: journaled with `load_doc`, and
/// mounted from an image published by a third, throwaway installation.
fn twins(config: &SystemConfig, w: &CampusWorkload) -> (MitsSystem, MitsSystem) {
    let image = load_doc(config, w).image().expect("publish");
    let mut mounted = MitsSystem::build(config).expect("build");
    mounted.mount(&image).expect("mount");
    (load_doc(config, w), mounted)
}

fn metrics_json(sys: &MitsSystem) -> String {
    sys.export_metrics();
    sys.metrics.snapshot().to_json()
}

fn assert_same(journaled: &MitsSystem, mounted: &MitsSystem, what: &str) {
    assert_eq!(journaled.server_count(), mounted.server_count(), "{what}");
    for i in 0..journaled.server_count() {
        let (a, b) = (journaled.db_at(i), mounted.db_at(i));
        assert!(
            a.wal_contents() == b.wal_contents(),
            "{what}: server {i} WAL device bytes differ"
        );
        assert_eq!(a.wal_next_seq(), b.wal_next_seq(), "{what}: server {i}");
        assert_eq!(a.state_digest(), b.state_digest(), "{what}: server {i}");
    }
    assert_eq!(
        metrics_json(journaled),
        metrics_json(mounted),
        "{what}: exported metrics"
    );
}

#[test]
fn mounted_installations_match_load_doc_across_layouts() {
    for (name, workloads) in coursewares() {
        for shards in [1, 3] {
            for replica in [false, true] {
                let config = layout(shards, replica);
                for (wi, w) in workloads.iter().enumerate() {
                    let what = format!("{name}[{wi}] shards={shards} replica={replica}");
                    let (journaled, mounted) = twins(&config, w);
                    assert!(
                        (0..mounted.server_count()).any(|i| mounted.db_at(i).wal_device_len() > 0),
                        "{what}: publication journaled"
                    );
                    assert_same(&journaled, &mounted, &what);
                    for sys in [&journaled, &mounted] {
                        for i in 0..sys.server_count() {
                            sys.db_at(i).checkpoint().expect("durable");
                        }
                    }
                    assert_same(&journaled, &mounted, &format!("{what}, checkpointed"));
                }
            }
        }
    }
}

#[test]
fn mounted_installations_recover_like_load_doc_after_crash_and_restart() {
    for (name, workloads) in coursewares() {
        for shards in [1, 3] {
            for replica in [false, true] {
                let mut config = layout(shards, replica);
                // Every server dies at 1 ms and comes back at 2 ms, in
                // index order: a restarted replica resyncs from its
                // already-restarted primary.
                let servers = shards * (1 + usize::from(replica));
                for target in 0..servers as u32 {
                    config = config
                        .with_crash(SimTime::from_millis(1), target)
                        .with_restart(SimTime::from_millis(2), target);
                }
                for checkpoint_first in [false, true] {
                    let w = &workloads[0];
                    let what = format!(
                        "{name} shards={shards} replica={replica} checkpoint={checkpoint_first}"
                    );
                    let (mut journaled, mut mounted) = twins(&config, w);
                    for sys in [&mut journaled, &mut mounted] {
                        if checkpoint_first {
                            for i in 0..sys.server_count() {
                                sys.db_at(i).checkpoint().expect("durable");
                            }
                        }
                        sys.pump_until(SimTime::from_millis(5)).expect("pump");
                    }
                    let replayed = |sys: &MitsSystem| {
                        sys.export_metrics();
                        (0..sys.server_count())
                            .map(|i| {
                                let name = format!("db.server{i}.wal.bytes_replayed");
                                sys.metrics.get_counter(&name).unwrap_or(0)
                            })
                            .collect::<Vec<u64>>()
                    };
                    assert!(
                        replayed(&mounted).iter().sum::<u64>() > 0,
                        "{what}: restarts replayed the mounted journal"
                    );
                    assert_eq!(replayed(&journaled), replayed(&mounted), "{what}");
                    let last =
                        |sys: &MitsSystem| sys.last_recovery.as_ref().map(|r| r.replayed_bytes());
                    assert_eq!(last(&journaled), last(&mounted), "{what}");
                    assert_same(&journaled, &mounted, &format!("{what}, restarted"));
                }
            }
        }
    }
}

#[test]
fn mount_refuses_used_or_mismatched_installations() {
    let w = campus_course();
    let config = layout(1, false);
    let image = load_doc(&config, &w).image().expect("publish");
    let refused = |r: Result<(), SystemError>| matches!(r, Err(SystemError::Protocol(_)));

    // Not fresh: the courseware is already journaled, or already mounted.
    assert!(refused(load_doc(&config, &w).mount(&image)));
    let mut twice = MitsSystem::build(&config).expect("build");
    twice.mount(&image).expect("first mount");
    assert!(refused(twice.mount(&image)));

    // Not fresh: the installation has served a request.
    let mut used = MitsSystem::build(&config).expect("build");
    let _ = used.fetch_courseware(ClientId(0), w.root);
    assert!(refused(used.mount(&image)));

    // Mismatched layout: shard count or replica differs.
    for other in [layout(3, false), layout(1, true), layout(3, true)] {
        let mut sys = MitsSystem::build(&other).expect("build");
        assert!(refused(sys.mount(&image)), "{other:?}");
        assert!(
            sys.db().is_fresh(),
            "a refused mount leaves the servers untouched"
        );
    }

    // An installation that did more than publish cannot be imaged.
    let mut served = load_doc(&config, &w);
    served.fetch_courseware(ClientId(0), w.root).expect("fetch");
    assert!(served.image().is_err());
}
