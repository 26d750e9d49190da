//! Seeded workload inputs. Every byte and every fault placement the
//! program receives is generated here from the workload seed; the
//! program itself never sees the seed except as the campus base seed.

use bytes::Bytes;
use mits_atm::LinkFaults;
use mits_core::system::SystemError;
use mits_core::{
    sharded_workloads, CampusWorkload, ClientId, FaultStorm, MitsSystem, SessionSpec, SystemConfig,
};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{ClassLibrary, GenericValue};
use mits_sim::{derive_seed, SimDuration, SimTime};
use std::sync::Arc;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Per-student `SystemConfig` hook, shared by the campus run and the
/// traced replay so both build exactly the same sessions.
pub type Hook = Arc<dyn Fn(&SessionSpec, SystemConfig) -> SystemConfig + Send + Sync>;

/// Stream labels, so the inputs drawn from one seed are independent.
const CLIP_STREAM: u64 = 0xC11B;
const VICTIM_STREAM: u64 = 0xFA17;
const ORDER_STREAM: u64 = 0x0D3E;
const LECTURE_NET_STREAM: u64 = 0x1EC7;

/// `len` pseudo-random bytes drawn from `seed` (SplitMix64 words).
pub fn seeded_bytes(seed: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len.next_multiple_of(8));
    for word in 0..len.div_ceil(8) as u64 {
        out.extend_from_slice(&derive_seed(seed, word).to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

fn clip(seed: u64, id: MediaId, name: String, len: usize) -> MediaObject {
    MediaObject::new(
        id,
        name,
        MediaFormat::Mpeg,
        SimDuration::from_secs(1),
        VideoDims::new(320, 240),
        seeded_bytes(derive_seed(seed ^ CLIP_STREAM, id.0), len),
    )
}

/// The `tables --exp campus` courseware: a one-container closure plus
/// two 64 KiB MPEG clips, with clip contents drawn from `seed`.
pub fn campus_course(seed: u64) -> CampusWorkload {
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let media = (0..2)
        .map(|i| clip(seed, MediaId(1000 + i), format!("clip{i}.mpg"), 64 * 1024))
        .collect();
    CampusWorkload {
        objects: lib.into_objects(),
        media,
        root,
    }
}

/// Shard groups in the `faults` store.
pub const FAULT_SHARDS: usize = 3;
/// Cell loss on each student access link, in both directions.
pub const ACCESS_LOSS: f64 = 1e-3;

/// The `faults` workload: three per-shard courses whose clip contents
/// come from `seed`, a failback storm on a seed-chosen victim shard, and
/// the session hook that applies the storm plus access-link cell loss.
pub struct Faults {
    pub workloads: Vec<CampusWorkload>,
    pub storm: FaultStorm,
    pub hook: Hook,
}

pub fn faults(seed: u64) -> Result<Faults, SystemError> {
    let mut workloads = sharded_workloads(FAULT_SHARDS, 2, 64 * 1024);
    for w in &mut workloads {
        for m in &mut w.media {
            *m = clip(seed, m.id, m.name.clone(), m.data.len());
        }
    }
    let victim = (derive_seed(seed, VICTIM_STREAM) % FAULT_SHARDS as u64) as usize;
    let mut storm = FaultStorm::new(
        FAULT_SHARDS,
        victim,
        SimTime::from_millis(2),
        SimTime::from_millis(300),
    );
    storm.restart_at = Some(SimTime::from_millis(400));

    // Node ids depend only on the topology, so one probe build tells
    // every session where its access link is.
    let probe = MitsSystem::build(&storm.apply(SystemConfig::broadband(1)))?;
    let (host, switch) = (probe.client_host(ClientId(0)), probe.switch());
    drop(probe);
    let applied = storm.clone();
    let hook: Hook = Arc::new(move |_, base| {
        let config = applied.apply(base);
        let plan = config
            .fault_plan
            .clone()
            .with_link(host, switch, LinkFaults::loss(ACCESS_LOSS))
            .with_link(switch, host, LinkFaults::loss(ACCESS_LOSS));
        config.with_fault_plan(plan)
    });
    Ok(Faults {
        workloads,
        storm,
        hook,
    })
}

/// Clips in the `lecture` catalogue and their size.
pub const LECTURE_CLIPS: usize = 96;
pub const LECTURE_CLIP_BYTES: usize = 200 * 1024;

/// The `lecture` catalogue: a one-container course plus 96 clips of
/// 200 KiB, the network seed of the installation, and the order (a
/// seeded permutation) in which every seat walks the catalogue.
pub struct Lecture {
    pub course: CampusWorkload,
    pub net_seed: u64,
    pub order: Vec<usize>,
}

pub fn lecture(seed: u64) -> Lecture {
    let mut lib = ClassLibrary::new(2);
    let v = lib.value_content("v", GenericValue::Int(2));
    let root = lib.container("Lecture", vec![v]);
    let media = (0..LECTURE_CLIPS as u64)
        .map(|i| {
            clip(
                seed,
                MediaId(0x4C45_0000 + i),
                format!("lecture{i}.mpg"),
                LECTURE_CLIP_BYTES,
            )
        })
        .collect();
    // Fisher-Yates over the catalogue, one draw per position.
    let mut order: Vec<usize> = (0..LECTURE_CLIPS).collect();
    for i in (1..order.len()).rev() {
        let j = (derive_seed(seed ^ ORDER_STREAM, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    Lecture {
        course: CampusWorkload {
            objects: lib.into_objects(),
            media,
            root,
        },
        net_seed: derive_seed(seed, LECTURE_NET_STREAM),
        order,
    }
}

/// Fold the base config for a Campus session exactly as `Campus` does
/// before handing it to the hook.
pub fn session_config(spec: &SessionSpec, hook: Option<&Hook>) -> SystemConfig {
    let base = SystemConfig::broadband(1)
        .with_seed(spec.seed)
        .with_flight_ring(mits_sim::FLIGHT_RING_CAP);
    match hook {
        Some(h) => h(spec, base),
        None => base,
    }
}
