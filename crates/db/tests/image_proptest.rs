//! Property test for mounted course images: whatever mutations follow a
//! mount — puts, removes, resyncs through `apply_record`, shipped
//! frames, checkpoints — the server's memoised `state_digest()` always
//! equals the digest a server recovered from its own devices computes
//! from scratch. A mutation path that forgot to clear the memo would
//! leave it stale and fail here.

use bytes::Bytes;
use mits_db::{encode_frame, DbServer, MemLogDevice, ServiceModel, SharedLogDevice, WalRecord};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{ClassLibrary, GenericValue, MhegId, MhegObject, ObjectInfo};
use mits_sim::SimDuration;
use proptest::prelude::*;

/// A value object at a chosen id and version, so generated mutations
/// collide with the published objects and with each other.
fn object(num: u64, version: u32, value: i64) -> MhegObject {
    let mut lib = ClassLibrary::new(1);
    let id = lib.value_content("v", GenericValue::Int(value));
    let mut obj = lib.get(id).expect("just made").clone();
    obj.id = MhegId::new(1, num);
    obj.info.version = version;
    obj
}

fn media(id: u64, data: Vec<u8>) -> MediaObject {
    MediaObject::new(
        MediaId(id),
        format!("clip{id}.mpg"),
        MediaFormat::Mpeg,
        SimDuration::from_secs(1),
        VideoDims::new(64, 48),
        Bytes::from(data),
    )
}

/// A server with a published course on it: a tagged container over a
/// value, and two clips.
fn published() -> DbServer {
    let server = DbServer::default()
        .with_durability(Box::new(MemLogDevice::new()), Box::new(MemLogDevice::new()));
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let course = lib.container("Course", vec![v]);
    let mut objects = lib.into_objects();
    for o in &mut objects {
        if o.id == course {
            o.info = ObjectInfo::named("Course").with_keywords(["telecom/atm"]);
        }
    }
    server.load_objects(objects);
    server.load_media((0..2).map(|i| media(i, vec![i as u8; 3000])));
    server
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (0u64..6, 0u32..4, any::<i64>()).prop_map(|(n, v, x)| WalRecord::PutObject {
            object: object(n, v, x)
        }),
        (0u64..6).prop_map(|n| WalRecord::RemoveObject {
            id: MhegId::new(1, n)
        }),
        (0u64..4, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(id, data)| {
            WalRecord::PutContent {
                media: media(id, data),
            }
        }),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Put(u64, i64),
    PutMedia(u64, Vec<u8>),
    Remove(u64),
    /// A resync: apply a peer's record, then checkpoint so the devices
    /// hold it (as a restarted server does after bootstrapping).
    Resync(WalRecord),
    /// A frame shipped from a primary, `gap` sequence numbers ahead.
    Ship(u64, WalRecord),
    Checkpoint,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..6, any::<i64>()).prop_map(|(n, x)| Op::Put(n, x)),
        (0u64..4, prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(id, data)| Op::PutMedia(id, data)),
        (0u64..6).prop_map(Op::Remove),
        arb_record().prop_map(Op::Resync),
        (0u64..3, arb_record()).prop_map(|(gap, rec)| Op::Ship(gap, rec)),
        Just(Op::Checkpoint),
    ]
}

/// The digest of a server rebuilt from copies of the devices.
fn recovered_digest(wal: &SharedLogDevice, snap: &SharedLogDevice) -> u64 {
    let (server, _) = DbServer::recover(
        ServiceModel::default(),
        None,
        Box::new(SharedLogDevice::with_data(wal.snapshot())),
        Box::new(SharedLogDevice::with_data(snap.snapshot())),
    );
    server.state_digest()
}

proptest! {
    #[test]
    fn memoised_digest_matches_recovery_after_any_mutations(
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let source = published();
        let image = source.image().expect("only journaled mutations");
        let (wal, snap) = (SharedLogDevice::new(), SharedLogDevice::new());
        let mut server = DbServer::default()
            .with_durability(Box::new(wal.clone()), Box::new(snap.clone()));
        server.mount(&image).expect("fresh server");
        prop_assert!(wal.snapshot() == source.wal_contents(), "journal mounted verbatim");
        prop_assert_eq!(server.wal_next_seq(), source.wal_next_seq());
        prop_assert_eq!(server.state_digest(), source.state_digest());
        prop_assert_eq!(server.state_digest(), recovered_digest(&wal, &snap));

        for op in ops {
            match op {
                Op::Put(n, x) => {
                    server.put_object(object(n, 0, x));
                }
                Op::PutMedia(id, data) => server.put_media(media(id, data)),
                Op::Remove(n) => {
                    server.remove_object(MhegId::new(1, n));
                }
                Op::Resync(rec) => {
                    server.apply_record(&rec);
                    server.checkpoint().expect("durable");
                }
                Op::Ship(gap, rec) => {
                    let seq = server.wal_next_seq() + gap;
                    server
                        .apply_shipped(&encode_frame(seq, &rec.encode()))
                        .expect("intact frame");
                }
                Op::Checkpoint => {
                    server.checkpoint().expect("durable");
                }
            }
            // Reading the digest after every step keeps the memo warm,
            // so the next mutation has a memo to clear.
            prop_assert_eq!(server.state_digest(), recovered_digest(&wal, &snap));
        }
    }
}
