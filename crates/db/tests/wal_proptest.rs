//! Property tests for the write-ahead log codec: every record
//! round-trips its wire form exactly, a whole journal replays in
//! order, and any single flipped bit is caught by the CRC — replay
//! yields a strict prefix of the good records and never panics.

use bytes::Bytes;
use mits_db::{read_frames, SharedLogDevice, Wal, WalRecord};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{ClassLibrary, GenericValue, MhegId, MhegObject};
use mits_sim::{crc32, SimDuration};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = GenericValue> {
    prop_oneof![
        any::<i64>().prop_map(GenericValue::Int),
        any::<bool>().prop_map(GenericValue::Bool),
        "[ -~]{0,24}".prop_map(GenericValue::Str),
        any::<i64>().prop_map(GenericValue::Milli),
    ]
}

fn arb_object() -> impl Strategy<Value = MhegObject> {
    (0u32..64, "[a-z]{1,12}", arb_value()).prop_map(|(app, name, value)| {
        let mut lib = ClassLibrary::new(app);
        let id = lib.value_content(&name, value);
        lib.get(id).unwrap().clone()
    })
}

fn arb_media() -> impl Strategy<Value = MediaObject> {
    (
        0u64..10_000,
        "[ -~]{0,24}",
        prop::sample::select(MediaFormat::ALL.to_vec()),
        0u64..100_000_000,
        (0u32..2000, 0u32..2000),
        prop::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(id, name, format, dur, (w, h), data)| {
            MediaObject::new(
                MediaId(id),
                name,
                format,
                SimDuration::from_micros(dur),
                VideoDims::new(w, h),
                Bytes::from(data),
            )
        })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        arb_object().prop_map(|object| WalRecord::PutObject { object }),
        (0u32..500, 0u64..10_000).prop_map(|(a, n)| WalRecord::RemoveObject {
            id: MhegId::new(a, n)
        }),
        arb_media().prop_map(|media| WalRecord::PutContent { media }),
        (
            0u32..1000,
            0u32..1000,
            (0u32..500, 0u64..10_000),
            prop::option::of(0u32..64),
            "[ -~]{0,40}",
        )
            .prop_map(|(student, id, (a, n), unit, note)| WalRecord::BookmarkAdd {
                student,
                id,
                document: MhegId::new(a, n),
                unit,
                note,
            }),
        (0u32..1000, 0u32..1000)
            .prop_map(|(student, id)| WalRecord::BookmarkRemove { student, id }),
    ]
}

/// Journal `recs` and return the raw device bytes a crash would leave.
fn journal(recs: &[WalRecord]) -> Vec<u8> {
    let dev = SharedLogDevice::new();
    let mut wal = Wal::create(Box::new(dev.clone()), 0);
    for r in recs {
        wal.append(r);
    }
    dev.snapshot()
}

proptest! {
    /// Every record survives encode → decode unchanged.
    #[test]
    fn record_round_trips(rec in arb_record()) {
        let enc = rec.encode();
        let dec = WalRecord::decode(&enc).expect("own encoding decodes");
        prop_assert_eq!(dec, rec);
    }

    /// A journal of many records replays all of them, in order, with
    /// consecutive sequence numbers — through the same `Wal::recover`
    /// path a rebooted server uses.
    #[test]
    fn journal_replays_in_order(recs in prop::collection::vec(arb_record(), 1..12)) {
        let bytes = journal(&recs);
        let (wal, replayed, report) =
            Wal::recover(Box::new(SharedLogDevice::with_data(bytes)));
        prop_assert!(!report.torn_tail);
        prop_assert_eq!(report.records, recs.len() as u64);
        prop_assert_eq!(wal.next_seq(), recs.len() as u64);
        let seqs: Vec<u64> = replayed.iter().map(|(s, _)| *s).collect();
        prop_assert_eq!(seqs, (0..recs.len() as u64).collect::<Vec<_>>());
        let got: Vec<WalRecord> = replayed.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(got, recs);
    }

    /// Flip any single bit anywhere in the journal: the CRC (or the
    /// length/header check) rejects the damaged frame, replay returns a
    /// strict prefix of the good records, and nothing panics.
    #[test]
    fn any_bit_flip_is_detected(
        recs in prop::collection::vec(arb_record(), 1..8),
        byte_sel in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = journal(&recs);
        let pos = byte_sel % bytes.len();
        bytes[pos] ^= 1 << bit;

        let (replayed, report) = read_frames(&bytes);
        // Never more records than written, and whatever does replay is
        // an exact prefix of what went in.
        prop_assert!(replayed.len() <= recs.len());
        for (i, (seq, rec)) in replayed.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(rec, &recs[i]);
        }
        // A flipped bit can never silently yield a *different* record:
        // either replay is short (damage detected and reported) or —
        // only possible via a CRC collision, which a single-bit flip
        // cannot produce — everything came back intact.
        if replayed.len() < recs.len() {
            prop_assert!(
                report.torn_tail || report.truncated_bytes > 0 || report.warning.is_some()
            );
        } else {
            let got: Vec<WalRecord> = replayed.into_iter().map(|(_, r)| r).collect();
            prop_assert_eq!(got, recs);
        }
    }

    /// The CRC actually depends on every bit: flipping one changes it.
    /// (CRC-32 detects all single-bit errors by construction.)
    #[test]
    fn crc_sees_every_bit(data in prop::collection::vec(any::<u8>(), 1..200),
                          byte_sel in any::<usize>(),
                          bit in 0u8..8) {
        let original = crc32(&data);
        let mut flipped = data.clone();
        let pos = byte_sel % flipped.len();
        flipped[pos] ^= 1 << bit;
        prop_assert_ne!(original, crc32(&flipped));
    }
}
