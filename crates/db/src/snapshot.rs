//! Checkpoints: a snapshot is a *compacted log*.
//!
//! A checkpoint writes the server's entire state as ordinary WAL frames
//! (PutObject / PutContent records carrying exact versions) behind a
//! small header, then truncates the live log — recovery replays the
//! snapshot first and the WAL tail after it, through one tolerant
//! reader. Reusing the frame codec means the snapshot inherits the CRC
//! protection and the torn-tail discipline for free.
//!
//! ## Format
//!
//! ```text
//! [magic: u32 BE] [through_seq: u64 BE] [frames...]
//! ```
//!
//! `through_seq` is the journal cursor at checkpoint time: every record
//! with `seq < through_seq` is folded into the snapshot, so recovery
//! applies only WAL records with `seq >= through_seq` on top.

use crate::wal::{put_record_frame, read_frames, ReplayReport, WalRecord, FRAME_HEADER};
use bytes::{BufMut, Bytes, BytesMut};

/// Snapshot file magic ("MSNP").
pub const SNAPSHOT_MAGIC: u32 = 0x4D53_4E50;

/// Serialize a snapshot holding `records`, folding the log up to (not
/// including) `through_seq`.
pub fn write_snapshot(through_seq: u64, records: &[WalRecord]) -> Bytes {
    let frames: usize = records
        .iter()
        .map(|rec| FRAME_HEADER + 8 + rec.len_hint())
        .sum();
    let mut out = BytesMut::with_capacity(12 + frames);
    out.put_u32(SNAPSHOT_MAGIC);
    out.put_u64(through_seq);
    for rec in records {
        // Snapshot frames reuse the journal cursor as their seq: they
        // represent "state as of through_seq", and replaying them is
        // idempotent regardless of the number.
        put_record_frame(&mut out, through_seq, rec);
    }
    out.freeze()
}

/// Parse a snapshot. Tolerant like WAL replay: an empty or absent device
/// yields a clean empty snapshot; a bad magic or torn frame keeps the
/// good prefix and warns in the report. Returns `(through_seq, records,
/// report)`.
pub fn read_snapshot(data: &[u8]) -> (u64, Vec<WalRecord>, ReplayReport) {
    if data.is_empty() {
        return (0, Vec::new(), ReplayReport::default());
    }
    if data.len() < 12 || u32::from_be_bytes(data[..4].try_into().expect("4")) != SNAPSHOT_MAGIC {
        let report = ReplayReport {
            torn_tail: true,
            truncated_bytes: data.len() as u64,
            warning: Some("snapshot header unreadable; ignoring snapshot".into()),
            ..Default::default()
        };
        return (0, Vec::new(), report);
    }
    let through_seq = u64::from_be_bytes(data[4..12].try_into().expect("8"));
    let (frames, mut report) = read_frames(&data[12..]);
    report.bytes += 12;
    (
        through_seq,
        frames.into_iter().map(|(_, r)| r).collect(),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mits_mheg::{ClassLibrary, GenericValue};

    fn records() -> Vec<WalRecord> {
        let mut lib = ClassLibrary::new(5);
        let a = lib.value_content("a", GenericValue::Int(1));
        let b = lib.value_content("b", GenericValue::Int(2));
        let mut oa = lib.get(a).unwrap().clone();
        oa.info.version = 3;
        let ob = lib.get(b).unwrap().clone();
        vec![
            WalRecord::PutObject { object: oa },
            WalRecord::PutObject { object: ob },
        ]
    }

    #[test]
    fn snapshot_round_trips_with_versions() {
        let recs = records();
        let snap = write_snapshot(17, &recs);
        let (through, out, report) = read_snapshot(&snap);
        assert_eq!(through, 17);
        assert_eq!(out, recs);
        assert!(!report.torn_tail);
        // Versions inside the snapshot are exact.
        match &out[0] {
            WalRecord::PutObject { object } => assert_eq!(object.info.version, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_and_garbage_snapshots_never_panic() {
        let (through, recs, report) = read_snapshot(&[]);
        assert_eq!((through, recs.len()), (0, 0));
        assert!(!report.torn_tail, "absence is not corruption");
        let (through, recs, report) = read_snapshot(b"not a snapshot at all");
        assert_eq!((through, recs.len()), (0, 0));
        assert!(report.torn_tail);
        assert!(report.warning.is_some());
    }

    #[test]
    fn torn_snapshot_keeps_good_prefix() {
        let snap = write_snapshot(5, &records());
        let cut = snap.len() - 4;
        let (through, out, report) = read_snapshot(&snap[..cut]);
        assert_eq!(through, 5);
        assert_eq!(out.len(), 1, "second frame torn off");
        assert!(report.torn_tail);
    }
}
