//! Write-ahead logging for the courseware database.
//!
//! The prototype's ObjectStore persisted to disk; the reproduction's
//! stores are in-memory HashMaps, so a server crash would silently lose
//! every object, version bump, and bookmark. This module adds the
//! ARIES-style discipline log-structured stores use: every mutating
//! operation is appended to a [`Wal`] as a length-prefixed,
//! CRC-checksummed [`WalRecord`] *before* it is applied to the store, so
//! replaying the log after a crash reconstructs exactly the state the
//! crash destroyed.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 BE] [crc32: u32 BE over seq‖payload] [seq: u64 BE] [payload]
//! ```
//!
//! `len` counts the `seq` and `payload` bytes. `seq` is a cluster-wide
//! monotonic record number assigned by the journaling server; replicas
//! preserve the primary's numbering so a record is applied at most once
//! no matter how many times it is shipped or replayed.
//!
//! ## Torn tails
//!
//! A crash can land mid-append. Replay therefore *never panics*: a frame
//! whose length runs past the device, or whose CRC does not match, ends
//! the replay — the good prefix is kept, the tail is truncated, and the
//! [`ReplayReport`] says so. Corruption *within* the good prefix is
//! indistinguishable from a torn tail by design (the scan stops at the
//! first bad frame either way).
//!
//! ## Devices
//!
//! A [`LogDevice`] is the byte-level persistence abstraction. The
//! simulation uses in-memory devices ([`MemLogDevice`], and
//! [`SharedLogDevice`] when the "disk" must survive the `DbServer` that
//! wrote it, i.e. a crash/restart cycle); [`FileLogDevice`] writes a real
//! file so the recovery path is also exercised against an actual
//! filesystem in tests.

use crate::protocol::DbError;
use bytes::{BufMut, Bytes, BytesMut};
use mits_media::MediaObject;
use mits_mheg::{decode_object, encode_object, MhegId, MhegObject, WireFormat};
use mits_sim::crc32;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

// ---------- log devices ----------

/// Byte-level persistence for a log: append-only writes plus whole-device
/// reads and truncation. The device is the thing that survives a crash;
/// the `Wal` wrapping it does not.
pub trait LogDevice: Send {
    /// Append bytes at the end of the device.
    fn append(&mut self, data: &[u8]);
    /// Append an immutable shared segment. Devices that can keep a
    /// reference to it instead of a copy ([`SharedLogDevice`]) do.
    fn append_shared(&mut self, data: &Bytes) {
        self.append(data);
    }
    /// The full device contents.
    fn read_all(&self) -> Vec<u8>;
    /// Keep only the first `len` bytes (torn-tail cleanup, checkpoints).
    fn truncate_to(&mut self, len: usize);
    /// Current device length in bytes.
    fn len(&self) -> usize;
    /// True when the device holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A `Vec<u8>`-backed device private to its owner.
#[derive(Debug, Default, Clone)]
pub struct MemLogDevice {
    data: Vec<u8>,
}

impl MemLogDevice {
    /// An empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// A device pre-loaded with `data` (recovery tests).
    pub fn with_data(data: Vec<u8>) -> Self {
        MemLogDevice { data }
    }
}

impl LogDevice for MemLogDevice {
    fn append(&mut self, data: &[u8]) {
        self.data.extend_from_slice(data);
    }
    fn read_all(&self) -> Vec<u8> {
        self.data.clone()
    }
    fn truncate_to(&mut self, len: usize) {
        self.data.truncate(len);
    }
    fn len(&self) -> usize {
        self.data.len()
    }
}

/// A device whose bytes outlive the server that wrote them — the
/// simulation's stand-in for a disk that survives a process crash. Clone
/// handles share the same storage.
///
/// The storage is a shared, immutable base segment plus a private tail:
/// a server that mounts a published course image appends the image's
/// journal with [`LogDevice::append_shared`], which on an empty device
/// keeps a reference to the segment instead of copying it, so thousands
/// of mounted sessions hold one copy of the published WAL between them.
#[derive(Debug, Default, Clone)]
pub struct SharedLogDevice {
    data: Arc<Mutex<Segments>>,
}

#[derive(Debug, Default)]
struct Segments {
    base: Bytes,
    tail: Vec<u8>,
}

impl SharedLogDevice {
    /// An empty shared device.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared device pre-loaded with `data` (recovery tests).
    pub fn with_data(data: Vec<u8>) -> Self {
        SharedLogDevice {
            data: Arc::new(Mutex::new(Segments {
                base: Bytes::new(),
                tail: data,
            })),
        }
    }

    /// Snapshot of the device contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.read_all()
    }
}

impl LogDevice for SharedLogDevice {
    fn append(&mut self, data: &[u8]) {
        self.data.lock().tail.extend_from_slice(data);
    }
    fn append_shared(&mut self, data: &Bytes) {
        let mut d = self.data.lock();
        if d.base.is_empty() && d.tail.is_empty() {
            d.base = data.clone();
        } else {
            d.tail.extend_from_slice(data);
        }
    }
    fn read_all(&self) -> Vec<u8> {
        let d = self.data.lock();
        let mut out = Vec::with_capacity(d.base.len() + d.tail.len());
        out.extend_from_slice(&d.base);
        out.extend_from_slice(&d.tail);
        out
    }
    fn truncate_to(&mut self, len: usize) {
        let mut d = self.data.lock();
        if len <= d.base.len() {
            d.base = d.base.slice(..len);
            d.tail.clear();
        } else {
            let keep = len - d.base.len();
            d.tail.truncate(keep);
        }
    }
    fn len(&self) -> usize {
        let d = self.data.lock();
        d.base.len() + d.tail.len()
    }
}

/// A real file on disk — exercised by tests so the recovery path is not
/// simulation-only.
#[derive(Debug)]
pub struct FileLogDevice {
    path: std::path::PathBuf,
    len: usize,
}

impl FileLogDevice {
    /// Open (or create) the log file at `path`.
    pub fn open(path: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let len = match std::fs::metadata(&path) {
            Ok(m) => m.len() as usize,
            Err(_) => {
                std::fs::write(&path, [])?;
                0
            }
        };
        Ok(FileLogDevice { path, len })
    }
}

impl LogDevice for FileLogDevice {
    fn append(&mut self, data: &[u8]) {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .expect("log file opened at construction");
        f.write_all(data).expect("append to log file");
        self.len += data.len();
    }
    fn read_all(&self) -> Vec<u8> {
        std::fs::read(&self.path).unwrap_or_default()
    }
    fn truncate_to(&mut self, len: usize) {
        let mut data = self.read_all();
        data.truncate(len);
        std::fs::write(&self.path, &data).expect("rewrite log file");
        self.len = data.len();
    }
    fn len(&self) -> usize {
        self.len
    }
}

// ---------- records ----------

/// One durable mutation. Object and media payloads ride the same TLV
/// interchange encoding the wire protocol uses, so a record carries the
/// object's *exact* version — replaying is idempotent, never a re-bump.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An object was stored at the version recorded inside it.
    PutObject {
        /// The object, version included.
        object: MhegObject,
    },
    /// An object was removed.
    RemoveObject {
        /// Its id.
        id: MhegId,
    },
    /// A media object was stored.
    PutContent {
        /// The media object, payload included.
        media: MediaObject,
    },
    /// A navigator bookmark was saved (durable resume position).
    BookmarkAdd {
        /// Student number.
        student: u32,
        /// Bookmark id.
        id: u32,
        /// Bookmarked document.
        document: MhegId,
        /// Unit within it, if any.
        unit: Option<u32>,
        /// Student's note.
        note: String,
    },
    /// A navigator bookmark was removed.
    BookmarkRemove {
        /// Student number.
        student: u32,
        /// Bookmark id.
        id: u32,
    },
}

const TAG_PUT_OBJECT: u8 = 1;
const TAG_REMOVE_OBJECT: u8 = 2;
const TAG_PUT_CONTENT: u8 = 3;
const TAG_BOOKMARK_ADD: u8 = 4;
const TAG_BOOKMARK_REMOVE: u8 = 5;

impl WalRecord {
    /// Encode the record payload (no frame header).
    pub fn encode(&self) -> Bytes {
        let mut w = BytesMut::with_capacity(self.len_hint());
        self.encode_into(&mut w);
        w.freeze()
    }

    /// The encoded payload's length for a media record, whose clip
    /// dominates it; a small guess for the others.
    pub(crate) fn len_hint(&self) -> usize {
        match self {
            WalRecord::PutContent { media } => 34 + media.name.len() + media.data.len(),
            _ => 64,
        }
    }

    /// Write the record payload at the end of `w`.
    fn encode_into(&self, w: &mut BytesMut) {
        match self {
            WalRecord::PutObject { object } => {
                w.put_u8(TAG_PUT_OBJECT);
                let enc = encode_object(object, WireFormat::Tlv);
                w.put_u32(enc.len() as u32);
                w.put_slice(&enc);
            }
            WalRecord::RemoveObject { id } => {
                w.put_u8(TAG_REMOVE_OBJECT);
                w.put_u32(id.app);
                w.put_u64(id.num);
            }
            WalRecord::PutContent { media } => {
                w.put_u8(TAG_PUT_CONTENT);
                w.put_u64(media.id.0);
                put_str(w, &media.name);
                w.put_u8(media.format.wire_tag());
                w.put_u64(media.duration.as_micros());
                w.put_u32(media.dims.width);
                w.put_u32(media.dims.height);
                w.put_u32(media.data.len() as u32);
                w.put_slice(&media.data);
            }
            WalRecord::BookmarkAdd {
                student,
                id,
                document,
                unit,
                note,
            } => {
                w.put_u8(TAG_BOOKMARK_ADD);
                w.put_u32(*student);
                w.put_u32(*id);
                w.put_u32(document.app);
                w.put_u64(document.num);
                match unit {
                    Some(u) => {
                        w.put_u8(1);
                        w.put_u32(*u);
                    }
                    None => w.put_u8(0),
                }
                put_str(w, note);
            }
            WalRecord::BookmarkRemove { student, id } => {
                w.put_u8(TAG_BOOKMARK_REMOVE);
                w.put_u32(*student);
                w.put_u32(*id);
            }
        }
    }

    /// Decode a record payload.
    pub fn decode(data: &[u8]) -> Result<WalRecord, DbError> {
        WalRecord::decode_rd(Rd {
            d: data,
            shared: None,
            p: 0,
        })
    }

    /// Decode a record payload from a shared frame: a `PutContent`
    /// record's media bytes become a view of `payload`'s backing buffer
    /// instead of a fresh allocation, so replica shipment does not copy
    /// the media once per replica.
    pub fn decode_shared(payload: &Bytes) -> Result<WalRecord, DbError> {
        WalRecord::decode_rd(Rd {
            d: payload,
            shared: Some(payload),
            p: 0,
        })
    }

    fn decode_rd(mut r: Rd<'_>) -> Result<WalRecord, DbError> {
        let rec = match r.u8()? {
            TAG_PUT_OBJECT => {
                let n = r.u32()? as usize;
                let raw = r.take(n)?;
                let object = decode_object(raw, WireFormat::Tlv)
                    .map_err(|e| DbError::Malformed(e.to_string()))?;
                WalRecord::PutObject { object }
            }
            TAG_REMOVE_OBJECT => WalRecord::RemoveObject {
                id: MhegId::new(r.u32()?, r.u64()?),
            },
            TAG_PUT_CONTENT => {
                let id = mits_media::MediaId(r.u64()?);
                let name = r.str()?;
                let format = mits_media::MediaFormat::from_wire_tag(r.u8()?)
                    .ok_or_else(|| DbError::Malformed("bad media format".into()))?;
                let duration = mits_sim::SimDuration::from_micros(r.u64()?);
                let dims = mits_media::VideoDims::new(r.u32()?, r.u32()?);
                let n = r.u32()? as usize;
                let data = r.bytes(n)?;
                WalRecord::PutContent {
                    media: MediaObject::new(id, name, format, duration, dims, data),
                }
            }
            TAG_BOOKMARK_ADD => {
                let student = r.u32()?;
                let id = r.u32()?;
                let document = MhegId::new(r.u32()?, r.u64()?);
                let unit = match r.u8()? {
                    0 => None,
                    _ => Some(r.u32()?),
                };
                let note = r.str()?;
                WalRecord::BookmarkAdd {
                    student,
                    id,
                    document,
                    unit,
                    note,
                }
            }
            TAG_BOOKMARK_REMOVE => WalRecord::BookmarkRemove {
                student: r.u32()?,
                id: r.u32()?,
            },
            t => return Err(DbError::Malformed(format!("unknown wal tag {t}"))),
        };
        if r.p != r.d.len() {
            return Err(DbError::Malformed("trailing bytes in wal record".into()));
        }
        Ok(rec)
    }
}

fn put_str(w: &mut BytesMut, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_slice(s.as_bytes());
}

struct Rd<'a> {
    d: &'a [u8],
    /// When decoding straight out of a shipped frame, the frame itself —
    /// lets `bytes` return zero-copy views instead of allocations.
    shared: Option<&'a Bytes>,
    p: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        let end = self
            .p
            .checked_add(n)
            .filter(|&e| e <= self.d.len())
            .ok_or_else(|| DbError::Malformed("truncated wal record".into()))?;
        let s = &self.d[self.p..end];
        self.p = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn str(&mut self) -> Result<String, DbError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| DbError::Malformed(e.to_string()))
    }
    fn bytes(&mut self, n: usize) -> Result<Bytes, DbError> {
        let start = self.p;
        let raw = self.take(n)?;
        Ok(match self.shared {
            Some(frame) => frame.slice(start..start + n),
            None => Bytes::copy_from_slice(raw),
        })
    }
}

// ---------- framing ----------

/// Bytes of frame header before the checksummed region.
pub const FRAME_HEADER: usize = 8;

/// The frame writer: append a frame carrying `seq` to `out`, with
/// `body` writing its payload straight into place, then fill in the
/// length and the checksum.
fn put_frame(out: &mut BytesMut, seq: u64, body: impl FnOnce(&mut BytesMut)) {
    let start = out.len();
    out.put_u32(0); // length and checksum, filled in once the body is in place
    out.put_u32(0);
    out.put_u64(seq);
    body(out);
    let len = (out.len() - start - FRAME_HEADER) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_be_bytes());
}

/// Wrap a record payload in a checksummed frame carrying `seq`.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Bytes {
    let mut f = BytesMut::with_capacity(FRAME_HEADER + 8 + payload.len());
    put_frame(&mut f, seq, |w| w.put_slice(payload));
    f.freeze()
}

/// Append `rec` to `out` as a frame carrying `seq`, the record written
/// straight into it: the same bytes as `encode_frame(seq, &rec.encode())`
/// without the record's own buffer.
pub(crate) fn put_record_frame(out: &mut BytesMut, seq: u64, rec: &WalRecord) {
    out.reserve(FRAME_HEADER + 8 + rec.len_hint());
    put_frame(out, seq, |w| rec.encode_into(w));
}

/// `rec` framed under `seq` (see [`put_record_frame`]).
pub fn record_frame(seq: u64, rec: &WalRecord) -> Bytes {
    let mut f = BytesMut::new();
    put_record_frame(&mut f, seq, rec);
    f.freeze()
}

/// Verify one frame and split it into `(seq, payload, frame_len)`.
/// `Err` means the bytes at `data` do not start with an intact frame.
pub fn decode_frame(data: &[u8]) -> Result<(u64, &[u8], usize), DbError> {
    if data.len() < FRAME_HEADER {
        return Err(DbError::Malformed("torn frame header".into()));
    }
    let len = u32::from_be_bytes(data[..4].try_into().expect("4")) as usize;
    let crc = u32::from_be_bytes(data[4..8].try_into().expect("4"));
    if len < 8 || data.len() < FRAME_HEADER + len {
        return Err(DbError::Malformed("torn frame body".into()));
    }
    let body = &data[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(body) != crc {
        return Err(DbError::Malformed("wal frame crc mismatch".into()));
    }
    let seq = u64::from_be_bytes(body[..8].try_into().expect("8"));
    Ok((seq, &body[8..], FRAME_HEADER + len))
}

/// [`decode_frame`] for a shared frame: the returned payload is a
/// zero-copy view of `frame`'s backing buffer.
pub fn decode_frame_shared(frame: &Bytes) -> Result<(u64, Bytes, usize), DbError> {
    let (seq, payload, flen) = decode_frame(frame)?;
    let start = flen - payload.len();
    Ok((seq, frame.slice(start..flen), flen))
}

/// What a replay scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records decoded.
    pub records: u64,
    /// Bytes of intact frames consumed.
    pub bytes: u64,
    /// A torn or corrupt frame ended the scan before the device did.
    pub torn_tail: bool,
    /// Bytes discarded past the good prefix.
    pub truncated_bytes: u64,
    /// Human-readable account of what was discarded, if anything.
    pub warning: Option<String>,
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} records / {} bytes", self.records, self.bytes)?;
        if let Some(w) = &self.warning {
            write!(f, " ({w})")?;
        }
        Ok(())
    }
}

/// Tolerantly scan a byte run for frames: decode the longest intact
/// prefix, report (never panic on) a torn or corrupt tail.
pub fn read_frames(data: &[u8]) -> (Vec<(u64, WalRecord)>, ReplayReport) {
    let mut out = Vec::new();
    let mut report = ReplayReport::default();
    let mut pos = 0usize;
    while pos < data.len() {
        match decode_frame(&data[pos..])
            .and_then(|(seq, payload, flen)| WalRecord::decode(payload).map(|rec| (seq, rec, flen)))
        {
            Ok((seq, rec, flen)) => {
                out.push((seq, rec));
                report.records += 1;
                report.bytes += flen as u64;
                pos += flen;
            }
            Err(e) => {
                report.torn_tail = true;
                report.truncated_bytes = (data.len() - pos) as u64;
                report.warning = Some(format!(
                    "log truncated at byte {pos}: {e} ({} bytes dropped)",
                    data.len() - pos
                ));
                break;
            }
        }
    }
    (out, report)
}

// ---------- the log ----------

/// The write-ahead log: an append cursor over a [`LogDevice`].
pub struct Wal {
    dev: Box<dyn LogDevice>,
    next_seq: u64,
}

impl Wal {
    /// A log over `dev`, continuing after whatever intact records the
    /// device already holds. A torn tail is truncated off the device.
    /// Returns the log, the surviving records, and the replay report.
    pub fn recover(mut dev: Box<dyn LogDevice>) -> (Wal, Vec<(u64, WalRecord)>, ReplayReport) {
        let data = dev.read_all();
        let (records, report) = read_frames(&data);
        if report.torn_tail {
            dev.truncate_to(report.bytes as usize);
        }
        let next_seq = records.iter().map(|(s, _)| s + 1).max().unwrap_or(0);
        (Wal { dev, next_seq }, records, report)
    }

    /// A log over an empty (or to-be-ignored) device, starting at `seq`.
    pub fn create(dev: Box<dyn LogDevice>, seq: u64) -> Wal {
        Wal { dev, next_seq: seq }
    }

    /// Journal one record. Returns its sequence number and the framed
    /// bytes (for shipping to a replica).
    pub fn append(&mut self, rec: &WalRecord) -> (u64, Bytes) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = record_frame(seq, rec);
        self.dev.append(&frame);
        (seq, frame)
    }

    /// Append a frame shipped from a peer, preserving its sequence
    /// number. Frames older than the cursor are verified but *not*
    /// re-appended (duplicate shipment). Returns the decoded record and
    /// its seq.
    pub fn append_frame(&mut self, frame: &Bytes) -> Result<(u64, WalRecord), DbError> {
        let (seq, payload, flen) = decode_frame_shared(frame)?;
        if flen != frame.len() {
            return Err(DbError::Malformed("trailing bytes after wal frame".into()));
        }
        let rec = WalRecord::decode_shared(&payload)?;
        if seq >= self.next_seq {
            self.dev.append(frame);
            self.next_seq = seq + 1;
        }
        Ok((seq, rec))
    }

    /// Adopt a published journal: append `segment` (whole frames, read
    /// back from another log with [`Wal::contents`]) by reference where
    /// the device allows, and continue numbering at `next_seq`.
    pub fn mount(&mut self, segment: &Bytes, next_seq: u64) {
        self.dev.append_shared(segment);
        self.next_seq = self.next_seq.max(next_seq);
    }

    /// Every byte on the device.
    pub fn contents(&self) -> Vec<u8> {
        self.dev.read_all()
    }

    /// The next sequence number this log will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Advance the cursor (resync from a peer that is further ahead).
    pub fn advance_seq_to(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Drop every frame from the device (after a checkpoint captured
    /// them); the sequence cursor keeps counting.
    pub fn truncate(&mut self) {
        self.dev.truncate_to(0);
    }

    /// Bytes currently on the device.
    pub fn device_len(&self) -> usize {
        self.dev.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mits_mheg::{ClassLibrary, GenericValue};

    fn sample_records() -> Vec<WalRecord> {
        let mut lib = ClassLibrary::new(3);
        let id = lib.value_content("v", GenericValue::Int(7));
        let object = lib.get(id).unwrap().clone();
        vec![
            WalRecord::PutObject { object },
            WalRecord::RemoveObject {
                id: MhegId::new(3, 9),
            },
            WalRecord::PutContent {
                media: MediaObject::new(
                    mits_media::MediaId(4),
                    "clip.mpg",
                    mits_media::MediaFormat::Mpeg,
                    mits_sim::SimDuration::from_secs(2),
                    mits_media::VideoDims::new(64, 48),
                    Bytes::from(vec![1, 2, 3]),
                ),
            },
            WalRecord::BookmarkAdd {
                student: 12,
                id: 0,
                document: MhegId::new(1, 1),
                unit: Some(3),
                note: "resume here".into(),
            },
            WalRecord::BookmarkRemove { student: 12, id: 0 },
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_frame_in_place_as_they_encode() {
        let mut all = BytesMut::new();
        let mut expect = Vec::new();
        for (seq, rec) in sample_records().iter().enumerate() {
            let framed = encode_frame(seq as u64, &rec.encode());
            assert_eq!(record_frame(seq as u64, rec), framed, "{rec:?}");
            put_record_frame(&mut all, seq as u64, rec);
            expect.extend_from_slice(&framed);
        }
        assert_eq!(&all[..], &expect[..]);
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let enc = rec.encode();
            let dec = WalRecord::decode(&enc).unwrap_or_else(|e| panic!("{rec:?}: {e}"));
            assert_eq!(dec, rec);
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let mut wal = Wal::create(Box::new(MemLogDevice::new()), 0);
        let recs = sample_records();
        for r in &recs {
            wal.append(r);
        }
        assert_eq!(wal.next_seq(), recs.len() as u64);
        let data = wal.dev.read_all();
        let (replayed, report) = read_frames(&data);
        assert!(!report.torn_tail);
        assert_eq!(report.records, recs.len() as u64);
        assert_eq!(
            replayed.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            recs
        );
        assert_eq!(
            replayed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..recs.len() as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn torn_tail_truncated_and_warned() {
        let mut wal = Wal::create(Box::new(MemLogDevice::new()), 0);
        for r in sample_records() {
            wal.append(&r);
        }
        let mut data = wal.dev.read_all();
        let full = data.len();
        data.truncate(full - 3); // tear the last frame
        let dev = MemLogDevice::with_data(data);
        let (wal2, records, report) = Wal::recover(Box::new(dev));
        assert_eq!(records.len(), sample_records().len() - 1);
        assert!(report.torn_tail);
        assert!(report.warning.is_some());
        // The device itself was cleaned: a second recovery is quiet.
        let (_, records2, report2) =
            Wal::recover(Box::new(MemLogDevice::with_data(wal2.dev.read_all())));
        assert_eq!(records2.len(), records.len());
        assert!(!report2.torn_tail);
    }

    #[test]
    fn corrupt_middle_record_stops_replay_cleanly() {
        let mut wal = Wal::create(Box::new(MemLogDevice::new()), 0);
        for r in sample_records() {
            wal.append(&r);
        }
        let mut data = wal.dev.read_all();
        data[FRAME_HEADER + 9] ^= 0x40; // corrupt inside the first frame's payload
        let (records, report) = read_frames(&data);
        assert!(records.is_empty(), "first frame is bad, nothing survives");
        assert!(report.torn_tail);
        assert!(report.warning.unwrap().contains("crc"),);
    }

    #[test]
    fn shipped_frames_preserve_seq_and_dedup() {
        let mut primary = Wal::create(Box::new(MemLogDevice::new()), 0);
        let mut replica = Wal::create(Box::new(MemLogDevice::new()), 0);
        let recs = sample_records();
        let mut frames = Vec::new();
        for r in &recs {
            let (_, f) = primary.append(r);
            frames.push(f);
        }
        for f in &frames {
            let (_, rec) = replica.append_frame(f).unwrap();
            assert!(recs.contains(&rec));
        }
        assert_eq!(replica.next_seq(), primary.next_seq());
        let before = replica.device_len();
        // Duplicate shipment: verified, decoded, but not re-appended.
        replica.append_frame(&frames[0]).unwrap();
        assert_eq!(replica.device_len(), before);
    }

    #[test]
    fn file_device_round_trips() {
        let path = std::env::temp_dir().join(format!("mits-wal-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let dev = FileLogDevice::open(&path).unwrap();
            let mut wal = Wal::create(Box::new(dev), 0);
            for r in sample_records() {
                wal.append(&r);
            }
        }
        let dev = FileLogDevice::open(&path).unwrap();
        let (_, records, report) = Wal::recover(Box::new(dev));
        assert_eq!(records.len(), sample_records().len());
        assert!(!report.torn_tail);
        let _ = std::fs::remove_file(&path);
    }
}
