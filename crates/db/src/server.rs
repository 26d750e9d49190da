//! The courseware database server (Fig 3.5).
//!
//! Owns the object store, content store, and keyword index; turns each
//! [`Request`] into a [`Response`] plus a modelled **service time** so the
//! discrete-event layer can simulate a loaded server (experiment F3.5
//! sweeps concurrent clients against one server).

use crate::index::KeywordTree;
use crate::protocol::{DbError, Request, Response};
use crate::snapshot;
use crate::store::{ContentStore, ObjectStore};
use crate::wal::{self, LogDevice, Wal, WalRecord};
use bytes::Bytes;
use mits_media::MediaObject;
use mits_mheg::{encode_object, MhegId, MhegObject, WireFormat};
use mits_sim::SimDuration;
use parking_lot::{Mutex, RwLock};

/// Service-time model: fixed per-request CPU plus per-byte storage I/O.
///
/// Calibrated to a mid-90s SUN/ULTRA class server: ~200 µs request
/// overhead, ~50 MB/s storage streaming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Fixed per-request cost.
    pub per_request: SimDuration,
    /// Cost per payload byte moved from storage.
    pub per_byte_ns: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            per_request: SimDuration::from_micros(200),
            per_byte_ns: 20, // 50 MB/s
        }
    }
}

impl ServiceModel {
    /// Service time for a request that moved `bytes` of payload.
    pub fn cost(&self, bytes: usize) -> SimDuration {
        self.per_request + SimDuration::from_micros((bytes as u64 * self.per_byte_ns) / 1000)
    }
}

/// The database server.
pub struct DbServer {
    /// MHEG object store (scenario database).
    objects: ObjectStore,
    /// Bulk content store.
    content: ContentStore,
    index: RwLock<KeywordTree>,
    model: ServiceModel,
    /// Queue depth at or beyond which the server sheds load with
    /// [`DbError::Unavailable`] instead of queuing unboundedly.
    overload_threshold: Option<usize>,
    /// Requests served (for utilization reporting).
    pub requests_served: RwLock<u64>,
    /// Requests shed with `Unavailable` (overload reporting).
    pub requests_shed: RwLock<u64>,
    /// Write-ahead log, if durability is attached. Mutations journal
    /// here *before* touching the stores.
    wal: Mutex<Option<Wal>>,
    /// Snapshot device for checkpoints.
    snap: Mutex<Option<Box<dyn LogDevice>>>,
    /// Serializes the journal-then-apply sequence of every mutation so a
    /// WAL record's version can never race another writer.
    write_gate: Mutex<()>,
    /// Framed WAL records awaiting shipment to a replica.
    outbox: Mutex<Vec<Bytes>>,
    /// Whether journaled frames are queued for replication.
    shipping: Mutex<bool>,
    /// Failover epoch stamped on every response; replicas promoted to
    /// primary bump it so clients can reject a stale primary's answers.
    epoch: RwLock<u64>,
    /// WAL records appended (local mutations + shipped frames).
    wal_records_journaled: RwLock<u64>,
    /// WAL bytes appended (framed size).
    wal_bytes_journaled: RwLock<u64>,
    /// Bytes replayed off the devices by [`DbServer::recover`].
    wal_bytes_replayed: RwLock<u64>,
    /// Checkpoints taken.
    checkpoints_taken: RwLock<u64>,
    /// Memoised [`DbServer::state_digest`]; every store mutation clears
    /// it, a mounted image seeds it.
    digest: Mutex<Option<u64>>,
}

impl Default for DbServer {
    fn default() -> Self {
        Self::new(ServiceModel::default())
    }
}

impl DbServer {
    /// A server with the given service-time model.
    pub fn new(model: ServiceModel) -> Self {
        DbServer {
            objects: ObjectStore::new(),
            content: ContentStore::new(),
            index: RwLock::new(KeywordTree::new()),
            model,
            overload_threshold: None,
            requests_served: RwLock::new(0),
            requests_shed: RwLock::new(0),
            wal: Mutex::new(None),
            snap: Mutex::new(None),
            write_gate: Mutex::new(()),
            outbox: Mutex::new(Vec::new()),
            shipping: Mutex::new(false),
            epoch: RwLock::new(0),
            wal_records_journaled: RwLock::new(0),
            wal_bytes_journaled: RwLock::new(0),
            wal_bytes_replayed: RwLock::new(0),
            checkpoints_taken: RwLock::new(0),
            digest: Mutex::new(None),
        }
    }

    /// Builder: shed requests arriving while `threshold` or more are
    /// already queued. `None` (the default) queues without bound.
    pub fn with_overload_threshold(mut self, threshold: usize) -> Self {
        self.overload_threshold = Some(threshold);
        self
    }

    /// The configured shed point, if any.
    pub fn overload_threshold(&self) -> Option<usize> {
        self.overload_threshold
    }

    /// Index an object's keywords (called on every PutObject).
    fn index_object(&self, obj: &MhegObject) {
        let mut index = self.index.write();
        for kw in &obj.info.keywords {
            index.insert(kw, obj.id);
        }
    }

    /// Bulk-load objects (author-site publishing without the protocol).
    /// Journaled like any other mutation when durability is attached.
    pub fn load_objects(&self, objects: impl IntoIterator<Item = MhegObject>) {
        for obj in objects {
            self.put_object(obj);
        }
    }

    /// Bulk-load media. Journaled when durability is attached.
    pub fn load_media(&self, media: impl IntoIterator<Item = mits_media::MediaObject>) {
        for m in media {
            self.put_media(m);
        }
    }

    // ---------- durable mutation paths ----------

    /// Store an object: journal first, then apply. The stored version is
    /// current + 1 (or 0 for a fresh insert) and is recorded *inside* the
    /// WAL record, so replay reproduces it exactly instead of re-bumping.
    pub fn put_object(&self, mut obj: MhegObject) -> u32 {
        let _gate = self.write_gate.lock();
        self.index_object(&obj);
        let prev = self.objects.version_of(obj.id);
        obj.info.version = prev.map_or(0, |p| p + 1);
        self.journal(&WalRecord::PutObject {
            object: obj.clone(),
        });
        let version = self
            .objects
            .put_if_version(obj, prev)
            .expect("write gate serializes object puts");
        self.stale();
        version
    }

    /// Store a media object: journal first, then apply.
    pub fn put_media(&self, media: MediaObject) {
        let _gate = self.write_gate.lock();
        self.journal(&WalRecord::PutContent {
            media: media.clone(),
        });
        self.content.put(media);
        self.stale();
    }

    /// Remove an object: journal first, then apply.
    pub fn remove_object(&self, id: MhegId) -> bool {
        let _gate = self.write_gate.lock();
        self.journal(&WalRecord::RemoveObject { id });
        let removed = self.objects.remove(id);
        self.stale();
        removed
    }

    /// Forget the memoised digest. Called *after* the store changed, so
    /// a digest being computed meanwhile (under the memo lock) is
    /// cleared once it lands instead of surviving stale.
    fn stale(&self) {
        *self.digest.lock() = None;
    }

    /// Append a record to the WAL (when attached) and queue the framed
    /// bytes for replication (when shipping).
    fn journal(&self, rec: &WalRecord) {
        let mut wal = self.wal.lock();
        if let Some(w) = wal.as_mut() {
            let (_, frame) = w.append(rec);
            *self.wal_records_journaled.write() += 1;
            *self.wal_bytes_journaled.write() += frame.len() as u64;
            if *self.shipping.lock() {
                self.outbox.lock().push(frame);
            }
        }
    }

    /// Handle one request; returns the response and its service time.
    /// Equivalent to [`DbServer::handle_at_depth`] with an idle queue.
    pub fn handle(&self, req: &Request) -> (Response, SimDuration) {
        self.handle_at_depth(req, 0)
    }

    /// Handle one request arriving while `queue_depth` requests are
    /// already waiting. Past the overload threshold the server answers
    /// with a structured [`DbError::Unavailable`] at a nominal cost — a
    /// rejection is cheap, and the client's backoff spreads the retry
    /// load instead of letting the queue grow without bound.
    pub fn handle_at_depth(&self, req: &Request, queue_depth: usize) -> (Response, SimDuration) {
        if let Some(limit) = self.overload_threshold {
            if queue_depth >= limit {
                *self.requests_shed.write() += 1;
                let msg = format!("queue depth {queue_depth} at limit {limit}");
                return (
                    Response::Err(DbError::Unavailable(msg)),
                    self.model.per_request,
                );
            }
        }
        *self.requests_served.write() += 1;
        let (resp, bytes) = self.dispatch(req);
        (resp, self.model.cost(bytes))
    }

    fn dispatch(&self, req: &Request) -> (Response, usize) {
        match req {
            Request::ListDocs => {
                let list = self.objects.list_containers();
                let bytes = list.iter().map(|(_, n)| n.len() + 12).sum();
                (Response::DocList(list), bytes)
            }
            Request::GetDoc { name } => {
                let root = self
                    .objects
                    .list_containers()
                    .into_iter()
                    .find(|(_, n)| n == name)
                    .map(|(id, _)| id);
                match root {
                    Some(id) => self.courseware_response(id),
                    None => (Response::Err(DbError::NotFound(name.clone())), 0),
                }
            }
            Request::GetObject { id } => match self.objects.get(*id) {
                Some(obj) => {
                    let bytes = approx_object_size(&obj);
                    (Response::Objects(vec![obj]), bytes)
                }
                None => (Response::Err(DbError::NotFound(id.to_string())), 0),
            },
            Request::GetCourseware { root } => {
                if self.objects.get(*root).is_none() {
                    return (Response::Err(DbError::NotFound(root.to_string())), 0);
                }
                self.courseware_response(*root)
            }
            Request::GetContent { media } => match self.content.get(*media) {
                Some(m) => {
                    let bytes = m.data.len();
                    (Response::Content(m), bytes)
                }
                None => (Response::Err(DbError::NotFound(media.to_string())), 0),
            },
            Request::GetKeywordTree => {
                let tree = self.index.read().clone();
                let bytes = tree.len() * 24;
                (Response::KeywordTree(tree), bytes)
            }
            Request::QueryKeyword { keyword, subtree } => {
                let index = self.index.read();
                let ids = if *subtree {
                    index.lookup_subtree(keyword)
                } else {
                    index.lookup(keyword)
                };
                let bytes = ids.len() * 12;
                (Response::DocIds(ids), bytes)
            }
            Request::PutObject { object } => {
                let bytes = approx_object_size(object);
                self.put_object(object.clone());
                (Response::Ack, bytes)
            }
            Request::PutContent { media } => {
                let bytes = media.data.len();
                self.put_media(media.clone());
                (Response::Ack, bytes)
            }
        }
    }

    fn courseware_response(&self, root: mits_mheg::MhegId) -> (Response, usize) {
        let objs = self.objects.closure(root);
        let bytes = objs.iter().map(approx_object_size).sum();
        (Response::Objects(objs), bytes)
    }

    // ---------- durability, recovery, replication ----------

    /// Attach durability to a fresh server: mutations journal to
    /// `wal_dev`, checkpoints write `snap_dev`. Use [`DbServer::recover`]
    /// instead when the devices may hold prior state.
    pub fn with_durability(
        self,
        wal_dev: Box<dyn LogDevice>,
        snap_dev: Box<dyn LogDevice>,
    ) -> Self {
        *self.wal.lock() = Some(Wal::create(wal_dev, 0));
        *self.snap.lock() = Some(snap_dev);
        self
    }

    /// True when a WAL is attached.
    pub fn is_durable(&self) -> bool {
        self.wal.lock().is_some()
    }

    /// Rebuild a server from its surviving devices: apply the snapshot,
    /// then the WAL tail past the snapshot's cursor, tolerating (and
    /// truncating) a torn or corrupt final record. The keyword index is
    /// rebuilt as records apply. Never panics on bad devices — worst
    /// case is an empty store and a loud report.
    pub fn recover(
        model: ServiceModel,
        overload_threshold: Option<usize>,
        wal_dev: Box<dyn LogDevice>,
        snap_dev: Box<dyn LogDevice>,
    ) -> (Self, RecoveryReport) {
        let mut server = DbServer::new(model);
        server.overload_threshold = overload_threshold;
        let mut report = RecoveryReport::default();

        let (through_seq, snap_records, snap_report) =
            snapshot::read_snapshot(&snap_dev.read_all());
        report.through_seq = through_seq;
        report.snapshot_records = snap_report.records;
        report.snapshot_bytes = snap_report.bytes;
        if let Some(w) = snap_report.warning {
            report.warnings.push(format!("snapshot: {w}"));
        }
        for rec in &snap_records {
            if server.apply_record(rec) {
                report.applied += 1;
            } else {
                report.skipped += 1;
            }
        }

        let (mut wal, tail, wal_report) = Wal::recover(wal_dev);
        report.wal_records = wal_report.records;
        report.wal_bytes = wal_report.bytes;
        report.torn_tail = wal_report.torn_tail;
        if let Some(w) = wal_report.warning {
            report.warnings.push(format!("wal: {w}"));
        }
        for (seq, rec) in &tail {
            if *seq < through_seq {
                // Already folded into the snapshot.
                report.skipped += 1;
            } else if server.apply_record(rec) {
                report.applied += 1;
            } else {
                report.skipped += 1;
            }
        }
        wal.advance_seq_to(through_seq);
        *server.wal.lock() = Some(wal);
        *server.snap.lock() = Some(snap_dev);
        *server.wal_bytes_replayed.write() = report.replayed_bytes();
        (server, report)
    }

    /// Apply one WAL record to the stores (replay and replication).
    /// Returns whether it changed anything; re-applying a record the
    /// store already reflects is a no-op, never a version double-bump.
    /// Bookmark records belong to the navigator and are skipped here.
    pub fn apply_record(&self, rec: &WalRecord) -> bool {
        let changed = self.apply(rec);
        if changed {
            self.stale();
        }
        changed
    }

    fn apply(&self, rec: &WalRecord) -> bool {
        match rec {
            WalRecord::PutObject { object } => {
                let v = object.info.version;
                let cur = self.objects.version_of(object.id);
                if cur == Some(v) {
                    return false; // already applied
                }
                self.index_object(object);
                // Sequential replay is a CAS from the predecessor
                // version; a bootstrap out of order (snapshot records,
                // resync) installs the recorded version directly.
                if self
                    .objects
                    .put_if_version(object.clone(), v.checked_sub(1))
                    .is_err()
                {
                    self.objects.put_exact(object.clone());
                }
                true
            }
            WalRecord::RemoveObject { id } => self.objects.remove(*id),
            WalRecord::PutContent { media } => {
                self.content.put(media.clone());
                true
            }
            WalRecord::BookmarkAdd { .. } | WalRecord::BookmarkRemove { .. } => false,
        }
    }

    /// Apply a frame shipped from the primary: verify its CRC, journal it
    /// locally (preserving the primary's sequence number; duplicates are
    /// verified but not re-appended), then apply the record. Returns
    /// whether the record changed local state.
    pub fn apply_shipped(&self, frame: &Bytes) -> Result<bool, DbError> {
        let _gate = self.write_gate.lock();
        let rec = {
            let mut wal = self.wal.lock();
            match wal.as_mut() {
                Some(w) => {
                    let rec = w.append_frame(frame)?.1;
                    *self.wal_records_journaled.write() += 1;
                    *self.wal_bytes_journaled.write() += frame.len() as u64;
                    rec
                }
                None => {
                    let (_, payload, _) = wal::decode_frame_shared(frame)?;
                    WalRecord::decode_shared(&payload)?
                }
            }
        };
        Ok(self.apply_record(&rec))
    }

    /// Checkpoint: write the whole store (exact versions) to the
    /// snapshot device as ordinary WAL frames, then truncate the log.
    /// `None` when durability is not attached.
    pub fn checkpoint(&self) -> Option<CheckpointStats> {
        let _gate = self.write_gate.lock();
        let mut wal_guard = self.wal.lock();
        let wal = wal_guard.as_mut()?;
        let mut snap_guard = self.snap.lock();
        let snap = snap_guard.as_mut()?;

        let mut objs: Vec<MhegObject> = Vec::new();
        self.objects.for_each(|o| objs.push(o.clone()));
        objs.sort_by_key(|o| o.id);
        let mut media: Vec<MediaObject> = Vec::new();
        self.content.for_each(|m| media.push(m.clone()));
        media.sort_by_key(|m| m.id);
        let records: Vec<WalRecord> = objs
            .into_iter()
            .map(|object| WalRecord::PutObject { object })
            .chain(
                media
                    .into_iter()
                    .map(|media| WalRecord::PutContent { media }),
            )
            .collect();

        let through_seq = wal.next_seq();
        let bytes = snapshot::write_snapshot(through_seq, &records);
        snap.truncate_to(0);
        snap.append(&bytes);
        let truncated_wal_bytes = wal.device_len() as u64;
        wal.truncate();
        *self.checkpoints_taken.write() += 1;
        Some(CheckpointStats {
            records: records.len() as u64,
            snapshot_bytes: bytes.len() as u64,
            truncated_wal_bytes,
            through_seq,
        })
    }

    /// Queue journaled frames for replication (primary role).
    pub fn set_shipping(&self, on: bool) {
        *self.shipping.lock() = on;
    }

    /// Drain the frames awaiting shipment to the replica.
    pub fn take_outbox(&self) -> Vec<Bytes> {
        std::mem::take(&mut *self.outbox.lock())
    }

    /// The next WAL sequence number (0 when no WAL is attached).
    pub fn wal_next_seq(&self) -> u64 {
        self.wal.lock().as_ref().map_or(0, Wal::next_seq)
    }

    /// Bytes currently on the WAL device (0 when no WAL is attached).
    pub fn wal_device_len(&self) -> usize {
        self.wal.lock().as_ref().map_or(0, Wal::device_len)
    }

    /// Every byte on the WAL device (empty when no WAL is attached).
    pub fn wal_contents(&self) -> Vec<u8> {
        self.wal
            .lock()
            .as_ref()
            .map(Wal::contents)
            .unwrap_or_default()
    }

    /// The server's failover epoch, stamped on every response.
    pub fn epoch(&self) -> u64 {
        *self.epoch.read()
    }

    /// Adopt a failover epoch (promotion, or a restarted server rejoining
    /// above every epoch it may have answered under before the crash).
    pub fn set_epoch(&self, epoch: u64) {
        *self.epoch.write() = epoch;
    }

    // ---------- course images ----------

    /// True when the server has history an image does not carry: served
    /// or shed requests, checkpoints, a recovery, a failover epoch, or
    /// frames awaiting shipment.
    fn has_unjournaled_history(&self) -> bool {
        *self.requests_served.read() > 0
            || *self.requests_shed.read() > 0
            || *self.checkpoints_taken.read() > 0
            || *self.wal_bytes_replayed.read() > 0
            || self.epoch() != 0
            || !self.outbox.lock().is_empty()
            || self.snap.lock().as_ref().is_some_and(|d| !d.is_empty())
    }

    /// True when nothing has happened to this server yet: empty stores
    /// and index, nothing journaled, no other history.
    pub fn is_fresh(&self) -> bool {
        self.objects.is_empty()
            && self.content.is_empty()
            && self.index.read().is_empty()
            && *self.wal_records_journaled.read() == 0
            && self
                .wal
                .lock()
                .as_ref()
                .is_none_or(|w| w.next_seq() == 0 && w.device_len() == 0)
            && !self.has_unjournaled_history()
    }

    /// Capture what publishing left on this server as an immutable
    /// [`StoreImage`]. Refused when the server did anything besides
    /// journaled mutations, since the image would not reproduce it.
    pub fn image(&self) -> Result<StoreImage, ImageError> {
        if self.has_unjournaled_history() {
            return Err(ImageError::NotPublished);
        }
        let wal = self
            .wal
            .lock()
            .as_ref()
            .map(|w| (Bytes::from(w.contents()), w.next_seq()));
        Ok(StoreImage {
            objects: self.objects.clone(),
            content: self.content.clone(),
            index: self.index.read().clone(),
            wal,
            wal_records_journaled: *self.wal_records_journaled.read(),
            wal_bytes_journaled: *self.wal_bytes_journaled.read(),
            digest: self.state_digest(),
        })
    }

    /// Mount a published image into this fresh server. The maps and the
    /// index are cloned (their values share payloads through `Bytes`),
    /// the journal segment is appended to the WAL device by reference,
    /// and the counters, cursor and digest are adopted: the server ends
    /// up exactly as if the publication had been journaled here, without
    /// re-encoding or re-hashing any of it. Refused unless the server is
    /// [fresh](DbServer::is_fresh) and journals exactly when the image's
    /// source did.
    pub fn mount(&mut self, image: &StoreImage) -> Result<(), ImageError> {
        if !self.is_fresh() {
            return Err(ImageError::NotFresh);
        }
        match (self.wal.get_mut(), &image.wal) {
            (Some(w), Some((segment, next_seq))) => w.mount(segment, *next_seq),
            (None, None) => {}
            _ => return Err(ImageError::Durability),
        }
        self.objects = image.objects.clone();
        self.content = image.content.clone();
        *self.index.get_mut() = image.index.clone();
        *self.wal_records_journaled.get_mut() = image.wal_records_journaled;
        *self.wal_bytes_journaled.get_mut() = image.wal_bytes_journaled;
        *self.digest.get_mut() = Some(image.digest);
        Ok(())
    }

    /// Snapshot the server's counters into `reg` under `prefix` (e.g.
    /// `db.server0`): requests served/shed, WAL records and bytes
    /// journaled, bytes replayed at the last recovery, checkpoints, the
    /// live WAL device size, and the failover epoch.
    pub fn export_metrics(&self, reg: &mits_sim::MetricsRegistry, prefix: &str) {
        reg.counter_set(
            &format!("{prefix}.requests_served"),
            *self.requests_served.read(),
        );
        reg.counter_set(
            &format!("{prefix}.requests_shed"),
            *self.requests_shed.read(),
        );
        reg.counter_set(
            &format!("{prefix}.wal.records_journaled"),
            *self.wal_records_journaled.read(),
        );
        reg.counter_set(
            &format!("{prefix}.wal.bytes_journaled"),
            *self.wal_bytes_journaled.read(),
        );
        reg.counter_set(
            &format!("{prefix}.wal.bytes_replayed"),
            *self.wal_bytes_replayed.read(),
        );
        reg.counter_set(
            &format!("{prefix}.checkpoints"),
            *self.checkpoints_taken.read(),
        );
        reg.gauge_set(
            &format!("{prefix}.wal.device_bytes"),
            self.wal_device_len() as f64,
        );
        reg.gauge_set(&format!("{prefix}.epoch"), self.epoch() as f64);
    }

    /// Order-independent digest of the visible store state (objects with
    /// exact versions, media with payloads) — what the crash-recovery
    /// tests compare between a recovered server and a crash-free run.
    /// Memoised until the next mutation; a mounted image supplies it.
    pub fn state_digest(&self) -> u64 {
        let mut memo = self.digest.lock();
        *memo.get_or_insert_with(|| self.compute_digest())
    }

    fn compute_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(FNV_PRIME);
            }
        }
        let mut objs: Vec<MhegObject> = Vec::new();
        self.objects.for_each(|o| objs.push(o.clone()));
        objs.sort_by_key(|o| o.id);
        let mut media: Vec<MediaObject> = Vec::new();
        self.content.for_each(|m| media.push(m.clone()));
        media.sort_by_key(|m| m.id);
        let mut h = FNV_OFFSET;
        for o in &objs {
            mix(&mut h, &o.id.app.to_be_bytes());
            mix(&mut h, &o.id.num.to_be_bytes());
            mix(&mut h, &o.info.version.to_be_bytes());
            mix(&mut h, &encode_object(o, WireFormat::Tlv));
        }
        for m in &media {
            mix(&mut h, &m.id.0.to_be_bytes());
            mix(&mut h, m.name.as_bytes());
            mix(&mut h, &m.data);
        }
        h
    }
}

/// What [`DbServer::checkpoint`] wrote and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Records folded into the snapshot.
    pub records: u64,
    /// Snapshot size on its device.
    pub snapshot_bytes: u64,
    /// WAL bytes reclaimed by truncation.
    pub truncated_wal_bytes: u64,
    /// Journal cursor the snapshot covers up to (exclusive).
    pub through_seq: u64,
}

/// The published state of one server, captured once by
/// [`DbServer::image`] and mounted into any number of fresh servers by
/// [`DbServer::mount`]: the object and content maps, the keyword index,
/// the journal as one shared segment with its cursor and counters, and
/// the store digest. Immutable once captured.
pub struct StoreImage {
    objects: ObjectStore,
    content: ContentStore,
    index: KeywordTree,
    /// The journal segment and the next sequence number; `None` for a
    /// server without durability.
    wal: Option<(Bytes, u64)>,
    wal_records_journaled: u64,
    wal_bytes_journaled: u64,
    digest: u64,
}

impl StoreImage {
    /// Keep one allocation for two identical journals: when `other`
    /// holds the same WAL bytes (a replica loaded alongside its
    /// primary), this image drops its copy and shares `other`'s.
    pub fn share_journal(&mut self, other: &StoreImage) {
        if let (Some((mine, _)), Some((theirs, _))) = (&mut self.wal, &other.wal) {
            if *mine == *theirs {
                *mine = theirs.clone();
            }
        }
    }
}

/// Why [`DbServer::image`] or [`DbServer::mount`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageError {
    /// The source server has history beyond its journaled publication.
    NotPublished,
    /// The mount target is not a fresh server.
    NotFresh,
    /// One of the image's source and the mount target journals and the
    /// other does not.
    Durability,
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ImageError::NotPublished => "server has history beyond its journaled publication",
            ImageError::NotFresh => "mount target is not a fresh server",
            ImageError::Durability => "image and mount target disagree on durability",
        })
    }
}

impl std::error::Error for ImageError {}

/// What [`DbServer::recover`] read, applied, and discarded. The byte
/// counts drive the simulation's recovery-latency model: a restarted
/// server is busy for `model.cost(replayed_bytes())` before it answers.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Intact records found in the snapshot.
    pub snapshot_records: u64,
    /// Snapshot bytes read.
    pub snapshot_bytes: u64,
    /// Intact records found in the WAL.
    pub wal_records: u64,
    /// WAL bytes read.
    pub wal_bytes: u64,
    /// Records that changed store state.
    pub applied: u64,
    /// Records skipped (already reflected, or folded into the snapshot).
    pub skipped: u64,
    /// A torn/corrupt WAL tail was truncated.
    pub torn_tail: bool,
    /// Human-readable accounts of anything discarded.
    pub warnings: Vec<String>,
    /// The snapshot's journal cursor.
    pub through_seq: u64,
}

impl RecoveryReport {
    /// Total bytes replayed off the devices (the recovery-latency input).
    pub fn replayed_bytes(&self) -> u64 {
        self.snapshot_bytes + self.wal_bytes
    }
}

/// Rough in-store footprint of an object (drives the I/O cost model;
/// exactness is irrelevant, monotonicity matters).
fn approx_object_size(obj: &MhegObject) -> usize {
    use mits_mheg::{ContentData, ObjectBody};
    let base = 128 + obj.info.name.len() + obj.info.keywords.iter().map(String::len).sum::<usize>();
    let body = match &obj.body {
        ObjectBody::Content(c) => match &c.data {
            ContentData::Inline(b) => b.len(),
            _ => 16,
        },
        ObjectBody::Script(s) => s.source.len(),
        _ => 64,
    };
    base + body
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
    use mits_mheg::{ClassLibrary, GenericValue, MhegId, ObjectInfo};

    fn loaded_server() -> (DbServer, MhegId) {
        let mut lib = ClassLibrary::new(1);
        let a = lib.value_content("a", GenericValue::Int(1));
        let scene = lib.composite("scene", vec![a], vec![], vec![]);
        let course = lib.container("ATM Course", vec![scene]);
        let mut objs = lib.into_objects();
        // Tag the course for the keyword index.
        objs.iter_mut()
            .find(|o| o.id == course)
            .expect("course exists")
            .info = ObjectInfo::named("ATM Course").with_keywords(["telecom/atm", "networks"]);
        let server = DbServer::default();
        server.load_objects(objs);
        server.load_media([MediaObject::new(
            MediaId(7),
            "clip.mpg",
            MediaFormat::Mpeg,
            mits_sim::SimDuration::from_secs(5),
            VideoDims::new(320, 240),
            Bytes::from(vec![9u8; 10_000]),
        )]);
        (server, course)
    }

    #[test]
    fn list_and_fetch_doc() {
        let (server, course) = loaded_server();
        let (resp, _) = server.handle(&Request::ListDocs);
        assert_eq!(resp, Response::DocList(vec![(course, "ATM Course".into())]));
        let (resp, _) = server.handle(&Request::GetDoc {
            name: "ATM Course".into(),
        });
        match resp {
            Response::Objects(objs) => assert_eq!(objs.len(), 3, "closure"),
            other => panic!("{other:?}"),
        }
        let (resp, _) = server.handle(&Request::GetDoc {
            name: "missing".into(),
        });
        assert!(matches!(resp, Response::Err(DbError::NotFound(_))));
    }

    #[test]
    fn content_fetch_costs_scale_with_size() {
        let (server, _) = loaded_server();
        let (_, small_cost) = server.handle(&Request::ListDocs);
        let (resp, big_cost) = server.handle(&Request::GetContent { media: MediaId(7) });
        assert!(matches!(resp, Response::Content(m) if m.data.len() == 10_000));
        assert!(big_cost > small_cost, "10 kB fetch costs more than a list");
    }

    #[test]
    fn keyword_queries() {
        let (server, course) = loaded_server();
        let (resp, _) = server.handle(&Request::QueryKeyword {
            keyword: "telecom/atm".into(),
            subtree: false,
        });
        assert_eq!(resp, Response::DocIds(vec![course]));
        let (resp, _) = server.handle(&Request::QueryKeyword {
            keyword: "telecom".into(),
            subtree: true,
        });
        assert_eq!(resp, Response::DocIds(vec![course]));
        let (resp, _) = server.handle(&Request::GetKeywordTree);
        match resp {
            Response::KeywordTree(t) => {
                assert_eq!(t.lookup("networks"), vec![course]);
                assert_eq!(t.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn put_object_indexes_keywords() {
        let server = DbServer::default();
        let mut lib = ClassLibrary::new(9);
        let id = lib.value_content("tagged", GenericValue::Int(1));
        let mut obj = lib.get(id).unwrap().clone();
        obj.info.keywords = vec!["fresh/topic".into()];
        let (resp, _) = server.handle(&Request::PutObject { object: obj });
        assert_eq!(resp, Response::Ack);
        let (resp, _) = server.handle(&Request::QueryKeyword {
            keyword: "fresh/topic".into(),
            subtree: false,
        });
        assert_eq!(resp, Response::DocIds(vec![id]));
    }

    #[test]
    fn unknown_ids_not_found() {
        let (server, _) = loaded_server();
        let (resp, _) = server.handle(&Request::GetObject {
            id: MhegId::new(9, 9),
        });
        assert!(matches!(resp, Response::Err(DbError::NotFound(_))));
        let (resp, _) = server.handle(&Request::GetContent { media: MediaId(99) });
        assert!(matches!(resp, Response::Err(DbError::NotFound(_))));
        let (resp, _) = server.handle(&Request::GetCourseware {
            root: MhegId::new(9, 9),
        });
        assert!(matches!(resp, Response::Err(DbError::NotFound(_))));
    }

    #[test]
    fn service_model_costs() {
        let m = ServiceModel::default();
        assert_eq!(m.cost(0), SimDuration::from_micros(200));
        // 1 MB at 20 ns/B = 20 ms + 200 µs.
        assert_eq!(m.cost(1_000_000), SimDuration::from_micros(200 + 20_000));
    }

    #[test]
    fn overload_threshold_sheds_load() {
        let (server, _) = loaded_server();
        let server = DbServer {
            overload_threshold: Some(4),
            ..server
        };
        // Below the limit: served normally.
        let (resp, _) = server.handle_at_depth(&Request::ListDocs, 3);
        assert!(matches!(resp, Response::DocList(_)));
        // At and past the limit: structured, retryable rejection.
        let (resp, cost) = server.handle_at_depth(&Request::ListDocs, 4);
        match resp {
            Response::Err(e) => assert!(e.is_retryable(), "{e}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            cost,
            ServiceModel::default().per_request,
            "rejection is cheap"
        );
        assert_eq!(*server.requests_shed.read(), 1);
        assert_eq!(*server.requests_served.read(), 1);
        // Unconfigured servers never shed.
        let (fresh, _) = loaded_server();
        let (resp, _) = fresh.handle_at_depth(&Request::ListDocs, 1_000_000);
        assert!(matches!(resp, Response::DocList(_)));
    }

    #[test]
    fn request_counter() {
        let (server, _) = loaded_server();
        for _ in 0..5 {
            server.handle(&Request::ListDocs);
        }
        assert_eq!(*server.requests_served.read(), 5);
    }

    // ---------- durability ----------

    use crate::wal::SharedLogDevice;

    fn durable_loaded_server() -> (DbServer, MhegId, SharedLogDevice, SharedLogDevice) {
        let wal_dev = SharedLogDevice::new();
        let snap_dev = SharedLogDevice::new();
        let server = DbServer::default()
            .with_durability(Box::new(wal_dev.clone()), Box::new(snap_dev.clone()));
        let mut lib = ClassLibrary::new(1);
        let a = lib.value_content("a", GenericValue::Int(1));
        let scene = lib.composite("scene", vec![a], vec![], vec![]);
        let course = lib.container("ATM Course", vec![scene]);
        server.load_objects(lib.into_objects());
        server.load_media([MediaObject::new(
            MediaId(7),
            "clip.mpg",
            MediaFormat::Mpeg,
            mits_sim::SimDuration::from_secs(5),
            VideoDims::new(320, 240),
            Bytes::from(vec![9u8; 4_000]),
        )]);
        (server, course, wal_dev, snap_dev)
    }

    #[test]
    fn journal_then_recover_restores_state_and_versions() {
        let (server, course, wal_dev, snap_dev) = durable_loaded_server();
        // Mutate: re-put the course twice so its version climbs.
        let obj = server.objects.get(course).expect("loaded");
        assert_eq!(server.put_object(obj.clone()), 1);
        let obj = server.objects.get(course).expect("loaded");
        assert_eq!(server.put_object(obj.clone()), 2);
        let digest = server.state_digest();

        let (recovered, report) = DbServer::recover(
            ServiceModel::default(),
            None,
            Box::new(SharedLogDevice::with_data(wal_dev.snapshot())),
            Box::new(SharedLogDevice::with_data(snap_dev.snapshot())),
        );
        assert_eq!(recovered.state_digest(), digest);
        assert_eq!(recovered.objects.version_of(course), Some(2));
        assert!(!report.torn_tail);
        assert!(report.replayed_bytes() > 0);
        // The keyword index came back with the objects.
        let (resp, _) = recovered.handle(&Request::GetDoc {
            name: "ATM Course".into(),
        });
        assert!(matches!(resp, Response::Objects(_)));
        // And the recovered journal continues where the old one stopped.
        assert_eq!(recovered.wal_next_seq(), server.wal_next_seq());
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovery_uses_snapshot_plus_tail() {
        let (server, course, wal_dev, snap_dev) = durable_loaded_server();
        let pre_ckpt_wal = server.wal_device_len();
        assert!(pre_ckpt_wal > 0, "loads are journaled");
        let stats = server.checkpoint().expect("durability attached");
        assert_eq!(stats.truncated_wal_bytes as usize, pre_ckpt_wal);
        assert_eq!(server.wal_device_len(), 0, "log truncated");
        // Post-checkpoint mutation lands in the WAL tail only.
        let obj = server.objects.get(course).expect("loaded");
        server.put_object(obj.clone());
        let digest = server.state_digest();

        let (recovered, report) = DbServer::recover(
            ServiceModel::default(),
            None,
            Box::new(SharedLogDevice::with_data(wal_dev.snapshot())),
            Box::new(SharedLogDevice::with_data(snap_dev.snapshot())),
        );
        assert_eq!(recovered.state_digest(), digest);
        assert_eq!(report.through_seq, stats.through_seq);
        assert!(report.snapshot_records > 0);
        assert_eq!(report.wal_records, 1, "only the tail mutation");
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_good_record() {
        let (server, course, wal_dev, snap_dev) = durable_loaded_server();
        let digest_before_last = server.state_digest();
        let obj = server.objects.get(course).expect("loaded");
        server.put_object(obj.clone());
        // Tear the final record: chop bytes off the device.
        let mut data = wal_dev.snapshot();
        data.truncate(data.len() - 3);
        let (recovered, report) = DbServer::recover(
            ServiceModel::default(),
            None,
            Box::new(SharedLogDevice::with_data(data)),
            Box::new(SharedLogDevice::with_data(snap_dev.snapshot())),
        );
        assert!(report.torn_tail);
        assert!(!report.warnings.is_empty());
        assert_eq!(
            recovered.state_digest(),
            digest_before_last,
            "state as of the last intact record"
        );
    }

    #[test]
    fn shipped_frames_replicate_without_double_bumps() {
        let (primary, course, _, _) = durable_loaded_server();
        primary.set_shipping(true);
        let replica = DbServer::default().with_durability(
            Box::new(SharedLogDevice::new()),
            Box::new(SharedLogDevice::new()),
        );
        // The pre-shipping load is not in the outbox; bootstrap the
        // replica by re-applying the primary's journal... here, simply
        // replay the same loads.
        let mut objs: Vec<MhegObject> = Vec::new();
        primary.objects.for_each(|o| objs.push(o.clone()));
        for o in &objs {
            replica.apply_record(&WalRecord::PutObject { object: o.clone() });
        }
        let mut media: Vec<MediaObject> = Vec::new();
        primary.content.for_each(|m| media.push(m.clone()));
        for m in &media {
            replica.apply_record(&WalRecord::PutContent { media: m.clone() });
        }
        // Live mutations ship as frames.
        let obj = primary.objects.get(course).expect("loaded");
        primary.put_object(obj.clone());
        let frames = primary.take_outbox();
        assert_eq!(frames.len(), 1);
        for f in &frames {
            assert!(replica.apply_shipped(f).expect("valid frame"));
        }
        assert_eq!(primary.state_digest(), replica.state_digest());
        // Redelivery (duplicate ship) must not double-bump versions.
        for f in &frames {
            assert!(!replica.apply_shipped(f).expect("valid frame"));
        }
        assert_eq!(primary.state_digest(), replica.state_digest());
        assert_eq!(primary.take_outbox().len(), 0, "outbox drained");
    }

    #[test]
    fn epoch_is_adjustable_and_readable() {
        let (server, _, _, _) = durable_loaded_server();
        assert_eq!(server.epoch(), 0);
        server.set_epoch(3);
        assert_eq!(server.epoch(), 3);
    }
}
