//! Shard routing and the campus-edge cache tier.
//!
//! [`ShardRouter`] decides, per request, which shard group a frame goes
//! to: single-key requests (object/courseware/content gets, puts) route
//! by ring position; catalogue queries (`ListDocs`, `GetKeywordTree`,
//! `QueryKeyword`) and by-name lookups touch every shard and are
//! scatter/gathered by the caller with the merge helper here. A missing
//! shard degrades the merged result — it never blocks it.
//!
//! [`EdgeCache`] is the campus-edge tier in front of the ring: media
//! content filled from origin responses, stamped with the response's
//! failover epoch. The monotonic epochs that fence stale primaries
//! (PR 2) double as the invalidation primitive — once a shard is
//! observed at a higher epoch, every entry filled under an older one is
//! evicted on access instead of served, because a deposed primary may
//! have answered with writes the promoted replica never saw.

use crate::protocol::Request;
use crate::ring::HashRing;
use mits_media::{MediaId, MediaObject};
use mits_mheg::MhegId;
use mits_sim::{FlightKind, FlightRecorder, SimTime};
use std::collections::{HashMap, VecDeque};

/// Where a request must go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard owns the key.
    Shard(usize),
    /// Every shard must be consulted and the results merged.
    Scatter,
}

/// Routes requests over a [`HashRing`].
#[derive(Debug, Clone)]
pub struct ShardRouter {
    ring: HashRing,
}

impl ShardRouter {
    /// A router over `shards` shard groups.
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            ring: HashRing::new(shards),
        }
    }

    /// How many shards the router spans.
    pub fn shards(&self) -> usize {
        self.ring.shards()
    }

    /// The underlying ring (placement decisions for loaders).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shard owning an object (or document-root) id.
    pub fn shard_for_object(&self, id: MhegId) -> usize {
        self.ring.shard_for_object(id)
    }

    /// The shard owning a media id.
    pub fn shard_for_media(&self, id: MediaId) -> usize {
        self.ring.shard_for_media(id)
    }

    /// Route one request by ring position. `GetDoc` (by name) and
    /// `GetObject` scatter: a document's closure lives with its *root*
    /// OID, which a name or member id alone does not reveal.
    pub fn route(&self, req: &Request) -> Route {
        if self.shards() <= 1 {
            return Route::Shard(0);
        }
        match req {
            Request::GetCourseware { root } => Route::Shard(self.shard_for_object(*root)),
            Request::GetContent { media } => Route::Shard(self.shard_for_media(*media)),
            Request::PutContent { media } => Route::Shard(self.shard_for_media(media.id)),
            Request::ListDocs
            | Request::GetKeywordTree
            | Request::QueryKeyword { .. }
            | Request::GetDoc { .. }
            | Request::GetObject { .. } => Route::Scatter,
            // Object puts route by their own id; whole-document
            // publishing goes through the root-routed facade instead.
            Request::PutObject { object } => Route::Shard(self.shard_for_object(object.id)),
        }
    }
}

/// Merge scatter/gathered lists (document catalogues, keyword-query
/// ids): concatenate, sort and deduplicate, so the result is
/// independent of shard arrival order.
pub fn merge_sorted<T: Ord>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut out: Vec<T> = parts.into_iter().flatten().collect();
    out.sort();
    out.dedup();
    out
}

/// One cached media object, stamped with the shard and failover epoch it
/// was filled under.
#[derive(Debug, Clone)]
struct EdgeEntry {
    shard: usize,
    epoch: u64,
    media: MediaObject,
}

/// Fixed per-entry bookkeeping cost added to the payload size.
const EDGE_ENTRY_COST: usize = 512;

/// The campus-edge cache: byte-bounded FIFO over media content, with
/// per-shard epoch floors for fencing. All counters are simulated
/// quantities — deterministic under seed.
#[derive(Debug, Clone)]
pub struct EdgeCache {
    capacity: usize,
    used: usize,
    entries: HashMap<MediaId, EdgeEntry>,
    order: VecDeque<MediaId>,
    /// Highest epoch observed per shard; entries below their shard's
    /// floor are fenced.
    floors: Vec<u64>,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found a fenced (stale-epoch) entry: evicted, never
    /// served.
    pub invalidations: u64,
    /// Fills accepted into the cache.
    pub inserts: u64,
    /// Requests the cache forwarded to the origin shards.
    pub origin_requests: u64,
    /// When set, fence raises and fenced-entry evictions are recorded
    /// as flight events (`a` = shard, `b` = epoch).
    flight: Option<FlightRecorder>,
}

impl EdgeCache {
    /// An edge cache bounded to `capacity` bytes in front of `shards`
    /// shard groups.
    pub fn new(capacity: usize, shards: usize) -> Self {
        EdgeCache {
            capacity,
            used: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            floors: vec![0; shards.max(1)],
            hits: 0,
            misses: 0,
            invalidations: 0,
            inserts: 0,
            origin_requests: 0,
            flight: None,
        }
    }

    /// Attach a flight recorder; epoch-fence raises and fenced-entry
    /// invalidations become structured flight events.
    pub fn set_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = Some(flight);
    }

    fn cost(media: &MediaObject) -> usize {
        media.data.len() + EDGE_ENTRY_COST
    }

    /// Total lookups, however they resolved.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalidations
    }

    /// Current epoch floor for a shard.
    pub fn floor(&self, shard: usize) -> u64 {
        self.floors.get(shard).copied().unwrap_or(0)
    }

    /// Advance a shard's epoch floor at virtual instant `now`. Raising
    /// the floor fences every entry filled under an older epoch: the
    /// next lookup evicts it.
    pub fn observe_epoch(&mut self, shard: usize, epoch: u64, now: SimTime) {
        if let Some(f) = self.floors.get_mut(shard) {
            if epoch > *f {
                *f = epoch;
                if let Some(fr) = &self.flight {
                    fr.record(now, FlightKind::EpochFence, shard as u64, epoch);
                }
            }
        }
    }

    /// Look up a media object at virtual instant `now`. A fenced entry
    /// (filled under an epoch below its shard's floor) is evicted and
    /// counted as an invalidation — the caller must refetch from
    /// origin, exactly as on a miss.
    pub fn get(&mut self, id: MediaId, now: SimTime) -> Option<MediaObject> {
        match self.entries.get(&id) {
            None => {
                self.misses += 1;
                None
            }
            Some(e) if e.epoch < self.floor(e.shard) => {
                self.invalidations += 1;
                if let Some(fr) = &self.flight {
                    fr.record(now, FlightKind::EdgeInvalidation, e.shard as u64, e.epoch);
                }
                self.remove(id);
                None
            }
            Some(e) => {
                self.hits += 1;
                Some(e.media.clone())
            }
        }
    }

    /// Record that a lookup is going to origin (a miss or invalidation
    /// being refilled). Kept separate from [`EdgeCache::get`] so the
    /// `origin_requests <= misses + invalidations` invariant is a real
    /// measurement, not an identity baked into one counter.
    pub fn note_origin(&mut self) {
        self.origin_requests += 1;
    }

    /// Fill the cache from an origin response stamped with the epoch the
    /// client accepted it under. Oversized payloads are passed through
    /// uncached; old entries FIFO out until the new one fits.
    pub fn fill(&mut self, id: MediaId, shard: usize, epoch: u64, media: &MediaObject) {
        let cost = Self::cost(media);
        if cost > self.capacity {
            return;
        }
        self.remove(id);
        while self.used + cost > self.capacity {
            let Some(victim) = self.order.front().copied() else {
                break;
            };
            self.remove(victim);
        }
        self.entries.insert(
            id,
            EdgeEntry {
                shard,
                epoch,
                media: media.clone(),
            },
        );
        self.order.push_back(id);
        self.used += cost;
        self.inserts += 1;
    }

    fn remove(&mut self, id: MediaId) {
        if let Some(e) = self.entries.remove(&id) {
            self.used -= Self::cost(&e.media);
            self.order.retain(|&m| m != id);
        }
    }

    /// Export the cache counters under `prefix` (e.g. `edge`).
    pub fn export_metrics(&self, reg: &mits_sim::MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.hits"), self.hits);
        reg.counter_set(&format!("{prefix}.misses"), self.misses);
        reg.counter_set(&format!("{prefix}.invalidations"), self.invalidations);
        reg.counter_set(&format!("{prefix}.inserts"), self.inserts);
        reg.counter_set(&format!("{prefix}.origin_requests"), self.origin_requests);
        reg.counter_set(&format!("{prefix}.lookups"), self.lookups());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mits_media::{MediaFormat, VideoDims};
    use mits_sim::{SimDuration, SimTime};

    fn clip(id: u64, bytes: usize) -> MediaObject {
        MediaObject::new(
            MediaId(id),
            format!("clip{id}.mpg"),
            MediaFormat::Mpeg,
            SimDuration::from_secs(1),
            VideoDims::new(160, 120),
            Bytes::from(vec![0u8; bytes]),
        )
    }

    #[test]
    fn single_shard_router_never_scatters() {
        let r = ShardRouter::new(1);
        assert_eq!(r.route(&Request::ListDocs), Route::Shard(0));
        assert_eq!(r.route(&Request::GetKeywordTree), Route::Shard(0));
    }

    #[test]
    fn multi_shard_router_scatters_catalogue_queries() {
        let r = ShardRouter::new(4);
        assert_eq!(r.route(&Request::ListDocs), Route::Scatter);
        assert_eq!(r.route(&Request::GetKeywordTree), Route::Scatter);
        assert_eq!(
            r.route(&Request::QueryKeyword {
                keyword: "telecom".into(),
                subtree: true
            }),
            Route::Scatter
        );
        let root = MhegId::new(3, 9);
        match r.route(&Request::GetCourseware { root }) {
            Route::Shard(s) => assert_eq!(s, r.shard_for_object(root)),
            Route::Scatter => panic!("courseware routes by root"),
        }
    }

    #[test]
    fn merge_helpers_are_order_independent() {
        let a = vec![(MhegId::new(1, 2), "b".to_string())];
        let b = vec![(MhegId::new(1, 1), "a".to_string())];
        let m1 = merge_sorted(vec![a.clone(), b.clone()]);
        let m2 = merge_sorted(vec![b, a]);
        assert_eq!(m1, m2);
        assert_eq!(m1[0].1, "a");
        let ids = merge_sorted(vec![
            vec![MhegId::new(1, 3), MhegId::new(1, 1)],
            vec![MhegId::new(1, 1)],
        ]);
        assert_eq!(ids, vec![MhegId::new(1, 1), MhegId::new(1, 3)]);
    }

    #[test]
    fn edge_cache_hits_after_fill() {
        let mut c = EdgeCache::new(1 << 20, 2);
        assert!(c.get(MediaId(1), SimTime::ZERO).is_none());
        c.note_origin();
        c.fill(MediaId(1), 0, 0, &clip(1, 1024));
        let got = c.get(MediaId(1), SimTime::ZERO).expect("filled");
        assert_eq!(got.data.len(), 1024);
        assert_eq!((c.hits, c.misses, c.origin_requests), (1, 1, 1));
    }

    #[test]
    fn stale_epoch_entry_is_evicted_not_served() {
        let mut c = EdgeCache::new(1 << 20, 2);
        c.fill(MediaId(7), 1, 0, &clip(7, 512));
        // Shard 1 fences its old primary: everything filled under epoch
        // 0 is now suspect.
        c.observe_epoch(1, 2, SimTime::ZERO);
        assert!(
            c.get(MediaId(7), SimTime::ZERO).is_none(),
            "fenced entry must not serve"
        );
        assert_eq!(c.invalidations, 1);
        assert_eq!(c.misses, 0, "an invalidation is not a miss");
        // Refill at the new epoch serves again.
        c.fill(MediaId(7), 1, 2, &clip(7, 512));
        assert!(c.get(MediaId(7), SimTime::ZERO).is_some());
        // Other shards' floors are independent.
        c.fill(MediaId(9), 0, 0, &clip(9, 512));
        assert!(c.get(MediaId(9), SimTime::ZERO).is_some());
    }

    #[test]
    fn fences_and_invalidations_hit_the_flight_recorder() {
        use mits_sim::{FlightKind, FlightRecorder};
        let fr = FlightRecorder::default();
        let mut c = EdgeCache::new(1 << 20, 2);
        c.set_flight_recorder(fr.clone());
        c.fill(MediaId(7), 1, 0, &clip(7, 512));
        c.observe_epoch(1, 2, SimTime::from_secs(5));
        c.observe_epoch(1, 2, SimTime::from_secs(6)); // no raise, no event
        assert!(c.get(MediaId(7), SimTime::from_secs(7)).is_none());
        assert_eq!(fr.total(FlightKind::EpochFence), 1);
        assert_eq!(fr.total(FlightKind::EdgeInvalidation), 1);
        let tail = fr.tail();
        assert_eq!(tail[0].at, SimTime::from_secs(5));
        assert_eq!(tail[1].kind, FlightKind::EdgeInvalidation);
        assert_eq!(tail[1].a, 1, "invalidation names the fenced shard");
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let mut c = EdgeCache::new(2 * (1024 + EDGE_ENTRY_COST), 1);
        c.fill(MediaId(1), 0, 0, &clip(1, 1024));
        c.fill(MediaId(2), 0, 0, &clip(2, 1024));
        c.fill(MediaId(3), 0, 0, &clip(3, 1024));
        assert!(
            c.get(MediaId(1), SimTime::ZERO).is_none(),
            "oldest entry FIFO'd out"
        );
        assert!(c.get(MediaId(3), SimTime::ZERO).is_some());
        // An over-capacity payload passes through uncached.
        c.fill(MediaId(4), 0, 0, &clip(4, 1 << 20));
        assert!(c.get(MediaId(4), SimTime::ZERO).is_none());
    }
}
