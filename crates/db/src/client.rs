//! The client module embedded in the navigator (§5.3.2).
//!
//! "A client module, which is embedded in the navigator program at the
//! courseware user site, to provide APIs for accessing the database."
//! The prototype shipped `Get_List_Doc()` and `Get_Selected_Doc()`; the
//! thesis lists `GetKeywordTree()` and `GetDocByKeyword()` as future
//! work — all four are here as the paper-named facade
//! ([`DbClient::get_list_doc`], [`DbClient::get_selected_doc`],
//! [`DbClient::get_keyword_tree`], [`DbClient::get_doc_by_keyword`]),
//! plus the object/content fetches the full courseware service needs and
//! a byte-bounded cache so re-visited objects do not cross the network
//! twice (the reuse half of E-REUSE).
//!
//! The client is transport-agnostic: it emits encoded request frames and
//! consumes encoded response frames; `mits-core` pumps them through the
//! simulated ATM network (or a loopback in tests).
//!
//! ## Deadlines, retries, backoff
//!
//! Over a faulty network (see `mits-atm`'s `FaultPlan`) frames vanish, so
//! every request carries a [`RetryPolicy`]: a per-request **deadline**, a
//! per-attempt **timeout**, and **exponential backoff with deterministic
//! jitter** between re-issues. Requests are idempotent reads keyed by
//! `req_id`, so a re-issue is byte-identical and a late duplicate response
//! is silently ignored rather than treated as a protocol violation. The
//! driver calls [`DbClient::poll`] with the simulation clock; it returns
//! [`ClientAction`]s (resend this frame / this request expired) in sorted
//! `req_id` order so a given seed always replays the same schedule.
//! [`DbClientMetrics`] counts attempts, retries, timeouts and per-operation
//! latency histograms for the experiment tables.

use crate::protocol::{peek_req_id, DbError, Envelope, Request, RequestKind, Response};
use bytes::Bytes;
use mits_media::{MediaId, MediaObject};
use mits_mheg::{MhegId, MhegObject};
use mits_sim::{
    FlightKind, FlightRecorder, Histogram, MetricsRegistry, SimDuration, SimRng, SimTime, SpanId,
    Tracer,
};
use std::collections::{HashMap, VecDeque};

/// A byte-bounded object/content cache (FIFO eviction — simple and
/// adequate for session-length reuse).
pub struct ClientCache {
    capacity_bytes: usize,
    used_bytes: usize,
    objects: HashMap<MhegId, MhegObject>,
    content: HashMap<MediaId, MediaObject>,
    order: VecDeque<CacheKey>,
    /// Cache hits (objects + content).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheKey {
    Obj(MhegId),
    Med(MediaId),
}

impl ClientCache {
    /// A cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        ClientCache {
            capacity_bytes,
            used_bytes: 0,
            objects: HashMap::new(),
            content: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn evict_to(&mut self, target: usize) {
        while self.used_bytes > target {
            let Some(key) = self.order.pop_front() else {
                break;
            };
            match key {
                CacheKey::Obj(id) => {
                    if self.objects.remove(&id).is_some() {
                        self.used_bytes = self.used_bytes.saturating_sub(OBJ_COST);
                    }
                }
                CacheKey::Med(id) => {
                    if let Some(m) = self.content.remove(&id) {
                        self.used_bytes = self.used_bytes.saturating_sub(m.data.len());
                    }
                }
            }
        }
    }

    /// Insert an object. Presence is checked before anything is cloned:
    /// a hit that delivers identical bytes costs no allocation at all.
    pub fn put_object(&mut self, obj: &MhegObject) {
        match self.objects.get_mut(&obj.id) {
            Some(slot) => {
                if slot != obj {
                    *slot = obj.clone(); // refreshed content for the same id
                }
            }
            None => {
                self.objects.insert(obj.id, obj.clone());
                self.used_bytes += OBJ_COST;
                self.order.push_back(CacheKey::Obj(obj.id));
                self.evict_to(self.capacity_bytes);
            }
        }
    }

    /// Insert a media object. Media is immutable per id, so a hit is a
    /// no-op — the clone happens only on a miss.
    pub fn put_content(&mut self, m: &MediaObject) {
        let cost = m.data.len();
        if cost > self.capacity_bytes {
            return; // would evict everything for one oversized item
        }
        if self.content.contains_key(&m.id) {
            return;
        }
        self.content.insert(m.id, m.clone());
        self.used_bytes += cost;
        self.order.push_back(CacheKey::Med(m.id));
        self.evict_to(self.capacity_bytes);
    }

    /// Look up an object, counting hit/miss.
    pub fn get_object(&mut self, id: MhegId) -> Option<MhegObject> {
        match self.objects.get(&id) {
            Some(o) => {
                self.hits += 1;
                Some(o.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up content, counting hit/miss.
    pub fn get_content(&mut self, id: MediaId) -> Option<MediaObject> {
        match self.content.get(&id) {
            Some(m) => {
                self.hits += 1;
                Some(m.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Bytes currently accounted.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }
}

/// Flat accounting cost of a cached scenario object.
const OBJ_COST: usize = 512;

/// Deadline / retry / backoff parameters for every request a client
/// issues.
///
/// The default is **no retry**: one attempt with effectively-infinite
/// timeouts, which reproduces the pre-fault-injection client byte for
/// byte on a clean network. Lossy experiments opt into
/// [`RetryPolicy::interactive`] or a hand-built policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total budget per request, measured from first issue. When it
    /// elapses the request fails with a timeout.
    pub deadline: SimDuration,
    /// How long one attempt waits for a response before the client
    /// considers the frame (or its response) lost.
    pub attempt_timeout: SimDuration,
    /// Backoff before re-issue n is `min(base << (n-1), cap)`, stretched
    /// by up to `jitter_frac`.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff interval.
    pub backoff_cap: SimDuration,
    /// Deterministic jitter: each backoff is multiplied by a factor drawn
    /// uniformly from `[1, 1 + jitter_frac]` on the client's RNG stream.
    pub jitter_frac: f64,
    /// Maximum issues of the same request (1 = no retry).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::no_retry()
    }
}

impl RetryPolicy {
    /// One attempt, hour-scale timeouts — the legacy clean-network
    /// behavior.
    pub fn no_retry() -> Self {
        RetryPolicy {
            deadline: SimDuration::from_secs(3600),
            attempt_timeout: SimDuration::from_secs(3600),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(5),
            jitter_frac: 0.0,
            max_attempts: 1,
        }
    }

    /// A policy tuned for an interactive telelearning session: 10 s
    /// deadline, 500 ms attempts, 100 ms → 2 s backoff with 50% jitter.
    pub fn interactive() -> Self {
        RetryPolicy {
            deadline: SimDuration::from_secs(10),
            attempt_timeout: SimDuration::from_millis(500),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(2),
            jitter_frac: 0.5,
            max_attempts: 8,
        }
    }

    /// Builder: override the deadline.
    pub fn with_deadline(mut self, d: SimDuration) -> Self {
        self.deadline = d;
        self
    }

    /// Builder: override the per-attempt timeout.
    pub fn with_attempt_timeout(mut self, d: SimDuration) -> Self {
        self.attempt_timeout = d;
        self
    }

    /// Builder: override max attempts.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Builder: override backoff base/cap.
    pub fn with_backoff(mut self, base: SimDuration, cap: SimDuration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Builder: override the jitter fraction.
    pub fn with_jitter_frac(mut self, f: f64) -> Self {
        self.jitter_frac = f.max(0.0);
        self
    }

    /// Raw (unjittered) backoff before issue `attempt + 1`, with
    /// `attempt` the number of issues already made (≥ 1).
    fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(20);
        let raw = self.backoff_base.as_micros().saturating_mul(1u64 << shift);
        SimDuration::from_micros(raw.min(self.backoff_cap.as_micros()))
    }
}

/// A request in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Pending {
    /// Correlation id.
    pub req_id: u64,
    /// The request (kept for retry and diagnostics).
    pub request: Request,
    /// Encoded frame — re-issues are byte-identical (idempotent reads).
    pub frame: Bytes,
    /// When the request was first issued.
    pub first_issued: SimTime,
    /// When the latest attempt was issued.
    pub last_issued: SimTime,
    /// Issues so far (≥ 1).
    pub attempts: u32,
    /// Absolute end of the request's budget.
    pub deadline: SimTime,
    /// When the current attempt is considered lost.
    pub attempt_deadline: SimTime,
    /// Set while backing off: the earliest time to re-issue.
    pub retry_at: Option<SimTime>,
    /// Epoch domain the request is fenced against (the shard group it
    /// was routed to; 0 on an unsharded store).
    pub domain: u64,
    /// Attempt number whose stale-epoch response has already been
    /// counted (0 = none): duplicate stale deliveries of one attempt
    /// bump `stale_epoch` once, not once per frame.
    pub stale_attempt: u32,
    /// Raw id of the request span (0 when the client is untraced).
    /// This is the trace context carried on the wire — constant across
    /// re-issues, so retried frames stay byte-identical.
    pub span: u64,
    /// Raw id of the current attempt's span (0 when untraced).
    pub attempt_span: u64,
}

/// What a response frame did to the client's state.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// A pending request completed (possibly with a server-side error in
    /// the envelope body).
    Completed {
        /// The decoded response.
        env: Envelope<Response>,
        /// How many times the request was issued.
        attempts: u32,
        /// First issue → completion.
        latency: SimDuration,
    },
    /// A pending request failed terminally (e.g. its response body could
    /// not be decoded, or the server said unavailable and the budget is
    /// spent).
    Failed {
        /// Correlation id of the failed request.
        req_id: u64,
        /// Why.
        error: DbError,
    },
    /// The server shed the request; the client scheduled a backed-off
    /// re-issue — [`DbClient::poll`] will emit the resend.
    RetryScheduled {
        /// Correlation id.
        req_id: u64,
        /// Earliest re-issue time.
        retry_at: SimTime,
    },
    /// The frame matched nothing in flight (late duplicate of a retried
    /// request, or unsolicited noise) and was dropped.
    Ignored,
}

/// Work the event loop must do on behalf of the client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Put this frame back on the wire.
    Resend {
        /// Correlation id.
        req_id: u64,
        /// The byte-identical frame to transmit.
        frame: Bytes,
    },
    /// The request ran out of budget; surface the error to the caller.
    Expired {
        /// Correlation id.
        req_id: u64,
        /// The original request, for diagnostics (boxed: requests can
        /// carry whole media objects, resends must stay small).
        request: Box<Request>,
        /// A retryable timeout error.
        error: DbError,
    },
}

/// Counters and latency histograms for everything the client did.
#[derive(Debug, Clone, Default)]
pub struct DbClientMetrics {
    /// Frames put on the wire (first issues + re-issues).
    pub attempts: u64,
    /// Re-issues only.
    pub retries: u64,
    /// Attempts that timed out without any response.
    pub timeouts: u64,
    /// Requests that exhausted their deadline or attempt budget.
    pub expired: u64,
    /// Requests completed with a response (including server errors).
    pub completed: u64,
    /// Frames dropped as unsolicited / late duplicates.
    pub ignored: u64,
    /// Frames rejected because they carried an epoch older than one the
    /// client has already seen (a stale ex-primary answering after
    /// failover).
    pub stale_epoch: u64,
    /// Response frames whose body failed to decode.
    pub decode_errors: u64,
    /// Request bytes issued (including re-issues).
    pub bytes_sent: u64,
    /// Response bytes consumed.
    pub bytes_received: u64,
    latency: HashMap<RequestKind, Histogram>,
}

/// Latency histogram geometry: 0–60 s in 10 ms bins covers everything an
/// interactive session can survive; slower completions land in overflow.
const LATENCY_HI_SECS: f64 = 60.0;
const LATENCY_BINS: usize = 6000;

impl DbClientMetrics {
    fn record_latency(&mut self, kind: RequestKind, latency: SimDuration) {
        self.latency
            .entry(kind)
            .or_insert_with(|| Histogram::new(0.0, LATENCY_HI_SECS, LATENCY_BINS))
            .record(latency.as_secs_f64());
    }

    /// Completion-latency histogram for one operation, if any completed.
    pub fn latency(&self, kind: RequestKind) -> Option<&Histogram> {
        self.latency.get(&kind)
    }

    /// `q`-quantile of completion latency for one operation, in seconds.
    pub fn latency_quantile(&self, kind: RequestKind, q: f64) -> Option<f64> {
        self.latency.get(&kind)?.quantile(q)
    }

    /// `q`-quantile across all operations, in seconds.
    pub fn overall_latency_quantile(&self, q: f64) -> Option<f64> {
        let mut merged: Option<Histogram> = None;
        for h in self.latency.values() {
            match &mut merged {
                Some(m) => m.merge(h),
                None => merged = Some(h.clone()),
            }
        }
        merged.and_then(|m| m.quantile(q))
    }

    /// Whether this client saw anything a trace sampler should always
    /// keep: a retry, a timeout, an expired request, a stale-epoch
    /// rejection (failover aftermath) or a decode error. Clean sessions
    /// return `false` and stay subject to the head-sampling lottery.
    pub fn tail_sample_signal(&self) -> bool {
        self.retries > 0
            || self.timeouts > 0
            || self.expired > 0
            || self.stale_epoch > 0
            || self.decode_errors > 0
    }

    /// Snapshot every counter and latency histogram into `reg` under
    /// `prefix` (e.g. `client0`). Kinds export in [`RequestKind::ALL`]
    /// order, so output is deterministic despite the internal `HashMap`.
    pub fn export_metrics(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.attempts"), self.attempts);
        reg.counter_set(&format!("{prefix}.retries"), self.retries);
        reg.counter_set(&format!("{prefix}.timeouts"), self.timeouts);
        reg.counter_set(&format!("{prefix}.expired"), self.expired);
        reg.counter_set(&format!("{prefix}.completed"), self.completed);
        reg.counter_set(&format!("{prefix}.ignored"), self.ignored);
        reg.counter_set(&format!("{prefix}.stale_epoch"), self.stale_epoch);
        reg.counter_set(&format!("{prefix}.decode_errors"), self.decode_errors);
        reg.counter_set(&format!("{prefix}.bytes_sent"), self.bytes_sent);
        reg.counter_set(&format!("{prefix}.bytes_received"), self.bytes_received);
        for kind in RequestKind::ALL {
            if let Some(h) = self.latency.get(&kind) {
                reg.record_histogram(&format!("{prefix}.latency.{kind}"), h);
            }
        }
    }
}

/// The navigator-side database client.
pub struct DbClient {
    next_req: u64,
    policy: RetryPolicy,
    pending: HashMap<u64, Pending>,
    rng: SimRng,
    /// Highest failover epoch seen in any response. Responses stamped
    /// with a lower epoch come from a deposed primary and are rejected.
    last_epoch: u64,
    /// Per-domain epoch floors. Each shard group promotes independently,
    /// so fencing is per domain: domain d's floor only rejects responses
    /// routed to d. Domain 0 is the whole store when unsharded.
    floors: HashMap<u64, u64>,
    /// Requests whose attempt timed out during the latest [`DbClient::poll`]
    /// call — the failover signal, scoped so the driver can rotate only
    /// the shard groups that actually went quiet.
    timed_out: Vec<u64>,
    /// [`DbClient::poll`]'s sorted snapshot of the pending ids, kept so
    /// each poll reuses its capacity.
    poll_ids: Vec<u64>,
    /// Object/content cache.
    pub cache: ClientCache,
    /// Requests that went to the network (cache misses + explicit calls).
    pub network_requests: u64,
    /// What the client has done so far.
    pub metrics: DbClientMetrics,
    /// When set, every request opens a span (nested under the tracer's
    /// current context) plus one child span per attempt, and the request
    /// span's id rides the wire as the trace context.
    tracer: Option<Tracer>,
    /// When set, anomalies (retries, attempt timeouts, stale-epoch
    /// fences, epoch-floor raises) are recorded as flight events. The
    /// recorder is always-on in campus sessions: recording only fires
    /// on anomalous paths, so the happy path pays one `Option` check.
    flight: Option<FlightRecorder>,
}

impl DbClient {
    /// A client with a cache of `cache_bytes` and the default (no-retry)
    /// policy.
    pub fn new(cache_bytes: usize) -> Self {
        DbClient::with_policy(cache_bytes, RetryPolicy::default(), 0x0DB_C11E)
    }

    /// A client with an explicit retry policy. `seed` drives backoff
    /// jitter; a fixed seed makes the whole retry schedule reproducible.
    pub fn with_policy(cache_bytes: usize, policy: RetryPolicy, seed: u64) -> Self {
        DbClient {
            next_req: 1,
            policy,
            pending: HashMap::new(),
            rng: SimRng::seed_from_u64(seed),
            last_epoch: 0,
            floors: HashMap::new(),
            timed_out: Vec::new(),
            poll_ids: Vec::new(),
            cache: ClientCache::new(cache_bytes),
            network_requests: 0,
            metrics: DbClientMetrics::default(),
            tracer: None,
            flight: None,
        }
    }

    /// Attach a tracer; subsequent requests emit request/attempt spans
    /// and carry the request span id on the wire.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attach a flight recorder; subsequent retries, attempt timeouts,
    /// stale-epoch rejections and epoch-floor raises are recorded as
    /// structured flight events (`a` = epoch domain/shard).
    pub fn set_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = Some(flight);
    }

    /// The active retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Replace the retry policy (applies to requests issued afterwards).
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Encode and track a request issued at `now`. Returns `(req_id,
    /// frame)`; the caller transmits the frame.
    pub fn request_at(&mut self, req: Request, now: SimTime) -> (u64, Bytes) {
        let id = self.next_req;
        self.next_req += 1;
        let (span, attempt_span) = match &self.tracer {
            Some(tr) => {
                let s = tr.span(&format!("db.request {}", req.kind()), now);
                tr.attr_u64(s, "req_id", id);
                let a = tr.child(s, "attempt 1", now);
                (s.as_u64(), a.as_u64())
            }
            None => (0, 0),
        };
        let frame = req.encode_traced(id, span);
        self.metrics.attempts += 1;
        self.metrics.bytes_sent += frame.len() as u64;
        self.pending.insert(
            id,
            Pending {
                req_id: id,
                request: req,
                frame: frame.clone(),
                first_issued: now,
                last_issued: now,
                attempts: 1,
                deadline: now + self.policy.deadline,
                attempt_deadline: now + self.policy.attempt_timeout,
                retry_at: None,
                domain: 0,
                stale_attempt: 0,
                span,
                attempt_span,
            },
        );
        self.network_requests += 1;
        (id, frame)
    }

    /// Close a pending request's attempt and request spans with an
    /// `outcome` attribute. No-op when untraced.
    fn end_spans(&self, p: &Pending, outcome: &str, now: SimTime) {
        let Some(tr) = &self.tracer else { return };
        if let Some(a) = SpanId::from_wire(p.attempt_span) {
            tr.attr(a, "outcome", outcome);
            tr.end(a, now);
        }
        if let Some(s) = SpanId::from_wire(p.span) {
            tr.attr(s, "outcome", outcome);
            tr.attr_u64(s, "attempts", u64::from(p.attempts));
            tr.end(s, now);
        }
    }

    // --- The paper's query facade (§5.3.2) -------------------------------

    /// `Get_List_Doc()`: ask for the catalogue of courseware documents.
    /// Decode the eventual response with [`Response::into_doc_list`].
    pub fn get_list_doc(&mut self, now: SimTime) -> (u64, Bytes) {
        self.request_at(Request::ListDocs, now)
    }

    /// `Get_Selected_Doc(name)`: fetch a document's full object closure
    /// by title. Decode with [`Response::into_objects`].
    pub fn get_selected_doc(&mut self, name: &str, now: SimTime) -> (u64, Bytes) {
        self.request_at(
            Request::GetDoc {
                name: name.to_string(),
            },
            now,
        )
    }

    /// `GetKeywordTree()`: fetch the keyword taxonomy. Decode with
    /// [`Response::into_keyword_tree`].
    pub fn get_keyword_tree(&mut self, now: SimTime) -> (u64, Bytes) {
        self.request_at(Request::GetKeywordTree, now)
    }

    /// `GetDocByKeyword(keyword)`: find documents under a keyword
    /// (subtree match). Decode with [`Response::into_doc_ids`].
    pub fn get_doc_by_keyword(&mut self, keyword: &str, now: SimTime) -> (u64, Bytes) {
        self.request_at(
            Request::QueryKeyword {
                keyword: keyword.to_string(),
                subtree: true,
            },
            now,
        )
    }

    // --- Cache-aware fetches ---------------------------------------------

    /// Cached-object fetch at `now`: returns the object immediately on a
    /// cache hit, or the request frame to transmit.
    pub fn fetch_object_at(
        &mut self,
        id: MhegId,
        now: SimTime,
    ) -> Result<MhegObject, (u64, Bytes)> {
        if let Some(o) = self.cache.get_object(id) {
            return Ok(o);
        }
        Err(self.request_at(Request::GetObject { id }, now))
    }

    /// Cached-content fetch at `now`.
    pub fn fetch_content_at(
        &mut self,
        id: MediaId,
        now: SimTime,
    ) -> Result<MediaObject, (u64, Bytes)> {
        if let Some(m) = self.cache.get_content(id) {
            return Ok(m);
        }
        Err(self.request_at(Request::GetContent { media: id }, now))
    }

    // --- Response path ---------------------------------------------------

    /// Consume a response frame received at `now`, given as its parts in
    /// order (a message handed up by the transport; one buffer is
    /// `std::slice::from_ref(&frame)`). A `Content` body that arrives as
    /// one part stays a view of it, in the response and in the cache.
    ///
    /// Completions feed the cache and the latency histograms. A frame
    /// whose body fails to decode still fails its pending request (the
    /// correlation id is readable from the first eight bytes), so the
    /// slot is freed for the caller to retry — it does not leak. Frames
    /// matching nothing in flight are [`ClientEvent::Ignored`]: with
    /// idempotent re-issue a late duplicate of a completed request is
    /// expected traffic, not a protocol violation.
    pub fn on_frame(&mut self, frame: &[Bytes], now: SimTime) -> ClientEvent {
        self.metrics.bytes_received += frame.iter().map(Bytes::len).sum::<usize>() as u64;
        let (env, epoch) = match Response::decode_parts(frame) {
            Ok(pair) => pair,
            Err(e) => {
                self.metrics.decode_errors += 1;
                // Correlate by the id prefix so the pending slot is
                // released rather than leaked.
                if let Some(req_id) = peek_req_id(frame) {
                    if let Some(p) = self.pending.remove(&req_id) {
                        self.end_spans(&p, "decode_error", now);
                        return ClientEvent::Failed { req_id, error: e };
                    }
                }
                self.metrics.ignored += 1;
                return ClientEvent::Ignored;
            }
        };
        if !self.pending.contains_key(&env.req_id) {
            self.metrics.ignored += 1;
            return ClientEvent::Ignored;
        }
        // A response from a deposed primary (older failover epoch than
        // one already observed in the request's domain) must not complete
        // the request — the promoted replica's answer is the
        // authoritative one. Keep the request pending; retry/deadline
        // machinery carries on. Fencing is per epoch domain: a promotion
        // on one shard must not reject healthy answers from another.
        let domain = self.pending.get(&env.req_id).map(|p| p.domain).unwrap_or(0);
        let floor = self.floors.get(&domain).copied().unwrap_or(0);
        if epoch < floor {
            // Count the fenced primary once per attempt it answered:
            // byte-identical re-issues can draw several copies of the
            // same stale response, and those duplicates are `ignored`
            // traffic, not additional stale-epoch observations.
            let counted = match self.pending.get_mut(&env.req_id) {
                Some(p) if p.stale_attempt == p.attempts => false,
                Some(p) => {
                    p.stale_attempt = p.attempts;
                    true
                }
                None => true,
            };
            if counted {
                self.metrics.stale_epoch += 1;
                if let Some(fr) = &self.flight {
                    fr.record(now, FlightKind::StaleEpoch, domain, epoch);
                }
            }
            self.metrics.ignored += 1;
            if let Some(tr) = &self.tracer {
                let span = self
                    .pending
                    .get(&env.req_id)
                    .and_then(|p| SpanId::from_wire(p.span));
                tr.event_with(
                    span,
                    "stale_epoch_rejected",
                    now,
                    &[("epoch", epoch.to_string()), ("floor", floor.to_string())],
                );
            }
            return ClientEvent::Ignored;
        }
        if epoch > floor {
            self.floors.insert(domain, epoch);
            // A rising floor is the client-side fence going up: every
            // response below it from here on is from a deposed primary.
            if let Some(fr) = &self.flight {
                fr.record(now, FlightKind::EpochFence, domain, epoch);
            }
        }
        self.last_epoch = self.last_epoch.max(epoch);
        // Server shed the request and the budget allows another go:
        // schedule a backed-off byte-identical re-issue.
        if let Response::Err(e) = &env.body {
            if e.is_retryable() {
                let p = self.pending.get_mut(&env.req_id).expect("checked above");
                if p.attempts < self.policy.max_attempts {
                    let jitter = 1.0 + self.policy.jitter_frac * self.rng.f64();
                    let backoff = self.policy.backoff(p.attempts).mul_f64(jitter);
                    let retry_at = now + backoff;
                    if retry_at < p.deadline {
                        p.retry_at = Some(retry_at);
                        p.attempt_deadline = p.deadline;
                        if let Some(tr) = &self.tracer {
                            if let Some(a) = SpanId::from_wire(p.attempt_span) {
                                tr.attr(a, "outcome", "shed");
                                tr.end(a, now);
                            }
                            tr.event_with(
                                SpanId::from_wire(p.span),
                                "retry_scheduled",
                                now,
                                &[("retry_at_us", retry_at.as_micros().to_string())],
                            );
                        }
                        return ClientEvent::RetryScheduled {
                            req_id: env.req_id,
                            retry_at,
                        };
                    }
                }
            }
        }
        let p = self.pending.remove(&env.req_id).expect("checked above");
        let outcome = match &env.body {
            Response::Err(_) => "server_error",
            _ => "ok",
        };
        self.end_spans(&p, outcome, now);
        match &env.body {
            Response::Objects(objs) => {
                for o in objs {
                    self.cache.put_object(o);
                }
            }
            Response::Content(m) => self.cache.put_content(m),
            _ => {}
        }
        self.metrics.completed += 1;
        let latency = now - p.first_issued;
        self.metrics.record_latency(p.request.kind(), latency);
        ClientEvent::Completed {
            env,
            attempts: p.attempts,
            latency,
        }
    }

    /// Advance the retry machinery to `now`. Returns resends and
    /// expirations in ascending `req_id` order (deterministic for a
    /// given seed and fault schedule). Call whenever the clock reaches
    /// [`DbClient::next_wakeup`].
    pub fn poll(&mut self, now: SimTime) -> Vec<ClientAction> {
        self.timed_out.clear();
        let mut ids = std::mem::take(&mut self.poll_ids);
        ids.clear();
        ids.extend(self.pending.keys().copied());
        ids.sort_unstable();
        let mut actions = Vec::new();
        for &id in &ids {
            let p = self.pending.get_mut(&id).expect("key from map");
            if now >= p.deadline {
                let p = self.pending.remove(&id).expect("key from map");
                self.metrics.expired += 1;
                self.end_spans(&p, "expired", now);
                actions.push(ClientAction::Expired {
                    req_id: id,
                    error: DbError::Unavailable(format!(
                        "deadline exceeded after {} attempt(s)",
                        p.attempts
                    )),
                    request: Box::new(p.request),
                });
                continue;
            }
            if let Some(retry_at) = p.retry_at {
                if now >= retry_at {
                    p.retry_at = None;
                    p.attempts += 1;
                    p.last_issued = now;
                    p.attempt_deadline = now + self.policy.attempt_timeout;
                    self.metrics.attempts += 1;
                    self.metrics.retries += 1;
                    self.metrics.bytes_sent += p.frame.len() as u64;
                    if let Some(fr) = &self.flight {
                        fr.record(now, FlightKind::Retry, p.domain, u64::from(p.attempts));
                    }
                    if let Some(tr) = &self.tracer {
                        if let Some(s) = SpanId::from_wire(p.span) {
                            let a = tr.child(s, &format!("attempt {}", p.attempts), now);
                            p.attempt_span = a.as_u64();
                        }
                    }
                    actions.push(ClientAction::Resend {
                        req_id: id,
                        frame: p.frame.clone(),
                    });
                }
                continue;
            }
            if now >= p.attempt_deadline {
                self.metrics.timeouts += 1;
                self.timed_out.push(id);
                if let Some(fr) = &self.flight {
                    fr.record(now, FlightKind::Timeout, p.domain, u64::from(p.attempts));
                }
                if let Some(tr) = &self.tracer {
                    if let Some(a) = SpanId::from_wire(p.attempt_span) {
                        tr.attr(a, "outcome", "timeout");
                        tr.end(a, now);
                        p.attempt_span = 0;
                    }
                }
                if p.attempts < self.policy.max_attempts {
                    let jitter = 1.0 + self.policy.jitter_frac * self.rng.f64();
                    let backoff = self.policy.backoff(p.attempts).mul_f64(jitter);
                    let retry_at = now + backoff;
                    if retry_at < p.deadline {
                        p.retry_at = Some(retry_at);
                        continue;
                    }
                }
                let p = self.pending.remove(&id).expect("key from map");
                self.metrics.expired += 1;
                self.end_spans(&p, "expired", now);
                actions.push(ClientAction::Expired {
                    req_id: id,
                    error: DbError::Unavailable(format!(
                        "no response after {} attempt(s)",
                        p.attempts
                    )),
                    request: Box::new(p.request),
                });
            }
        }
        self.poll_ids = ids;
        actions
    }

    /// The earliest time at which [`DbClient::poll`] has work to do, if
    /// anything is in flight. Event loops fold this into their timer set.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.pending
            .values()
            .map(|p| p.retry_at.unwrap_or(p.attempt_deadline).min(p.deadline))
            .min()
    }

    /// Highest failover epoch the client has observed in responses.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Highest failover epoch observed in `domain` (a shard group; 0 on
    /// an unsharded store).
    pub fn epoch_floor(&self, domain: u64) -> u64 {
        self.floors.get(&domain).copied().unwrap_or(0)
    }

    /// Tag an in-flight request with the epoch domain it was routed to,
    /// so stale-epoch fencing compares against that shard's floor.
    pub fn set_request_domain(&mut self, req_id: u64, domain: u64) {
        if let Some(p) = self.pending.get_mut(&req_id) {
            p.domain = domain;
        }
    }

    /// Requests whose attempt timed out during the latest
    /// [`DbClient::poll`] call, in ascending `req_id` order — the
    /// failover trigger, scoped to the requests (and hence shards) that
    /// actually went quiet.
    pub fn timed_out(&self) -> &[u64] {
        &self.timed_out
    }

    /// Requests still awaiting responses.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of one in-flight request.
    pub fn pending(&self, req_id: u64) -> Option<&Pending> {
        self.pending.get(&req_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::DbServer;
    use mits_mheg::{ClassLibrary, GenericValue};

    /// Loopback: hand the frame to a server, return its response frame.
    fn loopback(server: &DbServer, frame: &[u8]) -> Bytes {
        let env = Request::decode(frame).expect("client frames are valid");
        let (resp, _) = server.handle(&env.body);
        resp.encode(env.req_id)
    }

    fn setup() -> (DbServer, MhegId, MhegId) {
        let mut lib = ClassLibrary::new(1);
        let a = lib.value_content("a", GenericValue::Int(1));
        let course = lib.container("Course", vec![a]);
        let server = DbServer::default();
        server.load_objects(lib.into_objects());
        (server, course, a)
    }

    #[test]
    fn request_response_correlation() {
        let (server, course, _) = setup();
        let mut client = DbClient::new(1 << 20);
        let t = SimTime::ZERO;
        let (id1, f1) = client.get_list_doc(t);
        let (id2, f2) = client.request_at(Request::GetCourseware { root: course }, t);
        assert_ne!(id1, id2);
        assert_eq!(client.pending_count(), 2);
        // Respond out of order.
        let r2 = loopback(&server, &f2);
        let r1 = loopback(&server, &f1);
        match client.on_frame(std::slice::from_ref(&r2), t) {
            ClientEvent::Completed { env, attempts, .. } => {
                assert_eq!(env.req_id, id2);
                assert_eq!(attempts, 1);
            }
            other => panic!("{other:?}"),
        }
        match client.on_frame(std::slice::from_ref(&r1), t) {
            ClientEvent::Completed { env, .. } => assert_eq!(env.req_id, id1),
            other => panic!("{other:?}"),
        }
        assert_eq!(client.pending_count(), 0);
        assert_eq!(client.metrics.completed, 2);
    }

    #[test]
    fn unsolicited_response_ignored() {
        let mut client = DbClient::new(1 << 20);
        let frame = Response::Ack.encode(999);
        assert_eq!(
            client.on_frame(std::slice::from_ref(&frame), SimTime::ZERO),
            ClientEvent::Ignored
        );
        assert_eq!(client.metrics.ignored, 1);
    }

    #[test]
    fn decode_error_frees_the_pending_slot() {
        let (_, course, _) = setup();
        let mut client = DbClient::new(1 << 20);
        let (id, _) = client.request_at(Request::GetCourseware { root: course }, SimTime::ZERO);
        assert_eq!(client.pending_count(), 1);
        // A frame carrying the right correlation id but a mangled body.
        let mut bad = id.to_be_bytes().to_vec();
        bad.push(200); // unknown response tag
        match client.on_frame(&[Bytes::from(bad)], SimTime::ZERO) {
            ClientEvent::Failed { req_id, error } => {
                assert_eq!(req_id, id);
                assert!(matches!(error, DbError::Malformed(_)));
            }
            other => panic!("{other:?}"),
        }
        // The slot is free: the caller can re-issue instead of leaking.
        assert_eq!(client.pending_count(), 0);
        assert_eq!(client.metrics.decode_errors, 1);
    }

    #[test]
    fn objects_cached_after_fetch() {
        let (server, course, a) = setup();
        let mut client = DbClient::new(1 << 20);
        let t = SimTime::ZERO;
        // First fetch misses → network.
        let err = client.fetch_object_at(a, t);
        let (_, frame) = match err {
            Err(x) => x,
            Ok(_) => panic!("cold cache cannot hit"),
        };
        let resp = loopback(&server, &frame);
        client.on_frame(std::slice::from_ref(&resp), t);
        // Second fetch hits the cache, no frame.
        let hit = client.fetch_object_at(a, t).expect("cache hit");
        assert_eq!(hit.id, a);
        assert_eq!(client.cache.hits, 1);
        // Courseware fetch caches the whole closure.
        let (_, frame) = client.request_at(Request::GetCourseware { root: course }, t);
        let resp = loopback(&server, &frame);
        client.on_frame(std::slice::from_ref(&resp), t);
        assert!(client.fetch_object_at(course, t).is_ok());
    }

    #[test]
    fn timeout_then_retry_then_success_is_deterministic() {
        let (server, _, a) = setup();
        let policy = RetryPolicy::interactive().with_jitter_frac(0.0);
        let mut client = DbClient::with_policy(1 << 20, policy, 42);
        let t0 = SimTime::ZERO;
        let (id, frame) = client.request_at(Request::GetObject { id: a }, t0);
        // Attempt 1 is lost; nothing happens until the 500 ms attempt
        // timeout.
        assert_eq!(client.poll(SimTime::from_millis(499)), vec![]);
        assert_eq!(client.next_wakeup(), Some(SimTime::from_millis(500)));
        // Attempt times out → 100 ms backoff scheduled, no action yet.
        assert_eq!(client.poll(SimTime::from_millis(500)), vec![]);
        assert_eq!(client.metrics.timeouts, 1);
        assert_eq!(client.next_wakeup(), Some(SimTime::from_millis(600)));
        // Backoff elapses → byte-identical resend.
        let actions = client.poll(SimTime::from_millis(600));
        match &actions[..] {
            [ClientAction::Resend { req_id, frame: f }] => {
                assert_eq!(*req_id, id);
                assert_eq!(f, &frame, "re-issue is byte-identical");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(client.metrics.retries, 1);
        // The retry reaches the server; the response completes the request.
        let resp = loopback(&server, &frame);
        match client.on_frame(std::slice::from_ref(&resp), SimTime::from_millis(620)) {
            ClientEvent::Completed {
                attempts, latency, ..
            } => {
                assert_eq!(attempts, 2);
                assert_eq!(latency, SimDuration::from_millis(620));
            }
            other => panic!("{other:?}"),
        }
        // And a late duplicate of attempt 1 is quietly dropped.
        assert_eq!(
            client.on_frame(std::slice::from_ref(&resp), SimTime::from_millis(650)),
            ClientEvent::Ignored
        );
        // Latency landed in the GetObject histogram.
        let p50 = client
            .metrics
            .latency_quantile(RequestKind::GetObject, 0.5)
            .expect("one sample");
        assert!((p50 - 0.62).abs() < 0.02, "p50 ≈ 620 ms, got {p50}");
    }

    #[test]
    fn traced_retry_opens_one_span_per_attempt() {
        use mits_sim::Tracer;
        let (server, _, a) = setup();
        let policy = RetryPolicy::interactive().with_jitter_frac(0.0);
        let mut client = DbClient::with_policy(1 << 20, policy, 42);
        let tr = Tracer::new();
        client.set_tracer(tr.clone());
        let (id, frame) = client.request_at(Request::GetObject { id: a }, SimTime::ZERO);
        // The frame carries the request span as its trace context.
        let span = client.pending(id).unwrap().span;
        assert_ne!(span, 0);
        assert_eq!(Request::decode(&frame).unwrap().trace, span);
        // Attempt 1 times out, attempt 2 resends — and is byte-identical.
        client.poll(SimTime::from_millis(500));
        let actions = client.poll(SimTime::from_millis(600));
        match &actions[..] {
            [ClientAction::Resend { frame: f, .. }] => {
                assert_eq!(f, &frame, "traced re-issue is byte-identical");
            }
            other => panic!("{other:?}"),
        }
        let resp = loopback(&server, &frame);
        client.on_frame(std::slice::from_ref(&resp), SimTime::from_millis(620));
        let spans = tr.spans();
        let req = &spans[span as usize - 1];
        assert_eq!(req.name, "db.request get_object");
        assert_eq!(req.end, Some(SimTime::from_millis(620)));
        let attempts: Vec<_> = spans.iter().filter(|s| s.parent == Some(req.id)).collect();
        assert_eq!(attempts.len(), 2, "one child span per attempt");
        assert_eq!(attempts[0].name, "attempt 1");
        assert_eq!(attempts[0].end, Some(SimTime::from_millis(500)));
        assert_eq!(attempts[1].name, "attempt 2");
        assert_eq!(attempts[1].start, SimTime::from_millis(600));
        assert_eq!(attempts[1].end, Some(SimTime::from_millis(620)));
    }

    #[test]
    fn deadline_expires_requests() {
        let policy = RetryPolicy::interactive()
            .with_jitter_frac(0.0)
            .with_deadline(SimDuration::from_secs(2));
        let mut client = DbClient::with_policy(1 << 20, policy, 7);
        let (id, _) = client.get_keyword_tree(SimTime::ZERO);
        // Never answer; walk the clock past the deadline.
        let mut expired = None;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(3) {
            t += SimDuration::from_millis(50);
            for a in client.poll(t) {
                if let ClientAction::Expired { req_id, error, .. } = a {
                    expired = Some((req_id, error, t));
                }
            }
        }
        let (req_id, error, at) = expired.expect("request must expire");
        assert_eq!(req_id, id);
        assert!(
            error.is_retryable(),
            "timeout errors are retryable: {error}"
        );
        // The client fails fast once the next retry cannot land inside
        // the budget, so expiry happens at or before the deadline (plus
        // one 50 ms poll step) — never after.
        assert!(at <= SimTime::from_secs(2) + SimDuration::from_millis(50));
        assert!(at >= SimTime::from_secs(1), "but only after real attempts");
        assert_eq!(client.pending_count(), 0);
        assert_eq!(client.metrics.expired, 1);
        assert!(client.metrics.retries >= 2, "it kept trying first");
    }

    #[test]
    fn unavailable_response_triggers_backoff() {
        let policy = RetryPolicy::interactive().with_jitter_frac(0.0);
        let mut client = DbClient::with_policy(1 << 20, policy, 3);
        let (id, _) = client.get_list_doc(SimTime::ZERO);
        let shed = Response::Err(DbError::Unavailable("queue full".into())).encode(id);
        match client.on_frame(std::slice::from_ref(&shed), SimTime::from_millis(10)) {
            ClientEvent::RetryScheduled { req_id, retry_at } => {
                assert_eq!(req_id, id);
                assert_eq!(
                    retry_at,
                    SimTime::from_millis(110),
                    "10 ms + 100 ms backoff"
                );
            }
            other => panic!("{other:?}"),
        }
        // Still pending; the resend fires once the backoff elapses.
        assert_eq!(client.pending_count(), 1);
        let actions = client.poll(SimTime::from_millis(110));
        assert!(matches!(&actions[..], [ClientAction::Resend { req_id, .. }] if *req_id == id));
        // Second shed, second (doubled) backoff.
        match client.on_frame(std::slice::from_ref(&shed), SimTime::from_millis(120)) {
            ClientEvent::RetryScheduled { retry_at, .. } => {
                assert_eq!(retry_at, SimTime::from_millis(320), "exponential: 200 ms");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_retry_policy_exhausts_immediately_on_shed() {
        // With max_attempts = 1 an Unavailable response is terminal.
        let mut client = DbClient::new(1 << 20);
        let (id, _) = client.get_list_doc(SimTime::ZERO);
        let shed = Response::Err(DbError::Unavailable("queue full".into())).encode(id);
        match client.on_frame(std::slice::from_ref(&shed), SimTime::from_millis(1)) {
            ClientEvent::Completed { env, .. } => {
                assert!(matches!(env.body, Response::Err(DbError::Unavailable(_))));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(client.pending_count(), 0);
    }

    #[test]
    fn stale_epoch_responses_are_rejected_but_request_survives() {
        let (server, _, a) = setup();
        let mut client = DbClient::new(1 << 20);
        let t = SimTime::ZERO;
        // A completed request under epoch 2 raises the client's floor.
        let (id1, f1) = client.request_at(Request::GetObject { id: a }, t);
        let env = Request::decode(&f1).unwrap();
        let (resp, _) = server.handle(&env.body);
        match client.on_frame(&[resp.encode_with_epoch(id1, 2)], t) {
            ClientEvent::Completed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(client.last_epoch(), 2);
        // A deposed primary (epoch 1) answers the next request: rejected,
        // and the request stays pending for the promoted server.
        let (id2, f2) = client.request_at(Request::GetObject { id: a }, t);
        let env = Request::decode(&f2).unwrap();
        let (resp, _) = server.handle(&env.body);
        assert_eq!(
            client.on_frame(&[resp.encode_with_epoch(id2, 1)], t),
            ClientEvent::Ignored
        );
        assert_eq!(client.metrics.stale_epoch, 1);
        assert_eq!(client.pending_count(), 1, "request still in flight");
        // The promoted replica (epoch 3) completes it.
        match client.on_frame(&[resp.encode_with_epoch(id2, 3)], t) {
            ClientEvent::Completed { env, .. } => assert_eq!(env.req_id, id2),
            other => panic!("{other:?}"),
        }
        assert_eq!(client.last_epoch(), 3);
        assert_eq!(client.pending_count(), 0);
    }

    #[test]
    fn stale_epoch_counts_once_per_response_not_per_duplicate() {
        let (server, _, a) = setup();
        let policy = RetryPolicy::interactive().with_jitter_frac(0.0);
        let mut client = DbClient::with_policy(1 << 20, policy, 11);
        let t = SimTime::ZERO;
        // Raise the floor to 2 with a clean completion.
        let (id1, f1) = client.request_at(Request::GetObject { id: a }, t);
        let env = Request::decode(&f1).unwrap();
        let (resp, _) = server.handle(&env.body);
        client.on_frame(&[resp.encode_with_epoch(id1, 2)], t);
        // The next request draws a stale answer (epoch 1) — and the
        // transport delivers it twice (byte-identical re-issue traffic).
        let (id2, f2) = client.request_at(Request::GetObject { id: a }, t);
        let env = Request::decode(&f2).unwrap();
        let (resp, _) = server.handle(&env.body);
        let stale = resp.encode_with_epoch(id2, 1);
        assert_eq!(
            client.on_frame(std::slice::from_ref(&stale), t),
            ClientEvent::Ignored
        );
        assert_eq!(
            client.on_frame(std::slice::from_ref(&stale), t),
            ClientEvent::Ignored
        );
        assert_eq!(
            client.metrics.stale_epoch, 1,
            "duplicate stale delivery of one attempt counts once"
        );
        assert_eq!(client.metrics.ignored, 2, "but both frames were dropped");
        // After a retry (a new attempt) the fenced primary answering
        // again is a fresh observation.
        client.poll(SimTime::from_millis(500)); // attempt 1 times out
        client.poll(SimTime::from_millis(600)); // backoff elapses → attempt 2
        assert_eq!(client.metrics.retries, 1);
        assert_eq!(
            client.on_frame(std::slice::from_ref(&stale), SimTime::from_millis(610)),
            ClientEvent::Ignored
        );
        assert_eq!(
            client.metrics.stale_epoch, 2,
            "one count per attempt answered"
        );
        // The promoted replica still completes the request.
        match client.on_frame(&[resp.encode_with_epoch(id2, 3)], SimTime::from_millis(620)) {
            ClientEvent::Completed { env, .. } => assert_eq!(env.req_id, id2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn epoch_floors_are_per_domain() {
        let (server, _, a) = setup();
        let mut client = DbClient::new(1 << 20);
        let t = SimTime::ZERO;
        // Shard 1 promotes to epoch 5.
        let (id1, f1) = client.request_at(Request::GetObject { id: a }, t);
        client.set_request_domain(id1, 1);
        let env = Request::decode(&f1).unwrap();
        let (resp, _) = server.handle(&env.body);
        client.on_frame(&[resp.encode_with_epoch(id1, 5)], t);
        assert_eq!(client.epoch_floor(1), 5);
        assert_eq!(client.epoch_floor(0), 0);
        // Shard 0 still answers at epoch 0 — healthy, must complete.
        let (id2, f2) = client.request_at(Request::GetObject { id: a }, t);
        client.set_request_domain(id2, 0);
        let env = Request::decode(&f2).unwrap();
        let (resp, _) = server.handle(&env.body);
        match client.on_frame(&[resp.encode_with_epoch(id2, 0)], t) {
            ClientEvent::Completed { env, .. } => assert_eq!(env.req_id, id2),
            other => panic!("another shard's promotion must not fence shard 0: {other:?}"),
        }
        assert_eq!(client.metrics.stale_epoch, 0);
        // But shard 1's fenced primary (epoch 4 < 5) is rejected.
        let (id3, f3) = client.request_at(Request::GetObject { id: a }, t);
        client.set_request_domain(id3, 1);
        let env = Request::decode(&f3).unwrap();
        let (resp, _) = server.handle(&env.body);
        assert_eq!(
            client.on_frame(&[resp.encode_with_epoch(id3, 4)], t),
            ClientEvent::Ignored
        );
        assert_eq!(client.metrics.stale_epoch, 1);
    }

    #[test]
    fn poll_reports_timed_out_requests() {
        let policy = RetryPolicy::interactive().with_jitter_frac(0.0);
        let mut client = DbClient::with_policy(1 << 20, policy, 9);
        let (id, _) = client.get_list_doc(SimTime::ZERO);
        assert!(client.timed_out().is_empty());
        client.poll(SimTime::from_millis(500));
        assert_eq!(client.timed_out(), &[id], "attempt timeout recorded");
        // The next poll (backoff elapse → resend) is not a timeout.
        client.poll(SimTime::from_millis(600));
        assert!(client.timed_out().is_empty());
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        use bytes::Bytes;
        use mits_media::{MediaFormat, MediaObject, VideoDims};
        use mits_sim::SimDuration;
        let mut cache = ClientCache::new(10_000);
        for i in 0..10u64 {
            cache.put_content(&MediaObject::new(
                MediaId(i),
                format!("m{i}"),
                MediaFormat::Gif,
                SimDuration::ZERO,
                VideoDims::new(1, 1),
                Bytes::from(vec![0u8; 3_000]),
            ));
        }
        assert!(
            cache.used_bytes() <= 10_000,
            "bounded: {}",
            cache.used_bytes()
        );
        // Oldest entries evicted.
        assert!(cache.get_content(MediaId(0)).is_none());
        assert!(cache.get_content(MediaId(9)).is_some());
    }

    #[test]
    fn oversized_item_not_cached() {
        use bytes::Bytes;
        use mits_media::{MediaFormat, MediaObject, VideoDims};
        use mits_sim::SimDuration;
        let mut cache = ClientCache::new(1_000);
        cache.put_content(&MediaObject::new(
            MediaId(1),
            "big",
            MediaFormat::Mpeg,
            SimDuration::ZERO,
            VideoDims::new(1, 1),
            Bytes::from(vec![0u8; 5_000]),
        ));
        assert_eq!(cache.used_bytes(), 0);
        assert!(cache.get_content(MediaId(1)).is_none());
    }
}
