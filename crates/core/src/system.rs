//! The distributed system: topology, transport, server loop, and the
//! client-facing service calls (Figs 3.1, 3.4, 3.5).
//!
//! One [`MitsSystem`] owns the ATM network, the courseware database
//! server, one author endpoint, and N student endpoints. Every service
//! call is a real protocol exchange: encoded request frames ride the
//! reliable transport over AAL5 cells through the switch to the server
//! host, the server "retrieves objects in the database according to the
//! information provided by the client" with a modelled service time, and
//! the response rides back — all on one deterministic virtual clock.

use bytes::{Bytes, PartList};
use mits_atm::{
    AtmNetwork, CrashSchedule, Delivery, FaultKind, FaultPlan, LinkProfile, NetError, NetScratch,
    NodeId, ReliableChannel, ServiceClass, TransportEvent, VcId,
};
use mits_db::{
    merge_sorted, peek_req_id, peek_response_trace, read_snapshot, wal, ClientAction, ClientEvent,
    DbClient, DbClientMetrics, DbError, DbServer, EdgeCache, KeywordTree, RecoveryReport, Request,
    Response, RetryPolicy, Route, ServiceModel, ShardRouter, SharedLogDevice, StoreImage,
};
use mits_media::{MediaId, MediaObject};
use mits_mheg::{MhegId, MhegObject};
use mits_sim::{FlightKind, FlightRecorder, MetricsRegistry, SimDuration, SimTime, SpanId, Tracer};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Identifies one student endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub usize);

/// Topology and behaviour parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Access link profile for student hosts.
    pub access_link: LinkProfile,
    /// Backbone profile (database and author to the switch).
    pub backbone: LinkProfile,
    /// Number of student endpoints.
    pub clients: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Client-side cache budget in bytes.
    pub client_cache_bytes: usize,
    /// Deadline / retry / backoff policy for every client request. The
    /// default never retries, matching the clean-network prototype.
    pub retry: RetryPolicy,
    /// Faults injected into the network (losses, bursts, jitter, link
    /// downtime). Empty by default — and an empty plan is bit-identical
    /// to a network without fault injection.
    pub fault_plan: FaultPlan,
    /// Server queue depth past which requests are shed with
    /// `Unavailable` instead of queuing unboundedly.
    pub server_queue_limit: Option<usize>,
    /// Run a hot-standby replica database server: the primary ships WAL
    /// frames to it over the backbone and clients fail over to it when
    /// the primary stops answering.
    pub replica: bool,
    /// Scheduled server crashes and restarts (target 0 = primary,
    /// 1 = replica).
    pub crashes: CrashSchedule,
    /// Checkpoint cadence: every so often each live server folds its
    /// WAL into a snapshot and truncates the log.
    pub checkpoint_every: Option<SimDuration>,
    /// Shard the courseware store across this many primary(/replica)
    /// groups behind a consistent-hash ring. 1 (the default) is the
    /// classic single-store deployment, byte-identical to before
    /// sharding existed. With [`SystemConfig::replica`] set, *every*
    /// shard gets its own hot standby.
    pub shards: usize,
    /// Campus-edge cache budget in bytes. 0 (the default) disables the
    /// edge tier; otherwise media fetched from the ring is kept at the
    /// campus edge with epoch-fenced invalidation.
    pub edge_cache_bytes: usize,
    /// Scheduled link outages taking a whole shard group off the
    /// network: `(shard, from, until)` downs every link between the
    /// shard's hosts and the switch for the window.
    pub shard_outages: Vec<(usize, SimTime, SimTime)>,
    /// Capacity of the always-on flight-recorder ring. The default
    /// ([`mits_sim::FLIGHT_RING_CAP`]) bounds campus memory; replay
    /// raises it to keep every anomaly event. The ring never feeds the
    /// session digest, so the cap is digest-neutral by construction.
    pub flight_ring: usize,
}

impl SystemConfig {
    /// The paper's reference deployment: OC-3 everywhere, a handful of
    /// multimedia PCs.
    pub fn broadband(clients: usize) -> Self {
        SystemConfig {
            access_link: LinkProfile::atm_oc3(),
            backbone: LinkProfile::atm_oc3(),
            clients,
            seed: 1996,
            client_cache_bytes: 16 << 20,
            retry: RetryPolicy::no_retry(),
            fault_plan: FaultPlan::none(),
            server_queue_limit: None,
            replica: false,
            crashes: CrashSchedule::none(),
            checkpoint_every: None,
            shards: 1,
            edge_cache_bytes: 0,
            shard_outages: Vec::new(),
            flight_ring: mits_sim::FLIGHT_RING_CAP,
        }
    }

    /// Same deployment with a narrowband access technology (E-BB).
    pub fn with_access(mut self, profile: LinkProfile) -> Self {
        self.access_link = profile;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Inject faults into the network.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Shed server load past `limit` queued requests.
    pub fn with_server_queue_limit(mut self, limit: usize) -> Self {
        self.server_queue_limit = Some(limit);
        self
    }

    /// Add a hot-standby replica database server.
    pub fn with_replica(mut self) -> Self {
        self.replica = true;
        self
    }

    /// Schedule a crash of server `target` at `at`.
    pub fn with_crash(mut self, at: SimTime, target: u32) -> Self {
        self.crashes = std::mem::take(&mut self.crashes).with_crash(at, target);
        self
    }

    /// Schedule a restart of server `target` at `at`.
    pub fn with_restart(mut self, at: SimTime, target: u32) -> Self {
        self.crashes = std::mem::take(&mut self.crashes).with_restart(at, target);
        self
    }

    /// Checkpoint every `every` of virtual time.
    pub fn with_checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Partition the store across `shards` consistent-hashed groups.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Put an epoch-fenced edge cache of `bytes` in front of the ring.
    pub fn with_edge_cache(mut self, bytes: usize) -> Self {
        self.edge_cache_bytes = bytes;
        self
    }

    /// Down every link between shard `shard`'s hosts and the switch for
    /// `[from, until)` — a correlated shard-wide network outage.
    pub fn with_shard_outage(mut self, shard: usize, from: SimTime, until: SimTime) -> Self {
        self.shard_outages.push((shard, from, until));
        self
    }

    /// Schedule a crash of shard `shard`'s server in `role` (0 =
    /// primary, 1 = replica) at `at`.
    pub fn with_shard_crash(self, at: SimTime, shard: usize, role: usize) -> Self {
        let group_size = 1 + usize::from(self.replica);
        self.with_crash(at, (shard * group_size + role) as u32)
    }

    /// Schedule a restart of shard `shard`'s server in `role` at `at`.
    pub fn with_shard_restart(self, at: SimTime, shard: usize, role: usize) -> Self {
        let group_size = 1 + usize::from(self.replica);
        self.with_restart(at, (shard * group_size + role) as u32)
    }

    /// Size the flight-recorder ring (clamped to at least 1). Use
    /// `usize::MAX` for an effectively unbounded ring during replay.
    pub fn with_flight_ring(mut self, cap: usize) -> Self {
        self.flight_ring = cap;
        self
    }
}

/// Errors from system service calls.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// The database returned an error response.
    Db(DbError),
    /// No response arrived before the deadline.
    Timeout,
    /// Network-level failure (VC setup etc.).
    Net(NetError),
    /// Unexpected response variant for the request.
    Protocol(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Db(e) => write!(f, "database: {e}"),
            SystemError::Timeout => write!(f, "request timed out"),
            SystemError::Net(e) => write!(f, "network: {e}"),
            SystemError::Protocol(s) => write!(f, "protocol: {s}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Db(e) => Some(e),
            SystemError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for SystemError {
    fn from(e: DbError) -> Self {
        SystemError::Db(e)
    }
}

impl From<NetError> for SystemError {
    fn from(e: NetError) -> Self {
        SystemError::Net(e)
    }
}

struct Endpoint {
    host: NodeId,
    profile: LinkProfile,
    /// One reliable channel per database server.
    chans: Vec<ReliableChannel>,
    /// Which server this endpoint currently talks to, per shard group
    /// (failover state — entries are *server indices*, initially each
    /// group's primary).
    active: Vec<usize>,
    /// Shard each in-flight request was routed to, so retries follow
    /// that shard's failover state and never leak to another group.
    req_shard: HashMap<u64, usize>,
    db_client: DbClient,
    inbox: Vec<(u64, Response)>,
    /// Every downlink VC that ever carried data to this endpoint
    /// (restarted servers open fresh VCs; byte accounting spans them).
    down_vcs: Vec<VcId>,
}

/// One database server process: its host, store, per-endpoint transport,
/// response queues, and the log devices that survive its crashes.
struct ServerNode {
    host: NodeId,
    db: DbServer,
    /// Server side of each endpoint's channel pair.
    chans: Vec<ReliableChannel>,
    /// Responses queued per endpoint, ready at their service time, as
    /// the encoded head and body parts (see [`Response::encode_parts`]).
    ready: Vec<VecDeque<(SimTime, Bytes, Option<Bytes>)>>,
    /// Single service centre: requests queue behind each other (F3.5
    /// contention) — and behind recovery replay after a restart.
    busy_until: SimTime,
    up: bool,
    wal_dev: SharedLogDevice,
    snap_dev: SharedLogDevice,
    /// Replication channel to the peer server, when one exists.
    rep_chan: Option<ReliableChannel>,
}

/// The assembled MITS installation.
pub struct MitsSystem {
    /// The network (public for experiment instrumentation).
    pub net: AtmNetwork,
    switch: NodeId,
    backbone: LinkProfile,
    /// Shard groups in order: shard 0's primary(, replica), shard 1's
    /// primary(, replica), … Server index = shard × group size + role.
    servers: Vec<ServerNode>,
    endpoints: Vec<Endpoint>, // clients then author (last)
    /// Routes single-key requests by ring position; catalogue queries
    /// scatter/gather.
    router: ShardRouter,
    /// Servers per shard group (1, or 2 with a replica).
    group_size: usize,
    /// The campus-edge media cache, when configured.
    edge: Option<EdgeCache>,
    /// Scatter/gather queries issued (shards > 1 only).
    pub scatter_queries: u64,
    /// Scatter/gather queries that returned degraded (partial) results
    /// because at least one shard was unreachable.
    pub scatter_partial: u64,
    /// Scatter legs dispatched, per shard (shards > 1 only).
    pub scatter_legs: Vec<u64>,
    /// Scatter legs whose shard never answered (deadline backstop or
    /// send failure), per shard.
    pub scatter_leg_errors: Vec<u64>,
    crashes: CrashSchedule,
    crash_idx: usize,
    checkpoint_every: Option<SimDuration>,
    next_checkpoint: Option<SimTime>,
    queue_limit: Option<usize>,
    /// Total requests that crossed the network.
    pub requests_sent: u64,
    /// Times any endpoint switched servers after losing an attempt.
    pub failovers: u64,
    /// What the most recent server restart replayed.
    pub last_recovery: Option<RecoveryReport>,
    /// Deterministic span tracer shared with every endpoint's client.
    /// Request spans propagate over the wire protocol's trace field, so
    /// uplink/serve/downlink hop spans nest under the client request.
    pub tracer: Tracer,
    /// Registry every layer exports into via [`MitsSystem::export_metrics`].
    pub metrics: MetricsRegistry,
    /// Always-on bounded ring of structured anomaly events (fault
    /// onset/clear, retries, failovers, fences, sheds, invalidations)
    /// shared with every endpoint's client and the edge cache. Unlike
    /// the tracer it is never sampled away — campus forensics reads its
    /// tail when a session retires.
    pub flight: FlightRecorder,
    /// When each queued response becomes ready, keyed by (endpoint,
    /// req_id) — consumed on delivery to stamp the downlink hop span.
    resp_meta: BTreeMap<(usize, u64), SimTime>,
    /// The pump's delivery buffer, reused by every step.
    deliveries: Vec<Delivery>,
}

/// A courseware published once and mountable into any number of fresh
/// installations with the same shard/replica layout (see
/// [`MitsSystem::image`] and [`MitsSystem::mount`]): one [`StoreImage`]
/// per database server, in server-index order.
pub struct CourseImage {
    shards: usize,
    group_size: usize,
    servers: Vec<StoreImage>,
}

/// Reusable allocation capacity carried from one retired [`MitsSystem`]
/// to the next one a campus worker admits: the network's recycled
/// containers (timer heap, train slabs, delivery buffer, VC and topology
/// tables — see [`mits_atm::NetScratch`]), the emptied metrics
/// registry, whose names the next export rewrites in place (see
/// [`MetricsRegistry::recycle`]), and the shard router, whose ring
/// depends on nothing but the shard count.
#[derive(Default)]
pub struct SessionScratch {
    net: NetScratch,
    metrics: Option<MetricsRegistry>,
    router: Option<ShardRouter>,
}

impl MitsSystem {
    /// Build the installation described by `config`.
    pub fn build(config: &SystemConfig) -> Result<Self, SystemError> {
        Self::build_with_scratch(config, SessionScratch::default())
    }

    /// Retire this system and harvest reusable allocation capacity for
    /// the next [`MitsSystem::build_with_scratch`].
    pub fn into_scratch(self) -> SessionScratch {
        SessionScratch {
            net: self.net.into_scratch(),
            metrics: self.metrics.recycle(),
            router: Some(self.router),
        }
    }

    /// [`MitsSystem::build`], but reusing a retired system's allocations.
    /// Bit-identical behaviour; only container capacity is inherited.
    pub fn build_with_scratch(
        config: &SystemConfig,
        scratch: SessionScratch,
    ) -> Result<Self, SystemError> {
        let mut net = AtmNetwork::with_scratch(config.seed, scratch.net);
        net.set_fault_plan(config.fault_plan.clone());
        let switch = net.add_switch("campus-switch");
        let shards = config.shards.max(1);
        let group_size = 1 + usize::from(config.replica);
        let mut server_hosts = Vec::with_capacity(shards * group_size);
        for d in 0..shards {
            // The single-shard deployment keeps its historical host
            // names so traces and metrics stay byte-identical.
            let name = if shards == 1 {
                "courseware-db".to_string()
            } else {
                format!("courseware-db-s{d}")
            };
            let h = net.add_host(&name);
            net.connect(h, switch, config.backbone);
            server_hosts.push(h);
            if config.replica {
                let name = if shards == 1 {
                    "courseware-db-replica".to_string()
                } else {
                    format!("courseware-db-s{d}-replica")
                };
                let r = net.add_host(&name);
                net.connect(r, switch, config.backbone);
                server_hosts.push(r);
            }
        }
        if !config.shard_outages.is_empty() {
            // Translate shard-wide outages into per-link down windows on
            // every link between the victim group's hosts and the
            // switch, folded over whatever plan was already configured.
            let mut plan = config.fault_plan.clone();
            for &(shard, from, until) in &config.shard_outages {
                if shard >= shards {
                    continue;
                }
                for role in 0..group_size {
                    let h = server_hosts[shard * group_size + role];
                    for (a, b) in [(h, switch), (switch, h)] {
                        let base = plan.for_link(a, b).cloned().unwrap_or_default();
                        plan = plan.with_link(a, b, base.with_down(from, until));
                    }
                }
            }
            net.set_fault_plan(plan);
        }
        let author_host = net.add_host("author-site");
        net.connect(author_host, switch, config.backbone);
        let mut peer_hosts = Vec::with_capacity(config.clients + 1);
        for i in 0..config.clients {
            let h = net.add_host(&format!("student-{i}"));
            net.connect(h, switch, config.access_link);
            peer_hosts.push((h, config.access_link));
        }
        peer_hosts.push((author_host, config.backbone));

        let mut servers: Vec<ServerNode> = server_hosts
            .into_iter()
            .map(|host| {
                let wal_dev = SharedLogDevice::new();
                let snap_dev = SharedLogDevice::new();
                let db = match config.server_queue_limit {
                    Some(limit) => DbServer::default().with_overload_threshold(limit),
                    None => DbServer::default(),
                }
                .with_durability(Box::new(wal_dev.clone()), Box::new(snap_dev.clone()));
                ServerNode {
                    host,
                    db,
                    chans: Vec::new(),
                    ready: Vec::new(),
                    busy_until: SimTime::ZERO,
                    up: true,
                    wal_dev,
                    snap_dev,
                    rep_chan: None,
                }
            })
            .collect();
        if group_size > 1 {
            for d in 0..shards {
                servers[d * group_size].db.set_shipping(true);
            }
        }

        let tracer = Tracer::new();
        let flight = FlightRecorder::new(config.flight_ring);
        let mut endpoints = Vec::new();
        for (i, (host, profile)) in peer_hosts.into_iter().enumerate() {
            let timeout = Self::arq_timeout(&profile);
            let mut chans = Vec::new();
            let mut down_vcs = Vec::new();
            // Window of 2 segments: enough to pipeline the link while
            // keeping the burst inside realistic switch buffers (a 16-seg
            // burst at backbone speed would overrun a narrowband port's
            // queue and melt down in retransmissions).
            for s in &mut servers {
                let up = net.open_vc(&[host, switch, s.host], ServiceClass::Ubr, None)?;
                let down = net.open_vc(&[s.host, switch, host], ServiceClass::Ubr, None)?;
                chans.push(ReliableChannel::new(up, down, 2, timeout));
                s.chans.push(ReliableChannel::new(down, up, 2, timeout));
                s.ready.push(VecDeque::new());
                down_vcs.push(down);
            }
            let mut db_client = DbClient::with_policy(
                config.client_cache_bytes,
                config.retry,
                config.seed ^ (0xC11E_0000 + i as u64),
            );
            db_client.set_tracer(tracer.clone());
            db_client.set_flight_recorder(flight.clone());
            endpoints.push(Endpoint {
                host,
                profile,
                chans,
                active: (0..shards).map(|d| d * group_size).collect(),
                req_shard: HashMap::new(),
                db_client,
                inbox: Vec::new(),
                down_vcs,
            });
        }
        if group_size > 1 {
            let timeout = Self::arq_timeout(&config.backbone);
            for d in 0..shards {
                let p = d * group_size;
                let (a, b) = (servers[p].host, servers[p + 1].host);
                let up = net.open_vc(&[a, switch, b], ServiceClass::Ubr, None)?;
                let down = net.open_vc(&[b, switch, a], ServiceClass::Ubr, None)?;
                servers[p].rep_chan = Some(ReliableChannel::new(up, down, 2, timeout));
                servers[p + 1].rep_chan = Some(ReliableChannel::new(down, up, 2, timeout));
            }
        }

        Ok(MitsSystem {
            net,
            switch,
            backbone: config.backbone,
            servers,
            endpoints,
            router: scratch
                .router
                .filter(|r| r.shards() == shards)
                .unwrap_or_else(|| ShardRouter::new(shards)),
            group_size,
            edge: (config.edge_cache_bytes > 0).then(|| {
                let mut e = EdgeCache::new(config.edge_cache_bytes, shards);
                e.set_flight_recorder(flight.clone());
                e
            }),
            scatter_queries: 0,
            scatter_partial: 0,
            scatter_legs: vec![0; shards],
            scatter_leg_errors: vec![0; shards],
            crashes: config.crashes.clone(),
            crash_idx: 0,
            checkpoint_every: config.checkpoint_every,
            next_checkpoint: config.checkpoint_every.map(|e| SimTime::ZERO + e),
            queue_limit: config.server_queue_limit,
            requests_sent: 0,
            failovers: 0,
            last_recovery: None,
            tracer,
            metrics: scratch.metrics.unwrap_or_default(),
            flight,
            resp_meta: BTreeMap::new(),
            deliveries: Vec::new(),
        })
    }

    /// The primary database server (public for direct loading in benches
    /// that don't measure publishing, and for counter assertions).
    pub fn db(&self) -> &DbServer {
        &self.servers[0].db
    }

    /// A database server by index (0 = primary, 1 = replica).
    pub fn db_at(&self, index: usize) -> &DbServer {
        &self.servers[index].db
    }

    /// How many database servers the installation runs.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Is server `index` currently up?
    pub fn server_up(&self, index: usize) -> bool {
        self.servers[index].up
    }

    /// Which server a client endpoint currently talks to on shard 0 —
    /// the whole store when unsharded.
    pub fn active_server(&self, client: ClientId) -> usize {
        self.endpoints[client.0].active[0]
    }

    /// Which server a client endpoint currently talks to for `shard`.
    pub fn active_server_for_shard(&self, client: ClientId, shard: usize) -> usize {
        self.endpoints[client.0].active[shard]
    }

    /// How many shard groups partition the store.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// Server index of shard `shard`'s `role` (0 = primary, 1 = replica).
    pub fn server_index(&self, shard: usize, role: usize) -> usize {
        shard * self.group_size + role
    }

    /// The shard owning a document root (or object) id.
    pub fn shard_of_object(&self, id: MhegId) -> usize {
        self.router.shard_for_object(id)
    }

    /// The shard owning a media id.
    pub fn shard_of_media(&self, id: MediaId) -> usize {
        self.router.shard_for_media(id)
    }

    /// The campus-edge cache, when one is configured.
    pub fn edge_cache(&self) -> Option<&EdgeCache> {
        self.edge.as_ref()
    }

    /// ARQ timeout sized to the link: several max-segment serializations
    /// plus round-trip propagation.
    fn arq_timeout(profile: &LinkProfile) -> SimDuration {
        let seg = profile.raw_transfer_time((mits_atm::transport::MSS + 512) as u64);
        seg * 4 + profile.prop_delay * 8 + SimDuration::from_millis(20)
    }

    /// The author endpoint index.
    fn author_index(&self) -> usize {
        self.endpoints.len() - 1
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Host of a client endpoint.
    pub fn client_host(&self, client: ClientId) -> NodeId {
        self.endpoints[client.0].host
    }

    /// The campus switch every endpoint hangs off — handy for targeting
    /// per-link fault plans at a specific access loop.
    pub fn switch(&self) -> NodeId {
        self.switch
    }

    /// Bytes delivered to a peer on its downlink VCs so far (summed over
    /// every VC that ever carried data to it — restarts open fresh ones).
    pub fn bytes_to_peer(&self, index: usize) -> u64 {
        self.endpoints[index]
            .down_vcs
            .iter()
            .filter_map(|vc| self.net.vc_stats(*vc))
            .map(|s| s.bytes_delivered)
            .sum()
    }

    /// Bytes delivered downlink to a client.
    pub fn bytes_to_client(&self, client: ClientId) -> u64 {
        self.bytes_to_peer(client.0)
    }

    /// Client cache statistics (hits, misses).
    pub fn client_cache_stats(&self, client: ClientId) -> (u64, u64) {
        let c = &self.endpoints[client.0].db_client.cache;
        (c.hits, c.misses)
    }

    /// The client's attempt/retry/timeout counters and per-operation
    /// latency histograms.
    pub fn client_metrics(&self, client: ClientId) -> &DbClientMetrics {
        &self.endpoints[client.0].db_client.metrics
    }

    /// Snapshot every layer's counters into [`MitsSystem::metrics`]:
    /// per-link and per-VC network statistics, per-server queue/WAL/
    /// checkpoint counters, per-endpoint retry/latency metrics, and the
    /// system-level totals. Call it whenever a consistent snapshot is
    /// wanted — exports are idempotent overwrites, so repeated calls
    /// just refresh the registry.
    pub fn export_metrics(&self) {
        // Stamp gauges with the virtual instant of this export, so that
        // merged campus snapshots can resolve gauge conflicts by
        // "latest virtual time wins".
        self.metrics.set_clock(self.now());
        self.net.export_metrics(&self.metrics);
        for (i, s) in self.servers.iter().enumerate() {
            s.db.export_metrics(&self.metrics, &format!("db.server{i}"));
        }
        let author = self.author_index();
        for (i, e) in self.endpoints.iter().enumerate() {
            let prefix = if i == author {
                "author".to_string()
            } else {
                format!("client{i}")
            };
            e.db_client.metrics.export_metrics(&self.metrics, &prefix);
            let (hits, misses) = (e.db_client.cache.hits, e.db_client.cache.misses);
            self.metrics
                .counter_set(&format!("{prefix}.cache.hits"), hits);
            self.metrics
                .counter_set(&format!("{prefix}.cache.misses"), misses);
        }
        self.metrics
            .counter_set("system.requests_sent", self.requests_sent);
        self.metrics.counter_set("system.failovers", self.failovers);
        // Sharding/edge metrics only exist when the features are on, so
        // default-deployment snapshots stay byte-identical.
        if self.router.shards() > 1 {
            self.metrics
                .counter_set("system.scatter_queries", self.scatter_queries);
            self.metrics
                .counter_set("system.scatter_partial", self.scatter_partial);
            for (d, (&legs, &errs)) in self
                .scatter_legs
                .iter()
                .zip(&self.scatter_leg_errors)
                .enumerate()
            {
                self.metrics
                    .counter_set(&format!("system.shard{d}.scatter_legs"), legs);
                self.metrics
                    .counter_set(&format!("system.shard{d}.scatter_leg_errors"), errs);
            }
        }
        if let Some(edge) = &self.edge {
            edge.export_metrics(&self.metrics, "edge");
        }
        // Flight-ring truncation is visible, not silent: a non-zero
        // count means the tail forensics read is missing older events.
        self.metrics
            .counter_set("system.flight.dropped_events", self.flight.dropped());
    }

    // ---------- the pump ----------

    /// Earliest instant a *system-level* timer fires — transport
    /// timeouts, client retry wakeups, queued responses, crashes,
    /// checkpoints — excluding the network's internal cell events, which
    /// the pump batches through [`AtmNetwork::advance_until_delivery`].
    fn earliest_system_timer(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut fold = |t: Option<SimTime>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for e in &self.endpoints {
            for chan in &e.chans {
                fold(chan.next_timeout());
            }
            // Retry machinery: attempt timeouts, backoffs, deadlines.
            fold(e.db_client.next_wakeup());
        }
        for s in &self.servers {
            if !s.up {
                continue;
            }
            for chan in &s.chans {
                fold(chan.next_timeout());
            }
            if let Some(ch) = &s.rep_chan {
                fold(ch.next_timeout());
            }
            for q in &s.ready {
                fold(q.front().map(|(t, ..)| *t));
            }
        }
        // Scheduled crashes/restarts and checkpoint cadence.
        fold(self.crashes.events().get(self.crash_idx).map(|e| e.at));
        fold(self.next_checkpoint);
        next
    }

    fn flush_server_ready(&mut self) -> Result<(), SystemError> {
        let now = self.net.now();
        for s in 0..self.servers.len() {
            if !self.servers[s].up {
                continue;
            }
            for i in 0..self.servers[s].ready.len() {
                while self.servers[s].ready[i]
                    .front()
                    .is_some_and(|(t, ..)| *t <= now)
                {
                    let (_, head, body) = self.servers[s].ready[i].pop_front().expect("checked");
                    let chan = &mut self.servers[s].chans[i];
                    match body {
                        Some(body) => chan.send_message(&mut self.net, &[head, body])?,
                        None => chan.send_message(&mut self.net, &[head])?,
                    };
                }
            }
        }
        Ok(())
    }

    /// Ship each primary's journaled frames to its shard's replica. With
    /// the replica down the frames are dropped — it resyncs from the
    /// primary's devices when it restarts.
    fn ship_replication(&mut self) -> Result<(), SystemError> {
        if self.group_size < 2 {
            return Ok(());
        }
        for d in 0..self.router.shards() {
            let p = d * self.group_size;
            if !self.servers[p].up {
                continue;
            }
            let frames = self.servers[p].db.take_outbox();
            if frames.is_empty() || !self.servers[p + 1].up {
                continue;
            }
            for f in frames {
                if let Some(ch) = self.servers[p].rep_chan.as_mut() {
                    ch.send_message(&mut self.net, &[f])?;
                }
            }
        }
        Ok(())
    }

    /// Execute every crash/restart whose time has come.
    fn run_crash_events(&mut self) -> Result<(), SystemError> {
        let now = self.net.now();
        while self
            .crashes
            .events()
            .get(self.crash_idx)
            .is_some_and(|e| e.at <= now)
        {
            let ev = self.crashes.events()[self.crash_idx];
            self.crash_idx += 1;
            let target = ev.target as usize;
            if target >= self.servers.len() {
                continue;
            }
            match ev.kind {
                FaultKind::ServerCrash => self.crash_server(target),
                FaultKind::ServerRestart => self.restart_server(target)?,
            }
        }
        Ok(())
    }

    /// Kill a server: volatile state (queued responses, ARQ windows) is
    /// gone; only its log devices survive. A surviving peer is promoted
    /// to a strictly higher epoch so the dead server's in-flight
    /// responses are recognisably stale.
    fn crash_server(&mut self, target: usize) {
        if !self.servers[target].up {
            return;
        }
        self.tracer.event_with(
            None,
            "server.crash",
            self.net.now(),
            &[("server", target.to_string())],
        );
        self.flight.record(
            self.net.now(),
            FlightKind::FaultOnset,
            (target / self.group_size) as u64,
            target as u64,
        );
        self.servers[target].up = false;
        for q in &mut self.servers[target].ready {
            q.clear();
        }
        // Epoch promotion is group-scoped: only the dead server's shard
        // fences, other shards' epochs (and caches) are untouched.
        let (lo, hi) = self.group_range(target);
        let max_epoch = self.servers[lo..hi]
            .iter()
            .map(|s| s.db.epoch())
            .max()
            .unwrap_or(0);
        for i in lo..hi {
            if i != target && self.servers[i].up {
                self.servers[i].db.set_epoch(max_epoch + 1);
                break;
            }
        }
    }

    /// The `[lo, hi)` server-index range of the shard group containing
    /// server `target`.
    fn group_range(&self, target: usize) -> (usize, usize) {
        let lo = (target / self.group_size) * self.group_size;
        (lo, lo + self.group_size)
    }

    /// Bring a server back: recover from its surviving devices, resync
    /// anything a live peer journaled meanwhile, adopt an epoch above
    /// every one answered under so far, and rebuild transport state on
    /// both ends (the dead process's VC bindings died with it). The
    /// server is busy replaying until the modelled recovery cost elapses.
    fn restart_server(&mut self, target: usize) -> Result<(), SystemError> {
        if self.servers[target].up {
            return Ok(());
        }
        let now = self.net.now();
        let (db, report) = DbServer::recover(
            ServiceModel::default(),
            self.queue_limit,
            Box::new(self.servers[target].wal_dev.clone()),
            Box::new(self.servers[target].snap_dev.clone()),
        );
        // Resync from a live peer's devices — the peer is the shard
        // group's other member; another shard's store holds a different
        // keyspace and must not leak in. Apply its snapshot records
        // (idempotent) and re-journal its WAL tail, preserving sequence
        // numbers. Both reads are charged to recovery latency.
        let (lo, hi) = self.group_range(target);
        let peer_state = self
            .servers
            .iter()
            .enumerate()
            .take(hi)
            .skip(lo)
            .find(|(i, s)| *i != target && s.up)
            .map(|(_, s)| (s.snap_dev.snapshot(), s.wal_dev.snapshot()));
        let mut resync_bytes = 0u64;
        if let Some((snap, wal_bytes)) = peer_state {
            resync_bytes = (snap.len() + wal_bytes.len()) as u64;
            let (_, recs, _) = read_snapshot(&snap);
            for rec in &recs {
                db.apply_record(rec);
            }
            let (frames, _) = wal::read_frames(&wal_bytes);
            for (seq, rec) in &frames {
                let frame = wal::record_frame(*seq, rec);
                let _ = db.apply_shipped(&frame);
            }
            // Fold the resynced state into this server's own snapshot so
            // its devices are self-contained again.
            db.checkpoint();
        }
        let max_epoch = self.servers[lo..hi]
            .iter()
            .map(|s| s.db.epoch())
            .max()
            .unwrap_or(0);
        db.set_epoch(max_epoch + 1);
        db.set_shipping(target == lo && self.group_size > 1);
        let replayed = report.replayed_bytes() + resync_bytes;
        self.servers[target].db = db;
        self.servers[target].up = true;
        let busy_until = now + ServiceModel::default().cost(replayed as usize);
        self.servers[target].busy_until = busy_until;
        // The recovery itself is a root span: WAL replay plus (when a
        // peer was live) the resync that re-journals its tail.
        let rec = self
            .tracer
            .root_span(&format!("server{target}.recover"), now);
        self.tracer
            .attr_u64(rec, "epoch", self.servers[target].db.epoch());
        let replay = self.tracer.child(rec, "wal.replay", now);
        self.tracer
            .attr_u64(replay, "bytes", report.replayed_bytes());
        self.tracer.end(replay, busy_until);
        if resync_bytes > 0 {
            let rs = self.tracer.child(rec, "replica.resync", now);
            self.tracer.attr_u64(rs, "bytes", resync_bytes);
            self.tracer.end(rs, busy_until);
        }
        self.tracer.end(rec, busy_until);
        self.flight.record(
            busy_until,
            FlightKind::FaultClear,
            (target / self.group_size) as u64,
            target as u64,
        );
        self.last_recovery = Some(report);
        self.reopen_server_transport(target)?;
        // Failback: with this shard's primary up again, clients return
        // to it.
        let group = target / self.group_size;
        if self.servers[lo].up {
            for e in &mut self.endpoints {
                e.active[group] = lo;
            }
        }
        Ok(())
    }

    /// Fresh VC pairs and reliable channels between a restarted server
    /// and every endpoint (and the peer server) — on *both* ends, so no
    /// ARQ window wedges on sequence numbers the dead process forgot.
    fn reopen_server_transport(&mut self, target: usize) -> Result<(), SystemError> {
        let s_host = self.servers[target].host;
        for i in 0..self.endpoints.len() {
            let host = self.endpoints[i].host;
            let timeout = Self::arq_timeout(&self.endpoints[i].profile);
            let up = self
                .net
                .open_vc(&[host, self.switch, s_host], ServiceClass::Ubr, None)?;
            let down = self
                .net
                .open_vc(&[s_host, self.switch, host], ServiceClass::Ubr, None)?;
            self.endpoints[i].chans[target] = ReliableChannel::new(up, down, 2, timeout);
            self.servers[target].chans[i] = ReliableChannel::new(down, up, 2, timeout);
            self.endpoints[i].down_vcs.push(down);
        }
        if self.group_size > 1 {
            let timeout = Self::arq_timeout(&self.backbone);
            let (lo, _) = self.group_range(target);
            let (a, b) = (self.servers[lo].host, self.servers[lo + 1].host);
            let up = self
                .net
                .open_vc(&[a, self.switch, b], ServiceClass::Ubr, None)?;
            let down = self
                .net
                .open_vc(&[b, self.switch, a], ServiceClass::Ubr, None)?;
            self.servers[lo].rep_chan = Some(ReliableChannel::new(up, down, 2, timeout));
            self.servers[lo + 1].rep_chan = Some(ReliableChannel::new(down, up, 2, timeout));
        }
        Ok(())
    }

    /// Fold WALs into snapshots on the configured cadence.
    fn run_checkpoints(&mut self) {
        let Some(every) = self.checkpoint_every else {
            return;
        };
        let now = self.net.now();
        let mut next = self.next_checkpoint.unwrap_or(SimTime::ZERO + every);
        while next <= now {
            for s in &mut self.servers {
                if s.up {
                    s.db.checkpoint();
                }
            }
            next += every;
        }
        self.next_checkpoint = Some(next);
    }

    /// Route a decoded client event into the endpoint's inbox.
    fn deliver_event(&mut self, index: usize, event: ClientEvent) {
        match event {
            ClientEvent::Completed { env, .. } => {
                // Propagate the accepted epoch into the edge cache's
                // per-shard floor: the first post-failover completion
                // fences every entry the deposed primary filled.
                if let Some(shard) = self.endpoints[index].req_shard.remove(&env.req_id) {
                    if let Some(edge) = &mut self.edge {
                        let floor = self.endpoints[index].db_client.epoch_floor(shard as u64);
                        let now = self.net.now();
                        edge.observe_epoch(shard, floor, now);
                    }
                }
                self.endpoints[index].inbox.push((env.req_id, env.body));
            }
            ClientEvent::Failed { req_id, error } => {
                self.endpoints[index].req_shard.remove(&req_id);
                self.endpoints[index]
                    .inbox
                    .push((req_id, Response::Err(error)));
            }
            // A resend is already scheduled / the frame matched nothing:
            // the pump's poll pass picks it up.
            ClientEvent::RetryScheduled { .. } | ClientEvent::Ignored => {}
        }
    }

    /// Run every endpoint's retry machinery: re-transmit frames whose
    /// backoff elapsed, surface requests that ran out of budget. An
    /// endpoint whose attempt died outright (timeout, no response) fails
    /// over — within the shard group the quiet request was routed to —
    /// before re-issuing. A crash on one shard never rotates another.
    fn poll_clients(&mut self) -> Result<(), SystemError> {
        let now = self.net.now();
        for i in 0..self.endpoints.len() {
            let actions = self.endpoints[i].db_client.poll(now);
            if self.group_size > 1 && !self.endpoints[i].db_client.timed_out().is_empty() {
                let mut quiet: Vec<usize> = self.endpoints[i]
                    .db_client
                    .timed_out()
                    .iter()
                    .map(|id| self.endpoints[i].req_shard.get(id).copied().unwrap_or(0))
                    .collect();
                quiet.sort_unstable();
                quiet.dedup();
                for shard in quiet {
                    self.rotate_shard(i, shard, now);
                }
            }
            for action in actions {
                match action {
                    ClientAction::Resend { req_id, frame } => {
                        let shard = self.endpoints[i]
                            .req_shard
                            .get(&req_id)
                            .copied()
                            .unwrap_or(0);
                        let active = self.endpoints[i].active[shard];
                        self.endpoints[i].chans[active].send_message(&mut self.net, &[frame])?;
                    }
                    ClientAction::Expired { req_id, error, .. } => {
                        self.endpoints[i].req_shard.remove(&req_id);
                        self.endpoints[i].inbox.push((req_id, Response::Err(error)));
                    }
                }
            }
        }
        Ok(())
    }

    /// Rotate endpoint `i`'s active server for `shard` to the next live
    /// member of that shard's group.
    fn rotate_shard(&mut self, i: usize, shard: usize, now: SimTime) {
        let lo = shard * self.group_size;
        let cur = self.endpoints[i].active[shard];
        let cur_role = cur - lo;
        for k in 1..=self.group_size {
            let cand = lo + (cur_role + k) % self.group_size;
            if self.servers[cand].up {
                if cand != cur {
                    self.endpoints[i].active[shard] = cand;
                    self.failovers += 1;
                    self.flight
                        .record(now, FlightKind::Failover, shard as u64, cand as u64);
                    self.tracer.event_with(
                        None,
                        "client.failover",
                        now,
                        &[
                            ("endpoint", i.to_string()),
                            ("from", cur.to_string()),
                            ("to", cand.to_string()),
                        ],
                    );
                }
                break;
            }
        }
    }

    /// Advance the whole system to `deadline`, processing everything due.
    pub fn pump_until(&mut self, deadline: SimTime) -> Result<(), SystemError> {
        loop {
            self.pump_step(deadline)?;
            if self.net.now() >= deadline {
                self.run_crash_events()?;
                self.poll_clients()?;
                return Ok(());
            }
        }
    }

    /// One pump step: run everything due now, then advance the clock to
    /// the next instant anything observable can happen — a PDU delivery,
    /// a system timer, or `deadline` — and process it. Cell-level events
    /// between those instants are batched inside the network, so the
    /// per-cell cost is a heap operation, not a full system sweep.
    fn pump_step(&mut self, deadline: SimTime) -> Result<(), SystemError> {
        {
            self.run_crash_events()?;
            self.run_checkpoints();
            self.ship_replication()?;
            self.flush_server_ready()?;
            self.poll_clients()?;
            let next = self.earliest_system_timer();
            let step_to = match next {
                Some(t) if t <= deadline => t.max(self.net.now()),
                _ => deadline,
            };
            let mut deliveries = std::mem::take(&mut self.deliveries);
            self.net.advance_until_delivery(step_to, &mut deliveries);
            for d in &deliveries {
                // Server side. Cells addressed to a down server die with
                // it — the process that owned the VC no longer exists.
                for s in 0..self.servers.len() {
                    if !self.servers[s].up {
                        continue;
                    }
                    for i in 0..self.servers[s].chans.len() {
                        if self.servers[s].chans[i].in_vc() != d.vc {
                            continue;
                        }
                        let events = self.servers[s].chans[i].on_delivery(&mut self.net, d)?;
                        for ev in events {
                            if let TransportEvent::Message(frame) = ev {
                                self.serve(s, i, &frame)?;
                            }
                        }
                    }
                    // Replication receive: the replica journals and
                    // applies frames the primary shipped.
                    if let Some(mut ch) = self.servers[s].rep_chan.take() {
                        let events = ch.on_delivery(&mut self.net, d)?;
                        self.servers[s].rep_chan = Some(ch);
                        for ev in events {
                            if let TransportEvent::Message(frame) = ev {
                                let frame = frame.to_bytes();
                                let _ = self.servers[s].db.apply_shipped(&frame);
                            }
                        }
                    }
                }
                // Client side.
                for i in 0..self.endpoints.len() {
                    for c in 0..self.endpoints[i].chans.len() {
                        if self.endpoints[i].chans[c].in_vc() != d.vc {
                            continue;
                        }
                        let events = self.endpoints[i].chans[c].on_delivery(&mut self.net, d)?;
                        for ev in events {
                            if let TransportEvent::Message(frame) = ev {
                                let now = self.net.now();
                                // Downlink hop span: from the response's
                                // ready time (recorded at serve) to now.
                                if let Some(parent) =
                                    peek_response_trace(frame.parts()).and_then(SpanId::from_wire)
                                {
                                    if let Some(ready_at) = peek_req_id(frame.parts())
                                        .and_then(|id| self.resp_meta.remove(&(i, id)))
                                    {
                                        let hop =
                                            self.tracer.child(parent, "net.downlink", ready_at);
                                        self.tracer.attr_u64(hop, "bytes", frame.len() as u64);
                                        self.tracer.end(hop, now);
                                    }
                                }
                                let event =
                                    self.endpoints[i].db_client.on_frame(frame.parts(), now);
                                self.deliver_event(i, event);
                            }
                        }
                    }
                }
            }
            deliveries.clear();
            self.deliveries = deliveries;
            for e in &mut self.endpoints {
                for chan in &mut e.chans {
                    chan.on_tick(&mut self.net)?;
                }
            }
            for s in &mut self.servers {
                if !s.up {
                    continue;
                }
                for chan in &mut s.chans {
                    chan.on_tick(&mut self.net)?;
                }
                if let Some(ch) = s.rep_chan.as_mut() {
                    ch.on_tick(&mut self.net)?;
                }
            }
        }
        Ok(())
    }

    /// Server request handling: decode, dispatch, queue the response
    /// after the modelled service time. Requests arriving while the
    /// backlog is past the configured overload threshold are shed with a
    /// cheap `Unavailable` that bypasses the service queue. Every
    /// response is stamped with the server's failover epoch.
    fn serve(&mut self, server: usize, peer: usize, frame: &PartList) -> Result<(), SystemError> {
        let env = Request::decode_parts(frame.parts())?;
        let now = self.net.now();
        let kind = env.body.kind();
        let node = &mut self.servers[server];
        let depth = node
            .ready
            .iter()
            .flat_map(|q| q.iter())
            .filter(|(t, ..)| *t > now)
            .count();
        let shed = node.db.overload_threshold().is_some_and(|l| depth >= l);
        if shed {
            self.flight.record(
                now,
                FlightKind::Shed,
                (server / self.group_size) as u64,
                depth as u64,
            );
        }
        let wal_before = node.db.wal_device_len();
        let (resp, cost) = node.db.handle_at_depth(&env.body, depth);
        let wal_journaled = node.db.wal_device_len().saturating_sub(wal_before);
        let ready_at = if shed {
            // Rejection is fast-path: it does not occupy the service centre.
            now + cost
        } else {
            // Single service centre: the request starts when the server
            // frees — which after a restart includes recovery replay.
            let start = node.busy_until.max(now);
            node.busy_until = start + cost;
            node.busy_until
        };
        let epoch = node.db.epoch();
        let (head, body) = resp.encode_parts(env.req_id, epoch, env.trace);
        node.ready[peer].push_back((ready_at, head, body));
        // Hop + service spans nest under the client's request span, which
        // rode in on the wire's trace field.
        if let Some(parent) = SpanId::from_wire(env.trace) {
            let sent_at = self.endpoints[peer]
                .db_client
                .pending(env.req_id)
                .map_or(now, |p| p.last_issued);
            let hop = self.tracer.child(parent, "net.uplink", sent_at);
            self.tracer.attr_u64(hop, "bytes", frame.len() as u64);
            self.tracer.end(hop, now);
            let sv = self
                .tracer
                .child(parent, &format!("server{server}.serve {kind}"), now);
            self.tracer.attr_u64(sv, "queue_depth", depth as u64);
            self.tracer
                .attr(sv, "shed", if shed { "true" } else { "false" });
            self.tracer.attr_u64(sv, "epoch", epoch);
            if wal_journaled > 0 {
                self.tracer
                    .attr_u64(sv, "wal_bytes_journaled", wal_journaled as u64);
            }
            self.tracer.end(sv, ready_at);
        }
        self.resp_meta.insert((peer, env.req_id), ready_at);
        Ok(())
    }

    // ---------- blocking service calls ----------

    /// Send a request from endpoint `index` and pump until its response
    /// arrives (or `timeout` elapses). Returns the response and elapsed
    /// virtual time. Single-key requests route by ring position;
    /// scatter-routed requests are handled by the facades before they
    /// reach here (shard 0 is the whole store when unsharded).
    fn call(
        &mut self,
        index: usize,
        req: Request,
        timeout: SimDuration,
    ) -> Result<(Response, SimDuration), SystemError> {
        let shard = match self.router.route(&req) {
            Route::Shard(s) => s,
            Route::Scatter => 0,
        };
        self.call_on_shard(index, req, shard, timeout)
    }

    /// Issue `req` from endpoint `index` to shard group `shard`, stamped
    /// `at`: the client registers it, then it leaves on the shard's
    /// active channel. Returns the request id.
    fn issue(
        &mut self,
        index: usize,
        req: Request,
        shard: usize,
        at: SimTime,
    ) -> Result<u64, SystemError> {
        let ep = &mut self.endpoints[index];
        let (req_id, frame) = ep.db_client.request_at(req, at);
        ep.db_client.set_request_domain(req_id, shard as u64);
        ep.req_shard.insert(req_id, shard);
        self.requests_sent += 1;
        ep.chans[ep.active[shard]].send_message(&mut self.net, &[frame])?;
        Ok(req_id)
    }

    /// Take the response to `req_id` out of endpoint `index`'s inbox, if
    /// it has arrived.
    fn take_response(&mut self, index: usize, req_id: u64) -> Option<Response> {
        let inbox = &mut self.endpoints[index].inbox;
        let pos = inbox.iter().position(|(id, _)| *id == req_id)?;
        Some(inbox.swap_remove(pos).1)
    }

    /// [`MitsSystem::call`] pinned to one shard group.
    fn call_on_shard(
        &mut self,
        index: usize,
        req: Request,
        shard: usize,
        timeout: SimDuration,
    ) -> Result<(Response, SimDuration), SystemError> {
        let started = self.net.now();
        let req_id = self.issue(index, req, shard, started)?;
        let deadline = started + timeout;
        loop {
            if let Some(resp) = self.take_response(index, req_id) {
                let elapsed = self.net.now().since(started);
                return match resp {
                    Response::Err(e) => Err(SystemError::Db(e)),
                    other => Ok((other, elapsed)),
                };
            }
            if self.net.now() >= deadline {
                return Err(SystemError::Timeout);
            }
            self.pump_step(deadline)?;
        }
    }

    /// Issue `req` to every shard concurrently and gather all legs. A
    /// leg answered by a down shard fails through the client's retry
    /// deadline (or, at worst, this call's `timeout`) — partial results
    /// degrade, they never hang. Returns one `Result` per shard, in
    /// shard order, plus elapsed virtual time.
    fn call_scatter(
        &mut self,
        index: usize,
        req: &Request,
        timeout: SimDuration,
    ) -> Result<(Vec<Result<Response, DbError>>, SimDuration), SystemError> {
        let started = self.net.now();
        let shards = self.router.shards();
        self.scatter_queries += 1;
        let mut ids = Vec::with_capacity(shards);
        for shard in 0..shards {
            ids.push(self.issue(index, req.clone(), shard, started)?);
            self.scatter_legs[shard] += 1;
        }
        let deadline = started + timeout;
        let mut results: Vec<Option<Result<Response, DbError>>> = vec![None; shards];
        loop {
            for (k, &id) in ids.iter().enumerate() {
                if results[k].is_some() {
                    continue;
                }
                if let Some(resp) = self.take_response(index, id) {
                    results[k] = Some(match resp {
                        Response::Err(e) => Err(e),
                        other => Ok(other),
                    });
                }
            }
            if results.iter().all(Option::is_some) {
                break;
            }
            if self.net.now() >= deadline {
                for r in results.iter_mut() {
                    if r.is_none() {
                        *r = Some(Err(DbError::Unavailable(
                            "shard unreachable at scatter deadline".to_string(),
                        )));
                    }
                }
                break;
            }
            self.pump_step(deadline)?;
        }
        let results: Vec<_> = results.into_iter().map(|r| r.expect("filled")).collect();
        for (shard, r) in results.iter().enumerate() {
            if r.is_err() {
                self.scatter_leg_errors[shard] += 1;
            }
        }
        if results.iter().any(Result::is_err) && results.iter().any(Result::is_ok) {
            self.scatter_partial += 1;
        }
        Ok((results, self.net.now().since(started)))
    }

    /// Default call timeout: generous, scaled for narrowband links.
    fn default_timeout() -> SimDuration {
        SimDuration::from_secs(3600)
    }

    /// Author publishes a courseware: every object and media item crosses
    /// the network to the database. Returns elapsed virtual time.
    pub fn publish(
        &mut self,
        objects: &[MhegObject],
        media: &[MediaObject],
    ) -> Result<SimDuration, SystemError> {
        let started = self.net.now();
        let author = self.author_index();
        for obj in objects {
            let (resp, _) = self.call(
                author,
                Request::PutObject {
                    object: obj.clone(),
                },
                Self::default_timeout(),
            )?;
            if resp != Response::Ack {
                return Err(SystemError::Protocol("expected Ack".into()));
            }
        }
        for m in media {
            let (resp, _) = self.call(
                author,
                Request::PutContent { media: m.clone() },
                Self::default_timeout(),
            )?;
            if resp != Response::Ack {
                return Err(SystemError::Protocol("expected Ack".into()));
            }
        }
        Ok(self.net.now().since(started))
    }

    /// Load content without the network (bench setup shortcut). Every
    /// server is loaded identically — the journals agree record for
    /// record, so nothing needs shipping.
    pub fn load_directly(&mut self, objects: Vec<MhegObject>, media: Vec<MediaObject>) {
        self.load_shared(&objects, &media);
    }

    /// [`MitsSystem::load_directly`] over borrowed slices: the campus
    /// runner loads one shared workload into thousands of sessions, so
    /// cloning happens once per server here instead of once per call at
    /// every call site.
    pub fn load_shared(&mut self, objects: &[MhegObject], media: &[MediaObject]) {
        for s in &self.servers {
            s.db.load_objects(objects.iter().cloned());
            s.db.load_media(media.iter().cloned());
        }
        let _ = self.servers[0].db.take_outbox();
    }

    /// Load one document's closure and media respecting the ring: the
    /// closure lands on the root's shard (both roles, so journals agree
    /// without shipping), each medium on its own id's shard. On a single
    /// shard this is exactly [`MitsSystem::load_shared`].
    pub fn load_doc(&mut self, objects: &[MhegObject], media: &[MediaObject], root: MhegId) {
        if self.router.shards() <= 1 {
            self.load_shared(objects, media);
            return;
        }
        let lo = self.router.shard_for_object(root) * self.group_size;
        for s in &self.servers[lo..lo + self.group_size] {
            s.db.load_objects(objects.iter().cloned());
        }
        for m in media {
            let lo = self.router.shard_for_media(m.id) * self.group_size;
            for s in &self.servers[lo..lo + self.group_size] {
                s.db.load_media(std::iter::once(m.clone()));
            }
        }
        for d in 0..self.router.shards() {
            let _ = self.servers[d * self.group_size].db.take_outbox();
        }
    }

    /// Capture what publishing (e.g. [`MitsSystem::load_doc`]) left on
    /// every database server as an immutable [`CourseImage`]. Fails when
    /// a server has history besides the journaled publication.
    pub fn image(&self) -> Result<CourseImage, SystemError> {
        let mut servers: Vec<StoreImage> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.db.image()
                    .map_err(|e| SystemError::Protocol(format!("image of server {i}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        // A replica loaded alongside its primary journals the same
        // bytes: keep each distinct journal once.
        for i in 1..servers.len() {
            let (earlier, rest) = servers.split_at_mut(i);
            for e in earlier.iter() {
                rest[0].share_journal(e);
            }
        }
        Ok(CourseImage {
            shards: self.router.shards(),
            group_size: self.group_size,
            servers,
        })
    }

    /// Mount a published image in place of journaling the courseware
    /// again: every server ends up byte-identical to a
    /// [`MitsSystem::load_doc`] of the same courseware — WAL device,
    /// cursor, counters, maps, index and digest — while the WAL device
    /// references the image's journal segment instead of copying it.
    /// An error, never a panic, when the installation is not fresh or
    /// its shard/replica layout differs from the image's.
    pub fn mount(&mut self, image: &CourseImage) -> Result<(), SystemError> {
        if (image.shards, image.group_size) != (self.router.shards(), self.group_size) {
            return Err(SystemError::Protocol(format!(
                "course image for {} shard(s) x {} server(s) does not fit {} x {}",
                image.shards,
                image.group_size,
                self.router.shards(),
                self.group_size
            )));
        }
        if let Some(i) = self.servers.iter().position(|s| !s.db.is_fresh()) {
            return Err(SystemError::Protocol(format!(
                "cannot mount a course image: server {i} is not fresh"
            )));
        }
        for (s, img) in self.servers.iter_mut().zip(&image.servers) {
            s.db.mount(img)
                .map_err(|e| SystemError::Protocol(format!("mount: {e}")))?;
        }
        Ok(())
    }

    // ---------- the paper's query facade (§5.3.2) ----------

    /// A catalogue query: one direct call on an unsharded store, a
    /// scatter/gather on a sharded one. The gather decodes every leg
    /// that answered and merges them; unreachable shards degrade the
    /// result to the reachable shards' parts, and the last leg error is
    /// returned only when no leg answered.
    fn gathered<T>(
        &mut self,
        client: ClientId,
        req: Request,
        decode: fn(Response) -> Result<T, DbError>,
        merge: fn(Vec<T>) -> T,
    ) -> Result<(T, SimDuration), SystemError> {
        if self.router.shards() <= 1 {
            let (resp, t) = self.call(client.0, req, Self::default_timeout())?;
            return Ok((decode(resp)?, t));
        }
        let (legs, t) = self.call_scatter(client.0, &req, Self::default_timeout())?;
        let mut parts = Vec::with_capacity(legs.len());
        let mut last_err = None;
        for leg in legs {
            match leg {
                Ok(resp) => parts.push(decode(resp)?),
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) if parts.is_empty() => Err(SystemError::Db(e)),
            _ => Ok((merge(parts), t)),
        }
    }

    /// `Get_List_Doc()`: the catalogue of courseware documents.
    pub fn get_list_doc(
        &mut self,
        client: ClientId,
    ) -> Result<(Vec<(MhegId, String)>, SimDuration), SystemError> {
        self.gathered(
            client,
            Request::ListDocs,
            Response::into_doc_list,
            merge_sorted,
        )
    }

    /// `Get_Selected_Doc(name)`: a document's full object closure by
    /// title. A name alone does not reveal its root's shard, so on a
    /// sharded store the lookup scatters and the first shard holding the
    /// document wins.
    pub fn get_selected_doc(
        &mut self,
        client: ClientId,
        name: &str,
    ) -> Result<(Vec<MhegObject>, SimDuration), SystemError> {
        let req = Request::GetDoc {
            name: name.to_string(),
        };
        if self.router.shards() > 1 {
            let (parts, t) = self.call_scatter(client.0, &req, Self::default_timeout())?;
            let mut err: Option<DbError> = None;
            for r in parts {
                match r {
                    Ok(resp) => return Ok((resp.into_objects()?, t)),
                    // NotFound from a shard just means "not mine"; a
                    // harder error (unreachable shard) is only surfaced
                    // when no shard has the document.
                    Err(DbError::NotFound(e)) => {
                        err.get_or_insert(DbError::NotFound(e));
                    }
                    Err(e) => err = Some(e),
                }
            }
            return Err(SystemError::Db(
                err.unwrap_or_else(|| DbError::NotFound(name.to_string())),
            ));
        }
        let (resp, t) = self.call(client.0, req, Self::default_timeout())?;
        Ok((resp.into_objects()?, t))
    }

    /// `GetKeywordTree()`: the keyword taxonomy for library browsing.
    /// On a sharded store each shard holds its own documents' keyword
    /// entries, and the gathered trees are merged.
    pub fn get_keyword_tree(
        &mut self,
        client: ClientId,
    ) -> Result<(KeywordTree, SimDuration), SystemError> {
        self.gathered(
            client,
            Request::GetKeywordTree,
            Response::into_keyword_tree,
            |trees| {
                let mut merged = KeywordTree::new();
                for tree in &trees {
                    merged.merge_from(tree);
                }
                merged
            },
        )
    }

    /// `GetDocByKeyword(keyword)`: documents under a keyword, including
    /// its whole subtree.
    pub fn get_doc_by_keyword(
        &mut self,
        client: ClientId,
        keyword: &str,
    ) -> Result<(Vec<MhegId>, SimDuration), SystemError> {
        let req = Request::QueryKeyword {
            keyword: keyword.to_string(),
            subtree: true,
        };
        self.gathered(client, req, Response::into_doc_ids, merge_sorted)
    }

    /// Fetch a courseware's full object closure from a client.
    pub fn fetch_courseware(
        &mut self,
        client: ClientId,
        root: MhegId,
    ) -> Result<(Vec<MhegObject>, SimDuration), SystemError> {
        match self.call(
            client.0,
            Request::GetCourseware { root },
            Self::default_timeout(),
        )? {
            (Response::Objects(objs), t) => Ok((objs, t)),
            _ => Err(SystemError::Protocol("expected Objects".into())),
        }
    }

    /// Fetch bulk content, consulting the client cache, then the campus
    /// edge cache (when configured), then the owning shard's origin
    /// servers. Origin responses fill the edge stamped with the epoch
    /// the client accepted them under, so a later failover fences them.
    pub fn fetch_content(
        &mut self,
        client: ClientId,
        media: MediaId,
    ) -> Result<(MediaObject, SimDuration), SystemError> {
        if let Some(m) = self.endpoints[client.0].db_client.cache.get_content(media) {
            return Ok((m, SimDuration::ZERO));
        }
        let now = self.net.now();
        if let Some(edge) = &mut self.edge {
            if let Some(m) = edge.get(media, now) {
                // Served at the campus edge: the origin shard is never
                // touched. The client keeps its own copy like any fetch.
                self.endpoints[client.0].db_client.cache.put_content(&m);
                return Ok((m, SimDuration::ZERO));
            }
            edge.note_origin();
        }
        let shard = self.router.shard_for_media(media);
        let (resp, t) = self.call_on_shard(
            client.0,
            Request::GetContent { media },
            shard,
            Self::default_timeout(),
        )?;
        let m = resp.into_content()?;
        if let Some(edge) = &mut self.edge {
            let epoch = self.endpoints[client.0].db_client.epoch_floor(shard as u64);
            let now = self.net.now();
            edge.observe_epoch(shard, epoch, now);
            edge.fill(media, shard, epoch, &m);
        }
        Ok((m, t))
    }

    /// Issue the same request from many clients *concurrently* and wait
    /// for every response — the F3.5 contention workload. Returns each
    /// client's response latency.
    pub fn concurrent_fetch_courseware(
        &mut self,
        clients: &[ClientId],
        root: MhegId,
    ) -> Result<Vec<SimDuration>, SystemError> {
        let started = self.net.now();
        let mut ids = Vec::with_capacity(clients.len());
        let shard = self.router.shard_for_object(root);
        for c in clients {
            ids.push(self.issue(c.0, Request::GetCourseware { root }, shard, started)?);
        }
        let deadline = started + Self::default_timeout();
        let mut latencies = vec![None; clients.len()];
        while latencies.iter().any(Option::is_none) {
            if self.net.now() >= deadline {
                return Err(SystemError::Timeout);
            }
            self.pump_step(deadline)?;
            for (i, c) in clients.iter().enumerate() {
                if latencies[i].is_some() {
                    continue;
                }
                if let Some(resp) = self.take_response(c.0, ids[i]) {
                    if let Response::Err(e) = resp {
                        return Err(SystemError::Db(e));
                    }
                    latencies[i] = Some(self.net.now().since(started));
                }
            }
        }
        Ok(latencies
            .into_iter()
            .map(|l| l.expect("all filled"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mits_author::{
        compile_imd, ElementKind, ImDocument, Scene, Section, Subsection, TimelineEntry,
    };
    use mits_media::{CaptureSpec, MediaFormat, ProductionCenter};
    use std::sync::Arc;

    fn tiny_course() -> (Vec<MhegObject>, Vec<MediaObject>, MhegId) {
        let mut pc = ProductionCenter::new(7);
        let clip = pc.capture(&CaptureSpec::video(
            "intro.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_millis(200),
            mits_media::VideoDims::new(64, 64),
        ));
        let mut doc = ImDocument::new("Tiny Course");
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
        let compiled = compile_imd(50, &doc);
        (compiled.objects, vec![clip], compiled.root)
    }

    #[test]
    fn publish_then_list_then_fetch() {
        let (objects, media, root) = tiny_course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(2)).unwrap();
        let publish_time = sys.publish(&objects, &media).unwrap();
        assert!(
            publish_time > SimDuration::ZERO,
            "publishing crossed the network"
        );
        let (docs, _) = sys.get_list_doc(ClientId(0)).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].0, root);
        assert_eq!(docs[0].1, "Tiny Course");
        let (objs, fetch_time) = sys.fetch_courseware(ClientId(0), root).unwrap();
        assert_eq!(objs.len(), objects.len());
        assert!(fetch_time > SimDuration::ZERO);
    }

    #[test]
    fn recycled_scratch_builds_an_observably_fresh_registry() {
        let (objects, media, root) = tiny_course();
        let session = |sys: &mut MitsSystem| {
            sys.load_directly(objects.clone(), media.clone());
            sys.fetch_courseware(ClientId(0), root).unwrap();
            sys.export_metrics();
            sys.metrics.to_json()
        };
        let mut fresh = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        let want = session(&mut fresh);
        // The retired system wrote more names (two clients, a replica).
        let mut old = MitsSystem::build(&SystemConfig::broadband(2).with_replica()).unwrap();
        session(&mut old);
        let config = SystemConfig::broadband(1);
        let mut reused = MitsSystem::build_with_scratch(&config, old.into_scratch()).unwrap();
        assert!(
            reused.metrics.is_empty(),
            "a recycled registry starts empty"
        );
        assert_eq!(session(&mut reused), want);
    }

    #[test]
    fn fetch_content_uses_cache_second_time() {
        let (objects, media, _) = tiny_course();
        let src = media[0].clone();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        sys.load_directly(objects, media);
        let (m1, t1) = sys.fetch_content(ClientId(0), src.id).unwrap();
        assert!(t1 > SimDuration::ZERO);
        assert_eq!(m1, src, "content intact across the network");
        let (_, t2) = sys.fetch_content(ClientId(0), src.id).unwrap();
        assert_eq!(t2, SimDuration::ZERO, "cache hit skips the network");
        let (hits, _) = sys.client_cache_stats(ClientId(0));
        assert!(hits >= 1);
    }

    /// A clean broadband fetch hands the student the server's stored
    /// clip itself — the response rode every hop as views of it, and the
    /// client joined them back up — while the same fetch over a lossy
    /// downlink, whose cells the switch must handle one by one, delivers
    /// the same bytes as a copy.
    #[test]
    fn clean_fetch_shares_the_stored_clip_and_a_lossy_one_copies() {
        let clip = MediaObject::new(
            MediaId(77),
            "lecture.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_secs(1),
            mits_media::VideoDims::new(320, 240),
            Bytes::from(
                (0..200 * 1024)
                    .map(|i| (i * 7 % 251) as u8)
                    .collect::<Vec<u8>>(),
            ),
        );
        let fetch = |lossy: bool| {
            let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
            if lossy {
                let plan = mits_atm::FaultPlan::none().with_link(
                    sys.switch(),
                    sys.client_host(ClientId(0)),
                    mits_atm::LinkFaults::loss(1e-3),
                );
                sys.net.set_fault_plan(plan);
            }
            sys.load_shared(&[], std::slice::from_ref(&clip));
            sys.fetch_content(ClientId(0), clip.id).unwrap().0
        };
        let clean = fetch(false);
        assert_eq!(clean, clip);
        assert!(Arc::ptr_eq(clean.data.shared(), clip.data.shared()));
        let lossy = fetch(true);
        assert_eq!(lossy, clip);
        assert!(!Arc::ptr_eq(lossy.data.shared(), clip.data.shared()));
    }

    #[test]
    fn missing_doc_is_db_error() {
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        let err = sys
            .get_selected_doc(ClientId(0), "nothing here")
            .unwrap_err();
        assert!(matches!(err, SystemError::Db(DbError::NotFound(_))));
    }

    #[test]
    fn keyword_queries_over_network() {
        let (objects, media, root) = tiny_course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        sys.publish(&objects, &media).unwrap();
        let (ids, _) = sys.get_doc_by_keyword(ClientId(0), "telecom").unwrap();
        assert_eq!(ids, vec![root]);
        let (tree, _) = sys.get_keyword_tree(ClientId(0)).unwrap();
        assert_eq!(tree.lookup("telecom/atm"), vec![root]);
    }

    #[test]
    fn narrowband_fetch_is_slower() {
        let (objects, media, root) = tiny_course();
        let mut elapsed = Vec::new();
        for profile in [LinkProfile::atm_oc3(), LinkProfile::isdn_128k()] {
            let mut sys =
                MitsSystem::build(&SystemConfig::broadband(1).with_access(profile)).unwrap();
            sys.load_directly(objects.clone(), media.clone());
            let (_, t) = sys.fetch_courseware(ClientId(0), root).unwrap();
            let (_, tc) = sys.fetch_content(ClientId(0), media[0].id).unwrap();
            elapsed.push(t + tc);
        }
        assert!(
            elapsed[1].as_secs_f64() > 20.0 * elapsed[0].as_secs_f64(),
            "ISDN {} vs OC-3 {}",
            elapsed[1],
            elapsed[0]
        );
    }

    #[test]
    fn two_clients_independent_caches() {
        let (objects, media, _) = tiny_course();
        let id = media[0].id;
        let mut sys = MitsSystem::build(&SystemConfig::broadband(2)).unwrap();
        sys.load_directly(objects, media);
        sys.fetch_content(ClientId(0), id).unwrap();
        // Client 1 still pays the network.
        let (_, t) = sys.fetch_content(ClientId(1), id).unwrap();
        assert!(t > SimDuration::ZERO);
    }

    #[test]
    fn zero_loss_path_is_unchanged_by_fault_plumbing() {
        // An explicit empty plan + no-retry policy must reproduce the
        // default configuration cell for cell.
        let (objects, media, root) = tiny_course();
        let mut elapsed = Vec::new();
        for cfg in [
            SystemConfig::broadband(1),
            SystemConfig::broadband(1)
                .with_fault_plan(mits_atm::FaultPlan::none())
                .with_retry(RetryPolicy::no_retry()),
        ] {
            let mut sys = MitsSystem::build(&cfg).unwrap();
            sys.load_directly(objects.clone(), media.clone());
            let (_, t) = sys.fetch_courseware(ClientId(0), root).unwrap();
            elapsed.push((t, sys.bytes_to_client(ClientId(0))));
        }
        assert_eq!(elapsed[0], elapsed[1]);
    }

    #[test]
    fn lossy_uplink_completes_with_deterministic_retries() {
        // 35% cell loss on the student's access uplink: request frames
        // and transport ACKs die often enough that the ARQ and, when a
        // whole attempt window dies, the client-level retry machinery
        // have to work. Only small frames cross the faulted direction,
        // so a burst of queries pushes enough cells through it for the
        // loss process to bite. Everything is seeded, so two identical
        // runs must agree cell for cell.
        let run = || {
            let (objects, media, root) = tiny_course();
            let cfg = SystemConfig::broadband(1)
                .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(60)));
            let mut sys = MitsSystem::build(&cfg).unwrap();
            let plan = mits_atm::FaultPlan::none().with_link(
                sys.client_host(ClientId(0)),
                sys.switch(),
                mits_atm::LinkFaults::loss(0.35),
            );
            sys.net.set_fault_plan(plan);
            sys.load_directly(objects.clone(), media.clone());
            let c = ClientId(0);
            for _ in 0..10 {
                let (docs, _) = sys.get_list_doc(c).unwrap();
                assert_eq!(docs.len(), 1);
            }
            let (objs, t) = sys.fetch_courseware(c, root).unwrap();
            assert_eq!(objs.len(), objects.len());
            let (ids, _) = sys.get_doc_by_keyword(c, "telecom").unwrap();
            assert_eq!(ids, vec![root]);
            let (m0, _) = sys.fetch_content(c, media[0].id).unwrap();
            assert_eq!(m0, media[0], "content survives the lossy uplink intact");
            let m = sys.client_metrics(c).clone();
            assert_eq!(m.completed, 13);
            assert!(m.attempts >= 13);
            let fs = sys.net.fault_stats();
            (
                t,
                m.attempts,
                m.retries,
                m.timeouts,
                fs.total_losses(),
                fs.faulted_cells,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded fault schedule must replay exactly");
        assert!(a.4 > 0, "the plan actually destroyed cells: {a:?}");
    }

    #[test]
    fn link_down_window_forces_client_retry() {
        let (objects, media, root) = tiny_course();
        let mut sys = {
            let cfg = SystemConfig::broadband(1)
                .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(120)));
            let mut sys = MitsSystem::build(&cfg).unwrap();
            sys.load_directly(objects.clone(), media.clone());
            sys
        };
        // Warm the clock, then kill every link for 2 s right as the
        // request goes out: attempt 1 dies, the retry machinery must
        // carry the fetch across the outage.
        sys.pump_until(SimTime::from_millis(100)).unwrap();
        let outage = mits_atm::LinkFaults::default()
            .with_down(SimTime::from_millis(100), SimTime::from_millis(2100));
        sys.net.set_fault_plan(mits_atm::FaultPlan::uniform(outage));
        let (objs, t) = sys.fetch_courseware(ClientId(0), root).unwrap();
        assert_eq!(objs.len(), objects.len());
        assert!(
            t >= SimDuration::from_secs(2),
            "the fetch had to outlive the outage, took {t}"
        );
        let m = sys.client_metrics(ClientId(0));
        assert!(
            m.retries >= 1 || m.timeouts >= 1,
            "outage must show up in the client metrics: {m:?}"
        );
        assert!(sys.net.fault_stats().downtime_losses > 0);
    }

    #[test]
    fn crash_restart_recovers_journaled_state() {
        let (objects, media, root) = tiny_course();
        // Crash-free twin: what the store should look like.
        let mut clean = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        clean.publish(&objects, &media).unwrap();
        clean.pump_until(SimTime::from_secs(30)).unwrap();
        let want = clean.db().state_digest();

        let cfg = SystemConfig::broadband(1)
            .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(120)))
            .with_crash(SimTime::from_secs(10), 0)
            .with_restart(SimTime::from_secs(12), 0);
        let mut sys = MitsSystem::build(&cfg).unwrap();
        sys.publish(&objects, &media).unwrap();
        assert!(sys.now() < SimTime::from_secs(10), "published before crash");
        sys.pump_until(SimTime::from_secs(11)).unwrap();
        assert!(!sys.server_up(0), "crashed on schedule");
        sys.pump_until(SimTime::from_secs(30)).unwrap();
        assert!(sys.server_up(0), "restarted on schedule");
        let report = sys.last_recovery.as_ref().expect("a recovery ran");
        assert!(report.replayed_bytes() > 0);
        assert_eq!(sys.db().state_digest(), want, "recovered store matches");
        // And it serves again.
        let (objs, _) = sys.fetch_courseware(ClientId(0), root).unwrap();
        assert_eq!(objs.len(), objects.len());
    }

    #[test]
    fn failover_to_replica_and_back() {
        let (objects, media, root) = tiny_course();
        let cfg = SystemConfig::broadband(1)
            .with_replica()
            .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(60)))
            .with_crash(SimTime::from_secs(5), 0)
            .with_restart(SimTime::from_secs(40), 0);
        let mut sys = MitsSystem::build(&cfg).unwrap();
        assert_eq!(sys.server_count(), 2);
        sys.load_directly(objects.clone(), media.clone());
        // Warm fetch against the primary.
        let (docs, _) = sys.get_list_doc(ClientId(0)).unwrap();
        assert_eq!(docs.len(), 1);
        // Step past the crash; the next call must fail over to the
        // replica and still answer inside the client deadline.
        sys.pump_until(SimTime::from_secs(6)).unwrap();
        assert!(!sys.server_up(0));
        let (objs, t) = sys.fetch_courseware(ClientId(0), root).unwrap();
        assert_eq!(objs.len(), objects.len());
        assert!(t < SimDuration::from_secs(60), "inside the deadline: {t}");
        assert!(sys.failovers > 0, "the flip was recorded");
        assert_eq!(sys.active_server(ClientId(0)), 1, "talking to the replica");
        // After the restart, clients fail back to the primary.
        sys.pump_until(SimTime::from_secs(41)).unwrap();
        assert!(sys.server_up(0));
        assert_eq!(sys.active_server(ClientId(0)), 0, "failed back");
        let (docs, _) = sys.get_list_doc(ClientId(0)).unwrap();
        assert_eq!(docs.len(), 1);
    }

    #[test]
    fn replica_tracks_published_mutations() {
        let (objects, media, _) = tiny_course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1).with_replica()).unwrap();
        sys.publish(&objects, &media).unwrap();
        // Let the replication channel drain.
        let t = sys.now() + SimDuration::from_secs(5);
        sys.pump_until(t).unwrap();
        assert_eq!(
            sys.db_at(0).state_digest(),
            sys.db_at(1).state_digest(),
            "replica mirrors the primary byte for byte"
        );
    }

    #[test]
    fn checkpoint_cadence_truncates_the_wal() {
        let (objects, media, _) = tiny_course();
        let cfg = SystemConfig::broadband(1).with_checkpoint_every(SimDuration::from_secs(2));
        let mut sys = MitsSystem::build(&cfg).unwrap();
        sys.publish(&objects, &media).unwrap();
        let wal_before = sys.db().wal_device_len();
        assert!(wal_before > 0, "publishing journaled");
        let t = sys.now() + SimDuration::from_secs(5);
        sys.pump_until(t).unwrap();
        assert_eq!(sys.db().wal_device_len(), 0, "cadence folded the log");
    }

    #[test]
    fn overloaded_server_sheds_and_clients_back_off() {
        let (objects, media, root) = tiny_course();
        let cfg = SystemConfig::broadband(6)
            .with_server_queue_limit(2)
            .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(120)));
        let mut sys = MitsSystem::build(&cfg).unwrap();
        sys.load_directly(objects.clone(), media.clone());
        let clients: Vec<ClientId> = (0..6).map(ClientId).collect();
        let latencies = sys.concurrent_fetch_courseware(&clients, root).unwrap();
        assert_eq!(latencies.len(), 6);
        assert!(
            *sys.db().requests_shed.read() > 0,
            "six concurrent fetches must trip a queue limit of 2"
        );
        let total_retries: u64 = clients.iter().map(|c| sys.client_metrics(*c).retries).sum();
        assert!(total_retries > 0, "shed requests are retried after backoff");
    }
}
