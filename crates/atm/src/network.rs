//! The cell-level network simulator: hosts, output-queued switches,
//! virtual circuits, and per-VC QoS accounting.
//!
//! Everything is clock-driven and deterministic. A caller builds a
//! topology, opens VCs along explicit paths (MITS is connection-oriented:
//! the prototype pre-established its author/database/user circuits),
//! `send`s PDUs, and `advance`s the clock, collecting [`Delivery`]
//! records. Cell transfer delay, delay variation, and loss accumulate per
//! VC — the raw material of experiments E-BB and F3.5.

use crate::aal5;
use crate::cell::CELL_PAYLOAD;
use crate::fault::{FaultPlan, FaultState, FaultStats, LinkFaults};
use crate::link::{LinkProfile, LinkTelemetry, Policer, ServeKind, ServiceClass, TrafficContract};
use bytes::{Bytes, PartList};
use mits_sim::{
    ChanceThreshold, DelayMoments, MetricsRegistry, OnlineStats, SimDuration, SimRng, SimTime,
    TimeWeighted, TimerQueue,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// A node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A virtual circuit handle (doubles as the VCI carried in cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcId(pub u16);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LinkId(u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc:{}", self.0)
    }
}

/// Errors from topology and VC operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Node id out of range.
    UnknownNode(NodeId),
    /// VC id unknown.
    UnknownVc(VcId),
    /// Two consecutive path nodes are not connected.
    NotConnected(NodeId, NodeId),
    /// A path needs at least a source and a destination.
    PathTooShort,
    /// VC number space (16-bit) exhausted.
    VcSpaceExhausted,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown {n}"),
            NetError::UnknownVc(v) => write!(f, "unknown {v}"),
            NetError::NotConnected(a, b) => write!(f, "{a} and {b} are not connected"),
            NetError::PathTooShort => write!(f, "path needs ≥ 2 nodes"),
            NetError::VcSpaceExhausted => write!(f, "no free VCIs"),
        }
    }
}

impl std::error::Error for NetError {}

/// A PDU delivered to a VC's destination host.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Arrival instant (last cell received, PDU validated).
    pub at: SimTime,
    /// The circuit it arrived on.
    pub vc: VcId,
    /// Destination node.
    pub node: NodeId,
    /// The reassembled payload: on the cell-train fast path, the parts
    /// the sender handed to [`AtmNetwork::send`] (views, not copies); on
    /// the per-cell path, one view of the flattened run.
    pub payload: PartList,
}

/// Per-VC quality-of-service statistics.
#[derive(Debug, Clone, Default)]
pub struct VcStats {
    /// Cells offered by the source.
    pub cells_sent: u64,
    /// Cells that reached the destination.
    pub cells_delivered: u64,
    /// Cells dropped (queue overflow, line loss, policing discard).
    pub cells_dropped: u64,
    /// PDUs offered.
    pub pdus_sent: u64,
    /// PDUs delivered intact.
    pub pdus_delivered: u64,
    /// PDUs lost to cell loss / CRC failure.
    pub pdus_failed: u64,
    /// Payload bytes offered.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Cell transfer delay: exact integer moments of every delivered
    /// cell's delay, reported in seconds.
    pub ctd: DelayMoments,
    /// PDU latency: send call → validated delivery (seconds).
    pub pdu_latency: OnlineStats,
}

impl VcStats {
    /// Cell loss ratio.
    pub fn clr(&self) -> f64 {
        if self.cells_sent == 0 {
            0.0
        } else {
            self.cells_dropped as f64 / self.cells_sent as f64
        }
    }

    /// Cell delay variation (std dev of CTD, seconds).
    pub fn cdv(&self) -> f64 {
        self.ctd.std_dev()
    }
}

struct LinkState {
    to: NodeId,
    /// Whether `to` is a host: the cells arriving there are only
    /// counted and reassembled, never forwarded.
    to_host: bool,
    profile: LinkProfile,
    /// `profile.cell_time()`, computed once.
    cell_time: SimDuration,
    queues: Vec<TxQueue>,
    busy: bool,
    /// The transmitter's busy flag (0/1) over time; its integral is the
    /// link's exact busy microseconds.
    utilization: TimeWeighted,
    /// Injected faults from the network's [`FaultPlan`], if any.
    faults: Option<LinkFaults>,
    fault_state: FaultState,
    /// Highest service-class priority (lowest [`ServiceClass::priority`]
    /// value) of any VC routed over this link. A cell train may only
    /// occupy the transmitter when no strictly-higher-priority VC could
    /// enqueue a cell mid-run — the per-cell scheduler re-arbitrates
    /// priorities at every cell boundary, and the train must never be
    /// able to diverge from that.
    top_priority: usize,
    /// Per-hop weathermap: windowed serve-mode samples, recorded only at
    /// the run/cell boundaries the simulator already visits. Purely
    /// observational — no RNG draws, no events — so it cannot perturb
    /// the digest.
    telemetry: LinkTelemetry,
    /// The cell the transmitter is serializing on its own; its `TxDone`
    /// is pending.
    serving: Option<Flying>,
    /// Cells propagating toward `to`, in arrival order. Cells leave a
    /// link in serialization order and jitter is clamped so it never
    /// reorders them, so arrivals append in key order. Toward a switch,
    /// one heap timer, the head's, stands for the whole queue. Toward a
    /// host only end cells have timers: the cells before one wait here
    /// unarmed and land in key order when it does (see
    /// [`AtmNetwork::land`]).
    flight: VecDeque<InFlight>,
    /// A train streaming across this hop: its cells serialize as they
    /// arrive, without queueing (see [`AtmNetwork::try_stream`]).
    stream: Option<Expansion>,
    /// The stream whose head arrived as `stream`'s last cell finishes;
    /// it takes the transmitter next.
    next_stream: Option<Expansion>,
}

/// The header of a cell in the network: what switches route on and the
/// destination reassembles by.
#[derive(Clone, Copy)]
struct Header {
    vci: u16,
    pdu_seq: u64,
    /// Cell index within its PDU.
    index: u32,
    /// Last cell of its PDU.
    end: bool,
    /// Tagged by the policer: discarded first under congestion.
    clp: bool,
}

/// A cell in flight. Its payload is the 48-byte window `index` of the
/// buffer its PDU was flattened into, and no fault rewrites a payload,
/// so the window is never materialized: only cell 0 carries the buffer,
/// and the destination validates the PDU from it once the run is in.
struct Flying {
    header: Header,
    /// The send call's instant: the origin of the cell's transfer delay
    /// and of its PDU's latency.
    sent: SimTime,
    /// Cell 0's: the flattened run.
    run: Option<Bytes>,
}

impl Flying {
    /// Cell `k` of an `n`-cell PDU sent at `sent`; cell 0 takes the
    /// flattened run out of `flat`.
    fn of_run(
        vci: u16,
        pdu_seq: u64,
        (k, n): (usize, usize),
        sent: SimTime,
        flat: &mut Option<Bytes>,
    ) -> Flying {
        Flying {
            header: Header {
                vci,
                pdu_seq,
                index: k as u32,
                end: k + 1 == n,
                clp: false,
            },
            sent,
            run: if k == 0 { flat.take() } else { None },
        }
    }
}

/// A cell propagating on a link, keyed by its arrival instant and the
/// timer sequence number it was scheduled under.
struct InFlight {
    at: SimTime,
    seq: u64,
    /// Whether a heap timer stands for this entry. Toward a switch the
    /// head always has one, and an entry that was head before an
    /// earlier arrival was put in front of it keeps its own; toward a
    /// host every end cell has one.
    armed: bool,
    flying: Flying,
}

/// Minimum run length worth batching: below this the train's own events
/// cost as much as the per-cell ones (acks and control PDUs stay on the
/// exact per-cell path for free).
const TRAIN_MIN_CELLS: usize = 4;

/// A whole-PDU cell run on the fast path: one queue entry / timer event
/// per hop instead of one `Flying` and two timer events per cell. The
/// run carries views of the sender's parts from hop to hop; it is
/// flattened and its cells materialized only when the train has to fall
/// back to per-cell dispatch (contention, fault window, realized line
/// loss).
struct Train {
    vci: u16,
    pdu_seq: u64,
    run: aal5::RunImage,
    /// The send call's instant.
    sent: SimTime,
    /// Arrival spacing of consecutive cells at the current hop:
    /// [`SimDuration::ZERO`] at the source (every cell is queued), the
    /// upstream cell time downstream.
    spacing: SimDuration,
    /// Arrival instant of the run's first cell at the current hop.
    head_at: SimTime,
}

impl Train {
    /// Cell `k` in flight, with the header the per-cell send path gives
    /// it; cell 0 takes `flat`, this run flattened once by the caller,
    /// as the per-cell path's cell 0 carries its flattened run.
    fn cell(&self, k: usize, flat: &mut Option<Bytes>) -> Flying {
        Flying::of_run(
            self.vci,
            self.pdu_seq,
            (k, self.run.ncells),
            self.sent,
            flat,
        )
    }
}

/// A train's cells reaching a switch one by one behind its head. Cell
/// k ≥ 1 arrives at `head_at + k·spacing` under timer sequence number
/// `seq_base + k − 1`: the block was reserved when the head arrived,
/// where the per-cell arrival timers of the whole run used to be
/// allocated, so every arrival keeps its tie-break against every other
/// event. An expansion either runs on the heap, one
/// [`TimerKind::Expand`] timer standing for its next arrival, or
/// streams across its egress hop, whose transmitter then takes each
/// cell the instant it arrives.
struct Expansion {
    train: Train,
    /// The run flattened once, until cell 0 takes it.
    flat: Option<Bytes>,
    /// The link the cells arrive on.
    link: LinkId,
    seq_base: u64,
    /// The next cell to arrive (on the heap) or to start serializing
    /// (streaming; cell 0 is the head).
    next: usize,
}

impl Expansion {
    fn ncells(&self) -> usize {
        self.train.run.ncells
    }

    /// Arrival instant and sequence number of cell `k ≥ 1`.
    fn key(&self, k: usize) -> (SimTime, u64) {
        let at = self.train.head_at
            + SimDuration::from_micros(self.train.spacing.as_micros() * k as u64);
        (at, self.seq_base + k as u64 - 1)
    }

    /// Take cell `next` and move past it.
    fn take_next(&mut self) -> Flying {
        let f = self.train.cell(self.next, &mut self.flat);
        self.next += 1;
        f
    }
}

/// One queued transmission: a single cell or a whole-PDU train.
enum QueuedTx {
    Cell(Flying),
    Train(Train),
}

/// A per-class output queue that counts occupancy in *cells* (a train
/// weighs its full run) so congestion thresholds and tail-drop capacity
/// behave exactly like a queue of single cells.
struct TxQueue {
    items: VecDeque<QueuedTx>,
    len_cells: usize,
    capacity: usize,
    /// Cells tail-dropped.
    drops: u64,
}

impl TxQueue {
    fn new(capacity: usize) -> Self {
        TxQueue {
            items: VecDeque::new(),
            len_cells: 0,
            capacity,
            drops: 0,
        }
    }

    /// Offer one cell; bounces it back (tail drop) when full.
    fn offer_cell(&mut self, f: Flying) -> Option<Flying> {
        if self.len_cells >= self.capacity {
            self.drops += 1;
            return Some(f);
        }
        self.items.push_back(QueuedTx::Cell(f));
        self.len_cells += 1;
        None
    }

    /// Offer a whole train; the caller has already checked the run fits.
    fn offer_train(&mut self, t: Train) {
        debug_assert!(
            self.len_cells + t.run.ncells <= self.capacity,
            "train overflows queue"
        );
        self.len_cells += t.run.ncells;
        self.items.push_back(QueuedTx::Train(t));
    }

    fn take(&mut self) -> Option<QueuedTx> {
        let e = self.items.pop_front()?;
        self.len_cells -= match &e {
            QueuedTx::Cell(_) => 1,
            QueuedTx::Train(t) => t.run.ncells,
        };
        Some(e)
    }

    /// Return a cell to the front (train expansion); occupancy was
    /// already accounted when its train was taken.
    fn push_front_cell(&mut self, f: Flying) {
        self.items.push_front(QueuedTx::Cell(f));
        self.len_cells += 1;
    }

    fn peek(&self) -> Option<&QueuedTx> {
        self.items.front()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// What the cell-train fast path did — exposed for tests, benches and
/// the `net.train.*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Runs served analytically (counted per hop).
    pub runs: u64,
    /// Cells those runs carried without per-cell events.
    pub cells_batched: u64,
    /// PDUs that never formed a train: a short run, a policer tag, a
    /// first hop with RNG-coupled faults (loss, burst or jitter; later
    /// hops only expand a train), or `force_per_cell`.
    pub per_cell_pdus: u64,
    /// Trains expanded to per-cell arrivals at a contended or
    /// rate-mismatched hop.
    pub expanded_contention: u64,
    /// Trains that reached a busy but otherwise clear hop and were
    /// parked whole in the egress queue instead of expanding (served
    /// analytically when the transmitter frees).
    pub parked: u64,
    /// Trains expanded at a hop whose faults they cannot reproduce: a
    /// link-down window overlapping the run's serialization window, or
    /// RNG-coupled loss, burst or jitter on the hop.
    pub expanded_fault_window: u64,
    /// Runs whose line-noise draw actually hit, shipping survivors
    /// per-cell.
    pub line_loss_fallbacks: u64,
    /// Trains that streamed across a hop with RNG-coupled faults, each
    /// cell serializing the instant it arrived, instead of queueing cell
    /// by cell there (counted in `expanded_fault_window` too). This and
    /// `stream_splits` stay out of the registry, whose metrics the
    /// campus rollup pins.
    pub streamed: u64,
    /// Streams split back into queued cells by another cell or train
    /// entering their hop.
    pub stream_splits: u64,
}

struct NodeState {
    name: String,
    is_switch: bool,
    /// Route table indexed by VCI (VCIs are allocated densely from 1).
    routes: Vec<u32>,
}

/// Sentinel in a node's route table: no route for this VCI.
const NO_ROUTE: u32 = u32::MAX;

impl NodeState {
    fn route(&self, vc: VcId) -> Option<LinkId> {
        match self.routes.get(vc.0 as usize) {
            Some(&l) if l != NO_ROUTE => Some(LinkId(l)),
            _ => None,
        }
    }

    fn set_route(&mut self, vc: VcId, link: LinkId) {
        let i = vc.0 as usize;
        if self.routes.len() <= i {
            self.routes.resize(i + 1, NO_ROUTE);
        }
        self.routes[i] = link.0;
    }
}

struct VcState {
    class: ServiceClass,
    first_link: LinkId,
    dst: NodeId,
    policer: Option<Policer>,
    next_pdu_seq: u64,
    rx: Rx,
    /// PDU sequence numbers already declared failed (first cell drop
    /// fails the whole AAL5 PDU; later drops of the same PDU don't
    /// double-count).
    failed_pdus: std::collections::HashSet<u64>,
    stats: VcStats,
}

impl VcState {
    /// Record a cell drop; marks the owning PDU failed exactly once.
    fn drop_cell(&mut self, pdu_seq: u64) {
        self.stats.cells_dropped += 1;
        self.fail_pdu(pdu_seq);
    }

    /// Mark a PDU failed, counting it once however often it fails. So
    /// `pdus_failed` is the size of a set, the same in whatever order
    /// the failures land.
    fn fail_pdu(&mut self, pdu_seq: u64) {
        if self.failed_pdus.insert(pdu_seq) {
            self.stats.pdus_failed += 1;
        }
    }
}

/// The destination's reassembly buffer for the PDU being received.
#[derive(Default)]
enum Rx {
    #[default]
    Empty,
    /// Cells `0..count` of one PDU, in order. Every cell of a PDU is a
    /// 48-byte window of the one buffer its run was flattened into, the
    /// previous cell's window followed by the next, so the run is
    /// counted, not collected, and validated once as that buffer, which
    /// cell 0 brought.
    Run {
        pdu_seq: u64,
        sent: SimTime,
        run: Bytes,
        count: usize,
    },
    /// A PDU that lost a cell (a gap, or a first cell that is not cell
    /// 0): it fails when its end cell arrives.
    Broken { pdu_seq: u64 },
}

impl Rx {
    /// The PDU being received, if any.
    fn pdu_seq(&self) -> Option<u64> {
        match self {
            Rx::Empty => None,
            Rx::Run { pdu_seq, .. } | Rx::Broken { pdu_seq } => Some(*pdu_seq),
        }
    }

    fn push(&mut self, f: Flying) {
        let h = f.header;
        match self {
            Rx::Empty if h.index == 0 => {
                *self = Rx::Run {
                    pdu_seq: h.pdu_seq,
                    sent: f.sent,
                    run: f.run.expect("cell 0 carries its flattened run"),
                    count: 1,
                }
            }
            Rx::Run { count, .. } if h.index as usize == *count => *count += 1,
            Rx::Broken { .. } => {}
            _ => *self = Rx::Broken { pdu_seq: h.pdu_seq },
        }
    }

    /// Reassemble the buffered PDU (its end cell was the last pushed)
    /// and empty the buffer; returns the PDU's send call with the
    /// payload.
    fn finish(&mut self) -> Result<(SimTime, Bytes), aal5::Aal5Error> {
        match std::mem::take(self) {
            Rx::Empty => unreachable!("an end cell was just buffered"),
            Rx::Run {
                sent, run, count, ..
            } => {
                debug_assert_eq!(run.len(), count * CELL_PAYLOAD, "the whole run is in");
                aal5::reassemble_flat(run).map(|payload| (sent, payload))
            }
            Rx::Broken { .. } => Err(aal5::Aal5Error::Incomplete),
        }
    }
}

#[derive(PartialEq, Eq)]
enum TimerKind {
    /// Transmitter on `link` finished serializing its `serving` cell.
    TxDone(u32),
    /// The head of `link`'s `flight` queue arrives at the far end.
    Arrive(u32),
    /// The next cell of expansion `id` arrives at its switch.
    Expand(u32),
    /// Transmitter on `link` finished serializing a whole train; if the
    /// second field is a stashed train id (not `u32::MAX`), the run is
    /// host-bound and its delivery is scheduled from here — the same
    /// wall instant the per-cell path schedules the last cell's arrival
    /// from its `tx_done`, so heap sequence numbers (the tie-break for
    /// simultaneous events) allocate in baseline order.
    TrainTxDone(u32, u32),
    /// Fires one cell-time before a train's `TrainTxDone` — the instant
    /// the per-cell path would *start* serving the run's last cell and
    /// allocate its `TxDone`. Exists only to allocate `TrainTxDone`'s
    /// sequence number at that baseline wall time; scheduling it at
    /// serve start would give the completion an earlier sequence than
    /// any same-instant arrival, inverting contention tie-breaks.
    TrainWind(u32, u32),
    /// Fires when a train's head cell finishes serializing (`s + ct`) —
    /// the wall instant the per-cell path allocates the head's `Arrive`
    /// inside `tx_done` — and schedules `TrainHead` one propagation
    /// delay later.
    TrainHeadWind(u32, u32),
    /// A train's head cell arrives at the switch at the far end of
    /// `link`; the train either re-serializes onto the next hop or
    /// expands to per-cell arrivals there.
    TrainHead(u32, u32),
    /// A train's last cell arrives at the destination host of `link`;
    /// the whole run is accounted and reassembled at once.
    TrainDeliver(u32, u32),
}

/// Objects each claimed by exactly one pending timer, by index.
struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, t: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.items[id as usize] = Some(t);
                id
            }
            None => {
                self.items.push(Some(t));
                (self.items.len() - 1) as u32
            }
        }
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.items.get_mut(id as usize)?.as_mut()
    }

    fn take(&mut self, id: u32) -> Option<T> {
        let t = self.items.get_mut(id as usize)?.take();
        if t.is_some() {
            self.free.push(id);
        }
        t
    }

    fn clear(&mut self) {
        self.items.clear();
        self.free.clear();
    }
}

/// Recycled allocation capacity harvested from a retired [`AtmNetwork`].
///
/// A campus worker retires thousands of short-lived per-student networks;
/// rebuilding each one from empty `Vec`s re-pays every growth
/// reallocation of the timer heap, the train and expansion slabs, the
/// links' flight queues, the delivery buffer, the VC/route tables, and
/// the topology vectors.
/// `NetScratch` carries those containers — emptied of contents but
/// keeping their capacity — from [`AtmNetwork::into_scratch`] into the
/// next [`AtmNetwork::with_scratch`]. A recycled network is observably
/// identical to a fresh one: every container is cleared, clocks reset,
/// and the RNG streams are re-seeded in place from the new seed.
#[derive(Default)]
pub struct NetScratch {
    nodes: Vec<NodeState>,
    links: Vec<LinkState>,
    link_index: HashMap<(NodeId, NodeId), LinkId>,
    vcs: Vec<VcState>,
    timers: TimerQueue<TimerKind>,
    deliveries: Vec<Delivery>,
    trains: Slab<Train>,
    expansions: Slab<Expansion>,
    flights: Vec<VecDeque<InFlight>>,
}

/// The ATM network simulator.
pub struct AtmNetwork {
    nodes: Vec<NodeState>,
    links: Vec<LinkState>,
    link_index: HashMap<(NodeId, NodeId), LinkId>,
    /// VC states indexed by `vci - 1` (VCIs are allocated densely from 1).
    vcs: Vec<VcState>,
    next_vci: u16,
    timers: TimerQueue<TimerKind>,
    /// Sequence number of the timer being handled (`u64::MAX` between
    /// events): a stream split compares its cells' arrivals against it.
    cur_seq: u64,
    now: SimTime,
    rng: SimRng,
    deliveries: Vec<Delivery>,
    fault_plan: FaultPlan,
    /// Dedicated RNG stream for fault injection. Kept separate from the
    /// line-noise RNG so an empty plan leaves the base simulation
    /// bit-identical to a network without fault injection.
    fault_rng: SimRng,
    fault_stats: FaultStats,
    /// Trains in flight, each claimed by exactly one pending timer.
    trains: Slab<Train>,
    /// Expansions on the heap, each claimed by its `Expand` timer.
    expansions: Slab<Expansion>,
    /// Emptied flight queues of a retired network, for links connected
    /// here.
    flights: Vec<VecDeque<InFlight>>,
    /// Debug switch: disable the train fast path entirely (the
    /// equivalence witness for the batched scheduler).
    per_cell_only: bool,
    train_stats: TrainStats,
    /// Heap timers handled so far.
    timer_events: u64,
}

impl AtmNetwork {
    /// An empty network; `seed` drives the loss process.
    pub fn new(seed: u64) -> Self {
        Self::with_scratch(seed, NetScratch::default())
    }

    /// An empty network reusing the allocation capacity of a retired
    /// one. Behaviour is bit-identical to [`AtmNetwork::new`] — only
    /// the containers' reserved capacity differs.
    pub fn with_scratch(seed: u64, scratch: NetScratch) -> Self {
        AtmNetwork {
            nodes: scratch.nodes,
            links: scratch.links,
            link_index: scratch.link_index,
            vcs: scratch.vcs,
            next_vci: 1,
            timers: scratch.timers,
            cur_seq: u64::MAX,
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed ^ 0xA7A7_17D0),
            deliveries: scratch.deliveries,
            fault_plan: FaultPlan::none(),
            fault_rng: SimRng::seed_from_u64(seed ^ 0xFA17_0BAD),
            fault_stats: FaultStats::default(),
            trains: scratch.trains,
            expansions: scratch.expansions,
            flights: scratch.flights,
            per_cell_only: false,
            train_stats: TrainStats::default(),
            timer_events: 0,
        }
    }

    /// Retire this network and harvest its containers' capacity for the
    /// next one (see [`NetScratch`]). All contents are dropped here; only
    /// empty-but-reserved allocations survive.
    pub fn into_scratch(self) -> NetScratch {
        let AtmNetwork {
            mut nodes,
            mut links,
            mut link_index,
            mut vcs,
            mut timers,
            mut deliveries,
            mut trains,
            mut expansions,
            mut flights,
            ..
        } = self;
        nodes.clear();
        flights.extend(links.drain(..).map(|l| l.flight).map(|mut f| {
            f.clear();
            f
        }));
        link_index.clear();
        vcs.clear();
        timers.clear();
        deliveries.clear();
        trains.clear();
        expansions.clear();
        NetScratch {
            nodes,
            links,
            link_index,
            vcs,
            timers,
            deliveries,
            trains,
            expansions,
            flights,
        }
    }

    /// Install (or replace) the fault plan. Applies to links already
    /// connected and to links connected afterwards.
    ///
    /// Cell trains stay engaged on every link whose faults are absent or
    /// down windows only. A link with RNG-coupled faults (extra loss,
    /// bursts, jitter) draws the shared fault RNG once per cell, which a
    /// whole-run serve cannot reproduce in order, so no train forms on,
    /// cuts through to or parks at such a link: a train reaching one
    /// streams across it (or expands into queued cells when the hop is
    /// contended), and its cells draw exactly as the per-cell
    /// scheduler's would.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
        for (&(from, to), id) in &self.link_index {
            self.links[id.0 as usize].faults = self.fault_plan.for_link(from, to).cloned();
        }
    }

    /// Disable the cell-train fast path: every PDU rides the exact
    /// per-cell scheduler. The batched path must be observably
    /// indistinguishable from this mode — it exists as the equivalence
    /// witness for tests and as a forensics escape hatch.
    pub fn force_per_cell(&mut self) {
        self.per_cell_only = true;
    }

    /// What the cell-train fast path has done so far.
    pub fn train_stats(&self) -> TrainStats {
        self.train_stats
    }

    /// Heap timers handled so far: the simulator's event count, which
    /// its host time follows. Not a simulated quantity, so it stays out
    /// of [`AtmNetwork::export_metrics`].
    pub fn timer_events(&self) -> u64 {
        self.timer_events
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// What fault injection has done so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Current network clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add an end host.
    pub fn add_host(&mut self, name: &str) -> NodeId {
        self.add_node(name, false)
    }

    /// Add a switch.
    pub fn add_switch(&mut self, name: &str) -> NodeId {
        self.add_node(name, true)
    }

    fn add_node(&mut self, name: &str, is_switch: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeState {
            name: name.to_string(),
            is_switch,
            routes: Vec::new(),
        });
        id
    }

    /// Connect two nodes with a bidirectional link pair of this profile.
    pub fn connect(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) {
        assert!((a.0 as usize) < self.nodes.len(), "unknown node {a}");
        assert!((b.0 as usize) < self.nodes.len(), "unknown node {b}");
        for (from, to) in [(a, b), (b, a)] {
            let id = LinkId(self.links.len() as u32);
            // Host egress buffers model host memory (a sending application
            // is backpressured, not dropped); only switch ports use the
            // profile's shallow cell buffers.
            let capacity = if self.nodes[from.0 as usize].is_switch {
                profile.queue_cells
            } else {
                profile.queue_cells.max(1 << 20)
            };
            let queues = (0..ServiceClass::LEVELS)
                .map(|_| TxQueue::new(capacity))
                .collect();
            self.links.push(LinkState {
                to,
                to_host: !self.nodes[to.0 as usize].is_switch,
                profile,
                cell_time: profile.cell_time(),
                queues,
                busy: false,
                utilization: TimeWeighted::new(),
                faults: self.fault_plan.for_link(from, to).cloned(),
                fault_state: FaultState::default(),
                top_priority: usize::MAX,
                telemetry: LinkTelemetry::default(),
                serving: None,
                flight: self.flights.pop().unwrap_or_default(),
                stream: None,
                next_stream: None,
            });
            self.link_index.insert((from, to), id);
        }
    }

    /// Open a unidirectional VC along `path` (source first, destination
    /// last), optionally policed by `contract`.
    pub fn open_vc(
        &mut self,
        path: &[NodeId],
        class: ServiceClass,
        contract: Option<TrafficContract>,
    ) -> Result<VcId, NetError> {
        if path.len() < 2 {
            return Err(NetError::PathTooShort);
        }
        for n in path {
            if (n.0 as usize) >= self.nodes.len() {
                return Err(NetError::UnknownNode(*n));
            }
        }
        let mut hop_links = Vec::with_capacity(path.len() - 1);
        for pair in path.windows(2) {
            let link = self
                .link_index
                .get(&(pair[0], pair[1]))
                .copied()
                .ok_or(NetError::NotConnected(pair[0], pair[1]))?;
            hop_links.push((pair[0], link));
        }
        if self.next_vci == u16::MAX {
            return Err(NetError::VcSpaceExhausted);
        }
        let vc = VcId(self.next_vci);
        self.next_vci += 1;
        for (node, link) in &hop_links {
            self.nodes[node.0 as usize].set_route(vc, *link);
            let l = &mut self.links[link.0 as usize];
            l.top_priority = l.top_priority.min(class.priority());
        }
        self.vcs.push(VcState {
            class,
            first_link: hop_links[0].1,
            dst: *path.last().expect("non-empty"),
            policer: contract.map(Policer::new),
            next_pdu_seq: 0,
            rx: Rx::Empty,
            failed_pdus: std::collections::HashSet::new(),
            stats: VcStats::default(),
        });
        Ok(vc)
    }

    fn vc_mut(&mut self, vc: VcId) -> Option<&mut VcState> {
        self.vcs.get_mut((vc.0 as usize).wrapping_sub(1))
    }

    /// Queue a PDU on a VC at the current clock. The PDU is a gather
    /// list: its parts, concatenated in order, are the payload (a
    /// single-buffer PDU is `&[buf]`). A PDU that rides a cell train
    /// travels as views of the parts and is delivered as the same views;
    /// one that goes cell by cell is flattened once, into the buffer its
    /// cells are windows of. Returns the PDU sequence number.
    pub fn send(&mut self, vc: VcId, pdu: &[Bytes]) -> Result<u64, NetError> {
        let now = self.now;
        let state = self.vc_mut(vc).ok_or(NetError::UnknownVc(vc))?;
        let seq = state.next_pdu_seq;
        state.next_pdu_seq += 1;
        let len: usize = pdu.iter().map(Bytes::len).sum();
        state.stats.pdus_sent += 1;
        state.stats.bytes_sent += len as u64;
        let ncells = aal5::cells_for(len);
        state.stats.cells_sent += ncells as u64;
        // Police at the source UNI: non-conforming cells are tagged
        // CLP=1. Tags are collected per cell index so the train decision
        // can be made before any cell is materialized.
        let mut tags: Option<Vec<bool>> = None;
        if let Some(policer) = &mut state.policer {
            let mut v = vec![false; ncells];
            let mut any = false;
            for t in v.iter_mut() {
                if !policer.conforms(now) {
                    *t = true;
                    any = true;
                }
            }
            if any {
                tags = Some(v);
            }
        }
        let class = state.class;
        let link = state.first_link;
        let run = aal5::segment_run(pdu);
        let link_ref = &self.links[link.0 as usize];
        let queue = &link_ref.queues[class.priority()];
        let can_train = !self.per_cell_only
            && tags.is_none()
            && ncells >= TRAIN_MIN_CELLS
            && Self::trains_allowed(link_ref)
            && link_ref.top_priority >= class.priority()
            && queue.len_cells + ncells <= queue.capacity;
        if can_train {
            let train = Train {
                vci: vc.0,
                pdu_seq: seq,
                run,
                sent: now,
                spacing: SimDuration::ZERO,
                head_at: now,
            };
            let link_mut = &mut self.links[link.0 as usize];
            link_mut.queues[class.priority()].offer_train(train);
            if !link_mut.busy {
                self.start_tx(link);
            }
            return Ok(seq);
        }
        // Exact per-cell path: short runs, tagged cells, a first hop
        // with RNG-coupled faults, or forced fallback.
        self.train_stats.per_cell_pdus += 1;
        let mut flat = Some(run.flatten());
        for k in 0..ncells {
            let mut flying = Flying::of_run(vc.0, seq, (k, ncells), now, &mut flat);
            flying.header.clp = tags.as_ref().is_some_and(|t| t[k]);
            self.enqueue_cell(link, class, flying);
        }
        Ok(seq)
    }

    /// Advance the clock to `to`, returning all PDUs delivered in the
    /// interval.
    pub fn advance(&mut self, to: SimTime) -> Vec<Delivery> {
        assert!(to >= self.now, "network clock cannot go backwards");
        while self.timers.peek().is_some_and(|(at, ..)| at <= to) {
            self.fire_next();
        }
        self.cur_seq = u64::MAX;
        self.now = to;
        self.land_due();
        std::mem::take(&mut self.deliveries)
    }

    /// Advance the clock toward `to`, stopping early the moment one or
    /// more PDUs are delivered — the clock then rests at the delivery
    /// instant (every event of that same instant is processed first).
    /// This lets a driver react to each delivery at its exact time
    /// without being woken for every intervening cell event. When
    /// nothing is delivered the clock lands on `to`, exactly like
    /// [`AtmNetwork::advance`]. Deliveries are appended to `out`, so a
    /// caller that reuses one buffer allocates nothing per step.
    pub fn advance_until_delivery(&mut self, to: SimTime, out: &mut Vec<Delivery>) {
        assert!(to >= self.now, "network clock cannot go backwards");
        while let Some((at, ..)) = self.timers.peek() {
            if at > to {
                break;
            }
            if !self.deliveries.is_empty() && at > self.now {
                // Deliveries landed at `now`; later events keep.
                break;
            }
            self.fire_next();
        }
        self.cur_seq = u64::MAX;
        if self.deliveries.is_empty() {
            self.now = to;
        }
        self.land_due();
        out.append(&mut self.deliveries);
    }

    /// Pop the earliest timer and handle it.
    fn fire_next(&mut self) {
        let (at, seq, kind) = self.timers.pop().expect("a pending timer");
        self.timer_events += 1;
        self.now = at;
        self.cur_seq = seq;
        match kind {
            TimerKind::TxDone(link) => self.tx_done(LinkId(link)),
            TimerKind::Arrive(link) => self.arrive(LinkId(link)),
            TimerKind::Expand(id) => self.expand(id),
            TimerKind::TrainTxDone(link, tid) => self.train_tx_done(LinkId(link), tid),
            TimerKind::TrainWind(link, tid) => self.train_wind(LinkId(link), tid),
            TimerKind::TrainHeadWind(link, tid) => self.train_head_wind(LinkId(link), tid),
            TimerKind::TrainHead(link, tid) => self.train_head(LinkId(link), tid),
            TimerKind::TrainDeliver(link, tid) => self.train_deliver(LinkId(link), tid),
        }
    }

    /// True when no cells are queued or in flight (a cell waiting to
    /// land at a host without a timer of its own is in flight).
    pub fn idle(&self) -> bool {
        self.timers.is_empty() && self.links.iter().all(|l| l.flight.is_empty())
    }

    /// Instant of the next internal event, if any — lets a driver advance
    /// straight to it instead of polling in fixed steps. A cell landing
    /// at a host is an event at its arrival instant, timer or not.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let landings = self.links.iter().filter_map(|l| l.flight.front());
        (self.timers.peek().map(|(at, ..)| at))
            .into_iter()
            .chain(landings.map(|f| f.at))
            .min()
    }

    /// Run until the network drains or `deadline` passes; returns
    /// deliveries.
    pub fn drain(&mut self, deadline: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        while !self.idle() && self.now < deadline {
            let next = self.next_event_time().unwrap_or(deadline).min(deadline);
            out.extend(self.advance(next));
        }
        out
    }

    /// QoS statistics for a VC.
    pub fn vc_stats(&self, vc: VcId) -> Option<&VcStats> {
        self.vcs
            .get((vc.0 as usize).wrapping_sub(1))
            .map(|s| &s.stats)
    }

    /// Mean utilization of the `a`→`b` link over `[0, now]`.
    pub fn link_utilization(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let id = self.link_index.get(&(a, b))?;
        Some(self.links[id.0 as usize].utilization.mean_until(self.now))
    }

    /// The `a`→`b` link's weathermap: windowed serve samples and
    /// lifetime serve-mode totals.
    pub fn link_telemetry(&self, a: NodeId, b: NodeId) -> Option<&LinkTelemetry> {
        let id = self.link_index.get(&(a, b))?;
        Some(&self.links[id.0 as usize].telemetry)
    }

    /// Queue drop counters of the `a`→`b` link, summed over classes.
    pub fn link_drops(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let id = self.link_index.get(&(a, b))?;
        Some(
            self.links[id.0 as usize]
                .queues
                .iter()
                .map(|q| q.drops)
                .sum(),
        )
    }

    /// Name the node was added under.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(id.0 as usize).map(|n| n.name.as_str())
    }

    /// Snapshot network statistics into `reg` under the `atm.` prefix:
    /// per-link utilization and queue drops (labelled by node names, in
    /// link id order), circuit aggregates summed over every VC (cell /
    /// PDU / byte counts, AAL5 reassembly failures, cell transfer delay
    /// and its variation), and the fault-injection tallies.
    pub fn export_metrics(&self, reg: &MetricsRegistry) {
        let mut labels: Vec<Option<(NodeId, NodeId)>> = vec![None; self.links.len()];
        for (&(from, to), id) in &self.link_index {
            labels[id.0 as usize] = Some((from, to));
        }
        for (i, link) in self.links.iter().enumerate() {
            let Some((from, to)) = labels[i] else {
                continue;
            };
            let p = format!(
                "atm.link.{}->{}",
                self.nodes[from.0 as usize].name, self.nodes[to.0 as usize].name
            );
            reg.gauge_set(
                &format!("{p}.utilization"),
                link.utilization.mean_until(self.now),
            );
            reg.counter_set(
                &format!("{p}.drops"),
                link.queues.iter().map(|q| q.drops).sum(),
            );
            reg.counter_set(&format!("{p}.cells_trained"), link.telemetry.total_trained);
            reg.counter_set(
                &format!("{p}.cells_per_cell"),
                link.telemetry.total_per_cell,
            );
            reg.counter_set(&format!("{p}.cells_parked"), link.telemetry.total_parked);
        }
        let mut agg = VcStats::default();
        let mut ctd = DelayMoments::default();
        let mut pdu_latency = OnlineStats::new();
        for vc in &self.vcs {
            agg.cells_sent += vc.stats.cells_sent;
            agg.cells_delivered += vc.stats.cells_delivered;
            agg.cells_dropped += vc.stats.cells_dropped;
            agg.pdus_sent += vc.stats.pdus_sent;
            agg.pdus_delivered += vc.stats.pdus_delivered;
            agg.pdus_failed += vc.stats.pdus_failed;
            agg.bytes_sent += vc.stats.bytes_sent;
            agg.bytes_delivered += vc.stats.bytes_delivered;
            ctd.merge(&vc.stats.ctd);
            pdu_latency.merge(&vc.stats.pdu_latency);
        }
        reg.counter_set("atm.vc.cells_sent", agg.cells_sent);
        reg.counter_set("atm.vc.cells_delivered", agg.cells_delivered);
        reg.counter_set("atm.vc.cells_dropped", agg.cells_dropped);
        reg.counter_set("atm.vc.pdus_sent", agg.pdus_sent);
        reg.counter_set("atm.vc.pdus_delivered", agg.pdus_delivered);
        reg.counter_set("atm.vc.aal5_reassembly_failures", agg.pdus_failed);
        reg.counter_set("atm.vc.bytes_sent", agg.bytes_sent);
        reg.counter_set("atm.vc.bytes_delivered", agg.bytes_delivered);
        reg.gauge_set("atm.vc.ctd_mean_s", ctd.mean());
        reg.gauge_set("atm.vc.cdv_s", ctd.std_dev());
        reg.gauge_set("atm.vc.pdu_latency_mean_s", pdu_latency.mean());
        reg.counter_set("atm.faults.random_losses", self.fault_stats.random_losses);
        reg.counter_set("atm.faults.burst_losses", self.fault_stats.burst_losses);
        reg.counter_set(
            "atm.faults.downtime_losses",
            self.fault_stats.downtime_losses,
        );
        reg.counter_set("atm.faults.jittered", self.fault_stats.jittered);
        reg.counter_set("atm.faults.faulted_cells", self.fault_stats.faulted_cells);
        reg.counter_set("atm.faults.total_losses", self.fault_stats.total_losses());
        reg.counter_set("net.train.runs", self.train_stats.runs);
        reg.counter_set("net.train.cells_batched", self.train_stats.cells_batched);
        reg.counter_set("net.train.per_cell_pdus", self.train_stats.per_cell_pdus);
        reg.counter_set(
            "net.train.expanded_contention",
            self.train_stats.expanded_contention,
        );
        reg.counter_set("net.train.parked", self.train_stats.parked);
        reg.counter_set(
            "net.train.expanded_fault_window",
            self.train_stats.expanded_fault_window,
        );
        reg.counter_set(
            "net.train.line_loss_fallbacks",
            self.train_stats.line_loss_fallbacks,
        );
    }

    /// Directed links that carried at least one cell this run, as
    /// `(from, to)` node-name pairs in link-id order. For a single
    /// session's network this *is* the session's route through the
    /// topology.
    pub fn active_links(&self) -> Vec<(String, String)> {
        let mut labels: Vec<Option<(NodeId, NodeId)>> = vec![None; self.links.len()];
        for (&(from, to), id) in &self.link_index {
            labels[id.0 as usize] = Some((from, to));
        }
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.telemetry.total_cells() > 0)
            .filter_map(|(i, _)| labels[i])
            .map(|(from, to)| {
                (
                    self.nodes[from.0 as usize].name.clone(),
                    self.nodes[to.0 as usize].name.clone(),
                )
            })
            .collect()
    }

    /// Render the per-hop weathermap as one versioned JSON object
    /// (`{"t":"weathermap","v":1,...}`, byte-stable): every link that
    /// carried traffic, its windowed samples, and per-VC QoS
    /// aggregates. Node names are code-controlled identifiers, emitted
    /// verbatim.
    pub fn weathermap_json(&self) -> String {
        use std::fmt::Write as _;
        let mut labels: Vec<Option<(NodeId, NodeId)>> = vec![None; self.links.len()];
        for (&(from, to), id) in &self.link_index {
            labels[id.0 as usize] = Some((from, to));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"t\":\"weathermap\",\"v\":1,\"window_us\":{},\"links\":[",
            crate::link::TELEMETRY_WINDOW_US
        );
        let mut first = true;
        for (i, link) in self.links.iter().enumerate() {
            if link.telemetry.total_cells() == 0 {
                continue;
            }
            let Some((from, to)) = labels[i] else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let t = &link.telemetry;
            let _ = write!(
                out,
                "{{\"from\":\"{}\",\"to\":\"{}\",\"cells_trained\":{},\"cells_per_cell\":{},\
                 \"cells_parked\":{},\"dropped_windows\":{},\"windows\":[",
                self.nodes[from.0 as usize].name,
                self.nodes[to.0 as usize].name,
                t.total_trained,
                t.total_per_cell,
                t.total_parked,
                t.dropped_windows
            );
            for (j, w) in t.windows().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"start_us\":{},\"queue_high_water\":{},\"busy_us\":{},\
                     \"cells_trained\":{},\"cells_per_cell\":{},\"cells_parked\":{},\
                     \"faulted\":{}}}",
                    w.window * crate::link::TELEMETRY_WINDOW_US,
                    w.queue_high_water,
                    w.busy_us,
                    w.cells_trained,
                    w.cells_per_cell,
                    w.cells_parked,
                    w.faulted
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\"vcs\":[");
        for (i, vc) in self.vcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = &vc.stats;
            let _ = write!(
                out,
                "{{\"vci\":{},\"cells_sent\":{},\"cells_delivered\":{},\"cells_dropped\":{},\
                 \"pdus_delivered\":{},\"pdus_failed\":{}}}",
                i + 1,
                s.cells_sent,
                s.cells_delivered,
                s.cells_dropped,
                s.pdus_delivered,
                s.pdus_failed
            );
        }
        out.push_str("]}");
        out
    }

    // ---- internals ----

    /// Put a cell in flight on `link_id`, arriving at `at`, under the
    /// next timer sequence number. It goes into the flight queue in key
    /// order (in practice always at the back). Toward a switch it is
    /// armed with a heap timer when it lands at the head; toward a host,
    /// when it is an end cell.
    fn push_arrival(&mut self, link_id: LinkId, at: SimTime, flying: Flying) {
        let seq = self.timers.reserve(1);
        let link = &mut self.links[link_id.0 as usize];
        let flight = &mut link.flight;
        let pos = match flight.back() {
            Some(tail) if tail.at > at => {
                flight.iter().rposition(|f| f.at <= at).map_or(0, |i| i + 1)
            }
            _ => flight.len(),
        };
        let armed = if link.to_host {
            flying.header.end
        } else {
            pos == 0
        };
        let entry = InFlight {
            at,
            seq,
            armed,
            flying,
        };
        if pos == flight.len() {
            flight.push_back(entry);
        } else {
            flight.insert(pos, entry);
        }
        if armed {
            self.timers
                .push_keyed(at, seq, TimerKind::Arrive(link_id.0));
        }
    }

    fn enqueue_cell(&mut self, link_id: LinkId, class: ServiceClass, flying: Flying) {
        self.split_streams(link_id);
        let vc = VcId(flying.header.vci);
        let link = &mut self.links[link_id.0 as usize];
        let queue = &mut link.queues[class.priority()];
        // Early discard of tagged cells under congestion (90 % occupancy).
        let congested = queue.len_cells * 10 >= queue.capacity * 9;
        if flying.header.clp && congested {
            let seq = flying.header.pdu_seq;
            if let Some(s) = self.vc_mut(vc) {
                s.drop_cell(seq);
            }
            return;
        }
        if let Some(bounced) = queue.offer_cell(flying) {
            // Tail drop.
            let seq = bounced.header.pdu_seq;
            if let Some(s) = self.vc_mut(vc) {
                s.drop_cell(seq);
            }
            return;
        }
        if !link.busy {
            self.start_tx(link_id);
        }
    }

    /// Begin serializing the highest-priority queued entry, if any. A
    /// train at the head of its queue is served analytically when the
    /// link is fault-quiet for the run's whole serialization window;
    /// otherwise it is expanded back into per-cell entries in place and
    /// the loop retries, now seeing a plain cell.
    fn start_tx(&mut self, link_id: LinkId) {
        let now = self.now;
        let li = link_id.0 as usize;
        loop {
            let link = &mut self.links[li];
            let Some(qi) = link.queues.iter().position(|q| !q.is_empty()) else {
                link.busy = false;
                link.utilization.set(now, 0);
                return;
            };
            let needs_expand = matches!(
                link.queues[qi].peek(),
                Some(QueuedTx::Train(t)) if !Self::link_clear_for_train(link, now, t.run.ncells)
            );
            if needs_expand {
                // Down window overlaps the run: expand in place and
                // retry, so faults land per cell exactly as the slow
                // path would land them.
                self.train_stats.expanded_fault_window += 1;
                let q = &mut self.links[li].queues[qi];
                let Some(QueuedTx::Train(t)) = q.take() else {
                    unreachable!("peeked a train");
                };
                Self::expand_train_into_queue(q, t);
                continue;
            }
            match link.queues[qi].take() {
                Some(QueuedTx::Cell(flying)) => self.serve_cell(link_id, flying),
                Some(QueuedTx::Train(t)) => self.serve_train(link_id, t),
                None => unreachable!("queue was non-empty"),
            }
            return;
        }
    }

    /// Begin serializing one cell on its own: its `TxDone` fires one
    /// cell time from now.
    fn serve_cell(&mut self, link_id: LinkId, flying: Flying) {
        let now = self.now;
        let link = &mut self.links[link_id.0 as usize];
        link.busy = true;
        link.utilization.set(now, 1);
        let cell_time = link.cell_time;
        let queued = link.queues.iter().map(|q| q.len_cells as u64).sum();
        let faulted = link.faults.as_ref().is_some_and(|f| f.is_down(now));
        link.telemetry
            .note(now, ServeKind::PerCell, 1, queued, cell_time, faulted);
        link.serving = Some(flying);
        self.timers
            .push(now + cell_time, TimerKind::TxDone(link_id.0));
    }

    /// Expand a train back into per-cell queue entries at the front of
    /// `q`, preserving cell order. Occupancy in cells is unchanged.
    fn expand_train_into_queue(q: &mut TxQueue, t: Train) {
        let mut flat = Some(t.run.flatten());
        for k in (0..t.run.ncells).rev() {
            q.push_front_cell(t.cell(k, &mut flat));
        }
    }

    /// Whether cell trains may be served on this link as whole runs: its
    /// faults, if any, are down windows only, a pure function of the
    /// clock. Loss, bursts and jitter draw the shared fault RNG per cell
    /// at each cell's `TxDone`, so a train crosses such a link as a
    /// stream of cells (see [`Self::try_stream`]).
    fn trains_allowed(link: &LinkState) -> bool {
        link.faults.as_ref().is_none_or(LinkFaults::is_down_only)
    }

    /// Whether the link is clear to serialize an `n`-cell run starting
    /// now: trains are allowed on it, and no down window may touch any
    /// of the run's per-cell TxDone instants `now + k·cell_time`,
    /// k = 1..=n. The window check is conservative (overlap, not
    /// instant membership) — a false negative only costs the fallback
    /// to the exact per-cell path.
    fn link_clear_for_train(link: &LinkState, now: SimTime, n: usize) -> bool {
        let Some(faults) = &link.faults else {
            return true;
        };
        let first = now + link.cell_time;
        let last = now + link.profile.train_time(n as u64);
        faults.is_down_only()
            && !faults
                .down
                .iter()
                .any(|&(from, until)| from <= last && until > first)
    }

    /// Serialize a whole run analytically: one `TrainTxDone` for the
    /// transmitter plus one arrival event at the far end, instead of
    /// `2n` per-cell events. The bookkeeping for the n back-to-back
    /// cells is one step each, and equals the per-cell path's exactly:
    /// busy time and cell transfer delay are integers, so one busy
    /// sample at the run's start and one closed-form delay update at
    /// delivery sum to what n per-cell samples would; the weathermap
    /// books each cell into the window it starts in. Only the line-noise
    /// RNG is still drawn once per cell, in cell order, against an
    /// integer threshold computed once; a realized loss (≈ 1e-9 per
    /// draw) falls back to per-cell arrivals for the survivors.
    fn serve_train(&mut self, link_id: LinkId, train: Train) {
        let s = self.now;
        let n = train.run.ncells;
        let link = &mut self.links[link_id.0 as usize];
        link.busy = true;
        let ct = link.cell_time;
        let ct_us = ct.as_micros();
        // The per-cell path sets the busy flag at every cell's serve
        // start; it stays 1 through the run, so one sample books it all.
        link.utilization.set(s, 1);
        {
            let queued = link.queues.iter().map(|q| q.len_cells as u64).sum();
            let faulted = link.faults.as_ref().is_some_and(|f| f.is_down(s));
            link.telemetry
                .note(s, ServeKind::Trained, n as u64, queued, ct, faulted);
        }
        if link.faults.is_some() {
            // Every cell of the run crosses a faulted link (down windows
            // were excluded by `link_clear_for_train`).
            self.fault_stats.faulted_cells += n as u64;
        }
        let line_noise = ChanceThreshold::new(link.profile.loss_rate);
        let prop = link.profile.prop_delay;
        let to_switch = !link.to_host;
        let done_at = s + link.profile.train_time(n as u64);
        // One line-noise draw per cell, in cell order — the RNG stream
        // stays count- and order-identical to the per-cell path.
        let mut lost: Vec<usize> = Vec::new();
        for k in 0..n {
            if self.rng.trial(line_noise) {
                lost.push(k);
            }
        }
        if lost.is_empty() {
            self.train_stats.runs += 1;
            self.train_stats.cells_batched += n as u64;
            let mut t = train;
            t.spacing = ct;
            t.head_at = s + ct + prop;
            let tid = self.trains.insert(t);
            // Event sequence numbers are the tie-break for simultaneous
            // timers, so each train event must be *allocated* at the wall
            // instant its per-cell counterpart would be: the head arrival
            // from the head cell's tx-done (s + ct), the completion from
            // the last cell's serve start (done_at - ct), and — inside
            // `train_tx_done` — the delivery from the last cell's
            // tx-done (done_at). The wind events exist to pin those
            // allocation instants.
            if to_switch {
                self.timers
                    .push(s + ct, TimerKind::TrainHeadWind(link_id.0, tid));
                self.timers
                    .push(done_at - ct, TimerKind::TrainWind(link_id.0, u32::MAX));
            } else {
                self.timers
                    .push(done_at - ct, TimerKind::TrainWind(link_id.0, tid));
            }
            return;
        }
        self.timers
            .push(done_at - ct, TimerKind::TrainWind(link_id.0, u32::MAX));
        // A line hit inside the run: ship survivors per cell so the PDU
        // fails exactly as it would have on the slow path.
        self.train_stats.line_loss_fallbacks += 1;
        let vc = VcId(train.vci);
        let mut flat = Some(train.run.flatten());
        let mut lost_iter = lost.iter().copied().peekable();
        for k in 0..n {
            if lost_iter.peek() == Some(&k) {
                lost_iter.next();
                let seq = train.pdu_seq;
                if let Some(st) = self.vc_mut(vc) {
                    st.drop_cell(seq);
                }
                continue;
            }
            let at = s + SimDuration::from_micros(ct_us * (k as u64 + 1)) + prop;
            self.push_arrival(link_id, at, train.cell(k, &mut flat));
        }
    }

    /// One cell-time before the run completes — the instant the per-cell
    /// path would start serving the last cell: allocate the completion
    /// event's sequence number now, exactly as `start_tx` would.
    fn train_wind(&mut self, link_id: LinkId, tid: u32) {
        let ct = self.links[link_id.0 as usize].cell_time;
        self.timers
            .push(self.now + ct, TimerKind::TrainTxDone(link_id.0, tid));
    }

    /// The head cell finished serializing — the instant the per-cell
    /// path's `tx_done` would put it in flight: allocate the head
    /// arrival's sequence number now.
    fn train_head_wind(&mut self, link_id: LinkId, tid: u32) {
        let prop = self.links[link_id.0 as usize].profile.prop_delay;
        self.timers
            .push(self.now + prop, TimerKind::TrainHead(link_id.0, tid));
    }

    /// The transmitter finished a whole run. For a host-bound run the
    /// delivery goes into flight first (mirroring the per-cell `tx_done`,
    /// which schedules the arrival before serving the next cell), then
    /// whatever queued up behind the train is served.
    fn train_tx_done(&mut self, link_id: LinkId, tid: u32) {
        if tid != u32::MAX {
            let prop = self.links[link_id.0 as usize].profile.prop_delay;
            self.timers
                .push(self.now + prop, TimerKind::TrainDeliver(link_id.0, tid));
        }
        self.start_tx(link_id);
    }

    /// A train's head cell reaches a switch. If the next hop's
    /// transmitter is idle, its queues empty, its cell rate matches the
    /// arrival spacing, and its fault window is clear, the run
    /// re-serializes analytically (classic cut-through: each cell starts
    /// tx the instant it arrives). A hop with RNG-coupled faults draws
    /// per cell, so there the run streams instead when it can (see
    /// [`Self::try_stream`]). Otherwise the train expands into per-cell
    /// arrivals at this switch and proceeds on the exact path.
    fn train_head(&mut self, link_id: LinkId, tid: u32) {
        let Some(train) = self.trains.take(tid) else {
            return;
        };
        let now = self.now;
        let n = train.run.ncells;
        let node_id = self.links[link_id.0 as usize].to;
        let vc = VcId(train.vci);
        let node = &self.nodes[node_id.0 as usize];
        debug_assert!(node.is_switch, "TrainHead only targets switches");
        let Some(next_link) = node.route(vc) else {
            // Misrouted: the whole run drops, cell by cell.
            let seq = train.pdu_seq;
            if let Some(s) = self.vc_mut(vc) {
                for _ in 0..n {
                    s.drop_cell(seq);
                }
            }
            return;
        };
        let class = self.class_of(vc);
        let Err(train) = self.try_stream(link_id, next_link, class, train) else {
            return;
        };
        self.split_streams(next_link);
        let nl = &self.links[next_link.0 as usize];
        let ct2 = nl.cell_time;
        // Structurally clear: trains allowed on the hop, nothing queued
        // ahead, no higher-priority VC routed over it, and the egress
        // cell rate matches the arrival spacing — the run will drain
        // head-first, back-to-back.
        let allowed = Self::trains_allowed(nl);
        let clear = allowed
            && nl.queues.iter().all(|q| q.is_empty())
            && nl.top_priority >= class.priority()
            && ct2 == train.spacing;
        let engageable = clear && !nl.busy && Self::link_clear_for_train(nl, now, n);
        if engageable {
            self.serve_train(next_link, train);
            return;
        }
        if clear && nl.busy && n <= nl.queues[class.priority()].capacity {
            // Transmitter still draining (back-to-back runs meet here:
            // the previous run's completion fires at this same instant
            // or later). Park the run whole; `start_tx` serves it when
            // the link frees, at exactly the instants the per-cell path
            // would serve the queued head and its in-flight successors
            // (cell k starts at free-time + k·ct ≥ its arrival
            // now + k·spacing, since ct == spacing). Down windows are
            // re-checked at serve time, as the per-cell path would.
            self.train_stats.parked += 1;
            let nl = &mut self.links[next_link.0 as usize];
            nl.queues[class.priority()].offer_train(train);
            let queued = nl.queues.iter().map(|q| q.len_cells as u64).sum();
            let faulted = nl.faults.as_ref().is_some_and(|f| f.is_down(now));
            nl.telemetry.note(
                now,
                ServeKind::Parked,
                n as u64,
                queued,
                SimDuration::ZERO,
                faulted,
            );
            return;
        }
        // Contended, rate-mismatched or RNG-faulted hop: expand. Later
        // cells arrive from the heap under the sequence numbers reserved
        // here; the head cell enqueues right now, after the reservation,
        // so same-instant events keep the per-cell timer order (an
        // arrival precedes the TxDone the enqueue may schedule).
        if allowed {
            self.train_stats.expanded_contention += 1;
        } else {
            self.train_stats.expanded_fault_window += 1;
        }
        let mut e = self.expansion(train, link_id);
        let head = e.take_next();
        self.schedule_expansion(e);
        self.enqueue_cell(next_link, class, head);
    }

    /// Stream a train across the RNG-faulted hop `next_link` when its
    /// cells could never wait there: the hop serializes at the arrival
    /// spacing and its transmitter is idle or finishing the current
    /// stream's last cell at this very instant (either way its queues
    /// are empty: an idle transmitter has drained them, and anything
    /// entering a stream's hop splits the stream). Then cell k arrives
    /// exactly when cell k − 1 finishes and is taken
    /// at once, so the hop's `TxDone` is the only timer a cell needs:
    /// it draws line noise and faults for the cell as `tx_done` always
    /// has and starts the next one. The arrival timers are not
    /// scheduled, but their sequence numbers are reserved, and any other
    /// cell or train that enters the hop first splits the stream back
    /// onto them ([`Self::split_streams`]). Hands the train back when the
    /// hop cannot take it.
    fn try_stream(
        &mut self,
        from: LinkId,
        next_link: LinkId,
        class: ServiceClass,
        train: Train,
    ) -> Result<(), Train> {
        let now = self.now;
        let nl = &self.links[next_link.0 as usize];
        let fits = !Self::trains_allowed(nl)
            && nl.cell_time == train.spacing
            && nl.queues[class.priority()].capacity > 0;
        let behind = |s: &Expansion| {
            s.next == s.ncells() && s.key(s.ncells()).0 == now && nl.next_stream.is_none()
        };
        let idle = !nl.busy;
        if fits && (idle || nl.stream.as_ref().is_some_and(behind)) {
            self.train_stats.expanded_fault_window += 1;
            self.train_stats.streamed += 1;
            let mut e = self.expansion(train, from);
            if idle {
                let head = e.take_next();
                self.links[next_link.0 as usize].stream = Some(e);
                self.serve_cell(next_link, head);
            } else {
                self.links[next_link.0 as usize].next_stream = Some(e);
            }
            return Ok(());
        }
        Err(train)
    }

    /// Expand `train`, whose head just arrived over `from`: flatten its
    /// run once and reserve the sequence numbers of its `n − 1` arrivals
    /// behind the head.
    fn expansion(&mut self, train: Train, from: LinkId) -> Expansion {
        let seq_base = self.timers.reserve(train.run.ncells as u64 - 1);
        Expansion {
            flat: Some(train.run.flatten()),
            train,
            link: from,
            seq_base,
            next: 0,
        }
    }

    /// Put an expansion whose next cell has not arrived on the heap, or
    /// drop it when every cell has.
    fn schedule_expansion(&mut self, e: Expansion) {
        if e.next < e.ncells() {
            let (at, seq) = e.key(e.next);
            let id = self.expansions.insert(e);
            self.timers.push_keyed(at, seq, TimerKind::Expand(id));
        }
    }

    /// The next cell of a heap expansion reaches its switch.
    fn expand(&mut self, id: u32) {
        let Some(e) = self.expansions.get_mut(id) else {
            return;
        };
        let (link, flying) = (e.link, e.take_next());
        if e.next < e.ncells() {
            let (at, seq) = e.key(e.next);
            self.timers.push_keyed(at, seq, TimerKind::Expand(id));
        } else {
            self.expansions.take(id);
        }
        self.at_switch(link, flying);
    }

    /// Serve the next cell of the train streaming across this hop, from
    /// its `TxDone`: the cell reached the switch at this instant, before
    /// this event (its sequence number is from the block reserved at the
    /// head), exactly as a queued cell would be taken here. Once the
    /// stream's last cell has finished, the next stream, whose head came
    /// in at this instant, takes over. False when no stream has a cell.
    fn serve_stream(&mut self, link_id: LinkId) -> bool {
        let link = &mut self.links[link_id.0 as usize];
        if link.stream.as_ref().is_some_and(|s| s.next == s.ncells()) {
            link.stream = link.next_stream.take();
        }
        let Some(stream) = &mut link.stream else {
            return false;
        };
        let flying = stream.take_next();
        self.serve_cell(link_id, flying);
        true
    }

    /// A cell or train is about to enter this hop: hand its streams back
    /// to the heap, so cells queue from here on as they would have all
    /// along. A stream cell that reached the switch before the current
    /// event but is not serializing yet (at most one: the current
    /// stream's next, or the next stream's head) enters the queue first;
    /// the rest arrive from the heap under their reserved keys.
    fn split_streams(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.0 as usize];
        if link.stream.is_none() {
            return;
        }
        self.train_stats.stream_splits += 1;
        let streams = [link.stream.take(), link.next_stream.take()];
        for mut e in streams.into_iter().flatten() {
            let arrived =
                e.next < e.ncells() && (e.next == 0 || e.key(e.next) < (self.now, self.cur_seq));
            if arrived {
                let class = self.class_of(VcId(e.train.vci));
                let flying = e.take_next();
                self.enqueue_cell(link_id, class, flying);
            }
            self.schedule_expansion(e);
        }
    }

    /// The service class of a VC (UBR for an unknown one).
    fn class_of(&self, vc: VcId) -> ServiceClass {
        self.vcs
            .get((vc.0 as usize).wrapping_sub(1))
            .map_or(ServiceClass::Ubr, |s| s.class)
    }

    /// A train's last cell reaches the destination host: account every
    /// cell at its analytic arrival instant, validate the run image in
    /// one pass over its parts, and deliver the parts themselves.
    fn train_deliver(&mut self, link_id: LinkId, tid: u32) {
        let Some(train) = self.trains.take(tid) else {
            return;
        };
        // Cells that reached this host before the train's last one come
        // first: one may carry the end of the PDU being received.
        self.land(link_id, (self.now, self.cur_seq));
        let now = self.now;
        let n = train.run.ncells;
        let node_id = self.links[link_id.0 as usize].to;
        let vc = VcId(train.vci);
        let this_seq = train.pdu_seq;
        let Some(state) = self.vc_mut(vc) else {
            return;
        };
        if state.dst != node_id {
            for _ in 0..n {
                state.drop_cell(this_seq);
            }
            return;
        }
        // Stale partial PDU in the reassembly buffer (lost its end cell
        // upstream): flush on sequence change, as the per-cell first-cell
        // arrival would.
        if let Some(stale) = state.rx.pdu_seq().filter(|&s| s != this_seq) {
            state.fail_pdu(stale);
            state.rx = Rx::Empty;
        }
        state.stats.cells_delivered += n as u64;
        // Cell k arrived at head_at + k·spacing.
        state
            .stats
            .ctd
            .record_run(train.head_at.since(train.sent), train.spacing, n as u64);
        match aal5::reassemble_run(train.run) {
            Ok(parts) => {
                let payload = PartList::from(parts);
                state.stats.pdus_delivered += 1;
                state.stats.bytes_delivered += payload.len() as u64;
                state
                    .stats
                    .pdu_latency
                    .record(now.since(train.sent).as_secs_f64());
                self.deliveries.push(Delivery {
                    at: now,
                    vc,
                    node: node_id,
                    payload,
                });
            }
            Err(_) => state.fail_pdu(this_seq),
        }
    }

    fn tx_done(&mut self, link_id: LinkId) {
        let Some(flying) = self.links[link_id.0 as usize].serving.take() else {
            return;
        };
        let (loss_rate, prop) = {
            let link = &self.links[link_id.0 as usize];
            (link.profile.loss_rate, link.profile.prop_delay)
        };
        // Line loss, then any injected faults for surviving cells.
        let injected = if self.rng.chance(loss_rate) {
            Some(SimDuration::ZERO) // lost to line noise
        } else {
            self.apply_faults(link_id)
        };
        match injected {
            Some(_) => {
                let vc = VcId(flying.header.vci);
                let seq = flying.header.pdu_seq;
                if let Some(s) = self.vc_mut(vc) {
                    s.drop_cell(seq);
                }
            }
            None => {
                let at = self.jittered_arrival(link_id, self.now + prop);
                self.push_arrival(link_id, at, flying);
            }
        }
        // Serve the next cell: the stream's, or the queues' head.
        if !self.serve_stream(link_id) {
            self.start_tx(link_id);
        }
    }

    /// Run one cell through the link's injected loss faults. `Some(_)`
    /// means the cell is lost; `None` means it crosses (jitter is applied
    /// separately by [`Self::jittered_arrival`]). Links without faults
    /// never touch the fault RNG, keeping fault-free runs bit-identical.
    fn apply_faults(&mut self, link_id: LinkId) -> Option<SimDuration> {
        let link = &mut self.links[link_id.0 as usize];
        let faults = link.faults.as_ref()?;
        self.fault_stats.faulted_cells += 1;
        if faults.is_down(self.now) {
            self.fault_stats.downtime_losses += 1;
            return Some(SimDuration::ZERO);
        }
        if let Some(burst) = faults.burst {
            if link.fault_state.in_burst {
                // Geometric burst exit: expected length `mean_len` cells.
                if self.fault_rng.chance(1.0 / burst.mean_len.max(1.0)) {
                    link.fault_state.in_burst = false;
                }
                self.fault_stats.burst_losses += 1;
                return Some(SimDuration::ZERO);
            }
            if self.fault_rng.chance(burst.enter) {
                link.fault_state.in_burst = true;
                self.fault_stats.burst_losses += 1;
                return Some(SimDuration::ZERO);
            }
        }
        if faults.extra_loss > 0.0 && self.fault_rng.chance(faults.extra_loss) {
            self.fault_stats.random_losses += 1;
            return Some(SimDuration::ZERO);
        }
        None
    }

    /// Arrival instant for a cell leaving this link at `base`, with any
    /// injected jitter. Arrivals are clamped to the link's latest
    /// scheduled arrival so jitter delays cells but never reorders them
    /// (ATM preserves cell order within a VC; out-of-order cells would
    /// spuriously kill AAL5 PDUs).
    fn jittered_arrival(&mut self, link_id: LinkId, base: SimTime) -> SimTime {
        let link = &mut self.links[link_id.0 as usize];
        let Some(faults) = &link.faults else {
            return base;
        };
        let Some(jitter) = faults.jitter.filter(|j| !j.is_zero()) else {
            return base;
        };
        let extra = SimDuration::from_micros(self.fault_rng.below(jitter.as_micros() + 1));
        if !extra.is_zero() {
            self.fault_stats.jittered += 1;
        }
        let at = (base + extra).max(link.fault_state.last_arrival);
        link.fault_state.last_arrival = at;
        at
    }

    /// An armed cell arrives. Toward a switch it is the head of the
    /// link's flight queue, and the next one, if any, takes the heap
    /// timer; toward a host it is an end cell, and the cells ahead of it
    /// land first.
    fn arrive(&mut self, link_id: LinkId) {
        let key = (self.now, self.cur_seq);
        let link = &mut self.links[link_id.0 as usize];
        if link.to_host {
            debug_assert!(link.flight.iter().any(|f| (f.at, f.seq) == key && f.armed));
            self.land(link_id, key);
            return;
        }
        let Some(head) = link.flight.pop_front() else {
            return;
        };
        debug_assert_eq!((head.at, head.seq), key);
        if let Some(next) = link.flight.front_mut().filter(|f| !f.armed) {
            next.armed = true;
            let (at, seq) = (next.at, next.seq);
            self.timers
                .push_keyed(at, seq, TimerKind::Arrive(link_id.0));
        }
        self.at_switch(link_id, head.flying);
    }

    /// Land the cells on host-bound `link_id` keyed at or below `key`,
    /// in key order, each at its own arrival instant. A landing only
    /// counts the cell, records its transfer delay and extends its
    /// PDU's reassembly, which no other event reads, so the cells ahead
    /// of an end cell wait without timers. They land before anything
    /// reads what they change: their link's next end cell or train
    /// delivery, or the caller, once the clock rests past them.
    fn land(&mut self, link_id: LinkId, key: (SimTime, u64)) {
        let li = link_id.0 as usize;
        while let Some(f) = self.links[li].flight.front() {
            if (f.at, f.seq) > key {
                return;
            }
            let f = self.links[li].flight.pop_front().expect("a front entry");
            self.at_host(link_id, f.at, f.flying);
        }
    }

    /// Land every cell due by the clock at rest.
    fn land_due(&mut self) {
        for li in 0..self.links.len() {
            let link = &self.links[li];
            if link.to_host && link.flight.front().is_some_and(|f| f.at <= self.now) {
                self.land(LinkId(li as u32), (self.now, u64::MAX));
            }
        }
    }

    /// A cell reaches the switch at the far end of `link_id`: it queues
    /// on the VC's next hop.
    fn at_switch(&mut self, link_id: LinkId, flying: Flying) {
        let node_id = self.links[link_id.0 as usize].to;
        let vc = VcId(flying.header.vci);
        let Some(next_link) = self.nodes[node_id.0 as usize].route(vc) else {
            // Misrouted cell: drop.
            let seq = flying.header.pdu_seq;
            if let Some(s) = self.vc_mut(vc) {
                s.drop_cell(seq);
            }
            return;
        };
        let class = self.class_of(vc);
        self.enqueue_cell(next_link, class, flying);
    }

    /// A cell reaches the destination host at the far end of `link_id`
    /// at `at`: account and reassemble.
    fn at_host(&mut self, link_id: LinkId, at: SimTime, flying: Flying) {
        let node_id = self.links[link_id.0 as usize].to;
        let h = flying.header;
        let vc = VcId(h.vci);
        let Some(state) = self.vcs.get_mut((vc.0 as usize).wrapping_sub(1)) else {
            return;
        };
        if state.dst != node_id {
            state.drop_cell(h.pdu_seq);
            return;
        }
        state.stats.cells_delivered += 1;
        state.stats.ctd.record(at.since(flying.sent));
        // Cells of an older PDU that lost its end cell: flush on seq change.
        if let Some(stale) = state.rx.pdu_seq().filter(|&s| s != h.pdu_seq) {
            state.fail_pdu(stale);
            state.rx = Rx::Empty;
        }
        state.rx.push(flying);
        if !h.end {
            return;
        }
        match state.rx.finish() {
            Ok((sent, payload)) => {
                let payload = PartList::from(payload);
                state.stats.pdus_delivered += 1;
                state.stats.bytes_delivered += payload.len() as u64;
                state.stats.pdu_latency.record(at.since(sent).as_secs_f64());
                self.deliveries.push(Delivery {
                    at,
                    vc,
                    node: node_id,
                    payload,
                });
            }
            Err(_) => state.fail_pdu(h.pdu_seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// host A — switch — host B, both hops OC-3.
    fn small_net() -> (AtmNetwork, NodeId, NodeId, NodeId) {
        let mut net = AtmNetwork::new(1);
        let a = net.add_host("A");
        let s = net.add_switch("S");
        let b = net.add_host("B");
        net.connect(a, s, LinkProfile::atm_oc3());
        net.connect(s, b, LinkProfile::atm_oc3());
        (net, a, s, b)
    }

    #[test]
    fn pdu_crosses_one_switch() {
        let (mut net, a, s, b) = small_net();
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        let payload = Bytes::from(vec![7u8; 1000]);
        net.send(vc, std::slice::from_ref(&payload)).unwrap();
        let deliveries = net.drain(SimTime::from_secs(1));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].payload, PartList::from(payload));
        assert_eq!(deliveries[0].node, b);
        let stats = net.vc_stats(vc).unwrap();
        assert_eq!(stats.pdus_delivered, 1);
        assert_eq!(stats.cells_dropped, 0);
        assert!(stats.ctd.mean() > 0.0);
    }

    #[test]
    fn weathermap_covers_the_active_route() {
        let (mut net, a, s, b) = small_net();
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        net.send(vc, &[Bytes::from(vec![7u8; 100_000])]).unwrap();
        let d = net.drain(SimTime::from_secs(1));
        assert_eq!(d.len(), 1);
        // Exactly the two forward hops carried cells; reverse links idle.
        let route = net.active_links();
        assert_eq!(
            route,
            vec![
                ("A".to_string(), "S".to_string()),
                ("S".to_string(), "B".to_string())
            ]
        );
        let json = net.weathermap_json();
        assert_eq!(json, net.weathermap_json(), "rendering is read-only");
        assert!(json.starts_with("{\"t\":\"weathermap\",\"v\":1,"));
        for (from, to) in &route {
            assert!(
                json.contains(&format!("\"from\":\"{from}\",\"to\":\"{to}\"")),
                "weathermap must cover hop {from}->{to}"
            );
        }
        assert!(json.contains("\"cells_delivered\""));
        // 100 kB segments into >4-cell runs, so the fast path carried it.
        assert!(json.contains("\"cells_trained\""));
        assert!(!json.contains("\"from\":\"B\""), "idle links are omitted");
    }

    #[test]
    fn latency_scales_with_link_rate() {
        // The same 100 kB transfer over OC-3 vs modem.
        let mut lat = Vec::new();
        for profile in [LinkProfile::atm_oc3(), LinkProfile::modem_28_8k()] {
            let mut net = AtmNetwork::new(1);
            let a = net.add_host("A");
            let b = net.add_host("B");
            net.connect(a, b, profile);
            let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
            net.send(vc, &[Bytes::from(vec![1u8; 100_000])]).unwrap();
            let d = net.drain(SimTime::from_secs(3600));
            assert_eq!(d.len(), 1, "profile {profile:?}");
            lat.push(net.vc_stats(vc).unwrap().pdu_latency.mean());
        }
        // OC-3 ≈ 5 ms, modem ≈ 31 s: ≥ 1000× apart.
        assert!(
            lat[1] / lat[0] > 1000.0,
            "oc3 {} vs modem {}",
            lat[0],
            lat[1]
        );
    }

    #[test]
    fn unconnected_path_rejected() {
        let mut net = AtmNetwork::new(1);
        let a = net.add_host("A");
        let b = net.add_host("B");
        assert_eq!(
            net.open_vc(&[a, b], ServiceClass::Ubr, None),
            Err(NetError::NotConnected(a, b))
        );
        assert_eq!(
            net.open_vc(&[a], ServiceClass::Ubr, None),
            Err(NetError::PathTooShort)
        );
    }

    #[test]
    fn cbr_preempts_ubr_under_contention() {
        // Slow shared link; bulk UBR floods it, CBR cells keep low delay.
        let mut net = AtmNetwork::new(2);
        let a = net.add_host("A");
        let b = net.add_host("B");
        net.connect(a, b, LinkProfile::isdn_128k());
        let bulk = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
        let live = net.open_vc(&[a, b], ServiceClass::Cbr, None).unwrap();
        // Saturate with bulk…
        net.send(bulk, &[Bytes::from(vec![0u8; 4_000])]).unwrap();
        // …then a small CBR message right behind it.
        net.send(live, &[Bytes::from(vec![1u8; 96])]).unwrap();
        net.drain(SimTime::from_secs(60));
        let bulk_lat = net.vc_stats(bulk).unwrap().pdu_latency.mean();
        let live_lat = net.vc_stats(live).unwrap().pdu_latency.mean();
        assert!(
            live_lat < bulk_lat / 2.0,
            "CBR {live_lat}s should beat UBR {bulk_lat}s"
        );
    }

    #[test]
    fn queue_overflow_drops_cells_and_fails_pdus() {
        // Fast ingress into a switch whose slow egress port has a tiny
        // buffer: the classic output-queue overflow.
        let mut net = AtmNetwork::new(3);
        let a = net.add_host("A");
        let s = net.add_switch("S");
        let b = net.add_host("B");
        net.connect(a, s, LinkProfile::atm_oc3());
        net.connect(
            s,
            b,
            LinkProfile {
                queue_cells: 16,
                ..LinkProfile::modem_28_8k()
            },
        );
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        // 10 kB → ~209 cells arriving at OC-3 speed into a 16-cell queue
        // drained at modem speed.
        net.send(vc, &[Bytes::from(vec![0u8; 10_000])]).unwrap();
        net.drain(SimTime::from_secs(600));
        let stats = net.vc_stats(vc).unwrap();
        assert!(stats.cells_dropped > 0, "overflow must drop");
        assert_eq!(stats.pdus_delivered, 0, "AAL5 PDU dies with its cells");
        assert_eq!(stats.pdus_failed, 1);
    }

    #[test]
    fn lossy_line_fails_pdus_proportionally() {
        let mut net = AtmNetwork::new(4);
        let a = net.add_host("A");
        let b = net.add_host("B");
        let profile = LinkProfile {
            loss_rate: 0.05,
            ..LinkProfile::atm_oc3()
        };
        net.connect(a, b, profile);
        let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
        // 200 one-cell PDUs: each survives with p ≈ 0.95.
        for _ in 0..200 {
            net.send(vc, &[Bytes::from(vec![1u8; 40])]).unwrap();
        }
        net.drain(SimTime::from_secs(10));
        let stats = net.vc_stats(vc).unwrap();
        assert!(stats.pdus_failed > 0, "some PDUs must fail at 5% cell loss");
        assert!(stats.pdus_delivered > 150, "most still arrive");
        assert_eq!(stats.pdus_delivered + stats.pdus_failed, 200);
    }

    #[test]
    fn policing_tags_and_discards_under_congestion() {
        // Tagged (CLP=1) cells are discarded early when a congested switch
        // port fills past 90 % occupancy.
        let mut net = AtmNetwork::new(5);
        let a = net.add_host("A");
        let s = net.add_switch("S");
        let b = net.add_host("B");
        net.connect(a, s, LinkProfile::atm_oc3());
        net.connect(
            s,
            b,
            LinkProfile {
                queue_cells: 32,
                ..LinkProfile::isdn_128k()
            },
        );
        // Contract far below the offered rate: almost everything tagged.
        let contract = TrafficContract {
            pcr_cells_per_sec: 10.0,
            burst_cells: 2.0,
        };
        let rogue = net
            .open_vc(&[a, s, b], ServiceClass::Ubr, Some(contract))
            .unwrap();
        for _ in 0..50 {
            net.send(rogue, &[Bytes::from(vec![0u8; 400])]).unwrap();
        }
        net.drain(SimTime::from_secs(600));
        let stats = net.vc_stats(rogue).unwrap();
        assert!(
            stats.cells_dropped > 0,
            "tagged cells discarded at the congested port"
        );
    }

    #[test]
    fn multi_hop_path_and_utilization() {
        let mut net = AtmNetwork::new(6);
        let a = net.add_host("A");
        let s1 = net.add_switch("S1");
        let s2 = net.add_switch("S2");
        let b = net.add_host("B");
        net.connect(a, s1, LinkProfile::atm_oc3());
        net.connect(s1, s2, LinkProfile::atm_oc3_wan());
        net.connect(s2, b, LinkProfile::atm_oc3());
        let vc = net
            .open_vc(&[a, s1, s2, b], ServiceClass::Vbr, None)
            .unwrap();
        net.send(vc, &[Bytes::from(vec![5u8; 50_000])]).unwrap();
        let d = net.drain(SimTime::from_secs(5));
        assert_eq!(d.len(), 1);
        assert!(net.link_utilization(a, s1).unwrap() > 0.0);
        assert_eq!(net.link_drops(a, s1), Some(0));
        // Latency includes the 5 ms WAN propagation.
        assert!(net.vc_stats(vc).unwrap().pdu_latency.mean() > 0.005);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = AtmNetwork::new(seed);
            let a = net.add_host("A");
            let b = net.add_host("B");
            net.connect(
                a,
                b,
                LinkProfile {
                    loss_rate: 0.02,
                    ..LinkProfile::atm_oc3()
                },
            );
            let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
            for _ in 0..100 {
                net.send(vc, &[Bytes::from(vec![2u8; 96])]).unwrap();
            }
            net.drain(SimTime::from_secs(10));
            let s = net.vc_stats(vc).unwrap();
            (s.pdus_delivered, s.cells_dropped)
        };
        assert_eq!(run(42), run(42), "same seed, same outcome");
        assert_ne!(run(42), run(43), "different seed, different loss pattern");
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        // Installing an empty plan must not perturb the base RNG stream:
        // same seed, same deliveries, same drop counts.
        let run = |plan: Option<FaultPlan>| {
            let mut net = AtmNetwork::new(7);
            let a = net.add_host("A");
            let b = net.add_host("B");
            net.connect(
                a,
                b,
                LinkProfile {
                    loss_rate: 0.02,
                    ..LinkProfile::atm_oc3()
                },
            );
            if let Some(p) = plan {
                net.set_fault_plan(p);
            }
            let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
            for _ in 0..100 {
                net.send(vc, &[Bytes::from(vec![2u8; 96])]).unwrap();
            }
            net.drain(SimTime::from_secs(10));
            let s = net.vc_stats(vc).unwrap();
            (s.pdus_delivered, s.cells_dropped)
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
        assert_eq!(
            run(None),
            run(Some(FaultPlan::uniform(LinkFaults::default())))
        );
    }

    #[test]
    fn injected_loss_is_deterministic_and_counted() {
        let run = |seed| {
            let mut net = AtmNetwork::new(seed);
            let a = net.add_host("A");
            let b = net.add_host("B");
            net.connect(a, b, LinkProfile::atm_oc3());
            net.set_fault_plan(FaultPlan::uniform(LinkFaults::loss(0.05)));
            let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
            for _ in 0..200 {
                net.send(vc, &[Bytes::from(vec![1u8; 40])]).unwrap();
            }
            net.drain(SimTime::from_secs(10));
            let s = net.vc_stats(vc).unwrap();
            (s.pdus_delivered, net.fault_stats().random_losses)
        };
        let (delivered, losses) = run(11);
        assert!(losses > 0, "5% of 200 cells should lose some");
        assert!(delivered > 150, "most should still arrive");
        assert_eq!(run(11), run(11), "fault schedule is reproducible");
        assert_ne!(run(11), run(12), "seed changes the schedule");
    }

    #[test]
    fn down_window_kills_everything_inside_it() {
        let mut net = AtmNetwork::new(8);
        let a = net.add_host("A");
        let b = net.add_host("B");
        net.connect(a, b, LinkProfile::atm_oc3());
        net.set_fault_plan(FaultPlan::uniform(
            LinkFaults::default().with_down(SimTime::ZERO, SimTime::from_secs(5)),
        ));
        let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
        net.send(vc, &[Bytes::from(vec![1u8; 1000])]).unwrap();
        net.drain(SimTime::from_secs(2));
        assert_eq!(net.vc_stats(vc).unwrap().pdus_delivered, 0, "link is down");
        assert!(net.fault_stats().downtime_losses > 0);
        // After the window, traffic flows again.
        let mut net2 = AtmNetwork::new(8);
        let a2 = net2.add_host("A");
        let b2 = net2.add_host("B");
        net2.connect(a2, b2, LinkProfile::atm_oc3());
        net2.set_fault_plan(FaultPlan::uniform(
            LinkFaults::default().with_down(SimTime::ZERO, SimTime::from_micros(1)),
        ));
        let vc2 = net2.open_vc(&[a2, b2], ServiceClass::Ubr, None).unwrap();
        net2.advance(SimTime::from_secs(1));
        net2.send(vc2, &[Bytes::from(vec![1u8; 1000])]).unwrap();
        net2.drain(SimTime::from_secs(2));
        assert_eq!(net2.vc_stats(vc2).unwrap().pdus_delivered, 1);
    }

    #[test]
    fn burst_loss_clusters_drops() {
        let mut net = AtmNetwork::new(9);
        let a = net.add_host("A");
        let b = net.add_host("B");
        net.connect(a, b, LinkProfile::atm_oc3());
        net.set_fault_plan(FaultPlan::uniform(
            LinkFaults::default().with_burst(0.02, 20.0),
        ));
        let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
        for _ in 0..300 {
            net.send(vc, &[Bytes::from(vec![1u8; 40])]).unwrap();
        }
        net.drain(SimTime::from_secs(10));
        let stats = net.fault_stats();
        assert!(stats.burst_losses > 0, "bursts must fire at 2% entry");
        // Mean burst length 20 ⇒ losses well above the entry count alone.
        assert!(
            stats.burst_losses as f64 > 300.0 * 0.02,
            "bursts cluster: {} losses",
            stats.burst_losses
        );
    }

    #[test]
    fn jitter_delays_but_delivers() {
        let base = {
            let mut net = AtmNetwork::new(10);
            let a = net.add_host("A");
            let b = net.add_host("B");
            net.connect(a, b, LinkProfile::atm_oc3());
            let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
            net.send(vc, &[Bytes::from(vec![1u8; 10_000])]).unwrap();
            net.drain(SimTime::from_secs(10));
            net.vc_stats(vc).unwrap().pdu_latency.mean()
        };
        let jittered = {
            let mut net = AtmNetwork::new(10);
            let a = net.add_host("A");
            let b = net.add_host("B");
            net.connect(a, b, LinkProfile::atm_oc3());
            net.set_fault_plan(FaultPlan::uniform(
                LinkFaults::default().with_jitter(SimDuration::from_millis(2)),
            ));
            let vc = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
            net.send(vc, &[Bytes::from(vec![1u8; 10_000])]).unwrap();
            net.drain(SimTime::from_secs(10));
            assert!(net.fault_stats().jittered > 0);
            net.vc_stats(vc).unwrap().pdu_latency.mean()
        };
        assert!(
            jittered > base,
            "jitter must add delay: {jittered} vs {base}"
        );
    }

    #[test]
    fn two_vcs_interleave_without_corruption() {
        let (mut net, a, s, b) = small_net();
        let vc1 = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        let vc2 = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        let p1 = Bytes::from(vec![1u8; 5_000]);
        let p2 = Bytes::from(vec![2u8; 5_000]);
        net.send(vc1, std::slice::from_ref(&p1)).unwrap();
        net.send(vc2, std::slice::from_ref(&p2)).unwrap();
        let d = net.drain(SimTime::from_secs(1));
        assert_eq!(d.len(), 2);
        for delivery in d {
            if delivery.vc == vc1 {
                assert_eq!(delivery.payload, PartList::from(p1.clone()));
            } else {
                assert_eq!(delivery.payload, PartList::from(p2.clone()));
            }
        }
    }

    #[test]
    fn reverse_direction_needs_its_own_vc() {
        let (mut net, a, s, b) = small_net();
        let fwd = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        let rev = net.open_vc(&[b, s, a], ServiceClass::Ubr, None).unwrap();
        net.send(fwd, &[Bytes::from_static(b"ping")]).unwrap();
        net.send(rev, &[Bytes::from_static(b"pong")]).unwrap();
        let d = net.drain(SimTime::from_secs(1));
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|x| x.node == b && x.payload.to_vec() == b"ping"));
        assert!(d
            .iter()
            .any(|x| x.node == a && x.payload.to_vec() == b"pong"));
    }

    // ---- landings at a host: cells ahead of an end cell wait untimed ----

    /// FNV-1a over `bytes`, continuing from `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Fold what a caller can see of `net` at rest: every delivery
    /// since the last step, each VC's delivered cells, CTD mean and CDV
    /// and failed PDUs, `idle()` and `next_event_time()`.
    fn fold_rest(mut h: u64, net: &AtmNetwork, vcs: &[VcId], deliveries: &[Delivery]) -> u64 {
        for d in deliveries {
            h = fnv(h, &d.at.as_micros().to_le_bytes());
            h = fnv(h, &d.vc.0.to_le_bytes());
            h = fnv(h, &(d.payload.len() as u64).to_le_bytes());
        }
        for &vc in vcs {
            let s = net.vc_stats(vc).expect("vc");
            h = fnv(h, &s.cells_delivered.to_le_bytes());
            h = fnv(h, &s.ctd.mean().to_bits().to_le_bytes());
            h = fnv(h, &s.cdv().to_bits().to_le_bytes());
            h = fnv(h, &s.pdus_failed.to_le_bytes());
        }
        h = fnv(h, &[u8::from(net.idle())]);
        let next = net.next_event_time().map_or(u64::MAX, SimTime::as_micros);
        fnv(h, &next.to_le_bytes())
    }

    /// A small LCG for irregular step lengths.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    /// Step `net` to `until` in irregular increments drawn from `rng`,
    /// folding the state at rest after every step.
    fn step_until(
        mut h: u64,
        net: &mut AtmNetwork,
        vcs: &[VcId],
        until: SimTime,
        rng: &mut u64,
    ) -> u64 {
        while net.now() < until {
            let r = lcg(rng);
            let len = if r.is_multiple_of(7) {
                300 + r % 900
            } else {
                1 + r % 37
            };
            let to = (net.now() + SimDuration::from_micros(len)).min(until);
            let d = net.advance(to);
            h = fold_rest(h, net, vcs, &d);
        }
        h
    }

    /// A 10-cell PDU on `a → s → b` at 0 µs; OC-3 cells take 3 µs and
    /// hops 100 µs, so cell k finishes on `s → b` at 106 + 3k and lands
    /// at `b` at 206 + 3k. `faults` sit on `s → b`.
    fn last_hop_net(faults: LinkFaults, per_cell: bool) -> (AtmNetwork, NodeId, NodeId, VcId) {
        let (mut net, a, s, b) = small_net();
        net.set_fault_plan(FaultPlan::none().with_link(s, b, faults));
        if per_cell {
            net.force_per_cell();
        }
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        (net, s, b, vc)
    }

    /// A down window over the 10-cell PDU's last `s → b` finish (133 µs).
    const END_CELL_DOWN: (SimTime, SimTime) =
        (SimTime::from_micros(133), SimTime::from_micros(134));

    /// The three edge cases of batched landings, each stepped in both
    /// modes: an end cell lost on a lossy last hop, a stale partial PDU
    /// followed by the next PDU's cells, and a train delivered right
    /// behind cells still waiting to land.
    fn edge_case_digest(mut h: u64, per_cell: bool, rng: &mut u64) -> u64 {
        let (from, until) = END_CELL_DOWN;
        // The end cell dies in the down window on a lossy hop (which
        // the run streams across); a 19-cell PDU follows and flushes
        // the stale one when its first cell lands.
        let lossy = LinkFaults::loss(1e-12).with_down(from, until);
        let (mut net, _, _, vc) = last_hop_net(lossy, per_cell);
        net.send(vc, &[Bytes::from(vec![1u8; 450])]).unwrap();
        h = step_until(h, &mut net, &[vc], SimTime::from_micros(10), rng);
        net.send(vc, &[Bytes::from(vec![2u8; 900])]).unwrap();
        h = step_until(h, &mut net, &[vc], SimTime::from_millis(2), rng);
        // The same end cell dies on a down-only hop, which trains may
        // use: the 40-cell PDU behind it crosses as a train and is
        // delivered right behind the first PDU's cells.
        let down_only = LinkFaults::default().with_down(from, until);
        let (mut net, _, _, vc) = last_hop_net(down_only, per_cell);
        net.send(vc, &[Bytes::from(vec![3u8; 450])]).unwrap();
        h = step_until(h, &mut net, &[vc], SimTime::from_micros(10), rng);
        net.send(vc, &[Bytes::from(vec![4u8; 1_900])]).unwrap();
        step_until(h, &mut net, &[vc], SimTime::from_millis(2), rng)
    }

    /// One seeded run: three VCs over a switch whose `s`–`dst` hop
    /// loses 2% of cells both ways, PDUs of 10 B to 20 kB sent at
    /// irregular instants, the clock stepped irregularly throughout.
    fn lossy_sweep_digest(mut h: u64, seed: u64, per_cell: bool) -> u64 {
        let mut net = AtmNetwork::new(seed);
        let a = net.add_host("a");
        let b = net.add_host("b");
        let s = net.add_switch("s");
        let dst = net.add_host("dst");
        for host in [a, b, dst] {
            net.connect(host, s, LinkProfile::atm_oc3());
        }
        let lossy = LinkFaults::loss(0.02);
        net.set_fault_plan(
            FaultPlan::none()
                .with_link(s, dst, lossy.clone())
                .with_link(dst, s, lossy),
        );
        if per_cell {
            net.force_per_cell();
        }
        let vcs = [
            net.open_vc(&[a, s, dst], ServiceClass::Ubr, None).unwrap(),
            net.open_vc(&[b, s, dst], ServiceClass::Vbr, None).unwrap(),
            net.open_vc(&[dst, s, a], ServiceClass::Ubr, None).unwrap(),
        ];
        let mut rng = seed ^ 0x5eed;
        for i in 0..8 {
            let r = lcg(&mut rng);
            let size = match r % 4 {
                0 => 10 + r % 150,
                _ => 200 + r % 20_000,
            } as usize;
            let vc = vcs[(r as usize / 4 + i) % 3];
            net.send(vc, &[Bytes::from(vec![i as u8; size])]).unwrap();
            let until = net.now() + SimDuration::from_micros(lcg(&mut rng) % 2_000);
            h = step_until(h, &mut net, &vcs, until, &mut rng);
        }
        step_until(h, &mut net, &vcs, SimTime::from_millis(40), &mut rng)
    }

    /// Recorded from the scheduler that gave every cell landing at a
    /// host its own timer.
    const LANDING_DIGEST: u64 = 0x7522_9836_0285_055f;

    /// Stepping the clock anywhere shows the same state at rest as the
    /// scheduler that gave every landing its own timer: the digest was
    /// recorded from it.
    #[test]
    fn landings_at_rest_match_the_timed_scheduler() {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for per_cell in [false, true] {
            for seed in 0..4 {
                let mut rng = seed;
                h = edge_case_digest(h, per_cell, &mut rng);
            }
            for seed in 0..40 {
                h = lossy_sweep_digest(h, seed, per_cell);
            }
        }
        assert_eq!(h, LANDING_DIGEST, "landing digest {h:#018x}");
    }

    #[test]
    fn cells_ahead_of_a_lost_end_cell_land_without_timers() {
        let (from, until) = END_CELL_DOWN;
        for per_cell in [false, true] {
            let lossy = LinkFaults::loss(1e-12).with_down(from, until);
            let (mut net, _, _, vc) = last_hop_net(lossy, per_cell);
            net.send(vc, &[Bytes::from(vec![1u8; 450])]).unwrap();
            net.advance(SimTime::from_micros(140));
            assert!(net.timers.is_empty(), "no landing has a timer");
            assert_eq!(net.vc_stats(vc).unwrap().pdus_failed, 1);
            for k in 0..9u64 {
                let stats = net.vc_stats(vc).unwrap();
                assert_eq!(stats.cells_delivered, k, "per_cell {per_cell}");
                assert!(!net.idle(), "cell {k} is still in flight");
                assert_eq!(
                    net.next_event_time(),
                    Some(SimTime::from_micros(206 + 3 * k))
                );
                net.advance(SimTime::from_micros(206 + 3 * k));
            }
            assert_eq!(net.vc_stats(vc).unwrap().cells_delivered, 9);
            assert!(net.idle());
            assert_eq!(net.next_event_time(), None);
            if !per_cell {
                assert_eq!(net.train_stats().streamed, 1, "the run streams to b");
            }
            // The next PDU's first cell flushes the stale one.
            net.send(vc, &[Bytes::from(vec![2u8; 900])]).unwrap();
            let d = net.drain(SimTime::from_millis(2));
            assert_eq!(d.len(), 1);
            let stats = net.vc_stats(vc).unwrap();
            assert_eq!((stats.pdus_delivered, stats.pdus_failed), (1, 1));
            assert_eq!(stats.cells_delivered, 9 + 19);
        }
    }

    #[test]
    fn a_train_delivery_lands_the_cells_ahead_of_it_first() {
        let (from, until) = END_CELL_DOWN;
        let down_only = LinkFaults::default().with_down(from, until);
        let (mut net, s, b, vc) = last_hop_net(down_only, false);
        net.send(vc, &[Bytes::from(vec![3u8; 450])]).unwrap();
        net.advance(SimTime::from_micros(10));
        net.send(vc, &[Bytes::from(vec![4u8; 1_900])]).unwrap();
        // Handle timers one by one, up to the train's delivery.
        loop {
            let delivers = matches!(
                net.timers.peek().expect("a timer").2,
                TimerKind::TrainDeliver(..)
            );
            net.fire_next();
            if delivers {
                break;
            }
        }
        let link = net.link_index[&(s, b)];
        assert!(net.links[link.0 as usize].flight.is_empty());
        let stats = net.vc_stats(vc).unwrap();
        assert_eq!(stats.cells_delivered, 9 + 40);
        assert_eq!((stats.pdus_delivered, stats.pdus_failed), (1, 1));
        assert_eq!(net.deliveries.len(), 1);
    }
}
