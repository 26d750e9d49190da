//! # mits-sim — discrete-event simulation kernel for MITS
//!
//! The original MITS prototype ran on OCRInet, a real ATM research network in
//! the Ottawa region, with real SUN/ULTRA servers and Windows 95 clients.
//! This reproduction replaces the physical testbed with a deterministic
//! discrete-event simulation (DES). Every substrate that needs time — the
//! ATM network, the courseware database server, the facilitator queueing
//! experiments, the navigator's presentation clock — is built on this crate.
//!
//! The kernel is deliberately small and allocation-light:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`EventQueue`] — a hierarchical timing-wheel future event list with
//!   deterministic FIFO tie-breaking for simultaneous events.
//! * [`crc`] — the runtime-dispatched CRC-32 kernel shared by AAL5 and
//!   the database write-ahead log.
//! * [`Simulation`] — an executor that owns a mutable world `W` and runs
//!   closures-as-events against it.
//! * [`rng`] — seedable, splittable random streams so that experiments are
//!   reproducible run-to-run.
//! * [`stats`] — online statistics (mean/variance/min/max), fixed-bin
//!   histograms with percentile queries, and time-weighted averages used by
//!   every benchmark table in `EXPERIMENTS.md`.
//! * [`queue`] — bounded FIFO queues with drop accounting and a token-bucket
//!   (leaky-bucket) regulator, the building blocks of the ATM switch.
//! * [`trace`] — deterministic hierarchical spans/events stamped with
//!   [`SimTime`], with JSONL and latency-waterfall exporters.
//! * [`registry`] — a unified [`MetricsRegistry`] of named counters, gauges
//!   and histograms that every layer of the stack exports into, with
//!   mergeable [`MetricsSnapshot`]s for campus-scale rollups.
//! * [`slo`] — declarative service-level objectives evaluated against a
//!   merged snapshot, emitting pass/warn/breach verdicts.
//! * [`profile`] — a span-tree self-time profiler that folds a trace into
//!   per-layer virtual-time totals and a flame-style "top" report.
//! * [`timeline`] — a windowed virtual-time timeline of flight events
//!   and session retirements, merged associatively for campus rollups.
//! * [`forensics`] — an always-on bounded [`FlightRecorder`] of
//!   structured anomaly events, and [`ForensicBundle`] incident reports
//!   that align breach windows against the injected fault schedule.
//! * [`replay`] — [`ReplayBundle`] capture of one victim session plus
//!   the layered [`DigestTrace`] that proves a standalone re-run is
//!   the same execution (a mismatch names the divergent layer).
//!
//! ## Example
//!
//! ```
//! use mits_sim::{Simulation, SimTime};
//!
//! // World state: a counter.
//! let mut sim = Simulation::new(0u64);
//! for i in 0..10 {
//!     sim.schedule(SimTime::from_millis(i), move |world: &mut u64, _sched| {
//!         *world += 1;
//!     });
//! }
//! let end = sim.run();
//! assert_eq!(*sim.world(), 10);
//! assert_eq!(end, SimTime::from_millis(9));
//! ```

pub mod crc;
pub mod event;
pub mod forensics;
pub mod profile;
pub mod queue;
pub mod registry;
pub mod replay;
pub mod rng;
pub mod slo;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trace;

pub use crc::crc32;
pub use event::{EventQueue, Scheduler, Simulation};
pub use forensics::{
    ChainLink, FaultWindow, FlightEvent, FlightKind, FlightRecorder, ForensicBundle, ForensicInput,
    SessionTail, FLIGHT_KINDS, FLIGHT_RING_CAP,
};
pub use profile::{classify_layer, profile_spans, profile_tracer, LayerTotal, NameTotal, Profile};
pub use queue::{BoundedQueue, DropPolicy, TokenBucket};
pub use registry::{MetricsRegistry, MetricsSnapshot, SnapshotValue};
pub use replay::{derive_seed, DigestTrace, Divergence, ReplayBundle};
pub use rng::{ChanceThreshold, SimRng};
pub use slo::{Slo, SloInput, SloKind, SloOutcome, SloReport, Verdict};
pub use stats::{DelayMoments, Exemplar, Histogram, OnlineStats, RatioCounter, TimeWeighted};
pub use time::{SimDuration, SimTime};
pub use timeline::{Timeline, TimelineRecorder, WindowStats};
pub use trace::{SampleReason, SpanId, SpanInfo, TailSignals, TraceSampler, Tracer};
