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
//! * [`TimerQueue`] — the one event queue of every scheduler (the ATM
//!   network, the MHEG engine, the facilitator model): a min-heap on
//!   (instant, sequence), so events due at the same instant pop in the
//!   order they were scheduled.
//! * [`crc`] — the runtime-dispatched CRC-32 kernel shared by AAL5 and
//!   the database write-ahead log.
//! * [`rng`] — seedable, splittable random streams so that experiments are
//!   reproducible run-to-run.
//! * [`stats`] — online statistics (mean/variance/min/max), fixed-bin
//!   histograms with percentile queries, and time-weighted averages used by
//!   every benchmark table in `EXPERIMENTS.md`.
//! * [`queue`] — the token-bucket (leaky-bucket) regulator behind ATM
//!   usage parameter control.
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
//! use mits_sim::{SimTime, TimerQueue};
//!
//! // Events due at the same instant pop in the order they were pushed.
//! let mut timers = TimerQueue::new();
//! timers.push(SimTime::from_millis(2), "late");
//! timers.push(SimTime::from_millis(1), "first");
//! timers.push(SimTime::from_millis(1), "second");
//! let order: Vec<_> = std::iter::from_fn(|| timers.pop()).map(|(_, _, e)| e).collect();
//! assert_eq!(order, ["first", "second", "late"]);
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
pub use event::TimerQueue;
pub use forensics::{
    ChainLink, FaultWindow, FlightEvent, FlightKind, FlightRecorder, ForensicBundle, ForensicInput,
    SessionTail, FLIGHT_KINDS, FLIGHT_RING_CAP,
};
pub use profile::{classify_layer, profile_spans, profile_tracer, LayerTotal, NameTotal, Profile};
pub use queue::TokenBucket;
pub use registry::{MetricsRegistry, MetricsSnapshot, SnapshotValue};
pub use replay::{derive_seed, DigestTrace, Divergence, ReplayBundle};
pub use rng::{ChanceThreshold, SimRng};
pub use slo::{Slo, SloInput, SloKind, SloOutcome, SloReport, Verdict};
pub use stats::{DelayMoments, Exemplar, Histogram, OnlineStats, TimeWeighted};
pub use time::{SimDuration, SimTime};
pub use timeline::{Timeline, TimelineRecorder, WindowStats};
pub use trace::{SampleReason, SpanId, SpanInfo, TailSignals, TraceSampler, Tracer};
