//! # mits-core — the Multimedia Interactive TeleLearning System
//!
//! This crate is the paper's primary contribution assembled: the five
//! components of the generic architecture (Fig 3.1) — media production
//! center, courseware author site, courseware database, courseware user
//! sites, and the on-line facilitator — "distributed over a computer
//! network and work\[ing\] together to offer an interactive multimedia
//! courseware service".
//!
//! * [`system`] — [`system::MitsSystem`]: builds the network topology
//!   (hosts + switch fabric + VC pairs), runs the database server behind
//!   the reliable transport, and pumps the whole distributed system on
//!   one virtual clock. Publishing (author → database) and fetching
//!   (user ← database) are real protocol exchanges over simulated ATM.
//! * [`cod`] — the **Course-On-Demand** service (§3.1.1): end-to-end
//!   sessions that fetch scenario objects, prefetch scene content on
//!   demand ("content objects of large size are transmitted only at the
//!   time they are requested", §3.4.2), present through the navigator's
//!   engine, and report startup latency / per-scene fetch stalls.
//! * [`stack`] — the layered interchange model of Fig 3.2 with per-layer
//!   cost accounting (experiment F3.2).
//! * [`stream`] — streamed video delivery over competing link profiles
//!   (experiment E-BB): frame lateness against presentation deadlines.
//! * [`models`] — the three TeleLearning infrastructures of §1.3
//!   (broadcast, CD-ROM, network COD) under one accessibility/
//!   interactivity metric (experiment E-MODEL), and the content-delivery
//!   ablation of §3.4.2 (experiment E-REUSE).

pub mod campus;
pub mod cod;
pub mod models;
pub mod stack;
pub mod stream;
pub mod system;

pub use campus::{
    default_campus_slos, edge_cache_slos, fault_storm_slos, host_cores, sharded_workloads, Campus,
    CampusReport, CampusRollup, CampusWorkload, FaultStorm, ReplayReport, ReportSink,
    SessionReport, SessionSpec, ShardTrace,
};
pub use cod::{CodReport, CodSession};
pub use models::{compare_delivery_models, reuse_ablation, ModelMetrics, ReuseReport};
pub use stack::{layer_breakdown, LayerCost};
pub use stream::{stream_video_over, StreamReport};
pub use system::{ClientId, CourseImage, MitsSystem, SystemConfig};
