//! # mits-db — the courseware database
//!
//! "The courseware database is a large, distributed, object-oriented,
//! multimedia database. It stores all the MHEG objects as well as the
//! content data of these objects" (§3.4.2). The prototype used ObjectStore
//! on a SUN/ULTRA; this crate is the in-Rust equivalent, preserving the
//! two design decisions the paper highlights:
//!
//! 1. **Content is stored separately from scenario** — MHEG objects
//!    reference media by id; "content objects of large size are
//!    transmitted only at the time they are requested" ([`store`]).
//! 2. **Client-server access** over the network with a small request/
//!    response protocol ([`protocol`]), so "users are hidden from the
//!    details of data operation" (Fig 3.5). The client module reproduces
//!    the prototype's `Get_List_Doc()` / `Get_Selected_Doc()` APIs plus
//!    the "future work" APIs the thesis names: `GetKeywordTree()` and
//!    `GetDocByKeyword(keyword)` ([`client`], [`index`]).
//!
//! The server ([`server`]) is deterministic: each request yields a
//! response plus a modelled service time (CPU + storage I/O), which
//! `mits-core` feeds into the discrete-event clock for experiment F3.5
//! (client-server scalability).

pub mod client;
pub mod index;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use client::{
    ClientAction, ClientCache, ClientEvent, DbClient, DbClientMetrics, Pending, RetryPolicy,
};
pub use index::KeywordTree;
pub use protocol::{
    peek_req_id, peek_response_trace, DbError, Envelope, Request, RequestKind, Response,
};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{merge_sorted, EdgeCache, Route, ShardRouter};
pub use server::{CheckpointStats, DbServer, ImageError, RecoveryReport, ServiceModel, StoreImage};
pub use snapshot::{read_snapshot, write_snapshot, SNAPSHOT_MAGIC};
pub use store::{ContentStore, ObjectStore};
pub use wal::{
    decode_frame, encode_frame, read_frames, FileLogDevice, LogDevice, MemLogDevice, ReplayReport,
    SharedLogDevice, Wal, WalRecord,
};
