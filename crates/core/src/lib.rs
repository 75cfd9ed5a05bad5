//! Cruz: distributed coordinated checkpoint-restart (the paper's core
//! contribution).
//!
//! The insight the protocol rests on: because the Zap layer checkpoints
//! **live TCP state** (§4.1), the only uncaptured channel state is packets
//! in flight — state of the *unreliable* layer, which may be dropped
//! without violating Chandy-Lamport consistency. So instead of the
//! O(N²)-message channel flush of MPVM/CoCheck/LAM-MPI, coordination
//! reduces to the minimum for atomicity:
//!
//! 1. coordinator sends `<checkpoint>` to each agent;
//! 2. each agent installs a packet-filter rule silently dropping its pods'
//!    traffic, saves its pods locally, replies `<done>`;
//! 3. coordinator collects all `<done>`s (commit point), sends
//!    `<continue>`;
//! 4. agents resume pods, lift the filters, reply `<continue-done>`.
//!
//! Dropped packets are retransmitted by the checkpointed TCP state when
//! execution continues — whether after the checkpoint or after a restart
//! from it.
//!
//! * [`proto`] — the control messages and their wire codec;
//! * [`coordinator`] — the coordinator state machine (Fig. 2), including
//!   the Fig. 4 early-release optimization and timeout-driven abort;
//! * [`agent`] — the per-node agent state machine;
//! * [`store`] — image paths, two-phase-commit records and the
//!   content-addressed deduplicating chunk store on the shared filesystem;
//! * [`chunk`] — deterministic content addressing and the per-chunk
//!   RLE+LZ codec the store builds on;
//! * [`pagecache`] — the epoch-granular page-digest cache that lets clean
//!   pages skip re-hashing in `prepare_chunked_hinted` (no longer on the
//!   capture path, whose image seal names every chunk);
//! * [`replog`] — the k-way replicated store: every mutation goes through
//!   a deterministic append-only operation log per replica, reads are
//!   digest-checked quorum reads, and scrub repairs divergence by
//!   replaying the log (its fault plane lives in the private `repfault`
//!   module and is re-exported here);
//! * [`parpool`] — the deterministic worker pool that shards the pure
//!   hash/encode/decode kernels across threads with an ordered merge, so
//!   produced bytes are identical at every thread count;
//! * [`digest`] — the one audited FNV-1a fold (re-exported from `des`)
//!   behind trace digests, image checksums and chunk addresses.
//!
//! The engines are pure: the `cluster` crate hosts them on simulated nodes,
//! ships their datagrams over the simulated network, and executes their
//! actions (filter rules, pod freeze, state extraction, disk I/O) with
//! realistic costs.

#![warn(missing_docs)]

pub mod agent;
pub mod chunk;
pub mod coordinator;
pub mod error;
pub mod pagecache;
pub mod parpool;
pub mod proto;
mod repfault;
pub mod replog;
pub mod store;

pub use des::digest;

pub use agent::{Agent, AgentAction};
pub use chunk::ChunkId;
pub use coordinator::{AgentId, CoordEffect, CoordStats, Coordinator};
pub use error::CruzError;
pub use pagecache::{page_hints, DigestCache, PageHint};
pub use parpool::Pool;
pub use proto::{CtlMsg, OpKind, ProtocolMode, AGENT_PORT, COORD_PORT};
pub use replog::{
    install_replica_faults, CompactReport, ReplicaFault, ReplicaFaultKind, ReplicatedStore,
    ScrubReport, StoreOpPoint,
};
pub use store::{CheckpointStore, PreparedPut, ReadError, StoreConfig};
