//! The engine's shared state: [`World`] and its error type.
//!
//! Only *definitions* live here — the struct and [`ClusterError`]. The
//! module sits in the same layer of the cluster map as
//! `ops`/`ops_agent`/`heartbeat`/`jobs` (DESIGN.md §14), so those
//! impl-block modules can name [`World`] and [`ClusterError`] without
//! importing the [`crate::world`] driver above them. Behavior —
//! construction, the event loop, frame routing — stays in
//! [`crate::world`], and each protocol layer extends [`World`] with its
//! own `impl` block.

use std::collections::BTreeMap;
use std::fmt;

use des::{EventQueue, SimTime};
use simnet::link::LinkState;
use simnet::switch::Switch;
use simnet::EthFrame;
use simos::fs::NetFs;
use zap::ZapError;

use cruz::error::CruzError;
use cruz::replog::ReplicaFaults;

use crate::events::Event;
use crate::fault::FaultState;
use crate::jobs::JobRuntime;
use crate::node::Node;
use crate::ops::{OpRuntime, RetiredOp};
use crate::params::ClusterParams;
use crate::recovery::RecoveryReport;
use crate::transport::Carrier;

/// Cluster-level errors.
#[derive(Debug)]
pub enum ClusterError {
    /// Unknown node index.
    BadNode(usize),
    /// Unknown job name.
    NoSuchJob,
    /// A job with that name already exists.
    JobExists,
    /// The requested epoch has no committed checkpoint.
    NoSuchEpoch(u64),
    /// Another coordinated operation (a checkpoint, restart or migration)
    /// is in flight for the job; operations on one job are serialized, as
    /// a job manager would.
    JobBusy,
    /// A Zap-layer failure.
    Zap(ZapError),
    /// A control-plane failure (bad stored image, violated protocol
    /// invariant). Aborts the operation, not the world.
    Protocol(CruzError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::BadNode(n) => write!(f, "no node {n}"),
            ClusterError::NoSuchJob => write!(f, "no such job"),
            ClusterError::JobExists => write!(f, "job already exists"),
            ClusterError::NoSuchEpoch(e) => write!(f, "epoch {e} has no committed checkpoint"),
            ClusterError::JobBusy => write!(f, "an operation is already in flight for this job"),
            ClusterError::Zap(e) => write!(f, "zap: {e}"),
            ClusterError::Protocol(e) => write!(f, "control plane: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ZapError> for ClusterError {
    fn from(e: ZapError) -> Self {
        ClusterError::Zap(e)
    }
}

impl From<CruzError> for ClusterError {
    fn from(e: CruzError) -> Self {
        ClusterError::Protocol(e)
    }
}

/// The cluster world: simulated nodes and switch, the protocol engine,
/// and the carrier its control plane runs on.
pub struct World {
    /// Current engine time: simulated time on the sim carrier, wall-clock
    /// time since construction on the loopback carrier.
    pub now: SimTime,
    /// The carrier the control plane runs on, with every node's two
    /// control endpoints: the simulated fabric, where time is virtual, or
    /// the loopback carrier's real sockets and wall clock.
    pub(crate) carrier: Carrier,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) switch: Switch,
    pub(crate) links_up: Vec<LinkState>,
    pub(crate) links_down: Vec<LinkState>,
    /// The shared network filesystem.
    pub fs: NetFs,
    /// The parameters this world was built with.
    pub params: ClusterParams,
    pub(crate) jobs: BTreeMap<String, JobRuntime>,
    /// Operations in flight, or aborted.
    pub(crate) ops: BTreeMap<u64, OpRuntime>,
    /// Completed operations, reduced to what is still read of them.
    pub(crate) retired_ops: BTreeMap<u64, RetiredOp>,
    pub(crate) next_op: u64,
    pub(crate) events_processed: u64,
    /// FNV-1a fold over (time, event fingerprint) of every dispatched
    /// event — a cheap witness of the whole execution order. Two runs
    /// with the same seed must end with the same digest; a divergence
    /// pinpoints the first source of nondeterminism.
    pub(crate) trace_digest: u64,
    /// Per-job heartbeat ping sequence (present only while recovery
    /// watches a job).
    pub(crate) hb: BTreeMap<String, u64>,
    /// The fault plane: the installed plan (empty by default) and every
    /// decision about when one of its faults strikes.
    pub(crate) fault: FaultState,
    /// The replica fault plane every job's store view shares: the plan's
    /// replica faults, their hit counters, and the replicas they crashed.
    pub(crate) replica_faults: ReplicaFaults,
    /// Every recovery pass the self-healing manager has run.
    pub(crate) recovery_reports: Vec<RecoveryReport>,
    /// Automatic recoveries performed per job (bounded by
    /// `params::MAX_RECOVERIES`).
    pub(crate) recoveries: BTreeMap<String, u32>,
    /// Non-fatal control-plane failures that would otherwise be silently
    /// discarded: (time, where, error). The swallowed-error lint forces
    /// every discard on a protocol path to either land here or carry a
    /// reasoned `allow`.
    pub(crate) soft_faults: Vec<(SimTime, &'static str, ClusterError)>,
    /// Scratch for the frames one node hands its uplink, reused call to
    /// call.
    pub(crate) frames: Vec<EthFrame>,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("jobs", &self.jobs.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}
