//! World assembly: simulated nodes, switch, control plane and job manager.
//!
//! This crate wires the pure layers together into one discrete-event
//! engine, a layered protocol engine over a transport it does not look
//! inside (the DMTCP lesson: the coordinator protocol must not know what
//! carries its messages). One engine runs on two carriers: the
//! deterministic sim carrier, and the loopback carrier with real UDP
//! sockets and the wall clock. Both share one clock type (`SimTime`), one
//! event enum and one arming call, `World::arm`.
//!
//! ```text
//!     world (event loop + World::arm + node table + carrier; run_cycle)
//!     ops ─ ops_agent ─ heartbeat ─ jobs ─ recovery
//!     events (Event: substrate steps + protocol obligations)
//!     transport (Ctl: SimnetCtl │ NetCtl + wall clock)
//!     node (Node, CtlAddr, CtlPort) ─ params ─ fault
//! ```
//!
//! * [`params`] — cluster-wide timing parameters, calibrated to the paper's
//!   gigabit-Ethernet / 1 GHz-node / 2005-disk testbed, and the
//!   per-checkpoint [`CkptOptions`];
//! * [`jobs`] — job specifications and pod placement (the LSF analogue);
//! * [`fault`] — seeded, replayable fault plans (protocol-point crashes,
//!   disk-write faults, control-frame drop/duplicate/reorder);
//! * [`node`] — the base layer: one simulated node (kernel + Zap + agent)
//!   and the node-index addressing of its two fixed control endpoints,
//!   imported by everything above;
//! * [`state`] — the shared cluster state: [`state::World`]'s fields,
//!   [`state::ClusterError`] and the installed fault plane, sitting below
//!   the driver so the operation layers need not import upward;
//! * [`transport`] — send/recv of control frames between the nodes'
//!   fixed endpoints, on the simulated-UDP carrier or the loopback
//!   carrier's real sockets (which also own that carrier's wall clock);
//! * `events` — the one event enum on the world's queue (substrate steps
//!   plus every protocol obligation the layers arm) and the per-event
//!   fingerprint folded into the trace digest;
//! * [`ops`] — coordinated-operation runtime, coordinator side: install,
//!   message flow, retry/timeout, abort, and live migration as one op (a
//!   one-pod checkpoint round on the source, then a restart round on the
//!   destination);
//! * [`ops_agent`] — coordinated-operation runtime, agent side: freeze,
//!   the one capture pipeline (arm → drain → persist, on the schedule of
//!   the checkpoint's [`CkptCaptureMode`]), restore, resume, roll back;
//! * [`heartbeat`] — failure detection, the self-healing recovery pass and
//!   coordinator failover;
//! * [`recovery`] — recovery reports emitted by the self-healing manager;
//! * [`world`] — [`world::World`]: the thin driver that owns the event
//!   loop, the node table, the switch and the carrier, and dispatches to
//!   the layers above; [`world::World::run_cycle`] runs the twin
//!   checkpoint → crash → restore cycle on either carrier.
//!
//! Benchmarks and examples drive a `World`; everything they measure emerges
//! from the simulated components rather than from hard-coded results.

#![warn(missing_docs)]

mod events;
pub mod fault;
pub mod heartbeat;
pub mod jobs;
pub mod node;
pub mod ops;
pub mod ops_agent;
pub mod params;
pub mod recovery;
pub mod state;
pub mod transport;
pub mod world;

pub use cruz::replog::{CompactReport, ReplicatedStore, ScrubReport};
pub use cruz::store::StoreConfig;
pub use fault::{
    CrashFault, DiskFault, FaultPlan, ProtocolPoint, ReplicaFault, ReplicaFaultKind, StoreOpPoint,
};
pub use jobs::{JobRuntime, JobSpec, PodPlacement, PodSpec};
pub use ops::OpReport;
pub use params::{CkptCaptureMode, CkptOptions, ClusterParams, RecoveryParams, RetryPolicy};
pub use recovery::{RecoveryCause, RecoveryOutcome, RecoveryReport};
pub use transport::loopback_available;
pub use world::{ClusterError, CycleReport, Node, World};
