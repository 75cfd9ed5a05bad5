//! World assembly: simulated nodes, switch, control plane and job manager.
//!
//! This crate wires the pure layers together into one discrete-event
//! engine, as a layered protocol engine with an explicit transport seam
//! (the DMTCP lesson: the coordinator protocol must not know what carries
//! its messages). One engine runs on two carriers: the deterministic sim
//! carrier, and the loopback carrier with real UDP sockets and the wall
//! clock.
//!
//! ```text
//!     world (event loop + node table + carrier; run_cycle)
//!     ops ─ ops_agent ─ drain ─ heartbeat ─ jobs ─ recovery
//!     transport (CtlTransport: SimnetCtl │ NetCtl + wall clock)
//!     runtime (CtlAddr / CtlInstant / Timers)
//! ```
//!
//! * [`params`] — cluster-wide timing parameters, calibrated to the paper's
//!   gigabit-Ethernet / 1 GHz-node / 2005-disk testbed;
//! * [`jobs`] — job specifications and pod placement (the LSF analogue);
//! * [`fault`] — seeded, replayable fault plans (protocol-point crashes,
//!   disk-write faults, control-frame drop/duplicate/reorder);
//! * [`node`] — the base layer: one simulated node (kernel + Zap + agent)
//!   and its control-socket handle, imported by everything above;
//! * [`state`] — the shared cluster state: [`state::World`]'s fields,
//!   [`state::ClusterError`] and the installed fault plane, sitting below
//!   the driver so the operation layers need not import upward;
//! * [`runtime`] — the sim-agnostic runtime seam: engine-owned time
//!   ([`runtime::CtlInstant`]), node addressing ([`runtime::CtlAddr`])
//!   and the [`runtime::Timers`] deadline vocabulary the protocol layers
//!   schedule against;
//! * [`transport`] — the [`transport::CtlTransport`] seam: bind/send/recv
//!   of control frames over [`runtime::CtlAddr`]s, with the simulated-UDP
//!   [`transport::SimnetCtl`] and the loopback carrier's real-socket
//!   [`transport::NetCtl`] (which also owns that carrier's wall clock);
//! * [`events`] — the world's step log (substrate steps plus
//!   every armed [`runtime::Deadline`]) and the per-event fingerprint
//!   folded into the trace digest;
//! * [`ops`] — coordinated-operation runtime, coordinator side: install,
//!   message flow, retry/timeout, abort, migration;
//! * [`ops_agent`] — coordinated-operation runtime, agent side: freeze,
//!   capture, persist, restore, resume, roll back;
//! * [`drain`] — COW capture scheduling (snapshot arm, background drain,
//!   retroactive disk batches);
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

pub mod drain;
pub mod events;
pub mod fault;
pub mod heartbeat;
pub mod jobs;
pub mod node;
pub mod ops;
pub mod ops_agent;
pub mod params;
pub mod recovery;
pub mod runtime;
pub mod state;
pub mod transport;
pub mod world;

pub use cruz::replog::{CompactReport, ReplicatedStore, ScrubReport};
pub use cruz::store::StoreConfig;
pub use events::Event;
pub use fault::{
    CrashFault, DiskFault, FaultPlan, ProtocolPoint, ReplicaFault, ReplicaFaultKind, StoreOpPoint,
};
pub use jobs::{JobRuntime, JobSpec, PodPlacement, PodSpec};
pub use ops::{CkptOptions, OpReport};
pub use params::{CkptCaptureMode, ClusterParams, RecoveryParams, RetryPolicy, SparePolicy};
pub use recovery::{RecoveryCause, RecoveryOutcome, RecoveryReport};
pub use runtime::{CtlAddr, CtlDuration, CtlInstant, Deadline, Timers};
pub use transport::{loopback_available, Ctl, CtlSock, CtlTransport, NetCtl, SimnetCtl};
pub use world::{ClusterError, CycleReport, Node, World};
