//! The sim-agnostic runtime seam: engine-owned time, addressing and the
//! deadline vocabulary the protocol layers schedule against.
//!
//! The coordinator/agent engine (ops, drain, heartbeat) is written once
//! against three small abstractions, none of which names the simulator:
//!
//! * [`CtlInstant`]/[`CtlDuration`] — an opaque monotonic clock reading
//!   and span, nanosecond-granular. The sim carrier feeds virtual time
//!   through them; the loopback carrier feeds wall-clock elapsed time.
//! * [`CtlAddr`] — stable node-index addressing for control-plane frames,
//!   so the protocol never derives (or parses) wire addresses itself.
//!   Each backend maps it onto its own endpoint notion (a simulated
//!   `10.0.0.x` socket address, a real loopback UDP port).
//! * [`Deadline`] + [`Timers`] — the protocol registers *what should
//!   happen when* and the runtime owns *how that firing is driven*: the
//!   world queues each deadline unchanged as one
//!   [`crate::events::Event::Deadline`] step, fired in virtual time on
//!   the sim carrier and once the wall clock reaches it on the loopback
//!   carrier.
//!
//! This is the split DMTCP's coordinator/plugin architecture proved out:
//! swap the transport and clock, keep the protocol. The sim carrier
//! remains the deterministic oracle (pinned by the golden traces); the
//! loopback carrier runs the same engine over real sockets.

use des::{SimDuration, SimTime};
use zap::image::PodImage;

use cruz::proto::{CtlMsg, ProtocolMode};

/// An opaque monotonic instant owned by the engine, in nanoseconds from
/// the runtime's epoch (simulation start, or net-runtime construction).
///
/// Deliberately *not* `des::SimTime`: the protocol layers compare and
/// schedule against instants without knowing whether a simulator or a
/// wall clock produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CtlInstant(u64);

impl CtlInstant {
    /// The runtime's epoch.
    pub const ZERO: CtlInstant = CtlInstant(0);

    /// An instant `nanos` after the runtime's epoch.
    pub const fn from_nanos(nanos: u64) -> CtlInstant {
        CtlInstant(nanos)
    }

    /// Nanoseconds since the runtime's epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant advanced by `d` (saturating).
    pub const fn plus(self, d: CtlDuration) -> CtlInstant {
        CtlInstant(self.0.saturating_add(d.as_nanos()))
    }
}

/// A span between two [`CtlInstant`]s, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CtlDuration(u64);

impl CtlDuration {
    /// A span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> CtlDuration {
        CtlDuration(nanos)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

// Lossless bridges to the simulator's clock types. `SimTime` is plain
// nanoseconds too, so the DES backend's conversion is the identity — which
// is what keeps the refactor byte-identical under the golden traces.
impl From<SimTime> for CtlInstant {
    fn from(t: SimTime) -> CtlInstant {
        CtlInstant(t.as_nanos())
    }
}

impl From<CtlInstant> for SimTime {
    fn from(t: CtlInstant) -> SimTime {
        SimTime::from_nanos(t.as_nanos())
    }
}

impl From<SimDuration> for CtlDuration {
    fn from(d: SimDuration) -> CtlDuration {
        CtlDuration(d.as_nanos())
    }
}

impl From<CtlDuration> for SimDuration {
    fn from(d: CtlDuration) -> SimDuration {
        SimDuration::from_nanos(d.as_nanos())
    }
}

/// A control-plane endpoint named by node index, not wire address.
///
/// The protocol engine only ever needs "the agent endpoint of node 3" or
/// "reply to whoever sent this"; how that maps onto an IP/port (simnet)
/// or a real loopback UDP socket is the carrier's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtlAddr {
    /// The node hosting the endpoint.
    pub node: u32,
    /// The endpoint's port in the backend's port space (`0` = ephemeral;
    /// a backend receiving a frame reports the sender's actual port).
    pub port: u16,
}

impl CtlAddr {
    /// The endpoint `port` on `node`.
    pub fn new(node: usize, port: u16) -> CtlAddr {
        CtlAddr {
            node: node as u32,
            port,
        }
    }
}

/// One registered future obligation of the protocol engine.
///
/// This is the engine's *timer vocabulary*: every time-dependent protocol
/// action — service-delay completions, failure-detection deadlines, retry
/// rounds, periodic drivers — is armed as one of these through
/// [`Timers::arm`] rather than scheduled as a raw DES event. The world
/// carries each one as [`crate::events::Event::Deadline`] on its event
/// queue, which the loopback carrier paces against the wall clock.
#[allow(missing_docs)] // variant fields are documented where non-obvious
pub enum Deadline {
    /// A decoded control frame is handed to a node's agent after its
    /// control-CPU service delay.
    AgentCtl {
        node: usize,
        msg: CtlMsg,
        reply_to: CtlAddr,
    },
    /// A node's local save/restore work completes.
    AgentLocalDone { node: usize, op: u64 },
    /// A node's checkpoint images become durable on disk.
    AgentDurable { node: usize, op: u64 },
    /// COW capture: the background drain of a node's armed snapshots
    /// completes.
    CkptDrain { node: usize, op: u64 },
    /// A decoded agent reply is handed to an operation's coordinator after
    /// its control-CPU service delay.
    CoordCtl { op: u64, from: usize, msg: CtlMsg },
    /// The coordinator CPU frees up to transmit one queued protocol
    /// message.
    CoordSend { op: u64, to: usize, msg: CtlMsg },
    /// An operation's failure-detection deadline expires.
    CoordTimeout { op: u64 },
    /// A backed-off retransmission round for an operation's unacked sends.
    CoordRetry { op: u64, attempt: u32 },
    /// One heartbeat round for a job: ping every app node, arm the
    /// timeout.
    Heartbeat { job: String },
    /// The deadline of one heartbeat round: any pinged node that has not
    /// ponged since `sent_at` is declared dead.
    HeartbeatTimeout {
        job: String,
        sent_at: CtlInstant,
        pinged: Vec<usize>,
    },
    /// The periodic-checkpoint driver's next tick for a job.
    PeriodicCkpt {
        job: String,
        interval: CtlDuration,
        mode: ProtocolMode,
        cow: bool,
    },
    /// A migrated pod's image finishes its transfer and restores at the
    /// destination.
    MigrateFinish {
        job: String,
        pod: String,
        dst: usize,
        image: Box<PodImage>,
    },
    /// A periodic background scrub of a job's replicated checkpoint
    /// store.
    StoreScrub { job: String, interval: CtlDuration },
}

/// Clock reading and deadline registration — the only way the protocol
/// layers touch time.
///
/// A runtime promises to fire each armed [`Deadline`] exactly once, at or
/// after `at`, in `(at, arm order)` order for deadlines it fires at the
/// same instant. The world gets both properties from its event queue
/// (insertion-order tie-breaking) on either carrier; the loopback
/// carrier fires "at or after" by the wall clock, the sim carrier at
/// exactly `at` in virtual time.
pub trait Timers {
    /// The engine's current instant.
    fn now(&self) -> CtlInstant;

    /// Registers `d` to fire at `at`. Arming a deadline in the past fires
    /// it as soon as the runtime next dispatches.
    fn arm(&mut self, at: CtlInstant, d: Deadline);
}

/// The cross-carrier comparison point of the twin-runtime property: an
/// FNV-1a digest over `(pod name, image bytes)` pairs, folded in the
/// order given (callers sort by pod name first).
///
/// `World::run_cycle` computes this over the image bytes read back from
/// the store after a restore; for a workload that ran to completion
/// before capture the bytes — and therefore this digest — must match
/// exactly on both carriers.
pub fn image_set_digest(pods: &[(String, Vec<u8>)]) -> u64 {
    let mut h = des::digest::OFFSET;
    for (name, bytes) in pods {
        h = des::digest::fold(h, name.as_bytes());
        h = des::digest::fold_u64(h, bytes.len() as u64);
        h = des::digest::fold(h, bytes);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_bridges_are_lossless() {
        let t = SimTime::from_nanos(123_456_789);
        let i = CtlInstant::from(t);
        assert_eq!(SimTime::from(i), t);
        assert_eq!(i.as_nanos(), 123_456_789);

        let d = SimDuration::from_micros(35);
        let cd = CtlDuration::from(d);
        assert_eq!(SimDuration::from(cd), d);
    }

    #[test]
    fn instant_arithmetic_saturates() {
        let late = CtlInstant::from_nanos(u64::MAX - 1);
        assert_eq!(
            late.plus(CtlDuration::from_nanos(100)),
            CtlInstant::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn image_digest_is_order_and_length_sensitive() {
        let a = ("p0".to_string(), vec![1u8, 2, 3]);
        let b = ("p1".to_string(), vec![4u8]);
        let fwd = image_set_digest(&[a.clone(), b.clone()]);
        let rev = image_set_digest(&[b, a]);
        assert_ne!(fwd, rev);
        // Length framing: ("p0", [1]) + ("p1", []) must differ from
        // ("p0", []) + ("p1", [1]) even though the concatenation agrees.
        let x = image_set_digest(&[("p0".into(), vec![1]), ("p1".into(), vec![])]);
        let y = image_set_digest(&[("p0".into(), vec![]), ("p1".into(), vec![1])]);
        assert_ne!(x, y);
    }

    #[test]
    fn addr_is_node_indexed() {
        let a = CtlAddr::new(3, 7770);
        assert_eq!(a.node, 3);
        assert_eq!(a.port, 7770);
        assert_ne!(a, CtlAddr::new(4, 7770));
    }
}
