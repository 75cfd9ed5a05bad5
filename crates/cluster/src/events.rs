//! The engine's event vocabulary and per-event trace fingerprints.
//!
//! Every state change in the cluster is one [`Event`] popped off the
//! world's queue, and `World::arm` is the one way onto it. An event is
//! either a substrate step the world drives itself (a node's run slice or
//! timer, a frame on a link) or a protocol obligation a layer above (ops,
//! ops_agent, heartbeat) armed: a service-delay completion, a
//! failure-detection deadline, a retry round, a periodic driver. Each
//! dispatched event folds a cheap [`fingerprint`](Event::fingerprint)
//! into the world's running trace digest, which is how two runs of the
//! same seed prove they took the same path.

use des::{digest, SimDuration, SimTime};
use simnet::EthFrame;

use cruz::proto::CtlMsg;

use crate::node::CtlAddr;
use crate::params::CkptOptions;

/// One scheduled occurrence in the cluster.
pub(crate) enum Event {
    /// A node's kernel gets a run slice.
    NodeRun(usize),
    /// A node's timer wheel fires.
    NodeTick(usize),
    /// A frame reaches the switch ingress from a node's uplink.
    FrameAtSwitch { from_port: usize, frame: EthFrame },
    /// A frame reaches a node's NIC from its downlink.
    FrameAtNode { port: usize, frame: EthFrame },
    /// A duplicated or reordered frame copy re-entering a node's NIC; never
    /// re-rolled against the fault plan (one fate per original frame).
    FrameAtNodeInjected { port: usize, frame: EthFrame },
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
        sent_at: SimTime,
        pinged: Vec<usize>,
    },
    /// The periodic-checkpoint driver's next tick for a job.
    PeriodicCkpt {
        job: String,
        interval: SimDuration,
        opts: CkptOptions,
    },
}

impl Event {
    /// A cheap per-event fingerprint folded into the world's trace digest:
    /// the variant tag plus its routing fields. Enough to distinguish any
    /// two event orderings without hashing payload bytes on the hot path.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mix = |tag: u64, a: u64, b: u64| {
            digest::fold_u64(
                digest::fold_u64(digest::fold_u64(digest::OFFSET, tag), a),
                b,
            )
        };
        match self {
            Event::NodeRun(n) => mix(1, *n as u64, 0),
            Event::NodeTick(n) => mix(2, *n as u64, 0),
            Event::FrameAtSwitch { from_port, frame } => {
                mix(3, *from_port as u64, frame.wire_len() as u64)
            }
            Event::FrameAtNode { port, frame } => mix(4, *port as u64, frame.wire_len() as u64),
            Event::FrameAtNodeInjected { port, frame } => {
                mix(17, *port as u64, frame.wire_len() as u64)
            }
            Event::AgentCtl { node, msg, .. } => mix(5, *node as u64, msg.epoch()),
            Event::AgentLocalDone { node, op } => mix(6, *node as u64, *op),
            Event::AgentDurable { node, op } => mix(7, *node as u64, *op),
            Event::CkptDrain { node, op } => mix(14, *node as u64, *op),
            Event::CoordCtl { op, from, msg } => {
                digest::fold_u64(mix(8, *op, *from as u64), msg.epoch())
            }
            Event::CoordSend { op, to, msg } => {
                digest::fold_u64(mix(9, *op, *to as u64), msg.epoch())
            }
            Event::CoordTimeout { op } => mix(10, *op, 0),
            Event::CoordRetry { op, attempt } => mix(11, *op, *attempt as u64),
            Event::Heartbeat { job } => {
                let mut h = mix(15, 0, 0);
                for b in job.bytes() {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
            Event::HeartbeatTimeout {
                job,
                sent_at,
                pinged,
            } => {
                let mut h = mix(16, sent_at.as_nanos(), pinged.len() as u64);
                for b in job.bytes() {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
            Event::PeriodicCkpt { job, interval, .. } => {
                let mut h = mix(12, interval.as_nanos(), 0);
                for b in job.bytes() {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_distinguish_routing() {
        assert_ne!(
            Event::NodeRun(0).fingerprint(),
            Event::NodeRun(1).fingerprint()
        );
        assert_ne!(
            Event::NodeRun(3).fingerprint(),
            Event::NodeTick(3).fingerprint()
        );
        assert_ne!(
            Event::CoordTimeout { op: 1 }.fingerprint(),
            Event::CoordRetry { op: 1, attempt: 0 }.fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_pure() {
        let ev = Event::Heartbeat { job: "j".into() };
        assert_eq!(ev.fingerprint(), ev.fingerprint());
    }
}
