//! The engine's event vocabulary and per-event trace fingerprints.
//!
//! Every state change in the simulated cluster is one [`Event`] popped off
//! the world's queue. An event is either a substrate step the world
//! drives itself (a node's run slice or timer, a frame on a link) or
//! [`Event::Deadline`]: a protocol [`Deadline`] the layers above (ops,
//! drain, heartbeat) armed through [`crate::runtime::Timers`], carried
//! unchanged. Each dispatched event folds a cheap
//! [`fingerprint`](Event::fingerprint) into the world's running trace
//! digest, which is how two runs of the same seed prove they took the
//! same path.

use des::digest;
use simnet::EthFrame;

use crate::runtime::Deadline;

/// One scheduled occurrence in the simulated cluster.
#[allow(missing_docs)] // variant fields are documented where non-obvious
pub enum Event {
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
    /// A protocol deadline firing.
    Deadline(Deadline),
}

impl Event {
    /// A cheap per-event fingerprint folded into the world's trace digest:
    /// the variant tag plus its routing fields. Enough to distinguish any
    /// two event orderings without hashing payload bytes on the hot path.
    pub fn fingerprint(&self) -> u64 {
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
            Event::Deadline(Deadline::AgentCtl { node, msg, .. }) => {
                mix(5, *node as u64, msg.epoch())
            }
            Event::Deadline(Deadline::AgentLocalDone { node, op }) => mix(6, *node as u64, *op),
            Event::Deadline(Deadline::AgentDurable { node, op }) => mix(7, *node as u64, *op),
            Event::Deadline(Deadline::CkptDrain { node, op }) => mix(14, *node as u64, *op),
            Event::Deadline(Deadline::CoordCtl { op, from, msg }) => {
                digest::fold_u64(mix(8, *op, *from as u64), msg.epoch())
            }
            Event::Deadline(Deadline::CoordSend { op, to, msg }) => {
                digest::fold_u64(mix(9, *op, *to as u64), msg.epoch())
            }
            Event::Deadline(Deadline::CoordTimeout { op }) => mix(10, *op, 0),
            Event::Deadline(Deadline::CoordRetry { op, attempt }) => mix(11, *op, *attempt as u64),
            Event::Deadline(Deadline::Heartbeat { job }) => {
                let mut h = mix(15, 0, 0);
                for b in job.bytes() {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
            Event::Deadline(Deadline::HeartbeatTimeout {
                job,
                sent_at,
                pinged,
            }) => {
                let mut h = mix(16, sent_at.as_nanos(), pinged.len() as u64);
                for b in job.bytes() {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
            Event::Deadline(Deadline::PeriodicCkpt { job, interval, .. }) => {
                let mut h = mix(12, interval.as_nanos(), 0);
                for b in job.bytes() {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
            Event::Deadline(Deadline::MigrateFinish { job, pod, dst, .. }) => {
                let mut h = mix(13, *dst as u64, 0);
                for b in job.bytes().chain(pod.bytes()) {
                    h = digest::fold_u64(h, b as u64);
                }
                h
            }
            Event::Deadline(Deadline::StoreScrub { job, interval }) => {
                let mut h = mix(18, interval.as_nanos(), 0);
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
            Event::Deadline(Deadline::CoordTimeout { op: 1 }).fingerprint(),
            Event::Deadline(Deadline::CoordRetry { op: 1, attempt: 0 }).fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_pure() {
        let ev = Event::Deadline(Deadline::Heartbeat { job: "j".into() });
        assert_eq!(ev.fingerprint(), ev.fingerprint());
    }
}
