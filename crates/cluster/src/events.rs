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

/// Number of fingerprint tags: variant tags run 1..=17.
const TAGS: usize = 18;

/// Every variant tag pre-folded from [`digest::OFFSET`]:
/// `TAG_FOLDS[t] == fold_u64(OFFSET, t)`, computed at compile time, so a
/// fingerprint folds only its two routing fields at run time.
const TAG_FOLDS: [u64; TAGS] = {
    let mut folds = [0; TAGS];
    let mut t = 0;
    while t < TAGS {
        folds[t] = digest::fold_u64(digest::OFFSET, t as u64);
        t += 1;
    }
    folds
};

/// The digest of variant `tag` with routing fields `a` and `b`.
#[inline]
fn mix(tag: usize, a: u64, b: u64) -> u64 {
    digest::fold_u64(digest::fold_u64(TAG_FOLDS[tag], a), b)
}

/// Folds `job`'s bytes into `h`, one word per byte.
fn fold_name(mut h: u64, job: &str) -> u64 {
    for b in job.bytes() {
        h = digest::fold_u64(h, b as u64);
    }
    h
}

impl Event {
    /// A cheap per-event fingerprint folded into the world's trace digest:
    /// the variant tag plus its routing fields. Enough to distinguish any
    /// two event orderings without hashing payload bytes on the hot path.
    pub(crate) fn fingerprint(&self) -> u64 {
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
            Event::Heartbeat { job } => fold_name(mix(15, 0, 0), job),
            Event::HeartbeatTimeout {
                job,
                sent_at,
                pinged,
            } => fold_name(mix(16, sent_at.as_nanos(), pinged.len() as u64), job),
            Event::PeriodicCkpt { job, interval, .. } => {
                fold_name(mix(12, interval.as_nanos(), 0), job)
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

    /// The fingerprint as it was before the tags were pre-folded: every
    /// fold from [`digest::OFFSET`] at run time.
    fn three_fold_mix(tag: u64, a: u64, b: u64) -> u64 {
        digest::fold_u64(
            digest::fold_u64(digest::fold_u64(digest::OFFSET, tag), a),
            b,
        )
    }

    #[test]
    fn pre_folded_tags_are_the_run_time_folds() {
        for (t, &fold) in TAG_FOLDS.iter().enumerate() {
            let tag = std::hint::black_box(t as u64);
            assert_eq!(fold, digest::fold_u64(digest::OFFSET, tag), "tag {t}");
        }
    }

    #[test]
    fn every_fingerprint_equals_the_three_fold_mix() {
        use simnet::{arp::ArpPacket, EthPayload, IpAddr, MacAddr};

        let mac = MacAddr::from_index(3);
        let frame = || {
            let arp = ArpPacket::gratuitous(mac, IpAddr::from_octets([10, 0, 0, 3]));
            EthFrame::new(mac, MacAddr::BROADCAST, EthPayload::Arp(arp))
        };
        let len = frame().wire_len() as u64;
        let msg = || CtlMsg::CommDisabled { epoch: 42 };
        let named = |h: u64, job: &str| job.bytes().fold(h, |h, b| digest::fold_u64(h, b as u64));
        let cases = [
            (Event::NodeRun(7), three_fold_mix(1, 7, 0)),
            (Event::NodeTick(7), three_fold_mix(2, 7, 0)),
            (
                Event::FrameAtSwitch {
                    from_port: 2,
                    frame: frame(),
                },
                three_fold_mix(3, 2, len),
            ),
            (
                Event::FrameAtNode {
                    port: 2,
                    frame: frame(),
                },
                three_fold_mix(4, 2, len),
            ),
            (
                Event::FrameAtNodeInjected {
                    port: 2,
                    frame: frame(),
                },
                three_fold_mix(17, 2, len),
            ),
            (
                Event::AgentCtl {
                    node: 1,
                    msg: msg(),
                    reply_to: CtlAddr::agent(0),
                },
                three_fold_mix(5, 1, 42),
            ),
            (
                Event::AgentLocalDone { node: 1, op: 9 },
                three_fold_mix(6, 1, 9),
            ),
            (
                Event::AgentDurable { node: 1, op: 9 },
                three_fold_mix(7, 1, 9),
            ),
            (
                Event::CkptDrain { node: 1, op: 9 },
                three_fold_mix(14, 1, 9),
            ),
            (
                Event::CoordCtl {
                    op: 9,
                    from: 1,
                    msg: msg(),
                },
                digest::fold_u64(three_fold_mix(8, 9, 1), 42),
            ),
            (
                Event::CoordSend {
                    op: 9,
                    to: 1,
                    msg: msg(),
                },
                digest::fold_u64(three_fold_mix(9, 9, 1), 42),
            ),
            (Event::CoordTimeout { op: 9 }, three_fold_mix(10, 9, 0)),
            (
                Event::CoordRetry { op: 9, attempt: 3 },
                three_fold_mix(11, 9, 3),
            ),
            (
                Event::Heartbeat { job: "job".into() },
                named(three_fold_mix(15, 0, 0), "job"),
            ),
            (
                Event::HeartbeatTimeout {
                    job: "job".into(),
                    sent_at: SimTime::from_nanos(5),
                    pinged: vec![0, 1],
                },
                named(three_fold_mix(16, 5, 2), "job"),
            ),
            (
                Event::PeriodicCkpt {
                    job: "job".into(),
                    interval: SimDuration::from_nanos(8),
                    opts: CkptOptions::default(),
                },
                named(three_fold_mix(12, 8, 0), "job"),
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(ev.fingerprint(), want);
        }
    }

    #[test]
    fn fingerprint_is_pure() {
        let ev = Event::Heartbeat { job: "j".into() };
        assert_eq!(ev.fingerprint(), ev.fingerprint());
    }
}
