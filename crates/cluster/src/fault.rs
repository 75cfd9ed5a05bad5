//! The fault plane: deterministic fault-injection plans for the cluster
//! world, and the one place that decides when an injected fault strikes.
//!
//! A [`FaultPlan`] names, ahead of time, every failure a run will suffer:
//! node crashes pinned to protocol points, disk-write faults pinned to the
//! n-th checkpoint write batch on a node, control-frame drop/duplicate/
//! reorder probabilities, and replica-store faults. Plans are either
//! hand-built or drawn from a seed with [`FaultPlan::random`]; the same
//! plan against the same world seed reproduces the identical event trace.
//!
//! The world holds one `FaultState`, the installed plan with its
//! frame-fate RNG and its per-(node, site) hit counters, and asks it three
//! questions: does this node crash at this protocol point, what happens to
//! this node's next checkpoint write batch, and what is this frame's fate.
//! The simulated disk and network stack below carry no fault code. Replica
//! faults are the one exception: the world arms them on the store's own
//! plane ([`cruz::replog::ReplicaFaults`]), since only the replicated
//! store's write path, below this crate, can see their protocol points.

use std::collections::BTreeMap;

use des::rng::SimRng;
use des::{SimDuration, SimTime};

pub use cruz::replog::{ReplicaFault, ReplicaFaultKind, StoreOpPoint};

/// Named points in the checkpoint/restore protocol where a crash can be
/// injected. Each is counted per node, so `nth` selects which occurrence
/// of the point actually kills the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolPoint {
    /// The agent just received a `start(checkpoint)` message and has not
    /// yet acted on it.
    CheckpointReceived,
    /// The agent finished its local save but the image is not yet durable
    /// (the window the paper's two-phase commit exists to cover).
    LocalDoneToDurable,
    /// Mid copy-on-write drain: pods already resumed, pages still flowing
    /// to the store.
    CowDrain,
    /// Mid restore: the agent is rebuilding pods from a stored image.
    Restore,
}

impl ProtocolPoint {
    /// All points, in protocol order.
    pub const ALL: [ProtocolPoint; 4] = [
        ProtocolPoint::CheckpointReceived,
        ProtocolPoint::LocalDoneToDurable,
        ProtocolPoint::CowDrain,
        ProtocolPoint::Restore,
    ];
}

/// Crash one node the `nth` time it reaches `point` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Node to kill.
    pub node: usize,
    /// Protocol point that triggers the crash.
    pub point: ProtocolPoint,
    /// Which occurrence of the point fires the crash (0 = first).
    pub nth: u32,
}

/// An injected failure of one checkpoint write batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write returns an I/O error; nothing reaches the platter.
    Fail,
    /// The write is torn: a prefix reaches the platter, the rest is lost.
    /// The payload is the fraction of the payload that survives, in
    /// 1/256ths (0 = nothing, 255 ≈ all but the tail).
    Torn(u8),
}

/// Fail or tear one checkpoint write batch on a node, counted from plan
/// installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// Node whose checkpoint disk misbehaves.
    pub node: usize,
    /// Which non-empty write batch (0-based from installation) is struck.
    pub nth_write: u64,
    /// Outright failure or a torn (partial) write.
    pub fault: WriteFault,
}

/// Per-frame fault probabilities for the control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFaults {
    /// Probability a frame is silently dropped.
    pub drop: f64, // fault-plan parameter; cruz-lint: allow(float-in-sim)
    /// Probability a frame is delivered twice (the copy arrives later).
    pub duplicate: f64, // fault-plan parameter; cruz-lint: allow(float-in-sim)
    /// Probability a frame is delayed past its successors (reordering).
    pub reorder: f64, // fault-plan parameter; cruz-lint: allow(float-in-sim)
    /// Extra delay applied to duplicated/reordered copies.
    pub delay: SimDuration,
}

impl FrameFaults {
    /// No injected frame faults.
    pub fn none() -> Self {
        FrameFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: SimDuration::from_micros(400),
        }
    }

    /// True when every probability is zero (deciding would be a no-op).
    pub fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0
    }

    /// Draws the fate of one frame. Exactly one of drop/duplicate/reorder
    /// can strike; probabilities are evaluated in that order against a
    /// single uniform draw, so `drop + duplicate + reorder` must be ≤ 1.
    /// With no fault armed nothing is drawn, so arming none never
    /// perturbs the stream.
    pub fn decide(&self, rng: &mut SimRng) -> FrameFate {
        if self.is_none() {
            return FrameFate::Deliver;
        }
        let u = rng.unit_f64();
        if u < self.drop {
            FrameFate::Drop
        } else if u < self.drop + self.duplicate {
            FrameFate::Duplicate { delay: self.delay }
        } else if u < self.drop + self.duplicate + self.reorder {
            FrameFate::Reorder { delay: self.delay }
        } else {
            FrameFate::Deliver
        }
    }
}

/// What happens to one frame under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Delivered normally.
    Deliver,
    /// Silently discarded.
    Drop,
    /// Delivered now *and* again after `delay`.
    Duplicate {
        /// Extra delay before the duplicate copy arrives.
        delay: SimDuration,
    },
    /// Held back and delivered only after `delay` (later frames overtake).
    Reorder {
        /// Delay before the held frame is finally delivered.
        delay: SimDuration,
    },
}

/// A complete, replayable description of every fault a run will inject.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream (frame-fate draws).
    pub seed: u64,
    /// Node crashes pinned to protocol points.
    pub crashes: Vec<CrashFault>,
    /// Disk-write faults pinned to write-batch ordinals.
    pub disk: Vec<DiskFault>,
    /// Control-frame drop/duplicate/reorder probabilities.
    pub frames: FrameFaults,
    /// Checkpoint-store replica faults (crash, torn log append, torn chunk
    /// write) pinned to store-protocol points.
    pub replicas: Vec<ReplicaFault>,
}

impl FaultPlan {
    /// An empty plan: installs the fault plane (and its RNG stream) without
    /// scheduling any faults.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            disk: Vec::new(),
            frames: FrameFaults::none(),
            replicas: Vec::new(),
        }
    }

    /// Draws a random plan from `seed`. Crash and disk faults target nodes
    /// `0..nodes` (pass the app-node count so coordinators and spares stay
    /// up); frame faults strike every node. The same `(seed, nodes)` pair
    /// always yields the same plan.
    pub fn random(seed: u64, nodes: usize) -> FaultPlan {
        let mut rng = SimRng::from_seed(seed);
        let n = nodes.max(1) as u64;
        let crashes = (0..rng.range(0, 3))
            .map(|_| CrashFault {
                node: rng.range(0, n) as usize,
                point: ProtocolPoint::ALL[rng.range(0, 4) as usize],
                nth: rng.range(0, 2) as u32,
            })
            .collect();
        let disk = (0..rng.range(0, 3))
            .map(|_| DiskFault {
                node: rng.range(0, n) as usize,
                nth_write: rng.range(0, 6),
                fault: if rng.chance(0.5) {
                    WriteFault::Fail
                } else {
                    WriteFault::Torn(rng.range(1, 256) as u8)
                },
            })
            .collect();
        let frames = if rng.chance(0.5) {
            FrameFaults::none()
        } else {
            FrameFaults {
                drop: rng.unit_f64() * 0.02,
                duplicate: rng.unit_f64() * 0.02,
                reorder: rng.unit_f64() * 0.02,
                delay: SimDuration::from_micros(rng.range(50, 800)),
            }
        };
        FaultPlan {
            seed,
            crashes,
            disk,
            frames,
            replicas: Vec::new(),
        }
    }
}

/// Where on a node a fault ordinal is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Site {
    /// Arrivals at one protocol point.
    Crash(ProtocolPoint),
    /// Non-empty checkpoint write batches.
    DiskWrite,
}

/// The installed fault plan, its dedicated frame-fate RNG stream, and its
/// per-(node, site) hit counters. The stream is the world's only
/// randomness, so a faulted run and a clean run share every decision up to
/// the first injected fault. Under the empty plan it draws nothing and
/// injects nothing.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    hits: BTreeMap<(usize, Site), u64>,
}

impl FaultState {
    /// Arms `plan` with every counter at zero.
    pub(crate) fn new(plan: &FaultPlan) -> FaultState {
        FaultState {
            plan: plan.clone(),
            rng: SimRng::from_seed(plan.seed),
            hits: BTreeMap::new(),
        }
    }

    /// Counts one occurrence of `site` on `node`, returning its 0-based
    /// ordinal since installation.
    fn hit(&mut self, node: usize, site: Site) -> u64 {
        let hits = self.hits.entry((node, site)).or_insert(0);
        *hits += 1;
        *hits - 1
    }

    /// Whether `node` crashes on reaching `point` now: counts the arrival
    /// and reports whether a [`CrashFault`] names it.
    pub(crate) fn crashes_at(&mut self, node: usize, point: ProtocolPoint) -> bool {
        let nth = self.hit(node, Site::Crash(point));
        self.plan
            .crashes
            .iter()
            .any(|c| c.node == node && c.point == point && u64::from(c.nth) == nth)
    }

    /// What happens to `node`'s checkpoint write `batch`. Each non-empty
    /// batch takes the next ordinal; an empty one writes nothing, so it
    /// takes none and is never struck. When two entries name the same
    /// write, the later one wins.
    pub(crate) fn disk_write(
        &mut self,
        node: usize,
        batch: &[(SimTime, u64)],
    ) -> Option<WriteFault> {
        if batch.is_empty() {
            return None;
        }
        let nth = self.hit(node, Site::DiskWrite);
        self.plan
            .disk
            .iter()
            .rev()
            .find(|d| d.node == node && d.nth_write == nth)
            .map(|d| d.fault)
    }

    /// The fate of the next control frame delivered to a node.
    pub(crate) fn frame_fate(&mut self) -> FrameFate {
        self.plan.frames.decide(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(7, 4);
        let b = FaultPlan::random(7, 4);
        assert_eq!(a, b);
        // Different seeds should eventually differ.
        assert!((0..32).any(|s| FaultPlan::random(s, 4) != a));
    }

    #[test]
    fn disk_faults_strike_the_nth_non_empty_batch_after_installation() {
        let mut plan = FaultPlan::none(1);
        for (nth_write, fault) in [(1, WriteFault::Fail), (2, WriteFault::Torn(128))] {
            plan.disk.push(DiskFault {
                node: 0,
                nth_write,
                fault,
            });
        }
        let mut f = FaultState::new(&plan);
        let batch = [(SimTime::ZERO, 100u64)];
        assert_eq!(f.disk_write(0, &batch), None);
        // An empty batch writes nothing and consumes no ordinal: the
        // next non-empty batch is still write 1.
        assert_eq!(f.disk_write(0, &[]), None);
        // Another node's writes count on their own.
        assert_eq!(f.disk_write(1, &batch), None);
        assert_eq!(f.disk_write(0, &batch), Some(WriteFault::Fail));
        assert_eq!(f.disk_write(0, &batch), Some(WriteFault::Torn(128)));
        assert_eq!(f.disk_write(0, &batch), None);
    }

    #[test]
    fn crashes_strike_the_nth_arrival_at_their_point() {
        let mut plan = FaultPlan::none(1);
        plan.crashes.push(CrashFault {
            node: 1,
            point: ProtocolPoint::CowDrain,
            nth: 1,
        });
        let mut f = FaultState::new(&plan);
        assert!(!f.crashes_at(1, ProtocolPoint::CowDrain));
        assert!(
            !f.crashes_at(1, ProtocolPoint::Restore),
            "other points count apart"
        );
        assert!(
            !f.crashes_at(0, ProtocolPoint::CowDrain),
            "other nodes count apart"
        );
        assert!(f.crashes_at(1, ProtocolPoint::CowDrain));
        assert!(!f.crashes_at(1, ProtocolPoint::CowDrain));
    }

    #[test]
    fn no_frame_faults_never_consume_entropy() {
        let faults = FrameFaults::none();
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(1);
        for _ in 0..8 {
            assert_eq!(faults.decide(&mut a), FrameFate::Deliver);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn frame_fates_are_seed_deterministic_and_cover_all_outcomes() {
        let faults = FrameFaults {
            drop: 0.2,
            duplicate: 0.2,
            reorder: 0.2,
            delay: SimDuration::from_micros(100),
        };
        let draw = |seed: u64| -> Vec<FrameFate> {
            let mut rng = SimRng::from_seed(seed);
            (0..256).map(|_| faults.decide(&mut rng)).collect()
        };
        let a = draw(9);
        assert_eq!(a, draw(9), "same seed must replay the same fates");
        assert!(a.contains(&FrameFate::Deliver));
        assert!(a.contains(&FrameFate::Drop));
        assert!(a.iter().any(|f| matches!(f, FrameFate::Duplicate { .. })));
        assert!(a.iter().any(|f| matches!(f, FrameFate::Reorder { .. })));
    }
}
