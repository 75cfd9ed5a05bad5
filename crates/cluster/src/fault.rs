//! Deterministic fault-injection plans for the cluster world.
//!
//! A [`FaultPlan`] names, ahead of time, every failure a run will suffer:
//! node crashes pinned to protocol points, disk-write faults pinned to the
//! n-th write on a node, and control-frame drop/duplicate/reorder
//! probabilities. Plans are either hand-built or drawn from a seed with
//! [`FaultPlan::random`], and serialize byte-exactly so a plan can be
//! stored next to a trace and replayed later: the same plan against the
//! same world seed reproduces the identical event trace.

use des::rng::SimRng;
use des::SimDuration;
use simnet::fault::FrameFaults;
use simos::disk::WriteFault;

pub use cruz::replog::{ReplicaFault, ReplicaFaultKind, StoreOpPoint};

/// Named points in the checkpoint/restore protocol where a crash can be
/// injected. Each is counted per node, so `nth` selects which occurrence
/// of the point actually kills the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolPoint {
    /// The agent just received a `start(checkpoint)` message and has not
    /// yet acted on it.
    CheckpointReceived = 0,
    /// The agent finished its local save but the image is not yet durable
    /// (the window the paper's two-phase commit exists to cover).
    LocalDoneToDurable = 1,
    /// Mid copy-on-write drain: pods already resumed, pages still flowing
    /// to the store.
    CowDrain = 2,
    /// Mid restore: the agent is rebuilding pods from a stored image.
    Restore = 3,
}

impl ProtocolPoint {
    /// All points, in wire-tag order.
    pub const ALL: [ProtocolPoint; 4] = [
        ProtocolPoint::CheckpointReceived,
        ProtocolPoint::LocalDoneToDurable,
        ProtocolPoint::CowDrain,
        ProtocolPoint::Restore,
    ];

    fn from_tag(tag: u8) -> Option<ProtocolPoint> {
        ProtocolPoint::ALL.get(tag as usize).copied()
    }
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

/// Fail or tear one disk write on a node, counted from plan installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// Node whose checkpoint disk misbehaves.
    pub node: usize,
    /// Which write operation (0-based from installation) is struck.
    pub nth_write: u64,
    /// Outright failure or a torn (partial) write.
    pub fault: WriteFault,
}

/// A complete, replayable description of every fault a run will inject.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream (frame-fate draws). Kept in
    /// the plan so a serialized plan replays byte-for-byte.
    pub seed: u64,
    /// Node crashes pinned to protocol points.
    pub crashes: Vec<CrashFault>,
    /// Disk-write faults pinned to write ordinals.
    pub disk: Vec<DiskFault>,
    /// Control-frame drop/duplicate/reorder probabilities.
    pub frames: FrameFaults,
    /// Checkpoint-store replica faults (crash, torn log append, torn chunk
    /// write) pinned to store-protocol points. Introduced by format
    /// version 2; version-1 plans decode with this empty.
    pub replicas: Vec<ReplicaFault>,
}

const MAGIC: &[u8; 4] = b"CRZF";
const VERSION: u16 = 2;

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
                point: ProtocolPoint::from_tag(rng.range(0, 4) as u8)
                    .unwrap_or(ProtocolPoint::CheckpointReceived),
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

    /// Serializes the plan byte-exactly (magic `CRZF`, version 2). The
    /// replica-fault section always travels, even when empty — the
    /// version bump pays for a fixed layout, while [`FaultPlan::decode`]
    /// keeps accepting version-1 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(MAGIC);
        v.extend_from_slice(&VERSION.to_le_bytes());
        v.extend_from_slice(&self.seed.to_le_bytes());
        v.extend_from_slice(&(self.crashes.len() as u32).to_le_bytes());
        for c in &self.crashes {
            v.extend_from_slice(&(c.node as u32).to_le_bytes());
            v.push(c.point as u8);
            v.extend_from_slice(&c.nth.to_le_bytes());
        }
        v.extend_from_slice(&(self.disk.len() as u32).to_le_bytes());
        for d in &self.disk {
            v.extend_from_slice(&(d.node as u32).to_le_bytes());
            v.extend_from_slice(&d.nth_write.to_le_bytes());
            match d.fault {
                WriteFault::Fail => v.extend_from_slice(&[0, 0]),
                WriteFault::Torn(frac) => v.extend_from_slice(&[1, frac]),
            }
        }
        for p in [self.frames.drop, self.frames.duplicate, self.frames.reorder] {
            v.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        v.extend_from_slice(&self.frames.delay.as_nanos().to_le_bytes());
        v.extend_from_slice(&(self.replicas.len() as u32).to_le_bytes());
        for r in &self.replicas {
            v.extend_from_slice(&(r.replica as u32).to_le_bytes());
            v.push(r.point.tag());
            v.extend_from_slice(&r.nth.to_le_bytes());
            match r.kind {
                ReplicaFaultKind::Crash => v.extend_from_slice(&[0, 0]),
                ReplicaFaultKind::TornLog(frac) => v.extend_from_slice(&[1, frac]),
                ReplicaFaultKind::TornChunk(frac) => v.extend_from_slice(&[2, frac]),
            }
        }
        v
    }

    /// Decodes a plan produced by [`FaultPlan::encode`]. Returns `None` on
    /// any malformed input, non-zero pad bytes included, so an accepted
    /// version-2 plan re-encodes to the bytes it was decoded from.
    pub fn decode(bytes: &[u8]) -> Option<FaultPlan> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*at..*at + n)?;
            *at += n;
            Some(s)
        };
        let u32_at = |at: &mut usize| -> Option<u32> {
            Some(u32::from_le_bytes(take(at, 4)?.try_into().ok()?))
        };
        let u64_at = |at: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(at, 8)?.try_into().ok()?))
        };
        // Room for `n` records, capped by the unread input: a record is
        // never empty, so a corrupt count cannot reserve past the bytes.
        let room = |at: usize, n: u32| (n as usize).min(bytes.len() - at);
        if take(&mut at, 4)? != MAGIC {
            return None;
        }
        // Version 1 predates the replica-fault section; its bytes end at
        // the frame-delay field and decode to an empty `replicas`.
        let version = u16::from_le_bytes(take(&mut at, 2)?.try_into().ok()?);
        if version != 1 && version != VERSION {
            return None;
        }
        let seed = u64_at(&mut at)?;
        let ncrash = u32_at(&mut at)?;
        let mut crashes = Vec::with_capacity(room(at, ncrash));
        for _ in 0..ncrash {
            let node = u32_at(&mut at)? as usize;
            let point = ProtocolPoint::from_tag(take(&mut at, 1)?[0])?;
            let nth = u32_at(&mut at)?;
            crashes.push(CrashFault { node, point, nth });
        }
        let ndisk = u32_at(&mut at)?;
        let mut disk = Vec::with_capacity(room(at, ndisk));
        for _ in 0..ndisk {
            let node = u32_at(&mut at)? as usize;
            let nth_write = u64_at(&mut at)?;
            // The pad byte of `Fail` must be zero: a plan has one encoding.
            let fault = match take(&mut at, 2)? {
                [0, 0] => WriteFault::Fail,
                &[1, frac] => WriteFault::Torn(frac),
                _ => return None,
            };
            disk.push(DiskFault {
                node,
                nth_write,
                fault,
            });
        }
        // Probabilities travel as raw bits, so the codec is byte-exact and
        // replay never re-parses a float. cruz-lint: allow(float-in-sim)
        let drop = f64::from_bits(u64_at(&mut at)?);
        let duplicate = f64::from_bits(u64_at(&mut at)?); // cruz-lint: allow(float-in-sim)
        let reorder = f64::from_bits(u64_at(&mut at)?); // cruz-lint: allow(float-in-sim)
        let delay = SimDuration::from_nanos(u64_at(&mut at)?);
        let mut replicas = Vec::new();
        if version >= 2 {
            let nrep = u32_at(&mut at)?;
            for _ in 0..nrep {
                let replica = u32_at(&mut at)? as usize;
                let point = StoreOpPoint::from_tag(take(&mut at, 1)?[0])?;
                let nth = u32_at(&mut at)?;
                let kind = match take(&mut at, 2)? {
                    [0, 0] => ReplicaFaultKind::Crash,
                    &[1, frac] => ReplicaFaultKind::TornLog(frac),
                    &[2, frac] => ReplicaFaultKind::TornChunk(frac),
                    _ => return None,
                };
                replicas.push(ReplicaFault {
                    replica,
                    point,
                    nth,
                    kind,
                });
            }
        }
        if at != bytes.len() {
            return None;
        }
        Some(FaultPlan {
            seed,
            crashes,
            disk,
            frames: FrameFaults {
                drop,
                duplicate,
                reorder,
                delay,
            },
            replicas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(7, 4);
        let b = FaultPlan::random(7, 4);
        assert_eq!(a, b);
        // Different seeds should eventually differ.
        assert!((0..32).any(|s| FaultPlan::random(s, 4) != a));
    }

    #[test]
    fn encode_decode_round_trips_byte_exactly() {
        for seed in 0..24 {
            let plan = FaultPlan::random(seed, 6);
            let bytes = plan.encode();
            let back = FaultPlan::decode(&bytes).expect("decodes");
            assert_eq!(back, plan);
            assert_eq!(back.encode(), bytes, "re-encode is byte-identical");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FaultPlan::decode(b"").is_none());
        assert!(FaultPlan::decode(b"CRZX").is_none());
        let mut ok = FaultPlan::none(1).encode();
        ok.push(0); // trailing junk
        assert!(FaultPlan::decode(&ok).is_none());
        ok.pop();
        ok.pop();
        assert!(FaultPlan::decode(&ok).is_none(), "truncated");
    }

    #[test]
    fn corrupt_counts_never_preallocate_past_the_input() {
        // 18 bytes claiming u32::MAX crash records, then the same lie in
        // the disk-fault count: both must fail to decode, not abort on a
        // multi-gigabyte reservation.
        let mut crashes = MAGIC.to_vec();
        crashes.extend_from_slice(&VERSION.to_le_bytes());
        crashes.extend_from_slice(&7u64.to_le_bytes());
        crashes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(crashes.len(), 18);
        assert!(FaultPlan::decode(&crashes).is_none());
        let mut disks = crashes[..14].to_vec();
        disks.extend_from_slice(&0u32.to_le_bytes());
        disks.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(FaultPlan::decode(&disks).is_none());
    }

    #[test]
    fn hand_built_plan_round_trips() {
        let plan = FaultPlan {
            seed: 99,
            crashes: vec![CrashFault {
                node: 1,
                point: ProtocolPoint::CowDrain,
                nth: 2,
            }],
            disk: vec![
                DiskFault {
                    node: 0,
                    nth_write: 3,
                    fault: WriteFault::Fail,
                },
                DiskFault {
                    node: 1,
                    nth_write: 0,
                    fault: WriteFault::Torn(128),
                },
            ],
            frames: FrameFaults {
                drop: 0.01,
                duplicate: 0.005,
                reorder: 0.0,
                delay: SimDuration::from_micros(250),
            },
            replicas: vec![
                ReplicaFault {
                    replica: 1,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::TornLog(40),
                },
                ReplicaFault {
                    replica: 2,
                    point: StoreOpPoint::Commit,
                    nth: 3,
                    kind: ReplicaFaultKind::Crash,
                },
                ReplicaFault {
                    replica: 0,
                    point: StoreOpPoint::Gc,
                    nth: 1,
                    kind: ReplicaFaultKind::TornChunk(200),
                },
            ],
        };
        assert_eq!(FaultPlan::decode(&plan.encode()), Some(plan));
    }

    #[test]
    fn version_1_bytes_still_decode() {
        // A v2 encoding with an empty replica section is the v1 layout
        // plus a zero count: strip the count and stamp version 1 to get
        // exactly what an old encoder produced.
        let plan = FaultPlan::random(11, 4);
        assert!(plan.replicas.is_empty());
        let mut v1 = plan.encode();
        v1.truncate(v1.len() - 4);
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(FaultPlan::decode(&v1), Some(plan));
        // But a truncated or junk-extended v1 body still fails.
        let mut junk = v1.clone();
        junk.push(0);
        assert!(FaultPlan::decode(&junk).is_none());
        junk.pop();
        junk.pop();
        assert!(FaultPlan::decode(&junk).is_none());
    }

    #[test]
    fn non_zero_pad_bytes_are_rejected() {
        let mut plan = FaultPlan::none(3);
        plan.disk.push(DiskFault {
            node: 0,
            nth_write: 1,
            fault: WriteFault::Fail,
        });
        plan.replicas.push(ReplicaFault {
            replica: 1,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::Crash,
        });
        let bytes = plan.encode();
        assert_eq!(FaultPlan::decode(&bytes), Some(plan));
        // The disk fault's pad byte follows the header, seed, two counts
        // and the record's node, write ordinal and tag; the replica
        // fault's is the last byte.
        let disk_pad = 4 + 2 + 8 + 4 + 4 + 4 + 8 + 1;
        for pad in [disk_pad, bytes.len() - 1] {
            assert_eq!(bytes[pad], 0);
            let mut bad = bytes.clone();
            bad[pad] = 7;
            assert!(FaultPlan::decode(&bad).is_none(), "pad byte at {pad}");
        }
    }

    /// A random plan with `replicas` faults added, so every record kind
    /// (and both zero pads) can appear.
    fn plan_with(seed: u64, nodes: usize, replicas: &[(usize, u8, u32, u8, u8)]) -> FaultPlan {
        let mut plan = FaultPlan::random(seed, nodes);
        for &(replica, point, nth, kind, frac) in replicas {
            plan.replicas.push(ReplicaFault {
                replica,
                point: StoreOpPoint::ALL[usize::from(point % 4)],
                nth,
                kind: match kind % 3 {
                    0 => ReplicaFaultKind::Crash,
                    1 => ReplicaFaultKind::TornLog(frac),
                    _ => ReplicaFaultKind::TornChunk(frac),
                },
            });
        }
        plan
    }

    /// The decoder contract: `bytes` is rejected, or is a version-1 plan
    /// (which re-encodes as version 2), or re-encodes to exactly itself.
    fn canonical(bytes: &[u8]) -> bool {
        FaultPlan::decode(bytes)
            .is_none_or(|plan| bytes.get(4..6) == Some(&[1, 0]) || plan.encode() == bytes)
    }

    // A plan is stored next to a trace and replayed from its bytes, which
    // may be torn: arbitrary bytes never panic, and a damaged plan is
    // rejected or is the exact encoding of what it decodes to.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn plan_decoder_never_panics_on_arbitrary_bytes(
            junk in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            FaultPlan::decode(&junk);
            let mut headed = MAGIC.to_vec();
            headed.extend_from_slice(&VERSION.to_le_bytes());
            headed.extend_from_slice(&junk);
            prop_assert!(canonical(&headed));
        }

        #[test]
        fn damaged_plans_are_rejected_or_canonical(
            seed in any::<u64>(),
            nodes in 1usize..6,
            replicas in proptest::collection::vec(
                (0usize..4, any::<u8>(), 0u32..3, any::<u8>(), any::<u8>()),
                0..3,
            ),
            at in any::<usize>(),
            bit in 0u8..8,
            byte in any::<u8>(),
            keep in any::<usize>(),
            extra in proptest::collection::vec(any::<u8>(), 1..8),
        ) {
            let plan = plan_with(seed, nodes, &replicas);
            let bytes = plan.encode();
            prop_assert!(canonical(&bytes));
            let at = at % bytes.len();
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            prop_assert!(canonical(&flipped), "bit {bit} of byte {at} flipped");
            let mut replaced = bytes.clone();
            replaced[at] = byte;
            prop_assert!(canonical(&replaced), "byte {at} set to {byte}");
            prop_assert!(canonical(&bytes[..keep % bytes.len()]), "truncation");
            prop_assert!(canonical(&[&bytes[..], &extra].concat()), "extension");
        }
    }
}
