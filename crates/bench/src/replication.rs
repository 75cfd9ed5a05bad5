//! Replicated-store robustness bench (EXPERIMENTS.md E19): restore
//! success and MTTR when k−1 of k replica stores are lost mid-checkpoint,
//! and the storage bill replication pays (write amplification vs k).
//!
//! The scenario stacks the replica fault plane on top of the E16 recovery
//! case: a pingpong job takes one clean committed checkpoint, then a
//! seeded [`FaultPlan`] crashes the client's node in the durability window
//! *and* kills k−1 of the k replica stores at the same checkpoint's store
//! traffic — one cold crash, the rest mid-log-append torn writes. The
//! heartbeat plane must detect the node death, scrub/rebuild the lost
//! replicas from the surviving operation log, roll back to the committed
//! epoch, and restart the job — with restored images byte-identical at
//! every k.

use cluster::{ClusterParams, FaultPlan, ReplicaFault, ReplicaFaultKind, StoreOpPoint, World};
use des::SimDuration;

use crate::recovery::{chaos_params, crash_and_heal};

/// One replication-factor operating point.
#[derive(Debug, Clone)]
pub struct ReplicationRow {
    /// Replication factor k of the checkpoint store.
    pub k: usize,
    /// Replica stores killed by the plan (always k − 1).
    pub replicas_killed: usize,
    /// Crash-to-detection latency of the recovery pass.
    pub detection: SimDuration,
    /// Crash-to-repair time (restart completed, pods running again).
    pub mttr: SimDuration,
    /// Replica stores the pre-rollback scrub rebuilt.
    pub scrubbed: usize,
    /// Total bytes of checkpoint state on the shared filesystem after the
    /// heal: all k store trees plus the operation logs.
    pub stored_bytes: u64,
    /// FNV digest over the rollback epoch's restored pod images, read
    /// through the quorum path — identical across every k.
    pub image_digest: u64,
}

fn replicated_params(k: usize, seed: u64) -> ClusterParams {
    let mut p = chaos_params(seed);
    p.store.replicas = k;
    p
}

/// Total bytes of checkpoint state on the shared filesystem: every replica
/// store tree (`/ckpt`, `/repN`) plus the operation logs (`/replog`).
pub fn store_footprint(w: &World) -> u64 {
    ["/ckpt", "/rep"]
        .iter()
        .flat_map(|prefix| w.fs.list(prefix))
        .map(|path| w.fs.len_of(&path).unwrap_or(0))
        .sum()
}

/// The k−1 replica faults of the scenario: at the first put of the
/// faulted checkpoint, replica 0 stops cold and every other victim tears
/// its log append partway through. With k = 1 the list is empty — node
/// loss only.
pub fn kill_faults(k: usize) -> Vec<ReplicaFault> {
    (0..k.saturating_sub(1))
        .map(|r| ReplicaFault {
            replica: r,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: if r == 0 {
                ReplicaFaultKind::Crash
            } else {
                ReplicaFaultKind::TornLog(128)
            },
        })
        .collect()
}

/// Runs the crash-plus-replica-loss scenario at replication factor `k` and
/// returns the measured point. Panics (the bench's check) if the job is
/// not healed or committed state is disturbed.
pub fn run_replication_point(k: usize, seed: u64) -> ReplicationRow {
    let mut plan = FaultPlan::none(seed);
    plan.replicas = kill_faults(k);
    let replicas_killed = plan.replicas.len();
    let (w, r, _, image_digest) = crash_and_heal(replicated_params(k, seed), plan);
    let store = w.store("pp");
    let d0 = store.tree_digest(0);
    assert!(
        (1..k).all(|rep| store.tree_digest(rep) == d0),
        "replicas diverged after the heal at k = {k}"
    );

    ReplicationRow {
        k,
        replicas_killed,
        detection: r.detection_latency(),
        mttr: r.mttr().expect("recovered pass has an MTTR"),
        scrubbed: r.scrubbed_replicas.len(),
        stored_bytes: store_footprint(&w),
        image_digest,
    }
}

/// Sweeps the replication factor (same seed each point so only k changes).
pub fn run_replication_sweep(ks: &[usize], seed: u64) -> Vec<ReplicationRow> {
    ks.iter().map(|&k| run_replication_point(k, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::pingpong_spec;
    use cluster::CkptOptions;
    use cruz::proto::ProtocolMode;

    /// Replays one pinned replica-kill chaos scenario twice at k = 3 and
    /// returns the two trace fingerprints `(digest, events)` — identical when
    /// the replica fault plane is deterministic. The random plan is augmented
    /// with seeded replica faults so log tears and store crashes mix with the
    /// node/disk/frame chaos.
    fn replica_chaos_fingerprints(world_seed: u64, plan_seed: u64) -> ((u64, u64), (u64, u64)) {
        let run = || {
            let mut w = World::new(6, replicated_params(3, world_seed));
            w.launch_job(&pingpong_spec(500)).expect("launch");
            w.run_for(SimDuration::from_millis(2));
            let op = w
                .start_checkpoint("pp", ProtocolMode::Blocking, None)
                .expect("baseline checkpoint");
            assert!(w.run_until_op(op, 50_000_000));
            let mut plan = FaultPlan::random(plan_seed, 2);
            for i in 0..2usize {
                let s = plan_seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
                plan.replicas.push(ReplicaFault {
                    replica: (s % 3) as usize,
                    point: StoreOpPoint::ALL[(s / 3 % 4) as usize],
                    nth: (s / 16 % 3) as u32,
                    kind: match s / 64 % 3 {
                        0 => ReplicaFaultKind::Crash,
                        1 => ReplicaFaultKind::TornLog((s % 200) as u8 + 20),
                        _ => ReplicaFaultKind::TornChunk((s % 200) as u8 + 20),
                    },
                });
            }
            w.install_fault_plan(&plan);
            w.schedule_periodic_checkpoints(
                "pp",
                SimDuration::from_millis(4),
                CkptOptions::default(),
            )
            .expect("periodic checkpoints");
            w.run_for(SimDuration::from_millis(120));
            assert!(
                w.run_until_pred(50_000_000, |w| !w.job_busy("pp")),
                "world failed to quiesce under replica plan seed {plan_seed}"
            );
            // Whatever the chaos did, the committed prefix must still be
            // readable through the quorum path.
            let store = w.store("pp");
            if let Some(e) = store.latest_committed_epoch() {
                for pod in store.pods_in_epoch(e) {
                    assert!(
                        store.get_image(&pod, e).is_some(),
                        "committed epoch {e} unreadable under replica chaos"
                    );
                }
            }
            (w.trace_digest(), w.events_processed())
        };
        (run(), run())
    }

    #[test]
    fn two_dead_replicas_still_restore_byte_identically() {
        let rows = run_replication_sweep(&[1, 3], 7);
        for r in &rows {
            assert_eq!(r.replicas_killed, r.k - 1, "the plan must kill k-1");
            // The same rollback images as the unreplicated recovery case.
            assert_eq!(r.image_digest, 0x44d8_8ab0_991c_9bd1, "k = {}", r.k);
        }
        assert!(rows[1].scrubbed >= 2, "both dead replicas rebuilt");
        // k store trees plus k op logs. The recovery pass compacts each
        // log to the minimal self-contained form (≈ one tree's bytes), so
        // amplification sits at ≈2k — not the 2.4k+ an append-only log
        // retaining the discarded epoch's blobs would show.
        let amp = rows[1].stored_bytes as f64 / rows[0].stored_bytes as f64;
        assert!((5.8..6.4).contains(&amp), "write amplification {amp}");
    }

    /// The pinned replica-kill seeds at k = 3: each replays byte-for-byte
    /// and keeps its `(trace_digest, events)` fingerprint.
    #[test]
    fn pinned_replica_chaos_replays_identically() {
        let pinned = [
            ((1, 7), (0x1d0b_8d9f_da6a_2bac, 1307)),
            ((2, 19), (0xf426_042e_a724_fe71, 1259)),
            ((9, 104), (0xe610_7ea9_4911_c94b, 1542)),
        ];
        for ((world_seed, plan_seed), want) in pinned {
            let (a, b) = replica_chaos_fingerprints(world_seed, plan_seed);
            assert_eq!(a, b, "plan seed {plan_seed} (world {world_seed}) diverged");
            assert_eq!(a, want, "plan seed {plan_seed} (world {world_seed})");
        }
    }
}
