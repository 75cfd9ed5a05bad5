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

use cluster::{
    CkptOptions, ClusterParams, CrashFault, FaultPlan, JobSpec, PodSpec, ProtocolPoint,
    RecoveryOutcome, RecoveryReport, ReplicaFault, ReplicaFaultKind, StoreConfig, StoreOpPoint,
    World,
};
use cruz::digest;
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simnet::addr::{IpAddr, MacAddr};
use workloads::pingpong::PingPongConfig;
use zap::image::MacMode;

/// One replication-factor operating point.
#[derive(Debug, Clone)]
pub struct ReplicationRow {
    /// Replication factor k of the checkpoint store.
    pub k: usize,
    /// Replica stores killed by the plan (always k − 1).
    pub replicas_killed: usize,
    /// The job healed and the rollback epoch's images survived unchanged.
    pub restore_ok: bool,
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

fn pingpong_spec(rounds: u64) -> JobSpec {
    let cfg = PingPongConfig {
        server_ip: IpAddr::from_octets([10, 0, 1, 1]),
        port: 7300,
        rounds,
    };
    JobSpec {
        name: "pp".into(),
        coordinator_node: 4,
        pods: vec![
            PodSpec {
                name: "server".into(),
                ip: cfg.server_ip,
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2001)),
                node: 0,
                programs: vec![cfg.server_program()],
            },
            PodSpec {
                name: "client".into(),
                ip: IpAddr::from_octets([10, 0, 1, 2]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2002)),
                node: 1,
                programs: vec![cfg.client_program()],
            },
        ],
    }
}

fn replicated_params(k: usize, seed: u64) -> ClusterParams {
    let mut p = ClusterParams {
        seed,
        store: StoreConfig {
            replicas: k,
            ..StoreConfig::dedup()
        },
        ..ClusterParams::default()
    };
    p.recovery.enabled = true;
    p
}

/// Digest over every pod image of one committed epoch, in pod order.
fn epoch_digest(w: &World, job: &str, epoch: u64) -> u64 {
    let store = w.store(job);
    let mut h = digest::OFFSET;
    for pod in store.pods_in_epoch(epoch) {
        h = digest::fold(h, pod.as_bytes());
        if let Some(img) = store.get_image(&pod, epoch) {
            h = digest::fold(h, &img);
        }
    }
    h
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
    let mut w = World::new(6, replicated_params(k, seed));
    w.launch_job(&pingpong_spec(4000)).expect("launch");
    w.run_for(SimDuration::from_millis(2));

    let op1 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .expect("baseline checkpoint");
    assert!(w.run_until_op(op1, 50_000_000), "baseline ckpt stalls");
    assert!(w.store("pp").is_committed(op1));
    let digest_before = epoch_digest(&w, "pp", op1);

    let mut plan = FaultPlan::none(seed);
    plan.crashes.push(CrashFault {
        node: 1,
        point: ProtocolPoint::LocalDoneToDurable,
        nth: 0,
    });
    plan.replicas = kill_faults(k);
    let replicas_killed = plan.replicas.len();
    // Round-trip through the wire form: the CRZF v2 replica section must
    // drive the run, not just the in-memory value.
    let plan = FaultPlan::decode(&plan.encode()).expect("plan round-trip");
    w.install_fault_plan(&plan);

    let op2 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .expect("faulted checkpoint");
    let healed = w.run_until_pred(200_000_000, |w| {
        w.recovery_reports()
            .iter()
            .any(|r| r.outcome == RecoveryOutcome::Recovered)
    });
    assert!(healed, "job not healed at k = {k}");

    let r: RecoveryReport = w
        .recovery_reports()
        .iter()
        .find(|r| r.outcome == RecoveryOutcome::Recovered)
        .expect("recovered report")
        .clone();
    assert_eq!(r.rollback_epoch, Some(op1), "rolled back past the commit");
    assert!(
        !w.store("pp").is_committed(op2),
        "torn epoch became visible"
    );
    let digest_after = epoch_digest(&w, "pp", op1);
    assert_eq!(digest_before, digest_after, "committed images disturbed");
    assert!(w.store("pp").orphan_chunks().is_empty(), "orphans leaked");
    if k > 1 {
        let store = w.store("pp");
        let d0 = store.tree_digest(0);
        assert!(
            (1..k).all(|rep| store.tree_digest(rep) == d0),
            "replicas diverged after the heal at k = {k}"
        );
    }

    ReplicationRow {
        k,
        replicas_killed,
        restore_ok: true,
        detection: r.detection_latency(),
        mttr: r.mttr().expect("recovered pass has an MTTR"),
        scrubbed: r.scrubbed_replicas.len(),
        stored_bytes: store_footprint(&w),
        image_digest: digest_after,
    }
}

/// Sweeps the replication factor (same seed each point so only k changes).
pub fn run_replication_sweep(ks: &[usize], seed: u64) -> Vec<ReplicationRow> {
    ks.iter().map(|&k| run_replication_point(k, seed)).collect()
}

/// Replays one pinned replica-kill chaos scenario twice at k = 3 and
/// returns the two trace fingerprints `(digest, events)` — identical when
/// the replica fault plane is deterministic. The random plan is augmented
/// with seeded replica faults so log tears and store crashes mix with the
/// node/disk/frame chaos.
pub fn replica_chaos_fingerprints(world_seed: u64, plan_seed: u64) -> ((u64, u64), (u64, u64)) {
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
        let plan = FaultPlan::decode(&plan.encode()).expect("plan round-trip");
        w.install_fault_plan(&plan);
        w.schedule_periodic_checkpoints("pp", SimDuration::from_millis(4), CkptOptions::default())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dead_replicas_still_restore_byte_identically() {
        let rows = run_replication_sweep(&[1, 3], 7);
        for r in &rows {
            assert!(r.restore_ok, "k = {} failed to restore", r.k);
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
