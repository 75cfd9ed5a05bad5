//! The recovery ablation (EXPERIMENTS.md E16): detection latency and MTTR
//! of the self-healing manager as a function of the heartbeat interval,
//! plus the seeded chaos replay its tests pin.
//!
//! The scenario is the acceptance case of the robustness PR: a pingpong
//! job takes one clean committed checkpoint, then a seeded [`FaultPlan`]
//! kills the client's node the moment its second local save completes —
//! inside the window the two-phase commit exists to cover. The heartbeat
//! plane must notice, roll the job back to the committed epoch, and
//! restart it on a spare; the sweep reports how detection and repair time
//! scale with the heartbeat interval.

use cluster::{
    ClusterParams, CrashFault, FaultPlan, JobSpec, PodSpec, ProtocolPoint, RecoveryOutcome,
    RecoveryReport, StoreConfig, World,
};
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simnet::addr::{IpAddr, MacAddr};
use workloads::pingpong::PingPongConfig;
use zap::image::MacMode;

use crate::util::epoch_digest;

/// One heartbeat-interval operating point of the sweep.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Heartbeat interval driven through `RecoveryParams`.
    pub heartbeat_interval: SimDuration,
    /// Heartbeat timeout used (half the interval).
    pub heartbeat_timeout: SimDuration,
    /// Crash-to-detection latency of the recovery pass.
    pub detection: SimDuration,
    /// Crash-to-repair time (restart completed, pods running again).
    pub mttr: SimDuration,
    /// Committed epoch the job was rolled back to.
    pub rollback_epoch: u64,
    /// FNV digest over the rollback epoch's stored pod images, in pod
    /// order — identical across operating points when rollback is exact.
    pub image_digest: u64,
}

/// The pingpong job both fault benches crash: server on node 0, client
/// on node 1, coordinator on node 4.
pub(crate) fn pingpong_spec(rounds: u64) -> JobSpec {
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

/// The cluster both fault benches run: the dedup store and the recovery
/// manager on.
pub(crate) fn chaos_params(seed: u64) -> ClusterParams {
    let mut p = ClusterParams {
        seed,
        store: StoreConfig::dedup(),
        ..ClusterParams::default()
    };
    p.recovery.enabled = true;
    p
}

/// The scenario both fault benches share: the pingpong job takes one clean
/// committed checkpoint, then `plan`, plus a crash of the client's node
/// between its next local save and durability, strikes the next one. Runs
/// until the recovery manager heals the job, and returns the world, the
/// recovered pass, and the committed epoch with its image digest. Panics
/// (the bench's check) if the job is not healed or committed state is
/// disturbed.
pub(crate) fn crash_and_heal(
    params: ClusterParams,
    mut plan: FaultPlan,
) -> (World, RecoveryReport, u64, u64) {
    let mut w = World::new(6, params);
    w.launch_job(&pingpong_spec(4000)).expect("launch");
    w.run_for(SimDuration::from_millis(2));

    let op1 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .expect("baseline checkpoint");
    assert!(w.run_until_op(op1, 50_000_000), "baseline ckpt stalls");
    assert!(w.store("pp").is_committed(op1));
    let digest_before = epoch_digest(&w, "pp", op1);

    plan.crashes.push(CrashFault {
        node: 1,
        point: ProtocolPoint::LocalDoneToDurable,
        nth: 0,
    });
    w.install_fault_plan(&plan);
    let op2 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .expect("faulted checkpoint");
    let recovered = |w: &World| {
        let mut reports = w.recovery_reports().iter();
        reports
            .find(|r| r.outcome == RecoveryOutcome::Recovered)
            .cloned()
    };
    assert!(
        w.run_until_pred(200_000_000, |w| recovered(w).is_some()),
        "job not healed"
    );

    let r = recovered(&w).expect("recovered report");
    assert_eq!(r.rollback_epoch, Some(op1), "rolled back past the commit");
    assert!(r.aborted_ops.contains(&op2));
    assert!(
        !w.store("pp").is_committed(op2),
        "torn epoch became visible"
    );
    let digest_after = epoch_digest(&w, "pp", op1);
    assert_eq!(digest_before, digest_after, "committed images disturbed");
    assert!(w.store("pp").orphan_chunks().is_empty(), "orphans leaked");
    (w, r, op1, digest_after)
}

/// Runs the crash-mid-checkpoint scenario at one heartbeat interval and
/// returns the measured recovery pass.
pub fn run_recovery_point(heartbeat_interval: SimDuration, seed: u64) -> RecoveryRow {
    let mut params = chaos_params(seed);
    let heartbeat_timeout = SimDuration::from_nanos(heartbeat_interval.as_nanos() / 2);
    params.recovery.heartbeat_interval = heartbeat_interval;
    params.recovery.heartbeat_timeout = heartbeat_timeout;
    let (_, r, rollback_epoch, image_digest) = crash_and_heal(params, FaultPlan::none(seed));
    RecoveryRow {
        heartbeat_interval,
        heartbeat_timeout,
        detection: r.detection_latency(),
        mttr: r.mttr().expect("recovered pass has an MTTR"),
        rollback_epoch,
        image_digest,
    }
}

/// Sweeps the heartbeat interval over `intervals` (same seed each point so
/// only the detector changes) and returns one row per operating point.
pub fn run_recovery_sweep(intervals: &[SimDuration], seed: u64) -> Vec<RecoveryRow> {
    intervals
        .iter()
        .map(|&hb| run_recovery_point(hb, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::CkptOptions;

    /// Replays one pinned chaos scenario twice and returns the two trace
    /// fingerprints `(digest, events)` — identical when the fault plane is
    /// deterministic. Also asserts the world quiesces and leaks no orphans.
    fn replay_fingerprints(world_seed: u64, plan_seed: u64) -> ((u64, u64), (u64, u64)) {
        let run = || {
            let mut w = World::new(6, chaos_params(world_seed));
            w.launch_job(&pingpong_spec(500)).expect("launch");
            w.run_for(SimDuration::from_millis(2));
            let op = w
                .start_checkpoint("pp", ProtocolMode::Blocking, None)
                .expect("baseline checkpoint");
            assert!(w.run_until_op(op, 50_000_000));
            w.install_fault_plan(&FaultPlan::random(plan_seed, 2));
            w.schedule_periodic_checkpoints(
                "pp",
                SimDuration::from_millis(4),
                CkptOptions::default(),
            )
            .expect("periodic checkpoints");
            w.run_for(SimDuration::from_millis(120));
            assert!(
                w.run_until_pred(50_000_000, |w| !w.job_busy("pp")),
                "world failed to quiesce under plan seed {plan_seed}"
            );
            assert!(w.store("pp").orphan_chunks().is_empty(), "orphans leaked");
            (w.trace_digest(), w.events_processed())
        };
        (run(), run())
    }

    #[test]
    fn tighter_heartbeats_detect_faster() {
        let rows = run_recovery_sweep(
            &[SimDuration::from_millis(5), SimDuration::from_millis(40)],
            7,
        );
        assert!(rows[0].detection < rows[1].detection);
        assert!(rows[0].mttr < rows[1].mttr);
        assert_eq!(rows[0].rollback_epoch, rows[1].rollback_epoch);
        for r in &rows {
            // Detection takes at most one heartbeat round, and repair
            // starts at detection.
            assert!(
                r.detection
                    <= r.heartbeat_interval + r.heartbeat_timeout + SimDuration::from_millis(1),
                "detection {:?} exceeds one heartbeat round at interval {:?}",
                r.detection,
                r.heartbeat_interval,
            );
            assert!(r.mttr >= r.detection);
            // The rollback epoch's images, pinned since the recovery
            // manager landed: no later pass may move a byte of them.
            assert_eq!(r.image_digest, 0x44d8_8ab0_991c_9bd1);
        }
    }

    /// The chaos seeds `tests/golden_trace.rs` pins, replayed to
    /// quiescence: each replays byte-for-byte, ends with the job idle and
    /// leaks no chunk, and keeps its pinned fingerprint.
    #[test]
    fn pinned_replay_is_deterministic() {
        let pinned = [
            ((1, 7), (0x1d0b_8d9f_da6a_2bac, 1307)),
            ((2, 19), (0xf426_042e_a724_fe71, 1259)),
            ((9, 104), (0xe610_7ea9_4911_c94b, 1542)),
        ];
        for ((world_seed, plan_seed), want) in pinned {
            let (a, b) = replay_fingerprints(world_seed, plan_seed);
            assert_eq!(a, b, "plan seed {plan_seed} (world {world_seed}) diverged");
            assert_eq!(a, want, "plan seed {plan_seed} (world {world_seed})");
        }
    }
}
