//! The twin-carrier property: one protocol engine, driven once on the
//! deterministic sim carrier and once on the loopback carrier (real UDP
//! sockets, wall clock), must restore **byte-identical** images for the
//! same pinned workload, in every checkpoint configuration.
//!
//! The workload runs to completion before capture on both carriers, so
//! its image bytes are independent of *when* the capture happened — the
//! only thing the two carriers can legitimately disagree on is timing,
//! and the digest deliberately excludes it.
//!
//! `SWEEP` is a recorded-seed table: every row names its world seed and
//! its configuration, and every row restores the digest recorded in
//! `RECORDED_DIGEST` (the capture path, protocol and store layout change
//! how the image travels, never its bytes). A row that fails replays
//! exactly by its seed.
//!
//! The net-carrier halves probe `loopback_available()` first and skip
//! cleanly where the sandbox forbids even `127.0.0.1` sockets.

use cruz_repro::cluster::{
    loopback_available, CkptCaptureMode, CkptOptions, ClusterParams, CycleReport, FaultPlan,
    JobSpec, PodSpec, RecoveryOutcome, ReplicaFault, ReplicaFaultKind, StoreConfig, StoreOpPoint,
    World,
};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::workloads::compute::ComputeConfig;
use cruz_repro::zap::image::MacMode;

const NODES: usize = 3;
const SPARE: usize = 1;

/// The pinned single-node workload: a compute pod on node 0, coordinator
/// on node 2, node 1 held as the restore spare.
fn twin_spec(outer: u64) -> JobSpec {
    let cfg = ComputeConfig { outer, inner: 50 };
    JobSpec {
        name: "twin".into(),
        coordinator_node: 2,
        pods: vec![PodSpec {
            name: "p0".into(),
            ip: IpAddr::from_octets([10, 0, 1, 9]),
            mac_mode: MacMode::Dedicated(MacAddr::from_index(3001)),
            node: 0,
            programs: vec![cfg.program()],
        }],
    }
}

/// One configuration of the sweep.
struct Row {
    seed: u64,
    mode: ProtocolMode,
    capture: CkptCaptureMode,
    /// Replication factor: 1 is `StoreConfig::default()`, 3 is
    /// `dedup_compress()` over three replicas.
    k: usize,
    /// Crash replica 1 at its first put (k = 3 rows only).
    replica_crash: bool,
}

/// The restored-image digest every row's sim cycle recorded.
const RECORDED_DIGEST: u64 = 0x47e1_b943_5358_52d2;

const B: ProtocolMode = ProtocolMode::Blocking;
const O: ProtocolMode = ProtocolMode::Optimized;
const STW: CkptCaptureMode = CkptCaptureMode::StopTheWorld;
const COW: CkptCaptureMode = CkptCaptureMode::Cow;

/// {blocking, optimized} × {stw, cow} × {k=1, k=3} × {no fault, replica 1
/// crashes at its first put (k=3 only)}: 12 configurations.
#[rustfmt::skip]
const SWEEP: [Row; 12] = [
    Row { seed: 0x7701, mode: B, capture: STW, k: 1, replica_crash: false },
    Row { seed: 0x7702, mode: B, capture: STW, k: 3, replica_crash: false },
    Row { seed: 0x7703, mode: B, capture: STW, k: 3, replica_crash: true  },
    Row { seed: 0x7704, mode: B, capture: COW, k: 1, replica_crash: false },
    Row { seed: 0x7705, mode: B, capture: COW, k: 3, replica_crash: false },
    Row { seed: 0x7706, mode: B, capture: COW, k: 3, replica_crash: true  },
    Row { seed: 0x7707, mode: O, capture: STW, k: 1, replica_crash: false },
    Row { seed: 0x7708, mode: O, capture: STW, k: 3, replica_crash: false },
    Row { seed: 0x7709, mode: O, capture: STW, k: 3, replica_crash: true  },
    Row { seed: 0x770a, mode: O, capture: COW, k: 1, replica_crash: false },
    Row { seed: 0x770b, mode: O, capture: COW, k: 3, replica_crash: false },
    Row { seed: 0x770c, mode: O, capture: COW, k: 3, replica_crash: true  },
];

fn params(row: &Row) -> ClusterParams {
    let store = match row.k {
        1 => StoreConfig::default(),
        k => StoreConfig {
            replicas: k,
            ..StoreConfig::dedup_compress()
        },
    };
    ClusterParams {
        seed: row.seed,
        store,
        ..ClusterParams::default()
    }
}

/// Runs the row's cycle on `world`, then checks the injected replica
/// crash really struck.
fn run(mut world: World, row: &Row) -> CycleReport {
    if row.replica_crash {
        let mut plan = FaultPlan::none(row.seed);
        plan.replicas.push(ReplicaFault {
            replica: 1,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::Crash,
        });
        world.install_fault_plan(&plan);
    }
    let opts = CkptOptions {
        mode: row.mode,
        capture: Some(row.capture),
        ..CkptOptions::default()
    };
    let rep = world
        .run_cycle(&twin_spec(40), SPARE, opts)
        .unwrap_or_else(|e| panic!("seed {:#x}: cycle failed: {e}", row.seed));
    let alive = world.store("twin").alive_replicas();
    let want: Vec<usize> = (0..row.k)
        .filter(|&r| !row.replica_crash || r != 1)
        .collect();
    assert_eq!(alive, want, "seed {:#x}: live replicas", row.seed);
    rep
}

#[test]
fn sim_and_net_backends_restore_identical_images() {
    let net_ok = loopback_available();
    if !net_ok {
        eprintln!("SKIPPED (net half): loopback UDP unavailable in this environment");
    }
    for row in &SWEEP {
        let sim = run(World::new(NODES, params(row)), row);
        assert_eq!(sim.restored_pods, vec!["p0".to_string()]);
        assert_eq!(
            sim.restored_digest, RECORDED_DIGEST,
            "seed {:#x}: sim digest drifted from the recorded one",
            row.seed
        );
        if !net_ok {
            continue;
        }
        let world = World::new_loopback(NODES, params(row)).expect("loopback carrier");
        let net = run(world, row);
        assert_eq!(net.epoch, sim.epoch, "seed {:#x}: epoch", row.seed);
        assert_eq!(net.restored_pods, sim.restored_pods);
        assert_eq!(
            net.restored_digest, sim.restored_digest,
            "seed {:#x}: carriers disagree on restored image bytes",
            row.seed
        );
    }
}

#[test]
fn sim_cycle_is_replayable() {
    for row in &SWEEP {
        let a = run(World::new(NODES, params(row)), row);
        let b = run(World::new(NODES, params(row)), row);
        assert_eq!(a, b, "seed {:#x}: the sim carrier must replay", row.seed);
    }
}

/// Failure detection over real sockets runs through `heartbeat.rs`, the
/// same detector the simulator pins: a never-ending job under recovery,
/// one committed checkpoint, then node 0 crashes; the heartbeat rounds
/// declare it dead and the job restarts on the spare.
#[test]
fn net_carrier_detects_a_crash_by_heartbeat() {
    if !loopback_available() {
        eprintln!("SKIPPED: loopback UDP unavailable in this environment");
        return;
    }
    let mut params = ClusterParams::default();
    params.recovery.enabled = true;
    // Wall-clock rounds, generous enough that a slow host never misses a
    // pong from a live node.
    params.recovery.heartbeat_interval = SimDuration::from_millis(50);
    params.recovery.heartbeat_timeout = SimDuration::from_millis(200);
    let mut w = World::new_loopback(NODES, params).expect("loopback carrier");
    let spec = twin_spec(1 << 40);
    w.launch_job(&spec).expect("launch");
    w.run_for(SimDuration::from_millis(20));
    let op = w
        .start_checkpoint("twin", ProtocolMode::Blocking, None)
        .expect("checkpoint starts");
    assert!(w.run_until_op(op, 10_000_000), "checkpoint finishes");
    assert_eq!(w.store("twin").latest_committed_epoch(), Some(op));
    assert!(
        w.recovery_reports().is_empty(),
        "no live node may be declared dead: {:?}",
        w.recovery_reports()
    );

    w.crash_node(0);
    let healed = w.run_until_pred(10_000_000, |w| {
        w.recovery_reports()
            .iter()
            .any(|r| r.outcome != RecoveryOutcome::InProgress)
    });
    assert!(healed, "recovery settles within the wall budget");
    let rep = &w.recovery_reports()[0];
    assert_eq!(rep.dead_nodes, vec![0]);
    assert_eq!(rep.rollback_epoch, Some(op));
    assert_eq!(rep.outcome, RecoveryOutcome::Recovered);
    assert!(rep.recovered_at.is_some());
    let p0 = w.job("twin").and_then(|j| j.placement("p0")).expect("p0");
    assert_eq!(p0.node, SPARE, "p0 restarted on the spare");
    assert!(p0.pod_id.is_some());
}
