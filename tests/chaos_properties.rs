//! Chaos suite: seeded fault plans against the self-healing world.
//!
//! Four system-level properties must hold under *any* plan drawn from
//! [`FaultPlan::random`]:
//!
//! (a) no committed epoch is ever lost or made unreadable;
//! (b) a recovered job restarts from a committed epoch whose stored images
//!     are byte-identical to what was captured when the epoch committed;
//! (c) the world always quiesces — every started operation settles instead
//!     of hanging forever;
//! (d) at quiescence, placements and Zap agree: a placement's pod id names
//!     a pod its live node holds, and each pod a live node holds is named
//!     by exactly one placement.
//!
//! On top of the properties, pinned-plan tests exercise the acceptance
//! scenario (crash mid-checkpoint → heartbeat detection → automatic restart
//! from the last committed epoch) and the coordinator-failover path, and a
//! replay test proves the same fault-plan seed reproduces the identical
//! event trace.

use std::collections::BTreeMap;

use cruz_repro::cluster::{
    CkptOptions, ClusterParams, CrashFault, FaultPlan, JobSpec, PodSpec, ProtocolPoint,
    RecoveryCause, RecoveryOutcome, StoreConfig, World,
};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::workloads::pingpong::PingPongConfig;
use cruz_repro::zap::image::MacMode;
use proptest::prelude::*;

mod common;
use common::placement_disagreement;

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

/// Six nodes, chunked store, recovery manager on.
fn chaos_params(seed: u64) -> ClusterParams {
    let mut p = ClusterParams {
        seed,
        store: StoreConfig::dedup(),
        ..ClusterParams::default()
    };
    p.recovery.enabled = true;
    p
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every pod image in every currently committed epoch.
fn committed_digests(w: &World, job: &str) -> BTreeMap<(u64, String), u64> {
    let store = w.store(job);
    let mut out = BTreeMap::new();
    for e in store.committed_epochs() {
        for pod in store.pods_in_epoch(e) {
            if let Some(img) = store.get_image(&pod, e) {
                out.insert((e, pod), fnv(&img));
            }
        }
    }
    out
}

/// The ISSUE acceptance scenario: a node crashed mid-checkpoint by a seeded
/// plan is detected by heartbeat timeout and the job automatically restarts
/// from the last committed epoch with byte-identical stored images.
#[test]
fn crash_mid_checkpoint_heals_from_last_committed_epoch() {
    let mut w = World::new(6, chaos_params(11));
    w.launch_job(&pingpong_spec(1200)).unwrap();
    w.run_for(SimDuration::from_millis(2));

    // One clean committed epoch before any fault can strike.
    let op1 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op1, 20_000_000));
    assert!(w.store("pp").is_committed(op1));
    let before = committed_digests(&w, "pp");
    assert!(!before.is_empty());

    // Kill the client's node the moment its local save completes but before
    // the image is durable — the window the two-phase commit exists to cover.
    let mut plan = FaultPlan::none(5);
    plan.crashes.push(CrashFault {
        node: 1,
        point: ProtocolPoint::LocalDoneToDurable,
        nth: 0,
    });
    w.install_fault_plan(&plan);
    let op2 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    let healed = w.run_until_pred(60_000_000, |w| {
        w.recovery_reports()
            .iter()
            .any(|r| r.outcome == RecoveryOutcome::Recovered)
    });
    assert!(healed, "heartbeat timeout must detect the crash and heal");

    let r = w
        .recovery_reports()
        .iter()
        .find(|r| r.outcome == RecoveryOutcome::Recovered)
        .unwrap()
        .clone();
    assert_eq!(r.cause, RecoveryCause::HeartbeatTimeout);
    assert!(r.dead_nodes.contains(&1));
    assert_eq!(r.rollback_epoch, Some(op1));
    assert!(r.aborted_ops.contains(&op2));
    assert!(r.detection_latency() > SimDuration::ZERO);
    assert!(r.mttr().is_some());
    assert!(r.mttr().unwrap() >= r.detection_latency());

    // The interrupted epoch never became visible; committed state is
    // byte-identical to what was captured before the fault; nothing the
    // dead node half-wrote survives as an orphan chunk.
    assert!(!w.store("pp").is_committed(op2));
    assert_eq!(committed_digests(&w, "pp"), before);
    assert!(w.store("pp").orphan_chunks().is_empty());

    // And the application, re-homed onto a spare, still finishes clean.
    assert!(w.run_until_pred(400_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    assert_ne!(w.job("pp").unwrap().placement("client").unwrap().node, 1);
}

/// Killing the coordinator node re-homes the control plane: the next
/// heartbeat round notices, picks a new coordinator, and later operations
/// run from the new home while the application never notices.
#[test]
fn dead_coordinator_fails_over_and_the_job_completes() {
    let mut w = World::new(6, chaos_params(3));
    w.launch_job(&pingpong_spec(600)).unwrap();
    w.run_for(SimDuration::from_millis(1));
    w.crash_node(4);
    let moved = w.run_until_pred(50_000_000, |w| {
        w.recovery_reports()
            .iter()
            .any(|r| r.cause == RecoveryCause::CoordinatorFailover)
    });
    assert!(moved, "heartbeat must notice the dead coordinator");
    let new_coord = w.job("pp").unwrap().coordinator_node;
    assert_ne!(new_coord, 4);
    assert!(w.node_alive(new_coord));

    // The re-homed control plane still drives a full checkpoint.
    let op = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op, 20_000_000));
    assert!(w.store("pp").is_committed(op));
    assert!(w.run_until_pred(200_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

/// One full chaos run: clean baseline checkpoint, random plan installed,
/// periodic checkpoints, fixed sim horizon. Returns the replay fingerprint.
fn chaos_run(world_seed: u64, plan_seed: u64) -> (u64, u64) {
    let mut w = World::new(6, chaos_params(world_seed));
    w.launch_job(&pingpong_spec(500)).unwrap();
    w.run_for(SimDuration::from_millis(2));
    let op = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op, 20_000_000));
    w.install_fault_plan(&FaultPlan::random(plan_seed, 2));
    w.schedule_periodic_checkpoints("pp", SimDuration::from_millis(4), CkptOptions::default())
        .unwrap();
    w.run_for(SimDuration::from_millis(120));
    (w.trace_digest(), w.events_processed())
}

/// The same world seed plus the same fault-plan seed reproduces the
/// identical event trace, byte for byte, through the encode/decode path.
#[test]
fn same_fault_plan_seed_replays_the_identical_trace() {
    for (ws, ps) in [(1u64, 7u64), (2, 19), (9, 104)] {
        assert_eq!(chaos_run(ws, ps), chaos_run(ws, ps), "seeds {ws}/{ps}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Properties (a) through (d) under arbitrary seeded fault plans.
    #[test]
    fn chaos_never_loses_committed_state(
        world_seed in 0u64..1_000,
        plan_seed in 0u64..1_000,
    ) {
        let mut w = World::new(6, chaos_params(world_seed));
        w.launch_job(&pingpong_spec(600)).unwrap();
        w.run_for(SimDuration::from_millis(2));

        // A clean committed baseline before any fault can strike.
        let op = w.start_checkpoint("pp", ProtocolMode::Blocking, None).unwrap();
        prop_assert!(w.run_until_op(op, 20_000_000));
        prop_assert!(w.store("pp").is_committed(op));

        w.install_fault_plan(&FaultPlan::random(plan_seed, 2));
        w.schedule_periodic_checkpoints("pp", SimDuration::from_millis(4), CkptOptions::default()).unwrap();

        // Drive the run, recording each epoch's digests the first time it
        // is seen committed.
        let mut recorded: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for _ in 0..120 {
            w.run_for(SimDuration::from_millis(2));
            for (k, d) in committed_digests(&w, "pp") {
                recorded.entry(k).or_insert(d);
            }
            if w.job_finished("pp") {
                break;
            }
        }

        // (c) the world quiesces: every started operation settles.
        prop_assert!(
            w.run_until_pred(50_000_000, |w| !w.job_busy("pp")),
            "operations must settle (crash/timeout/abort), not hang",
        );
        // (d) no placement names a pod that is gone, and no pod is stray.
        prop_assert_eq!(placement_disagreement(&w, "pp"), None);

        // (a) every epoch ever seen committed is either pruned away whole
        // or still committed, readable, and byte-identical.
        let store = w.store("pp");
        for ((e, pod), d) in &recorded {
            if !store.is_committed(*e) {
                continue; // pruned by a later commit
            }
            let img = store.get_image(pod, *e);
            prop_assert!(img.is_some(), "committed epoch {} lost pod {}", e, pod);
            prop_assert_eq!(
                fnv(&img.unwrap()), *d,
                "committed epoch {} pod {} changed under faults", e, pod,
            );
        }

        // (b) every completed recovery rolled back to a committed epoch
        // whose stored images match the digests recorded at commit time.
        for r in w.recovery_reports() {
            if r.outcome != RecoveryOutcome::Recovered
                || r.cause != RecoveryCause::HeartbeatTimeout
            {
                continue;
            }
            let e = r.rollback_epoch.expect("recovered pass has a rollback epoch");
            for pod in store.pods_in_epoch(e) {
                let img = store.get_image(&pod, e);
                prop_assert!(img.is_some(), "rollback epoch {} unreadable", e);
                if let Some(d) = recorded.get(&(e, pod.clone())) {
                    prop_assert_eq!(fnv(&img.unwrap()), *d);
                }
            }
        }

        // Abort paths garbage-collect torn prefixes and half-written
        // epochs: nothing unreachable lingers in the chunk pool.
        prop_assert!(store.orphan_chunks().is_empty());
    }
}
