//! Whole-stack smoke tests through the umbrella crate: the public API a
//! downstream user sees.

use cruz_repro::cluster::{ClusterParams, FaultPlan, JobSpec, PodSpec, RetryPolicy, World};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::workloads::pingpong::PingPongConfig;
use cruz_repro::workloads::slm::SlmConfig;
use cruz_repro::zap::image::MacMode;

fn pingpong_on(rounds: u64, coord: usize) -> (JobSpec, PingPongConfig) {
    let cfg = PingPongConfig {
        server_ip: IpAddr::from_octets([10, 0, 1, 1]),
        port: 7300,
        rounds,
    };
    let spec = JobSpec {
        name: "pp".into(),
        coordinator_node: coord,
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
                mac_mode: MacMode::SharedPhysical {
                    fake_mac: MacAddr::from_index(2002),
                },
                node: 1,
                programs: vec![cfg.client_program()],
            },
        ],
    };
    (spec, cfg)
}

#[test]
fn checkpoint_chain_then_restart_from_middle_epoch() {
    let params = ClusterParams::default();
    let mut w = World::new(5, params);
    let (spec, _) = pingpong_on(800, 4);
    w.launch_job(&spec).unwrap();

    // Take three checkpoints at different execution points.
    let mut epochs = Vec::new();
    for _ in 0..3 {
        w.run_for(SimDuration::from_millis(4));
        let op = w
            .start_checkpoint("pp", ProtocolMode::Blocking, None)
            .unwrap();
        assert!(w.run_until_op(op, 10_000_000));
        epochs.push(op);
    }
    // All three are committed and restorable.
    let store = w.store("pp");
    assert_eq!(store.committed_epochs(), epochs);

    // Crash and restart from the *middle* epoch, not the newest.
    w.crash_node(0);
    w.crash_node(1);
    let rs = w
        .start_restart(
            "pp",
            epochs[1],
            &[("server".into(), 2), ("client".into(), 3)],
            ProtocolMode::Blocking,
        )
        .unwrap();
    assert!(w.run_until_op(rs, 10_000_000));
    assert!(w.run_until_pred(50_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn double_restart_of_the_same_epoch() {
    // Restore, crash again, restore the same epoch again elsewhere: images
    // are immutable, so this must work repeatedly.
    let mut w = World::new(7, ClusterParams::default());
    let (spec, _) = pingpong_on(500, 6);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let ck = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck, 10_000_000));

    w.crash_node(0);
    w.crash_node(1);
    let r1 = w
        .start_restart(
            "pp",
            ck,
            &[("server".into(), 2), ("client".into(), 3)],
            ProtocolMode::Blocking,
        )
        .unwrap();
    assert!(w.run_until_op(r1, 10_000_000));
    w.run_for(SimDuration::from_millis(10));

    w.crash_node(2);
    w.crash_node(3);
    let r2 = w
        .start_restart(
            "pp",
            ck,
            &[("server".into(), 4), ("client".into(), 5)],
            ProtocolMode::Blocking,
        )
        .unwrap();
    assert!(w.run_until_op(r2, 10_000_000));
    assert!(w.run_until_pred(50_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn colocated_pods_checkpoint_together() {
    // Both pods of the job on ONE node: loopback TCP, one agent, the
    // degenerate single-agent protocol.
    let cfg = PingPongConfig {
        server_ip: IpAddr::from_octets([10, 0, 1, 1]),
        port: 7300,
        rounds: 300,
    };
    let spec = JobSpec {
        name: "pp".into(),
        coordinator_node: 1,
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
                node: 0,
                programs: vec![cfg.client_program()],
            },
        ],
    };
    let mut w = World::new(2, ClusterParams::default());
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(3));
    let op = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op, 10_000_000));
    assert!(w.run_until_pred(50_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn frame_loss_does_not_break_checkpointing() {
    // A lossy fabric: TCP absorbs the loss; the coordination datagrams are
    // unreliable, so give the checkpoint a generous completion budget but
    // require the *application* to stay correct regardless.
    let params = ClusterParams {
        ctl_retry: RetryPolicy {
            interval: SimDuration::from_millis(100),
            max_attempts: 16,
        },
        ..ClusterParams::default()
    };
    let mut plan = FaultPlan::none(params.seed);
    plan.frames.drop = 0.02;
    let mut w = World::new(3, params);
    w.install_fault_plan(&plan);
    let (spec, _) = pingpong_on(300, 2);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(10));
    let op = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    let completed = w.run_until_op(op, 20_000_000);
    // With retransmission the operation always completes, and the
    // application stays correct regardless of what the fabric dropped.
    assert!(completed, "retry-driven control plane completes under loss");
    assert!(w.run_until_pred(100_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    let _ = completed;
}

#[test]
fn slm_survives_migration_of_one_rank_mid_run() {
    let slm = SlmConfig {
        ranks: 3,
        state_bytes: 512 * 1024,
        iters: 60,
        compute_ns: 2_000_000,
        halo_bytes: 2048,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut w = World::new(5, ClusterParams::default());
    w.launch_job(&slm.job_spec("slm", 4)).unwrap();
    w.run_for(SimDuration::from_millis(40));
    // Move rank1 (which has live connections to both neighbours).
    w.migrate_pod("slm", "rank1", 3).unwrap();
    assert!(w.run_until_pred(100_000_000, |w| w.job_finished("slm")));
    for r in 0..3 {
        assert_eq!(w.pod_exit_code("slm", &format!("rank{r}"), 1), Some(0));
    }
    assert_eq!(w.job("slm").unwrap().placement("rank1").unwrap().node, 3);
}
