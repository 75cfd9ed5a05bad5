//! End-to-end distributed checkpoint-restart tests: live applications on a
//! multi-node simulated cluster, the full Fig. 2 protocol over the wire.

use cluster::{
    CkptCaptureMode, CkptOptions, ClusterError, ClusterParams, JobSpec, PodSpec, RecoveryParams,
    StoreConfig, World,
};
use cruz::error::CruzError;
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simnet::addr::{IpAddr, MacAddr};
use simos::disk::WriteFault;
use workloads::pingpong::PingPongConfig;
use workloads::slm::SlmConfig;
use workloads::ComputeConfig;
use zap::image::MacMode;

fn pingpong_job(
    rounds: u64,
    server_node: usize,
    client_node: usize,
    coord: usize,
) -> (JobSpec, PingPongConfig) {
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
                node: server_node,
                programs: vec![cfg.server_program()],
            },
            PodSpec {
                name: "client".into(),
                ip: IpAddr::from_octets([10, 0, 1, 2]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2002)),
                node: client_node,
                programs: vec![cfg.client_program()],
            },
        ],
    };
    (spec, cfg)
}

#[test]
fn cross_node_pingpong_completes() {
    let mut w = World::new(3, ClusterParams::default());
    let (spec, _) = pingpong_job(200, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    assert!(w.run_until_pred(5_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn checkpoint_mid_run_is_transparent() {
    let mut w = World::new(3, ClusterParams::default());
    let (spec, _) = pingpong_job(400, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    // Let the exchange get going, then checkpoint.
    w.run_for(SimDuration::from_millis(5));
    let op = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op, 5_000_000), "checkpoint completes");
    let report = w.op_report(op).unwrap();
    assert!(report.complete && !report.aborted);
    assert!(w.store("pp").is_committed(op));
    // The application never notices: every round-trip token checks out.
    assert!(w.run_until_pred(20_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn optimized_protocol_is_equally_transparent() {
    let mut w = World::new(3, ClusterParams::default());
    let (spec, _) = pingpong_job(400, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(5));
    let op = w
        .start_checkpoint("pp", ProtocolMode::Optimized, None)
        .unwrap();
    assert!(w.run_until_op(op, 5_000_000));
    assert!(w.run_until_pred(20_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn restart_on_new_nodes_after_crash() {
    let mut w = World::new(5, ClusterParams::default());
    let (spec, _) = pingpong_job(600, 0, 1, 4);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(8));
    let ck = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck, 5_000_000));
    // Progress continues after the checkpoint, then both app nodes die.
    w.run_for(SimDuration::from_millis(5));
    w.crash_node(0);
    w.crash_node(1);
    w.run_for(SimDuration::from_millis(5));
    // Restart the job from the committed epoch on fresh nodes 2 and 3.
    let rs = w
        .start_restart(
            "pp",
            ck,
            &[("server".into(), 2), ("client".into(), 3)],
            ProtocolMode::Blocking,
        )
        .unwrap();
    assert!(w.run_until_op(rs, 5_000_000), "restart completes");
    // The pods pick up exactly where the checkpoint cut them and finish
    // with all token checks intact.
    assert!(w.run_until_pred(30_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    // And they really run on the new nodes.
    let jr = w.job("pp").unwrap();
    assert_eq!(jr.placement("server").unwrap().node, 2);
    assert_eq!(jr.placement("client").unwrap().node, 3);
}

#[test]
fn repeated_checkpoints_of_slm_complete_and_app_finishes() {
    let slm = SlmConfig {
        ranks: 4,
        state_bytes: 256 * 1024,
        iters: 40,
        compute_ns: 2_000_000,
        halo_bytes: 4096,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut w = World::new(5, ClusterParams::default());
    let spec = slm.job_spec("slm", 4);
    w.launch_job(&spec).unwrap();
    let mut ops = Vec::new();
    for i in 0..3 {
        w.run_for(SimDuration::from_millis(25));
        let op = w
            .start_checkpoint("slm", ProtocolMode::Blocking, None)
            .unwrap();
        assert!(w.run_until_op(op, 10_000_000), "checkpoint {i} completes");
        ops.push(op);
    }
    assert!(w.run_until_pred(50_000_000, |w| w.job_finished("slm")));
    for r in 0..4 {
        assert_eq!(
            w.pod_exit_code("slm", &format!("rank{r}"), 1),
            Some(0),
            "rank {r} exits cleanly"
        );
    }
    // Every epoch committed; coordination overhead far below local save.
    for op in ops {
        let rep = w.op_report(op).unwrap();
        assert!(rep.complete);
        let latency = rep.stats.checkpoint_latency().unwrap();
        let overhead = rep.coordination_overhead().unwrap();
        assert!(
            overhead < latency,
            "overhead {overhead} < latency {latency}"
        );
        assert!(
            overhead < SimDuration::from_millis(2),
            "coordination is sub-millisecond, got {overhead}"
        );
    }
}

#[test]
fn message_complexity_is_linear() {
    // 2 messages out + 2 in per agent, regardless of communication pattern.
    let slm = SlmConfig {
        ranks: 4,
        state_bytes: 64 * 1024,
        iters: 200,
        compute_ns: 1_000_000,
        halo_bytes: 1024,
        port: 7100,
        state_step_bytes: 0,
    };
    // A snappy retransmission timer: the freeze drops in-flight halo frames,
    // and the ranks must recover and resume computing *within* the drain
    // window for the COW race to be exercised (with the default 200 ms
    // min-RTO they would idle until long after the drain).
    let tcp = simnet::tcp::TcpConfig {
        initial_rto: SimDuration::from_millis(2),
        min_rto: SimDuration::from_millis(1),
        ..simnet::tcp::TcpConfig::default()
    };
    let mut w = World::new(
        5,
        ClusterParams {
            tcp,
            ..ClusterParams::default()
        },
    );
    w.launch_job(&slm.job_spec("slm", 4)).unwrap();
    w.run_for(SimDuration::from_millis(10));
    let op = w
        .start_checkpoint("slm", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op, 10_000_000));
    let rep = w.op_report(op).unwrap();
    assert_eq!(rep.stats.msgs_sent, 8, "2N messages from the coordinator");
    assert_eq!(rep.stats.msgs_received, 8, "2N messages to the coordinator");
}

#[test]
fn live_migration_keeps_the_connection() {
    // Migrate the ping-pong server mid-exchange; the client (a remote peer
    // that is "not under Zap control" of the migration) never notices.
    let mut w = World::new(4, ClusterParams::default());
    let (spec, _) = pingpong_job(500, 0, 1, 3);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    assert!(!w.job_finished("pp"), "still mid-exchange");
    w.migrate_pod("pp", "server", 2).unwrap();
    assert!(w.run_until_pred(30_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    assert_eq!(w.job("pp").unwrap().placement("server").unwrap().node, 2);
}

#[test]
fn a_migration_is_one_op_that_commits_nothing_and_keeps_no_spool() {
    let mut w = World::new(4, ClusterParams::default());
    let (spec, _) = pingpong_job(500, 0, 1, 3);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let op = w.migrate_pod("pp", "server", 2).unwrap();
    assert!(w.job_busy("pp"), "the move is in the op table");
    assert!(matches!(
        w.start_checkpoint("pp", ProtocolMode::Blocking, None),
        Err(ClusterError::JobBusy)
    ));
    assert!(w.run_until_op(op, 10_000_000));
    let report = w.op_report(op).unwrap();
    assert!(report.complete && !report.aborted && w.op_error(op).is_none());
    // The op finishes with the pod running at its destination.
    let server = w.job("pp").unwrap().placement("server").unwrap().clone();
    assert_eq!(server.node, 2);
    assert_eq!(w.zap(2).pod_ids(), [server.pod_id.expect("restored")]);
    assert!(
        w.zap(0).pod_ids().is_empty(),
        "the source tore the pod down"
    );
    let nodes: Vec<usize> = report.local_ops.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(
        nodes,
        [0, 2],
        "captured on the source, restored on the destination"
    );
    // The spool never committed, and nothing of it survives the op.
    let store = w.store("pp");
    assert!(!store.is_committed(op) && store.latest_committed_epoch().is_none());
    assert!(store.uncommitted_epochs().is_empty() && store.pods_in_epoch(op).is_empty());
    assert!(store.live_chunks().is_empty() && store.orphan_chunks().is_empty());
    assert!(w.run_until_pred(30_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn a_migration_report_covers_both_rounds() {
    // E8's move: the report starts at the `migrate_pod` call, not at the
    // restore round, and counts the messages of both rounds.
    let mut w = World::new(4, ClusterParams::default());
    let (spec, _) = pingpong_job(500, 0, 1, 3);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let called_at = w.now;
    let op = w.migrate_pod("pp", "server", 2).unwrap();
    assert!(w.run_until_op(op, 10_000_000));
    let report = w.op_report(op).unwrap();
    assert!(report.complete);
    assert_eq!(report.stats.started_at, Some(called_at));
    // Each one-agent round sends `start` and `continue` and receives
    // `done` and `continue-done`.
    assert_eq!((report.stats.msgs_sent, report.stats.msgs_received), (4, 4));
}

#[test]
fn a_source_disk_fault_aborts_the_migration_and_the_pod_stays_home() {
    let mut w = World::new(4, ClusterParams::default());
    let (spec, _) = pingpong_job(500, 0, 1, 3);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    w.kernel_mut(0).disk.inject_write_fault(0, WriteFault::Fail);
    let op = w.migrate_pod("pp", "server", 2).unwrap();
    assert!(w.run_until_op(op, 10_000_000));
    let report = w.op_report(op).unwrap();
    assert!(report.aborted && !report.complete);
    assert!(w.op_error(op).is_some(), "the abort names its cause");
    let server = w.job("pp").unwrap().placement("server").unwrap().clone();
    assert_eq!(server.node, 0, "the pod stays placed at its source");
    assert_eq!(
        w.zap(0).pod_ids(),
        [server.pod_id.expect("still instantiated")]
    );
    assert!(w.zap(2).pod_ids().is_empty());
    assert!(
        w.store("pp").uncommitted_epochs().is_empty(),
        "the spool is discarded"
    );
    assert!(w.run_until_pred(30_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn migrating_to_a_crashed_node_is_refused_and_the_pod_keeps_running() {
    let mut w = World::new(4, ClusterParams::default());
    let (spec, _) = pingpong_job(500, 0, 1, 3);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    w.crash_node(2);
    assert!(matches!(
        w.migrate_pod("pp", "server", 2),
        Err(ClusterError::BadNode(2))
    ));
    assert!(!w.job_busy("pp"));
    assert!(w.run_until_pred(30_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    assert_eq!(w.job("pp").unwrap().placement("server").unwrap().node, 0);
}

#[test]
fn a_recovery_pass_aborts_an_in_flight_migration() {
    let params = ClusterParams {
        recovery: RecoveryParams {
            enabled: true,
            ..RecoveryParams::default()
        },
        ..ClusterParams::default()
    };
    let mut w = World::new(5, params);
    let (spec, _) = pingpong_job(500, 0, 1, 4);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let ck = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck, 10_000_000));
    // The source dies before its capture starts: only the heartbeat plane
    // can settle the move.
    let op = w.migrate_pod("pp", "server", 2).unwrap();
    w.crash_node(0);
    assert!(w.run_until_op(op, 10_000_000));
    assert!(w.op_report(op).unwrap().aborted);
    assert!(w.op_error(op).is_some());
    let pass = w
        .recovery_reports()
        .iter()
        .find(|r| r.aborted_ops.contains(&op));
    assert_eq!(
        pass.expect("a recovery pass aborted the move")
            .rollback_epoch,
        Some(ck)
    );
    assert!(w.run_until_pred(50_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    assert!(!w.store("pp").uncommitted_epochs().contains(&op));
}

#[test]
fn timeout_aborts_when_an_agent_node_is_dead() {
    // Two independent compute pods; one node dies before the checkpoint.
    let compute = ComputeConfig {
        outer: 50_000,
        inner: 200,
    };
    let spec = JobSpec {
        name: "c".into(),
        coordinator_node: 2,
        pods: vec![
            PodSpec {
                name: "a".into(),
                ip: IpAddr::from_octets([10, 0, 1, 10]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2010)),
                node: 0,
                programs: vec![compute.program()],
            },
            PodSpec {
                name: "b".into(),
                ip: IpAddr::from_octets([10, 0, 1, 11]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2011)),
                node: 1,
                programs: vec![compute.program()],
            },
        ],
    };
    let mut w = World::new(3, ClusterParams::default());
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(2));
    w.crash_node(1);
    let op = w
        .start_checkpoint(
            "c",
            ProtocolMode::Blocking,
            Some(SimDuration::from_millis(50)),
        )
        .unwrap();
    assert!(w.run_until_op(op, 10_000_000));
    let rep = w.op_report(op).unwrap();
    assert!(rep.aborted, "dead agent must abort the 2PC");
    assert!(!w.store("c").is_committed(op), "no commit record");
    // The surviving pod was rolled back (resumed, filter lifted) and
    // finishes normally.
    assert!(w.run_until_pred(20_000_000, |w| { w.pod_exit_code("c", "a", 1).is_some() }));
}

#[test]
fn checkpoint_latency_tracks_state_size() {
    // Bigger resident state ⇒ longer local save ⇒ longer total latency;
    // coordination overhead stays flat (the Fig. 5 structure).
    let mut latencies = Vec::new();
    let mut overheads = Vec::new();
    for state_kb in [128u64, 8192] {
        let slm = SlmConfig {
            ranks: 2,
            state_bytes: state_kb * 1024,
            iters: 500,
            compute_ns: 1_000_000,
            halo_bytes: 1024,
            port: 7100,
            state_step_bytes: 0,
        };
        let mut w = World::new(3, ClusterParams::default());
        w.launch_job(&slm.job_spec("slm", 2)).unwrap();
        w.run_for(SimDuration::from_millis(10));
        let op = w
            .start_checkpoint("slm", ProtocolMode::Blocking, None)
            .unwrap();
        assert!(w.run_until_op(op, 10_000_000));
        let rep = w.op_report(op).unwrap();
        latencies.push(rep.stats.checkpoint_latency().unwrap());
        overheads.push(rep.coordination_overhead().unwrap());
    }
    assert!(
        latencies[1] > latencies[0] * 5,
        "8x state should dominate latency: {latencies:?}"
    );
    let (a, b) = (overheads[0].as_micros_f64(), overheads[1].as_micros_f64());
    assert!(
        (a - b).abs() < a.max(b) * 0.8 + 200.0,
        "overhead roughly flat: {overheads:?}"
    );
}

#[test]
fn cow_checkpoint_shrinks_blackout_and_still_commits() {
    // §5.2/COW: same transparency guarantees, but the pods are frozen only
    // for state *capture*; the disk writes finish in the background before
    // the commit record appears.
    let slm = SlmConfig {
        ranks: 2,
        state_bytes: 4 * 1024 * 1024,
        iters: 2_000,
        compute_ns: 2_000_000,
        halo_bytes: 2048,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut w = World::new(3, ClusterParams::default());
    w.launch_job(&slm.job_spec("slm", 2)).unwrap();
    w.run_for(SimDuration::from_millis(20));

    let full = w
        .start_checkpoint_with("slm", CkptOptions::default())
        .unwrap();
    assert!(w.run_until_op(full, 20_000_000));
    let full_rep = w.op_report(full).unwrap();

    w.run_for(SimDuration::from_millis(20));
    let cow = w
        .start_checkpoint_with(
            "slm",
            CkptOptions {
                capture: Some(CkptCaptureMode::Writeback),
                ..CkptOptions::default()
            },
        )
        .unwrap();
    assert!(w.run_until_op(cow, 20_000_000));
    let cow_rep = w.op_report(cow).unwrap();

    // Both epochs committed and restorable.
    assert!(w.store("slm").is_committed(full));
    assert!(w.store("slm").is_committed(cow));
    // COW blackout is a small fraction of the full one.
    let full_block = full_rep.blocked_durations()[0].1;
    let cow_block = cow_rep.blocked_durations()[0].1;
    assert!(
        cow_block.as_millis_f64() < full_block.as_millis_f64() * 0.25,
        "cow {cow_block} vs full {full_block}"
    );
    // And the application is still correct — restart from the COW epoch.
    w.crash_node(0);
    w.crash_node(1);
    // Restart needs spare nodes; rebuild placement onto the same world is
    // not possible with both app nodes dead and only node 2 spare — so
    // just verify the images decode and carry the expected pods.
    let store = w.store("slm");
    for r in 0..2 {
        let bytes = store.get_image(&format!("rank{r}"), cow).unwrap();
        let img = cruz_repro_decode(&bytes);
        assert_eq!(img.name, format!("slm:rank{r}"));
    }
}

fn cruz_repro_decode(bytes: &[u8]) -> zap::image::PodImage {
    zap::image::PodImage::decode(bytes).expect("stored image decodes")
}

#[test]
fn periodic_checkpoint_driver_runs_the_job_to_completion() {
    let slm = SlmConfig {
        ranks: 2,
        state_bytes: 512 * 1024,
        iters: 120,
        compute_ns: 2_000_000,
        halo_bytes: 2048,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut w = World::new(
        3,
        ClusterParams {
            prune_old_epochs: false,
            ..ClusterParams::default()
        },
    );
    w.launch_job(&slm.job_spec("slm", 2)).unwrap();
    w.schedule_periodic_checkpoints(
        "slm",
        SimDuration::from_millis(60),
        CkptOptions {
            mode: ProtocolMode::Optimized,
            capture: Some(CkptCaptureMode::Writeback),
            ..CkptOptions::default()
        },
    )
    .unwrap();
    assert!(w.run_until_pred(100_000_000, |w| w.job_finished("slm")));
    for r in 0..2 {
        assert_eq!(w.pod_exit_code("slm", &format!("rank{r}"), 1), Some(0));
    }
    // The ~260 ms run at a 60 ms cadence commits several epochs.
    let epochs = w.store("slm").committed_epochs();
    assert!(epochs.len() >= 3, "got {epochs:?}");
    // Driver retired: advancing time schedules no further checkpoints.
    let before = epochs.len();
    w.run_for(SimDuration::from_millis(300));
    assert_eq!(w.store("slm").committed_epochs().len(), before);
}

#[test]
fn incremental_epochs_restore_through_the_full_protocol() {
    // The dedup store is the one way to write only what changed: every
    // epoch is a full-fidelity manifest, yet a steady epoch writes only its
    // novel chunks, and a restart reads one epoch, never a chain.
    let slm = SlmConfig {
        ranks: 2,
        state_bytes: 2 * 1024 * 1024,
        iters: 100_000,
        compute_ns: 2_000_000,
        halo_bytes: 2048,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut w = World::new(
        5,
        ClusterParams {
            store: StoreConfig::dedup(),
            ..ClusterParams::default()
        },
    );
    w.launch_job(&slm.job_spec("slm", 4)).unwrap();
    w.run_for(SimDuration::from_millis(20));

    // Three epochs with default options, 5 ms of execution apart. Each
    // epoch's cost is what the app nodes' disks wrote for it (`read_stored`
    // would not do: its length counts every chunk a restart reads, shared
    // or not).
    let written = |w: &World| -> u64 { (0..2).map(|n| w.kernel(n).disk.bytes_written()).sum() };
    let mut epochs = Vec::new();
    let mut epoch_bytes = Vec::new();
    for i in 0..3 {
        if i > 0 {
            w.run_for(SimDuration::from_millis(5));
        }
        let before = written(&w);
        let op = w
            .start_checkpoint("slm", ProtocolMode::Blocking, None)
            .unwrap();
        assert!(w.run_until_op(op, 20_000_000));
        epoch_bytes.push(written(&w) - before);
        epochs.push(op);
    }
    let (first, last) = (epoch_bytes[0], epoch_bytes[2]);
    assert!(
        last * 5 < first,
        "steady epoch wrote {last} B vs the first epoch's {first} B"
    );

    // Crash and restart from the LAST epoch: one manifest, no chain.
    w.crash_node(0);
    w.crash_node(1);
    let rs = w
        .start_restart(
            "slm",
            epochs[2],
            &[("rank0".into(), 2), ("rank1".into(), 3)],
            ProtocolMode::Blocking,
        )
        .unwrap();
    assert!(w.run_until_op(rs, 20_000_000));
    // The ring resumes and keeps making progress (halo checks would fail
    // loudly on any corruption).
    let progress = |w: &World| {
        w.peek_guest("slm", "rank0", 1, workloads::slm::ITER_COUNTER_ADDR, 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .unwrap_or(0)
    };
    let before = progress(&w);
    w.run_for(SimDuration::from_millis(60));
    assert!(progress(&w) > before, "ring advances after the restore");
}

#[test]
fn allreduce_collective_survives_checkpoint_and_restart() {
    use workloads::allreduce::AllReduceConfig;
    let cfg = AllReduceConfig {
        ranks: 3,
        rounds: 200,
        port: 7400,
    };
    // 3 ranks on nodes 0-2, spares 3-5, coordinator 6.
    let mut w = World::new(7, ClusterParams::default());
    w.launch_job(&cfg.job_spec("ar", 6)).unwrap();
    w.run_for(SimDuration::from_millis(4));
    let ck = w
        .start_checkpoint("ar", ProtocolMode::Optimized, None)
        .unwrap();
    assert!(w.run_until_op(ck, 20_000_000));
    w.run_for(SimDuration::from_millis(3));
    for n in 0..3 {
        w.crash_node(n);
    }
    let placement: Vec<(String, usize)> = (0..3).map(|r| (format!("rank{r}"), 3 + r)).collect();
    let rs = w
        .start_restart("ar", ck, &placement, ProtocolMode::Blocking)
        .unwrap();
    assert!(w.run_until_op(rs, 20_000_000));
    assert!(w.run_until_pred(100_000_000, |w| w.job_finished("ar")));
    for r in 0..3 {
        assert_eq!(
            w.pod_exit_code("ar", &format!("rank{r}"), 1),
            Some(cfg.expected_total()),
            "collective result exact across crash+restart"
        );
    }
}

#[test]
fn rollback_in_place_replaces_live_pods() {
    // No crash at all: roll a RUNNING job back to an earlier epoch on the
    // same nodes. The restart tears the live pods down first.
    let mut w = World::new(3, ClusterParams::default());
    let (spec, _) = pingpong_job(600, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let ck = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck, 10_000_000));
    // Keep running well past the checkpoint...
    w.run_for(SimDuration::from_millis(10));
    // ...then rewind the whole job to it, in place.
    let rs = w
        .start_restart("pp", ck, &[], ProtocolMode::Blocking)
        .unwrap();
    assert!(
        w.run_until_op(rs, 10_000_000),
        "in-place rollback completes"
    );
    assert!(w.run_until_pred(50_000_000, |w| w.job_finished("pp")));
    assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
    assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
}

#[test]
fn cow_capture_shrinks_freeze_to_arm_window() {
    // The tentpole claim: with CkptCaptureMode::Cow the per-epoch pod freeze
    // is O(arm + non-memory state) instead of O(image bytes), while the
    // stored epoch stays fully restorable.
    let slm = SlmConfig {
        ranks: 2,
        state_bytes: 16 * 1024 * 1024,
        iters: 100_000,
        compute_ns: 500_000,
        halo_bytes: 2048,
        port: 7100,
        state_step_bytes: 0,
    };
    // A snappy retransmission timer: the freeze drops in-flight halo frames,
    // and the ranks must recover and resume computing *within* the drain
    // window for the COW race to be exercised (with the default 200 ms
    // min-RTO they would idle until long after the drain).
    let tcp = simnet::tcp::TcpConfig {
        initial_rto: SimDuration::from_millis(2),
        min_rto: SimDuration::from_millis(1),
        ..simnet::tcp::TcpConfig::default()
    };
    let mut w = World::new(
        5,
        ClusterParams {
            tcp,
            ..ClusterParams::default()
        },
    );
    w.launch_job(&slm.job_spec("slm", 4)).unwrap();
    w.run_for(SimDuration::from_millis(20));

    let stw = w
        .start_checkpoint_with(
            "slm",
            CkptOptions {
                mode: ProtocolMode::Optimized,
                ..CkptOptions::default()
            },
        )
        .unwrap();
    assert!(w.run_until_op(stw, 20_000_000));
    let stw_rep = w.op_report(stw).unwrap();
    assert!(stw_rep.complete && !stw_rep.aborted);

    w.run_for(SimDuration::from_millis(20));
    let cow = w
        .start_checkpoint_with(
            "slm",
            CkptOptions {
                mode: ProtocolMode::Optimized,
                capture: Some(CkptCaptureMode::Cow),
                ..CkptOptions::default()
            },
        )
        .unwrap();
    assert!(w.run_until_op(cow, 20_000_000));
    let cow_rep = w.op_report(cow).unwrap();
    assert!(cow_rep.complete && !cow_rep.aborted);
    assert!(w.store("slm").is_committed(cow));

    let max_freeze = |rep: &cluster::world::OpReport| {
        rep.blocked_durations()
            .iter()
            .map(|&(_, d)| d)
            .max()
            .unwrap()
    };
    let stw_freeze = max_freeze(&stw_rep);
    let cow_freeze = max_freeze(&cow_rep);
    assert!(
        cow_freeze.as_micros_f64() * 5.0 < stw_freeze.as_micros_f64(),
        "cow freeze {cow_freeze} not ≥5× shorter than stop-the-world {stw_freeze}"
    );
    // The resumed guests raced the background drain, so COW really paid its
    // bounded extra copies — the snapshot was defended, not untouched.
    let copied: u64 = cow_rep.cow_copied_bytes.iter().map(|&(_, b)| b).sum();
    assert!(
        copied > 0,
        "no pre-image copies: the drain never raced writes"
    );

    // The COW epoch restores through the full protocol.
    w.crash_node(0);
    w.crash_node(1);
    let rs = w
        .start_restart(
            "slm",
            cow,
            &[("rank0".into(), 2), ("rank1".into(), 3)],
            ProtocolMode::Blocking,
        )
        .unwrap();
    assert!(w.run_until_op(rs, 20_000_000));
    let progress = |w: &World| {
        w.peek_guest("slm", "rank0", 1, workloads::slm::ITER_COUNTER_ADDR, 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .unwrap_or(0)
    };
    let before = progress(&w);
    w.run_for(SimDuration::from_millis(60));
    assert!(
        progress(&w) > before,
        "ring advances after COW-epoch restore"
    );
}

#[test]
fn cow_abort_cancels_armed_snapshots() {
    // Abort while the drain is still pending: the rollback must disarm the
    // snapshots and discard the epoch, and the late CkptDrain event must be
    // a no-op — exactly the stop-the-world abort semantics.
    use cluster::CkptCaptureMode;
    let slm = SlmConfig {
        ranks: 2,
        state_bytes: 8 * 1024 * 1024,
        iters: 100_000,
        compute_ns: 1_000_000,
        halo_bytes: 2048,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut w = World::new(3, ClusterParams::default());
    w.launch_job(&slm.job_spec("slm", 2)).unwrap();
    w.run_for(SimDuration::from_millis(20));
    w.crash_node(1);
    // 8 MiB of pages drain in ~4 ms at extract bandwidth; the 2 ms timeout
    // aborts first, so the survivor's rollback finds an undrained arm.
    let op = w
        .start_checkpoint_with(
            "slm",
            CkptOptions {
                capture: Some(CkptCaptureMode::Cow),
                timeout: Some(SimDuration::from_millis(2)),
                ..CkptOptions::default()
            },
        )
        .unwrap();
    assert!(w.run_until_op(op, 20_000_000));
    let rep = w.op_report(op).unwrap();
    assert!(rep.aborted, "dead agent must abort the 2PC");
    assert!(!w.store("slm").is_committed(op), "no commit record");
    // Let the now-orphaned CkptDrain event fire against the cancelled arm.
    w.run_for(SimDuration::from_millis(20));
    assert!(
        w.store("slm").get_image("rank0", op).is_none(),
        "aborted epoch must leave no orphan images"
    );
}

#[test]
fn rollback_from_a_corrupt_committed_image_fails_instead_of_dropping_the_pod() {
    // One flipped byte in a committed pod image: the store's digest check
    // rejects it, and the restart must abort with that error rather than
    // complete with the pod silently left out of the job.
    let mut w = World::new(3, ClusterParams::default());
    let (spec, _) = pingpong_job(600, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let ck = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck, 10_000_000));
    // The default config stores the image as one chunk named by its digest.
    let store = w.store("pp").replica(0);
    let digest = store.read_digest("server", ck).expect("committed sidecar");
    let path = store.chunk_path(digest);
    let mut bytes = w.fs.read_file(&path).expect("committed server image");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    w.fs.write_file(&path, bytes);
    assert_eq!(w.store("pp").get_image("server", ck), None);

    let rs = w
        .start_restart("pp", ck, &[], ProtocolMode::Blocking)
        .unwrap();
    assert!(w.run_until_op(rs, 10_000_000), "the restart settles");
    let report = w.op_report(rs).unwrap();
    assert!(
        report.aborted && !report.complete,
        "a corrupt image aborts the rollback"
    );
    match w.op_error(rs) {
        Some(CruzError::CorruptImage { pod }) => assert_eq!(pod, "server"),
        other => panic!("expected a corrupt-image error, got {other:?}"),
    }
    // The aborted restart leaves no pod behind: the client's read was still
    // in flight when the abort landed, and its restore must not run.
    w.run_for(SimDuration::from_millis(20));
    for p in &w.job("pp").unwrap().placements {
        assert_eq!(p.pod_id, None, "{} is bound to a pod", p.name);
    }
    for n in 0..w.node_count() {
        assert!(w.zap(n).pod_ids().is_empty(), "node {n} holds a stray pod");
    }
}

#[test]
fn the_default_store_holds_one_manifest_sidecar_and_chunk_per_pod() {
    // `StoreConfig::default()` is the plain layout: each pod's image is one
    // uncompressed whole-image chunk, named by the image digest, under a
    // one-record manifest.
    let mut w = World::new(3, ClusterParams::default());
    let (spec, _) = pingpong_job(600, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let ck = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck, 10_000_000));
    let store = w.store("pp").replica(0);
    let mut pods = store.pods_in_epoch(ck);
    pods.sort();
    assert_eq!(pods, ["client", "server"]);
    let epoch_dir = format!("/ckpt/pp/epoch{ck:08}/");
    let mut chunks = Vec::new();
    for pod in &pods {
        let mut files = w.fs.list(&format!("{epoch_dir}{pod}."));
        files.sort();
        assert_eq!(
            files,
            [
                format!("{epoch_dir}{pod}.fnv"),
                format!("{epoch_dir}{pod}.manifest")
            ]
        );
        let image = store.get_image(pod, ck).expect("committed image");
        let digest = store.read_digest(pod, ck).expect("sidecar");
        assert_eq!(digest, cruz::ChunkId::of(&image));
        let chunk = w.fs.len_of(&store.chunk_path(digest));
        assert_eq!(chunk, Some(image.len() as u64 + 1), "one raw container");
        let manifest_len = w.fs.len_of(&store.manifest_path(pod, ck)).unwrap();
        assert_eq!(
            store.read_stored(pod, ck).map(|(_, stored)| stored),
            Ok(manifest_len + image.len() as u64 + 1)
        );
        chunks.push(digest);
    }
    chunks.sort();
    assert_eq!(store.live_chunks(), chunks, "one chunk per pod, no other");
}

#[test]
fn a_chunk_deleted_between_prepare_and_put_fails_the_checkpoint_closed() {
    // A dedup checkpoint names the chunks the store already holds instead
    // of carrying them. If they are deleted before the put applies, the put
    // must not write a manifest naming them: the operation aborts with the
    // store's error and its epoch never commits.
    let params = ClusterParams {
        store: StoreConfig::dedup(),
        ..ClusterParams::default()
    };
    let mut w = World::new(3, params);
    let (spec, _) = pingpong_job(600, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    w.run_for(SimDuration::from_millis(6));
    let ck1 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(ck1, 10_000_000));
    w.run_for(SimDuration::from_millis(2));
    let written = w.kernel(0).disk.bytes_written();
    let ck2 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    // The server's node submits its write-out in the event that captures
    // and prepares; the put applies in a later one.
    assert!(w.run_until_pred(1_000_000, |w| w.kernel(0).disk.bytes_written() > written));
    let store = w.store("pp");
    assert!(!w.fs.exists(&store.replica(0).manifest_path("server", ck2)));
    for path in w.fs.list("/ckpt/pp/chunks/") {
        if path.ends_with(".c") {
            w.fs.remove(&path);
        }
    }
    assert!(w.run_until_op(ck2, 10_000_000), "the checkpoint settles");
    let report = w.op_report(ck2).unwrap();
    assert!(report.aborted && !report.complete, "the put failed closed");
    match w.op_error(ck2) {
        Some(CruzError::MissingChunk { pod, .. }) => {
            assert!(pod == "server" || pod == "client", "{pod}")
        }
        other => panic!("expected a missing-chunk error, got {other:?}"),
    }
    assert!(!store.is_committed(ck2));
    assert!(!w.fs.exists(&store.replica(0).manifest_path("server", ck2)));
    assert_eq!(store.latest_committed_epoch(), Some(ck1));
}

/// The `socks` count of a node stack's `Debug` view.
fn stack_sockets(w: &World, node: usize) -> usize {
    let view = format!("{:?}", w.kernel(node).net);
    let count = view.split("socks: ").nth(1).expect("socks field");
    count[..count.find(',').expect("more fields")]
        .parse()
        .expect("a count")
}

#[test]
fn aborted_checkpoints_leave_no_socket_on_the_coordinator_node() {
    // Every checkpoint times out before any agent can answer, so each is
    // aborted by its coordinator. The coordinator node serves them all
    // from its one fixed endpoint and holds no socket per operation.
    let mut w = World::new(3, ClusterParams::default());
    let at_construction = stack_sockets(&w, 2);
    let (spec, _) = pingpong_job(5, 0, 1, 2);
    w.launch_job(&spec).unwrap();
    assert!(w.run_until_pred(5_000_000, |w| w.job_finished("pp")));
    for _ in 0..100 {
        let timeout = Some(SimDuration::from_nanos(1));
        let op = w
            .start_checkpoint("pp", ProtocolMode::Blocking, timeout)
            .unwrap();
        assert!(w.run_until_op(op, 1_000_000));
        assert!(
            w.op_report(op).unwrap().aborted,
            "the timeout aborts op {op}"
        );
        w.run_for(SimDuration::from_millis(20));
    }
    assert_eq!(stack_sockets(&w, 2), at_construction);
}
