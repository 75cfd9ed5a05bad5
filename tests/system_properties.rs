//! System-level property tests: checkpoints and restarts at *arbitrary*
//! moments must never corrupt a strictly-checked application.

use cruz_repro::cluster::{CkptCaptureMode, CkptOptions, ClusterParams, JobSpec, PodSpec, World};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::{SimDuration, SimTime};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A checkpoint at any instant, under any protocol variant (blocking or
    /// optimized, stop-the-world or write-back), is invisible to a token exchange that
    /// checks every byte.
    #[test]
    fn checkpoint_at_any_moment_is_transparent(
        at_us in 200u64..15_000,
        optimized in any::<bool>(),
        writeback in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut w = World::new(5, ClusterParams { seed, ..ClusterParams::default() });
        w.launch_job(&pingpong_spec(300)).unwrap();
        w.run_for(SimDuration::from_micros(at_us));
        let mode = if optimized { ProtocolMode::Optimized } else { ProtocolMode::Blocking };
        let capture = writeback.then_some(CkptCaptureMode::Writeback);
        let op = w.start_checkpoint_with("pp", CkptOptions { mode, capture, ..CkptOptions::default() }).unwrap();
        prop_assert!(w.run_until_op(op, 20_000_000));
        prop_assert!(w.run_until_pred(100_000_000, |w| w.job_finished("pp")));
        prop_assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
        prop_assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
        prop_assert!(w.store("pp").is_committed(op));
    }

    /// A random sequence of operational events — checkpoints (any flavour),
    /// live migrations, whole-job crash+restarts — never corrupts the
    /// application.
    #[test]
    fn random_operational_history_is_transparent(
        ops in proptest::collection::vec(0u8..6, 1..4),
        seed in 0u64..1_000,
    ) {
        let mut w = World::new(12, ClusterParams { seed, ..ClusterParams::default() });
        w.launch_job(&pingpong_spec(900)).unwrap();
        // Node pool for re-placements; the job starts on nodes 0 and 1.
        let mut fresh = vec![2usize, 3, 6, 7, 8, 9, 10, 11];
        let mut server_node = 0usize;
        let mut client_node = 1usize;
        let mut last_epoch = None;
        for op in ops {
            w.run_for(SimDuration::from_millis(2));
            if w.job_finished("pp") {
                break;
            }
            match op {
                // Checkpoints in every flavour.
                0..=3 => {
                    let mode = if op & 1 == 0 { ProtocolMode::Blocking } else { ProtocolMode::Optimized };
                    let capture = (op & 2 != 0).then_some(CkptCaptureMode::Writeback);
                    // A migration may still be settling: busy is a valid refusal.
                    if let Ok(e) = w.start_checkpoint_with("pp", CkptOptions { mode, capture, ..CkptOptions::default() }) {
                        prop_assert!(w.run_until_op(e, 50_000_000));
                        last_epoch = Some(e);
                    }
                }
                // Live-migrate the server.
                4 => {
                    if let Some(dst) = fresh.pop() {
                        match w.migrate_pod("pp", "server", dst) {
                            Ok(_) => server_node = dst,
                            Err(_) => fresh.push(dst), // busy: keep the node
                        }
                    }
                }
                // Crash both app nodes and restart from the last epoch
                // (only when no migration/op is still settling — crashing
                // mid-operation is covered by the timeout-abort test).
                _ => {
                    if let (Some(e), true, false) =
                        (last_epoch, fresh.len() >= 2, w.job_busy("pp"))
                    {
                        w.crash_node(server_node);
                        w.crash_node(client_node);
                        let s = fresh.pop().unwrap();
                        let c = fresh.pop().unwrap();
                        let rs = w
                            .start_restart(
                                "pp",
                                e,
                                &[("server".into(), s), ("client".into(), c)],
                                ProtocolMode::Blocking,
                            )
                            .unwrap();
                        prop_assert!(w.run_until_op(rs, 50_000_000));
                        server_node = s;
                        client_node = c;
                    }
                }
            }
        }
        prop_assert!(w.run_until_pred(200_000_000, |w| w.job_finished("pp")));
        prop_assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
        prop_assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
        // Property (d) of the chaos suite, with migrations in the history.
        prop_assert!(w.run_until_pred(50_000_000, |w| !w.job_busy("pp")));
        prop_assert_eq!(placement_disagreement(&w, "pp"), None);
    }

    /// Crash-then-restart at any checkpointed instant replays to a correct
    /// completion, on whichever spare nodes the scheduler picks.
    #[test]
    fn restart_from_any_checkpoint_is_exactly_once(
        ckpt_at_us in 500u64..12_000,
        crash_after_us in 100u64..8_000,
        swap_nodes in any::<bool>(),
    ) {
        let mut w = World::new(5, ClusterParams::default());
        w.launch_job(&pingpong_spec(400)).unwrap();
        w.run_for(SimDuration::from_micros(ckpt_at_us));
        let ck = w.start_checkpoint("pp", ProtocolMode::Blocking, None).unwrap();
        prop_assert!(w.run_until_op(ck, 20_000_000));
        w.run_for(SimDuration::from_micros(crash_after_us));
        w.crash_node(0);
        w.crash_node(1);
        let (s, c) = if swap_nodes { (3usize, 2usize) } else { (2, 3) };
        let rs = w
            .start_restart(
                "pp",
                ck,
                &[("server".into(), s), ("client".into(), c)],
                ProtocolMode::Blocking,
            )
            .unwrap();
        prop_assert!(w.run_until_op(rs, 20_000_000));
        prop_assert!(w.run_until_pred(100_000_000, |w| w.job_finished("pp")));
        // Exit 7 would mean a duplicated/lost/reordered token; 9 a socket
        // error; only 0 is a correct exactly-once replay.
        prop_assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
        prop_assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
    }
}

#[test]
fn determinism_same_seed_same_world() {
    let run = |seed: u64| -> (SimTime, Option<u64>, Option<u64>) {
        let mut w = World::new(
            5,
            ClusterParams {
                seed,
                ..ClusterParams::default()
            },
        );
        w.launch_job(&pingpong_spec(120)).unwrap();
        w.run_for(SimDuration::from_millis(3));
        let op = w
            .start_checkpoint("pp", ProtocolMode::Blocking, None)
            .unwrap();
        assert!(w.run_until_op(op, 20_000_000));
        assert!(w.run_until_pred(100_000_000, |w| w.job_finished("pp")));
        (
            w.now,
            w.pod_exit_code("pp", "server", 1),
            w.pod_exit_code("pp", "client", 1),
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "identical seeds must give bit-identical runs");
}
