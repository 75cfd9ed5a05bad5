//! Golden-trace regression: pinned pre-refactor `trace_digest` values.
//!
//! `tests/determinism.rs` proves *two runs of the same build* agree; this
//! suite proves *every future build* agrees with the build that pinned
//! these constants. The values below were captured from the cluster engine
//! before it was decomposed into the layered `transport`/`events`/`ops`/
//! `drain`/`heartbeat` modules, so a refactor that perturbs event order,
//! timing, or message flow in any way — even one that is internally
//! self-consistent — fails here byte-for-byte.
//!
//! If one of these asserts fires, the refactor changed behavior. Do not
//! re-pin the constants unless the behavior change is itself the point of
//! the PR (and say so in its description).

use cruz_repro::cluster::{
    CkptCaptureMode, CkptOptions, ClusterParams, FaultPlan, JobSpec, PodSpec, StoreConfig, World,
};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::workloads::pingpong::PingPongConfig;
use cruz_repro::zap::image::MacMode;

/// One run's whole observable identity: the event-trace digest, the event
/// count, and the final simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    trace_digest: u64,
    events: u64,
    final_nanos: u64,
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

/// The `tests/determinism.rs` scenario: launch, two checkpoints (blocking
/// then optimized) under the default stop-the-world capture, run to
/// completion.
fn ckpt_run(params: ClusterParams) -> Fingerprint {
    ckpt_run_with(params, None)
}

/// [`ckpt_run`] with both checkpoints captured in `capture` mode.
fn ckpt_run_with(params: ClusterParams, capture: Option<CkptCaptureMode>) -> Fingerprint {
    let mut w = World::new(5, params);
    w.launch_job(&pingpong_spec(200)).expect("job launches");
    w.run_for(SimDuration::from_millis(2));
    let opts = |mode| CkptOptions {
        mode,
        capture,
        ..CkptOptions::default()
    };
    let op1 = w
        .start_checkpoint_with("pp", opts(ProtocolMode::Blocking))
        .expect("first checkpoint starts");
    assert!(w.run_until_op(op1, 20_000_000), "first checkpoint finishes");
    w.run_for(SimDuration::from_millis(2));
    let op2 = w
        .start_checkpoint_with("pp", opts(ProtocolMode::Optimized))
        .expect("second checkpoint starts");
    assert!(
        w.run_until_op(op2, 20_000_000),
        "second checkpoint finishes"
    );
    assert!(
        w.run_until_pred(100_000_000, |w| w.job_finished("pp")),
        "job runs to completion"
    );
    Fingerprint {
        trace_digest: w.trace_digest(),
        events: w.events_processed(),
        final_nanos: w.now.as_nanos(),
    }
}

/// The `tests/chaos_properties.rs` replay scenario: clean baseline
/// checkpoint, seeded fault plan (round-tripped through its wire codec),
/// periodic checkpoints under fire, fixed horizon, recovery manager on.
/// The dedup store runs at `threads` workers: 1 is the inline path, 2 the
/// pipelined capture prepare and restore.
fn chaos_run(world_seed: u64, plan_seed: u64, threads: usize) -> Fingerprint {
    let mut p = ClusterParams {
        seed: world_seed,
        store: StoreConfig {
            threads,
            ..StoreConfig::dedup()
        },
        ..ClusterParams::default()
    };
    p.recovery.enabled = true;
    let mut w = World::new(6, p);
    w.launch_job(&pingpong_spec(500)).expect("job launches");
    w.run_for(SimDuration::from_millis(2));
    let op = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .expect("baseline checkpoint starts");
    assert!(w.run_until_op(op, 20_000_000), "baseline checkpoint");
    w.install_fault_plan(&FaultPlan::random(plan_seed, 2));
    w.schedule_periodic_checkpoints("pp", SimDuration::from_millis(4), CkptOptions::default())
        .expect("periodic driver arms");
    w.run_for(SimDuration::from_millis(120));
    Fingerprint {
        trace_digest: w.trace_digest(),
        events: w.events_processed(),
        final_nanos: w.now.as_nanos(),
    }
}

fn check(label: &str, got: Fingerprint, want: Fingerprint) {
    assert_eq!(
        got, want,
        "`{label}` diverged from the pinned pre-refactor trace \
         (got {got:?}, pinned {want:?}): the engine is no longer \
         behavior-preserving"
    );
}

/// The determinism seed under the default stop-the-world capture and plain
/// store — the baseline protocol path (Fig. 2/Fig. 4 flows). The plain
/// store writes one whole-image chunk per pod, so the disk charges the
/// image plus the chunk container's tag byte and the one-record manifest.
#[test]
fn golden_stw_plain_store() {
    check(
        "stw/plain",
        ckpt_run(ClusterParams {
            seed: 0xC0FFEE,
            ..ClusterParams::default()
        }),
        Fingerprint {
            trace_digest: 15223191073261767721,
            events: 2134,
            final_nanos: 209282169,
        },
    );
}

/// The same seed through the content-addressed dedup store: chunk hashing,
/// manifest-derived chunk GC and batched disk submission all ride the trace.
#[test]
fn golden_dedup_store() {
    check(
        "stw/dedup",
        ckpt_run(ClusterParams {
            seed: 0xC0FFEE,
            store: StoreConfig::dedup_compress(),
            ..ClusterParams::default()
        }),
        Fingerprint {
            trace_digest: 902494253537125112,
            events: 2134,
            final_nanos: 209282169,
        },
    );
}

/// The same seed under COW capture: snapshot arming, early resume, the
/// deferred drain and retroactive disk batches (the event flow of the
/// COW downtime experiment, E15).
#[test]
fn golden_cow_capture() {
    check(
        "cow",
        ckpt_run_with(
            ClusterParams {
                seed: 0xC0FFEE,
                ..ClusterParams::default()
            },
            Some(CkptCaptureMode::Cow),
        ),
        Fingerprint {
            trace_digest: 2326454790304406102,
            events: 2154,
            final_nanos: 209282169,
        },
    );
}

/// The same seed under §5.2 write-back capture: the drain runs in the
/// freeze, pods resume at capture end, and the disk write's `durable`
/// gates the commit.
#[test]
fn golden_writeback_capture() {
    check(
        "writeback",
        ckpt_run_with(
            ClusterParams {
                seed: 0xC0FFEE,
                ..ClusterParams::default()
            },
            Some(CkptCaptureMode::Writeback),
        ),
        Fingerprint {
            trace_digest: 378330676601575803,
            events: 2150,
            final_nanos: 209282169,
        },
    );
}

/// The chaos replay seeds: heartbeat detection, force-abort, rollback and
/// automatic restart under seeded crash/disk/frame faults (the event flow
/// of the recovery experiment, E16). `bench::recovery`'s tests replay
/// the same seeds to quiescence.
#[test]
fn golden_recovery_chaos() {
    let pinned = [
        (
            (1u64, 7u64),
            Fingerprint {
                trace_digest: 18056192805183332862,
                events: 846,
                final_nanos: 127733959,
            },
        ),
        (
            (2, 19),
            Fingerprint {
                trace_digest: 16242873961010553495,
                events: 1223,
                final_nanos: 127733959,
            },
        ),
        (
            (9, 104),
            Fingerprint {
                trace_digest: 7634430727536821022,
                events: 1184,
                final_nanos: 127733959,
            },
        ),
    ];
    // The seeds roll back and auto-restart from the dedup store, so the
    // same pins hold the pipelined restore under faults, on any host.
    for ((ws, ps), want) in pinned {
        for threads in [1, 2] {
            let label = format!("chaos {ws}/{ps} at {threads} threads");
            check(&label, chaos_run(ws, ps, threads), want);
        }
    }
}
