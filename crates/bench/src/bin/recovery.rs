//! The MTTR ablation (EXPERIMENTS.md E16): crash a node mid-checkpoint via
//! a seeded fault plan and measure detection latency and mean-time-to-repair
//! of the self-healing manager across heartbeat intervals.
//!
//! `--quick` sweeps fewer operating points as a CI smoke test; the asserts
//! (job healed at every point, rollback exact, detection monotone in the
//! heartbeat interval, byte-identical committed images) are the check
//! either way.

use bench::recovery::run_recovery_sweep;
use des::SimDuration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let intervals: Vec<SimDuration> = if quick {
        [5u64, 80]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect()
    } else {
        [5u64, 20, 80]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect()
    };
    println!(
        "# self-healing MTTR ablation: pingpong client node crashed between local-done and durable"
    );
    println!(
        "{:>12} {:>12} {:>13} {:>10}",
        "hb_int_ms", "hb_to_ms", "detect_ms", "mttr_ms"
    );
    let rows = run_recovery_sweep(&intervals, 7);
    for r in &rows {
        println!(
            "{:>12.1} {:>12.1} {:>13.3} {:>10.3}",
            r.heartbeat_interval.as_micros_f64() / 1000.0,
            r.heartbeat_timeout.as_micros_f64() / 1000.0,
            r.detection.as_micros_f64() / 1000.0,
            r.mttr.as_micros_f64() / 1000.0,
        );
    }

    for pair in rows.windows(2) {
        assert!(
            pair[0].detection <= pair[1].detection,
            "detection latency not monotone in the heartbeat interval"
        );
        assert!(pair[0].mttr <= pair[1].mttr, "MTTR not monotone");
        assert_eq!(
            pair[0].image_digest, pair[1].image_digest,
            "rollback images diverge across operating points"
        );
        assert_eq!(pair[0].rollback_epoch, pair[1].rollback_epoch);
    }
    for r in &rows {
        assert!(
            r.detection <= r.heartbeat_interval + r.heartbeat_timeout + SimDuration::from_millis(1),
            "detection {:?} exceeds one heartbeat round at interval {:?}",
            r.detection,
            r.heartbeat_interval,
        );
        assert!(r.mttr >= r.detection);
    }
    println!("# detection bounded by one heartbeat round at every operating point");
    println!("# rollback epoch and restored image digest identical across the sweep");
}
