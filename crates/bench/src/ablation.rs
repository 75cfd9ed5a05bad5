//! The Fig. 4 ablation: blocking vs. optimized coordination, measured as
//! per-node blocked time when local save durations are heterogeneous.

use cluster::{CkptCaptureMode, CkptOptions, ClusterParams, World};
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simos::disk::DiskParams;
use workloads::slm::SlmConfig;

use crate::fig5::fig5_slm;

/// One protocol's measured blocking behaviour.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// (node, blocked duration) pairs, sorted by node.
    pub blocked: Vec<(usize, SimDuration)>,
    /// Total checkpoint latency.
    pub latency: SimDuration,
}

/// Runs one checkpoint of a heterogeneous-state slm job under `mode`, with
/// the §5.2 write-back capture when `writeback` is set, and reports each
/// node's blocked window.
pub fn run_ablation(mode: ProtocolMode, ranks: usize, writeback: bool) -> AblationPoint {
    let slm = SlmConfig {
        state_bytes: 1024 * 1024,
        // Rank r saves 1 MiB + r * 4 MiB: later ranks save much longer.
        state_step_bytes: 4 * 1024 * 1024,
        compute_ns: 2_000_000,
        halo_bytes: 4 * 1024,
        ..fig5_slm(ranks)
    };
    let params = ClusterParams {
        // A slower disk exaggerates save-time differences.
        disk: DiskParams {
            bandwidth_bps: 32 * 1024 * 1024,
            op_overhead: SimDuration::from_millis(5),
        },
        prune_old_epochs: true,
        ..ClusterParams::default()
    };
    let mut w = World::new(ranks + 1, params);
    w.launch_job(&slm.job_spec("slm", ranks)).expect("launch");
    w.run_for(SimDuration::from_millis(50));
    let op = w
        .start_checkpoint_with(
            "slm",
            CkptOptions {
                mode,
                capture: writeback.then_some(CkptCaptureMode::Writeback),
                ..CkptOptions::default()
            },
        )
        .expect("start");
    assert!(w.run_until_op(op, 100_000_000));
    let rep = w.op_report(op).expect("report");
    let mut blocked = rep.blocked_durations();
    blocked.sort_by_key(|&(n, _)| n);
    AblationPoint {
        blocked,
        latency: rep.stats.checkpoint_latency().expect("latency"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_shrinks_every_blackout_to_capture_time() {
        let full = run_ablation(ProtocolMode::Optimized, 3, false);
        let cow = run_ablation(ProtocolMode::Optimized, 3, true);
        let full_max = full.blocked.iter().map(|&(_, d)| d).max().unwrap();
        let cow_max = cow.blocked.iter().map(|&(_, d)| d).max().unwrap();
        assert!(
            cow_max.as_millis_f64() < full_max.as_millis_f64() * 0.25,
            "cow blackout {cow_max} vs full {full_max}"
        );
    }

    #[test]
    fn optimized_mode_releases_fast_savers_early() {
        let blocking = run_ablation(ProtocolMode::Blocking, 4, false);
        let optimized = run_ablation(ProtocolMode::Optimized, 4, false);
        // Node 0 (smallest state) is blocked far less under Fig. 4.
        let b0 = blocking.blocked[0].1;
        let o0 = optimized.blocked[0].1;
        assert!(
            o0.as_millis_f64() < b0.as_millis_f64() * 0.5,
            "optimized node0 blocked {o0} vs blocking {b0}"
        );
        // The slowest node is blocked roughly the same in both modes.
        let b_last = blocking.blocked.last().unwrap().1;
        let o_last = optimized.blocked.last().unwrap().1;
        let ratio = o_last.as_millis_f64() / b_last.as_millis_f64();
        assert!((0.8..1.2).contains(&ratio), "slowest node ratio {ratio}");
    }
}
