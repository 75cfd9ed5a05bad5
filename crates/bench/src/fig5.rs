//! Figures 5(a) and 5(b): checkpoint latency and coordination overhead of
//! the `slm` benchmark as the node count grows, plus the restart
//! counterpart the paper says behaves "similarly" (§6).

use cluster::{ClusterParams, OpReport, World};
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simos::disk::DiskParams;
use workloads::slm::{SlmConfig, ITER_COUNTER_ADDR};

/// Per-rank resident state (sets the checkpoint payload). Scaled from the
/// paper's testbed together with the disk bandwidth below so the local save
/// lands at ≈1 s, as in Fig. 5(a); see `EXPERIMENTS.md`.
pub const STATE_BYTES: u64 = 8 * 1024 * 1024;

/// Cluster parameters for the Fig. 5 runs: disk bandwidth scaled with the
/// state size to keep the state-to-disk ratio (and thus the ≈1 s local
/// save) of the paper's testbed.
pub fn fig5_params() -> ClusterParams {
    ClusterParams {
        disk: DiskParams {
            bandwidth_bps: 8 * 1024 * 1024,
            op_overhead: SimDuration::from_millis(5),
        },
        prune_old_epochs: true,
        ..ClusterParams::default()
    }
}

/// The slm configuration used by both Fig. 5 sweeps.
pub fn fig5_slm(ranks: usize) -> SlmConfig {
    SlmConfig {
        ranks,
        state_bytes: STATE_BYTES,
        iters: u64::MAX / 2, // runs for the whole experiment
        compute_ns: 5_000_000,
        halo_bytes: 8 * 1024,
        port: 7100,
        state_step_bytes: 0,
    }
}

/// Timesteps the `ranks` ranks of slm job `job` have completed, summed
/// from their guest progress counters; `None` if a rank cannot be read.
pub fn slm_iterations(w: &World, job: &str, ranks: usize) -> Option<u64> {
    (0..ranks)
        .map(|r| {
            let b = w.peek_guest(job, &format!("rank{r}"), 1, ITER_COUNTER_ADDR, 8)?;
            Some(u64::from_le_bytes(b.try_into().ok()?))
        })
        .sum()
}

/// One measured point of the Fig. 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Reports of each checkpoint taken.
    pub reports: Vec<OpReport>,
}

impl Fig5Point {
    /// Total checkpoint latencies (Fig. 5(a)'s series).
    pub fn latencies(&self) -> Vec<SimDuration> {
        self.reports
            .iter()
            .filter_map(|r| r.stats.checkpoint_latency())
            .collect()
    }

    /// Coordination overheads (Fig. 5(b)'s series).
    pub fn overheads(&self) -> Vec<SimDuration> {
        self.reports
            .iter()
            .filter_map(|r| r.coordination_overhead())
            .collect()
    }
}

/// Runs `checkpoints` coordinated checkpoints of an `n`-rank slm job,
/// spaced `interval` apart (the paper used an 8 s interval of execution
/// time; the spacing does not affect either metric).
pub fn run_fig5(n: usize, checkpoints: usize, interval: SimDuration) -> Fig5Point {
    let slm = fig5_slm(n);
    let mut w = World::new(n + 1, fig5_params());
    w.launch_job(&slm.job_spec("slm", n)).expect("launch slm");
    // Let the ring establish and settle into the timestep rhythm.
    w.run_for(SimDuration::from_millis(100));
    let mut reports = Vec::new();
    for _ in 0..checkpoints {
        w.run_for(interval);
        let op = w
            .start_checkpoint("slm", ProtocolMode::Blocking, None)
            .expect("start checkpoint");
        assert!(w.run_until_op(op, 100_000_000), "checkpoint completes");
        reports.push(w.op_report(op).expect("report exists"));
    }
    Fig5Point { reports }
}

/// Runs the restart counterpart: checkpoint an `n`-rank job once, then
/// restart it from that epoch onto `n` fresh nodes, measuring the restart
/// operation. Returns (checkpoint report, restart report).
pub fn run_restart_sweep(n: usize) -> (OpReport, OpReport) {
    let slm = fig5_slm(n);
    // Nodes 0..n run the job; nodes n..2n receive the restart; node 2n
    // hosts the coordinator.
    let mut w = World::new(2 * n + 1, fig5_params());
    w.launch_job(&slm.job_spec("slm", 2 * n))
        .expect("launch slm");
    w.run_for(SimDuration::from_millis(100));
    w.run_for(SimDuration::from_secs(1));
    let ck = w
        .start_checkpoint("slm", ProtocolMode::Blocking, None)
        .expect("start checkpoint");
    assert!(w.run_until_op(ck, 100_000_000));
    let ck_report = w.op_report(ck).expect("checkpoint report");
    // The original nodes fail; restart everything on the spare nodes.
    w.run_for(SimDuration::from_millis(100));
    for node in 0..n {
        w.crash_node(node);
    }
    let placement: Vec<(String, usize)> = (0..n).map(|r| (format!("rank{r}"), n + r)).collect();
    let rs = w
        .start_restart("slm", ck, &placement, ProtocolMode::Blocking)
        .expect("start restart");
    assert!(w.run_until_op(rs, 100_000_000), "restart completes");
    let rs_report = w.op_report(rs).expect("restart report");
    // Sanity: the restored ring keeps iterating.
    let before = slm_iterations(&w, "slm", n);
    w.run_for(SimDuration::from_millis(200));
    let after = slm_iterations(&w, "slm", n);
    assert!(
        before.is_some() && after > before,
        "no progress after the restart: {before:?} -> {after:?}"
    );
    (ck_report, rs_report)
}

/// The scalability extrapolation (§6's closing claim): overhead vs. local
/// save time as the cluster grows well past the paper's 8 nodes. Uses a
/// smaller per-rank state so wide sweeps stay tractable; the ratio is what
/// matters.
pub fn run_scalability(n: usize) -> OpReport {
    let slm = SlmConfig {
        state_bytes: 1024 * 1024,
        halo_bytes: 4 * 1024,
        ..fig5_slm(n)
    };
    let params = ClusterParams {
        prune_old_epochs: true,
        ..ClusterParams::default()
    };
    let mut w = World::new(n + 1, params);
    w.launch_job(&slm.job_spec("slm", n)).expect("launch slm");
    w.run_for(SimDuration::from_millis(100));
    let op = w
        .start_checkpoint("slm", ProtocolMode::Blocking, None)
        .expect("start checkpoint");
    assert!(w.run_until_op(op, 200_000_000));
    w.op_report(op).expect("report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_point_lands_near_one_second() {
        let p = run_fig5(2, 2, SimDuration::from_millis(500));
        assert_eq!(p.reports.len(), 2);
        for lat in p.latencies() {
            let s = lat.as_secs_f64();
            assert!(
                (0.8..1.4).contains(&s),
                "latency {s} s outside Fig 5(a) band"
            );
        }
        for ov in p.overheads() {
            assert!(
                ov < SimDuration::from_millis(2),
                "overhead {ov} should be microseconds-scale"
            );
        }
    }
}
