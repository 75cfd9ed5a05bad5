//! The copy-on-write capture ablation: per-epoch pod freeze duration,
//! end-to-end epoch latency and extra pre-image copy traffic of the `slm`
//! ring under the three capture/write-out disciplines —
//!
//! * `stw` — stop-the-world capture, freeze covers capture *and* the disk
//!   write (the paper's measured Fig. 5(a) behavior);
//! * `stw+writeback` — [`cluster::CkptCaptureMode::Writeback`], the §5.2 durability
//!   split: freeze covers capture only, the write completes in the
//!   background and gates the commit;
//! * `cow` — [`cluster::CkptCaptureMode::Cow`]: freeze covers only arming
//!   the memory snapshot plus the non-memory skeleton; pages drain in the
//!   background while the resumed guests race the snapshot.
//!
//! The paper names COW checkpointing as the key future optimization for
//! exactly this downtime (§6); the ablation quantifies each step of the
//! ladder. Restored images must be byte-identical across all three
//! variants — the capture discipline is invisible in the stored epoch —
//! so each row carries a first-epoch digest the `repro` row and tests check.

use cluster::world::CkptOptions;
use cluster::{CkptCaptureMode, ClusterParams, World};
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simnet::tcp::TcpConfig;

use crate::fig5::{fig5_params, fig5_slm};
use crate::util::{epoch_digest, percentile_duration};

/// One measured capture-ablation row.
#[derive(Debug, Clone)]
pub struct CowRow {
    /// Variant label (`stw`, `stw+writeback`, `cow`).
    pub label: String,
    /// Per-node pod freeze durations, one sample per (node, epoch).
    pub freezes: Vec<SimDuration>,
    /// End-to-end checkpoint latency per epoch (start to commit point).
    pub epoch_latencies: Vec<SimDuration>,
    /// Total pre-image bytes copied because guest writes raced the drain
    /// (zero for the stop-the-world variants).
    pub extra_copy_bytes: u64,
    /// FNV-1a digest over the first epoch's reassembled image bytes —
    /// equal across variants iff capture is semantically invisible.
    pub image_digest: u64,
}

impl CowRow {
    /// Median per-epoch freeze.
    pub fn p50_freeze(&self) -> SimDuration {
        percentile_duration(&self.freezes, 50.0)
    }

    /// Tail per-epoch freeze.
    pub fn p99_freeze(&self) -> SimDuration {
        percentile_duration(&self.freezes, 99.0)
    }

    /// Mean end-to-end epoch latency.
    pub fn mean_epoch_latency(&self) -> SimDuration {
        if self.epoch_latencies.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(
            self.epoch_latencies
                .iter()
                .map(|d| d.as_nanos())
                .sum::<u64>()
                / self.epoch_latencies.len() as u64,
        )
    }
}

/// The three variants the ablation sweeps, coarsest freeze first. All run
/// the Fig. 4 optimized protocol so the capture discipline is the only
/// difference.
pub fn variants() -> Vec<(&'static str, CkptOptions)> {
    let base = CkptOptions {
        mode: ProtocolMode::Optimized,
        ..CkptOptions::default()
    };
    vec![
        ("stw", base),
        (
            "stw+writeback",
            CkptOptions {
                capture: Some(CkptCaptureMode::Writeback),
                ..base
            },
        ),
        (
            "cow",
            CkptOptions {
                capture: Some(CkptCaptureMode::Cow),
                ..base
            },
        ),
    ]
}

/// Cluster parameters for the ablation: the Fig. 5 disk/state scaling plus
/// a snappy TCP retransmission timer, so ranks whose in-flight halo frames
/// were dropped by the freeze recover *within* the drain window — the
/// regime where COW actually pays its pre-image copies.
pub fn cow_params() -> ClusterParams {
    ClusterParams {
        tcp: TcpConfig {
            initial_rto: SimDuration::from_millis(2),
            min_rto: SimDuration::from_millis(1),
            ..TcpConfig::default()
        },
        ..fig5_params()
    }
}

/// Runs one variant: an `ranks`-rank slm ring with `state_bytes` of
/// resident state per rank, checkpointed `checkpoints` times ~100 ms of
/// execution apart. Returns the freeze/latency distributions and the
/// first-epoch image digest.
pub fn run_cow_variant(
    label: &str,
    opts: CkptOptions,
    ranks: usize,
    state_bytes: u64,
    checkpoints: usize,
) -> CowRow {
    let mut slm = fig5_slm(ranks);
    slm.state_bytes = state_bytes;
    // 1 ms timesteps: several writes land inside a multi-ms drain window.
    slm.compute_ns = 1_000_000;
    let mut w = World::new(ranks + 1, cow_params());
    w.launch_job(&slm.job_spec("slm", ranks))
        .expect("launch slm");
    w.run_for(SimDuration::from_millis(100));

    let mut freezes = Vec::new();
    let mut epoch_latencies = Vec::new();
    let mut extra_copy_bytes = 0u64;
    let mut digest = cruz::digest::OFFSET;
    for i in 0..checkpoints {
        w.run_for(SimDuration::from_millis(100));
        let started = w.now;
        let op = w
            .start_checkpoint_with("slm", opts)
            .expect("start checkpoint");
        assert!(
            w.run_until_op(op, 100_000_000),
            "{label}: checkpoint completes"
        );
        let report = w.op_report(op).expect("checkpoint report");
        assert!(
            report.complete && !report.aborted,
            "{label}: epoch committed"
        );
        freezes.extend(report.blocked_durations().iter().map(|&(_, d)| d));
        // Start-to-commit, durability included — `checkpoint_latency()`
        // only spans through global Done, which COW moves to the arm
        // instant and so no longer bounds the epoch.
        epoch_latencies.push(w.now.duration_since(started));
        extra_copy_bytes += report.cow_copied_bytes.iter().map(|&(_, b)| b).sum::<u64>();
        if i == 0 {
            // Only the first capture happens at an identical sim time in
            // every variant (afterwards resume times diverge with the
            // freeze schedule), so it is the byte-equivalence witness.
            digest = epoch_digest(&w, "slm", op);
        }
    }
    CowRow {
        label: label.to_owned(),
        freezes,
        epoch_latencies,
        extra_copy_bytes,
        image_digest: digest,
    }
}

/// Runs the full capture ablation sweep.
pub fn run_cow_sweep(ranks: usize, state_bytes: u64, checkpoints: usize) -> Vec<CowRow> {
    variants()
        .into_iter()
        .map(|(label, opts)| run_cow_variant(label, opts, ranks, state_bytes, checkpoints))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_cuts_p50_freeze_five_fold_with_identical_images() {
        // The acceptance criterion at the Fig. 5 image size: 8 MiB of
        // per-rank state, COW p50 freeze ≥5× below stop-the-world.
        let rows = run_cow_sweep(2, 8 * 1024 * 1024, 2);
        let stw = &rows[0];
        let cow = &rows[2];
        assert!(
            cow.p50_freeze().as_micros_f64() * 5.0 < stw.p50_freeze().as_micros_f64(),
            "cow p50 {:?} not ≥5× below stop-the-world {:?}",
            cow.p50_freeze(),
            stw.p50_freeze()
        );
        // The §5.2 writeback split sits strictly between the two.
        let wb = &rows[1];
        assert!(wb.p50_freeze() < stw.p50_freeze());
        assert!(cow.p50_freeze() <= wb.p50_freeze());
        // Only COW pays pre-image copies, and it really does pay them.
        assert_eq!(stw.extra_copy_bytes, 0);
        assert_eq!(wb.extra_copy_bytes, 0);
        assert!(cow.extra_copy_bytes > 0, "drain never raced guest writes");
        // Capture discipline is invisible in the stored epoch, and the
        // epoch's bytes are pinned: no later pass may move one of them.
        assert_eq!(stw.image_digest, wb.image_digest);
        assert_eq!(stw.image_digest, cow.image_digest);
        assert_eq!(stw.image_digest, 0x7163_5655_e9e7_0ed2);
    }
}
