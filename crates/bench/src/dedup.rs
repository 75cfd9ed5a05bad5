//! The dedup-store ablation: bytes written to disk per checkpoint epoch,
//! checkpoint latency and restart latency of the `slm` ring under the
//! three store configurations — plain (one whole-image chunk per pod),
//! page-aligned content-addressed dedup, and dedup with per-chunk
//! compression.
//!
//! The experiment attacks the dominant cost in the paper's own evaluation:
//! Fig. 5(a) shows checkpoint latency "dominated by the time to write this
//! state to disk". At steady state slm dirties only a rotating window of
//! its resident state between checkpoints, so a content-addressed store
//! writes a small fraction of the full image — and the per-chunk codec
//! shrinks even those novel pages, since slm's state is periodic.
//!
//! Restored images must be byte-equivalent across every variant (the store
//! representation is invisible above [`cruz::store::CheckpointStore`]);
//! each row carries a digest of the restored epoch's images so the `repro`
//! row and tests can check it.

use cluster::{ClusterParams, StoreConfig, World};
use cruz::proto::ProtocolMode;
use des::SimDuration;

use crate::fig5::{fig5_params, fig5_slm, slm_iterations};
use crate::util::epoch_digest;

/// One measured store-ablation row.
#[derive(Debug, Clone)]
pub struct DedupRow {
    /// Variant label (`plain`, `dedup`, `dedup+lz`).
    pub label: String,
    /// Disk bytes written by the first (cold, all-novel) epoch.
    pub first_epoch_bytes: u64,
    /// Mean disk bytes written per steady-state epoch.
    pub steady_epoch_bytes: u64,
    /// First-epoch checkpoint latency (start to commit point).
    pub first_latency: SimDuration,
    /// Mean steady-state checkpoint latency.
    pub steady_latency: SimDuration,
    /// Disk bytes read to restart from the final epoch.
    pub restart_bytes: u64,
    /// Restart latency (start to all agents restored).
    pub restart_latency: SimDuration,
    /// FNV-1a digest over the first epoch's reassembled image bytes —
    /// equal across variants iff the representations are byte-equivalent.
    pub image_digest: u64,
    /// Whether the restarted job kept making progress.
    pub progressed: bool,
}

/// The three variants the ablation sweeps.
pub fn variants() -> Vec<(&'static str, StoreConfig)> {
    vec![
        ("plain", StoreConfig::default()),
        ("dedup", StoreConfig::dedup()),
        ("dedup+lz", StoreConfig::dedup_compress()),
    ]
}

/// Runs one variant: an `ranks`-rank slm ring with `state_bytes` of
/// resident state per rank, checkpointed `checkpoints` times ~100 ms of
/// execution apart, then crashed and restarted from the final epoch onto
/// spare nodes.
///
/// The 100 ms spacing is the steady-state knob: slm dirties 16 pages per
/// ~5 ms timestep, so successive epochs share most of their pages — the
/// regime content addressing exploits.
pub fn run_dedup_variant(
    label: &str,
    store: StoreConfig,
    ranks: usize,
    state_bytes: u64,
    checkpoints: usize,
) -> DedupRow {
    assert!(checkpoints >= 2, "need a cold epoch and a steady epoch");
    let mut slm = fig5_slm(ranks);
    slm.state_bytes = state_bytes;
    let params = ClusterParams {
        store,
        ..fig5_params()
    };
    // Nodes 0..ranks run the job, ranks..2*ranks receive the restart,
    // node 2*ranks hosts the coordinator.
    let mut w = World::new(2 * ranks + 1, params);
    w.launch_job(&slm.job_spec("slm", 2 * ranks))
        .expect("launch slm");
    w.run_for(SimDuration::from_millis(100));

    let written = |w: &World| -> u64 { (0..ranks).map(|n| w.kernel(n).disk.bytes_written()).sum() };
    let mut epoch_bytes = Vec::with_capacity(checkpoints);
    let mut latencies = Vec::with_capacity(checkpoints);
    let mut last_epoch = 0;
    let mut digest = cruz::digest::OFFSET;
    for i in 0..checkpoints {
        w.run_for(SimDuration::from_millis(100));
        let before = written(&w);
        let op = w
            .start_checkpoint("slm", ProtocolMode::Blocking, None)
            .expect("start checkpoint");
        assert!(w.run_until_op(op, 100_000_000), "checkpoint completes");
        epoch_bytes.push(written(&w) - before);
        let report = w.op_report(op).expect("checkpoint report");
        latencies.push(
            report
                .stats
                .checkpoint_latency()
                .unwrap_or(SimDuration::ZERO),
        );
        last_epoch = op;
        if i == 0 {
            // Only the first capture happens at an identical sim time in
            // every variant (afterwards resume times diverge with the
            // disk schedule), so it is the byte-equivalence witness.
            digest = epoch_digest(&w, "slm", op);
        }
    }

    // Crash the original nodes and restart on the spares.
    w.run_for(SimDuration::from_millis(50));
    for node in 0..ranks {
        w.crash_node(node);
    }
    let read_before: u64 = (ranks..2 * ranks)
        .map(|n| w.kernel(n).disk.bytes_read())
        .sum();
    let placement: Vec<(String, usize)> = (0..ranks)
        .map(|r| (format!("rank{r}"), ranks + r))
        .collect();
    let rs = w
        .start_restart("slm", last_epoch, &placement, ProtocolMode::Blocking)
        .expect("start restart");
    assert!(w.run_until_op(rs, 100_000_000), "restart completes");
    let restart_bytes = (ranks..2 * ranks)
        .map(|n| w.kernel(n).disk.bytes_read())
        .sum::<u64>()
        - read_before;
    let rs_report = w.op_report(rs).expect("restart report");

    // Progress check: the ring must keep iterating after the restart.
    let before = slm_iterations(&w, "slm", ranks);
    w.run_for(SimDuration::from_millis(200));
    let progressed = before.is_some() && slm_iterations(&w, "slm", ranks) > before;

    let steady = &epoch_bytes[1..];
    let steady_lat = &latencies[1..];
    DedupRow {
        label: label.to_owned(),
        first_epoch_bytes: epoch_bytes[0],
        steady_epoch_bytes: steady.iter().sum::<u64>() / steady.len() as u64,
        first_latency: latencies[0],
        steady_latency: SimDuration::from_nanos(
            steady_lat.iter().map(|d| d.as_nanos()).sum::<u64>() / steady_lat.len() as u64,
        ),
        restart_bytes,
        restart_latency: rs_report
            .stats
            .checkpoint_latency()
            .unwrap_or(SimDuration::ZERO),
        image_digest: digest,
        progressed,
    }
}

/// Runs the full ablation sweep.
pub fn run_dedup_sweep(ranks: usize, state_bytes: u64, checkpoints: usize) -> Vec<DedupRow> {
    variants()
        .into_iter()
        .map(|(label, store)| run_dedup_variant(label, store, ranks, state_bytes, checkpoints))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_with_compression_beats_plain_five_fold() {
        // Small state keeps the test fast; the ratio is what matters.
        let rows = run_dedup_sweep(2, 1024 * 1024, 3);
        let plain = &rows[0];
        let lz = &rows[2];
        assert!(
            lz.steady_epoch_bytes * 5 < plain.steady_epoch_bytes,
            "dedup+lz steady bytes {} not 5x below plain {}",
            lz.steady_epoch_bytes,
            plain.steady_epoch_bytes
        );
        assert!(
            lz.steady_latency < plain.steady_latency,
            "dedup+lz latency {:?} not below plain {:?}",
            lz.steady_latency,
            plain.steady_latency
        );
        // Restart must be representation-transparent: identical images.
        assert_eq!(plain.image_digest, rows[1].image_digest);
        assert_eq!(plain.image_digest, lz.image_digest);
        for row in &rows {
            assert!(row.progressed, "{} restart did not progress", row.label);
        }
    }
}
