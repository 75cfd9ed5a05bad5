//! The copy-on-write downtime ablation: per-epoch pod freeze (p50/p99),
//! end-to-end epoch latency and extra pre-image copy traffic of the slm
//! ring under stop-the-world, §5.2 background-writeback, and full COW
//! capture — the Fig. 5(a) workload attacked from the downtime axis
//! (EXPERIMENTS.md E15).
//!
//! `--quick` runs fewer epochs as a CI smoke test; the asserts (≥5× p50
//! freeze reduction, byte-identical images, nonzero COW copy traffic) are
//! the check either way.

use bench::cow::run_cow_sweep;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ranks, state_bytes, checkpoints) = if quick {
        (2usize, 8 * 1024 * 1024u64, 2usize)
    } else {
        (2usize, 8 * 1024 * 1024u64, 5usize)
    };
    println!(
        "# COW capture ablation: slm ring, {ranks} ranks x {} MiB state, {checkpoints} epochs ~100 ms apart",
        state_bytes / (1024 * 1024)
    );
    println!(
        "{:>15} {:>13} {:>13} {:>14} {:>15}",
        "capture", "p50_frz_ms", "p99_frz_ms", "epoch_lat_s", "extra_copy_KiB"
    );
    let rows = run_cow_sweep(ranks, state_bytes, checkpoints);
    for r in &rows {
        println!(
            "{:>15} {:>13.3} {:>13.3} {:>14.3} {:>15.1}",
            r.label,
            r.p50_freeze().as_micros_f64() / 1000.0,
            r.p99_freeze().as_micros_f64() / 1000.0,
            r.mean_epoch_latency().as_secs_f64(),
            r.extra_copy_bytes as f64 / 1024.0,
        );
    }

    let stw = &rows[0];
    let wb = &rows[1];
    let cow = &rows[2];
    let speedup = stw.p50_freeze().as_micros_f64() / cow.p50_freeze().as_micros_f64().max(1e-9);
    assert!(
        speedup >= 5.0,
        "cow p50 freeze {:?} not ≥5× below stop-the-world {:?}",
        cow.p50_freeze(),
        stw.p50_freeze()
    );
    assert!(wb.p50_freeze() < stw.p50_freeze());
    assert!(cow.p50_freeze() <= wb.p50_freeze());
    assert_eq!(
        stw.image_digest, wb.image_digest,
        "writeback images diverge"
    );
    assert_eq!(stw.image_digest, cow.image_digest, "cow images diverge");
    assert_eq!(stw.extra_copy_bytes, 0);
    assert!(
        cow.extra_copy_bytes > 0,
        "cow drain never raced guest writes"
    );
    println!("# cow p50 freeze reduction vs stop-the-world: {speedup:.1}x");
    println!("# restored images byte-identical across all capture modes");
}
