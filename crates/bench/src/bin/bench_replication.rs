//! Replicated-store robustness bench (EXPERIMENTS.md E19): restore
//! success and MTTR with k−1 of k replica stores killed mid-checkpoint,
//! and the write amplification replication pays for it.
//!
//! The asserts are the check: the job heals at every k, the restored
//! images are byte-identical across the sweep, and storage grows with k in
//! the expected band.
//!
//! `--quick` sweeps only k ∈ {1, 3} as a CI smoke test.

use bench::replication::run_replication_sweep;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ks: &[usize] = if quick { &[1, 3] } else { &[1, 2, 3, 5] };

    println!("# replicated store: kill k-1 of k replica stores mid-checkpoint, heal, restore");
    println!(
        "{:>3} {:>7} {:>8} {:>11} {:>9} {:>8} {:>13} {:>9}",
        "k", "killed", "restore", "detect_ms", "mttr_ms", "scrub", "stored_bytes", "amp_k1"
    );
    let rows = run_replication_sweep(ks, 7);
    let base_bytes = rows[0].stored_bytes as f64;
    let amps: Vec<f64> = rows
        .iter()
        .map(|r| r.stored_bytes as f64 / base_bytes)
        .collect();
    for (r, amp) in rows.iter().zip(&amps) {
        println!(
            "{:>3} {:>7} {:>8} {:>11.3} {:>9.3} {:>8} {:>13} {:>9.3}",
            r.k,
            r.replicas_killed,
            r.restore_ok,
            r.detection.as_micros_f64() / 1000.0,
            r.mttr.as_micros_f64() / 1000.0,
            r.scrubbed,
            r.stored_bytes,
            amp,
        );
    }

    for (r, amp) in rows.iter().zip(&amps) {
        assert!(r.restore_ok, "k = {} failed to restore", r.k);
        assert_eq!(r.replicas_killed, r.k - 1, "the plan must kill k-1");
        assert_eq!(
            r.image_digest, rows[0].image_digest,
            "restored images diverge at k = {}",
            r.k
        );
        // Each replica costs one store tree plus one op log, and the
        // post-heal compaction pass shrinks every log to the minimal
        // self-contained form — roughly one tree's bytes, since the log
        // must keep carrying the retained epoch's blobs for scrub's
        // replay-from-empty. Amplification therefore tracks ≈2k; drifting
        // above 2.2k means compaction stopped firing and history is
        // accreting in the logs again.
        if r.k > 1 {
            let lo = 1.9 * r.k as f64;
            let hi = 2.2 * r.k as f64;
            assert!(
                (lo..hi).contains(amp),
                "write amplification {amp:.2} outside [{lo:.1}, {hi:.1}) at k = {}",
                r.k
            );
        }
    }
    println!("# restore succeeded at every k with byte-identical rollback images");
    println!("# write amplification tracks ~2k (store trees + compacted operation logs)");
}
