//! Hot-path micro-benchmark: times each optimized kernel against the
//! reference implementation it replaced and proves the outputs agree.
//!
//! Five pairs (see `bench::hotpath`): the scratch-reusing chunk codec, the
//! single-pass interleaved 128-bit chunk address (`fold2` vs two full
//! folds), the packed-key event queue, the page-digest cached capture
//! prepare on a steady-state epoch (<30% dirty), and on the same epoch the
//! fused capture (seal plus a per-range fold-and-encode prepare vs the
//! seal that names every chunk range in its one pass). The run fails
//! unless at least two of the first four show a ≥2× median speedup, the
//! cached capture actually served clean pages from the cache, and the
//! fused capture found the clean pages already stored. The fused pair is
//! reported beside the four, not counted among them.
//!
//! Also re-checks the pinned image digests in `BENCH_cow_downtime.json`
//! and `BENCH_recovery.json` — the optimizations must be invisible in
//! every produced byte — and emits `BENCH_hotpath.json` so the perf
//! trajectory is tracked across PRs. Both happen before the speedup gate
//! is checked, so a run that misses it still records what it measured.
//!
//! `--quick` runs smaller inputs and fewer samples as a CI smoke test; the
//! asserts are the check either way.

use std::time::Instant;

use bench::hotpath::{
    capture_fixture, capture_hinted, capture_named, capture_reference, chunk_id_optimized,
    chunk_id_reference, codec_inputs, codec_optimized, codec_reference, named_fixture,
    named_reference, queue_optimized_churn, queue_reference_churn, queue_schedule, zero_fraction,
};
use bench::util::check_pinned_digests;
use cruz::chunk::CodecScratch;

fn median_ns(samples: &mut Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `reference` and `optimized` in alternation (so clock drift and
/// cache warmth hit both sides equally) and returns the median ns pair
/// plus each side's warmup checksum. Both closures share one mutable
/// context so stateful kernels (scratch buffers, warm caches) work.
fn time_pair<C>(
    iters: usize,
    ctx: &mut C,
    mut reference: impl FnMut(&mut C) -> u64,
    mut optimized: impl FnMut(&mut C) -> u64,
) -> (u64, u64, u64, u64) {
    // One warmup round each; the checksums also feed the equality check.
    let ref_check = reference(ctx);
    let opt_check = optimized(ctx);
    let mut ref_ns = Vec::with_capacity(iters);
    let mut opt_ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(reference(ctx));
        ref_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(optimized(ctx));
        opt_ns.push(t.elapsed().as_nanos() as u64);
    }
    (
        median_ns(&mut ref_ns),
        median_ns(&mut opt_ns),
        ref_check,
        opt_check,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, codec_pages, digest_bytes, queue_events, cap_pages) = if quick {
        (15usize, 32usize, 256 * 1024usize, 16 * 1024usize, 96usize)
    } else {
        (41, 128, 4 * 1024 * 1024, 128 * 1024, 384)
    };
    // Steady state per the COW measurements: well under 30% of pages
    // touched between epochs.
    let dirty_pct = 20;
    let inputs = codec_inputs(codec_pages);
    println!(
        "# hot-path pairs: encode {codec_pages} pages ({}% zero), digest {} KiB, queue {queue_events} events, capture {cap_pages} pages at {dirty_pct}% dirty",
        zero_fraction(&inputs),
        digest_bytes / 1024
    );
    let mut scratch = CodecScratch::new();
    let (codec_ref, codec_opt, c1, c2) = time_pair(
        iters,
        &mut scratch,
        |_| codec_reference(&inputs),
        |s| codec_optimized(&inputs, s),
    );
    assert_eq!(c1, c2, "optimized page encode diverged from reference");

    let mut data = vec![0u8; digest_bytes];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    let (dig_ref, dig_opt, d1, d2) = time_pair(
        iters,
        &mut (),
        |_| chunk_id_reference(&data),
        |_| chunk_id_optimized(&data),
    );
    assert_eq!(d1, d2, "interleaved fold2 address diverged from two folds");

    let schedule = queue_schedule(queue_events);
    let (q_ref, q_opt, q1, q2) = time_pair(
        iters,
        &mut (),
        |_| queue_reference_churn(&schedule),
        |_| queue_optimized_churn(&schedule),
    );
    assert_eq!(q1, q2, "packed-key queue reordered events");

    let mut fixture = capture_fixture(cap_pages, dirty_pct);
    let (cap_ref, cap_opt, m1, m2) = time_pair(
        iters,
        &mut fixture,
        |f| des::digest::fold(des::digest::OFFSET, capture_reference(f).manifest()),
        |f| des::digest::fold(des::digest::OFFSET, capture_hinted(f).manifest()),
    );
    assert_eq!(m1, m2, "cached prepare produced a different manifest");
    assert!(
        fixture.cache.hits() > 0,
        "steady-state epoch never hit the page-digest cache"
    );

    let mut named = named_fixture(cap_pages, dirty_pct);
    let stored = capture_named(&named);
    let (named_ref, named_opt, n1, n2) = time_pair(
        iters,
        &mut named,
        |f| des::digest::fold(des::digest::OFFSET, &named_reference(f)),
        |f| des::digest::fold(des::digest::OFFSET, capture_named(f).manifest()),
    );
    assert_eq!(n1, n2, "fused capture produced a different manifest");
    assert!(
        stored.novel_count() < stored.chunk_count(),
        "steady-state epoch found no chunk already stored"
    );

    // The gated four, then the fused pair reported beside them.
    let rows = [
        ("page_encode", codec_ref, codec_opt),
        ("chunk_id", dig_ref, dig_opt),
        ("queue_churn", q_ref, q_opt),
        ("capture_cached", cap_ref, cap_opt),
        ("capture_named", named_ref, named_opt),
    ];
    let gated = 4;
    println!(
        "{:>16} {:>14} {:>14} {:>9}",
        "path", "ref_median_us", "opt_median_us", "speedup"
    );
    let mut at_2x = 0usize;
    for (i, &(name, r, o)) in rows.iter().enumerate() {
        let speedup = r as f64 / (o as f64).max(1.0);
        if i < gated && speedup >= 2.0 {
            at_2x += 1;
        }
        println!(
            "{:>16} {:>14.1} {:>14.1} {:>8.2}x",
            name,
            r as f64 / 1000.0,
            o as f64 / 1000.0,
            speedup
        );
    }
    println!(
        "# capture cache: {} hits / {} misses",
        fixture.cache.hits(),
        fixture.cache.misses()
    );
    println!(
        "# fused capture: {} of {} chunks novel",
        stored.novel_count(),
        stored.chunk_count()
    );
    check_pinned_digests();

    let json_rows: Vec<String> = rows
        .iter()
        .map(|&(name, r, o)| {
            format!(
                "    {{\"path\": \"{}\", \"ref_median_ns\": {}, \"opt_median_ns\": {}, \"speedup\": {:.2}}}",
                name,
                r,
                o,
                r as f64 / (o as f64).max(1.0)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"quick\": {quick},\n  \"dirty_pct\": {dirty_pct},\n  \"paths_at_2x\": {at_2x},\n  \"capture_cache_hits\": {},\n  \"capture_cache_misses\": {},\n  \"capture_chunks\": {},\n  \"capture_novel_chunks\": {},\n  \"pairs\": [\n{}\n  ]\n}}\n",
        fixture.cache.hits(),
        fixture.cache.misses(),
        stored.chunk_count(),
        stored.novel_count(),
        json_rows.join(",\n"),
    );
    std::fs::write("BENCH_hotpath.json", json).expect("write BENCH_hotpath.json");
    println!("# wrote BENCH_hotpath.json");
    // The speedup gate comes last, so a run that misses it still checks
    // the pinned digests and leaves its numbers behind.
    assert!(
        at_2x >= 2,
        "only {at_2x} of {gated} hot paths reached a 2x median speedup"
    );
    println!("# {at_2x}/{gated} hot paths at >=2x; all ref/opt outputs identical");
}
