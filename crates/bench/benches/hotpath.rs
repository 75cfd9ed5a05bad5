//! Criterion micro-benchmarks for the capture hot paths: chunk range
//! splitting, the LZ codec, chunk encoding, the 128-bit chunk address,
//! event queue churn, and the COW drain's prepare step — each optimized kernel
//! next to the reference implementation it must match byte-for-byte
//! (`bench::hotpath` holds the shared kernels; the `bench_hotpath` binary
//! asserts the ref/opt equivalence and speedup floors).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::hotpath::{
    capture_named, chunk_id_optimized, chunk_id_reference, codec_inputs, codec_optimized,
    codec_reference, named_fixture, named_reference, queue_optimized_churn, queue_reference_churn,
    queue_schedule, PAGE,
};
use cruz::chunk::{self, CodecScratch};

/// `chunk::split_ranges` over a page-grained image layout.
fn bench_split_ranges(c: &mut Criterion) {
    let pages = 512usize;
    let cuts: Vec<(usize, usize)> = (0..pages).map(|i| (64 + i * PAGE, PAGE)).collect();
    let total = 64 + pages * PAGE + 32;
    c.bench_function("split_ranges_512_pages", |b| {
        b.iter(|| chunk::split_ranges(black_box(total), black_box(&cuts), 1024))
    });
}

/// The raw LZ compressor on one compressible page.
fn bench_compress(c: &mut Criterion) {
    let inputs = codec_inputs(16);
    let page = inputs
        .iter()
        .find(|p| !chunk::is_zero_page(p))
        .expect("mix has non-zero pages");
    c.bench_function("compress_page", |b| {
        b.iter(|| chunk::compress(black_box(page)))
    });
}

/// Container encoding: fresh-allocation reference vs scratch reuse.
fn bench_encode_chunk(c: &mut Criterion) {
    let inputs = codec_inputs(16);
    let page = inputs
        .iter()
        .find(|p| !chunk::is_zero_page(p))
        .expect("mix has non-zero pages");
    let mut g = c.benchmark_group("encode_chunk");
    g.bench_function("reference", |b| {
        b.iter(|| chunk::encode_chunk(black_box(page), true))
    });
    let mut scratch = CodecScratch::new();
    g.bench_function("scratch", |b| {
        b.iter(|| chunk::encode_chunk_with(black_box(page), true, &mut scratch))
    });
    g.finish();
}

/// Whole-page identify+encode over the novel-page mix (zero fast path +
/// scratch vs the pre-pass path).
fn bench_page_encode(c: &mut Criterion) {
    let inputs = codec_inputs(64);
    let mut g = c.benchmark_group("page_encode");
    g.bench_function("reference", |b| {
        b.iter(|| codec_reference(black_box(&inputs)))
    });
    let mut scratch = CodecScratch::new();
    g.bench_function("optimized", |b| {
        b.iter(|| codec_optimized(black_box(&inputs), &mut scratch))
    });
    g.finish();
}

/// The 128-bit chunk content address: two independent FNV passes vs one
/// interleaved `fold2` pass.
fn bench_chunk_id(c: &mut Criterion) {
    let data: Vec<u8> = (0..1024 * 1024usize).map(|i| (i % 251) as u8).collect();
    let mut g = c.benchmark_group("chunk_id_1mib");
    g.bench_function("two_folds", |b| {
        b.iter(|| chunk_id_reference(black_box(&data)))
    });
    g.bench_function("fold2", |b| b.iter(|| chunk_id_optimized(black_box(&data))));
    g.finish();
}

/// Event-queue push/pop churn: two-field comparator vs packed `u128` key.
fn bench_queue_churn(c: &mut Criterion) {
    let schedule = queue_schedule(32 * 1024);
    let mut g = c.benchmark_group("queue_churn_32k");
    g.bench_function("reference", |b| {
        b.iter(|| queue_reference_churn(black_box(&schedule)))
    });
    g.bench_function("packed_key", |b| {
        b.iter(|| queue_optimized_churn(black_box(&schedule)))
    });
    g.finish();
}

/// The COW drain's prepare step: seal plus the reference prepare vs the
/// seal that names every chunk range in its one pass, on a steady-state
/// epoch (20% dirty).
fn bench_cow_drain_encoding(c: &mut Criterion) {
    let fixture = named_fixture(128, 20);
    let mut g = c.benchmark_group("cow_drain_encoding");
    g.sample_size(20);
    g.bench_function("reference", |b| {
        b.iter(|| named_reference(black_box(&fixture)).len())
    });
    g.bench_function("named", |b| {
        b.iter(|| capture_named(black_box(&fixture)).manifest_len())
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = hotpath;
    config = config();
    targets = bench_split_ranges, bench_compress, bench_encode_chunk, bench_page_encode,
        bench_chunk_id, bench_queue_churn, bench_cow_drain_encoding
}
criterion_main!(hotpath);
