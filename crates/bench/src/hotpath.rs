//! Shared kernels for the hot-path micro-benchmarks: each optimized path
//! paired with the reference implementation it must match byte-for-byte.
//!
//! Five pairs, mirroring the optimization passes DESIGN.md §15 and §22
//! describe:
//!
//! * **codec** — fresh-allocation [`cruz::chunk::encode_chunk`] vs the
//!   scratch-reusing [`cruz::chunk::encode_chunk_with`];
//! * **chunk_id** — the 128-bit content address as two independent FNV
//!   passes over the page vs [`des::digest::fold2`]'s single interleaved
//!   pass (what [`cruz::chunk::ChunkId::of`] now does);
//! * **queue** — the pre-optimization two-field heap entry (kept here as
//!   [`RefQueue`]) vs [`des::EventQueue`]'s packed `u128` key;
//! * **capture_cached** — [`CheckpointStore::prepare_chunked`] vs the
//!   page-digest cached `prepare_chunked_hinted` on a steady-state epoch
//!   where most pages are clean;
//! * **capture_named** — seal plus a per-range fold-and-encode prepare
//!   ([`named_reference`]) vs the fused capture: a seal that names every
//!   chunk range in its one pass, then `prepare_sealed`, on a steady-state
//!   epoch whose clean pages the store already holds.
//!
//! Both the `hotpath` criterion harness and the `bench_hotpath` binary
//! drive these kernels; the binary additionally asserts the ref/opt
//! outputs agree, so a speedup can never come from diverging behavior.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cruz::chunk::{self, ChunkId, CodecScratch};
use cruz::pagecache::{DigestCache, PageHint};
use cruz::store::{
    CheckpointStore, PreparedChunked, PreparedPut, StoreConfig, MANIFEST_MAGIC, STORE_VERSION,
};
use des::digest;
use des::{EventQueue, SimTime};
use simos::fs::NetFs;
use zap::image::ImageWriter;

/// Page size the synthetic images use (matches the guest page size).
pub const PAGE: usize = 4096;

/// Deterministic xorshift64* stream for reproducible inputs.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Fills `buf` with a page of the given flavor: `0` zero page, `1`
/// text-like (compressible), `2` sparse counters, `3` incompressible.
fn fill_page(buf: &mut [u8], flavor: u64, seed: u64) {
    let mut s = seed | 1;
    match flavor % 4 {
        0 => buf.fill(0),
        1 => {
            const TEXT: &[u8] = b"the quick brown fox jumps over the lazy dog ";
            for (i, b) in buf.iter_mut().enumerate() {
                *b = TEXT[i % TEXT.len()];
            }
        }
        2 => {
            buf.fill(0);
            for i in (0..buf.len()).step_by(64) {
                buf[i] = (xorshift(&mut s) & 0xff) as u8;
            }
        }
        _ => {
            for b in buf.iter_mut() {
                *b = (xorshift(&mut s) & 0xff) as u8;
            }
        }
    }
}

/// A representative novel-page mix for the identify+encode kernels. A
/// first-epoch capture of an idle-heavy pod is dominated by never-written
/// (all-zero) pages — the population the zero-page shortcut targets — with
/// the rest a spread of compressible, sparse, and incompressible payloads.
/// Callers report the realized zero fraction via [`zero_fraction`].
pub fn codec_inputs(pages: usize) -> Vec<Vec<u8>> {
    const FLAVORS: [u64; 16] = [0, 1, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 0];
    (0..pages)
        .map(|i| {
            let mut p = vec![0u8; PAGE];
            fill_page(&mut p, FLAVORS[i % FLAVORS.len()], i as u64 + 1);
            p
        })
        .collect()
}

/// Share of `inputs` that are all-zero pages, in percent.
pub fn zero_fraction(inputs: &[Vec<u8>]) -> usize {
    if inputs.is_empty() {
        return 0;
    }
    100 * inputs.iter().filter(|p| chunk::is_zero_page(p)).count() / inputs.len()
}

/// Folds a chunk id and its stored container into a running checksum, so
/// the ref/opt kernels can be compared without keeping every output alive.
fn fold_chunk(h: u64, id: chunk::ChunkId, stored: &[u8]) -> u64 {
    digest::fold(digest::fold_u64(digest::fold_u64(h, id.0), id.1), stored)
}

/// Reference per-page identify+encode: two full FNV folds for the chunk id
/// plus a fresh match-finder table and output allocation per page — what
/// the capture path did before this pass.
pub fn codec_reference(inputs: &[Vec<u8>]) -> u64 {
    inputs.iter().fold(digest::OFFSET, |h, p| {
        fold_chunk(h, chunk::ChunkId::of(p), &chunk::encode_chunk(p, true))
    })
}

/// Optimized per-page identify+encode: the zero-page fast path skips both
/// folds and the codec entirely; non-zero pages reuse the scratch table
/// and output buffer.
pub fn codec_optimized(inputs: &[Vec<u8>], scratch: &mut CodecScratch) -> u64 {
    inputs.iter().fold(digest::OFFSET, |h, p| {
        if chunk::is_zero_page(p) {
            fold_chunk(h, chunk::zero_page_id(), chunk::zero_page_encoded(true))
        } else {
            fold_chunk(
                h,
                chunk::ChunkId::of(p),
                &chunk::encode_chunk_with(p, true, scratch),
            )
        }
    })
}

/// Reference 128-bit content address: two complete, independent FNV-1a
/// folds over the data — the data read twice, each fold latency-bound on
/// its own multiply chain. What [`cruz::chunk::ChunkId::of`] did before
/// [`des::digest::fold2`]. Returns the two halves folded together so the
/// pair can be compared as one checksum.
pub fn chunk_id_reference(data: &[u8]) -> u64 {
    let lo = digest::fold(digest::OFFSET, data);
    let hi = digest::fold(digest::OFFSET_ALT, data);
    digest::fold_u64(lo, hi)
}

/// Optimized 128-bit content address: one interleaved [`des::digest::fold2`]
/// pass — the data read once, the two independent multiply chains kept in
/// flight together.
pub fn chunk_id_optimized(data: &[u8]) -> u64 {
    let (lo, hi) = digest::fold2(digest::OFFSET, digest::OFFSET_ALT, data);
    digest::fold_u64(lo, hi)
}

/// The pre-optimization event-queue entry: time and sequence number as
/// separate fields compared lexicographically. Kept verbatim as the
/// reference side of the queue churn pair.
#[derive(Debug)]
struct RefEntry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for RefEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for RefEntry<T> {}
impl<T> PartialOrd for RefEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for RefEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-optimization event queue (two-field comparator), FIFO on ties.
#[derive(Debug)]
pub struct RefQueue<T> {
    heap: BinaryHeap<RefEntry<T>>,
    seq: u64,
}

impl<T> RefQueue<T> {
    /// Creates an empty reference queue.
    pub fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(RefEntry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }
}

impl<T> Default for RefQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The churn schedule both queue kernels replay: `(time_nanos, payload)`
/// pushes with clustered timestamps (simulation events bunch at epoch
/// boundaries, so ties are common).
pub fn queue_schedule(n: usize) -> Vec<(u64, u64)> {
    let mut s = 0x9e37_79b9u64;
    (0..n as u64)
        .map(|i| {
            let t = (xorshift(&mut s) % 1000) * 100 + (i / 16) * 50;
            (t, i)
        })
        .collect()
}

/// Reference queue churn: push half, interleave pop/push, drain.
/// Returns an order-sensitive checksum of the popped sequence.
pub fn queue_reference_churn(schedule: &[(u64, u64)]) -> u64 {
    churn(&mut RefQueue::new(), schedule)
}

/// Optimized queue churn: same schedule through [`des::EventQueue`]'s
/// packed-key entries.
pub fn queue_optimized_churn(schedule: &[(u64, u64)]) -> u64 {
    churn(&mut EventQueue::new(), schedule)
}

/// The two queue implementations under one interface so both replay the
/// exact same churn loop.
trait Churnable {
    fn push(&mut self, at: SimTime, payload: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl Churnable for RefQueue<u64> {
    fn push(&mut self, at: SimTime, payload: u64) {
        RefQueue::push(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        RefQueue::pop(self)
    }
}

impl Churnable for EventQueue<u64> {
    fn push(&mut self, at: SimTime, payload: u64) {
        EventQueue::push(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

fn churn(q: &mut impl Churnable, schedule: &[(u64, u64)]) -> u64 {
    let half = schedule.len() / 2;
    let mut sum = digest::OFFSET;
    for &(t, p) in &schedule[..half] {
        q.push(SimTime::from_nanos(t), p);
    }
    for &(t, p) in &schedule[half..] {
        if let Some((at, got)) = q.pop() {
            sum = digest::fold_u64(sum, at.as_nanos());
            sum = digest::fold_u64(sum, got);
        }
        q.push(SimTime::from_nanos(t), p);
    }
    while let Some((at, got)) = q.pop() {
        sum = digest::fold_u64(sum, at.as_nanos());
        sum = digest::fold_u64(sum, got);
    }
    sum
}

/// Settings both capture pairs chunk under. threads: 1 pins both sides of
/// each pair to the serial kernels: the pairs isolate the hash passes and
/// the cache; thread scaling is bench_parallel's subject.
fn capture_cfg() -> StoreConfig {
    StoreConfig {
        chunk_bytes: 1024,
        dedup: true,
        compress: true,
        threads: 1,
        replicas: 1,
    }
}

/// The previous and current epochs of a steady-state capture: `pages`
/// private pages between 64 bytes of header and 32 of trailer metadata,
/// of which `dirty_pct`% were rewritten since the previous capture.
/// Returns each epoch's unsealed image body, the page cuts (the same in
/// both), and which pages were rewritten.
fn capture_epochs(
    pages: usize,
    dirty_pct: usize,
) -> (Vec<u8>, Vec<u8>, Vec<(usize, usize)>, Vec<bool>) {
    let build = |rewrite: &dyn Fn(usize) -> bool| -> Vec<u8> {
        let mut raw = vec![0xA5u8; 64]; // image header metadata
        for i in 0..pages {
            let mut p = vec![0u8; PAGE];
            let flavor = [1u64, 2, 2, 3, 0][i % 5];
            let seed = if rewrite(i) {
                0x8000 + i as u64
            } else {
                1 + i as u64
            };
            fill_page(&mut p, flavor, seed);
            if rewrite(i) {
                // Every byte of a rewritten page changes, whatever its
                // flavor (zero and text pages ignore the seed), and no
                // two rewritten pages end up alike.
                for (j, b) in p.iter_mut().enumerate() {
                    *b ^= ((i * 31 + j) % 251) as u8 | 1;
                }
            }
            raw.extend_from_slice(&p);
        }
        raw.extend_from_slice(&[0x5A; 32]); // trailer metadata
        raw
    };
    let stride = (100 / dirty_pct.clamp(1, 100)).max(1);
    let dirty: Vec<bool> = (0..pages).map(|i| i % stride == 0).collect();
    let cuts = (0..pages).map(|i| (64 + i * PAGE, PAGE)).collect();
    (build(&|_| false), build(&|i| dirty[i]), cuts, dirty)
}

/// The page-digest cache pair's steady-state epoch: the serialized image,
/// its page hints, and a cache warmed by the previous epoch's prepare.
pub struct CaptureFixture {
    /// The store both paths prepare against (nothing is ever written, so
    /// novelty accounting is identical every iteration).
    pub store: CheckpointStore,
    /// Chunking/codec settings.
    pub cfg: StoreConfig,
    /// The current epoch's serialized image.
    pub raw: Vec<u8>,
    /// Page hints for `raw`; clean pages carry keys into the warm cache.
    pub hints: Vec<PageHint>,
    /// The same cuts as `(offset, len)` pairs for the reference path.
    pub cuts: Vec<(usize, usize)>,
    /// Cache holding the previous epoch's page digests and containers.
    pub cache: DigestCache,
}

/// Builds the cache pair's steady-state epoch (see `capture_epochs`); the
/// returned cache is warm (the previous epoch was prepared through it).
pub fn capture_fixture(pages: usize, dirty_pct: usize) -> CaptureFixture {
    let cfg = capture_cfg();
    let store = CheckpointStore::new(NetFs::new(), "bench");
    let mut cache = DigestCache::new();
    let (raw0, raw, cuts, dirty) = capture_epochs(pages, dirty_pct);
    let hints_for = |clean: &dyn Fn(usize) -> bool| -> Vec<PageHint> {
        cuts.iter()
            .enumerate()
            .map(|(i, &(offset, len))| PageHint {
                offset,
                len,
                key: Some((0, i as u64 * PAGE as u64)),
                clean: clean(i),
            })
            .collect()
    };
    // Previous epoch: everything computed fresh, warming the cache.
    store.prepare_chunked_hinted(&raw0, &hints_for(&|_| false), &cfg, "pod", &mut cache);
    let hints = hints_for(&|i| !dirty[i]);
    CaptureFixture {
        store,
        cfg,
        raw,
        hints,
        cuts,
        cache,
    }
}

/// Reference prepare of the cache pair: every page re-hashed and
/// re-encoded.
pub fn capture_reference(f: &CaptureFixture) -> PreparedChunked {
    f.store.prepare_chunked(&f.raw, &f.cuts, &f.cfg)
}

/// Cached prepare: clean pages served from the warm digest cache. Steady
/// state is preserved across calls — each prepare re-records the epoch's
/// entries, so repeated invocations keep hitting.
pub fn capture_hinted(f: &mut CaptureFixture) -> PreparedChunked {
    f.store
        .prepare_chunked_hinted(&f.raw, &f.hints, &f.cfg, "pod", &mut f.cache)
}

/// The fused capture pair's steady-state epoch: the current epoch's
/// serialized image body (unsealed) and its page cuts, over a store that
/// already holds the previous epoch (as a checkpoint would have left it).
pub struct NamedFixture {
    /// The filesystem under `store`.
    pub fs: NetFs,
    /// The store both paths prepare against. It holds the previous epoch
    /// and nothing is written while timing, so novelty accounting is
    /// identical every iteration.
    pub store: CheckpointStore,
    /// Chunking/codec settings.
    pub cfg: StoreConfig,
    /// The current epoch's image body, before its checksum trailer.
    pub body: ImageWriter,
    /// Page cuts of the body.
    pub cuts: Vec<(usize, usize)>,
}

/// Builds the fused pair's steady-state epoch (see `capture_epochs`),
/// with the previous epoch prepared and put.
pub fn named_fixture(pages: usize, dirty_pct: usize) -> NamedFixture {
    let cfg = capture_cfg();
    let fs = NetFs::new();
    let store = CheckpointStore::new(fs.clone(), "bench");
    let (raw0, raw, cuts, _) = capture_epochs(pages, dirty_pct);
    let body_of = |raw: &[u8]| {
        let mut body = ImageWriter::new();
        raw.iter().for_each(|&b| body.u8(b));
        body
    };
    let put = store.prepare_chunked(body_of(&raw0).seal().bytes(), &cuts, &cfg);
    store
        .put_prepared("pod", 0, PreparedPut::Chunked(put))
        .expect("a fresh put names only chunks it carries or finds");
    NamedFixture {
        fs,
        store,
        cfg,
        body: body_of(&raw),
        cuts,
    }
}

/// Reference capture of the fused pair, as checkpoints ran it before the
/// seal named the chunks (and as every checkpoint after a restart ran it,
/// with the page-digest cache cold): seal the image, then fold *and*
/// encode every chunk range, consulting the store for each. Kept here,
/// like [`RefQueue`], as the baseline the fused path is timed against.
/// Returns the manifest.
pub fn named_reference(f: &NamedFixture) -> Vec<u8> {
    let sealed = f.body.clone().seal();
    let raw = sealed.bytes();
    let ranges = chunk::split_ranges(raw.len(), &f.cuts, f.cfg.chunk_bytes);
    let mut w = ImageWriter::new();
    w.u32(MANIFEST_MAGIC);
    w.u16(STORE_VERSION);
    w.u64(raw.len() as u64);
    w.u32(ranges.len() as u32);
    for (start, len) in ranges {
        let seg = &raw[start..start + len];
        let id = ChunkId::of(seg);
        let stored = chunk::encode_chunk(seg, f.cfg.compress);
        let on_disk = f.fs.len_of(&f.store.chunk_path(id));
        w.u64(id.0);
        w.u64(id.1);
        w.u32(len as u32);
        w.u32(on_disk.unwrap_or(stored.len() as u64) as u32);
    }
    w.finish()
}

/// Fused capture: the seal names every chunk range in its one pass and
/// the prepare hashes nothing.
pub fn capture_named(f: &NamedFixture) -> PreparedChunked {
    let chunk_bytes = f.cfg.chunk_bytes;
    let (sealed, ranges, names) = f
        .body
        .clone()
        .seal_named(|len| chunk::split_ranges(len, &f.cuts, chunk_bytes));
    f.store.prepare_sealed(&sealed, &ranges, &names, &f.cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_and_opt_kernels_agree() {
        let inputs = codec_inputs(16);
        let mut scratch = CodecScratch::new();
        assert_eq!(
            codec_reference(&inputs),
            codec_optimized(&inputs, &mut scratch)
        );

        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(chunk_id_reference(&data), chunk_id_optimized(&data));

        let sched = queue_schedule(4096);
        assert_eq!(queue_reference_churn(&sched), queue_optimized_churn(&sched));

        let mut f = capture_fixture(64, 25);
        let r = capture_reference(&f);
        let h = capture_hinted(&mut f);
        assert_eq!(r.manifest(), h.manifest());
        assert!(f.cache.hits() > 0, "steady-state epoch must hit the cache");

        let f = named_fixture(64, 25);
        let n = capture_named(&f);
        assert_eq!(named_reference(&f), n.manifest());
        let sealed = f.body.clone().seal();
        let p = f.store.prepare_chunked(sealed.bytes(), &f.cuts, &f.cfg);
        assert_eq!(p.manifest(), n.manifest());
        assert_eq!(p.image_digest(), n.image_digest());
        assert!(n.novel_count() > 0, "the rewritten pages are novel");
        assert!(
            n.novel_count() < n.chunk_count(),
            "the store holds the clean pages"
        );
    }
}
