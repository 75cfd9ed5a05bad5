//! Twin-path property tests for the hot-path optimization pass: every
//! optimized kernel must be *extensionally identical* to the reference
//! implementation it replaced, under arbitrary inputs and arbitrary
//! page-write races.
//!
//! * the word-unrolled FNV fold vs the byte-serial fold;
//! * the scratch-reusing chunk codec vs fresh-allocation encode (including
//!   decode round-trips, which exercise the decoded-length preallocation);
//! * the zero-page shortcut vs the slow path;
//! * the packed-key event queue vs the two-field reference queue (kept
//!   here as [`RefQueue`]);
//! * the page-digest-cached `prepare_chunked_hinted` vs `prepare_chunked`
//!   across multi-epoch histories with arbitrary rewrites and false-dirty
//!   hints, and with epochs prepared but never put (so the remembered
//!   containers, not the store, supply clean pages the store lacks).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cruz_repro::cruz::chunk::{self, ChunkId, CodecScratch};
use cruz_repro::cruz::pagecache::{DigestCache, PageHint};
use cruz_repro::cruz::store::{CheckpointStore, PreparedPut, StoreConfig};
use cruz_repro::des::digest;
use cruz_repro::des::{EventQueue, SimTime};
use cruz_repro::simos::fs::NetFs;
use proptest::prelude::*;

/// The pre-optimization event-queue entry: time and sequence number as
/// separate fields compared lexicographically.
#[derive(Debug)]
struct RefEntry {
    at: SimTime,
    seq: u64,
    payload: u64,
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for RefEntry {}
impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-optimization event queue (two-field comparator), FIFO on ties:
/// the reference the packed-key [`EventQueue`] must match.
#[derive(Debug, Default)]
struct RefQueue {
    heap: BinaryHeap<RefEntry>,
    seq: u64,
}

/// The two queue implementations under one interface so both replay the
/// exact same churn loop.
trait Churnable {
    fn push(&mut self, at: SimTime, payload: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl Churnable for RefQueue {
    fn push(&mut self, at: SimTime, payload: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(RefEntry { at, seq, payload });
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|e| (e.at, e.payload))
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

/// Pushes half the schedule, interleaves pop/push over the rest, then
/// drains. Returns an order-sensitive checksum of the popped sequence.
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

proptest! {
    /// The unrolled fold is bit-identical to the byte-serial reference for
    /// any data and any starting state.
    #[test]
    fn unrolled_fold_matches_bytewise(
        h in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        prop_assert_eq!(digest::fold(h, &data), digest::fold_bytewise(h, &data));
    }

    /// One scratch reused across a whole sequence of chunks produces the
    /// same container bytes as fresh allocations, and every container
    /// decodes back to the original bytes (through the decoded-length
    /// preallocation path).
    #[test]
    fn scratch_codec_matches_fresh_alloc(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..2048), 1..12),
        compress in any::<bool>(),
    ) {
        let mut scratch = CodecScratch::new();
        for data in &chunks {
            let reference = chunk::encode_chunk(data, compress);
            let scratched = chunk::encode_chunk_with(data, compress, &mut scratch);
            prop_assert_eq!(&reference, &scratched);
            prop_assert_eq!(&chunk::decode_chunk(&scratched).unwrap(), data);
        }
    }

    /// Highly repetitive inputs (the codec's best case, where stale scratch
    /// entries would be most tempting to reuse) also match across calls.
    #[test]
    fn scratch_codec_matches_on_repetitive_data(
        byte in any::<u8>(),
        len in 0usize..4096,
        period in 1usize..16,
    ) {
        let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add((i % period) as u8)).collect();
        let mut scratch = CodecScratch::new();
        // Twice through the same scratch: the second call sees a table
        // populated by the first and must still ignore every stale entry.
        for _ in 0..2 {
            prop_assert_eq!(
                chunk::encode_chunk(&data, true),
                chunk::encode_chunk_with(&data, true, &mut scratch)
            );
        }
    }

    /// The zero-page constants agree with the slow path, and the detector
    /// accepts exactly the all-zero page.
    #[test]
    fn zero_page_shortcut_is_exact(
        poke in proptest::option::of((0usize..4096, 1u8..=255)),
    ) {
        let mut page = vec![0u8; 4096];
        if let Some((i, b)) = poke {
            page[i] = b;
        }
        prop_assert_eq!(chunk::is_zero_page(&page), poke.is_none());
        if poke.is_none() {
            prop_assert_eq!(chunk::zero_page_id(), ChunkId::of(&page));
            for compress in [false, true] {
                prop_assert_eq!(
                    chunk::zero_page_encoded(compress),
                    &chunk::encode_chunk(&page, compress)[..]
                );
            }
        }
    }

    /// The packed-key queue delivers the exact sequence the two-field
    /// reference queue delivers, for arbitrary interleaved schedules.
    #[test]
    fn packed_queue_matches_reference_order(
        schedule in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..256),
    ) {
        prop_assert_eq!(
            churn(&mut RefQueue::default(), &schedule),
            churn(&mut EventQueue::new(), &schedule)
        );
        // Clustered timestamps, as at epoch boundaries: ties are common,
        // so FIFO order decides most pops.
        let clustered: Vec<(u64, u64)> = schedule.iter().map(|&(t, p)| (t % 16, p)).collect();
        prop_assert_eq!(
            churn(&mut RefQueue::default(), &clustered),
            churn(&mut EventQueue::new(), &clustered)
        );
        // Plain drain as well (no interleaving), popping every event.
        let mut reference = RefQueue::default();
        let mut packed = EventQueue::new();
        for &(t, p) in &schedule {
            reference.push(SimTime::from_nanos(t), p);
            packed.push(SimTime::from_nanos(t), p);
        }
        loop {
            let (a, b) = (reference.pop(), packed.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// One epoch of the synthetic pod history: page contents plus which pages
/// the "guest" rewrote since the previous epoch.
#[derive(Debug, Clone)]
struct EpochPlan {
    /// Per page: `Some(seed)` rewrites the page with that seed's pattern.
    rewrites: Vec<Option<u8>>,
    /// Per page: claim dirty even if unchanged (false-dirty is always
    /// sound — it only costs recomputation).
    false_dirty: Vec<bool>,
    /// Header length for this epoch's serialization (metadata shifts the
    /// page cuts around between epochs).
    header_len: usize,
    /// Whether the prepared epoch is put (an unput prepare leaves its
    /// chunks absent from the store for the next epoch).
    put: bool,
}

const PROP_PAGE: usize = 256;

fn page_pattern(seed: u8, index: usize) -> Vec<u8> {
    // A mix of constant, periodic, and "random-ish" pages, some zero.
    match seed % 4 {
        0 => vec![0u8; PROP_PAGE],
        1 => vec![seed; PROP_PAGE],
        2 => (0..PROP_PAGE).map(|i| seed.wrapping_add(i as u8)).collect(),
        _ => (0..PROP_PAGE)
            .map(|i| {
                (seed as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i * index) as u64) as u8
            })
            .collect(),
    }
}

fn arb_history(pages: usize) -> impl Strategy<Value = Vec<EpochPlan>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::option::of(any::<u8>()), pages..=pages),
            proptest::collection::vec(any::<bool>(), pages..=pages),
            0usize..48,
            any::<bool>(),
        )
            .prop_map(|(rewrites, false_dirty, header_len, put)| EpochPlan {
                rewrites,
                false_dirty,
                header_len,
                put,
            }),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across arbitrary multi-epoch histories — pages rewritten or not,
    /// unchanged pages arbitrarily claimed dirty, metadata shifting the
    /// cuts — the cached prepare produces manifests and reconstructed
    /// images byte-identical to the reference path, with the cache
    /// contents surviving commits between epochs and serving the
    /// containers of epochs that were never put.
    #[test]
    fn cached_prepare_matches_reference_across_epochs(
        history in arb_history(6),
        chunk_bytes in prop_oneof![Just(64usize), Just(100), Just(256)],
        compress in any::<bool>(),
    ) {
        let pages = 6;
        let cfg = StoreConfig { chunk_bytes, dedup: true, compress, ..StoreConfig::default() };
        let fs = NetFs::new();
        let hinted_store = CheckpointStore::new(fs.clone(), "hinted");
        let reference_store = CheckpointStore::new(fs, "reference");
        let mut cache = DigestCache::new();
        let mut contents: Vec<Vec<u8>> = (0..pages).map(|i| page_pattern(7, i)).collect();

        for (epoch, plan) in history.iter().enumerate() {
            let mut clean = vec![false; pages];
            for (i, rw) in plan.rewrites.iter().enumerate() {
                match rw {
                    Some(seed) => contents[i] = page_pattern(*seed, i),
                    // Unchanged page: clean unless claimed false-dirty.
                    None => clean[i] = epoch > 0 && !plan.false_dirty[i],
                }
            }
            let mut raw = vec![0xEE; plan.header_len];
            let mut hints = Vec::with_capacity(pages);
            for (i, content) in contents.iter().enumerate() {
                hints.push(PageHint {
                    offset: raw.len(),
                    len: content.len(),
                    key: Some((0, i as u64 * 0x1000)),
                    clean: clean[i],
                });
                raw.extend_from_slice(content);
            }
            raw.extend_from_slice(&[0x77; 9]);
            let cuts: Vec<(usize, usize)> = hints.iter().map(|h| (h.offset, h.len)).collect();

            let hinted = hinted_store.prepare_chunked_hinted(&raw, &hints, &cfg, "pod", &mut cache);
            let reference = reference_store.prepare_chunked(&raw, &cuts, &cfg);
            prop_assert_eq!(hinted.manifest(), reference.manifest());
            prop_assert_eq!(hinted.novel_count(), reference.novel_count());
            prop_assert_eq!(hinted.new_bytes(), reference.new_bytes());
            if !plan.put {
                continue;
            }

            // Commit both epochs so novelty accounting evolves, then prove
            // the hinted store reconstructs the exact image.
            let e = epoch as u64;
            hinted_store.put_prepared("pod", e, PreparedPut::Chunked(hinted)).unwrap();
            reference_store.put_prepared("pod", e, PreparedPut::Chunked(reference)).unwrap();
            let round = hinted_store.get_image("pod", e);
            prop_assert_eq!(round.as_deref(), Some(&raw[..]));
        }
    }
}
