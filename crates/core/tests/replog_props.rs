//! The decoder contract of the `CRZL` replica operation log, driven
//! through its public codec (`encode_record`, `read_log`): a replica log
//! is read back after crashes and torn appends, so its record decoder
//! runs on bytes it cannot trust.
//!
//! * arbitrary bytes behind a valid log header never panic, and no
//!   decoded count reserves more than the unread input could fill;
//! * a valid record mutated by byte replacement, truncation or extension,
//!   with its length and checksum recomputed, is either refused (the
//!   valid prefix ends before it) or decodes to an op whose
//!   `encode_record` gives back exactly those bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cruz::chunk::ChunkId;
use cruz::digest;
use cruz::replog::{encode_record, read_log, LogOp, REPLOG_MAGIC, REPLOG_VERSION};
use proptest::prelude::*;
use simos::fs::NetFs;

/// The system allocator, recording the largest single request made on
/// each thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the only extra work
// is a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const PATH: &str = "/replog/r0.log";

fn header() -> Vec<u8> {
    let mut h = REPLOG_MAGIC.to_le_bytes().to_vec();
    h.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
    h
}

/// Frames `tag ‖ payload` as a record with a matching length and checksum.
fn reseal(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
    rec.push(tag);
    rec.extend_from_slice(payload);
    let h = digest::fold(digest::fold(digest::OFFSET, &[tag]), payload);
    rec.extend_from_slice(&h.to_le_bytes());
    rec
}

/// Reads a log of the header and `tail`: the ops of its valid prefix, that
/// prefix's length, and the largest single allocation the read made.
fn read(tail: &[u8]) -> (Vec<LogOp>, u64, usize) {
    let fs = NetFs::new();
    fs.write_file(PATH, [header(), tail.to_vec()].concat());
    LARGEST.with(|m| m.set(0));
    let (ops, valid) = read_log(&fs, PATH);
    (ops, valid, LARGEST.with(|m| m.get()))
}

/// The contract on one log tail: the read stays within a constant factor
/// of its input (the file copy, the decoded fields, and an op or blob
/// table at most one element per unread byte), and its valid prefix is
/// exactly the records its ops re-encode to.
fn contract_holds(tail: &[u8]) -> bool {
    let (ops, valid, largest) = read(tail);
    let input = header().len() + tail.len();
    let canonical: Vec<u8> = ops.iter().flat_map(encode_record).collect();
    largest <= 128 * input + 1024
        && valid as usize == header().len() + canonical.len()
        && tail.starts_with(&canonical)
}

/// A record is refused outright, or decodes to one op whose encoding is
/// exactly its bytes.
fn refused_or_canonical(rec: &[u8]) -> bool {
    let (ops, valid, _) = read(rec);
    match ops.as_slice() {
        [] => valid as usize == header().len(),
        [op] => encode_record(op) == rec && valid as usize == header().len() + rec.len(),
        _ => false,
    }
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn arb_id() -> impl Strategy<Value = ChunkId> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| ChunkId(a, b))
}

fn arb_op() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        (
            proptest::collection::vec(b'a'..=b'z', 0..12),
            any::<u64>(),
            arb_bytes(48),
            arb_id(),
            proptest::collection::vec((arb_id(), arb_bytes(24)), 0..4),
        )
            .prop_map(|(pod, epoch, manifest, image, blobs)| LogOp::PutChunked {
                pod: String::from_utf8(pod).expect("ascii"),
                epoch,
                manifest,
                image,
                blobs,
            }),
        any::<u64>().prop_map(|epoch| LogOp::Commit { epoch }),
        any::<u64>().prop_map(|epoch| LogOp::Discard { epoch }),
        (0u8..1).prop_map(|_| LogOp::Gc),
        any::<u64>().prop_map(|keep| LogOp::Prune { keep }),
    ]
}

/// A put's payload up to its blob count: the fields before it are valid,
/// so the decoder reaches the count and sizes its blob table from it.
fn put_prefix(count: u32) -> Vec<u8> {
    let mut p = 0u32.to_le_bytes().to_vec(); // empty pod name
    p.extend_from_slice(&7u64.to_le_bytes()); // epoch
    p.extend_from_slice(&0u32.to_le_bytes()); // empty manifest
    p.extend_from_slice(&[0; 16]); // image id
    p.extend_from_slice(&count.to_le_bytes());
    p
}

#[test]
fn a_huge_blob_count_reserves_nothing_the_input_cannot_fill() {
    let rec = reseal(1, &put_prefix(u32::MAX));
    let (ops, valid, largest) = read(&rec);
    assert!(ops.is_empty());
    assert_eq!(valid as usize, header().len());
    assert!(largest < 4096, "largest allocation {largest} bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_behind_a_valid_header_never_panic(tail in arb_bytes(200)) {
        prop_assert!(contract_holds(&tail));
    }

    // Arbitrary payloads behind valid framing reach the payload decoder,
    // which random framing almost never does.
    #[test]
    fn arbitrary_payloads_with_valid_framing_keep_the_contract(
        tag in prop_oneof![0u8..7, any::<u8>()],
        payload in arb_bytes(120),
        count in any::<u32>(),
        tail in arb_bytes(60),
    ) {
        prop_assert!(contract_holds(&reseal(tag, &payload)));
        prop_assert!(refused_or_canonical(&reseal(tag, &payload)));
        let put = [put_prefix(count), tail].concat();
        prop_assert!(contract_holds(&reseal(1, &put)));
        prop_assert!(refused_or_canonical(&reseal(1, &put)));
    }

    #[test]
    fn damaged_records_are_refused_or_canonical(
        op in arb_op(),
        at in any::<usize>(),
        byte in any::<u8>(),
        keep in any::<usize>(),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let rec = encode_record(&op);
        prop_assert!(refused_or_canonical(&rec));
        // `tag ‖ payload`: what the length and checksum frame.
        let body = &rec[4..rec.len() - 8];
        let (tag, payload) = (body[0], &body[1..]);
        let mut replaced = body.to_vec();
        replaced[at % body.len()] = byte;
        let replaced = reseal(replaced[0], &replaced[1..]);
        prop_assert!(refused_or_canonical(&replaced), "byte {} set to {byte}", at % body.len());
        let truncated = reseal(tag, &payload[..keep % (payload.len() + 1)]);
        prop_assert!(refused_or_canonical(&truncated), "truncation");
        let extended = reseal(tag, &[payload, &extra].concat());
        prop_assert!(refused_or_canonical(&extended), "extension");
    }
}
