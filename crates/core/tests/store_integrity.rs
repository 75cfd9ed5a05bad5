//! End-to-end read-integrity and replay-idempotency tests for the
//! checkpoint store.
//!
//! The store must never hand back bytes it cannot prove are the ones that
//! were written: every read path — whole-image chunks, page chunks,
//! manifests —
//! re-verifies content against the epoch's digest sidecar and the chunks'
//! content addresses, and fails closed (returns `None`) on any mismatch.
//! The mutation paths must also be idempotent under operation-log replay:
//! re-applying a put or a discard after a replica crash must leave the
//! on-disk state exactly as a single application would.

use cruz::digest;
use cruz::replog::{read_log, ReplicatedStore, REPLOG_MAGIC, REPLOG_VERSION};
use cruz::store::{
    CheckpointStore, PreparedPut, ReadError, StoreConfig, MANIFEST_MAGIC, STORE_VERSION,
};
use cruz::ChunkId;
use simos::fs::NetFs;

/// A toy "image": `reps` distinct page-sized blocks of periodic
/// (compressible) content, with block `hot` overwritten by `fill`.
fn toy_image(reps: usize, hot: usize, fill: u8) -> (Vec<u8>, Vec<(usize, usize)>) {
    let block = 256usize;
    let mut raw = Vec::with_capacity(reps * block);
    let mut cuts = Vec::new();
    for b in 0..reps {
        cuts.push((raw.len(), block));
        if b == hot {
            raw.extend(std::iter::repeat_n(fill, block));
        } else {
            raw.extend((0..block).map(|i| (((b * 31) + (i % 7)) % 251) as u8 | 1));
        }
    }
    (raw, cuts)
}

fn cfg() -> StoreConfig {
    StoreConfig {
        chunk_bytes: 256,
        dedup: true,
        compress: true,
        ..StoreConfig::default()
    }
}

fn put_dedup(s: &CheckpointStore, pod: &str, epoch: u64, raw: &[u8], cuts: &[(usize, usize)]) {
    let prep = s.prepare_chunked(raw, cuts, &cfg());
    s.put_prepared(pod, epoch, PreparedPut::Chunked(prep))
        .unwrap();
}

fn put_plain(s: &CheckpointStore, pod: &str, epoch: u64, bytes: Vec<u8>) {
    s.put_prepared(pod, epoch, PreparedPut::Plain(bytes))
        .unwrap();
}

// ---- lifecycle (public API) -------------------------------------------------

#[test]
fn commit_gating() {
    let s = CheckpointStore::new(NetFs::new(), "job1");
    put_plain(&s, "pod0", 1, vec![1, 2, 3]);
    assert!(!s.is_committed(1));
    assert_eq!(s.latest_committed_epoch(), None, "uncommitted is invisible");
    s.commit(1);
    assert!(s.is_committed(1));
    assert_eq!(s.latest_committed_epoch(), Some(1));
    assert_eq!(s.get_image("pod0", 1), Some(vec![1, 2, 3]));
}

#[test]
fn latest_epoch_wins() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    for e in [3u64, 1, 7, 5] {
        put_plain(&s, "p", e, vec![e as u8]);
        s.commit(e);
    }
    assert_eq!(s.latest_committed_epoch(), Some(7));
}

#[test]
fn pods_in_epoch_lists_images() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    put_plain(&s, "x", 4, vec![]);
    put_plain(&s, "y", 4, vec![]);
    s.commit(4);
    let mut pods = s.pods_in_epoch(4);
    pods.sort();
    assert_eq!(pods, vec!["x".to_string(), "y".to_string()]);
}

#[test]
fn jobs_are_isolated() {
    let fs = NetFs::new();
    let a = CheckpointStore::new(fs.clone(), "a");
    let b = CheckpointStore::new(fs, "b");
    put_plain(&a, "p", 1, vec![]);
    a.commit(1);
    assert_eq!(b.latest_committed_epoch(), None);
}

// ---- read integrity: every path verifies, every mismatch fails closed -------

#[test]
fn corrupted_plain_image_is_rejected() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    put_plain(&s, "p", 1, vec![7u8; 1024]);
    s.commit(1);
    assert!(s.get_image("p", 1).is_some(), "clean read succeeds");

    // Flip one byte in the middle of the stored image's whole-image chunk:
    // same length, same structure, silently wrong content — only the
    // chunk's content address and the digest sidecar can catch it.
    let path = s.chunk_path(ChunkId::of(&[7u8; 1024]));
    let mut bytes = fs.read_file(&path).unwrap();
    bytes[512] ^= 0xff;
    fs.write_file(&path, bytes);
    assert_eq!(s.get_image("p", 1), None, "bit rot must not be served");
    assert!(
        s.image_len("p", 1).is_some(),
        "the file itself is still there — only the verified read refuses"
    );
}

#[test]
fn swapped_manifest_that_still_decodes_is_rejected() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    let (raw_a, cuts_a) = toy_image(16, 3, 0xaa);
    let (raw_b, cuts_b) = toy_image(16, 5, 0x55);
    put_dedup(&s, "a", 1, &raw_a, &cuts_a);
    put_dedup(&s, "b", 1, &raw_b, &cuts_b);
    s.commit(1);

    // Overwrite b's manifest with a's: the result is a perfectly
    // well-formed manifest (magic, version, records, resolvable chunks)
    // that reconstructs the WRONG image. Structural decode cannot catch
    // this — only the whole-image digest sidecar can.
    let stolen = fs.read_file(&s.manifest_path("a", 1)).unwrap();
    fs.write_file(&s.manifest_path("b", 1), stolen);
    assert_eq!(s.get_image("b", 1), None, "torn/swapped manifest rejected");
    assert_eq!(
        s.get_image("a", 1),
        Some(raw_a),
        "the donor pod still reads"
    );
}

#[test]
fn corrupt_chunk_body_is_rejected_by_content_address() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    let (raw, cuts) = toy_image(8, 2, 0xee);
    put_dedup(&s, "p", 1, &raw, &cuts);
    s.commit(1);

    // Overwrite one chunk's body with another chunk's: the container
    // still decodes cleanly, but the content no longer matches the
    // chunk's address.
    let ids: Vec<_> = s.chunks_referenced_by(1).into_iter().collect();
    assert!(ids.len() >= 2, "toy image must span several chunks");
    let donor = fs.read_file(&s.chunk_path(ids[0])).unwrap();
    fs.write_file(&s.chunk_path(ids[1]), donor);
    assert_eq!(s.get_image("p", 1), None, "content-address mismatch");
}

#[test]
fn missing_digest_sidecar_fails_closed() {
    let fs = NetFs::new();
    let s = CheckpointStore::new(fs.clone(), "j");
    put_plain(&s, "plain", 1, vec![1, 2, 3]);
    let (raw, cuts) = toy_image(4, 0, 0x11);
    put_dedup(&s, "chunked", 1, &raw, &cuts);
    s.commit(1);

    // A read with no digest sidecar cannot be verified, so it must not be
    // served — trusting the raw bytes is exactly the hole this closes.
    assert!(fs.remove(&s.digest_path("plain", 1)));
    assert!(fs.remove(&s.digest_path("chunked", 1)));
    assert_eq!(s.get_image("plain", 1), None);
    assert_eq!(s.get_image("chunked", 1), None);
}

// ---- replay idempotency -----------------------------------------------------

#[test]
fn replayed_put_takes_chunk_refs_once() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    let (raw, cuts) = toy_image(8, 1, 0x3c);
    // The same logical put applied twice (an operation-log replay after a
    // replica crash): the second application rewrites the same manifest.
    put_dedup(&s, "p", 1, &raw, &cuts);
    put_dedup(&s, "p", 1, &raw, &cuts);
    s.commit(1);
    assert_eq!(s.get_image("p", 1), Some(raw));

    s.discard_epoch(1);
    // No manifest names the chunks any more, so the one discard deletes
    // them on the spot instead of stranding them.
    assert!(
        s.live_chunks().is_empty(),
        "one discard must reclaim what the replayed put wrote"
    );
    assert_eq!(s.gc_orphan_chunks(), 0, "nothing left to reclaim");
}

#[test]
fn replayed_discard_is_a_no_op() {
    let s = CheckpointStore::new(NetFs::new(), "j");
    let (raw1, cuts) = toy_image(8, 1, 0x3c);
    let (raw2, _) = toy_image(8, 1, 0x99);
    put_dedup(&s, "p", 1, &raw1, &cuts);
    s.commit(1);
    put_dedup(&s, "p", 2, &raw2, &cuts);
    s.commit(2);

    let epoch1_chunks = s.chunks_referenced_by(1);
    s.discard_epoch(2);
    s.discard_epoch(2); // replayed: files already gone, no chunk may go with them
    let live: std::collections::BTreeSet<_> = s.live_chunks().into_iter().collect();
    assert_eq!(
        live, epoch1_chunks,
        "the surviving epoch's chunks are untouched by the replay"
    );
    assert_eq!(s.get_image("p", 1), Some(raw1), "epoch 1 still restores");
    assert_eq!(s.gc_orphan_chunks(), 0, "no strays: discard cleaned up");
}

/// A checksum-valid `CRZL` chunked-put record whose blob count claims
/// `u32::MAX`: the log reader must stop at it, not abort the process on
/// a 170 GB reservation.
#[test]
fn corrupt_log_blob_count_never_preallocates_past_the_input() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(b"pod0"); // pod
    payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
    payload.extend_from_slice(&0u32.to_le_bytes()); // empty manifest
    payload.extend_from_slice(&[0u8; 16]); // image id
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // blob count
    let mut log = REPLOG_MAGIC.to_le_bytes().to_vec();
    log.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
    let header = log.len() as u64;
    log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    log.push(1); // the chunked-put tag
    log.extend_from_slice(&payload);
    let sum = digest::fold(digest::fold(digest::OFFSET, &[1]), &payload);
    log.extend_from_slice(&sum.to_le_bytes());
    let fs = NetFs::new();
    fs.write_file("/log", log);
    let (ops, valid) = read_log(&fs, "/log");
    assert!(ops.is_empty());
    assert_eq!(valid, header, "the valid prefix ends before the record");
}

/// A checksum-valid manifest of 64 records that each claim a
/// `u32::MAX`-byte segment (a 256 GiB image, its segment lengths summing
/// to the declared length), with a digest sidecar beside it: the read
/// must fail as corrupt at the first missing chunk, not abort the process
/// on reserving the declared length. Checked at k = 1 and through the
/// k = 3 quorum read.
#[test]
fn a_manifest_claiming_huge_segments_is_corrupt_not_an_abort() {
    const RECORDS: u64 = 64;
    let mut body = Vec::new();
    body.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    body.extend_from_slice(&STORE_VERSION.to_le_bytes());
    body.extend_from_slice(&(RECORDS * u64::from(u32::MAX)).to_le_bytes());
    body.extend_from_slice(&(RECORDS as u32).to_le_bytes());
    for r in 0..RECORDS {
        body.extend_from_slice(&r.to_le_bytes()); // chunk id, lo
        body.extend_from_slice(&(!r).to_le_bytes()); // chunk id, hi
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // segment length
        body.extend_from_slice(&64u32.to_le_bytes()); // stored length
    }
    let sum = digest::fold(digest::OFFSET, &body);
    let mut manifest = body;
    manifest.extend_from_slice(&sum.to_le_bytes());
    assert_eq!(manifest.len(), 1562);

    let fs = NetFs::new();
    let plant = |s: &CheckpointStore| {
        fs.write_file(&s.manifest_path("p", 1), manifest.clone());
        fs.write_file(&s.digest_path("p", 1), vec![0x5a; 16]);
    };
    let s = CheckpointStore::new(fs.clone(), "j");
    plant(&s);
    assert_eq!(
        s.image_len("p", 1),
        Some(RECORDS * u64::from(u32::MAX)),
        "the manifest checksums and parses"
    );
    assert_eq!(s.read_sealed("p", 1), Err(ReadError::Corrupt));
    assert_eq!(s.get_image("p", 1), None);

    let rs = ReplicatedStore::new(fs.clone(), "k3", 3);
    for r in 0..3 {
        plant(&rs.replica(r));
    }
    assert_eq!(rs.read_sealed("p", 1), Err(ReadError::Corrupt));
}
