//! Property tests on the chunk codec and content addressing — the two
//! invariants the dedup store rests on:
//!
//! * **round-trip identity**: `decode(encode(x)) == x` for arbitrary
//!   inputs, compressed or raw, so reassembled images are byte-exact;
//! * **determinism**: chunking, hashing and compression are pure functions
//!   of the input bytes — two stores fed the same image produce
//!   byte-identical chunk files and manifests;
//! * **decoder contract** for `decode_chunk_cow`, which a restore worker
//!   runs on stored bytes it cannot trust: arbitrary bytes never panic or
//!   decode past the codec's expansion bound, and a bit flip or truncation
//!   of a valid container never gets past the restore's checks as
//!   anything but the original. The decoder alone cannot see a flipped
//!   literal byte, so the contract is the decode plus the two checks the
//!   restore runs beside it: the record's segment length and the chunk's
//!   content address.

use cruz::chunk::{self, ChunkId};
use cruz::store::{CheckpointStore, PreparedPut, StoreConfig};
use proptest::prelude::*;

use simos::fs::NetFs;

/// Inputs spanning the interesting regimes: runs (RLE), periodic
/// patterns (LZ matches), and incompressible noise, at sizes around the
/// token-length and chunk boundaries.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes, including empty and sub-MIN_MATCH sizes.
        proptest::collection::vec(any::<u8>(), 0..600),
        // A run of one byte (worst case for literal emission, best for RLE).
        (any::<u8>(), 0usize..5000).prop_map(|(b, n)| vec![b; n]),
        // Periodic content with an arbitrary period.
        (1usize..40, 1usize..3000)
            .prop_map(|(period, len)| (0..len).map(|i| (i % period) as u8).collect()),
        // Noise via a multiplicative hash (defeats the match finder).
        (any::<u64>(), 0usize..2000).prop_map(|(seed, len)| {
            (0..len)
                .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 24) as u8)
                .collect()
        }),
    ]
}

/// Raw (offset, len) pairs; [`cuts_from`] normalises them for a buffer.
fn arb_cut_recipe() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..6000, 0usize..300), 0..6)
}

/// Turns an arbitrary recipe into a valid ascending, non-overlapping cut
/// list for a buffer of length `len`, as `prepare_chunked` requires.
fn cuts_from(recipe: &[(usize, usize)], len: usize) -> Vec<(usize, usize)> {
    let mut raw = recipe.to_vec();
    raw.sort_unstable();
    let mut cuts: Vec<(usize, usize)> = Vec::new();
    let mut pos = 0;
    for (off, l) in raw {
        let off = off.max(pos);
        if off >= len {
            break;
        }
        let l = l.min(len - off);
        cuts.push((off, l));
        pos = off + l;
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn compress_round_trips(data in arb_payload()) {
        let packed = chunk::compress(&data);
        prop_assert_eq!(chunk::decompress(&packed).expect("valid stream"), data);
    }

    #[test]
    fn chunk_container_round_trips(data in arb_payload(), on in any::<bool>()) {
        let stored = chunk::encode_chunk(&data, on);
        prop_assert_eq!(chunk::decode_chunk(&stored).expect("valid container"), data);
        // The container never bloats beyond the raw fallback.
        prop_assert!(stored.len() <= data.len() + 1);
    }

    #[test]
    fn codec_is_deterministic(data in arb_payload()) {
        prop_assert_eq!(chunk::compress(&data), chunk::compress(&data));
        prop_assert_eq!(ChunkId::of(&data), ChunkId::of(&data));
        prop_assert_eq!(chunk::encode_chunk(&data, true), chunk::encode_chunk(&data, true));
    }

    #[test]
    fn split_ranges_partition_exactly(
        data in arb_payload(),
        recipe in arb_cut_recipe(),
        chunk_bytes in 1usize..700,
    ) {
        let cuts = cuts_from(&recipe, data.len());
        let ranges = chunk::split_ranges(data.len(), &cuts, chunk_bytes);
        // The ranges tile 0..len contiguously and respect the chunk cap.
        let mut pos = 0;
        for &(start, len) in &ranges {
            prop_assert_eq!(start, pos);
            prop_assert!(len >= 1 && len <= chunk_bytes);
            pos += len;
        }
        prop_assert_eq!(pos, data.len());
        // Every cut start is also a chunk start (the alignment guarantee).
        for &(off, l) in &cuts {
            if l > 0 {
                prop_assert!(ranges.iter().any(|&(s, _)| s == off));
            }
        }
    }

    #[test]
    fn same_image_yields_byte_identical_chunks_and_manifests(
        data in arb_payload(),
        recipe in arb_cut_recipe(),
        compress in any::<bool>(),
    ) {
        let cuts = cuts_from(&recipe, data.len());
        let cfg = StoreConfig { chunk_bytes: 128, dedup: true, compress, ..StoreConfig::default() };
        // Two fresh stores, same input: the chunk files and manifests they
        // persist must match byte for byte (cross-process dedup soundness).
        let mk = || {
            let fs = NetFs::new();
            let s = CheckpointStore::new(fs.clone(), "j");
            let put = s.prepare_chunked(&data, &cuts, &cfg);
            s.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
            let mut files: Vec<(String, Vec<u8>)> = fs
                .list("/ckpt/")
                .into_iter()
                .map(|p| {
                    let bytes = fs.read_file(&p).expect("listed file exists");
                    (p, bytes)
                })
                .collect();
            files.sort();
            files
        };
        prop_assert_eq!(mk(), mk());
        // And the store reassembles the original bytes.
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let put = s.prepare_chunked(&data, &cuts, &cfg);
        s.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        prop_assert_eq!(s.get_image("p", 1).expect("image reconstructs"), data);
    }
}

/// The restore's verified decode of one chunk file: decode, then the
/// record's length check and the content-address check.
fn verified(stored: &[u8], seg_len: usize, id: ChunkId) -> Option<Vec<u8>> {
    let raw = chunk::decode_chunk_cow(stored).ok()?;
    (raw.len() == seg_len && ChunkId::of(&raw) == id).then(|| raw.into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunk_decoder_never_panics_on_arbitrary_bytes(
        stored in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..300),
            // An LZ tag and an arbitrary claimed length up front.
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..300)).prop_map(|(n, rest)| {
                let mut v = vec![1u8];
                v.extend_from_slice(&n.to_le_bytes());
                v.extend_from_slice(&rest);
                v
            }),
        ],
    ) {
        if let Ok(raw) = chunk::decode_chunk_cow(&stored) {
            prop_assert!(raw.len() <= stored.len() * 44, "decoded past the expansion bound");
        }
    }

    #[test]
    fn damaged_chunk_containers_are_rejected_or_the_original(
        data in arb_payload(),
        on in any::<bool>(),
        at in any::<usize>(),
        bit in 0u8..8,
        keep in any::<usize>(),
    ) {
        let stored = chunk::encode_chunk(&data, on);
        let id = ChunkId::of(&data);
        prop_assert_eq!(verified(&stored, data.len(), id), Some(data.clone()));
        let mut flipped = stored.clone();
        flipped[at % stored.len()] ^= 1 << bit;
        let got = verified(&flipped, data.len(), id);
        prop_assert!(got.is_none() || got.as_ref() == Some(&data), "a flip passed as new bytes");
        let truncated = &stored[..keep % stored.len()];
        prop_assert_eq!(verified(truncated, data.len(), id), None, "a truncation passed");
    }
}
