//! Twin-path property tests for the fused hash passes of the dedup path:
//! each one-pass path against the per-pass reference it replaced.
//!
//! * **seal names** — `ImageWriter::seal_named` names every chunk range
//!   exactly as `ChunkId::of` does, and seals the same bytes and digest as
//!   `seal`, for arbitrary bodies (including ones shorter than a word),
//!   cut layouts and chunk sizes, so ranges straddle the checksum trailer
//!   or lie inside it;
//! * **first-range fold** — over arbitrary tilings, the whole image as one
//!   range included, the seal's names and `Assembler::push`'s digests are
//!   `ChunkId::of` of each range, although the range that starts the image
//!   is folded with the image's own chains (`fold2`, not `fold4`);
//! * **fused restore** — `read_sealed` of a chunked epoch equals the
//!   reference read (decode each chunk, check its length and `ChunkId::of`,
//!   concatenate, `Sealed::open`, compare the sidecar) on intact stores and
//!   under each corruption: a flipped chunk, a truncated chunk, swapped
//!   manifest records, a wrong segment length, and images under 8 bytes;
//! * **name-based prepare** — `prepare_sealed`, which names the chunks in
//!   its own sealing pass (pipelined beside the lookups and encodes at
//!   widths 2 and 4), gives the manifest, digest and novel
//!   writes of `prepare_chunked` and of a literal model of the reference
//!   prepare, over a store that already holds an arbitrary subset of the
//!   chunks (written under the other codec setting, so stored lengths must
//!   come from disk).
//!
//! The fused restore and the prepare run at widths 1, 2 and 4: width 1 is
//! the inline reference, and the wider ones run `parpool`'s two-stage
//! pipeline.

use std::collections::BTreeSet;

use cruz_repro::cruz::chunk::{self, split_ranges, ChunkId};
use cruz_repro::cruz::store::{
    CheckpointStore, PreparedPut, ReadError, StoreConfig, MANIFEST_MAGIC, STORE_VERSION,
};
use cruz_repro::simos::fs::NetFs;
use cruz_repro::zap::image::{Assembler, ContentDigest, ImageReader, ImageWriter, Sealed};
use proptest::prelude::*;

/// Cut layout from a recipe of `(gap, len)` pairs, ascending, truncated at
/// `total`.
fn cuts_from(recipe: &[(usize, usize)], total: usize) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut at = 0usize;
    for &(gap, len) in recipe {
        let start = at + gap;
        if len == 0 || start + len > total {
            break;
        }
        cuts.push((start, len));
        at = start + len;
    }
    cuts
}

/// A sealed image with `body` as its body, named by the one-pass seal.
fn seal(
    body: &[u8],
    recipe: &[(usize, usize)],
    chunk: usize,
) -> (Sealed, Vec<(usize, usize)>, Vec<ContentDigest>) {
    let mut w = ImageWriter::new();
    for &b in body {
        w.u8(b);
    }
    w.seal_named(|len| split_ranges(len, &cuts_from(recipe, len), chunk))
}

/// An arbitrary tiling of `0..len`: each step cuts a range of `1 + step %
/// rest` bytes, and the rest of the image is the last range, so no steps
/// means one range covering the whole image.
fn tiling(len: usize, steps: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut at = 0;
    for &step in steps {
        if len - at < 2 {
            break;
        }
        let l = 1 + step % (len - at - 1);
        ranges.push((at, l));
        at += l;
    }
    ranges.push((at, len - at));
    ranges
}

type Record = (ChunkId, u32, u32);

fn parse_manifest(bytes: &[u8]) -> Option<(u64, Vec<Record>)> {
    let mut r = ImageReader::verify(bytes).ok()?;
    if r.u32().ok()? != MANIFEST_MAGIC || r.u16().ok()? != STORE_VERSION {
        return None;
    }
    let raw_len = r.u64().ok()?;
    let n = r.u32().ok()?;
    let mut recs = Vec::new();
    for _ in 0..n {
        let id = ChunkId(r.u64().ok()?, r.u64().ok()?);
        recs.push((id, r.u32().ok()?, r.u32().ok()?));
    }
    Some((raw_len, recs))
}

fn write_manifest(raw_len: u64, recs: &[Record]) -> Vec<u8> {
    let mut w = ImageWriter::new();
    w.u32(MANIFEST_MAGIC);
    w.u16(STORE_VERSION);
    w.u64(raw_len);
    w.u32(recs.len() as u32);
    for &(id, seg_len, stored_len) in recs {
        w.u64(id.0);
        w.u64(id.1);
        w.u32(seg_len);
        w.u32(stored_len);
    }
    w.finish()
}

/// The reference chunked read: one pass per check, in the order the
/// store used to run them.
fn reference_read(fs: &NetFs, s: &CheckpointStore, pod: &str) -> Result<Sealed, ReadError> {
    let want = s.read_digest(pod, 1);
    let Some(manifest) = fs.read_file(&s.manifest_path(pod, 1)) else {
        return Err(match fs.exists(&s.digest_path(pod, 1)) {
            true => ReadError::Corrupt,
            false => ReadError::Absent,
        });
    };
    let want = want.ok_or(ReadError::Corrupt)?;
    let (raw_len, recs) = parse_manifest(&manifest).ok_or(ReadError::Corrupt)?;
    let mut out = Vec::new();
    for (id, seg_len, _) in recs {
        let stored = fs.read_file(&s.chunk_path(id)).ok_or(ReadError::Corrupt)?;
        let raw = chunk::decode_chunk(&stored).map_err(|_| ReadError::Corrupt)?;
        if raw.len() != seg_len as usize || ChunkId::of(&raw) != id {
            return Err(ReadError::Corrupt);
        }
        out.extend_from_slice(&raw);
    }
    if out.len() as u64 != raw_len {
        return Err(ReadError::Corrupt);
    }
    let image = Sealed::open(out);
    if ChunkId::from(image.digest()) == want {
        Ok(image)
    } else {
        Err(ReadError::Corrupt)
    }
}

/// The reference prepare, spelled out: every range encoded, stored length
/// from disk when the chunk is there, novel on first occurrence of an
/// absent chunk. Returns the manifest and the novel writes.
fn model_prepare(
    fs: &NetFs,
    s: &CheckpointStore,
    raw: &[u8],
    ranges: &[(usize, usize)],
    compress: bool,
) -> (Vec<u8>, Vec<(u64, u64)>) {
    let mut seen = BTreeSet::new();
    let mut recs = Vec::new();
    let mut novel = Vec::new();
    for &(start, len) in ranges {
        let seg = &raw[start..start + len];
        let id = ChunkId::of(seg);
        let container = chunk::encode_chunk(seg, compress);
        let path = s.chunk_path(id);
        let stored_len = fs.len_of(&path).unwrap_or(container.len() as u64);
        recs.push((id, len as u32, stored_len as u32));
        if seen.insert(id) && !fs.exists(&path) {
            novel.push(((start + len) as u64, container.len() as u64));
        }
    }
    (write_manifest(raw.len() as u64, &recs), novel)
}

#[derive(Debug, Clone)]
enum Damage {
    None,
    FlipChunk {
        pick: usize,
        at: usize,
        bit: u8,
    },
    TruncChunk {
        pick: usize,
        keep: usize,
    },
    SwapRecords {
        i: usize,
        j: usize,
    },
    SegLen {
        pick: usize,
        delta: u32,
        fix_total: bool,
    },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        (any::<usize>(), any::<usize>(), 0u8..8).prop_map(|(pick, at, bit)| Damage::FlipChunk {
            pick,
            at,
            bit
        }),
        (any::<usize>(), any::<usize>()).prop_map(|(pick, keep)| Damage::TruncChunk { pick, keep }),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Damage::SwapRecords { i, j }),
        (any::<usize>(), 1u32..9, any::<bool>()).prop_map(|(pick, delta, fix_total)| {
            Damage::SegLen {
                pick,
                delta,
                fix_total,
            }
        }),
    ]
}

fn damage(fs: &NetFs, s: &CheckpointStore, pod: &str, d: &Damage) {
    let mpath = s.manifest_path(pod, 1);
    let Some((raw_len, mut recs)) = fs.read_file(&mpath).and_then(|m| parse_manifest(&m)) else {
        return;
    };
    if recs.is_empty() {
        return;
    }
    let n = recs.len();
    match *d {
        Damage::None => {}
        Damage::FlipChunk { pick, at, bit } => {
            let path = s.chunk_path(recs[pick % n].0);
            let mut bytes = fs.read_file(&path).unwrap();
            let i = at % bytes.len();
            bytes[i] ^= 1 << bit;
            fs.write_file(&path, bytes);
        }
        Damage::TruncChunk { pick, keep } => {
            let path = s.chunk_path(recs[pick % n].0);
            let bytes = fs.read_file(&path).unwrap();
            fs.write_file(&path, bytes[..keep % bytes.len()].to_vec());
        }
        Damage::SwapRecords { i, j } => {
            recs.swap(i % n, j % n);
            fs.write_file(&mpath, write_manifest(raw_len, &recs));
        }
        Damage::SegLen {
            pick,
            delta,
            fix_total,
        } => {
            let rec = &mut recs[pick % n];
            rec.1 = rec.1.wrapping_add(delta);
            let raw_len = if fix_total {
                raw_len + delta as u64
            } else {
                raw_len
            };
            fs.write_file(&mpath, write_manifest(raw_len, &recs));
        }
    }
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..8),
        proptest::collection::vec(prop_oneof![Just(0u8), Just(7u8), any::<u8>()], 0..700),
    ]
}

/// Bodies of byte runs: they compress, so the two codec settings store a
/// chunk at different lengths.
fn arb_runs_body() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((any::<u8>(), 1usize..48), 0..30).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(b, n)| std::iter::repeat_n(b, n))
            .collect()
    })
}

fn arb_recipe() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..40, 0usize..150), 0..8)
}

/// A store width: the inline reference or a pipelined one.
fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
}

fn cfg(chunk_bytes: usize, compress: bool) -> StoreConfig {
    StoreConfig {
        chunk_bytes,
        dedup: true,
        compress,
        threads: 2,
        replicas: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seal_names_are_chunk_ids_and_the_seal_is_unchanged(
        body in arb_body(),
        recipe in arb_recipe(),
        chunk in 1usize..80,
    ) {
        let (sealed, ranges, names) = seal(&body, &recipe, chunk);
        let mut w = ImageWriter::new();
        for &b in &body {
            w.u8(b);
        }
        let plain = w.seal();
        prop_assert_eq!(&sealed, &plain);
        prop_assert_eq!(ChunkId::from(sealed.digest()), ChunkId::of(sealed.bytes()));
        let bytes = sealed.bytes();
        prop_assert_eq!(
            &ranges,
            &split_ranges(bytes.len(), &cuts_from(&recipe, bytes.len()), chunk)
        );
        prop_assert_eq!(names.len(), ranges.len());
        for (&(s, l), &name) in ranges.iter().zip(&names) {
            prop_assert_eq!(ChunkId::from(name), ChunkId::of(&bytes[s..s + l]));
        }
    }

    #[test]
    fn first_range_fold_names_every_tiling_like_chunk_id(
        body in arb_body(),
        steps in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut w = ImageWriter::new();
        for &b in &body {
            w.u8(b);
        }
        let (sealed, ranges, names) = w.seal_named(|len| tiling(len, &steps));
        let bytes = sealed.bytes();
        prop_assert_eq!(ChunkId::from(sealed.digest()), ChunkId::of(bytes));
        prop_assert_eq!(names.len(), ranges.len());
        let mut image = Assembler::new(bytes.len());
        for (&(s, l), &name) in ranges.iter().zip(&names) {
            let id = ChunkId::of(&bytes[s..s + l]);
            prop_assert_eq!(ChunkId::from(name), id);
            prop_assert_eq!(ChunkId::from(image.push(&bytes[s..s + l])), id);
        }
        prop_assert_eq!(image.finish(), Some(sealed));
    }

    #[test]
    fn fused_restore_matches_the_reference_read(
        body in arb_body(),
        sealed_body in any::<bool>(),
        recipe in arb_recipe(),
        chunk in 1usize..80,
        compress in any::<bool>(),
        width in arb_width(),
        d in arb_damage(),
    ) {
        // Sealed images exercise a passing trailer verdict, raw bytes a
        // failing or truncated one; both must round-trip identically.
        let raw = if sealed_body {
            seal(&body, &[], 8).0.into_bytes()
        } else {
            body
        };
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs.clone(), "j").with_threads(width);
        let cuts = cuts_from(&recipe, raw.len());
        let put = s.prepare_chunked(&raw, &cuts, &cfg(chunk, compress));
        s.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        damage(&fs, &s, "p", &d);
        let want = reference_read(&fs, &s, "p");
        if matches!(d, Damage::None) {
            prop_assert_eq!(want.as_ref().map(Sealed::bytes), Ok(&raw[..]));
        }
        prop_assert_eq!(s.read_sealed("p", 1), want);
    }

    #[test]
    fn named_prepare_matches_the_reference_over_a_partial_store(
        body in prop_oneof![arb_body(), arb_runs_body()],
        recipe in arb_recipe(),
        chunk in 1usize..80,
        compress in any::<bool>(),
        held in proptest::collection::vec(any::<bool>(), 0..64),
        width in arb_width(),
    ) {
        let (sealed, ranges, _) = seal(&body, &recipe, chunk);
        let raw = sealed.bytes();
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs.clone(), "j");
        // The store already holds an arbitrary subset of the chunks,
        // written under the other codec setting.
        for (k, &(start, len)) in ranges.iter().enumerate() {
            if held.get(k).copied().unwrap_or(false) {
                let seg = &raw[start..start + len];
                fs.write_file(&s.chunk_path(ChunkId::of(seg)), chunk::encode_chunk(seg, !compress));
            }
        }
        let cfg = StoreConfig { threads: width, ..cfg(chunk, compress) };
        let mut w = ImageWriter::new();
        for &b in &body {
            w.u8(b);
        }
        let named = s.prepare_sealed(
            w,
            |len| split_ranges(len, &cuts_from(&recipe, len), chunk),
            &cfg,
        );
        let reference = s.prepare_chunked(raw, &cuts_from(&recipe, raw.len()), &cfg);
        let (model_manifest, model_novel) = model_prepare(&fs, &s, raw, &ranges, compress);
        prop_assert_eq!(named.manifest(), &model_manifest[..]);
        prop_assert_eq!(named.manifest(), reference.manifest());
        prop_assert_eq!(named.novel_writes().collect::<Vec<_>>(), model_novel.clone());
        prop_assert_eq!(reference.novel_writes().collect::<Vec<_>>(), model_novel);
        prop_assert_eq!(named.image_digest(), ChunkId::of(raw));
        prop_assert_eq!(reference.image_digest(), ChunkId::of(raw));
        // Applied, it serves the image back.
        s.put_prepared("p", 1, PreparedPut::Chunked(named)).unwrap();
        let back = s.get_image("p", 1);
        prop_assert_eq!(back.as_deref(), Some(raw));
    }
}
