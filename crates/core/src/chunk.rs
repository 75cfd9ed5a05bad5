//! Content-addressed chunks and the per-chunk compression codec.
//!
//! The deduplicating checkpoint store (see [`crate::store`]) splits each
//! serialized pod image into chunks, names every chunk by a deterministic
//! 128-bit content hash, and stores each distinct chunk once per job. Two
//! properties carry the whole design and are enforced by property tests:
//!
//! * **Determinism** — hashing and compression are pure functions of the
//!   input bytes. The same image yields byte-identical chunks in every
//!   process on every machine (the invariant `cruz-lint` audits for).
//! * **Identity** — `decompress(compress(x)) == x` for every input, so a
//!   restart that reassembles chunks reproduces the original image
//!   byte-for-byte.
//!
//! The codec is an RLE + LZ-lite scheme (pure std, per the vendoring
//! constraint): a greedy LZ parse over a 64 KiB window in which matches may
//! overlap their own output — a distance-1 match *is* run-length encoding —
//! so zero pages and repetitive checkpoint payloads collapse to a few
//! bytes. Token stream:
//!
//! * `0lllllll` — literal run of `l + 1` bytes (1..=128) follows;
//! * `1lllllll dd dd` — copy `l + 4` bytes (4..=131) from `distance`
//!   bytes back in the output, `distance` a little-endian `u16` (1..=65535).

use std::fmt;
use std::sync::OnceLock;

use des::digest;

/// Shortest back-reference worth a 3-byte token.
pub const MIN_MATCH: usize = 4;
/// Longest match one token can encode.
const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Farthest back-reference distance (the LZ window).
const MAX_DIST: usize = 0xffff;
/// Longest literal run one token can carry.
const MAX_LIT: usize = 128;
/// Upper bound on the codec's expansion ratio: the densest token is a
/// 3-byte match emitting up to [`MAX_MATCH`] (131) output bytes, and
/// `131 / 3 < 44`, so no well-formed payload of `n` bytes can decode to
/// more than `44 * n` bytes. A container header promising more is corrupt
/// on its face — the torn-write fault path's defense against a huge bogus
/// decoded-length preallocation.
const MAX_EXPANSION: usize = 44;
/// log2 of the match-finder hash-table size.
const HASH_BITS: u32 = 13;

/// A decode failure. Chunks are checksummed indirectly — the image they
/// reassemble into carries the end-to-end checksum — so these only signal
/// structural corruption of the chunk container itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The token stream ended before its operands did.
    Truncated,
    /// A match referenced bytes before the start of the output.
    BadDistance,
    /// The payload did not decompress to the length the header promised.
    LengthMismatch,
    /// Unknown container tag byte.
    BadTag(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "chunk truncated"),
            CodecError::BadDistance => write!(f, "match distance precedes output start"),
            CodecError::LengthMismatch => write!(f, "decompressed length mismatch"),
            CodecError::BadTag(t) => write!(f, "unknown chunk tag {t:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A chunk's content address: two independent 64-bit FNV-1a folds of the
/// raw (uncompressed) chunk bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChunkId(pub u64, pub u64);

impl ChunkId {
    /// The content address of `data`: both folds computed in one pass over
    /// the bytes (`digest::fold2`), bit-identical to folding twice from
    /// [`digest::OFFSET`] and [`digest::OFFSET_ALT`].
    pub fn of(data: &[u8]) -> ChunkId {
        let (lo, hi) = digest::fold2(digest::OFFSET, digest::OFFSET_ALT, data);
        ChunkId(lo, hi)
    }

    /// Fixed-width lowercase-hex rendering (the chunk's file name stem).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

impl From<zap::image::ContentDigest> for ChunkId {
    /// The chunk id of a sealed image's bytes, from the digest its one
    /// sealing pass computed (bit-identical to [`ChunkId::of`] over them).
    fn from((lo, hi): zap::image::ContentDigest) -> ChunkId {
        ChunkId(lo, hi)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

// ---- zero-page fast path ----------------------------------------------------

/// The page size every zero-page shortcut below is specialized to (matches
/// `simos::mem::PAGE_SIZE` and the store's default chunk size).
pub const ZERO_PAGE_LEN: usize = 4096;

static ZERO_PAGE_ID: OnceLock<ChunkId> = OnceLock::new();
static ZERO_PAGE_LZ: OnceLock<Vec<u8>> = OnceLock::new();
static ZERO_PAGE_RAW: OnceLock<Vec<u8>> = OnceLock::new();

/// The content address of an all-zero [`ZERO_PAGE_LEN`]-byte page, computed
/// once per process. Zero pages dominate freshly-touched guest memory, so
/// the capture path checks [`is_zero_page`] first and skips both folds when
/// it hits.
pub fn zero_page_id() -> ChunkId {
    *ZERO_PAGE_ID.get_or_init(|| ChunkId::of(&[0u8; ZERO_PAGE_LEN]))
}

/// The stored container bytes of an all-zero page, computed once per
/// process via the reference [`encode_chunk`] (so the bytes are identical
/// to what the slow path would produce).
pub fn zero_page_encoded(compress_on: bool) -> &'static [u8] {
    if compress_on {
        ZERO_PAGE_LZ.get_or_init(|| encode_chunk(&[0u8; ZERO_PAGE_LEN], true))
    } else {
        ZERO_PAGE_RAW.get_or_init(|| encode_chunk(&[0u8; ZERO_PAGE_LEN], false))
    }
}

/// True iff `data` is exactly one all-zero page. Word-at-a-time: 4096 is a
/// multiple of 8, so the check is 512 `u64` compares with no tail loop.
pub fn is_zero_page(data: &[u8]) -> bool {
    data.len() == ZERO_PAGE_LEN && data.chunks_exact(8).all(|w| w == [0u8; 8])
}

/// The content address of one chunk range: [`ChunkId::of`], with the
/// all-zero page served from [`zero_page_id`] instead of folded.
pub fn name(seg: &[u8]) -> ChunkId {
    if is_zero_page(seg) {
        zero_page_id()
    } else {
        ChunkId::of(seg)
    }
}

/// The stored container of one chunk range: [`encode_chunk`]'s bytes,
/// through a reusable [`CodecScratch`], with the all-zero page copied from
/// [`zero_page_encoded`] instead of compressed.
pub fn encode_range(seg: &[u8], compress_on: bool, scratch: &mut CodecScratch) -> Vec<u8> {
    if is_zero_page(seg) {
        zero_page_encoded(compress_on).to_vec()
    } else {
        encode_chunk_with(seg, compress_on, scratch)
    }
}

// ---- segmentation -----------------------------------------------------------

/// Splits `0..total` into chunk ranges of at most `chunk_bytes`, aligned to
/// the given payload `cuts` (ascending, non-overlapping `(offset, len)`
/// regions — in practice the page payloads inside a serialized image).
///
/// Alignment is what makes dedup work across epochs: a page keeps its own
/// chunk boundary no matter how the variable-length metadata before it
/// shifts, so an unchanged page re-hashes to the same chunk id every epoch.
/// Returns `(start, len)` ranges whose concatenation covers `0..total`
/// exactly.
pub fn split_ranges(
    total: usize,
    cuts: &[(usize, usize)],
    chunk_bytes: usize,
) -> Vec<(usize, usize)> {
    let chunk = chunk_bytes.max(1);
    let mut ranges = Vec::new();
    let emit = |from: usize, to: usize, ranges: &mut Vec<(usize, usize)>| {
        let mut start = from;
        while start < to {
            let len = (to - start).min(chunk);
            ranges.push((start, len));
            start += len;
        }
    };
    let mut pos = 0;
    for &(off, len) in cuts {
        debug_assert!(off >= pos, "cuts must be ascending and non-overlapping");
        debug_assert!(off + len <= total, "cut exceeds the buffer");
        emit(pos, off, &mut ranges);
        emit(off, off + len, &mut ranges);
        pos = off + len;
    }
    emit(pos, total, &mut ranges);
    ranges
}

// ---- codec ------------------------------------------------------------------

fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(MAX_LIT);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// Compresses `data`. Deterministic: the greedy parse depends only on the
/// input bytes. The output is never usefully larger than
/// `data.len() + data.len() / 128 + 1` (pure literal runs).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0;
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
            let cand = table[h];
            table[h] = i;
            if cand != usize::MAX && i - cand <= MAX_DIST {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    best_len = l;
                    best_dist = i - cand;
                }
            }
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &data[lit_start..i]);
            out.push(0x80 | (best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

/// Reusable codec working memory: the 64 KiB match-finder table and the
/// packed-output buffer that [`compress`] would otherwise allocate per
/// chunk. One scratch serves an entire capture's worth of chunks.
///
/// The table is never re-zeroed between chunks. Each entry packs a
/// generation stamp in its high 32 bits (`(stamp << 32) | position`); an
/// entry is a live candidate only when its stamp matches the current call's,
/// so bumping the stamp invalidates the whole table in O(1). On the rare
/// `u32` stamp wrap the table is re-zeroed once, keeping stale entries from
/// a four-billion-calls-ago generation from aliasing the fresh stamp.
#[derive(Debug, Default)]
pub struct CodecScratch {
    table: Vec<u64>,
    stamp: u32,
    packed: Vec<u8>,
}

impl CodecScratch {
    /// Creates an empty scratch; the table materializes on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`compress`] into `scratch.packed`, reusing the scratch table. Produces
/// a byte-identical token stream: the greedy parse consults exactly the
/// candidates the fresh-table reference would (stale-stamp entries read as
/// "no candidate", just like `usize::MAX` slots in a fresh table).
fn compress_into(data: &[u8], scratch: &mut CodecScratch) {
    scratch.packed.clear();
    if data.len() > u32::MAX as usize {
        // Positions would not fit the packed table entry; take the
        // reference path (unreachable for real chunks, which are page-sized).
        scratch.packed = compress(data);
        return;
    }
    if scratch.table.len() != 1 << HASH_BITS {
        scratch.table = vec![0u64; 1 << HASH_BITS];
        scratch.stamp = 0;
    }
    scratch.stamp = scratch.stamp.wrapping_add(1);
    if scratch.stamp == 0 {
        scratch.table.iter_mut().for_each(|e| *e = 0);
        scratch.stamp = 1;
    }
    let gen = (scratch.stamp as u64) << 32;
    let out = &mut scratch.packed;
    let table = &mut scratch.table;
    let mut lit_start = 0;
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
            let e = table[h];
            let cand = if e & 0xffff_ffff_0000_0000 == gen {
                (e & 0xffff_ffff) as usize
            } else {
                usize::MAX
            };
            table[h] = gen | i as u64;
            if cand != usize::MAX && i - cand <= MAX_DIST {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    best_len = l;
                    best_dist = i - cand;
                }
            }
        }
        if best_len >= MIN_MATCH {
            flush_literals(out, &data[lit_start..i]);
            out.push(0x80 | (best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(out, &data[lit_start..]);
}

/// Decompresses a [`compress`] token stream.
///
/// # Errors
///
/// [`CodecError::Truncated`] or [`CodecError::BadDistance`] on malformed
/// input.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    decompress_with_capacity(data, data.len() * 2)
}

/// [`decompress`] with the output preallocated to `cap` bytes — the chunk
/// container records the decoded length, so [`decode_chunk`] can size the
/// output exactly once instead of growing it incrementally.
///
/// `cap` comes from an **untrusted** container header on the torn-write
/// fault path, so it is clamped to [`MAX_EXPANSION`]`× data.len()` — the
/// most any well-formed payload can decode to — before it reaches the
/// allocator. A corrupt header past the clamp costs at most a few
/// incremental `Vec` growths before the length check in [`decode_chunk`]
/// rejects it; it can never abort the process on an absurd allocation.
fn decompress_with_capacity(data: &[u8], cap: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(cap.min(data.len().saturating_mul(MAX_EXPANSION)));
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c & 0x80 == 0 {
            let n = c as usize + 1;
            if i + n > data.len() {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else {
            let len = (c & 0x7f) as usize + MIN_MATCH;
            if i + 2 > data.len() {
                return Err(CodecError::Truncated);
            }
            let dist = u16::from_le_bytes([data[i], data[i + 1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::BadDistance);
            }
            let start = out.len() - dist;
            // Byte-by-byte: matches may overlap their own output (RLE).
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

// ---- chunk container --------------------------------------------------------

/// Tag of a stored-raw chunk.
const TAG_RAW: u8 = 0;
/// Tag of a compressed chunk.
const TAG_LZ: u8 = 1;

/// Encodes a chunk for storage: compressed when `compress_on` and the codec
/// actually wins, stored raw otherwise. The container is self-describing,
/// so readers need no store configuration.
pub fn encode_chunk(raw: &[u8], compress_on: bool) -> Vec<u8> {
    if compress_on {
        let packed = compress(raw);
        if packed.len() + 5 < raw.len() + 1 {
            let mut out = Vec::with_capacity(packed.len() + 5);
            out.push(TAG_LZ);
            out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
            out.extend_from_slice(&packed);
            return out;
        }
    }
    let mut out = Vec::with_capacity(raw.len() + 1);
    out.push(TAG_RAW);
    out.extend_from_slice(raw);
    out
}

/// [`encode_chunk`] through a reusable [`CodecScratch`]: same container
/// bytes (pinned by twin-path tests), no per-chunk table or intermediate
/// allocation — the only allocation is the exact-size output container.
pub fn encode_chunk_with(raw: &[u8], compress_on: bool, scratch: &mut CodecScratch) -> Vec<u8> {
    if compress_on {
        compress_into(raw, scratch);
        let packed = &scratch.packed;
        if packed.len() + 5 < raw.len() + 1 {
            let mut out = Vec::with_capacity(packed.len() + 5);
            out.push(TAG_LZ);
            out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
            out.extend_from_slice(packed);
            return out;
        }
    }
    let mut out = Vec::with_capacity(raw.len() + 1);
    out.push(TAG_RAW);
    out.extend_from_slice(raw);
    out
}

/// Decodes a stored chunk back to its raw bytes.
///
/// # Errors
///
/// Any [`CodecError`] on a malformed container or token stream.
pub fn decode_chunk(stored: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (&tag, rest) = stored.split_first().ok_or(CodecError::Truncated)?;
    match tag {
        TAG_RAW => Ok(rest.to_vec()),
        TAG_LZ => {
            if rest.len() < 4 {
                return Err(CodecError::Truncated);
            }
            let (len_bytes, payload) = rest.split_at(4);
            let raw_len =
                u32::from_le_bytes(len_bytes.try_into().map_err(|_| CodecError::Truncated)?)
                    as usize;
            // The decoded-length header is untrusted (a torn disk write can
            // hand us any four bytes): a length no payload of this size
            // could decode to is structural corruption, rejected before any
            // allocation or decode work.
            if raw_len > payload.len().saturating_mul(MAX_EXPANSION) {
                return Err(CodecError::LengthMismatch);
            }
            let raw = decompress_with_capacity(payload, raw_len)?;
            if raw.len() != raw_len {
                return Err(CodecError::LengthMismatch);
            }
            Ok(raw)
        }
        t => Err(CodecError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_content() {
        let mut data = Vec::new();
        data.extend(std::iter::repeat(0u8).take(5000)); // zero run → RLE
        data.extend((0..4096u32).map(|i| (i % 251) as u8 | 1)); // periodic
        data.extend((0..700u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)); // noisy
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 3, "repetitive input compresses");
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn round_trip_short_and_empty() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd", b"aaaa"] {
            let packed = compress(data);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn zero_page_collapses() {
        let page = vec![0u8; 4096];
        let stored = encode_chunk(&page, true);
        assert!(stored.len() < 120, "zero page stays tiny: {}", stored.len());
        assert_eq!(decode_chunk(&stored).unwrap(), page);
    }

    #[test]
    fn incompressible_falls_back_to_raw() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(97) % 256) as u8)
            .collect();
        let stored = encode_chunk(&data, true);
        assert!(stored.len() <= data.len() + 1);
        assert_eq!(decode_chunk(&stored).unwrap(), data);
        // And with compression off the container is always raw.
        let raw = encode_chunk(&data, false);
        assert_eq!(raw[0], TAG_RAW);
        assert_eq!(decode_chunk(&raw).unwrap(), data);
    }

    #[test]
    fn malformed_chunks_rejected() {
        assert_eq!(decode_chunk(&[]), Err(CodecError::Truncated));
        assert_eq!(decode_chunk(&[9, 1, 2]), Err(CodecError::BadTag(9)));
        assert_eq!(decode_chunk(&[TAG_LZ, 1, 0]), Err(CodecError::Truncated));
        // A match before the output starts.
        assert_eq!(
            decompress(&[0x80, 2, 0]),
            Err(CodecError::BadDistance),
            "distance beyond output"
        );
        // Literal run cut short.
        assert_eq!(decompress(&[5, 1, 2]), Err(CodecError::Truncated));
        // Compressed payload shorter than promised.
        let mut stored = vec![TAG_LZ];
        stored.extend_from_slice(&100u32.to_le_bytes());
        stored.extend_from_slice(&compress(b"abc"));
        assert_eq!(decode_chunk(&stored), Err(CodecError::LengthMismatch));
    }

    #[test]
    fn torn_headers_with_huge_lengths_are_rejected_cheaply() {
        // A torn write can corrupt the decoded-length header into any
        // value; a u32::MAX length over a tiny payload must be rejected
        // (not trusted as a preallocation size, which would abort on OOM).
        for bogus in [u32::MAX, u32::MAX / 2, 1 << 24] {
            let mut stored = vec![TAG_LZ];
            stored.extend_from_slice(&bogus.to_le_bytes());
            stored.extend_from_slice(&compress(b"tiny"));
            assert_eq!(
                decode_chunk(&stored),
                Err(CodecError::LengthMismatch),
                "header {bogus:#x} over a {}-byte payload",
                stored.len() - 5
            );
        }
        // Just past the expansion bound over an empty payload too.
        let mut stored = vec![TAG_LZ];
        stored.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_chunk(&stored), Err(CodecError::LengthMismatch));
        // The bound never rejects a legitimate container: the most
        // expansive real input is a long run (distance-1 RLE).
        let page = vec![7u8; ZERO_PAGE_LEN];
        let stored = encode_chunk(&page, true);
        assert_eq!(decode_chunk(&stored).unwrap(), page);
    }

    #[test]
    fn scratch_codec_matches_reference() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            vec![0u8; 4096],
            (0..4096u32).map(|i| (i % 251) as u8 | 1).collect(),
            (0..700u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
                .collect(),
            b"abcabcabcabcabcabc".to_vec(),
        ];
        // One scratch across all inputs and both compress settings: reuse
        // (stale table entries, leftover packed bytes) must not leak.
        let mut scratch = CodecScratch::new();
        for round in 0..3 {
            for data in &inputs {
                for on in [true, false] {
                    assert_eq!(
                        encode_chunk_with(data, on, &mut scratch),
                        encode_chunk(data, on),
                        "round {round} len {} compress {on}",
                        data.len()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_page_constants_match_slow_path() {
        let page = vec![0u8; ZERO_PAGE_LEN];
        assert!(is_zero_page(&page));
        assert!(!is_zero_page(&page[..ZERO_PAGE_LEN - 1]));
        let mut dirty = page.clone();
        dirty[4095] = 1;
        assert!(!is_zero_page(&dirty));
        assert_eq!(zero_page_id(), ChunkId::of(&page));
        assert_eq!(zero_page_encoded(true), &encode_chunk(&page, true)[..]);
        assert_eq!(zero_page_encoded(false), &encode_chunk(&page, false)[..]);
        // The per-range entry points agree with the slow path on zero and
        // nonzero pages alike.
        let mut scratch = CodecScratch::new();
        for seg in [&page[..], &dirty[..]] {
            assert_eq!(name(seg), ChunkId::of(seg));
            for on in [true, false] {
                assert_eq!(encode_range(seg, on, &mut scratch), encode_chunk(seg, on));
            }
        }
    }

    #[test]
    fn chunk_ids_discriminate() {
        let a = ChunkId::of(b"hello");
        let b = ChunkId::of(b"hellp");
        assert_ne!(a, b);
        assert_eq!(a, ChunkId::of(b"hello"), "hash is a pure function");
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn split_ranges_cover_and_align() {
        // 100 bytes, a "page" at 30..62, chunk size 16.
        let ranges = split_ranges(100, &[(30, 32)], 16);
        // Coverage: concatenation is exactly 0..100.
        let mut pos = 0;
        for &(start, len) in &ranges {
            assert_eq!(start, pos);
            pos += len;
        }
        assert_eq!(pos, 100);
        // Alignment: a chunk starts exactly at the cut.
        assert!(ranges.iter().any(|&(s, l)| s == 30 && l == 16));
        assert!(ranges.iter().any(|&(s, l)| s == 46 && l == 16));
        // Degenerate chunk size is clamped, empty input yields no ranges.
        assert_eq!(split_ranges(0, &[], 0), vec![]);
        assert_eq!(split_ranges(3, &[], 0), vec![(0, 1), (1, 1), (2, 1)]);
    }
}
