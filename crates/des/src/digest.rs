//! The one audited FNV-1a 64-bit fold every digest in the workspace uses.
//!
//! Trace digests, image checksums, chunk content addresses and the bench
//! crates' epoch digests all reduce to the same primitive: fold bytes into
//! a 64-bit FNV-1a state (`h = (h ^ byte) * PRIME`, starting from
//! [`OFFSET`]). Before this module existed that primitive was copied in
//! five places; a typo in any one of them would have silently broken the
//! byte-for-byte reproducibility the whole project is built to witness.
//! Now there is exactly one implementation, and its test vectors pin it to
//! the published FNV-1a constants.
//!
//! FNV-1a has no finalization step — the running state *is* the digest —
//! so [`fold`] both accumulates and finalizes: seed with [`OFFSET`] (or a
//! previous fold's output, for incremental digests), fold bytes, read the
//! result.

/// FNV-1a 64-bit offset basis (the standard one).
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A second, independent offset basis (the standard basis folded with the
/// 64-bit golden ratio). Folding the same bytes from [`OFFSET`] and
/// `OFFSET_ALT` yields two independent 64-bit digests — together a 128-bit
/// content address (see `cruz::chunk::ChunkId`).
pub const OFFSET_ALT: u64 = OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `data` into the running digest `h`.
///
/// Seed with [`OFFSET`] for a fresh digest, or with a previous fold's
/// output to digest incrementally; the return value is the finished
/// digest (FNV-1a needs no separate finalize).
///
/// The hot loop reads eight bytes at a time and unrolls the eight
/// xor-multiply steps. FNV-1a is inherently byte-serial — each step feeds
/// the next — so the word loop performs *exactly* the byte recurrence and
/// the result is bit-identical to [`fold_bytewise`]; what the unrolling
/// removes is per-byte bounds checking and loop overhead. The equivalence
/// is pinned by tests here and by the `hotpath_properties` twin-path
/// proptests.
#[must_use]
pub fn fold(mut h: u64, data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = fold_word(h, x);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The straight-line byte-at-a-time reference fold. Semantically identical
/// to [`fold`]; kept as the auditable definition the optimized word loop is
/// property-tested against, and as the baseline the hot-path benches
/// measure the unrolled fold over.
#[must_use]
pub fn fold_bytewise(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Folds `data` into **two** independent running digests in one pass.
///
/// Semantically `(fold(h1, data), fold(h2, data))` — bit-identical, pinned
/// by tests here and by the twin-path proptests. The point is throughput:
/// FNV-1a's xor-multiply chain is inherently serial (each step's input is
/// the previous step's product), so a single fold is latency-bound on the
/// multiplier and a second pass doubles both that latency and the memory
/// traffic. Interleaving the two chains keeps two independent multiplies
/// in flight per step and reads the data once — which is exactly the shape
/// of a 128-bit chunk content address (`cruz::chunk::ChunkId`), the one
/// caller hashing the same bytes from two bases.
#[must_use]
pub fn fold2(mut h1: u64, mut h2: u64, data: &[u8]) -> (u64, u64) {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        (h1, h2) = fold2_word(h1, h2, x);
    }
    for &b in words.remainder() {
        h1 = (h1 ^ b as u64).wrapping_mul(PRIME);
        h2 = (h2 ^ b as u64).wrapping_mul(PRIME);
    }
    (h1, h2)
}

/// Folds `data` into **four** independent running digests in one pass.
///
/// Semantically `fold2(h[0], h[1], data)` and `fold2(h[2], h[3], data)` —
/// bit-identical, pinned by tests here. The multiplier has room for four
/// independent chains in the latency one chain already pays, so this
/// costs about what [`fold2`] costs while reading the bytes once. Its
/// caller is a chunked image: one pass folds the whole image's content
/// digest (`h[0]`, `h[1]`) and the current chunk's content address
/// (`h[2]`, `h[3]`) together.
#[must_use]
pub fn fold4(mut h: [u64; 4], data: &[u8]) -> [u64; 4] {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = fold4_word(h, x);
    }
    for &b in words.remainder() {
        for s in &mut h {
            *s = (*s ^ b as u64).wrapping_mul(PRIME);
        }
    }
    h
}

/// One fully-unrolled word step of four chains, the four multiplies of
/// each byte step adjacent so they can issue together.
#[inline]
fn fold4_word([mut a, mut b, mut c, mut d]: [u64; 4], x: u64) -> [u64; 4] {
    macro_rules! step {
        ($v:expr) => {
            a = (a ^ $v).wrapping_mul(PRIME);
            b = (b ^ $v).wrapping_mul(PRIME);
            c = (c ^ $v).wrapping_mul(PRIME);
            d = (d ^ $v).wrapping_mul(PRIME);
        };
    }
    step!(x & 0xff);
    step!((x >> 8) & 0xff);
    step!((x >> 16) & 0xff);
    step!((x >> 24) & 0xff);
    step!((x >> 32) & 0xff);
    step!((x >> 40) & 0xff);
    step!((x >> 48) & 0xff);
    step!(x >> 56);
    [a, b, c, d]
}

/// One fully-unrolled word step of both chains: the eight little-endian
/// bytes of `x` folded into `h1` and `h2` in byte order, the two
/// independent multiplies of each step adjacent so they can issue together.
#[inline]
fn fold2_word(mut h1: u64, mut h2: u64, x: u64) -> (u64, u64) {
    macro_rules! step {
        ($b:expr) => {
            h1 = (h1 ^ $b).wrapping_mul(PRIME);
            h2 = (h2 ^ $b).wrapping_mul(PRIME);
        };
    }
    step!(x & 0xff);
    step!((x >> 8) & 0xff);
    step!((x >> 16) & 0xff);
    step!((x >> 24) & 0xff);
    step!((x >> 32) & 0xff);
    step!((x >> 40) & 0xff);
    step!((x >> 48) & 0xff);
    step!(x >> 56);
    (h1, h2)
}

/// One fully-unrolled word step: folds the eight little-endian bytes of
/// `x` into `h` in byte order.
#[inline]
fn fold_word(mut h: u64, x: u64) -> u64 {
    h = (h ^ (x & 0xff)).wrapping_mul(PRIME);
    h = (h ^ ((x >> 8) & 0xff)).wrapping_mul(PRIME);
    h = (h ^ ((x >> 16) & 0xff)).wrapping_mul(PRIME);
    h = (h ^ ((x >> 24) & 0xff)).wrapping_mul(PRIME);
    h = (h ^ ((x >> 32) & 0xff)).wrapping_mul(PRIME);
    h = (h ^ ((x >> 40) & 0xff)).wrapping_mul(PRIME);
    h = (h ^ ((x >> 48) & 0xff)).wrapping_mul(PRIME);
    h = (h ^ (x >> 56)).wrapping_mul(PRIME);
    h
}

/// Folds one `u64` into the running digest as its eight little-endian
/// bytes — the word-granular variant the event-trace digest uses on its
/// hot path. Takes the unrolled word step directly, with no byte
/// round-trip.
#[must_use]
pub fn fold_u64(h: u64, word: u64) -> u64 {
    fold_word(h, word)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Published FNV-1a 64-bit test vectors (draft-eastlake-fnv): the
    // constants and the xor-then-multiply order are load-bearing — the
    // store's on-disk chunk names and every pinned trace digest depend on
    // them.
    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(fold(OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fold(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fold(OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fold_is_byte_incremental() {
        let whole = fold(OFFSET, b"checkpoint");
        let split = fold(fold(OFFSET, b"check"), b"point");
        assert_eq!(whole, split);
    }

    #[test]
    fn fold_u64_is_the_le_byte_fold() {
        let w = 0x0123_4567_89ab_cdefu64;
        assert_eq!(fold_u64(OFFSET, w), fold(OFFSET, &w.to_le_bytes()));
    }

    #[test]
    fn alt_offset_gives_an_independent_digest() {
        assert_ne!(fold(OFFSET, b"page"), fold(OFFSET_ALT, b"page"));
    }

    #[test]
    fn fold2_is_two_folds() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"checkpoint".to_vec(),
            vec![0u8; 4096],
            (0..=255u8).collect(),
            (0..1000u32).map(|i| (i % 251) as u8).collect(),
        ];
        for data in &cases {
            assert_eq!(
                fold2(OFFSET, OFFSET_ALT, data),
                (fold(OFFSET, data), fold(OFFSET_ALT, data)),
                "len {}",
                data.len()
            );
        }
        // Arbitrary seeds, not just the two standard bases.
        assert_eq!(fold2(7, 9, b"xyz"), (fold(7, b"xyz"), fold(9, b"xyz")));
    }

    #[test]
    fn fold4_is_two_fold2s() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"checkpoint".to_vec(),
            vec![0u8; 4096],
            (0..=255u8).collect(),
            (0..1003u32).map(|i| (i % 251) as u8).collect(),
        ];
        for data in &cases {
            let (a, b) = fold2(OFFSET, OFFSET_ALT, data);
            let (c, d) = fold2(7, 9, data);
            assert_eq!(
                fold4([OFFSET, OFFSET_ALT, 7, 9], data),
                [a, b, c, d],
                "len {}",
                data.len()
            );
        }
        // Split anywhere, the chains continue exactly like fold2's.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        for cut in [0, 1, 7, 8, 9, 150, 299, 300] {
            let (head, tail) = data.split_at(cut);
            let h = fold4([OFFSET, OFFSET_ALT, OFFSET, OFFSET_ALT], head);
            let (a, b) = fold2(OFFSET, OFFSET_ALT, &data);
            assert_eq!(fold4(h, tail), [a, b, a, b], "cut {cut}");
        }
    }

    /// The identity image sealing rests on: the two-chain digest of
    /// `body ‖ trailer` is the two chains over `body`, continued over
    /// `trailer`. With `trailer` the checksum `fold(OFFSET, body)`, one
    /// pass over the body therefore yields both the image checksum and
    /// the content digest of the whole image.
    #[test]
    fn fold2_of_a_concatenation_continues_from_the_prefix() {
        let bodies: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"checkpoint".to_vec(),
            (0..4099u32).map(|i| (i % 253) as u8).collect(),
        ];
        for body in &bodies {
            let (h1, h2) = fold2(OFFSET, OFFSET_ALT, body);
            for trailer in [h1.to_le_bytes().to_vec(), b"xyz".to_vec(), vec![]] {
                let whole = [body.as_slice(), &trailer].concat();
                assert_eq!(
                    fold2(OFFSET, OFFSET_ALT, &whole),
                    (fold(fold(OFFSET, body), &trailer), fold(h2, &trailer)),
                    "body len {}, trailer len {}",
                    body.len(),
                    trailer.len()
                );
            }
        }
    }
}
