//! The low-level image codec: length-prefixed little-endian fields, the
//! trailing FNV-1a checksum, and the one hash pass that seals an image
//! with both that checksum and its content digest.

use std::fmt;

use des::digest::{fold2, fold4, OFFSET, OFFSET_ALT};

use super::PodImage;

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The buffer ended before the structure did.
    Truncated,
    /// Bad magic number.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
    /// A tag byte had no meaning.
    BadTag(u8),
    /// The trailing checksum did not match.
    BadChecksum,
    /// A string was not UTF-8.
    BadString,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "image truncated"),
            ImageError::BadMagic(m) => write!(f, "bad image magic {m:#010x}"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::BadTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            ImageError::BadChecksum => write!(f, "image checksum mismatch"),
            ImageError::BadString => write!(f, "invalid utf-8 in image string"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Serializer for image structures.
#[derive(Debug, Default, Clone)]
pub struct ImageWriter {
    buf: Vec<u8>,
}

impl ImageWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Finishes the image: appends the FNV-1a checksum of everything so far.
    pub fn finish(self) -> Vec<u8> {
        self.seal().into_bytes()
    }

    /// Finishes the image in one hash pass: appends the FNV-1a checksum of
    /// everything so far and returns the bytes with their content digest.
    ///
    /// The checksum is the [`OFFSET`] chain of `fold2` over the body, so
    /// the same pass also yields the [`OFFSET_ALT`] chain; folding the
    /// checksum's eight trailer bytes into both chains finishes the content
    /// digest of the whole image (see [`ContentDigest`]).
    pub fn seal(mut self) -> Sealed {
        let (sum, alt) = fold2(OFFSET, OFFSET_ALT, &self.buf);
        self.u64(sum);
        Sealed {
            digest: fold2(sum, alt, &sum.to_le_bytes()),
            bytes: self.buf,
            check: Ok(()),
        }
    }

    /// [`ImageWriter::seal`], also naming every chunk range of the sealed
    /// image in the same pass.
    ///
    /// `split` receives the sealed length (body plus the 8-byte trailer)
    /// and returns the `(start, len)` ranges that tile it, in order; a
    /// range may straddle the trailer or lie inside it. Each range's name
    /// is its own content digest, folded from [`OFFSET`] and
    /// [`OFFSET_ALT`] (`cruz::chunk::ChunkId::of` of its bytes). The image
    /// chains and the current range's chains advance together in one
    /// `fold4`, so naming the chunks costs no second pass over the image.
    ///
    /// # Panics
    ///
    /// If the ranges do not tile `0..len` exactly.
    pub fn seal_named(
        mut self,
        split: impl FnOnce(usize) -> Vec<(usize, usize)>,
    ) -> (Sealed, Vec<(usize, usize)>, Vec<ContentDigest>) {
        let body = self.buf.len();
        let ranges = split(body + 8);
        let mut image = [OFFSET, OFFSET_ALT];
        let mut names = Vec::with_capacity(ranges.len());
        let mut pos = 0;
        for &(start, len) in &ranges {
            assert_eq!(start, pos, "chunk ranges must tile the image");
            let end = start + len;
            let mut own = [OFFSET, OFFSET_ALT];
            let head = end.min(body);
            if start < head {
                (image, own) = fold_both(image, own, &self.buf[start..head]);
            }
            if end > body {
                if self.buf.len() == body {
                    self.u64(image[0]);
                }
                (image, own) = fold_both(image, own, &self.buf[start.max(body)..end]);
            }
            names.push((own[0], own[1]));
            pos = end;
        }
        assert_eq!(pos, body + 8, "chunk ranges must tile the image");
        let sealed = Sealed {
            digest: (image[0], image[1]),
            bytes: self.buf,
            check: Ok(()),
        };
        (sealed, ranges, names)
    }

    /// Bytes written so far (before `finish`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializer for image structures.
#[derive(Debug)]
pub struct ImageReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ImageReader<'a> {
    /// Wraps a complete image, verifying its trailing checksum.
    ///
    /// # Errors
    ///
    /// [`ImageError::Truncated`] or [`ImageError::BadChecksum`].
    pub fn verify(data: &'a [u8]) -> Result<Self, ImageError> {
        Self::open(data).1
    }

    /// The one-pass reader check: folds `data` once and returns its
    /// content digest together with the trailing-checksum verdict
    /// ([`ImageReader::verify`]'s result). The digest covers every byte of
    /// `data`, whatever the verdict — it is what a stored digest sidecar
    /// is compared against.
    pub fn open(data: &'a [u8]) -> (ContentDigest, Result<Self, ImageError>) {
        if data.len() < 8 {
            return (fold2(OFFSET, OFFSET_ALT, data), Err(ImageError::Truncated));
        }
        let (body, sum_bytes) = data.split_at(data.len() - 8);
        let (sum, alt) = fold2(OFFSET, OFFSET_ALT, body);
        let digest = fold2(sum, alt, sum_bytes);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if sum != stored {
            return (digest, Err(ImageError::BadChecksum));
        }
        (digest, Ok(ImageReader { data: body, pos: 0 }))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or(ImageError::Truncated)?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// An empty vector with room for `n` decoded elements, capped at the
    /// unread input length: every element occupies at least one byte, so
    /// a corrupt count can never reserve more than the input could fill.
    pub fn vec_for<T>(&self, n: u32) -> Vec<T> {
        Vec::with_capacity((n as usize).min(self.data.len() - self.pos))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, ImageError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, ImageError> {
        let n = usize::try_from(self.u64()?).map_err(|_| ImageError::Truncated)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ImageError> {
        String::from_utf8(self.bytes()?).map_err(|_| ImageError::BadString)
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> Result<bool, ImageError> {
        Ok(self.u8()? != 0)
    }

    /// True if all bytes were consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Advances an image's two chains and a chunk's two chains over the same
/// bytes in one `fold4` pass.
fn fold_both(image: [u64; 2], own: [u64; 2], data: &[u8]) -> ([u64; 2], [u64; 2]) {
    let [a, b, c, d] = fold4([image[0], image[1], own[0], own[1]], data);
    ([a, b], [c, d])
}

/// Reassembles an image from its chunks in order and opens it in the
/// same pass: each [`Assembler::push`] appends a chunk, returns the
/// chunk's own content digest and advances the image's chains, so the
/// finished [`Sealed`] costs no further pass over the bytes.
///
/// The image chains are read at two points. At `len - 8` the `lo` chain
/// is the checksum the trailer must hold; at `len` both chains are the
/// image's [`ContentDigest`]. That is exactly what [`ImageReader::open`]
/// computes over the same bytes.
#[derive(Debug)]
pub struct Assembler {
    bytes: Vec<u8>,
    len: usize,
    image: [u64; 2],
    /// The `lo` chain at `len - 8`, once the assembly has passed it.
    sum: Option<u64>,
}

impl Assembler {
    /// An empty assembly of an image declared to be `len` bytes long.
    pub fn new(len: usize) -> Assembler {
        Assembler {
            bytes: Vec::with_capacity(len),
            len,
            image: [OFFSET, OFFSET_ALT],
            sum: None,
        }
    }

    /// Appends `piece` and returns its own content digest (folded from
    /// [`OFFSET`] and [`OFFSET_ALT`]), computed in the pass that also
    /// advances the image's chains.
    pub fn push(&mut self, piece: &[u8]) -> ContentDigest {
        let mut own = [OFFSET, OFFSET_ALT];
        let mut rest = piece;
        let pos = self.bytes.len();
        if let Some(body) = self.len.checked_sub(8) {
            if self.sum.is_none() && pos + piece.len() >= body {
                let (head, tail) = piece.split_at(body - pos);
                (self.image, own) = fold_both(self.image, own, head);
                self.sum = Some(self.image[0]);
                rest = tail;
            }
        }
        (self.image, own) = fold_both(self.image, own, rest);
        self.bytes.extend_from_slice(piece);
        (own[0], own[1])
    }

    /// The assembled image with its digest and trailer verdict, or `None`
    /// unless exactly the declared length was pushed.
    pub fn finish(self) -> Option<Sealed> {
        if self.bytes.len() != self.len {
            return None;
        }
        let check = match self.sum {
            None => Err(ImageError::Truncated),
            Some(sum) => {
                let trailer = &self.bytes[self.len - 8..];
                if sum.to_le_bytes() == trailer {
                    Ok(())
                } else {
                    Err(ImageError::BadChecksum)
                }
            }
        };
        Some(Sealed {
            bytes: self.bytes,
            digest: (self.image[0], self.image[1]),
            check,
        })
    }
}

/// The 128-bit content digest of a complete image, `(lo, hi)`: its bytes
/// folded from [`OFFSET`] and from [`OFFSET_ALT`] — bit-identical to
/// `cruz::chunk::ChunkId::of` over the same bytes, which is what the
/// store's digest sidecar pins.
///
/// The `lo` chain over an image's body *is* the image's trailing checksum,
/// so one `fold2` pass over the body yields both, and folding the eight
/// checksum bytes into both chains finishes the digest:
/// `digest = fold2(sum, alt, sum_le)` where `(sum, alt) = fold2(OFFSET,
/// OFFSET_ALT, body)`. [`ImageWriter::seal`] and [`ImageReader::open`] are
/// the two places that pass runs.
pub type ContentDigest = (u64, u64);

/// Complete image bytes together with what one hash pass over them
/// established: their [`ContentDigest`] and whether the trailing checksum
/// holds. Built by [`ImageWriter::seal`] (write side) or [`Sealed::open`]
/// (read side); the bytes are immutable afterwards, so the verdict stays
/// true of them and [`Sealed::reader`] never folds again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    bytes: Vec<u8>,
    digest: ContentDigest,
    check: Result<(), ImageError>,
}

impl Sealed {
    /// Runs the one-pass reader check ([`ImageReader::open`]) over stored
    /// bytes and keeps its outcome with them.
    pub fn open(bytes: Vec<u8>) -> Sealed {
        let (digest, reader) = ImageReader::open(&bytes);
        let check = reader.map(drop);
        Sealed {
            bytes,
            digest,
            check,
        }
    }

    /// Content digest of the complete bytes.
    pub fn digest(&self) -> ContentDigest {
        self.digest
    }

    /// The complete image bytes (body and checksum trailer).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Gives up the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// A reader over the verified body — [`ImageReader::verify`]'s result,
    /// without a second pass.
    ///
    /// # Errors
    ///
    /// [`ImageError::Truncated`] or [`ImageError::BadChecksum`].
    pub fn reader(&self) -> Result<ImageReader<'_>, ImageError> {
        self.check.clone()?;
        Ok(ImageReader {
            data: &self.bytes[..self.bytes.len() - 8],
            pos: 0,
        })
    }

    /// Parses the image ([`PodImage::decode`]'s result, without a second
    /// pass).
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] on malformed input.
    pub fn decode(&self) -> Result<PodImage, ImageError> {
        PodImage::from_reader(self.reader()?)
    }
}
