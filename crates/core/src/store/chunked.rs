//! The chunked arm of the store: the one prepare that turns named chunk
//! ranges into a manifest and the containers the store lacks, the put
//! that applies it, and the fused restore read.
//!
//! Every chunked write is prepared by [`CheckpointStore::prepare_named`].
//! It takes the chunk names ready-made: from the image seal's single pass
//! on the capture path ([`CheckpointStore::prepare_sealed`]), or from a
//! per-range fold on the reference path
//! ([`CheckpointStore::prepare_chunked`]). It hashes nothing itself, and
//! it encodes only the first occurrence of each chunk absent from disk.

use std::collections::BTreeMap;
use std::fmt;

use zap::image::{Assembler, ContentDigest, ImageReader, ImageWriter, Sealed};

use super::{CheckpointStore, StoreConfig, MANIFEST_MAGIC, STORE_VERSION};
use crate::chunk::{self, ChunkId, CodecScratch};
use crate::parpool::Pool;

/// One chunk of a prepared (not yet applied) dedup write.
#[derive(Debug, Clone)]
pub struct PreparedChunk {
    /// Content address.
    pub id: ChunkId,
    /// Exclusive end offset of this chunk's raw bytes within the image.
    pub raw_end: u64,
    /// The encoded chunk container, carried only by the first occurrence
    /// of a chunk the store lacked when the write was prepared: the bytes
    /// that actually hit the disk. Every other chunk is named, not
    /// carried, and must still be on disk when the write applies.
    pub stored: Option<Vec<u8>>,
}

impl PreparedChunk {
    /// True if this chunk's container is written by the put (the store
    /// lacked it at prepare time and this is its first occurrence).
    pub fn novel(&self) -> bool {
        self.stored.is_some()
    }
}

/// A dedup image write split into its cheap (name/dedup, done at capture
/// time) and effectful (filesystem mutation, done when the simulated disk
/// write completes) halves, so the cluster can model the disk cost of
/// exactly the novel bytes while deferring store mutation to the
/// event that represents durability.
#[derive(Debug, Clone)]
pub struct PreparedChunked {
    pub(crate) raw_len: u64,
    pub(crate) manifest: Vec<u8>,
    pub(crate) chunks: Vec<PreparedChunk>,
    /// Content digest of the whole serialized image, written as the epoch's
    /// digest sidecar so every read path can verify the reassembled bytes
    /// end-to-end (a torn manifest that still decodes cleanly is caught
    /// here, not just by the per-chunk checks).
    pub(crate) raw_digest: ChunkId,
}

impl PreparedChunked {
    /// Length of the original serialized image.
    pub fn raw_len(&self) -> u64 {
        self.raw_len
    }

    /// Content digest of the full serialized image (what the digest
    /// sidecar will pin for end-to-end read verification).
    pub fn image_digest(&self) -> ChunkId {
        self.raw_digest
    }

    /// Length of the manifest file.
    pub fn manifest_len(&self) -> u64 {
        self.manifest.len() as u64
    }

    /// The serialized manifest. The manifest fixes every chunk id, segment
    /// length, and stored length, so byte-equality of two manifests over
    /// the same image proves two prepare paths did identical work — the
    /// equivalence check the hot-path benchmarks and twin-path property
    /// tests pin.
    pub fn manifest(&self) -> &[u8] {
        &self.manifest
    }

    /// The chunk writes the store will actually perform: `(raw_end,
    /// stored_bytes)` per novel chunk, in image order. `raw_end` lets the
    /// caller pipeline each write against the capture progress that
    /// produces it.
    pub fn novel_writes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.chunks
            .iter()
            .filter_map(|c| Some((c.raw_end, c.stored.as_ref()?.len() as u64)))
    }

    /// Total bytes this write sends to disk (novel chunks + manifest).
    pub fn new_bytes(&self) -> u64 {
        self.novel_writes().map(|(_, b)| b).sum::<u64>() + self.manifest_len()
    }

    /// Total chunks the image splits into.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks absent from the store at prepare time.
    pub fn novel_count(&self) -> usize {
        self.chunks.iter().filter(|c| c.novel()).count()
    }
}

/// A chunked put that named a chunk without carrying it, and found it gone
/// from disk when the put applied (deleted after the prepare). The put
/// writes no manifest, sidecar or reference for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingChunk(pub ChunkId);

impl fmt::Display for MissingChunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk {} vanished between prepare and put", self.0)
    }
}

impl std::error::Error for MissingChunk {}

/// What a prepare learned about one distinct chunk id.
#[derive(Debug, Clone, Copy)]
enum Known {
    /// On disk with this stored length.
    OnDisk(u64),
    /// Absent; its container is the `n`th encode.
    Novel(usize),
}

impl CheckpointStore {
    /// Splits a serialized image into content-addressed chunks and computes
    /// which of them the store already holds. Pure with respect to the
    /// store: nothing is written until [`CheckpointStore::put_prepared`].
    /// `cuts` are the page-payload regions of `raw` (see
    /// `PodImage::encode_with_page_cuts`), which pin chunk boundaries so
    /// unchanged pages dedup across epochs.
    ///
    /// The reference prepare: it names every range with its own fold (the
    /// ranges fan out across the worker pool) and folds the whole image
    /// once more for the digest sidecar. Capture uses
    /// [`CheckpointStore::prepare_sealed`], whose names come from the seal.
    pub fn prepare_chunked(
        &self,
        raw: &[u8],
        cuts: &[(usize, usize)],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        let ranges = chunk::split_ranges(raw.len(), cuts, cfg.chunk_bytes);
        let ids = Pool::new(self.threads_for(cfg)).map_ordered(
            ranges.clone(),
            || (),
            |_, (start, len)| chunk::name(&raw[start..start + len]),
        );
        self.prepare_named(raw, &ranges, &ids, ChunkId::of(raw), cfg, |_| None)
    }

    /// The capture-side prepare: `image` was sealed by
    /// `PodImage::seal_named` with `names` the content digests of its
    /// `ranges` (the store's [`chunk::split_ranges`] of the image, one name
    /// per range, as the seal returns them), so no byte is hashed again.
    /// Byte-identical to [`CheckpointStore::prepare_chunked`] over the same
    /// bytes and cuts.
    ///
    /// # Panics
    ///
    /// If `names` and `ranges` differ in length.
    pub fn prepare_sealed(
        &self,
        image: &Sealed,
        ranges: &[(usize, usize)],
        names: &[ContentDigest],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        let ids: Vec<ChunkId> = names.iter().map(|&n| n.into()).collect();
        let digest = image.digest().into();
        self.prepare_named(image.bytes(), ranges, &ids, digest, cfg, |_| None)
    }

    /// The one chunked prepare: `ids[i]` names `ranges[i]` of `raw`, and
    /// `raw_digest` names the whole image. One filesystem lookup per
    /// distinct chunk settles both its novelty and its stored length. Only
    /// the first occurrence of each chunk absent from disk is carried: the
    /// container `reuse` returns for its range index (which must be what
    /// encoding the range under `cfg` gives), or else one encoded on the
    /// worker pool. A chunk already on disk contributes its on-disk length
    /// to the manifest, since that is what a restore will read.
    ///
    /// # Panics
    ///
    /// If `ids` and `ranges` differ in length: the manifest's record count
    /// would not match its records.
    pub(crate) fn prepare_named(
        &self,
        raw: &[u8],
        ranges: &[(usize, usize)],
        ids: &[ChunkId],
        raw_digest: ChunkId,
        cfg: &StoreConfig,
        reuse: impl Fn(usize) -> Option<Vec<u8>>,
    ) -> PreparedChunked {
        assert_eq!(ranges.len(), ids.len(), "one name per range");
        let mut known: BTreeMap<ChunkId, Known> = BTreeMap::new();
        let mut containers: Vec<Option<Vec<u8>>> = Vec::new();
        let mut work: Vec<(usize, (usize, usize))> = Vec::new();
        for (r, (&range, &id)) in ranges.iter().zip(ids).enumerate() {
            known
                .entry(id)
                .or_insert_with(|| match self.fs.len_of(&self.chunk_path(id)) {
                    Some(len) => Known::OnDisk(len),
                    None => {
                        let reused = reuse(r);
                        if reused.is_none() {
                            work.push((containers.len(), range));
                        }
                        containers.push(reused);
                        Known::Novel(containers.len() - 1)
                    }
                });
        }
        let pool = Pool::new(self.threads_for(cfg));
        let (slots, work): (Vec<usize>, Vec<(usize, usize)>) = work.into_iter().unzip();
        let encoded = pool.map_ordered(work, CodecScratch::new, |scratch, (start, len)| {
            chunk::encode_range(&raw[start..start + len], cfg.compress, scratch)
        });
        for (slot, c) in slots.into_iter().zip(encoded) {
            containers[slot] = Some(c);
        }
        let lens: Vec<u64> = containers
            .iter()
            .map(|c| c.as_ref().map_or(0, |c| c.len() as u64))
            .collect();
        let mut chunks = Vec::with_capacity(ranges.len());
        let mut mw = ImageWriter::new();
        mw.u32(MANIFEST_MAGIC);
        mw.u16(STORE_VERSION);
        mw.u64(raw.len() as u64);
        mw.u32(ranges.len() as u32);
        for (&(start, len), &id) in ranges.iter().zip(ids) {
            let (stored_len, stored) = match known[&id] {
                Known::OnDisk(stored_len) => (stored_len, None),
                Known::Novel(n) => (lens[n], containers[n].take()),
            };
            mw.u64(id.0);
            mw.u64(id.1);
            mw.u32(len as u32);
            mw.u32(stored_len as u32);
            chunks.push(PreparedChunk {
                id,
                raw_end: (start + len) as u64,
                stored,
            });
        }
        PreparedChunked {
            raw_len: raw.len() as u64,
            manifest: mw.finish(),
            chunks,
            raw_digest,
        }
    }

    /// Applies a prepared chunked write: stores its carried containers,
    /// then the digest sidecar and manifest, then bumps chunk refcounts.
    ///
    /// # Errors
    ///
    /// [`MissingChunk`] if a chunk the write names without carrying is no
    /// longer on disk; no manifest, sidecar or reference is written then.
    pub(super) fn put_chunked(
        &self,
        pod_name: &str,
        epoch: u64,
        c: PreparedChunked,
    ) -> Result<(), MissingChunk> {
        let mut ids = Vec::with_capacity(c.chunks.len());
        for ch in c.chunks {
            let path = self.chunk_path(ch.id);
            let present = self.fs.exists(&path);
            match ch.stored {
                Some(stored) if !present => self.fs.write_file(&path, stored),
                None if !present => return Err(MissingChunk(ch.id)),
                _ => {}
            }
            ids.push(ch.id);
        }
        let mpath = self.manifest_path(pod_name, epoch);
        // Idempotence under replay: re-applying a put whose identical
        // manifest already landed (an operation-log replay after a replica
        // crash) must not double-count the chunk references it already
        // took.
        let fresh = self.fs.read_file(&mpath).as_deref() != Some(&c.manifest[..]);
        self.write_digest(pod_name, epoch, c.raw_digest);
        self.fs.write_file(&mpath, c.manifest);
        if fresh {
            let mut refs = self.read_refs();
            for id in ids {
                *refs.entry(id).or_insert(0) += 1;
            }
            self.write_refs(&refs);
        }
        Ok(())
    }

    /// Reassembles and opens a chunked image in one pass per byte.
    ///
    /// One serial loop reads each chunk file, decompresses it, checks the
    /// decoded length against its manifest record, and pushes it through
    /// one [`Assembler`] pass that checks its content address, advances the
    /// image's chains and appends it. A chunk file whose torn tail still
    /// decodes therefore cannot masquerade as the original, and the
    /// returned [`Sealed`] carries the digest the caller checks against the
    /// sidecar (which closes the same hole for torn manifests) and the
    /// trailer verdict. `None` on any structural failure.
    pub(super) fn reconstruct(&self, manifest: &[u8]) -> Option<Sealed> {
        let (raw_len, recs) = decode_manifest(manifest)?;
        if recs.iter().map(|r| u64::from(r.1)).sum::<u64>() != raw_len {
            return None;
        }
        let mut image = Assembler::new(usize::try_from(raw_len).ok()?);
        for (id, seg_len, _) in recs {
            let bytes = self.fs.read_file(&self.chunk_path(id))?;
            let raw = chunk::decode_chunk(&bytes).ok()?;
            if raw.len() != seg_len as usize || ChunkId::from(image.push(&raw)) != id {
                return None;
            }
        }
        image.finish()
    }
}

/// Parses a manifest into `(raw_len, [(id, seg_len, stored_len)])`.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Option<(u64, Vec<(ChunkId, u32, u32)>)> {
    let mut r = ImageReader::verify(bytes).ok()?;
    let parsed = (|| -> Result<Option<(u64, Vec<(ChunkId, u32, u32)>)>, zap::image::ImageError> {
        if r.u32()? != MANIFEST_MAGIC || r.u16()? != STORE_VERSION {
            return Ok(None);
        }
        let raw_len = r.u64()?;
        let n = r.u32()?;
        let mut recs = r.vec_for(n);
        for _ in 0..n {
            let id = ChunkId(r.u64()?, r.u64()?);
            let seg_len = r.u32()?;
            let stored_len = r.u32()?;
            recs.push((id, seg_len, stored_len));
        }
        Ok(Some((raw_len, recs)))
    })();
    parsed.ok().flatten()
}
