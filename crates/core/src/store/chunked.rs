//! The store's one write and read path: the prepare that turns named
//! chunk ranges into a manifest and the containers the store lacks, the
//! put planner and apply that every put runs (the replicated store's
//! included, at every k), and the fused restore read.
//!
//! Every write is prepared by one [`Plan`]. It takes the chunk names
//! ready-made: from the image seal's single pass on the capture path
//! ([`CheckpointStore::prepare_sealed`], which runs that pass beside the
//! plan on the worker pool), from one fold of the whole image for a
//! [`PreparedPut::Plain`] put, or from a per-range fold on the reference
//! path ([`CheckpointStore::prepare_chunked`]). It hashes nothing itself,
//! and it encodes only the first occurrence of each chunk absent from
//! disk.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use zap::image::{Assembler, ImageReader, ImageWriter, SealFold, Sealed};

use super::{CheckpointStore, PreparedPut, StoreConfig, MANIFEST_MAGIC, STORE_VERSION};
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

/// An image write split into its cheap (name/dedup, done at capture
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
    /// What the prepare's chunk lookups consulted: the filesystem's removal
    /// count, read before the first lookup, and the chunk directory looked
    /// in (see [`PreparedChunked::names_hold_on`]).
    pub(crate) consulted: (u64, String),
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
    /// equivalence the twin-path property tests
    /// (`tests/hotpath_properties.rs`) pin.
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

    /// True if every chunk this write names without carrying is still on
    /// `store`'s disk without looking: the prepare found them in `store`'s
    /// chunk directory, and nothing has been removed from the filesystem
    /// since. A put re-checks the named chunks only when this is false.
    pub(crate) fn names_hold_on(&self, store: &CheckpointStore) -> bool {
        self.consulted.0 == store.fs.removals() && self.consulted.1 == store.chunk_dir()
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

/// A put the planner ([`CheckpointStore::plan_put`]) has checked against
/// the store, ready to apply: the manifest, the whole-image digest its
/// sidecar pins, and the `(content address, container)` of every carried
/// chunk the store lacked.
#[derive(Debug)]
pub(crate) struct PlannedPut {
    pub(crate) manifest: Vec<u8>,
    pub(crate) image: ChunkId,
    pub(crate) blobs: Vec<(ChunkId, Vec<u8>)>,
}

/// What a prepare learned about one distinct chunk id.
#[derive(Debug, Clone, Copy)]
enum Known {
    /// On disk with this stored length.
    OnDisk(u64),
    /// Absent; its container fills the `n`th slot.
    Novel(usize),
}

/// One prepare's bookkeeping, fed one named range at a time in image
/// order: one filesystem lookup per distinct chunk settles both its
/// novelty and its stored length, and the first occurrence of each chunk
/// absent from disk gets a container slot for the caller to fill.
#[derive(Debug, Default)]
struct Plan {
    consulted: (u64, String),
    known: BTreeMap<ChunkId, Known>,
    containers: Vec<Option<Vec<u8>>>,
    records: Vec<((usize, usize), ChunkId)>,
}

impl Plan {
    /// An empty plan whose lookups will consult `store`. The removal count
    /// is read before any lookup: a removal after it, even one between two
    /// lookups, makes the put re-check.
    fn new(store: &CheckpointStore) -> Self {
        Plan {
            consulted: (store.fs.removals(), store.chunk_dir()),
            ..Plan::default()
        }
    }

    /// Records that `range` is named `id`. Returns the slot its container
    /// goes in if this is the first occurrence of a chunk the store lacks.
    fn name(
        &mut self,
        store: &CheckpointStore,
        range: (usize, usize),
        id: ChunkId,
    ) -> Option<usize> {
        self.records.push((range, id));
        let mut slot = None;
        self.known
            .entry(id)
            .or_insert_with(|| match store.fs.len_of(&store.chunk_path(id)) {
                Some(len) => Known::OnDisk(len),
                None => {
                    slot = Some(self.containers.len());
                    self.containers.push(None);
                    Known::Novel(self.containers.len() - 1)
                }
            });
        slot
    }

    /// Fills the slots `work` names by encoding their ranges of `raw` on
    /// `pool` — except that an owned image whose one uncompressed range
    /// covers it becomes its own container in place
    /// ([`chunk::raw_container`]), with no second image-sized buffer.
    /// Returns an owned image that did not become a container, for the
    /// caller to reuse.
    fn encode(
        &mut self,
        raw: Cow<'_, [u8]>,
        work: Vec<(usize, (usize, usize))>,
        cfg: &StoreConfig,
        pool: Pool,
    ) -> Option<Vec<u8>> {
        let raw_len = raw.len();
        let (slots, work): (Vec<usize>, Vec<(usize, usize)>) = work.into_iter().unzip();
        let (encoded, left) = match raw {
            Cow::Owned(image) if !cfg.compress && work == [(0, raw_len)] => {
                (vec![chunk::raw_container(image)], None)
            }
            raw => {
                let encoded = pool.map_ordered(work, CodecScratch::new, |scratch, (start, len)| {
                    chunk::encode_range(&raw[start..start + len], cfg.compress, scratch)
                });
                let left = match raw {
                    Cow::Owned(image) => Some(image),
                    Cow::Borrowed(_) => None,
                };
                (encoded, left)
            }
        };
        for (slot, c) in slots.into_iter().zip(encoded) {
            self.containers[slot] = Some(c);
        }
        left
    }

    /// The prepared write of a `raw_len`-byte image named `raw_digest`,
    /// once every slot is filled. A chunk already on disk contributes its
    /// on-disk length to the manifest, since that is what a restore will
    /// read.
    fn finish(mut self, raw_len: usize, raw_digest: ChunkId) -> PreparedChunked {
        let lens: Vec<u64> = self
            .containers
            .iter()
            .map(|c| c.as_ref().map_or(0, |c| c.len() as u64))
            .collect();
        let mut chunks = Vec::with_capacity(self.records.len());
        let mut mw = ImageWriter::new();
        mw.u32(MANIFEST_MAGIC);
        mw.u16(STORE_VERSION);
        mw.u64(raw_len as u64);
        mw.u32(self.records.len() as u32);
        for &((start, len), id) in &self.records {
            let (stored_len, stored) = match self.known[&id] {
                Known::OnDisk(stored_len) => (stored_len, None),
                Known::Novel(n) => (lens[n], self.containers[n].take()),
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
            raw_len: raw_len as u64,
            manifest: mw.finish(),
            chunks,
            raw_digest,
            consulted: self.consulted,
        }
    }
}

impl CheckpointStore {
    /// Splits a serialized image into content-addressed chunks and computes
    /// which of them the store already holds. Pure with respect to the
    /// store: nothing is written until [`CheckpointStore::put_prepared`].
    /// `cuts` are the page-payload regions of `raw` (see
    /// `PodImage::encode_with_page_cuts`), which pin chunk boundaries so
    /// unchanged pages dedup across epochs.
    ///
    /// The reference prepare: it names every range of
    /// [`StoreConfig::ranges`] with its own fold (the ranges fan out across
    /// the worker pool) and folds the whole image once more for the digest
    /// sidecar. Capture uses [`CheckpointStore::prepare_sealed`], whose
    /// names come from the seal.
    pub fn prepare_chunked(
        &self,
        raw: &[u8],
        cuts: &[(usize, usize)],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        let ranges = cfg.ranges(raw.len(), cuts);
        let ids = Pool::new(self.threads_for(cfg)).map_ordered(
            ranges.clone(),
            || (),
            |_, (start, len)| chunk::name(&raw[start..start + len]),
        );
        self.prepare_named(raw, &ranges, &ids, ChunkId::of(raw), cfg, |_| None)
    }

    /// The capture-side prepare: seals `image` (an image body, as
    /// `PodImage::unsealed` returns it) and prepares its write, naming the
    /// ranges `split` returns ([`StoreConfig::ranges`] of the sealed
    /// length) in the seal's one hash pass, so no byte is hashed again.
    ///
    /// At a width of two or more the pass runs as a [`Pool::pipeline`]:
    /// the worker folds the body range by range ([`SealFold`]) while the
    /// calling thread takes each name as it comes, looks the chunk up and
    /// encodes it if the store lacks it. The ranges that reach the
    /// checksum trailer are named and prepared after the join
    /// ([`ImageWriter::seal_rest`]); an uncompressed whole-image chunk is
    /// built in the sealed image's own buffer, which otherwise goes back
    /// to the filesystem's spares ([`simos::fs::NetFs::give_back`]) once
    /// its chunks are encoded. Byte-identical to
    /// [`CheckpointStore::prepare_chunked`] over the sealed bytes and the
    /// same ranges, at every width.
    ///
    /// # Panics
    ///
    /// If the ranges do not tile the sealed image.
    pub fn prepare_sealed(
        &self,
        image: ImageWriter,
        split: impl FnOnce(usize) -> Vec<(usize, usize)>,
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        let body = image.len();
        let ranges = split(body + 8);
        let inside = ranges.partition_point(|&(start, len)| start + len <= body);
        let pool = Pool::new(self.threads_for(cfg));
        let mut plan = Plan::new(self);
        let mut fold = SealFold::new();
        let mut scratch = CodecScratch::new();
        let bytes = image.body();
        pool.pipeline(
            ranges[..inside].iter().copied(),
            |range| (range, fold.name(bytes, range)),
            |((start, len), name)| {
                if let Some(slot) = plan.name(self, (start, len), name.into()) {
                    plan.containers[slot] = Some(chunk::encode_range(
                        &bytes[start..start + len],
                        cfg.compress,
                        &mut scratch,
                    ));
                }
                true
            },
        );
        let tail = &ranges[inside..];
        let (sealed, names) = image.seal_rest(fold, tail);
        let mut work = Vec::new();
        for (&range, name) in tail.iter().zip(names) {
            if let Some(slot) = plan.name(self, range, name.into()) {
                work.push((slot, range));
            }
        }
        let digest = sealed.digest().into();
        let sealed = sealed.into_bytes();
        let raw_len = sealed.len();
        if let Some(spare) = plan.encode(Cow::Owned(sealed), work, cfg, pool) {
            self.fs.give_back(spare);
        }
        plan.finish(raw_len, digest)
    }

    /// The write a put applies: a [`PreparedPut::Plain`] image becomes one
    /// uncompressed whole-image chunk named by its digest, which is the
    /// one fold over its bytes; a chunked write is already prepared.
    fn prepare_put(&self, put: PreparedPut) -> PreparedChunked {
        match put {
            PreparedPut::Plain(bytes) => {
                let cfg = StoreConfig::default();
                let digest = ChunkId::of(&bytes);
                let ranges = cfg.ranges(bytes.len(), &[]);
                self.prepare_named(bytes, &ranges, &[digest], digest, &cfg, |_| None)
            }
            PreparedPut::Chunked(c) => c,
        }
    }

    /// The name-driven prepare: `ids[i]` names `ranges[i]` of `raw`, and
    /// `raw_digest` names the whole image. Every range goes through one
    /// [`Plan`]; a novel chunk's container is the one `reuse` returns for
    /// its range index (which must be what encoding the range under `cfg`
    /// gives), or else one encoded on the worker pool ([`Plan::encode`]).
    ///
    /// # Panics
    ///
    /// If `ids` and `ranges` differ in length: the manifest's record count
    /// would not match its records.
    pub(crate) fn prepare_named<'a>(
        &self,
        raw: impl Into<Cow<'a, [u8]>>,
        ranges: &[(usize, usize)],
        ids: &[ChunkId],
        raw_digest: ChunkId,
        cfg: &StoreConfig,
        reuse: impl Fn(usize) -> Option<Vec<u8>>,
    ) -> PreparedChunked {
        assert_eq!(ranges.len(), ids.len(), "one name per range");
        let raw = raw.into();
        let raw_len = raw.len();
        let mut plan = Plan::new(self);
        let mut work = Vec::new();
        for (r, (&range, &id)) in ranges.iter().zip(ids).enumerate() {
            if let Some(slot) = plan.name(self, range, id) {
                match reuse(r) {
                    Some(container) => plan.containers[slot] = Some(container),
                    None => work.push((slot, range)),
                }
            }
        }
        plan.encode(raw, work, cfg, Pool::new(self.threads_for(cfg)));
        plan.finish(raw_len, raw_digest)
    }

    /// The put planner, which every put runs before it writes anything:
    /// moves out of the prepared write the containers of the carried
    /// chunks this store still lacks, each once, so a replay against the
    /// same store state writes exactly them. A chunk the write names
    /// without carrying is checked for on disk only if
    /// [`PreparedChunked::names_hold_on`] cannot vouch for it.
    ///
    /// # Errors
    ///
    /// [`MissingChunk`] if a chunk the write names without carrying is no
    /// longer on disk.
    pub(crate) fn plan_put(&self, put: PreparedPut) -> Result<PlannedPut, MissingChunk> {
        let c = self.prepare_put(put);
        let trusted = c.names_hold_on(self);
        let mut seen = BTreeSet::new();
        let mut blobs = Vec::new();
        for ch in c.chunks {
            if trusted && !ch.novel() {
                continue;
            }
            if seen.insert(ch.id) && !self.fs.exists(&self.chunk_path(ch.id)) {
                blobs.push((ch.id, ch.stored.ok_or(MissingChunk(ch.id))?));
            }
        }
        Ok(PlannedPut {
            manifest: c.manifest,
            image: c.raw_digest,
            blobs,
        })
    }

    /// The put apply: writes the planned containers absent from disk (torn
    /// to `frac`/256 of their bytes under a `torn` data fault), then the
    /// digest sidecar and the manifest. A put takes no chunk reference
    /// (the manifests are the liveness record), so applying it again
    /// rewrites the same bytes: replay is idempotent by construction.
    pub(crate) fn apply_put(&self, pod_name: &str, epoch: u64, put: PlannedPut, torn: Option<u8>) {
        for (id, mut body) in put.blobs {
            let path = self.chunk_path(id);
            if !self.fs.exists(&path) {
                if let Some(frac) = torn {
                    body.truncate(body.len() * frac as usize / 256);
                }
                self.fs.write_file(&path, body);
            }
        }
        self.write_digest(pod_name, epoch, put.image);
        self.fs
            .write_file(&self.manifest_path(pod_name, epoch), put.manifest);
    }

    /// Reassembles and opens an image in one pass per byte.
    ///
    /// A [`Pool::pipeline`] over the manifest's records: its producer
    /// reads each chunk file in place through a [`simos::fs::FsView`],
    /// decompresses it (a raw container's payload is passed on where it
    /// lies) and checks the decoded length against its record; its
    /// consumer pushes each chunk through one [`Assembler`] pass that
    /// checks its content address, advances the image's chains and appends
    /// it. At a width of two or more the producer runs on a worker, so
    /// decoding overlaps the fold. A chunk file whose torn tail still
    /// decodes therefore cannot masquerade as the original, and the
    /// returned [`Sealed`] carries the digest the caller checks against the
    /// sidecar (which closes the same hole for torn manifests) and the
    /// trailer verdict, together with the bytes the read served (the
    /// manifest and every distinct chunk). `None` on any structural
    /// failure. The image is assembled into the buffer `buf` returns for
    /// its declared length ([`Assembler::over`]).
    pub(super) fn reconstruct(
        &self,
        manifest: &[u8],
        buf: impl FnOnce(usize) -> Vec<u8>,
    ) -> Option<(Sealed, u64)> {
        let (raw_len, recs) = decode_manifest(manifest)?;
        if recs.iter().map(|r| u64::from(r.1)).sum::<u64>() != raw_len {
            return None;
        }
        let mut distinct = BTreeSet::new();
        let stored = recs
            .iter()
            .filter(|(id, _, _)| distinct.insert(*id))
            .map(|&(_, _, len)| u64::from(len))
            .sum::<u64>()
            + manifest.len() as u64;
        let len = usize::try_from(raw_len).ok()?;
        let mut image = Assembler::over(buf(len), len);
        let dir = self.chunk_dir();
        let whole = self.fs.with_view(|files| {
            Pool::new(self.threads).pipeline(
                recs,
                |(id, seg_len, _)| {
                    let raw = files
                        .file(&chunk_file(&[&dir], id))
                        .and_then(|stored| chunk::decode_chunk_cow(stored).ok())
                        .filter(|raw| raw.len() == seg_len as usize);
                    (id, raw)
                },
                |(id, raw)| raw.is_some_and(|raw| ChunkId::from(image.push(&raw)) == id),
            )
        });
        if whole {
            image.finish().map(|image| (image, stored))
        } else {
            None
        }
    }
}

/// Path of chunk `id`'s file under the chunk directory whose path is the
/// concatenation of `dir`: built in one buffer, without `format!`, since
/// every chunk lookup builds one.
pub(super) fn chunk_file(dir: &[&str], id: ChunkId) -> String {
    let len = dir.iter().map(|part| part.len()).sum::<usize>() + "/.c".len() + 32;
    let mut path = String::with_capacity(len);
    dir.iter().for_each(|part| path.push_str(part));
    path.push('/');
    id.push_hex(&mut path);
    path.push_str(".c");
    path
}

/// A parsed manifest: `(raw_len, [(id, seg_len, stored_len)])`.
type Manifest = (u64, Vec<(ChunkId, u32, u32)>);

/// Parses a manifest.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Option<Manifest> {
    let mut r = ImageReader::verify(bytes).ok()?;
    let parsed = (|| -> Result<Option<Manifest>, zap::image::ImageError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Records = Vec<(ChunkId, u32, u32)>;

    fn encode_manifest(raw_len: u64, recs: &Records) -> Vec<u8> {
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

    fn arb_manifest() -> impl Strategy<Value = (u64, Records)> {
        (
            any::<u64>(),
            proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>())
                    .prop_map(|(lo, hi, seg, stored)| (ChunkId(lo, hi), seg, stored)),
                0..12,
            ),
        )
    }

    // The decoder contract for manifests, which a restore parses before it
    // reads any chunk: arbitrary bytes never panic, and a bit flip or a
    // truncation of a valid manifest never decodes to a different one.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn manifest_decoder_never_panics_on_arbitrary_bytes(
            junk in proptest::collection::vec(any::<u8>(), 0..400),
            header in any::<bool>(),
        ) {
            decode_manifest(&junk);
            // Past the checksum: the junk as a checksummed body, behind a
            // valid header when `header` is set, so the parser itself runs
            // over arbitrary counts and records.
            let mut w = ImageWriter::new();
            if header {
                w.u32(MANIFEST_MAGIC);
                w.u16(STORE_VERSION);
            }
            junk.iter().for_each(|&b| w.u8(b));
            decode_manifest(&w.finish());
        }

        #[test]
        fn damaged_manifests_are_rejected_or_the_original(
            manifest in arb_manifest(),
            at in any::<usize>(),
            bit in 0u8..8,
            keep in any::<usize>(),
        ) {
            let (raw_len, recs) = manifest;
            let bytes = encode_manifest(raw_len, &recs);
            let want = Some((raw_len, recs));
            prop_assert_eq!(&decode_manifest(&bytes), &want);
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= 1 << bit;
            let got = decode_manifest(&flipped);
            prop_assert!(got.is_none() || got == want, "a flip decoded to another manifest");
            let got = decode_manifest(&bytes[..keep % bytes.len()]);
            prop_assert!(got.is_none() || got == want, "a truncation decoded to another manifest");
        }
    }
}
