//! Checkpoint storage conventions over the network filesystem.
//!
//! Images live under `/ckpt/<job>/`; an epoch becomes *committed* — and
//! thus eligible for restart — only when the coordinator writes its commit
//! record after collecting every agent's `done` (the two-phase-commit
//! decision point). A crash mid-checkpoint therefore never leaves a
//! half-written epoch that restart could pick up.
//!
//! # Two image representations
//!
//! * **Plain** — one monolithic `<pod>.img` per pod per epoch (the seed
//!   layout, and what the paper's testbed wrote).
//! * **Deduplicated** — the serialized image is split into
//!   content-addressed chunks (see [`crate::chunk`]) stored once per job
//!   under `/ckpt/<job>/chunks/`, and the epoch holds only a small
//!   `<pod>.manifest` referencing them by hash. Unchanged pages re-hash to
//!   chunks that already exist, so a steady-state epoch writes only the
//!   pages that actually changed (plus the manifest) — the optimization
//!   that attacks the disk-write term dominating Fig. 5(a).
//!
//! Reads are representation-transparent: [`CheckpointStore::get_image`]
//! returns the full image bytes either way, so a restart from a dedup
//! epoch is byte-equivalent to a restart from a plain image. Manifests are
//! always *full-fidelity* (they describe the complete image): a restart
//! reads one epoch, never a chain of deltas.
//!
//! Chunks are garbage-collected by reference counting: every manifest
//! reference bumps the chunk's count in the job's `chunks/REFS` table, and
//! discarding an epoch releases its manifests' references, deleting chunks
//! that hit zero. Retiring old epochs therefore reclaims exactly the
//! chunks no retained epoch shares.

use std::collections::BTreeSet;
use std::sync::Arc;

use simos::fs::NetFs;
use zap::image::{ImageReader, ImageWriter, Sealed};

use crate::chunk::{self, ChunkId, CodecScratch};
use crate::parpool::Pool;

mod refs;

/// Magic number of a chunk manifest (`CRZM`).
pub const MANIFEST_MAGIC: u32 = 0x4352_5a4d;
/// Magic number of the chunk refcount table (`CRZR`).
pub const REFS_MAGIC: u32 = 0x4352_5a52;
/// Current manifest / refcount-table format version.
pub const STORE_VERSION: u16 = 1;

/// Knobs of the deduplicating store (threaded from `ClusterParams` for
/// ablation: plain vs. dedup vs. dedup+compress).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum chunk payload size. Page payloads get their own chunk
    /// boundaries regardless, so the default of one page keeps page-granular
    /// dedup exact.
    pub chunk_bytes: usize,
    /// Store images as content-addressed chunk manifests instead of
    /// monolithic files.
    pub dedup: bool,
    /// Apply the per-chunk RLE+LZ codec (only meaningful with `dedup`).
    pub compress: bool,
    /// Worker threads for the parallel capture/restore pipeline: `0`
    /// (default) resolves via `CRUZ_THREADS` / available parallelism, `1`
    /// is the serial reference path, higher values shard the pure
    /// hash/encode/decode kernels across that many workers. Produced bytes
    /// are identical at every setting (see [`crate::parpool`]), so this is
    /// a wall-clock knob only — never part of the digest-cache identity.
    pub threads: usize,
    /// Number of replica stores every logical write lands on (`1` = the
    /// unreplicated store, byte-identical to earlier versions). Values
    /// above one route writes through the [`crate::replog`] operation log
    /// so restores survive the loss of up to `replicas - 1` copies.
    pub replicas: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            chunk_bytes: 4096,
            dedup: false,
            compress: false,
            threads: 0,
            replicas: 1,
        }
    }
}

impl StoreConfig {
    /// Dedup without compression (the ablation midpoint).
    pub fn dedup() -> Self {
        StoreConfig {
            dedup: true,
            ..StoreConfig::default()
        }
    }

    /// Dedup with per-chunk compression (the full optimization).
    pub fn dedup_compress() -> Self {
        StoreConfig {
            dedup: true,
            compress: true,
            ..StoreConfig::default()
        }
    }
}

/// One chunk of a prepared (not yet applied) dedup write.
#[derive(Debug, Clone)]
pub struct PreparedChunk {
    /// Content address.
    pub id: ChunkId,
    /// Exclusive end offset of this chunk's raw bytes within the image.
    pub raw_end: u64,
    /// The encoded chunk container (what the chunk file will hold).
    /// Reference-counted so the page-digest cache can hand the same encoded
    /// bytes to consecutive epochs without re-encoding or copying; `Arc`
    /// (not `Rc`) so pool workers can produce segments on other threads.
    pub stored: Arc<[u8]>,
    /// True if the store lacked this chunk when the write was prepared —
    /// the bytes that actually hit the disk.
    pub novel: bool,
}

/// A dedup image write split into its cheap (hash/dedup, done at capture
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
            .filter(|c| c.novel)
            .map(|c| (c.raw_end, c.stored.len() as u64))
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
        self.chunks.iter().filter(|c| c.novel).count()
    }
}

/// A pod-image write prepared for a specific store representation.
#[derive(Debug, Clone)]
pub enum PreparedPut {
    /// Monolithic image bytes; applying the write folds them once for the
    /// digest sidecar (it is then exactly [`PreparedPut::Sealed`] of
    /// `Sealed::open(bytes)`).
    Plain(Vec<u8>),
    /// Monolithic image bytes sealed by their encoder, which computed the
    /// digest sidecar in the same pass as the image checksum.
    Sealed(Sealed),
    /// Chunked, deduplicated write.
    Chunked(PreparedChunked),
}

impl PreparedPut {
    /// Length of the serialized image this write represents.
    pub fn raw_len(&self) -> u64 {
        match self {
            PreparedPut::Plain(b) => b.len() as u64,
            PreparedPut::Sealed(s) => s.bytes().len() as u64,
            PreparedPut::Chunked(c) => c.raw_len(),
        }
    }

    /// Bytes this write sends to disk.
    pub fn new_bytes(&self) -> u64 {
        match self {
            PreparedPut::Chunked(c) => c.new_bytes(),
            plain => plain.raw_len(),
        }
    }
}

/// Why a verified read of a pod image served no bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The epoch holds no image of the pod: no image file, manifest or
    /// digest sidecar.
    Absent,
    /// An image of the pod is present but does not verify: its digest
    /// sidecar is missing or disagrees with the bytes, or its manifest or a
    /// chunk it references is missing or corrupt.
    Corrupt,
}

/// Path helpers, commit bookkeeping and the dedup chunk store for one
/// job's checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    fs: NetFs,
    job: String,
    /// Filesystem prefix all of this store's paths live under. Empty for
    /// the primary layout (`/ckpt/...`, byte-identical to earlier
    /// versions); replica stores use `/rep<i>` so k independent copies
    /// share one simulated filesystem without colliding.
    root: String,
    /// Worker count for the pure capture/restore kernels (`0` = auto; see
    /// [`StoreConfig::threads`]). Never changes produced bytes.
    threads: usize,
}

impl CheckpointStore {
    /// Creates a store view for `job` on the shared filesystem, with the
    /// worker count on auto.
    pub fn new(fs: NetFs, job: impl Into<String>) -> Self {
        CheckpointStore {
            fs,
            job: job.into(),
            root: String::new(),
            threads: 0,
        }
    }

    /// Sets the worker count for the parallel capture/restore kernels
    /// (`0` = auto, `1` = the serial reference path).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Roots every path of this store view under `root` (empty = the
    /// primary `/ckpt/...` layout). Replica stores of the replicated
    /// checkpoint store live at `/rep<i>`.
    pub fn with_root(mut self, root: impl Into<String>) -> Self {
        self.root = root.into();
        self
    }

    /// The job name.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The filesystem prefix this store view is rooted under.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The shared filesystem handle (for in-crate replication plumbing).
    pub(crate) fn fs(&self) -> &NetFs {
        &self.fs
    }

    /// The effective worker setting for a prepare under `cfg`: an explicit
    /// config wins, otherwise the store's own setting (both `0` = auto).
    pub(crate) fn threads_for(&self, cfg: &StoreConfig) -> usize {
        if cfg.threads != 0 {
            cfg.threads
        } else {
            self.threads
        }
    }

    /// Path of a pod's plain image for an epoch.
    pub fn image_path(&self, pod_name: &str, epoch: u64) -> String {
        format!(
            "{}/ckpt/{}/epoch{:08}/{}.img",
            self.root, self.job, epoch, pod_name
        )
    }

    /// Path of a pod's chunk manifest for an epoch.
    pub fn manifest_path(&self, pod_name: &str, epoch: u64) -> String {
        format!(
            "{}/ckpt/{}/epoch{:08}/{}.manifest",
            self.root, self.job, epoch, pod_name
        )
    }

    /// Path of a pod image's content-digest sidecar for an epoch: 16 bytes
    /// pinning the FNV digest of the full serialized image, verified on
    /// every read. Sidecar writes are free on the simulated disk (only
    /// image and chunk bytes are charged), so torn-write detection never
    /// perturbs pinned traces.
    pub fn digest_path(&self, pod_name: &str, epoch: u64) -> String {
        format!(
            "{}/ckpt/{}/epoch{:08}/{}.fnv",
            self.root, self.job, epoch, pod_name
        )
    }

    /// Path of a chunk file.
    pub fn chunk_path(&self, id: ChunkId) -> String {
        format!("{}/ckpt/{}/chunks/{}.c", self.root, self.job, id.hex())
    }

    /// Path of the chunk refcount table.
    fn refs_path(&self) -> String {
        format!("{}/ckpt/{}/chunks/REFS", self.root, self.job)
    }

    /// Path of the committed high-water-mark cache.
    fn latest_path(&self) -> String {
        format!("{}/ckpt/{}/LATEST", self.root, self.job)
    }

    /// Path of the commit record for an epoch.
    pub fn commit_path(&self, epoch: u64) -> String {
        format!("{}/ckpt/{}/epoch{:08}/COMMIT", self.root, self.job, epoch)
    }

    // ---- writes -------------------------------------------------------------

    /// Writes a pod image in the plain (monolithic) representation, plus
    /// its digest sidecar so reads can verify the body end-to-end.
    pub fn put_image(&self, pod_name: &str, epoch: u64, bytes: Vec<u8>) {
        self.put_sealed(pod_name, epoch, Sealed::open(bytes));
    }

    /// [`CheckpointStore::put_image`] for bytes whose content digest their
    /// encoder already computed: writes the sidecar from it, no fold.
    fn put_sealed(&self, pod_name: &str, epoch: u64, image: Sealed) {
        self.write_digest(pod_name, epoch, image.digest().into());
        self.fs
            .write_file(&self.image_path(pod_name, epoch), image.into_bytes());
    }

    /// Reads the digest sidecar of a pod image, if present and well-formed.
    pub fn read_digest(&self, pod_name: &str, epoch: u64) -> Option<ChunkId> {
        let bytes = self.fs.read_file(&self.digest_path(pod_name, epoch))?;
        let arr: [u8; 16] = bytes.try_into().ok()?;
        let lo = u64::from_le_bytes(arr[..8].try_into().ok()?);
        let hi = u64::from_le_bytes(arr[8..].try_into().ok()?);
        Some(ChunkId(lo, hi))
    }

    pub(crate) fn write_digest(&self, pod_name: &str, epoch: u64, d: ChunkId) {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&d.0.to_le_bytes());
        v.extend_from_slice(&d.1.to_le_bytes());
        self.fs.write_file(&self.digest_path(pod_name, epoch), v);
    }

    /// Splits a serialized image into content-addressed chunks and computes
    /// which of them the store already holds. Pure with respect to the
    /// store: nothing is written until [`CheckpointStore::put_prepared`].
    /// `cuts` are the page-payload regions of `raw` (see
    /// `PodImage::encode_with_page_cuts`), which pin chunk boundaries so
    /// unchanged pages dedup across epochs.
    pub fn prepare_chunked(
        &self,
        raw: &[u8],
        cuts: &[(usize, usize)],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        let ranges = chunk::split_ranges(raw.len(), cuts, cfg.chunk_bytes);
        let pool = Pool::new(self.threads_for(cfg));
        let mut seen = BTreeSet::new();
        let mut chunks = Vec::with_capacity(ranges.len());
        let mut mw = ImageWriter::new();
        mw.u32(MANIFEST_MAGIC);
        mw.u16(STORE_VERSION);
        mw.u64(raw.len() as u64);
        mw.u32(ranges.len() as u32);
        if pool.threads() == 1 {
            // The serial reference path, kept verbatim: per-range fold +
            // fresh-allocation encode on the calling thread. This is the
            // oracle every pooled prepare is property-tested against (and
            // the threads=1 baseline `bench_parallel` measures from).
            for (start, len) in ranges {
                let seg = &raw[start..start + len];
                let id = ChunkId::of(seg);
                let stored: Arc<[u8]> = chunk::encode_chunk(seg, cfg.compress).into();
                self.push_prepared(
                    &mut mw,
                    &mut seen,
                    &mut chunks,
                    id,
                    start + len,
                    len,
                    stored,
                );
            }
        } else {
            // Fan the pure hash/encode work out across the pool; the
            // ordered merge below does the filesystem-consulting novelty
            // and size accounting in range order, exactly like the serial
            // loop (the shared `NetFs` handle is single-threaded).
            let encoded = encode_ranges(raw, &ranges, cfg.compress, &pool);
            for (&(start, len), (id, stored)) in ranges.iter().zip(encoded) {
                self.push_prepared(
                    &mut mw,
                    &mut seen,
                    &mut chunks,
                    id,
                    start + len,
                    len,
                    stored,
                );
            }
        }
        PreparedChunked {
            raw_len: raw.len() as u64,
            manifest: mw.finish(),
            chunks,
            raw_digest: ChunkId::of(raw),
        }
    }

    /// Appends one chunk's manifest record and [`PreparedChunk`], with the
    /// live-filesystem novelty and size accounting both prepare paths
    /// share. Size accounting prefers the bytes already on disk: a chunk
    /// written earlier (possibly under another codec setting) is what a
    /// restore will actually read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_prepared(
        &self,
        mw: &mut ImageWriter,
        seen: &mut BTreeSet<ChunkId>,
        chunks: &mut Vec<PreparedChunk>,
        id: ChunkId,
        raw_end: usize,
        seg_len: usize,
        stored: Arc<[u8]>,
    ) {
        let path = self.chunk_path(id);
        let stored_len = self.fs.len_of(&path).unwrap_or(stored.len() as u64);
        mw.u64(id.0);
        mw.u64(id.1);
        mw.u32(seg_len as u32);
        mw.u32(stored_len as u32);
        let novel = seen.insert(id) && !self.fs.exists(&path);
        chunks.push(PreparedChunk {
            id,
            raw_end: raw_end as u64,
            stored,
            novel,
        });
    }

    /// Applies a prepared write: stores absent chunks, writes the manifest
    /// (or the plain image), and bumps chunk refcounts. Takes the prepared
    /// write by value so the plain arm moves its image bytes straight to the
    /// filesystem (no clone of the full image) and the chunked arm moves
    /// its manifest.
    pub fn put_prepared(&self, pod_name: &str, epoch: u64, put: PreparedPut) {
        match put {
            PreparedPut::Plain(bytes) => self.put_image(pod_name, epoch, bytes),
            PreparedPut::Sealed(image) => self.put_sealed(pod_name, epoch, image),
            PreparedPut::Chunked(c) => {
                for ch in &c.chunks {
                    let path = self.chunk_path(ch.id);
                    if !self.fs.exists(&path) {
                        self.fs.write_file(&path, ch.stored.to_vec());
                    }
                }
                let mpath = self.manifest_path(pod_name, epoch);
                // Idempotence under replay: re-applying a put whose
                // identical manifest already landed (an operation-log
                // replay after a replica crash) must not double-count the
                // chunk references it already took.
                let fresh = self.fs.read_file(&mpath).as_deref() != Some(&c.manifest[..]);
                self.write_digest(pod_name, epoch, c.raw_digest);
                self.fs.write_file(&mpath, c.manifest);
                if fresh {
                    let mut refs = self.read_refs();
                    for ch in &c.chunks {
                        *refs.entry(ch.id).or_insert(0) += 1;
                    }
                    self.write_refs(&refs);
                }
            }
        }
    }

    /// Applies only a torn prefix of a prepared write, modeling a disk
    /// write that failed partway: the first `frac/256` of the image's
    /// bytes reach disk, the manifest (or the plain image's tail) never
    /// does, and no chunk references are taken. A torn chunked write
    /// therefore strands orphan chunk files — exactly what
    /// [`CheckpointStore::orphan_chunks`] audits and
    /// [`CheckpointStore::gc_orphan_chunks`] reclaims. The epoch can never
    /// be committed through this path: no durability is ever reported for
    /// a torn write.
    pub fn put_torn(&self, pod_name: &str, epoch: u64, put: &PreparedPut, frac: u8) {
        let plain = match put {
            PreparedPut::Plain(bytes) => bytes.as_slice(),
            PreparedPut::Sealed(image) => image.bytes(),
            PreparedPut::Chunked(c) => {
                let cutoff = c.raw_len * frac as u64 / 256;
                for ch in &c.chunks {
                    if !ch.novel || ch.raw_end > cutoff {
                        continue;
                    }
                    let path = self.chunk_path(ch.id);
                    if !self.fs.exists(&path) {
                        self.fs.write_file(&path, ch.stored.to_vec());
                    }
                }
                return;
            }
        };
        let keep = (plain.len() as u64 * frac as u64 / 256) as usize;
        if keep > 0 {
            self.fs
                .write_file(&self.image_path(pod_name, epoch), plain[..keep].to_vec());
        }
    }

    // ---- reads --------------------------------------------------------------

    /// Reads a pod image, reassembling it from chunks when the epoch holds
    /// a manifest. The returned bytes are identical to what `put` received,
    /// whichever representation stored them. Returns `None` if the image
    /// (or any chunk it references) is missing, structurally corrupt, or
    /// fails its digest sidecar — a torn prefix that still happens to
    /// decode is rejected here, not left for the caller to trip over.
    pub fn get_image(&self, pod_name: &str, epoch: u64) -> Option<Vec<u8>> {
        self.read_sealed(pod_name, epoch)
            .ok()
            .map(Sealed::into_bytes)
    }

    /// The restore-side read: the image bytes (reassembled from chunks
    /// when the epoch holds a manifest), sealed by one hash pass that both
    /// checks them against the digest sidecar and settles their trailing
    /// checksum, so [`Sealed::decode`] parses them without folding again.
    /// Serves exactly the bytes [`CheckpointStore::get_image`] does.
    ///
    /// # Errors
    ///
    /// [`ReadError::Absent`] when the epoch holds nothing for the pod;
    /// [`ReadError::Corrupt`] when what it holds does not verify.
    pub fn read_sealed(&self, pod_name: &str, epoch: u64) -> Result<Sealed, ReadError> {
        let want = self.read_digest(pod_name, epoch);
        let bytes = match self.fs.read_file(&self.image_path(pod_name, epoch)) {
            Some(bytes) => bytes,
            None => match self.fs.read_file(&self.manifest_path(pod_name, epoch)) {
                // Without a sidecar there is nothing to verify against, so
                // the chunks are not worth reading.
                Some(manifest) if want.is_some() => {
                    self.reconstruct(&manifest).ok_or(ReadError::Corrupt)?
                }
                Some(_) => return Err(ReadError::Corrupt),
                None if self.fs.exists(&self.digest_path(pod_name, epoch)) => {
                    return Err(ReadError::Corrupt)
                }
                None => return Err(ReadError::Absent),
            },
        };
        let want = want.ok_or(ReadError::Corrupt)?;
        let image = Sealed::open(bytes);
        if ChunkId::from(image.digest()) == want {
            Ok(image)
        } else {
            Err(ReadError::Corrupt)
        }
    }

    /// Logical size of a pod image in bytes (the size of the serialized
    /// image, not of its on-disk representation), if present.
    pub fn image_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        if let Some(len) = self.fs.len_of(&self.image_path(pod_name, epoch)) {
            return Some(len);
        }
        let manifest = self.fs.read_file(&self.manifest_path(pod_name, epoch))?;
        decode_manifest(&manifest).map(|(raw_len, _)| raw_len)
    }

    /// Physical bytes a restart must read for a pod image: the plain file,
    /// or the manifest plus every distinct chunk it references.
    pub fn stored_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        if let Some(len) = self.fs.len_of(&self.image_path(pod_name, epoch)) {
            return Some(len);
        }
        let manifest = self.fs.read_file(&self.manifest_path(pod_name, epoch))?;
        let (_, recs) = decode_manifest(&manifest)?;
        let mut seen = BTreeSet::new();
        let mut total = manifest.len() as u64;
        for (id, _, stored_len) in recs {
            if seen.insert(id) {
                total += stored_len as u64;
            }
        }
        Some(total)
    }

    fn reconstruct(&self, manifest: &[u8]) -> Option<Vec<u8>> {
        let (raw_len, recs) = decode_manifest(manifest)?;
        // Chunk files are read on the calling thread (the `NetFs` handle is
        // single-threaded); the pure decompression fans out across the
        // pool and reassembles in manifest order. Each decoded chunk must
        // re-hash to the content address the manifest named it by — a chunk
        // file whose torn tail still decodes cannot masquerade as the
        // original — and the caller checks the assembled image against the
        // digest sidecar, which closes the same hole for torn manifests.
        let mut stored = Vec::with_capacity(recs.len());
        for (id, seg_len, _) in recs {
            stored.push((self.fs.read_file(&self.chunk_path(id))?, id, seg_len));
        }
        let pool = Pool::new(self.threads);
        let decoded = pool.map_ordered(
            stored,
            || (),
            |_, (bytes, id, seg_len): (Vec<u8>, ChunkId, u32)| {
                chunk::decode_chunk(&bytes)
                    .ok()
                    .filter(|raw| raw.len() == seg_len as usize && ChunkId::of(raw) == id)
            },
        );
        let mut out = Vec::with_capacity(raw_len as usize);
        for raw in decoded {
            out.extend_from_slice(&raw?);
        }
        (out.len() as u64 == raw_len).then_some(out)
    }

    // ---- commit bookkeeping -------------------------------------------------

    /// Writes the commit record, marking `epoch` globally consistent, and
    /// advances the cached high-water mark.
    pub fn commit(&self, epoch: u64) {
        self.fs
            .write_file(&self.commit_path(epoch), epoch.to_le_bytes().to_vec());
        if self.read_latest_file().is_none_or(|cur| epoch > cur) {
            self.fs
                .write_file(&self.latest_path(), epoch.to_le_bytes().to_vec());
        }
    }

    /// True if `epoch` has a commit record.
    pub fn is_committed(&self, epoch: u64) -> bool {
        self.fs.exists(&self.commit_path(epoch))
    }

    fn read_latest_file(&self) -> Option<u64> {
        let bytes = self.fs.read_file(&self.latest_path())?;
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// The newest committed epoch, if any — what restart rolls back to.
    /// Served from the high-water-mark cache maintained by
    /// [`CheckpointStore::commit`] and invalidated by epoch discard; the
    /// full directory scan runs only when the cache is absent.
    pub fn latest_committed_epoch(&self) -> Option<u64> {
        self.read_latest_file().or_else(|| self.scan_latest())
    }

    fn scan_latest(&self) -> Option<u64> {
        self.committed_epochs().into_iter().max()
    }

    /// Every epoch with any file on disk (committed or not), ascending.
    pub fn all_epochs(&self) -> Vec<u64> {
        let prefix = format!("{}/ckpt/{}/", self.root, self.job);
        let mut v: Vec<u64> = self
            .fs
            .list(&prefix)
            .into_iter()
            .filter_map(|p| {
                let rest = p.strip_prefix(&prefix)?;
                let (dir, _) = rest.split_once('/')?;
                dir.strip_prefix("epoch")?.parse::<u64>().ok()
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Epochs with files on disk but no commit record — the half-written
    /// leftovers of crashed or aborted operations, which recovery must
    /// discard before restarting.
    pub fn uncommitted_epochs(&self) -> Vec<u64> {
        self.all_epochs()
            .into_iter()
            .filter(|&e| !self.is_committed(e))
            .collect()
    }

    /// All committed epochs, ascending.
    pub fn committed_epochs(&self) -> Vec<u64> {
        let prefix = format!("{}/ckpt/{}/", self.root, self.job);
        let mut v: Vec<u64> = self
            .fs
            .list(&prefix)
            .into_iter()
            .filter_map(|p| {
                let rest = p.strip_prefix(&prefix)?;
                let (dir, file) = rest.split_once('/')?;
                if file != "COMMIT" {
                    return None;
                }
                dir.strip_prefix("epoch")?.parse::<u64>().ok()
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Discards every epoch older than `keep` (garbage collection once a
    /// newer consistent checkpoint is committed). Chunks left unreferenced
    /// by the retained epochs are reclaimed.
    pub fn prune_below(&self, keep: u64) {
        for e in self.committed_epochs() {
            if e < keep {
                self.discard_epoch(e);
            }
        }
    }

    /// Removes every file of an epoch (the abort rollback), releasing its
    /// manifests' chunk references and deleting chunks that drop to zero.
    pub fn discard_epoch(&self, epoch: u64) {
        let was_committed = self.is_committed(epoch);
        let prefix = format!("{}/ckpt/{}/epoch{:08}/", self.root, self.job, epoch);
        // Remove the epoch's files *before* releasing their references:
        // a replayed discard then finds no manifests and is a no-op,
        // instead of double-decrementing refcounts. A crash between the
        // two halves leaks references (reclaimed by scrub), which is safe;
        // the reverse order could delete chunks live epochs still need.
        let mut manifests = Vec::new();
        for path in self.fs.list(&prefix) {
            if path.ends_with(".manifest") {
                if let Some(manifest) = self.fs.read_file(&path) {
                    manifests.push(manifest);
                }
            }
            self.fs.remove(&path);
        }
        for manifest in &manifests {
            self.release_manifest(manifest);
        }
        if was_committed && self.read_latest_file() == Some(epoch) {
            // The cached high-water mark pointed at the discarded epoch:
            // recompute it from the surviving commit records.
            match self.scan_latest() {
                Some(m) => self
                    .fs
                    .write_file(&self.latest_path(), m.to_le_bytes().to_vec()),
                None => {
                    self.fs.remove(&self.latest_path());
                }
            }
        }
    }

    /// Pod names with images (plain or chunked) in an epoch.
    pub fn pods_in_epoch(&self, epoch: u64) -> Vec<String> {
        let prefix = format!("{}/ckpt/{}/epoch{:08}/", self.root, self.job, epoch);
        self.fs
            .list(&prefix)
            .into_iter()
            .filter_map(|p| {
                let f = p.strip_prefix(&prefix)?;
                f.strip_suffix(".img")
                    .or_else(|| f.strip_suffix(".manifest"))
                    .map(str::to_owned)
            })
            .collect()
    }
}

/// Hashes and encodes image ranges through the worker pool, in input
/// order: per-range `(ChunkId, stored container)` via the zero-page fast
/// path and a per-worker [`CodecScratch`]. Byte-identical to the serial
/// reference (`ChunkId::of` + fresh-allocation `encode_chunk`) — the
/// zero-page and scratch-codec equivalences are pinned by chunk-level unit
/// tests, the ordered merge by the `parallel_properties` twin-path
/// proptests. Shared by [`CheckpointStore::prepare_chunked`] and the
/// hinted prepare in [`crate::pagecache`].
pub(crate) fn encode_ranges(
    raw: &[u8],
    ranges: &[(usize, usize)],
    compress: bool,
    pool: &Pool,
) -> Vec<(ChunkId, Arc<[u8]>)> {
    pool.map_ordered(
        ranges.to_vec(),
        CodecScratch::new,
        |scratch, (start, len)| {
            let seg = &raw[start..start + len];
            if chunk::is_zero_page(seg) {
                (chunk::zero_page_id(), chunk::zero_page_stored(compress))
            } else {
                (
                    ChunkId::of(seg),
                    chunk::encode_chunk_with(seg, compress, scratch).into(),
                )
            }
        },
    )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_with_a_huge_count_is_rejected_without_reserving_it() {
        let mut w = ImageWriter::new();
        w.u32(MANIFEST_MAGIC);
        w.u16(STORE_VERSION);
        w.u64(0);
        w.u32(u32::MAX);
        assert_eq!(decode_manifest(&w.finish()), None);
    }

    #[test]
    fn latest_cache_tracks_discard() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        for e in [1u64, 2, 3] {
            s.put_image("p", e, vec![e as u8]);
            s.commit(e);
        }
        assert_eq!(s.latest_committed_epoch(), Some(3));
        // Discarding the newest epoch must roll the cached mark back.
        s.discard_epoch(3);
        assert_eq!(s.latest_committed_epoch(), Some(2));
        // Discarding an older epoch leaves the mark alone.
        s.discard_epoch(1);
        assert_eq!(s.latest_committed_epoch(), Some(2));
        s.discard_epoch(2);
        assert_eq!(s.latest_committed_epoch(), None);
    }

    #[test]
    fn discard_rolls_back_an_epoch() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        s.put_image("a", 2, vec![1]);
        s.put_image("b", 2, vec![2]);
        s.commit(2);
        s.discard_epoch(2);
        assert!(!s.is_committed(2));
        assert_eq!(s.get_image("a", 2), None);
        assert_eq!(s.latest_committed_epoch(), None);
    }

    #[test]
    fn prune_keeps_only_recent_epochs() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        for e in [1u64, 2, 3] {
            s.put_image("p", e, vec![e as u8]);
            s.commit(e);
        }
        assert_eq!(s.committed_epochs(), vec![1, 2, 3]);
        s.prune_below(3);
        assert_eq!(s.committed_epochs(), vec![3]);
        assert_eq!(s.get_image("p", 3), Some(vec![3]));
        assert_eq!(s.get_image("p", 1), None);
    }

    // ---- dedup store --------------------------------------------------------

    /// A toy "image": `reps` distinct page-sized blocks of periodic
    /// (compressible) content, with block `hot` overwritten by `fill`.
    fn toy_image(reps: usize, hot: usize, fill: u8) -> (Vec<u8>, Vec<(usize, usize)>) {
        let block = 256usize;
        let mut raw = Vec::with_capacity(reps * block);
        let mut cuts = Vec::new();
        for b in 0..reps {
            cuts.push((raw.len(), block));
            if b == hot {
                raw.extend(std::iter::repeat(fill).take(block));
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

    #[test]
    fn chunked_round_trip_is_byte_identical() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(32, 3, 0xaa);
        let put = s.prepare_chunked(&raw, &cuts, &cfg());
        s.put_prepared("p", 1, PreparedPut::Chunked(put));
        s.commit(1);
        assert_eq!(s.get_image("p", 1), Some(raw.clone()));
        assert_eq!(s.image_len("p", 1), Some(raw.len() as u64));
        assert!(
            s.stored_len("p", 1).unwrap() < raw.len() as u64,
            "compression + in-image dedup shrink the stored form"
        );
        assert_eq!(s.pods_in_epoch(1), vec!["p".to_string()]);
    }

    #[test]
    fn second_epoch_writes_only_changed_chunks() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw1, cuts1) = toy_image(32, 3, 0xaa);
        let put1 = s.prepare_chunked(&raw1, &cuts1, &cfg());
        let first_bytes = put1.new_bytes();
        s.put_prepared("p", 1, PreparedPut::Chunked(put1));
        s.commit(1);
        // Epoch 2: one block changed.
        let (raw2, cuts2) = toy_image(32, 3, 0xbb);
        let put2 = s.prepare_chunked(&raw2, &cuts2, &cfg());
        assert_eq!(put2.novel_count(), 1, "only the hot block is novel");
        // The steady-state write is far below the plain store's full image
        // and below even the first (all-novel) dedup epoch.
        assert!(put2.new_bytes() * 5 < raw2.len() as u64);
        assert!(put2.new_bytes() < first_bytes);
        s.put_prepared("p", 2, PreparedPut::Chunked(put2));
        s.commit(2);
        assert_eq!(s.get_image("p", 2), Some(raw2));
        assert_eq!(s.get_image("p", 1), Some(raw1), "old epoch still intact");
    }

    #[test]
    fn gc_reclaims_exactly_unshared_chunks() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw1, cuts1) = toy_image(16, 2, 0xaa);
        let (raw2, cuts2) = toy_image(16, 2, 0xbb);
        let put1 = PreparedPut::Chunked(s.prepare_chunked(&raw1, &cuts1, &cfg()));
        s.put_prepared("p", 1, put1);
        s.commit(1);
        let put2 = PreparedPut::Chunked(s.prepare_chunked(&raw2, &cuts2, &cfg()));
        s.put_prepared("p", 2, put2);
        s.commit(2);
        // Both epochs alive: the chunk set is the union of their manifests.
        let want: BTreeSet<ChunkId> = s
            .chunks_referenced_by(1)
            .union(&s.chunks_referenced_by(2))
            .copied()
            .collect();
        let live: BTreeSet<ChunkId> = s.live_chunks().into_iter().collect();
        assert_eq!(live, want);
        // Retire epoch 1: only epoch 2's chunks survive (shared ones stay).
        s.prune_below(2);
        let live: BTreeSet<ChunkId> = s.live_chunks().into_iter().collect();
        assert_eq!(live, s.chunks_referenced_by(2));
        assert_eq!(s.get_image("p", 2), Some(raw2), "survivor reconstructs");
        // Retire everything: the chunk store empties completely.
        s.discard_epoch(2);
        assert!(s.live_chunks().is_empty());
        assert!(!s.fs.exists(&s.refs_path()), "refcount table reclaimed");
        assert!(
            s.orphan_chunks().is_empty(),
            "refcount GC never strands a chunk"
        );
    }

    #[test]
    fn orphan_audit_finds_and_reclaims_strays() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0xaa);
        let put = PreparedPut::Chunked(s.prepare_chunked(&raw, &cuts, &cfg()));
        s.put_prepared("p", 1, put);
        s.commit(1);
        assert!(s.orphan_chunks().is_empty(), "healthy store has no orphans");
        // Simulate a crash that persisted chunks but lost the manifest.
        s.fs.remove(&s.manifest_path("p", 1));
        let orphans = s.orphan_chunks();
        assert!(!orphans.is_empty(), "manifest loss strands its chunks");
        assert_eq!(s.gc_orphan_chunks(), orphans.len());
        assert!(s.live_chunks().is_empty());
        assert!(s.orphan_chunks().is_empty());
        assert!(
            !s.fs.exists(&s.refs_path()),
            "dangling REFS entries scrubbed"
        );
    }

    #[test]
    fn torn_writes_strand_only_a_prefix_and_never_commit() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0x5a);
        let full = s.prepare_chunked(&raw, &cuts, &cfg());
        let novel = full.novel_count();
        // Half the image reaches disk; the manifest never does.
        s.put_torn("p", 1, &PreparedPut::Chunked(full), 128);
        let stranded = s.live_chunks().len();
        assert!(stranded > 0, "a torn write leaves a chunk prefix");
        assert!(stranded < novel, "but not the whole image");
        assert_eq!(s.orphan_chunks().len(), stranded, "all of it is orphaned");
        assert_eq!(s.get_image("p", 1), None, "no manifest, no image");
        assert!(!s.is_committed(1));
        assert_eq!(s.gc_orphan_chunks(), stranded);
        assert!(s.live_chunks().is_empty());
        // Torn plain writes truncate: frac 0 writes nothing at all.
        s.put_torn("p", 2, &PreparedPut::Plain(vec![9; 100]), 64);
        assert_eq!(s.fs.len_of(&s.image_path("p", 2)), Some(25));
        s.put_torn("p", 3, &PreparedPut::Plain(vec![9; 100]), 0);
        assert!(!s.fs.exists(&s.image_path("p", 3)));
    }

    #[test]
    fn uncommitted_epochs_surface_half_written_state() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        s.put_image("p", 1, vec![1]);
        s.commit(1);
        s.put_image("p", 2, vec![2]); // no commit record: crashed mid-write
        assert_eq!(s.all_epochs(), vec![1, 2]);
        assert_eq!(s.uncommitted_epochs(), vec![2]);
        s.discard_epoch(2);
        assert!(s.uncommitted_epochs().is_empty());
        assert_eq!(s.latest_committed_epoch(), Some(1));
    }

    #[test]
    fn repeated_chunks_within_one_image_refcount_correctly() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        // Four identical blocks → one chunk, referenced four times.
        let raw = vec![7u8; 1024];
        let put = s.prepare_chunked(&raw, &[], &cfg());
        assert_eq!(put.chunk_count(), 4);
        assert_eq!(put.novel_count(), 1);
        s.put_prepared("p", 1, PreparedPut::Chunked(put));
        assert_eq!(s.live_chunks().len(), 1);
        s.discard_epoch(1);
        assert!(s.live_chunks().is_empty(), "all four references released");
    }

    #[test]
    fn missing_chunk_fails_closed() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0xaa);
        s.put_prepared(
            "p",
            1,
            PreparedPut::Chunked(s.prepare_chunked(&raw, &cuts, &cfg())),
        );
        let victim = s.live_chunks()[0];
        s.fs.remove(&s.chunk_path(victim));
        assert_eq!(s.get_image("p", 1), None, "a torn image is not served");
    }
}
