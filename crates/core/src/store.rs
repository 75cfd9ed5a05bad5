//! Checkpoint storage conventions over the network filesystem.
//!
//! Images live under `/ckpt/<job>/`; an epoch becomes *committed* — and
//! thus eligible for restart — only when the coordinator writes its commit
//! record after collecting every agent's `done` (the two-phase-commit
//! decision point). A crash mid-checkpoint therefore never leaves a
//! half-written epoch that restart could pick up.
//!
//! # One image layout
//!
//! Every serialized pod image is split into content-addressed chunks (see
//! [`crate::chunk`]) stored once per job under `/ckpt/<job>/chunks/`, and
//! the epoch holds a small `<pod>.manifest` naming them by hash plus the
//! `<pod>.fnv` digest sidecar. [`StoreConfig`] only chooses the split:
//!
//! * **Plain** (`dedup: false`, the default) — one whole-image chunk per
//!   pod, named by the image's own digest: the monolithic write the
//!   paper's testbed made, plus a manifest of one record.
//! * **Deduplicated** (`dedup: true`) — chunks pinned to page boundaries,
//!   so unchanged pages re-hash to chunks that already exist and a
//!   steady-state epoch writes only the pages that changed (plus the
//!   manifest) — the optimization that attacks the disk-write term
//!   dominating Fig. 5(a).
//!
//! [`CheckpointStore::get_image`] reassembles the full image bytes either
//! way, so a restart is byte-equivalent under every configuration.
//! Manifests are always *full-fidelity* (they describe the complete
//! image): a restart reads one epoch, never a chain of deltas.
//!
//! The manifests are the one record of chunk liveness: a put takes no
//! reference, and a chunk is live while some manifest names it.
//! Discarding an epoch removes its files, then deletes each chunk its
//! manifests named that no surviving manifest names. Retiring old epochs
//! therefore reclaims exactly the chunks no retained epoch shares.

use simos::fs::NetFs;
use zap::image::Sealed;

use crate::chunk::{self, ChunkId};

mod chunked;
mod gc;

pub(crate) use chunked::{decode_manifest, PlannedPut};
pub use chunked::{MissingChunk, PreparedChunk, PreparedChunked};

/// Magic number of a chunk manifest (`CRZM`).
pub const MANIFEST_MAGIC: u32 = 0x4352_5a4d;
/// Current manifest format version.
pub const STORE_VERSION: u16 = 1;

/// Knobs of the deduplicating store (threaded from `ClusterParams` for
/// ablation: plain vs. dedup vs. dedup+compress).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum chunk payload size under `dedup`. Page payloads get their
    /// own chunk boundaries regardless, so the default of one page keeps
    /// page-granular dedup exact.
    pub chunk_bytes: usize,
    /// Split images into page-aligned chunks so unchanged pages are stored
    /// once; `false` stores each image as one whole-image chunk.
    pub dedup: bool,
    /// Apply the RLE+LZ codec to every chunk container.
    pub compress: bool,
    /// Worker threads for the checkpoint hot paths: `0` (default) takes
    /// the host's available parallelism, `1` is the serial reference path.
    /// From two up, capture folds its seal on a worker while the calling
    /// thread looks chunks up and encodes the novel ones, restore decodes
    /// chunks on a worker while the calling thread verifies and appends
    /// them ([`crate::parpool::Pool::pipeline`]), and the reference
    /// prepares shard their hash/encode kernels across that many workers.
    /// Produced bytes are identical at every setting (see
    /// [`crate::parpool`]), so this is a wall-clock knob only — never part
    /// of the digest-cache identity.
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
    /// The chunk ranges of a `len`-byte image whose page payloads sit at
    /// `cuts`: page-aligned [`chunk::split_ranges`] under `dedup`, else
    /// the one range covering the whole image. A manifest record holds a
    /// range's length as a `u32`, so a whole-image chunk must stay under
    /// 4 GiB; a longer one would not reassemble and its restore would fail
    /// as corrupt.
    pub fn ranges(&self, len: usize, cuts: &[(usize, usize)]) -> Vec<(usize, usize)> {
        if self.dedup {
            chunk::split_ranges(len, cuts, self.chunk_bytes)
        } else {
            vec![(0, len)]
        }
    }

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

/// A pod-image write for [`CheckpointStore::put_prepared`].
#[derive(Debug, Clone)]
pub enum PreparedPut {
    /// Unsealed image bytes: the put folds them once for their digest and
    /// stores them as one whole-image chunk, the [`StoreConfig::default`]
    /// layout.
    Plain(Vec<u8>),
    /// A prepared chunk write.
    Chunked(PreparedChunked),
}

/// Why a verified read of a pod image served no bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The epoch holds no image of the pod: no manifest or digest sidecar.
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
    /// Worker count for capture and restore (`0` = auto; see
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

    /// Sets the worker count for capture and restore
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

    /// The effective worker setting for a prepare under `cfg`: an explicit
    /// config wins, otherwise the store's own setting (both `0` = auto).
    pub(crate) fn threads_for(&self, cfg: &StoreConfig) -> usize {
        if cfg.threads != 0 {
            cfg.threads
        } else {
            self.threads
        }
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
    /// chunk and manifest bytes are charged), so torn-write detection never
    /// perturbs pinned traces.
    pub fn digest_path(&self, pod_name: &str, epoch: u64) -> String {
        format!(
            "{}/ckpt/{}/epoch{:08}/{}.fnv",
            self.root, self.job, epoch, pod_name
        )
    }

    /// Path of a chunk file.
    pub fn chunk_path(&self, id: ChunkId) -> String {
        chunked::chunk_file(&[&self.root, "/ckpt/", &self.job, "/chunks"], id)
    }

    /// Directory of the chunk files.
    fn chunk_dir(&self) -> String {
        format!("{}/ckpt/{}/chunks", self.root, self.job)
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

    /// Applies a prepared write: plans it (the put planner every put runs),
    /// then stores the chunks it carries and the store lacks, the digest
    /// sidecar and the manifest. Takes the prepared write by value so its
    /// chunk containers and manifest move straight to the filesystem.
    ///
    /// # Errors
    ///
    /// [`MissingChunk`] when the write names a chunk that was on disk at
    /// prepare time and has been deleted since; nothing is written then.
    pub fn put_prepared(
        &self,
        pod_name: &str,
        epoch: u64,
        put: PreparedPut,
    ) -> Result<(), MissingChunk> {
        let plan = self.plan_put(put)?;
        self.apply_put(pod_name, epoch, plan, None);
        Ok(())
    }

    /// Applies only a torn prefix of a prepared write, modeling a disk
    /// write that failed partway: the chunks within the first `frac/256`
    /// of the image's bytes reach disk and the manifest never does. A torn
    /// write therefore strands orphan chunk files — exactly what
    /// [`CheckpointStore::orphan_chunks`] audits and
    /// [`CheckpointStore::gc_orphan_chunks`] reclaims — and a
    /// whole-image chunk, which ends at the image's last byte, never lands.
    /// The epoch can never be committed through this path: no durability
    /// is ever reported for a torn write.
    pub fn put_torn(&self, put: &PreparedChunked, frac: u8) {
        let cutoff = put.raw_len * frac as u64 / 256;
        for ch in &put.chunks {
            let Some(stored) = ch.stored.as_ref().filter(|_| ch.raw_end <= cutoff) else {
                continue;
            };
            let path = self.chunk_path(ch.id);
            if !self.fs.exists(&path) {
                self.fs.write_file(&path, stored.clone());
            }
        }
    }

    // ---- reads --------------------------------------------------------------

    /// Reads a pod image, reassembled from its chunks. The returned bytes
    /// are identical to what `put` received, whichever configuration
    /// stored them. Returns `None` if the manifest (or any chunk it
    /// references) is missing, structurally corrupt, or fails its digest
    /// sidecar — a torn chunk that still happens to decode is rejected
    /// here, not left for the caller to trip over.
    pub fn get_image(&self, pod_name: &str, epoch: u64) -> Option<Vec<u8>> {
        self.read_sealed(pod_name, epoch)
            .ok()
            .map(Sealed::into_bytes)
    }

    /// The restore-side read: the image bytes reassembled from their
    /// chunks in one hash pass that checks every chunk address, the digest
    /// sidecar and the trailing checksum, so [`Sealed::decode`] parses them
    /// without folding again. Serves exactly the bytes
    /// [`CheckpointStore::get_image`] does.
    ///
    /// # Errors
    ///
    /// [`ReadError::Absent`] when the epoch holds nothing for the pod;
    /// [`ReadError::Corrupt`] when what it holds does not verify.
    pub fn read_sealed(&self, pod_name: &str, epoch: u64) -> Result<Sealed, ReadError> {
        self.read(pod_name, epoch, |_| Vec::new())
            .map(|(image, _)| image)
    }

    /// The restore read: [`CheckpointStore::read_sealed`], assembled into
    /// a buffer the filesystem lends ([`NetFs::lend`]), together with the
    /// physical bytes the read served: the manifest plus every distinct
    /// chunk it references, counted from the one manifest read that drove
    /// it. A caller done with the image gives its bytes back
    /// ([`NetFs::give_back`]).
    ///
    /// # Errors
    ///
    /// As [`CheckpointStore::read_sealed`].
    pub fn read_stored(&self, pod_name: &str, epoch: u64) -> Result<(Sealed, u64), ReadError> {
        self.read(pod_name, epoch, |len| self.fs.lend(len))
    }

    /// The verified read both public reads run, assembling into the buffer
    /// `buf` returns for the image's declared length.
    fn read(
        &self,
        pod_name: &str,
        epoch: u64,
        buf: impl FnOnce(usize) -> Vec<u8>,
    ) -> Result<(Sealed, u64), ReadError> {
        let want = self.read_digest(pod_name, epoch);
        let Some(manifest) = self.fs.read_file(&self.manifest_path(pod_name, epoch)) else {
            return Err(if self.fs.exists(&self.digest_path(pod_name, epoch)) {
                ReadError::Corrupt
            } else {
                ReadError::Absent
            });
        };
        // Without a sidecar there is nothing to verify against, so the
        // chunks are not worth reading.
        let want = want.ok_or(ReadError::Corrupt)?;
        let (image, stored) = self.reconstruct(&manifest, buf).ok_or(ReadError::Corrupt)?;
        if ChunkId::from(image.digest()) == want {
            Ok((image, stored))
        } else {
            Err(ReadError::Corrupt)
        }
    }

    /// Logical size of a pod image in bytes (the size of the serialized
    /// image, not of its on-disk representation), if present.
    pub fn image_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        let manifest = self.fs.read_file(&self.manifest_path(pod_name, epoch))?;
        decode_manifest(&manifest).map(|(raw_len, _)| raw_len)
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

    /// Removes every file of an epoch (the abort rollback), then deletes
    /// each chunk its manifests named that no surviving manifest names.
    pub fn discard_epoch(&self, epoch: u64) {
        let was_committed = self.is_committed(epoch);
        let prefix = format!("{}/ckpt/{}/epoch{:08}/", self.root, self.job, epoch);
        // Remove the epoch's files *before* its chunks: a replayed discard
        // then finds no manifest and is a no-op, and a crash between the
        // two halves only strands orphans for `gc_orphan_chunks`; the
        // reverse order could delete chunks a surviving manifest names.
        let released = self.chunks_referenced_by(epoch);
        for path in self.fs.list(&prefix) {
            self.fs.remove(&path);
        }
        self.release_chunks(&released);
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

    /// Pod names with images in an epoch.
    pub fn pods_in_epoch(&self, epoch: u64) -> Vec<String> {
        let prefix = format!("{}/ckpt/{}/epoch{:08}/", self.root, self.job, epoch);
        self.fs
            .list(&prefix)
            .into_iter()
            .filter_map(|p| {
                let f = p.strip_prefix(&prefix)?;
                f.strip_suffix(".manifest").map(str::to_owned)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use zap::image::ImageWriter;

    fn put_plain(s: &CheckpointStore, pod: &str, epoch: u64, bytes: Vec<u8>) {
        s.put_prepared(pod, epoch, PreparedPut::Plain(bytes))
            .unwrap();
    }

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
    fn chunk_paths_are_the_chunk_dir_and_the_hex_id() {
        let id = ChunkId(0x0123_4567_89ab_cdef, 7);
        for s in [
            CheckpointStore::new(NetFs::new(), "j"),
            CheckpointStore::new(NetFs::new(), "slm").with_root("/rep2"),
        ] {
            let expect = format!("{}/{:016x}{:016x}.c", s.chunk_dir(), id.0, id.1);
            assert_eq!(s.chunk_path(id), expect);
        }
    }

    #[test]
    fn latest_cache_tracks_discard() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        for e in [1u64, 2, 3] {
            put_plain(&s, "p", e, vec![e as u8]);
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
        put_plain(&s, "a", 2, vec![1]);
        put_plain(&s, "b", 2, vec![2]);
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
            put_plain(&s, "p", e, vec![e as u8]);
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

    #[test]
    fn chunked_round_trip_is_byte_identical() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(32, 3, 0xaa);
        let put = s.prepare_chunked(&raw, &cuts, &cfg());
        s.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        s.commit(1);
        assert_eq!(s.get_image("p", 1), Some(raw.clone()));
        assert_eq!(s.image_len("p", 1), Some(raw.len() as u64));
        assert!(
            s.read_stored("p", 1).unwrap().1 < raw.len() as u64,
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
        s.put_prepared("p", 1, PreparedPut::Chunked(put1)).unwrap();
        s.commit(1);
        // Epoch 2: one block changed.
        let (raw2, cuts2) = toy_image(32, 3, 0xbb);
        let put2 = s.prepare_chunked(&raw2, &cuts2, &cfg());
        assert_eq!(put2.novel_count(), 1, "only the hot block is novel");
        // The steady-state write is far below the plain store's full image
        // and below even the first (all-novel) dedup epoch.
        assert!(put2.new_bytes() * 5 < raw2.len() as u64);
        assert!(put2.new_bytes() < first_bytes);
        s.put_prepared("p", 2, PreparedPut::Chunked(put2)).unwrap();
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
        s.put_prepared("p", 1, put1).unwrap();
        s.commit(1);
        let put2 = PreparedPut::Chunked(s.prepare_chunked(&raw2, &cuts2, &cfg()));
        s.put_prepared("p", 2, put2).unwrap();
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
        assert!(!s.fs.exists("/ckpt/j/chunks/REFS"), "no refcount table");
        assert!(
            s.orphan_chunks().is_empty(),
            "manifest-derived GC never strands a chunk"
        );
    }

    #[test]
    fn orphan_audit_finds_and_reclaims_strays() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0xaa);
        let put = PreparedPut::Chunked(s.prepare_chunked(&raw, &cuts, &cfg()));
        s.put_prepared("p", 1, put).unwrap();
        s.commit(1);
        assert!(s.orphan_chunks().is_empty(), "healthy store has no orphans");
        // Simulate a crash that persisted chunks but lost the manifest.
        s.fs.remove(&s.manifest_path("p", 1));
        let orphans = s.orphan_chunks();
        assert!(!orphans.is_empty(), "manifest loss strands its chunks");
        assert_eq!(s.gc_orphan_chunks(), orphans.len());
        assert!(s.live_chunks().is_empty());
        assert!(s.orphan_chunks().is_empty());
        assert!(!s.fs.exists("/ckpt/j/chunks/REFS"), "no refcount table");
    }

    #[test]
    fn torn_writes_strand_only_a_prefix_and_never_commit() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0x5a);
        let full = s.prepare_chunked(&raw, &cuts, &cfg());
        let novel = full.novel_count();
        // Half the image reaches disk; the manifest never does.
        s.put_torn(&full, 128);
        let stranded = s.live_chunks().len();
        assert!(stranded > 0, "a torn write leaves a chunk prefix");
        assert!(stranded < novel, "but not the whole image");
        assert_eq!(s.orphan_chunks().len(), stranded, "all of it is orphaned");
        assert_eq!(s.get_image("p", 1), None, "no manifest, no image");
        assert!(!s.is_committed(1));
        assert_eq!(s.gc_orphan_chunks(), stranded);
        assert!(s.live_chunks().is_empty());
        // A whole-image chunk ends at the image's last byte, so a torn
        // whole-image write lands nothing below frac 256: no chunk, no file.
        let whole = s.prepare_chunked(&raw, &cuts, &StoreConfig::default());
        assert_eq!(whole.chunk_count(), 1);
        for frac in [0, 1, 128, 255] {
            s.put_torn(&whole, frac);
            assert!(s.fs.list("/ckpt/").is_empty(), "frac {frac} left a file");
        }
    }

    #[test]
    fn the_default_config_stores_one_whole_image_chunk() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0x5a);
        let put = s.prepare_chunked(&raw, &cuts, &StoreConfig::default());
        let manifest_len = put.manifest_len();
        assert_eq!(
            put.novel_writes().collect::<Vec<_>>(),
            [(raw.len() as u64, raw.len() as u64 + 1)]
        );
        assert_eq!(put.new_bytes(), raw.len() as u64 + 1 + manifest_len);
        s.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        assert_eq!(
            s.live_chunks(),
            vec![ChunkId::of(&raw)],
            "named by the image digest"
        );
        assert_eq!(
            s.read_stored("p", 1).unwrap().1,
            manifest_len + raw.len() as u64 + 1
        );
        assert_eq!(s.get_image("p", 1), Some(raw.clone()));
        // A `Plain` put lands the same chunk and manifest.
        put_plain(&s, "q", 1, raw.clone());
        assert_eq!(s.live_chunks(), vec![ChunkId::of(&raw)]);
        assert_eq!(
            s.fs.read_file(&s.manifest_path("q", 1)),
            s.fs.read_file(&s.manifest_path("p", 1))
        );
    }

    #[test]
    fn uncommitted_epochs_surface_half_written_state() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        put_plain(&s, "p", 1, vec![1]);
        s.commit(1);
        put_plain(&s, "p", 2, vec![2]); // no commit record: crashed mid-write
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
        s.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
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
        )
        .unwrap();
        let victim = s.live_chunks()[0];
        s.fs.remove(&s.chunk_path(victim));
        assert_eq!(s.get_image("p", 1), None, "a torn image is not served");
    }

    #[test]
    fn a_named_chunk_deleted_after_prepare_fails_the_put_closed() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw1, cuts1) = toy_image(8, 1, 0xaa);
        let put1 = s.prepare_chunked(&raw1, &cuts1, &cfg());
        s.put_prepared("p", 1, PreparedPut::Chunked(put1)).unwrap();
        s.commit(1);
        // Epoch 2 shares every chunk but the hot block's with epoch 1, so
        // its prepare names them without carrying them.
        let (raw2, cuts2) = toy_image(8, 1, 0xbb);
        let put2 = s.prepare_chunked(&raw2, &cuts2, &cfg());
        assert_eq!(put2.novel_count(), 1);
        let shared = put2.chunks.iter().find(|c| !c.novel()).unwrap().id;
        // Retiring epoch 1 in the gap deletes the chunks only it held.
        s.discard_epoch(1);
        assert!(!s.fs.exists(&s.chunk_path(shared)));
        assert_eq!(
            s.put_prepared("p", 2, PreparedPut::Chunked(put2)),
            Err(MissingChunk(shared))
        );
        assert!(!s.fs.exists(&s.manifest_path("p", 2)), "no manifest");
        assert!(!s.fs.exists(&s.digest_path("p", 2)), "no sidecar");
        assert_eq!(s.read_sealed("p", 2), Err(ReadError::Absent));
        // The put failed before writing anything, the chunk it carried
        // included, so it stranded nothing for GC to reclaim.
        assert!(s.live_chunks().is_empty());
        assert_eq!(s.gc_orphan_chunks(), 0);
    }

    #[test]
    fn gc_deletes_a_refcount_table_left_by_an_older_store() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let (raw, cuts) = toy_image(8, 1, 0xaa);
        let put = PreparedPut::Chunked(s.prepare_chunked(&raw, &cuts, &cfg()));
        s.put_prepared("p", 1, put).unwrap();
        // The `CRZR` table an older tree kept beside its chunks.
        s.fs.write_file("/ckpt/j/chunks/REFS", b"CRZR".to_vec());
        let live = s.live_chunks();
        assert!(s.orphan_chunks().is_empty(), "the table is not a chunk");
        assert_eq!(s.gc_orphan_chunks(), 0, "no chunk reclaimed");
        assert!(!s.fs.exists("/ckpt/j/chunks/REFS"), "the table is gone");
        assert_eq!(s.live_chunks(), live);
        assert_eq!(s.get_image("p", 1), Some(raw));
    }

    /// A one-block-changed successor of `toy_image(8, 1, 0xaa)`, prepared
    /// on `s` after that image was put as epoch 1: it names seven chunks
    /// without carrying them.
    fn second_epoch(s: &CheckpointStore) -> (Vec<u8>, PreparedChunked) {
        put_toy_image(s, "p", 1, &toy_image(8, 1, 0xaa));
        let (raw, cuts) = toy_image(8, 1, 0xbb);
        let put = s.prepare_chunked(&raw, &cuts, &cfg());
        assert_eq!(put.novel_count(), 1);
        (raw, put)
    }

    fn put_toy_image(
        s: &CheckpointStore,
        pod: &str,
        epoch: u64,
        img: &(Vec<u8>, Vec<(usize, usize)>),
    ) {
        let put = PreparedPut::Chunked(s.prepare_chunked(&img.0, &img.1, &cfg()));
        s.put_prepared(pod, epoch, put).unwrap();
    }

    #[test]
    fn an_undisturbed_put_trusts_its_prepare() {
        let s = CheckpointStore::new(NetFs::new(), "j");
        let (raw, put) = second_epoch(&s);
        // Writing and overwriting files removes none.
        s.fs.write_file("/other", vec![1]);
        s.fs.write_file("/other", vec![2]);
        assert!(put.names_hold_on(&s));
        s.put_prepared("p", 2, PreparedPut::Chunked(put)).unwrap();
        assert_eq!(s.get_image("p", 2), Some(raw));
    }

    #[test]
    fn a_put_after_an_unrelated_removal_rechecks_and_succeeds() {
        let s = CheckpointStore::new(NetFs::new(), "j");
        s.fs.write_file("/other", vec![1]);
        let (raw, put) = second_epoch(&s);
        assert!(s.fs.remove("/other"));
        assert!(
            !put.names_hold_on(&s),
            "a removal voids the prepare's lookups"
        );
        s.put_prepared("p", 2, PreparedPut::Chunked(put)).unwrap();
        assert_eq!(s.get_image("p", 2), Some(raw));
        assert!(s.orphan_chunks().is_empty());
    }

    #[test]
    fn a_put_on_another_store_than_the_prepares_rechecks() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs.clone(), "j");
        let (raw, put) = second_epoch(&s);
        // A second tree under another root holds the same epoch 1: its put
        // takes the full check and lands the manifest a fresh prepare gives.
        let other = CheckpointStore::new(fs.clone(), "j").with_root("/rep1");
        put_toy_image(&other, "p", 1, &toy_image(8, 1, 0xaa));
        assert!(!put.names_hold_on(&other));
        let fresh = other.prepare_chunked(&raw, &toy_image(8, 1, 0xbb).1, &cfg());
        assert_eq!(fresh.manifest(), put.manifest());
        other
            .put_prepared("p", 2, PreparedPut::Chunked(put.clone()))
            .unwrap();
        assert_eq!(other.get_image("p", 2), Some(raw));
        // A tree that lacks the named chunks fails the put closed.
        let empty = CheckpointStore::new(fs, "j").with_root("/rep2");
        assert!(matches!(
            empty.put_prepared("p", 2, PreparedPut::Chunked(put)),
            Err(MissingChunk(_))
        ));
        assert!(!empty.fs.exists(&empty.manifest_path("p", 2)));
    }

    /// One step of the liveness property: a put of `blocks` (indices into a
    /// small pool of page-sized blocks, so images share chunks across pods
    /// and epochs) or a discard.
    #[derive(Debug, Clone)]
    enum Step {
        Put {
            pod: u8,
            epoch: u64,
            blocks: Vec<u8>,
            replay: bool,
        },
        Discard {
            epoch: u64,
        },
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            (
                0u8..3,
                1u64..5,
                proptest::collection::vec(0u8..6, 1..6),
                any::<bool>()
            )
                .prop_map(|(pod, epoch, blocks, replay)| Step::Put {
                    pod,
                    epoch,
                    blocks,
                    replay
                }),
            (1u64..5).prop_map(|epoch| Step::Discard { epoch }),
        ]
    }

    /// Every file of the filesystem with its bytes.
    fn tree(fs: &NetFs) -> Vec<(String, Vec<u8>)> {
        fs.list("/")
            .into_iter()
            .map(|p| {
                let bytes = fs.read_file(&p).unwrap();
                (p, bytes)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn live_chunks_are_exactly_the_chunks_surviving_manifests_name(
            steps in proptest::collection::vec(arb_step(), 1..24),
        ) {
            let fs = NetFs::new();
            let s = CheckpointStore::new(fs.clone(), "j").with_threads(1);
            let block = |b: u8| -> Vec<u8> {
                (0..256).map(|i| ((usize::from(b) * 31 + i % 7) % 251) as u8 | 1).collect()
            };
            let mut images = BTreeMap::new();
            for step in steps {
                match step {
                    Step::Put { pod, epoch, blocks, replay } => {
                        let pod = format!("p{pod}");
                        // A put lands once per pod and epoch; a repeat of
                        // the same write is the replay below.
                        if images.contains_key(&(pod.clone(), epoch)) {
                            continue;
                        }
                        let raw: Vec<u8> = blocks.iter().flat_map(|&b| block(b)).collect();
                        let put = s.prepare_chunked(&raw, &[], &cfg());
                        s.put_prepared(&pod, epoch, PreparedPut::Chunked(put.clone())).unwrap();
                        if replay {
                            let before = tree(&fs);
                            s.put_prepared(&pod, epoch, PreparedPut::Chunked(put)).unwrap();
                            proptest::prop_assert_eq!(tree(&fs), before, "a replayed put changed the tree");
                        }
                        images.insert((pod, epoch), raw);
                    }
                    Step::Discard { epoch } => {
                        s.discard_epoch(epoch);
                        images.retain(|&(_, e), _| e != epoch);
                        let before = tree(&fs);
                        s.discard_epoch(epoch);
                        proptest::prop_assert_eq!(tree(&fs), before, "a replayed discard changed the tree");
                    }
                }
                let named: BTreeSet<ChunkId> = s
                    .all_epochs()
                    .into_iter()
                    .flat_map(|e| s.chunks_referenced_by(e))
                    .collect();
                let live: BTreeSet<ChunkId> = s.live_chunks().into_iter().collect();
                proptest::prop_assert_eq!(live, named);
                for ((pod, epoch), raw) in &images {
                    proptest::prop_assert_eq!(s.get_image(pod, *epoch), Some(raw.clone()));
                }
            }
            proptest::prop_assert_eq!(s.gc_orphan_chunks(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "one name per range")]
    fn a_named_prepare_short_of_one_name_panics() {
        // A manifest whose header counts more records than it holds would
        // be put and committed, then never decode: refused up front.
        let s = CheckpointStore::new(NetFs::new(), "j");
        let (raw, cuts) = toy_image(4, 1, 0x11);
        let ranges = cfg().ranges(raw.len(), &cuts);
        let mut ids: Vec<ChunkId> = ranges
            .iter()
            .map(|&(start, len)| ChunkId::of(&raw[start..start + len]))
            .collect();
        ids.pop();
        s.prepare_named(&raw[..], &ranges, &ids, ChunkId::of(&raw), &cfg(), |_| None);
    }
}
