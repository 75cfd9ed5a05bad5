//! k-way replicated checkpoint store over a deterministic operation log.
//!
//! The single [`CheckpointStore`] is one logical disk: lose it and every
//! committed epoch is gone. This module replicates it k ways behind the
//! same API. Every logical mutation — a prepared put, a commit record, an
//! epoch discard, an orphan GC — is encoded as a [`LogOp`] and appended to
//! each replica's append-only operation log (the byte-exact `CRZL` format
//! below, pinned in `wire-registry.txt`); the replica then applies the op
//! to its own store tree. Because the ops are deterministic and the
//! per-replica apply is idempotent, *log bytes equal ⇒ store trees
//! byte-identical*, which is the invariant every repair path leans on:
//!
//! * **Quorum reads** — [`ReplicatedStore::get_image`] collects the image
//!   digest sidecar from every live replica, picks the majority digest
//!   (ties break to the lowest replica index), and serves the first
//!   replica whose reassembled bytes actually verify against it. A torn
//!   or corrupt copy — caught by the store's per-chunk content addresses
//!   and whole-image digest — just falls through to a healthy replica.
//! * **Scrub/repair** — [`ReplicatedStore::scrub_and_repair`] elects a
//!   reference replica by `(newest committed epoch in the log, log
//!   length)` — commit history first, so a freshly compacted log outranks
//!   a stale replica's longer one — rebuilds it canonically (wipe +
//!   replay its own log), and rebuilds every
//!   diverging or dead replica the same way from the reference log.
//!   Replay-from-empty is the one true constructor of replica state, so
//!   convergence is byte-exact by construction, and a replica that died
//!   mid-append (a *torn log*: valid prefix + garbage tail) is revived
//!   with the tail truncated to the last whole record.
//!
//! Replica faults are armed declaratively (see [`ReplicaFault`]) and
//! tracked in small control files on the shared simulated filesystem, so
//! fault state survives store-handle reconstruction and replays
//! deterministically under a pinned seed.
//!
//! With `k = 1` every method short-circuits to the plain store: no log,
//! no control files, byte-for-byte the unreplicated layout.
//!
//! # `CRZL` log format
//!
//! ```text
//! header:  u32 REPLOG_MAGIC | u16 REPLOG_VERSION
//! record:  u32 payload_len | u8 tag | payload | u64 fnv(tag ++ payload)
//! ```
//!
//! All integers little-endian. A reader accepts the longest prefix of
//! whole, checksum-valid records and ignores everything after the first
//! invalid byte — exactly the semantics a torn append needs.

use std::collections::BTreeSet;

use simos::fs::NetFs;
use zap::image::{ContentDigest, Sealed};

use crate::chunk::ChunkId;
use crate::digest;
use crate::pagecache::{DigestCache, PageHint};
use crate::store::{
    self, CheckpointStore, MissingChunk, PreparedChunked, PreparedPut, ReadError, StoreConfig,
};

/// Magic number of a replica operation log (`CRZL`).
pub const REPLOG_MAGIC: u32 = 0x4352_5a4c;
/// Current operation-log format version.
pub const REPLOG_VERSION: u16 = 1;

// ---- fault model (re-exported from the fault plane) --------------------------

pub use crate::repfault::{
    clear_replica_faults, install_replica_faults, ReplicaFault, ReplicaFaultKind, StoreOpPoint,
};
use crate::repfault::{read_dead, take_fault_effect, write_dead, Cur};

mod repair;

// ---- operation log ----------------------------------------------------------

/// One logical store mutation, as recorded in the `CRZL` operation log.
/// Replaying a log's ops in order against an empty store tree is the
/// canonical constructor of replica state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// A plain (monolithic) pod-image put.
    PutPlain {
        /// Pod name.
        pod: String,
        /// Checkpoint epoch.
        epoch: u64,
        /// The serialized image bytes.
        bytes: Vec<u8>,
    },
    /// A chunked (deduplicated) pod-image put. Carries only the chunk
    /// bodies that were novel when the op was logged — replay encounters
    /// the same store state the writer saw, so the log is self-contained.
    PutChunked {
        /// Pod name.
        pod: String,
        /// Checkpoint epoch.
        epoch: u64,
        /// The serialized `CRZM` manifest.
        manifest: Vec<u8>,
        /// Whole-image content digest (the epoch's digest sidecar).
        image: ChunkId,
        /// Novel chunk bodies: `(content address, encoded container)`.
        blobs: Vec<(ChunkId, Vec<u8>)>,
    },
    /// A commit-record write for an epoch.
    Commit {
        /// The epoch committed.
        epoch: u64,
    },
    /// An epoch discard (abort rollback or recovery cleanup).
    Discard {
        /// The epoch discarded.
        epoch: u64,
    },
    /// An orphan-chunk garbage collection.
    Gc,
    /// Discard of every committed epoch below `keep` (retention pruning).
    Prune {
        /// Oldest epoch retained.
        keep: u64,
    },
}

impl LogOp {
    /// The protocol point this op counts as for fault injection.
    pub fn point(&self) -> StoreOpPoint {
        match self {
            LogOp::PutPlain { .. } | LogOp::PutChunked { .. } => StoreOpPoint::Put,
            LogOp::Commit { .. } => StoreOpPoint::Commit,
            LogOp::Discard { .. } | LogOp::Prune { .. } => StoreOpPoint::Discard,
            LogOp::Gc => StoreOpPoint::Gc,
        }
    }

    fn encode_payload(&self) -> (u8, Vec<u8>) {
        let mut w = Vec::new();
        match self {
            LogOp::PutPlain { pod, epoch, bytes } => {
                put_str(&mut w, pod);
                w.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(&mut w, bytes);
                (0, w)
            }
            LogOp::PutChunked {
                pod,
                epoch,
                manifest,
                image,
                blobs,
            } => {
                put_str(&mut w, pod);
                w.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(&mut w, manifest);
                w.extend_from_slice(&image.0.to_le_bytes());
                w.extend_from_slice(&image.1.to_le_bytes());
                w.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
                for (id, body) in blobs {
                    w.extend_from_slice(&id.0.to_le_bytes());
                    w.extend_from_slice(&id.1.to_le_bytes());
                    put_bytes(&mut w, body);
                }
                (1, w)
            }
            LogOp::Commit { epoch } => {
                w.extend_from_slice(&epoch.to_le_bytes());
                (2, w)
            }
            LogOp::Discard { epoch } => {
                w.extend_from_slice(&epoch.to_le_bytes());
                (3, w)
            }
            LogOp::Gc => (4, w),
            LogOp::Prune { keep } => {
                w.extend_from_slice(&keep.to_le_bytes());
                (5, w)
            }
        }
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Option<LogOp> {
        let mut c = Cur::new(payload);
        let op = match tag {
            0 => LogOp::PutPlain {
                pod: c.string()?,
                epoch: c.u64()?,
                bytes: c.bytes()?,
            },
            1 => {
                let pod = c.string()?;
                let epoch = c.u64()?;
                let manifest = c.bytes()?;
                let image = ChunkId(c.u64()?, c.u64()?);
                let n = c.u32()?;
                let mut blobs = c.vec_for(n);
                for _ in 0..n {
                    let id = ChunkId(c.u64()?, c.u64()?);
                    blobs.push((id, c.bytes()?));
                }
                LogOp::PutChunked {
                    pod,
                    epoch,
                    manifest,
                    image,
                    blobs,
                }
            }
            2 => LogOp::Commit { epoch: c.u64()? },
            3 => LogOp::Discard { epoch: c.u64()? },
            4 => LogOp::Gc,
            5 => LogOp::Prune { keep: c.u64()? },
            _ => return None,
        };
        c.done().then_some(op)
    }
}

fn put_bytes(w: &mut Vec<u8>, b: &[u8]) {
    w.extend_from_slice(&(b.len() as u32).to_le_bytes());
    w.extend_from_slice(b);
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put_bytes(w, s.as_bytes());
}

fn log_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(6);
    h.extend_from_slice(&REPLOG_MAGIC.to_le_bytes());
    h.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
    h
}

/// Encodes one op as a whole `CRZL` record: length, tag, payload and the
/// payload checksum.
pub fn encode_record(op: &LogOp) -> Vec<u8> {
    let (tag, payload) = op.encode_payload();
    let mut rec = Vec::with_capacity(payload.len() + 13);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.push(tag);
    rec.extend_from_slice(&payload);
    let h = digest::fold(digest::fold(digest::OFFSET, &[tag]), &payload);
    rec.extend_from_slice(&h.to_le_bytes());
    rec
}

/// Appends one encoded record ([`encode_record`]) to the `CRZL` log at
/// `path`, creating the file (with its header) on first use. A write
/// encodes its op once and appends the same bytes to every replica's log.
pub fn append_record(fs: &NetFs, path: &str, rec: &[u8]) {
    if !fs.exists(path) {
        fs.write_file(path, log_header());
    }
    fs.append_file(path, rec);
}

/// Appends only the first `frac`/256 of the record's bytes — a log append
/// torn by a mid-write crash. The valid-prefix reader will stop at the
/// record boundary before the tear.
pub fn append_torn_record(fs: &NetFs, path: &str, rec: &[u8], frac: u8) {
    append_record(fs, path, &rec[..rec.len() * frac as usize / 256]);
}

/// Reads the longest valid prefix of the log at `path`: the decoded ops
/// and the byte length of that prefix (header included). A missing file,
/// bad header, torn tail or checksum mismatch terminates the scan at the
/// last whole record.
pub fn read_log(fs: &NetFs, path: &str) -> (Vec<LogOp>, u64) {
    let Some(bytes) = fs.read_file(path) else {
        return (Vec::new(), 0);
    };
    let mut c = Cur::new(&bytes);
    let hdr = (|| Some((c.u32()?, c.u16()?)))();
    if hdr != Some((REPLOG_MAGIC, REPLOG_VERSION)) {
        return (Vec::new(), 0);
    }
    let mut ops = Vec::new();
    let mut valid = c.i as u64;
    loop {
        let rec = (|| {
            let len = c.u32()? as usize;
            let tag = c.u8()?;
            let payload = c.take(len)?;
            let want = digest::fold(digest::fold(digest::OFFSET, &[tag]), payload);
            if c.u64()? != want {
                return None;
            }
            LogOp::decode_payload(tag, payload)
        })();
        match rec {
            Some(op) => {
                ops.push(op);
                valid = c.i as u64;
            }
            None => break,
        }
    }
    (ops, valid)
}

// ---- op application ---------------------------------------------------------

/// Applies one log op to a replica's store tree. `torn` injects a
/// torn-data fault: the op's log record landed whole, but chunk bodies /
/// the plain image only got `frac`/256 of their bytes (and the plain arm's
/// digest sidecar never lands — the disk died before the rename). `sealed`
/// is a plain put's image digest when the writer already knows it (a live
/// write of a sealed image); replay passes `None`, and the sidecar is then
/// folded from the bytes. Returns the GC reclaim count for [`LogOp::Gc`],
/// `0` otherwise.
fn apply_op(
    store: &CheckpointStore,
    op: &LogOp,
    torn: Option<u8>,
    sealed: Option<ChunkId>,
) -> usize {
    match op {
        LogOp::PutPlain { pod, epoch, bytes } => match (torn, sealed) {
            (None, Some(digest)) => store.put_sealed(pod, *epoch, digest, bytes.clone()),
            (None, None) => store.put_image(pod, *epoch, bytes.clone()),
            (Some(frac), _) => {
                let keep = bytes.len() * frac as usize / 256;
                if keep > 0 {
                    store
                        .fs()
                        .write_file(&store.image_path(pod, *epoch), bytes[..keep].to_vec());
                }
            }
        },
        LogOp::PutChunked {
            pod,
            epoch,
            manifest,
            image,
            blobs,
        } => apply_chunked(store, pod, *epoch, manifest, *image, blobs, torn),
        LogOp::Commit { epoch } => store.commit(*epoch),
        LogOp::Discard { epoch } => store.discard_epoch(*epoch),
        LogOp::Gc => return store.gc_orphan_chunks(),
        LogOp::Prune { keep } => store.prune_below(*keep),
    }
    0
}

/// The chunked-put apply: write absent chunk bodies (torn to a prefix
/// under a [`ReplicaFaultKind::TornChunk`] fault), then the digest sidecar
/// and manifest, then bump refcounts — once per manifest record, and only
/// if this exact manifest wasn't already on disk (idempotence under
/// replay, mirroring [`CheckpointStore::put_prepared`]).
fn apply_chunked(
    store: &CheckpointStore,
    pod: &str,
    epoch: u64,
    manifest: &[u8],
    image: ChunkId,
    blobs: &[(ChunkId, Vec<u8>)],
    torn: Option<u8>,
) {
    for (id, body) in blobs {
        let path = store.chunk_path(*id);
        if !store.fs().exists(&path) {
            let stored = match torn {
                None => body.clone(),
                Some(frac) => body[..body.len() * frac as usize / 256].to_vec(),
            };
            store.fs().write_file(&path, stored);
        }
    }
    let mpath = store.manifest_path(pod, epoch);
    let fresh = store.fs().read_file(&mpath).as_deref() != Some(manifest);
    store.write_digest(pod, epoch, image);
    store.fs().write_file(&mpath, manifest.to_vec());
    if fresh {
        if let Some((_, recs)) = store::decode_manifest(manifest) {
            let mut refs = store.read_refs();
            for (id, _, _) in recs {
                *refs.entry(id).or_insert(0) += 1;
            }
            store.write_refs(&refs);
        }
    }
}

// ---- the replicated store ---------------------------------------------------

/// What a scrub pass found and fixed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// The replica elected as reference: newest committed epoch in its
    /// valid log prefix, then log length, ties to the lowest index.
    pub reference: usize,
    /// Replicas whose log or tree diverged and were rebuilt from the
    /// reference log.
    pub repaired: Vec<usize>,
    /// Previously-crashed replicas brought back into the read/write set.
    pub revived: Vec<usize>,
}

/// What a compaction pass rewrote (see [`ReplicatedStore::compact_logs`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// The live replicas whose logs were rewritten, ascending.
    pub compacted: Vec<usize>,
    /// Op count of the primary's log before compaction.
    pub ops_before: usize,
    /// Op count of the synthesized minimal log.
    pub ops_after: usize,
    /// Log bytes reclaimed per replica (primary's old length minus the
    /// minimal log's length; saturating).
    pub bytes_reclaimed: u64,
}

/// k replica [`CheckpointStore`]s behind the one-store API. Replica 0
/// lives at the primary `/ckpt/...` layout; replica `i > 0` under
/// `/rep<i>`. All writes fan out through the operation log; reads are
/// digest-checked quorum reads with healthy-replica fallback.
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    fs: NetFs,
    job: String,
    k: usize,
    threads: usize,
}

impl ReplicatedStore {
    /// Creates a k-way replicated store view for `job` (`k` is clamped to
    /// at least 1; `k = 1` is the plain unreplicated store).
    pub fn new(fs: NetFs, job: impl Into<String>, k: usize) -> Self {
        ReplicatedStore {
            fs,
            job: job.into(),
            k: k.max(1),
            threads: 0,
        }
    }

    /// Sets the worker count for the capture kernels (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The job name.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The replication factor k.
    pub fn replica_count(&self) -> usize {
        self.k
    }

    fn replica_root(r: usize) -> String {
        if r == 0 {
            String::new()
        } else {
            format!("/rep{r}")
        }
    }

    /// The store view of replica `r` (0 = the primary layout).
    pub fn replica(&self, r: usize) -> CheckpointStore {
        CheckpointStore::new(self.fs.clone(), self.job.clone())
            .with_root(Self::replica_root(r))
            .with_threads(self.threads)
    }

    /// Path of replica `r`'s operation log.
    pub fn log_path(&self, r: usize) -> String {
        format!("{}/replog/{}.log", Self::replica_root(r), self.job)
    }

    fn dead(&self) -> BTreeSet<usize> {
        if self.k == 1 {
            BTreeSet::new()
        } else {
            read_dead(&self.fs)
        }
    }

    /// Replica indices currently in the read/write set, ascending.
    pub fn alive_replicas(&self) -> Vec<usize> {
        let dead = self.dead();
        (0..self.k).filter(|r| !dead.contains(r)).collect()
    }

    fn primary_index(&self) -> usize {
        self.alive_replicas().first().copied().unwrap_or(0)
    }

    /// The first live replica's store view — the one whose state every
    /// prepare consults (all live replicas are byte-identical, so any
    /// would do; picking the lowest index keeps it deterministic).
    pub fn primary(&self) -> CheckpointStore {
        self.replica(self.primary_index())
    }

    /// Fans one logical op out to every live replica: fault check, log
    /// append, apply. The op is encoded once and every replica's log gets
    /// the same record bytes. `sealed` is a plain put's known image digest
    /// (see [`apply_op`]). Returns the primary's apply result (the GC
    /// count).
    fn write_op(&self, op: LogOp, sealed: Option<ChunkId>) -> usize {
        let mut dead = read_dead(&self.fs);
        let point = op.point();
        let rec = encode_record(&op);
        let mut out = None;
        for r in 0..self.k {
            if dead.contains(&r) {
                continue;
            }
            match take_fault_effect(&self.fs, r, point) {
                Some(ReplicaFaultKind::Crash) => {
                    dead.insert(r);
                }
                Some(ReplicaFaultKind::TornLog(frac)) => {
                    append_torn_record(&self.fs, &self.log_path(r), &rec, frac);
                    dead.insert(r);
                }
                Some(ReplicaFaultKind::TornChunk(frac)) => {
                    append_record(&self.fs, &self.log_path(r), &rec);
                    apply_op(&self.replica(r), &op, Some(frac), sealed);
                }
                None => {
                    append_record(&self.fs, &self.log_path(r), &rec);
                    let n = apply_op(&self.replica(r), &op, None, sealed);
                    if out.is_none() {
                        out = Some(n);
                    }
                }
            }
        }
        write_dead(&self.fs, &dead);
        out.unwrap_or(0)
    }

    // ---- writes (logged) ------------------------------------------------

    /// Applies a prepared write to every live replica through the log.
    /// A plain image's sidecar digest is taken from its seal (or folded
    /// once, for unsealed bytes) and handed to every replica, so no
    /// replica folds the image again.
    ///
    /// # Errors
    ///
    /// [`MissingChunk`] when a chunked write names a chunk that was on the
    /// primary at prepare time and has been deleted since; nothing is
    /// logged or applied then.
    pub fn put_prepared(
        &self,
        pod_name: &str,
        epoch: u64,
        put: PreparedPut,
    ) -> Result<(), MissingChunk> {
        if self.k == 1 {
            return self.replica(0).put_prepared(pod_name, epoch, put);
        }
        let pod = pod_name.to_owned();
        let plain = |image: Sealed| {
            let digest = image.digest().into();
            let bytes = image.into_bytes();
            (
                LogOp::PutPlain {
                    pod: pod.clone(),
                    epoch,
                    bytes,
                },
                Some(digest),
            )
        };
        let (op, sealed) = match put {
            // Folded once here rather than once per replica.
            PreparedPut::Plain(bytes) => plain(Sealed::open(bytes)),
            PreparedPut::Sealed(image) => plain(image),
            PreparedPut::Chunked(c) => {
                // The record carries exactly the chunk bodies absent from
                // the live replicas' shared state right now, so replaying
                // the log from empty encounters the same store the writer
                // saw and the log stays self-contained.
                let primary = self.primary();
                let mut seen = BTreeSet::new();
                let mut blobs = Vec::new();
                for ch in &c.chunks {
                    if seen.insert(ch.id) && !self.fs.exists(&primary.chunk_path(ch.id)) {
                        let body = ch.stored.clone().ok_or(MissingChunk(ch.id))?;
                        blobs.push((ch.id, body));
                    }
                }
                let op = LogOp::PutChunked {
                    pod,
                    epoch,
                    manifest: c.manifest().to_vec(),
                    image: c.image_digest(),
                    blobs,
                };
                (op, None)
            }
        };
        self.write_op(op, sealed);
        Ok(())
    }

    /// Applies only a torn prefix of a prepared write — a disk tear, not a
    /// store op, so it is deliberately *not* logged: replay never
    /// resurrects the stranded bytes, and scrub's wipe+replay reclaims
    /// them on every replica.
    pub fn put_torn(&self, pod_name: &str, epoch: u64, put: &PreparedPut, frac: u8) {
        for r in self.alive_replicas() {
            self.replica(r).put_torn(pod_name, epoch, put, frac);
        }
    }

    /// Writes the commit record for `epoch` on every live replica.
    pub fn commit(&self, epoch: u64) {
        if self.k == 1 {
            return self.replica(0).commit(epoch);
        }
        self.write_op(LogOp::Commit { epoch }, None);
    }

    /// Discards every file of `epoch` on every live replica.
    pub fn discard_epoch(&self, epoch: u64) {
        if self.k == 1 {
            return self.replica(0).discard_epoch(epoch);
        }
        self.write_op(LogOp::Discard { epoch }, None);
    }

    /// Discards every committed epoch below `keep` on every live replica.
    pub fn prune_below(&self, keep: u64) {
        if self.k == 1 {
            return self.replica(0).prune_below(keep);
        }
        self.write_op(LogOp::Prune { keep }, None);
    }

    /// Reclaims orphan chunk files on every live replica; returns the
    /// primary's reclaim count.
    pub fn gc_orphan_chunks(&self) -> usize {
        if self.k == 1 {
            return self.replica(0).gc_orphan_chunks();
        }
        self.write_op(LogOp::Gc, None)
    }

    // ---- prepares (pure, primary state) ---------------------------------

    /// [`CheckpointStore::prepare_chunked`] against the primary replica's
    /// chunk population.
    pub fn prepare_chunked(
        &self,
        raw: &[u8],
        cuts: &[(usize, usize)],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        self.primary().prepare_chunked(raw, cuts, cfg)
    }

    /// [`CheckpointStore::prepare_chunked_hinted`] against the primary
    /// replica's chunk population.
    pub fn prepare_chunked_hinted(
        &self,
        raw: &[u8],
        hints: &[PageHint],
        cfg: &StoreConfig,
        pod_name: &str,
        cache: &mut DigestCache,
    ) -> PreparedChunked {
        self.primary()
            .prepare_chunked_hinted(raw, hints, cfg, pod_name, cache)
    }

    /// [`CheckpointStore::prepare_sealed`] against the primary replica's
    /// chunk population.
    pub fn prepare_sealed(
        &self,
        image: &Sealed,
        ranges: &[(usize, usize)],
        names: &[ContentDigest],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        self.primary().prepare_sealed(image, ranges, names, cfg)
    }

    // ---- reads ----------------------------------------------------------

    /// Quorum read of a pod image: the bytes [`ReplicatedStore::read_sealed`]
    /// serves.
    pub fn get_image(&self, pod_name: &str, epoch: u64) -> Option<Vec<u8>> {
        self.read_sealed(pod_name, epoch)
            .ok()
            .map(Sealed::into_bytes)
    }

    /// Quorum read of a pod image: collect digest-sidecar votes from every
    /// live replica, elect the majority digest (ties to the lowest
    /// replica), and serve the first replica whose bytes verify against
    /// it. Falls back to any live replica that self-verifies when no
    /// majority copy is readable. Each replica's read is
    /// [`CheckpointStore::read_sealed`], so the served image's checksum is
    /// settled by the same pass that verified it.
    ///
    /// # Errors
    ///
    /// [`ReadError::Absent`] when no live replica holds anything for the
    /// pod in `epoch`; [`ReadError::Corrupt`] when none of what they hold
    /// verifies.
    pub fn read_sealed(&self, pod_name: &str, epoch: u64) -> Result<Sealed, ReadError> {
        if self.k == 1 {
            return self.replica(0).read_sealed(pod_name, epoch);
        }
        let alive = self.alive_replicas();
        let mut votes: Vec<(ChunkId, usize)> = Vec::new();
        for &r in &alive {
            if let Some(d) = self.replica(r).read_digest(pod_name, epoch) {
                match votes.iter_mut().find(|(x, _)| *x == d) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((d, 1)),
                }
            }
        }
        let mut winner = None;
        for &(d, n) in &votes {
            if winner.is_none_or(|(_, wn)| n > wn) {
                winner = Some((d, n));
            }
        }
        if let Some((want, _)) = winner {
            for &r in &alive {
                let rep = self.replica(r);
                if rep.read_digest(pod_name, epoch) == Some(want) {
                    // The store's own read path re-verifies chunk addresses
                    // and the whole-image digest, so a corrupt copy under a
                    // matching sidecar still falls through.
                    if let Ok(image) = rep.read_sealed(pod_name, epoch) {
                        return Ok(image);
                    }
                }
            }
        }
        // Without any sidecar vote no replica can verify; the pass below
        // then only tells an absent image from an unverifiable one.
        let mut err = ReadError::Absent;
        for &r in &alive {
            match self.replica(r).read_sealed(pod_name, epoch) {
                Ok(image) => return Ok(image),
                Err(ReadError::Corrupt) => err = ReadError::Corrupt,
                Err(ReadError::Absent) => {}
            }
        }
        Err(err)
    }

    /// Logical image size, from the primary replica.
    pub fn image_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        self.primary().image_len(pod_name, epoch)
    }

    /// Physical restore size, from the primary replica.
    pub fn stored_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        self.primary().stored_len(pod_name, epoch)
    }

    /// True if `epoch` has a commit record on the primary replica.
    pub fn is_committed(&self, epoch: u64) -> bool {
        self.primary().is_committed(epoch)
    }

    /// The newest committed epoch visible on *any* live replica — what a
    /// restart rolls back to even when the primary died mid-commit.
    pub fn latest_committed_epoch(&self) -> Option<u64> {
        self.alive_replicas()
            .into_iter()
            .filter_map(|r| self.replica(r).latest_committed_epoch())
            .max()
    }

    /// Committed epochs on the primary replica, ascending.
    pub fn committed_epochs(&self) -> Vec<u64> {
        self.primary().committed_epochs()
    }

    /// Uncommitted (half-written) epochs on the primary replica.
    pub fn uncommitted_epochs(&self) -> Vec<u64> {
        self.primary().uncommitted_epochs()
    }

    /// Pod names with images in an epoch, from the primary replica.
    pub fn pods_in_epoch(&self, epoch: u64) -> Vec<String> {
        self.primary().pods_in_epoch(epoch)
    }

    /// Orphan chunk audit on the primary replica.
    pub fn orphan_chunks(&self) -> Vec<ChunkId> {
        self.primary().orphan_chunks()
    }

    /// Every chunk file on the primary replica, ascending.
    pub fn live_chunks(&self) -> Vec<ChunkId> {
        self.primary().live_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| fill.wrapping_add((i / 256) as u8))
            .collect()
    }

    fn dedup_cfg() -> StoreConfig {
        StoreConfig {
            chunk_bytes: 256,
            dedup: true,
            compress: true,
            threads: 1,
            replicas: 3,
        }
    }

    fn put_epoch(rs: &ReplicatedStore, cfg: &StoreConfig, epoch: u64, fill: u8) {
        let raw = image(fill, 1024);
        let prepared = rs.prepare_chunked(&raw, &[], cfg);
        rs.put_prepared("pod0", epoch, PreparedPut::Chunked(prepared))
            .unwrap();
        rs.commit(epoch);
    }

    fn digests(rs: &ReplicatedStore) -> Vec<u64> {
        (0..rs.replica_count()).map(|r| rs.tree_digest(r)).collect()
    }

    #[test]
    fn record_codec_round_trips_every_op() {
        let ops = vec![
            LogOp::PutPlain {
                pod: "a".into(),
                epoch: 3,
                bytes: vec![1, 2, 3],
            },
            LogOp::PutChunked {
                pod: "b".into(),
                epoch: 4,
                manifest: vec![9; 40],
                image: ChunkId(7, 8),
                blobs: vec![(ChunkId(1, 2), vec![5; 10]), (ChunkId(3, 4), vec![])],
            },
            LogOp::Commit { epoch: 4 },
            LogOp::Discard { epoch: 3 },
            LogOp::Gc,
            LogOp::Prune { keep: 4 },
        ];
        let fs = NetFs::new();
        for op in &ops {
            append_record(&fs, "/replog/t.log", &encode_record(op));
        }
        let (back, valid) = read_log(&fs, "/replog/t.log");
        assert_eq!(back, ops);
        assert_eq!(valid, fs.len_of("/replog/t.log").unwrap());
    }

    #[test]
    fn torn_append_keeps_only_the_valid_prefix() {
        let fs = NetFs::new();
        let a = LogOp::Commit { epoch: 1 };
        let b = LogOp::Commit { epoch: 2 };
        append_record(&fs, "/replog/t.log", &encode_record(&a));
        append_torn_record(&fs, "/replog/t.log", &encode_record(&b), 128);
        let (ops, valid) = read_log(&fs, "/replog/t.log");
        assert_eq!(ops, vec![a]);
        assert!(valid < fs.len_of("/replog/t.log").unwrap());
    }

    #[test]
    fn replicas_converge_and_replay_is_idempotent() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x11);
        put_epoch(&rs, &cfg, 2, 0x11); // heavy dedup vs epoch 1
        rs.prune_below(2);
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        // Re-applying the full log over the existing replica state must be
        // a no-op (crash-during-replay safety).
        let (ops, _) = read_log(&fs, &rs.log_path(1));
        let store = rs.replica(1);
        for op in &ops {
            apply_op(&store, op, None, None);
        }
        assert_eq!(rs.tree_digest(1), d[1]);
        // And replaying onto an empty tree reconstructs the same bytes.
        rs.wipe_replica(2);
        let log = fs.read_file(&rs.log_path(1)).unwrap();
        rs.replay_log(2, &log);
        assert_eq!(rs.tree_digest(2), d[1]);
    }

    #[test]
    fn quorum_read_survives_crash_and_corruption() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x22);
        let raw = image(0x22, 1024);
        install_replica_faults(
            &fs,
            &[
                ReplicaFault {
                    replica: 0,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::Crash,
                },
                ReplicaFault {
                    replica: 1,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::TornChunk(64),
                },
            ],
        );
        let raw2 = image(0x99, 1024);
        let prepared = rs.prepare_chunked(&raw2, &[], &cfg);
        rs.put_prepared("pod0", 2, PreparedPut::Chunked(prepared))
            .unwrap();
        rs.commit(2);
        // Replica 0 crashed (stale), replica 1 is corrupt, replica 2 is
        // whole: epoch 2 must still read back exactly.
        assert_eq!(rs.alive_replicas(), vec![1, 2]);
        assert_eq!(rs.get_image("pod0", 2), Some(raw2));
        assert_eq!(rs.get_image("pod0", 1), Some(raw));
        assert_eq!(rs.latest_committed_epoch(), Some(2));
    }

    #[test]
    fn scrub_converges_torn_and_crashed_replicas() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x33);
        install_replica_faults(
            &fs,
            &[
                ReplicaFault {
                    replica: 1,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::TornChunk(100),
                },
                ReplicaFault {
                    replica: 2,
                    point: StoreOpPoint::Commit,
                    nth: 0,
                    kind: ReplicaFaultKind::TornLog(77),
                },
            ],
        );
        put_epoch(&rs, &cfg, 2, 0x44);
        let rep = rs.scrub_and_repair();
        assert_eq!(rep.reference, 0);
        assert_eq!(rep.repaired, vec![1, 2]);
        assert_eq!(rep.revived, vec![2]);
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(rs.alive_replicas(), vec![0, 1, 2]);
        assert_eq!(rs.get_image("pod0", 2), Some(image(0x44, 1024)));
    }

    #[test]
    fn compaction_minimizes_logs_and_preserves_reads() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x61);
        put_epoch(&rs, &cfg, 2, 0x61); // heavy dedup vs epoch 1
        put_epoch(&rs, &cfg, 3, 0x77);
        rs.prune_below(3);
        rs.gc_orphan_chunks();
        let before_len = fs.len_of(&rs.log_path(0)).unwrap_or(0);

        let rep = rs.compact_logs();
        assert_eq!(rep.compacted, vec![0, 1, 2]);
        // History: 3 × (put + commit) + prune + gc = 8 ops; state: one
        // retained epoch = put + commit.
        assert_eq!(rep.ops_before, 8);
        assert_eq!(rep.ops_after, 2);
        assert!(rep.bytes_reclaimed > 0);
        assert!(fs.len_of(&rs.log_path(0)).unwrap_or(u64::MAX) < before_len);

        // All replicas hold identical trees and the retained epoch still
        // reads back exactly.
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(rs.get_image("pod0", 3), Some(image(0x77, 1024)));
        assert_eq!(rs.latest_committed_epoch(), Some(3));

        // The compacted log is self-contained: replay-from-empty
        // reconstructs the same tree.
        rs.wipe_replica(2);
        let log = fs.read_file(&rs.log_path(0)).unwrap_or_default();
        rs.replay_log(2, &log);
        assert_eq!(rs.tree_digest(2), d[0]);

        // And a scrub over the compacted set is a no-op.
        let scrub = rs.scrub_and_repair();
        assert!(scrub.repaired.is_empty());
        assert_eq!(digests(&rs), d);
    }

    #[test]
    fn scrub_election_prefers_commit_history_over_log_length() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x11);
        put_epoch(&rs, &cfg, 2, 0x22);
        // Replica 2 dies before epoch 3, stranded with the 4-op history
        // [put1, commit1, put2, commit2].
        install_replica_faults(
            &fs,
            &[ReplicaFault {
                replica: 2,
                point: StoreOpPoint::Put,
                nth: 0,
                kind: ReplicaFaultKind::Crash,
            }],
        );
        put_epoch(&rs, &cfg, 3, 0x33);
        rs.prune_below(3);
        // The live replicas compact to the 2-op minimal log [put3,
        // commit3] — *shorter* than the dead replica's stale history. A
        // longest-log election would resurrect the stale replica as
        // reference and roll committed epoch 3 back; the commit-first key
        // must keep a live replica in charge.
        rs.compact_logs();
        let rep = rs.scrub_and_repair();
        assert_eq!(rep.reference, 0);
        assert_eq!(rep.revived, vec![2]);
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(rs.latest_committed_epoch(), Some(3));
        assert_eq!(rs.get_image("pod0", 3), Some(image(0x33, 1024)));
    }

    #[test]
    fn k1_writes_no_control_or_log_files() {
        let fs = NetFs::new();
        let rs = ReplicatedStore::new(fs.clone(), "job", 1);
        rs.put_prepared("pod0", 1, PreparedPut::Plain(image(0x55, 512)))
            .unwrap();
        rs.commit(1);
        assert_eq!(rs.compact_logs(), CompactReport::default());
        assert!(fs.list("/replog/").is_empty());
        assert!(fs.list("/replctl/").is_empty());
        assert!(fs.list("/rep").is_empty());
        assert_eq!(rs.get_image("pod0", 1), Some(image(0x55, 512)));
    }

    #[test]
    fn k3_plain_put_pins_every_sidecar_to_the_image_digest() {
        let fs = NetFs::new();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3);
        let mut w = zap::image::ImageWriter::new();
        w.bytes(&image(0x42, 700));
        let sealed = w.seal();
        let bytes = sealed.bytes().to_vec();
        rs.put_prepared("pod0", 1, PreparedPut::Sealed(sealed))
            .unwrap();
        rs.put_prepared("pod0", 2, PreparedPut::Plain(bytes.clone()))
            .unwrap();
        for epoch in [1, 2] {
            for r in 0..3 {
                let rep = rs.replica(r);
                assert_eq!(rep.read_digest("pod0", epoch), Some(ChunkId::of(&bytes)));
                assert_eq!(rep.get_image("pod0", epoch), Some(bytes.clone()));
            }
        }
        // Replaying the log, which carries no digest, folds the same one.
        rs.wipe_replica(2);
        let log = fs.read_file(&rs.log_path(0)).unwrap();
        rs.replay_log(2, &log);
        assert_eq!(rs.tree_digest(2), rs.tree_digest(0));
    }

    #[test]
    fn k3_put_of_a_chunk_deleted_after_prepare_logs_nothing() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x11);
        // Epoch 2 shares every chunk with epoch 1 and carries none.
        let prepared = rs.prepare_chunked(&image(0x11, 1024), &[], &cfg);
        assert_eq!(prepared.novel_count(), 0);
        rs.discard_epoch(1);
        let logs: Vec<_> = (0..3).map(|r| fs.read_file(&rs.log_path(r))).collect();
        let err = rs.put_prepared("pod0", 2, PreparedPut::Chunked(prepared));
        assert!(matches!(err, Err(MissingChunk(_))));
        for r in 0..3 {
            assert_eq!(fs.read_file(&rs.log_path(r)), logs[r], "replica {r} log");
            assert!(!fs.exists(&rs.replica(r).manifest_path("pod0", 2)));
        }
    }
}
