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
//! Replica faults are armed declaratively (see [`ReplicaFault`]) on an
//! in-memory [`ReplicaFaults`] plane that every store view built with it
//! shares, so fault state survives store-handle reconstruction and replays
//! deterministically under a pinned seed.
//!
//! Every write takes the one path at every k: plan on the primary, then
//! [`ReplicatedStore`]'s fan-out. With `k = 1` the fan-out applies the op
//! to the lone replica without logging it or consulting the fault plane,
//! so the tree is byte-for-byte the unreplicated layout; only compaction
//! and scrub, which a lone replica has nothing to gain from, are no-ops.
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

use simos::fs::NetFs;
use zap::image::ImageWriter;

use crate::chunk::ChunkId;
use crate::digest;
use crate::pagecache::{DigestCache, PageHint};
use crate::store::{
    CheckpointStore, MissingChunk, PlannedPut, PreparedChunked, PreparedPut, StoreConfig,
};

/// Magic number of a replica operation log (`CRZL`).
pub const REPLOG_MAGIC: u32 = 0x4352_5a4c;
/// Current operation-log format version.
pub const REPLOG_VERSION: u16 = 1;

// ---- fault model (re-exported from the fault plane) --------------------------

pub use crate::repfault::{ReplicaFault, ReplicaFaultKind, ReplicaFaults, StoreOpPoint};

mod quorum;
mod repair;

// ---- operation log ----------------------------------------------------------

/// One logical store mutation, as recorded in the `CRZL` operation log.
/// Replaying a log's ops in order against an empty store tree is the
/// canonical constructor of replica state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// A pod-image put. Carries only the chunk bodies that were novel when
    /// the op was logged — replay encounters the same store state the
    /// writer saw, so the log is self-contained. (Tag 0, a retired
    /// monolithic-image put, no longer decodes.)
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
            LogOp::PutChunked { .. } => StoreOpPoint::Put,
            LogOp::Commit { .. } => StoreOpPoint::Commit,
            LogOp::Discard { .. } | LogOp::Prune { .. } => StoreOpPoint::Discard,
            LogOp::Gc => StoreOpPoint::Gc,
        }
    }

    /// Appends the op's payload to `w` and returns its tag with the buffer.
    fn encode_payload(&self, mut w: Vec<u8>) -> (u8, Vec<u8>) {
        match self {
            LogOp::PutChunked {
                pod,
                epoch,
                manifest,
                image,
                blobs,
            } => {
                let blob_bytes: usize = blobs.iter().map(|(_, b)| 20 + b.len()).sum();
                w.reserve(36 + pod.len() + manifest.len() + blob_bytes + RECORD_TRAILER);
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

/// Little-endian byte cursor of the `CRZL` record decoder: every
/// `Option`-returning accessor fails cleanly at a truncation instead of
/// panicking.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, i: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.i.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// An empty vector with room for `n` decoded elements, capped at the
    /// unread input: every element occupies at least one byte, so a
    /// corrupt count can never reserve more than the input could fill.
    fn vec_for<T>(&self, n: u32) -> Vec<T> {
        Vec::with_capacity((n as usize).min(self.b.len() - self.i))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        Some(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    fn done(&self) -> bool {
        self.i == self.b.len()
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

/// A record's length-and-tag header.
const RECORD_HEADER: usize = 5;
/// A record's checksum trailer.
const RECORD_TRAILER: usize = 8;

/// Encodes one op as a whole `CRZL` record: length, tag, payload and the
/// checksum of `tag ‖ payload`. The payload is encoded in place behind a
/// reserved header, which is patched once its length is known.
pub fn encode_record(op: &LogOp) -> Vec<u8> {
    let (tag, mut rec) = op.encode_payload(vec![0; RECORD_HEADER]);
    let len = (rec.len() - RECORD_HEADER) as u32;
    rec[..4].copy_from_slice(&len.to_le_bytes());
    rec[4] = tag;
    let h = digest::fold(digest::OFFSET, &rec[4..]);
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

/// Applies one log op to a replica's store tree, consuming it: a put's
/// containers move into the tree. `torn` injects a torn-data fault
/// ([`ReplicaFaultKind::TornChunk`]): the op's log record landed whole,
/// but chunk bodies only got `frac`/256 of their bytes. Returns the GC
/// reclaim count for [`LogOp::Gc`], `0` otherwise.
fn apply_op(store: &CheckpointStore, op: LogOp, torn: Option<u8>) -> usize {
    match op {
        LogOp::PutChunked {
            pod,
            epoch,
            manifest,
            image,
            blobs,
        } => {
            let put = PlannedPut {
                manifest,
                image,
                blobs,
            };
            store.apply_put(&pod, epoch, put, torn);
        }
        LogOp::Commit { epoch } => store.commit(epoch),
        LogOp::Discard { epoch } => store.discard_epoch(epoch),
        LogOp::Gc => return store.gc_orphan_chunks(),
        LogOp::Prune { keep } => store.prune_below(keep),
    }
    0
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
    faults: ReplicaFaults,
}

impl ReplicatedStore {
    /// Creates a k-way replicated store view for `job` (`k` is clamped to
    /// at least 1; `k = 1` is the plain unreplicated store) on a fresh,
    /// unarmed fault plane.
    pub fn new(fs: NetFs, job: impl Into<String>, k: usize) -> Self {
        ReplicatedStore {
            fs,
            job: job.into(),
            k: k.max(1),
            threads: 0,
            faults: ReplicaFaults::default(),
        }
    }

    /// Sets the worker count for the capture kernels (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Puts this view on the shared fault plane `faults`, so it sees the
    /// faults armed there and the replicas they crashed.
    pub fn with_faults(mut self, faults: ReplicaFaults) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plane this view consults.
    pub fn faults(&self) -> &ReplicaFaults {
        &self.faults
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

    /// Replica indices currently in the read/write set, ascending.
    pub fn alive_replicas(&self) -> Vec<usize> {
        let dead = self.faults.dead();
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

    /// The one write path: fans one logical op out to every live replica.
    /// With `k = 1` the op is applied to the lone replica as it is — no
    /// log, no fault check. Otherwise each live replica takes its fault
    /// check and its log append (the op is encoded once, so every log gets
    /// the same record bytes), and then every replica still standing
    /// applies the op: a copy each, and the op itself for the last.
    /// Returns the first whole apply's result (the GC count).
    fn write_op(&self, op: LogOp) -> usize {
        if self.k == 1 {
            return apply_op(&self.replica(0), op, None);
        }
        let point = op.point();
        let rec = encode_record(&op);
        let mut targets = Vec::new();
        for r in self.alive_replicas() {
            let torn = match self.faults.take(r, point) {
                Some(ReplicaFaultKind::Crash) => {
                    self.faults.kill(r);
                    continue;
                }
                Some(ReplicaFaultKind::TornLog(frac)) => {
                    append_torn_record(&self.fs, &self.log_path(r), &rec, frac);
                    self.faults.kill(r);
                    continue;
                }
                Some(ReplicaFaultKind::TornChunk(frac)) => Some(frac),
                None => None,
            };
            append_record(&self.fs, &self.log_path(r), &rec);
            targets.push((r, torn));
        }
        let mut out = None;
        let mut apply = |(r, torn): (usize, Option<u8>), op| {
            let n = apply_op(&self.replica(r), op, torn);
            if torn.is_none() {
                out.get_or_insert(n);
            }
        };
        if let Some((&last, rest)) = targets.split_last() {
            for &t in rest {
                apply(t, op.clone());
            }
            apply(last, op);
        }
        out.unwrap_or(0)
    }

    // ---- writes ---------------------------------------------------------

    /// Applies a prepared write to every live replica: the primary plans
    /// it (the put planner every put runs) and [`ReplicatedStore`]'s one
    /// write path logs and applies the planned op. The record carries the
    /// image digest the prepare named (for a [`PreparedPut::Plain`] put,
    /// folded once on the primary), so no replica folds the image again,
    /// live or in replay, and exactly the chunk bodies absent from the
    /// live replicas' shared state, so replaying the log from empty
    /// encounters the same store the writer saw.
    ///
    /// A chunk the write names without carrying is looked up on the
    /// primary again only if a file was removed since the prepare, or the
    /// primary is no longer the replica the prepare consulted.
    ///
    /// # Errors
    ///
    /// [`MissingChunk`] when the write names a chunk that was on the
    /// primary at prepare time and has been deleted since; nothing is
    /// logged or applied then.
    pub fn put_prepared(
        &self,
        pod_name: &str,
        epoch: u64,
        put: PreparedPut,
    ) -> Result<(), MissingChunk> {
        let PlannedPut {
            manifest,
            image,
            blobs,
        } = self.primary().plan_put(put)?;
        self.write_op(LogOp::PutChunked {
            pod: pod_name.to_owned(),
            epoch,
            manifest,
            image,
            blobs,
        });
        Ok(())
    }

    /// Applies only a torn prefix of a prepared write — a disk tear, not a
    /// store op, so it is deliberately *not* logged: replay never
    /// resurrects the stranded bytes, and scrub's wipe+replay reclaims
    /// them on every replica.
    pub fn put_torn(&self, put: &PreparedChunked, frac: u8) {
        for r in self.alive_replicas() {
            self.replica(r).put_torn(put, frac);
        }
    }

    /// Writes the commit record for `epoch` on every live replica.
    pub fn commit(&self, epoch: u64) {
        self.write_op(LogOp::Commit { epoch });
    }

    /// Discards every file of `epoch` on every live replica.
    pub fn discard_epoch(&self, epoch: u64) {
        self.write_op(LogOp::Discard { epoch });
    }

    /// Discards every committed epoch below `keep` on every live replica.
    pub fn prune_below(&self, keep: u64) {
        self.write_op(LogOp::Prune { keep });
    }

    /// Reclaims orphan chunk files on every live replica; returns the
    /// primary's reclaim count.
    pub fn gc_orphan_chunks(&self) -> usize {
        self.write_op(LogOp::Gc)
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
        image: ImageWriter,
        split: impl FnOnce(usize) -> Vec<(usize, usize)>,
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        self.primary().prepare_sealed(image, split, cfg)
    }

    // ---- reads (the quorum reads are in `quorum`) ---------------------

    /// Logical image size, from the primary replica.
    pub fn image_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        self.primary().image_len(pod_name, epoch)
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
            let rec = encode_record(op);
            // Length, tag, payload, then FNV-1a over tag ‖ payload.
            let len = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
            assert_eq!(rec.len(), 5 + len + 8);
            let sum = digest::fold_bytewise(digest::OFFSET, &rec[4..5 + len]);
            assert_eq!(rec[5 + len..], sum.to_le_bytes());
            append_record(&fs, "/replog/t.log", &rec);
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
            apply_op(&store, op.clone(), None);
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
        rs.faults().arm(&[
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
        ]);
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
        rs.faults().arm(&[
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
        ]);
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
        rs.faults().arm(&[ReplicaFault {
            replica: 2,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::Crash,
        }]);
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
    fn k1_writes_only_the_plain_store_tree() {
        let fs = NetFs::new();
        let rs = ReplicatedStore::new(fs.clone(), "job", 1);
        // A fault armed for the lone replica never fires: k = 1 neither
        // logs nor consults the plane.
        rs.faults().arm(&[ReplicaFault {
            replica: 0,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::TornLog(1),
        }]);
        rs.put_prepared("pod0", 1, PreparedPut::Plain(image(0x55, 512)))
            .unwrap();
        rs.commit(1);
        assert_eq!(rs.compact_logs(), CompactReport::default());
        assert_eq!(rs.scrub_and_repair(), ScrubReport::default());
        let files = fs.list("/");
        assert!(!files.is_empty());
        assert!(
            files.iter().all(|p| p.starts_with("/ckpt/job/")),
            "no log, replica tree or control file: {files:?}"
        );
        assert_eq!(rs.alive_replicas(), vec![0]);
        assert_eq!(rs.get_image("pod0", 1), Some(image(0x55, 512)));
    }

    #[test]
    fn k3_plain_put_replayed_from_the_log_pins_every_sidecar_to_the_seal() {
        let fs = NetFs::new();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3);
        let mut w = zap::image::ImageWriter::new();
        w.bytes(&image(0x42, 700));
        let sealed = w.clone().seal();
        let bytes = sealed.bytes().to_vec();
        let digest = ChunkId::from(sealed.digest());
        let cfg = StoreConfig::default();
        let put = rs.prepare_sealed(w, |len| cfg.ranges(len, &[]), &cfg);
        rs.put_prepared("pod0", 1, PreparedPut::Chunked(put))
            .unwrap();
        rs.put_prepared("pod0", 2, PreparedPut::Plain(bytes.clone()))
            .unwrap();
        // The log carries the seal's digest: every replica rebuilt from it
        // alone pins that digest, and serves the sealed bytes.
        let log = fs.read_file(&rs.log_path(0)).unwrap();
        for r in 0..3 {
            rs.wipe_replica(r);
            rs.replay_log(r, &log);
            let rep = rs.replica(r);
            for epoch in [1, 2] {
                assert_eq!(rep.read_digest("pod0", epoch), Some(digest));
                assert_eq!(rep.get_image("pod0", epoch), Some(bytes.clone()));
            }
            // One whole-image chunk, named by that digest, serves both epochs.
            assert_eq!(rep.live_chunks(), vec![digest]);
        }
        let (ops, _) = read_log(&fs, &rs.log_path(0));
        assert!(ops
            .iter()
            .all(|op| matches!(op, LogOp::PutChunked { image, .. } if *image == digest)));
    }

    #[test]
    fn a_record_with_the_retired_tag_0_ends_the_valid_prefix() {
        let fs = NetFs::new();
        let a = LogOp::Commit { epoch: 1 };
        append_record(&fs, "/replog/t.log", &encode_record(&a));
        let valid_before = fs.len_of("/replog/t.log").unwrap();
        // A whole, checksum-valid record whose tag no op encodes any more
        // (the retired monolithic put: pod, epoch, image bytes).
        let mut payload = Vec::new();
        put_str(&mut payload, "pod0");
        payload.extend_from_slice(&2u64.to_le_bytes());
        put_bytes(&mut payload, &[1, 2, 3]);
        let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
        rec.push(0);
        rec.extend_from_slice(&payload);
        let sum = digest::fold(digest::fold(digest::OFFSET, &[0]), &payload);
        rec.extend_from_slice(&sum.to_le_bytes());
        append_record(&fs, "/replog/t.log", &rec);
        append_record(
            &fs,
            "/replog/t.log",
            &encode_record(&LogOp::Commit { epoch: 2 }),
        );
        let (ops, valid) = read_log(&fs, "/replog/t.log");
        assert_eq!(ops, vec![a], "nothing after the retired record is read");
        assert_eq!(valid, valid_before);
    }

    #[test]
    fn k3_put_after_an_unrelated_removal_rechecks_and_succeeds() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x11);
        fs.write_file("/other", vec![1]);
        let prepared = rs.prepare_chunked(&image(0x12, 1024), &[], &cfg);
        assert!(prepared.names_hold_on(&rs.primary()));
        assert!(fs.remove("/other"));
        assert!(!prepared.names_hold_on(&rs.primary()));
        rs.put_prepared("pod0", 2, PreparedPut::Chunked(prepared))
            .unwrap();
        assert_eq!(rs.get_image("pod0", 2), Some(image(0x12, 1024)));
        let d = digests(&rs);
        assert!(d.iter().all(|&x| x == d[0]), "replicas diverged");
    }

    #[test]
    fn k3_put_after_the_primary_dies_logs_a_fresh_prepares_record() {
        // Two identical histories: one puts a write prepared on replica 0
        // before it dies, the other a write prepared after, on replica 1.
        let run = |prepare_first: bool| {
            let fs = NetFs::new();
            let cfg = dedup_cfg();
            let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
            put_epoch(&rs, &cfg, 1, 0x11);
            let raw = image(0x12, 1024);
            let stale = prepare_first.then(|| rs.prepare_chunked(&raw, &[], &cfg));
            rs.faults().kill(0);
            let prepared = match stale {
                Some(p) => {
                    assert!(!p.names_hold_on(&rs.primary()), "the primary moved");
                    p
                }
                None => rs.prepare_chunked(&raw, &[], &cfg),
            };
            assert_eq!(prepared.novel_count(), 1);
            rs.put_prepared("pod0", 2, PreparedPut::Chunked(prepared))
                .unwrap();
            assert_eq!(rs.get_image("pod0", 2), Some(raw));
            fs.read_file(&rs.log_path(1)).unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn a_put_of_a_chunk_deleted_after_prepare_writes_nothing_at_any_k() {
        for k in [1, 3] {
            let fs = NetFs::new();
            let cfg = dedup_cfg();
            let rs = ReplicatedStore::new(fs.clone(), "job", k).with_threads(1);
            put_epoch(&rs, &cfg, 1, 0x11);
            // Epoch 2 carries its first chunk and names the other three,
            // which epoch 1 holds: the carried one comes first, so a put
            // that wrote as it checked would land it before failing.
            let prepared = rs.prepare_chunked(&image(0x10, 1024), &[], &cfg);
            assert_eq!(prepared.novel_count(), 1);
            rs.discard_epoch(1);
            let snapshot = |fs: &NetFs| {
                let files = fs.list("/");
                files
                    .into_iter()
                    .map(|p| (fs.read_file(&p), p))
                    .collect::<Vec<_>>()
            };
            let before = snapshot(&fs);
            let err = rs.put_prepared("pod0", 2, PreparedPut::Chunked(prepared));
            assert!(matches!(err, Err(MissingChunk(_))), "k = {k}");
            // Neither a log record nor the carried chunk nor a manifest.
            assert_eq!(snapshot(&fs), before, "k = {k}: the put wrote");
        }
    }

    #[test]
    fn corrupt_record_count_never_preallocates_past_the_input() {
        // A put record claiming u32::MAX blobs over a few bytes of input:
        // the decoder reserves at most what the input could fill, and
        // rejects the record.
        let mut payload = Vec::new();
        put_str(&mut payload, "pod0");
        payload.extend_from_slice(&1u64.to_le_bytes());
        put_bytes(&mut payload, &[]);
        payload.extend_from_slice(&[0; 16]);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(LogOp::decode_payload(1, &payload), None);
        assert_eq!(
            Cur::new(&payload[..4]).vec_for::<u8>(u32::MAX).capacity(),
            4
        );
    }
}
