//! Replica maintenance: log compaction and scrub/repair. Both rebuild
//! replicas by wipe + replay-from-empty, the one true constructor of
//! replica state.

use std::collections::BTreeSet;

use super::{
    apply_op, encode_record, log_header, read_log, CompactReport, LogOp, ReplicatedStore,
    ScrubReport,
};
use crate::chunk::ChunkId;
use crate::digest;
use crate::store;

impl ReplicatedStore {
    // ---- compaction -----------------------------------------------------

    /// Rewrites every live replica's log (and tree) to the minimal
    /// self-contained form that reconstructs its current contents: one
    /// put per pod image still on disk plus one commit record per
    /// committed epoch, in epoch order.
    ///
    /// The append-only log otherwise retains every historical put's blob
    /// bytes forever — discarded and pruned epochs included — so a
    /// long-running job's write amplification grows with history, not
    /// state. Compaction caps it at ≈2k (k store trees + k minimal logs);
    /// the floor is 2k rather than k because the log must keep carrying
    /// the retained epochs' blobs — wipe + replay-from-empty is scrub's
    /// one true constructor of replica state.
    ///
    /// Each live replica is rebuilt by wipe + replay of the synthesized
    /// log, so the post-compaction invariant is exactly scrub's: log
    /// bytes equal ⇒ trees byte-identical. Dead replicas keep their stale
    /// logs until scrub revives them; the scrub election ranks newest
    /// commit epoch above log length precisely so a freshly compacted
    /// (short) log still outranks a stale replica's longer history. A
    /// maintenance pass, not a logical store op: nothing is appended to
    /// the log and the replica fault points do not fire. No-op at `k = 1`.
    pub fn compact_logs(&self) -> CompactReport {
        if self.k == 1 {
            return CompactReport::default();
        }
        let alive = self.alive_replicas();
        let Some(&primary) = alive.first() else {
            return CompactReport::default();
        };
        let (old_ops, old_len) = read_log(&self.fs, &self.log_path(primary));
        let ops = self.synthesize_ops(primary);
        let mut log = log_header();
        for op in &ops {
            log.extend_from_slice(&encode_record(op));
        }
        for &r in &alive {
            self.wipe_replica(r);
            self.replay_log(r, &log);
        }
        CompactReport {
            compacted: alive,
            ops_before: old_ops.len(),
            ops_after: ops.len(),
            bytes_reclaimed: old_len.saturating_sub(log.len() as u64),
        }
    }

    /// The minimal op sequence whose replay-from-empty reconstructs
    /// replica `r`'s current tree: for each epoch still on disk
    /// (ascending) the put of every pod image present, then its commit
    /// record if committed. Chunk blobs ride with the first put that
    /// references them, exactly as a live [`ReplicatedStore::put_prepared`]
    /// would have logged them against an empty store, so the synthesized
    /// log is self-contained.
    fn synthesize_ops(&self, r: usize) -> Vec<LogOp> {
        let store = self.replica(r);
        let committed: BTreeSet<u64> = store.committed_epochs().into_iter().collect();
        let mut epochs: Vec<u64> = store.uncommitted_epochs();
        epochs.extend(committed.iter().copied());
        epochs.sort_unstable();
        epochs.dedup();
        let mut emitted: BTreeSet<ChunkId> = BTreeSet::new();
        let mut ops = Vec::new();
        for &epoch in &epochs {
            let mut pods = store.pods_in_epoch(epoch);
            pods.sort();
            pods.dedup();
            for pod in pods {
                let Some(manifest) = self.fs.read_file(&store.manifest_path(&pod, epoch)) else {
                    continue;
                };
                // An image missing its digest sidecar is torn state no
                // quorum read will ever serve; drop it rather than
                // synthesize a sidecar the bytes never earned.
                let Some(image) = store.read_digest(&pod, epoch) else {
                    continue;
                };
                let mut blobs = Vec::new();
                if let Some((_, recs)) = store::decode_manifest(&manifest) {
                    for (id, _, _) in recs {
                        if emitted.insert(id) {
                            if let Some(body) = self.fs.read_file(&store.chunk_path(id)) {
                                blobs.push((id, body));
                            }
                        }
                    }
                }
                ops.push(LogOp::PutChunked {
                    pod,
                    epoch,
                    manifest,
                    image,
                    blobs,
                });
            }
            if committed.contains(&epoch) {
                ops.push(LogOp::Commit { epoch });
            }
        }
        ops
    }

    // ---- scrub ----------------------------------------------------------

    /// Digest of replica `r`'s entire store tree (every path and byte
    /// under its `/ckpt/<job>/` prefix). Two replicas with equal tree
    /// digests hold byte-identical checkpoint state.
    pub fn tree_digest(&self, r: usize) -> u64 {
        let root = Self::replica_root(r);
        let prefix = format!("{}/ckpt/{}/", root, self.job);
        let mut h = digest::OFFSET;
        for path in self.fs.list(&prefix) {
            let rel = path.strip_prefix(&root).unwrap_or(&path);
            h = digest::fold_u64(h, rel.len() as u64);
            h = digest::fold(h, rel.as_bytes());
            let bytes = self.fs.read_file(&path).unwrap_or_default();
            h = digest::fold_u64(h, bytes.len() as u64);
            h = digest::fold(h, &bytes);
        }
        h
    }

    pub(super) fn wipe_replica(&self, r: usize) {
        let root = Self::replica_root(r);
        for path in self.fs.list(&format!("{}/ckpt/{}/", root, self.job)) {
            self.fs.remove(&path);
        }
        self.fs.remove(&self.log_path(r));
    }

    pub(super) fn replay_log(&self, r: usize, log_bytes: &[u8]) {
        self.fs.write_file(&self.log_path(r), log_bytes.to_vec());
        let (ops, _) = read_log(&self.fs, &self.log_path(r));
        let store = self.replica(r);
        for op in ops {
            apply_op(&store, op, None);
        }
    }

    /// Compares replica logs and tree digests, elects a reference replica
    /// by `(newest committed epoch in the valid log prefix, op count)` —
    /// ties to the lowest index — rebuilds it canonically (wipe + replay
    /// its own valid log prefix, which also truncates any torn tail and
    /// reclaims unlogged stranded bytes), and rebuilds every diverging
    /// replica from the reference log. Crashed replicas are revived:
    /// after repair they hold the reference state and rejoin the
    /// read/write set.
    ///
    /// Commit history outranks raw length so that a live replica whose
    /// log was compacted (short, but current) can never lose the election
    /// to a replica that died before compaction holding a longer — but
    /// staler — history, which would silently roll back committed epochs.
    pub fn scrub_and_repair(&self) -> ScrubReport {
        if self.k == 1 {
            return ScrubReport::default();
        }
        let mut reference = 0;
        let mut best: Option<(u64, usize)> = None;
        for r in 0..self.k {
            let (ops, _) = read_log(&self.fs, &self.log_path(r));
            let newest_commit = ops
                .iter()
                .filter_map(|op| match op {
                    LogOp::Commit { epoch } => Some(*epoch),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let key = (newest_commit, ops.len());
            if best.is_none_or(|b| key > b) {
                best = Some(key);
                reference = r;
            }
        }
        let (_, valid) = read_log(&self.fs, &self.log_path(reference));
        let ref_log = self
            .fs
            .read_file(&self.log_path(reference))
            .map(|b| b[..valid as usize].to_vec())
            .unwrap_or_else(log_header);
        // Canonical rebuild of the reference itself: wipe + replay is the
        // one true constructor, so even a reference whose *tree* was
        // corrupted (torn chunk bodies under an intact log) converges to
        // the state its log dictates.
        self.wipe_replica(reference);
        self.replay_log(reference, &ref_log);
        let want = self.tree_digest(reference);
        let mut repaired = Vec::new();
        for r in 0..self.k {
            if r == reference {
                continue;
            }
            let r_log = self.fs.read_file(&self.log_path(r)).unwrap_or_default();
            if r_log != ref_log || self.tree_digest(r) != want {
                self.wipe_replica(r);
                self.replay_log(r, &ref_log);
                repaired.push(r);
            }
        }
        ScrubReport {
            reference,
            repaired,
            revived: self.faults.revive_all().into_iter().collect(),
        }
    }
}
