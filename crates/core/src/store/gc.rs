//! Chunk liveness: the manifests are the one record of which chunks are
//! live. A chunk is live while some manifest of the job names it; an
//! epoch discard deletes the chunks only its own manifests named, and the
//! orphan audit finds chunks no manifest names at all.

use std::collections::BTreeSet;

use super::{decode_manifest, CheckpointStore};
use crate::chunk::ChunkId;

impl CheckpointStore {
    /// Deletes each chunk of `released` that no surviving manifest names.
    /// Runs after the discarded epoch's files are gone, so its own
    /// manifests no longer count.
    pub(super) fn release_chunks(&self, released: &BTreeSet<ChunkId>) {
        if released.is_empty() {
            return;
        }
        let live = self.named_chunks(&self.epochs_prefix());
        for id in released.difference(&live) {
            self.fs.remove(&self.chunk_path(*id));
        }
    }

    /// Every chunk file currently stored for the job, ascending by id.
    pub fn live_chunks(&self) -> Vec<ChunkId> {
        let prefix = format!("{}/", self.chunk_dir());
        self.fs
            .list(&prefix)
            .into_iter()
            .filter_map(|p| {
                let name = p.strip_prefix(&prefix)?.strip_suffix(".c")?;
                if name.len() != 32 {
                    return None;
                }
                let (lo, hi) = name.split_at(16);
                Some(ChunkId(
                    u64::from_str_radix(lo, 16).ok()?,
                    u64::from_str_radix(hi, 16).ok()?,
                ))
            })
            .collect()
    }

    /// Chunk files referenced by **no** epoch's manifest — garbage left by
    /// a write that persisted chunks but never landed (or lost) its
    /// manifest, e.g. a torn disk write or a node crash between the two.
    /// A healthy store always returns an empty set.
    pub fn orphan_chunks(&self) -> Vec<ChunkId> {
        let named = self.named_chunks(&self.epochs_prefix());
        self.live_chunks()
            .into_iter()
            .filter(|id| !named.contains(id))
            .collect()
    }

    /// Deletes orphan chunk files, and the `chunks/REFS` refcount table an
    /// older store kept (manifests alone now decide liveness). Returns the
    /// number of chunk files reclaimed.
    pub fn gc_orphan_chunks(&self) -> usize {
        self.fs.remove(&format!("{}/REFS", self.chunk_dir()));
        let orphans = self.orphan_chunks();
        for id in &orphans {
            self.fs.remove(&self.chunk_path(*id));
        }
        orphans.len()
    }

    /// Chunk ids referenced by an epoch's manifests (deduplicated).
    pub fn chunks_referenced_by(&self, epoch: u64) -> BTreeSet<ChunkId> {
        self.named_chunks(&format!(
            "{}/ckpt/{}/epoch{:08}/",
            self.root, self.job, epoch
        ))
    }

    /// The path prefix every epoch directory of the job shares.
    fn epochs_prefix(&self) -> String {
        format!("{}/ckpt/{}/epoch", self.root, self.job)
    }

    /// Chunk ids named by the manifests whose paths start with `prefix`.
    fn named_chunks(&self, prefix: &str) -> BTreeSet<ChunkId> {
        let mut ids = BTreeSet::new();
        for path in self.fs.list(prefix) {
            if !path.ends_with(".manifest") {
                continue;
            }
            let recs = self.fs.with_view(|files| {
                files
                    .file(&path)
                    .and_then(decode_manifest)
                    .map(|(_, recs)| recs)
            });
            ids.extend(recs.into_iter().flatten().map(|(id, _, _)| id));
        }
        ids
    }
}
