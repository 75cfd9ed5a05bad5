//! Chunk reference counting: the job's `chunks/REFS` table, reference
//! release on epoch discard, and the orphan-chunk audit and collection.

use std::collections::{BTreeMap, BTreeSet};

use zap::image::{ImageError, ImageReader, ImageWriter};

use super::{decode_manifest, CheckpointStore, REFS_MAGIC, STORE_VERSION};
use crate::chunk::ChunkId;

impl CheckpointStore {
    /// Releases one reference per record of `manifest`, deleting chunks
    /// whose count reaches zero.
    pub(super) fn release_manifest(&self, manifest: &[u8]) {
        let Some((_, recs)) = decode_manifest(manifest) else {
            return;
        };
        let mut refs = self.read_refs();
        for (id, _, _) in recs {
            match refs.get_mut(&id) {
                Some(count) if *count > 1 => *count -= 1,
                _ => {
                    refs.remove(&id);
                    self.fs.remove(&self.chunk_path(id));
                }
            }
        }
        self.write_refs(&refs);
    }

    pub(crate) fn read_refs(&self) -> BTreeMap<ChunkId, u64> {
        let Some(bytes) = self.fs.read_file(&self.refs_path()) else {
            return BTreeMap::new();
        };
        let mut refs = BTreeMap::new();
        let Ok(mut r) = ImageReader::verify(&bytes) else {
            return refs;
        };
        let ok = (|| -> Result<(), ImageError> {
            if r.u32()? != REFS_MAGIC || r.u16()? != STORE_VERSION {
                return Ok(());
            }
            let n = r.u32()?;
            for _ in 0..n {
                let id = ChunkId(r.u64()?, r.u64()?);
                let count = r.u64()?;
                refs.insert(id, count);
            }
            Ok(())
        })();
        if ok.is_err() {
            refs.clear();
        }
        refs
    }

    pub(crate) fn write_refs(&self, refs: &BTreeMap<ChunkId, u64>) {
        if refs.is_empty() {
            self.fs.remove(&self.refs_path());
            return;
        }
        let mut w = ImageWriter::new();
        w.u32(REFS_MAGIC);
        w.u16(STORE_VERSION);
        w.u32(refs.len() as u32);
        for (id, count) in refs {
            w.u64(id.0);
            w.u64(id.1);
            w.u64(*count);
        }
        self.fs.write_file(&self.refs_path(), w.finish());
    }

    /// Every chunk file currently stored for the job, ascending by id.
    pub fn live_chunks(&self) -> Vec<ChunkId> {
        let prefix = format!("{}/ckpt/{}/chunks/", self.root, self.job);
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
        let mut referenced = BTreeSet::new();
        for e in self.all_epochs() {
            referenced.extend(self.chunks_referenced_by(e));
        }
        self.live_chunks()
            .into_iter()
            .filter(|id| !referenced.contains(id))
            .collect()
    }

    /// Deletes orphan chunk files and scrubs their refcount entries (and
    /// any refcount entry whose chunk file is gone). Returns the number of
    /// chunk files reclaimed.
    pub fn gc_orphan_chunks(&self) -> usize {
        let orphans = self.orphan_chunks();
        let mut refs = self.read_refs();
        for id in &orphans {
            self.fs.remove(&self.chunk_path(*id));
            refs.remove(id);
        }
        refs.retain(|id, _| self.fs.exists(&self.chunk_path(*id)));
        self.write_refs(&refs);
        orphans.len()
    }

    /// Chunk ids referenced by an epoch's manifests (deduplicated).
    pub fn chunks_referenced_by(&self, epoch: u64) -> BTreeSet<ChunkId> {
        let prefix = format!("{}/ckpt/{}/epoch{:08}/", self.root, self.job, epoch);
        let mut ids = BTreeSet::new();
        for path in self.fs.list(&prefix) {
            if !path.ends_with(".manifest") {
                continue;
            }
            let Some(manifest) = self.fs.read_file(&path) else {
                continue;
            };
            let Some((_, recs)) = decode_manifest(&manifest) else {
                continue;
            };
            ids.extend(recs.into_iter().map(|(id, _, _)| id));
        }
        ids
    }
}
