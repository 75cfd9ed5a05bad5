//! Epoch-granular page-digest cache: chunk names and containers for clean
//! pages.
//!
//! Capture no longer uses this module. Since the image seal names every
//! chunk range in its single hash pass (`PodImage::seal_named` and
//! [`CheckpointStore::prepare_sealed`]), a clean page costs capture
//! nothing a cache could save. The module stays for the benchmark's
//! layer replay, which measures it; it goes when that replay does.
//!
//! * [`page_hints`] labels each page-payload cut of a serialized
//!   [`PodImage`] with a stable identity (`(group index, page address)`) and
//!   a *clean* bit derived from the per-space dirty set the capture path
//!   maintains (every capture clears the dirty set, so "not dirty at
//!   capture" means "byte-identical to the previous capture").
//! * [`DigestCache`] remembers, per pod and page identity, the chunk ids
//!   the previous prepare computed and the containers it encoded.
//! * [`CheckpointStore::prepare_chunked_hinted`] reuses those ids for
//!   clean pages, folds everything else on the [`crate::parpool`] worker
//!   pool, and hands the names to the store's one chunked prepare, which
//!   takes a remembered container for a chunk the store lacks instead of
//!   encoding it again. Its [`PreparedChunked`] is **byte-identical** to
//!   the reference path's.
//!
//! # Determinism argument
//!
//! The hinted path never changes *what* is produced, only how many folds
//! and encodes produce it. Chunk ranges are identical (same cuts, same
//! `split_ranges`). For a cache hit, the cut's raw bytes equal the
//! previous capture's bytes (the clean bit), so the remembered `ChunkId`
//! is exactly what re-hashing would yield, and the remembered container
//! is what encoding them under the same config would yield (a config
//! change clears the cache). Folded ranges go through the pool's ordered
//! merge. Novelty and stored-length accounting are the shared prepare's.
//! The equivalence is pinned by the `hotpath_properties` and
//! `parallel_properties` twin-path proptests, and any doubt about a hint
//! degrades safely: an unrecognized cut layout or a dirty/unkeyed page
//! just takes the fold.
//!
//! Cache entries are only ever trusted for one epoch step: each prepare
//! replaces the pod's entry map wholesale.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use zap::image::PodImage;

use crate::chunk::{self, ChunkId};
use crate::parpool::Pool;
use crate::store::{CheckpointStore, PreparedChunked, StoreConfig};

/// Stable identity of a page payload across epochs: `(group index within
/// the image, guest page address)`.
pub type PageKey = (u32, u64);

/// One page-payload cut of a serialized image, labeled for the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHint {
    /// Byte offset of the cut within the serialized image.
    pub offset: usize,
    /// Length of the cut.
    pub len: usize,
    /// Stable page identity, if this cut is a trackable private page.
    /// `None` (shared-memory segments, unrecognized layouts) always takes
    /// the compute path.
    pub key: Option<PageKey>,
    /// True iff the page was not written since the previous capture, per
    /// the kernel's dirty tracking. Only `clean` pages may reuse cache
    /// entries.
    pub clean: bool,
}

/// Labels the page cuts of `img` (as returned by
/// `PodImage::encode_with_page_cuts`) with identities and clean bits.
///
/// The encoder emits one cut per shared-memory segment (in `img.shm`
/// order) followed by one cut per page (groups in `img.groups` order,
/// pages in each group's stored order); `dirty[g]` is group `g`'s
/// dirty-page set as of this capture. If the cut count does not match that
/// layout the function falls back to keyless hints, which makes the hinted
/// prepare path equivalent to the reference path rather than wrong.
pub fn page_hints(
    img: &PodImage,
    cuts: &[(usize, usize)],
    dirty: &[BTreeSet<u64>],
) -> Vec<PageHint> {
    let expected = img.shm.len() + img.groups.iter().map(|g| g.pages.len()).sum::<usize>();
    if cuts.len() != expected || dirty.len() != img.groups.len() {
        return cuts
            .iter()
            .map(|&(offset, len)| PageHint {
                offset,
                len,
                key: None,
                clean: false,
            })
            .collect();
    }
    // Labels in cut order: shm segments first (keyless), then every
    // group's pages. The count check above guarantees the zip is exact.
    let mut labels: Vec<(Option<PageKey>, bool)> = Vec::with_capacity(expected);
    labels.resize(img.shm.len(), (None, false));
    for (gi, g) in img.groups.iter().enumerate() {
        for &(addr, _) in &g.pages {
            labels.push(((Some((gi as u32, addr))), !dirty[gi].contains(&addr)));
        }
    }
    cuts.iter()
        .zip(labels)
        .map(|(&(offset, len), (key, clean))| PageHint {
            offset,
            len,
            key,
            clean,
        })
        .collect()
}

/// What the previous prepare made of one chunk range of a page cut.
#[derive(Debug, Clone)]
struct CachedChunk {
    id: ChunkId,
    seg_len: usize,
    /// The chunk's container, if that prepare encoded it (the store lacked
    /// it); a chunk found on disk was never encoded.
    stored: Option<Arc<[u8]>>,
}

/// Per-job page-digest cache: the chunk names and containers of each
/// pod's most recent prepare.
#[derive(Debug, Default)]
pub struct DigestCache {
    /// The store config the entries were computed under; a config change
    /// clears the cache.
    /// The thread count is deliberately **not** part of the key: it never
    /// changes produced bytes, so cached entries survive it.
    cfg: Option<(usize, bool)>,
    pods: BTreeMap<String, BTreeMap<PageKey, Vec<CachedChunk>>>,
    hits: u64,
    misses: u64,
}

impl DigestCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunk ranges served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Chunk ranges computed fresh since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn ensure_cfg(&mut self, cfg: &StoreConfig) {
        let want = (cfg.chunk_bytes, cfg.compress);
        if self.cfg != Some(want) {
            self.pods.clear();
            self.cfg = Some(want);
        }
    }
}

impl CheckpointStore {
    /// [`CheckpointStore::prepare_chunked`] with a page-digest cache:
    /// produces a byte-identical [`PreparedChunked`], but chunk ranges
    /// covered by a clean, keyed [`PageHint`] reuse the id remembered from
    /// the pod's previous prepare instead of re-hashing, and the ranges
    /// that *are* hashed fan out across the worker pool. The cut list is
    /// `hints` itself (each hint's `(offset, len)`), so callers pass the
    /// same page cuts they would hand the reference path.
    pub fn prepare_chunked_hinted(
        &self,
        raw: &[u8],
        hints: &[PageHint],
        cfg: &StoreConfig,
        pod_name: &str,
        cache: &mut DigestCache,
    ) -> PreparedChunked {
        cache.ensure_cfg(cfg);
        let cuts: Vec<(usize, usize)> = hints.iter().map(|h| (h.offset, h.len)).collect();
        let ranges = chunk::split_ranges(raw.len(), &cuts, cfg.chunk_bytes);
        let prev = cache.pods.remove(pod_name).unwrap_or_default();

        // Serve every clean, keyed cut whose remembered entry still
        // matches its range layout; everything else is owed a fold.
        let mut ids: Vec<Option<ChunkId>> = vec![None; ranges.len()];
        let mut reused: Vec<Option<Arc<[u8]>>> = vec![None; ranges.len()];
        let mut keyed: Vec<(PageKey, usize, usize)> = Vec::new();
        let mut ri = 0;
        let mut hi = 0;
        while ri < ranges.len() {
            let (start, len) = ranges[ri];
            while hi < hints.len() && hints[hi].offset + hints[hi].len <= start {
                hi += 1;
            }
            let in_hint = hi < hints.len()
                && start >= hints[hi].offset
                && start + len <= hints[hi].offset + hints[hi].len;
            if !in_hint {
                // Metadata between cuts: no stable identity, always folded
                // and never counted against the cache.
                ri += 1;
                continue;
            }
            // All ranges of this cut, processed as one unit so a cache hit
            // can substitute for the cut's whole chunk sequence.
            let hint = hints[hi];
            let cut_end = hint.offset + hint.len;
            let mut rj = ri;
            while rj < ranges.len() && ranges[rj].0 < cut_end {
                rj += 1;
            }
            let cut_ranges = &ranges[ri..rj];
            let cached = if hint.clean {
                hint.key.and_then(|k| prev.get(&k)).filter(|entry| {
                    entry.len() == cut_ranges.len()
                        && entry
                            .iter()
                            .zip(cut_ranges)
                            .all(|(c, &(_, l))| c.seg_len == l)
                })
            } else {
                None
            };
            match cached {
                Some(entry) => {
                    cache.hits += (rj - ri) as u64;
                    for (r, c) in (ri..rj).zip(entry) {
                        ids[r] = Some(c.id);
                        reused[r] = c.stored.clone();
                    }
                }
                None => cache.misses += (rj - ri) as u64,
            }
            if let Some(k) = hint.key {
                keyed.push((k, ri, rj));
            }
            ri = rj;
        }

        // Fold the rest on the pool, in range order.
        let owed: Vec<(usize, usize)> = ranges
            .iter()
            .zip(&ids)
            .filter(|(_, id)| id.is_none())
            .map(|(&r, _)| r)
            .collect();
        let pool = Pool::new(self.threads_for(cfg));
        let mut folded = pool
            .map_ordered(owed, || (), |_, (s, l)| chunk::name(&raw[s..s + l]))
            .into_iter();
        let ids: Vec<ChunkId> = ids
            .into_iter()
            .zip(&ranges)
            .map(|(id, &(s, l))| {
                // One fold per owed range by construction; fold again
                // rather than ever misname a range.
                id.or_else(|| folded.next())
                    .unwrap_or_else(|| chunk::name(&raw[s..s + l]))
            })
            .collect();

        // A served range's remembered container stands in for encoding it
        // if the store lacks the chunk.
        let prepared = self.prepare_named(raw, &ranges, &ids, ChunkId::of(raw), cfg, |r| {
            reused[r].as_deref().map(<[u8]>::to_vec)
        });

        // Wholesale replacement: entries are only ever trusted for exactly
        // one epoch step (the clean bit's guarantee covers nothing older).
        // A range keeps its served container, or else takes the one this
        // prepare encoded for it.
        let next = keyed
            .into_iter()
            .map(|(k, ri, rj)| {
                let entry = (ri..rj)
                    .map(|r| CachedChunk {
                        id: ids[r],
                        seg_len: ranges[r].1,
                        stored: reused[r]
                            .take()
                            .or_else(|| prepared.chunks[r].stored.as_deref().map(Arc::from)),
                    })
                    .collect();
                (k, entry)
            })
            .collect();
        cache.pods.insert(pod_name.to_string(), next);
        prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::fs::NetFs;

    fn cfg() -> StoreConfig {
        StoreConfig {
            chunk_bytes: 256,
            dedup: true,
            compress: true,
            ..StoreConfig::default()
        }
    }

    /// A two-"page" toy image with 256-byte pages at fixed offsets.
    fn toy(pages: &[&[u8]]) -> (Vec<u8>, Vec<PageHint>) {
        let mut raw = vec![0xEEu8; 16]; // header metadata
        let mut hints = Vec::new();
        for (i, p) in pages.iter().enumerate() {
            hints.push(PageHint {
                offset: raw.len(),
                len: p.len(),
                key: Some((0, i as u64 * 0x1000)),
                clean: false,
            });
            raw.extend_from_slice(p);
        }
        raw.extend_from_slice(&[0xDD; 7]); // trailer metadata
        (raw, hints)
    }

    #[test]
    fn hinted_prepare_matches_reference_and_skips_clean_pages() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let mut cache = DigestCache::new();
        let page_a = vec![0x11u8; 256];
        let page_b: Vec<u8> = (0..256).map(|i| (i % 7) as u8).collect();
        let (raw1, hints1) = toy(&[&page_a, &page_b]);
        let cuts1: Vec<(usize, usize)> = hints1.iter().map(|h| (h.offset, h.len)).collect();
        let h1 = s.prepare_chunked_hinted(&raw1, &hints1, &cfg(), "p", &mut cache);
        let r1 = s.prepare_chunked(&raw1, &cuts1, &cfg());
        assert_eq!(h1.manifest, r1.manifest);
        assert_eq!(cache.hits(), 0, "first epoch has nothing to reuse");
        s.put_prepared("p", 1, crate::store::PreparedPut::Chunked(h1))
            .unwrap();

        // Second epoch: page B rewritten, page A clean.
        let page_b2 = vec![0x55u8; 256];
        let (raw2, mut hints2) = toy(&[&page_a, &page_b2]);
        hints2[0].clean = true;
        let cuts2: Vec<(usize, usize)> = hints2.iter().map(|h| (h.offset, h.len)).collect();
        let h2 = s.prepare_chunked_hinted(&raw2, &hints2, &cfg(), "p", &mut cache);
        let r2 = s.prepare_chunked(&raw2, &cuts2, &cfg());
        assert_eq!(h2.manifest, r2.manifest, "hinted path is byte-identical");
        assert_eq!(h2.novel_count(), r2.novel_count());
        assert!(cache.hits() > 0, "the clean page was served from cache");
        let round = s
            .get_image("p", 1)
            .expect("epoch 1 reconstructs from hinted chunks");
        assert_eq!(round, raw1);
    }

    #[test]
    fn config_change_clears_the_cache() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let mut cache = DigestCache::new();
        let page = vec![3u8; 256];
        let (raw, mut hints) = toy(&[&page]);
        s.prepare_chunked_hinted(&raw, &hints, &cfg(), "p", &mut cache);
        hints[0].clean = true;
        let other = StoreConfig {
            compress: false,
            ..cfg()
        };
        // Same pod, same clean page, different codec: must recompute.
        let h = s.prepare_chunked_hinted(&raw, &hints, &other, "p", &mut cache);
        let r = s.prepare_chunked(
            &raw,
            &hints.iter().map(|h| (h.offset, h.len)).collect::<Vec<_>>(),
            &other,
        );
        assert_eq!(h.manifest, r.manifest);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn thread_count_change_keeps_the_cache() {
        // The worker count is a wall-clock knob, not a bytes knob: a clean
        // page cached under one thread count must still hit under another.
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let mut cache = DigestCache::new();
        let page = vec![3u8; 256];
        let (raw, mut hints) = toy(&[&page]);
        let serial = StoreConfig {
            threads: 1,
            ..cfg()
        };
        let wide = StoreConfig {
            threads: 4,
            ..cfg()
        };
        s.prepare_chunked_hinted(&raw, &hints, &serial, "p", &mut cache);
        hints[0].clean = true;
        let h = s.prepare_chunked_hinted(&raw, &hints, &wide, "p", &mut cache);
        let r = s.prepare_chunked(
            &raw,
            &hints.iter().map(|h| (h.offset, h.len)).collect::<Vec<_>>(),
            &serial,
        );
        assert_eq!(h.manifest, r.manifest);
        assert!(cache.hits() > 0, "entries survive a thread-count change");
    }

    #[test]
    fn stale_or_mismatched_hints_fall_back_to_compute() {
        let fs = NetFs::new();
        let s = CheckpointStore::new(fs, "j");
        let mut cache = DigestCache::new();
        let page = vec![9u8; 256];
        let (raw, mut hints) = toy(&[&page]);
        // Claiming clean with no prior entry: computed fresh, identically.
        hints[0].clean = true;
        let h = s.prepare_chunked_hinted(&raw, &hints, &cfg(), "p", &mut cache);
        let r = s.prepare_chunked(
            &raw,
            &hints.iter().map(|h| (h.offset, h.len)).collect::<Vec<_>>(),
            &cfg(),
        );
        assert_eq!(h.manifest, r.manifest);
        // Keyless hints (the defensive fallback) also match the reference.
        let keyless: Vec<PageHint> = hints
            .iter()
            .map(|h| PageHint {
                key: None,
                clean: false,
                ..*h
            })
            .collect();
        let h2 = s.prepare_chunked_hinted(&raw, &keyless, &cfg(), "p", &mut cache);
        assert_eq!(h2.manifest, r.manifest);
    }
}
