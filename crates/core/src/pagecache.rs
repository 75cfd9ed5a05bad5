//! Epoch-granular page-digest cache for the dedup capture path.
//!
//! Steady-state checkpoint epochs touch a small fraction of a pod's pages,
//! yet the reference [`CheckpointStore::prepare_chunked`] re-hashes and
//! re-encodes every page of every image each epoch. This module skips that
//! work for pages the kernel's dirty tracking proves untouched since the
//! previous capture:
//!
//! * [`page_hints`] labels each page-payload cut of a serialized
//!   [`PodImage`] with a stable identity (`(group index, page address)`) and
//!   a *clean* bit derived from the per-space dirty set the capture path
//!   already maintains (every capture clears the dirty set, so "not dirty
//!   at capture" means "byte-identical to the previous capture").
//! * [`DigestCache`] remembers, per pod and page identity, the chunk ids
//!   and encoded containers the previous capture produced.
//! * [`CheckpointStore::prepare_chunked_hinted`] reuses those entries for
//!   clean pages and computes everything else fresh — the compute ranges
//!   fan out across the [`crate::parpool`] worker pool (each worker with
//!   its own `CodecScratch`, each range through the `is_zero_page` fast
//!   path), while cache hits skip the pool entirely — producing a
//!   [`PreparedChunked`] **byte-identical** to the reference path's.
//!
//! # Determinism argument
//!
//! The hinted path never changes *what* is produced, only *how much work*
//! (and on how many threads) produces it. Chunk ranges are identical (same
//! cuts, same `split_ranges`). For a cache hit, the cut's raw bytes equal
//! the previous capture's bytes (the clean bit), so the remembered
//! `ChunkId` and encoded container are exactly what re-hashing and
//! re-encoding would yield. Computed ranges go through the pool's ordered
//! merge, so their sequence is the input sequence at every thread count.
//! Novelty and stored-length accounting always consult the live
//! filesystem, in range order, on the calling thread — identically on both
//! paths. The equivalence is pinned by the `hotpath_properties` and
//! `parallel_properties` twin-path proptests, and any doubt about a hint
//! degrades safely: an unrecognized cut layout or a dirty/unkeyed page
//! just takes the compute path.
//!
//! Cache entries are only ever trusted for one epoch step: each prepare
//! replaces the pod's entry map wholesale, and the cluster invalidates a
//! job's cache whenever pod memory changes outside a completed capture
//! (restores, migrations, aborted COW drains).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use zap::image::{ImageWriter, PodImage, Sealed};

use crate::chunk::{self, ChunkId};
use crate::parpool::Pool;
use crate::store::{
    encode_ranges, CheckpointStore, PreparedChunked, StoreConfig, MANIFEST_MAGIC, STORE_VERSION,
};

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

/// What the previous capture produced for one chunk range of a page cut.
#[derive(Debug, Clone)]
struct CachedChunk {
    id: ChunkId,
    seg_len: usize,
    stored: Arc<[u8]>,
}

/// Per-job page-digest cache: remembered chunk work from each pod's most
/// recent prepare.
#[derive(Debug, Default)]
pub struct DigestCache {
    /// The store config the entries were computed under; a config change
    /// clears the cache (different chunking or codec → different bytes).
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

    /// Drops every remembered entry (the big hammer the cluster swings
    /// whenever pod memory may have changed outside a completed capture).
    pub fn clear(&mut self) {
        self.pods.clear();
    }

    /// Drops one pod's remembered entries (e.g. after a migration restores
    /// that pod from an older epoch).
    pub fn invalidate_pod(&mut self, pod_name: &str) {
        self.pods.remove(pod_name);
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

/// One unit of the hinted prepare, in image order, as classified by the
/// plan pass: either served from the cache or owed to the compute pool.
enum PlanStep {
    /// Metadata between cuts: a single range, always computed, never
    /// counted against the cache (it has no stable identity — its content
    /// shifts with the image layout).
    Meta { ri: usize },
    /// A clean, keyed cut whose remembered entry still matches its range
    /// layout: chunk ids and containers reused as-is.
    CutHit {
        ri: usize,
        rj: usize,
        key: Option<PageKey>,
        entry: Vec<CachedChunk>,
    },
    /// A cut that must be (re)computed: dirty, unkeyed, or cache-missed.
    CutCompute {
        ri: usize,
        rj: usize,
        key: Option<PageKey>,
    },
}

impl CheckpointStore {
    /// [`CheckpointStore::prepare_chunked`] with a page-digest cache:
    /// produces a byte-identical [`PreparedChunked`], but chunk ranges
    /// covered by a clean, keyed [`PageHint`] reuse the id and encoded
    /// container remembered from the pod's previous prepare instead of
    /// re-hashing and re-encoding, and the ranges that *are* computed fan
    /// out across the worker pool. The cut list is `hints` itself (each
    /// hint's `(offset, len)`), so callers pass the same page cuts they
    /// would hand the reference path.
    ///
    /// Three passes: **plan** (classify every range as cache-hit or
    /// compute — pure bookkeeping), **encode** (the compute ranges through
    /// `encode_ranges`' ordered pool merge), **merge** (manifest records,
    /// filesystem novelty accounting and cache replacement, serially in
    /// image order).
    pub fn prepare_chunked_hinted(
        &self,
        raw: &[u8],
        hints: &[PageHint],
        cfg: &StoreConfig,
        pod_name: &str,
        cache: &mut DigestCache,
    ) -> PreparedChunked {
        self.prepare_hinted(raw, ChunkId::of(raw), hints, cfg, pod_name, cache)
    }

    /// [`CheckpointStore::prepare_chunked_hinted`] for an image sealed by
    /// its encoder: the whole-image digest the sidecar pins comes from the
    /// seal instead of another pass over the bytes.
    pub fn prepare_sealed_hinted(
        &self,
        image: &Sealed,
        hints: &[PageHint],
        cfg: &StoreConfig,
        pod_name: &str,
        cache: &mut DigestCache,
    ) -> PreparedChunked {
        let digest = image.digest().into();
        self.prepare_hinted(image.bytes(), digest, hints, cfg, pod_name, cache)
    }

    fn prepare_hinted(
        &self,
        raw: &[u8],
        raw_digest: ChunkId,
        hints: &[PageHint],
        cfg: &StoreConfig,
        pod_name: &str,
        cache: &mut DigestCache,
    ) -> PreparedChunked {
        cache.ensure_cfg(cfg);
        let cuts: Vec<(usize, usize)> = hints.iter().map(|h| (h.offset, h.len)).collect();
        let ranges = chunk::split_ranges(raw.len(), &cuts, cfg.chunk_bytes);
        let prev = cache.pods.remove(pod_name).unwrap_or_default();

        // ---- plan: classify ranges, collecting the compute worklist ------
        let mut steps = Vec::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
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
                steps.push(PlanStep::Meta { ri });
                work.push(ranges[ri]);
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
                Some(entry) => steps.push(PlanStep::CutHit {
                    ri,
                    rj,
                    key: hint.key,
                    entry: entry.clone(),
                }),
                None => {
                    work.extend_from_slice(cut_ranges);
                    steps.push(PlanStep::CutCompute {
                        ri,
                        rj,
                        key: hint.key,
                    });
                }
            }
            ri = rj;
        }

        // ---- encode: only the compute ranges touch the pool --------------
        let pool = Pool::new(self.threads_for(cfg));
        let encoded = encode_ranges(raw, &work, cfg.compress, &pool);

        // ---- merge: manifest + fs accounting + cache, in image order -----
        let mut enc = encoded.into_iter();
        let mut take = |s: usize, l: usize| -> (ChunkId, Arc<[u8]>) {
            enc.next().unwrap_or_else(|| {
                // One encoded result per compute range by construction;
                // recompute defensively rather than ever truncate.
                let seg = &raw[s..s + l];
                (
                    ChunkId::of(seg),
                    chunk::encode_chunk(seg, cfg.compress).into(),
                )
            })
        };
        let mut next: BTreeMap<PageKey, Vec<CachedChunk>> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        let mut chunks = Vec::with_capacity(ranges.len());
        let mut mw = ImageWriter::new();
        mw.u32(MANIFEST_MAGIC);
        mw.u16(STORE_VERSION);
        mw.u64(raw.len() as u64);
        mw.u32(ranges.len() as u32);
        for step in steps {
            match step {
                PlanStep::Meta { ri } => {
                    let (s, l) = ranges[ri];
                    let (id, stored) = take(s, l);
                    self.push_prepared(&mut mw, &mut seen, &mut chunks, id, s + l, l, stored);
                }
                PlanStep::CutHit { ri, rj, key, entry } => {
                    cache.hits += (rj - ri) as u64;
                    for (c, &(s, l)) in entry.iter().zip(&ranges[ri..rj]) {
                        self.push_prepared(
                            &mut mw,
                            &mut seen,
                            &mut chunks,
                            c.id,
                            s + l,
                            l,
                            c.stored.clone(),
                        );
                    }
                    if let Some(k) = key {
                        next.insert(k, entry);
                    }
                }
                PlanStep::CutCompute { ri, rj, key } => {
                    cache.misses += (rj - ri) as u64;
                    let mut fresh = Vec::with_capacity(rj - ri);
                    for &(s, l) in &ranges[ri..rj] {
                        let (id, stored) = take(s, l);
                        fresh.push(CachedChunk {
                            id,
                            seg_len: l,
                            stored: stored.clone(),
                        });
                        self.push_prepared(&mut mw, &mut seen, &mut chunks, id, s + l, l, stored);
                    }
                    if let Some(k) = key {
                        next.insert(k, fresh);
                    }
                }
            }
        }
        // Wholesale replacement: entries are only ever trusted for exactly
        // one epoch step (the clean bit's guarantee covers nothing older).
        cache.pods.insert(pod_name.to_string(), next);
        PreparedChunked {
            raw_len: raw.len() as u64,
            manifest: mw.finish(),
            chunks,
            raw_digest,
        }
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
        s.put_prepared("p", 1, crate::store::PreparedPut::Chunked(h1));

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
