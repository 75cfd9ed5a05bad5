//! The layer replay of a traced run: the workload's own committed images
//! and guest program, fed through each layer's public functions on their
//! own so the time each layer takes per byte (or per instruction) shows
//! apart from the rest of the cluster.
//!
//! Every replay also checks its output: images re-encode to the bytes they
//! were decoded from, stores and codecs give back what they were given, and
//! the page-cache prepare matches the reference prepare byte for byte.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use cruz::chunk::{self, ChunkId};
use cruz::pagecache::{page_hints, DigestCache, PageHint};
use cruz::replog::ReplicatedStore;
use cruz::store::{CheckpointStore, PreparedPut, StoreConfig};
use des::SimTime;
use simnet::addr::{IpAddr, MacAddr};
use simnet::tcp::TcpConfig;
use simnet::NetStack;
use simos::disk::{Disk, DiskParams};
use simos::fs::NetFs;
use simos::kernel::{Kernel, KernelParams};
use simos::program::Program;
use zap::image::PodImage;

use crate::run::Epoch;
use crate::spans::Recorder;

/// Each throughput kernel repeats until it has run at least this long.
const MIN_NS: u64 = 100_000_000;

/// Replica count of the replicated-store replay (the dedup workload's k).
const REPLICAS: usize = 3;

/// One pod image of one epoch, decoded and re-cut.
struct Image {
    pod: String,
    epoch: u64,
    raw: Vec<u8>,
    img: PodImage,
    cuts: Vec<(usize, usize)>,
    hints: Vec<PageHint>,
}

/// Per-layer results of the replay, and anything it found wrong.
#[derive(Default)]
pub struct Replay {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Bases of the ratios, for the detail report.
    pub notes: Vec<String>,
    pub problems: Vec<String>,
}

impl Replay {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(format!("replay: {what}"));
        }
    }
}

/// MB per second of `bytes` processed per call of `f`, repeating `f` for at
/// least [`MIN_NS`].
fn rate(rec: &Recorder, bytes: usize, mut f: impl FnMut()) -> f64 {
    let t0 = rec.now_ns();
    let mut passes = 0u64;
    while passes == 0 || rec.now_ns() - t0 < MIN_NS {
        f();
        passes += 1;
    }
    (bytes as f64 * passes as f64) / ((rec.now_ns() - t0) as f64 / 1e9) / 1e6
}

/// Replays `epochs` (oldest first) through zap, the plain store, the chunk
/// codec, the page-digest cache and the replicated store, and `program`
/// through the interpreter. `threads` is the workload's store worker count.
pub fn replay(epochs: &[Epoch], program: &Program, threads: usize, rec: &Recorder) -> Replay {
    let mut r = Replay::default();
    let images = decode_all(epochs, &mut r);
    let total: usize = images.iter().map(|i| i.raw.len()).sum();
    r.check(!images.is_empty(), "no committed images to replay");

    zap_layer(&images, total, rec, &mut r);
    plain_store(&images, total, rec, &mut r);
    chunk_layer(&images, rec, &mut r);
    let cfg = StoreConfig {
        threads,
        ..StoreConfig::dedup_compress()
    };
    prepare(&images, total, &cfg, rec, &mut r);
    replicated(&images, &cfg, rec, &mut r);
    interpreter(program, rec, &mut r);
    r
}

fn decode_all(epochs: &[Epoch], r: &mut Replay) -> Vec<Image> {
    let mut out: Vec<Image> = Vec::new();
    for (e, epoch) in epochs.iter().enumerate() {
        for (pod, raw) in epoch {
            let Ok(img) = PodImage::decode(raw) else {
                r.check(false, &format!("{pod} does not decode"));
                continue;
            };
            let (again, cuts) = img.encode_with_page_cuts();
            r.check(
                again == *raw,
                &format!("{pod} does not re-encode to its bytes"),
            );
            // A page is dirty when the previous epoch held different bytes
            // (or nothing) at its address in the same group — what the
            // kernel's dirty tracking reports at capture.
            let prev = out.iter().rev().find(|i| i.pod == *pod);
            let dirty: Vec<BTreeSet<u64>> = img
                .groups
                .iter()
                .enumerate()
                .map(|(g, group)| {
                    let before: BTreeMap<u64, &[u8]> = prev
                        .and_then(|p| p.img.groups.get(g))
                        .map(|pg| pg.pages.iter().map(|(a, b)| (*a, b.as_slice())).collect())
                        .unwrap_or_default();
                    group
                        .pages
                        .iter()
                        .filter(|(a, b)| before.get(a) != Some(&b.as_slice()))
                        .map(|(a, _)| *a)
                        .collect()
                })
                .collect();
            let hints = page_hints(&img, &cuts, &dirty);
            out.push(Image {
                pod: pod.clone(),
                epoch: e as u64 + 1,
                raw: raw.clone(),
                img,
                cuts,
                hints,
            });
        }
    }
    out
}

fn zap_layer(images: &[Image], total: usize, rec: &Recorder, r: &mut Replay) {
    let encode = rate(rec, total, || {
        for i in images {
            black_box(i.img.encode_with_page_cuts());
        }
    });
    let decode = rate(rec, total, || {
        for i in images {
            black_box(PodImage::decode(&i.raw).ok());
        }
    });
    r.metrics.insert("zap.encode_mb_per_s", encode);
    r.metrics.insert("zap.decode_mb_per_s", decode);
}

fn plain_store(images: &[Image], total: usize, rec: &Recorder, r: &mut Replay) {
    // Puts consume their bytes, so each pass copies them first, untimed.
    let t0 = rec.now_ns();
    let mut put_ns = 0;
    let mut passes = 0u64;
    let store = loop {
        let store = CheckpointStore::new(NetFs::new(), "replay");
        let copies: Vec<Vec<u8>> = images.iter().map(|i| i.raw.clone()).collect();
        let t = rec.now_ns();
        for (i, bytes) in images.iter().zip(copies) {
            store.put_prepared(&i.pod, i.epoch, PreparedPut::Plain(bytes));
        }
        put_ns += rec.now_ns() - t;
        passes += 1;
        if rec.now_ns() - t0 >= MIN_NS {
            break store;
        }
    };
    let put = (total as f64 * passes as f64) / (put_ns as f64 / 1e9) / 1e6;
    let same = images
        .iter()
        .all(|i| store.get_image(&i.pod, i.epoch).as_deref() == Some(&i.raw[..]));
    r.check(same, "plain store read back different bytes");
    let get = rate(rec, total, || {
        for i in images {
            black_box(store.get_image(&i.pod, i.epoch));
        }
    });
    r.metrics.insert("store.put_mb_per_s", put);
    r.metrics.insert("store.get_mb_per_s", get);
}

fn chunk_layer(images: &[Image], rec: &Recorder, r: &mut Replay) {
    let chunk_bytes = StoreConfig::default().chunk_bytes;
    let segs: Vec<&[u8]> = images
        .iter()
        .flat_map(|i| {
            chunk::split_ranges(i.raw.len(), &i.cuts, chunk_bytes)
                .into_iter()
                .map(|(s, l)| &i.raw[s..s + l])
        })
        .collect();
    let total: usize = segs.iter().map(|s| s.len()).sum();
    let id = rate(rec, total, || {
        for s in &segs {
            black_box(ChunkId::of(s));
        }
    });
    let encoded: Vec<Vec<u8>> = segs.iter().map(|s| chunk::encode_chunk(s, true)).collect();
    let encode = rate(rec, total, || {
        for s in &segs {
            black_box(chunk::encode_chunk(s, true));
        }
    });
    let same = segs
        .iter()
        .zip(&encoded)
        .all(|(s, e)| chunk::decode_chunk(e).as_deref() == Ok(*s));
    r.check(same, "chunk codec round trip changed bytes");
    let decode = rate(rec, total, || {
        for e in &encoded {
            black_box(chunk::decode_chunk(e).ok());
        }
    });
    r.metrics.insert("chunk.id_mb_per_s", id);
    r.metrics.insert("chunk.encode_mb_per_s", encode);
    r.metrics.insert("chunk.decode_mb_per_s", decode);
}

fn prepare(images: &[Image], total: usize, cfg: &StoreConfig, rec: &Recorder, r: &mut Replay) {
    let store = CheckpointStore::new(NetFs::new(), "replay").with_threads(cfg.threads);
    let reference = rate(rec, total, || {
        for i in images {
            black_box(store.prepare_chunked(&i.raw, &i.cuts, cfg));
        }
    });
    // The cache carries each pod's pages from one epoch to the next, so
    // every pass starts cold and replays the epochs in order.
    let mut cache = DigestCache::new();
    let hinted = rate(rec, total, || {
        cache = DigestCache::new();
        for i in images {
            black_box(store.prepare_chunked_hinted(&i.raw, &i.hints, cfg, &i.pod, &mut cache));
        }
    });
    let lookups = cache.hits() + cache.misses();
    let mut check = DigestCache::new();
    let same = images.iter().all(|i| {
        let a = store.prepare_chunked(&i.raw, &i.cuts, cfg);
        let b = store.prepare_chunked_hinted(&i.raw, &i.hints, cfg, &i.pod, &mut check);
        a.manifest() == b.manifest()
    });
    r.check(same, "hinted prepare differs from the reference prepare");
    r.metrics.insert("store.prepare_mb_per_s", reference);
    r.metrics.insert("store.prepare_hinted_mb_per_s", hinted);
    r.metrics.insert(
        "pagecache.hit_ratio",
        cache.hits() as f64 / lookups.max(1) as f64,
    );
    r.notes.push(format!(
        "pagecache.hit_ratio = {} hits / {lookups} lookups",
        cache.hits()
    ));
}

fn replicated(images: &[Image], cfg: &StoreConfig, rec: &Recorder, r: &mut Replay) {
    let fs = NetFs::new();
    let store = ReplicatedStore::new(fs.clone(), "replay", REPLICAS).with_threads(cfg.threads);
    let mut cache = DigestCache::new();
    let (mut raw, mut novel, mut put_ns) = (0u64, 0u64, 0u64);
    let mut epoch = 0;
    for i in images {
        if i.epoch != epoch {
            if epoch > 0 {
                store.commit(epoch);
            }
            epoch = i.epoch;
        }
        let p = store.prepare_chunked_hinted(&i.raw, &i.hints, cfg, &i.pod, &mut cache);
        raw += p.raw_len();
        novel += p.new_bytes();
        let t = rec.now_ns();
        store.put_prepared(&i.pod, i.epoch, PreparedPut::Chunked(p));
        put_ns += rec.now_ns() - t;
    }
    store.commit(epoch);
    let landed: u64 = ["/ckpt", "/rep"]
        .iter()
        .flat_map(|prefix| fs.list(prefix))
        .filter_map(|path| fs.len_of(&path))
        .sum();
    let same = images
        .iter()
        .all(|i| store.get_image(&i.pod, i.epoch).as_deref() == Some(&i.raw[..]));
    r.check(same, "replicated store read back different bytes");
    let get = rate(rec, raw as usize, || {
        for i in images {
            black_box(store.get_image(&i.pod, i.epoch));
        }
    });
    r.metrics.insert(
        "replog.put_mb_per_s",
        raw as f64 / (put_ns as f64 / 1e9) / 1e6,
    );
    r.metrics.insert("replog.get_mb_per_s", get);
    r.metrics
        .insert("replog.write_amp", landed as f64 / novel.max(1) as f64);
    r.metrics
        .insert("store.novel_ratio", novel as f64 / raw.max(1) as f64);
    r.notes.push(format!(
        "store.novel_ratio = {novel} new / {raw} raw bytes; replog.write_amp = {landed} landed / {novel} new bytes at k={REPLICAS}"
    ));
}

/// Guest instructions per wall second: the program alone on a standalone
/// kernel, instructions counted as slice time over the per-instruction cost.
fn interpreter(program: &Program, rec: &Recorder, r: &mut Replay) {
    let net = NetStack::new(
        MacAddr::from_index(1),
        IpAddr::from_octets([10, 0, 0, 1]),
        24,
        TcpConfig::default(),
    );
    let params = KernelParams::default();
    let mut k = Kernel::new(net, NetFs::new(), Disk::new(DiskParams::default()), params);
    if k.spawn(program).is_err() {
        r.check(false, "program does not spawn");
        return;
    }
    let mut now = SimTime::ZERO;
    let mut busy_ns = 0u64;
    let t0 = rec.now_ns();
    while rec.now_ns() - t0 < 2 * MIN_NS {
        if k.has_runnable() {
            let out = k.run_slice(now);
            now += out.elapsed;
            busy_ns += out.elapsed.as_nanos();
            // No peers: frames leave into the void.
            drop(k.take_frames());
        } else if let Some(t) = k.next_timer() {
            now = now.max(t);
            k.on_tick(now);
        } else {
            break;
        }
    }
    let wall_s = (rec.now_ns() - t0) as f64 / 1e9;
    let instr = busy_ns / params.inst_time.as_nanos().max(1);
    r.metrics
        .insert("simcpu.instr_per_s", instr as f64 / wall_s);
}
