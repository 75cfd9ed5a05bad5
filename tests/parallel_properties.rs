//! Twin-path property tests for the parallel execution layer
//! (`cruz::parpool`): every pooled path must be *extensionally identical*
//! to the serial reference path at every thread count.
//!
//! * pooled `prepare_chunked` vs the verbatim `threads == 1` legacy loop,
//!   across arbitrary payloads, cut layouts, chunk sizes and codec
//!   settings;
//! * restore (`get_image`) through stores of every width, including images
//!   persisted by a pooled prepare and read back serially (and vice
//!   versa — the store bytes are width-independent, so any combination
//!   round-trips);
//! * the page-digest-cached `prepare_chunked_hinted` at widths 1/2/4/8
//!   against the serial reference across multi-epoch histories with
//!   arbitrary rewrites, false-dirty claims and shifting metadata — with
//!   identical hit/miss accounting at every width;
//! * the pinned golden-trace fingerprint re-run with `CRUZ_THREADS=4`:
//!   the pool must be invisible in the event trace, the event count and
//!   the final clock.

use cruz_repro::cluster::{
    ClusterParams, JobSpec, PodSpec, StoreConfig as ClusterStoreConfig, World,
};
use cruz_repro::cruz::pagecache::{DigestCache, PageHint};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::cruz::store::{CheckpointStore, PreparedPut, StoreConfig};
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::simos::fs::NetFs;
use cruz_repro::workloads::pingpong::PingPongConfig;
use cruz_repro::zap::image::MacMode;
use proptest::prelude::*;

/// The pooled widths every twin-path case checks against the serial oracle.
const WIDTHS: &[usize] = &[2, 3, 4, 8];

/// Cut layout from a recipe of `(gap, len)` pairs: ascending, possibly
/// zero-width gaps of metadata between page payloads, truncated at the
/// payload end.
fn cuts_from(recipe: &[(usize, usize)], total: usize) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut at = 0usize;
    for &(gap, len) in recipe {
        let start = at + gap;
        if len == 0 || start + len > total {
            break;
        }
        cuts.push((start, len));
        at = start + len;
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pooled prepare produces byte-identical manifests and novelty
    /// accounting at every width, and the persisted image reconstructs
    /// identically through every pool width — regardless of which width
    /// wrote it.
    #[test]
    fn pooled_prepare_and_restore_match_serial(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        recipe in proptest::collection::vec((0usize..64, 1usize..1200), 0..8),
        chunk_bytes in prop_oneof![Just(64usize), Just(256), Just(1024)],
        compress in any::<bool>(),
        writer_width in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        let cuts = cuts_from(&recipe, data.len());
        let serial_cfg = StoreConfig { chunk_bytes, dedup: true, compress, threads: 1, replicas: 1 };
        let fs = NetFs::new();
        let store = CheckpointStore::new(fs.clone(), "j");
        let serial = store.prepare_chunked(&data, &cuts, &serial_cfg);
        for &t in WIDTHS {
            let cfg = StoreConfig { threads: t, ..serial_cfg };
            let pooled = store.prepare_chunked(&data, &cuts, &cfg);
            prop_assert_eq!(pooled.manifest(), serial.manifest(), "manifest at threads={}", t);
            prop_assert_eq!(pooled.novel_count(), serial.novel_count());
            prop_assert_eq!(pooled.new_bytes(), serial.new_bytes());
        }
        // Persist through an arbitrary width, read back through every
        // width: store bytes and reconstruction are width-independent.
        let put = store.prepare_chunked(&data, &cuts, &StoreConfig { threads: writer_width, ..serial_cfg });
        store.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        for &t in [1usize, 2, 4, 8].iter() {
            let reader = CheckpointStore::new(fs.clone(), "j").with_threads(t);
            let round = reader.get_image("p", 1);
            prop_assert_eq!(round.as_deref(), Some(&data[..]), "restore at threads={}", t);
        }
    }
}

/// One epoch of the synthetic pod history (mirrors `hotpath_properties`):
/// page contents plus which pages the "guest" rewrote.
#[derive(Debug, Clone)]
struct EpochPlan {
    rewrites: Vec<Option<u8>>,
    false_dirty: Vec<bool>,
    header_len: usize,
}

const PROP_PAGE: usize = 256;

fn page_pattern(seed: u8, index: usize) -> Vec<u8> {
    match seed % 4 {
        0 => vec![0u8; PROP_PAGE],
        1 => vec![seed; PROP_PAGE],
        2 => (0..PROP_PAGE).map(|i| seed.wrapping_add(i as u8)).collect(),
        _ => (0..PROP_PAGE)
            .map(|i| {
                (seed as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i * index) as u64) as u8
            })
            .collect(),
    }
}

fn arb_history(pages: usize) -> impl Strategy<Value = Vec<EpochPlan>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::option::of(any::<u8>()), pages..=pages),
            proptest::collection::vec(any::<bool>(), pages..=pages),
            0usize..48,
        )
            .prop_map(|(rewrites, false_dirty, header_len)| EpochPlan {
                rewrites,
                false_dirty,
                header_len,
            }),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hinted (digest-cached) prepare at widths 1/2/4/8 — each width
    /// with its own store and cache, evolving independently over the same
    /// multi-epoch history — stays byte-identical to the serial reference
    /// path, with the same cache hit/miss counts at every width (the cache
    /// is a bytes-level contract, so the pool cannot change what hits).
    #[test]
    fn hinted_prepare_matches_serial_at_every_width(
        history in arb_history(6),
        chunk_bytes in prop_oneof![Just(64usize), Just(100), Just(256)],
        compress in any::<bool>(),
    ) {
        let pages = 6;
        let widths = [1usize, 2, 4, 8];
        let fs = NetFs::new();
        let reference_store = CheckpointStore::new(fs.clone(), "reference");
        let mut lanes: Vec<(StoreConfig, CheckpointStore, DigestCache)> = widths
            .iter()
            .map(|&t| {
                (
                    StoreConfig { chunk_bytes, dedup: true, compress, threads: t, replicas: 1 },
                    CheckpointStore::new(fs.clone(), format!("hinted{t}")),
                    DigestCache::new(),
                )
            })
            .collect();
        let mut contents: Vec<Vec<u8>> = (0..pages).map(|i| page_pattern(7, i)).collect();

        for (epoch, plan) in history.iter().enumerate() {
            let mut clean = vec![false; pages];
            for (i, rw) in plan.rewrites.iter().enumerate() {
                match rw {
                    Some(seed) => contents[i] = page_pattern(*seed, i),
                    None => clean[i] = epoch > 0 && !plan.false_dirty[i],
                }
            }
            let mut raw = vec![0xEE; plan.header_len];
            let mut hints = Vec::with_capacity(pages);
            for (i, content) in contents.iter().enumerate() {
                hints.push(PageHint {
                    offset: raw.len(),
                    len: content.len(),
                    key: Some((0, i as u64 * 0x1000)),
                    clean: clean[i],
                });
                raw.extend_from_slice(content);
            }
            raw.extend_from_slice(&[0x77; 9]);
            let cuts: Vec<(usize, usize)> = hints.iter().map(|h| (h.offset, h.len)).collect();

            let serial_cfg = StoreConfig { chunk_bytes, dedup: true, compress, threads: 1, replicas: 1 };
            let reference = reference_store.prepare_chunked(&raw, &cuts, &serial_cfg);
            let mut counts: Option<(u64, u64)> = None;
            for (cfg, store, cache) in lanes.iter_mut() {
                let hinted = store.prepare_chunked_hinted(&raw, &hints, cfg, "pod", cache);
                prop_assert_eq!(
                    hinted.manifest(), reference.manifest(),
                    "manifest at threads={} epoch={}", cfg.threads, epoch
                );
                prop_assert_eq!(hinted.novel_count(), reference.novel_count());
                store.put_prepared("pod", epoch as u64, PreparedPut::Chunked(hinted)).unwrap();
                let got = (cache.hits(), cache.misses());
                match counts {
                    None => counts = Some(got),
                    Some(want) => prop_assert_eq!(
                        got, want,
                        "cache accounting at threads={} epoch={}", cfg.threads, epoch
                    ),
                }
            }
            reference_store.put_prepared("pod", epoch as u64, PreparedPut::Chunked(reference)).unwrap();
            // Every lane reconstructs the exact image it persisted.
            for (cfg, store, _) in lanes.iter() {
                let round = store.get_image("pod", epoch as u64);
                prop_assert_eq!(
                    round.as_deref(),
                    Some(&raw[..]),
                    "round-trip at threads={} epoch={}", cfg.threads, epoch
                );
            }
        }
    }
}

// ---- golden trace under CRUZ_THREADS=4 ------------------------------------

fn pingpong_spec(rounds: u64) -> JobSpec {
    let cfg = PingPongConfig {
        server_ip: IpAddr::from_octets([10, 0, 1, 1]),
        port: 7300,
        rounds,
    };
    JobSpec {
        name: "pp".into(),
        coordinator_node: 4,
        pods: vec![
            PodSpec {
                name: "server".into(),
                ip: cfg.server_ip,
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2001)),
                node: 0,
                programs: vec![cfg.server_program()],
            },
            PodSpec {
                name: "client".into(),
                ip: IpAddr::from_octets([10, 0, 1, 2]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2002)),
                node: 1,
                programs: vec![cfg.client_program()],
            },
        ],
    }
}

/// The `tests/golden_trace.rs` dedup scenario, re-run with the worker pool
/// forced to 4 threads via the environment (the cluster default leaves
/// `store.threads` on auto). The fingerprint constants below are the SAME
/// pinned values the serial golden test asserts: the pool must change
/// nothing observable — not the trace digest, not the event count, not a
/// nanosecond of simulated time.
#[test]
fn golden_dedup_trace_is_pinned_at_four_threads() {
    std::env::set_var("CRUZ_THREADS", "4");
    let mut w = World::new(
        5,
        ClusterParams {
            seed: 0xC0FFEE,
            store: ClusterStoreConfig::dedup_compress(),
            ..ClusterParams::default()
        },
    );
    w.launch_job(&pingpong_spec(200)).expect("job launches");
    w.run_for(SimDuration::from_millis(2));
    let op1 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .expect("first checkpoint starts");
    assert!(w.run_until_op(op1, 20_000_000), "first checkpoint finishes");
    w.run_for(SimDuration::from_millis(2));
    let op2 = w
        .start_checkpoint("pp", ProtocolMode::Optimized, None)
        .expect("second checkpoint starts");
    assert!(
        w.run_until_op(op2, 20_000_000),
        "second checkpoint finishes"
    );
    assert!(
        w.run_until_pred(100_000_000, |w| w.job_finished("pp")),
        "job runs to completion"
    );
    std::env::remove_var("CRUZ_THREADS");
    assert_eq!(
        (w.trace_digest(), w.events_processed(), w.now.as_nanos()),
        (902494253537125112u64, 2134u64, 209282169u64),
        "pooled capture perturbed the pinned golden dedup trace"
    );
}
