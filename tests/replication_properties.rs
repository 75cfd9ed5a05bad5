//! Replication suite: the k-way replicated checkpoint store under loss.
//!
//! Three properties must hold:
//!
//! (a) applying the operation log is deterministic and idempotent — the
//!     same op sequence drives every replica (and every independent store)
//!     to byte-identical trees, and re-running scrub over healthy replicas
//!     changes nothing;
//! (b) with k = 3, a pinned-seed fault plan may kill ANY two replica
//!     stores mid-checkpoint (crashes and mid-log-append torn writes
//!     included) and automatic recovery still restarts the job from the
//!     latest committed epoch with stored images byte-identical to a run
//!     whose replicas never faulted;
//! (c) scrub converges divergent replicas back to the writer's digest, for
//!     any corruption fraction and any victim replica;
//! (d) at k = 1 the replicated store's one write path is the plain store:
//!     any program of puts, commits, discards, prunes and GCs leaves the
//!     same filesystem bytes and returns the same results.

use std::collections::BTreeMap;

use cruz_repro::cluster::{
    ClusterParams, CrashFault, FaultPlan, JobSpec, PodSpec, ProtocolPoint, RecoveryOutcome,
    ReplicaFault, ReplicaFaultKind, ReplicatedStore, StoreConfig, StoreOpPoint, World,
};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::cruz::store::{CheckpointStore, MissingChunk, PreparedChunked, PreparedPut};
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::simos::fs::NetFs;
use cruz_repro::workloads::pingpong::PingPongConfig;
use cruz_repro::zap::image::MacMode;
use proptest::prelude::*;

// ---- core-level properties --------------------------------------------------

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

fn replica_digests(rs: &ReplicatedStore) -> Vec<u64> {
    (0..rs.replica_count()).map(|r| rs.tree_digest(r)).collect()
}

/// One interpreted op of the random program driving property (a).
fn apply_step(rs: &ReplicatedStore, cfg: &StoreConfig, next_epoch: &mut u64, fill: u8, kind: u8) {
    match kind {
        0 => {
            let raw = image(fill, 1024);
            let prep = rs.prepare_chunked(&raw, &[], cfg);
            rs.put_prepared("pod0", *next_epoch, PreparedPut::Chunked(prep))
                .unwrap();
            rs.commit(*next_epoch);
            *next_epoch += 1;
        }
        1 => {
            rs.put_prepared("pod0", *next_epoch, PreparedPut::Plain(image(fill, 700)))
                .unwrap();
            rs.commit(*next_epoch);
            *next_epoch += 1;
        }
        2 => {
            if let Some(e) = rs.latest_committed_epoch() {
                rs.discard_epoch(e);
            }
        }
        _ => {
            rs.gc_orphan_chunks();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property (a): any op program leaves all replicas of a store — and
    /// two independent stores fed the same program — byte-identical, and a
    /// scrub over the healthy result is a no-op.
    #[test]
    fn log_apply_is_deterministic_and_idempotent(
        program in proptest::collection::vec((any::<u8>(), 0u8..4), 1..10),
    ) {
        let cfg = dedup_cfg();
        let mut finals = Vec::new();
        for _ in 0..2 {
            let rs = ReplicatedStore::new(NetFs::new(), "job", 3).with_threads(1);
            let mut next_epoch = 1u64;
            for &(fill, kind) in &program {
                apply_step(&rs, &cfg, &mut next_epoch, fill, kind);
                let d = replica_digests(&rs);
                prop_assert_eq!(d[0], d[1], "replicas diverged after {:?}", (fill, kind));
                prop_assert_eq!(d[1], d[2], "replicas diverged after {:?}", (fill, kind));
            }
            let before = replica_digests(&rs);
            let rep = rs.scrub_and_repair();
            prop_assert!(rep.repaired.is_empty(), "healthy replicas need no repair");
            prop_assert!(rep.revived.is_empty());
            prop_assert_eq!(replica_digests(&rs), before.clone(), "scrub replay is idempotent");
            finals.push(before[0]);
        }
        prop_assert_eq!(finals[0], finals[1], "same program, same bytes");
    }

    /// Property (c): a torn-data fault on any victim replica, at any
    /// corruption fraction, diverges it; scrub converges every replica
    /// back to the writer's digest and the image still reads back exactly.
    #[test]
    fn scrub_converges_divergent_replicas_to_the_writer(
        fill in any::<u8>(),
        frac in 1u8..=254,
        victim in 0usize..3,
    ) {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        let base = image(fill, 1024);
        let prep = rs.prepare_chunked(&base, &[], &cfg);
        rs.put_prepared("pod0", 1, PreparedPut::Chunked(prep)).unwrap();
        rs.commit(1);
        rs.faults().arm(&[ReplicaFault {
            replica: victim,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::TornChunk(frac),
        }]);
        let second = image(fill.wrapping_add(0x5b), 1024);
        let prep = rs.prepare_chunked(&second, &[], &cfg);
        rs.put_prepared("pod0", 2, PreparedPut::Chunked(prep)).unwrap();
        rs.commit(2);

        rs.scrub_and_repair();
        let d = replica_digests(&rs);
        prop_assert_eq!(d[0], d[1]);
        prop_assert_eq!(d[1], d[2]);
        prop_assert_eq!(rs.get_image("pod0", 2), Some(second));
        prop_assert_eq!(rs.get_image("pod0", 1), Some(base));
        prop_assert_eq!(rs.alive_replicas(), vec![0, 1, 2]);
    }
}

/// Every file of `fs` with its bytes, in path order.
fn fs_snapshot(fs: &NetFs) -> Vec<(String, Option<Vec<u8>>)> {
    fs.list("/")
        .into_iter()
        .map(|p| (p.clone(), fs.read_file(&p)))
        .collect()
}

/// The write of image `fill % 3` (chunked on odd `shape`, else plain)
/// that `chunked` prepares: fills one apart share three of four chunks.
fn prepare_image(
    chunked: impl FnOnce(&[u8]) -> PreparedChunked,
    fill: u8,
    shape: u8,
) -> PreparedPut {
    if shape % 2 == 1 {
        PreparedPut::Chunked(chunked(&image(fill % 3, 1024)))
    } else {
        PreparedPut::Plain(image(fill % 3, 700))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property (d): a k = 1 replicated store and a bare store, driven by
    /// the same random program, leave byte-identical filesystems after
    /// every step and return the same results — a put whose prepare named
    /// a chunk that a discard then deleted included.
    #[test]
    fn k1_replicated_store_is_the_plain_store(
        program in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..24),
    ) {
        let cfg = StoreConfig { replicas: 1, ..dedup_cfg() };
        let (plain_fs, rep_fs) = (NetFs::new(), NetFs::new());
        let plain = CheckpointStore::new(plain_fs.clone(), "job").with_threads(1);
        let rs = ReplicatedStore::new(rep_fs.clone(), "job", 1).with_threads(1);
        let mut next_epoch = 1u64;
        for &(kind, a, b) in &program {
            let step = (kind, a, b);
            match kind {
                // A put, and (kind 1) a put whose prepare precedes a
                // discard of one of the two newest epochs.
                0 | 1 => {
                    let p = prepare_image(|raw| plain.prepare_chunked(raw, &[], &cfg), a, b);
                    let r = prepare_image(|raw| rs.prepare_chunked(raw, &[], &cfg), a, b);
                    if kind == 1 {
                        let e = next_epoch.saturating_sub(1 + u64::from(b / 2 % 2));
                        plain.discard_epoch(e);
                        rs.discard_epoch(e);
                    }
                    let got: Result<(), MissingChunk> = plain.put_prepared("pod0", next_epoch, p);
                    prop_assert_eq!(got, rs.put_prepared("pod0", next_epoch, r), "{:?}", step);
                    next_epoch += 1;
                }
                2 => {
                    let e = u64::from(a) % next_epoch;
                    plain.commit(e);
                    rs.commit(e);
                }
                3 => {
                    let e = u64::from(a) % next_epoch;
                    plain.discard_epoch(e);
                    rs.discard_epoch(e);
                }
                4 => {
                    let keep = u64::from(a) % (next_epoch + 1);
                    plain.prune_below(keep);
                    rs.prune_below(keep);
                }
                _ => prop_assert_eq!(plain.gc_orphan_chunks(), rs.gc_orphan_chunks(), "{:?}", step),
            }
            prop_assert_eq!(fs_snapshot(&plain_fs), fs_snapshot(&rep_fs), "after {:?}", step);
        }
        prop_assert_eq!(plain.committed_epochs(), rs.committed_epochs());
        prop_assert_eq!(plain.latest_committed_epoch(), rs.latest_committed_epoch());
        for e in 1..next_epoch {
            prop_assert_eq!(plain.read_stored("pod0", e), rs.read_stored("pod0", e), "epoch {}", e);
        }
    }
}

// ---- cluster-level acceptance -----------------------------------------------

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

/// Six nodes, chunked store replicated k = 3, recovery manager on.
fn replicated_params(seed: u64) -> ClusterParams {
    let mut p = ClusterParams {
        seed,
        store: StoreConfig {
            replicas: 3,
            ..StoreConfig::dedup()
        },
        ..ClusterParams::default()
    };
    p.recovery.enabled = true;
    p
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every pod image in every currently committed epoch, read
/// through the quorum path.
fn committed_digests(w: &World, job: &str) -> BTreeMap<(u64, String), u64> {
    let store = w.store(job);
    let mut out = BTreeMap::new();
    for e in store.committed_epochs() {
        for pod in store.pods_in_epoch(e) {
            if let Some(img) = store.get_image(&pod, e) {
                out.insert((e, pod), fnv(&img));
            }
        }
    }
    out
}

/// Runs the acceptance scenario: clean committed baseline, then a node
/// crash mid-checkpoint plus the given replica faults, then automatic
/// recovery. Returns the committed digests after the world healed.
fn heal_run(replica_faults: &[ReplicaFault]) -> (World, BTreeMap<(u64, String), u64>) {
    let mut w = World::new(6, replicated_params(11));
    w.launch_job(&pingpong_spec(1200)).unwrap();
    w.run_for(SimDuration::from_millis(2));

    let op1 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    assert!(w.run_until_op(op1, 20_000_000));
    assert!(w.store("pp").is_committed(op1));
    let baseline = committed_digests(&w, "pp");
    assert!(!baseline.is_empty());

    // Node 1 dies in the durability window; the replica stores die at the
    // same checkpoint's store traffic.
    let mut plan = FaultPlan::none(5);
    plan.crashes.push(CrashFault {
        node: 1,
        point: ProtocolPoint::LocalDoneToDurable,
        nth: 0,
    });
    plan.replicas.extend_from_slice(replica_faults);
    w.install_fault_plan(&plan);

    let _op2 = w
        .start_checkpoint("pp", ProtocolMode::Blocking, None)
        .unwrap();
    let healed = w.run_until_pred(60_000_000, |w| {
        w.recovery_reports()
            .iter()
            .any(|r| r.outcome == RecoveryOutcome::Recovered)
    });
    assert!(healed, "recovery must survive the replica loss");

    let r = w
        .recovery_reports()
        .iter()
        .find(|r| r.outcome == RecoveryOutcome::Recovered)
        .unwrap()
        .clone();
    assert_eq!(r.rollback_epoch, Some(op1), "restart from last committed");
    if !replica_faults.is_empty() {
        assert!(
            !r.scrubbed_replicas.is_empty(),
            "the pre-rollback scrub must have rebuilt the lost replicas"
        );
    }

    let after = committed_digests(&w, "pp");
    assert_eq!(
        after.get(&(op1, "server".into())),
        baseline.get(&(op1, "server".into())),
        "rollback epoch unchanged by the heal"
    );
    (w, after)
}

/// Property (b): the ISSUE acceptance — k = 3, and a fault plan killing
/// ANY two of the three replica stores mid-checkpoint (one cold crash, one
/// mid-log-append torn write) still recovers from the latest committed
/// epoch with digests byte-identical to a run whose replicas never fault.
#[test]
fn any_two_of_three_replica_stores_can_die_mid_checkpoint() {
    let (_, unfaulted) = heal_run(&[]);
    for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let faults = [
            ReplicaFault {
                replica: a,
                point: StoreOpPoint::Put,
                nth: 0,
                kind: ReplicaFaultKind::Crash,
            },
            ReplicaFault {
                replica: b,
                point: StoreOpPoint::Put,
                nth: 0,
                kind: ReplicaFaultKind::TornLog(128),
            },
        ];
        let (_, healed) = heal_run(&faults);
        assert_eq!(
            healed, unfaulted,
            "subset ({a},{b}) dead: digests must match the unfaulted run"
        );
    }
}

/// The replica fault plane lives in memory: after a faulted k = 3 heal,
/// the shared filesystem holds the primary store tree, the `/rep<r>`
/// replica trees and the replica logs, and nothing else.
#[test]
fn a_faulted_heal_leaves_only_store_trees_and_logs() {
    let faults = [
        ReplicaFault {
            replica: 0,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::Crash,
        },
        ReplicaFault {
            replica: 2,
            point: StoreOpPoint::Put,
            nth: 0,
            kind: ReplicaFaultKind::TornLog(128),
        },
    ];
    let (w, _) = heal_run(&faults);
    let files = w.fs.list("/");
    let allowed = ["/ckpt/", "/replog/", "/rep1/", "/rep2/"];
    let stray: Vec<_> = files
        .iter()
        .filter(|p| !allowed.iter().any(|a| p.starts_with(a)))
        .collect();
    assert!(stray.is_empty(), "files outside the store: {stray:?}");
    for r in 0..3 {
        assert!(w.fs.exists(&w.store("pp").log_path(r)), "replica {r} log");
    }
}

/// Replication is invisible when nothing faults: a k = 3 run commits the
/// same image digests as a k = 1 run of the same world seed, and every
/// replica tree stays byte-identical throughout.
#[test]
fn unfaulted_replication_matches_the_plain_store() {
    let digests_for = |k: usize| {
        let mut p = replicated_params(7);
        p.store.replicas = k;
        let mut w = World::new(6, p);
        w.launch_job(&pingpong_spec(400)).unwrap();
        w.run_for(SimDuration::from_millis(2));
        let op = w
            .start_checkpoint("pp", ProtocolMode::Blocking, None)
            .unwrap();
        assert!(w.run_until_op(op, 20_000_000));
        let store = w.store("pp");
        assert!(store.is_committed(op));
        if k > 1 {
            let d: Vec<u64> = (0..k).map(|r| store.tree_digest(r)).collect();
            assert!(d.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
        }
        committed_digests(&w, "pp")
    };
    assert_eq!(digests_for(1), digests_for(3));
}
