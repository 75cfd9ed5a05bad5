//! Property tests for copy-on-write snapshot capture: however the guest
//! races the drain, what drains out is byte-identical to a stop-the-world
//! capture of the same frozen instant.
//!
//! Two layers are checked. At the memory layer, an armed
//! [`AddressSpace`] snapshot subjected to arbitrary post-arm writes,
//! page installs, unmaps and remaps must drain exactly the pages a
//! frozen clone holds. At the cluster layer, twin worlds checkpointing
//! the same instant — one stop-the-world, one `CkptCaptureMode::Cow` —
//! must commit byte-identical epochs while both jobs run to a correct
//! finish.

use cruz_repro::cluster::world::CkptOptions;
use cruz_repro::cluster::{CkptCaptureMode, ClusterParams, JobSpec, PodSpec, World};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::simos::mem::{AddressSpace, PAGE_SIZE};
use cruz_repro::workloads::pingpong::PingPongConfig;
use cruz_repro::zap::image::MacMode;
use proptest::prelude::*;

const AREA_A: u64 = 0x1_0000;
const AREA_A_PAGES: u64 = 16;
const AREA_B: u64 = 0x8_0000;
const AREA_B_PAGES: u64 = 8;

/// One step a guest (or the loader/restorer acting on its behalf) can take
/// against the address space.
#[derive(Debug, Clone)]
enum MemOp {
    /// Store a few bytes somewhere in a mapped area.
    Write { addr: u64, val: u8, len: usize },
    /// Install a whole page image (program load / restore path).
    Install { page: u64, fill: u8 },
    /// Drop area B and all its pages.
    UnmapB,
    /// Map area B again (demand-zero).
    RemapB,
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        6 => (
            0u64..(AREA_A_PAGES + AREA_B_PAGES) * PAGE_SIZE,
            any::<u8>(),
            1usize..64,
        )
            .prop_map(|(off, val, len)| {
                // Fold the flat offset into one of the two areas, keeping
                // the write inside a single page so it cannot run off the
                // end of the area.
                let (base, pages) = if off < AREA_A_PAGES * PAGE_SIZE {
                    (AREA_A, AREA_A_PAGES)
                } else {
                    (AREA_B, AREA_B_PAGES)
                };
                let off = off % (pages * PAGE_SIZE);
                let len = len.min((PAGE_SIZE - off % PAGE_SIZE) as usize);
                MemOp::Write { addr: base + off, val, len }
            }),
        2 => (0u64..AREA_A_PAGES + AREA_B_PAGES, any::<u8>()).prop_map(|(i, fill)| {
            let page = if i < AREA_A_PAGES {
                AREA_A + i * PAGE_SIZE
            } else {
                AREA_B + (i - AREA_A_PAGES) * PAGE_SIZE
            };
            MemOp::Install { page, fill }
        }),
        1 => Just(MemOp::UnmapB),
        1 => Just(MemOp::RemapB),
    ]
}

/// Applies one op, tracking whether area B is currently mapped so writes
/// are only aimed at mapped memory (unmapped stores fault in the guest;
/// here they would just clutter the generator with rejected cases).
fn apply(space: &mut AddressSpace, b_mapped: &mut bool, op: &MemOp) {
    match op {
        MemOp::Write { addr, val, len } => {
            if *addr >= AREA_B && !*b_mapped {
                return;
            }
            space
                .write_bytes(*addr, &vec![*val; *len])
                .expect("write to mapped area");
        }
        MemOp::Install { page, fill } => {
            if *page >= AREA_B && !*b_mapped {
                return;
            }
            space.install_page(*page, &vec![*fill; PAGE_SIZE as usize]);
        }
        MemOp::UnmapB => {
            if *b_mapped {
                assert!(space.unmap(AREA_B));
                *b_mapped = false;
            }
        }
        MemOp::RemapB => {
            if !*b_mapped {
                space.map(AREA_B, AREA_B_PAGES * PAGE_SIZE, "b").unwrap();
                *b_mapped = true;
            }
        }
    }
}

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

/// Runs the pingpong world to `at_us`, checkpoints with `opts`, and
/// returns the committed epoch's images plus the finished world.
fn checkpoint_at(at_us: u64, seed: u64, opts: CkptOptions) -> (Vec<(String, Vec<u8>)>, World) {
    let mut w = World::new(
        5,
        ClusterParams {
            seed,
            ..ClusterParams::default()
        },
    );
    w.launch_job(&pingpong_spec(300)).unwrap();
    w.run_for(SimDuration::from_micros(at_us));
    let op = w.start_checkpoint_with("pp", opts).unwrap();
    assert!(w.run_until_op(op, 20_000_000), "checkpoint completes");
    let store = w.store("pp");
    assert!(store.is_committed(op), "epoch committed");
    let mut images = Vec::new();
    for pod in store.pods_in_epoch(op) {
        let bytes = store.get_image(&pod, op).expect("image reconstructs");
        images.push((pod, bytes));
    }
    (images, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An armed snapshot drains the frozen instant byte-for-byte, no matter
    /// what the owner writes, installs, unmaps or remaps in between — and
    /// the live space keeps the post-arm state untouched.
    #[test]
    fn cow_drain_matches_frozen_clone_under_arbitrary_writes(
        pre in proptest::collection::vec(arb_mem_op(), 0..32),
        clear_dirty_mid in any::<bool>(),
        post in proptest::collection::vec(arb_mem_op(), 0..32),
    ) {
        let mut space = AddressSpace::new();
        space.map(AREA_A, AREA_A_PAGES * PAGE_SIZE, "a").unwrap();
        space.map(AREA_B, AREA_B_PAGES * PAGE_SIZE, "b").unwrap();
        let mut b_mapped = true;
        for (i, op) in pre.iter().enumerate() {
            if clear_dirty_mid && i == pre.len() / 2 {
                // An earlier epoch captured here: the drain must not
                // depend on what dirty tracking saw since then.
                space.clear_dirty();
            }
            apply(&mut space, &mut b_mapped, op);
        }

        // The stop-the-world reference: a clone frozen at the arm instant.
        let frozen = space.clone();
        space.cow_arm();
        for op in &post {
            apply(&mut space, &mut b_mapped, op);
        }

        let full: Vec<(u64, Vec<u8>)> = frozen
            .nonzero_pages()
            .map(|(a, p)| (a, p.to_vec()))
            .collect();
        prop_assert_eq!(&space.cow_snapshot_pages(), &full);
        prop_assert_eq!(
            space.cow_pending_bytes(),
            full.len() as u64 * PAGE_SIZE
        );

        // Disarming frees the snapshot but not the live (post-arm) pages.
        let copied = space.cow_disarm();
        prop_assert!(copied.is_multiple_of(PAGE_SIZE));
        prop_assert!(!space.cow_armed());
        let live: Vec<(u64, Vec<u8>)> = space
            .nonzero_pages()
            .map(|(a, p)| (a, p.to_vec()))
            .collect();
        let mut replay = frozen;
        let mut b = replay.area_for(AREA_B).is_some();
        for op in &post {
            apply(&mut replay, &mut b, op);
        }
        let expect_live: Vec<(u64, Vec<u8>)> = replay
            .nonzero_pages()
            .map(|(a, p)| (a, p.to_vec()))
            .collect();
        prop_assert_eq!(live, expect_live);
    }

    /// Twin worlds checkpoint the same instant of the same run — one
    /// stop-the-world, one COW capture. The committed epochs must be
    /// byte-identical and both applications finish correctly: the capture
    /// discipline is invisible above the store API.
    #[test]
    fn cow_epoch_is_byte_identical_to_stop_the_world(
        at_us in 200u64..12_000,
        optimized in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mode = if optimized { ProtocolMode::Optimized } else { ProtocolMode::Blocking };
        let stw = CkptOptions { mode, ..CkptOptions::default() };
        let cow = CkptOptions {
            mode,
            capture: Some(CkptCaptureMode::Cow),
            ..CkptOptions::default()
        };
        let (stw_images, mut w_stw) = checkpoint_at(at_us, seed, stw);
        let (cow_images, mut w_cow) = checkpoint_at(at_us, seed, cow);

        prop_assert_eq!(stw_images.len(), cow_images.len());
        for ((pod_s, bytes_s), (pod_c, bytes_c)) in
            stw_images.iter().zip(cow_images.iter())
        {
            prop_assert_eq!(pod_s, pod_c, "pod inventory diverged");
            prop_assert_eq!(
                bytes_s, bytes_c,
                "image for pod `{}` differs between capture modes", pod_s
            );
        }
        for w in [&mut w_stw, &mut w_cow] {
            prop_assert!(w.run_until_pred(100_000_000, |w| w.job_finished("pp")));
            prop_assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
            prop_assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
        }
    }
}
