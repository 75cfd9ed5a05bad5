//! Property tests for copy-on-write snapshot capture: however the guest
//! races the drain, what drains out is byte-identical to a stop-the-world
//! capture of the same frozen instant.
//!
//! Two layers are checked. At the memory layer, a snapshot is what a COW
//! checkpoint's arm takes: a clone of [`AddressSpace::pages`], every
//! resident page buffer held. Through arbitrary later writes, page
//! installs, unmaps, remaps and forks, its non-zero pages must be exactly
//! the pages the space held at the arm; the copies counted must be one per
//! held page whose address now holds another buffer; and each side of a
//! fork must stay blind to the other's writes.
//! At the cluster layer, worlds checkpointing the same instant under each
//! `CkptCaptureMode` — stop-the-world, write-back and COW — must commit
//! byte-identical epochs while every job runs to a correct finish.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use cruz_repro::cluster::world::CkptOptions;
use cruz_repro::cluster::{CkptCaptureMode, ClusterParams, JobSpec, PodSpec, World};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::simos::mem::{nonzero, AddressSpace, PageBuf, PAGE_SIZE};
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
    /// Fork: a clone of the space, holding no snapshot, that keeps running
    /// beside the guest.
    Fork,
    /// A store by the latest fork child, in area A (which no op unmaps).
    ChildWrite { addr: u64, val: u8, len: usize },
}

/// A store of `len` bytes of `val` in one page of the `pages`-page area at
/// `base`, from a flat offset.
fn write_at(base: u64, pages: u64, off: u64, len: usize) -> (u64, usize) {
    let off = off % (pages * PAGE_SIZE);
    (base + off, len.min((PAGE_SIZE - off % PAGE_SIZE) as usize))
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
                let (addr, len) = if off < AREA_A_PAGES * PAGE_SIZE {
                    write_at(AREA_A, AREA_A_PAGES, off, len)
                } else {
                    write_at(AREA_B, AREA_B_PAGES, off, len)
                };
                MemOp::Write { addr, val, len }
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
        1 => Just(MemOp::Fork),
        2 => (0u64..AREA_A_PAGES * PAGE_SIZE, any::<u8>(), 1usize..64).prop_map(
            |(off, val, len)| {
                let (addr, len) = write_at(AREA_A, AREA_A_PAGES, off, len);
                MemOp::ChildWrite { addr, val, len }
            }
        ),
    ]
}

/// One address space under test, with what the test tracks of it by hand.
#[derive(Clone, Default)]
struct Side {
    space: AddressSpace,
    /// Whether area B is mapped, so writes are only aimed at mapped memory
    /// (unmapped stores fault in the guest; here they would just clutter
    /// the generator with rejected cases).
    b_mapped: bool,
    /// Addresses of the resident pages.
    resident: BTreeSet<u64>,
    /// Pages resident at the arm: the addresses the snapshot holds.
    held: BTreeSet<u64>,
    /// Held pages that no op has written, replaced or dropped since: the
    /// pages whose address still holds the snapshot's buffer.
    untouched: BTreeSet<u64>,
}

impl Side {
    fn new() -> Side {
        let mut space = AddressSpace::new();
        space.map(AREA_A, AREA_A_PAGES * PAGE_SIZE, "a").unwrap();
        space.map(AREA_B, AREA_B_PAGES * PAGE_SIZE, "b").unwrap();
        Side {
            space,
            b_mapped: true,
            ..Side::default()
        }
    }

    /// Takes the snapshot: every resident page buffer.
    fn arm(&mut self) -> Vec<(u64, PageBuf)> {
        self.held = self.resident.clone();
        self.untouched = self.resident.clone();
        self.space.pages().map(|(a, p)| (a, p.clone())).collect()
    }

    /// The copy bytes a drain must count: one page for each held address
    /// that is resident again but no longer holds the snapshot's buffer.
    fn copies(&self) -> u64 {
        let copied = self.held.intersection(&self.resident);
        copied.filter(|p| !self.untouched.contains(p)).count() as u64 * PAGE_SIZE
    }

    /// Applies one op of this side's own (`Fork` and `ChildWrite` are the
    /// script's business).
    fn apply(&mut self, op: &MemOp) {
        match *op {
            MemOp::Write { addr, val, len } => {
                if addr >= AREA_B && !self.b_mapped {
                    return;
                }
                self.space
                    .write_bytes(addr, &vec![val; len])
                    .expect("write to mapped area");
                let page = addr - addr % PAGE_SIZE;
                self.resident.insert(page);
                self.untouched.remove(&page);
            }
            MemOp::Install { page, fill } => {
                if page >= AREA_B && !self.b_mapped {
                    return;
                }
                self.space
                    .install_page(page, Rc::new([fill; PAGE_SIZE as usize]));
                self.resident.insert(page);
                self.untouched.remove(&page);
            }
            MemOp::UnmapB => {
                if self.b_mapped {
                    assert!(self.space.unmap(AREA_B));
                    self.b_mapped = false;
                    self.resident.retain(|&p| p < AREA_B);
                    self.untouched.retain(|&p| p < AREA_B);
                }
            }
            MemOp::RemapB => {
                if !self.b_mapped {
                    self.space
                        .map(AREA_B, AREA_B_PAGES * PAGE_SIZE, "b")
                        .unwrap();
                    self.b_mapped = true;
                }
            }
            MemOp::Fork | MemOp::ChildWrite { .. } => {}
        }
    }
}

/// A space's non-zero pages as plain bytes.
fn bytes_of(space: &AddressSpace) -> BTreeMap<u64, Vec<u8>> {
    space
        .nonzero_pages()
        .map(|(a, p)| (a, p.to_vec()))
        .collect()
}

/// A fork child and the bytes it must hold: a plain copy of its parent's
/// at the fork, plus its own writes.
struct Child {
    side: Side,
    expect: BTreeMap<u64, Vec<u8>>,
}

/// Runs `ops` on `guest`, forking children as the script says.
fn run(guest: &mut Side, children: &mut Vec<Child>, ops: &[MemOp]) {
    for op in ops {
        match *op {
            MemOp::Fork => {
                let mut side = guest.clone();
                side.held.clear();
                side.untouched.clear();
                let expect = bytes_of(&guest.space);
                children.push(Child { side, expect });
            }
            MemOp::ChildWrite { addr, val, len } => {
                let Some(child) = children.last_mut() else {
                    continue;
                };
                child.side.apply(&MemOp::Write { addr, val, len });
                let page = child
                    .expect
                    .entry(addr - addr % PAGE_SIZE)
                    .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
                let at = (addr % PAGE_SIZE) as usize;
                page[at..at + len].fill(val);
            }
            _ => guest.apply(op),
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

    /// A held snapshot drains the frozen instant byte-for-byte, no matter
    /// what the owner writes, installs, unmaps, remaps or forks in between;
    /// it counts one copy per held page whose address now holds another
    /// buffer; the live space keeps the post-arm state; and each side of a
    /// fork sees only its own writes.
    #[test]
    fn cow_drain_matches_frozen_clone_under_arbitrary_writes(
        pre in proptest::collection::vec(arb_mem_op(), 0..32),
        post in proptest::collection::vec(arb_mem_op(), 0..32),
    ) {
        let mut guest = Side::new();
        let mut children = Vec::new();
        run(&mut guest, &mut children, &pre);

        // The stop-the-world reference: a clone frozen at the arm instant,
        // and its pages copied out as plain bytes.
        let frozen = guest.clone();
        let full = bytes_of(&frozen.space);
        let held = guest.arm();
        run(&mut guest, &mut children, &post);

        let drained: BTreeMap<u64, Vec<u8>> = held
            .iter()
            .filter(|(_, p)| nonzero(p))
            .map(|(a, p)| (*a, p.to_vec()))
            .collect();
        prop_assert_eq!(&drained, &full);
        prop_assert_eq!(guest.space.resident_pages(), guest.resident.len());
        let live: BTreeMap<u64, &PageBuf> = guest.space.pages().collect();
        let copied = held
            .iter()
            .filter(|(a, p)| live.get(a).is_some_and(|l| !Rc::ptr_eq(l, p)))
            .count() as u64
            * PAGE_SIZE;
        prop_assert_eq!(copied, guest.copies());

        // The live space keeps the post-arm state.
        let mut replay = frozen;
        for op in &post {
            replay.apply(op);
        }
        prop_assert_eq!(bytes_of(&guest.space), bytes_of(&replay.space));

        for child in &children {
            let mut expect = child.expect.clone();
            expect.retain(|_, p| p.iter().any(|&b| b != 0));
            prop_assert_eq!(bytes_of(&child.side.space), expect);
        }
    }

    /// Three worlds checkpoint the same instant of the same run — one per
    /// capture schedule: stop-the-world, write-back and COW. The committed
    /// epochs must be byte-identical and every application finishes
    /// correctly: the capture schedule is invisible above the store API.
    #[test]
    fn cow_epoch_is_byte_identical_to_stop_the_world(
        at_us in 200u64..12_000,
        optimized in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mode = if optimized { ProtocolMode::Optimized } else { ProtocolMode::Blocking };
        let runs: Vec<_> = [
            CkptCaptureMode::StopTheWorld,
            CkptCaptureMode::Writeback,
            CkptCaptureMode::Cow,
        ]
        .into_iter()
        .map(|capture| {
            let opts = CkptOptions { mode, capture: Some(capture), ..CkptOptions::default() };
            (capture, checkpoint_at(at_us, seed, opts))
        })
        .collect();

        let (_, (stw_images, _)) = &runs[0];
        for (capture, (images, _)) in &runs[1..] {
            prop_assert_eq!(stw_images.len(), images.len());
            for ((pod_s, bytes_s), (pod_c, bytes_c)) in stw_images.iter().zip(images.iter()) {
                prop_assert_eq!(pod_s, pod_c, "pod inventory diverged");
                prop_assert_eq!(
                    bytes_s, bytes_c,
                    "image for pod `{}` differs under {:?}", pod_s, capture
                );
            }
        }
        for (_, (_, mut w)) in runs {
            prop_assert!(w.run_until_pred(100_000_000, |w| w.job_finished("pp")));
            prop_assert_eq!(w.pod_exit_code("pp", "server", 1), Some(0));
            prop_assert_eq!(w.pod_exit_code("pp", "client", 1), Some(0));
        }
    }
}
