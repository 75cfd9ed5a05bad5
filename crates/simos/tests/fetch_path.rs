//! The address space's cached instruction fetch is invisible.
//!
//! `AddressSpace` overrides `Memory::fetch` with a per-page cache of
//! decoded instructions. Guest memory is the checkpoint, so the cache must
//! never change what a program does or what a capture sees. These
//! properties run the same random programs twice in lockstep: once on an
//! `AddressSpace`, and once through a wrapper that forwards only `load` and
//! `store`, so the uncached reference fetch runs. Between bursts of steps
//! the scripts rewrite code in every way the system can: guest stores into
//! text, loader writes and page installs, a held copy-on-write snapshot of
//! the pages, unmap and remap, fork-style clones, and another process
//! writing a shared segment.
//!
//! The address space also keeps a memo of the last page fetched from, so
//! the scripts include refetch steps: fetch a slot, change its page, and
//! fetch the same slot again. A memo that outlives a change to its page
//! serves the old instruction on the second fetch.

use std::rc::Rc;

use proptest::prelude::*;
use simcpu::cpu::{Cpu, CpuFault, StepOutcome};
use simcpu::isa::{INST_SIZE, R1, R2, R3, R4, SP};
use simcpu::mem::{MemFault, Memory};
use simos::mem::{nonzero, AddressSpace, PageBuf, SharedSeg, PAGE_SIZE};

/// Two private text pages.
const TEXT: u64 = 0x1_0000;
const TEXT_LEN: u64 = 2 * PAGE_SIZE;
/// One private data/stack page.
const DATA: u64 = 0x2_0000;
/// One shared-memory page that also holds code.
const SHM: u64 = 0x3_0000;
/// Never mapped.
const HOLE: u64 = 0x9_0000;
/// Slots at the start of text that programs keep coming back to.
const HOT_SLOTS: u64 = 16;

/// The uncached reference: only `load` and `store` are forwarded, so
/// `fetch` is `Memory`'s default.
#[derive(Clone)]
struct Reference(AddressSpace);

impl Memory for Reference {
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.0.load(addr, buf)
    }
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.0.store(addr, data)
    }
}

/// One side of the twin: its space and its own shared segment.
struct Side<M> {
    mem: M,
    seg: SharedSeg,
    cpu: Cpu,
}

fn build(text: &[u8], shm_code: &[u8]) -> (AddressSpace, SharedSeg) {
    let mut s = AddressSpace::new();
    s.map(TEXT, TEXT_LEN, "text").unwrap();
    s.map(DATA, PAGE_SIZE, "stack").unwrap();
    let seg = SharedSeg::new(1, PAGE_SIZE as usize);
    seg.data.borrow_mut()[..shm_code.len()].copy_from_slice(shm_code);
    s.map_shared(SHM, seg.clone(), "shm").unwrap();
    s.write_bytes(TEXT, text).unwrap();
    (s, seg)
}

fn start_cpu() -> Cpu {
    let mut cpu = Cpu::new(TEXT);
    // Base registers pointing at every region, so random stores and
    // register jumps land in code, data, shared memory and holes.
    cpu.set_reg(R1, TEXT);
    cpu.set_reg(R2, TEXT + PAGE_SIZE);
    cpu.set_reg(R3, SHM);
    cpu.set_reg(R4, TEXT + PAGE_SIZE - 8);
    cpu.set_reg(SP, DATA + PAGE_SIZE);
    cpu
}

/// Addresses programs jump to and scripts write at: aligned slots (mostly
/// the first few, which a restarted CPU executes again and again), any
/// byte of text (misaligned PCs), the fetch that straddles the two text
/// pages, the shared segment, data, and a hole.
fn target() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => (0..HOT_SLOTS).prop_map(|i| TEXT + i * INST_SIZE),
        2 => (0..TEXT_LEN / INST_SIZE).prop_map(|i| TEXT + i * INST_SIZE),
        2 => (0..TEXT_LEN).prop_map(|o| TEXT + o),
        1 => Just(TEXT + PAGE_SIZE - 8),
        2 => (0..PAGE_SIZE / INST_SIZE).prop_map(|i| SHM + i * INST_SIZE),
        1 => (0..PAGE_SIZE).prop_map(|o| DATA + o),
        1 => Just(HOLE),
    ]
}

/// One 16-byte instruction slot, biased towards valid encodings whose
/// immediates are interesting addresses or small offsets.
fn inst_bytes() -> impl Strategy<Value = Vec<u8>> {
    // Every valid opcode, plus a few that are not.
    const OPCODES: &[u8] = &[
        0x00, 0x01, 0x02, 0x03, 0x04, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,
        0x1a, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x30, 0x31, 0x32,
        0x33, 0x34, 0x35, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x50, 0x51,
        0x52, 0x53, 0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x0f, 0x7f, 0xff,
    ];
    let imm = prop_oneof![
        3 => target().prop_map(|t| t as i64),
        3 => -64i64..64,
        1 => any::<i64>(),
    ];
    (
        (0..OPCODES.len()).prop_map(|i| OPCODES[i]),
        proptest::array::uniform4(0u8..16),
        imm,
        proptest::array::uniform4(any::<u8>()),
    )
        .prop_map(|(op, regs, imm, pad)| {
            let mut b = vec![op, regs[0], regs[1], regs[2]];
            b.extend_from_slice(&imm.to_le_bytes());
            b.extend_from_slice(&pad);
            b
        })
}

fn code(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(inst_bytes(), 1..max).prop_map(|v| v.concat())
}

/// A change to the page of a slot just fetched, between two fetches of it.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// A store through `Memory::store`, the path a guest `st` takes.
    GuestStore,
    /// A loader or `write_guest`-style `write_bytes`.
    WriteBytes,
    /// A loader install of the whole page.
    Install,
    /// Unmap the text area and map it again, reloading the text with the
    /// new slot.
    Remap,
    /// Fork, then write the slot in the child (`true`) or the parent; both
    /// twins fetch again, and the script goes on in the child.
    ForkWrite(bool),
}

/// Something that happens to both sides between bursts of steps.
#[derive(Debug, Clone)]
enum Action {
    /// Step both CPUs this many times.
    Run(u16),
    /// A loader or `write_guest`-style write (may fault, identically).
    Write(u64, Vec<u8>),
    /// A `write_guest`-style write of a whole instruction into a hot slot.
    Patch(u64, Vec<u8>),
    /// A loader install of one page: over text, or (as a raw page-table
    /// write) under the shared segment or into a hole.
    Install(u64, Vec<u8>),
    /// Hold every resident page buffer, as a copy-on-write checkpoint's
    /// arm does.
    CowArm,
    /// Release the held buffers.
    CowDisarm,
    /// Unmap the text area and map it again, reloading the original
    /// text or leaving it demand-zero.
    Remap { reload: bool },
    /// Continue on a fork-style clone of the space.
    Fork,
    /// Another process writes the shared segment.
    PeerShm(u64, Vec<u8>),
    /// Move the PC.
    Jump(u64),
    /// Fetch the slot at this PC, give it these bytes by this change, and
    /// fetch it again.
    Refetch(u64, Change, Vec<u8>),
}

fn change() -> impl Strategy<Value = Change> {
    prop_oneof![
        Just(Change::GuestStore),
        Just(Change::WriteBytes),
        Just(Change::Install),
        Just(Change::Remap),
        any::<bool>().prop_map(Change::ForkWrite),
    ]
}

/// A slot the refetch steps rewrite: a hot one, or any slot of text.
fn slot() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => (0..HOT_SLOTS).prop_map(|i| TEXT + i * INST_SIZE),
        1 => (0..TEXT_LEN / INST_SIZE).prop_map(|i| TEXT + i * INST_SIZE),
    ]
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        8 => (1u16..64).prop_map(Action::Run),
        2 => (target(), proptest::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(a, d)| Action::Write(a, d)),
        3 => (0..HOT_SLOTS, inst_bytes())
            .prop_map(|(i, d)| Action::Patch(TEXT + i * INST_SIZE, d)),
        1 => (0..4usize, inst_bytes())
            .prop_map(|(p, d)| Action::Install([TEXT, TEXT + PAGE_SIZE, SHM, HOLE][p], d)),
        1 => Just(Action::CowArm),
        1 => Just(Action::CowDisarm),
        1 => any::<bool>().prop_map(|reload| Action::Remap { reload }),
        1 => Just(Action::Fork),
        1 => (0..PAGE_SIZE - 16, inst_bytes()).prop_map(|(o, d)| Action::PeerShm(o, d)),
        2 => target().prop_map(Action::Jump),
        3 => (slot(), change(), inst_bytes()).prop_map(|(pc, c, d)| Action::Refetch(pc, c, d)),
    ]
}

/// Steps one side once, restarting a halted or faulted CPU at the text
/// base so the script keeps executing code.
fn step<M: Memory>(side: &mut Side<M>) -> Result<StepOutcome, CpuFault> {
    let r = side.cpu.step(&mut side.mem);
    if !matches!(r, Ok(StepOutcome::Continue | StepOutcome::Syscall)) {
        side.cpu = Cpu::restore(*side.cpu.regs(), TEXT, false);
    }
    r
}

/// Applies a non-`Run` action to one side's space.
fn apply(space: &mut AddressSpace, seg: &SharedSeg, text: &[u8], act: &Action) {
    match act {
        Action::Run(_)
        | Action::Jump(_)
        | Action::Fork
        | Action::CowArm
        | Action::CowDisarm
        | Action::Refetch(..) => {}
        Action::Write(a, d) | Action::Patch(a, d) => {
            let _ = space.write_bytes(*a, d);
        }
        Action::Install(p, d) => {
            let mut page = [0; PAGE_SIZE as usize];
            page[..d.len()].copy_from_slice(d);
            space.install_page(*p, Rc::new(page));
        }
        Action::Remap { reload } => {
            assert!(space.unmap(TEXT));
            space.map(TEXT, TEXT_LEN, "text").unwrap();
            if *reload {
                space.write_bytes(TEXT, text).unwrap();
            }
        }
        Action::PeerShm(o, d) => {
            let at = *o as usize;
            seg.data.borrow_mut()[at..at + d.len()].copy_from_slice(d);
        }
    }
}

/// Gives the slot at `pc` the bytes `d` by `change`, on a space that has
/// no fork (`ForkWrite` is the caller's).
fn rewrite(space: &mut AddressSpace, pc: u64, change: Change, d: &[u8]) {
    match change {
        Change::GuestStore => space.store(pc, d).unwrap(),
        Change::WriteBytes | Change::ForkWrite(_) => space.write_bytes(pc, d).unwrap(),
        Change::Install => {
            let page_addr = pc & !(PAGE_SIZE - 1);
            let mut page: [u8; PAGE_SIZE as usize] = space
                .read_bytes(page_addr, PAGE_SIZE as usize)
                .unwrap()
                .try_into()
                .unwrap();
            let at = (pc - page_addr) as usize;
            page[at..at + d.len()].copy_from_slice(d);
            space.install_page(page_addr, Rc::new(page));
        }
        Change::Remap => {
            let mut reload = space.read_bytes(TEXT, TEXT_LEN as usize).unwrap();
            let at = (pc - TEXT) as usize;
            reload[at..at + d.len()].copy_from_slice(d);
            assert!(space.unmap(TEXT));
            space.map(TEXT, TEXT_LEN, "text").unwrap();
            space.write_bytes(TEXT, &reload).unwrap();
        }
    }
}

fn pages(space: &AddressSpace) -> Vec<(u64, Vec<u8>)> {
    space
        .nonzero_pages()
        .map(|(a, p)| (a, p.to_vec()))
        .collect()
}

fn hold(space: &AddressSpace) -> Vec<(u64, PageBuf)> {
    space.pages().map(|(a, p)| (a, p.clone())).collect()
}

/// The held non-zero pages, and the held addresses that now hold another
/// buffer: what a drain saves and what it counts as copied.
fn drained(space: &AddressSpace, held: &[(u64, PageBuf)]) -> (Vec<(u64, PageBuf)>, Vec<u64>) {
    let saved = held.iter().filter(|(_, p)| nonzero(p));
    let live: std::collections::BTreeMap<u64, &PageBuf> = space.pages().collect();
    let copied = held
        .iter()
        .filter(|(a, p)| live.get(a).is_some_and(|l| !Rc::ptr_eq(l, p)))
        .map(|&(a, _)| a);
    (saved.cloned().collect(), copied.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cached and uncached fetch agree on every step's outcome or fault,
    /// the registers and the PC, through every kind of code rewrite; at
    /// the end the captured pages and COW snapshot agree too.
    #[test]
    fn cached_fetch_matches_the_uncached_reference(
        text in code(64),
        shm_code in code(64),
        script in proptest::collection::vec(action(), 1..40),
    ) {
        let (space, seg) = build(&text, &shm_code);
        let mut fast = Side { mem: space, seg, cpu: start_cpu() };
        let (space, seg) = build(&text, &shm_code);
        let mut slow = Side { mem: Reference(space), seg, cpu: start_cpu() };
        // Each side's held copy-on-write snapshot, while armed.
        let (mut fast_held, mut slow_held) = (None, None);

        for act in &script {
            match act {
                Action::Run(n) => {
                    for _ in 0..*n {
                        let pc = fast.cpu.pc();
                        prop_assert_eq!(step(&mut fast), step(&mut slow), "pc {:#x}", pc);
                        prop_assert_eq!(&fast.cpu, &slow.cpu);
                    }
                }
                Action::Jump(t) => {
                    fast.cpu.set_pc(*t);
                    slow.cpu.set_pc(*t);
                }
                Action::Fork => {
                    fast.mem = fast.mem.clone();
                    slow.mem = slow.mem.clone();
                }
                Action::CowArm => {
                    fast_held = Some(hold(&fast.mem));
                    slow_held = Some(hold(&slow.mem.0));
                }
                Action::CowDisarm => {
                    fast_held = None;
                    slow_held = None;
                }
                Action::Refetch(pc, change, d) => {
                    prop_assert_eq!(fast.mem.fetch(*pc), slow.mem.fetch(*pc));
                    if let Change::ForkWrite(in_child) = *change {
                        let (mut fast_child, mut slow_child) =
                            (fast.mem.clone(), slow.mem.clone());
                        let (f, s) = if in_child {
                            (&mut fast_child, &mut slow_child.0)
                        } else {
                            (&mut fast.mem, &mut slow.mem.0)
                        };
                        rewrite(f, *pc, *change, d);
                        rewrite(s, *pc, *change, d);
                        prop_assert_eq!(fast.mem.fetch(*pc), slow.mem.fetch(*pc), "parent");
                        prop_assert_eq!(fast_child.fetch(*pc), slow_child.fetch(*pc), "child");
                        fast.mem = fast_child;
                        slow.mem = slow_child;
                    } else {
                        rewrite(&mut fast.mem, *pc, *change, d);
                        rewrite(&mut slow.mem.0, *pc, *change, d);
                        prop_assert_eq!(fast.mem.fetch(*pc), slow.mem.fetch(*pc));
                    }
                }
                _ => {
                    apply(&mut fast.mem, &fast.seg, &text, act);
                    apply(&mut slow.mem.0, &slow.seg, &text, act);
                }
            }
        }

        let (f, s) = (&fast.mem, &slow.mem.0);
        prop_assert_eq!(pages(f), pages(s));
        if let (Some(fh), Some(sh)) = (&fast_held, &slow_held) {
            prop_assert_eq!(drained(f, fh), drained(s, sh));
        }
        prop_assert_eq!(fast.seg.data.borrow().clone(), slow.seg.data.borrow().clone());
    }

    /// Executing arbitrary bytes on an address space never panics, and
    /// agrees with the uncached fetch step for step, cold and then with
    /// the cache warm. An undecodable instruction faults with its own PC
    /// and opcode byte, whether its decode came from the cache or not.
    #[test]
    fn executing_garbage_never_panics_on_an_address_space(
        bytes in proptest::collection::vec(any::<u8>(), 256..2 * PAGE_SIZE as usize),
        entry_frac in 0.0f64..1.0,
        misalign in prop_oneof![3 => Just(0u64), 1 => 1u64..16],
        sp in any::<u16>(),
    ) {
        let (space, seg) = build(&bytes, &[]);
        let mut fast = Side { mem: space, seg, cpu: Cpu::new(0) };
        let (space, seg) = build(&bytes, &[]);
        let mut slow = Side { mem: Reference(space), seg, cpu: Cpu::new(0) };
        let slot = (bytes.len() as f64 * entry_frac) as u64 / INST_SIZE;
        let entry = TEXT + slot * INST_SIZE + misalign;

        for _pass in 0..2 {
            fast.cpu = Cpu::new(entry);
            fast.cpu.set_reg(SP, u64::from(sp));
            fast.cpu.set_reg(R1, TEXT);
            slow.cpu = fast.cpu.clone();
            for _ in 0..2_000 {
                let r = fast.cpu.step(&mut fast.mem);
                prop_assert_eq!(r, slow.cpu.step(&mut slow.mem));
                prop_assert_eq!(&fast.cpu, &slow.cpu);
                match r {
                    Ok(StepOutcome::Continue | StepOutcome::Syscall) => {}
                    Err(CpuFault::BadInstruction { pc, opcode }) => {
                        prop_assert_eq!(pc, fast.cpu.pc());
                        prop_assert_eq!(opcode, fast.mem.load_u8(pc).unwrap());
                        break;
                    }
                    _ => break,
                }
            }
        }
    }
}

/// A store into the instruction the CPU is about to execute takes effect
/// on the very next fetch of it.
#[test]
fn self_modifying_code_sees_its_own_store() {
    use simcpu::asm::Asm;
    use simcpu::isa::{Inst, R5};

    let mut a = Asm::new(TEXT);
    let patched = TEXT + 4 * INST_SIZE;
    let patch = Inst::Movi { rd: R5, imm: 2 }.encode();
    a.movi(R1, patched as i64);
    a.movi(R2, i64::from_le_bytes(patch[0..8].try_into().unwrap()));
    a.movi(R3, 3); // loop counter
    let top = a.label();
    a.bind(top);
    a.subi(R3, R3, 1);
    a.movi(R5, 1); // the instruction the loop patches
    a.st(R1, R2, 0);
    a.jnz(R3, top);
    a.halt();
    let mut space = AddressSpace::new();
    space.map(TEXT, PAGE_SIZE, "text").unwrap();
    a.load_into(&mut space).unwrap();

    let mut cpu = Cpu::new(TEXT);
    // First pass: executes (and caches) `movi r5, 1`, then patches it.
    for _ in 0..5 {
        cpu.step(&mut space).unwrap();
    }
    assert_eq!(cpu.reg(R5), 1);
    let (_, out) = cpu.run(&mut space, 100).unwrap();
    assert_eq!(out, StepOutcome::Halted);
    assert_eq!(cpu.reg(R5), 2, "the cached decode was dropped by the store");
}
