//! Per-process virtual memory: mapped areas backed by sparse 4 KiB pages.
//!
//! The address space is the bulk of a checkpoint image. As in the paper,
//! only the non-zero pages are saved: untouched demand-zero pages cost
//! nothing on disk and are recreated implicitly at restore.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use simcpu::cpu::CpuFault;
use simcpu::isa::{DecodeError, Inst, INST_SIZE};
use simcpu::mem::{fetch_uncached, MemFault, Memory};

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Largest shared-memory segment `shmget` creates, in bytes (64 MiB, eight
/// times one slm rank's state). A guest asking for more gets `EINVAL`
/// instead of the host allocating whatever size the guest chose.
pub const SHM_MAX_BYTES: u64 = 64 << 20;

/// Decoded-instruction slots per page: one per 16-byte-aligned PC.
const SLOTS_PER_PAGE: usize = (PAGE_SIZE / INST_SIZE) as usize;

/// One page's decoded instructions, one per aligned PC, decode errors
/// included. Built whole from the page's bytes on the first fetch from
/// the page and never changed after: a write to the page drops it, and a
/// fork shares it with the bytes it was decoded from.
type DecodedPage = Rc<[Result<Inst, DecodeError>; SLOTS_PER_PAGE]>;

/// The bits of a PC that [`AddressSpace`]'s fetch memo matches on: the page
/// number and the in-slot offset. A PC is served from the memo when this
/// part of it equals the memo's page address, that is, when it is aligned
/// and lies in the memo's page.
const MEMO_MASK: u64 = !(PAGE_SIZE - 1) | (INST_SIZE - 1);

/// One page's bytes: a shared, reference-counted buffer. A fork, an armed
/// copy-on-write checkpoint, a drained image and a restored space all hold
/// the same buffer until a write copies it (`Rc::make_mut`), so a holder
/// keeps the bytes as they were when it took the buffer.
pub type PageBuf = Rc<[u8; PAGE_SIZE as usize]>;

/// What backs a mapped area.
#[derive(Debug, Clone)]
pub enum AreaBacking {
    /// Private demand-zero pages.
    Private,
    /// A System-V shared-memory segment, shared between processes.
    Shared(SharedSeg),
}

/// A shared-memory segment handle (contents shared by all attachments).
#[derive(Debug, Clone)]
pub struct SharedSeg {
    /// Segment id, as returned by `shmget`.
    pub id: u64,
    /// The shared bytes.
    pub data: Rc<RefCell<Vec<u8>>>,
}

impl SharedSeg {
    /// Creates a zero-filled segment.
    pub fn new(id: u64, size: usize) -> Self {
        SharedSeg {
            id,
            data: Rc::new(RefCell::new(vec![0; size])),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// Returns true for an empty segment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A mapped region of the address space.
#[derive(Debug, Clone)]
pub struct VmArea {
    /// First byte address (page aligned).
    pub start: u64,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// Backing store.
    pub backing: AreaBacking,
    /// Human-readable tag (`text`, `data`, `stack`, `heap`, `shm`).
    pub tag: String,
}

impl VmArea {
    /// One-past-the-end address. [`AddressSpace`] never maps an area whose
    /// end overflows; for any other area the end saturates at `u64::MAX`.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.len)
    }

    /// True if `addr` falls inside the area.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// A process address space.
///
/// # Examples
///
/// ```
/// use simos::mem::AddressSpace;
/// use simcpu::mem::Memory;
///
/// let mut space = AddressSpace::new();
/// space.map(0x1000, 0x2000, "data").unwrap();
/// space.store_u64(0x1008, 42).unwrap();
/// assert_eq!(space.load_u64(0x1008).unwrap(), 42);
/// assert!(space.load_u64(0x5000).is_err(), "unmapped access faults");
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Sorted by start address and never overlapping.
    areas: Vec<VmArea>,
    /// Private pages, keyed by page-aligned address.
    pages: BTreeMap<u64, Page>,
    /// The last page fetched from and its decoded instructions: the same
    /// `Rc` as that page's `code`. Dropped wherever the page's code can
    /// change (a write to it, its unmap, an install over it), so while it
    /// is set it always agrees with the page table.
    memo: Option<(u64, DecodedPage)>,
}

/// One resident private page.
///
/// A page in the table always lies in a private area: the table is only
/// written through area-checked stores and loader installs, and unmapping
/// an area drops its pages.
#[derive(Debug, Clone)]
struct Page {
    /// The page's bytes: all a checkpoint ever reads of it. A thin
    /// pointer, so an entry stays two words; a clone shares it.
    bytes: PageBuf,
    /// Decoded instructions at the page's aligned PCs, built by
    /// [`Memory::fetch`] and dropped by every write to the page. Derived
    /// from `bytes` only and kept outside the shared buffer: a clone
    /// shares it, and an installed page starts without it.
    code: Option<DecodedPage>,
}

/// True if any byte of the page is non-zero: the pages a checkpoint saves.
/// Word-at-a-time: 4096 is a multiple of 8, so the check is at most 512
/// `u64` compares with no tail loop.
pub fn nonzero(page: &PageBuf) -> bool {
    page.chunks_exact(8).any(|w| w != [0u8; 8])
}

/// Decodes every aligned instruction of a page.
fn decode_page(bytes: &[u8; PAGE_SIZE as usize]) -> DecodedPage {
    let at = |i: usize| i * INST_SIZE as usize;
    Rc::new(std::array::from_fn(|i| {
        let raw = bytes[at(i)..at(i + 1)]
            .try_into()
            .expect("an aligned instruction lies in one page");
        Inst::decode(raw)
    }))
}

/// The area of `areas` (sorted, disjoint) that contains `addr`.
fn find_area(areas: &[VmArea], addr: u64) -> Option<&VmArea> {
    let after = areas.partition_point(|a| a.start <= addr);
    let area = &areas[after.checked_sub(1)?];
    area.contains(addr).then_some(area)
}

/// Error mapping a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The requested range overlaps an existing area.
    Overlap,
    /// Start or length is not page aligned, or length is zero.
    BadAlignment,
    /// The range runs past the end of the 64-bit address space.
    OutOfRange,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Overlap => write!(f, "mapping overlaps an existing area"),
            MapError::BadAlignment => write!(f, "mapping not page aligned or empty"),
            MapError::OutOfRange => write!(f, "mapping runs past the end of the address space"),
        }
    }
}

impl std::error::Error for MapError {}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a private demand-zero area.
    ///
    /// # Errors
    ///
    /// [`MapError`] on misalignment or overlap with an existing area.
    pub fn map(&mut self, start: u64, len: u64, tag: &str) -> Result<(), MapError> {
        self.map_area(start, len, AreaBacking::Private, tag)
    }

    /// Maps a shared segment at `start`.
    ///
    /// # Errors
    ///
    /// [`MapError`] on misalignment or overlap.
    pub fn map_shared(&mut self, start: u64, seg: SharedSeg, tag: &str) -> Result<(), MapError> {
        let len = (seg.len() as u64)
            .div_ceil(PAGE_SIZE)
            .checked_mul(PAGE_SIZE)
            .ok_or(MapError::OutOfRange)?;
        self.map_area(start, len, AreaBacking::Shared(seg), tag)
    }

    fn map_area(
        &mut self,
        start: u64,
        len: u64,
        backing: AreaBacking,
        tag: &str,
    ) -> Result<(), MapError> {
        if len == 0 || !start.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadAlignment);
        }
        let end = start.checked_add(len).ok_or(MapError::OutOfRange)?;
        if self.areas.iter().any(|a| start < a.end() && a.start < end) {
            return Err(MapError::Overlap);
        }
        self.areas.push(VmArea {
            start,
            len,
            backing,
            tag: tag.to_owned(),
        });
        self.areas.sort_by_key(|a| a.start);
        Ok(())
    }

    /// Unmaps the area starting at `start`, dropping its private pages.
    /// Returns true if an area was removed.
    pub fn unmap(&mut self, start: u64) -> bool {
        let Some(pos) = self.areas.iter().position(|a| a.start == start) else {
            return false;
        };
        let area = self.areas.remove(pos);
        self.pages.retain(|&a, _| !area.contains(a));
        self.memo = None;
        true
    }

    /// The mapped areas, sorted by start address.
    pub fn areas(&self) -> &[VmArea] {
        &self.areas
    }

    /// Finds the area containing `addr`.
    pub fn area_for(&self, addr: u64) -> Option<&VmArea> {
        find_area(&self.areas, addr)
    }

    /// Iterates over every resident private page (page address, contents)
    /// in address order, zero pages included.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &PageBuf)> {
        self.pages.iter().map(|(&a, p)| (a, &p.bytes))
    }

    /// Iterates over the resident private pages (page address, contents),
    /// skipping pages that are entirely zero — the checkpoint's page set.
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u64, &PageBuf)> {
        self.pages().filter(|(_, p)| nonzero(p))
    }

    /// Number of resident private pages (zero or not).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Installs a page buffer as it is (restore), replacing whatever the
    /// table held at `page_addr`. The buffer is shared, not copied. No area
    /// is checked: the caller keeps pages inside private areas.
    ///
    /// # Panics
    ///
    /// Panics if `page_addr` is not page aligned.
    pub fn install_page(&mut self, page_addr: u64, bytes: PageBuf) {
        assert_eq!(page_addr % PAGE_SIZE, 0, "page address must be aligned");
        self.pages.insert(page_addr, Page { bytes, code: None });
        self.drop_memo(page_addr);
    }

    /// Bulk-writes `data` at `addr` ignoring area bounds checks per byte
    /// (still requires the whole range to be mapped). Convenience for
    /// loaders.
    ///
    /// # Errors
    ///
    /// Returns the fault of the first unmapped byte.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.store(addr, data)
    }

    /// Reads `len` bytes at `addr` into a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns the fault of the first unmapped byte.
    pub fn read_bytes(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut buf = vec![0u8; len];
        self.load(addr, &mut buf)?;
        Ok(buf)
    }

    /// The page holding all of `[addr, addr + len)`, if that non-empty
    /// range lies in one page of a private area: the accesses the fast
    /// paths serve. Areas are page aligned, so the area holding `addr`
    /// holds its whole page.
    fn private_page(&self, addr: u64, len: usize) -> Option<u64> {
        let in_page = addr & (PAGE_SIZE - 1);
        if len == 0 || in_page + len as u64 > PAGE_SIZE {
            return None;
        }
        match find_area(&self.areas, addr)?.backing {
            AreaBacking::Private => Some(addr - in_page),
            AreaBacking::Shared(_) => None,
        }
    }

    /// Reads `out.len()` bytes at offset `in_page` of a private page
    /// (demand-zero if not resident).
    fn read_private(&self, page_addr: u64, in_page: usize, out: &mut [u8]) {
        match self.pages.get(&page_addr) {
            Some(p) => out.copy_from_slice(&p.bytes[in_page..in_page + out.len()]),
            None => out.fill(0),
        }
    }

    /// Writes `src` at offset `in_page` of a private page, allocating it on
    /// first touch: copies the buffer first if anything else shares it, and
    /// drops the page's decoded instructions.
    fn write_private(&mut self, page_addr: u64, in_page: usize, src: &[u8]) {
        let page = self.pages.entry(page_addr).or_insert_with(|| Page {
            bytes: Rc::new([0; PAGE_SIZE as usize]),
            code: None,
        });
        Rc::make_mut(&mut page.bytes)[in_page..in_page + src.len()].copy_from_slice(src);
        if page.code.take().is_some() {
            self.drop_memo(page_addr);
        }
    }

    /// Forgets the fetch memo if it serves the page at `page_addr`.
    fn drop_memo(&mut self, page_addr: u64) {
        if self.memo.as_ref().is_some_and(|(a, _)| *a == page_addr) {
            self.memo = None;
        }
    }

    /// [`Memory::fetch`] past the memo: the decode of an aligned PC in a
    /// resident private page, from the page's decoded instructions (built
    /// whole on the page's first fetch), which become the memo. `None` for
    /// everything else (unaligned PCs, demand-zero pages, shared segments,
    /// faults): those take [`fetch_uncached`], which the cache must always
    /// agree with.
    ///
    /// It returns the 16-byte decode, not a `Result<Inst, CpuFault>`: the
    /// decode comes back in registers, so `fetch` merges it with the memo's
    /// in registers too. Merged with a result returned through memory, each
    /// instruction was copied through the stack by overlapping stores that
    /// defeat store forwarding, which doubled the cost of a memo hit.
    fn fetch_page(&mut self, pc: u64) -> Option<Result<Inst, DecodeError>> {
        let in_page = pc & (PAGE_SIZE - 1);
        if !in_page.is_multiple_of(INST_SIZE) {
            return None;
        }
        let page_addr = pc - in_page;
        let page = self.pages.get_mut(&page_addr)?;
        // A page gets a cache only once its area was checked to be private,
        // and unmapping drops the page with its cache.
        let private = |a: &VmArea| matches!(a.backing, AreaBacking::Private);
        if page.code.is_none() && !find_area(&self.areas, pc).is_some_and(private) {
            return None;
        }
        let code = Rc::clone(page.code.get_or_insert_with(|| decode_page(&page.bytes)));
        let decoded = code[(in_page / INST_SIZE) as usize];
        self.memo = Some((page_addr, code));
        Some(decoded)
    }

    /// Checks that every byte of `[addr, addr + len)` is mapped, faulting
    /// on the first one that is not. Copies and touches nothing: syscalls
    /// use it to validate a guest buffer before they consume a stream.
    ///
    /// # Errors
    ///
    /// The fault of the first unmapped byte (tagged `write` as given).
    pub fn check_mapped(&self, addr: u64, len: usize, write: bool) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let end = addr
            .checked_add(len as u64)
            .ok_or(MemFault { addr, write })?;
        let mut cursor = addr;
        while cursor < end {
            let area = find_area(&self.areas, cursor).ok_or(MemFault {
                addr: cursor,
                write,
            })?;
            cursor = area.end().min(end);
        }
        Ok(())
    }

    /// Splits `[addr, addr + len)` into per-page chunks: (address, offset
    /// into the access, offset into the page, length).
    fn chunks(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            if off >= len {
                return None;
            }
            let a = addr + off as u64;
            let in_page = (a & (PAGE_SIZE - 1)) as usize;
            let chunk = (PAGE_SIZE as usize - in_page).min(len - off);
            let item = (a, off, in_page, chunk);
            off += chunk;
            Some(item)
        })
    }
}

impl Memory for AddressSpace {
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        if let Some(page_addr) = self.private_page(addr, buf.len()) {
            self.read_private(page_addr, (addr - page_addr) as usize, buf);
            return Ok(());
        }
        // Validate the whole range first, then copy page-wise.
        self.check_mapped(addr, buf.len(), false)?;
        for (a, off, in_page, chunk) in Self::chunks(addr, buf.len()) {
            let out = &mut buf[off..off + chunk];
            let area = find_area(&self.areas, a).expect("validated");
            match &area.backing {
                AreaBacking::Private => self.read_private(a - in_page as u64, in_page, out),
                AreaBacking::Shared(seg) => {
                    // Bytes past the segment's end read as zero.
                    let data = seg.data.borrow();
                    let rel = ((a - area.start) as usize).min(data.len());
                    let take = chunk.min(data.len() - rel);
                    out[..take].copy_from_slice(&data[rel..rel + take]);
                    out[take..].fill(0);
                }
            }
        }
        Ok(())
    }

    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        if let Some(page_addr) = self.private_page(addr, data.len()) {
            self.write_private(page_addr, (addr - page_addr) as usize, data);
            return Ok(());
        }
        // Validate the whole range first, so a faulting store writes nothing.
        self.check_mapped(addr, data.len(), true)?;
        for (a, off, in_page, chunk) in Self::chunks(addr, data.len()) {
            let src = &data[off..off + chunk];
            let area = find_area(&self.areas, a).expect("validated");
            if let AreaBacking::Shared(seg) = &area.backing {
                // Bytes past the segment's end are dropped.
                let mut d = seg.data.borrow_mut();
                let rel = ((a - area.start) as usize).min(d.len());
                let take = chunk.min(d.len() - rel);
                d[rel..rel + take].copy_from_slice(&src[..take]);
            } else {
                self.write_private(a - in_page as u64, in_page, src);
            }
        }
        Ok(())
    }

    /// Serves an aligned PC in the memo's page with one compare and one
    /// index; every other PC takes the page-table walk, which moves the
    /// memo to the PC's page when that page is cached.
    #[inline]
    fn fetch(&mut self, pc: u64) -> Result<Inst, CpuFault> {
        let decoded = match &self.memo {
            Some((page_addr, code)) if pc & MEMO_MASK == *page_addr => {
                code[(pc & (PAGE_SIZE - 1)) as usize / INST_SIZE as usize]
            }
            _ => match self.fetch_page(pc) {
                Some(decoded) => decoded,
                None => return fetch_uncached(self, pc),
            },
        };
        decoded.map_err(|e| bad_instruction(pc, e))
    }
}

/// The fault of an undecodable instruction at `pc`.
fn bad_instruction(pc: u64, e: DecodeError) -> CpuFault {
    CpuFault::BadInstruction {
        pc,
        opcode: e.opcode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page buffer starting with `prefix`, zero after it.
    fn page(prefix: &[u8]) -> PageBuf {
        let mut bytes = [0; PAGE_SIZE as usize];
        bytes[..prefix.len()].copy_from_slice(prefix);
        Rc::new(bytes)
    }

    #[test]
    fn demand_zero_reads() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "data").unwrap();
        assert_eq!(s.load_u64(0x1000).unwrap(), 0);
        assert_eq!(s.resident_pages(), 0, "reads do not allocate");
    }

    #[test]
    fn store_allocates_and_round_trips() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        s.store_u64(0x2ff8, 0x1122334455667788).unwrap();
        assert_eq!(s.load_u64(0x2ff8).unwrap(), 0x1122334455667788);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 2, "data").unwrap();
        // Write across a page boundary.
        s.store_u64(0x1ffc, u64::MAX).unwrap();
        assert_eq!(s.load_u64(0x1ffc).unwrap(), u64::MAX);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn cross_area_contiguous_access_works() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "a").unwrap();
        s.map(0x1000 + PAGE_SIZE, PAGE_SIZE, "b").unwrap();
        s.store_u64(0x1000 + PAGE_SIZE - 4, 7).unwrap();
        assert_eq!(s.load_u64(0x1000 + PAGE_SIZE - 4).unwrap(), 7);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "data").unwrap();
        let err = s.store_u64(0x1000 + PAGE_SIZE - 4, 7).unwrap_err();
        assert!(err.write);
        assert!(s.load_u64(0x8000).is_err());
    }

    #[test]
    fn map_validation() {
        let mut s = AddressSpace::new();
        assert_eq!(s.map(0x1001, PAGE_SIZE, "x"), Err(MapError::BadAlignment));
        assert_eq!(s.map(0x1000, 100, "x"), Err(MapError::BadAlignment));
        assert_eq!(s.map(0x1000, 0, "x"), Err(MapError::BadAlignment));
        s.map(0x1000, PAGE_SIZE * 2, "x").unwrap();
        assert_eq!(
            s.map(0x1000 + PAGE_SIZE, PAGE_SIZE, "y"),
            Err(MapError::Overlap)
        );
    }

    #[test]
    fn mappings_past_the_end_of_the_address_space_are_refused() {
        let mut s = AddressSpace::new();
        let last = !(PAGE_SIZE - 1); // the last page of the address space
        assert_eq!(s.map(last, PAGE_SIZE, "x"), Err(MapError::OutOfRange));
        let seg = SharedSeg::new(1, 10);
        assert_eq!(s.map_shared(last, seg, "shm"), Err(MapError::OutOfRange));
        // The highest mappable page ends exactly at the last page.
        s.map(last - PAGE_SIZE, PAGE_SIZE, "x").unwrap();
        assert_eq!(s.area_for(last - 1).map(VmArea::end), Some(last));
        assert!(s.load_u8(last).is_err());
    }

    #[test]
    fn unmap_frees_pages() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "x").unwrap();
        s.store_u8(0x1000, 1).unwrap();
        assert!(s.unmap(0x1000));
        assert_eq!(s.resident_pages(), 0);
        assert!(s.load_u8(0x1000).is_err());
        assert!(!s.unmap(0x1000));
    }

    #[test]
    fn nonzero_pages_skips_zero_pages() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 3, "x").unwrap();
        s.store_u8(0x1000, 0).unwrap(); // resident but zero
        s.store_u8(0x2000, 9).unwrap(); // nonzero
        let pages: Vec<u64> = s.nonzero_pages().map(|(a, _)| a).collect();
        assert_eq!(pages, vec![0x2000]);
        let resident: Vec<u64> = s.pages().map(|(a, _)| a).collect();
        assert_eq!(resident, vec![0x1000, 0x2000]);
    }

    #[test]
    fn shared_segment_visible_across_spaces() {
        let seg = SharedSeg::new(1, PAGE_SIZE as usize);
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        a.map_shared(0x10000, seg.clone(), "shm").unwrap();
        b.map_shared(0x20000, seg, "shm").unwrap();
        a.store_u64(0x10008, 777).unwrap();
        assert_eq!(b.load_u64(0x20008).unwrap(), 777);
    }

    /// A copy-on-write snapshot: every resident page's buffer, held.
    fn hold(space: &AddressSpace) -> Vec<(u64, PageBuf)> {
        space.pages().map(|(a, p)| (a, p.clone())).collect()
    }

    /// The held pages a capture saves must equal an eager capture of the
    /// same instant, whatever happened in between.
    fn assert_snapshot_matches(held: &[(u64, PageBuf)], frozen: &AddressSpace) {
        let expect: Vec<(u64, PageBuf)> = frozen
            .nonzero_pages()
            .map(|(a, p)| (a, p.clone()))
            .collect();
        let saved: Vec<(u64, PageBuf)> = held.iter().filter(|(_, p)| nonzero(p)).cloned().collect();
        assert_eq!(saved, expect);
    }

    /// Addresses of the held pages whose address now holds another buffer.
    fn replaced(space: &AddressSpace, held: &[(u64, PageBuf)]) -> Vec<u64> {
        let live: BTreeMap<u64, &PageBuf> = space.pages().collect();
        held.iter()
            .filter(|(a, p)| live.get(a).is_some_and(|l| !Rc::ptr_eq(l, p)))
            .map(|&(a, _)| a)
            .collect()
    }

    #[test]
    fn cow_snapshot_survives_racing_writes() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        s.store_u64(0x1000, 0x11).unwrap();
        s.store_u64(0x2000, 0x22).unwrap();
        let frozen = s.clone();
        let held = hold(&s);
        // Overwrite a held page, dirty a fresh one, and zero another.
        s.store_u64(0x1000, 0x99).unwrap();
        s.store_u64(0x3000, 0x33).unwrap();
        s.store_u64(0x2000, 0).unwrap();
        assert_snapshot_matches(&held, &frozen);
        // Live reads still see the new values.
        assert_eq!(s.load_u64(0x1000).unwrap(), 0x99);
        // Only the two held pages were copied; the fresh page was
        // demand-zero when the snapshot was taken.
        assert_eq!(replaced(&s, &held), vec![0x1000, 0x2000]);
        // Dropping the snapshot leaves every live page unshared.
        drop((held, frozen));
        assert!(s.pages().all(|(_, p)| Rc::strong_count(p) == 1));
    }

    #[test]
    fn cow_snapshot_survives_unmap_and_install() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "a").unwrap();
        s.map(0x5000, PAGE_SIZE, "b").unwrap();
        s.map(0x9000, PAGE_SIZE, "c").unwrap();
        s.store_u8(0x1000, 7).unwrap();
        s.store_u8(0x5000, 8).unwrap();
        s.store_u8(0x9000, 9).unwrap();
        let frozen = s.clone();
        let held = hold(&s);
        // Unmap one held area and remap it, loader-install over another,
        // and unmap the third for good.
        s.unmap(0x1000);
        s.map(0x1000, PAGE_SIZE, "a2").unwrap();
        s.store_u8(0x1000, 42).unwrap();
        s.install_page(0x5000, page(&[9, 9]));
        s.unmap(0x9000);
        assert_snapshot_matches(&held, &frozen);
        // A held address that holds another buffer counts; one that is no
        // longer resident does not.
        assert_eq!(replaced(&s, &held), vec![0x1000, 0x5000]);
    }

    /// True if the fetch memo, when set, is its page's decoded cache.
    fn memo_is_its_pages_cache(s: &AddressSpace) -> bool {
        s.memo.as_ref().is_none_or(|(a, memo)| {
            let code = s.pages.get(a).and_then(|p| p.code.as_ref());
            code.is_some_and(|code| Rc::ptr_eq(code, memo))
        })
    }

    #[test]
    fn a_decoded_page_is_one_page_of_memory() {
        assert_eq!(
            std::mem::size_of::<[Result<Inst, DecodeError>; SLOTS_PER_PAGE]>(),
            PAGE_SIZE as usize
        );
    }

    #[test]
    fn a_live_memo_is_always_its_pages_cache() {
        use simcpu::isa::R1;
        let text = 0x1000;
        let program: Vec<u8> = [Inst::Movi { rd: R1, imm: 1 }, Inst::Nop, Inst::Halt]
            .iter()
            .flat_map(|i| i.encode())
            .collect();
        let load = |s: &mut AddressSpace| {
            s.map(text, 2 * PAGE_SIZE, "text").unwrap();
            s.write_bytes(text, &program).unwrap();
            s.write_bytes(text + PAGE_SIZE, &program).unwrap();
        };
        let mut s = AddressSpace::new();
        load(&mut s);
        let second = text + PAGE_SIZE;
        type Step<'a> = (&'a str, Box<dyn Fn(&mut AddressSpace) + 'a>);
        let steps: Vec<Step> = vec![
            (
                "fetch",
                Box::new(|s| {
                    let _ = s.fetch(text);
                }),
            ),
            (
                "fetch other page",
                Box::new(|s| {
                    let _ = s.fetch(second);
                }),
            ),
            (
                "unaligned fetch",
                Box::new(|s| {
                    let _ = s.fetch(text + 3);
                }),
            ),
            (
                "store into memo page",
                Box::new(|s| s.store_u8(text + 16, 0).unwrap()),
            ),
            (
                "store elsewhere",
                Box::new(|s| s.store_u8(second + 40, 1).unwrap()),
            ),
            (
                "install over memo page",
                Box::new(|s| s.install_page(text, page(&program))),
            ),
            (
                "install elsewhere",
                Box::new(|s| s.install_page(second, page(&program))),
            ),
            (
                "unmap and remap",
                Box::new(|s| {
                    s.unmap(text);
                    load(s);
                }),
            ),
            (
                "fork and write",
                Box::new(|s| {
                    let twin = s.clone();
                    s.store_u8(text, 0).unwrap();
                    assert!(memo_is_its_pages_cache(&twin));
                }),
            ),
        ];
        // Every step after every other, each from a warm memo on one page.
        for (first, a) in &steps {
            for (then, b) in &steps {
                for warm in [text, second] {
                    let _ = s.fetch(warm);
                    a(&mut s);
                    b(&mut s);
                    assert!(memo_is_its_pages_cache(&s), "{first} then {then}");
                    // The memo serves exactly what the reference fetch does.
                    for pc in [text, text + 16, text + 32, second, second + 16] {
                        let cached = s.fetch(pc);
                        assert!(memo_is_its_pages_cache(&s));
                        assert_eq!(cached, fetch_uncached(&mut s, pc), "{first} then {then}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// The word-wise check agrees with a bytewise scan on pages with a
        /// few bytes set anywhere, zero values included.
        #[test]
        fn nonzero_matches_a_bytewise_scan(
            set in proptest::collection::vec((0..PAGE_SIZE as usize, 0u8..4), 0..4),
        ) {
            let mut bytes = [0; PAGE_SIZE as usize];
            for (at, value) in set {
                bytes[at] = value << 6;
            }
            let p = Rc::new(bytes);
            proptest::prop_assert_eq!(nonzero(&p), p.iter().any(|&b| b != 0));
        }
    }

    #[test]
    fn install_page_shares_the_buffer() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "text").unwrap();
        let buf = page(&[1, 2, 3]);
        s.install_page(0x1000, buf.clone());
        assert!(Rc::ptr_eq(s.nonzero_pages().next().unwrap().1, &buf));
        assert_eq!(s.load_u8(0x1000).unwrap(), 1);
        assert_eq!(s.load_u8(0x1002).unwrap(), 3);
        assert_eq!(s.load_u8(0x1003).unwrap(), 0);
        // The first write copies the shared buffer; the caller's is intact.
        s.store_u8(0x1000, 7).unwrap();
        assert_eq!((buf[0], s.load_u8(0x1000).unwrap()), (1, 7));
    }
}
