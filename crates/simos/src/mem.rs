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

/// The decode of one aligned PC, once the instruction there was fetched.
type DecodedSlot = Option<Result<Inst, DecodeError>>;

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
    /// Decoded instructions at the page's aligned PCs, filled by
    /// [`Memory::fetch`] and dropped by every write to the page. Derived
    /// from `bytes` only and kept outside the shared buffer: a clone
    /// copies it, and an installed page starts without it.
    code: Option<Box<[DecodedSlot; SLOTS_PER_PAGE]>>,
}

/// True if any byte of the page is non-zero: the pages a checkpoint saves.
pub fn nonzero(page: &PageBuf) -> bool {
    page.iter().any(|&b| b != 0)
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
        page.code = None;
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

    /// Serves aligned PCs in resident private pages from the page's
    /// decoded-instruction cache, decoding on a miss. Everything else
    /// (unaligned PCs, demand-zero pages, shared segments, faults) takes
    /// [`fetch_uncached`], which the cache must always agree with.
    fn fetch(&mut self, pc: u64) -> Result<Inst, CpuFault> {
        let in_page = pc & (PAGE_SIZE - 1);
        if !in_page.is_multiple_of(INST_SIZE) {
            return fetch_uncached(self, pc);
        }
        let Some(page) = self.pages.get_mut(&(pc - in_page)) else {
            return fetch_uncached(self, pc);
        };
        // A page gets a cache only once its area was checked to be private,
        // and unmapping drops the page with its cache.
        let private = |a: &VmArea| matches!(a.backing, AreaBacking::Private);
        if page.code.is_none() && !find_area(&self.areas, pc).is_some_and(private) {
            return fetch_uncached(self, pc);
        }
        let code = page
            .code
            .get_or_insert_with(|| Box::new([None; SLOTS_PER_PAGE]));
        let at = in_page as usize;
        let decoded = *code[at / INST_SIZE as usize].get_or_insert_with(|| {
            let raw = page.bytes[at..at + INST_SIZE as usize]
                .try_into()
                .expect("an aligned instruction lies in one page");
            Inst::decode(raw)
        });
        decoded.map_err(|e| CpuFault::BadInstruction {
            pc,
            opcode: e.opcode,
        })
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
