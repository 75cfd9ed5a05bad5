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
    /// Pages written since the last [`AddressSpace::clear_dirty`] (every
    /// checkpoint capture and restore re-baselines it).
    dirty: std::collections::BTreeSet<u64>,
    /// An armed copy-on-write snapshot, if a checkpoint drain is pending.
    cow: Option<CowSnapshot>,
}

/// One resident private page.
///
/// A page in the table always lies in a private area: the table is only
/// written through area-checked stores and loader installs, and unmapping
/// an area drops its pages.
#[derive(Debug, Clone)]
struct Page {
    /// The page's bytes: all a checkpoint ever reads of it. A thin
    /// pointer, so an entry stays two words.
    bytes: Box<[u8; PAGE_SIZE as usize]>,
    /// Decoded instructions at the page's aligned PCs, filled by
    /// [`Memory::fetch`] and dropped by every write to the page. Derived
    /// from `bytes` only; a clone copies it, and a restored space starts
    /// without it.
    code: Option<Box<[DecodedSlot; SLOTS_PER_PAGE]>>,
}

impl Page {
    fn zeroed() -> Page {
        Page {
            bytes: vec![0u8; PAGE_SIZE as usize]
                .into_boxed_slice()
                .try_into()
                .expect("a page-sized buffer"),
            code: None,
        }
    }
}

/// The area of `areas` (sorted, disjoint) that contains `addr`.
fn find_area(areas: &[VmArea], addr: u64) -> Option<&VmArea> {
    let after = areas.partition_point(|a| a.start <= addr);
    let area = &areas[after.checked_sub(1)?];
    area.contains(addr).then_some(area)
}

/// The state of one armed copy-on-write snapshot: everything needed to
/// reconstruct the private pages exactly as they were at
/// [`AddressSpace::cow_arm`] time, while the owning process keeps writing.
///
/// Arming is O(dirty set): no page is copied up front. The first
/// post-arm write to a page preserves its pre-image here (the write-protect
/// fault of a real COW implementation); pages never written again are read
/// straight from the live page table at drain time.
#[derive(Debug, Clone)]
struct CowSnapshot {
    /// Pre-images of pages mutated (or dropped) since arm. `Some(page)` is
    /// the page's contents at arm time; `None` records that the page was
    /// not resident (demand-zero) at arm time and must not appear in the
    /// snapshot even though it is resident now.
    preserved: BTreeMap<u64, Option<Box<[u8]>>>,
    /// Bytes of pre-image copies forced by post-arm writes — the extra
    /// copy cost COW trades for a short freeze.
    copied_bytes: u64,
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
        let keys: Vec<u64> = self
            .pages
            .range(area.start..area.end())
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.cow_preserve(k);
            self.pages.remove(&k);
        }
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

    /// Iterates over the resident private pages (page address, contents),
    /// skipping pages that are entirely zero — the checkpoint's page set.
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages
            .iter()
            .filter(|(_, p)| p.bytes.iter().any(|&b| b != 0))
            .map(|(&a, p)| (a, &p.bytes[..]))
    }

    /// Number of resident private pages (zero or not).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Installs page contents directly (used by program loading and restore).
    ///
    /// # Panics
    ///
    /// Panics if `page_addr` is not page aligned or `data` is longer than a
    /// page.
    pub fn install_page(&mut self, page_addr: u64, data: &[u8]) {
        assert_eq!(page_addr % PAGE_SIZE, 0, "page address must be aligned");
        assert!(data.len() <= PAGE_SIZE as usize, "page data too long");
        self.cow_preserve(page_addr);
        let mut page = Page::zeroed();
        page.bytes[..data.len()].copy_from_slice(data);
        self.pages.insert(page_addr, page);
        self.dirty.insert(page_addr);
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Addresses of the pages written since the last
    /// [`AddressSpace::clear_dirty`]: a page outside the set still holds
    /// what it held at that reset.
    pub fn dirty_set(&self) -> &std::collections::BTreeSet<u64> {
        &self.dirty
    }

    /// Resets dirty tracking (called when a checkpoint captures the space).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
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

    /// Total mapped bytes across areas.
    pub fn mapped_bytes(&self) -> u64 {
        self.areas.iter().map(|a| a.len).sum()
    }

    // ---- copy-on-write snapshots ---------------------------------------

    /// Arms a copy-on-write snapshot of the private pages: cheap
    /// (no page is copied), equivalent to write-protecting every page. From
    /// now until [`AddressSpace::cow_disarm`], the first write to any page
    /// preserves its pre-image, so the drain methods below reconstruct the
    /// pages exactly as they are at this instant — however long the owner
    /// keeps executing in between.
    ///
    /// Only private pages are covered: shared segments ([`SharedSeg`]) are
    /// kernel objects visible to other processes and must be captured
    /// eagerly while the whole pod is frozen. Re-arming replaces any
    /// previous snapshot.
    pub fn cow_arm(&mut self) {
        self.cow = Some(CowSnapshot {
            preserved: BTreeMap::new(),
            copied_bytes: 0,
        });
    }

    /// True while a snapshot is armed.
    pub fn cow_armed(&self) -> bool {
        self.cow.is_some()
    }

    /// Bytes of pre-image copies the armed snapshot has accumulated.
    pub fn cow_copied_bytes(&self) -> u64 {
        self.cow.as_ref().map(|c| c.copied_bytes).unwrap_or(0)
    }

    /// Drops the armed snapshot (drain complete, or checkpoint aborted),
    /// returning the pre-image copy bytes it accumulated.
    pub fn cow_disarm(&mut self) -> u64 {
        self.cow.take().map(|c| c.copied_bytes).unwrap_or(0)
    }

    /// The snapshot's view of one page: the preserved pre-image if the
    /// page was written since arm, the live page otherwise.
    fn cow_page_at_arm(&self, addr: u64) -> Option<&[u8]> {
        let snap = self.cow.as_ref()?;
        match snap.preserved.get(&addr) {
            Some(Some(pre)) => Some(&pre[..]),
            Some(None) => None, // not resident at arm time
            None => self.pages.get(&addr).map(|p| &p.bytes[..]),
        }
    }

    /// Every page address the snapshot may contain: live pages plus
    /// preserved pre-images (a page unmapped since arm is only in the
    /// latter).
    fn cow_candidate_addrs(&self) -> Vec<u64> {
        let Some(snap) = self.cow.as_ref() else {
            return Vec::new();
        };
        let mut addrs: Vec<u64> = self.pages.keys().copied().collect();
        addrs.extend(snap.preserved.keys().copied());
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    /// Drains the non-zero pages as of arm time — the full-image
    /// counterpart of [`AddressSpace::nonzero_pages`]. The snapshot stays
    /// armed; call [`AddressSpace::cow_disarm`] when done with it.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot is armed.
    pub fn cow_snapshot_pages(&self) -> Vec<(u64, Vec<u8>)> {
        assert!(self.cow.is_some(), "no armed snapshot to drain");
        self.cow_candidate_addrs()
            .into_iter()
            .filter_map(|a| self.cow_page_at_arm(a).map(|p| (a, p)))
            .filter(|(_, p)| p.iter().any(|&b| b != 0))
            .map(|(a, p)| (a, p.to_vec()))
            .collect()
    }

    /// Payload bytes a drain will produce, without materializing any
    /// copy — what the checkpoint scheduler needs at arm time to plan the
    /// background encode.
    pub fn cow_pending_bytes(&self) -> u64 {
        self.cow_candidate_addrs()
            .into_iter()
            .filter_map(|a| self.cow_page_at_arm(a))
            .filter(|p| p.iter().any(|&b| b != 0))
            .count() as u64
            * PAGE_SIZE
    }

    /// Preserves a page's pre-image before its first post-arm mutation
    /// (the write-protect fault handler of a real COW implementation).
    fn cow_preserve(&mut self, page_addr: u64) {
        let Some(snap) = self.cow.as_mut() else {
            return;
        };
        if snap.preserved.contains_key(&page_addr) {
            return; // already preserved by an earlier write
        }
        let pre = self
            .pages
            .get(&page_addr)
            .map(|p| p.bytes.clone() as Box<[u8]>);
        if pre.is_some() {
            snap.copied_bytes += PAGE_SIZE;
        }
        snap.preserved.insert(page_addr, pre);
    }

    fn page_of(&mut self, page_addr: u64) -> &mut Page {
        self.pages.entry(page_addr).or_insert_with(Page::zeroed)
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

    /// Writes `src` at offset `in_page` of a private page: preserves the
    /// COW pre-image, drops the page's decoded instructions and marks the
    /// page dirty.
    fn write_private(&mut self, page_addr: u64, in_page: usize, src: &[u8]) {
        self.cow_preserve(page_addr);
        let page = self.page_of(page_addr);
        page.bytes[in_page..in_page + src.len()].copy_from_slice(src);
        page.code = None;
        self.dirty.insert(page_addr);
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
    }

    #[test]
    fn dirty_tracking_follows_writes() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "x").unwrap();
        assert_eq!(s.dirty_count(), 0);
        s.store_u64(0x1000, 1).unwrap();
        s.store_u64(0x3000, 2).unwrap();
        let dirty: Vec<u64> = s.dirty_set().iter().copied().collect();
        assert_eq!(dirty, vec![0x1000, 0x3000]);
        s.clear_dirty();
        assert_eq!(s.dirty_count(), 0);
        // Overwriting with zero still dirties (the page changed).
        s.store_u64(0x1000, 0).unwrap();
        assert_eq!(s.dirty_count(), 1);
        // Reads do not dirty.
        let _ = s.load_u64(0x2000).unwrap();
        assert_eq!(s.dirty_count(), 1);
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

    /// The snapshot drained from an armed space must equal an eager capture
    /// of the same instant, whatever happened in between.
    fn assert_snapshot_matches(space: &AddressSpace, frozen: &AddressSpace) {
        let expect: Vec<(u64, Vec<u8>)> = frozen
            .nonzero_pages()
            .map(|(a, p)| (a, p.to_vec()))
            .collect();
        assert_eq!(space.cow_snapshot_pages(), expect);
    }

    #[test]
    fn cow_snapshot_survives_racing_writes() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        s.store_u64(0x1000, 0x11).unwrap();
        s.store_u64(0x2000, 0x22).unwrap();
        let frozen = s.clone();
        s.cow_arm();
        assert!(s.cow_armed());
        // Overwrite an armed page, dirty a fresh one, and zero another.
        s.store_u64(0x1000, 0x99).unwrap();
        s.store_u64(0x3000, 0x33).unwrap();
        s.store_u64(0x2000, 0).unwrap();
        assert_snapshot_matches(&s, &frozen);
        // Live reads still see the new values.
        assert_eq!(s.load_u64(0x1000).unwrap(), 0x99);
        // Only the two pre-existing pages forced a pre-image copy; the
        // fresh page was demand-zero at arm.
        assert_eq!(s.cow_copied_bytes(), 2 * PAGE_SIZE);
        assert_eq!(s.cow_disarm(), 2 * PAGE_SIZE);
        assert!(!s.cow_armed());
    }

    #[test]
    fn cow_snapshot_survives_unmap_and_install() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "a").unwrap();
        s.map(0x5000, PAGE_SIZE, "b").unwrap();
        s.store_u8(0x1000, 7).unwrap();
        s.store_u8(0x5000, 8).unwrap();
        let frozen = s.clone();
        s.cow_arm();
        // Unmap one armed area, remap it, and loader-install over the other.
        s.unmap(0x1000);
        s.map(0x1000, PAGE_SIZE, "a2").unwrap();
        s.store_u8(0x1000, 42).unwrap();
        s.install_page(0x5000, &[9, 9]);
        assert_snapshot_matches(&s, &frozen);
    }

    #[test]
    fn cow_pending_bytes_sizes_the_drain() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE * 4, "data").unwrap();
        assert_eq!(s.cow_pending_bytes(), 0, "nothing armed");
        s.store_u8(0x1000, 1).unwrap();
        s.store_u8(0x2000, 2).unwrap();
        s.store_u8(0x4000, 0).unwrap(); // resident but zero: not drained
        s.cow_arm();
        s.store_u8(0x3000, 4).unwrap(); // post-arm: excluded
        assert_eq!(s.cow_pending_bytes(), 2 * PAGE_SIZE);
        assert_eq!(
            s.cow_pending_bytes(),
            s.cow_snapshot_pages()
                .iter()
                .map(|(_, p)| p.len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn install_page_used_by_loader() {
        let mut s = AddressSpace::new();
        s.map(0x1000, PAGE_SIZE, "text").unwrap();
        s.install_page(0x1000, &[1, 2, 3]);
        assert_eq!(s.load_u8(0x1000).unwrap(), 1);
        assert_eq!(s.load_u8(0x1002).unwrap(), 3);
        assert_eq!(s.load_u8(0x1003).unwrap(), 0);
    }
}
