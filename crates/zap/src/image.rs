//! The on-disk checkpoint image format.
//!
//! A pod image is a self-contained byte string: pod identity and network
//! configuration, every kernel object the pod's processes reference (shared
//! memory, semaphores, pipes, sockets with their §4.1 TCP snapshots), each
//! thread group's address space (areas plus non-zero pages only) and
//! descriptor table, and per-process CPU state. Images written on one node
//! restore on any other.
//!
//! The codec is deliberately explicit (length-prefixed fields, magic,
//! version, trailing checksum) rather than derived: the format *is* the
//! compatibility surface a checkpoint system ships.

use std::rc::Rc;

use simnet::addr::{IpAddr, MacAddr, SockAddr};
use simnet::tcp::{SeqNum, TcpSnapshot, TcpState};
use simnet::SockSnapshot;
use simos::mem::PageBuf;

/// Image magic number (`CRZ1`).
pub const MAGIC: u32 = 0x4352_5a31;
/// Current format version.
pub const VERSION: u16 = 1;

mod codec;

pub use codec::{Assembler, ContentDigest, ImageError, ImageReader, ImageWriter, SealFold, Sealed};

// ---- image structures --------------------------------------------------------

/// How the pod's VIF gets its MAC (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacMode {
    /// The VIF owns a dedicated, migratable MAC (hardware supports multiple
    /// MACs or promiscuous mode).
    Dedicated(MacAddr),
    /// The VIF shares the physical NIC's MAC; the pod keeps a *fake* MAC
    /// that DHCP identity is pinned to, and migration relies on gratuitous
    /// ARP.
    SharedPhysical {
        /// The fake MAC reported to the pod via `SIOCGIFHWADDR`.
        fake_mac: MacAddr,
    },
}

impl MacMode {
    /// The MAC the pod believes it has (dedicated or fake).
    pub fn pod_visible_mac(&self) -> MacAddr {
        match self {
            MacMode::Dedicated(m) => *m,
            MacMode::SharedPhysical { fake_mac } => *fake_mac,
        }
    }
}

/// A shared-memory segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmImage {
    /// `shmget` key.
    pub key: u64,
    /// Segment contents.
    pub data: Vec<u8>,
}

/// A semaphore set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemImage {
    /// `semget` key.
    pub key: u64,
    /// Semaphore values.
    pub values: Vec<i64>,
}

/// A pipe with its in-flight bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeImage {
    /// Buffered bytes.
    pub data: Vec<u8>,
    /// Open read-end references.
    pub readers: u32,
    /// Open write-end references.
    pub writers: u32,
}

/// A mapped memory area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaImage {
    /// Start address.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
    /// Tag string.
    pub tag: String,
    /// `None` for private; `Some(index)` into the image's shm table.
    pub shm_index: Option<u32>,
}

/// A descriptor-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescImage {
    /// The process console.
    Console,
    /// An open file.
    File {
        /// File path.
        path: String,
        /// Read/write offset.
        offset: u64,
    },
    /// A pipe end (index into the image pipe table).
    Pipe {
        /// Pipe index.
        index: u32,
        /// True for the write end.
        write_end: bool,
    },
    /// A socket (index into the image socket table).
    Socket {
        /// Socket index.
        index: u32,
    },
}

/// A thread group: one address space and descriptor table, shared by one or
/// more processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupImage {
    /// Mapped areas.
    pub areas: Vec<AreaImage>,
    /// Non-zero private pages: (page address, contents). A drain shares
    /// the snapshot's buffers, and a restore installs these as they are.
    pub pages: Vec<(u64, PageBuf)>,
    /// Descriptor entries: (fd, what).
    pub fds: Vec<(u32, DescImage)>,
}

/// A process's scheduling situation at checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStateImage {
    /// Runnable (or blocked on a retryable syscall — the pending record
    /// carries the retry).
    Ready,
    /// Sleeping until an absolute simulated time (nanoseconds).
    SleepUntil(u64),
    /// Exited with a code (kept for `waitpid` after restore).
    Zombie(u64),
}

/// One process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcImage {
    /// Virtual pid within the pod.
    pub vpid: u32,
    /// Parent's virtual pid (0 = pod root).
    pub parent_vpid: u32,
    /// Index into the image's group table.
    pub group: u32,
    /// Register file.
    pub regs: [u64; 16],
    /// Program counter.
    pub pc: u64,
    /// Whether the CPU had executed `halt`.
    pub halted: bool,
    /// A blocked syscall to re-issue after restore.
    pub pending: Option<(u64, [u64; 5])>,
    /// Scheduling state.
    pub run_state: RunStateImage,
    /// Console lines (carried across migration for continuity).
    pub console: Vec<String>,
}

/// A complete pod checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodImage {
    /// Pod name.
    pub name: String,
    /// The pod's externally routable IP (preserved across migration).
    pub ip: IpAddr,
    /// VIF MAC configuration.
    pub mac_mode: MacMode,
    /// Next virtual pid to allocate.
    pub next_vpid: u32,
    /// Shared-memory segments.
    pub shm: Vec<ShmImage>,
    /// Semaphore sets.
    pub sems: Vec<SemImage>,
    /// Pipes.
    pub pipes: Vec<PipeImage>,
    /// Sockets, each as the network stack snapshots it
    /// ([`simnet::NetStack::snapshot`]).
    pub sockets: Vec<SockSnapshot>,
    /// Thread groups.
    pub groups: Vec<GroupImage>,
    /// Processes.
    pub procs: Vec<ProcImage>,
}

impl PodImage {
    /// Serializes the image (with header and checksum).
    pub fn encode(&self) -> Vec<u8> {
        self.seal().into_bytes()
    }

    /// Serializes the image and computes its checksum and content digest
    /// in one pass ([`ImageWriter::seal`]); the bytes equal
    /// [`PodImage::encode`]'s.
    pub fn seal(&self) -> Sealed {
        self.write(Vec::new(), &mut Vec::new()).seal()
    }

    /// Serializes the image and reports the `(offset, len)` of every bulk
    /// payload — private pages and shared-memory segments — within the
    /// returned bytes. The deduplicating store pins chunk boundaries to
    /// these regions so an unchanged page re-hashes to the same chunk id
    /// even when the variable-length metadata around it shifts between
    /// epochs. Cuts are ascending and non-overlapping.
    pub fn encode_with_page_cuts(&self) -> (Vec<u8>, Vec<(usize, usize)>) {
        let (sealed, cuts) = self.seal_with_page_cuts();
        (sealed.into_bytes(), cuts)
    }

    /// [`PodImage::encode_with_page_cuts`], sealed in one pass like
    /// [`PodImage::seal`].
    pub fn seal_with_page_cuts(&self) -> (Sealed, Vec<(usize, usize)>) {
        let mut cuts = Vec::new();
        let sealed = self.write(Vec::new(), &mut cuts).seal();
        (sealed, cuts)
    }

    /// The image serialized up to its checksum trailer, with the page cuts
    /// [`PodImage::encode_with_page_cuts`] reports: what [`PodImage::seal`]
    /// seals, for a caller that runs the sealing pass itself
    /// ([`ImageWriter::seal_named`], or
    /// `cruz::store::CheckpointStore::prepare_sealed`, which names the
    /// chunk ranges in that pass). The image is written into `buf`, whose
    /// contents are discarded first; the bytes do not depend on what it
    /// held or how large it is.
    pub fn unsealed(&self, buf: Vec<u8>) -> (ImageWriter, Vec<(usize, usize)>) {
        let mut cuts = Vec::new();
        let w = self.write(buf, &mut cuts);
        (w, cuts)
    }

    /// Serializes everything but the checksum trailer into `buf`,
    /// recording the bulk payload cuts.
    fn write(&self, buf: Vec<u8>, cuts: &mut Vec<(usize, usize)>) -> ImageWriter {
        let mut w = ImageWriter::over(buf);
        w.u32(MAGIC);
        w.u16(VERSION);
        // Reserved flag byte, always 0 (keeps image bytes stable).
        w.u8(0);
        w.str(&self.name);
        w.u32(self.ip.to_bits());
        match self.mac_mode {
            MacMode::Dedicated(m) => {
                w.u8(0);
                w.bytes(&m.octets());
            }
            MacMode::SharedPhysical { fake_mac } => {
                w.u8(1);
                w.bytes(&fake_mac.octets());
            }
        }
        w.u32(self.next_vpid);

        w.u32(self.shm.len() as u32);
        for s in &self.shm {
            w.u64(s.key);
            // The payload starts after the 8-byte length prefix.
            cuts.push((w.len() + 8, s.data.len()));
            w.bytes(&s.data);
        }
        w.u32(self.sems.len() as u32);
        for s in &self.sems {
            w.u64(s.key);
            w.u32(s.values.len() as u32);
            for &v in &s.values {
                w.i64(v);
            }
        }
        w.u32(self.pipes.len() as u32);
        for p in &self.pipes {
            w.bytes(&p.data);
            w.u32(p.readers);
            w.u32(p.writers);
        }
        w.u32(self.sockets.len() as u32);
        for s in &self.sockets {
            encode_sock(&mut w, s);
        }
        w.u32(self.groups.len() as u32);
        for g in &self.groups {
            encode_group(&mut w, g, cuts);
        }
        w.u32(self.procs.len() as u32);
        for p in &self.procs {
            encode_proc(&mut w, p);
        }
        w
    }

    /// Parses an image. Only canonical bytes decode: a flag byte other
    /// than 0 or 1, an unknown tag or TCP state, or bytes after the last
    /// process are refused, so an accepted image re-encodes to exactly its
    /// input.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<PodImage, ImageError> {
        Self::from_reader(ImageReader::verify(data)?)
    }

    /// Parses an image from a reader over its checksum-verified body
    /// ([`ImageReader::verify`] or [`Sealed::reader`]).
    fn from_reader(mut r: ImageReader<'_>) -> Result<PodImage, ImageError> {
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(ImageError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(ImageError::BadVersion(version));
        }
        // A nonzero flag marks a delta image, which nothing can restore.
        match r.u8()? {
            0 => {}
            t => return Err(ImageError::BadTag(t)),
        }
        let name = r.str()?;
        let ip = IpAddr::from_bits(r.u32()?);
        let mac_mode = match r.u8()? {
            0 => MacMode::Dedicated(read_mac(&mut r)?),
            1 => MacMode::SharedPhysical {
                fake_mac: read_mac(&mut r)?,
            },
            t => return Err(ImageError::BadTag(t)),
        };
        let next_vpid = r.u32()?;

        let n = r.u32()?;
        let mut shm = r.vec_for(n);
        for _ in 0..n {
            shm.push(ShmImage {
                key: r.u64()?,
                data: r.bytes()?,
            });
        }
        let n = r.u32()?;
        let mut sems = r.vec_for(n);
        for _ in 0..n {
            let key = r.u64()?;
            let m = r.u32()?;
            let mut values = r.vec_for(m);
            for _ in 0..m {
                values.push(r.i64()?);
            }
            sems.push(SemImage { key, values });
        }
        let n = r.u32()?;
        let mut pipes = r.vec_for(n);
        for _ in 0..n {
            pipes.push(PipeImage {
                data: r.bytes()?,
                readers: r.u32()?,
                writers: r.u32()?,
            });
        }
        let n = r.u32()?;
        let mut sockets = r.vec_for(n);
        for _ in 0..n {
            sockets.push(decode_sock(&mut r)?);
        }
        let n = r.u32()?;
        let mut groups = r.vec_for(n);
        for _ in 0..n {
            groups.push(decode_group(&mut r)?);
        }
        let n = r.u32()?;
        let mut procs = r.vec_for(n);
        for _ in 0..n {
            procs.push(decode_proc(&mut r)?);
        }
        r.end()?;
        Ok(PodImage {
            name,
            ip,
            mac_mode,
            next_vpid,
            shm,
            sems,
            pipes,
            sockets,
            groups,
            procs,
        })
    }

    /// Total payload bytes the image will occupy (used for disk timing):
    /// the body the encoder writes plus the 8-byte checksum trailer, with
    /// no checksum pass.
    pub fn encoded_len(&self) -> usize {
        self.write(Vec::new(), &mut Vec::new()).len() + 8
    }

    /// Private-page payload bytes across all thread groups — the part of
    /// the image a copy-on-write checkpoint defers to the background
    /// drain; everything else ([`PodImage::encoded_len`] minus this) must
    /// be serialized inside the freeze window.
    pub fn page_payload_bytes(&self) -> u64 {
        self.groups
            .iter()
            .flat_map(|g| g.pages.iter())
            .map(|(_, data)| data.len() as u64)
            .sum()
    }
}

fn read_mac(r: &mut ImageReader<'_>) -> Result<MacAddr, ImageError> {
    let b = r.bytes()?;
    if b.len() != 6 {
        return Err(ImageError::Truncated);
    }
    Ok(MacAddr::new(b.try_into().expect("6 bytes")))
}

fn write_sockaddr(w: &mut ImageWriter, a: SockAddr) {
    w.u32(a.ip.to_bits());
    w.u16(a.port);
}

fn read_sockaddr(r: &mut ImageReader<'_>) -> Result<SockAddr, ImageError> {
    let ip = IpAddr::from_bits(r.u32()?);
    let port = r.u16()?;
    Ok(SockAddr::new(ip, port))
}

fn write_bound(w: &mut ImageWriter, bound: Option<SockAddr>) {
    w.bool(bound.is_some());
    if let Some(b) = bound {
        write_sockaddr(w, b);
    }
}

fn read_bound(r: &mut ImageReader<'_>) -> Result<Option<SockAddr>, ImageError> {
    Ok(if r.bool()? {
        Some(read_sockaddr(r)?)
    } else {
        None
    })
}

fn encode_sock(w: &mut ImageWriter, s: &SockSnapshot) {
    match s {
        SockSnapshot::Listen {
            local,
            backlog,
            pending,
        } => {
            w.u8(0);
            write_sockaddr(w, *local);
            w.u32(*backlog);
            w.u32(pending.len() as u32);
            for snap in pending {
                encode_conn(w, snap);
            }
        }
        SockSnapshot::Conn(snap) => {
            w.u8(1);
            encode_conn(w, snap);
        }
        SockSnapshot::Fresh { bound } => {
            w.u8(3);
            write_bound(w, *bound);
        }
        SockSnapshot::Udp { bound, queue } => {
            w.u8(2);
            write_bound(w, *bound);
            w.u32(queue.len() as u32);
            for (from, data) in queue {
                write_sockaddr(w, *from);
                w.bytes(data);
            }
        }
    }
}

fn decode_sock(r: &mut ImageReader<'_>) -> Result<SockSnapshot, ImageError> {
    Ok(match r.u8()? {
        0 => {
            let local = read_sockaddr(r)?;
            let backlog = r.u32()?;
            let n = r.u32()?;
            let mut pending = r.vec_for(n);
            for _ in 0..n {
                pending.push(decode_conn(r)?);
            }
            SockSnapshot::Listen {
                local,
                backlog,
                pending,
            }
        }
        1 => SockSnapshot::Conn(decode_conn(r)?),
        2 => {
            let bound = read_bound(r)?;
            let n = r.u32()?;
            let mut queue = r.vec_for(n);
            for _ in 0..n {
                let from = read_sockaddr(r)?;
                queue.push((from, r.bytes()?));
            }
            SockSnapshot::Udp { bound, queue }
        }
        3 => SockSnapshot::Fresh {
            bound: read_bound(r)?,
        },
        t => return Err(ImageError::BadTag(t)),
    })
}

/// A connection's §4.1 snapshot, its receive stream last.
fn encode_conn(w: &mut ImageWriter, snap: &TcpSnapshot) {
    write_sockaddr(w, snap.local);
    write_sockaddr(w, snap.remote);
    w.u8(encode_tcp_state(snap.state));
    w.u32(snap.snd_una.raw());
    w.u32(snap.rcv_nxt.raw());
    w.u32(snap.peer_window);
    w.bool(snap.nodelay);
    w.bool(snap.cork);
    w.u32(snap.inflight.len() as u32);
    for p in &snap.inflight {
        w.bytes(p);
    }
    w.bytes(&snap.unsent);
    w.bytes(&snap.recv_stream);
}

fn decode_conn(r: &mut ImageReader<'_>) -> Result<TcpSnapshot, ImageError> {
    let local = read_sockaddr(r)?;
    let remote = read_sockaddr(r)?;
    let state = decode_tcp_state(r.u8()?)?;
    let snd_una = SeqNum::new(r.u32()?);
    let rcv_nxt = SeqNum::new(r.u32()?);
    let peer_window = r.u32()?;
    let nodelay = r.bool()?;
    let cork = r.bool()?;
    let n = r.u32()?;
    let mut inflight = r.vec_for(n);
    for _ in 0..n {
        inflight.push(r.bytes()?);
    }
    Ok(TcpSnapshot {
        local,
        remote,
        state,
        snd_una,
        rcv_nxt,
        peer_window,
        nodelay,
        cork,
        inflight,
        unsent: r.bytes()?,
        recv_stream: r.bytes()?,
    })
}

fn encode_tcp_state(s: TcpState) -> u8 {
    match s {
        TcpState::SynSent => 0,
        TcpState::SynRcvd => 1,
        TcpState::Established => 2,
        TcpState::FinWait1 => 3,
        TcpState::FinWait2 => 4,
        TcpState::CloseWait => 5,
        TcpState::Closing => 6,
        TcpState::LastAck => 7,
        TcpState::TimeWait => 8,
        TcpState::Closed => 9,
    }
}

fn decode_tcp_state(b: u8) -> Result<TcpState, ImageError> {
    Ok(match b {
        0 => TcpState::SynSent,
        1 => TcpState::SynRcvd,
        2 => TcpState::Established,
        3 => TcpState::FinWait1,
        4 => TcpState::FinWait2,
        5 => TcpState::CloseWait,
        6 => TcpState::Closing,
        7 => TcpState::LastAck,
        8 => TcpState::TimeWait,
        9 => TcpState::Closed,
        t => return Err(ImageError::BadTag(t)),
    })
}

fn encode_group(w: &mut ImageWriter, g: &GroupImage, cuts: &mut Vec<(usize, usize)>) {
    w.u32(g.areas.len() as u32);
    for a in &g.areas {
        w.u64(a.start);
        w.u64(a.len);
        w.str(&a.tag);
        match a.shm_index {
            Some(i) => {
                w.bool(true);
                w.u32(i);
            }
            None => w.bool(false),
        }
    }
    w.u32(g.pages.len() as u32);
    for (addr, data) in &g.pages {
        w.u64(*addr);
        cuts.push((w.len() + 8, data.len()));
        w.bytes(&data[..]);
    }
    w.u32(g.fds.len() as u32);
    for (fd, d) in &g.fds {
        w.u32(*fd);
        match d {
            DescImage::Console => w.u8(0),
            DescImage::File { path, offset } => {
                w.u8(1);
                w.str(path);
                w.u64(*offset);
            }
            DescImage::Pipe { index, write_end } => {
                w.u8(2);
                w.u32(*index);
                w.bool(*write_end);
            }
            DescImage::Socket { index } => {
                w.u8(3);
                w.u32(*index);
            }
        }
    }
}

fn decode_group(r: &mut ImageReader<'_>) -> Result<GroupImage, ImageError> {
    let n = r.u32()?;
    let mut areas = r.vec_for(n);
    for _ in 0..n {
        let start = r.u64()?;
        let len = r.u64()?;
        let tag = r.str()?;
        let shm_index = if r.bool()? { Some(r.u32()?) } else { None };
        areas.push(AreaImage {
            start,
            len,
            tag,
            shm_index,
        });
    }
    let n = r.u32()?;
    let mut pages = r.vec_for(n);
    for _ in 0..n {
        let addr = r.u64()?;
        // The one copy of a page on restore; a payload that is not
        // exactly one page fails the conversion.
        let page = PageBuf::try_from(Rc::<[u8]>::from(r.slice()?))
            .map_err(|p| ImageError::BadPage(p.len() as u64))?;
        pages.push((addr, page));
    }
    let n = r.u32()?;
    let mut fds = r.vec_for(n);
    for _ in 0..n {
        let fd = r.u32()?;
        let d = match r.u8()? {
            0 => DescImage::Console,
            1 => DescImage::File {
                path: r.str()?,
                offset: r.u64()?,
            },
            2 => DescImage::Pipe {
                index: r.u32()?,
                write_end: r.bool()?,
            },
            3 => DescImage::Socket { index: r.u32()? },
            t => return Err(ImageError::BadTag(t)),
        };
        fds.push((fd, d));
    }
    Ok(GroupImage { areas, pages, fds })
}

fn encode_proc(w: &mut ImageWriter, p: &ProcImage) {
    w.u32(p.vpid);
    w.u32(p.parent_vpid);
    w.u32(p.group);
    for &r in &p.regs {
        w.u64(r);
    }
    w.u64(p.pc);
    w.bool(p.halted);
    match p.pending {
        Some((num, args)) => {
            w.bool(true);
            w.u64(num);
            for a in args {
                w.u64(a);
            }
        }
        None => w.bool(false),
    }
    match p.run_state {
        RunStateImage::Ready => w.u8(0),
        RunStateImage::SleepUntil(t) => {
            w.u8(1);
            w.u64(t);
        }
        RunStateImage::Zombie(c) => {
            w.u8(2);
            w.u64(c);
        }
    }
    w.u32(p.console.len() as u32);
    for line in &p.console {
        w.str(line);
    }
}

fn decode_proc(r: &mut ImageReader<'_>) -> Result<ProcImage, ImageError> {
    let vpid = r.u32()?;
    let parent_vpid = r.u32()?;
    let group = r.u32()?;
    let mut regs = [0u64; 16];
    for v in regs.iter_mut() {
        *v = r.u64()?;
    }
    let pc = r.u64()?;
    let halted = r.bool()?;
    let pending = if r.bool()? {
        let num = r.u64()?;
        let mut args = [0u64; 5];
        for a in args.iter_mut() {
            *a = r.u64()?;
        }
        Some((num, args))
    } else {
        None
    };
    let run_state = match r.u8()? {
        0 => RunStateImage::Ready,
        1 => RunStateImage::SleepUntil(r.u64()?),
        2 => RunStateImage::Zombie(r.u64()?),
        t => return Err(ImageError::BadTag(t)),
    };
    let n = r.u32()?;
    let mut console = r.vec_for(n);
    for _ in 0..n {
        console.push(r.str()?);
    }
    Ok(ProcImage {
        vpid,
        parent_vpid,
        group,
        regs,
        pc,
        halted,
        pending,
        run_state,
        console,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> PodImage {
        PodImage {
            name: "pod0".into(),
            ip: IpAddr::from_octets([10, 0, 0, 50]),
            mac_mode: MacMode::SharedPhysical {
                fake_mac: MacAddr::from_index(1000),
            },
            next_vpid: 5,
            shm: vec![ShmImage {
                key: 7,
                data: vec![1, 2, 3],
            }],
            sems: vec![SemImage {
                key: 9,
                values: vec![0, 2, -0],
            }],
            pipes: vec![PipeImage {
                data: b"buffered".to_vec(),
                readers: 1,
                writers: 1,
            }],
            sockets: vec![
                SockSnapshot::Listen {
                    local: SockAddr::new(IpAddr::from_octets([10, 0, 0, 50]), 80),
                    backlog: 8,
                    pending: vec![TcpSnapshot {
                        local: SockAddr::new(IpAddr::from_octets([10, 0, 0, 50]), 80),
                        remote: SockAddr::new(IpAddr::from_octets([10, 0, 0, 8]), 999),
                        state: TcpState::Established,
                        snd_una: SeqNum::new(5),
                        rcv_nxt: SeqNum::new(6),
                        peer_window: 7,
                        nodelay: false,
                        cork: false,
                        inflight: vec![],
                        unsent: vec![],
                        recv_stream: b"queued".to_vec(),
                    }],
                },
                SockSnapshot::Conn(TcpSnapshot {
                    local: SockAddr::new(IpAddr::from_octets([10, 0, 0, 50]), 80),
                    remote: SockAddr::new(IpAddr::from_octets([10, 0, 0, 9]), 3333),
                    state: TcpState::CloseWait,
                    snd_una: SeqNum::new(1000),
                    rcv_nxt: SeqNum::new(2000),
                    peer_window: 65535,
                    nodelay: true,
                    cork: false,
                    inflight: vec![vec![1; 1460], vec![2; 40]],
                    unsent: vec![3; 10],
                    recv_stream: b"undelivered".to_vec(),
                }),
                SockSnapshot::Udp {
                    bound: Some(SockAddr::new(IpAddr::UNSPECIFIED, 53)),
                    queue: vec![(
                        SockAddr::new(IpAddr::from_octets([10, 0, 0, 9]), 5),
                        vec![9],
                    )],
                },
                SockSnapshot::Fresh { bound: None },
            ],
            groups: vec![GroupImage {
                areas: vec![
                    AreaImage {
                        start: 0x1000,
                        len: 0x1000,
                        tag: "text".into(),
                        shm_index: None,
                    },
                    AreaImage {
                        start: 0x8000,
                        len: 0x1000,
                        tag: "shm".into(),
                        shm_index: Some(0),
                    },
                ],
                pages: vec![(0x1000, Rc::new([0xaa; 4096]))],
                fds: vec![
                    (0, DescImage::Console),
                    (
                        1,
                        DescImage::File {
                            path: "/x".into(),
                            offset: 12,
                        },
                    ),
                    (
                        2,
                        DescImage::Pipe {
                            index: 0,
                            write_end: true,
                        },
                    ),
                    (3, DescImage::Socket { index: 1 }),
                ],
            }],
            procs: vec![ProcImage {
                vpid: 1,
                parent_vpid: 0,
                group: 0,
                regs: [7; 16],
                pc: 0x1040,
                halted: false,
                pending: Some((17, [3, 0x2000, 64, 0, 0])),
                run_state: RunStateImage::SleepUntil(123456789),
                console: vec!["hello".into()],
            }],
        }
    }

    #[test]
    fn round_trip() {
        let img = sample_image();
        let bytes = img.encode();
        let back = PodImage::decode(&bytes).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample_image().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert_eq!(PodImage::decode(&bytes), Err(ImageError::BadChecksum));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_image().encode();
        assert_eq!(PodImage::decode(&bytes[..4]), Err(ImageError::Truncated));
        // Cutting the tail invalidates the checksum.
        assert!(PodImage::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let img = sample_image();
        let mut w = ImageWriter::new();
        w.u32(0xdeadbeef);
        let mut bytes = w.finish();
        let _ = img;
        assert!(matches!(
            PodImage::decode(&bytes),
            Err(ImageError::BadMagic(0xdeadbeef))
        ));
        bytes.clear();
    }

    #[test]
    fn tcp_state_tags_round_trip() {
        for s in [
            TcpState::SynSent,
            TcpState::SynRcvd,
            TcpState::Established,
            TcpState::FinWait1,
            TcpState::FinWait2,
            TcpState::CloseWait,
            TcpState::Closing,
            TcpState::LastAck,
            TcpState::TimeWait,
            TcpState::Closed,
        ] {
            assert_eq!(decode_tcp_state(encode_tcp_state(s)).unwrap(), s);
        }
        assert!(decode_tcp_state(99).is_err());
    }

    #[test]
    fn page_cuts_locate_every_bulk_payload() {
        let mut img = sample_image();
        img.groups[0]
            .pages
            .push((0x5000, Rc::new(std::array::from_fn(|i| i as u8))));
        let (bytes, cuts) = img.encode_with_page_cuts();
        assert_eq!(
            bytes,
            img.encode(),
            "cut tracking must not perturb encoding"
        );
        // One cut per shm segment plus one per page, in ascending order.
        let n_payloads = img.shm.len() + img.groups.iter().map(|g| g.pages.len()).sum::<usize>();
        assert_eq!(cuts.len(), n_payloads);
        assert!(cuts.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
        // Each cut points at exactly one payload's bytes.
        let mut payloads: Vec<&[u8]> = img.shm.iter().map(|s| s.data.as_slice()).collect();
        payloads.extend(
            img.groups
                .iter()
                .flat_map(|g| g.pages.iter().map(|(_, d)| d.as_slice())),
        );
        for (&(off, len), payload) in cuts.iter().zip(payloads) {
            assert_eq!(&bytes[off..off + len], payload);
        }
    }

    #[test]
    fn mac_mode_visible_mac() {
        let m = MacAddr::from_index(3);
        assert_eq!(MacMode::Dedicated(m).pod_visible_mac(), m);
        assert_eq!(MacMode::SharedPhysical { fake_mac: m }.pod_visible_mac(), m);
    }
}
