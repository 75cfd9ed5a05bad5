//! The per-host network stack.
//!
//! `NetStack` is what a simulated node's kernel owns: network interfaces
//! (physical NIC plus any pod VIFs), the ARP cache, the packet filter, and
//! the TCP/UDP socket tables. It is time-explicit and side-effect free
//! except for its internal queues: incoming frames and application calls go
//! in; outgoing frames accumulate in [`NetStack::take_outgoing`] and
//! readiness transitions in [`NetStack::take_wakes`].

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use bytes::Bytes;
use des::{SimDuration, SimTime};

use crate::addr::{IpAddr, MacAddr, SockAddr};
use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::filter::{PacketFilter, Verdict};
use crate::frame::{EthFrame, EthPayload, Ipv4Packet, L4};
use crate::tcp::seq::SeqNum;
use crate::tcp::{Tcb, TcpConfig, TcpSegment, TcpState};
use crate::udp::UdpDatagram;

mod checkpoint;

pub use checkpoint::SockSnapshot;

/// Identifier of a socket within one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u64);

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sock{}", self.0)
    }
}

/// Identifier of a network interface within one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IfaceId(pub usize);

/// A network interface: the physical NIC or a pod VIF.
#[derive(Debug, Clone)]
pub struct Iface {
    /// Interface name (`eth0`, `vif3`, …).
    pub name: String,
    /// The MAC frames are sent from. VIFs may share the physical MAC.
    pub mac: MacAddr,
    /// IPs bound to this interface.
    pub ips: Vec<IpAddr>,
}

/// A readiness transition that should wake blocked processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockEvent {
    /// Data (or EOF) became available to read.
    Readable(SocketId),
    /// Send-buffer space became available.
    Writable(SocketId),
    /// A listening socket has a connection to accept.
    Acceptable(SocketId),
    /// A connect completed (successfully or not).
    Connected(SocketId),
}

/// Errors from socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The socket id does not exist.
    BadSocket,
    /// Operation not valid in the socket's current state.
    InvalidState,
    /// The requested local address/port is in use.
    AddrInUse,
    /// The requested local IP is not configured on any interface.
    AddrNotAvailable,
    /// No ephemeral ports left.
    PortsExhausted,
    /// The connection was reset by the peer (or aborted).
    ConnectionReset,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetError::BadSocket => "bad socket id",
            NetError::InvalidState => "invalid socket state for operation",
            NetError::AddrInUse => "address already in use",
            NetError::AddrNotAvailable => "address not available on this host",
            NetError::PortsExhausted => "no free ephemeral ports",
            NetError::ConnectionReset => "connection reset",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

/// Result of a TCP receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// Bytes were read.
    Data(Vec<u8>),
    /// No data available yet; the caller should block.
    WouldBlock,
    /// Orderly end of stream.
    Eof,
}

#[derive(Debug, Clone)]
enum SockEntry {
    /// TCP socket created but neither listening nor connected.
    TcpFresh { bound: Option<SockAddr> },
    /// TCP listener.
    TcpListen {
        local: SockAddr,
        backlog: usize,
        pending: VecDeque<SocketId>,
    },
    /// TCP connection endpoint.
    TcpConn(Box<Tcb>),
    /// UDP socket.
    Udp {
        bound: Option<SockAddr>,
        queue: VecDeque<(SockAddr, Bytes)>,
    },
}

/// The per-host network stack.
pub struct NetStack {
    ifaces: Vec<Iface>,
    arp: ArpCache,
    filter: PacketFilter,
    tcp_cfg: TcpConfig,
    subnet_prefix: u8,

    socks: BTreeMap<SocketId, SockEntry>,
    conn_index: BTreeMap<(SockAddr, SockAddr), SocketId>,
    listen_index: BTreeMap<SockAddr, SocketId>,
    udp_index: BTreeMap<u16, Vec<SocketId>>,

    next_sock: u64,
    next_eph_port: u16,
    next_iss: u32,

    out: Vec<EthFrame>,
    wakes: Vec<SockEvent>,
    /// Scratch for the segments one TCB call emits, reused call to call
    /// (taken while a call runs, put back once they are routed).
    segs: Vec<TcpSegment>,
    /// Unresolved destinations: last ARP request time and queued packets.
    pending_arp: BTreeMap<IpAddr, (SimTime, Vec<Ipv4Packet>)>,
    loopback: VecDeque<Ipv4Packet>,

    /// Frames dropped because the egress filter matched.
    pub egress_drops: u64,
}

impl fmt::Debug for NetStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetStack")
            .field("ifaces", &self.ifaces.len())
            .field("socks", &self.socks.len())
            .field("conns", &self.conn_index.len())
            .field("listeners", &self.listen_index.len())
            .finish()
    }
}

impl NetStack {
    /// Creates a stack whose physical NIC has the given MAC and IP, on a
    /// `/prefix` subnet.
    pub fn new(mac: MacAddr, ip: IpAddr, subnet_prefix: u8, tcp_cfg: TcpConfig) -> Self {
        NetStack {
            ifaces: vec![Iface {
                name: "eth0".to_owned(),
                mac,
                ips: vec![ip],
            }],
            arp: ArpCache::new(),
            filter: PacketFilter::new(),
            tcp_cfg,
            subnet_prefix,
            socks: BTreeMap::new(),
            conn_index: BTreeMap::new(),
            listen_index: BTreeMap::new(),
            udp_index: BTreeMap::new(),
            next_sock: 1,
            next_eph_port: 32768,
            next_iss: 1000,
            out: Vec::new(),
            wakes: Vec::new(),
            segs: Vec::new(),
            pending_arp: BTreeMap::new(),
            loopback: VecDeque::new(),
            egress_drops: 0,
        }
    }

    /// The host's primary IP (first address of the physical NIC).
    pub fn primary_ip(&self) -> IpAddr {
        self.ifaces[0].ips[0]
    }

    /// The physical NIC's MAC address.
    pub fn primary_mac(&self) -> MacAddr {
        self.ifaces[0].mac
    }

    /// The subnet prefix length this host considers local (the paper's
    /// migration scope: source and destination share a routing domain).
    pub fn subnet_prefix(&self) -> u8 {
        self.subnet_prefix
    }

    /// Mutable access to the packet filter (the Checkpoint Agent's hook).
    pub fn filter_mut(&mut self) -> &mut PacketFilter {
        &mut self.filter
    }

    /// Read access to the packet filter.
    pub fn filter(&self) -> &PacketFilter {
        &self.filter
    }

    /// Read access to the ARP cache.
    pub fn arp_cache(&self) -> &ArpCache {
        &self.arp
    }

    // ---- interface management (VIF support) ------------------------------

    /// Attaches a new interface (a pod VIF). Returns its id.
    pub fn add_iface(
        &mut self,
        name: impl Into<String>,
        mac: MacAddr,
        ips: Vec<IpAddr>,
    ) -> IfaceId {
        self.ifaces.push(Iface {
            name: name.into(),
            mac,
            ips,
        });
        IfaceId(self.ifaces.len() - 1)
    }

    /// Detaches an interface by name (the physical NIC cannot be removed).
    /// Returns true if an interface was removed.
    pub fn remove_iface(&mut self, name: &str) -> bool {
        if let Some(pos) = self.ifaces.iter().skip(1).position(|i| i.name == name) {
            self.ifaces.remove(pos + 1);
            true
        } else {
            false
        }
    }

    /// Looks up an interface by name.
    pub fn iface(&self, name: &str) -> Option<&Iface> {
        self.ifaces.iter().find(|i| i.name == name)
    }

    /// True if `ip` is bound to any local interface.
    pub fn is_local_ip(&self, ip: IpAddr) -> bool {
        self.ifaces.iter().any(|i| i.ips.contains(&ip))
    }

    /// Broadcasts a gratuitous ARP binding `ip` to `mac` — the §4.2 update
    /// a migrated pod's new host sends.
    pub fn send_gratuitous_arp(&mut self, ip: IpAddr, mac: MacAddr) {
        let pkt = ArpPacket::gratuitous(mac, ip);
        self.emit_frame(EthFrame::new(mac, MacAddr::BROADCAST, EthPayload::Arp(pkt)));
    }

    // ---- host-facing queues ----------------------------------------------

    /// Drains frames queued for transmission on the physical link, in
    /// queue order. The queue keeps its capacity for the next frames.
    pub fn take_outgoing(&mut self) -> std::vec::Drain<'_, EthFrame> {
        self.out.drain(..)
    }

    /// Drains readiness transitions since the last call, in order.
    pub fn take_wakes(&mut self) -> std::vec::Drain<'_, SockEvent> {
        self.wakes.drain(..)
    }

    /// The earliest pending protocol timer across all sockets.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.socks
            .values()
            .filter_map(|s| match s {
                SockEntry::TcpConn(tcb) => tcb.next_timer(),
                _ => None,
            })
            .min()
    }

    /// Fires all protocol timers that are due at `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        let due: Vec<SocketId> = self
            .socks
            .iter()
            .filter_map(|(&sid, s)| match s {
                SockEntry::TcpConn(tcb) => match tcb.next_timer() {
                    Some(d) if d <= now => Some(sid),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let mut segs = std::mem::take(&mut self.segs);
        for sid in due {
            let (local, remote, before, after) = {
                let Some(SockEntry::TcpConn(tcb)) = self.socks.get_mut(&sid) else {
                    continue;
                };
                let before = readiness(tcb);
                tcb.on_timer(now, &mut segs);
                let after = readiness(tcb);
                (tcb.local(), tcb.remote(), before, after)
            };
            self.push_readiness_wakes(sid, before, after);
            self.route_segments(local, remote, &mut segs, now);
            self.reap_closed(sid);
        }
        self.segs = segs;
        self.drain_loopback(now);
    }

    // ---- frame input -------------------------------------------------------

    /// Processes a frame received from the wire at `now`.
    pub fn on_frame(&mut self, frame: EthFrame, now: SimTime) {
        // Accept frames addressed to any local MAC or broadcast.
        let for_us = frame.dst.is_broadcast() || self.ifaces.iter().any(|i| i.mac == frame.dst);
        if !for_us {
            return;
        }
        if self.filter.check(&frame) == Verdict::Drop {
            return;
        }
        match frame.payload {
            EthPayload::Arp(arp) => self.on_arp(arp, now),
            EthPayload::Ipv4(pkt) => {
                self.on_ipv4(pkt, now);
                self.drain_loopback(now);
            }
        }
    }

    fn on_arp(&mut self, arp: ArpPacket, now: SimTime) {
        self.arp.observe(&arp);
        // Flush packets that were waiting on this resolution.
        if let Some((_, waiting)) = self.pending_arp.remove(&arp.sender_ip) {
            for pkt in waiting {
                self.send_ip(pkt, now);
            }
        }
        if arp.op == ArpOp::Request {
            if let Some(iface) = self.ifaces.iter().find(|i| i.ips.contains(&arp.target_ip)) {
                let reply = ArpPacket::reply(&arp, iface.mac, arp.target_ip);
                let frame = EthFrame::new(iface.mac, arp.sender_mac, EthPayload::Arp(reply));
                self.emit_frame(frame);
            }
        }
        self.drain_loopback(now);
    }

    fn on_ipv4(&mut self, pkt: Ipv4Packet, now: SimTime) {
        let local = pkt.dst.is_broadcast() || self.is_local_ip(pkt.dst);
        if !local {
            return;
        }
        match pkt.payload {
            L4::Tcp(seg) => self.on_tcp_segment(pkt.src, pkt.dst, seg, now),
            L4::Udp(dgram) => self.on_udp_datagram(pkt.src, pkt.dst, dgram),
        }
    }

    fn on_tcp_segment(&mut self, src_ip: IpAddr, dst_ip: IpAddr, seg: TcpSegment, now: SimTime) {
        let local = SockAddr::new(dst_ip, seg.dst_port);
        let remote = SockAddr::new(src_ip, seg.src_port);
        // Established connection?
        if let Some(&sid) = self.conn_index.get(&(local, remote)) {
            let mut replies = std::mem::take(&mut self.segs);
            let (l, r, before, after, newly_connected) = {
                let Some(SockEntry::TcpConn(tcb)) = self.socks.get_mut(&sid) else {
                    self.segs = replies;
                    return;
                };
                let before = readiness(tcb);
                let was_connected = tcb.is_connected();
                tcb.on_segment(&seg, now, &mut replies);
                let after = readiness(tcb);
                let newly_connected = !was_connected && tcb.is_connected();
                (tcb.local(), tcb.remote(), before, after, newly_connected)
            };
            self.push_readiness_wakes(sid, before, after);
            if newly_connected {
                self.wakes.push(SockEvent::Connected(sid));
                // Notify the parent listener, if this was a pending child.
                self.promote_pending_child(sid);
            }
            self.route_segments(l, r, &mut replies, now);
            self.segs = replies;
            self.reap_closed(sid);
            return;
        }
        // A listener?
        let listener = self
            .listen_index
            .get(&local)
            .or_else(|| {
                self.listen_index
                    .get(&SockAddr::new(IpAddr::UNSPECIFIED, seg.dst_port))
            })
            .copied();
        if let Some(lsid) = listener {
            if seg.flags.syn && !seg.flags.ack {
                self.spawn_child(lsid, local, remote, &seg, now);
                return;
            }
        }
        // No home for this segment: RST (unless it is itself a RST).
        if !seg.flags.rst {
            let rst = TcpSegment {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: seg.ack,
                ack: seg.seq_end(),
                flags: crate::tcp::TcpFlags::RST,
                window: 0,
                payload: Bytes::new(),
            };
            self.send_ip(
                Ipv4Packet {
                    src: dst_ip,
                    dst: src_ip,
                    payload: L4::Tcp(rst),
                },
                now,
            );
        }
    }

    fn spawn_child(
        &mut self,
        lsid: SocketId,
        local: SockAddr,
        remote: SockAddr,
        syn: &TcpSegment,
        now: SimTime,
    ) {
        // Check backlog capacity.
        let Some(SockEntry::TcpListen {
            backlog, pending, ..
        }) = self.socks.get(&lsid)
        else {
            return;
        };
        if pending.len() >= *backlog {
            return; // silently drop the SYN; client will retransmit
        }
        let iss = self.alloc_iss();
        let (tcb, mut segs) = Tcb::accept_syn(self.tcp_cfg.clone(), local, remote, iss, syn, now);
        let sid = self.alloc_sock();
        self.socks.insert(sid, SockEntry::TcpConn(Box::new(tcb)));
        self.conn_index.insert((local, remote), sid);
        if let Some(SockEntry::TcpListen { pending, .. }) = self.socks.get_mut(&lsid) {
            pending.push_back(sid);
        }
        self.route_segments(local, remote, &mut segs, now);
    }

    /// When a pending child completes its handshake, wake accepters.
    fn promote_pending_child(&mut self, child: SocketId) {
        let parent = self.socks.iter().find_map(|(&sid, s)| match s {
            SockEntry::TcpListen { pending, .. } if pending.contains(&child) => Some(sid),
            _ => None,
        });
        if let Some(p) = parent {
            self.wakes.push(SockEvent::Acceptable(p));
        }
    }

    fn on_udp_datagram(&mut self, src_ip: IpAddr, dst_ip: IpAddr, dgram: UdpDatagram) {
        let Some(sids) = self.udp_index.get(&dgram.dst_port) else {
            return;
        };
        let from = SockAddr::new(src_ip, dgram.src_port);
        let sids = sids.clone();
        for sid in sids {
            if let Some(SockEntry::Udp { bound, queue }) = self.socks.get_mut(&sid) {
                // Respect a specific bound IP unless the packet is broadcast.
                if let Some(b) = bound {
                    if !b.ip.is_unspecified() && b.ip != dst_ip && !dst_ip.is_broadcast() {
                        continue;
                    }
                }
                queue.push_back((from, dgram.payload.clone()));
                self.wakes.push(SockEvent::Readable(sid));
            }
        }
    }

    // ---- socket API: common ----------------------------------------------

    /// Creates a TCP socket.
    pub fn tcp_socket(&mut self) -> SocketId {
        let sid = self.alloc_sock();
        self.socks.insert(sid, SockEntry::TcpFresh { bound: None });
        sid
    }

    /// Creates a UDP socket.
    pub fn udp_socket(&mut self) -> SocketId {
        let sid = self.alloc_sock();
        self.socks.insert(
            sid,
            SockEntry::Udp {
                bound: None,
                queue: VecDeque::new(),
            },
        );
        sid
    }

    /// Closes and removes a socket. TCP connections close gracefully.
    pub fn close(&mut self, sid: SocketId, now: SimTime) {
        let Some(entry) = self.socks.get_mut(&sid) else {
            return;
        };
        match entry {
            SockEntry::TcpConn(tcb) => {
                let mut segs = std::mem::take(&mut self.segs);
                tcb.close(now, &mut segs);
                let (l, r) = (tcb.local(), tcb.remote());
                self.route_segments(l, r, &mut segs, now);
                self.segs = segs;
                self.reap_closed(sid);
            }
            SockEntry::TcpListen { local, .. } => {
                let local = *local;
                self.listen_index.remove(&local);
                self.socks.remove(&sid);
            }
            SockEntry::Udp { .. } => self.remove_udp(sid),
            SockEntry::TcpFresh { .. } => {
                self.socks.remove(&sid);
            }
        }
        self.drain_loopback(now);
    }

    /// Binds a socket to a local address. An unspecified IP means "any local
    /// address"; port 0 allocates an ephemeral port.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrNotAvailable`] if the IP is not local,
    /// [`NetError::AddrInUse`] if the port is taken,
    /// [`NetError::InvalidState`] if the socket is already connected or
    /// listening.
    pub fn bind(&mut self, sid: SocketId, addr: SockAddr) -> Result<SockAddr, NetError> {
        if !addr.ip.is_unspecified() && !self.is_local_ip(addr.ip) {
            return Err(NetError::AddrNotAvailable);
        }
        let port = if addr.port == 0 {
            self.alloc_ephemeral_port()?
        } else {
            addr.port
        };
        let resolved = SockAddr::new(addr.ip, port);
        match self.socks.get_mut(&sid) {
            Some(SockEntry::TcpFresh { bound }) => {
                if self.listen_index.contains_key(&resolved) {
                    return Err(NetError::AddrInUse);
                }
                *bound = Some(resolved);
                Ok(resolved)
            }
            Some(SockEntry::Udp { bound, .. }) => {
                if bound.is_some() {
                    return Err(NetError::InvalidState);
                }
                *bound = Some(resolved);
                self.udp_index.entry(port).or_default().push(sid);
                Ok(resolved)
            }
            Some(_) => Err(NetError::InvalidState),
            None => Err(NetError::BadSocket),
        }
    }

    // ---- socket API: TCP ---------------------------------------------------

    /// Puts a bound TCP socket into the listening state.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if the socket is not a fresh bound TCP
    /// socket; [`NetError::AddrInUse`] if another listener owns the address.
    pub fn tcp_listen(&mut self, sid: SocketId, backlog: usize) -> Result<(), NetError> {
        let entry = self.socks.get(&sid).ok_or(NetError::BadSocket)?;
        let SockEntry::TcpFresh { bound: Some(local) } = entry else {
            return Err(NetError::InvalidState);
        };
        let local = *local;
        if self.listen_index.contains_key(&local) {
            return Err(NetError::AddrInUse);
        }
        self.socks.insert(
            sid,
            SockEntry::TcpListen {
                local,
                backlog: backlog.max(1),
                pending: VecDeque::new(),
            },
        );
        self.listen_index.insert(local, sid);
        Ok(())
    }

    /// Accepts an established connection from a listener's queue.
    /// Returns `None` when no fully established child is ready.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if `sid` is not listening.
    pub fn tcp_accept(&mut self, sid: SocketId) -> Result<Option<(SocketId, SockAddr)>, NetError> {
        // Find the first pending child whose handshake completed.
        let ready = {
            let entry = self.socks.get(&sid).ok_or(NetError::BadSocket)?;
            let SockEntry::TcpListen { pending, .. } = entry else {
                return Err(NetError::InvalidState);
            };
            pending.iter().copied().find(|child| {
                matches!(
                    self.socks.get(child),
                    Some(SockEntry::TcpConn(tcb)) if tcb.is_connected() && !tcb.is_reset()
                )
            })
        };
        let Some(child) = ready else {
            // Also purge dead pending children.
            self.prune_pending(sid);
            return Ok(None);
        };
        if let Some(SockEntry::TcpListen { pending, .. }) = self.socks.get_mut(&sid) {
            pending.retain(|&c| c != child);
        }
        let remote = match self.socks.get(&child) {
            Some(SockEntry::TcpConn(tcb)) => tcb.remote(),
            _ => return Ok(None),
        };
        Ok(Some((child, remote)))
    }

    fn prune_pending(&mut self, sid: SocketId) {
        let dead: Vec<SocketId> = {
            let Some(SockEntry::TcpListen { pending, .. }) = self.socks.get(&sid) else {
                return;
            };
            pending
                .iter()
                .copied()
                .filter(|c| {
                    matches!(self.socks.get(c), Some(SockEntry::TcpConn(tcb)) if tcb.is_reset())
                        || !self.socks.contains_key(c)
                })
                .collect()
        };
        if dead.is_empty() {
            return;
        }
        if let Some(SockEntry::TcpListen { pending, .. }) = self.socks.get_mut(&sid) {
            pending.retain(|c| !dead.contains(c));
        }
        for c in dead {
            self.remove_conn(c);
        }
    }

    /// Starts an active connection to `remote`. The socket may be bound; if
    /// not, the stack binds it to the primary IP and an ephemeral port (the
    /// implicit bind the paper's Zap intercepts).
    ///
    /// # Errors
    ///
    /// Propagates bind errors; [`NetError::InvalidState`] if the socket is
    /// not fresh.
    pub fn tcp_connect(
        &mut self,
        sid: SocketId,
        remote: SockAddr,
        now: SimTime,
    ) -> Result<(), NetError> {
        let entry = self.socks.get(&sid).ok_or(NetError::BadSocket)?;
        let SockEntry::TcpFresh { bound } = entry else {
            return Err(NetError::InvalidState);
        };
        let local = match bound {
            Some(b) if !b.ip.is_unspecified() && b.port != 0 => *b,
            Some(b) => {
                let ip = if b.ip.is_unspecified() {
                    self.primary_ip()
                } else {
                    b.ip
                };
                let port = if b.port == 0 {
                    self.alloc_ephemeral_port()?
                } else {
                    b.port
                };
                SockAddr::new(ip, port)
            }
            None => SockAddr::new(self.primary_ip(), self.alloc_ephemeral_port()?),
        };
        if self.conn_index.contains_key(&(local, remote)) {
            return Err(NetError::AddrInUse);
        }
        let iss = self.alloc_iss();
        let (tcb, mut segs) = Tcb::connect(self.tcp_cfg.clone(), local, remote, iss, now);
        self.socks.insert(sid, SockEntry::TcpConn(Box::new(tcb)));
        self.conn_index.insert((local, remote), sid);
        self.route_segments(local, remote, &mut segs, now);
        self.drain_loopback(now);
        Ok(())
    }

    /// Sends data on a connection; returns bytes accepted (0 ⇒ would block).
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionReset`] after a reset;
    /// [`NetError::InvalidState`] if not a connection.
    pub fn tcp_send(
        &mut self,
        sid: SocketId,
        data: &[u8],
        now: SimTime,
    ) -> Result<usize, NetError> {
        self.with_conn(sid, now, |tcb, segs| {
            if tcb.is_reset() {
                return Err(NetError::ConnectionReset);
            }
            Ok(tcb.write(data, now, segs))
        })
    }

    /// How many bytes [`NetStack::tcp_send`] would accept now (0 for
    /// anything but a connection that can send), so a caller can copy no
    /// more than that out of the application's buffer.
    pub fn tcp_send_space(&self, sid: SocketId) -> usize {
        self.conn(sid).map_or(0, Tcb::send_space)
    }

    /// Receives up to `max` bytes from a connection.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionReset`] if the connection was reset with no
    /// data left; [`NetError::InvalidState`] if not a connection.
    pub fn tcp_recv(
        &mut self,
        sid: SocketId,
        max: usize,
        now: SimTime,
    ) -> Result<RecvOutcome, NetError> {
        self.with_conn(sid, now, |tcb, segs| {
            let data = tcb.read(max, now, segs);
            if !data.is_empty() {
                Ok(RecvOutcome::Data(data))
            } else if tcb.is_reset() {
                Err(NetError::ConnectionReset)
            } else if tcb.state().peer_closed() {
                Ok(RecvOutcome::Eof)
            } else {
                Ok(RecvOutcome::WouldBlock)
            }
        })
    }

    /// Sets `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not a connection.
    pub fn tcp_set_nodelay(
        &mut self,
        sid: SocketId,
        on: bool,
        now: SimTime,
    ) -> Result<(), NetError> {
        self.with_conn(sid, now, |tcb, segs| {
            tcb.set_nodelay(on, now, segs);
            Ok(())
        })
    }

    /// Sets `TCP_CORK`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not a connection.
    pub fn tcp_set_cork(&mut self, sid: SocketId, on: bool, now: SimTime) -> Result<(), NetError> {
        self.with_conn(sid, now, |tcb, segs| {
            tcb.set_cork(on, now, segs);
            Ok(())
        })
    }

    /// Readiness and status of a TCP connection.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not a connection.
    pub fn tcp_info(&self, sid: SocketId) -> Result<TcpSockInfo, NetError> {
        let tcb = self.conn(sid)?;
        Ok(TcpSockInfo {
            state: tcb.state(),
            local: tcb.local(),
            remote: tcb.remote(),
            readable: tcb.is_readable(),
            writable: tcb.is_writable(),
            connected: tcb.is_connected(),
            reset: tcb.is_reset(),
            recv_len: tcb.recv_len(),
            send_len: tcb.send_len(),
            nodelay: tcb.nodelay(),
            cork: tcb.cork(),
            delivered: tcb.delivered(),
        })
    }

    /// True if `sid` refers to a listening socket.
    pub fn is_listener(&self, sid: SocketId) -> bool {
        matches!(self.socks.get(&sid), Some(SockEntry::TcpListen { .. }))
    }

    /// Local address of a listener or fresh bound socket.
    pub fn tcp_local_addr(&self, sid: SocketId) -> Option<SockAddr> {
        match self.socks.get(&sid)? {
            SockEntry::TcpListen { local, .. } => Some(*local),
            SockEntry::TcpFresh { bound } => *bound,
            SockEntry::TcpConn(tcb) => Some(tcb.local()),
            SockEntry::Udp { bound, .. } => *bound,
        }
    }

    // ---- socket API: UDP ---------------------------------------------------

    /// Sends a datagram. The socket is implicitly bound if needed.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not a UDP socket; bind errors propagate.
    pub fn udp_send_to(
        &mut self,
        sid: SocketId,
        dst: SockAddr,
        payload: Bytes,
        now: SimTime,
    ) -> Result<(), NetError> {
        let bound = match self.socks.get(&sid) {
            Some(SockEntry::Udp { bound, .. }) => *bound,
            Some(_) => return Err(NetError::InvalidState),
            None => return Err(NetError::BadSocket),
        };
        let local = match bound {
            Some(b) => b,
            None => {
                let b = SockAddr::new(self.primary_ip(), 0);
                self.bind(sid, b)?
            }
        };
        let src_ip = if local.ip.is_unspecified() {
            self.primary_ip()
        } else {
            local.ip
        };
        let dgram = UdpDatagram::new(local.port, dst.port, payload);
        self.send_ip(
            Ipv4Packet {
                src: src_ip,
                dst: dst.ip,
                payload: L4::Udp(dgram),
            },
            now,
        );
        self.drain_loopback(now);
        Ok(())
    }

    /// Receives one queued datagram, if any.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not a UDP socket.
    pub fn udp_recv_from(&mut self, sid: SocketId) -> Result<Option<(SockAddr, Bytes)>, NetError> {
        match self.socks.get_mut(&sid) {
            Some(SockEntry::Udp { queue, .. }) => Ok(queue.pop_front()),
            Some(_) => Err(NetError::InvalidState),
            None => Err(NetError::BadSocket),
        }
    }

    // ---- internals ---------------------------------------------------------

    fn conn(&self, sid: SocketId) -> Result<&Tcb, NetError> {
        match self.socks.get(&sid) {
            Some(SockEntry::TcpConn(tcb)) => Ok(tcb),
            Some(_) => Err(NetError::InvalidState),
            None => Err(NetError::BadSocket),
        }
    }

    fn conn_mut(&mut self, sid: SocketId) -> Result<&mut Tcb, NetError> {
        match self.socks.get_mut(&sid) {
            Some(SockEntry::TcpConn(tcb)) => Ok(tcb),
            Some(_) => Err(NetError::InvalidState),
            None => Err(NetError::BadSocket),
        }
    }

    /// Runs an application call on connection `sid`, handing it the
    /// reusable segment buffer; on success routes what the call emitted
    /// and delivers any loopback traffic. An error routes nothing.
    fn with_conn<R>(
        &mut self,
        sid: SocketId,
        now: SimTime,
        call: impl FnOnce(&mut Tcb, &mut Vec<TcpSegment>) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let mut segs = std::mem::take(&mut self.segs);
        let done = self
            .conn_mut(sid)
            .and_then(|tcb| Ok((call(tcb, &mut segs)?, tcb.local(), tcb.remote())));
        if let Ok((_, l, r)) = done {
            self.route_segments(l, r, &mut segs, now);
        }
        debug_assert!(segs.is_empty(), "a failed call emitted segments");
        self.segs = segs;
        let (out, _, _) = done?;
        self.drain_loopback(now);
        Ok(out)
    }

    fn alloc_sock(&mut self) -> SocketId {
        let sid = SocketId(self.next_sock);
        self.next_sock += 1;
        sid
    }

    fn alloc_iss(&mut self) -> SeqNum {
        let iss = self.next_iss;
        self.next_iss = self.next_iss.wrapping_add(64_021);
        SeqNum::new(iss)
    }

    fn alloc_ephemeral_port(&mut self) -> Result<u16, NetError> {
        for _ in 0..28_000 {
            let p = self.next_eph_port;
            self.next_eph_port = if self.next_eph_port >= 60_000 {
                32_768
            } else {
                self.next_eph_port + 1
            };
            let used = self.udp_index.contains_key(&p)
                || self.conn_index.keys().any(|(l, _)| l.port == p)
                || self.listen_index.keys().any(|l| l.port == p);
            if !used {
                return Ok(p);
            }
        }
        Err(NetError::PortsExhausted)
    }

    fn push_readiness_wakes(&mut self, sid: SocketId, before: (bool, bool), after: (bool, bool)) {
        if !before.0 && after.0 {
            self.wakes.push(SockEvent::Readable(sid));
        }
        if !before.1 && after.1 {
            self.wakes.push(SockEvent::Writable(sid));
        }
    }

    /// Wraps segments of a connection into IPv4 packets and routes them,
    /// in order, leaving `segs` empty.
    fn route_segments(
        &mut self,
        local: SockAddr,
        remote: SockAddr,
        segs: &mut Vec<TcpSegment>,
        now: SimTime,
    ) {
        for seg in segs.drain(..) {
            self.send_ip(
                Ipv4Packet {
                    src: local.ip,
                    dst: remote.ip,
                    payload: L4::Tcp(seg),
                },
                now,
            );
        }
    }

    /// Routes an outgoing IPv4 packet: egress filter, loopback short-circuit,
    /// ARP resolution, frame emission.
    fn send_ip(&mut self, pkt: Ipv4Packet, now: SimTime) {
        // Egress filter — built from the same rules as ingress, so a drop
        // rule really silences the pod in both directions. An empty rule
        // set accepts everything, so only a set with rules needs the probe.
        if self.filter.has_rules() {
            let probe = EthFrame::new(
                MacAddr::default(),
                MacAddr::default(),
                EthPayload::Ipv4(pkt.clone()),
            );
            if self.filter.check(&probe) == Verdict::Drop {
                self.egress_drops += 1;
                return;
            }
        }
        let src_mac = self.mac_for_ip(pkt.src);
        if pkt.dst.is_broadcast() {
            // Deliver locally too (a broadcast reaches our own listeners).
            self.loopback.push_back(pkt.clone());
            let frame = EthFrame::new(src_mac, MacAddr::BROADCAST, EthPayload::Ipv4(pkt));
            self.emit_frame(frame);
            return;
        }
        if self.is_local_ip(pkt.dst) {
            self.loopback.push_back(pkt);
            return;
        }
        match self.arp.lookup(pkt.dst) {
            Some(dst_mac) => {
                let frame = EthFrame::new(src_mac, dst_mac, EthPayload::Ipv4(pkt));
                self.emit_frame(frame);
            }
            None => {
                // Queue and resolve. Requests can be lost, so retry when a
                // new packet queues after the retry interval (ARP itself has
                // no reliability; senders above keep generating traffic).
                const ARP_RETRY: SimDuration = SimDuration::from_millis(500);
                const ARP_QUEUE_CAP: usize = 256;
                let src_ip = pkt.src;
                let dst_ip = pkt.dst;
                let entry = self
                    .pending_arp
                    .entry(dst_ip)
                    .or_insert_with(|| (SimTime::ZERO, Vec::new()));
                let first = entry.1.is_empty();
                if entry.1.len() < ARP_QUEUE_CAP {
                    entry.1.push(pkt);
                }
                if first || now >= entry.0 + ARP_RETRY {
                    entry.0 = now;
                    let req = ArpPacket::request(src_mac, src_ip, dst_ip);
                    let frame = EthFrame::new(src_mac, MacAddr::BROADCAST, EthPayload::Arp(req));
                    self.emit_frame(frame);
                }
            }
        }
    }

    /// The MAC of the interface owning `ip` (physical NIC as fallback).
    fn mac_for_ip(&self, ip: IpAddr) -> MacAddr {
        self.ifaces
            .iter()
            .find(|i| i.ips.contains(&ip))
            .map(|i| i.mac)
            .unwrap_or_else(|| self.primary_mac())
    }

    fn emit_frame(&mut self, frame: EthFrame) {
        self.out.push(frame);
    }

    /// Delivers packets addressed host-locally without touching the wire.
    fn drain_loopback(&mut self, now: SimTime) {
        let mut guard = 0;
        while let Some(pkt) = self.loopback.pop_front() {
            guard += 1;
            if guard > 10_000 {
                // A pathological local ping-pong; bail out rather than spin.
                self.loopback.clear();
                return;
            }
            self.on_ipv4(pkt, now);
        }
    }

    /// Cleans up a connection once it reaches `Closed` with no reader left
    /// interested. We keep reset/EOF connections around until explicitly
    /// closed so applications can observe the condition; fully closed and
    /// acknowledged connections disappear.
    fn reap_closed(&mut self, sid: SocketId) {
        let remove = match self.socks.get(&sid) {
            Some(SockEntry::TcpConn(tcb)) => {
                tcb.state() == TcpState::Closed && !tcb.is_reset() && !tcb.is_readable()
            }
            _ => false,
        };
        if remove {
            self.remove_conn(sid);
        }
    }

    fn remove_conn(&mut self, sid: SocketId) {
        if let Some(SockEntry::TcpConn(tcb)) = self.socks.remove(&sid) {
            self.conn_index.remove(&(tcb.local(), tcb.remote()));
        }
    }

    /// Removes a UDP socket and its port binding.
    fn remove_udp(&mut self, sid: SocketId) {
        let Some(SockEntry::Udp { bound: Some(b), .. }) = self.socks.remove(&sid) else {
            return;
        };
        if let Some(v) = self.udp_index.get_mut(&b.port) {
            v.retain(|&s| s != sid);
            if v.is_empty() {
                self.udp_index.remove(&b.port);
            }
        }
    }
}

/// A point-in-time view of a TCP connection's status and readiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSockInfo {
    /// Connection state.
    pub state: TcpState,
    /// Local endpoint.
    pub local: SockAddr,
    /// Remote endpoint.
    pub remote: SockAddr,
    /// Whether a read would make progress.
    pub readable: bool,
    /// Whether a write would make progress.
    pub writable: bool,
    /// Whether the handshake finished.
    pub connected: bool,
    /// Whether the connection was reset.
    pub reset: bool,
    /// Undelivered received bytes.
    pub recv_len: usize,
    /// Unacknowledged send bytes.
    pub send_len: usize,
    /// `TCP_NODELAY` flag.
    pub nodelay: bool,
    /// `TCP_CORK` flag.
    pub cork: bool,
    /// Total stream bytes delivered to the application.
    pub delivered: u64,
}

fn readiness(tcb: &Tcb) -> (bool, bool) {
    (tcb.is_readable(), tcb.is_writable())
}
