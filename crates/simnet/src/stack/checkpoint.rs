//! Checkpoint/restore support on [`NetStack`], used by the Zap layer: one
//! [`SockSnapshot`] per socket, taken by [`NetStack::snapshot`] and
//! recreated by [`NetStack::restore`] (the §4.1 connection save and send
//! replay included), and wire-silent teardown after migration.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use des::SimTime;

use super::{NetError, NetStack, SockEntry, SocketId};
use crate::addr::SockAddr;
use crate::tcp::{Tcb, TcpSnapshot, TcpState};

/// Received bytes a restore hands back, by connection socket id.
type Undelivered = Vec<(SocketId, Vec<u8>)>;

/// A socket as a checkpoint saves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockSnapshot {
    /// A listening TCP socket.
    Listen {
        /// Bound local address.
        local: SockAddr,
        /// Accept backlog.
        backlog: u32,
        /// Established, not-yet-accepted children. Mid-handshake children
        /// are omitted: their client is still in `SynSent` and retransmits
        /// its SYN after restore, creating a fresh child.
        pending: Vec<TcpSnapshot>,
    },
    /// An established-family TCP connection (§4.1).
    Conn(TcpSnapshot),
    /// A UDP socket.
    Udp {
        /// Bound local address, if any.
        bound: Option<SockAddr>,
        /// Queued, undelivered (source, payload) datagrams.
        queue: Vec<(SockAddr, Vec<u8>)>,
    },
    /// A TCP socket that is neither listening nor connected — also a
    /// connection that had died by checkpoint time (bound to its local
    /// address) and a socket the stack had already reaped (unbound).
    Fresh {
        /// Bound local address, if any.
        bound: Option<SockAddr>,
    },
}

impl NetStack {
    /// Snapshots socket `sid` for a checkpoint. `parked` holds the bytes
    /// an earlier restore handed back that the application has not read
    /// yet (the Zap layer's alternate receive buffers), by socket id: each
    /// connection saved, a listener's pending children included, carries
    /// its parked remainder followed by its kernel receive queue as
    /// `recv_stream` — the concatenation order §4.1 specifies.
    pub fn snapshot(
        &self,
        sid: SocketId,
        parked: &BTreeMap<SocketId, VecDeque<u8>>,
    ) -> SockSnapshot {
        let conn = |sid: SocketId| {
            let Some(SockEntry::TcpConn(tcb)) = self.socks.get(&sid) else {
                return None;
            };
            if !tcb.is_connected() || tcb.is_reset() || tcb.state() == TcpState::Closed {
                return None;
            }
            let mut snap = tcb.snapshot();
            if let Some(q) = parked.get(&sid) {
                let mut stream: Vec<u8> = q.iter().copied().collect();
                stream.append(&mut snap.recv_stream);
                snap.recv_stream = stream;
            }
            Some(snap)
        };
        match self.socks.get(&sid) {
            Some(SockEntry::TcpListen {
                local,
                backlog,
                pending,
            }) => SockSnapshot::Listen {
                local: *local,
                backlog: *backlog as u32,
                pending: pending.iter().filter_map(|&child| conn(child)).collect(),
            },
            Some(SockEntry::TcpConn(tcb)) => conn(sid).map_or(
                SockSnapshot::Fresh {
                    bound: Some(tcb.local()),
                },
                SockSnapshot::Conn,
            ),
            Some(SockEntry::Udp { bound, queue }) => SockSnapshot::Udp {
                bound: *bound,
                queue: queue.iter().map(|(a, b)| (*a, b.to_vec())).collect(),
            },
            Some(SockEntry::TcpFresh { bound }) => SockSnapshot::Fresh { bound: *bound },
            None => SockSnapshot::Fresh { bound: None },
        }
    }

    /// Recreates a pod's sockets from their snapshots, in order. A
    /// connection comes up at the saved sequence numbers with empty
    /// buffers, and its saved send data is replayed with Nagle and CORK off
    /// — cork off, nodelay on, one send per in-flight packet, the unsent
    /// bytes, then the saved flags — so packet boundaries survive (§4.1).
    /// A listener comes back with its pending children in its accept
    /// queue. No connection replays until every socket is recreated, so a
    /// refused restore has put nothing on the wire. Returns the sockets'
    /// ids, in snapshot order, and every recreated connection's non-empty
    /// `recv_stream` by socket id, for the caller to park and serve before
    /// the kernel queue.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if a listener's address or a connection's
    /// 4-tuple is taken; bind errors for a bound fresh or UDP socket;
    /// [`NetError::InvalidState`] if a connection cannot take its saved
    /// send data back. A refused restore leaves no socket behind.
    pub fn restore(
        &mut self,
        snaps: Vec<SockSnapshot>,
        now: SimTime,
    ) -> Result<(Vec<SocketId>, Undelivered), NetError> {
        let mut sids = Vec::with_capacity(snaps.len());
        let mut conns = Vec::new();
        let restored: Result<(), NetError> = snaps
            .into_iter()
            .try_for_each(|snap| {
                sids.push(self.recreate(snap, &mut conns)?);
                Ok(())
            })
            .and_then(|()| {
                conns
                    .iter()
                    .try_for_each(|(sid, snap)| self.replay(*sid, snap, now))
            });
        if let Err(e) = restored {
            for sid in sids {
                self.tcp_discard(sid);
            }
            return Err(e);
        }
        let undelivered = conns
            .into_iter()
            .filter(|(_, snap)| !snap.recv_stream.is_empty())
            .map(|(sid, snap)| (sid, snap.recv_stream))
            .collect();
        Ok((sids, undelivered))
    }

    /// Recreates one socket without replaying anything, adding each
    /// connection it recreates to `conns` with its snapshot.
    fn recreate(
        &mut self,
        snap: SockSnapshot,
        conns: &mut Vec<(SocketId, TcpSnapshot)>,
    ) -> Result<SocketId, NetError> {
        let sid = match snap {
            SockSnapshot::Listen {
                local,
                backlog,
                pending,
            } => {
                if self.listen_index.contains_key(&local) {
                    return Err(NetError::AddrInUse);
                }
                let lsid = self.alloc_sock();
                self.socks.insert(
                    lsid,
                    SockEntry::TcpListen {
                        local,
                        backlog: (backlog as usize).max(1),
                        pending: VecDeque::new(),
                    },
                );
                self.listen_index.insert(local, lsid);
                for child in pending {
                    if let Err(e) = self.recreate_conn(child, Some(lsid), conns) {
                        self.tcp_discard(lsid);
                        return Err(e);
                    }
                }
                lsid
            }
            SockSnapshot::Conn(snap) => self.recreate_conn(snap, None, conns)?,
            SockSnapshot::Udp { bound, queue } => {
                let sid = self.udp_socket();
                if let Some(SockEntry::Udp { queue: q, .. }) = self.socks.get_mut(&sid) {
                    q.extend(queue.into_iter().map(|(from, d)| (from, Bytes::from(d))));
                }
                self.bind_restored(sid, bound)?
            }
            SockSnapshot::Fresh { bound } => {
                let sid = self.tcp_socket();
                self.bind_restored(sid, bound)?
            }
        };
        Ok(sid)
    }

    /// Binds a just-restored fresh or UDP socket, removing it if the bind
    /// fails (a failed bind leaves no port binding to undo).
    fn bind_restored(
        &mut self,
        sid: SocketId,
        bound: Option<SockAddr>,
    ) -> Result<SocketId, NetError> {
        if let Some(b) = bound {
            if let Err(e) = self.bind(sid, b) {
                self.socks.remove(&sid);
                return Err(e);
            }
        }
        Ok(sid)
    }

    /// Recreates one connection (into `listener`'s accept queue, if given)
    /// once it is sure to take its saved send data back, and adds it to
    /// `conns`.
    fn recreate_conn(
        &mut self,
        snap: TcpSnapshot,
        listener: Option<SocketId>,
        conns: &mut Vec<(SocketId, TcpSnapshot)>,
    ) -> Result<SocketId, NetError> {
        let key = (snap.local, snap.remote);
        if self.conn_index.contains_key(&key) {
            return Err(NetError::AddrInUse);
        }
        let tcb = Tcb::restore(self.tcp_cfg.clone(), &snap);
        if tcb.send_space() < snap.send_bytes() {
            return Err(NetError::InvalidState);
        }
        let sid = self.alloc_sock();
        self.socks.insert(sid, SockEntry::TcpConn(Box::new(tcb)));
        self.conn_index.insert(key, sid);
        if let Some(SockEntry::TcpListen { pending, .. }) =
            listener.and_then(|l| self.socks.get_mut(&l))
        {
            pending.push_back(sid);
        }
        conns.push((sid, snap));
        Ok(sid)
    }

    /// The §4.1 send replay: immediate packetization while the saved
    /// packets go out one send each, then the saved option flags.
    fn replay(&mut self, sid: SocketId, snap: &TcpSnapshot, now: SimTime) -> Result<(), NetError> {
        self.tcp_set_cork(sid, false, now)?;
        self.tcp_set_nodelay(sid, true, now)?;
        let unsent = Some(&snap.unsent).filter(|u| !u.is_empty());
        for data in snap.inflight.iter().chain(unsent) {
            if self.tcp_send(sid, data, now)? != data.len() {
                return Err(NetError::InvalidState);
            }
        }
        self.tcp_set_nodelay(sid, snap.nodelay, now)?;
        self.tcp_set_cork(sid, snap.cork, now)
    }

    /// Removes a socket without any wire traffic (used when a checkpointed
    /// pod's sockets are torn down on the source host after migration).
    pub fn tcp_discard(&mut self, sid: SocketId) {
        match self.socks.get(&sid) {
            Some(SockEntry::TcpConn(_)) => self.remove_conn(sid),
            Some(SockEntry::TcpListen { local, pending, .. }) => {
                let local = *local;
                // Established-but-unaccepted children exist only through
                // the listener: discard them with it.
                let children: Vec<SocketId> = pending.iter().copied().collect();
                for child in children {
                    self.remove_conn(child);
                }
                self.listen_index.remove(&local);
                self.socks.remove(&sid);
            }
            Some(SockEntry::Udp { .. }) => self.remove_udp(sid),
            Some(SockEntry::TcpFresh { .. }) => {
                self.socks.remove(&sid);
            }
            None => {}
        }
    }
}
