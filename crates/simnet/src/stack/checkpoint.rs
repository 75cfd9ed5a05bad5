//! Checkpoint/restore support on [`NetStack`], used by the Zap layer:
//! §4.1 connection snapshots, listener and accept-queue restore, UDP
//! socket snapshots, and wire-silent teardown after migration.

use std::collections::VecDeque;

use bytes::Bytes;

use super::{NetError, NetStack, SockEntry, SocketId, UdpSnapshot};
use crate::addr::SockAddr;
use crate::tcp::{Tcb, TcpSnapshot, TcpState};

impl NetStack {
    /// Takes the §4.1 snapshot of a TCP connection.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not an established-family connection.
    pub fn tcp_snapshot(&self, sid: SocketId) -> Result<TcpSnapshot, NetError> {
        let tcb = self.conn(sid)?;
        if !tcb.is_connected() || tcb.is_reset() || tcb.state() == TcpState::Closed {
            return Err(NetError::InvalidState);
        }
        Ok(tcb.snapshot())
    }

    /// Recreates a connection endpoint from a snapshot with empty buffers at
    /// the rewritten sequence numbers. The caller replays the saved send
    /// data afterwards.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if an endpoint with the same 4-tuple exists.
    pub fn tcp_restore(&mut self, snap: &TcpSnapshot) -> Result<SocketId, NetError> {
        let key = (snap.local, snap.remote);
        if self.conn_index.contains_key(&key) {
            return Err(NetError::AddrInUse);
        }
        let tcb = Tcb::restore(self.tcp_cfg.clone(), snap);
        let sid = self.alloc_sock();
        self.socks.insert(sid, SockEntry::TcpConn(Box::new(tcb)));
        self.conn_index.insert(key, sid);
        Ok(sid)
    }

    /// Recreates a listening socket on `local`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the address already has a listener.
    pub fn tcp_restore_listener(
        &mut self,
        local: SockAddr,
        backlog: usize,
    ) -> Result<SocketId, NetError> {
        if self.listen_index.contains_key(&local) {
            return Err(NetError::AddrInUse);
        }
        let sid = self.alloc_sock();
        self.socks.insert(
            sid,
            SockEntry::TcpListen {
                local,
                backlog: backlog.max(1),
                pending: VecDeque::new(),
            },
        );
        self.listen_index.insert(local, sid);
        Ok(sid)
    }

    /// Removes a connection endpoint without any wire traffic (used when a
    /// checkpointed pod's sockets are torn down on the source host after
    /// migration).
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
            Some(_) => {
                self.socks.remove(&sid);
            }
            None => {}
        }
    }

    /// Snapshots the fully established, not-yet-accepted children sitting in
    /// a listener's accept queue. Mid-handshake (`SynRcvd`) children are
    /// omitted: their client side is still in `SynSent` and will simply
    /// retransmit its SYN after restore, creating a fresh child.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if `sid` is not a listener.
    pub fn tcp_listener_pending(&self, sid: SocketId) -> Result<Vec<TcpSnapshot>, NetError> {
        let entry = self.socks.get(&sid).ok_or(NetError::BadSocket)?;
        let SockEntry::TcpListen { pending, .. } = entry else {
            return Err(NetError::InvalidState);
        };
        Ok(pending
            .iter()
            .filter_map(|child| match self.socks.get(child) {
                Some(SockEntry::TcpConn(tcb))
                    if tcb.is_connected() && !tcb.is_reset() && tcb.state() != TcpState::Closed =>
                {
                    Some(tcb.snapshot())
                }
                _ => None,
            })
            .collect())
    }

    /// Restores a connection into a listener's accept queue (the restore
    /// path for [`NetStack::tcp_listener_pending`]).
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if `lsid` is not a listener;
    /// [`NetError::AddrInUse`] if the 4-tuple already exists.
    pub fn tcp_restore_into_listener(
        &mut self,
        lsid: SocketId,
        snap: &TcpSnapshot,
    ) -> Result<SocketId, NetError> {
        if !self.is_listener(lsid) {
            return Err(NetError::InvalidState);
        }
        let sid = self.tcp_restore(snap)?;
        if let Some(SockEntry::TcpListen { pending, .. }) = self.socks.get_mut(&lsid) {
            pending.push_back(sid);
        }
        Ok(sid)
    }

    /// Snapshot of a UDP socket: its bound address and queued datagrams.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidState`] if not a UDP socket.
    pub fn udp_snapshot(&self, sid: SocketId) -> Result<UdpSnapshot, NetError> {
        match self.socks.get(&sid) {
            Some(SockEntry::Udp { bound, queue }) => Ok(UdpSnapshot {
                bound: *bound,
                queue: queue.iter().map(|(a, b)| (*a, b.to_vec())).collect(),
            }),
            Some(_) => Err(NetError::InvalidState),
            None => Err(NetError::BadSocket),
        }
    }

    /// Recreates a UDP socket from a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn udp_restore(&mut self, snap: &UdpSnapshot) -> Result<SocketId, NetError> {
        let sid = self.udp_socket();
        if let Some(b) = snap.bound {
            self.bind(sid, b)?;
        }
        if let Some(SockEntry::Udp { queue, .. }) = self.socks.get_mut(&sid) {
            for (from, data) in &snap.queue {
                queue.push_back((*from, Bytes::from(data.clone())));
            }
        }
        Ok(sid)
    }

    /// Listener backlog size, for checkpointing listeners.
    pub fn tcp_listener_backlog(&self, sid: SocketId) -> Option<usize> {
        match self.socks.get(&sid)? {
            SockEntry::TcpListen { backlog, .. } => Some(*backlog),
            _ => None,
        }
    }
}
