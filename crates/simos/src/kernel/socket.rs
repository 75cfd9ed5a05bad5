//! The socket syscalls: `socket` through `recvfrom`, over the kernel's
//! [`NetStack`](simnet::NetStack).
//!
//! `send` and `recv` follow the guest-data-path rules (DESIGN.md §20):
//! the whole guest buffer is validated before anything moves, `send`
//! copies out only what the connection's send buffer will take, and
//! `recv` probes the destination before it consumes a byte of the stream.

use des::SimTime;
use simnet::addr::{IpAddr, SockAddr};
use simnet::stack::{RecvOutcome, SocketId};
use simnet::NetError;

use super::{Kernel, Outcome};
use crate::error::Errno;
use crate::fd::{Desc, Fd};
use crate::proc::{Pid, WaitFor};

impl Kernel {
    pub(super) fn sys_socket(&mut self, pid: Pid, proto: u64) -> Outcome {
        let sid = match proto {
            0 => self.net.tcp_socket(),
            1 => self.net.udp_socket(),
            _ => return Outcome::Ret(Errno::Inval.to_ret()),
        };
        let p = self.procs.get(&pid).expect("caller exists");
        let fd = p.fds.borrow_mut().insert(Desc::Socket(sid));
        Outcome::Ret(fd as u64)
    }

    fn sock_of(&self, pid: Pid, fd: Fd) -> Result<SocketId, Errno> {
        self.with_desc(pid, fd, |d| match d {
            Desc::Socket(sid) => Some(*sid),
            _ => None,
        })?
        .ok_or(Errno::NotSup)
    }

    pub(super) fn sys_bind(&mut self, pid: Pid, fd: Fd, ip: u64, port: u64) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let addr = SockAddr::new(IpAddr::from_bits(ip as u32), port as u16);
        match self.net.bind(sid, addr) {
            Ok(_) => Outcome::Ret(0),
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_listen(&mut self, pid: Pid, fd: Fd, backlog: usize) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        match self.net.tcp_listen(sid, backlog) {
            Ok(()) => Outcome::Ret(0),
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_accept(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        match self.net.tcp_accept(sid) {
            Ok(Some((child, _remote))) => {
                let p = self.procs.get(&pid).expect("caller exists");
                let newfd = p.fds.borrow_mut().insert(Desc::Socket(child));
                Outcome::Ret(newfd as u64)
            }
            Ok(None) => Outcome::Block(WaitFor::SockAccept(sid)),
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_connect(
        &mut self,
        pid: Pid,
        fd: Fd,
        ip: u64,
        port: u64,
        now: SimTime,
    ) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        // Retry path: the socket is already a connection.
        if let Ok(info) = self.net.tcp_info(sid) {
            return if info.reset {
                Outcome::Ret(Errno::ConnRefused.to_ret())
            } else if info.connected {
                Outcome::Ret(0)
            } else {
                Outcome::Block(WaitFor::SockConnect(sid))
            };
        }
        let remote = SockAddr::new(IpAddr::from_bits(ip as u32), port as u16);
        match self.net.tcp_connect(sid, remote, now) {
            Ok(()) => {
                self.process_net_wakes();
                // Loopback connections may complete synchronously.
                match self.net.tcp_info(sid) {
                    Ok(info) if info.connected && !info.reset => Outcome::Ret(0),
                    Ok(info) if info.reset => Outcome::Ret(Errno::ConnRefused.to_ret()),
                    _ => Outcome::Block(WaitFor::SockConnect(sid)),
                }
            }
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_send(
        &mut self,
        pid: Pid,
        fd: Fd,
        buf: u64,
        len: usize,
        now: SimTime,
    ) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        // Validate the whole buffer, but copy only what the send buffer
        // will take: a full buffer costs no copy. An empty slice still
        // runs `tcp_send`, so its pump, errors and blocking are unchanged.
        let space = self.net.tcp_send_space(sid);
        let data = match self.copy_in(pid, buf, len, space) {
            Ok(d) => d,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        match self.net.tcp_send(sid, &data, now) {
            Ok(0) if len > 0 => Outcome::Block(WaitFor::SockWritable(sid)),
            Ok(n) => {
                self.process_net_wakes();
                Outcome::Ret(n as u64)
            }
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_recv(
        &mut self,
        pid: Pid,
        fd: Fd,
        buf: u64,
        len: usize,
        now: SimTime,
    ) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        // Probe the bytes this read will deliver before consuming them, so
        // a fault leaves them in the stream.
        let ready = self.net.tcp_info(sid).map_or(0, |i| i.recv_len).min(len);
        if let Err(e) = self.check_guest(pid, buf, ready, true) {
            return Outcome::Ret(e.to_ret());
        }
        match self.net.tcp_recv(sid, len, now) {
            Ok(RecvOutcome::Data(data)) => {
                if let Err(e) = self.write_guest(pid, buf, &data) {
                    return Outcome::Ret(e.to_ret());
                }
                self.process_net_wakes();
                Outcome::Ret(data.len() as u64)
            }
            Ok(RecvOutcome::Eof) => Outcome::Ret(0),
            Ok(RecvOutcome::WouldBlock) => Outcome::Block(WaitFor::SockReadable(sid)),
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_setsockopt(
        &mut self,
        pid: Pid,
        fd: Fd,
        opt: u64,
        val: u64,
        now: SimTime,
    ) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let res = match opt {
            1 => self.net.tcp_set_nodelay(sid, val != 0, now),
            2 => self.net.tcp_set_cork(sid, val != 0, now),
            _ => return Outcome::Ret(Errno::Inval.to_ret()),
        };
        match res {
            Ok(()) => Outcome::Ret(0),
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_getsockopt(&mut self, pid: Pid, fd: Fd, opt: u64) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let info = match self.net.tcp_info(sid) {
            Ok(i) => i,
            Err(e) => return Outcome::Ret(map_net_err(e).to_ret()),
        };
        match opt {
            1 => Outcome::Ret(info.nodelay as u64),
            2 => Outcome::Ret(info.cork as u64),
            _ => Outcome::Ret(Errno::Inval.to_ret()),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the guest ABI argument list
    pub(super) fn sys_sendto(
        &mut self,
        pid: Pid,
        fd: Fd,
        ip: u64,
        port: u64,
        buf: u64,
        len: usize,
        now: SimTime,
    ) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let data = match self.read_guest(pid, buf, len) {
            Ok(d) => d,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let dst = SockAddr::new(IpAddr::from_bits(ip as u32), port as u16);
        match self
            .net
            .udp_send_to(sid, dst, bytes::Bytes::from(data), now)
        {
            Ok(()) => {
                self.process_net_wakes();
                Outcome::Ret(len as u64)
            }
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }

    pub(super) fn sys_recvfrom(
        &mut self,
        pid: Pid,
        fd: Fd,
        buf: u64,
        len: usize,
        src_ptr: u64,
    ) -> Outcome {
        let sid = match self.sock_of(pid, fd) {
            Ok(s) => s,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        match self.net.udp_recv_from(sid) {
            Ok(Some((from, data))) => {
                let n = data.len().min(len);
                if let Err(e) = self.write_guest(pid, buf, &data[..n]) {
                    return Outcome::Ret(e.to_ret());
                }
                if src_ptr != 0 {
                    let mut v = Vec::with_capacity(16);
                    v.extend_from_slice(&(from.ip.to_bits() as u64).to_le_bytes());
                    v.extend_from_slice(&(from.port as u64).to_le_bytes());
                    if let Err(e) = self.write_guest(pid, src_ptr, &v) {
                        return Outcome::Ret(e.to_ret());
                    }
                }
                Outcome::Ret(n as u64)
            }
            Ok(None) => Outcome::Block(WaitFor::SockReadable(sid)),
            Err(e) => Outcome::Ret(map_net_err(e).to_ret()),
        }
    }
}

fn map_net_err(e: NetError) -> Errno {
    match e {
        NetError::BadSocket => Errno::Badf,
        NetError::InvalidState => Errno::Inval,
        NetError::AddrInUse => Errno::AddrInUse,
        NetError::AddrNotAvailable => Errno::AddrNotAvail,
        NetError::PortsExhausted => Errno::NoBufs,
        NetError::ConnectionReset => Errno::ConnReset,
    }
}
