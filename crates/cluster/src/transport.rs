//! The control-plane transport: one `Ctl` per world, on one of two
//! carriers.
//!
//! Everything above this module — coordinator wiring, agent wiring,
//! heartbeats, failover — moves [`CtlMsg`] frames through `Ctl`'s four
//! operations and never touches a node's network stack directly. That is
//! the layering DMTCP's coordinator/plugin split proved out (swap the
//! transport, keep the protocol): the protocol engine is written once,
//! against `CtlAddr` node-index addressing, and each carrier maps those
//! names onto its own endpoints.
//!
//! The contract is deliberately minimal and datagram-shaped, and the
//! same on both carriers (the unit tests below check it on each):
//!
//! * **Unreliable** — `send` is fire-and-forget. Frames may be dropped,
//!   duplicated or reordered in flight; a refused or unroutable send is
//!   dropped silently. The protocol layers above own retry and
//!   idempotence.
//! * **Non-blocking** — `recv` returns at most one decodable frame and
//!   never waits; the event loop polls it at node-service points. It
//!   skips undecodable datagrams and frames from sources the carrier
//!   cannot name, and returns `None` on an empty queue or a closed
//!   socket.
//! * **Addressed** — nodes are named by index (`CtlAddr`), never by
//!   wire address, and `recv` reports the sender's `CtlAddr`, so a
//!   reply to it reaches the sending socket.
//!
//! `SimnetCtl` is the sim carrier: unreliable datagrams over the
//! simulated UDP/IP/Ethernet substrate. Frames it sends are subject to
//! everything the fabric does to real traffic — link serialization delay,
//! switch forwarding, seeded loss, and the fault plane's
//! drop/duplicate/reorder injections. `NetCtl` is the loopback
//! carrier: the same frames over real non-blocking
//! `std::net::UdpSocket`s on `127.0.0.1`, plus that carrier's wall clock.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use des::SimTime;
use simnet::addr::SockAddr;
use simnet::stack::SocketId;

use cruz::error::CruzError;
use cruz::proto::CtlMsg;

use crate::node::{node_ip, CtlAddr, CtlSock, Node};

/// The sim carrier's transport: control frames ride real datagrams
/// through each node's [`simnet`] stack, the switch, and the per-link
/// bandwidth/latency model — so control-plane cost and control-plane loss
/// are emergent, not modelled. [`CtlAddr`]s map onto the `10.0.0.(n+1)`
/// subnet here; the engine above never sees a wire address.
pub(crate) struct SimnetCtl<'a> {
    nodes: &'a mut [Node],
}

impl<'a> SimnetCtl<'a> {
    pub(crate) fn new(nodes: &'a mut [Node]) -> SimnetCtl<'a> {
        SimnetCtl { nodes }
    }

    /// The wire address of an engine-level endpoint.
    fn wire_addr(addr: CtlAddr) -> SockAddr {
        SockAddr::new(node_ip(addr.node as usize), addr.port)
    }

    /// The engine-level endpoint a wire source address names: the node
    /// whose `10.0.0.(n+1)` address it is. Frames from outside the node
    /// subnet have no engine name and are discarded by `recv`.
    fn engine_addr(addr: SockAddr) -> Option<CtlAddr> {
        let o = addr.ip.octets();
        if o[0] == 10 && o[1] == 0 && o[2] == 0 && o[3] >= 1 {
            Some(CtlAddr::new((o[3] - 1) as usize, addr.port))
        } else {
            None
        }
    }

    fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError> {
        let k = &mut self.nodes[node].kernel;
        let s = k.net.udp_socket();
        k.net
            .bind(s, SockAddr::new(node_ip(node), port))
            .map_err(CruzError::ControlSocket)?;
        Ok(CtlSock(s.0))
    }

    fn send(&mut self, node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, now: SimTime) {
        // Fire-and-forget by contract: a refused or unroutable send is,
        // to the protocol, indistinguishable from loss in flight, and the
        // layers above own retry. cruz-lint: allow(swallowed-error)
        let _ = self.nodes[node].kernel.net.udp_send_to(
            SocketId(sock.0),
            Self::wire_addr(dst),
            Bytes::from(msg.encode()),
            now,
        );
    }

    fn recv(&mut self, node: usize, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)> {
        let net = &mut self.nodes[node].kernel.net;
        while let Ok(Some((from, bytes))) = net.udp_recv_from(SocketId(sock.0)) {
            if let Some(msg) = CtlMsg::decode(&bytes) {
                if let Some(addr) = Self::engine_addr(from) {
                    return Some((addr, msg));
                }
            }
        }
        None
    }

    fn close(&mut self, node: usize, sock: CtlSock, now: SimTime) {
        self.nodes[node].kernel.net.close(SocketId(sock.0), now);
    }
}

/// True when this host permits binding loopback UDP sockets.
///
/// Sandboxed CI runners sometimes forbid even `127.0.0.1`; callers of
/// [`crate::World::new_loopback`] (the `loopback_demo` bin, the
/// twin-runtime test) probe this first and skip cleanly instead of
/// failing.
pub fn loopback_available() -> bool {
    UdpSocket::bind(("127.0.0.1", 0)).is_ok()
}

/// How long a loopback carrier may run before it refuses to step: a
/// wedged socket path fails its caller instead of hanging it.
const WALL_BUDGET: Duration = Duration::from_secs(30);

/// The coarsest granularity a socket read timeout may have: the kernel
/// rounds it up to scheduler ticks (~8 ms measured on a 250 Hz Linux
/// host). The carrier blocks only while the next event is further away
/// than this, and spins over its endpoints for the rest.
const COARSE_WAIT: Duration = Duration::from_millis(20);

/// The loopback carrier's clock: wall-clock nanoseconds since the carrier
/// started, read as [`SimTime`]s, plus a private socket whose read
/// timeout is how the carrier blocks.
struct NetClock {
    t0: Instant,
    waiter: UdpSocket,
}

impl NetClock {
    fn start() -> std::io::Result<NetClock> {
        let waiter = UdpSocket::bind(("127.0.0.1", 0))?;
        // The one wall-clock read site of the crate: every other instant
        // derives from this epoch. cruz-lint: allow(wall-clock)
        let t0 = Instant::now();
        Ok(NetClock { t0, waiter })
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.t0.elapsed().as_nanos() as u64)
    }

    /// Waits toward `t`: blocks on the waiter's read timeout while `t` is
    /// more than [`COARSE_WAIT`] away, and otherwise only yields the CPU,
    /// so the caller re-polls its endpoints at once.
    fn wait_until(&self, t: SimTime) {
        let left = Duration::from_nanos(t.as_nanos().saturating_sub(self.now().as_nanos()));
        if left <= COARSE_WAIT {
            std::thread::yield_now();
            return;
        }
        // Nothing is ever sent to the waiter; the read times out, which
        // is the wait. cruz-lint: allow(swallowed-error)
        let _ = self
            .waiter
            .set_read_timeout(Some(left - COARSE_WAIT))
            .and_then(|()| self.waiter.recv(&mut [0u8; 1]));
    }
}

/// One bound loopback endpoint: its engine name, its real address and
/// the socket.
struct Endpoint {
    addr: CtlAddr,
    real: SocketAddr,
    sock: UdpSocket,
}

/// The loopback carrier's transport: control frames ride real UDP
/// datagrams on `127.0.0.1`, and [`CtlAddr`]s map onto real endpoints
/// through an address table owned here. A frame from a real address the
/// table does not hold has no engine name and is discarded. A bind at
/// port `0` is an ephemeral endpoint named by its real port. The
/// carrier's clock lives here too; [`crate::World`] reads it between
/// events (see [`crate::World::new_loopback`]).
pub(crate) struct NetCtl {
    clock: NetClock,
    /// Bound endpoints by [`CtlSock`] id.
    endpoints: BTreeMap<u64, Endpoint>,
    next_sock: u64,
    buf: Vec<u8>,
}

fn refused(_: std::io::Error) -> CruzError {
    CruzError::Protocol("loopback socket refused")
}

impl NetCtl {
    /// A transport with no endpoints bound yet; its clock starts now.
    ///
    /// # Errors
    ///
    /// [`CruzError::Protocol`] when the host refuses loopback sockets.
    pub(crate) fn new() -> Result<NetCtl, CruzError> {
        Ok(NetCtl {
            clock: NetClock::start().map_err(refused)?,
            endpoints: BTreeMap::new(),
            next_sock: 0,
            buf: vec![0; 65536],
        })
    }

    /// The wall clock since the carrier started.
    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Waits toward `t`; the caller re-polls and calls again until the
    /// clock reaches it.
    pub(crate) fn wait_until(&self, t: SimTime) {
        self.clock.wait_until(t);
    }

    /// True once the carrier has run for its whole wall budget.
    pub(crate) fn budget_spent(&self) -> bool {
        self.clock.t0.elapsed() >= WALL_BUDGET
    }

    /// Fail-stop for a crashed node: every endpoint it hosted closes, so
    /// frames sent to it are lost like frames to a dead host.
    pub(crate) fn close_node(&mut self, node: usize) {
        self.endpoints.retain(|_, e| e.addr.node as usize != node);
    }

    fn real_of(&self, addr: CtlAddr) -> Option<SocketAddr> {
        self.endpoints
            .values()
            .find(|e| e.addr == addr)
            .map(|e| e.real)
    }

    fn name_of(&self, real: SocketAddr) -> Option<CtlAddr> {
        self.endpoints
            .values()
            .find(|e| e.real == real)
            .map(|e| e.addr)
    }

    fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError> {
        let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(refused)?;
        sock.set_nonblocking(true).map_err(refused)?;
        let real = sock.local_addr().map_err(refused)?;
        let addr = CtlAddr::new(node, if port == 0 { real.port() } else { port });
        if self.real_of(addr).is_some() {
            return Err(CruzError::Protocol("control port already bound"));
        }
        let id = self.next_sock;
        self.next_sock += 1;
        self.endpoints.insert(id, Endpoint { addr, real, sock });
        Ok(CtlSock(id))
    }

    fn send(&mut self, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg) {
        let (Some(real), Some(src)) = (self.real_of(dst), self.endpoints.get(&sock.0)) else {
            return; // unroutable ≡ lost in flight, by the transport contract
        };
        // Fire-and-forget by contract; the protocol layers own retry.
        // cruz-lint: allow(swallowed-error)
        let _ = src.sock.send_to(&msg.encode(), real);
    }

    fn recv(&mut self, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)> {
        loop {
            // Err is would-block (queue empty) or a refusal: nothing to read.
            let (n, src) = self
                .endpoints
                .get(&sock.0)?
                .sock
                .recv_from(&mut self.buf)
                .ok()?;
            if let (Some(msg), Some(from)) = (CtlMsg::decode(&self.buf[..n]), self.name_of(src)) {
                return Some((from, msg));
            }
        }
    }

    fn close(&mut self, sock: CtlSock) {
        self.endpoints.remove(&sock.0);
    }
}

/// A world's control-plane transport, as [`crate::World::ctl`] hands it
/// out: the simulated fabric, or the loopback carrier's real sockets.
/// Each operation dispatches to the carrier; the module docs state the
/// contract both keep.
pub(crate) enum Ctl<'a> {
    /// The sim carrier: [`SimnetCtl`] over the world's node stacks.
    Sim(SimnetCtl<'a>),
    /// The loopback carrier: [`NetCtl`].
    Net(&'a mut NetCtl),
}

impl Ctl<'_> {
    /// Binds a fresh control endpoint on `node` at `port` (`0` requests an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// [`CruzError::ControlSocket`] when the node's stack refuses the bind
    /// (port taken, sockets exhausted); [`CruzError::Protocol`] when the
    /// loopback carrier does.
    pub(crate) fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError> {
        match self {
            Ctl::Sim(c) => c.bind(node, port),
            Ctl::Net(c) => c.bind(node, port),
        }
    }

    /// Sends one control frame from `sock` on `node` to `dst`,
    /// fire-and-forget.
    pub(crate) fn send(
        &mut self,
        node: usize,
        sock: CtlSock,
        dst: CtlAddr,
        msg: &CtlMsg,
        now: SimTime,
    ) {
        match self {
            Ctl::Sim(c) => c.send(node, sock, dst, msg, now),
            Ctl::Net(c) => c.send(sock, dst, msg),
        }
    }

    /// Receives the next decodable control frame queued on `sock`, with
    /// its sender's address; `None` when there is none.
    pub(crate) fn recv(&mut self, node: usize, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)> {
        match self {
            Ctl::Sim(c) => c.recv(node, sock),
            Ctl::Net(c) => c.recv(sock),
        }
    }

    /// Releases `sock` on `node`. Frames still addressed to it are dropped,
    /// as if lost in flight.
    pub(crate) fn close(&mut self, node: usize, sock: CtlSock, now: SimTime) {
        match self {
            Ctl::Sim(c) => c.close(node, sock, now),
            Ctl::Net(c) => c.close(sock),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use des::SimDuration;
    use simnet::addr::{IpAddr, MacAddr};

    use super::*;
    use crate::{ClusterParams, World};

    /// The fixed port the receiving endpoint binds on node 1.
    const PORT: u16 = 7001;

    /// A decodable frame from a real address the loopback carrier never
    /// registered, and an undecodable datagram from the registered `from`,
    /// both toward `dst`.
    fn net_strays(w: &World, from: CtlSock, dst: CtlAddr) {
        let net = w.net.as_ref().expect("loopback carrier");
        let real = net.real_of(dst).expect("dst is bound");
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).expect("loopback socket");
        stranger
            .send_to(&CtlMsg::Ping { seq: 99 }.encode(), real)
            .expect("stranger sends");
        net.endpoints[&from.0]
            .sock
            .send_to(b"not a frame", real)
            .expect("junk sends");
    }

    /// The same two strays on the sim carrier: the stranger is a UDP
    /// socket on an address outside the node subnet, the way a pod
    /// interface on node 0 would send.
    fn sim_strays(w: &mut World, from: CtlSock, dst: CtlAddr) {
        let now = w.now;
        let net = &mut w.nodes[0].kernel.net;
        let ip = IpAddr::from_octets([10, 0, 1, 9]);
        net.add_iface("stray", MacAddr::from_index(900), vec![ip]);
        let stranger = net.udp_socket();
        net.bind(stranger, SockAddr::new(ip, 0))
            .expect("stray bind");
        let ping = Bytes::from(CtlMsg::Ping { seq: 99 }.encode());
        let wire = SimnetCtl::wire_addr(dst);
        net.udp_send_to(stranger, wire, ping, now)
            .expect("stranger sends");
        net.udp_send_to(SocketId(from.0), wire, Bytes::from_static(b"junk"), now)
            .expect("junk sends");
    }

    /// Lets every frame sent so far arrive: the sim carrier steps the
    /// fabric, the loopback carrier gives the host stack a moment.
    fn settle(w: &mut World) {
        if w.net.is_some() {
            std::thread::sleep(Duration::from_millis(20));
        } else {
            for n in 0..w.node_count() {
                w.kick_node(n);
            }
            w.run_for(SimDuration::from_millis(5));
        }
    }

    fn drain(w: &mut World, node: usize, sock: CtlSock) -> Vec<(CtlAddr, CtlMsg)> {
        std::iter::from_fn(|| w.ctl().recv(node, sock)).collect()
    }

    /// The contract both carriers keep: `recv` skips undecodable datagrams
    /// and frames from sources it cannot name, returns each decodable
    /// frame once with its sender's address (a reply to which reaches the
    /// sender), and reads nothing from a closed socket.
    fn check_contract(mut w: World) {
        let a = w.ctl().bind(0, 0).expect("ephemeral bind");
        let b = w.ctl().bind(1, PORT).expect("fixed bind");
        let dst = CtlAddr::new(1, PORT);
        if w.net.is_some() {
            net_strays(&w, a, dst);
        } else {
            sim_strays(&mut w, a, dst);
        }
        let sent = [CtlMsg::Done { epoch: 1 }, CtlMsg::Durable { epoch: 2 }];
        let now = w.now;
        for msg in &sent {
            w.ctl().send(0, a, dst, msg, now);
        }
        settle(&mut w);

        let got = drain(&mut w, 1, b);
        let msgs: Vec<CtlMsg> = got.iter().map(|&(_, m)| m).collect();
        assert_eq!(msgs, sent, "strays skipped, each frame exactly once");
        let from = got[0].0;
        assert_eq!(from.node, 0);
        assert_eq!(got[1].0, from);

        let reply = CtlMsg::Pong { seq: 5 };
        w.ctl().send(1, b, from, &reply, now);
        settle(&mut w);
        assert_eq!(drain(&mut w, 0, a), [(dst, reply)]);

        w.ctl().send(0, a, dst, &sent[0], now);
        settle(&mut w);
        w.ctl().close(1, b, now);
        assert_eq!(w.ctl().recv(1, b), None, "a closed socket reads nothing");
    }

    #[test]
    fn sim_carrier_keeps_the_transport_contract() {
        check_contract(World::new(2, ClusterParams::default()));
    }

    #[test]
    fn loopback_carrier_keeps_the_transport_contract() {
        if !loopback_available() {
            return;
        }
        check_contract(World::new_loopback(2, ClusterParams::default()).expect("loopback"));
    }
}
