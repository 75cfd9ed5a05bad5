//! The control-plane transport seam.
//!
//! Everything above this module — coordinator wiring, agent wiring,
//! heartbeats, failover — moves [`CtlMsg`] frames through the
//! [`CtlTransport`] trait and never touches a node's network stack
//! directly. That is the layering DMTCP's coordinator/plugin split proved
//! out (and its InfiniBand port exploited: swap the transport, keep the
//! protocol): the protocol engine is written once against this seam, and
//! a backend is free to carry frames however it likes.
//!
//! The trait speaks only engine-owned types — [`CtlAddr`] node-index
//! addressing and [`CtlInstant`] clock readings (`crate::runtime`), never
//! `simnet::SockAddr` or `des::SimTime` — so a backend over real sockets
//! implements these four methods and the engine above compiles unchanged.
//!
//! The first backend is [`SimnetCtl`]: unreliable datagrams over the
//! simulated UDP/IP/Ethernet substrate. Frames it sends are subject to
//! everything the fabric does to real traffic — link serialization delay,
//! switch forwarding, seeded loss, and the fault plane's
//! drop/duplicate/reorder injections — which is exactly why the protocol
//! layers must tolerate delivery faults rather than assume a reliable
//! channel. The second is [`NetCtl`], the loopback carrier's transport,
//! which carries the same frames over real non-blocking
//! `std::net::UdpSocket`s on `127.0.0.1` and owns that carrier's wall
//! clock. [`Ctl`] is whichever of the two a world was built with.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::addr::SockAddr;
use simnet::stack::SocketId;

use cruz::error::CruzError;
use cruz::proto::{CtlMsg, AGENT_PORT};

use crate::node::{node_ip, Node};
use crate::runtime::{CtlAddr, CtlInstant};

pub use crate::node::CtlSock;

/// Bind/send/receive of control-plane frames on behalf of a node.
///
/// The contract is deliberately minimal and datagram-shaped:
///
/// * **Unreliable** — `send` is fire-and-forget. Frames may be dropped,
///   duplicated or reordered in flight (the simnet backend subjects them
///   to the seeded fault plane); the protocol layers above own retry and
///   idempotence.
/// * **Non-blocking** — `recv` drains at most one decodable frame and
///   never waits; the event loop polls it at node-service points.
/// * **Addressed** — nodes are named by index ([`CtlAddr`]), never by
///   wire address; [`CtlTransport::agent_addr`] maps an index to the
///   well-known agent endpoint so callers never derive addresses
///   themselves.
pub trait CtlTransport {
    /// Binds a fresh control endpoint on `node` at `port` (`0` requests an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// [`CruzError::ControlSocket`] when the node's stack refuses the bind
    /// (port taken, sockets exhausted).
    fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError>;

    /// Sends one control frame from `sock` on `node` to `dst`,
    /// fire-and-forget. A refused or unroutable send is dropped silently —
    /// indistinguishable, to the protocol, from loss in flight.
    fn send(&mut self, node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, now: CtlInstant);

    /// Receives the next decodable control frame queued on `sock`, with
    /// its source address. Undecodable datagrams are discarded. `None`
    /// when the queue is empty.
    fn recv(&mut self, node: usize, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)>;

    /// Releases `sock` on `node`. Frames still addressed to it are dropped,
    /// as if lost in flight.
    fn close(&mut self, node: usize, sock: CtlSock, now: CtlInstant);

    /// The well-known control-plane address of `node`'s agent endpoint.
    fn agent_addr(&self, node: usize) -> CtlAddr;
}

/// The simulated-UDP backend: control frames ride real datagrams through
/// each node's [`simnet`] stack, the switch, and the per-link
/// bandwidth/latency model — so control-plane cost and control-plane loss
/// are emergent, not modelled. [`CtlAddr`]s map onto the `10.0.0.(n+1)`
/// subnet at the seam; the engine above never sees a wire address.
pub struct SimnetCtl<'a> {
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
}

impl CtlTransport for SimnetCtl<'_> {
    fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError> {
        let k = &mut self.nodes[node].kernel;
        let s = k.net.udp_socket();
        k.net
            .bind(s, SockAddr::new(node_ip(node), port))
            .map_err(CruzError::ControlSocket)?;
        Ok(CtlSock(s.0))
    }

    fn send(&mut self, node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, now: CtlInstant) {
        // Fire-and-forget by contract: a refused or unroutable send is,
        // to the protocol, indistinguishable from loss in flight, and the
        // layers above own retry. cruz-lint: allow(swallowed-error)
        let _ = self.nodes[node].kernel.net.udp_send_to(
            SocketId(sock.0),
            Self::wire_addr(dst),
            Bytes::from(msg.encode()),
            now.into(),
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

    fn close(&mut self, node: usize, sock: CtlSock, now: CtlInstant) {
        self.nodes[node]
            .kernel
            .net
            .close(SocketId(sock.0), now.into());
    }

    fn agent_addr(&self, node: usize) -> CtlAddr {
        CtlAddr::new(node, AGENT_PORT)
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
/// started, read as [`CtlInstant`]s, plus a private socket whose read
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

    fn now(&self) -> CtlInstant {
        CtlInstant::from_nanos(self.t0.elapsed().as_nanos() as u64)
    }

    /// Waits toward `t`: blocks on the waiter's read timeout while `t` is
    /// more than [`COARSE_WAIT`] away, and otherwise only yields the CPU,
    /// so the caller re-polls its endpoints at once.
    fn wait_until(&self, t: CtlInstant) {
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
/// through an address table owned here.
///
/// The contract matches [`SimnetCtl`]: sends are fire-and-forget,
/// sockets are non-blocking so `recv` drains at most one decodable frame
/// and never waits, and frames from unregistered sources are discarded.
/// A [`CtlAddr`] with port `0` binds an ephemeral endpoint named by its
/// real port. The carrier's clock lives here too; [`crate::World`] reads
/// it between events (see [`crate::World::new_loopback`]).
pub struct NetCtl {
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

    /// The wall clock, as an engine instant.
    pub(crate) fn now(&self) -> CtlInstant {
        self.clock.now()
    }

    /// Waits toward `t`; the caller re-polls and calls again until the
    /// clock reaches it.
    pub(crate) fn wait_until(&self, t: CtlInstant) {
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
}

impl CtlTransport for NetCtl {
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

    fn send(&mut self, _node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, _now: CtlInstant) {
        let (Some(real), Some(src)) = (self.real_of(dst), self.endpoints.get(&sock.0)) else {
            return; // unroutable ≡ lost in flight, by the seam contract
        };
        // Fire-and-forget by contract; the protocol layers own retry.
        // cruz-lint: allow(swallowed-error)
        let _ = src.sock.send_to(&msg.encode(), real);
    }

    fn recv(&mut self, _node: usize, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)> {
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

    fn close(&mut self, _node: usize, sock: CtlSock, _now: CtlInstant) {
        self.endpoints.remove(&sock.0);
    }

    fn agent_addr(&self, node: usize) -> CtlAddr {
        CtlAddr::new(node, AGENT_PORT)
    }
}

/// A world's control-plane transport, as [`crate::World::ctl`] hands it
/// out: the simulated fabric, or the loopback carrier's real sockets.
pub enum Ctl<'a> {
    /// The sim carrier: [`SimnetCtl`] over the world's node stacks.
    Sim(SimnetCtl<'a>),
    /// The loopback carrier: [`NetCtl`].
    Net(&'a mut NetCtl),
}

impl CtlTransport for Ctl<'_> {
    fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError> {
        match self {
            Ctl::Sim(c) => c.bind(node, port),
            Ctl::Net(c) => c.bind(node, port),
        }
    }

    fn send(&mut self, node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, now: CtlInstant) {
        match self {
            Ctl::Sim(c) => c.send(node, sock, dst, msg, now),
            Ctl::Net(c) => c.send(node, sock, dst, msg, now),
        }
    }

    fn recv(&mut self, node: usize, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)> {
        match self {
            Ctl::Sim(c) => c.recv(node, sock),
            Ctl::Net(c) => c.recv(node, sock),
        }
    }

    fn close(&mut self, node: usize, sock: CtlSock, now: CtlInstant) {
        match self {
            Ctl::Sim(c) => c.close(node, sock, now),
            Ctl::Net(c) => c.close(node, sock, now),
        }
    }

    fn agent_addr(&self, node: usize) -> CtlAddr {
        match self {
            Ctl::Sim(c) => c.agent_addr(node),
            Ctl::Net(c) => c.agent_addr(node),
        }
    }
}
