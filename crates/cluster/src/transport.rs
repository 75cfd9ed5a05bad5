//! The control-plane transport: one `Ctl` per world, on one of two
//! carriers.
//!
//! Everything above this module — coordinator wiring, agent wiring,
//! heartbeats, failover — moves [`CtlMsg`] frames through `Ctl`'s two
//! operations and never touches a node's network stack directly. That is
//! the layering DMTCP's coordinator/plugin split proved out (swap the
//! transport, keep the protocol): the protocol engine is written once,
//! against `CtlAddr` node-index addressing, and each carrier maps those
//! names onto its own endpoints.
//!
//! Each carrier binds every node's two fixed endpoints, the agent's and
//! the coordinator's, when the world is built, and binds nothing after.
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
//!   cannot name, and returns `None` on an empty queue.
//! * **Addressed** — endpoints are named by node index and `CtlPort`
//!   (`CtlAddr`), never by wire address, and `recv` reports the sender's
//!   `CtlAddr`, so a reply to it reaches the sending endpoint.
//! * **Fail-stop** — a crashed node's endpoints receive nothing sent
//!   after the crash.
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

use crate::node::{node_ip, CtlAddr, CtlPort, Node};

/// The sim carrier's transport: control frames ride real datagrams
/// through each node's [`simnet`] stack, the switch, and the per-link
/// bandwidth/latency model — so control-plane cost and control-plane loss
/// are emergent, not modelled. [`CtlAddr`]s map onto the `10.0.0.(n+1)`
/// subnet here; the engine above never sees a wire address.
pub(crate) struct SimnetCtl<'a> {
    nodes: &'a mut [Node],
    /// Each node's two control sockets, by [`CtlPort`].
    socks: &'a [[SocketId; 2]],
}

impl<'a> SimnetCtl<'a> {
    /// Binds every node's two control endpoints on its stack, returning
    /// the sockets by node and [`CtlPort`].
    ///
    /// # Errors
    ///
    /// [`CruzError::ControlSocket`] when a stack refuses a bind.
    pub(crate) fn bind(nodes: &mut [Node]) -> Result<Vec<[SocketId; 2]>, CruzError> {
        let mut out = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter_mut().enumerate() {
            let mut bind = |port: CtlPort| {
                let s = n.kernel.net.udp_socket();
                let at = SockAddr::new(node_ip(i), port.number());
                n.kernel.net.bind(s, at).map(|_| s)
            };
            out.push([bind(CtlPort::Agent)?, bind(CtlPort::Coord)?]);
        }
        Ok(out)
    }

    /// The wire address of an engine-level endpoint.
    fn wire_addr(addr: CtlAddr) -> SockAddr {
        SockAddr::new(node_ip(addr.node as usize), addr.port.number())
    }

    /// The engine-level endpoint a wire source address names: a control
    /// port of the node whose `10.0.0.(n+1)` address it is. Frames from
    /// outside the node subnet, or from any other port, have no engine
    /// name and are discarded by `recv`.
    fn engine_addr(addr: SockAddr) -> Option<CtlAddr> {
        let o = addr.ip.octets();
        if o[0] == 10 && o[1] == 0 && o[2] == 0 && o[3] >= 1 {
            Some(CtlAddr::new(
                (o[3] - 1) as usize,
                CtlPort::from_number(addr.port)?,
            ))
        } else {
            None
        }
    }

    fn sock(&self, at: CtlAddr) -> SocketId {
        self.socks[at.node as usize][at.port as usize]
    }

    fn send(&mut self, from: CtlAddr, dst: CtlAddr, msg: &CtlMsg, now: SimTime) {
        let sock = self.sock(from);
        // Fire-and-forget by contract: a refused or unroutable send is,
        // to the protocol, indistinguishable from loss in flight, and the
        // layers above own retry. cruz-lint: allow(swallowed-error)
        let _ = self.nodes[from.node as usize].kernel.net.udp_send_to(
            sock,
            Self::wire_addr(dst),
            Bytes::from(msg.encode()),
            now,
        );
    }

    fn recv(&mut self, at: CtlAddr) -> Option<(CtlAddr, CtlMsg)> {
        let sock = self.sock(at);
        let net = &mut self.nodes[at.node as usize].kernel.net;
        while let Ok(Some((from, bytes))) = net.udp_recv_from(sock) {
            if let Some(msg) = CtlMsg::decode(&bytes) {
                if let Some(addr) = Self::engine_addr(from) {
                    return Some((addr, msg));
                }
            }
        }
        None
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

/// One bound loopback endpoint: its real address and the socket.
struct Endpoint {
    real: SocketAddr,
    sock: UdpSocket,
}

/// The loopback carrier's transport: control frames ride real UDP
/// datagrams on `127.0.0.1`, and [`CtlAddr`]s map onto real endpoints
/// through an address table owned here. A frame from a real address the
/// table does not hold has no engine name and is discarded. The
/// carrier's clock lives here too; [`crate::World`] reads it between
/// events (see [`crate::World::new_loopback`]).
pub(crate) struct NetCtl {
    clock: NetClock,
    /// Every live node's two endpoints.
    endpoints: BTreeMap<CtlAddr, Endpoint>,
    buf: Vec<u8>,
}

fn refused(_: std::io::Error) -> CruzError {
    CruzError::Protocol("loopback socket refused")
}

impl NetCtl {
    /// A transport with both endpoints of each of `n` nodes bound; its
    /// clock starts now.
    ///
    /// # Errors
    ///
    /// [`CruzError::Protocol`] when the host refuses loopback sockets.
    pub(crate) fn new(n: usize) -> Result<NetCtl, CruzError> {
        let mut endpoints = BTreeMap::new();
        for node in 0..n {
            for port in CtlPort::ALL {
                let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(refused)?;
                sock.set_nonblocking(true).map_err(refused)?;
                let real = sock.local_addr().map_err(refused)?;
                endpoints.insert(CtlAddr::new(node, port), Endpoint { real, sock });
            }
        }
        Ok(NetCtl {
            clock: NetClock::start().map_err(refused)?,
            endpoints,
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

    /// Fail-stop for a crashed node: both its endpoints close, so frames
    /// sent to it are lost like frames to a dead host.
    pub(crate) fn close_node(&mut self, node: usize) {
        self.endpoints.retain(|a, _| a.node as usize != node);
    }

    fn name_of(&self, real: SocketAddr) -> Option<CtlAddr> {
        self.endpoints
            .iter()
            .find(|(_, e)| e.real == real)
            .map(|(&a, _)| a)
    }

    fn send(&mut self, from: CtlAddr, dst: CtlAddr, msg: &CtlMsg) {
        let (Some(src), Some(dst)) = (self.endpoints.get(&from), self.endpoints.get(&dst)) else {
            return; // unroutable ≡ lost in flight, by the transport contract
        };
        // Fire-and-forget by contract; the protocol layers own retry.
        // cruz-lint: allow(swallowed-error)
        let _ = src.sock.send_to(&msg.encode(), dst.real);
    }

    fn recv(&mut self, at: CtlAddr) -> Option<(CtlAddr, CtlMsg)> {
        loop {
            // Err is would-block (queue empty) or a refusal: nothing to read.
            let (n, src) = self
                .endpoints
                .get(&at)?
                .sock
                .recv_from(&mut self.buf)
                .ok()?;
            if let (Some(msg), Some(from)) = (CtlMsg::decode(&self.buf[..n]), self.name_of(src)) {
                return Some((from, msg));
            }
        }
    }
}

/// The carrier a world's control plane runs on, with the endpoints it
/// bound at construction.
pub(crate) enum Carrier {
    /// The sim carrier: each node's two control sockets on its simulated
    /// stack, by node and [`CtlPort`].
    Sim(Vec<[SocketId; 2]>),
    /// The loopback carrier: [`NetCtl`].
    Net(NetCtl),
}

impl Carrier {
    /// The loopback carrier, if this is it.
    pub(crate) fn net(&self) -> Option<&NetCtl> {
        match self {
            Carrier::Sim(_) => None,
            Carrier::Net(net) => Some(net),
        }
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

impl<'a> Ctl<'a> {
    /// The transport of a world with these nodes on this carrier.
    pub(crate) fn new(carrier: &'a mut Carrier, nodes: &'a mut [Node]) -> Ctl<'a> {
        match carrier {
            Carrier::Sim(socks) => Ctl::Sim(SimnetCtl { nodes, socks }),
            Carrier::Net(net) => Ctl::Net(net),
        }
    }

    /// Sends one control frame from the endpoint `from` to `dst`,
    /// fire-and-forget.
    pub(crate) fn send(&mut self, from: CtlAddr, dst: CtlAddr, msg: &CtlMsg, now: SimTime) {
        match self {
            Ctl::Sim(c) => c.send(from, dst, msg, now),
            Ctl::Net(c) => c.send(from, dst, msg),
        }
    }

    /// Receives the next decodable control frame queued on the endpoint
    /// `at`, with its sender's address; `None` when there is none.
    pub(crate) fn recv(&mut self, at: CtlAddr) -> Option<(CtlAddr, CtlMsg)> {
        match self {
            Ctl::Sim(c) => c.recv(at),
            Ctl::Net(c) => c.recv(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use des::SimDuration;
    use simnet::addr::{IpAddr, MacAddr};
    use simnet::EthFrame;

    use super::*;
    use crate::{ClusterParams, World};

    /// A decodable frame from a real address the loopback carrier never
    /// registered, and an undecodable datagram from the registered `from`,
    /// both toward `dst`.
    fn net_strays(w: &World, from: CtlAddr, dst: CtlAddr) {
        let net = w.carrier.net().expect("loopback carrier");
        let real = net.endpoints[&dst].real;
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).expect("loopback socket");
        stranger
            .send_to(&CtlMsg::Ping { seq: 99 }.encode(), real)
            .expect("stranger sends");
        net.endpoints[&from]
            .sock
            .send_to(b"not a frame", real)
            .expect("junk sends");
    }

    /// The same strays on the sim carrier, plus a second stranger: one UDP
    /// socket on an address outside the node subnet, the way a pod
    /// interface on node 0 would send, and one on node 0's own address at
    /// a port that is not a control endpoint.
    fn sim_strays(w: &mut World, from: CtlAddr, dst: CtlAddr) {
        let now = w.now;
        let from_sock = match &w.carrier {
            Carrier::Sim(socks) => socks[from.node as usize][from.port as usize],
            Carrier::Net(_) => unreachable!("sim carrier"),
        };
        let net = &mut w.nodes[0].kernel.net;
        let ip = IpAddr::from_octets([10, 0, 1, 9]);
        net.add_iface("stray", MacAddr::from_index(900), vec![ip]);
        let ping = Bytes::from(CtlMsg::Ping { seq: 99 }.encode());
        let wire = SimnetCtl::wire_addr(dst);
        for at in [SockAddr::new(ip, 0), SockAddr::new(node_ip(0), 7000)] {
            let stranger = net.udp_socket();
            net.bind(stranger, at).expect("stray bind");
            net.udp_send_to(stranger, wire, ping.clone(), now)
                .expect("stranger sends");
        }
        net.udp_send_to(from_sock, wire, Bytes::from_static(b"junk"), now)
            .expect("junk sends");
    }

    /// Lets every frame sent so far arrive without serving any endpoint:
    /// the sim carrier passes frames between the node stacks as a hub would
    /// until none is left (the world's own fabric would hand them to the
    /// nodes' pumps), the loopback carrier gives the host stack a moment.
    fn settle(w: &mut World) {
        if w.carrier.net().is_some() {
            std::thread::sleep(Duration::from_millis(20));
            return;
        }
        let now = w.now;
        loop {
            let frames: Vec<(usize, EthFrame)> = (0..w.node_count())
                .flat_map(|n| {
                    w.nodes[n]
                        .kernel
                        .take_frames()
                        .into_iter()
                        .map(move |f| (n, f))
                })
                .collect();
            if frames.is_empty() {
                return;
            }
            for (from, frame) in frames {
                for node in (0..w.node_count()).filter(|&m| m != from) {
                    w.nodes[node].kernel.on_frame(frame.clone(), now);
                }
            }
        }
    }

    fn drain(w: &mut World, at: CtlAddr) -> Vec<(CtlAddr, CtlMsg)> {
        std::iter::from_fn(|| w.ctl().recv(at)).collect()
    }

    /// The contract both carriers keep between the fixed endpoints: `recv`
    /// skips undecodable datagrams and frames from sources it cannot name,
    /// returns each decodable frame once with its sender's endpoint (a
    /// reply to which reaches the sender), and a crashed node's endpoints
    /// receive nothing sent after the crash.
    fn check_contract(mut w: World) {
        let (coord, agent) = (CtlAddr::coord(0), CtlAddr::agent(1));
        if w.carrier.net().is_some() {
            net_strays(&w, coord, agent);
        } else {
            sim_strays(&mut w, coord, agent);
        }
        let sent = [CtlMsg::Done { epoch: 1 }, CtlMsg::Durable { epoch: 2 }];
        let now = w.now;
        for msg in &sent {
            w.ctl().send(coord, agent, msg, now);
        }
        settle(&mut w);

        let got = drain(&mut w, agent);
        let msgs: Vec<CtlMsg> = got.iter().map(|&(_, m)| m).collect();
        assert_eq!(msgs, sent, "strays skipped, each frame exactly once");
        assert_eq!(got[0].0, coord);
        assert_eq!(got[1].0, coord);

        let reply = CtlMsg::Pong { seq: 5 };
        w.ctl().send(agent, coord, &reply, now);
        settle(&mut w);
        assert_eq!(drain(&mut w, coord), [(agent, reply)]);
        assert_eq!(
            drain(&mut w, CtlAddr::agent(0)),
            [],
            "one endpoint's frames"
        );

        // Fail-stop: the world's own fabric on the sim carrier, closed
        // sockets on the loopback carrier.
        w.crash_node(1);
        for at in [agent, CtlAddr::coord(1)] {
            w.ctl().send(coord, at, &sent[0], now);
        }
        if w.carrier.net().is_some() {
            settle(&mut w);
        } else {
            w.kick_node(0);
            w.run_for(SimDuration::from_millis(5));
        }
        assert_eq!(drain(&mut w, agent), [], "a crashed node reads nothing");
        assert_eq!(drain(&mut w, CtlAddr::coord(1)), []);
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
