//! Base node types shared by every layer of the cluster engine.
//!
//! This module sits at the bottom of the cluster layer map (DESIGN.md
//! §14): it imports nothing else from this crate, so the transport and
//! every protocol layer above it can name a node or address one of its
//! control endpoints without creating a dependency that points up the
//! stack at the world driver.

use des::SimTime;
use simnet::addr::IpAddr;
use simos::kernel::Kernel;
use zap::Zap;

use cruz::agent::Agent;
use cruz::proto::{AGENT_PORT, COORD_PORT};

/// The most nodes one world can address: node `i` owns `10.0.0.(i+1)`,
/// and the last octet runs out at `.255`.
pub const MAX_NODES: usize = 255;

/// One of the two fixed control endpoints every node binds when the world
/// is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum CtlPort {
    /// The agent endpoint, at [`AGENT_PORT`]: the coordinators' frames and
    /// heartbeat pings arrive here, and the agent answers from it.
    Agent = 0,
    /// The coordinator endpoint, at [`COORD_PORT`]: every operation and
    /// heartbeat round coordinated on the node sends from it, and every
    /// reply to them arrives here.
    Coord = 1,
}

impl CtlPort {
    /// Both endpoints, in binding order.
    pub(crate) const ALL: [CtlPort; 2] = [CtlPort::Agent, CtlPort::Coord];

    /// The endpoint's port number on the wire.
    pub(crate) fn number(self) -> u16 {
        match self {
            CtlPort::Agent => AGENT_PORT,
            CtlPort::Coord => COORD_PORT,
        }
    }

    /// The endpoint a wire port names, if any.
    pub(crate) fn from_number(port: u16) -> Option<CtlPort> {
        CtlPort::ALL.into_iter().find(|p| p.number() == port)
    }
}

/// A control-plane endpoint named by node index, not wire address.
///
/// The protocol engine only ever needs "the agent endpoint of node 3" or
/// "the coordinator endpoint of node 0"; how that maps onto an IP/port
/// (simnet) or a real loopback UDP socket is the carrier's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct CtlAddr {
    /// The node hosting the endpoint.
    pub(crate) node: u32,
    /// Which of the node's two endpoints.
    pub(crate) port: CtlPort,
}

impl CtlAddr {
    /// The endpoint `port` on `node`.
    pub(crate) fn new(node: usize, port: CtlPort) -> CtlAddr {
        CtlAddr {
            node: node as u32,
            port,
        }
    }

    /// The agent endpoint of `node`.
    pub(crate) fn agent(node: usize) -> CtlAddr {
        CtlAddr::new(node, CtlPort::Agent)
    }

    /// The coordinator endpoint of `node`.
    pub(crate) fn coord(node: usize) -> CtlAddr {
        CtlAddr::new(node, CtlPort::Coord)
    }
}

/// One simulated machine.
pub struct Node {
    /// The node's kernel (OS, stack, disk).
    pub kernel: Kernel,
    /// The node's Zap layer.
    pub zap: Zap,
    pub(crate) agent: Agent,
    pub(crate) agent_coord_addr: Option<CtlAddr>,
    pub(crate) alive: bool,
    pub(crate) run_scheduled: bool,
    pub(crate) timer_scheduled: Option<SimTime>,
    /// When this node's control-plane CPU frees up: sending and processing
    /// coordination messages serialize here (the N-proportional component
    /// of Fig. 5(b)).
    pub(crate) ctl_cpu_free: SimTime,
}

/// The IP of node `i`: `10.0.0.(i+1)`, for `i <` [`MAX_NODES`].
pub fn node_ip(i: usize) -> IpAddr {
    assert!(i < MAX_NODES, "node {i} has no 10.0.0.x address");
    IpAddr::from_octets([10, 0, 0, (i + 1) as u8])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_is_node_indexed() {
        let a = CtlAddr::agent(3);
        assert_eq!(a.node, 3);
        assert_eq!(a.port, CtlPort::Agent);
        assert_ne!(a, CtlAddr::agent(4));
        assert_ne!(a, CtlAddr::coord(3));
        assert_eq!(CtlAddr::coord(3), CtlAddr::new(3, CtlPort::Coord));
    }

    #[test]
    fn the_two_endpoints_sit_at_the_well_known_ports() {
        assert_eq!(CtlPort::Agent.number(), AGENT_PORT);
        assert_eq!(CtlPort::Coord.number(), COORD_PORT);
        for p in CtlPort::ALL {
            assert_eq!(CtlPort::from_number(p.number()), Some(p));
        }
        assert_eq!(CtlPort::from_number(0), None);
    }

    #[test]
    fn the_last_node_owns_the_last_octet() {
        assert_eq!(node_ip(0), IpAddr::from_octets([10, 0, 0, 1]));
        assert_eq!(node_ip(254), IpAddr::from_octets([10, 0, 0, 255]));
    }
}
