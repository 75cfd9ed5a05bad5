//! Base node types shared by every layer of the cluster engine.
//!
//! This module sits at the bottom of the cluster layer map (DESIGN.md
//! §14): it imports nothing else from this crate, so the transport and
//! every protocol layer above it can name a node, address its control
//! endpoints, or hold a control socket handle without creating a
//! dependency that points up the stack at the world driver.

use des::SimTime;
use simnet::addr::IpAddr;
use simos::kernel::Kernel;
use zap::Zap;

use cruz::agent::Agent;
use cruz::proto::AGENT_PORT;

/// The most nodes one world can address: node `i` owns `10.0.0.(i+1)`,
/// and the last octet runs out at `.255`.
pub const MAX_NODES: usize = 255;

/// A control-plane endpoint named by node index, not wire address.
///
/// The protocol engine only ever needs "the agent endpoint of node 3" or
/// "reply to whoever sent this"; how that maps onto an IP/port (simnet)
/// or a real loopback UDP socket is the carrier's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct CtlAddr {
    /// The node hosting the endpoint.
    pub(crate) node: u32,
    /// The endpoint's port in the carrier's port space (`0` = ephemeral;
    /// a carrier receiving a frame reports the sender's actual port).
    pub(crate) port: u16,
}

impl CtlAddr {
    /// The endpoint `port` on `node`.
    pub(crate) fn new(node: usize, port: u16) -> CtlAddr {
        CtlAddr {
            node: node as u32,
            port,
        }
    }

    /// The well-known agent endpoint of `node`, the same on both carriers.
    pub(crate) fn agent(node: usize) -> CtlAddr {
        CtlAddr::new(node, AGENT_PORT)
    }
}

/// An opaque handle to one bound control-plane endpoint on one node.
///
/// Carriers map it onto whatever their socket notion is; holders can only
/// pass it back into the carrier that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CtlSock(pub(crate) u64);

impl CtlSock {
    /// A handle that no carrier ever issues — the pre-bind placeholder.
    pub(crate) const UNBOUND: CtlSock = CtlSock(u64::MAX);
}

/// One simulated machine.
pub struct Node {
    /// The node's kernel (OS, stack, disk).
    pub kernel: Kernel,
    /// The node's Zap layer.
    pub zap: Zap,
    pub(crate) agent: Agent,
    pub(crate) agent_sock: CtlSock,
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
        let a = CtlAddr::new(3, 7770);
        assert_eq!(a.node, 3);
        assert_eq!(a.port, 7770);
        assert_ne!(a, CtlAddr::new(4, 7770));
        assert_eq!(CtlAddr::agent(3), CtlAddr::new(3, AGENT_PORT));
    }

    #[test]
    fn the_last_node_owns_the_last_octet() {
        assert_eq!(node_ip(0), IpAddr::from_octets([10, 0, 0, 1]));
        assert_eq!(node_ip(254), IpAddr::from_octets([10, 0, 0, 255]));
    }
}
