//! A learning Ethernet switch.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::MacAddr;
use crate::frame::EthFrame;

/// A switch port identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A store-and-forward learning switch.
///
/// The switch learns source MACs per port, forwards unicast frames to the
/// learned port, and floods broadcasts and unknown destinations to every
/// other port. Pod migration moves a MAC between ports; the learning table
/// self-corrects on the first frame the migrated pod sends (and the
/// gratuitous ARP Cruz emits is exactly such a frame).
#[derive(Debug, Clone)]
pub struct Switch {
    ports: usize,
    table: BTreeMap<MacAddr, PortId>,
}

impl Switch {
    /// Creates a switch with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "a switch needs at least one port");
        Switch {
            ports,
            table: BTreeMap::new(),
        }
    }

    /// Processes a frame arriving on `in_port`; returns the output ports the
    /// frame is forwarded to, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `in_port` is out of range.
    pub fn forward(&mut self, in_port: PortId, frame: &EthFrame) -> Egress {
        assert!(in_port.0 < self.ports, "input port out of range");
        // Learn the source binding (moves override, handling migration).
        if !frame.src.is_broadcast() {
            self.table.insert(frame.src, in_port);
        }
        let flood = Egress {
            next: 0,
            end: self.ports,
            skip: in_port.0,
        };
        if frame.dst.is_broadcast() {
            return flood;
        }
        match self.table.get(&frame.dst) {
            // Would hairpin: drop.
            Some(&p) if p == in_port => Egress {
                next: 0,
                end: 0,
                skip: 0,
            },
            Some(&PortId(p)) => Egress {
                next: p,
                end: p + 1,
                skip: usize::MAX,
            },
            None => flood,
        }
    }

    /// The port a MAC was last learned on.
    pub fn learned_port(&self, mac: MacAddr) -> Option<PortId> {
        self.table.get(&mac).copied()
    }
}

/// The output ports of one forwarding decision, in port order: the one
/// learned port, every port but the input (a flood), or none (a hairpin).
/// Computed, never allocated.
#[derive(Debug, Clone)]
pub struct Egress {
    next: usize,
    end: usize,
    /// The input port a flood passes over.
    skip: usize,
}

impl Iterator for Egress {
    type Item = PortId;

    fn next(&mut self) -> Option<PortId> {
        if self.next == self.skip {
            self.next += 1;
        }
        if self.next >= self.end {
            return None;
        }
        self.next += 1;
        Some(PortId(self.next - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;
    use crate::arp::ArpPacket;
    use crate::frame::EthPayload;

    fn mac(i: u32) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn frame(src: MacAddr, dst: MacAddr) -> EthFrame {
        EthFrame::new(
            src,
            dst,
            EthPayload::Arp(ArpPacket::request(
                src,
                IpAddr::from_octets([10, 0, 0, 1]),
                IpAddr::from_octets([10, 0, 0, 2]),
            )),
        )
    }

    #[test]
    fn floods_unknown_then_learns() {
        let mut sw = Switch::new(4);
        // Unknown destination: flood.
        let out = sw.forward(PortId(0), &frame(mac(1), mac(2)));
        assert_eq!(out.collect::<Vec<_>>(), [PortId(1), PortId(2), PortId(3)]);
        // mac(2) answers from port 2.
        let out = sw.forward(PortId(2), &frame(mac(2), mac(1)));
        assert_eq!(out.collect::<Vec<_>>(), [PortId(0)], "mac(1) was learned");
        // Now mac(2) is known too.
        let out = sw.forward(PortId(0), &frame(mac(1), mac(2)));
        assert_eq!(out.collect::<Vec<_>>(), [PortId(2)]);
    }

    #[test]
    fn broadcast_floods_always() {
        let mut sw = Switch::new(3);
        let out = sw.forward(PortId(1), &frame(mac(1), MacAddr::BROADCAST));
        assert_eq!(out.collect::<Vec<_>>(), [PortId(0), PortId(2)]);
        // The last port's flood skips nothing past the end.
        let out = sw.forward(PortId(2), &frame(mac(2), MacAddr::BROADCAST));
        assert_eq!(out.collect::<Vec<_>>(), [PortId(0), PortId(1)]);
    }

    #[test]
    fn migration_relearns_port() {
        let mut sw = Switch::new(3);
        sw.forward(PortId(0), &frame(mac(7), MacAddr::BROADCAST));
        assert_eq!(sw.learned_port(mac(7)), Some(PortId(0)));
        // Same MAC appears on port 2 (pod migrated): table updates.
        sw.forward(PortId(2), &frame(mac(7), MacAddr::BROADCAST));
        assert_eq!(sw.learned_port(mac(7)), Some(PortId(2)));
    }

    #[test]
    fn hairpin_frames_are_dropped() {
        let mut sw = Switch::new(2);
        sw.forward(PortId(0), &frame(mac(1), MacAddr::BROADCAST));
        sw.forward(PortId(0), &frame(mac(2), MacAddr::BROADCAST));
        // Destination known on the same port the frame came from.
        let mut out = sw.forward(PortId(0), &frame(mac(1), mac(2)));
        assert_eq!(out.next(), None);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = Switch::new(0);
    }
}
