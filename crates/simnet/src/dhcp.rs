//! DHCP: dynamic address assignment keyed on the client hardware address.
//!
//! The Cruz paper's §4.2 migration story depends on one DHCP property: the
//! server identifies a client by the MAC address **in the DHCP payload**
//! (`chaddr`), not by the Ethernet source of the request. A migrated pod
//! keeps its IP lease by presenting the same (possibly *fake*) `chaddr` from
//! its new host, even though the frames now come from a different physical
//! MAC. This module implements both ends with exactly that keying.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use des::{SimDuration, SimTime};

use crate::addr::{IpAddr, MacAddr};

/// The UDP port DHCP servers listen on.
pub const DHCP_SERVER_PORT: u16 = 67;
/// The UDP port DHCP clients listen on.
pub const DHCP_CLIENT_PORT: u16 = 68;

/// DHCP message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DhcpOp {
    /// Client broadcast looking for servers.
    Discover,
    /// Server offer of an address.
    Offer,
    /// Client request for an offered/renewed address.
    Request,
    /// Server acknowledgement of a binding.
    Ack,
    /// Server refusal.
    Nak,
    /// Client releasing its binding.
    Release,
}

/// A DHCP message (the fields the simulation needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhcpMessage {
    /// Message type.
    pub op: DhcpOp,
    /// Transaction id chosen by the client.
    pub xid: u32,
    /// Client hardware address *as claimed in the payload* — the identity
    /// the server keys leases on.
    pub chaddr: MacAddr,
    /// "Your address": the address being offered/assigned (server→client).
    pub yiaddr: IpAddr,
}

impl DhcpMessage {
    /// Serializes to a UDP payload (fixed 16-byte layout; real BOOTP pads
    /// to 300 bytes on the wire, which only affects link timing here).
    pub fn encode(&self) -> Bytes {
        let mut v = Vec::with_capacity(16);
        v.push(match self.op {
            DhcpOp::Discover => 1,
            DhcpOp::Offer => 2,
            DhcpOp::Request => 3,
            DhcpOp::Ack => 4,
            DhcpOp::Nak => 5,
            DhcpOp::Release => 6,
        });
        v.extend_from_slice(&self.xid.to_le_bytes());
        v.extend_from_slice(&self.chaddr.octets());
        v.extend_from_slice(&self.yiaddr.octets());
        v.push(0); // pad to 16
        Bytes::from(v)
    }

    /// Parses a UDP payload produced by [`DhcpMessage::encode`]. Only
    /// canonical bytes decode — exactly 16, a known message type, and a
    /// zero pad byte — so an accepted payload re-encodes to itself.
    pub fn decode(bytes: &[u8]) -> Option<DhcpMessage> {
        let bytes: &[u8; 16] = bytes.try_into().ok()?;
        if bytes[15] != 0 {
            return None;
        }
        let op = match bytes[0] {
            1 => DhcpOp::Discover,
            2 => DhcpOp::Offer,
            3 => DhcpOp::Request,
            4 => DhcpOp::Ack,
            5 => DhcpOp::Nak,
            6 => DhcpOp::Release,
            _ => return None,
        };
        let xid = u32::from_le_bytes(bytes[1..5].try_into().ok()?);
        let chaddr = MacAddr::new(bytes[5..11].try_into().ok()?);
        let yiaddr = IpAddr::from_octets(bytes[11..15].try_into().ok()?);
        Some(DhcpMessage {
            op,
            xid,
            chaddr,
            yiaddr,
        })
    }
}

impl fmt::Display for DhcpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dhcp {:?} xid={:#x} chaddr={} yiaddr={}",
            self.op, self.xid, self.chaddr, self.yiaddr
        )
    }
}

/// A DHCP server with a contiguous address pool.
#[derive(Debug, Clone)]
pub struct DhcpServer {
    pool_start: u32,
    pool_len: u32,
    lease_time: SimDuration,
    /// Lease table keyed by the payload `chaddr`.
    leases: BTreeMap<MacAddr, Lease>,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    ip: IpAddr,
    expires: SimTime,
}

impl DhcpServer {
    /// Creates a server handing out `pool_len` addresses starting at
    /// `pool_start`, each leased for `lease_time`.
    ///
    /// # Panics
    ///
    /// Panics if `pool_len == 0`.
    pub fn new(pool_start: IpAddr, pool_len: u32, lease_time: SimDuration) -> Self {
        assert!(pool_len > 0, "empty address pool");
        DhcpServer {
            pool_start: pool_start.to_bits(),
            pool_len,
            lease_time,
            leases: BTreeMap::new(),
        }
    }

    /// Handles a client message, returning the reply to send (broadcast on
    /// the client port), if any.
    pub fn handle(&mut self, msg: &DhcpMessage, now: SimTime) -> Option<DhcpMessage> {
        match msg.op {
            DhcpOp::Discover => {
                let ip = self.lease_for(msg.chaddr, now)?;
                Some(DhcpMessage {
                    op: DhcpOp::Offer,
                    xid: msg.xid,
                    chaddr: msg.chaddr,
                    yiaddr: ip,
                })
            }
            DhcpOp::Request => {
                let ip = self.lease_for(msg.chaddr, now)?;
                if msg.yiaddr == ip || msg.yiaddr.is_unspecified() {
                    // Commit / renew.
                    self.leases.insert(
                        msg.chaddr,
                        Lease {
                            ip,
                            expires: now + self.lease_time,
                        },
                    );
                    Some(DhcpMessage {
                        op: DhcpOp::Ack,
                        xid: msg.xid,
                        chaddr: msg.chaddr,
                        yiaddr: ip,
                    })
                } else {
                    Some(DhcpMessage {
                        op: DhcpOp::Nak,
                        xid: msg.xid,
                        chaddr: msg.chaddr,
                        yiaddr: IpAddr::UNSPECIFIED,
                    })
                }
            }
            DhcpOp::Release => {
                self.leases.remove(&msg.chaddr);
                None
            }
            _ => None,
        }
    }

    /// The lease duration handed to clients.
    pub fn lease_time(&self) -> SimDuration {
        self.lease_time
    }

    /// The address currently leased to `chaddr`, if any.
    pub fn leased_ip(&self, chaddr: MacAddr) -> Option<IpAddr> {
        self.leases.get(&chaddr).map(|l| l.ip)
    }

    /// Finds the existing lease for `chaddr` or allocates a fresh address.
    fn lease_for(&mut self, chaddr: MacAddr, now: SimTime) -> Option<IpAddr> {
        if let Some(l) = self.leases.get(&chaddr) {
            return Some(l.ip);
        }
        // Reclaim the first free (or expired) pool slot.
        let in_use: BTreeMap<u32, MacAddr> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires > now)
            .map(|(m, l)| (l.ip.to_bits(), *m))
            .collect();
        for i in 0..self.pool_len {
            let bits = self.pool_start + i;
            if !in_use.contains_key(&bits) {
                let ip = IpAddr::from_bits(bits);
                // Drop any expired lease that held this slot.
                self.leases.retain(|_, l| l.ip != ip || l.expires > now);
                self.leases.insert(
                    chaddr,
                    Lease {
                        ip,
                        expires: now + self.lease_time,
                    },
                );
                return Some(ip);
            }
        }
        None
    }
}

/// DHCP client engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpClientState {
    /// Nothing sent yet.
    Init,
    /// DISCOVER sent, waiting for an OFFER.
    Selecting,
    /// REQUEST sent, waiting for an ACK.
    Requesting,
    /// Address bound.
    Bound,
}

/// A DHCP client state machine.
///
/// The client is configured with the `chaddr` it *claims* — for a Cruz pod
/// this is the VIF's fake MAC, preserved across migration so the lease
/// identity never changes (§4.2).
#[derive(Debug, Clone)]
pub struct DhcpClient {
    chaddr: MacAddr,
    xid: u32,
    state: DhcpClientState,
    ip: Option<IpAddr>,
    renew_at: Option<SimTime>,
    lease_time: SimDuration,
}

impl DhcpClient {
    /// Creates a client claiming `chaddr`, with `xid` seeding transaction
    /// ids.
    pub fn new(chaddr: MacAddr, xid: u32) -> Self {
        DhcpClient {
            chaddr,
            xid,
            state: DhcpClientState::Init,
            ip: None,
            renew_at: None,
            lease_time: SimDuration::ZERO,
        }
    }

    /// Current state.
    pub fn state(&self) -> DhcpClientState {
        self.state
    }

    /// The bound address, once in [`DhcpClientState::Bound`].
    pub fn ip(&self) -> Option<IpAddr> {
        self.ip
    }

    /// The claimed client hardware address.
    pub fn chaddr(&self) -> MacAddr {
        self.chaddr
    }

    /// Starts (or restarts) acquisition, returning the DISCOVER to broadcast.
    pub fn start(&mut self) -> DhcpMessage {
        self.state = DhcpClientState::Selecting;
        self.xid = self.xid.wrapping_add(1);
        DhcpMessage {
            op: DhcpOp::Discover,
            xid: self.xid,
            chaddr: self.chaddr,
            yiaddr: IpAddr::UNSPECIFIED,
        }
    }

    /// Handles a server message, optionally returning a message to send.
    pub fn on_message(
        &mut self,
        msg: &DhcpMessage,
        now: SimTime,
        lease_time: SimDuration,
    ) -> Option<DhcpMessage> {
        if msg.chaddr != self.chaddr || msg.xid != self.xid {
            return None;
        }
        match (self.state, msg.op) {
            (DhcpClientState::Selecting, DhcpOp::Offer) => {
                self.state = DhcpClientState::Requesting;
                Some(DhcpMessage {
                    op: DhcpOp::Request,
                    xid: self.xid,
                    chaddr: self.chaddr,
                    yiaddr: msg.yiaddr,
                })
            }
            (DhcpClientState::Requesting, DhcpOp::Ack) => {
                self.state = DhcpClientState::Bound;
                self.ip = Some(msg.yiaddr);
                self.lease_time = lease_time;
                self.renew_at = Some(now + lease_time / 2);
                None
            }
            (DhcpClientState::Requesting, DhcpOp::Nak) => {
                self.state = DhcpClientState::Init;
                self.ip = None;
                None
            }
            _ => None,
        }
    }

    /// When the client should renew, if bound.
    pub fn renew_deadline(&self) -> Option<SimTime> {
        self.renew_at
    }

    /// Emits the renewal REQUEST once `now` passes the renew deadline.
    pub fn on_timer(&mut self, now: SimTime) -> Option<DhcpMessage> {
        let deadline = self.renew_at?;
        if now < deadline || self.state != DhcpClientState::Bound {
            return None;
        }
        self.xid = self.xid.wrapping_add(1);
        self.state = DhcpClientState::Requesting;
        self.renew_at = None;
        Some(DhcpMessage {
            op: DhcpOp::Request,
            xid: self.xid,
            chaddr: self.chaddr,
            yiaddr: self.ip.unwrap_or(IpAddr::UNSPECIFIED),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn server() -> DhcpServer {
        DhcpServer::new(
            IpAddr::from_octets([10, 0, 0, 100]),
            10,
            SimDuration::from_secs(3600),
        )
    }

    fn acquire(client: &mut DhcpClient, server: &mut DhcpServer, now: SimTime) -> IpAddr {
        let discover = client.start();
        let offer = server.handle(&discover, now).expect("offer");
        let request = client
            .on_message(&offer, now, server.lease_time())
            .expect("request");
        let ack = server.handle(&request, now).expect("ack");
        assert_eq!(ack.op, DhcpOp::Ack);
        let none = client.on_message(&ack, now, server.lease_time());
        assert!(none.is_none());
        client.ip().expect("bound")
    }

    #[test]
    fn full_acquisition_flow() {
        let mut s = server();
        let mut c = DhcpClient::new(MacAddr::from_index(1), 7);
        let ip = acquire(&mut c, &mut s, T0);
        assert_eq!(ip, IpAddr::from_octets([10, 0, 0, 100]));
        assert_eq!(c.state(), DhcpClientState::Bound);
    }

    #[test]
    fn same_chaddr_keeps_address_across_restart() {
        // The §4.2 property: identity is the payload chaddr, so a client
        // re-acquiring from a *different host* gets the same address.
        let mut s = server();
        let mut c1 = DhcpClient::new(MacAddr::from_index(42), 1);
        let ip1 = acquire(&mut c1, &mut s, T0);
        // Fresh client object (pod restarted elsewhere), same fake chaddr.
        let mut c2 = DhcpClient::new(MacAddr::from_index(42), 999);
        let ip2 = acquire(&mut c2, &mut s, T0 + SimDuration::from_secs(10));
        assert_eq!(ip1, ip2);
    }

    #[test]
    fn different_chaddr_gets_different_address() {
        let mut s = server();
        let mut c1 = DhcpClient::new(MacAddr::from_index(1), 1);
        let mut c2 = DhcpClient::new(MacAddr::from_index(2), 1);
        let ip1 = acquire(&mut c1, &mut s, T0);
        let ip2 = acquire(&mut c2, &mut s, T0);
        assert_ne!(ip1, ip2, "losing the chaddr loses the address");
    }

    #[test]
    fn renewal_keeps_binding() {
        let mut s = server();
        let mut c = DhcpClient::new(MacAddr::from_index(5), 3);
        let ip = acquire(&mut c, &mut s, T0);
        let renew_at = c.renew_deadline().unwrap();
        let req = c.on_timer(renew_at).expect("renew request");
        assert_eq!(req.op, DhcpOp::Request);
        let ack = s.handle(&req, renew_at).expect("ack");
        c.on_message(&ack, renew_at, s.lease_time());
        assert_eq!(c.ip(), Some(ip));
        assert_eq!(c.state(), DhcpClientState::Bound);
    }

    #[test]
    fn pool_exhaustion_yields_no_offer() {
        let mut s = DhcpServer::new(
            IpAddr::from_octets([10, 0, 0, 100]),
            1,
            SimDuration::from_secs(3600),
        );
        let mut c1 = DhcpClient::new(MacAddr::from_index(1), 1);
        let _ = acquire(&mut c1, &mut s, T0);
        let mut c2 = DhcpClient::new(MacAddr::from_index(2), 1);
        let discover = c2.start();
        assert!(s.handle(&discover, T0).is_none());
    }

    #[test]
    fn expired_lease_slot_is_reclaimed() {
        let mut s = DhcpServer::new(
            IpAddr::from_octets([10, 0, 0, 100]),
            1,
            SimDuration::from_secs(10),
        );
        let mut c1 = DhcpClient::new(MacAddr::from_index(1), 1);
        let ip1 = acquire(&mut c1, &mut s, T0);
        // Lease expires; a new client can take the slot.
        let later = T0 + SimDuration::from_secs(100);
        let mut c2 = DhcpClient::new(MacAddr::from_index(2), 1);
        let ip2 = acquire(&mut c2, &mut s, later);
        assert_eq!(ip1, ip2);
    }

    #[test]
    fn message_codec_round_trips() {
        let msg = DhcpMessage {
            op: DhcpOp::Offer,
            xid: 0xdeadbeef,
            chaddr: MacAddr::from_index(9),
            yiaddr: IpAddr::from_octets([10, 0, 0, 105]),
        };
        let bytes = msg.encode();
        assert_eq!(DhcpMessage::decode(&bytes), Some(msg));
        assert_eq!(DhcpMessage::decode(&bytes[..3]), None);
        let mut bad = bytes.to_vec();
        bad[0] = 0xff;
        assert_eq!(DhcpMessage::decode(&bad), None);
    }

    #[test]
    fn stray_messages_ignored() {
        let mut c = DhcpClient::new(MacAddr::from_index(1), 1);
        let _ = c.start();
        // Wrong chaddr.
        let msg = DhcpMessage {
            op: DhcpOp::Offer,
            xid: 2,
            chaddr: MacAddr::from_index(99),
            yiaddr: IpAddr::from_octets([10, 0, 0, 100]),
        };
        assert!(c.on_message(&msg, T0, SimDuration::from_secs(1)).is_none());
        assert_eq!(c.state(), DhcpClientState::Selecting);
    }
}
