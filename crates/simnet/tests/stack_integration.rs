//! Direct integration tests of the per-host stack: several `NetStack`s on a
//! tiny in-test wire (switch + timers), exercising sockets, ARP, VIFs,
//! filtering and broadcast without the OS or cluster layers.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use des::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use simnet::addr::{IpAddr, MacAddr, SockAddr};
use simnet::switch::{PortId, Switch};
use simnet::tcp::{TcpConfig, TcpSnapshot};
use simnet::{EthFrame, NetError, NetStack, RecvOutcome, SockSnapshot};

/// A miniature wire: N stacks on one switch, 50 µs per hop, frames and
/// protocol timers driven from one queue.
struct Wire {
    stacks: Vec<NetStack>,
    switch: Switch,
    queue: EventQueue<(usize, EthFrame)>,
    now: SimTime,
}

impl Wire {
    fn new(n: usize) -> Wire {
        let stacks = (0..n)
            .map(|i| {
                NetStack::new(
                    MacAddr::from_index(i as u32 + 1),
                    IpAddr::from_octets([10, 0, 0, (i + 1) as u8]),
                    24,
                    TcpConfig::default(),
                )
            })
            .collect();
        Wire {
            stacks,
            switch: Switch::new(n),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    fn ip(&self, i: usize) -> IpAddr {
        IpAddr::from_octets([10, 0, 0, (i + 1) as u8])
    }

    fn pump_outgoing(&mut self) {
        for i in 0..self.stacks.len() {
            for frame in self.stacks[i].take_outgoing() {
                for PortId(p) in self.switch.forward(PortId(i), &frame) {
                    self.queue
                        .push(self.now + SimDuration::from_micros(50), (p, frame.clone()));
                }
            }
        }
    }

    /// Runs until frames and due timers drain, following timers for at most
    /// two seconds past the entry time (a fixed horizon, so retransmission
    /// backoff does not spin the clock forever).
    fn settle(&mut self) {
        let horizon = self.now + SimDuration::from_secs(2);
        for _ in 0..100_000 {
            self.pump_outgoing();
            let next_timer = self.stacks.iter().filter_map(|s| s.next_timer()).min();
            match (self.queue.peek_time(), next_timer) {
                (Some(ft), Some(tt)) if tt < ft => {
                    self.now = tt;
                    for s in self.stacks.iter_mut() {
                        s.on_timer(self.now);
                    }
                }
                (Some(_), _) => {
                    let (at, (port, frame)) = self.queue.pop().expect("peeked");
                    self.now = at;
                    self.stacks[port].on_frame(frame, self.now);
                }
                (None, Some(tt)) if tt <= horizon => {
                    self.now = tt;
                    for s in self.stacks.iter_mut() {
                        s.on_timer(self.now);
                    }
                }
                _ => return,
            }
        }
        panic!("wire did not settle");
    }

    /// Establishes a TCP connection from stack `a` to `b`:`port`; returns
    /// (client socket, server-side accepted socket, listener).
    fn connect(
        &mut self,
        a: usize,
        b: usize,
        port: u16,
    ) -> (simnet::SocketId, simnet::SocketId, simnet::SocketId) {
        let lsid = self.stacks[b].tcp_socket();
        self.stacks[b]
            .bind(lsid, SockAddr::new(IpAddr::UNSPECIFIED, port))
            .unwrap();
        self.stacks[b].tcp_listen(lsid, 4).unwrap();
        let csid = self.stacks[a].tcp_socket();
        let dst = SockAddr::new(self.ip(b), port);
        let now = self.now;
        self.stacks[a].tcp_connect(csid, dst, now).unwrap();
        self.settle();
        let (ssid, remote) = self.stacks[b]
            .tcp_accept(lsid)
            .unwrap()
            .expect("handshake completed");
        assert_eq!(remote.ip, self.ip(a));
        (csid, ssid, lsid)
    }
}

#[test]
fn cross_stack_tcp_with_arp_resolution() {
    let mut w = Wire::new(2);
    assert!(w.stacks[0].arp_cache().is_empty(), "no bindings yet");
    let (c, s, _l) = w.connect(0, 1, 80);
    // ARP resolved both directions along the way.
    assert!(w.stacks[0].arp_cache().lookup(w.ip(1)).is_some());

    let n = w.stacks[0].tcp_send(c, b"over the wire", w.now).unwrap();
    assert_eq!(n, 13);
    w.settle();
    match w.stacks[1].tcp_recv(s, 64, w.now).unwrap() {
        RecvOutcome::Data(d) => assert_eq!(d, b"over the wire"),
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn graceful_close_propagates_eof() {
    let mut w = Wire::new(2);
    let (c, s, _l) = w.connect(0, 1, 81);
    w.stacks[0].tcp_send(c, b"bye", w.now).unwrap();
    w.stacks[0].close(c, w.now);
    w.settle();
    match w.stacks[1].tcp_recv(s, 64, w.now).unwrap() {
        RecvOutcome::Data(d) => assert_eq!(d, b"bye"),
        other => panic!("expected data, got {other:?}"),
    }
    assert_eq!(
        w.stacks[1].tcp_recv(s, 64, w.now).unwrap(),
        RecvOutcome::Eof
    );
}

#[test]
fn unknown_segment_gets_rst() {
    let mut w = Wire::new(2);
    let (c, s, _l) = w.connect(0, 1, 82);
    // The server half vanishes without a trace (e.g. migrated away without
    // the paper's silent-discard protocol) — next client data draws a RST.
    w.stacks[1].tcp_discard(s);
    w.stacks[0].tcp_send(c, b"anyone there?", w.now).unwrap();
    w.settle();
    assert_eq!(
        w.stacks[0].tcp_recv(c, 8, w.now),
        Err(NetError::ConnectionReset)
    );
}

#[test]
fn filter_silences_both_directions_and_counts_egress() {
    let mut w = Wire::new(2);
    let (c, s, _l) = w.connect(0, 1, 83);
    let ip0 = w.ip(0);
    w.stacks[0].filter_mut().add_drop_rule(ip0);
    let before = w.stacks[0].egress_drops;
    w.stacks[0].tcp_send(c, b"trapped", w.now).unwrap();
    w.settle();
    assert!(w.stacks[0].egress_drops > before, "egress drop counted");
    assert_eq!(
        w.stacks[1].tcp_recv(s, 64, w.now).unwrap(),
        RecvOutcome::WouldBlock
    );
    // Lift the filter; the retransmission timer delivers the data.
    w.stacks[0].filter_mut().remove_drop_rule(ip0);
    w.settle();
    match w.stacks[1].tcp_recv(s, 64, w.now).unwrap() {
        RecvOutcome::Data(d) => assert_eq!(d, b"trapped"),
        other => panic!("expected data after filter lift, got {other:?}"),
    }
}

#[test]
fn vif_addresses_answer_arp_and_accept_connections() {
    let mut w = Wire::new(2);
    let pod_ip = IpAddr::from_octets([10, 0, 0, 100]);
    let pod_mac = MacAddr::from_index(77);
    w.stacks[1].add_iface("vif0", pod_mac, vec![pod_ip]);

    let lsid = w.stacks[1].tcp_socket();
    w.stacks[1].bind(lsid, SockAddr::new(pod_ip, 7000)).unwrap();
    w.stacks[1].tcp_listen(lsid, 2).unwrap();

    let csid = w.stacks[0].tcp_socket();
    w.stacks[0]
        .tcp_connect(csid, SockAddr::new(pod_ip, 7000), w.now)
        .unwrap();
    w.settle();
    let accepted = w.stacks[1].tcp_accept(lsid).unwrap();
    assert!(accepted.is_some(), "connection to the VIF address");
    // And the client resolved the VIF's dedicated MAC.
    assert_eq!(w.stacks[0].arp_cache().lookup(pod_ip), Some(pod_mac));

    // Removing the interface frees the address.
    assert!(w.stacks[1].remove_iface("vif0"));
    assert!(!w.stacks[1].is_local_ip(pod_ip));
    assert!(!w.stacks[1].remove_iface("vif0"), "already gone");
}

#[test]
fn gratuitous_arp_repoints_an_ip_after_migration() {
    let mut w = Wire::new(3);
    let pod_ip = IpAddr::from_octets([10, 0, 0, 100]);
    let mac_b = MacAddr::from_index(50);
    w.stacks[1].add_iface("vif0", mac_b, vec![pod_ip]);
    w.stacks[1].send_gratuitous_arp(pod_ip, mac_b);
    w.settle();
    assert_eq!(w.stacks[0].arp_cache().lookup(pod_ip), Some(mac_b));

    // The pod "migrates" to stack 2 with a different MAC (shared-physical
    // mode): the gratuitous ARP overwrites every cache on the subnet.
    w.stacks[1].remove_iface("vif0");
    let mac_c = w.stacks[2].primary_mac();
    w.stacks[2].add_iface("vif0", mac_c, vec![pod_ip]);
    w.stacks[2].send_gratuitous_arp(pod_ip, mac_c);
    w.settle();
    assert_eq!(w.stacks[0].arp_cache().lookup(pod_ip), Some(mac_c));
}

#[test]
fn udp_unicast_and_broadcast() {
    let mut w = Wire::new(3);
    // Receivers on stacks 1 and 2, same port.
    let r1 = w.stacks[1].udp_socket();
    w.stacks[1]
        .bind(r1, SockAddr::new(IpAddr::UNSPECIFIED, 5000))
        .unwrap();
    let r2 = w.stacks[2].udp_socket();
    w.stacks[2]
        .bind(r2, SockAddr::new(IpAddr::UNSPECIFIED, 5000))
        .unwrap();
    let tx = w.stacks[0].udp_socket();

    // Unicast reaches only stack 1.
    let dst1 = SockAddr::new(w.ip(1), 5000);
    let now = w.now;
    w.stacks[0]
        .udp_send_to(tx, dst1, Bytes::from_static(b"uni"), now)
        .unwrap();
    w.settle();
    assert_eq!(
        w.stacks[1]
            .udp_recv_from(r1)
            .unwrap()
            .map(|(_, d)| d.to_vec()),
        Some(b"uni".to_vec())
    );
    assert_eq!(w.stacks[2].udp_recv_from(r2).unwrap(), None);

    // Broadcast reaches both.
    w.stacks[0]
        .udp_send_to(
            tx,
            SockAddr::new(IpAddr::BROADCAST, 5000),
            Bytes::from_static(b"all"),
            w.now,
        )
        .unwrap();
    w.settle();
    assert!(w.stacks[1].udp_recv_from(r1).unwrap().is_some());
    assert!(w.stacks[2].udp_recv_from(r2).unwrap().is_some());
}

#[test]
fn bind_errors_are_reported() {
    let mut w = Wire::new(1);
    let s1 = w.stacks[0].tcp_socket();
    // Foreign IP.
    assert_eq!(
        w.stacks[0].bind(s1, SockAddr::new(IpAddr::from_octets([9, 9, 9, 9]), 1)),
        Err(NetError::AddrNotAvailable)
    );
    // Listener conflict is caught at bind time.
    w.stacks[0]
        .bind(s1, SockAddr::new(IpAddr::UNSPECIFIED, 80))
        .unwrap();
    w.stacks[0].tcp_listen(s1, 1).unwrap();
    let s2 = w.stacks[0].tcp_socket();
    assert_eq!(
        w.stacks[0].bind(s2, SockAddr::new(IpAddr::UNSPECIFIED, 80)),
        Err(NetError::AddrInUse)
    );
    // Operations on bogus ids.
    assert_eq!(
        w.stacks[0].tcp_send(simnet::SocketId(999), b"x", w.now),
        Err(NetError::BadSocket)
    );
}

#[test]
fn loopback_connection_within_one_stack() {
    let mut w = Wire::new(1);
    let (c, s, _l) = w.connect(0, 0, 90);
    w.stacks[0].tcp_send(c, b"to myself", w.now).unwrap();
    w.settle();
    match w.stacks[0].tcp_recv(s, 64, w.now).unwrap() {
        RecvOutcome::Data(d) => assert_eq!(d, b"to myself"),
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn listener_backlog_bounds_pending_connections() {
    let mut w = Wire::new(2);
    let lsid = w.stacks[1].tcp_socket();
    w.stacks[1]
        .bind(lsid, SockAddr::new(IpAddr::UNSPECIFIED, 91))
        .unwrap();
    w.stacks[1].tcp_listen(lsid, 2).unwrap();
    // Three clients; only two fit the backlog, the third's SYN is dropped
    // (and would be retried by its timer).
    let dst = SockAddr::new(w.ip(1), 91);
    let now = w.now;
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let c = w.stacks[0].tcp_socket();
            w.stacks[0].tcp_connect(c, dst, now).unwrap();
            c
        })
        .collect();
    w.pump_outgoing();
    // Deliver only the initial SYNs (no timers), then count the queue.
    while let Some((at, (port, frame))) = w.queue.pop() {
        w.now = at;
        w.stacks[port].on_frame(frame, w.now);
        w.pump_outgoing();
    }
    let mut accepted = 0;
    while w.stacks[1].tcp_accept(lsid).unwrap().is_some() {
        accepted += 1;
    }
    assert_eq!(accepted, 2, "backlog of 2 admits exactly 2 before retries");
    let _ = clients;
}

#[test]
fn checkpoint_snapshot_survives_stack_round_trip() {
    // The full §4.2 sequence at stack level: a server behind a pod VIF on
    // stack 1 is snapshot, the VIF torn down, and the endpoint restored on
    // stack 2 with the *same* IP; the untouched client on stack 0
    // reconnects to it purely through ARP + TCP retransmission.
    let mut w = Wire::new(3);
    let pod_ip = IpAddr::from_octets([10, 0, 0, 100]);
    let mac_old = MacAddr::from_index(61);
    let mac_new = MacAddr::from_index(62);
    w.stacks[1].add_iface("vif0", mac_old, vec![pod_ip]);

    let lsid = w.stacks[1].tcp_socket();
    w.stacks[1].bind(lsid, SockAddr::new(pod_ip, 92)).unwrap();
    w.stacks[1].tcp_listen(lsid, 2).unwrap();
    let c = w.stacks[0].tcp_socket();
    w.stacks[0]
        .tcp_connect(c, SockAddr::new(pod_ip, 92), w.now)
        .unwrap();
    w.settle();
    let (s, _) = w.stacks[1].tcp_accept(lsid).unwrap().expect("accepted");

    // Data in flight in both directions at the cut.
    w.stacks[0].tcp_send(c, b"A->B in flight", w.now).unwrap();
    w.stacks[1].tcp_send(s, b"B->A in flight", w.now).unwrap();
    // Cut: snapshot B's endpoint, drop the wire, tear the VIF down.
    let snap = w.stacks[1].snapshot(s, &BTreeMap::new());
    assert!(matches!(snap, SockSnapshot::Conn(_)), "{snap:?}");
    w.stacks[1].tcp_discard(s);
    w.stacks[1].remove_iface("vif0");
    w.queue.clear();

    // Restore on stack 2: VIF with the same IP, endpoint at the saved
    // sequence numbers with the §4.1 send replay, gratuitous ARP
    // announcement.
    w.stacks[2].add_iface("vif0", mac_new, vec![pod_ip]);
    let (restored, undelivered) = w.stacks[2].restore(vec![snap], w.now).unwrap();
    let restored = restored[0];
    w.stacks[2].send_gratuitous_arp(pod_ip, mac_new);
    w.settle();

    // A's endpoint (never touched) retransmits into the restored socket.
    let mut to_b: Vec<u8> = undelivered.into_iter().flat_map(|(_, d)| d).collect();
    match w.stacks[2].tcp_recv(restored, 64, w.now).unwrap() {
        RecvOutcome::Data(d) => to_b.extend_from_slice(&d),
        RecvOutcome::WouldBlock => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(to_b, b"A->B in flight");
    match w.stacks[0].tcp_recv(c, 64, w.now).unwrap() {
        RecvOutcome::Data(d) => assert_eq!(d, b"B->A in flight"),
        other => panic!("expected B's replayed data, got {other:?}"),
    }
    // And the client now talks to the new host's MAC.
    assert_eq!(w.stacks[0].arp_cache().lookup(pod_ip), Some(mac_new));
}

#[test]
fn dhcp_over_the_wire_preserves_identity_across_hosts() {
    // The §4.2 dynamic-address mode, end to end on the wire: a DHCP server
    // behind a UDP socket on stack 0; clients claim a *fake* chaddr in the
    // DHCP payload. A "pod" acquiring from stack 1, then re-acquiring from
    // stack 2 after migration with the same fake chaddr, gets the same IP.
    use simnet::dhcp::{DhcpClient, DhcpMessage, DhcpServer, DHCP_CLIENT_PORT, DHCP_SERVER_PORT};

    let mut w = Wire::new(3);
    let mut server = DhcpServer::new(
        IpAddr::from_octets([10, 0, 0, 200]),
        8,
        SimDuration::from_secs(3600),
    );
    let srv_sock = w.stacks[0].udp_socket();
    w.stacks[0]
        .bind(
            srv_sock,
            SockAddr::new(IpAddr::UNSPECIFIED, DHCP_SERVER_PORT),
        )
        .unwrap();

    let fake_mac = MacAddr::from_index(4242);
    let lease_time = server.lease_time();

    // One full acquisition from `host`, returning the bound IP.
    let acquire = |w: &mut Wire, server: &mut DhcpServer, host: usize, xid: u32| -> IpAddr {
        let cli_sock = w.stacks[host].udp_socket();
        w.stacks[host]
            .bind(
                cli_sock,
                SockAddr::new(IpAddr::UNSPECIFIED, DHCP_CLIENT_PORT),
            )
            .unwrap();
        let mut client = DhcpClient::new(fake_mac, xid);
        let discover = client.start();
        let bcast = SockAddr::new(IpAddr::BROADCAST, DHCP_SERVER_PORT);
        let now = w.now;
        w.stacks[host]
            .udp_send_to(cli_sock, bcast, discover.encode(), now)
            .unwrap();
        // Drive the exchange: server replies by broadcast to the client port.
        for _ in 0..8 {
            w.settle();
            // Server side.
            while let Ok(Some((_from, bytes))) = w.stacks[0].udp_recv_from(srv_sock) {
                if let Some(msg) = DhcpMessage::decode(&bytes) {
                    if let Some(reply) = server.handle(&msg, w.now) {
                        let dst = SockAddr::new(IpAddr::BROADCAST, DHCP_CLIENT_PORT);
                        let now = w.now;
                        w.stacks[0]
                            .udp_send_to(srv_sock, dst, reply.encode(), now)
                            .unwrap();
                    }
                }
            }
            w.settle();
            // Client side.
            while let Ok(Some((_from, bytes))) = w.stacks[host].udp_recv_from(cli_sock) {
                if let Some(msg) = DhcpMessage::decode(&bytes) {
                    if let Some(req) = client.on_message(&msg, w.now, lease_time) {
                        let bcast = SockAddr::new(IpAddr::BROADCAST, DHCP_SERVER_PORT);
                        let now = w.now;
                        w.stacks[host]
                            .udp_send_to(cli_sock, bcast, req.encode(), now)
                            .unwrap();
                    }
                }
            }
            if let Some(ip) = client.ip() {
                w.stacks[host].close(cli_sock, w.now);
                return ip;
            }
        }
        panic!("dhcp acquisition did not converge");
    };

    // Pod starts on stack 1...
    let ip_before = acquire(&mut w, &mut server, 1, 1);
    // ...migrates to stack 2, re-acquires with the SAME fake chaddr (the
    // SIOCGIFHWADDR interception preserved it) from different hardware.
    let ip_after = acquire(&mut w, &mut server, 2, 77);
    assert_eq!(ip_before, ip_after, "identity follows the fake chaddr");
    assert_eq!(server.leased_ip(fake_mac), Some(ip_before));
}

/// What a re-snapshot of a restored socket must reproduce: everything but
/// the receive streams (handed back by the restore) and the packet
/// boundaries of the send bytes, whose order alone is kept.
fn restored_shape(snap: &SockSnapshot) -> SockSnapshot {
    let conn = |c: &TcpSnapshot| TcpSnapshot {
        inflight: Vec::new(),
        unsent: c
            .inflight
            .iter()
            .flatten()
            .chain(&c.unsent)
            .copied()
            .collect(),
        recv_stream: Vec::new(),
        ..c.clone()
    };
    match snap {
        SockSnapshot::Listen {
            local,
            backlog,
            pending,
        } => SockSnapshot::Listen {
            local: *local,
            backlog: *backlog,
            pending: pending.iter().map(conn).collect(),
        },
        SockSnapshot::Conn(c) => SockSnapshot::Conn(conn(c)),
        other => other.clone(),
    }
}

/// Every connection's receive stream, in snapshot order.
fn recv_streams(snaps: &[SockSnapshot]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for s in snaps {
        match s {
            SockSnapshot::Listen { pending, .. } => {
                out.extend(pending.iter().map(|c| c.recv_stream.clone()))
            }
            SockSnapshot::Conn(c) => out.push(c.recv_stream.clone()),
            _ => {}
        }
    }
    out.retain(|d| !d.is_empty());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // One of every socket kind on stack 0 — unbound and bound fresh
    // sockets, a listener with established unaccepted children that
    // received data, a connection with received, parked, in-flight and
    // unsent bytes, and a UDP socket with queued datagrams — restored on
    // a second stack with the same address. The restore hands back every
    // connection's receive stream, and a re-snapshot finds the same
    // sockets.
    #[test]
    fn every_socket_kind_survives_snapshot_and_restore(
        child_msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..3),
        received in proptest::collection::vec(any::<u8>(), 0..200),
        parked in proptest::collection::vec(any::<u8>(), 0..16),
        sends in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..600), 0..4),
        nodelay in any::<bool>(),
        cork in any::<bool>(),
        dgrams in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 0..3),
    ) {
        let mut w = Wire::new(2);
        let a_ip = w.ip(0);
        let unbound = w.stacks[0].tcp_socket();
        let bound = w.stacks[0].tcp_socket();
        w.stacks[0].bind(bound, SockAddr::new(a_ip, 6000)).unwrap();

        let listener = w.stacks[0].tcp_socket();
        w.stacks[0].bind(listener, SockAddr::new(a_ip, 7000)).unwrap();
        w.stacks[0].tcp_listen(listener, 4).unwrap();
        let clients: Vec<_> = child_msgs
            .iter()
            .map(|_| {
                let c = w.stacks[1].tcp_socket();
                let now = w.now;
                w.stacks[1].tcp_connect(c, SockAddr::new(a_ip, 7000), now).unwrap();
                c
            })
            .collect();
        w.settle();
        for (c, msg) in clients.iter().zip(&child_msgs) {
            let now = w.now;
            w.stacks[1].tcp_send(*c, msg, now).unwrap();
        }

        let udp = w.stacks[0].udp_socket();
        w.stacks[0].bind(udp, SockAddr::new(a_ip, 9000)).unwrap();
        let tx = w.stacks[1].udp_socket();
        for d in &dgrams {
            let now = w.now;
            w.stacks[1]
                .udp_send_to(tx, SockAddr::new(a_ip, 9000), Bytes::from(d.clone()), now)
                .unwrap();
        }

        let (conn, peer, _) = w.connect(0, 1, 8000);
        let now = w.now;
        w.stacks[1].tcp_send(peer, &received, now).unwrap();
        w.settle();
        // Sent last and never delivered: in flight or still unsent.
        w.stacks[0].tcp_set_nodelay(conn, nodelay, now).unwrap();
        w.stacks[0].tcp_set_cork(conn, cork, now).unwrap();
        for chunk in &sends {
            prop_assert_eq!(w.stacks[0].tcp_send(conn, chunk, now).unwrap(), chunk.len());
        }

        let parked_bufs = BTreeMap::from([(conn, VecDeque::from(parked.clone()))]);
        let sids = [unbound, bound, listener, conn, udp];
        let snaps: Vec<SockSnapshot> =
            sids.iter().map(|&s| w.stacks[0].snapshot(s, &parked_bufs)).collect();
        prop_assert_eq!(&snaps[0], &SockSnapshot::Fresh { bound: None });
        prop_assert_eq!(
            &snaps[1],
            &SockSnapshot::Fresh { bound: Some(SockAddr::new(a_ip, 6000)) }
        );
        let SockSnapshot::Listen { pending, .. } = &snaps[2] else {
            panic!("not a listener: {:?}", snaps[2]);
        };
        let child_streams: Vec<_> = pending.iter().map(|c| c.recv_stream.clone()).collect();
        prop_assert_eq!(child_streams, child_msgs);
        let SockSnapshot::Conn(c) = &snaps[3] else {
            panic!("not a connection: {:?}", snaps[3]);
        };
        prop_assert_eq!(&c.recv_stream, &[parked, received].concat());
        prop_assert_eq!(c.send_bytes(), sends.iter().map(Vec::len).sum::<usize>());
        let SockSnapshot::Udp { queue, .. } = &snaps[4] else {
            panic!("not a UDP socket: {:?}", snaps[4]);
        };
        let queued: Vec<_> = queue.iter().map(|(_, d)| d.clone()).collect();
        prop_assert_eq!(queued, dgrams);

        let mut twin = NetStack::new(MacAddr::from_index(9), a_ip, 24, TcpConfig::default());
        let (restored, undelivered) = twin.restore(snaps.clone(), now).unwrap();
        for (&sid, snap) in restored.iter().zip(&snaps) {
            let again = twin.snapshot(sid, &BTreeMap::new());
            prop_assert!(recv_streams(std::slice::from_ref(&again)).is_empty());
            prop_assert_eq!(restored_shape(&again), restored_shape(snap));
        }
        let handed_back: Vec<_> = undelivered.into_iter().map(|(_, d)| d).collect();
        prop_assert_eq!(handed_back, recv_streams(&snaps));
    }
}
