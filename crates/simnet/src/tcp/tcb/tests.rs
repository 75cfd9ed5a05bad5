//! Unit tests for the per-connection state machine.

use super::*;

const T0: SimTime = SimTime::ZERO;

/// The segments one TCB call appends to a fresh buffer.
fn emitted(call: impl FnOnce(&mut Vec<TcpSegment>)) -> Vec<TcpSegment> {
    let mut out = Vec::new();
    call(&mut out);
    out
}

/// A TCB call's result and the segments it appends to a fresh buffer.
fn emitted_with<R>(call: impl FnOnce(&mut Vec<TcpSegment>) -> R) -> (R, Vec<TcpSegment>) {
    let mut out = Vec::new();
    let r = call(&mut out);
    (r, out)
}

fn addr(last: u8, port: u16) -> SockAddr {
    SockAddr::new(crate::addr::IpAddr::from_octets([10, 0, 0, last]), port)
}

/// Drives a full handshake and returns (client, server).
fn established() -> (Tcb, Tcb) {
    let cfg = TcpConfig::default();
    let (mut c, syns) = Tcb::connect(
        cfg.clone(),
        addr(1, 4000),
        addr(2, 80),
        SeqNum::new(100),
        T0,
    );
    let (mut s, synacks) = Tcb::accept_syn(
        cfg,
        addr(2, 80),
        addr(1, 4000),
        SeqNum::new(900),
        &syns[0],
        T0,
    );
    let acks = emitted(|o| c.on_segment(&synacks[0], T0, o));
    assert_eq!(c.state(), TcpState::Established);
    for a in &acks {
        let extra = emitted(|o| s.on_segment(a, T0, o));
        assert!(extra.is_empty());
    }
    assert_eq!(s.state(), TcpState::Established);
    (c, s)
}

/// Delivers `segs` to `dst`, returning its responses.
fn deliver(dst: &mut Tcb, segs: &[TcpSegment], now: SimTime) -> Vec<TcpSegment> {
    let mut out = Vec::new();
    for s in segs {
        out.extend(emitted(|o| dst.on_segment(s, now, o)));
    }
    out
}

/// Runs segments back and forth until both sides go quiet.
fn settle(a: &mut Tcb, b: &mut Tcb, mut from_a: Vec<TcpSegment>, now: SimTime) {
    let mut from_b = Vec::new();
    for _ in 0..64 {
        if from_a.is_empty() && from_b.is_empty() {
            return;
        }
        from_b.extend(deliver(b, &from_a, now));
        from_a = deliver(a, &from_b, now);
        from_b.clear();
    }
    panic!("segment exchange did not settle");
}

#[test]
fn handshake_establishes_both_sides() {
    let (c, s) = established();
    assert_eq!(c.snd_una(), SeqNum::new(101));
    assert_eq!(c.rcv_nxt(), SeqNum::new(901));
    assert_eq!(s.rcv_nxt(), SeqNum::new(101));
    assert!(c.is_writable());
    assert!(!c.is_readable());
}

#[test]
fn data_flows_and_is_acked() {
    let (mut c, mut s) = established();
    let (n, segs) = emitted_with(|o| c.write(b"hello world", T0, o));
    assert_eq!(n, 11);
    assert_eq!(segs.len(), 1);
    settle(&mut c, &mut s, segs, T0);
    let (data, _) = emitted_with(|o| s.read(100, T0, o));
    assert_eq!(data, b"hello world");
    assert_eq!(c.send_len(), 0, "data fully acked");
    assert_eq!(c.snd_una(), SeqNum::new(112));
}

#[test]
fn nagle_holds_small_second_write() {
    let (mut c, mut _s) = established();
    let (_, first) = emitted_with(|o| c.write(b"a", T0, o));
    assert_eq!(first.len(), 1, "first small write goes out immediately");
    let (_, second) = emitted_with(|o| c.write(b"b", T0, o));
    assert!(second.is_empty(), "Nagle holds while data is in flight");
    // With nodelay, it flushes.
    let flushed = emitted(|o| c.set_nodelay(true, T0, o));
    assert_eq!(flushed.len(), 1);
    assert_eq!(&flushed[0].payload[..], b"b");
}

#[test]
fn cork_holds_partial_segments_until_uncorked() {
    let (mut c, _s) = established();
    let none = emitted(|o| c.set_cork(true, T0, o));
    assert!(none.is_empty());
    let (_, segs) = emitted_with(|o| c.write(b"tiny", T0, o));
    assert!(segs.is_empty(), "cork holds partial segments");
    let flushed = emitted(|o| c.set_cork(false, T0, o));
    assert_eq!(flushed.len(), 1);
    assert_eq!(&flushed[0].payload[..], b"tiny");
}

#[test]
fn cork_still_emits_full_segments() {
    let (mut c, _s) = established();
    let _ = emitted(|o| c.set_cork(true, T0, o));
    let big = vec![7u8; 3000];
    let (n, segs) = emitted_with(|o| c.write(&big, T0, o));
    assert_eq!(n, 3000);
    // Two full MSS segments go out; the 80-byte tail is held.
    assert_eq!(segs.len(), 2);
    assert!(segs.iter().all(|s| s.payload.len() == 1460));
}

#[test]
fn mss_packetization() {
    let (mut c, _s) = established();
    let data = vec![1u8; 4000];
    let (n, segs) = emitted_with(|o| c.write(&data, T0, o));
    assert_eq!(n, 4000);
    // Two full segments go out; Nagle holds the 1080-byte tail while
    // data is in flight.
    assert_eq!(segs.len(), 2);
    assert_eq!(segs[0].payload.len(), 1460);
    assert_eq!(segs[1].payload.len(), 1460);
    let tail = emitted(|o| c.set_nodelay(true, T0, o));
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].payload.len(), 1080);
}

#[test]
fn retransmission_after_loss() {
    let (mut c, mut s) = established();
    let (_, segs) = emitted_with(|o| c.write(b"important", T0, o));
    assert_eq!(segs.len(), 1);
    // Segment lost. Fire the retransmission timer.
    let deadline = c.next_timer().expect("rtx armed");
    let rtx = emitted(|o| c.on_timer(deadline, o));
    assert_eq!(rtx.len(), 1);
    assert_eq!(&rtx[0].payload[..], b"important");
    // Deliver the retransmission; data arrives exactly once.
    settle(&mut c, &mut s, rtx, deadline);
    let (data, _) = emitted_with(|o| s.read(100, deadline, o));
    assert_eq!(data, b"important");
    assert_eq!(c.send_len(), 0);
}

#[test]
fn rto_backoff_grows_on_repeated_loss() {
    let (mut c, _s) = established();
    let (_, _segs) = emitted_with(|o| c.write(b"x", T0, o));
    let d1 = c.next_timer().unwrap();
    let _ = emitted(|o| c.on_timer(d1, o));
    let d2 = c.next_timer().unwrap();
    let _ = emitted(|o| c.on_timer(d2, o));
    let d3 = c.next_timer().unwrap();
    let gap1 = d2.duration_since(d1);
    let gap2 = d3.duration_since(d2);
    assert_eq!(gap2, gap1 * 2, "exponential backoff");
}

#[test]
fn retry_exhaustion_resets_connection() {
    let cfg = TcpConfig {
        max_retries: 3,
        ..TcpConfig::default()
    };
    let (mut c, _syn) = Tcb::connect(cfg, addr(1, 1), addr(2, 2), SeqNum::new(0), T0);
    for _ in 0..5 {
        let Some(d) = c.next_timer() else { break };
        let _ = emitted(|o| c.on_timer(d, o));
    }
    assert_eq!(c.state(), TcpState::Closed);
    assert!(c.is_reset());
}

#[test]
fn fast_retransmit_on_dup_acks() {
    let (mut c, mut s) = established();
    // Two segments; first is lost, second arrives -> dup acks.
    let (_, segs) = emitted_with(|o| c.write(&vec![1u8; 1460], T0, o));
    let (_, segs2) = emitted_with(|o| c.write(&vec![2u8; 1460], T0, o));
    assert_eq!(segs.len(), 1);
    assert_eq!(segs2.len(), 1);
    // Lose segs[0]; deliver segs2 three times (dup-ack generator).
    let mut dups = Vec::new();
    for _ in 0..3 {
        dups.extend(deliver(&mut s, &segs2, T0));
    }
    assert_eq!(dups.len(), 3);
    let resp = deliver(&mut c, &dups, T0);
    // Fast retransmit of the first segment.
    assert_eq!(resp.len(), 1);
    assert_eq!(resp[0].seq, segs[0].seq);
    assert_eq!(resp[0].payload, segs[0].payload);
}

#[test]
fn graceful_close_both_directions() {
    let (mut c, mut s) = established();
    let fins = emitted(|o| c.close(T0, o));
    assert_eq!(c.state(), TcpState::FinWait1);
    settle(&mut c, &mut s, fins, T0);
    assert_eq!(c.state(), TcpState::FinWait2);
    assert_eq!(s.state(), TcpState::CloseWait);
    assert!(s.is_readable(), "EOF is readable");
    let fins = emitted(|o| s.close(T0, o));
    assert_eq!(s.state(), TcpState::LastAck);
    settle(&mut s, &mut c, fins, T0);
    assert_eq!(s.state(), TcpState::Closed);
    assert_eq!(c.state(), TcpState::TimeWait);
    // TIME-WAIT expires.
    let d = c.next_timer().unwrap();
    let _ = emitted(|o| c.on_timer(d, o));
    assert_eq!(c.state(), TcpState::Closed);
}

#[test]
fn close_flushes_pending_data_before_fin() {
    let (mut c, mut s) = established();
    let (_, mut segs) = emitted_with(|o| c.write(b"last words", T0, o));
    segs.extend(emitted(|o| c.close(T0, o)));
    settle(&mut c, &mut s, segs, T0);
    let (data, _) = emitted_with(|o| s.read(100, T0, o));
    assert_eq!(data, b"last words");
    assert_eq!(s.state(), TcpState::CloseWait);
}

#[test]
fn abort_sends_rst_and_peer_observes_reset() {
    let (mut c, mut s) = established();
    let rst = c.abort();
    assert!(rst.flags.rst);
    let _ = deliver(&mut s, &[rst], T0);
    assert!(s.is_reset());
    assert_eq!(s.state(), TcpState::Closed);
}

#[test]
fn zero_window_probe_and_reopen() {
    let cfg = TcpConfig {
        recv_buf_capacity: 1000, // tiny receiver
        ..TcpConfig::default()
    };
    let (mut c, syns) = Tcb::connect(cfg.clone(), addr(1, 1), addr(2, 2), SeqNum::new(0), T0);
    let (mut s, synacks) =
        Tcb::accept_syn(cfg, addr(2, 2), addr(1, 1), SeqNum::new(0), &syns[0], T0);
    let acks = emitted(|o| c.on_segment(&synacks[0], T0, o));
    let _ = deliver(&mut s, &acks, T0);

    // Fill the receiver's window completely; receiver does not read.
    let (n, segs) = emitted_with(|o| c.write(&vec![9u8; 2000], T0, o));
    assert_eq!(n, 2000);
    settle(&mut c, &mut s, segs, T0);
    assert_eq!(s.recv_len(), 1000);
    assert_eq!(c.peer_window(), 0);
    // Unsent data remains; a probe may already be in flight via pump.
    assert!(c.send_len() > 0);

    // Receiver reads -> window-update ACK -> sender resumes.
    let (data, updates) = emitted_with(|o| s.read(1000, T0, o));
    assert_eq!(data.len(), 1000);
    assert!(!updates.is_empty(), "window reopen must be advertised");
    let resumed = deliver(&mut c, &updates, T0);
    settle(&mut c, &mut s, resumed, T0);
    // Eventually all 2000 bytes arrive.
    let mut total = data.len();
    loop {
        let (d, upd) = emitted_with(|o| s.read(1000, T0, o));
        if d.is_empty() {
            // Drive retransmission timers if data is still owed.
            if total < 2000 {
                if let Some(t) = c.next_timer() {
                    let rtx = emitted(|o| c.on_timer(t, o));
                    settle(&mut c, &mut s, rtx, t);
                    continue;
                }
            }
            break;
        }
        total += d.len();
        let resumed = deliver(&mut c, &upd, T0);
        settle(&mut c, &mut s, resumed, T0);
    }
    assert_eq!(total, 2000);
}

#[test]
fn snapshot_rewrites_sequence_numbers() {
    let (mut c, mut s) = established();
    // Write data, deliver only half of the segments so some stay inflight.
    let (_, segs) = emitted_with(|o| c.write(&vec![5u8; 2920], T0, o));
    assert_eq!(segs.len(), 2);
    let acks = deliver(&mut s, &segs[..1], T0);
    let _ = deliver(&mut c, &acks, T0);
    // Now: 1460 acked, 1460 inflight. Queue a little more (Nagle holds it).
    let (_, more) = emitted_with(|o| c.write(b"tail", T0, o));
    assert!(more.is_empty());

    let snap = c.snapshot();
    assert_eq!(snap.snd_una, c.snd_una());
    assert_eq!(snap.inflight.len(), 1);
    assert_eq!(snap.inflight[0].len(), 1460);
    assert_eq!(snap.unsent, b"tail");
    assert_eq!(snap.send_bytes(), 1464);

    // Server side: received data not yet read shows up in recv_stream.
    let ssnap = s.snapshot();
    assert_eq!(ssnap.recv_stream.len(), 1460);
    // The §5.1 invariant holds between the two snapshots:
    // snd_una <= rcv_nxt <= snd_nxt(=snd_una + inflight)
    assert!(snap.snd_una <= ssnap.rcv_nxt);
    assert!(ssnap.rcv_nxt <= snap.snd_una + snap.send_bytes() as u32 + 1);
}

#[test]
fn restore_resumes_transfer_via_retransmission() {
    let (mut c, s) = established();
    let (_, segs) = emitted_with(|o| c.write(&vec![7u8; 2000], T0, o));
    // All segments dropped (like the Cruz netfilter rule).
    drop(segs);
    let csnap = c.snapshot();
    let ssnap = s.snapshot();

    // Restore both sides from their snapshots.
    let cfg = TcpConfig::default();
    let mut c2 = Tcb::restore(cfg.clone(), &csnap);
    let mut s2 = Tcb::restore(cfg, &ssnap);
    assert_eq!(c2.snd_nxt(), csnap.snd_una);

    // Replay the saved send data, packet by packet, nodelay on (§4.1).
    let _ = emitted(|o| c2.set_nodelay(true, T0, o));
    let mut replayed = Vec::new();
    for pkt in &csnap.inflight {
        let (n, segs) = emitted_with(|o| c2.write(pkt, T0, o));
        assert_eq!(n, pkt.len());
        replayed.extend(segs);
    }
    let (n, segs) = emitted_with(|o| c2.write(&csnap.unsent, T0, o));
    assert_eq!(n, csnap.unsent.len());
    replayed.extend(segs);
    let _ = emitted(|o| c2.set_nodelay(csnap.nodelay, T0, o));

    settle(&mut c2, &mut s2, replayed, T0);
    let (data, _) = emitted_with(|o| s2.read(4000, T0, o));
    assert_eq!(data, vec![7u8; 2000]);
    assert_eq!(c2.send_len(), 0, "everything re-acked after restore");
}

#[test]
#[should_panic(expected = "cannot snapshot")]
fn snapshot_rejects_handshake_states() {
    let (c, _syn) = Tcb::connect(
        TcpConfig::default(),
        addr(1, 1),
        addr(2, 2),
        SeqNum::new(0),
        T0,
    );
    let _ = c.snapshot();
}

#[test]
fn reads_generate_window_updates_only_when_window_was_zero() {
    let (mut c, mut s) = established();
    let (_, segs) = emitted_with(|o| c.write(b"abc", T0, o));
    settle(&mut c, &mut s, segs, T0);
    let (_, updates) = emitted_with(|o| s.read(10, T0, o));
    assert!(updates.is_empty(), "no update needed for an open window");
}

#[test]
fn timer_is_quiet_when_nothing_outstanding() {
    let (mut c, _s) = established();
    assert_eq!(c.next_timer(), None);
    assert!(emitted(|o| c.on_timer(SimTime::from_nanos(1), o)).is_empty());
}
