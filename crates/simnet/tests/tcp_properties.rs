//! Property tests for the TCP implementation: the reliable-delivery contract
//! the Cruz coordinated checkpoint protocol (§5.1) depends on.

use des::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use simnet::addr::{IpAddr, SockAddr};
use simnet::tcp::seq::SeqNum;
use simnet::tcp::{Tcb, TcpConfig, TcpSegment};

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

/// What the adversarial network does with one transmitted segment.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    /// Deliver with a large extra delay (forces reordering).
    Delay,
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    prop_oneof![
        4 => Just(Fate::Deliver),
        1 => Just(Fate::Drop),
        1 => Just(Fate::Duplicate),
        1 => Just(Fate::Delay),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    AtoB,
    BtoA,
}

enum Ev {
    Seg(Dir, TcpSegment),
    /// Poll both endpoints' timers.
    Tick,
}

struct Harness {
    a: Tcb,
    b: Tcb,
    queue: EventQueue<Ev>,
    now: SimTime,
    fates: Vec<Fate>,
    next_fate: usize,
    received: Vec<u8>,
    latency: SimDuration,
}

impl Harness {
    fn new(fates: Vec<Fate>) -> Harness {
        let cfg = TcpConfig {
            min_rto: SimDuration::from_millis(10),
            initial_rto: SimDuration::from_millis(20),
            time_wait: SimDuration::from_millis(50),
            // The adversary schedule is finite, so with enough retries the
            // stream always completes; connection-abort behaviour is covered
            // by unit tests instead.
            max_retries: 10_000,
            ..TcpConfig::default()
        };
        let t0 = SimTime::ZERO;
        let la = SockAddr::new(IpAddr::from_octets([10, 0, 0, 1]), 5000);
        let lb = SockAddr::new(IpAddr::from_octets([10, 0, 0, 2]), 80);
        let (a, syns) = Tcb::connect(cfg.clone(), la, lb, SeqNum::new(77), t0);
        let (b, synacks) = Tcb::accept_syn(cfg, lb, la, SeqNum::new(9000), &syns[0], t0);
        let mut h = Harness {
            a,
            b,
            queue: EventQueue::new(),
            now: t0,
            fates,
            next_fate: 0,
            received: Vec::new(),
            latency: SimDuration::from_micros(50),
        };
        // The SYN made it through (handshake segments use the same adversary
        // for everything after this first exchange).
        for s in synacks {
            h.transmit(Dir::BtoA, s);
        }
        h
    }

    fn fate(&mut self) -> Fate {
        // After the scripted schedule runs out, the network behaves — this
        // guarantees every run terminates with full delivery.
        let f = self
            .fates
            .get(self.next_fate)
            .copied()
            .unwrap_or(Fate::Deliver);
        self.next_fate += 1;
        f
    }

    fn transmit(&mut self, dir: Dir, seg: TcpSegment) {
        match self.fate() {
            Fate::Drop => {}
            Fate::Deliver => self.queue.push(self.now + self.latency, Ev::Seg(dir, seg)),
            Fate::Duplicate => {
                self.queue
                    .push(self.now + self.latency, Ev::Seg(dir, seg.clone()));
                self.queue
                    .push(self.now + self.latency * 3, Ev::Seg(dir, seg));
            }
            Fate::Delay => self
                .queue
                .push(self.now + self.latency * 100, Ev::Seg(dir, seg)),
        }
    }

    /// Runs until both sides are quiet, draining `b`'s receive stream.
    fn run(&mut self, max_events: usize) {
        let mut events = 0;
        loop {
            // Schedule timer ticks so retransmissions fire.
            let timer = self
                .a
                .next_timer()
                .into_iter()
                .chain(self.b.next_timer())
                .min();
            let next_seg_at = self.queue.peek_time();
            let next = match (next_seg_at, timer) {
                (Some(s), Some(t)) => Some(s.min(t)),
                (x, y) => x.or(y),
            };
            let Some(at) = next else { break };
            events += 1;
            assert!(events <= max_events, "run did not converge");
            self.now = at;
            let ev = if next_seg_at == Some(at) {
                self.queue.pop().map(|(_, e)| e).unwrap_or(Ev::Tick)
            } else {
                Ev::Tick
            };
            match ev {
                Ev::Seg(Dir::AtoB, seg) => {
                    let out = emitted(|o| self.b.on_segment(&seg, self.now, o));
                    for s in out {
                        self.transmit(Dir::BtoA, s);
                    }
                }
                Ev::Seg(Dir::BtoA, seg) => {
                    let out = emitted(|o| self.a.on_segment(&seg, self.now, o));
                    for s in out {
                        self.transmit(Dir::AtoB, s);
                    }
                }
                Ev::Tick => {
                    let out = emitted(|o| self.a.on_timer(self.now, o));
                    for s in out {
                        self.transmit(Dir::AtoB, s);
                    }
                    let out = emitted(|o| self.b.on_timer(self.now, o));
                    for s in out {
                        self.transmit(Dir::BtoA, s);
                    }
                }
            }
            // Application on B: read greedily.
            let (data, acks) = emitted_with(|o| self.b.read(usize::MAX, self.now, o));
            self.received.extend_from_slice(&data);
            for s in acks {
                self.transmit(Dir::BtoA, s);
            }
        }
    }

    fn write_all(&mut self, data: &[u8]) {
        let mut off = 0;
        let mut guard = 0;
        while off < data.len() {
            let (n, segs) = emitted_with(|o| self.a.write(&data[off..], self.now, o));
            off += n;
            for s in segs {
                self.transmit(Dir::AtoB, s);
            }
            if n == 0 {
                // Buffer full: let the network drain.
                self.run(200_000);
                guard += 1;
                assert!(guard < 10_000, "no progress writing");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the network does — drop, duplicate, delay — the receiver
    /// observes exactly the transmitted byte stream, in order, exactly once.
    #[test]
    fn tcp_delivers_exact_stream(
        payload in proptest::collection::vec(any::<u8>(), 1..20_000),
        fates in proptest::collection::vec(fate_strategy(), 0..300),
    ) {
        let mut h = Harness::new(fates);
        h.write_all(&payload);
        h.run(400_000);
        prop_assert_eq!(&h.received, &payload);
        prop_assert_eq!(h.a.send_len(), 0, "all data acknowledged");
    }

    /// The §5.1 invariant: at every quiescent point,
    /// `snd_una <= rcv_nxt <= snd_nxt` across the pair.
    #[test]
    fn tcp_invariant_holds_at_quiescence(
        payload in proptest::collection::vec(any::<u8>(), 1..5_000),
        fates in proptest::collection::vec(fate_strategy(), 0..100),
    ) {
        let mut h = Harness::new(fates);
        h.write_all(&payload);
        h.run(400_000);
        let snd_una = h.a.snd_una();
        let snd_nxt = h.a.snd_nxt();
        let rcv_nxt = h.b.rcv_nxt();
        prop_assert!(snd_una <= rcv_nxt);
        prop_assert!(rcv_nxt <= snd_nxt);
        // Fully drained: all pointers coincide.
        prop_assert_eq!(snd_una, snd_nxt);
    }

    /// Checkpointing both endpoints at an arbitrary cut (dropping everything
    /// in flight, like the Cruz netfilter rule) and restoring loses nothing:
    /// the §4.1 snapshot/restore procedure re-delivers the stream exactly.
    #[test]
    fn snapshot_restore_preserves_stream(
        payload in proptest::collection::vec(any::<u8>(), 1..8_000),
        fates in proptest::collection::vec(fate_strategy(), 0..150),
        cut_after in 0usize..8_000,
    ) {
        let mut h = Harness::new(fates);
        // Settle the handshake first — the paper checkpoints established
        // connections, not mid-handshake ones.
        h.run(100_000);
        // Feed some data (up to what the send buffer accepts), let the
        // network churn briefly, then cut.
        let cut = cut_after.min(payload.len());
        let accepted = {
            let (n, segs) = emitted_with(|o| h.a.write(&payload[..cut], h.now, o));
            for s in segs { h.transmit(Dir::AtoB, s); }
            n
        };
        h.run(100_000);

        // --- checkpoint both endpoints; in-flight packets are dropped ---
        let asnap = h.a.snapshot();
        let bsnap = h.b.snapshot();
        let already = h.received.clone();

        let cfg = TcpConfig {
            min_rto: SimDuration::from_millis(10),
            initial_rto: SimDuration::from_millis(20),
            max_retries: 10_000,
            ..TcpConfig::default()
        };
        let mut h2 = Harness {
            a: Tcb::restore(cfg.clone(), &asnap),
            b: Tcb::restore(cfg, &bsnap),
            queue: EventQueue::new(),
            now: h.now,
            fates: Vec::new(), // clean network after restart
            next_fate: 0,
            received: Vec::new(),
            latency: SimDuration::from_micros(50),
        };
        // Restore-side alternate buffer: bytes already received but not
        // delivered surface before any new network data.
        let mut replay_received = already;
        replay_received.extend_from_slice(&bsnap.recv_stream);

        // Replay A's saved send data packet-by-packet (nodelay on).
        let _ = emitted(|o| h2.a.set_nodelay(true, h2.now, o));
        for pkt in &asnap.inflight {
            let (n, segs) = emitted_with(|o| h2.a.write(pkt, h2.now, o));
            prop_assert_eq!(n, pkt.len());
            for s in segs { h2.transmit(Dir::AtoB, s); }
        }
        {
            let (n, segs) = emitted_with(|o| h2.a.write(&asnap.unsent, h2.now, o));
            prop_assert_eq!(n, asnap.unsent.len());
            for s in segs { h2.transmit(Dir::AtoB, s); }
        }
        let _ = emitted(|o| h2.a.set_nodelay(asnap.nodelay, h2.now, o));
        // Write the rest of the payload after restart.
        h2.write_all(&payload[accepted..]);
        h2.run(400_000);

        replay_received.extend_from_slice(&h2.received);
        prop_assert_eq!(&replay_received, &payload);
    }
}
