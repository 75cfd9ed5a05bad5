//! Twin tests for the TCP byte queues: the slice-wise `SendBuffer` and
//! `RecvBuffer` against a byte-at-a-time reference model.
//!
//! The model moves every byte through `VecDeque::pop_front` and per-byte
//! map entries, the simplest correct rendering of each operation. Random
//! `push`/`take_packet`/`ack_to`/`insert`/`read` sequences on small
//! capacities make the rings wrap many times, and an initial sequence
//! number near `u32::MAX` makes sequence numbers wrap too. Both sides must
//! agree on every returned byte, every packet boundary and every count.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use des::SimTime;
use proptest::prelude::*;
use simnet::take_front;
use simnet::tcp::buffer::{AckResult, RecvBuffer, SendBuffer};
use simnet::tcp::seq::SeqNum;

/// One in-flight packet of the model: (first seq, bytes, original send time).
type RefSegment = (SeqNum, Vec<u8>, Option<SimTime>);

/// The send buffer, one byte at a time.
struct RefSend {
    inflight: VecDeque<RefSegment>,
    unsent: VecDeque<u8>,
    capacity: usize,
}

impl RefSend {
    fn new(capacity: usize) -> Self {
        RefSend {
            inflight: VecDeque::new(),
            unsent: VecDeque::new(),
            capacity,
        }
    }

    fn inflight_len(&self) -> usize {
        self.inflight.iter().map(|s| s.1.len()).sum()
    }

    fn len(&self) -> usize {
        self.inflight_len() + self.unsent.len()
    }

    fn push(&mut self, data: &[u8]) -> usize {
        let take = data.len().min(self.capacity.saturating_sub(self.len()));
        for &b in &data[..take] {
            self.unsent.push_back(b);
        }
        take
    }

    fn take_packet(&mut self, max: usize) -> Option<Vec<u8>> {
        if self.unsent.is_empty() || max == 0 {
            return None;
        }
        let mut v = Vec::new();
        while v.len() < max {
            match self.unsent.pop_front() {
                Some(b) => v.push(b),
                None => break,
            }
        }
        Some(v)
    }

    fn record_sent(&mut self, seq: SeqNum, data: Vec<u8>, now: SimTime) {
        self.inflight.push_back((seq, data, Some(now)));
    }

    fn ack_to(&mut self, ack: SeqNum) -> AckResult {
        let mut res = AckResult::default();
        while let Some(head) = self.inflight.front_mut() {
            let end = head.0 + head.1.len() as u32;
            if end <= ack {
                res.acked_bytes += head.1.len() as u32;
                if let Some(at) = head.2 {
                    res.rtt_sample_from = Some(at);
                }
                self.inflight.pop_front();
            } else if head.0 < ack {
                let n = ack - head.0;
                res.acked_bytes += n;
                for _ in 0..n {
                    head.1.remove(0);
                }
                head.0 = ack;
                head.2 = None;
                break;
            } else {
                break;
            }
        }
        res
    }

    fn retransmit_head(&mut self) -> Option<(SeqNum, Vec<u8>)> {
        let head = self.inflight.front_mut()?;
        head.2 = None;
        Some((head.0, head.1.clone()))
    }
}

/// The receive buffer, one byte at a time: each out-of-order byte is its
/// own map entry keyed by its offset from `rcv_nxt`; existing bytes win.
struct RefRecv {
    ordered: VecDeque<u8>,
    ooo: BTreeMap<u32, u8>,
    capacity: usize,
}

impl RefRecv {
    fn new(capacity: usize) -> Self {
        RefRecv {
            ordered: VecDeque::new(),
            ooo: BTreeMap::new(),
            capacity,
        }
    }

    fn window(&self) -> u32 {
        self.capacity
            .saturating_sub(self.ordered.len() + self.ooo.len()) as u32
    }

    /// `rel` is the offset of `data[0]` from `rcv_nxt` (negative = old).
    fn insert(&mut self, rel: i64, data: &[u8]) -> u32 {
        let room = i64::from(self.window());
        for (i, &b) in data.iter().enumerate() {
            let off = rel + i as i64;
            if (0..room).contains(&off) {
                self.ooo.entry(off as u32).or_insert(b);
            }
        }
        let mut advanced = 0u32;
        while let Some(b) = self.ooo.remove(&advanced) {
            self.ordered.push_back(b);
            advanced += 1;
        }
        self.ooo = std::mem::take(&mut self.ooo)
            .into_iter()
            .map(|(off, b)| (off - advanced, b))
            .collect();
        advanced
    }

    fn read(&mut self, max: usize) -> Vec<u8> {
        let mut v = Vec::new();
        while v.len() < max {
            match self.ordered.pop_front() {
                Some(b) => v.push(b),
                None => break,
            }
        }
        v
    }
}

#[derive(Debug, Clone)]
enum SendOp {
    Push(Vec<u8>),
    Take(usize),
    /// Acknowledge this many bytes past `snd_una` (modulo what is in flight).
    Ack(u32),
    Retransmit,
}

fn send_op() -> impl Strategy<Value = SendOp> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..48).prop_map(SendOp::Push),
        3 => (0usize..40).prop_map(SendOp::Take),
        2 => (0u32..64).prop_map(SendOp::Ack),
        1 => Just(SendOp::Retransmit),
    ]
}

#[derive(Debug, Clone)]
enum RecvOp {
    /// Segment data at this offset from `rcv_nxt`.
    Insert(i64, Vec<u8>),
    Read(usize),
}

fn recv_op() -> impl Strategy<Value = RecvOp> {
    prop_oneof![
        3 => (-24i64..64, proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(rel, data)| RecvOp::Insert(rel, data)),
        2 => (0usize..48).prop_map(RecvOp::Read),
    ]
}

fn assert_send_twins(real: &SendBuffer, model: &RefSend) {
    assert_eq!(real.inflight_len(), model.inflight_len());
    assert_eq!(real.len(), model.len());
    assert_eq!(
        real.unsent_bytes(),
        model.unsent.iter().copied().collect::<Vec<u8>>()
    );
    let packets: Vec<RefSegment> = real
        .inflight_packets()
        .map(|s| (s.seq, s.data.to_vec(), s.sent_at))
        .collect();
    assert_eq!(packets, model.inflight.iter().cloned().collect::<Vec<_>>());
}

fn assert_recv_twins(real: &RecvBuffer, model: &RefRecv) {
    assert_eq!(real.window(), model.window());
    assert_eq!(real.len(), model.ordered.len());
    assert_eq!(
        real.peek_all(),
        model.ordered.iter().copied().collect::<Vec<u8>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every take returns the model's bytes with the model's boundary, and
    /// acks and retransmissions see the same packets.
    #[test]
    fn send_buffer_matches_bytewise_model(
        capacity in 1usize..64,
        iss in (u32::MAX - 200)..u32::MAX,
        ops in proptest::collection::vec(send_op(), 1..200),
    ) {
        let mut real = SendBuffer::new(capacity);
        let mut model = RefSend::new(capacity);
        let (mut snd_una, mut snd_nxt) = (SeqNum::new(iss), SeqNum::new(iss));
        for (i, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_nanos(i as u64);
            match op {
                SendOp::Push(data) => prop_assert_eq!(real.push(&data), model.push(&data)),
                SendOp::Take(max) => {
                    let got = real.take_packet(max);
                    let want = model.take_packet(max);
                    prop_assert_eq!(got.as_deref(), want.as_deref());
                    if let (Some(got), Some(want)) = (got, want) {
                        real.record_sent(snd_nxt, got, now);
                        model.record_sent(snd_nxt, want.clone(), now);
                        snd_nxt += want.len() as u32;
                    }
                }
                SendOp::Ack(k) => {
                    let ack = snd_una + k % ((snd_nxt - snd_una) + 1);
                    prop_assert_eq!(real.ack_to(ack), model.ack_to(ack));
                    snd_una = ack;
                }
                SendOp::Retransmit => {
                    let got = real.retransmit_head().map(|(s, d)| (s, d.to_vec()));
                    prop_assert_eq!(got, model.retransmit_head());
                }
            }
            assert_send_twins(&real, &model);
        }
    }

    /// Reassembly, windowing and every read agree with the model, with
    /// duplicates, overlaps, gaps and data beyond the window.
    #[test]
    fn recv_buffer_matches_bytewise_model(
        capacity in 1usize..64,
        irs in (u32::MAX - 200)..u32::MAX,
        ops in proptest::collection::vec(recv_op(), 1..200),
    ) {
        let mut real = RecvBuffer::new(capacity);
        let mut model = RefRecv::new(capacity);
        let mut rcv_nxt = SeqNum::new(irs);
        for op in ops {
            match op {
                RecvOp::Insert(rel, data) => {
                    let seq = SeqNum::new(rcv_nxt.raw().wrapping_add(rel as u32));
                    let got = real.insert(seq, &Bytes::from(data.clone()), rcv_nxt);
                    prop_assert_eq!(got, model.insert(rel, &data));
                    rcv_nxt += got;
                }
                RecvOp::Read(max) => prop_assert_eq!(real.read(max), model.read(max)),
            }
            assert_recv_twins(&real, &model);
        }
    }

    /// In-order segments with nothing held out of order take the direct
    /// path onto the stream; a segment arriving ahead of a hole takes the
    /// reassembly map until the hole is filled. Alternating the two, with
    /// reads in between, every return value, the window and the stream
    /// match the model after every operation. The sender goes back to the
    /// first missing byte after each step, as a retransmission would.
    #[test]
    fn recv_direct_path_and_hole_fills_match_model(
        capacity in 8usize..96,
        irs in (u32::MAX - 200)..u32::MAX,
        steps in proptest::collection::vec((1u32..24, any::<bool>(), 0usize..32), 1..120),
    ) {
        let mut real = RecvBuffer::new(capacity);
        let mut model = RefRecv::new(capacity);
        let mut rcv_nxt = SeqNum::new(irs);
        // Stream bytes are a function of their sequence number, so a
        // retransmitted byte is always the same byte.
        let segment = |seq: SeqNum, len: u32| -> Vec<u8> {
            (0..len).map(|i| (seq.raw().wrapping_add(i) % 251) as u8).collect()
        };
        for (len, hole_first, read) in steps {
            let here = rcv_nxt;
            let ahead = here + len;
            let order = if hole_first { [ahead, here] } else { [here, ahead] };
            for seq in order {
                let data = segment(seq, len);
                let got = real.insert(seq, &Bytes::from(data.clone()), rcv_nxt);
                prop_assert_eq!(got, model.insert(i64::from(seq - rcv_nxt), &data));
                rcv_nxt += got;
                assert_recv_twins(&real, &model);
            }
            prop_assert_eq!(real.read(read), model.read(read));
            assert_recv_twins(&real, &model);
        }
    }

    /// `take_front` on a ring that wraps: the same bytes as popping one at
    /// a time, and the same remainder.
    #[test]
    fn take_front_matches_pop_front_on_wrapped_rings(
        pops in 0usize..16,
        pushes in proptest::collection::vec(any::<u8>(), 0..32),
        max in 0usize..40,
    ) {
        let mut real: VecDeque<u8> = VecDeque::with_capacity(16);
        real.extend(0..16u8);
        real.drain(..pops);
        real.extend(&pushes);
        let mut model = real.clone();
        let want: Vec<u8> = (0..max).map_while(|_| model.pop_front()).collect();
        prop_assert_eq!(take_front(&mut real, max), want);
        prop_assert_eq!(real, model);
    }
}

#[test]
fn take_front_reads_across_the_wrap() {
    // Head at 12 of a 16-byte ring, 8 bytes pushed: the tail wraps.
    let mut q: VecDeque<u8> = VecDeque::with_capacity(16);
    q.extend(0..16u8);
    q.drain(..12);
    q.extend(16..24u8);
    assert!(!q.as_slices().1.is_empty(), "the ring must wrap");
    assert_eq!(take_front(&mut q, 6), vec![12, 13, 14, 15, 16, 17]);
    assert_eq!(take_front(&mut q, 100), vec![18, 19, 20, 21, 22, 23]);
    assert!(q.is_empty());
    assert_eq!(take_front(&mut q, 4), Vec::<u8>::new());
}
