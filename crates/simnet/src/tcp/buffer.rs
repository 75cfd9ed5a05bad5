//! TCP send and receive buffers.
//!
//! The send buffer keeps the packet boundaries of transmitted-but-unacked
//! data, which the checkpoint mechanism must preserve across restore (the
//! paper's §4.1: "ACK sequence numbers correspond to packet boundaries").

use std::collections::BTreeMap;
use std::collections::VecDeque;

use bytes::Bytes;
use des::SimTime;

use crate::tcp::seq::SeqNum;

/// One transmitted, not-yet-acknowledged packet.
#[derive(Debug, Clone)]
pub struct SentSegment {
    /// Sequence number of the first byte.
    pub seq: SeqNum,
    /// Payload.
    pub data: Bytes,
    /// When the original transmission happened; `None` once retransmitted
    /// (Karn's rule: retransmitted segments yield no RTT samples).
    pub sent_at: Option<SimTime>,
}

/// Result of processing an acknowledgement in the send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckResult {
    /// Number of payload bytes newly acknowledged.
    pub acked_bytes: u32,
    /// RTT sample from the newest fully acked, never-retransmitted segment.
    pub rtt_sample_from: Option<SimTime>,
}

/// The sender-side byte queue: unacknowledged in-flight packets plus bytes
/// accepted from the application but not yet packetized.
#[derive(Debug, Clone, Default)]
pub struct SendBuffer {
    inflight: VecDeque<SentSegment>,
    /// Payload bytes across `inflight`, kept as packets are recorded and
    /// acknowledged rather than summed on every query.
    inflight_bytes: usize,
    unsent: VecDeque<u8>,
    capacity: usize,
}

impl SendBuffer {
    /// Creates a buffer that accepts at most `capacity` bytes in total
    /// (in-flight plus unsent).
    pub fn new(capacity: usize) -> Self {
        SendBuffer {
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            unsent: VecDeque::new(),
            capacity,
        }
    }

    /// Total buffered bytes (in-flight plus unsent).
    pub fn len(&self) -> usize {
        self.inflight_len() + self.unsent.len()
    }

    /// Returns true if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes transmitted but not yet acknowledged.
    pub fn inflight_len(&self) -> usize {
        self.inflight_bytes
    }

    /// Bytes accepted from the application but not yet transmitted.
    pub fn unsent_len(&self) -> usize {
        self.unsent.len()
    }

    /// Free space for more application data.
    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    /// Accepts up to `free()` bytes from the application, returning how many
    /// were taken.
    pub fn push(&mut self, data: &[u8]) -> usize {
        let take = data.len().min(self.free());
        self.unsent.extend(&data[..take]);
        take
    }

    /// Removes up to `max` unsent bytes for transmission as one packet.
    /// Returns `None` if nothing is unsent or `max == 0`.
    ///
    /// The packet is copied once, straight out of the ring's (at most two)
    /// contiguous halves into its shared buffer.
    pub fn take_packet(&mut self, max: usize) -> Option<Bytes> {
        if self.unsent.is_empty() || max == 0 {
            return None;
        }
        let n = self.unsent.len().min(max);
        let (head, tail) = self.unsent.as_slices();
        let from_head = n.min(head.len());
        let data = Bytes::copy_from_two(&head[..from_head], &tail[..n - from_head]);
        self.unsent.drain(..n);
        Some(data)
    }

    /// Records a packet as transmitted (in flight) at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not directly follow the previous in-flight
    /// packet — packets must be recorded in sequence order.
    pub fn record_sent(&mut self, seq: SeqNum, data: Bytes, now: SimTime) {
        if let Some(last) = self.inflight.back() {
            assert_eq!(
                last.seq + last.data.len() as u32,
                seq,
                "in-flight packets must be contiguous"
            );
        }
        self.inflight_bytes += data.len();
        self.inflight.push_back(SentSegment {
            seq,
            data,
            sent_at: Some(now),
        });
    }

    /// Processes a cumulative acknowledgement up to `ack`: drops fully acked
    /// packets and trims a partially acked head packet.
    pub fn ack_to(&mut self, ack: SeqNum) -> AckResult {
        let mut res = AckResult::default();
        while let Some(head) = self.inflight.front_mut() {
            let end = head.seq + head.data.len() as u32;
            if end <= ack {
                res.acked_bytes += head.data.len() as u32;
                if let Some(at) = head.sent_at {
                    res.rtt_sample_from = Some(at);
                }
                self.inflight_bytes -= head.data.len();
                self.inflight.pop_front();
            } else if head.seq < ack {
                // Partial ack of the head packet: the rest shares its
                // storage.
                let n = ack - head.seq;
                res.acked_bytes += n;
                self.inflight_bytes -= n as usize;
                head.data = head.data.slice(n as usize..);
                head.seq = ack;
                head.sent_at = None; // boundary changed; no RTT sample
                break;
            } else {
                break;
            }
        }
        res
    }

    /// Returns the earliest unacknowledged packet for retransmission and
    /// marks it retransmitted (suppressing its RTT sample).
    pub fn retransmit_head(&mut self) -> Option<(SeqNum, Bytes)> {
        let head = self.inflight.front_mut()?;
        head.sent_at = None;
        Some((head.seq, head.data.clone()))
    }

    /// The in-flight packets in order, for checkpointing with their packet
    /// boundaries preserved.
    pub fn inflight_packets(&self) -> impl Iterator<Item = &SentSegment> {
        self.inflight.iter()
    }

    /// The unsent byte queue, for checkpointing.
    pub fn unsent_bytes(&self) -> Vec<u8> {
        self.unsent.iter().copied().collect()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The receiver-side reassembly queue and in-order byte stream.
#[derive(Debug, Clone, Default)]
pub struct RecvBuffer {
    /// Contiguous, undelivered stream data (ends at `rcv_nxt`).
    ordered: VecDeque<u8>,
    /// Out-of-order segments ahead of `rcv_nxt`, keyed by offset from
    /// `rcv_nxt` at insertion time (re-keyed as the stream advances).
    ooo: BTreeMap<u32, Bytes>,
    capacity: usize,
}

impl RecvBuffer {
    /// Creates a buffer advertising at most `capacity` bytes of window.
    pub fn new(capacity: usize) -> Self {
        RecvBuffer {
            ordered: VecDeque::new(),
            ooo: BTreeMap::new(),
            capacity,
        }
    }

    /// Bytes ready for the application.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Returns true if no in-order data is available.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// The receive window to advertise.
    pub fn window(&self) -> u32 {
        let used = self.ordered.len() + self.ooo.values().map(|b| b.len()).sum::<usize>();
        self.capacity.saturating_sub(used) as u32
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts segment data whose first byte has sequence `seq`, given the
    /// current `rcv_nxt`. Returns the number of sequence positions `rcv_nxt`
    /// advances (in-order bytes made available).
    ///
    /// Data at or beyond `rcv_nxt + window-capacity` is dropped; duplicates
    /// and overlaps are trimmed.
    pub fn insert(&mut self, seq: SeqNum, data: &Bytes, rcv_nxt: SeqNum) -> u32 {
        if data.is_empty() {
            return 0;
        }
        let off = seq.diff(rcv_nxt);
        // Entirely old data: duplicate, ignore.
        if off < 0 && (-off) as usize >= data.len() {
            return 0;
        }
        // Trim the already-received prefix.
        let (start_off, data) = if off < 0 {
            (0u32, data.slice((-off) as usize..))
        } else {
            (off as u32, data.clone())
        };
        // Respect the advertised window: drop bytes beyond the free space
        // (accounting for data already buffered, in order or not).
        let room = self.window();
        if start_off >= room {
            return 0;
        }
        let data = if start_off as usize + data.len() > room as usize {
            data.slice(..(room - start_off) as usize)
        } else {
            data
        };
        if data.is_empty() {
            return 0;
        }
        // In order with no hole behind it: straight onto the stream. The
        // map would hand it back at once, unchanged.
        if start_off == 0 && self.ooo.is_empty() {
            self.ordered.extend(data.iter());
            return data.len() as u32;
        }
        // Stash into the out-of-order map (in-order data is offset 0).
        insert_trimmed(&mut self.ooo, start_off, data);
        // Pull contiguous data at offset 0 into the ordered stream.
        let mut advanced = 0u32;
        while let Some((&off, _)) = self.ooo.first_key_value() {
            if off != advanced {
                break;
            }
            let (_, seg) = self.ooo.pop_first().expect("checked non-empty");
            advanced += seg.len() as u32;
            self.ordered.extend(seg.iter());
        }
        // Re-key remaining out-of-order segments relative to the new rcv_nxt.
        if advanced > 0 && !self.ooo.is_empty() {
            let old = std::mem::take(&mut self.ooo);
            for (off, seg) in old {
                debug_assert!(off >= advanced);
                self.ooo.insert(off - advanced, seg);
            }
        }
        advanced
    }

    /// Reads up to `max` in-order bytes, removing them from the buffer.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        take_front(&mut self.ordered, max)
    }

    /// Returns all in-order bytes without removing them (the `MSG_PEEK`
    /// analogue used at checkpoint).
    pub fn peek_all(&self) -> Vec<u8> {
        self.ordered.iter().copied().collect()
    }
}

/// Removes up to `max` bytes from the front of `queue` and returns them,
/// copying slice-wise out of the ring's (at most two) contiguous halves.
///
/// The byte queues the guest reads drain through this: the TCP receive
/// buffer here, the kernel's pipes and Zap's alternate receive buffers.
pub fn take_front(queue: &mut VecDeque<u8>, max: usize) -> Vec<u8> {
    let n = queue.len().min(max);
    let (head, tail) = queue.as_slices();
    let from_head = n.min(head.len());
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&head[..from_head]);
    out.extend_from_slice(&tail[..n - from_head]);
    queue.drain(..n);
    out
}

/// Inserts `data` at `off` into the reassembly map, trimming overlap with
/// existing segments (existing data wins — it is identical stream data).
fn insert_trimmed(map: &mut BTreeMap<u32, Bytes>, off: u32, data: Bytes) {
    let mut off = off;
    let mut data = data;
    // Trim against the predecessor.
    if let Some((&pre_off, pre)) = map.range(..=off).next_back() {
        let pre_end = pre_off + pre.len() as u32;
        if pre_end > off {
            let overlap = (pre_end - off) as usize;
            if overlap >= data.len() {
                return;
            }
            data = data.slice(overlap..);
            off = pre_end;
        }
    }
    // Trim against successors.
    while !data.is_empty() {
        let next = map.range(off..).next().map(|(&o, b)| (o, b.len() as u32));
        match next {
            Some((n_off, n_len)) => {
                let end = off + data.len() as u32;
                if n_off >= end {
                    map.insert(off, data);
                    return;
                }
                if n_off > off {
                    map.insert(off, data.slice(..(n_off - off) as usize));
                }
                let n_end = n_off + n_len;
                if n_end >= end {
                    return;
                }
                data = data.slice((n_end - off) as usize..);
                off = n_end;
            }
            None => {
                map.insert(off, data);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn send_buffer_respects_capacity() {
        let mut sb = SendBuffer::new(8);
        assert_eq!(sb.push(b"0123456789".as_ref()), 8);
        assert_eq!(sb.push(b"x".as_ref()), 0);
        assert_eq!(sb.unsent_len(), 8);
    }

    #[test]
    fn send_packetize_and_ack() {
        let mut sb = SendBuffer::new(100);
        sb.push(b"hello world");
        let now = SimTime::ZERO;
        let p1 = sb.take_packet(5).unwrap();
        assert_eq!(&p1[..], b"hello");
        sb.record_sent(SeqNum::new(0), p1, now);
        let p2 = sb.take_packet(100).unwrap();
        assert_eq!(&p2[..], b" world");
        sb.record_sent(SeqNum::new(5), p2, now);
        assert_eq!(sb.inflight_len(), 11);

        let r = sb.ack_to(SeqNum::new(5));
        assert_eq!(r.acked_bytes, 5);
        assert_eq!(r.rtt_sample_from, Some(now));
        assert_eq!(sb.inflight_len(), 6);

        // Partial ack trims the head.
        let r = sb.ack_to(SeqNum::new(8));
        assert_eq!(r.acked_bytes, 3);
        assert_eq!(r.rtt_sample_from, None);
        assert_eq!(sb.inflight_len(), 3);
        let (seq, data) = sb.retransmit_head().unwrap();
        assert_eq!(seq, SeqNum::new(8));
        assert_eq!(&data[..], b"rld");
    }

    #[test]
    fn retransmit_suppresses_rtt_sample() {
        let mut sb = SendBuffer::new(100);
        sb.push(b"abc");
        let p = sb.take_packet(10).unwrap();
        sb.record_sent(SeqNum::new(0), p, SimTime::from_nanos(5));
        let _ = sb.retransmit_head().unwrap();
        let r = sb.ack_to(SeqNum::new(3));
        assert_eq!(r.acked_bytes, 3);
        assert_eq!(r.rtt_sample_from, None);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn record_sent_rejects_gaps() {
        let mut sb = SendBuffer::new(100);
        sb.push(b"abcdef");
        let p = sb.take_packet(3).unwrap();
        sb.record_sent(SeqNum::new(0), p, SimTime::ZERO);
        let p = sb.take_packet(3).unwrap();
        sb.record_sent(SeqNum::new(7), p, SimTime::ZERO); // gap!
    }

    #[test]
    fn recv_in_order_delivery() {
        let mut rb = RecvBuffer::new(100);
        let nxt = SeqNum::new(1000);
        assert_eq!(rb.insert(nxt, &b(b"abc"), nxt), 3);
        assert_eq!(rb.read(10), b"abc");
        assert_eq!(rb.read(10), b"");
    }

    #[test]
    fn recv_reorders_and_dedups() {
        let mut rb = RecvBuffer::new(100);
        let nxt = SeqNum::new(0);
        // Arrives out of order: [3..6) then [0..3)
        assert_eq!(rb.insert(SeqNum::new(3), &b(b"def"), nxt), 0);
        assert!(rb.is_empty());
        assert_eq!(rb.insert(SeqNum::new(0), &b(b"abc"), nxt), 6);
        assert_eq!(rb.read(10), b"abcdef");
        // Duplicate of old data ignored.
        assert_eq!(rb.insert(SeqNum::new(0), &b(b"abc"), SeqNum::new(6)), 0);
    }

    #[test]
    fn recv_trims_partial_duplicates() {
        let mut rb = RecvBuffer::new(100);
        let nxt = SeqNum::new(0);
        assert_eq!(rb.insert(SeqNum::new(0), &b(b"abcd"), nxt), 4);
        // Overlapping retransmission [2..8) — first 2 bytes already received.
        assert_eq!(rb.insert(SeqNum::new(2), &b(b"cdefgh"), SeqNum::new(4)), 4);
        assert_eq!(rb.read(10), b"abcdefgh");
    }

    #[test]
    fn recv_window_shrinks_and_caps() {
        let mut rb = RecvBuffer::new(8);
        let nxt = SeqNum::new(0);
        assert_eq!(rb.window(), 8);
        rb.insert(SeqNum::new(0), &b(b"abcd"), nxt);
        assert_eq!(rb.window(), 4);
        // Beyond capacity gets truncated.
        assert_eq!(
            rb.insert(SeqNum::new(4), &b(b"efghIJKL"), SeqNum::new(4)),
            4
        );
        assert_eq!(rb.window(), 0);
        assert_eq!(rb.read(100), b"abcdefgh");
        assert_eq!(rb.window(), 8);
    }

    #[test]
    fn recv_peek_is_nondestructive() {
        let mut rb = RecvBuffer::new(16);
        rb.insert(SeqNum::new(0), &b(b"xyz"), SeqNum::new(0));
        assert_eq!(rb.peek_all(), b"xyz");
        assert_eq!(rb.len(), 3);
        assert_eq!(rb.read(3), b"xyz");
    }

    #[test]
    fn overlapping_ooo_segments_merge() {
        let mut rb = RecvBuffer::new(100);
        let nxt = SeqNum::new(0);
        rb.insert(SeqNum::new(4), &b(b"efg"), nxt);
        rb.insert(SeqNum::new(2), &b(b"cdef"), nxt);
        rb.insert(SeqNum::new(8), &b(b"ij"), nxt);
        assert_eq!(rb.insert(SeqNum::new(0), &b(b"abcdefghij"), nxt), 10);
        assert_eq!(rb.read(100), b"abcdefghij");
    }
}
