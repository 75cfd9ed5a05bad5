//! The TCP connection state machine (transmission control block).
//!
//! The TCB is a pure, time-explicit state machine: segments and timer
//! expirations go in, segments to transmit come out — appended, in emission
//! order, to a buffer the caller owns and reuses. It implements the pieces
//! of TCP the Cruz paper's correctness argument (§5.1) relies on —
//! cumulative acknowledgements, sender-side buffering of unacked data with
//! stable packet boundaries, retransmission with exponential backoff — plus
//! the connection-management machinery (handshake, FIN teardown, RST,
//! TIME-WAIT) and the sender-side features checkpoint/restore must preserve
//! (Nagle, `TCP_CORK`).

use bytes::Bytes;
use des::{SimDuration, SimTime};

use crate::addr::SockAddr;
use crate::tcp::buffer::{RecvBuffer, SendBuffer};
use crate::tcp::rto::RtoEstimator;
use crate::tcp::segment::{TcpFlags, TcpSegment};
use crate::tcp::seq::SeqNum;

/// TCP connection states (RFC 793), less LISTEN which is handled by the
/// socket table rather than a TCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both sides closed simultaneously; awaiting ACK of our FIN.
    Closing,
    /// We closed after the peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
    /// Fully closed (or aborted).
    Closed,
}

impl TcpState {
    /// True for states in which the peer may still legally send us data.
    pub fn can_receive(self) -> bool {
        matches!(
            self,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        )
    }

    /// True for states in which the application may submit data to send.
    pub fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }

    /// True once the peer's FIN has been consumed (stream EOF reached).
    pub fn peer_closed(self) -> bool {
        matches!(
            self,
            TcpState::CloseWait
                | TcpState::Closing
                | TcpState::LastAck
                | TcpState::TimeWait
                | TcpState::Closed
        )
    }
}

/// Static configuration of a connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: usize,
    /// Send buffer capacity in bytes.
    pub send_buf_capacity: usize,
    /// Receive buffer capacity in bytes (advertised window ceiling).
    pub recv_buf_capacity: usize,
    /// RTO before the first RTT sample.
    pub initial_rto: SimDuration,
    /// Lower bound on the RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the RTO.
    pub max_rto: SimDuration,
    /// TIME-WAIT linger duration.
    pub time_wait: SimDuration,
    /// Retransmissions of the same segment before the connection aborts.
    pub max_retries: u32,
    /// Duplicate ACK threshold for fast retransmit.
    pub dup_ack_threshold: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf_capacity: 64 * 1024,
            recv_buf_capacity: 64 * 1024,
            initial_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            time_wait: SimDuration::from_secs(60),
            max_retries: 15,
            dup_ack_threshold: 3,
        }
    }
}

/// Checkpointed state of one live connection, in the form the paper's §4.1
/// saves it: the TCB sequence numbers are rewritten so that the saved image
/// presents an **empty send buffer whose contents have "not yet been issued
/// by the application"** (`snd_nxt` rolled back to `snd_una`) and an **empty
/// receive buffer whose contents have been "successfully delivered"**
/// (`rcv_nxt` kept, bytes exported separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSnapshot {
    /// Local endpoint.
    pub local: SockAddr,
    /// Remote endpoint.
    pub remote: SockAddr,
    /// Connection state at checkpoint (a data-transfer state).
    pub state: TcpState,
    /// The rewritten send-side sequence number (`snd_una` at checkpoint);
    /// restore sets both `snd_una` and `snd_nxt` to this.
    pub snd_una: SeqNum,
    /// Next expected receive sequence number.
    pub rcv_nxt: SeqNum,
    /// Peer's advertised window at checkpoint.
    pub peer_window: u32,
    /// `TCP_NODELAY` option.
    pub nodelay: bool,
    /// `TCP_CORK` option.
    pub cork: bool,
    /// Unacknowledged in-flight data, one entry per packet (boundaries are
    /// preserved across restore by replaying one `send` per entry).
    pub inflight: Vec<Vec<u8>>,
    /// Buffered-but-untransmitted send data (no packet boundaries yet).
    pub unsent: Vec<u8>,
    /// Received, undelivered stream data, handed back on restore for the
    /// restore-side alternate buffer. A checkpoint of a restored connection
    /// puts the alternate buffer's unread remainder first, then the kernel
    /// receive queue ([`crate::NetStack::snapshot`]).
    pub recv_stream: Vec<u8>,
}

impl TcpSnapshot {
    /// Total bytes of send-side data carried by this snapshot.
    pub fn send_bytes(&self) -> usize {
        self.inflight.iter().map(Vec::len).sum::<usize>() + self.unsent.len()
    }
}

/// A transmission control block: one live TCP connection endpoint.
#[derive(Debug, Clone)]
pub struct Tcb {
    cfg: TcpConfig,
    state: TcpState,
    local: SockAddr,
    remote: SockAddr,

    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    rcv_nxt: SeqNum,
    peer_window: u32,

    send_buf: SendBuffer,
    recv_buf: RecvBuffer,
    rto: RtoEstimator,

    rtx_deadline: Option<SimTime>,
    time_wait_deadline: Option<SimTime>,
    retries: u32,
    dup_acks: u32,

    nodelay: bool,
    cork: bool,

    /// Application asked to close; FIN goes out once the send buffer drains.
    close_pending: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<SeqNum>,
    /// Connection failed (RST received or retry limit exceeded).
    reset: bool,
    /// Loss-recovery point (NewReno-style): set to `snd_nxt` when a
    /// retransmission fires (timeout or fast). Until `snd_una` passes it,
    /// each ACK that advances `snd_una` immediately retransmits the next
    /// unacknowledged segment, so a burst dropped by a checkpoint blackout
    /// recovers in round-trips, not in timeouts — without duplicating
    /// segments sent after the loss.
    recovery_point: Option<SeqNum>,
    /// Total stream bytes handed to the application by `read`.
    delivered: u64,
}

impl Tcb {
    /// Opens an active connection: returns the TCB in `SynSent` plus the SYN
    /// segment to transmit.
    pub fn connect(
        cfg: TcpConfig,
        local: SockAddr,
        remote: SockAddr,
        iss: SeqNum,
        now: SimTime,
    ) -> (Tcb, Vec<TcpSegment>) {
        let mut tcb = Tcb::raw(cfg, TcpState::SynSent, local, remote, iss);
        tcb.snd_una = iss;
        tcb.snd_nxt = iss + 1; // SYN occupies one sequence number
        let syn = tcb.make_segment(TcpFlags::SYN, iss, Bytes::new());
        tcb.arm_rtx(now);
        (tcb, vec![syn])
    }

    /// Creates the passive-side TCB for a SYN that arrived on a listening
    /// socket: returns the TCB in `SynRcvd` plus the SYN-ACK to transmit.
    pub fn accept_syn(
        cfg: TcpConfig,
        local: SockAddr,
        remote: SockAddr,
        iss: SeqNum,
        syn: &TcpSegment,
        now: SimTime,
    ) -> (Tcb, Vec<TcpSegment>) {
        let mut tcb = Tcb::raw(cfg, TcpState::SynRcvd, local, remote, iss);
        tcb.rcv_nxt = syn.seq + 1;
        tcb.peer_window = syn.window;
        tcb.snd_una = iss;
        tcb.snd_nxt = iss + 1;
        let synack = tcb.make_segment(TcpFlags::SYN_ACK, iss, Bytes::new());
        tcb.arm_rtx(now);
        (tcb, vec![synack])
    }

    /// Reconstructs a connection from a checkpoint snapshot.
    ///
    /// The TCB comes up with **empty buffers** at the snapshot's rewritten
    /// sequence numbers; the caller ([`crate::NetStack::restore`]) then
    /// replays the saved send data through ordinary [`Tcb::write`] calls, one
    /// per saved packet,
    /// with Nagle and CORK temporarily disabled — exactly the paper's restore
    /// procedure.
    pub fn restore(cfg: TcpConfig, snap: &TcpSnapshot) -> Tcb {
        let mut tcb = Tcb::raw(cfg, snap.state, snap.local, snap.remote, snap.snd_una);
        tcb.snd_una = snap.snd_una;
        tcb.snd_nxt = snap.snd_una;
        tcb.rcv_nxt = snap.rcv_nxt;
        tcb.peer_window = snap.peer_window;
        tcb.nodelay = snap.nodelay;
        tcb.cork = snap.cork;
        tcb
    }

    fn raw(cfg: TcpConfig, state: TcpState, local: SockAddr, remote: SockAddr, iss: SeqNum) -> Tcb {
        Tcb {
            send_buf: SendBuffer::new(cfg.send_buf_capacity),
            recv_buf: RecvBuffer::new(cfg.recv_buf_capacity),
            rto: RtoEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            cfg,
            state,
            local,
            remote,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            rcv_nxt: SeqNum::new(0),
            peer_window: 0,
            rtx_deadline: None,
            time_wait_deadline: None,
            retries: 0,
            dup_acks: 0,
            nodelay: false,
            cork: false,
            close_pending: false,
            fin_seq: None,
            reset: false,
            recovery_point: None,
            delivered: 0,
        }
    }

    // ---- accessors -------------------------------------------------------

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> SockAddr {
        self.local
    }

    /// Remote endpoint.
    pub fn remote(&self) -> SockAddr {
        self.remote
    }

    /// Oldest unacknowledged sequence number (§5.1's `unack_nxt`).
    pub fn snd_una(&self) -> SeqNum {
        self.snd_una
    }

    /// Next send sequence number (§5.1's `snd_nxt`).
    pub fn snd_nxt(&self) -> SeqNum {
        self.snd_nxt
    }

    /// Next expected receive sequence number (§5.1's `rcv_nxt`).
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// The peer's most recently advertised window.
    pub fn peer_window(&self) -> u32 {
        self.peer_window
    }

    /// True if in-order data is available to read, or the stream has ended
    /// (EOF or reset), so a blocked reader should wake.
    pub fn is_readable(&self) -> bool {
        !self.recv_buf.is_empty() || self.state.peer_closed() || self.reset
    }

    /// True if the application could submit at least one byte.
    pub fn is_writable(&self) -> bool {
        (self.state.can_send() && self.send_buf.free() > 0) || self.reset
    }

    /// True once the three-way handshake has completed (or failed).
    pub fn is_connected(&self) -> bool {
        !matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) || self.reset
    }

    /// True if the connection was reset or aborted.
    pub fn is_reset(&self) -> bool {
        self.reset
    }

    /// `TCP_NODELAY` state.
    pub fn nodelay(&self) -> bool {
        self.nodelay
    }

    /// `TCP_CORK` state.
    pub fn cork(&self) -> bool {
        self.cork
    }

    /// Earliest pending timer deadline, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        match (self.rtx_deadline, self.time_wait_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of in-order received bytes not yet read by the application.
    pub fn recv_len(&self) -> usize {
        self.recv_buf.len()
    }

    /// Number of buffered send bytes not yet acknowledged.
    pub fn send_len(&self) -> usize {
        self.send_buf.len()
    }

    /// How many bytes [`Tcb::write`] would accept now: the send buffer's
    /// free space while the connection can send and no close is pending,
    /// else 0.
    pub fn send_space(&self) -> usize {
        if self.state.can_send() && !self.close_pending {
            self.send_buf.free()
        } else {
            0
        }
    }

    /// Total stream bytes delivered to the application so far (a counter
    /// for rate measurements like the paper's Fig. 6).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    // ---- application-facing operations ----------------------------------

    /// Sets `TCP_NODELAY` (disables the Nagle algorithm). Enabling it flushes
    /// any data Nagle was holding back into `out`.
    pub fn set_nodelay(&mut self, on: bool, now: SimTime, out: &mut Vec<TcpSegment>) {
        self.nodelay = on;
        if on {
            self.pump(now, out);
        }
    }

    /// Sets `TCP_CORK`. Clearing it flushes pending partial segments into
    /// `out`.
    pub fn set_cork(&mut self, on: bool, now: SimTime, out: &mut Vec<TcpSegment>) {
        self.cork = on;
        if !on {
            self.pump(now, out);
        }
    }

    /// Submits application data, returning how many bytes were accepted;
    /// appends any segments to transmit to `out`.
    pub fn write(&mut self, data: &[u8], now: SimTime, out: &mut Vec<TcpSegment>) -> usize {
        if !self.state.can_send() || self.close_pending {
            return 0;
        }
        let n = self.send_buf.push(data);
        self.pump(now, out);
        n
    }

    /// Reads up to `max` bytes of in-order data. May append a
    /// window-update ACK to `out` when the read reopens a closed window.
    pub fn read(&mut self, max: usize, _now: SimTime, out: &mut Vec<TcpSegment>) -> Vec<u8> {
        let window_was_zero = self.recv_buf.window() == 0;
        let data = self.recv_buf.read(max);
        self.delivered += data.len() as u64;
        if window_was_zero && !data.is_empty() && self.recv_buf.window() > 0 {
            out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
        }
        data
    }

    /// Initiates a graceful close. The FIN is emitted (into `out`) once the
    /// send buffer has drained.
    pub fn close(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        match self.state {
            TcpState::SynSent | TcpState::Closed => {
                self.state = TcpState::Closed;
                self.clear_timers();
            }
            TcpState::Established | TcpState::SynRcvd | TcpState::CloseWait => {
                self.close_pending = true;
                self.pump(now, out);
            }
            _ => {}
        }
    }

    /// Aborts the connection, returning the RST to transmit.
    pub fn abort(&mut self) -> TcpSegment {
        let rst = self.make_segment(TcpFlags::RST, self.snd_nxt, Bytes::new());
        self.state = TcpState::Closed;
        self.reset = true;
        self.clear_timers();
        rst
    }

    // ---- network-facing operations ---------------------------------------

    /// Processes an incoming segment addressed to this connection,
    /// appending the segments it provokes to `out`.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<TcpSegment>) {
        if self.state == TcpState::Closed {
            return;
        }
        if seg.flags.rst {
            // Accept a RST only if it is plausibly in-window.
            if self.state == TcpState::SynSent || seg.seq == self.rcv_nxt {
                self.state = TcpState::Closed;
                self.reset = true;
                self.clear_timers();
            }
            return;
        }
        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(seg, now, out),
            TcpState::TimeWait => {
                // Re-ack anything that arrives (likely a retransmitted FIN).
                if seg.flags.fin {
                    out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
                }
            }
            _ => self.on_segment_common(seg, now, out),
        }
    }

    fn on_segment_syn_sent(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<TcpSegment>) {
        if seg.flags.syn && seg.flags.ack {
            if seg.ack != self.iss + 1 {
                out.push(self.make_segment(TcpFlags::RST, seg.ack, Bytes::new()));
                return;
            }
            self.rcv_nxt = seg.seq + 1;
            self.snd_una = seg.ack;
            self.peer_window = seg.window;
            self.state = TcpState::Established;
            self.retries = 0;
            self.rtx_deadline = None;
            out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
            self.pump(now, out);
        } else if seg.flags.syn {
            // Simultaneous open.
            self.rcv_nxt = seg.seq + 1;
            self.peer_window = seg.window;
            self.state = TcpState::SynRcvd;
            out.push(self.make_segment(TcpFlags::SYN_ACK, self.iss, Bytes::new()));
            self.arm_rtx(now);
        }
    }

    fn on_segment_common(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<TcpSegment>) {
        // A retransmitted SYN (or SYN-ACK) reaching a synchronized state
        // means our handshake-completing ACK was lost: re-acknowledge instead
        // of staying silent (RFC 793's "unacceptable segment elicits an empty
        // acknowledgment"), otherwise the peer retries forever.
        if seg.flags.syn {
            let reply = if self.state == TcpState::SynRcvd {
                self.make_segment(TcpFlags::SYN_ACK, self.iss, Bytes::new())
            } else {
                self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new())
            };
            out.push(reply);
        }
        // --- ACK processing ---
        if seg.flags.ack {
            let ack = seg.ack;
            if ack > self.snd_una && ack <= self.snd_nxt {
                let res = self.send_buf.ack_to(ack);
                if let Some(sent_at) = res.rtt_sample_from {
                    self.rto.sample(now.duration_since(sent_at));
                }
                // Handshake / FIN sequence positions.
                self.snd_una = ack;
                self.retries = 0;
                self.dup_acks = 0;
                self.rto.reset_backoff();
                self.peer_window = seg.window;
                if self.state == TcpState::SynRcvd {
                    self.state = TcpState::Established;
                }
                if let Some(fin_seq) = self.fin_seq {
                    if ack > fin_seq {
                        self.on_fin_acked(now);
                    }
                }
                // Loss recovery: until the ACKs pass the recovery point,
                // push the next unacknowledged segment out right away rather
                // than waiting another timeout.
                if let Some(rp) = self.recovery_point {
                    if ack >= rp {
                        self.recovery_point = None;
                    } else if let Some((seq, data)) = self.send_buf.retransmit_head() {
                        out.push(self.make_segment(TcpFlags::ACK, seq, data));
                    }
                }
                // Re-arm or clear the retransmission timer.
                if self.outstanding() {
                    self.arm_rtx(now);
                } else {
                    self.rtx_deadline = None;
                    self.recovery_point = None;
                }
                self.pump(now, out);
            } else if ack == self.snd_una {
                self.peer_window = self.peer_window.max(seg.window);
                if seg.payload.is_empty() && self.send_buf.inflight_len() > 0 {
                    self.dup_acks += 1;
                    if self.dup_acks == self.cfg.dup_ack_threshold {
                        // Fast retransmit.
                        if let Some((seq, data)) = self.send_buf.retransmit_head() {
                            out.push(self.make_segment(TcpFlags::ACK, seq, data));
                            self.arm_rtx(now);
                            self.recovery_point = Some(self.snd_nxt);
                        }
                    }
                } else if seg.payload.is_empty() {
                    // Window update while nothing is in flight.
                    self.peer_window = seg.window;
                    self.pump(now, out);
                }
            }
        }

        // --- payload processing ---
        if !seg.payload.is_empty() && self.state.can_receive() {
            let advanced = self.recv_buf.insert(seg.seq, &seg.payload, self.rcv_nxt);
            self.rcv_nxt += advanced;
            // Ack every data segment; duplicates generate dup-acks for the
            // peer's fast retransmit.
            out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
        } else if !seg.payload.is_empty() {
            // Data in a state where we cannot accept it: re-ack current state.
            out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
        }

        // --- FIN processing (only once all preceding data has arrived) ---
        if seg.flags.fin {
            let fin_seq = seg.seq + seg.payload.len() as u32;
            if fin_seq == self.rcv_nxt && !self.state.peer_closed() {
                self.rcv_nxt += 1;
                match self.state {
                    TcpState::Established | TcpState::SynRcvd => {
                        self.state = TcpState::CloseWait;
                    }
                    TcpState::FinWait1 => {
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.enter_time_wait(now);
                    }
                    _ => {}
                }
                out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
            } else if fin_seq != self.rcv_nxt {
                // Out-of-order FIN: ack what we have; peer will retransmit.
                out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new()));
            }
        }
    }

    fn on_fin_acked(&mut self, now: SimTime) {
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => self.enter_time_wait(now),
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                self.clear_timers();
            }
            _ => {}
        }
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.rtx_deadline = None;
        self.time_wait_deadline = Some(now + self.cfg.time_wait);
    }

    /// Processes timer expirations at `now`, appending any retransmission
    /// to `out`. Drives retransmission (with exponential backoff),
    /// zero-window probing, connection-abort on retry exhaustion, and
    /// TIME-WAIT expiry.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        if let Some(tw) = self.time_wait_deadline {
            if now >= tw {
                self.state = TcpState::Closed;
                self.clear_timers();
                return;
            }
        }
        let Some(deadline) = self.rtx_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        if !self.outstanding() {
            self.rtx_deadline = None;
            return;
        }
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.state = TcpState::Closed;
            self.reset = true;
            self.clear_timers();
            return;
        }
        self.rto.backoff();
        match self.state {
            TcpState::SynSent => {
                out.push(self.make_segment(TcpFlags::SYN, self.iss, Bytes::new()));
            }
            TcpState::SynRcvd => {
                out.push(self.make_segment(TcpFlags::SYN_ACK, self.iss, Bytes::new()));
            }
            _ => {
                if let Some((seq, data)) = self.send_buf.retransmit_head() {
                    out.push(self.make_segment(TcpFlags::ACK, seq, data));
                    self.recovery_point = Some(self.snd_nxt);
                } else if let Some(fin_seq) = self.fin_seq {
                    if self.snd_una <= fin_seq {
                        out.push(self.make_segment(TcpFlags::FIN_ACK, fin_seq, Bytes::new()));
                    }
                }
            }
        }
        self.arm_rtx(now);
    }

    // ---- checkpoint support ----------------------------------------------

    /// Extracts the §4.1 checkpoint snapshot of this connection.
    ///
    /// The exported `snd_una` doubles as the rewritten `snd_nxt`; in-flight
    /// packet boundaries and the undelivered receive stream ride alongside.
    ///
    /// # Panics
    ///
    /// Panics if the connection is still mid-handshake (`SynSent`/`SynRcvd`)
    /// — callers checkpoint only established-family connections, matching
    /// the paper's implementation scope.
    pub fn snapshot(&self) -> TcpSnapshot {
        assert!(
            self.is_connected() && self.state != TcpState::Closed,
            "cannot snapshot a connection in state {:?}",
            self.state
        );
        TcpSnapshot {
            local: self.local,
            remote: self.remote,
            state: self.state,
            snd_una: self.snd_una,
            rcv_nxt: self.rcv_nxt,
            peer_window: self.peer_window,
            nodelay: self.nodelay,
            cork: self.cork,
            inflight: self
                .send_buf
                .inflight_packets()
                .map(|s| s.data.to_vec())
                .collect(),
            unsent: self.send_buf.unsent_bytes(),
            recv_stream: self.recv_buf.peek_all(),
        }
    }

    // ---- internals ---------------------------------------------------------

    fn outstanding(&self) -> bool {
        self.snd_una < self.snd_nxt
    }

    fn arm_rtx(&mut self, now: SimTime) {
        self.rtx_deadline = Some(now + self.rto.rto());
    }

    fn clear_timers(&mut self) {
        self.rtx_deadline = None;
        self.time_wait_deadline = None;
    }

    fn make_segment(&self, flags: TcpFlags, seq: SeqNum, payload: Bytes) -> TcpSegment {
        TcpSegment {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: self.recv_buf.window(),
            payload,
        }
    }

    /// Transmits as much buffered data as MSS, the peer window, Nagle and
    /// CORK permit; then emits the FIN if a close is pending and the buffer
    /// has drained. Appends the segments to `out`.
    fn pump(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        loop {
            if self.send_buf.unsent_len() == 0 {
                break;
            }
            let inflight = (self.snd_nxt - self.snd_una) as usize;
            let wnd_avail = (self.peer_window as usize).saturating_sub(inflight);
            if wnd_avail == 0 {
                // Zero-window: probe with one byte if nothing is in flight
                // (this doubles as the persist timer via normal RTO backoff).
                if inflight == 0 {
                    if let Some(data) = self.send_buf.take_packet(1) {
                        let seq = self.snd_nxt;
                        self.send_buf.record_sent(seq, data.clone(), now);
                        self.snd_nxt += data.len() as u32;
                        out.push(self.make_segment(TcpFlags::ACK, seq, data));
                        self.arm_rtx(now);
                    }
                }
                break;
            }
            let unsent = self.send_buf.unsent_len();
            if unsent < self.cfg.mss && unsent <= wnd_avail {
                // A partial segment: CORK always holds it back; Nagle holds
                // it back while data is in flight.
                if self.cork {
                    break;
                }
                if !self.nodelay && inflight > 0 {
                    break;
                }
            }
            let max = self.cfg.mss.min(wnd_avail);
            let Some(data) = self.send_buf.take_packet(max) else {
                break;
            };
            let seq = self.snd_nxt;
            self.send_buf.record_sent(seq, data.clone(), now);
            self.snd_nxt += data.len() as u32;
            out.push(self.make_segment(TcpFlags::ACK, seq, data));
            if self.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
        }
        // Pending close: emit FIN once everything has been transmitted.
        if self.close_pending && self.send_buf.is_empty() && self.fin_seq.is_none() {
            let fin_seq = self.snd_nxt;
            self.fin_seq = Some(fin_seq);
            self.snd_nxt += 1;
            self.state = match self.state {
                TcpState::Established | TcpState::SynRcvd => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
            out.push(self.make_segment(TcpFlags::FIN_ACK, fin_seq, Bytes::new()));
            self.arm_rtx(now);
        }
    }
}

#[cfg(test)]
mod tests;
