//! The coordination wire protocol (Fig. 2 / Fig. 4 of the paper).
//!
//! Messages ride UDP datagrams on the simulated network, so coordination
//! overhead is *measured* — it includes real link serialization, switch
//! hops and per-message CPU costs — rather than synthesized.

use std::fmt;

/// Which coordination protocol variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolMode {
    /// Fig. 2: nodes stay blocked until *all* nodes finished saving.
    Blocking,
    /// Fig. 4: each node resumes as soon as communication is disabled
    /// everywhere and its own save completed.
    Optimized,
}

/// Whether an operation saves or restores state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Coordinated checkpoint.
    Checkpoint,
    /// Coordinated restart.
    Restart,
}

/// A control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlMsg {
    /// Coordinator → agent: begin the operation for `epoch`.
    Start {
        /// Operation kind.
        kind: OpKind,
        /// Checkpoint epoch number.
        epoch: u64,
        /// Protocol variant in use.
        mode: ProtocolMode,
        /// Copy-on-write mode (§5.2 optimization): `done` is sent as soon
        /// as the state is *captured*; a later `durable` reports the image
        /// safely on disk and gates the commit.
        cow: bool,
    },
    /// Agent → coordinator: communication is disabled (optimized mode only).
    CommDisabled {
        /// Epoch.
        epoch: u64,
    },
    /// Agent → coordinator: local save/restore completed.
    Done {
        /// Epoch.
        epoch: u64,
    },
    /// Coordinator → agent: resume execution and re-enable communication.
    Continue {
        /// Epoch.
        epoch: u64,
    },
    /// Agent → coordinator: resumed; communication re-enabled.
    ContinueDone {
        /// Epoch.
        epoch: u64,
    },
    /// Agent → coordinator (COW mode): the captured image reached stable
    /// storage; commit may proceed.
    Durable {
        /// Epoch.
        epoch: u64,
    },
    /// Coordinator → agent: abandon the operation; roll back local effects.
    Abort {
        /// Epoch.
        epoch: u64,
    },
    /// Coordinator → agent: liveness probe (recovery manager heartbeat).
    /// The `seq` field rides the epoch slot of the wire format.
    Ping {
        /// Heartbeat sequence number.
        seq: u64,
    },
    /// Agent → coordinator: liveness reply echoing the probe's sequence.
    Pong {
        /// Heartbeat sequence number.
        seq: u64,
    },
}

impl CtlMsg {
    /// The epoch this message belongs to.
    pub fn epoch(&self) -> u64 {
        match self {
            CtlMsg::Start { epoch, .. }
            | CtlMsg::CommDisabled { epoch }
            | CtlMsg::Done { epoch }
            | CtlMsg::Continue { epoch }
            | CtlMsg::ContinueDone { epoch }
            | CtlMsg::Durable { epoch }
            | CtlMsg::Abort { epoch } => *epoch,
            CtlMsg::Ping { seq } | CtlMsg::Pong { seq } => *seq,
        }
    }

    /// Serializes to a datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(11);
        match self {
            CtlMsg::Start {
                kind,
                epoch,
                mode,
                cow,
            } => {
                v.push(0);
                v.extend_from_slice(&epoch.to_le_bytes());
                v.push(match kind {
                    OpKind::Checkpoint => 0,
                    OpKind::Restart => 1,
                });
                v.push(match mode {
                    ProtocolMode::Blocking => 0,
                    ProtocolMode::Optimized => 1,
                });
                v.push(*cow as u8);
            }
            CtlMsg::CommDisabled { epoch } => {
                v.push(1);
                v.extend_from_slice(&epoch.to_le_bytes());
            }
            CtlMsg::Done { epoch } => {
                v.push(2);
                v.extend_from_slice(&epoch.to_le_bytes());
            }
            CtlMsg::Continue { epoch } => {
                v.push(3);
                v.extend_from_slice(&epoch.to_le_bytes());
            }
            CtlMsg::ContinueDone { epoch } => {
                v.push(4);
                v.extend_from_slice(&epoch.to_le_bytes());
            }
            CtlMsg::Abort { epoch } => {
                v.push(5);
                v.extend_from_slice(&epoch.to_le_bytes());
            }
            CtlMsg::Durable { epoch } => {
                v.push(6);
                v.extend_from_slice(&epoch.to_le_bytes());
            }
            CtlMsg::Ping { seq } => {
                v.push(7);
                v.extend_from_slice(&seq.to_le_bytes());
            }
            CtlMsg::Pong { seq } => {
                v.push(8);
                v.extend_from_slice(&seq.to_le_bytes());
            }
        }
        v
    }

    /// Parses a datagram payload. Only the exact encoding decodes: the
    /// payload is as long as its tag's encoding (12 bytes for `Start`, 9
    /// for the rest) and every flag byte is one [`CtlMsg::encode`] writes,
    /// so an accepted payload re-encodes to the same bytes.
    pub fn decode(bytes: &[u8]) -> Option<CtlMsg> {
        let len = if bytes.first() == Some(&0) { 12 } else { 9 };
        if bytes.len() != len {
            return None;
        }
        let epoch = u64::from_le_bytes(bytes[1..9].try_into().ok()?);
        Some(match bytes[0] {
            0 => {
                let kind = match bytes[9] {
                    0 => OpKind::Checkpoint,
                    1 => OpKind::Restart,
                    _ => return None,
                };
                let mode = match bytes[10] {
                    0 => ProtocolMode::Blocking,
                    1 => ProtocolMode::Optimized,
                    _ => return None,
                };
                let cow = match bytes[11] {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                CtlMsg::Start {
                    kind,
                    epoch,
                    mode,
                    cow,
                }
            }
            1 => CtlMsg::CommDisabled { epoch },
            2 => CtlMsg::Done { epoch },
            3 => CtlMsg::Continue { epoch },
            4 => CtlMsg::ContinueDone { epoch },
            5 => CtlMsg::Abort { epoch },
            6 => CtlMsg::Durable { epoch },
            7 => CtlMsg::Ping { seq: epoch },
            8 => CtlMsg::Pong { seq: epoch },
            _ => return None,
        })
    }
}

impl fmt::Display for CtlMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlMsg::Start {
                kind,
                epoch,
                mode,
                cow,
            } => {
                write!(f, "<start {kind:?} epoch={epoch} {mode:?} cow={cow}>")
            }
            CtlMsg::CommDisabled { epoch } => write!(f, "<comm-disabled epoch={epoch}>"),
            CtlMsg::Done { epoch } => write!(f, "<done epoch={epoch}>"),
            CtlMsg::Continue { epoch } => write!(f, "<continue epoch={epoch}>"),
            CtlMsg::ContinueDone { epoch } => write!(f, "<continue-done epoch={epoch}>"),
            CtlMsg::Abort { epoch } => write!(f, "<abort epoch={epoch}>"),
            CtlMsg::Durable { epoch } => write!(f, "<durable epoch={epoch}>"),
            CtlMsg::Ping { seq } => write!(f, "<ping seq={seq}>"),
            CtlMsg::Pong { seq } => write!(f, "<pong seq={seq}>"),
        }
    }
}

/// The UDP port agents listen on.
pub const AGENT_PORT: u16 = 7770;
/// The UDP port the coordinator listens on: every node binds it once,
/// and every operation and heartbeat round coordinated on the node sends
/// from it and receives its replies on it, told apart by epoch.
pub const COORD_PORT: u16 = 7771;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn codec_round_trips() {
        let msgs = [
            CtlMsg::Start {
                kind: OpKind::Checkpoint,
                epoch: 3,
                mode: ProtocolMode::Blocking,
                cow: false,
            },
            CtlMsg::Start {
                kind: OpKind::Restart,
                epoch: 9,
                mode: ProtocolMode::Optimized,
                cow: true,
            },
            CtlMsg::CommDisabled { epoch: 1 },
            CtlMsg::Done { epoch: 2 },
            CtlMsg::Continue { epoch: 3 },
            CtlMsg::ContinueDone { epoch: 4 },
            CtlMsg::Durable { epoch: 6 },
            CtlMsg::Abort { epoch: 5 },
            CtlMsg::Ping { seq: 77 },
            CtlMsg::Pong { seq: 78 },
        ];
        for m in msgs {
            assert_eq!(CtlMsg::decode(&m.encode()), Some(m));
            assert_eq!(m.epoch(), m.epoch());
        }
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(CtlMsg::decode(&[]), None);
        assert_eq!(CtlMsg::decode(&[9; 12]), None);
        assert_eq!(CtlMsg::decode(&[0, 0, 0, 0, 0, 0, 0, 0, 0]), None); // start too short
        let mut done = CtlMsg::Done { epoch: 4 }.encode();
        done.push(0);
        assert_eq!(CtlMsg::decode(&done), None, "trailing junk");
        let mut start = CtlMsg::Start {
            kind: OpKind::Checkpoint,
            epoch: 3,
            mode: ProtocolMode::Blocking,
            cow: true,
        }
        .encode();
        start[11] = 2;
        assert_eq!(CtlMsg::decode(&start), None, "cow byte other than 0 or 1");
    }

    /// The message with wire tag `tag`, its `Start` fields drawn from the
    /// low bits of `flags`.
    fn message(tag: u8, epoch: u64, flags: u8) -> CtlMsg {
        match tag {
            0 => CtlMsg::Start {
                kind: [OpKind::Checkpoint, OpKind::Restart][usize::from(flags & 1)],
                epoch,
                mode: [ProtocolMode::Blocking, ProtocolMode::Optimized]
                    [usize::from(flags >> 1 & 1)],
                cow: flags & 4 != 0,
            },
            1 => CtlMsg::CommDisabled { epoch },
            2 => CtlMsg::Done { epoch },
            3 => CtlMsg::Continue { epoch },
            4 => CtlMsg::ContinueDone { epoch },
            5 => CtlMsg::Abort { epoch },
            6 => CtlMsg::Durable { epoch },
            7 => CtlMsg::Ping { seq: epoch },
            _ => CtlMsg::Pong { seq: epoch },
        }
    }

    /// The decoder contract: `bytes` is rejected, or it re-encodes to
    /// exactly itself.
    fn canonical(bytes: &[u8]) -> bool {
        CtlMsg::decode(bytes).is_none_or(|m| m.encode() == bytes)
    }

    // `decode` parses real UDP datagrams: arbitrary bytes never panic, and
    // no payload but a message's own encoding decodes to it.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn accepted_datagrams_re_encode_byte_identically(
            // Small bytes make valid tags and flags, hence accepted
            // payloads, common.
            bytes in proptest::collection::vec(prop_oneof![0u8..3, any::<u8>()], 0..16),
        ) {
            prop_assert!(canonical(&bytes), "{bytes:?} decodes to another encoding");
        }

        #[test]
        fn damaged_messages_are_rejected_or_canonical(
            tag in 0u8..9,
            epoch in any::<u64>(),
            flags in 0u8..8,
            at in any::<usize>(),
            bit in 0u8..8,
            keep in any::<usize>(),
            extra in proptest::collection::vec(any::<u8>(), 1..8),
        ) {
            let bytes = message(tag, epoch, flags).encode();
            prop_assert_eq!(CtlMsg::decode(&bytes), Some(message(tag, epoch, flags)));
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= 1 << bit;
            prop_assert!(canonical(&flipped), "bit flip {flipped:?}");
            prop_assert!(canonical(&bytes[..keep % bytes.len()]), "truncation");
            let extended = [&bytes[..], &extra].concat();
            prop_assert!(canonical(&extended), "extension {extended:?}");
        }
    }
}
