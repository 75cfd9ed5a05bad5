//! The decoder contract of `DhcpMessage::decode`, which parses UDP
//! payloads off the simulated wire:
//!
//! * arbitrary bytes never panic;
//! * a decode allocates at most its input's length;
//! * a valid encoding mutated by a bit flip, a byte replacement, a
//!   truncation or an extension is either refused or decodes to a message
//!   that re-encodes to exactly those bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use simnet::addr::{IpAddr, MacAddr};
use simnet::dhcp::{DhcpMessage, DhcpOp};

/// The system allocator, counting the bytes each thread requests.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the only extra work
// is a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Decodes `bytes`, returning the message and the bytes the decode
/// allocated.
fn decode(bytes: &[u8]) -> (Option<DhcpMessage>, usize) {
    let before = REQUESTED.with(Cell::get);
    let msg = DhcpMessage::decode(bytes);
    (msg, REQUESTED.with(Cell::get) - before)
}

/// The contract on one payload: the decode stays within its input's
/// length, and refuses the payload or re-encodes to exactly it.
fn contract_holds(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (msg, allocated) = decode(bytes);
    prop_assert!(allocated <= bytes.len(), "{allocated} bytes for {bytes:?}");
    if let Some(m) = msg {
        prop_assert_eq!(&m.encode()[..], bytes, "decoded to another encoding");
    }
    Ok(())
}

const OPS: [DhcpOp; 6] = [
    DhcpOp::Discover,
    DhcpOp::Offer,
    DhcpOp::Request,
    DhcpOp::Ack,
    DhcpOp::Nak,
    DhcpOp::Release,
];

fn arb_message() -> impl Strategy<Value = DhcpMessage> {
    (0..OPS.len(), any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(op, xid, mac, ip)| {
        DhcpMessage {
            op: OPS[op],
            xid,
            chaddr: MacAddr::new(mac.to_le_bytes()[..6].try_into().expect("6 bytes")),
            yiaddr: IpAddr::from_bits(ip),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_payloads_are_refused_or_canonical(
        // Sixteen small bytes make a valid type and a zero pad, hence an
        // accepted payload, common.
        bytes in prop_oneof![
            proptest::collection::vec(0u8..8, 16),
            proptest::collection::vec(any::<u8>(), 0..40),
        ],
    ) {
        contract_holds(&bytes)?;
    }

    #[test]
    fn damaged_messages_are_refused_or_canonical(
        msg in arb_message(),
        at in any::<usize>(),
        bit in 0u8..8,
        byte in any::<u8>(),
        keep in any::<usize>(),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let bytes = msg.encode().to_vec();
        prop_assert_eq!(decode(&bytes).0, Some(msg));
        let at = at % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        contract_holds(&flipped)?;
        let mut replaced = bytes.clone();
        replaced[at] = byte;
        contract_holds(&replaced)?;
        contract_holds(&bytes[..keep % bytes.len()])?;
        contract_holds(&[&bytes[..], &extra].concat())?;
    }
}
