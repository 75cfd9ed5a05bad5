//! The simulated network substrate of the Cruz reproduction.
//!
//! This crate is a from-scratch, deterministic implementation of the network
//! layers the paper's mechanisms touch:
//!
//! * [`addr`] — MAC / IPv4 / socket addressing;
//! * [`frame`] — Ethernet frames and the IPv4 packets they carry;
//! * [`switch`] + [`link`] — a learning switch and bandwidth/latency link
//!   timing (calibrated to the paper's gigabit testbed);
//! * [`arp`] — resolution and the gratuitous announcements migration uses;
//! * [`dhcp`] — leases keyed on the payload `chaddr`, the property the
//!   paper's fake-MAC trick (§4.2) exploits;
//! * [`tcp`] — a full TCP with sequence numbers, send/receive buffers,
//!   packet-boundary tracking, Nagle/`TCP_CORK`, retransmission with
//!   exponential backoff, and §4.1-style connection snapshot/restore;
//! * [`udp`] — datagrams for DHCP and the checkpoint control plane;
//! * [`filter`] — the netfilter-analogue drop rules the coordinated
//!   checkpoint protocol (§5) installs;
//! * [`stack`] — the per-host stack tying it all together, including VIF
//!   (virtual interface) management for pods.
//!
//! All protocol engines are pure, time-explicit state machines: the `cluster`
//! crate wires them to the discrete-event loop.

#![warn(missing_docs)]

pub mod addr;
pub mod arp;
pub mod dhcp;
pub mod filter;
pub mod frame;
pub mod link;
pub mod stack;
pub mod switch;
pub mod tcp;
pub mod udp;

pub use addr::{IpAddr, MacAddr, SockAddr};
pub use frame::{EthFrame, EthPayload, Ipv4Packet, L4};
pub use stack::{NetError, NetStack, RecvOutcome, SockEvent, SockSnapshot, SocketId};
pub use tcp::buffer::take_front;
pub use tcp::{Tcb, TcpConfig, TcpSegment, TcpSnapshot, TcpState};
