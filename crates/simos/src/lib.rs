//! The simulated per-node operating system of the Cruz reproduction.
//!
//! Each cluster node runs one [`kernel::Kernel`]: a small but complete OS
//! with processes and threads ([`proc`]), paged virtual memory ([`mem`]),
//! file descriptors ([`fd`]), pipes ([`pipe`]), System-V shared memory and
//! semaphores ([`sem`], [`mem::SharedSeg`]), signals, sockets backed by the
//! `simnet` stack, a network filesystem ([`fs`]) and a timed disk
//! ([`disk`]). Guest applications are `simcpu` programs loaded through
//! [`program::Program`] and run under a round-robin scheduler with
//! restartable blocking syscalls.
//!
//! The kernel is deliberately unaware of pods and checkpointing: the `zap`
//! crate layers those on through the [`syscall::SyscallHook`] interposition
//! slot and the kernel's public object tables, mirroring how the paper's
//! Zap is a loadable module on an unmodified Linux kernel.

#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod fd;
pub mod fs;
pub mod guest;
pub mod kernel;
pub mod mem;
pub mod pipe;
pub mod proc;
pub mod program;
pub mod sem;
pub mod syscall;

pub use disk::{Disk, DiskParams};
pub use error::Errno;
pub use fs::NetFs;
pub use kernel::{Kernel, KernelParams, SliceOutcome};
pub use mem::AddressSpace;
pub use proc::{Pid, ProcState, Process, WaitFor};
pub use program::Program;
