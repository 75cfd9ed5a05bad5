//! Processes and threads.

use std::cell::RefCell;
use std::rc::Rc;

use des::SimTime;
use simcpu::cpu::Cpu;
use simnet::stack::SocketId;

use crate::fd::{FdTable, PipeId};
use crate::mem::AddressSpace;
use crate::sem::SemId;

/// A process identifier (real, host-level; pods expose virtual PIDs).
pub type Pid = u32;

/// What a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitFor {
    /// Socket has data (or EOF) to read.
    SockReadable(SocketId),
    /// Socket has send-buffer space.
    SockWritable(SocketId),
    /// Listener has an established connection.
    SockAccept(SocketId),
    /// Connect completed.
    SockConnect(SocketId),
    /// Pipe has data or a closed write end.
    PipeReadable(PipeId),
    /// Pipe has space or a closed read end.
    PipeWritable(PipeId),
    /// Semaphore can be decremented.
    Sem {
        /// The semaphore set.
        id: SemId,
        /// Index within the set.
        idx: u32,
    },
    /// A sleep deadline.
    SleepUntil(SimTime),
    /// A child process exiting.
    Child(Pid),
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable.
    Ready,
    /// Waiting for an event; a pending syscall will be retried on wake.
    Blocked(WaitFor),
    /// Stopped by `SIGSTOP` (checkpoint freeze); remembers the state to
    /// resume into.
    Stopped {
        /// The state to restore on `SIGCONT`.
        resume_to: Box<ProcState>,
    },
    /// Exited; holds the exit code until reaped.
    Zombie(u64),
}

impl ProcState {
    /// True if the scheduler may run this process.
    pub fn is_ready(&self) -> bool {
        matches!(self, ProcState::Ready)
    }

    /// True once exited.
    pub fn is_zombie(&self) -> bool {
        matches!(self, ProcState::Zombie(_))
    }

    /// True while frozen by `SIGSTOP`.
    pub fn is_stopped(&self) -> bool {
        matches!(self, ProcState::Stopped { .. })
    }
}

/// A syscall that blocked and will be re-executed when its wait condition
/// is satisfied (the restartable-syscall model checkpoint/restore relies
/// on: a process checkpointed mid-block simply re-issues the call after
/// restore).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingSyscall {
    /// Syscall number.
    pub num: u64,
    /// The five argument registers at the time of the call.
    pub args: [u64; 5],
}

/// A process (or thread: threads share `mem` and `fds` with their group).
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id (0 for roots).
    pub parent: Pid,
    /// CPU register state.
    pub cpu: Cpu,
    /// Address space, shared among a thread group.
    pub mem: Rc<RefCell<AddressSpace>>,
    /// Descriptor table, shared among a thread group.
    pub fds: Rc<RefCell<FdTable>>,
    /// Scheduler state.
    pub state: ProcState,
    /// Blocked syscall to retry on wake.
    pub pending: Option<PendingSyscall>,
    /// Lines written to the console descriptor.
    pub console: Vec<String>,
    /// Identifier of the shared address-space group (equal to the group
    /// leader's pid); used by checkpoint to save shared state once.
    pub group: Pid,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(ProcState::Ready.is_ready());
        assert!(!ProcState::Zombie(0).is_ready());
        assert!(ProcState::Zombie(1).is_zombie());
        let stopped = ProcState::Stopped {
            resume_to: Box::new(ProcState::Ready),
        };
        assert!(stopped.is_stopped());
        assert!(!stopped.is_ready());
    }
}
