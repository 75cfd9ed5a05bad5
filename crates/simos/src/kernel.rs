//! The per-node kernel: processes, scheduler, syscalls, and the
//! interposition hook.
//!
//! The kernel is the "standard operating system" of the paper's title: it
//! knows nothing about pods or checkpointing. The Zap layer attaches from
//! the outside through two sanctioned extension points — the
//! [`SyscallHook`] slot (a loadable-module analogue) and the public object
//! tables (processes, pipes, semaphores, shared memory, network stack) that
//! a kernel module could reach.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use des::{SimDuration, SimTime};
use simcpu::cpu::{Cpu, StepOutcome};
use simcpu::isa::{R0, R1, R2, R3, R4, R5};
use simnet::stack::{NetStack, SockEvent, SocketId};

use crate::disk::Disk;
use crate::error::Errno;
use crate::fd::{Desc, Fd, FdTable, PipeEnd};
use crate::fs::NetFs;
use crate::mem::{AddressSpace, SharedSeg, SHM_MAX_BYTES};
use crate::pipe::{Pipe, PipeTable};
use crate::proc::{PendingSyscall, Pid, ProcState, Process, WaitFor};
use crate::program::{Program, ProgramError};
use crate::sem::{SemId, SemTable};
use crate::syscall::{ioctl, nr, sig, HookDecision, SyscallHook};

mod socket;

/// Kernel timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct KernelParams {
    /// Simulated cost of one guest instruction.
    pub inst_time: SimDuration,
    /// Fixed overhead of entering/leaving the kernel for a syscall.
    pub syscall_time: SimDuration,
    /// Extra per-syscall cost while an interposition hook is installed (the
    /// virtualization-layer overhead the paper reports as < 0.5 %).
    pub hook_overhead: SimDuration,
    /// Scheduler quantum in instructions.
    pub quantum: u64,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            // A 1 GHz single-issue CPU, matching the paper's testbed scale.
            inst_time: SimDuration::from_nanos(1),
            syscall_time: SimDuration::from_nanos(500),
            hook_overhead: SimDuration::from_nanos(150),
            quantum: 20_000,
        }
    }
}

/// Result of one scheduler slice.
#[derive(Debug, Clone, Copy)]
pub struct SliceOutcome {
    /// Whether any process ran.
    pub ran: bool,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
}

enum Outcome {
    /// Syscall finished with a return value.
    Ret(u64),
    /// Block and retry the syscall when the wait is satisfied.
    Block(WaitFor),
    /// Block without retry; `r0` gets the value now (used by `sleep`).
    BlockNoRetry(WaitFor, u64),
    /// Yield the CPU, returning the value.
    Yield(u64),
    /// The process exited.
    Exited,
}

impl From<Result<u64, Errno>> for Outcome {
    fn from(r: Result<u64, Errno>) -> Self {
        match r {
            Ok(v) => Outcome::Ret(v),
            Err(e) => Outcome::Ret(e.to_ret()),
        }
    }
}

/// The per-node operating system kernel.
pub struct Kernel {
    /// The network stack (public: the Zap layer manages VIFs and the
    /// checkpoint agent installs filter rules here).
    pub net: NetStack,
    /// The network filesystem mount.
    pub fs: NetFs,
    /// The local disk used for checkpoint I/O timing.
    pub disk: Disk,
    /// Pipe table (public for checkpoint extraction).
    pub pipes: PipeTable,
    /// Semaphore table (public for checkpoint extraction).
    pub sems: SemTable,

    shm_by_key: BTreeMap<u64, SharedSeg>,
    shm_by_id: BTreeMap<u64, SharedSeg>,
    next_shm: u64,

    procs: BTreeMap<Pid, Process>,
    run_queue: VecDeque<Pid>,
    next_pid: Pid,
    params: KernelParams,
    hook: Option<Rc<RefCell<dyn SyscallHook>>>,
    /// Scratch for the readiness events one wake pass handles, reused pass
    /// to pass.
    wakes: Vec<SockEvent>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("procs", &self.procs.len())
            .field("runnable", &self.run_queue.len())
            .field("net", &self.net)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel with the given network stack and filesystem mount.
    pub fn new(net: NetStack, fs: NetFs, disk: Disk, params: KernelParams) -> Self {
        Kernel {
            net,
            fs,
            disk,
            pipes: PipeTable::new(),
            sems: SemTable::new(),
            shm_by_key: BTreeMap::new(),
            shm_by_id: BTreeMap::new(),
            next_shm: 1,
            procs: BTreeMap::new(),
            run_queue: VecDeque::new(),
            next_pid: 1,
            params,
            hook: None,
            wakes: Vec::new(),
        }
    }

    /// The kernel's timing parameters.
    pub fn params(&self) -> KernelParams {
        self.params
    }

    /// Installs the syscall interposition hook (at most one).
    pub fn set_hook(&mut self, hook: Rc<RefCell<dyn SyscallHook>>) {
        self.hook = Some(hook);
    }

    // ---- process management ------------------------------------------------

    /// Loads `program` into a fresh address space and schedules it.
    ///
    /// # Errors
    ///
    /// Propagates loader failures.
    pub fn spawn(&mut self, program: &Program) -> Result<Pid, ProgramError> {
        let mut space = AddressSpace::new();
        let sp = program.load_into(&mut space)?;
        let pid = self.alloc_pid();
        let mut cpu = Cpu::new(program.entry);
        cpu.set_reg(simcpu::isa::SP, sp);
        let proc = Process {
            pid,
            parent: 0,
            cpu,
            mem: Rc::new(RefCell::new(space)),
            fds: Rc::new(RefCell::new(FdTable::new())),
            state: ProcState::Ready,
            pending: None,
            console: Vec::new(),
            group: pid,
        };
        self.procs.insert(pid, proc);
        self.run_queue.push_back(pid);
        Ok(pid)
    }

    /// Inserts a fully-constructed process (the restore path). The caller
    /// is responsible for its state being consistent.
    pub fn insert_process(&mut self, proc: Process) -> Pid {
        let pid = proc.pid;
        assert!(
            !self.procs.contains_key(&pid),
            "pid {pid} already exists on this kernel"
        );
        let ready = proc.state.is_ready();
        self.procs.insert(pid, proc);
        if ready {
            self.run_queue.push_back(pid);
        }
        pid
    }

    /// Allocates a fresh pid (also used by the restore path, which maps
    /// virtual pids to whatever this returns).
    pub fn alloc_pid(&mut self) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// Looks up a process.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Mutable process lookup.
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// All live pids.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// Removes a process without running exit paths (checkpoint teardown
    /// after migration). Sockets and pipes are left to the caller.
    pub fn remove_process(&mut self, pid: Pid) -> Option<Process> {
        self.procs.remove(&pid)
    }

    /// Marks a process runnable (restore/SIGCONT path).
    pub fn make_ready(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.state = ProcState::Ready;
            self.run_queue.push_back(pid);
        }
    }

    /// Sends a signal.
    ///
    /// # Errors
    ///
    /// [`Errno::Srch`] if the process does not exist.
    pub fn signal(&mut self, pid: Pid, signal: u64, now: SimTime) -> Result<(), Errno> {
        if !self.procs.contains_key(&pid) {
            return Err(Errno::Srch);
        }
        match signal {
            sig::SIGSTOP => {
                let p = self.procs.get_mut(&pid).expect("checked");
                if !p.state.is_stopped() && !p.state.is_zombie() {
                    let prev = std::mem::replace(&mut p.state, ProcState::Ready);
                    p.state = ProcState::Stopped {
                        resume_to: Box::new(prev),
                    };
                }
            }
            sig::SIGCONT => {
                let p = self.procs.get_mut(&pid).expect("checked");
                if let ProcState::Stopped { resume_to } = &p.state {
                    // Timer waits resume exactly (they have no retryable
                    // pending syscall); every other wait wakes conservatively
                    // to Ready — its pending syscall retries and re-blocks if
                    // the condition still does not hold, so no wakeup can be
                    // lost across the stop.
                    match **resume_to {
                        ProcState::Blocked(WaitFor::SleepUntil(t)) => {
                            p.state = ProcState::Blocked(WaitFor::SleepUntil(t));
                        }
                        _ => {
                            p.state = ProcState::Ready;
                            self.run_queue.push_back(pid);
                        }
                    }
                }
            }
            sig::SIGKILL | sig::SIGTERM => {
                self.exit_process(pid, 128 + signal, now);
            }
            _ => return Err(Errno::Inval),
        }
        Ok(())
    }

    /// True if any process can run right now.
    pub fn has_runnable(&self) -> bool {
        self.procs.values().any(|p| p.state.is_ready())
    }

    /// Count of live (non-zombie) processes.
    pub fn live_processes(&self) -> usize {
        self.procs.values().filter(|p| !p.state.is_zombie()).count()
    }

    /// The earliest kernel timer: sleeping processes or protocol timers.
    pub fn next_timer(&self) -> Option<SimTime> {
        let sleep = self
            .procs
            .values()
            .filter_map(|p| match p.state {
                ProcState::Blocked(WaitFor::SleepUntil(t)) => Some(t),
                _ => None,
            })
            .min();
        match (sleep, self.net.next_timer()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fires due timers: wakes sleepers and runs protocol timers.
    pub fn on_tick(&mut self, now: SimTime) {
        let due: Vec<Pid> = self
            .procs
            .iter()
            .filter_map(|(&pid, p)| match p.state {
                ProcState::Blocked(WaitFor::SleepUntil(t)) if t <= now => Some(pid),
                _ => None,
            })
            .collect();
        for pid in due {
            self.make_ready(pid);
        }
        self.net.on_timer(now);
        self.process_net_wakes();
    }

    /// Delivers a frame from the wire.
    pub fn on_frame(&mut self, frame: simnet::EthFrame, now: SimTime) {
        self.net.on_frame(frame, now);
        self.process_net_wakes();
    }

    /// Drains frames the stack queued for transmission, in order.
    pub fn take_frames(&mut self) -> std::vec::Drain<'_, simnet::EthFrame> {
        self.net.take_outgoing()
    }

    /// Converts network readiness events into process wakeups.
    pub fn process_net_wakes(&mut self) {
        let mut wakes = std::mem::take(&mut self.wakes);
        wakes.extend(self.net.take_wakes());
        for &ev in &wakes {
            let matches = |w: &WaitFor| match (ev, w) {
                (SockEvent::Readable(s), WaitFor::SockReadable(t)) => s == *t,
                (SockEvent::Writable(s), WaitFor::SockWritable(t)) => s == *t,
                (SockEvent::Acceptable(s), WaitFor::SockAccept(t)) => s == *t,
                (SockEvent::Connected(s), WaitFor::SockConnect(t)) => s == *t,
                _ => false,
            };
            self.wake_matching(&matches);
        }
        wakes.clear();
        self.wakes = wakes;
    }

    /// Makes every process blocked on a wait `pred` accepts ready, in pid
    /// order.
    fn wake_matching(&mut self, pred: &dyn Fn(&WaitFor) -> bool) {
        for (&pid, p) in self.procs.iter_mut() {
            if matches!(&p.state, ProcState::Blocked(w) if pred(w)) {
                p.state = ProcState::Ready;
                self.run_queue.push_back(pid);
            }
        }
    }

    // ---- scheduling --------------------------------------------------------

    /// Runs one scheduler slice at `now`: at most one process, for at most
    /// one quantum. Returns how much simulated time passed.
    pub fn run_slice(&mut self, now: SimTime) -> SliceOutcome {
        let pid = loop {
            let Some(pid) = self.run_queue.pop_front() else {
                return SliceOutcome {
                    ran: false,
                    elapsed: SimDuration::ZERO,
                };
            };
            match self.procs.get(&pid) {
                Some(p) if p.state.is_ready() => break pid,
                _ => continue, // stale queue entry
            }
        };
        let mut elapsed = SimDuration::ZERO;

        // Retry a pending (blocked) syscall before touching the CPU.
        if let Some(ps) = self.procs.get(&pid).and_then(|p| p.pending) {
            elapsed += self.syscall_cost();
            match self.dispatch(pid, ps.num, ps.args, now) {
                Outcome::Ret(v) => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.pending = None;
                        p.cpu.set_reg(R0, v);
                    }
                }
                Outcome::Block(w) => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.state = ProcState::Blocked(w);
                    }
                    return SliceOutcome { ran: true, elapsed };
                }
                Outcome::BlockNoRetry(w, v) => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.pending = None;
                        p.cpu.set_reg(R0, v);
                        p.state = ProcState::Blocked(w);
                    }
                    return SliceOutcome { ran: true, elapsed };
                }
                Outcome::Yield(v) => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.pending = None;
                        p.cpu.set_reg(R0, v);
                    }
                    self.run_queue.push_back(pid);
                    return SliceOutcome { ran: true, elapsed };
                }
                Outcome::Exited => {
                    return SliceOutcome { ran: true, elapsed };
                }
            }
        }

        // Execute guest instructions.
        let mut budget = self.params.quantum;
        while budget > 0 {
            let (steps, outcome) = {
                let p = self.procs.get_mut(&pid).expect("scheduled process exists");
                let mem = p.mem.clone();
                let mut mem = mem.borrow_mut();
                match p.cpu.run(&mut *mem, budget) {
                    Ok(r) => r,
                    Err(fault) => {
                        drop(mem);
                        p.console.push(format!("FAULT: {fault}"));
                        self.exit_process(pid, 139, now);
                        return SliceOutcome { ran: true, elapsed };
                    }
                }
            };
            elapsed += self.params.inst_time * steps;
            budget = budget.saturating_sub(steps.max(1));
            match outcome {
                StepOutcome::Continue => {
                    // Quantum exhausted; the final requeue below reschedules.
                    break;
                }
                StepOutcome::Halted => {
                    self.exit_process(pid, 0, now);
                    break;
                }
                StepOutcome::Syscall => {
                    let (num, args) = {
                        let p = self.procs.get(&pid).expect("exists");
                        (
                            p.cpu.reg(R0),
                            [
                                p.cpu.reg(R1),
                                p.cpu.reg(R2),
                                p.cpu.reg(R3),
                                p.cpu.reg(R4),
                                p.cpu.reg(R5),
                            ],
                        )
                    };
                    elapsed += self.syscall_cost();
                    match self.dispatch(pid, num, args, now) {
                        Outcome::Ret(v) => {
                            if let Some(p) = self.procs.get_mut(&pid) {
                                p.cpu.set_reg(R0, v);
                            }
                            // keep running within the quantum
                        }
                        Outcome::Block(w) => {
                            if let Some(p) = self.procs.get_mut(&pid) {
                                p.pending = Some(PendingSyscall { num, args });
                                p.state = ProcState::Blocked(w);
                            }
                            break;
                        }
                        Outcome::BlockNoRetry(w, v) => {
                            if let Some(p) = self.procs.get_mut(&pid) {
                                p.cpu.set_reg(R0, v);
                                p.state = ProcState::Blocked(w);
                            }
                            break;
                        }
                        Outcome::Yield(v) => {
                            if let Some(p) = self.procs.get_mut(&pid) {
                                p.cpu.set_reg(R0, v);
                            }
                            break;
                        }
                        Outcome::Exited => break,
                    }
                }
            }
        }
        // Whatever path left the loop: a process that is still ready must
        // stay schedulable (e.g. a syscall retiring exactly at the quantum
        // boundary must not strand it outside the run queue).
        if self
            .procs
            .get(&pid)
            .map(|p| p.state.is_ready())
            .unwrap_or(false)
        {
            self.run_queue.push_back(pid);
        }
        SliceOutcome { ran: true, elapsed }
    }

    /// Runs slices and timers until no process is runnable and no timer is
    /// pending (or `max_slices` is hit). Returns the finishing time.
    /// Intended for single-node tests; clusters drive the kernel from the
    /// event loop instead.
    pub fn run_to_quiescence(&mut self, mut now: SimTime, max_slices: u64) -> SimTime {
        for _ in 0..max_slices {
            if self.has_runnable() {
                let out = self.run_slice(now);
                now += out.elapsed;
                // Single-node: loop back frames addressed to ourselves is
                // already handled inside the stack; external frames are
                // dropped here.
                let _ = self.take_frames();
                continue;
            }
            match self.next_timer() {
                Some(t) => {
                    now = now.max(t);
                    self.on_tick(now);
                }
                None => break,
            }
        }
        now
    }

    // ---- syscall dispatch ----------------------------------------------------

    fn syscall_cost(&self) -> SimDuration {
        if self.hook.is_some() {
            self.params.syscall_time + self.params.hook_overhead
        } else {
            self.params.syscall_time
        }
    }

    fn dispatch(&mut self, pid: Pid, num: u64, mut args: [u64; 5], now: SimTime) -> Outcome {
        // Interposition hook first (the Zap layer).
        if let Some(hook) = self.hook.clone() {
            match hook.borrow_mut().on_syscall(self, pid, num, args) {
                HookDecision::Pass => {}
                HookDecision::PassArgs(a) => args = a,
                HookDecision::Done(v) => return Outcome::Ret(v),
            }
        }
        match num {
            nr::EXIT => {
                self.exit_process(pid, args[0], now);
                Outcome::Exited
            }
            nr::LOG => self.sys_log(pid, args[0], args[1] as usize),
            nr::GETPID => Outcome::Ret(pid as u64),
            nr::SLEEP => Outcome::BlockNoRetry(
                WaitFor::SleepUntil(now + SimDuration::from_nanos(args[0])),
                0,
            ),
            nr::TIME => Outcome::Ret(now.as_nanos()),
            nr::YIELD => Outcome::Yield(0),
            nr::OPEN => self.sys_open(pid, args[0], args[1] as usize, args[2]),
            nr::CLOSE => self.sys_close(pid, args[0] as Fd, now),
            nr::READ => self.sys_read(pid, args[0] as Fd, args[1], args[2] as usize, now),
            nr::WRITE => self.sys_write(pid, args[0] as Fd, args[1], args[2] as usize, now),
            nr::PIPE => self.sys_pipe(pid, args[0]),
            nr::SOCKET => self.sys_socket(pid, args[0]),
            nr::BIND => self.sys_bind(pid, args[0] as Fd, args[1], args[2]),
            nr::LISTEN => self.sys_listen(pid, args[0] as Fd, args[1] as usize),
            nr::ACCEPT => self.sys_accept(pid, args[0] as Fd),
            nr::CONNECT => self.sys_connect(pid, args[0] as Fd, args[1], args[2], now),
            nr::SEND => self.sys_send(pid, args[0] as Fd, args[1], args[2] as usize, now),
            nr::RECV => self.sys_recv(pid, args[0] as Fd, args[1], args[2] as usize, now),
            nr::SETSOCKOPT => self.sys_setsockopt(pid, args[0] as Fd, args[1], args[2], now),
            nr::GETSOCKOPT => self.sys_getsockopt(pid, args[0] as Fd, args[1]),
            nr::KILL => match self.signal(args[0] as Pid, args[1], now) {
                Ok(()) => Outcome::Ret(0),
                Err(e) => Outcome::Ret(e.to_ret()),
            },
            nr::SHMGET => self.sys_shmget(args[0], args[1]),
            nr::SHMAT => self.sys_shmat(pid, args[0], args[1]),
            nr::SEMGET => self.sys_semget(args[0], args[1] as u32),
            nr::SEMOP => self.sys_semop(args[0], args[1] as u32, args[2] as i64),
            nr::SPAWN => self.sys_spawn(pid, args[0], args[1], args[2]),
            nr::FORK => match self.fork_process(pid) {
                Ok(child) => Outcome::Ret(child as u64),
                Err(e) => Outcome::Ret(e.to_ret()),
            },
            nr::WAITPID => self.sys_waitpid(pid, args[0] as Pid),
            nr::IOCTL => self.sys_ioctl(pid, args[0] as Fd, args[1], args[2]),
            nr::SENDTO => self.sys_sendto(
                pid,
                args[0] as Fd,
                args[1],
                args[2],
                args[3],
                args[4] as usize,
                now,
            ),
            nr::RECVFROM => {
                self.sys_recvfrom(pid, args[0] as Fd, args[1], args[2] as usize, args[3])
            }
            _ => Outcome::Ret(Errno::NoSys.to_ret()),
        }
    }

    // ---- guest memory helpers ----------------------------------------------

    /// Reads guest memory.
    ///
    /// # Errors
    ///
    /// [`Errno::Fault`] on an unmapped range, [`Errno::Srch`] on a bad pid.
    pub fn read_guest(&self, pid: Pid, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        let p = self.procs.get(&pid).ok_or(Errno::Srch)?;
        let read = p.mem.borrow_mut().read_bytes(addr, len);
        read.map_err(|_| Errno::Fault)
    }

    /// Writes guest memory.
    ///
    /// # Errors
    ///
    /// [`Errno::Fault`] on an unmapped range, [`Errno::Srch`] on a bad pid.
    pub fn write_guest(&self, pid: Pid, addr: u64, data: &[u8]) -> Result<(), Errno> {
        let p = self.procs.get(&pid).ok_or(Errno::Srch)?;
        let written = p.mem.borrow_mut().write_bytes(addr, data);
        written.map_err(|_| Errno::Fault)
    }

    /// Checks that `[addr, addr + len)` is mapped in `pid`'s address
    /// space without copying it: the probe a syscall makes before it
    /// consumes bytes it could not give back (a stream read), or before it
    /// copies only part of a buffer (a bounded write).
    ///
    /// # Errors
    ///
    /// [`Errno::Fault`] on an unmapped range, [`Errno::Srch`] on a bad pid.
    pub fn check_guest(&self, pid: Pid, addr: u64, len: usize, write: bool) -> Result<(), Errno> {
        let p = self.procs.get(&pid).ok_or(Errno::Srch)?;
        let mem = p.mem.borrow();
        mem.check_mapped(addr, len, write).map_err(|_| Errno::Fault)
    }

    /// Validates the whole guest buffer `[addr, addr + len)` but copies out
    /// only its first `take` bytes: as much as the destination can accept.
    fn copy_in(&self, pid: Pid, addr: u64, len: usize, take: usize) -> Result<Vec<u8>, Errno> {
        self.check_guest(pid, addr, len, false)?;
        self.read_guest(pid, addr, len.min(take))
    }

    /// Resolves a descriptor to a socket id (used by the Zap interposer).
    pub fn socket_of(&self, pid: Pid, fd: Fd) -> Option<SocketId> {
        match self.procs.get(&pid)?.fds.borrow().get(fd)? {
            Desc::Socket(sid) => Some(*sid),
            _ => None,
        }
    }

    // ---- syscall implementations ---------------------------------------------

    fn with_desc<T>(&self, pid: Pid, fd: Fd, f: impl FnOnce(&Desc) -> T) -> Result<T, Errno> {
        let p = self.procs.get(&pid).ok_or(Errno::Srch)?;
        let fds = p.fds.borrow();
        let d = fds.get(fd).ok_or(Errno::Badf)?;
        Ok(f(d))
    }

    fn sys_log(&mut self, pid: Pid, buf: u64, len: usize) -> Outcome {
        let data = match self.read_guest(pid, buf, len.min(4096)) {
            Ok(d) => d,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let line = String::from_utf8_lossy(&data).into_owned();
        if let Some(p) = self.procs.get_mut(&pid) {
            p.console.push(line);
        }
        Outcome::Ret(len as u64)
    }

    fn sys_open(&mut self, pid: Pid, path_ptr: u64, path_len: usize, flags: u64) -> Outcome {
        let bytes = match self.read_guest(pid, path_ptr, path_len.min(1024)) {
            Ok(b) => b,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        let path = String::from_utf8_lossy(&bytes).into_owned();
        let create = flags & 1 != 0;
        if !self.fs.exists(&path) {
            if create {
                self.fs.write_file(&path, Vec::new());
            } else {
                return Outcome::Ret(Errno::NoEnt.to_ret());
            }
        } else if create {
            self.fs.write_file(&path, Vec::new());
        }
        let p = self.procs.get_mut(&pid).expect("caller exists");
        let fd = p.fds.borrow_mut().insert(Desc::File { path, offset: 0 });
        Outcome::Ret(fd as u64)
    }

    fn sys_close(&mut self, pid: Pid, fd: Fd, now: SimTime) -> Outcome {
        let Some(p) = self.procs.get(&pid) else {
            return Outcome::Ret(Errno::Srch.to_ret());
        };
        let removed = p.fds.borrow_mut().remove(fd);
        match removed {
            None => Outcome::Ret(Errno::Badf.to_ret()),
            Some(Desc::Pipe { id, end }) => {
                self.pipes.drop_ref(id, end == PipeEnd::Write);
                // Closing an end may unblock the other side.
                self.wake_matching(&|w| {
                    matches!(w, WaitFor::PipeReadable(p) if *p == id)
                        || matches!(w, WaitFor::PipeWritable(p) if *p == id)
                });
                Outcome::Ret(0)
            }
            Some(Desc::Socket(sid)) => {
                // Forked copies may still reference this socket.
                let table = self.procs.get(&pid).expect("caller exists").fds.clone();
                let _ = table; // the fd was already removed from this table
                let still_referenced = self.procs.values().any(|p| {
                    p.fds
                        .borrow()
                        .iter()
                        .any(|(_, d)| matches!(d, Desc::Socket(s) if *s == sid))
                });
                if !still_referenced {
                    self.net.close(sid, now);
                    self.process_net_wakes();
                }
                Outcome::Ret(0)
            }
            Some(_) => Outcome::Ret(0),
        }
    }

    fn sys_read(&mut self, pid: Pid, fd: Fd, buf: u64, len: usize, now: SimTime) -> Outcome {
        let desc = match self.with_desc(pid, fd, |d| d.clone()) {
            Ok(d) => d,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        match desc {
            Desc::File { path, offset } => {
                let Some(data) = self.fs.read_at(&path, offset, len) else {
                    return Outcome::Ret(Errno::NoEnt.to_ret());
                };
                if let Err(e) = self.write_guest(pid, buf, &data) {
                    return Outcome::Ret(e.to_ret());
                }
                let n = data.len() as u64;
                if let Some(p) = self.procs.get_mut(&pid) {
                    if let Some(Desc::File { offset, .. }) = p.fds.borrow_mut().get_mut(fd) {
                        *offset += n;
                    }
                }
                Outcome::Ret(n)
            }
            Desc::Pipe {
                id,
                end: PipeEnd::Read,
            } => {
                // Probe before draining, so a fault leaves the bytes queued.
                let ready = self.pipes.get(id).map_or(0, Pipe::len).min(len);
                if let Err(e) = self.check_guest(pid, buf, ready, true) {
                    return Outcome::Ret(e.to_ret());
                }
                let data = self.pipes.read(id, len);
                if !data.is_empty() {
                    if let Err(e) = self.write_guest(pid, buf, &data) {
                        return Outcome::Ret(e.to_ret());
                    }
                    self.wake_matching(&|w| matches!(w, WaitFor::PipeWritable(p) if *p == id));
                    return Outcome::Ret(data.len() as u64);
                }
                match self.pipes.get(id) {
                    Some(p) if p.write_end_closed() => Outcome::Ret(0),
                    Some(_) => Outcome::Block(WaitFor::PipeReadable(id)),
                    None => Outcome::Ret(0),
                }
            }
            Desc::Pipe { .. } => Outcome::Ret(Errno::NotSup.to_ret()),
            Desc::Socket(_) => self.sys_recv(pid, fd, buf, len, now),
            Desc::Console => Outcome::Ret(Errno::NotSup.to_ret()),
        }
    }

    fn sys_write(&mut self, pid: Pid, fd: Fd, buf: u64, len: usize, now: SimTime) -> Outcome {
        let desc = match self.with_desc(pid, fd, |d| d.clone()) {
            Ok(d) => d,
            Err(e) => return Outcome::Ret(e.to_ret()),
        };
        match desc {
            Desc::Console => self.sys_log(pid, buf, len),
            Desc::File { path, offset } => {
                let data = match self.read_guest(pid, buf, len) {
                    Ok(d) => d,
                    Err(e) => return Outcome::Ret(e.to_ret()),
                };
                self.fs.write_at(&path, offset, &data);
                if let Some(p) = self.procs.get_mut(&pid) {
                    if let Some(Desc::File { offset, .. }) = p.fds.borrow_mut().get_mut(fd) {
                        *offset += data.len() as u64;
                    }
                }
                Outcome::Ret(len as u64)
            }
            Desc::Pipe {
                id,
                end: PipeEnd::Write,
            } => {
                let free = self.pipes.get(id).map_or(0, Pipe::free);
                let data = match self.copy_in(pid, buf, len, free) {
                    Ok(d) => d,
                    Err(e) => return Outcome::Ret(e.to_ret()),
                };
                match self.pipes.write(id, &data) {
                    None => Outcome::Ret(Errno::Pipe.to_ret()),
                    Some(0) => Outcome::Block(WaitFor::PipeWritable(id)),
                    Some(n) => {
                        self.wake_matching(&|w| matches!(w, WaitFor::PipeReadable(p) if *p == id));
                        Outcome::Ret(n as u64)
                    }
                }
            }
            Desc::Pipe { .. } => Outcome::Ret(Errno::NotSup.to_ret()),
            Desc::Socket(_) => self.sys_send(pid, fd, buf, len, now),
        }
    }

    fn sys_pipe(&mut self, pid: Pid, out_ptr: u64) -> Outcome {
        let id = self.pipes.create();
        let p = self.procs.get(&pid).expect("caller exists");
        let rfd = p.fds.borrow_mut().insert(Desc::Pipe {
            id,
            end: PipeEnd::Read,
        });
        let wfd = p.fds.borrow_mut().insert(Desc::Pipe {
            id,
            end: PipeEnd::Write,
        });
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(&(rfd as u64).to_le_bytes());
        bytes.extend_from_slice(&(wfd as u64).to_le_bytes());
        match self.write_guest(pid, out_ptr, &bytes) {
            Ok(()) => Outcome::Ret(0),
            Err(e) => Outcome::Ret(e.to_ret()),
        }
    }

    fn sys_shmget(&mut self, key: u64, size: u64) -> Outcome {
        if let Some(seg) = self.shm_by_key.get(&key) {
            return Outcome::Ret(seg.id);
        }
        if size == 0 || size > SHM_MAX_BYTES {
            return Outcome::Ret(Errno::Inval.to_ret());
        }
        let id = self.next_shm;
        self.next_shm += 1;
        let seg = SharedSeg::new(id, size as usize);
        self.shm_by_key.insert(key, seg.clone());
        self.shm_by_id.insert(id, seg);
        Outcome::Ret(id)
    }

    fn sys_shmat(&mut self, pid: Pid, shmid: u64, addr: u64) -> Outcome {
        let Some(seg) = self.shm_by_id.get(&shmid).cloned() else {
            return Outcome::Ret(Errno::Inval.to_ret());
        };
        let p = self.procs.get(&pid).expect("caller exists");
        let mapped = p.mem.borrow_mut().map_shared(addr, seg, "shm");
        match mapped {
            Ok(()) => Outcome::Ret(addr),
            Err(_) => Outcome::Ret(Errno::Inval.to_ret()),
        }
    }

    fn sys_semget(&mut self, key: u64, n: u32) -> Outcome {
        let id = self.sems.get_or_create(key, n.max(1));
        Outcome::Ret(id.0)
    }

    fn sys_semop(&mut self, semid: u64, idx: u32, delta: i64) -> Outcome {
        let id = SemId(semid);
        match self.sems.try_op(id, idx, delta) {
            Some(_) => {
                if delta > 0 {
                    self.wake_matching(
                        &|w| matches!(w, WaitFor::Sem { id: i, idx: j } if *i == id && *j == idx),
                    );
                }
                Outcome::Ret(0)
            }
            None => {
                if self.sems.value(id, idx).is_none() {
                    Outcome::Ret(Errno::Inval.to_ret())
                } else {
                    Outcome::Block(WaitFor::Sem { id, idx })
                }
            }
        }
    }

    fn sys_spawn(&mut self, pid: Pid, entry: u64, stack_top: u64, arg: u64) -> Outcome {
        match self.spawn_thread(pid, entry, stack_top, arg) {
            Ok(child) => Outcome::Ret(child as u64),
            Err(e) => Outcome::Ret(e.to_ret()),
        }
    }

    /// Forks `parent`: the child gets a copy of the address space, whose
    /// pages it shares until either side writes them, without the parent's
    /// armed checkpoint snapshot, and a copy of the descriptor table
    /// (underlying pipes and sockets are shared — they close only when the
    /// last referencing descriptor closes). The child resumes at the same
    /// PC with `r0 = 0`; the caller returns the child pid to the parent.
    /// Public so the Zap interposer can service `fork` and hand the guest a
    /// virtual pid.
    ///
    /// # Errors
    ///
    /// [`Errno::Srch`] if the parent does not exist.
    pub fn fork_process(&mut self, parent: Pid) -> Result<Pid, Errno> {
        let (mem_copy, fds_copy, mut cpu) = {
            let p = self.procs.get(&parent).ok_or(Errno::Srch)?;
            (
                p.mem.borrow().clone(),
                p.fds.borrow().clone(),
                p.cpu.clone(),
            )
        };
        // New references to shared pipe ends.
        for (_fd, desc) in fds_copy.iter() {
            if let Desc::Pipe { id, end } = desc {
                self.pipes.add_ref(*id, *end == PipeEnd::Write);
            }
        }
        let child = self.alloc_pid();
        cpu.set_reg(R0, 0); // the child's fork() return value
        let proc = Process {
            pid: child,
            parent,
            cpu,
            mem: Rc::new(RefCell::new(mem_copy)),
            fds: Rc::new(RefCell::new(fds_copy)),
            state: ProcState::Ready,
            pending: None,
            console: Vec::new(),
            group: child, // its own address space ⇒ its own group
        };
        self.procs.insert(child, proc);
        self.run_queue.push_back(child);
        Ok(child)
    }

    /// True if any descriptor other than those in `excluding_table` still
    /// refers to `sid` (fork shares sockets across distinct tables; a
    /// socket closes only when the last copy does).
    fn socket_referenced_elsewhere(
        &self,
        sid: SocketId,
        excluding_table: &Rc<RefCell<FdTable>>,
    ) -> bool {
        self.procs.values().any(|p| {
            if Rc::ptr_eq(&p.fds, excluding_table) {
                return false;
            }
            p.fds
                .borrow()
                .iter()
                .any(|(_, d)| matches!(d, Desc::Socket(s) if *s == sid))
        })
    }

    /// Creates a thread sharing `parent`'s address space and descriptor
    /// table, starting at `entry` with the given stack pointer and `r1 =
    /// arg`. Public so the Zap interposer can service `spawn` and hand the
    /// guest a *virtual* pid.
    ///
    /// # Errors
    ///
    /// [`Errno::Srch`] if the parent does not exist.
    pub fn spawn_thread(
        &mut self,
        parent: Pid,
        entry: u64,
        stack_top: u64,
        arg: u64,
    ) -> Result<Pid, Errno> {
        let (mem, fds, group) = {
            let p = self.procs.get(&parent).ok_or(Errno::Srch)?;
            (p.mem.clone(), p.fds.clone(), p.group)
        };
        let child = self.alloc_pid();
        let mut cpu = Cpu::new(entry);
        cpu.set_reg(simcpu::isa::SP, stack_top);
        cpu.set_reg(R1, arg);
        let proc = Process {
            pid: child,
            parent,
            cpu,
            mem,
            fds,
            state: ProcState::Ready,
            pending: None,
            console: Vec::new(),
            group,
        };
        self.procs.insert(child, proc);
        self.run_queue.push_back(child);
        Ok(child)
    }

    fn sys_waitpid(&mut self, _pid: Pid, child: Pid) -> Outcome {
        match self.procs.get(&child) {
            Some(p) => match p.state {
                ProcState::Zombie(code) => {
                    self.procs.remove(&child);
                    Outcome::Ret(code)
                }
                _ => Outcome::Block(WaitFor::Child(child)),
            },
            None => Outcome::Ret(Errno::Child.to_ret()),
        }
    }

    fn sys_ioctl(&mut self, pid: Pid, _fd: Fd, req: u64, ptr: u64) -> Outcome {
        match req {
            ioctl::SIOCGIFHWADDR => {
                let mac = self.net.primary_mac();
                let mut v = [0u8; 8];
                v[..6].copy_from_slice(&mac.octets());
                match self.write_guest(pid, ptr, &v) {
                    Ok(()) => Outcome::Ret(0),
                    Err(e) => Outcome::Ret(e.to_ret()),
                }
            }
            ioctl::SIOCGIFADDR => {
                let ip = self.net.primary_ip().to_bits() as u64;
                match self.write_guest(pid, ptr, &ip.to_le_bytes()) {
                    Ok(()) => Outcome::Ret(0),
                    Err(e) => Outcome::Ret(e.to_ret()),
                }
            }
            _ => Outcome::Ret(Errno::Inval.to_ret()),
        }
    }

    // ---- exit ------------------------------------------------------------

    /// Terminates `pid` with `code`: closes its descriptors (unless shared
    /// with live threads), marks it zombie and wakes waiters.
    pub fn exit_process(&mut self, pid: Pid, code: u64, now: SimTime) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        if p.state.is_zombie() {
            return;
        }
        p.state = ProcState::Zombie(code);
        p.pending = None;
        // Close descriptors only when the last thread of the group exits.
        let fds = p.fds.clone();
        let last_of_group = Rc::strong_count(&fds) <= 2; // proc + our clone
        if last_of_group {
            // Drain the table as it closes, so the zombie's descriptors do
            // not count as live references for fork-shared objects.
            let entries: Vec<(Fd, Desc)> =
                fds.borrow().iter().map(|(fd, d)| (fd, d.clone())).collect();
            for (fd, _) in &entries {
                let _ = fds.borrow_mut().remove(*fd);
            }
            for (_fd, desc) in entries {
                match desc {
                    Desc::Pipe { id, end } => {
                        self.pipes.drop_ref(id, end == PipeEnd::Write);
                        self.wake_matching(&|w| {
                            matches!(w, WaitFor::PipeReadable(p) if *p == id)
                                || matches!(w, WaitFor::PipeWritable(p) if *p == id)
                        });
                    }
                    Desc::Socket(sid) if !self.socket_referenced_elsewhere(sid, &fds) => {
                        self.net.close(sid, now);
                    }
                    _ => {}
                }
            }
            self.process_net_wakes();
        }
        // Wake parents waiting on this child.
        self.wake_matching(&|w| matches!(w, WaitFor::Child(c) if *c == pid));
    }

    // ---- shared memory accessors for checkpoint ---------------------------

    /// The shared-memory segment for `id`.
    pub fn shm_segment(&self, id: u64) -> Option<&SharedSeg> {
        self.shm_by_id.get(&id)
    }

    /// Iterates (key, segment) pairs.
    pub fn shm_iter(&self) -> impl Iterator<Item = (u64, &SharedSeg)> {
        self.shm_by_key.iter().map(|(&k, s)| (k, s))
    }

    /// Registers a restored shared segment under its original key, taking
    /// its bytes as they are.
    pub fn shm_restore(&mut self, key: u64, data: Vec<u8>) -> SharedSeg {
        let id = self.next_shm;
        self.next_shm += 1;
        let seg = SharedSeg {
            id,
            data: Rc::new(RefCell::new(data)),
        };
        self.shm_by_key.insert(key, seg.clone());
        self.shm_by_id.insert(id, seg.clone());
        seg
    }
}
