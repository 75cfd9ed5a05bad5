//! Guest-visible error semantics: every failure path returns the right
//! errno instead of wedging or killing the process.

use des::SimTime;
use simcpu::asm::Asm;
use simcpu::isa::{R0, R1, R10, R2, R3, R6, R7, R8, R9};
use simnet::addr::{IpAddr, MacAddr};
use simnet::tcp::TcpConfig;
use simnet::NetStack;
use simos::guest::AsmOs;
use simos::program::{Program, CODE_BASE, DATA_BASE, STACK_TOP};
use simos::syscall::nr;
use simos::{Disk, DiskParams, Kernel, KernelParams, NetFs, Pid, ProcState, WaitFor};

fn kernel() -> Kernel {
    let net = NetStack::new(
        MacAddr::from_index(1),
        IpAddr::from_octets([10, 0, 0, 1]),
        24,
        TcpConfig::default(),
    );
    Kernel::new(
        net,
        NetFs::new(),
        Disk::new(DiskParams::default()),
        KernelParams::default(),
    )
}

/// Runs `prog` to completion and returns its exit code.
fn run_exit(prog: &Program) -> u64 {
    let mut k = kernel();
    let pid = k.spawn(prog).unwrap();
    k.run_to_quiescence(SimTime::ZERO, 2_000_000);
    match k.process(pid).unwrap().state {
        ProcState::Zombie(code) => code,
        ref other => panic!("program did not exit: {other:?}"),
    }
}

/// Builds a program that runs `body` and exits with `-r0` (the errno) of
/// the last syscall.
fn exit_with_negated_r0(mut a: Asm) -> Program {
    a.mov(R6, simcpu::isa::R0);
    a.movi(R7, 0);
    a.sub(R1, R7, R6);
    a.sys(nr::EXIT);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 4096])
}

#[test]
fn read_from_bad_fd_is_ebadf() {
    let mut a = Asm::new(CODE_BASE);
    a.sys3(nr::READ, 42, DATA_BASE as i64, 8);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 1); // Errno::Badf
}

#[test]
fn open_missing_file_is_enoent() {
    let mut a = Asm::new(CODE_BASE);
    a.movi(R1, DATA_BASE as i64);
    a.movi(R2, 2);
    a.movi(R3, 0); // no create
    a.sys(nr::OPEN);
    let p = exit_with_negated_r0(a);
    let p = Program {
        data: {
            let mut d = p.data.clone();
            d[0].1[..2].copy_from_slice(b"/x");
            d
        },
        ..p
    };
    assert_eq!(run_exit(&p), 6); // Errno::NoEnt
}

#[test]
fn connect_refused_when_nobody_listens() {
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, IpAddr::from_octets([10, 0, 0, 1]).to_bits() as i64);
    a.movi(R3, 9999);
    a.sys(nr::CONNECT);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 15); // Errno::ConnRefused
}

#[test]
fn write_to_pipe_with_closed_reader_is_epipe() {
    let fds = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::PIPE, fds);
    a.movi(R6, fds);
    a.ld(R7, R6, 0); // read end
    a.sys_r(nr::CLOSE, &[R7]);
    a.ld(R7, R6, 8); // write end
    a.mov(R1, R7);
    a.movi(R2, fds);
    a.movi(R3, 4);
    a.sys(nr::WRITE);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 10); // Errno::Pipe
}

#[test]
fn kill_unknown_pid_is_esrch() {
    let mut a = Asm::new(CODE_BASE);
    a.sys2(nr::KILL, 4096, 9);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 8); // Errno::Srch
}

#[test]
fn waitpid_on_nonexistent_child_is_echild() {
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::WAITPID, 4096);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 13); // Errno::Child
}

#[test]
fn listen_without_bind_is_einval() {
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, 1);
    a.sys(nr::LISTEN);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 2); // Errno::Inval
}

#[test]
fn send_on_non_socket_is_enotsup() {
    let mut a = Asm::new(CODE_BASE);
    a.sys3(nr::SEND, 0 /* console */, DATA_BASE as i64, 4);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 9); // Errno::NotSup
}

#[test]
fn guest_buffer_fault_is_efault_not_a_crash() {
    // A recv into unmapped memory must fail with EFAULT, not kill the
    // process or corrupt the kernel.
    let mut a = Asm::new(CODE_BASE);
    a.sys2(nr::LOG, 0x7000_0000, 16); // unmapped buffer
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 7); // Errno::Fault
}

#[test]
fn double_close_is_ebadf() {
    let path = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    a.sys3(nr::OPEN, path, 2, 1);
    a.mov(R6, simcpu::isa::R0);
    a.sys_r(nr::CLOSE, &[R6]);
    a.sys_r(nr::CLOSE, &[R6]);
    let mut p = exit_with_negated_r0(a);
    p.data[0].1[..2].copy_from_slice(b"/f");
    assert_eq!(run_exit(&p), 1); // Errno::Badf
}

#[test]
fn recv_on_fresh_socket_is_einval() {
    // A TCP socket that never connected has no connection to read.
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, DATA_BASE as i64);
    a.movi(R3, 8);
    a.sys(nr::RECV);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 2); // Errno::Inval
}

#[test]
fn oversized_shmget_is_einval_and_the_process_keeps_running() {
    // The guest picks the segment size; the kernel must bound it before
    // allocating. A second, sane shmget in the same process still works.
    let mut a = Asm::new(CODE_BASE);
    a.sys2(nr::SHMGET, 7, i64::MAX);
    a.mov(R7, simcpu::isa::R0);
    a.sys2(nr::SHMGET, 8, 0); // empty segments are refused too
    a.mov(R6, simcpu::isa::R0);
    a.sys2(nr::SHMGET, 9, 4096);
    // Exit with (-first) + 16 * (-second) + 256 * (third shmid == 1).
    a.movi(R1, 0);
    a.sub(R1, R1, R7);
    a.movi(R2, 0);
    a.sub(R2, R2, R6);
    a.muli(R2, R2, 16);
    a.add(R1, R1, R2);
    a.movi(R3, 1);
    a.ceq(R3, simcpu::isa::R0, R3);
    a.muli(R3, R3, 256);
    a.add(R1, R1, R3);
    a.sys(nr::EXIT);
    let p = Program::from_asm(&a).unwrap();
    assert_eq!(run_exit(&p), 2 + 16 * 2 + 256); // Errno::Inval twice, then id 1
}

#[test]
fn shmat_past_the_end_of_the_address_space_is_einval() {
    let mut a = Asm::new(CODE_BASE);
    a.sys2(nr::SHMGET, 7, 8192);
    a.mov(R1, simcpu::isa::R0);
    a.movi(R2, -4096); // the last page: start + len overflows
    a.sys(nr::SHMAT);
    assert_eq!(run_exit(&exit_with_negated_r0(a)), 2); // Errno::Inval
}

/// An address no test program maps.
const UNMAPPED: i64 = 0x7000_0000;
/// The last 16 bytes of the one-page data segment: a buffer starting here
/// and longer than 16 bytes has an unmapped tail.
const DATA_TAIL: i64 = DATA_BASE as i64 + 4096 - 16;

/// Emits a loopback TCP connection to ourselves on `port`: the client fd
/// ends up in `r7`, the accepted server fd in `r8` (`r6` is the listener).
fn loopback_pair(a: &mut Asm, port: i64) {
    let ip = IpAddr::from_octets([10, 0, 0, 1]).to_bits() as i64;
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, R0);
    a.mov(R1, R6);
    a.movi(R2, 0);
    a.movi(R3, port);
    a.sys(nr::BIND);
    a.mov(R1, R6);
    a.movi(R2, 1);
    a.sys(nr::LISTEN);
    a.sys1(nr::SOCKET, 0);
    a.mov(R7, R0);
    a.mov(R1, R7);
    a.movi(R2, ip);
    a.movi(R3, port);
    a.sys(nr::CONNECT);
    a.sys_r(nr::ACCEPT, &[R6]);
    a.mov(R8, R0);
}

/// Emits `r9 = -r0`: the errno of the last syscall.
fn save_errno(a: &mut Asm) {
    a.movi(R9, 0);
    a.sub(R9, R9, R0);
}

/// Emits: receive up to 64 bytes on `fd` into a valid buffer, log them,
/// then exit with `r9`.
fn log_one_read_and_exit_with_r9(a: &mut Asm, syscall: u64, fd: simcpu::isa::Reg) {
    let buf = DATA_BASE as i64 + 128;
    a.mov(R1, fd);
    a.movi(R2, buf);
    a.movi(R3, 64);
    a.sys(syscall);
    a.mov(R10, R0);
    a.movi(R1, buf);
    a.mov(R2, R10);
    a.sys(nr::LOG);
    a.mov(R1, R9);
    a.sys(nr::EXIT);
}

/// The data segment for the stream tests: one page, with `msg` at +64.
fn stream_program(a: &Asm, msg: &[u8]) -> Program {
    let mut data = vec![0u8; 4096];
    data[64..64 + msg.len()].copy_from_slice(msg);
    Program::from_asm(a).unwrap().with_data(DATA_BASE, data)
}

/// Runs `pid` until it exits (other threads may stay blocked forever, and
/// a zero-window connection keeps probing, so quiescence never comes).
fn run_until_exit(k: &mut Kernel, pid: Pid) -> u64 {
    let mut now = SimTime::ZERO;
    for _ in 0..100_000 {
        if let ProcState::Zombie(code) = k.process(pid).unwrap().state {
            return code;
        }
        if k.has_runnable() {
            now += k.run_slice(now).elapsed;
        } else {
            now = now.max(k.next_timer().expect("a blocked program waits on a timer"));
            k.on_tick(now);
        }
    }
    panic!("program did not exit");
}

#[test]
fn recv_into_a_bad_buffer_is_efault_and_keeps_the_stream() {
    // The fault must be found before the stream is consumed: the next
    // recv into valid memory gets every byte, from the first.
    let mut a = Asm::new(CODE_BASE);
    loopback_pair(&mut a, 7100);
    a.mov(R1, R7);
    a.movi(R2, DATA_BASE as i64 + 64);
    a.movi(R3, 8);
    a.sys(nr::SEND);
    a.mov(R1, R8);
    a.movi(R2, UNMAPPED);
    a.movi(R3, 64);
    a.sys(nr::RECV);
    save_errno(&mut a);
    log_one_read_and_exit_with_r9(&mut a, nr::RECV, R8);
    let mut k = kernel();
    let pid = k.spawn(&stream_program(&a, b"abcdefgh")).unwrap();
    assert_eq!(run_until_exit(&mut k, pid), 7); // Errno::Fault
    assert_eq!(k.process(pid).unwrap().console, vec!["abcdefgh"]);
}

#[test]
fn pipe_read_into_a_bad_buffer_is_efault_and_keeps_the_bytes() {
    let fds = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::PIPE, fds);
    a.movi(R6, fds);
    a.ld(R8, R6, 0); // read end
    a.ld(R7, R6, 8); // write end
    a.mov(R1, R7);
    a.movi(R2, DATA_BASE as i64 + 64);
    a.movi(R3, 8);
    a.sys(nr::WRITE);
    a.mov(R1, R8);
    a.movi(R2, UNMAPPED);
    a.movi(R3, 64);
    a.sys(nr::READ);
    save_errno(&mut a);
    log_one_read_and_exit_with_r9(&mut a, nr::READ, R8);
    let mut k = kernel();
    let pid = k.spawn(&stream_program(&a, b"pipe-ful")).unwrap();
    assert_eq!(run_until_exit(&mut k, pid), 7); // Errno::Fault
    assert_eq!(k.process(pid).unwrap().console, vec!["pipe-ful"]);
}

#[test]
fn send_with_an_unmapped_tail_is_efault_when_the_buffer_has_room() {
    // Only 16 bytes of the 64-byte buffer are mapped. The send buffer has
    // room for all of it, and nothing may reach the stream: the next
    // valid send is the first thing the peer reads.
    let mut a = Asm::new(CODE_BASE);
    loopback_pair(&mut a, 7200);
    a.mov(R1, R7);
    a.movi(R2, DATA_TAIL);
    a.movi(R3, 64);
    a.sys(nr::SEND);
    save_errno(&mut a);
    a.mov(R1, R7);
    a.movi(R2, DATA_BASE as i64 + 64);
    a.movi(R3, 5);
    a.sys(nr::SEND);
    log_one_read_and_exit_with_r9(&mut a, nr::RECV, R8);
    let mut k = kernel();
    let pid = k.spawn(&stream_program(&a, b"clean")).unwrap();
    assert_eq!(run_until_exit(&mut k, pid), 7); // Errno::Fault
    assert_eq!(k.process(pid).unwrap().console, vec!["clean"]);
}

#[test]
fn send_with_an_unmapped_tail_is_efault_when_the_buffer_is_full() {
    // A filler thread sends until the peer's window and our send buffer
    // are both full and it blocks. The bad send must still fault rather
    // than block: the whole buffer is checked before the space is.
    let mut a = Asm::new(CODE_BASE);
    let filler = a.label();
    loopback_pair(&mut a, 7300);
    a.movi(R1, DATA_BASE as i64 + 8);
    a.st(R1, R7, 0); // the client fd, for the test to inspect
    a.movi_label(R1, filler);
    a.movi(R2, STACK_TOP as i64 - 16 * 1024);
    a.mov(R3, R7);
    a.sys(nr::SPAWN);
    a.sys1(nr::SLEEP, 1_000_000); // the filler runs until it blocks
    a.mov(R1, R7);
    a.movi(R2, DATA_TAIL);
    a.movi(R3, 64);
    a.sys(nr::SEND);
    save_errno(&mut a);
    a.mov(R1, R9);
    a.sys(nr::EXIT);
    a.bind(filler);
    let again = a.label();
    a.mov(R6, R1);
    a.bind(again);
    a.mov(R1, R6);
    a.movi(R2, DATA_BASE as i64);
    a.movi(R3, 4096);
    a.sys(nr::SEND);
    a.jmp(again);
    let mut k = kernel();
    let pid = k.spawn(&stream_program(&a, b"")).unwrap();
    assert_eq!(run_until_exit(&mut k, pid), 7); // Errno::Fault
    let fd = u64::from_le_bytes(
        k.read_guest(pid, DATA_BASE + 8, 8)
            .unwrap()
            .try_into()
            .unwrap(),
    );
    let sid = k.socket_of(pid, fd as u32).unwrap();
    assert_eq!(k.net.tcp_send_space(sid), 0, "the send buffer was full");
    let filler_blocked = k.pids().into_iter().any(|p| {
        matches!(k.process(p).unwrap().state, ProcState::Blocked(WaitFor::SockWritable(s)) if s == sid)
    });
    assert!(filler_blocked, "the filler is blocked on the full buffer");
}

#[test]
fn send_on_a_reset_connection_is_econnreset_after_efault() {
    // A refused connect leaves a reset connection. A send on it is
    // ECONNRESET; a send from a bad buffer on it is EFAULT first.
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, R0);
    a.mov(R1, R6);
    a.movi(R2, IpAddr::from_octets([10, 0, 0, 1]).to_bits() as i64);
    a.movi(R3, 9999);
    a.sys(nr::CONNECT);
    a.mov(R1, R6);
    a.movi(R2, UNMAPPED);
    a.movi(R3, 4);
    a.sys(nr::SEND);
    save_errno(&mut a);
    a.mov(R1, R6);
    a.movi(R2, DATA_BASE as i64);
    a.movi(R3, 4);
    a.sys(nr::SEND);
    // Exit with (-second) + 16 * (-first).
    a.movi(R1, 0);
    a.sub(R1, R1, R0);
    a.muli(R9, R9, 16);
    a.add(R1, R1, R9);
    a.sys(nr::EXIT);
    assert_eq!(run_exit(&stream_program(&a, b"")), 5 + 16 * 7); // ConnReset, Fault
}
