//! End-to-end kernel tests: real guest programs exercising the syscall ABI.

use des::{SimDuration, SimTime};
use simcpu::asm::Asm;
use simcpu::isa::{R1, R10, R2, R3, R6, R7, R8, R9};
use simnet::addr::{IpAddr, MacAddr};
use simnet::tcp::TcpConfig;
use simnet::NetStack;
use simos::guest::AsmOs;
use simos::program::{Program, CODE_BASE, DATA_BASE};
use simos::syscall::{nr, sig};
use simos::{Disk, DiskParams, Kernel, KernelParams, NetFs, ProcState};

const NODE_IP: [u8; 4] = [10, 0, 0, 1];

fn kernel() -> Kernel {
    let net = NetStack::new(
        MacAddr::from_index(1),
        IpAddr::from_octets(NODE_IP),
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

fn run(k: &mut Kernel) -> SimTime {
    k.run_to_quiescence(SimTime::ZERO, 2_000_000)
}

fn exit_code(k: &Kernel, pid: simos::Pid) -> Option<u64> {
    match k.process(pid)?.state {
        ProcState::Zombie(code) => Some(code),
        _ => None,
    }
}

#[test]
fn hello_world_logs_and_exits() {
    let mut a = Asm::new(CODE_BASE);
    a.sys2(nr::LOG, DATA_BASE as i64, 5);
    a.sys1(nr::EXIT, 7);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, b"hello".to_vec());
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(7));
    assert_eq!(k.process(pid).unwrap().console, vec!["hello".to_string()]);
}

#[test]
fn halt_is_clean_exit() {
    let mut a = Asm::new(CODE_BASE);
    a.halt();
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(0));
}

#[test]
fn memory_fault_kills_process() {
    let mut a = Asm::new(CODE_BASE);
    a.movi(R6, 0x7777_0000);
    a.ld(R1, R6, 0); // unmapped
    a.halt();
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(139));
    assert!(k.process(pid).unwrap().console[0].starts_with("FAULT"));
}

#[test]
fn file_write_then_read_back() {
    // open("/f", create); write "data!"; close; open; read into buf; log.
    let path = DATA_BASE as i64;
    let msg = DATA_BASE as i64 + 16;
    let buf = DATA_BASE as i64 + 64;
    let mut a = Asm::new(CODE_BASE);
    a.sys3(nr::OPEN, path, 2, 1); // fd in r0
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, msg);
    a.movi(R3, 5);
    a.sys(nr::WRITE);
    a.sys_r(nr::CLOSE, &[R6]);
    a.sys3(nr::OPEN, path, 2, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, buf);
    a.movi(R3, 100);
    a.sys(nr::READ); // n in r0
    a.mov(R7, simcpu::isa::R0);
    a.movi(R1, buf);
    a.mov(R2, R7);
    a.sys(nr::LOG);
    a.sys1(nr::EXIT, 0);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, b"/f".to_vec())
        .with_data(DATA_BASE + 16, b"data!".to_vec());
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(0));
    assert_eq!(k.process(pid).unwrap().console, vec!["data!".to_string()]);
    assert_eq!(k.fs.read_file("/f").unwrap(), b"data!");
}

#[test]
fn sleep_advances_time() {
    let mut a = Asm::new(CODE_BASE);
    a.sys(nr::TIME);
    a.mov(R6, simcpu::isa::R0);
    a.sys1(nr::SLEEP, 5_000_000); // 5 ms
    a.sys(nr::TIME);
    a.sub(R7, simcpu::isa::R0, R6);
    // exit(elapsed >= 5ms ? 1 : 0)
    a.movi(R8, 5_000_000);
    a.cleu(R9, R8, R7);
    a.mov(R1, R9);
    a.sys(nr::EXIT);
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    let end = run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(1));
    assert!(end >= SimTime::ZERO + SimDuration::from_millis(5));
}

#[test]
fn pipe_between_threads() {
    // Main: pipe(); spawn(reader, stack2, rfd); write "ping"; waitpid; exit.
    // Reader thread: recv from pipe, log, exit.
    let fds_ptr = DATA_BASE as i64; // two u64s: rfd, wfd
    let msg = DATA_BASE as i64 + 32;
    let rbuf = DATA_BASE as i64 + 64;
    let stack2 = 0x3000_0000u64; // inside an extra map

    let mut a = Asm::new(CODE_BASE);
    let reader = a.label();
    // main
    a.sys1(nr::PIPE, fds_ptr);
    a.movi(R6, fds_ptr);
    a.ld(R7, R6, 0); // rfd
    a.ld(R8, R6, 8); // wfd
                     // spawn(reader_entry, stack2 top, rfd)
    a.movi_label(R1, reader);
    a.movi(R2, (stack2 + 0x4000) as i64);
    a.mov(R3, R7);
    a.sys(nr::SPAWN);
    a.mov(R9, simcpu::isa::R0); // child pid
                                // write(wfd, msg, 4)
    a.mov(R1, R8);
    a.movi(R2, msg);
    a.movi(R3, 4);
    a.sys(nr::WRITE);
    // waitpid(child)
    a.sys_r(nr::WAITPID, &[R9]);
    a.sys1(nr::EXIT, 0);
    // reader thread: arg (rfd) arrives in r1
    a.bind(reader);
    a.mov(R6, R1);
    a.mov(R1, R6);
    a.movi(R2, rbuf);
    a.movi(R3, 16);
    a.sys(nr::READ);
    a.mov(R7, simcpu::isa::R0);
    a.movi(R1, rbuf);
    a.mov(R2, R7);
    a.sys(nr::LOG);
    a.sys1(nr::EXIT, 3);

    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE + 32, b"ping".to_vec())
        .with_map(stack2, 0x4000, "stack2");
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(0));
    // The reader was reaped by waitpid; its console went with it, so verify
    // through the pipe side effects: the main exit proves waitpid returned.
    assert_eq!(k.live_processes(), 0);
}

#[test]
fn semaphores_synchronize_threads() {
    // Two threads alternate using two semaphores; the main waits for both.
    let stack2 = 0x3000_0000u64;
    let counter = DATA_BASE as i64 + 256;

    let mut a = Asm::new(CODE_BASE);
    let worker = a.label();
    // main: semget(1,1) -> s0 ; semget(2,1) -> s1
    a.sys2(nr::SEMGET, 1, 1);
    a.mov(R6, simcpu::isa::R0); // s0
    a.sys2(nr::SEMGET, 2, 1);
    a.mov(R7, simcpu::isa::R0); // s1
                                // spawn worker
    a.movi_label(R1, worker);
    a.movi(R2, (stack2 + 0x4000) as i64);
    a.mov(R3, R6);
    a.sys(nr::SPAWN);
    a.mov(R9, simcpu::isa::R0);
    // V(s0): allow worker to proceed
    a.mov(R1, R6);
    a.movi(R2, 0);
    a.movi(R3, 1);
    a.sys(nr::SEMOP);
    // P(s1): wait for worker's signal
    a.mov(R1, R7);
    a.movi(R2, 0);
    a.movi(R3, -1);
    a.sys(nr::SEMOP);
    a.sys_r(nr::WAITPID, &[R9]);
    // exit(counter value)
    a.movi(R6, counter);
    a.ld(R1, R6, 0);
    a.sys(nr::EXIT);
    // worker(arg = s0): P(s0); counter = 41+1; semget(2)->s1; V(s1); exit
    a.bind(worker);
    a.mov(R8, R1); // s0
    a.mov(R1, R8);
    a.movi(R2, 0);
    a.movi(R3, -1);
    a.sys(nr::SEMOP); // P(s0)
    a.movi(R6, counter);
    a.movi(R7, 42);
    a.st(R6, R7, 0);
    a.sys2(nr::SEMGET, 2, 1);
    a.mov(R8, simcpu::isa::R0); // s1
    a.mov(R1, R8);
    a.movi(R2, 0);
    a.movi(R3, 1);
    a.sys(nr::SEMOP); // V(s1)
    a.sys1(nr::EXIT, 0);

    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 512])
        .with_map(stack2, 0x4000, "stack2");
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(42));
}

#[test]
fn shared_memory_between_processes() {
    // Process A: shmget(7, 4096); shmat at 0x3800_0000; store 99; exit.
    // Process B: sleeps briefly, attaches the same key, reads, exits value.
    let shm_addr = 0x3800_0000u64;

    let mut a = Asm::new(CODE_BASE);
    a.sys2(nr::SHMGET, 7, 4096);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, shm_addr as i64);
    a.sys(nr::SHMAT);
    a.movi(R7, shm_addr as i64);
    a.movi(R8, 99);
    a.st(R7, R8, 0);
    a.sys1(nr::EXIT, 0);
    let prog_a = Program::from_asm(&a).unwrap();

    let mut b = Asm::new(CODE_BASE);
    b.sys1(nr::SLEEP, 1_000_000); // let A create the segment first
    b.sys2(nr::SHMGET, 7, 4096);
    b.mov(R6, simcpu::isa::R0);
    b.mov(R1, R6);
    b.movi(R2, shm_addr as i64);
    b.sys(nr::SHMAT);
    b.movi(R7, shm_addr as i64);
    b.ld(R1, R7, 0);
    b.sys(nr::EXIT);
    let prog_b = Program::from_asm(&b).unwrap();

    let mut k = kernel();
    let pa = k.spawn(&prog_a).unwrap();
    let pb = k.spawn(&prog_b).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pa), Some(0));
    assert_eq!(exit_code(&k, pb), Some(99));
}

/// Builds the echo-server program: accept one connection, echo one message.
fn echo_server(port: i64) -> Program {
    let buf = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0); // listen fd
    a.mov(R1, R6);
    a.movi(R2, 0); // ANY
    a.movi(R3, port);
    a.sys(nr::BIND);
    a.mov(R1, R6);
    a.movi(R2, 4);
    a.sys(nr::LISTEN);
    a.sys_r(nr::ACCEPT, &[R6]);
    a.mov(R7, simcpu::isa::R0); // conn fd
    a.mov(R1, R7);
    a.movi(R2, buf);
    a.movi(R3, 64);
    a.sys(nr::RECV);
    a.mov(R8, simcpu::isa::R0); // n
    a.mov(R1, R7);
    a.movi(R2, buf);
    a.mov(R3, R8);
    a.sys(nr::SEND);
    a.sys_r(nr::CLOSE, &[R7]);
    a.sys1(nr::EXIT, 0);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 128])
}

/// Builds the client program: connect, send `msg`, receive the echo, log it.
fn echo_client(server_ip: IpAddr, port: i64, msg: &[u8]) -> Program {
    let msg_addr = DATA_BASE as i64 + 512;
    let buf = DATA_BASE as i64 + 1024;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SLEEP, 500_000); // let the server reach accept()
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, server_ip.to_bits() as i64);
    a.movi(R3, port);
    a.sys(nr::CONNECT);
    a.mov(R1, R6);
    a.movi(R2, msg_addr);
    a.movi(R3, msg.len() as i64);
    a.sys(nr::SEND);
    a.mov(R1, R6);
    a.movi(R2, buf);
    a.movi(R3, 64);
    a.sys(nr::RECV);
    a.mov(R10, simcpu::isa::R0);
    a.movi(R1, buf);
    a.mov(R2, R10);
    a.sys(nr::LOG);
    a.sys1(nr::EXIT, 0);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 256])
        .with_data(DATA_BASE + 512, msg.to_vec())
}

#[test]
fn tcp_echo_over_loopback() {
    let ip = IpAddr::from_octets(NODE_IP);
    let mut k = kernel();
    let server = k.spawn(&echo_server(7000)).unwrap();
    let client = k.spawn(&echo_client(ip, 7000, b"echo me")).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, server), Some(0));
    assert_eq!(exit_code(&k, client), Some(0));
    assert_eq!(
        k.process(client).unwrap().console,
        vec!["echo me".to_string()]
    );
}

#[test]
fn udp_round_trip_over_loopback() {
    let ip = IpAddr::from_octets(NODE_IP).to_bits() as i64;
    // Receiver: bind :5353, recvfrom, log, exit.
    let buf = DATA_BASE as i64;
    let src = DATA_BASE as i64 + 128;
    let mut r = Asm::new(CODE_BASE);
    r.sys1(nr::SOCKET, 1);
    r.mov(R6, simcpu::isa::R0);
    r.mov(R1, R6);
    r.movi(R2, 0);
    r.movi(R3, 5353);
    r.sys(nr::BIND);
    r.mov(R1, R6);
    r.movi(R2, buf);
    r.movi(R3, 64);
    r.movi(simcpu::isa::R4, src);
    r.sys(nr::RECVFROM);
    r.mov(R7, simcpu::isa::R0);
    r.movi(R1, buf);
    r.mov(R2, R7);
    r.sys(nr::LOG);
    r.sys1(nr::EXIT, 0);
    let recv_prog = Program::from_asm(&r)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 256]);

    // Sender: sendto(ip:5353, "dgram").
    let msg_addr = DATA_BASE as i64;
    let mut s = Asm::new(CODE_BASE);
    s.sys1(nr::SLEEP, 200_000);
    s.sys1(nr::SOCKET, 1);
    s.mov(R6, simcpu::isa::R0);
    s.mov(R1, R6);
    s.movi(R2, ip);
    s.movi(R3, 5353);
    s.movi(simcpu::isa::R4, msg_addr);
    s.movi(simcpu::isa::R5, 5);
    s.sys(nr::SENDTO);
    s.sys1(nr::EXIT, 0);
    let send_prog = Program::from_asm(&s)
        .unwrap()
        .with_data(DATA_BASE, b"dgram".to_vec());

    let mut k = kernel();
    let receiver = k.spawn(&recv_prog).unwrap();
    let sender = k.spawn(&send_prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, sender), Some(0));
    assert_eq!(exit_code(&k, receiver), Some(0));
    assert_eq!(
        k.process(receiver).unwrap().console,
        vec!["dgram".to_string()]
    );
}

#[test]
fn sigstop_freezes_and_sigcont_resumes() {
    // A busy-looping program that exits once a shared flag flips; we stop
    // it, verify no progress, resume and let it finish via kill.
    let mut a = Asm::new(CODE_BASE);
    let top = a.label();
    a.bind(top);
    a.sys(nr::YIELD);
    a.jmp(top);
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();

    // Run a few slices.
    let mut now = SimTime::ZERO;
    for _ in 0..10 {
        now += k.run_slice(now).elapsed;
    }
    assert!(k.process(pid).unwrap().state.is_ready());

    k.signal(pid, sig::SIGSTOP, now).unwrap();
    assert!(k.process(pid).unwrap().state.is_stopped());
    // No slices run while stopped.
    let out = k.run_slice(now);
    assert!(!out.ran);

    k.signal(pid, sig::SIGCONT, now).unwrap();
    assert!(k.process(pid).unwrap().state.is_ready());
    let out = k.run_slice(now);
    assert!(out.ran);

    k.signal(pid, sig::SIGKILL, now).unwrap();
    assert_eq!(exit_code(&k, pid), Some(128 + sig::SIGKILL));
}

#[test]
fn waitpid_blocks_until_child_exits() {
    let stack2 = 0x3000_0000u64;
    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    a.movi_label(R1, child);
    a.movi(R2, (stack2 + 0x4000) as i64);
    a.movi(R3, 0);
    a.sys(nr::SPAWN);
    a.mov(R6, simcpu::isa::R0);
    a.sys_r(nr::WAITPID, &[R6]);
    a.mov(R1, simcpu::isa::R0);
    a.sys(nr::EXIT); // exit with the child's code
    a.bind(child);
    a.sys1(nr::SLEEP, 2_000_000);
    a.sys1(nr::EXIT, 55);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_map(stack2, 0x4000, "stack2");
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(55));
}

#[test]
fn getpid_and_time_work() {
    let mut a = Asm::new(CODE_BASE);
    a.sys(nr::GETPID);
    a.mov(R1, simcpu::isa::R0);
    a.sys(nr::EXIT);
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(pid as u64));
}

#[test]
fn bad_syscall_returns_enosys() {
    let mut a = Asm::new(CODE_BASE);
    a.sys(9999);
    a.mov(R6, simcpu::isa::R0);
    a.movi(R7, 0);
    a.sub(R1, R7, R6); // negate to recover errno
    a.sys(nr::EXIT);
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(11)); // Errno::NoSys
}

#[test]
fn fork_returns_zero_in_child_and_pid_in_parent() {
    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    a.sys(nr::FORK);
    a.jz(simcpu::isa::R0, child);
    // parent: wait for the child and exit with its code + 1.
    a.mov(R6, simcpu::isa::R0);
    a.sys_r(nr::WAITPID, &[R6]);
    a.mov(R1, simcpu::isa::R0);
    a.addi(R1, R1, 1);
    a.sys(nr::EXIT);
    // child: exits 42.
    a.bind(child);
    a.sys1(nr::EXIT, 42);
    let prog = Program::from_asm(&a).unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(43));
}

#[test]
fn fork_copies_memory_but_does_not_share_it() {
    // Parent writes 1 to a cell, forks; child writes 2 and exits with its
    // view; parent waits, then exits with ITS view — still 1.
    let cell = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    a.movi(R6, cell);
    a.movi(R7, 1);
    a.st(R6, R7, 0);
    a.sys(nr::FORK);
    a.jz(simcpu::isa::R0, child);
    a.mov(R6, simcpu::isa::R0);
    a.sys_r(nr::WAITPID, &[R6]);
    a.mov(R8, simcpu::isa::R0); // child's exit code (its view: 2)
    a.movi(R6, cell);
    a.ld(R7, R6, 0); // parent's view
                     // exit(child_view * 10 + parent_view) => 21
    a.muli(R8, R8, 10);
    a.add(R1, R8, R7);
    a.sys(nr::EXIT);
    a.bind(child);
    a.movi(R6, cell);
    a.movi(R7, 2);
    a.st(R6, R7, 0);
    a.ld(R1, R6, 0);
    a.sys(nr::EXIT);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 16]);
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(21), "copy-on-fork, not shared");
}

#[test]
fn forked_child_shares_sockets_until_last_close() {
    // Parent connects to its own echo listener over loopback, forks; the
    // CHILD sends through the inherited descriptor and exits (its exit
    // closes its copy); the PARENT then receives — the connection must
    // survive the child's death because the parent still references it.
    let ip = IpAddr::from_octets(NODE_IP);
    let buf = DATA_BASE as i64;
    let msg = DATA_BASE as i64 + 64;

    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    // listener
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, 0);
    a.movi(R3, 7600);
    a.sys(nr::BIND);
    a.mov(R1, R6);
    a.movi(R2, 2);
    a.sys(nr::LISTEN);
    // connect to self
    a.sys1(nr::SOCKET, 0);
    a.mov(R7, simcpu::isa::R0);
    a.mov(R1, R7);
    a.movi(R2, ip.to_bits() as i64);
    a.movi(R3, 7600);
    a.sys(nr::CONNECT);
    // accept the server side
    a.sys_r(nr::ACCEPT, &[R6]);
    a.mov(R8, simcpu::isa::R0);
    // fork: child sends on the CLIENT fd and dies; parent reads SERVER fd.
    a.sys(nr::FORK);
    a.jz(simcpu::isa::R0, child);
    a.mov(R9, simcpu::isa::R0);
    a.sys_r(nr::WAITPID, &[R9]); // child has exited (fds closed)
    a.mov(R1, R8);
    a.movi(R2, buf);
    a.movi(R3, 64);
    a.sys(nr::RECV); // must deliver, not reset
    a.mov(R10, simcpu::isa::R0);
    a.movi(R1, buf);
    a.mov(R2, R10);
    a.sys(nr::LOG);
    a.sys1(nr::EXIT, 0);
    a.bind(child);
    a.mov(R1, R7);
    a.movi(R2, msg);
    a.movi(R3, 9);
    a.sys(nr::SEND);
    a.sys1(nr::EXIT, 0);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 64])
        .with_data(DATA_BASE + 64, b"from fork".to_vec());
    let mut k = kernel();
    let pid = k.spawn(&prog).unwrap();
    run(&mut k);
    assert_eq!(exit_code(&k, pid), Some(0));
    assert_eq!(
        k.process(pid).unwrap().console,
        vec!["from fork".to_string()]
    );
}

#[test]
fn fork_while_armed_leaves_the_snapshot_intact() {
    use simcpu::mem::Memory;
    use std::rc::Rc;
    let mut a = Asm::new(CODE_BASE);
    a.halt();
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![7u8; 16]);
    let mut k = kernel();
    let parent = k.spawn(&prog).unwrap();
    let cell = DATA_BASE;
    let parent_mem = k.process(parent).unwrap().mem.clone();
    let frozen = parent_mem.borrow().clone();
    // The snapshot a copy-on-write checkpoint holds: every page buffer.
    let held: Vec<_> = parent_mem
        .borrow()
        .pages()
        .map(|(a, p)| (a, p.clone()))
        .collect();

    let child = k.fork_process(parent).unwrap();
    let child_mem = k.process(child).unwrap().mem.clone();
    child_mem.borrow_mut().store_u64(cell, 2).unwrap();
    parent_mem.borrow_mut().store_u64(cell, 1).unwrap();
    assert_eq!(child_mem.borrow_mut().load_u64(cell).unwrap(), 2);
    assert_eq!(parent_mem.borrow_mut().load_u64(cell).unwrap(), 1);

    // Compared as plain bytes.
    let frozen: Vec<_> = frozen
        .nonzero_pages()
        .map(|(a, p)| (a, p.to_vec()))
        .collect();
    let drained: Vec<_> = held
        .iter()
        .filter(|(_, p)| simos::mem::nonzero(p))
        .map(|(a, p)| (*a, p.to_vec()))
        .collect();
    assert_eq!(drained, frozen);
    let parent_mem = parent_mem.borrow();
    let copied = parent_mem
        .pages()
        .zip(&held)
        .filter(|((_, live), (_, p))| !Rc::ptr_eq(live, p))
        .count();
    assert_eq!(copied, 1, "one held page written by the parent");
}
