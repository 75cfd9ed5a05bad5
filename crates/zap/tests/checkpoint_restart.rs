//! End-to-end tests of the Zap layer: pods, virtualization, and single-node
//! checkpoint/restart with live kernel state.

use des::{SimDuration, SimTime};
use simcpu::asm::Asm;
use simcpu::isa::{R1, R10, R2, R3, R6, R7, R8, R9};
use simnet::addr::{IpAddr, MacAddr};
use simnet::tcp::TcpConfig;
use simnet::{EthFrame, EthPayload, NetError, NetStack, SockSnapshot};
use simos::fd::PipeId;
use simos::guest::AsmOs;
use simos::program::{Program, CODE_BASE, DATA_BASE};
use simos::syscall::nr;
use simos::{Disk, DiskParams, Kernel, KernelParams, NetFs, ProcState};
use zap::image::{AreaImage, DescImage, MacMode, PipeImage, SemImage, ShmImage};
use zap::{PodConfig, PodId, PodImage, Zap, ZapError};

fn node(ip_last: u8, mac: u32, fs: &NetFs) -> (Kernel, Zap) {
    let net = NetStack::new(
        MacAddr::from_index(mac),
        IpAddr::from_octets([10, 0, 0, ip_last]),
        24,
        TcpConfig::default(),
    );
    let mut k = Kernel::new(
        net,
        fs.clone(),
        Disk::new(DiskParams::default()),
        KernelParams::default(),
    );
    let z = Zap::new();
    z.install(&mut k);
    (k, z)
}

fn pod_cfg(name: &str, ip_last: u8) -> PodConfig {
    PodConfig {
        name: name.into(),
        ip: IpAddr::from_octets([10, 0, 0, ip_last]),
        mac_mode: MacMode::Dedicated(MacAddr::from_index(1000 + ip_last as u32)),
    }
}

/// Drives the kernel until simulated time reaches `until`.
fn run_for(k: &mut Kernel, now: &mut SimTime, until: SimTime) {
    while *now < until {
        if k.has_runnable() {
            *now += k.run_slice(*now).elapsed;
            let _ = k.take_frames();
        } else if let Some(t) = k.next_timer() {
            if t > until {
                *now = until;
                break;
            }
            *now = (*now).max(t);
            k.on_tick(*now);
            let _ = k.take_frames();
        } else {
            break;
        }
    }
}

/// Drives the kernel until `pred` holds (or the step budget is exhausted).
fn run_until(
    k: &mut Kernel,
    now: &mut SimTime,
    max_steps: u64,
    pred: impl Fn(&Kernel) -> bool,
) -> bool {
    for _ in 0..max_steps {
        if pred(k) {
            return true;
        }
        if k.has_runnable() {
            let out = k.run_slice(*now);
            *now += out.elapsed;
            let _ = k.take_frames();
        } else if let Some(t) = k.next_timer() {
            *now = (*now).max(t);
            k.on_tick(*now);
            let _ = k.take_frames();
        } else {
            return pred(k);
        }
    }
    pred(k)
}

fn zombie_code(k: &Kernel, z: &Zap, pod: PodId, vpid: u32) -> Option<u64> {
    let pid = z.real_pid(pod, vpid)?;
    match k.process(pid)?.state {
        ProcState::Zombie(code) => Some(code),
        _ => None,
    }
}

/// A program that sums 1..=n in a long loop, then exits with the sum.
fn summing_program(n: i64) -> Program {
    let mut a = Asm::new(CODE_BASE);
    a.movi(R6, 0); // acc
    a.movi(R7, 1); // i
    a.movi(R8, n);
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.add(R6, R6, R7);
    a.addi(R7, R7, 1);
    a.cmp_gt_jump(R7, R8, done);
    a.jmp(top);
    a.bind(done);
    a.mov(R1, R6);
    a.sys(nr::EXIT);
    Program::from_asm(&a).unwrap()
}

#[test]
fn checkpoint_mid_compute_and_restart_elsewhere() {
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);

    let pod = z1.create_pod(&mut k1, pod_cfg("job", 50)).unwrap();
    let n = 100_000i64;
    let vpid = z1.spawn_in_pod(&mut k1, pod, &summing_program(n)).unwrap();

    // Run a handful of slices: the loop is mid-flight.
    let mut now = SimTime::ZERO;
    for _ in 0..3 {
        now += k1.run_slice(now).elapsed;
    }
    assert_eq!(zombie_code(&k1, &z1, pod, vpid), None, "not finished yet");

    // Checkpoint on node 1, serialize, destroy, restore on node 2.
    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    let bytes = image.encode();
    z1.destroy_pod(&mut k1, pod).unwrap();
    let decoded = PodImage::decode(&bytes).unwrap();
    assert_eq!(decoded, image, "image codec is faithful");

    // Node 2 has colliding pid numbers already in use (the BLCR failure
    // case the paper calls out): restore must still work.
    let filler = summing_program(10);
    for _ in 0..5 {
        let _ = k2.spawn(&filler).unwrap();
    }
    let pod2 = z2.restart_pod(&mut k2, decoded, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();

    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 2_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    let expected = (n as u64) * (n as u64 + 1) / 2;
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid), Some(expected));
}

#[test]
fn restore_refuses_pages_outside_private_areas() {
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("job", 50)).unwrap();
    z1.spawn_in_pod(&mut k1, pod, &summing_program(1000))
        .unwrap();
    let now = SimTime::ZERO + k1.run_slice(SimTime::ZERO).elapsed;
    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    assert!(!image.groups[0].pages.is_empty());

    // A page record at an unaligned address.
    let mut unaligned = image.clone();
    unaligned.groups[0].pages[0].0 += 8;
    // A page record inside a shared-memory area, where the private page
    // table must hold nothing.
    let mut in_shm = image.clone();
    let start = 0x3800_0000;
    in_shm.shm.push(ShmImage {
        key: 9,
        data: vec![0; 4096],
    });
    in_shm.groups[0].areas.push(AreaImage {
        start,
        len: 4096,
        tag: "shm".into(),
        shm_index: Some(in_shm.shm.len() as u32 - 1),
    });
    in_shm.groups[0].pages[0].0 = start;

    for bad in [unaligned, in_shm] {
        let r = z2.restart_pod(&mut k2, bad, now);
        assert!(matches!(r, Err(ZapError::Inconsistent(_))), "{r:?}");
    }
    // Nothing was created: the pod's address is still free on node 2.
    z2.restart_pod(&mut k2, image, now).unwrap();
}

#[test]
fn pod_finished_is_false_for_a_pod_the_node_does_not_hold() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let pod = z.create_pod(&mut k, pod_cfg("job", 50)).unwrap();
    z.spawn_in_pod(&mut k, pod, &summing_program(10)).unwrap();
    let mut now = SimTime::ZERO;
    assert!(run_until(&mut k, &mut now, 1_000_000, |k| z.pod_finished(k, pod)));
    z.destroy_pod(&mut k, pod).unwrap();
    assert!(!z.pod_finished(&k, pod), "a destroyed pod is not finished");
    assert!(!z.pod_finished(&k, PodId(99)), "nor is one never created");
}

#[test]
fn getpid_returns_virtual_pid() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    // Occupy real pids first so virtual and real diverge.
    for _ in 0..7 {
        let _ = k.spawn(&summing_program(1)).unwrap();
    }
    let pod = z.create_pod(&mut k, pod_cfg("p", 51)).unwrap();
    let mut a = Asm::new(CODE_BASE);
    a.sys(nr::GETPID);
    a.mov(R1, simcpu::isa::R0);
    a.sys(nr::EXIT);
    let prog = Program::from_asm(&a).unwrap();
    let vpid = z.spawn_in_pod(&mut k, pod, &prog).unwrap();
    assert_eq!(vpid, 1);
    let mut now = SimTime::ZERO;
    run_until(&mut k, &mut now, 100_000, |k| {
        zombie_code(k, &z, pod, vpid).is_some()
    });
    assert_eq!(zombie_code(&k, &z, pod, vpid), Some(1), "guest sees vpid 1");
}

#[test]
fn spawn_in_pod_returns_vpids_and_kill_translates() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let pod = z.create_pod(&mut k, pod_cfg("p", 52)).unwrap();

    let stack2 = 0x3000_0000u64;
    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    a.movi_label(R1, child);
    a.movi(R2, (stack2 + 0x4000) as i64);
    a.movi(R3, 0);
    a.sys(nr::SPAWN); // returns child's vpid
    a.mov(R6, simcpu::isa::R0);
    // kill(child_vpid, SIGKILL)
    a.mov(R1, R6);
    a.movi(R2, 9);
    a.sys(nr::KILL);
    a.mov(R1, R6);
    a.sys(nr::EXIT); // exit(child_vpid)
    a.bind(child);
    let spin = a.label();
    a.bind(spin);
    a.sys(nr::YIELD);
    a.jmp(spin);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_map(stack2, 0x4000, "stack2");

    let vpid = z.spawn_in_pod(&mut k, pod, &prog).unwrap();
    let mut now = SimTime::ZERO;
    run_until(&mut k, &mut now, 100_000, |k| {
        zombie_code(k, &z, pod, vpid).is_some()
    });
    assert_eq!(zombie_code(&k, &z, pod, vpid), Some(2), "child got vpid 2");
    // Child was killed via its vpid.
    let child_code = zombie_code(&k, &z, pod, 2);
    assert_eq!(child_code, Some(128 + 9));
}

#[test]
fn bind_is_confined_to_pod_ip_and_ioctl_reports_fake_mac() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let fake = MacAddr::from_index(9999);
    let cfg = PodConfig {
        name: "p".into(),
        ip: IpAddr::from_octets([10, 0, 0, 53]),
        mac_mode: MacMode::SharedPhysical { fake_mac: fake },
    };
    let pod = z.create_pod(&mut k, cfg).unwrap();

    let buf = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    // socket; bind(ANY:8080); listen
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, 0); // ANY — the interposer must rewrite this
    a.movi(R3, 8080);
    a.sys(nr::BIND);
    a.mov(R1, R6);
    a.movi(R2, 1);
    a.sys(nr::LISTEN);
    // ioctl(fd, SIOCGIFHWADDR, buf) then log 6 bytes
    a.mov(R1, R6);
    a.movi(R2, 0x8927);
    a.movi(R3, buf);
    a.sys(nr::IOCTL);
    a.sys2(nr::LOG, buf, 6);
    a.sys1(nr::SLEEP, 10_000_000); // stay alive so the listener can be inspected
    a.sys1(nr::EXIT, 0);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 64]);
    let vpid = z.spawn_in_pod(&mut k, pod, &prog).unwrap();
    let mut now = SimTime::ZERO;
    run_until(&mut k, &mut now, 100_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });
    assert_eq!(zombie_code(&k, &z, pod, vpid), None);
    // The listener is bound to the pod's IP, not ANY and not the host IP.
    let pid = z.real_pid(pod, vpid).unwrap();
    let fds = k.process(pid).unwrap().fds.clone();
    let listener_addr = fds
        .borrow()
        .iter()
        .find_map(|(_, d)| match d {
            simos::fd::Desc::Socket(sid) => k.net.tcp_local_addr(*sid),
            _ => None,
        })
        .unwrap();
    assert_eq!(listener_addr.ip, IpAddr::from_octets([10, 0, 0, 53]));
    assert_eq!(listener_addr.port, 8080);
    // The guest saw the fake MAC, not the physical one.
    let logged = k.process(pid).unwrap().console[0].clone();
    assert_eq!(logged.as_bytes(), &fake.octets());
    assert_ne!(fake, k.net.primary_mac());
}

/// Sender pod program: connect to `dst`, send a payload, then linger.
fn sender_program(dst: IpAddr, port: i64, payload: &[u8]) -> Program {
    let msg = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SLEEP, 1_000_000); // let the receiver listen
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, dst.to_bits() as i64);
    a.movi(R3, port);
    a.sys(nr::CONNECT);
    a.mov(R1, R6);
    a.movi(R2, msg);
    a.movi(R3, payload.len() as i64);
    a.sys(nr::SEND);
    a.sys1(nr::SLEEP, 1_000_000_000); // keep the connection alive
    a.sys1(nr::EXIT, 0);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, payload.to_vec())
}

/// Receiver pod program: accept one connection, sleep (so data queues in the
/// kernel), then read and log it. With `fault_first`, it first reads into
/// an unmapped buffer and exits with that read's errno.
fn receiver_program(port: i64, fault_first: bool) -> Program {
    let buf = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::SOCKET, 0);
    a.mov(R6, simcpu::isa::R0);
    a.mov(R1, R6);
    a.movi(R2, 0);
    a.movi(R3, port);
    a.sys(nr::BIND);
    a.mov(R1, R6);
    a.movi(R2, 2);
    a.sys(nr::LISTEN);
    a.sys_r(nr::ACCEPT, &[R6]);
    a.mov(R7, simcpu::isa::R0);
    a.sys1(nr::SLEEP, 20_000_000); // 20 ms: the checkpoint lands here
    a.movi(R10, 0);
    if fault_first {
        a.mov(R1, R7);
        a.movi(R2, 0x7000_0000); // unmapped
        a.movi(R3, 64);
        a.sys(nr::RECV);
        a.sub(R10, R10, simcpu::isa::R0);
    }
    a.mov(R1, R7);
    a.movi(R2, buf);
    a.movi(R3, 64);
    a.sys(nr::RECV);
    a.mov(R9, simcpu::isa::R0);
    a.movi(R1, buf);
    a.mov(R2, R9);
    a.sys(nr::LOG);
    a.mov(R1, R10);
    a.sys(nr::EXIT);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 128])
}

/// Two pods on one node, connected over loopback. The receiver (running
/// `receiver_program(9000, fault_first)`) is checkpointed *after* data
/// reached its kernel receive queue but *before* the application read it,
/// then restarted. Returns the receiver's exit code and console.
fn restart_receiver_with_undelivered_data(
    payload: &[u8],
    fault_first: bool,
) -> (Option<u64>, Vec<String>) {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let recv_ip = IpAddr::from_octets([10, 0, 0, 60]);
    let pod_s = z.create_pod(&mut k, pod_cfg("sender", 61)).unwrap();
    let pod_r = z.create_pod(&mut k, pod_cfg("receiver", 60)).unwrap();

    let vs = z
        .spawn_in_pod(&mut k, pod_s, &sender_program(recv_ip, 9000, payload))
        .unwrap();
    let vr = z
        .spawn_in_pod(&mut k, pod_r, &receiver_program(9000, fault_first))
        .unwrap();
    let _ = vs;

    // Run until the data sits in the receiver's kernel buffers (sender has
    // sent; receiver is still sleeping). 5 ms is comfortably inside the
    // receiver's 20 ms nap and after the sender's 1 ms delay.
    let mut now = SimTime::ZERO;
    run_for(
        &mut k,
        &mut now,
        SimTime::ZERO + SimDuration::from_millis(5),
    );
    assert!(now < SimTime::ZERO + SimDuration::from_millis(20));

    // Checkpoint + destroy + restart the receiver pod on the same node.
    let image = z.checkpoint_pod(&mut k, pod_r, now).unwrap();
    // The image captured the undelivered stream.
    let has_alt = image.sockets.iter().any(|s| match s {
        SockSnapshot::Conn(snap) => snap.recv_stream == payload,
        _ => false,
    });
    assert!(
        has_alt,
        "checkpoint must capture the undelivered receive data"
    );

    z.destroy_pod(&mut k, pod_r).unwrap();
    let pod_r2 = z.restart_pod(&mut k, image, now).unwrap();
    z.resume_pod(&mut k, pod_r2, now).unwrap();

    assert!(run_until(&mut k, &mut now, 2_000_000, |k| {
        zombie_code(k, &z, pod_r2, vr).is_some()
    }));
    (
        zombie_code(&k, &z, pod_r2, vr),
        z.console_of(&k, pod_r2, vr).unwrap(),
    )
}

#[test]
fn undelivered_socket_data_survives_restart_via_alternate_buffer() {
    // After restart, the interposed recv must deliver exactly the
    // undelivered data from the alternate buffer.
    let payload = b"precious bytes";
    let (code, logged) = restart_receiver_with_undelivered_data(payload, false);
    assert_eq!(code, Some(0));
    assert_eq!(logged, vec![String::from_utf8_lossy(payload).to_string()]);
}

#[test]
fn faulting_recv_leaves_the_alternate_buffer_intact() {
    // A recv into unmapped memory fails with EFAULT before draining the
    // alternate buffer, so the next recv still gets every byte.
    let payload = b"precious bytes";
    let (code, logged) = restart_receiver_with_undelivered_data(payload, true);
    assert_eq!(code, Some(7)); // Errno::Fault
    assert_eq!(logged, vec![String::from_utf8_lossy(payload).to_string()]);
}

#[test]
fn pipes_files_and_sleep_survive_restart() {
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("p", 54)).unwrap();

    // Program: create a pipe; write "inflight" into it; write a file and
    // read half; sleep 50 ms; then read the pipe, log it, and log the rest
    // of the file.
    let fds_ptr = DATA_BASE as i64;
    let msg = DATA_BASE as i64 + 32;
    let buf = DATA_BASE as i64 + 64;
    let path = DATA_BASE as i64 + 160;
    let mut a = Asm::new(CODE_BASE);
    a.sys1(nr::PIPE, fds_ptr);
    a.movi(R6, fds_ptr);
    a.ld(R7, R6, 0); // read fd
    a.ld(R8, R6, 8); // write fd
    a.mov(R1, R8);
    a.movi(R2, msg);
    a.movi(R3, 8);
    a.sys(nr::WRITE);
    // file: open create, write "abcdef", reopen, read 3
    a.sys3(nr::OPEN, path, 2, 1);
    a.mov(R9, simcpu::isa::R0);
    a.mov(R1, R9);
    a.movi(R2, msg);
    a.movi(R3, 8);
    a.sys(nr::WRITE);
    a.sys_r(nr::CLOSE, &[R9]);
    a.sys3(nr::OPEN, path, 2, 0);
    a.mov(R9, simcpu::isa::R0);
    a.mov(R1, R9);
    a.movi(R2, buf);
    a.movi(R3, 3);
    a.sys(nr::READ);
    // --- checkpoint lands in this sleep ---
    a.sys1(nr::SLEEP, 50_000_000);
    // read pipe and log
    a.mov(R1, R7);
    a.movi(R2, buf);
    a.movi(R3, 16);
    a.sys(nr::READ);
    a.mov(R6, simcpu::isa::R0);
    a.movi(R1, buf);
    a.mov(R2, R6);
    a.sys(nr::LOG);
    // read remaining file bytes (offset was 3) and log
    a.mov(R1, R9);
    a.movi(R2, buf);
    a.movi(R3, 16);
    a.sys(nr::READ);
    a.mov(R6, simcpu::isa::R0);
    a.movi(R1, buf);
    a.mov(R2, R6);
    a.sys(nr::LOG);
    a.sys1(nr::EXIT, 0);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 32])
        .with_data(DATA_BASE + 32, b"inflight".to_vec())
        .with_data(DATA_BASE + 160, b"/shared/file".to_vec());

    let vpid = z1.spawn_in_pod(&mut k1, pod, &prog).unwrap();
    let mut now = SimTime::ZERO;
    // Run into the sleep (but not past it).
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });

    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    assert_eq!(image.pipes.len(), 1);
    assert_eq!(image.pipes[0].data, b"inflight");
    z1.destroy_pod(&mut k1, pod).unwrap();

    let pod2 = z2.restart_pod(&mut k2, image, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 1_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    let pid = z2.real_pid(pod2, vpid).unwrap();
    let console = k2.process(pid).unwrap().console.clone();
    assert_eq!(console, vec!["inflight".to_string(), "light".to_string()]);
    // The sleep completed no earlier than its original absolute deadline.
    assert!(now2 >= SimTime::ZERO + SimDuration::from_millis(50));
}

#[test]
fn destroyed_pod_frees_its_address() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let cfg = pod_cfg("p", 55);
    let pod = z.create_pod(&mut k, cfg.clone()).unwrap();
    assert!(k.net.is_local_ip(cfg.ip));
    // Same IP cannot be claimed twice.
    assert!(z.create_pod(&mut k, cfg.clone()).is_err());
    z.destroy_pod(&mut k, pod).unwrap();
    assert!(!k.net.is_local_ip(cfg.ip));
    // Now it can.
    let again = z.create_pod(&mut k, cfg).unwrap();
    assert_ne!(again, pod);
}

#[test]
fn checkpoint_preserves_zombies_for_waitpid() {
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("p", 56)).unwrap();

    // Parent spawns a child that exits immediately; parent sleeps past the
    // checkpoint, then waits for the child: the zombie must have moved.
    let stack2 = 0x3000_0000u64;
    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    a.movi_label(R1, child);
    a.movi(R2, (stack2 + 0x4000) as i64);
    a.movi(R3, 0);
    a.sys(nr::SPAWN);
    a.mov(R6, simcpu::isa::R0);
    a.sys1(nr::SLEEP, 30_000_000);
    a.sys_r(nr::WAITPID, &[R6]);
    a.mov(R1, simcpu::isa::R0);
    a.sys(nr::EXIT);
    a.bind(child);
    a.sys1(nr::EXIT, 44);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_map(stack2, 0x4000, "stack2");

    let vpid = z1.spawn_in_pod(&mut k1, pod, &prog).unwrap();
    let mut now = SimTime::ZERO;
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });
    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    z1.destroy_pod(&mut k1, pod).unwrap();
    let pod2 = z2.restart_pod(&mut k2, image, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 1_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid), Some(44));
}

/// A program with a large (never-touched) resident array and a small hot
/// page: phase 1 bumps a counter, then a long sleep (checkpoint window),
/// then more bumps and exit(counter).
fn counter_program(big_bytes: usize) -> Program {
    let counter = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    // counter = 5
    a.movi(R6, counter);
    a.movi(R7, 5);
    a.st(R6, R7, 0);
    a.sys1(nr::SLEEP, 10_000_000); // first checkpoint lands here
                                   // counter += 2  (dirties exactly one data page)
    a.movi(R6, counter);
    a.ld(R7, R6, 0);
    a.addi(R7, R7, 2);
    a.st(R6, R7, 0);
    a.sys1(nr::SLEEP, 10_000_000); // second checkpoint lands here
    a.movi(R6, counter);
    a.ld(R7, R6, 0);
    a.addi(R7, R7, 100);
    a.mov(R1, R7);
    a.sys(nr::EXIT);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 4096])
        .with_data(0x0200_0000, vec![0x7au8; big_bytes])
}

#[test]
fn checkpoint_chain_restores_correctly() {
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("inc", 70)).unwrap();
    let big = 1024 * 1024;
    let vpid = z1
        .spawn_in_pod(&mut k1, pod, &counter_program(big))
        .unwrap();

    // Into the first sleep: the first capture.
    let mut now = SimTime::ZERO;
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });
    z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    z1.resume_pod(&mut k1, pod, now).unwrap();

    // Run into the second sleep (its timer lies past the first one's):
    // a second, full capture.
    let resumed_at = now;
    assert!(run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable()
            && k.next_timer()
                .map(|t| t > resumed_at + SimDuration::from_millis(15))
                .unwrap_or(false)
    }));
    let second = z1.checkpoint_pod(&mut k1, pod, now).unwrap();

    // Restore the second capture on a different node; the program finishes
    // with the counter evolved across BOTH checkpoints: 5 + 2 + 100.
    z1.destroy_pod(&mut k1, pod).unwrap();
    let pod2 = z2.restart_pod(&mut k2, second, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 1_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid), Some(107));
}

#[test]
fn first_capture_restores_and_runs_to_completion() {
    // Restored from the first capture on another node, the program picks
    // up at its first sleep: 5 + 2 + 100.
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("inc2", 71)).unwrap();
    let vpid = z1
        .spawn_in_pod(&mut k1, pod, &counter_program(512 * 1024))
        .unwrap();
    let mut now = SimTime::ZERO;
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });
    let full = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    z1.destroy_pod(&mut k1, pod).unwrap();
    assert!(!full.groups[0].pages.is_empty());
    let pod2 = z2.restart_pod(&mut k2, full, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 1_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid), Some(107));
}

#[test]
fn threads_sharing_memory_survive_restart_together() {
    // A thread group (shared address space + fd table) checkpointed
    // mid-run must restore as one group: a write by the restored thread is
    // visible to the restored parent.
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("thr", 72)).unwrap();

    let flag = DATA_BASE as i64 + 64;
    let stack2 = 0x3000_0000u64;
    let mut a = Asm::new(CODE_BASE);
    let worker = a.label();
    // parent: spawn worker; sleep (checkpoint window); read flag; exit(flag)
    a.movi_label(R1, worker);
    a.movi(R2, (stack2 + 0x4000) as i64);
    a.movi(R3, 0);
    a.sys(nr::SPAWN);
    a.mov(R9, simcpu::isa::R0);
    a.sys1(nr::SLEEP, 20_000_000);
    a.sys_r(nr::WAITPID, &[R9]);
    a.movi(R6, flag);
    a.ld(R1, R6, 0);
    a.sys(nr::EXIT);
    // worker: sleep past the checkpoint too, then set flag = 88, exit
    a.bind(worker);
    a.sys1(nr::SLEEP, 20_000_000);
    a.movi(R6, flag);
    a.movi(R7, 88);
    a.st(R6, R7, 0);
    a.sys1(nr::EXIT, 0);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 4096])
        .with_map(stack2, 0x4000, "stack2");

    let vpid = z1.spawn_in_pod(&mut k1, pod, &prog).unwrap();
    let mut now = SimTime::ZERO;
    // Both threads blocked in their sleeps.
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });
    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    // One thread group: a single address space captured once.
    assert_eq!(image.groups.len(), 1);
    assert_eq!(image.procs.len(), 2);
    z1.destroy_pod(&mut k1, pod).unwrap();

    let pod2 = z2.restart_pod(&mut k2, image, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 1_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    // The worker's write (made after restart) reached the parent through
    // the restored shared address space.
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid), Some(88));
}

#[test]
fn shared_memory_segment_restores_shared_between_processes() {
    // Two separate processes in one pod attached to the same SysV segment:
    // after restart, the segment must still be one object, not two copies.
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("shm", 73)).unwrap();
    let shm_addr = 0x3800_0000u64;

    // Writer: attach, sleep (checkpoint), write 123, exit.
    let mut wa = Asm::new(CODE_BASE);
    wa.sys2(nr::SHMGET, 9, 4096);
    wa.mov(R6, simcpu::isa::R0);
    wa.mov(R1, R6);
    wa.movi(R2, shm_addr as i64);
    wa.sys(nr::SHMAT);
    wa.sys1(nr::SLEEP, 20_000_000);
    wa.movi(R6, shm_addr as i64);
    wa.movi(R7, 123);
    wa.st(R6, R7, 0);
    wa.sys1(nr::EXIT, 0);
    let writer = Program::from_asm(&wa).unwrap();

    // Reader: attach, sleep longer, read, exit(value).
    let mut ra = Asm::new(CODE_BASE);
    ra.sys1(nr::SLEEP, 1_000_000);
    ra.sys2(nr::SHMGET, 9, 4096);
    ra.mov(R6, simcpu::isa::R0);
    ra.mov(R1, R6);
    ra.movi(R2, shm_addr as i64);
    ra.sys(nr::SHMAT);
    ra.sys1(nr::SLEEP, 40_000_000);
    ra.movi(R6, shm_addr as i64);
    ra.ld(R1, R6, 0);
    ra.sys(nr::EXIT);
    let reader = Program::from_asm(&ra).unwrap();

    let _wv = z1.spawn_in_pod(&mut k1, pod, &writer).unwrap();
    let rv = z1.spawn_in_pod(&mut k1, pod, &reader).unwrap();
    let mut now = SimTime::ZERO;
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some()
    });
    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    assert_eq!(image.shm.len(), 1, "the pod's segment is captured");
    z1.destroy_pod(&mut k1, pod).unwrap();

    let pod2 = z2.restart_pod(&mut k2, image, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 2_000_000, |k| {
        zombie_code(k, &z2, pod2, rv).is_some()
    }));
    // The writer's post-restart store is visible to the reader: the
    // restored mappings alias ONE segment.
    assert_eq!(zombie_code(&k2, &z2, pod2, rv), Some(123));
}

/// A server pod (on `k`, next to a client pod) whose listener holds one
/// established, unaccepted connection with six received bytes: the client
/// connected and sent `queued` while the server sleeps before `accept`.
/// Once woken, the server accepts, receives, logs what it read and exits.
/// Returns the server pod, its vpid and the time reached (5 ms).
fn server_with_queued_connection(k: &mut Kernel, z: &Zap) -> (PodId, u32, SimTime) {
    let pod_c = z.create_pod(k, pod_cfg("client", 80)).unwrap();
    let pod_s = z.create_pod(k, pod_cfg("server", 81)).unwrap();
    let server_ip = IpAddr::from_octets([10, 0, 0, 81]);

    // Server: listen, sleep 20 ms (checkpoint lands here, with the client
    // already queued), then accept + recv + log + exit.
    let buf = DATA_BASE as i64;
    let mut sa = Asm::new(CODE_BASE);
    sa.sys1(nr::SOCKET, 0);
    sa.mov(R6, simcpu::isa::R0);
    sa.mov(R1, R6);
    sa.movi(R2, 0);
    sa.movi(R3, 7500);
    sa.sys(nr::BIND);
    sa.mov(R1, R6);
    sa.movi(R2, 4);
    sa.sys(nr::LISTEN);
    sa.sys1(nr::SLEEP, 20_000_000);
    sa.sys_r(nr::ACCEPT, &[R6]);
    sa.mov(R7, simcpu::isa::R0);
    sa.mov(R1, R7);
    sa.movi(R2, buf);
    sa.movi(R3, 64);
    sa.sys(nr::RECV);
    sa.mov(R8, simcpu::isa::R0);
    sa.movi(R1, buf);
    sa.mov(R2, R8);
    sa.sys(nr::LOG);
    sa.sys1(nr::EXIT, 0);
    let server = Program::from_asm(&sa)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 128]);

    // Client: connect early, send, keep living.
    let msg = DATA_BASE as i64 + 64;
    let mut ca = Asm::new(CODE_BASE);
    ca.sys1(nr::SLEEP, 1_000_000);
    ca.sys1(nr::SOCKET, 0);
    ca.mov(R6, simcpu::isa::R0);
    ca.mov(R1, R6);
    ca.movi(R2, server_ip.to_bits() as i64);
    ca.movi(R3, 7500);
    ca.sys(nr::CONNECT);
    ca.mov(R1, R6);
    ca.movi(R2, msg);
    ca.movi(R3, 6);
    ca.sys(nr::SEND);
    ca.sys1(nr::SLEEP, 1_000_000_000);
    ca.sys1(nr::EXIT, 0);
    let client = Program::from_asm(&ca)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 64])
        .with_data(DATA_BASE + 64, b"queued".to_vec());

    let sv = z.spawn_in_pod(k, pod_s, &server).unwrap();
    let _cv = z.spawn_in_pod(k, pod_c, &client).unwrap();

    // Run 5 ms: client connected and sent; server still asleep.
    let mut now = SimTime::ZERO;
    run_for(k, &mut now, SimTime::ZERO + SimDuration::from_millis(5));
    (pod_s, sv, now)
}

/// The received bytes of each pending child of the image's listener.
fn pending_streams(image: &PodImage) -> Vec<Vec<u8>> {
    image
        .sockets
        .iter()
        .find_map(|s| match s {
            SockSnapshot::Listen { pending, .. } => {
                Some(pending.iter().map(|c| c.recv_stream.clone()).collect())
            }
            _ => None,
        })
        .expect("listener captured")
}

/// Resumes a restored server pod and runs it to its exit; returns what it
/// logged.
fn serve(k: &mut Kernel, z: &Zap, pod: PodId, sv: u32, mut now: SimTime) -> Vec<String> {
    z.resume_pod(k, pod, now).unwrap();
    assert!(run_until(k, &mut now, 2_000_000, |k| {
        zombie_code(k, z, pod, sv).is_some()
    }));
    assert_eq!(zombie_code(k, z, pod, sv), Some(0));
    z.console_of(k, pod, sv).unwrap()
}

#[test]
fn pending_accept_queue_survives_restart() {
    // A client connects while the server pod is busy (asleep) — the
    // established-but-unaccepted connection sits in the listener's accept
    // queue. Checkpointing the server pod at that instant must carry the
    // queued connection; after restart the server accepts and serves it.
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let (pod_s, sv, now) = server_with_queued_connection(&mut k, &z);

    let image = z.checkpoint_pod(&mut k, pod_s, now).unwrap();
    // The image's listener carries exactly one pending connection.
    assert_eq!(
        pending_streams(&image),
        vec![b"queued".to_vec()],
        "queued connection rides in the image"
    );

    z.destroy_pod(&mut k, pod_s).unwrap();
    let pod_s2 = z.restart_pod(&mut k, image, now).unwrap();
    assert_eq!(serve(&mut k, &z, pod_s2, sv, now), vec!["queued"]);
}

#[test]
fn unaccepted_connection_keeps_its_parked_bytes_across_a_second_checkpoint() {
    // The first restore parks the pending child's received bytes in the
    // pod's alternate buffer. A second checkpoint before the server
    // accepts must save them again, or the server reads nothing.
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let (pod_s, sv, now) = server_with_queued_connection(&mut k, &z);
    let first = z.checkpoint_pod(&mut k, pod_s, now).unwrap();
    z.destroy_pod(&mut k, pod_s).unwrap();
    let pod_s2 = z.restart_pod(&mut k, first, now).unwrap();

    let second = z.checkpoint_pod(&mut k, pod_s2, now).unwrap();
    assert_eq!(pending_streams(&second), vec![b"queued".to_vec()]);
    z.destroy_pod(&mut k, pod_s2).unwrap();
    let pod_s3 = z.restart_pod(&mut k, second, now).unwrap();
    assert_eq!(serve(&mut k, &z, pod_s3, sv, now), vec!["queued"]);
}

/// True when a frame names `ip` as an ARP or IPv4 address.
fn names(frame: &EthFrame, ip: IpAddr) -> bool {
    match &frame.payload {
        EthPayload::Arp(a) => a.sender_ip == ip || a.target_ip == ip,
        EthPayload::Ipv4(p) => p.src == ip || p.dst == ip,
    }
}

#[test]
fn a_refused_image_leaves_nothing_behind() {
    // The server's image (a listener with a pending connection), given a
    // shm segment, a semaphore set and a pipe its process reads from.
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (pod_s, _, now) = server_with_queued_connection(&mut k1, &z1);
    let mut image = z1.checkpoint_pod(&mut k1, pod_s, now).unwrap();
    image.shm.push(ShmImage {
        key: 5,
        data: vec![1; 100],
    });
    image.sems.push(SemImage {
        key: 6,
        values: vec![2],
    });
    image.pipes.push(PipeImage {
        data: b"piped".to_vec(),
        readers: 1,
        writers: 0,
    });
    image.groups[0].fds.push((
        9,
        DescImage::Pipe {
            index: 0,
            write_end: false,
        },
    ));

    let mut bad_pipe = image.clone();
    bad_pipe.groups[0].fds.push((
        10,
        DescImage::Pipe {
            index: 99,
            write_end: true,
        },
    ));
    let mut bad_socket = image.clone();
    let past_sockets = bad_socket.sockets.len() as u32;
    bad_socket.groups[0].fds.push((
        10,
        DescImage::Socket {
            index: past_sockets,
        },
    ));
    let mut bad_group = image.clone();
    bad_group.procs[0].group = bad_group.groups.len() as u32;
    let mut two_listeners = image.clone();
    let listener = two_listeners
        .sockets
        .iter()
        .find(|s| matches!(s, SockSnapshot::Listen { .. }));
    two_listeners
        .sockets
        .push(listener.expect("listener captured").clone());
    // The same, with bytes the first listener's pending child must send
    // again: refusing the second listener must not leave that replay
    // queued on the wire.
    let mut replaying_listeners = two_listeners.clone();
    let Some(SockSnapshot::Listen { pending, .. }) = replaying_listeners
        .sockets
        .iter_mut()
        .find(|s| matches!(s, SockSnapshot::Listen { .. }))
    else {
        panic!("listener captured");
    };
    pending[0].unsent = b"replayed".to_vec();

    for bad in [
        bad_pipe,
        bad_socket,
        bad_group,
        two_listeners,
        replaying_listeners,
    ] {
        let (mut k2, z2) = node(2, 2, &fs);
        let stack_before = format!("{:?}", k2.net);
        let r = z2.restart_pod(&mut k2, bad, now);
        assert!(
            matches!(
                r,
                Err(ZapError::Inconsistent(_) | ZapError::Net(NetError::AddrInUse))
            ),
            "{r:?}"
        );
        assert!(z2.pod_ids().is_empty());
        assert!(!k2.net.is_local_ip(image.ip));
        assert!(k2.pids().is_empty());
        assert_eq!(k2.shm_iter().count(), 0);
        assert_eq!(k2.sems.iter().count(), 0);
        assert!(k2.pipes.get(PipeId(0)).is_none());
        // No socket, listener, connection or VIF left on the stack, and
        // no frame announcing the address the node does not hold.
        assert_eq!(format!("{:?}", k2.net), stack_before);
        assert!(!k2.take_frames().any(|f| names(&f, image.ip)));
        z2.restart_pod(&mut k2, image.clone(), now).unwrap();
    }
}

#[test]
fn queued_udp_datagrams_survive_restart() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let pod_rx = z.create_pod(&mut k, pod_cfg("rx", 82)).unwrap();
    let pod_tx = z.create_pod(&mut k, pod_cfg("tx", 83)).unwrap();
    let rx_ip = IpAddr::from_octets([10, 0, 0, 82]);

    // Receiver: bind, sleep (datagram arrives and queues), recvfrom, log.
    let buf = DATA_BASE as i64;
    let mut ra = Asm::new(CODE_BASE);
    ra.sys1(nr::SOCKET, 1);
    ra.mov(R6, simcpu::isa::R0);
    ra.mov(R1, R6);
    ra.movi(R2, 0);
    ra.movi(R3, 6100);
    ra.sys(nr::BIND);
    ra.sys1(nr::SLEEP, 20_000_000);
    ra.mov(R1, R6);
    ra.movi(R2, buf);
    ra.movi(R3, 64);
    ra.movi(simcpu::isa::R4, 0);
    ra.sys(nr::RECVFROM);
    ra.mov(R7, simcpu::isa::R0);
    ra.movi(R1, buf);
    ra.mov(R2, R7);
    ra.sys(nr::LOG);
    ra.sys1(nr::EXIT, 0);
    let receiver = Program::from_asm(&ra)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 128]);

    let msg = DATA_BASE as i64;
    let mut ta = Asm::new(CODE_BASE);
    ta.sys1(nr::SLEEP, 1_000_000);
    ta.sys1(nr::SOCKET, 1);
    ta.mov(R6, simcpu::isa::R0);
    ta.mov(R1, R6);
    ta.movi(R2, rx_ip.to_bits() as i64);
    ta.movi(R3, 6100);
    ta.movi(simcpu::isa::R4, msg);
    ta.movi(simcpu::isa::R5, 5);
    ta.sys(nr::SENDTO);
    ta.sys1(nr::EXIT, 0);
    let sender = Program::from_asm(&ta)
        .unwrap()
        .with_data(DATA_BASE, b"dgram".to_vec());

    let rv = z.spawn_in_pod(&mut k, pod_rx, &receiver).unwrap();
    let _tv = z.spawn_in_pod(&mut k, pod_tx, &sender).unwrap();
    let mut now = SimTime::ZERO;
    run_for(
        &mut k,
        &mut now,
        SimTime::ZERO + SimDuration::from_millis(5),
    );

    let image = z.checkpoint_pod(&mut k, pod_rx, now).unwrap();
    let queued = image
        .sockets
        .iter()
        .find_map(|s| match s {
            SockSnapshot::Udp { queue, .. } => Some(queue.len()),
            _ => None,
        })
        .expect("udp socket captured");
    assert_eq!(queued, 1, "the undelivered datagram rides in the image");

    z.destroy_pod(&mut k, pod_rx).unwrap();
    let pod_rx2 = z.restart_pod(&mut k, image, now).unwrap();
    z.resume_pod(&mut k, pod_rx2, now).unwrap();
    assert!(run_until(&mut k, &mut now, 2_000_000, |k| {
        zombie_code(k, &z, pod_rx2, rv).is_some()
    }));
    assert_eq!(
        z.console_of(&k, pod_rx2, rv).unwrap(),
        vec!["dgram".to_string()]
    );
}

#[test]
fn forked_processes_in_a_pod_checkpoint_as_separate_groups() {
    // fork inside a pod: the child gets a virtual pid, its own address
    // space copy, and both survive a checkpoint/restart as distinct groups.
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod = z1.create_pod(&mut k1, pod_cfg("fork", 84)).unwrap();

    let cell = DATA_BASE as i64;
    let mut a = Asm::new(CODE_BASE);
    let child = a.label();
    a.movi(R6, cell);
    a.movi(R7, 5);
    a.st(R6, R7, 0);
    a.sys(nr::FORK); // hook returns the child's VPID to the parent
    a.jz(simcpu::isa::R0, child);
    a.mov(R9, simcpu::isa::R0);
    // Parent sleeps across the checkpoint, then waits for the child and
    // exits with child_vpid*100 + child_code + own_cell.
    a.sys1(nr::SLEEP, 20_000_000);
    a.mov(R1, R9);
    a.muli(R1, R1, 100);
    a.push(R1);
    a.sys_r(nr::WAITPID, &[R9]);
    a.mov(R7, simcpu::isa::R0);
    a.pop(R1);
    a.add(R1, R1, R7);
    a.movi(R6, cell);
    a.ld(R7, R6, 0);
    a.add(R1, R1, R7);
    a.sys(nr::EXIT);
    // Child: mutate ITS copy, sleep across the checkpoint too, exit with
    // its view of the cell.
    a.bind(child);
    a.movi(R6, cell);
    a.movi(R7, 8);
    a.st(R6, R7, 0);
    a.sys1(nr::SLEEP, 20_000_000);
    a.movi(R6, cell);
    a.ld(R1, R6, 0);
    a.sys(nr::EXIT);
    let prog = Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; 16]);

    let vpid = z1.spawn_in_pod(&mut k1, pod, &prog).unwrap();
    let mut now = SimTime::ZERO;
    // Run until both processes are in their sleeps.
    run_until(&mut k1, &mut now, 1_000_000, |k| {
        !k.has_runnable() && k.next_timer().is_some() && k.live_processes() == 2
    });
    let image = z1.checkpoint_pod(&mut k1, pod, now).unwrap();
    assert_eq!(image.procs.len(), 2, "parent and forked child captured");
    assert_eq!(image.groups.len(), 2, "fork means two address spaces");
    z1.destroy_pod(&mut k1, pod).unwrap();

    let pod2 = z2.restart_pod(&mut k2, image, now).unwrap();
    z2.resume_pod(&mut k2, pod2, now).unwrap();
    let mut now2 = now;
    assert!(run_until(&mut k2, &mut now2, 2_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid).is_some()
    }));
    // child vpid = 2 → 200; child exit = its view (8); parent cell = 5.
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid), Some(213));
}

/// A program that sums 1..=n while scribbling its accumulator through a data
/// buffer, dirtying a fresh cache line (and eventually fresh pages) every
/// iteration — a worst case for post-arm copy-on-write traffic.
fn scribbling_program(n: i64) -> Program {
    const BUF_BYTES: i64 = 0x1_0000; // 16 pages of writable scratch
    let mut a = Asm::new(CODE_BASE);
    a.movi(R6, 0); // acc
    a.movi(R7, 1); // i
    a.movi(R8, n);
    a.movi(R9, DATA_BASE as i64); // write cursor
    a.movi(R10, DATA_BASE as i64 + BUF_BYTES); // cursor limit
    let top = a.label();
    let no_wrap = a.label();
    let done = a.label();
    a.bind(top);
    a.add(R6, R6, R7);
    a.st(R9, R6, 0);
    a.addi(R9, R9, 64);
    a.cmp_lt_jump(R9, R10, no_wrap);
    a.movi(R9, DATA_BASE as i64);
    a.bind(no_wrap);
    a.addi(R7, R7, 1);
    a.cmp_gt_jump(R7, R8, done);
    a.jmp(top);
    a.bind(done);
    a.mov(R1, R6);
    a.sys(nr::EXIT);
    Program::from_asm(&a)
        .unwrap()
        .with_data(DATA_BASE, vec![0u8; BUF_BYTES as usize])
}

#[test]
fn cow_arm_drain_matches_eager_capture() {
    // Twin deterministic kernels reach the identical instant; node 1 takes a
    // stop-the-world checkpoint (an arm drained at once, nothing written in
    // between), node 2 arms a COW snapshot, resumes, keeps computing
    // (overwriting armed pages), and only then drains. The late drain must
    // be byte-identical to the immediate one.
    let fs = NetFs::new();
    let (mut k1, z1) = node(1, 1, &fs);
    let (mut k2, z2) = node(2, 2, &fs);
    let pod1 = z1.create_pod(&mut k1, pod_cfg("job", 50)).unwrap();
    let pod2 = z2.create_pod(&mut k2, pod_cfg("job", 50)).unwrap();
    let n = 100_000i64;
    let vpid1 = z1
        .spawn_in_pod(&mut k1, pod1, &scribbling_program(n))
        .unwrap();
    let vpid2 = z2
        .spawn_in_pod(&mut k2, pod2, &scribbling_program(n))
        .unwrap();
    assert_eq!(vpid1, vpid2);

    let mut now1 = SimTime::ZERO;
    let mut now2 = SimTime::ZERO;
    for _ in 0..3 {
        now1 += k1.run_slice(now1).elapsed;
        now2 += k2.run_slice(now2).elapsed;
    }
    assert_eq!(now1, now2, "twin kernels diverged before capture");

    let eager = z1.checkpoint_pod(&mut k1, pod1, now1).unwrap();
    let armed = z2.checkpoint_pod_arm(&mut k2, pod2, now2).unwrap();

    // The arm phase hands back only the image skeleton: far smaller than the
    // full image, with the page payload still pending.
    assert!(armed.arm_bytes() < eager.encoded_len() as u64 / 4);
    assert_eq!(armed.pending_page_bytes(), eager.page_payload_bytes());

    // Resume the armed pod and let the guest scribble over snapshot pages.
    z2.resume_pod(&mut k2, pod2, now2).unwrap();
    for _ in 0..5 {
        now2 += k2.run_slice(now2).elapsed;
    }

    let (drained, copied) = armed.drain();
    assert!(
        copied > 0,
        "racing guest writes must force pre-image copies"
    );
    assert_eq!(
        drained.encode(),
        eager.encode(),
        "drained COW image differs from the stop-the-world capture"
    );

    // The armed pod is unharmed by the drain: it still finishes the job.
    assert!(run_until(&mut k2, &mut now2, 2_000_000, |k| {
        zombie_code(k, &z2, pod2, vpid2).is_some()
    }));
    let expected = (n as u64) * (n as u64 + 1) / 2;
    assert_eq!(zombie_code(&k2, &z2, pod2, vpid2), Some(expected));
}

#[test]
fn cow_arm_drop_leaves_pod_running() {
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let pod = z.create_pod(&mut k, pod_cfg("job", 50)).unwrap();
    let n = 50_000i64;
    let vpid = z.spawn_in_pod(&mut k, pod, &scribbling_program(n)).unwrap();
    let mut now = SimTime::ZERO;
    for _ in 0..3 {
        now += k.run_slice(now).elapsed;
    }
    let armed = z.checkpoint_pod_arm(&mut k, pod, now).unwrap();
    z.resume_pod(&mut k, pod, now).unwrap();
    now += k.run_slice(now).elapsed;
    drop(armed);
    assert!(run_until(&mut k, &mut now, 2_000_000, |k| {
        zombie_code(k, &z, pod, vpid).is_some()
    }));
    let expected = (n as u64) * (n as u64 + 1) / 2;
    assert_eq!(zombie_code(&k, &z, pod, vpid), Some(expected));
}

#[test]
fn dropped_cow_checkpoint_pins_no_page() {
    // An armed checkpoint abandoned without a drain (the abort path) must
    // release the arm-instant pages: once the guest writes on, every
    // resident page has exactly one owner, its address space.
    let fs = NetFs::new();
    let (mut k, z) = node(1, 1, &fs);
    let pod = z.create_pod(&mut k, pod_cfg("job", 50)).unwrap();
    let vpid = z
        .spawn_in_pod(&mut k, pod, &scribbling_program(50_000))
        .unwrap();
    let mut now = SimTime::ZERO;
    for _ in 0..3 {
        now += k.run_slice(now).elapsed;
    }
    drop(z.checkpoint_pod_arm(&mut k, pod, now).unwrap());
    z.resume_pod(&mut k, pod, now).unwrap();
    now += k.run_slice(now).elapsed;
    let pid = z.real_pid(pod, vpid).unwrap();
    let mem = k.process(pid).unwrap().mem.borrow();
    assert!(mem.resident_pages() > 1);
    assert!(mem.pages().all(|(_, p)| std::rc::Rc::strong_count(p) == 1));
}
