//! Shared assembly idioms for guest networking programs.
//!
//! Register conventions: these emitters clobber `r0`–`r5`, `r10` and `r14`
//! (the assembler's scratch). Callers keep long-lived values in `r6`–`r9`
//! and `r11`–`r13`.

use simcpu::asm::Asm;
use simcpu::isa::{Reg, R0, R1, R10, R2, R3, R4, R5};
use simnet::addr::IpAddr;
use simos::guest::AsmOs;
use simos::syscall::nr;

/// Emits: create a TCP socket, bind `ANY:port` (the pod interposer rewrites
/// the address), listen. Leaves the listening fd in `lfd`.
pub fn emit_listen(a: &mut Asm, port: u16, lfd: Reg) {
    a.sys1(nr::SOCKET, 0);
    a.mov(lfd, R0);
    a.mov(R1, lfd);
    a.movi(R2, 0);
    a.movi(R3, port as i64);
    a.sys(nr::BIND);
    a.mov(R1, lfd);
    a.movi(R2, 4);
    a.sys(nr::LISTEN);
}

/// Emits: accept one connection on `lfd`, leaving the connection fd in
/// `cfd`.
pub fn emit_accept(a: &mut Asm, lfd: Reg, cfd: Reg) {
    a.mov(R1, lfd);
    a.sys(nr::ACCEPT);
    a.mov(cfd, R0);
}

/// Emits: connect to `ip:port` with retry on refusal (the server may not be
/// listening yet). Leaves the connected fd in `fd`.
pub fn emit_connect_retry(a: &mut Asm, ip: IpAddr, port: u16, fd: Reg) {
    let retry = a.label();
    a.bind(retry);
    a.sys1(nr::SOCKET, 0);
    a.mov(fd, R0);
    a.mov(R1, fd);
    a.movi(R2, ip.to_bits() as i64);
    a.movi(R3, port as i64);
    a.sys(nr::CONNECT);
    // Success: r0 == 0.
    let ok = a.label();
    a.jz(R0, ok);
    // Failure: close, nap, retry.
    a.mov(R1, fd);
    a.sys(nr::CLOSE);
    a.sys1(nr::SLEEP, 1_000_000);
    a.jmp(retry);
    a.bind(ok);
}

/// Emits: send exactly `count` bytes from `buf` on `fd`, looping over
/// partial sends. Jumps to `fail` on error.
pub fn emit_send_all(a: &mut Asm, fd: Reg, buf: i64, count: i64, fail: simcpu::asm::Label) {
    a.movi(R10, 0); // bytes sent
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.mov(R1, fd);
    a.movi(R2, buf);
    a.add(R2, R2, R10);
    a.movi(R3, count);
    a.sub(R3, R3, R10);
    a.sys(nr::SEND);
    // r0 <= 0 (signed) means error.
    a.movi(R5, 1);
    a.clts(simcpu::isa::R14, R0, R5);
    a.jnz(simcpu::isa::R14, fail);
    a.add(R10, R10, R0);
    a.movi(R5, count);
    a.cltu(simcpu::isa::R14, R10, R5);
    a.jnz(simcpu::isa::R14, top);
    a.jmp(done);
    a.bind(done);
}

/// Emits: receive exactly `count` bytes into `buf` from `fd`, looping over
/// partial reads. Jumps to `fail` on EOF or error.
pub fn emit_recv_exact(a: &mut Asm, fd: Reg, buf: i64, count: i64, fail: simcpu::asm::Label) {
    a.movi(R10, 0);
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.mov(R1, fd);
    a.movi(R2, buf);
    a.add(R2, R2, R10);
    a.movi(R3, count);
    a.sub(R3, R3, R10);
    a.sys(nr::RECV);
    a.movi(R5, 1);
    a.clts(simcpu::isa::R14, R0, R5);
    a.jnz(simcpu::isa::R14, fail);
    a.add(R10, R10, R0);
    a.movi(R5, count);
    a.cltu(simcpu::isa::R14, R10, R5);
    a.jnz(simcpu::isa::R14, top);
    a.jmp(done);
    a.bind(done);
}

/// Suppresses unused warnings for emitters' conventional scratch registers.
#[allow(dead_code)]
fn _scratch() -> [Reg; 3] {
    [R4, R10, R0]
}
