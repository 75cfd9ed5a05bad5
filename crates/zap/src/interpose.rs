//! The syscall interposition layer — Zap's "thin layer between applications
//! and the OS".
//!
//! Every syscall from a pod process passes through [`ZapState`]'s
//! [`SyscallHook`] implementation, which:
//!
//! * exposes only **virtual pids** (`getpid`, `kill`, `waitpid`, `spawn`);
//! * confines sockets to the pod's VIF address by rewriting `bind` and
//!   implicitly binding before `connect` (§4.2);
//! * virtualizes the network-hardware view: `SIOCGIFHWADDR` returns the
//!   pod's (possibly fake) MAC and `SIOCGIFADDR` its VIF IP (§4.2);
//! * transparently delivers restore-time **alternate receive buffer** data
//!   through `recv`/`read` until the buffers drain, after which the
//!   interception deactivates (§4.1);
//! * records which shared-memory and semaphore keys the pod touches, so a
//!   checkpoint knows exactly which kernel objects belong to the pod.

use std::collections::BTreeMap;

use simnet::addr::SockAddr;
use simos::kernel::Kernel;
use simos::proc::Pid;
use simos::syscall::{ioctl, nr, HookDecision, SyscallHook};
use simos::Errno;

use crate::pod::{Pod, PodId};

/// The shared Zap state: all pods on one node.
///
/// This is the object installed as the kernel's syscall hook; the
/// [`crate::Zap`] manager holds another handle to it.
#[derive(Debug, Default)]
pub struct ZapState {
    /// Pods by id.
    pub pods: BTreeMap<PodId, Pod>,
    /// Which pod owns each real pid.
    pub pid_owner: BTreeMap<Pid, PodId>,
    /// Next pod id.
    pub next_pod: u64,
}

impl ZapState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pod owning `pid`, if any.
    pub fn pod_of_pid(&self, pid: Pid) -> Option<PodId> {
        self.pid_owner.get(&pid).copied()
    }

    fn pod_mut_of_pid(&mut self, pid: Pid) -> Option<&mut Pod> {
        let id = self.pid_owner.get(&pid).copied()?;
        self.pods.get_mut(&id)
    }
}

impl SyscallHook for ZapState {
    fn on_syscall(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        num: u64,
        args: [u64; 5],
    ) -> HookDecision {
        let Some(pod_id) = self.pod_of_pid(pid) else {
            return HookDecision::Pass; // not a pod process
        };
        match num {
            nr::GETPID => {
                let pod = self.pods.get(&pod_id).expect("owner exists");
                HookDecision::Done(pod.vpid_of(pid).unwrap_or(0) as u64)
            }
            nr::KILL => {
                let pod = self.pods.get(&pod_id).expect("owner exists");
                match pod.pid_of(args[0] as u32) {
                    Some(real) => {
                        let mut a = args;
                        a[0] = real as u64;
                        HookDecision::PassArgs(a)
                    }
                    None => HookDecision::Done(Errno::Srch.to_ret()),
                }
            }
            nr::WAITPID => {
                let pod = self.pods.get(&pod_id).expect("owner exists");
                match pod.pid_of(args[0] as u32) {
                    Some(real) => {
                        let mut a = args;
                        a[0] = real as u64;
                        HookDecision::PassArgs(a)
                    }
                    None => HookDecision::Done(Errno::Child.to_ret()),
                }
            }
            nr::SPAWN => {
                // Service the spawn ourselves so the guest receives a
                // virtual pid and the child joins the pod.
                match kernel.spawn_thread(pid, args[0], args[1], args[2]) {
                    Ok(child) => {
                        let pod = self.pods.get_mut(&pod_id).expect("owner exists");
                        let vpid = pod.adopt(child);
                        self.pid_owner.insert(child, pod_id);
                        HookDecision::Done(vpid as u64)
                    }
                    Err(e) => HookDecision::Done(e.to_ret()),
                }
            }
            nr::FORK => {
                // Same virtualization for fork: the parent sees the child's
                // virtual pid (the child's 0 is set by the kernel fork).
                match kernel.fork_process(pid) {
                    Ok(child) => {
                        let pod = self.pods.get_mut(&pod_id).expect("owner exists");
                        let vpid = pod.adopt(child);
                        self.pid_owner.insert(child, pod_id);
                        HookDecision::Done(vpid as u64)
                    }
                    Err(e) => HookDecision::Done(e.to_ret()),
                }
            }
            nr::BIND => {
                // Confine the socket to the pod's address: any IP argument
                // other than the VIF IP (including ANY) is replaced.
                let pod = self.pods.get(&pod_id).expect("owner exists");
                let mut a = args;
                a[1] = pod.cfg.ip.to_bits() as u64;
                HookDecision::PassArgs(a)
            }
            nr::CONNECT => {
                // Implicitly bind to the pod IP before the kernel's connect
                // picks the host's primary address.
                let pod_ip = self.pods.get(&pod_id).expect("owner exists").cfg.ip;
                if let Some(sid) = kernel.socket_of(pid, args[0] as u32) {
                    let unbound = kernel
                        .net
                        .tcp_local_addr(sid)
                        .map(|a| a.ip.is_unspecified())
                        .unwrap_or(true);
                    if unbound && kernel.net.tcp_info(sid).is_err() {
                        let _ = kernel.net.bind(sid, SockAddr::new(pod_ip, 0));
                    }
                }
                HookDecision::Pass
            }
            nr::IOCTL => {
                let pod = self.pods.get(&pod_id).expect("owner exists");
                match args[1] {
                    ioctl::SIOCGIFHWADDR => {
                        // Return the pod's visible (possibly fake) MAC, not
                        // the physical NIC's — the DHCP-identity trick.
                        let mac = pod.cfg.mac_mode.pod_visible_mac();
                        let mut v = [0u8; 8];
                        v[..6].copy_from_slice(&mac.octets());
                        match kernel.write_guest(pid, args[2], &v) {
                            Ok(()) => HookDecision::Done(0),
                            Err(e) => HookDecision::Done(e.to_ret()),
                        }
                    }
                    ioctl::SIOCGIFADDR => {
                        let ip = pod.cfg.ip.to_bits() as u64;
                        match kernel.write_guest(pid, args[2], &ip.to_le_bytes()) {
                            Ok(()) => HookDecision::Done(0),
                            Err(e) => HookDecision::Done(e.to_ret()),
                        }
                    }
                    _ => HookDecision::Pass,
                }
            }
            nr::RECV | nr::READ => {
                // Restore-time alternate buffer delivery (§4.1). Once every
                // buffer has drained the map is empty and `recv` passes
                // straight through.
                let pod = self.pods.get_mut(&pod_id).expect("owner exists");
                if pod.alt_recv.is_empty() {
                    return HookDecision::Pass;
                }
                let Some(sid) = kernel.socket_of(pid, args[0] as u32) else {
                    return HookDecision::Pass;
                };
                let Some(q) = pod.alt_recv.get_mut(&sid) else {
                    return HookDecision::Pass;
                };
                // Probe the destination before draining, so a fault leaves
                // the restored bytes queued.
                let n = q.len().min(args[2] as usize);
                if let Err(e) = kernel.check_guest(pid, args[1], n, true) {
                    return HookDecision::Done(e.to_ret());
                }
                let data = simnet::take_front(q, n);
                if q.is_empty() {
                    pod.alt_recv.remove(&sid);
                }
                match kernel.write_guest(pid, args[1], &data) {
                    Ok(()) => HookDecision::Done(data.len() as u64),
                    Err(e) => HookDecision::Done(e.to_ret()),
                }
            }
            nr::SHMGET => {
                let pod = self.pod_mut_of_pid(pid).expect("owner exists");
                pod.shm_keys.insert(args[0]);
                HookDecision::Pass
            }
            nr::SEMGET => {
                let pod = self.pod_mut_of_pid(pid).expect("owner exists");
                pod.sem_keys.insert(args[0]);
                HookDecision::Pass
            }
            _ => HookDecision::Pass,
        }
    }
}
