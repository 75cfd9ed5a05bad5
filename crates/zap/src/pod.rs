//! Pods: private process domains with virtualized identifiers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use simnet::addr::IpAddr;
use simnet::stack::SocketId;
use simos::proc::Pid;

use crate::image::MacMode;

/// A pod identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(pub u64);

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod{}", self.0)
    }
}

/// A virtual process id, private to a pod.
pub type Vpid = u32;

/// Configuration of a pod: its name and network identity.
#[derive(Debug, Clone)]
pub struct PodConfig {
    /// Human-readable name (also keys checkpoint files).
    pub name: String,
    /// The pod's externally routable IP address, preserved across
    /// checkpoint/restart and migration (§4.2).
    pub ip: IpAddr,
    /// How the pod's VIF obtains a MAC.
    pub mac_mode: MacMode,
}

/// A live pod on one node.
#[derive(Debug)]
pub struct Pod {
    /// Identifier.
    pub id: PodId,
    /// Configuration.
    pub cfg: PodConfig,
    /// The VIF name on the hosting node's stack.
    pub vif_name: String,
    /// Virtual-to-real pid mapping.
    pub vpid_to_pid: BTreeMap<Vpid, Pid>,
    /// Real-to-virtual pid mapping.
    pub pid_to_vpid: BTreeMap<Pid, Vpid>,
    /// Next virtual pid to hand out.
    pub next_vpid: Vpid,
    /// Restore-time alternate receive buffers, keyed by socket (§4.1): data
    /// delivered through the interposed `recv` before the real kernel
    /// buffers are consulted. A socket's entry goes when its queue drains,
    /// so an empty map switches the interception off (the paper's
    /// optimization).
    pub alt_recv: BTreeMap<SocketId, VecDeque<u8>>,
    /// Shared-memory keys this pod has used (tracked by the interposer so
    /// checkpoint knows what to save).
    pub shm_keys: BTreeSet<u64>,
    /// Semaphore keys this pod has used.
    pub sem_keys: BTreeSet<u64>,
}

impl Pod {
    /// Creates an empty pod.
    pub fn new(id: PodId, cfg: PodConfig, vif_name: String) -> Self {
        Pod {
            id,
            cfg,
            vif_name,
            vpid_to_pid: BTreeMap::new(),
            pid_to_vpid: BTreeMap::new(),
            next_vpid: 1,
            alt_recv: BTreeMap::new(),
            shm_keys: BTreeSet::new(),
            sem_keys: BTreeSet::new(),
        }
    }

    /// Registers a real pid under a fresh virtual pid.
    pub fn adopt(&mut self, pid: Pid) -> Vpid {
        let vpid = self.next_vpid;
        self.next_vpid += 1;
        self.vpid_to_pid.insert(vpid, pid);
        self.pid_to_vpid.insert(pid, vpid);
        vpid
    }

    /// Registers a real pid under a specific virtual pid (restore path).
    pub fn adopt_as(&mut self, pid: Pid, vpid: Vpid) {
        self.vpid_to_pid.insert(vpid, pid);
        self.pid_to_vpid.insert(pid, vpid);
        self.next_vpid = self.next_vpid.max(vpid + 1);
    }

    /// Resolves a virtual pid.
    pub fn pid_of(&self, vpid: Vpid) -> Option<Pid> {
        self.vpid_to_pid.get(&vpid).copied()
    }

    /// Resolves a real pid to its virtual pid.
    pub fn vpid_of(&self, pid: Pid) -> Option<Vpid> {
        self.pid_to_vpid.get(&pid).copied()
    }

    /// Real pids of the pod in virtual-pid order.
    pub fn pids(&self) -> Vec<Pid> {
        self.vpid_to_pid.values().copied().collect()
    }

    /// Forgets a real pid (after `waitpid` reaping or teardown).
    pub fn forget(&mut self, pid: Pid) {
        if let Some(vpid) = self.pid_to_vpid.remove(&pid) {
            self.vpid_to_pid.remove(&vpid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::MacAddr;

    fn pod() -> Pod {
        Pod::new(
            PodId(1),
            PodConfig {
                name: "p".into(),
                ip: IpAddr::from_octets([10, 0, 0, 50]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(50)),
            },
            "vif1".into(),
        )
    }

    #[test]
    fn vpid_allocation_and_lookup() {
        let mut p = pod();
        let v1 = p.adopt(100);
        let v2 = p.adopt(200);
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(p.pid_of(1), Some(100));
        assert_eq!(p.vpid_of(200), Some(2));
        assert_eq!(p.pids(), vec![100, 200]);
    }

    #[test]
    fn adopt_as_preserves_numbering() {
        let mut p = pod();
        p.adopt_as(500, 7);
        assert_eq!(p.pid_of(7), Some(500));
        // Fresh allocations continue above the restored vpid.
        assert_eq!(p.adopt(501), 8);
    }

    #[test]
    fn forget_removes_both_directions() {
        let mut p = pod();
        p.adopt(100);
        p.forget(100);
        assert_eq!(p.pid_of(1), None);
        assert_eq!(p.vpid_of(100), None);
    }
}
