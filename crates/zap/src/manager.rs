//! The Zap manager: pod lifecycle and single-node checkpoint/restart.
//!
//! The checkpoint procedure follows the paper's §4.1 step by step:
//!
//! 1. `SIGSTOP` every process in the pod (nothing at user level can change);
//! 2. take each socket's snapshot from the network stack
//!    ([`simnet::NetStack::snapshot`]) — receive streams non-destructively
//!    (the `MSG_PEEK` analogue, concatenated after any alternate-buffer
//!    remainder), send buffers *with packet boundaries*, and the connection
//!    state with its sequence numbers rewritten to present empty buffers;
//! 3. extract kernel object state (pipes with buffered bytes, System-V
//!    shared memory and semaphores) and per-group address spaces (areas
//!    plus non-zero pages only);
//! 4. record per-process CPU state and any blocked-and-restartable syscall.
//!
//! Restart recreates everything with **fresh real pids** behind the pod's
//! virtual-pid namespace (so images restore even when the original pids are
//! taken — the capability the paper highlights over BLCR), has the network
//! stack re-create sockets at the saved sequence numbers and replay saved
//! send data with Nagle/CORK temporarily disabled
//! ([`simnet::NetStack::restore`]), and parks the receive data it hands
//! back in the alternate buffers served by the interposer.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use des::SimTime;
use simcpu::cpu::Cpu;
use simnet::addr::{IpAddr, MacAddr};
use simnet::stack::SocketId;
use simnet::NetError;
use simos::fd::{Desc, FdTable, PipeEnd, PipeId};
use simos::kernel::Kernel;
use simos::mem::{nonzero, AddressSpace, MapError, PageBuf, PAGE_SIZE};
use simos::proc::{PendingSyscall, Pid, ProcState, Process, WaitFor};
use simos::program::{Program, ProgramError};
use simos::syscall::sig;

use crate::image::{
    AreaImage, DescImage, GroupImage, MacMode, PipeImage, PodImage, ProcImage, RunStateImage,
    SemImage, ShmImage,
};
use crate::interpose::ZapState;
use crate::pod::{Pod, PodConfig, PodId, Vpid};

/// Errors from pod operations.
#[derive(Debug)]
pub enum ZapError {
    /// No pod with that id on this node.
    NoSuchPod,
    /// The pod's IP is already present on this node.
    IpInUse,
    /// A network-stack operation failed.
    Net(NetError),
    /// The image was internally inconsistent.
    Inconsistent(&'static str),
    /// A guest program failed to load.
    Program(ProgramError),
    /// An address-space mapping failed during restore.
    Map(MapError),
}

impl fmt::Display for ZapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZapError::NoSuchPod => write!(f, "no such pod"),
            ZapError::IpInUse => write!(f, "pod ip already in use on this node"),
            ZapError::Net(e) => write!(f, "network: {e}"),
            ZapError::Inconsistent(s) => write!(f, "inconsistent image: {s}"),
            ZapError::Program(e) => write!(f, "program: {e}"),
            ZapError::Map(e) => write!(f, "mapping: {e}"),
        }
    }
}

impl std::error::Error for ZapError {}

impl From<NetError> for ZapError {
    fn from(e: NetError) -> Self {
        ZapError::Net(e)
    }
}

impl From<ProgramError> for ZapError {
    fn from(e: ProgramError) -> Self {
        ZapError::Program(e)
    }
}

impl From<MapError> for ZapError {
    fn from(e: MapError) -> Self {
        ZapError::Map(e)
    }
}

/// The per-node Zap instance.
///
/// Internally this is a handle to the same [`ZapState`] installed as the
/// kernel's syscall hook; install it with [`Zap::install`] before creating
/// pods.
#[derive(Debug, Clone)]
pub struct Zap {
    state: Rc<RefCell<ZapState>>,
}

impl Default for Zap {
    fn default() -> Self {
        Self::new()
    }
}

impl Zap {
    /// Creates a Zap instance for one node.
    pub fn new() -> Self {
        Zap {
            state: Rc::new(RefCell::new(ZapState::new())),
        }
    }

    /// Installs the interposition layer into `kernel` (the "insmod" step).
    pub fn install(&self, kernel: &mut Kernel) {
        kernel.set_hook(self.state.clone());
    }

    /// Direct access to the shared state (tests and advanced callers).
    pub fn state(&self) -> Rc<RefCell<ZapState>> {
        self.state.clone()
    }

    /// Creates a pod: allocates its VIF with the configured IP/MAC and
    /// announces the binding with a gratuitous ARP.
    ///
    /// # Errors
    ///
    /// [`ZapError::IpInUse`] if the IP is already local to this node.
    pub fn create_pod(&self, kernel: &mut Kernel, cfg: PodConfig) -> Result<PodId, ZapError> {
        let (ip, mac_mode) = (cfg.ip, cfg.mac_mode);
        let id = self.add_pod(kernel, cfg)?;
        announce(kernel, ip, &mac_mode);
        Ok(id)
    }

    /// Creates a pod and its VIF without announcing the binding: a
    /// restore announces it only once nothing can refuse the image.
    fn add_pod(&self, kernel: &mut Kernel, cfg: PodConfig) -> Result<PodId, ZapError> {
        if kernel.net.is_local_ip(cfg.ip) {
            return Err(ZapError::IpInUse);
        }
        let mut st = self.state.borrow_mut();
        let id = PodId(st.next_pod);
        st.next_pod += 1;
        let vif_name = format!("vif{}", id.0);
        let vif_mac = vif_mac(&cfg.mac_mode, kernel.net.primary_mac());
        kernel
            .net
            .add_iface(vif_name.clone(), vif_mac, vec![cfg.ip]);
        st.pods.insert(id, Pod::new(id, cfg, vif_name));
        Ok(id)
    }

    /// Spawns a guest program as a new process inside `pod`, returning its
    /// virtual pid.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`] or loader failures.
    pub fn spawn_in_pod(
        &self,
        kernel: &mut Kernel,
        pod: PodId,
        program: &Program,
    ) -> Result<Vpid, ZapError> {
        let mut st = self.state.borrow_mut();
        if !st.pods.contains_key(&pod) {
            return Err(ZapError::NoSuchPod);
        }
        let pid = kernel.spawn(program)?;
        let p = st.pods.get_mut(&pod).expect("checked");
        let vpid = p.adopt(pid);
        st.pid_owner.insert(pid, pod);
        Ok(vpid)
    }

    /// The pods on this node.
    pub fn pod_ids(&self) -> Vec<PodId> {
        self.state.borrow().pods.keys().copied().collect()
    }

    /// Resolves a virtual pid to the real pid on this node.
    pub fn real_pid(&self, pod: PodId, vpid: Vpid) -> Option<Pid> {
        self.state.borrow().pods.get(&pod)?.pid_of(vpid)
    }

    /// Console lines of a pod process, by virtual pid.
    pub fn console_of(&self, kernel: &Kernel, pod: PodId, vpid: Vpid) -> Option<Vec<String>> {
        let pid = self.real_pid(pod, vpid)?;
        kernel.process(pid).map(|p| p.console.clone())
    }

    /// True if the node holds the pod and every process of it has exited.
    pub fn pod_finished(&self, kernel: &Kernel, pod: PodId) -> bool {
        let st = self.state.borrow();
        let Some(p) = st.pods.get(&pod) else {
            return false;
        };
        p.pids().iter().all(|pid| {
            kernel
                .process(*pid)
                .map(|pr| pr.state.is_zombie())
                .unwrap_or(true)
        })
    }

    /// Stops every process in the pod (`SIGSTOP`) — the checkpoint freeze.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`].
    pub fn stop_pod(&self, kernel: &mut Kernel, pod: PodId, now: SimTime) -> Result<(), ZapError> {
        let pids = {
            let st = self.state.borrow();
            st.pods.get(&pod).ok_or(ZapError::NoSuchPod)?.pids()
        };
        for pid in pids {
            let _ = kernel.signal(pid, sig::SIGSTOP, now);
        }
        Ok(())
    }

    /// Resumes every process in the pod (`SIGCONT`) and re-announces its
    /// address binding with a gratuitous ARP.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`].
    pub fn resume_pod(
        &self,
        kernel: &mut Kernel,
        pod: PodId,
        now: SimTime,
    ) -> Result<(), ZapError> {
        let (pids, ip, mode) = {
            let st = self.state.borrow();
            let p = st.pods.get(&pod).ok_or(ZapError::NoSuchPod)?;
            (p.pids(), p.cfg.ip, p.cfg.mac_mode)
        };
        for pid in pids {
            let _ = kernel.signal(pid, sig::SIGCONT, now);
        }
        announce(kernel, ip, &mode);
        Ok(())
    }

    // ---- checkpoint -----------------------------------------------------

    /// Checkpoints a pod into a [`PodImage`] (§4.1): an arm immediately
    /// drained, so no page is written in between — the one-call form of
    /// [`Zap::checkpoint_pod_arm`], whose snapshot the cluster's capture
    /// pipeline drains on its own schedule. The pod is left stopped; call
    /// [`Zap::resume_pod`] to continue it or [`Zap::destroy_pod`] to tear
    /// it down.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`].
    pub fn checkpoint_pod(
        &self,
        kernel: &mut Kernel,
        pod: PodId,
        now: SimTime,
    ) -> Result<PodImage, ZapError> {
        Ok(self.checkpoint_pod_arm(kernel, pod, now)?.drain().0)
    }

    /// The **arm** half of a copy-on-write checkpoint: freezes the pod,
    /// captures every piece of non-memory state (sockets, pipes, shared
    /// memory, semaphores, descriptor tables, CPU state) and holds each
    /// thread group's resident page buffers instead of copying its pages.
    /// The freeze therefore costs O(non-memory state), not O(image
    /// bytes). The pod is left stopped; resume it as soon as
    /// coordination allows and call [`ArmedPodCheckpoint::drain`] any time
    /// later — the drained image is the pod as of this instant, whatever
    /// it wrote in between. [`Zap::checkpoint_pod`] is this arm drained at
    /// once.
    ///
    /// # Errors
    ///
    /// Same as [`Zap::checkpoint_pod`].
    pub fn checkpoint_pod_arm(
        &self,
        kernel: &mut Kernel,
        pod: PodId,
        now: SimTime,
    ) -> Result<ArmedPodCheckpoint, ZapError> {
        self.stop_pod(kernel, pod, now)?;
        let st = self.state.borrow();
        let p = st.pods.get(&pod).ok_or(ZapError::NoSuchPod)?;

        // Kernel objects the pod uses, discovered through its namespaces.
        let mut shm_images: Vec<ShmImage> = Vec::new();
        let mut shm_index_by_id: BTreeMap<u64, u32> = BTreeMap::new();
        for (key, seg) in kernel.shm_iter() {
            if p.shm_keys.contains(&key) {
                shm_index_by_id.insert(seg.id, shm_images.len() as u32);
                shm_images.push(ShmImage {
                    key,
                    data: seg.data.borrow().clone(),
                });
            }
        }
        let mut sem_images: Vec<SemImage> = Vec::new();
        for (id, values) in kernel.sems.iter() {
            if let Some(key) = kernel.sems.key_of(id) {
                if p.sem_keys.contains(&key) {
                    sem_images.push(SemImage {
                        key,
                        values: values.to_vec(),
                    });
                }
            }
        }

        // Thread groups: unique address-space/fd-table pairs.
        let mut groups: Vec<GroupImage> = Vec::new();
        let mut held: Vec<HeldSpace> = Vec::new();
        let mut group_index_by_leader: BTreeMap<Pid, u32> = BTreeMap::new();
        let mut pipe_index: BTreeMap<PipeId, u32> = BTreeMap::new();
        let mut pipe_images: Vec<PipeImage> = Vec::new();
        let mut sock_index: BTreeMap<SocketId, u32> = BTreeMap::new();
        let mut sock_images = Vec::new();

        let pids = p.pids();
        for &pid in &pids {
            let Some(proc) = kernel.process(pid) else {
                continue;
            };
            if group_index_by_leader.contains_key(&proc.group) {
                continue;
            }
            let gidx = groups.len() as u32;
            group_index_by_leader.insert(proc.group, gidx);

            // Address space.
            let mem = proc.mem.borrow();
            let mut areas = Vec::new();
            for a in mem.areas() {
                let shm_index = match &a.backing {
                    simos::mem::AreaBacking::Private => None,
                    simos::mem::AreaBacking::Shared(seg) => {
                        Some(*shm_index_by_id.get(&seg.id).ok_or(ZapError::Inconsistent(
                            "shared area references unknown segment",
                        ))?)
                    }
                };
                areas.push(AreaImage {
                    start: a.start,
                    len: a.len,
                    tag: a.tag.clone(),
                    shm_index,
                });
            }
            // No page copied here: a write copies any page held here, so
            // the held buffers keep the arm-instant bytes.
            let pages: Vec<(u64, PageBuf)> = mem.pages().map(|(a, p)| (a, p.clone())).collect();
            drop(mem);
            let saved = pages.iter().map(|(_, p)| nonzero(p)).collect();
            held.push((proc.mem.clone(), pages, saved));

            // Descriptor table.
            let fds_rc = proc.fds.clone();
            let fds = fds_rc.borrow();
            let mut fd_images = Vec::new();
            for (fd, desc) in fds.iter() {
                let di = match desc {
                    Desc::Console => DescImage::Console,
                    Desc::File { path, offset } => DescImage::File {
                        path: path.clone(),
                        offset: *offset,
                    },
                    Desc::Pipe { id, end } => {
                        let idx = *pipe_index.entry(*id).or_insert_with(|| {
                            let pi = pipe_images.len() as u32;
                            let pipe = kernel.pipes.get(*id);
                            pipe_images.push(PipeImage {
                                data: pipe.map(|p| p.snapshot_bytes()).unwrap_or_default(),
                                readers: 1,
                                writers: 1,
                            });
                            pi
                        });
                        DescImage::Pipe {
                            index: idx,
                            write_end: *end == PipeEnd::Write,
                        }
                    }
                    Desc::Socket(sid) => {
                        let idx = *sock_index.entry(*sid).or_insert_with(|| {
                            sock_images.push(kernel.net.snapshot(*sid, &p.alt_recv));
                            sock_images.len() as u32 - 1
                        });
                        DescImage::Socket { index: idx }
                    }
                };
                fd_images.push((fd, di));
            }
            groups.push(GroupImage {
                areas,
                pages: Vec::new(),
                fds: fd_images,
            });
        }

        // Pipe end reference counts follow from the descriptors that were
        // actually captured.
        for img in pipe_images.iter_mut() {
            img.readers = 0;
            img.writers = 0;
        }
        for g in &groups {
            for (_fd, d) in &g.fds {
                if let DescImage::Pipe { index, write_end } = d {
                    let img = &mut pipe_images[*index as usize];
                    if *write_end {
                        img.writers += 1;
                    } else {
                        img.readers += 1;
                    }
                }
            }
        }

        // Processes.
        let mut proc_images = Vec::new();
        for &pid in &pids {
            let Some(proc) = kernel.process(pid) else {
                continue; // reaped
            };
            let vpid = p.vpid_of(pid).expect("pod member");
            let parent_vpid = p.vpid_of(proc.parent).unwrap_or(0);
            let group = *group_index_by_leader
                .get(&proc.group)
                .expect("group captured above");
            let run_state = match &proc.state {
                ProcState::Zombie(code) => RunStateImage::Zombie(*code),
                ProcState::Stopped { resume_to } => match **resume_to {
                    ProcState::Blocked(WaitFor::SleepUntil(t)) => {
                        RunStateImage::SleepUntil(t.as_nanos())
                    }
                    _ => RunStateImage::Ready,
                },
                ProcState::Blocked(WaitFor::SleepUntil(t)) => {
                    RunStateImage::SleepUntil(t.as_nanos())
                }
                _ => RunStateImage::Ready,
            };
            proc_images.push(ProcImage {
                vpid,
                parent_vpid,
                group,
                regs: *proc.cpu.regs(),
                pc: proc.cpu.pc(),
                halted: proc.cpu.is_halted(),
                pending: proc.pending.map(|ps| (ps.num, ps.args)),
                run_state,
                console: proc.console.clone(),
            });
        }

        Ok(ArmedPodCheckpoint {
            skeleton: PodImage {
                name: p.cfg.name.clone(),
                ip: p.cfg.ip,
                mac_mode: p.cfg.mac_mode,
                next_vpid: p.next_vpid,
                shm: shm_images,
                sems: sem_images,
                pipes: pipe_images,
                sockets: sock_images,
                groups,
                procs: proc_images,
            },
            held,
        })
    }

    /// Tears a pod down without running exit paths: sockets are silently
    /// discarded (no FIN/RST — after a migration the connection lives on at
    /// the destination), processes removed, the VIF deleted.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`].
    pub fn destroy_pod(&self, kernel: &mut Kernel, pod: PodId) -> Result<(), ZapError> {
        let mut st = self.state.borrow_mut();
        let p = st.pods.remove(&pod).ok_or(ZapError::NoSuchPod)?;
        let mut seen_socks: Vec<SocketId> = Vec::new();
        let mut seen_pipes: Vec<(PipeId, PipeEnd)> = Vec::new();
        for pid in p.pids() {
            st.pid_owner.remove(&pid);
            let Some(proc) = kernel.remove_process(pid) else {
                continue;
            };
            // Only the last group member visits the (shared) table.
            if Rc::strong_count(&proc.fds) <= 1 {
                for (_fd, desc) in proc.fds.borrow().iter() {
                    match desc {
                        Desc::Socket(sid) => seen_socks.push(*sid),
                        Desc::Pipe { id, end } => seen_pipes.push((*id, *end)),
                        _ => {}
                    }
                }
            }
        }
        for sid in seen_socks {
            kernel.net.tcp_discard(sid);
        }
        for (id, end) in seen_pipes {
            kernel.pipes.drop_ref(id, end == PipeEnd::Write);
        }
        kernel.net.remove_iface(&p.vif_name);
        Ok(())
    }

    // ---- restart -----------------------------------------------------------

    /// Restores a pod from an image onto this node's kernel, moving the
    /// image's bytes into it. The pod comes up **stopped**; call
    /// [`Zap::resume_pod`] once global restart coordination allows
    /// execution (§5).
    ///
    /// # Errors
    ///
    /// [`ZapError::IpInUse`] if the pod's address is already on this node.
    /// An image whose cross-references do not resolve (a shm, pipe, socket
    /// or group index out of range, overlapping or misaligned areas, a page
    /// outside its group's private areas) is refused before anything is
    /// created. A socket the network stack refuses ([`ZapError::Net`])
    /// fails the restore after the pod exists; it then tears down every
    /// socket restored so far and the pod, so a refused image leaves
    /// nothing behind. The pod's address is announced only after its last
    /// socket is restored, so a refused image announces nothing.
    pub fn restart_pod(
        &self,
        kernel: &mut Kernel,
        image: PodImage,
        now: SimTime,
    ) -> Result<PodId, ZapError> {
        check_refs(&image)?;
        let PodImage {
            name,
            ip,
            mac_mode,
            next_vpid,
            shm,
            sems,
            pipes,
            sockets,
            groups,
            procs,
        } = image;
        let pod = self.add_pod(kernel, PodConfig { name, ip, mac_mode })?;

        // Sockets (§4.1 restore) first: the one step that can still fail,
        // with only the pod to undo.
        let (sock_ids, parked) = match kernel.net.restore(sockets, now) {
            Ok(restored) => restored,
            Err(e) => {
                self.destroy_pod(kernel, pod)?;
                return Err(e.into());
            }
        };
        announce(kernel, ip, &mac_mode);

        // Kernel objects.
        let segs: Vec<_> = shm
            .into_iter()
            .map(|s| kernel.shm_restore(s.key, s.data))
            .collect();
        for s in sems {
            kernel.sems.restore(s.key, s.values);
        }
        let pipe_ids: Vec<PipeId> = pipes
            .into_iter()
            .map(|p| kernel.pipes.restore(p.data, p.readers, p.writers))
            .collect();

        // Thread groups: address spaces and descriptor tables.
        let mut group_handles = Vec::with_capacity(groups.len());
        for g in groups {
            let mut space = AddressSpace::new();
            for a in &g.areas {
                let mapped = match a.shm_index {
                    None => space.map(a.start, a.len, &a.tag),
                    Some(i) => space.map_shared(a.start, segs[i as usize].clone(), &a.tag),
                };
                mapped.expect("layout checked before the pod was created");
            }
            for (addr, page) in g.pages {
                space.install_page(addr, page);
            }
            let mut fds = FdTable::new();
            for (fd, di) in g.fds {
                let desc = match di {
                    DescImage::Console => continue, // fd 0 pre-installed
                    DescImage::File { path, offset } => Desc::File { path, offset },
                    DescImage::Pipe { index, write_end } => Desc::Pipe {
                        id: pipe_ids[index as usize],
                        end: if write_end {
                            PipeEnd::Write
                        } else {
                            PipeEnd::Read
                        },
                    },
                    DescImage::Socket { index } => Desc::Socket(sock_ids[index as usize]),
                };
                fds.install_at(fd, desc);
            }
            group_handles.push((Rc::new(RefCell::new(space)), Rc::new(RefCell::new(fds))));
        }

        // Processes, with fresh real pids behind the virtual-pid namespace.
        let mut st = self.state.borrow_mut();
        let pod_entry = st.pods.get_mut(&pod).expect("just created");
        pod_entry.next_vpid = next_vpid;
        pod_entry.alt_recv.extend(
            parked
                .into_iter()
                .map(|(sid, data)| (sid, VecDeque::from(data))),
        );
        let mut group_leader_pid: BTreeMap<u32, Pid> = BTreeMap::new();
        let mut links = Vec::with_capacity(procs.len());
        for pi in procs {
            let (mem, fds) = group_handles[pi.group as usize].clone();
            let pid = kernel.alloc_pid();
            let leader = *group_leader_pid.entry(pi.group).or_insert(pid);
            let state = match pi.run_state {
                RunStateImage::Zombie(code) => ProcState::Zombie(code),
                RunStateImage::Ready => ProcState::Stopped {
                    resume_to: Box::new(ProcState::Ready),
                },
                RunStateImage::SleepUntil(t) => ProcState::Stopped {
                    resume_to: Box::new(ProcState::Blocked(WaitFor::SleepUntil(
                        SimTime::from_nanos(t),
                    ))),
                },
            };
            // Parent links resolve once every vpid has a pid.
            st.pods
                .get_mut(&pod)
                .expect("exists")
                .adopt_as(pid, pi.vpid);
            st.pid_owner.insert(pid, pod);
            links.push((pid, pi.parent_vpid));
            kernel.insert_process(Process {
                pid,
                parent: 0, // fixed up below
                cpu: Cpu::restore(pi.regs, pi.pc, pi.halted),
                mem,
                fds,
                state,
                pending: pi.pending.map(|(num, args)| PendingSyscall { num, args }),
                console: pi.console,
                group: leader,
            });
        }
        let pod_entry = &st.pods[&pod];
        for (pid, parent_vpid) in links {
            let parent = (parent_vpid != 0)
                .then(|| pod_entry.pid_of(parent_vpid))
                .flatten();
            if let (Some(parent), Some(p)) = (parent, kernel.process_mut(pid)) {
                p.parent = parent;
            }
        }
        Ok(pod)
    }
}

/// Refuses an image whose cross-references do not resolve, before a
/// restore creates anything: every area's shm index and the areas'
/// layout, every page, every descriptor's pipe or socket index, and every
/// process's group index.
fn check_refs(image: &PodImage) -> Result<(), ZapError> {
    for g in &image.groups {
        // The layout as the restore maps it, on a scratch space: a shared
        // area spans its segment's bytes, rounded up to whole pages.
        let mut layout = AddressSpace::new();
        for a in &g.areas {
            let len = match a.shm_index {
                None => a.len,
                Some(i) => image
                    .shm
                    .get(i as usize)
                    .ok_or(ZapError::Inconsistent("area shm index out of range"))?
                    .data
                    .len()
                    .next_multiple_of(PAGE_SIZE as usize) as u64,
            };
            layout.map(a.start, len, &a.tag)?;
        }
        // The page table holds whole pages of private areas and nothing
        // else. (`wrapping_sub` also puts an address below the area out.)
        let private = |addr: u64| {
            let in_area = |a: &AreaImage| addr.wrapping_sub(a.start) < a.len;
            g.areas.iter().any(|a| a.shm_index.is_none() && in_area(a))
        };
        if g.pages
            .iter()
            .any(|&(addr, _)| !addr.is_multiple_of(PAGE_SIZE) || !private(addr))
        {
            return Err(ZapError::Inconsistent(
                "page outside the group's private areas",
            ));
        }
        for (_, d) in &g.fds {
            match *d {
                DescImage::Pipe { index, .. } if index as usize >= image.pipes.len() => {
                    return Err(ZapError::Inconsistent("pipe index out of range"));
                }
                DescImage::Socket { index } if index as usize >= image.sockets.len() => {
                    return Err(ZapError::Inconsistent("socket index out of range"));
                }
                _ => {}
            }
        }
    }
    if image
        .procs
        .iter()
        .any(|p| p.group as usize >= image.groups.len())
    {
        return Err(ZapError::Inconsistent("process group index out of range"));
    }
    Ok(())
}

/// A thread group's live address space, the page buffers it held at the
/// arm, zero pages included, in address order, and which of them the image
/// saves (the non-zero ones). A held buffer never changes, so that verdict,
/// taken once at the arm, still holds at the drain.
type HeldSpace = (Rc<RefCell<AddressSpace>>, Vec<(u64, PageBuf)>, Vec<bool>);

/// A pod checkpoint whose arm phase has completed: the non-memory state is
/// captured in a page-less skeleton image, and every thread group's
/// resident page buffers, as they stood at the arm, are held in place of
/// its pages. Produced by [`Zap::checkpoint_pod_arm`]; finish with
/// [`ArmedPodCheckpoint::drain`], or drop it to abandon the checkpoint
/// (the abort path), which releases the held pages.
#[derive(Debug)]
pub struct ArmedPodCheckpoint {
    /// Everything except private pages, captured at freeze time.
    skeleton: PodImage,
    /// Held address spaces, aligned with `skeleton.groups`.
    held: Vec<HeldSpace>,
}

impl ArmedPodCheckpoint {
    /// Bytes the freeze window had to serialize: the encoded non-memory
    /// state. This — not the image size — is what the arm phase costs.
    pub fn arm_bytes(&self) -> u64 {
        self.skeleton.encoded_len() as u64
    }

    /// Page payload bytes the drain will emit, computable at arm time
    /// without copying anything (the held buffers pin the page set): what
    /// the background encode/write-out schedule is planned from.
    pub fn pending_page_bytes(&self) -> u64 {
        let saved = self.held.iter().flat_map(|(_, _, saved)| saved);
        saved.filter(|&&s| s).count() as u64 * PAGE_SIZE
    }

    /// The **drain** half: hands each group's held non-zero pages to the
    /// image (shared, not copied), and returns the completed image plus
    /// the page copy bytes the snapshot window cost. Byte-identical to a
    /// drain at the arm instant.
    pub fn drain(self) -> (PodImage, u64) {
        let mut image = self.skeleton;
        let mut copied = 0;
        for (group, (space, mut pages, saved)) in image.groups.iter_mut().zip(self.held) {
            copied += copied_bytes(&space.borrow(), &pages);
            let mut saved = saved.into_iter();
            pages.retain(|_| saved.next() == Some(true));
            group.pages = pages;
        }
        (image, copied)
    }
}

/// Page copy bytes forced by writes since the arm: a page for each held
/// page whose address now holds another buffer. Both tables are in address
/// order, so one lockstep walk pairs them; an address that is no longer
/// resident counts nothing.
fn copied_bytes(space: &AddressSpace, held: &[(u64, PageBuf)]) -> u64 {
    let mut live = space.pages().peekable();
    let mut copied = 0;
    for (addr, buf) in held {
        while live.next_if(|&(a, _)| a < *addr).is_some() {}
        if live
            .peek()
            .is_some_and(|&(a, p)| a == *addr && !Rc::ptr_eq(p, buf))
        {
            copied += PAGE_SIZE;
        }
    }
    copied
}

/// Announces a pod's address binding with a gratuitous ARP from its VIF.
fn announce(kernel: &mut Kernel, ip: IpAddr, mode: &MacMode) {
    let mac = vif_mac(mode, kernel.net.primary_mac());
    kernel.net.send_gratuitous_arp(ip, mac);
}

/// The MAC a pod's VIF transmits with.
fn vif_mac(mode: &MacMode, physical: MacAddr) -> MacAddr {
    match mode {
        MacMode::Dedicated(m) => *m,
        MacMode::SharedPhysical { .. } => physical,
    }
}
