//! The Zap manager: pod lifecycle and single-node checkpoint/restart.
//!
//! The checkpoint procedure follows the paper's §4.1 step by step:
//!
//! 1. `SIGSTOP` every process in the pod (nothing at user level can change);
//! 2. freeze and extract socket state — receive streams non-destructively
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
//! taken — the capability the paper highlights over BLCR), re-creates
//! sockets at the saved sequence numbers, replays saved send data through
//! ordinary sends with Nagle/CORK temporarily disabled, and parks receive
//! data in the alternate buffers served by the interposer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use des::SimTime;
use simcpu::cpu::Cpu;
use simnet::addr::MacAddr;
use simnet::stack::SocketId;
use simnet::NetError;
use simos::fd::{Desc, FdTable, PipeEnd, PipeId};
use simos::kernel::Kernel;
use simos::mem::{AddressSpace, MapError};
use simos::proc::{PendingSyscall, Pid, ProcState, Process, WaitFor};
use simos::program::{Program, ProgramError};
use simos::syscall::sig;

use crate::image::{
    AreaImage, DescImage, GroupImage, ImageError, MacMode, PipeImage, PodImage, ProcImage,
    RunStateImage, SemImage, ShmImage, SockImage, TcpConnImage,
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
    /// The image failed to decode or referenced a bad index.
    Image(ImageError),
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
            ZapError::Image(e) => write!(f, "image: {e}"),
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

impl From<ImageError> for ZapError {
    fn from(e: ImageError) -> Self {
        ZapError::Image(e)
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
        kernel.net.send_gratuitous_arp(cfg.ip, vif_mac);
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

    /// The configuration of a pod.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`].
    pub fn pod_config(&self, pod: PodId) -> Result<PodConfig, ZapError> {
        self.state
            .borrow()
            .pods
            .get(&pod)
            .map(|p| p.cfg.clone())
            .ok_or(ZapError::NoSuchPod)
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

    /// True if every process of the pod has exited.
    pub fn pod_finished(&self, kernel: &Kernel, pod: PodId) -> bool {
        let st = self.state.borrow();
        let Some(p) = st.pods.get(&pod) else {
            return true;
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
        let mac = vif_mac(&mode, kernel.net.primary_mac());
        kernel.net.send_gratuitous_arp(ip, mac);
        Ok(())
    }

    // ---- checkpoint -----------------------------------------------------

    /// Checkpoints a pod into a [`PodImage`] (§4.1). The pod is left
    /// stopped; call [`Zap::resume_pod`] to continue it or
    /// [`Zap::destroy_pod`] to tear it down for migration.
    ///
    /// # Errors
    ///
    /// [`ZapError::NoSuchPod`]; network-stack failures while snapshotting
    /// sockets.
    pub fn checkpoint_pod(
        &self,
        kernel: &mut Kernel,
        pod: PodId,
        now: SimTime,
    ) -> Result<PodImage, ZapError> {
        let (image, _) = self.capture_pod(kernel, pod, now, false)?;
        Ok(image)
    }

    /// The **arm** half of a copy-on-write checkpoint: freezes the pod,
    /// captures every piece of non-memory state (sockets, pipes, shared
    /// memory, semaphores, descriptor tables, CPU state) and arms a COW
    /// snapshot on each thread group's address space instead of copying
    /// its pages. The freeze therefore costs O(non-memory state), not
    /// O(image bytes). The pod is left stopped; resume it as soon as
    /// coordination allows and call [`ArmedPodCheckpoint::drain`] any time
    /// later — the drained image is byte-identical to an eager
    /// [`Zap::checkpoint_pod`] taken at this instant, whatever the pod
    /// wrote in between.
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
        let (skeleton, spaces) = self.capture_pod(kernel, pod, now, true)?;
        Ok(ArmedPodCheckpoint { skeleton, spaces })
    }

    /// Captures a pod. With `arm` false this is the eager §4.1 checkpoint;
    /// with `arm` true the private pages are left to a COW drain and the
    /// per-group address-space handles are returned alongside the page-less
    /// skeleton image.
    fn capture_pod(
        &self,
        kernel: &mut Kernel,
        pod: PodId,
        now: SimTime,
        arm: bool,
    ) -> Result<(PodImage, Vec<Rc<RefCell<AddressSpace>>>), ZapError> {
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
        let mut group_spaces: Vec<Rc<RefCell<AddressSpace>>> = Vec::new();
        let mut group_index_by_leader: BTreeMap<Pid, u32> = BTreeMap::new();
        let mut pipe_index: BTreeMap<PipeId, u32> = BTreeMap::new();
        let mut pipe_images: Vec<PipeImage> = Vec::new();
        let mut sock_index: BTreeMap<SocketId, u32> = BTreeMap::new();
        let mut sock_images: Vec<SockImage> = Vec::new();

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
            let mem_rc = proc.mem.clone();
            let mut mem = mem_rc.borrow_mut();
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
            let pages: Vec<(u64, Vec<u8>)> = if arm {
                // COW: no page copied here — the snapshot stands in for them.
                mem.cow_arm();
                Vec::new()
            } else {
                mem.nonzero_pages()
                    .map(|(addr, data)| (addr, data.to_vec()))
                    .collect()
            };
            // Either kind of checkpoint re-baselines the dirty set.
            mem.clear_dirty();
            drop(mem);
            if arm {
                group_spaces.push(mem_rc.clone());
            }

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
                        let idx = match sock_index.get(sid) {
                            Some(&i) => i,
                            None => {
                                let img = snapshot_socket(kernel, p, *sid)?;
                                let i = sock_images.len() as u32;
                                sock_index.insert(*sid, i);
                                sock_images.push(img);
                                i
                            }
                        };
                        DescImage::Socket { index: idx }
                    }
                };
                fd_images.push((fd, di));
            }
            groups.push(GroupImage {
                areas,
                pages,
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

        Ok((
            PodImage {
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
            group_spaces,
        ))
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

    /// Restores a pod from an image onto this node's kernel. The pod comes
    /// up **stopped**; call [`Zap::resume_pod`] once global restart
    /// coordination allows execution (§5).
    ///
    /// # Errors
    ///
    /// [`ZapError::IpInUse`] if the pod's address is already on this node;
    /// image-consistency and network errors otherwise.
    pub fn restart_pod(
        &self,
        kernel: &mut Kernel,
        image: &PodImage,
        now: SimTime,
    ) -> Result<PodId, ZapError> {
        let pod = self.create_pod(
            kernel,
            PodConfig {
                name: image.name.clone(),
                ip: image.ip,
                mac_mode: image.mac_mode,
            },
        )?;

        // Kernel objects.
        let mut shm_ids = Vec::with_capacity(image.shm.len());
        for s in &image.shm {
            shm_ids.push(kernel.shm_restore(s.key, s.data.clone()));
        }
        for s in &image.sems {
            kernel.sems.restore(s.key, s.values.clone());
        }
        let mut pipe_ids = Vec::with_capacity(image.pipes.len());
        for pi in &image.pipes {
            pipe_ids.push(kernel.pipes.restore(&pi.data, pi.readers, pi.writers));
        }

        // Sockets (§4.1 restore).
        let mut sock_ids: Vec<SocketId> = Vec::with_capacity(image.sockets.len());
        let mut alt_bufs: Vec<(SocketId, Vec<u8>)> = Vec::new();
        for s in &image.sockets {
            let sid = match s {
                SockImage::Listen {
                    local,
                    backlog,
                    pending,
                } => {
                    let lsid = kernel.net.tcp_restore_listener(*local, *backlog as usize)?;
                    for (conn, alt) in pending {
                        let child =
                            restore_conn(kernel, conn, alt, &mut alt_bufs, Some(lsid), now)?;
                        let _ = child;
                    }
                    lsid
                }
                SockImage::Conn { snap, alt_recv } => {
                    restore_conn(kernel, snap, alt_recv, &mut alt_bufs, None, now)?
                }
                SockImage::Udp { bound, queue } => {
                    let snap = simnet::stack::UdpSnapshot {
                        bound: *bound,
                        queue: queue.clone(),
                    };
                    kernel.net.udp_restore(&snap)?
                }
                SockImage::Fresh { bound } => {
                    let sid = kernel.net.tcp_socket();
                    if let Some(b) = bound {
                        kernel.net.bind(sid, *b)?;
                    }
                    sid
                }
            };
            sock_ids.push(sid);
        }

        // Thread groups: address spaces and descriptor tables.
        let mut group_handles = Vec::with_capacity(image.groups.len());
        for g in &image.groups {
            let mut space = AddressSpace::new();
            for a in &g.areas {
                match a.shm_index {
                    None => space.map(a.start, a.len, &a.tag)?,
                    Some(i) => {
                        let shm_id = *shm_ids
                            .get(i as usize)
                            .ok_or(ZapError::Inconsistent("area shm index out of range"))?;
                        let seg = kernel
                            .shm_segment(shm_id)
                            .ok_or(ZapError::Inconsistent("restored segment vanished"))?
                            .clone();
                        space.map_shared(a.start, seg, &a.tag)?;
                    }
                }
            }
            for (addr, data) in &g.pages {
                space.install_page(*addr, data);
            }
            // A restored space equals its image, so its dirty set starts
            // empty and names only pages written since this restore.
            space.clear_dirty();
            let mut fds = FdTable::new();
            for (fd, di) in &g.fds {
                let desc = match di {
                    DescImage::Console => continue, // fd 0 pre-installed
                    DescImage::File { path, offset } => Desc::File {
                        path: path.clone(),
                        offset: *offset,
                    },
                    DescImage::Pipe { index, write_end } => Desc::Pipe {
                        id: *pipe_ids
                            .get(*index as usize)
                            .ok_or(ZapError::Inconsistent("pipe index out of range"))?,
                        end: if *write_end {
                            PipeEnd::Write
                        } else {
                            PipeEnd::Read
                        },
                    },
                    DescImage::Socket { index } => Desc::Socket(
                        *sock_ids
                            .get(*index as usize)
                            .ok_or(ZapError::Inconsistent("socket index out of range"))?,
                    ),
                };
                fds.install_at(*fd, desc);
            }
            group_handles.push((Rc::new(RefCell::new(space)), Rc::new(RefCell::new(fds))));
        }

        // Processes, with fresh real pids behind the virtual-pid namespace.
        let mut group_leader_pid: BTreeMap<u32, Pid> = BTreeMap::new();
        {
            let mut st = self.state.borrow_mut();
            let pod_entry = st.pods.get_mut(&pod).expect("just created");
            pod_entry.next_vpid = image.next_vpid;
            for (sid, data) in &alt_bufs {
                if !data.is_empty() {
                    pod_entry
                        .alt_recv
                        .insert(*sid, data.iter().copied().collect());
                }
            }
            pod_entry.intercepting = pod_entry.any_alt_recv();
        }
        for pi in &image.procs {
            let (mem, fds) = group_handles
                .get(pi.group as usize)
                .ok_or(ZapError::Inconsistent("process group index out of range"))?
                .clone();
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
            let mut st = self.state.borrow_mut();
            let pod_entry = st.pods.get_mut(&pod).expect("exists");
            // Parent resolution happens after all pids exist; store vpid
            // mapping first.
            pod_entry.adopt_as(pid, pi.vpid);
            st.pid_owner.insert(pid, pod);
            drop(st);
            let proc = Process {
                pid,
                parent: 0, // fixed up below
                cpu: Cpu::restore(pi.regs, pi.pc, pi.halted),
                mem,
                fds,
                state,
                pending: pi.pending.map(|(num, args)| PendingSyscall { num, args }),
                console: pi.console.clone(),
                group: leader,
            };
            kernel.insert_process(proc);
        }
        // Fix up parent links now that every vpid resolves.
        {
            let st = self.state.borrow();
            let pod_entry = st.pods.get(&pod).expect("exists");
            for pi in &image.procs {
                if pi.parent_vpid == 0 {
                    continue;
                }
                let (Some(child), Some(parent)) =
                    (pod_entry.pid_of(pi.vpid), pod_entry.pid_of(pi.parent_vpid))
                else {
                    continue;
                };
                if let Some(p) = kernel.process_mut(child) {
                    p.parent = parent;
                }
            }
        }
        Ok(pod)
    }
}

/// A pod checkpoint whose arm phase has completed: the non-memory state is
/// captured in a page-less skeleton image, and every thread group's address
/// space carries an armed COW snapshot standing in for its pages. Produced
/// by [`Zap::checkpoint_pod_arm`]; finish with
/// [`ArmedPodCheckpoint::drain`] or discard with
/// [`ArmedPodCheckpoint::cancel`] (the abort path) — either way the
/// snapshots are disarmed exactly once.
#[derive(Debug)]
pub struct ArmedPodCheckpoint {
    /// Everything except private pages, captured at freeze time.
    skeleton: PodImage,
    /// Armed address spaces, aligned with `skeleton.groups`.
    spaces: Vec<Rc<RefCell<AddressSpace>>>,
}

impl ArmedPodCheckpoint {
    /// The pod's name (image identity in the checkpoint store).
    pub fn pod_name(&self) -> &str {
        &self.skeleton.name
    }

    /// Bytes the freeze window had to serialize: the encoded non-memory
    /// state. This — not the image size — is what the arm phase costs.
    pub fn arm_bytes(&self) -> u64 {
        self.skeleton.encoded_len() as u64
    }

    /// Page payload bytes the drain will emit, computable at arm time
    /// without copying anything (the COW snapshot pins the page set): what
    /// the background encode/write-out schedule is planned from.
    pub fn pending_page_bytes(&self) -> u64 {
        self.spaces
            .iter()
            .map(|s| s.borrow().cow_pending_bytes())
            .sum()
    }

    /// Pre-image copy bytes forced so far by post-resume writes.
    pub fn copied_bytes(&self) -> u64 {
        self.spaces
            .iter()
            .map(|s| s.borrow().cow_copied_bytes())
            .sum()
    }

    /// The **drain** half: reconstructs each group's pages as of the arm
    /// instant from the COW snapshots, disarms them, and returns the
    /// completed image plus the pre-image copy bytes the snapshot window
    /// cost. Byte-identical to an eager checkpoint taken at arm time.
    pub fn drain(self) -> (PodImage, u64) {
        let mut image = self.skeleton;
        let mut copied = 0;
        for (group, space) in image.groups.iter_mut().zip(&self.spaces) {
            let mut mem = space.borrow_mut();
            group.pages = mem.cow_snapshot_pages();
            copied += mem.cow_disarm();
        }
        (image, copied)
    }

    /// Abandons the checkpoint (abort path): disarms every snapshot
    /// without materializing any page.
    pub fn cancel(self) {
        for space in &self.spaces {
            space.borrow_mut().cow_disarm();
        }
    }
}

/// The MAC a pod's VIF transmits with.
fn vif_mac(mode: &MacMode, physical: MacAddr) -> MacAddr {
    match mode {
        MacMode::Dedicated(m) => *m,
        MacMode::SharedPhysical { .. } => physical,
    }
}

/// Snapshots one socket (§4.1 for connections).
fn snapshot_socket(kernel: &Kernel, pod: &Pod, sid: SocketId) -> Result<SockImage, ZapError> {
    if kernel.net.is_listener(sid) {
        let local = kernel
            .net
            .tcp_local_addr(sid)
            .ok_or(ZapError::Inconsistent("listener without address"))?;
        let backlog = kernel.net.tcp_listener_backlog(sid).unwrap_or(1) as u32;
        let pending = kernel
            .net
            .tcp_listener_pending(sid)?
            .iter()
            .map(|snap| (TcpConnImage::from_snapshot(snap), snap.recv_stream.clone()))
            .collect();
        return Ok(SockImage::Listen {
            local,
            backlog,
            pending,
        });
    }
    if let Ok(snap) = kernel.net.tcp_snapshot(sid) {
        // Alternate-buffer remainder first, then the kernel receive queue —
        // exactly the concatenation order the paper specifies.
        let mut alt: Vec<u8> = pod
            .alt_recv
            .get(&sid)
            .map(|q| q.iter().copied().collect())
            .unwrap_or_default();
        alt.extend_from_slice(&snap.recv_stream);
        return Ok(SockImage::Conn {
            snap: TcpConnImage::from_snapshot(&snap),
            alt_recv: alt,
        });
    }
    if let Ok(usnap) = kernel.net.udp_snapshot(sid) {
        return Ok(SockImage::Udp {
            bound: usnap.bound,
            queue: usnap.queue,
        });
    }
    // Fresh (or already-dead) socket: record only its binding.
    Ok(SockImage::Fresh {
        bound: kernel.net.tcp_local_addr(sid),
    })
}

/// Restores one TCP connection: creates the endpoint at the saved sequence
/// numbers with empty buffers, replays the saved send data one packet at a
/// time with Nagle/CORK disabled, restores the option flags, and records
/// the alternate receive buffer.
fn restore_conn(
    kernel: &mut Kernel,
    conn: &TcpConnImage,
    alt_recv: &[u8],
    alt_bufs: &mut Vec<(SocketId, Vec<u8>)>,
    listener: Option<SocketId>,
    now: SimTime,
) -> Result<SocketId, ZapError> {
    let snap = conn.to_snapshot()?;
    let sid = match listener {
        Some(lsid) => kernel.net.tcp_restore_into_listener(lsid, &snap)?,
        None => kernel.net.tcp_restore(&snap)?,
    };
    // Temporarily force immediate packetization (§4.1: Nagle and TCP_CORK
    // disabled so replayed sends keep their original boundaries).
    kernel.net.tcp_set_cork(sid, false, now)?;
    kernel.net.tcp_set_nodelay(sid, true, now)?;
    for pkt in &conn.inflight {
        let n = kernel.net.tcp_send(sid, pkt, now)?;
        if n != pkt.len() {
            return Err(ZapError::Inconsistent("send replay overflowed the buffer"));
        }
    }
    if !conn.unsent.is_empty() {
        let n = kernel.net.tcp_send(sid, &conn.unsent, now)?;
        if n != conn.unsent.len() {
            return Err(ZapError::Inconsistent(
                "unsent replay overflowed the buffer",
            ));
        }
    }
    kernel.net.tcp_set_nodelay(sid, conn.nodelay, now)?;
    kernel.net.tcp_set_cork(sid, conn.cork, now)?;
    if !alt_recv.is_empty() {
        alt_bufs.push((sid, alt_recv.to_vec()));
    }
    Ok(sid)
}
