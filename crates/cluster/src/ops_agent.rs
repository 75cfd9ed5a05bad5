//! Coordinated-operation runtime, agent side: executing protocol actions
//! against the Zap layer and the disk.
//!
//! The coordinator half (install, retry/timeout, abort bookkeeping) is in
//! [`crate::ops`]; this module is everything a *participant node* does —
//! answering liveness probes, freezing and capturing pods, persisting
//! images, restoring from the store, resuming, and rolling back. Like the
//! coordinator half, every future action is one `Event` armed with
//! `World::arm`.
//!
//! Every checkpoint capture runs one per-node pipeline: **arm** each pod's
//! memory snapshot in the freeze, **drain** the snapshots into images whose
//! store writes are prepared and submitted as one disk batch, and
//! **persist** the prepared writes. The [`CkptCaptureMode`] only sets when
//! the drain and the persist fire:
//!
//! * stop-the-world — drain at once; persist at `AgentLocalDone`, when the
//!   batch is durable, and only then resume;
//! * write-back (§5.2) — drain at once; `AgentLocalDone` when the image is
//!   captured resumes the pods, and the persist waits for `AgentDurable`;
//! * COW — `AgentLocalDone` once the snapshots are armed resumes the pods;
//!   the drain runs in the background at `CkptDrain`, racing the resumed
//!   guests' writes, and the persist waits for `AgentDurable`.

use cruz::agent::AgentAction;
use cruz::error::CruzError;
use cruz::proto::{CtlMsg, OpKind};
use cruz::replog::ReplicatedStore;
use cruz::store::{MissingChunk, PreparedChunked, PreparedPut, ReadError};
use zap::image::PodImage;
use zap::ArmedPodCheckpoint;

use des::SimTime;

use crate::events::Event;
use crate::fault::{ProtocolPoint, WriteFault};
use crate::jobs::PodPlacement;
use crate::node::CtlAddr;
use crate::ops::NodeStage;
use crate::params::{extract_time, CkptCaptureMode, AGENT_OP_CPU};
use crate::state::World;

impl World {
    // ---- agent wiring -------------------------------------------------------

    pub(crate) fn on_agent_ctl(&mut self, node: usize, msg: CtlMsg, reply_to: CtlAddr) {
        if !self.nodes[node].alive() {
            return;
        }
        // Liveness probes answer from the node itself — a pong proves the
        // whole receive path (NIC, kernel, control CPU), not just the wire.
        if let CtlMsg::Ping { seq } = msg {
            let now = self.now;
            self.ctl()
                .send(CtlAddr::agent(node), reply_to, &CtlMsg::Pong { seq }, now);
            self.postprocess(node);
            return;
        }
        if matches!(
            msg,
            CtlMsg::Start {
                kind: OpKind::Checkpoint,
                ..
            }
        ) && self.maybe_crash(node, ProtocolPoint::CheckpointReceived)
        {
            return;
        }
        if matches!(msg, CtlMsg::Start { .. }) {
            self.nodes[node].agent_coord_addr = Some(reply_to);
        }
        let op = msg.epoch();
        let actions = self.nodes[node].agent.on_ctl(msg, self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    pub(crate) fn on_agent_durable(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive() || !self.persist_images(node, op) {
            return;
        }
        let actions = self.nodes[node].agent.on_local_durable(self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    pub(crate) fn on_agent_local_done(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive() {
            return;
        }
        // Materialize the pending work at its completion time.
        let (kind, mode) = match self.ops.get(&op) {
            Some(o) => (o.coord.kind(), o.mode),
            None => return,
        };
        // Fault plan: kill the node right at the protocol point — local
        // work finished but neither reported nor durable (checkpoint), or
        // mid-restore (restart).
        let point = match kind {
            OpKind::Checkpoint => ProtocolPoint::LocalDoneToDurable,
            OpKind::Restart => ProtocolPoint::Restore,
        };
        if self.maybe_crash(node, point) {
            return;
        }
        // Write-back and COW persist at `AgentDurable` instead.
        let reported = match kind {
            OpKind::Checkpoint => {
                mode != CkptCaptureMode::StopTheWorld || self.persist_images(node, op)
            }
            OpKind::Restart => self.restore_images(node, op),
        };
        if !reported {
            return;
        }
        let actions = self.nodes[node].agent.on_local_done(self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    pub(crate) fn run_agent_actions(&mut self, node: usize, op: u64, actions: Vec<AgentAction>) {
        for action in actions {
            match action {
                AgentAction::DisableComm => self.set_comm(node, op, false),
                AgentAction::EnableComm => self.set_comm(node, op, true),
                AgentAction::BeginLocalCheckpoint { .. } => self.begin_local_checkpoint(node, op),
                AgentAction::BeginLocalRestore { .. } => self.begin_local_restore(node, op),
                AgentAction::ResumePods => self.resume_pods(node, op),
                AgentAction::RollBack { .. } => self.roll_back(node, op),
                AgentAction::Send(msg) => self.agent_send(node, msg),
            }
        }
    }

    /// The op's pods on `node`: every pod its job places there, or only
    /// the moved pod, for a migration.
    pub(crate) fn job_pods_on_node(&self, op: u64, node: usize) -> Vec<PodPlacement> {
        let Some(o) = self.ops.get(&op) else {
            return Vec::new();
        };
        let Some(jr) = self.jobs.get(&o.job) else {
            return Vec::new();
        };
        let pods = jr.pods_on_node(node).into_iter();
        let moved = |p: &&PodPlacement| o.migration.as_ref().is_none_or(|(pod, _)| *pod == p.name);
        pods.filter(moved).cloned().collect()
    }

    pub(crate) fn set_comm(&mut self, node: usize, op: u64, enabled: bool) {
        for p in self.job_pods_on_node(op, node) {
            let f = self.nodes[node].kernel.net.filter_mut();
            if enabled {
                f.remove_drop_rule(p.ip);
            } else {
                f.add_drop_rule(p.ip);
            }
        }
    }

    /// Seals a captured pod image, prepares its store write, and queues
    /// the write-out on the node's disk `batch`. The image is written into
    /// a buffer the shared filesystem lends ([`simos::fs::NetFs::lend`],
    /// sized by its page payload, which it grows past only by its
    /// metadata): a whole-image chunk keeps it as its file, and the
    /// prepare gives it back otherwise. The seal names every chunk
    /// range of `StoreConfig::ranges` in its one hash pass, which the
    /// prepare runs beside its lookups and encodes, so it hashes nothing
    /// again and encodes only the chunks the store lacks. Capture
    /// started at `start` and has serialized `serialized` bytes of earlier
    /// pods: each novel chunk is ready for write-out when capture reaches
    /// its end, and the manifest when the image is complete.
    fn prepare_image(
        &self,
        store: &ReplicatedStore,
        img: &PodImage,
        start: SimTime,
        serialized: &mut u64,
        batch: &mut Vec<(SimTime, u64)>,
    ) -> PreparedChunked {
        let cfg = &self.params.store;
        let buf = self.fs.lend(img.page_payload_bytes() as usize);
        let (body, cuts) = img.unsealed(buf);
        let prepared = store.prepare_sealed(body, |len| cfg.ranges(len, &cuts), cfg);
        let base = *serialized;
        for (raw_end, stored) in prepared.novel_writes() {
            batch.push((start + extract_time(base + raw_end), stored));
        }
        *serialized += prepared.raw_len();
        let image_done = start + extract_time(*serialized);
        batch.push((image_done, prepared.manifest_len()));
        prepared
    }

    /// Applies one node's prepared image writes for `epoch`.
    ///
    /// # Errors
    ///
    /// [`CruzError::MissingChunk`] when a write names a chunk deleted since
    /// its prepare; the pods before it are written, and the caller fails
    /// the operation, whose abort discards the epoch.
    fn put_images(
        &self,
        job: &str,
        epoch: u64,
        images: Vec<(String, PreparedChunked)>,
    ) -> Result<(), CruzError> {
        let store = self.store(job);
        for (pod, put) in images {
            if let Err(MissingChunk(chunk)) =
                store.put_prepared(&pod, epoch, PreparedPut::Chunked(put))
            {
                return Err(CruzError::MissingChunk { pod, chunk });
            }
        }
        Ok(())
    }

    /// The pipeline's arm step, in the freeze: arms a memory snapshot of
    /// every pod of the op on this node, capturing everything else
    /// (registers, sockets, pipes, shm) into page-less skeletons. Under
    /// COW the snapshots are parked for [`Event::CkptDrain`]; the other
    /// schedules drain them at once.
    fn begin_local_checkpoint(&mut self, node: usize, op: u64) {
        let Some(mode) = self.ops.get(&op).map(|o| o.mode) else {
            return;
        };
        let mut armed: Vec<(String, ArmedPodCheckpoint)> = Vec::new();
        for p in self.job_pods_on_node(op, node) {
            let Some(pod_id) = p.pod_id else { continue };
            let slot = &mut self.nodes[node];
            match slot
                .zap
                .checkpoint_pod_arm(&mut slot.kernel, pod_id, self.now)
            {
                Ok(a) => armed.push((p.name, a)),
                Err(e) => {
                    self.fail_op(op, CruzError::Zap(e));
                    return;
                }
            }
        }
        let now = self.now;
        if mode == CkptCaptureMode::Cow {
            // The freeze covers only serializing the skeletons. Arming pins
            // the page set, so the drain length is known now even though
            // page *contents* are only materialized at the drain event —
            // after resumed guests have raced it with writes.
            let arm_bytes: u64 = armed.iter().map(|(_, a)| a.arm_bytes()).sum();
            let page_bytes: u64 = armed.iter().map(|(_, a)| a.pending_page_bytes()).sum();
            let t_arm = now + extract_time(arm_bytes);
            let t_drain = t_arm + extract_time(page_bytes);
            if let Some(o) = self.ops.get_mut(&op) {
                o.stages.insert(node, NodeStage::Armed(t_arm, armed));
                o.local_ops.insert(node, (now, t_arm));
            }
            self.arm(t_arm, Event::AgentLocalDone { node, op });
            self.arm(t_drain, Event::CkptDrain { node, op });
            return;
        }
        let Some((serialized, durable_at)) = self.drain_and_write(node, op, now, armed) else {
            return;
        };
        let writeback = mode == CkptCaptureMode::Writeback;
        // §5.2 write-back: the blackout ends when the state is captured; the
        // disk write proceeds in the background and gates the commit.
        let local_done = if writeback {
            now + extract_time(serialized)
        } else {
            durable_at
        };
        if let Some(o) = self.ops.get_mut(&op) {
            o.local_ops.insert(node, (now, local_done));
        }
        self.arm(local_done, Event::AgentLocalDone { node, op });
        if writeback {
            self.arm(durable_at, Event::AgentDurable { node, op });
        }
    }

    /// COW's background drain: the snapshots armed in the freeze drain now,
    /// after resumed guests have raced them with writes. An aborted op, or
    /// a node the fault plan kills mid-drain, drops them undrained.
    pub(crate) fn on_ckpt_drain(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive() {
            return;
        }
        let (t_arm, armed, aborted) = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            let Some(NodeStage::Armed(t_arm, armed)) = o.stages.remove(&node) else {
                return;
            };
            (t_arm, armed, o.coord.is_aborted())
        };
        if aborted || self.maybe_crash(node, ProtocolPoint::CowDrain) {
            return;
        }
        if let Some((_, durable_at)) = self.drain_and_write(node, op, t_arm, armed) {
            self.arm(durable_at, Event::AgentDurable { node, op });
        }
    }

    /// The pipeline's drain step: drains each armed snapshot (the
    /// arm-instant pages, which resumed guests' writes copied away from),
    /// prepares its store write, and submits the node's write-out as one
    /// batched disk operation (a single seek)
    /// starting at `start` — the freeze for an immediate drain, arm-complete
    /// for COW's, so the write-out overlaps the background encode exactly
    /// as it overlaps an immediate capture. The batch never completes
    /// before its last ready time, the end of capture. The prepared writes
    /// are parked for the persist. Returns the image bytes serialized and
    /// when the batch is durable, or `None` when an injected disk fault
    /// failed the op.
    fn drain_and_write(
        &mut self,
        node: usize,
        op: u64,
        start: SimTime,
        armed: Vec<(String, ArmedPodCheckpoint)>,
    ) -> Option<(u64, SimTime)> {
        let job = self.ops.get(&op)?.job.clone();
        let store = self.store(&job);
        let mut images: Vec<(String, PreparedChunked)> = Vec::new();
        let mut batch: Vec<(SimTime, u64)> = Vec::new();
        let mut serialized: u64 = 0;
        let mut copied: u64 = 0;
        for (pod_name, a) in armed {
            let (img, pre_copied) = a.drain();
            copied += pre_copied;
            let prepared = self.prepare_image(&store, &img, start, &mut serialized, &mut batch);
            images.push((pod_name, prepared));
        }
        let durable_at = self.nodes[node]
            .kernel
            .disk
            .submit_write_batch(start, &batch);
        if let Some(fault) = self.fault.disk_write(node, &batch) {
            self.apply_ckpt_disk_fault(op, fault, images);
            return None;
        }
        if let Some(o) = self.ops.get_mut(&op) {
            o.stages.insert(node, NodeStage::Prepared(images));
            if o.mode == CkptCaptureMode::Cow {
                *o.cow_copied.entry(node).or_insert(0) += copied;
            }
        }
        Some((serialized, durable_at))
    }

    /// The pipeline's persist step: writes the node's prepared images into
    /// the op's epoch. False when the agent has nothing to report: the op
    /// is gone, it aborted (its epoch is already discarded, and persisting
    /// now would strand chunks the store can never commit), or the write
    /// failed it.
    fn persist_images(&mut self, node: usize, op: u64) -> bool {
        let Some(o) = self.ops.get_mut(&op) else {
            return false;
        };
        let images = match o.stages.remove(&node) {
            Some(NodeStage::Prepared(images)) => images,
            _ => Vec::new(),
        };
        if o.coord.is_aborted() {
            return false;
        }
        let (job, epoch) = (o.job.clone(), o.image_epoch);
        if let Err(e) = self.put_images(&job, epoch, images) {
            self.fail_op(op, e);
            return false;
        }
        true
    }

    /// An injected disk fault struck a checkpoint write: the write syscall
    /// reports the failure, durability is never claimed, and the operation
    /// force-aborts. A torn write additionally leaves a partial prefix of
    /// the image on disk — chunks with no manifest referencing them — which
    /// the abort path's orphan-chunk garbage collection reclaims.
    fn apply_ckpt_disk_fault(
        &mut self,
        op: u64,
        fault: WriteFault,
        images: Vec<(String, PreparedChunked)>,
    ) {
        if let WriteFault::Torn(frac) = fault {
            if let Some(o) = self.ops.get(&op) {
                let store = self.store(&o.job.clone());
                for (_, put) in &images {
                    store.put_torn(put, frac);
                }
            }
        }
        self.fail_op(op, CruzError::Protocol("injected disk write fault"));
    }

    fn begin_local_restore(&mut self, node: usize, op: u64) {
        let (job, image_epoch) = match self.ops.get(&op) {
            Some(o) => (o.job.clone(), o.image_epoch),
            None => return,
        };
        let store = self.store(&job);
        let pods = self.job_pods_on_node(op, node);
        let mut images = Vec::new();
        let mut total: u64 = 0;
        for p in &pods {
            // A pod the epoch holds nothing for is skipped; an image that is
            // there but fails verification aborts the restart, which would
            // otherwise complete without that pod.
            // Charge what the disk actually serves: the manifest plus every
            // distinct chunk it references.
            let (sealed, stored) = match store.read_stored(&p.name, image_epoch) {
                Ok(read) => read,
                Err(ReadError::Absent) => continue,
                Err(ReadError::Corrupt) => {
                    let pod = p.name.clone();
                    self.fail_op(op, CruzError::CorruptImage { pod });
                    return;
                }
            };
            total += stored;
            let decoded = sealed.decode();
            // The decoded image owns copies of everything it needs, so the
            // read's lent buffer goes back for the next read or capture.
            self.fs.give_back(sealed.into_bytes());
            match decoded {
                Ok(img) => images.push((p.name.clone(), img)),
                Err(e) => {
                    self.fail_op(op, CruzError::BadImage(e));
                    return;
                }
            }
        }
        let done_at = self.nodes[node].kernel.disk.submit_read(self.now, total);
        if let Some(o) = self.ops.get_mut(&op) {
            o.stages.insert(node, NodeStage::Restoring(images));
            o.local_ops.insert(node, (self.now, done_at));
        }
        self.arm(done_at, Event::AgentLocalDone { node, op });
    }

    /// The restore's instantiate step: recreates the node's pods from the
    /// images its read returned, and binds their placements. False when
    /// the agent has nothing to report: the op is gone, it aborted (the
    /// images are dropped, so an aborted restart leaves no pod behind), or
    /// Zap refused an image, which fails it.
    fn restore_images(&mut self, node: usize, op: u64) -> bool {
        let Some(o) = self.ops.get_mut(&op) else {
            return false;
        };
        let images = match o.stages.remove(&node) {
            Some(NodeStage::Restoring(images)) => images,
            _ => Vec::new(),
        };
        if o.coord.is_aborted() {
            return false;
        }
        let job = o.job.clone();
        for (pod_name, image) in images {
            let slot = &mut self.nodes[node];
            let pod_id = match slot.zap.restart_pod(&mut slot.kernel, image, self.now) {
                Ok(id) => id,
                Err(e) => {
                    self.fail_op(op, CruzError::Zap(e));
                    return false;
                }
            };
            if let Some(p) = self
                .jobs
                .get_mut(&job)
                .and_then(|jr| jr.placement_mut(&pod_name))
            {
                p.pod_id = Some(pod_id);
                p.node = node;
            }
        }
        true
    }

    pub(crate) fn resume_pods(&mut self, node: usize, op: u64) {
        for p in self.job_pods_on_node(op, node) {
            let Some(pod_id) = p.pod_id else { continue };
            let slot = &mut self.nodes[node];
            let resumed = slot.zap.resume_pod(&mut slot.kernel, pod_id, self.now);
            if let Err(e) = resumed {
                // A pod that will not resume stays frozen; surface the
                // cause instead of silently dropping it.
                let now = self.now;
                self.soft_faults.push((now, "resume-pod", e.into()));
            }
        }
        let now = self.now;
        if let Some(o) = self.ops.get_mut(&op) {
            o.resumed_at.entry(node).or_insert(now);
        }
    }

    fn roll_back(&mut self, node: usize, op: u64) {
        // Abort path: drop the node's capture stage (releasing the pages an
        // undrained COW checkpoint holds), resume pods, lift filters,
        // discard this epoch's images. Only a checkpoint abort owns its
        // epoch and its stage. An aborted *restart* is reading a committed
        // epoch — discarding it would destroy the very checkpoint recovery
        // needs to retry from.
        let discard = match self.ops.get_mut(&op) {
            Some(o) if o.coord.kind() == OpKind::Checkpoint => {
                o.stages.remove(&node);
                Some((o.job.clone(), o.image_epoch))
            }
            _ => None,
        };
        self.resume_pods(node, op);
        self.set_comm(node, op, true);
        if let Some((job, epoch)) = discard {
            self.store(&job).discard_epoch(epoch);
        }
    }

    fn agent_send(&mut self, node: usize, msg: CtlMsg) {
        let Some(addr) = self.nodes[node].agent_coord_addr else {
            return;
        };
        let now = self.now;
        self.ctl().send(CtlAddr::agent(node), addr, &msg, now);
    }

    /// Drains a node's agent endpoint: each decodable control frame costs
    /// one control-CPU slot and becomes an [`Event::AgentCtl`] firing.
    pub(crate) fn pump_agent(&mut self, n: usize) {
        while let Some((from, msg)) = self.ctl().recv(CtlAddr::agent(n)) {
            let mut at = self.ctl_slot(n);
            // Start/continue handling configures the packet filter and
            // signals pods before anything else runs.
            if matches!(msg, CtlMsg::Start { .. } | CtlMsg::Continue { .. }) {
                at += AGENT_OP_CPU;
                self.nodes[n].ctl_cpu_free = at;
            }
            self.arm(
                at,
                Event::AgentCtl {
                    node: n,
                    msg,
                    reply_to: from,
                },
            );
        }
    }
}
