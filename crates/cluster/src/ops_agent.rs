//! Coordinated-operation runtime, agent side: executing protocol actions
//! against the Zap layer and the disk.
//!
//! The coordinator half (install, retry/timeout, abort bookkeeping) is in
//! [`crate::ops`]; this module is everything a *participant node* does —
//! answering liveness probes, freezing and capturing pods, persisting
//! images, restoring from the store, resuming, and rolling back. The
//! stop-the-world capture path lives here; the COW arm/drain schedule is
//! in [`crate::drain`]. Like the coordinator half, every future action is
//! registered through the [`crate::runtime::Timers`] seam.

use simos::disk::WriteFault;

use cruz::agent::AgentAction;
use cruz::error::CruzError;
use cruz::proto::{CtlMsg, OpKind};
use cruz::replog::ReplicatedStore;
use cruz::store::{MissingChunk, PreparedChunked, PreparedPut, ReadError};
use zap::image::{PodImage, Sealed};

use des::SimTime;

use crate::fault::ProtocolPoint;
use crate::jobs::PodPlacement;
use crate::params::CkptCaptureMode;
use crate::runtime::{CtlAddr, Deadline, Timers};
use crate::state::World;
use crate::transport::CtlTransport;

impl World {
    // ---- agent wiring -------------------------------------------------------

    pub(crate) fn on_agent_ctl(&mut self, node: usize, msg: CtlMsg, reply_to: CtlAddr) {
        if !self.nodes[node].alive {
            return;
        }
        // Liveness probes answer from the node itself — a pong proves the
        // whole receive path (NIC, kernel, control CPU), not just the wire.
        if let CtlMsg::Ping { seq } = msg {
            let sock = self.nodes[node].agent_sock;
            let now = self.now;
            self.ctl()
                .send(node, sock, reply_to, &CtlMsg::Pong { seq }, now.into());
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
        if !self.nodes[node].alive {
            return;
        }
        let (job, image_epoch, images) = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            if o.aborted {
                // The epoch was already discarded by the rollback; persisting
                // now would leave orphan images the store can never commit.
                o.pending_ckpt.remove(&node);
                return;
            }
            (
                o.job.clone(),
                o.image_epoch,
                o.pending_ckpt.remove(&node).unwrap_or_default(),
            )
        };
        if let Err(e) = self.put_images(&job, image_epoch, images) {
            self.fail_op(op, e);
            return;
        }
        let actions = self.nodes[node].agent.on_local_durable(self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    pub(crate) fn on_agent_local_done(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive {
            return;
        }
        // Materialize the pending work at its completion time.
        let (kind, cow) = match self.ops.get(&op) {
            Some(o) => (o.kind, o.cow),
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
        match kind {
            OpKind::Checkpoint if !cow => {
                let Some((job, image_epoch, images, aborted)) = self.ops.get_mut(&op).map(|o| {
                    (
                        o.job.clone(),
                        o.image_epoch,
                        o.pending_ckpt.remove(&node).unwrap_or_default(),
                        o.aborted,
                    )
                }) else {
                    return;
                };
                if aborted {
                    // The epoch was already discarded by the abort path;
                    // persisting this straggler would strand orphan chunks
                    // and dangling refs the store can never commit.
                    return;
                }
                if let Err(e) = self.put_images(&job, image_epoch, images) {
                    self.fail_op(op, e);
                    return;
                }
            }
            OpKind::Checkpoint => {} // COW: images persist at AgentDurable
            OpKind::Restart => {
                let Some((job, images)) = self.ops.get_mut(&op).map(|o| {
                    (
                        o.job.clone(),
                        o.pending_restore.remove(&node).unwrap_or_default(),
                    )
                }) else {
                    return;
                };
                for (pod_name, image) in images {
                    let slot = &mut self.nodes[node];
                    let pod_id = match slot.zap.restart_pod(&mut slot.kernel, &image, self.now) {
                        Ok(id) => id,
                        Err(e) => {
                            self.fail_op(op, CruzError::Zap(e));
                            return;
                        }
                    };
                    if let Some(jr) = self.jobs.get_mut(&job) {
                        if let Some(p) = jr.placement_mut(&pod_name) {
                            p.pod_id = Some(pod_id);
                            p.node = node;
                        }
                    }
                }
            }
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

    pub(crate) fn job_pods_on_node(&self, op: u64, node: usize) -> Vec<PodPlacement> {
        let Some(o) = self.ops.get(&op) else {
            return Vec::new();
        };
        let Some(jr) = self.jobs.get(&o.job) else {
            return Vec::new();
        };
        jr.pods_on_node(node).into_iter().cloned().collect()
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

    /// Seals a captured pod image for the dedup store and prepares its
    /// write. The seal names every chunk range in its one hash pass, so the
    /// prepare hashes nothing and encodes only the chunks the store lacks.
    /// Shared by the stop-the-world capture and the COW drain.
    pub(crate) fn prepare_dedup(
        &self,
        store: &ReplicatedStore,
        img: &PodImage,
    ) -> (Sealed, PreparedChunked) {
        let cfg = &self.params.store;
        let (sealed, ranges, names) =
            img.seal_named(|len, cuts| cruz::chunk::split_ranges(len, cuts, cfg.chunk_bytes));
        let prepared = store.prepare_sealed(&sealed, &ranges, &names, cfg);
        (sealed, prepared)
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
        images: Vec<(String, PreparedPut)>,
    ) -> Result<(), CruzError> {
        let store = self.store(job);
        for (pod, put) in images {
            if let Err(MissingChunk(chunk)) = store.put_prepared(&pod, epoch, put) {
                return Err(CruzError::MissingChunk { pod, chunk });
            }
        }
        Ok(())
    }

    fn begin_local_checkpoint(&mut self, node: usize, op: u64) {
        let Some((cow, capture, job)) =
            self.ops.get(&op).map(|o| (o.cow, o.capture, o.job.clone()))
        else {
            return;
        };
        if capture == CkptCaptureMode::Cow {
            self.begin_local_checkpoint_cow(node, op);
            return;
        }
        let pods = self.job_pods_on_node(op, node);
        let dedup = self.params.store.dedup;
        let store = self.store(&job);
        let mut images: Vec<(String, PreparedPut)> = Vec::new();
        // Pipelined write-out schedule for the dedup path: each novel chunk
        // becomes available when capture has serialized up to it, and the
        // manifest when the pod's image is complete.
        let mut batch: Vec<(SimTime, u64)> = Vec::new();
        let mut total: u64 = 0;
        for p in &pods {
            let Some(pod_id) = p.pod_id else { continue };
            let slot = &mut self.nodes[node];
            let img = match slot.zap.checkpoint_pod(&mut slot.kernel, pod_id, self.now) {
                Ok(v) => v,
                Err(e) => {
                    self.fail_op(op, CruzError::Zap(e));
                    return;
                }
            };
            if dedup {
                let (sealed, prepared) = self.prepare_dedup(&store, &img);
                let pod_base = total;
                for (raw_end, stored) in prepared.novel_writes() {
                    let ready = self.now + self.params.extract_time(pod_base + raw_end);
                    batch.push((ready, stored));
                }
                total += sealed.bytes().len() as u64;
                batch.push((
                    self.now + self.params.extract_time(total),
                    prepared.manifest_len(),
                ));
                images.push((p.name.clone(), PreparedPut::Chunked(prepared)));
            } else {
                let sealed = img.seal();
                total += sealed.bytes().len() as u64;
                images.push((p.name.clone(), PreparedPut::Sealed(sealed)));
            }
        }
        let t_extract = self.params.extract_time(total);
        let captured_at = self.now + t_extract;
        // Plain: one write of the whole image, starting once capture ends.
        // Dedup: one batched operation (single seek) streaming novel chunks
        // as capture produces them; the trailing manifest is ready at
        // capture end, so the batch never completes before `captured_at`.
        let durable_at = if dedup {
            self.nodes[node]
                .kernel
                .disk
                .submit_write_batch(self.now, &batch)
        } else {
            self.nodes[node]
                .kernel
                .disk
                .submit_write(captured_at, total)
        };
        if let Some(fault) = self.nodes[node].kernel.disk.take_write_fault() {
            self.apply_ckpt_disk_fault(op, fault, images);
            return;
        }
        if cow {
            // §5.2/COW: the blackout ends when the state is captured; the
            // disk write proceeds in the background and gates the commit.
            if let Some(o) = self.ops.get_mut(&op) {
                o.pending_ckpt.insert(node, images);
                o.local_ops.insert(node, (self.now, captured_at));
            }
            self.arm(captured_at.into(), Deadline::AgentLocalDone { node, op });
            self.arm(durable_at.into(), Deadline::AgentDurable { node, op });
        } else {
            if let Some(o) = self.ops.get_mut(&op) {
                o.pending_ckpt.insert(node, images);
                o.local_ops.insert(node, (self.now, durable_at));
            }
            self.arm(durable_at.into(), Deadline::AgentLocalDone { node, op });
        }
    }

    /// An injected disk fault struck a checkpoint write: the write syscall
    /// reports the failure, durability is never claimed, and the operation
    /// force-aborts. A torn write additionally leaves a partial prefix of
    /// the image on disk — chunks with no manifest referencing them — which
    /// the abort path's orphan-chunk garbage collection reclaims.
    pub(crate) fn apply_ckpt_disk_fault(
        &mut self,
        op: u64,
        fault: WriteFault,
        images: Vec<(String, PreparedPut)>,
    ) {
        if let WriteFault::Torn(frac) = fault {
            if let Some(o) = self.ops.get(&op) {
                let store = self.store(&o.job.clone());
                for (pod_name, put) in &images {
                    store.put_torn(pod_name, o.image_epoch, put, frac);
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
            let sealed = match store.read_sealed(&p.name, image_epoch) {
                Ok(sealed) => sealed,
                Err(ReadError::Absent) => continue,
                Err(ReadError::Corrupt) => {
                    let pod = p.name.clone();
                    self.fail_op(op, CruzError::CorruptImage { pod });
                    return;
                }
            };
            // Charge what the disk actually serves: the plain file, or the
            // manifest plus every distinct chunk it references.
            total += store
                .stored_len(&p.name, image_epoch)
                .unwrap_or(sealed.bytes().len() as u64);
            match sealed.decode() {
                Ok(img) => images.push((p.name.clone(), img)),
                Err(e) => {
                    self.fail_op(op, CruzError::BadImage(e));
                    return;
                }
            }
        }
        let done_at = self.nodes[node].kernel.disk.submit_read(self.now, total);
        if let Some(o) = self.ops.get_mut(&op) {
            o.pending_restore.insert(node, images);
            o.local_ops.insert(node, (self.now, done_at));
        }
        self.arm(done_at.into(), Deadline::AgentLocalDone { node, op });
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
        // Abort path: disarm any undrained COW snapshot, resume pods, lift
        // filters, discard this epoch's images.
        if let Some(o) = self.ops.get_mut(&op) {
            if let Some((_, armed)) = o.pending_arm.remove(&node) {
                for (_, a) in armed {
                    a.cancel();
                }
            }
        }
        self.resume_pods(node, op);
        self.set_comm(node, op, true);
        if let Some(o) = self.ops.get(&op) {
            // Only a checkpoint abort owns its epoch. An aborted *restart*
            // is reading a committed epoch — discarding it would destroy
            // the very checkpoint recovery needs to retry from.
            if o.kind == OpKind::Checkpoint {
                let store = self.store(&o.job.clone());
                store.discard_epoch(o.image_epoch);
            }
        }
    }

    fn agent_send(&mut self, node: usize, msg: CtlMsg) {
        let Some(addr) = self.nodes[node].agent_coord_addr else {
            return;
        };
        let sock = self.nodes[node].agent_sock;
        let now = self.now;
        self.ctl().send(node, sock, addr, &msg, now.into());
    }

    /// Drains a node's agent endpoint: each decodable control frame costs
    /// one control-CPU slot and becomes a [`Deadline::AgentCtl`] firing.
    pub(crate) fn pump_agent(&mut self, n: usize) {
        let sock = self.nodes[n].agent_sock;
        while let Some((from, msg)) = self.ctl().recv(n, sock) {
            let mut at = self.ctl_slot(n);
            // Start/continue handling configures the packet filter and
            // signals pods before anything else runs.
            if matches!(msg, CtlMsg::Start { .. } | CtlMsg::Continue { .. }) {
                at += self.params.agent_op_cpu;
                self.nodes[n].ctl_cpu_free = at;
            }
            self.arm(
                at.into(),
                Deadline::AgentCtl {
                    node: n,
                    msg,
                    reply_to: from,
                },
            );
        }
    }
}
