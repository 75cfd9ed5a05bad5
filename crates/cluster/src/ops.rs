//! Coordinated-operation runtime, coordinator side: install, message
//! flow, retry/timeout, abort and completion bookkeeping.
//!
//! This layer owns the lifetime of one coordinated checkpoint or restart:
//! serializing its sends on the control-plane CPU, routing its agents'
//! replies from the coordinator node's one endpoint (through the
//! [`crate::transport`]), and tearing the operation down on commit, abort
//! or injected failure.
//! Every future action is one `Event` armed with `World::arm`, so the
//! same code drives both carriers. The agent half — executing protocol
//! actions against the Zap layer and the disk — is in
//! [`crate::ops_agent`].

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};
use zap::{ArmedPodCheckpoint, PodImage};

use cruz::coordinator::{CoordEffect, CoordStats, Coordinator};
use cruz::error::CruzError;
use cruz::proto::{CtlMsg, OpKind, ProtocolMode};
use cruz::store::PreparedChunked;

use crate::events::Event;
use crate::node::CtlAddr;
use crate::params::{CkptCaptureMode, CkptOptions};
use crate::recovery::{RecoveryOutcome, RecoveryReport};
use crate::state::{ClusterError, World};

/// Where one node stands in an operation's capture or restore pipeline
/// between two of its events. A node holds at most one stage.
pub(crate) enum NodeStage {
    /// COW: snapshots armed in the freeze, awaiting their background
    /// drain — (arm-complete time, per-pod armed checkpoints).
    Armed(SimTime, Vec<(String, ArmedPodCheckpoint)>),
    /// Drained images with their store writes prepared, awaiting the
    /// persist.
    Prepared(Vec<(String, PreparedChunked)>),
    /// Images read from the store, awaiting their restore.
    Restoring(Vec<(String, PodImage)>),
}

/// Per-operation state the engine tracks from install to completion.
pub(crate) struct OpRuntime {
    /// The op's protocol state machine: the one record of its kind and of
    /// whether it completed or aborted.
    pub(crate) coord: Coordinator,
    /// When this checkpoint's capture drains and persists.
    pub(crate) mode: CkptCaptureMode,
    pub(crate) job: String,
    /// Epoch used for image storage (for restarts: the epoch restored).
    pub(crate) image_epoch: u64,
    pub(crate) coord_node: usize,
    pub(crate) agents_nodes: Vec<usize>,
    pub(crate) stages: BTreeMap<usize, NodeStage>,
    /// COW capture: pre-image bytes copied on each node because post-resume
    /// guest writes raced the drain.
    pub(crate) cow_copied: BTreeMap<usize, u64>,
    pub(crate) local_ops: BTreeMap<usize, (SimTime, SimTime)>,
    pub(crate) resumed_at: BTreeMap<usize, SimTime>,
    /// First control-plane failure hit while driving this operation; set
    /// when the op is force-aborted instead of panicking the world.
    pub(crate) error: Option<CruzError>,
    /// A migration's pod and destination: the op sees only that pod, and
    /// its epoch is a spool that is never committed.
    pub(crate) migration: Option<(String, usize)>,
}

impl OpRuntime {
    /// True once the op's coordinator completed or aborted it.
    pub(crate) fn settled(&self) -> bool {
        self.coord.is_complete() || self.coord.is_aborted()
    }

    fn report(&self) -> OpReport {
        OpReport {
            kind: self.coord.kind(),
            stats: self.coord.stats.clone(),
            local_ops: self
                .local_ops
                .iter()
                .map(|(&n, &(s, e))| (n, s, e))
                .collect(),
            resumed_at: self.resumed_at.iter().map(|(&n, &t)| (n, t)).collect(),
            complete: self.coord.is_complete(),
            aborted: self.coord.is_aborted(),
            cow_copied_bytes: self.cow_copied.iter().map(|(&n, &b)| (n, b)).collect(),
        }
    }
}

/// How many completed operations keep their reports: the newest, by id. A
/// report is read right after its operation finishes; keeping every one
/// would grow memory with the number of operations a world runs.
pub(crate) const RETIRED_OPS_KEPT: usize = 64;

/// What the engine keeps of a completed operation: its report. A settled
/// coordinator ignores every further message, retry and timeout, and every
/// agent has resumed, so nothing else of the operation is read again; a
/// retransmission still arriving for it names no live operation, and the
/// coordinator endpoint drops it like a frame lost in flight. Retiring
/// keeps a long-running world's memory from growing with the number of
/// operations it has run; so does keeping only the newest
/// [`RETIRED_OPS_KEPT`] of them.
pub(crate) struct RetiredOp {
    report: OpReport,
    error: Option<CruzError>,
}

/// A report of one finished (or running) coordinated operation.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Operation kind.
    pub kind: OpKind,
    /// Coordinator timing observations.
    pub stats: CoordStats,
    /// Per-node local save/restore windows: (node, start, end).
    pub local_ops: Vec<(usize, SimTime, SimTime)>,
    /// When each node's pods resumed execution.
    pub resumed_at: Vec<(usize, SimTime)>,
    /// Whether the operation completed.
    pub complete: bool,
    /// Whether it was aborted.
    pub aborted: bool,
    /// COW capture only: per-node pre-image bytes copied because guest
    /// writes raced the background drain — the bounded extra cost COW pays
    /// for shrinking the freeze window.
    pub cow_copied_bytes: Vec<(usize, u64)>,
}

impl OpReport {
    /// How long each node's pods were frozen: local-op start to resume.
    /// The quantity the Fig. 4 optimization shrinks on fast-saving nodes.
    pub fn blocked_durations(&self) -> Vec<(usize, SimDuration)> {
        self.local_ops
            .iter()
            .filter_map(|&(n, start, _)| {
                let resumed = self.resumed_at.iter().find(|(rn, _)| *rn == n)?.1;
                Some((n, resumed.saturating_duration_since(start)))
            })
            .collect()
    }

    /// The Fig. 5(b) quantity: total checkpoint latency minus the largest
    /// local save time — what coordination itself costs.
    pub fn coordination_overhead(&self) -> Option<SimDuration> {
        let latency = self.stats.checkpoint_latency()?;
        let max_local = self
            .local_ops
            .iter()
            .map(|(_, s, e)| e.duration_since(*s))
            .max()?;
        Some(latency.saturating_sub(max_local))
    }
}

impl World {
    // ---- coordinated operations -------------------------------------------

    /// Starts a coordinated checkpoint of `job`. Returns the operation id
    /// (also the stored epoch).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`].
    pub fn start_checkpoint(
        &mut self,
        job: &str,
        mode: ProtocolMode,
        timeout: Option<SimDuration>,
    ) -> Result<u64, ClusterError> {
        self.start_checkpoint_with(
            job,
            CkptOptions {
                mode,
                timeout,
                ..CkptOptions::default()
            },
        )
    }

    /// The fully-general checkpoint entry point: protocol mode, capture
    /// schedule and timeout, as [`CkptOptions`] selects them.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`].
    pub fn start_checkpoint_with(
        &mut self,
        job: &str,
        opts: CkptOptions,
    ) -> Result<u64, ClusterError> {
        if self.job_busy(job) {
            return Err(ClusterError::JobBusy);
        }
        let jr = self.jobs.get(job).ok_or(ClusterError::NoSuchJob)?;
        let agents_nodes = jr.app_nodes();
        let coord_node = jr.coordinator_node;
        let capture = opts.capture.unwrap_or_default();
        let op = self.next_op;
        self.next_op += 1;
        let n = agents_nodes.len();
        let mut coord = self.coordinator(OpKind::Checkpoint, opts.mode, op, n, opts.timeout);
        // Write-back and COW need the §5.2 message flow: `done` resumes
        // pods early, `durable` after the background write gates the commit
        // record.
        if capture != CkptCaptureMode::StopTheWorld {
            coord = coord.with_cow();
        }
        self.install_op(op, op, job, coord_node, agents_nodes, coord, capture, None);
        Ok(op)
    }

    /// Starts a coordinated restart of `job` from a committed epoch. The
    /// `placement` list re-homes pods (pod name → node); unmentioned pods
    /// keep their previous node assignment.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`], [`ClusterError::NoSuchEpoch`].
    pub fn start_restart(
        &mut self,
        job: &str,
        epoch: u64,
        placement: &[(String, usize)],
        _mode: ProtocolMode,
    ) -> Result<u64, ClusterError> {
        if !self.store(job).is_committed(epoch) {
            return Err(ClusterError::NoSuchEpoch(epoch));
        }
        if self.job_busy(job) {
            return Err(ClusterError::JobBusy);
        }
        if !self.jobs.contains_key(job) {
            return Err(ClusterError::NoSuchJob);
        }
        // Tear down surviving pods first (restart-in-place, or rolling a
        // live job back to an earlier epoch): their addresses must be free
        // before the restore recreates them, which binds the placements
        // again. A survivor that refuses teardown would leave its
        // addresses bound and wreck the restore; the restart is refused.
        self.evict_job(job)?;
        let jr = self.jobs.get_mut(job).ok_or(ClusterError::NoSuchJob)?;
        for (pod, node) in placement {
            if let Some(p) = jr.placement_mut(pod) {
                p.node = *node;
            }
        }
        let agents_nodes = jr.app_nodes();
        let coord_node = jr.coordinator_node;
        let op = self.next_op;
        self.next_op += 1;
        // `_mode` is accepted for API symmetry only: a restart always
        // blocks until every node restored.
        let n = agents_nodes.len();
        let coord = self.coordinator(OpKind::Restart, ProtocolMode::Blocking, op, n, None);
        let stw = CkptCaptureMode::StopTheWorld;
        self.install_op(op, epoch, job, coord_node, agents_nodes, coord, stw, None);
        Ok(op)
    }

    /// Live-migrates one pod to `dst` while the rest of the job keeps
    /// running — the §4.2 scenario (remote endpoints need not be under Zap
    /// control). The move is one operation in two rounds over the pipeline
    /// every checkpoint and restart runs: a stop-the-world checkpoint of
    /// that pod alone on its source, into a spool epoch that is never
    /// committed; then, once the source has torn the pod down, a restart of
    /// it on `dst` from the spool. The spool is discarded when the op
    /// finishes, complete or aborted, and a capture round that fails leaves
    /// the pod running at its source. Returns the operation id.
    ///
    /// # Errors
    ///
    /// [`ClusterError::BadNode`] when `dst` is not a live node, or already
    /// hosts the pod; [`ClusterError::JobBusy`];
    /// [`ClusterError::NoSuchJob`] when the job has no such running pod.
    pub fn migrate_pod(&mut self, job: &str, pod: &str, dst: usize) -> Result<u64, ClusterError> {
        if self.job_busy(job) {
            return Err(ClusterError::JobBusy);
        }
        let jr = self.jobs.get(job).ok_or(ClusterError::NoSuchJob)?;
        let p = jr.placement(pod).filter(|p| p.pod_id.is_some());
        let (src, coord_node) = (p.ok_or(ClusterError::NoSuchJob)?.node, jr.coordinator_node);
        if src == dst || !self.node_alive(dst) {
            return Err(ClusterError::BadNode(dst));
        }
        let op = self.next_op;
        self.next_op += 1;
        let coord = self.coordinator(OpKind::Checkpoint, ProtocolMode::Blocking, op, 1, None);
        let (stw, moved) = (CkptCaptureMode::StopTheWorld, Some((pod.to_owned(), dst)));
        self.install_op(op, op, job, coord_node, vec![src], coord, stw, moved);
        Ok(op)
    }

    /// A coordinator for `op` over `agents` nodes. With recovery on, every
    /// operation gets a failure-detection timeout even if the caller set
    /// none: a crashed participant must abort the op, not hang it forever.
    fn coordinator(
        &self,
        kind: OpKind,
        mode: ProtocolMode,
        op: u64,
        agents: usize,
        timeout: Option<SimDuration>,
    ) -> Coordinator {
        let recovery = &self.params.recovery;
        let coord = Coordinator::new(kind, mode, op, (0..agents).collect());
        match timeout.or(recovery.enabled.then_some(recovery.op_timeout)) {
            Some(t) => coord.with_timeout(t),
            None => coord,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn install_op(
        &mut self,
        op: u64,
        image_epoch: u64,
        job: &str,
        coord_node: usize,
        agents_nodes: Vec<usize>,
        coord: Coordinator,
        mode: CkptCaptureMode,
        migration: Option<(String, usize)>,
    ) {
        self.ops.insert(
            op,
            OpRuntime {
                coord,
                mode,
                job: job.to_owned(),
                image_epoch,
                coord_node,
                agents_nodes,
                stages: BTreeMap::new(),
                cow_copied: BTreeMap::new(),
                local_ops: BTreeMap::new(),
                resumed_at: BTreeMap::new(),
                error: None,
                migration,
            },
        );
        self.start_round(op);
        if let Some(d) = self.params.ctl_retry.delay(0) {
            self.arm(self.now + d, Event::CoordRetry { op, attempt: 0 });
        }
    }

    /// Starts the op's coordinator: its first sends, and its failure
    /// deadline.
    fn start_round(&mut self, op: u64) {
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        let (msgs, _) = o.coord.start(self.now);
        let deadline = o.coord.deadline();
        self.schedule_coord_sends(op, msgs);
        if let Some(d) = deadline {
            self.arm(d, Event::CoordTimeout { op });
        }
    }

    /// A migration's hand-off, once the pod's image is durable in the
    /// spool: the source tears the pod down and lifts its filter rule, and
    /// the placement moves to the destination with no pod until the
    /// restore round instantiates one. The `continue` that follows finds
    /// nothing left to resume at the source.
    fn hand_off(&mut self, op: u64, job: &str, pod: &str, dst: usize) {
        let Some((src, ip, pod_id)) = self
            .jobs
            .get(job)
            .and_then(|jr| jr.placement(pod))
            .and_then(|p| Some((p.node, p.ip, p.pod_id?)))
        else {
            return;
        };
        let slot = &mut self.nodes[src];
        if let Err(e) = slot.zap.destroy_pod(&mut slot.kernel, pod_id) {
            self.fail_op(op, CruzError::Zap(e));
            return;
        }
        slot.kernel.net.filter_mut().remove_drop_rule(ip);
        if let Some(p) = self.jobs.get_mut(job).and_then(|jr| jr.placement_mut(pod)) {
            p.node = dst;
            p.pod_id = None;
        }
        self.postprocess(src);
    }

    /// A migration's capture round completed: the op continues as a
    /// restart of the pod on its destination alone, from the spool. The
    /// op's report still covers the whole move: it starts when the capture
    /// round started and counts both rounds' messages.
    fn start_restore_round(&mut self, op: u64) {
        let coord = self.coordinator(OpKind::Restart, ProtocolMode::Blocking, op, 1, None);
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        let Some(dst) = o.migration.as_ref().map(|&(_, dst)| dst) else {
            return;
        };
        let capture = std::mem::replace(&mut o.coord, coord).stats;
        o.agents_nodes = vec![dst];
        self.start_round(op);
        if let Some(o) = self.ops.get_mut(&op) {
            let stats = &mut o.coord.stats;
            stats.started_at = capture.started_at;
            stats.msgs_sent += capture.msgs_sent;
            stats.msgs_received += capture.msgs_received;
        }
    }

    /// Discards an epoch no commit will name, and reclaims the chunks a
    /// torn or interrupted write stranded.
    fn discard_uncommitted(&self, job: &str, epoch: u64) {
        let store = self.store(job);
        store.discard_epoch(epoch);
        store.gc_orphan_chunks();
    }

    pub(crate) fn schedule_coord_sends(&mut self, op: u64, msgs: Vec<(usize, CtlMsg)>) {
        // The coordinator CPU serializes message transmission. Together with
        // the serialized receive path in `poll_ctl`, this is the
        // N-proportional component of the Fig. 5(b) overhead.
        let Some(coord_node) = self.ops.get(&op).map(|o| o.coord_node) else {
            return;
        };
        for (agent, msg) in msgs {
            let at = self.ctl_slot(coord_node);
            self.arm(at, Event::CoordSend { op, to: agent, msg });
        }
    }

    /// A report of an operation's progress/outcome. `None` for an id never
    /// issued, and for a completed operation whose report was evicted: the
    /// world keeps the reports of its newest 64 completed operations only
    /// (`RETIRED_OPS_KEPT`).
    pub fn op_report(&self, op: u64) -> Option<OpReport> {
        match self.ops.get(&op) {
            Some(o) => Some(o.report()),
            None => Some(self.retired_ops.get(&op)?.report.clone()),
        }
    }

    /// True once the operation completed (successfully or by abort).
    pub fn op_finished(&self, op: u64) -> bool {
        match self.ops.get(&op) {
            Some(o) => o.settled(),
            // Every issued id went into `ops` and leaves it only when the
            // op completes, whether or not its report is still kept.
            None => (1..self.next_op).contains(&op),
        }
    }

    /// The control-plane error that force-aborted an operation, if any.
    /// `None` too for a completed operation whose report was evicted (see
    /// [`World::op_report`]).
    pub fn op_error(&self, op: u64) -> Option<&CruzError> {
        match self.ops.get(&op) {
            Some(o) => o.error.as_ref(),
            None => self.retired_ops.get(&op)?.error.as_ref(),
        }
    }

    /// Force-aborts an operation on a control-plane failure: the error is
    /// recorded, the op's coordinator aborts it and broadcasts the abort to
    /// every participant (so frozen pods resume rather than hang), and the
    /// epoch's partial images are discarded. One corrupt image or refused
    /// Zap action kills one operation, not the whole world.
    pub(crate) fn fail_op(&mut self, op: u64, err: CruzError) {
        let msgs = self.abort_op(op, err);
        self.schedule_coord_sends(op, msgs);
    }

    /// Aborts an op through its coordinator: records `err` unless the op
    /// already has an error, and, if the op has not settled, aborts its
    /// coordinator and runs the abort cleanup. Returns the coordinator's
    /// `Abort`s, by agent index, for the caller to send.
    pub(crate) fn abort_op(&mut self, op: u64, err: CruzError) -> Vec<(usize, CtlMsg)> {
        let Some(o) = self.ops.get_mut(&op) else {
            return Vec::new();
        };
        o.error.get_or_insert(err);
        if o.settled() {
            return Vec::new();
        }
        let msgs = o.coord.force_abort().0;
        self.op_aborted_cleanup(op);
        msgs
    }

    /// Post-abort bookkeeping shared by every abort path, run once when the
    /// op's coordinator aborts it: a checkpoint's uncommitted epoch (a
    /// migration's spool, in either round) is discarded; a recovery pass
    /// waiting on this op is marked failed.
    pub(crate) fn op_aborted_cleanup(&mut self, op: u64) {
        if let Some(o) = self.ops.get(&op) {
            if o.coord.kind() == OpKind::Checkpoint || o.migration.is_some() {
                self.discard_uncommitted(&o.job, o.image_epoch);
            }
        }
        if let Some(r) = self.recovery_waiting_on(op) {
            r.outcome = RecoveryOutcome::Failed;
        }
    }

    /// The recovery pass whose restart is `op`, while that restart runs.
    fn recovery_waiting_on(&mut self, op: u64) -> Option<&mut RecoveryReport> {
        self.recovery_reports
            .iter_mut()
            .find(|r| r.restart_op == Some(op) && r.outcome == RecoveryOutcome::InProgress)
    }

    /// Retires an operation that just completed (see [`RetiredOp`]),
    /// discarding a migration's spool, and stamps a recovery pass waiting
    /// on it.
    fn op_completed(&mut self, op: u64) {
        let now = self.now;
        if let Some(o) = self.ops.remove(&op) {
            if o.migration.is_some() {
                self.discard_uncommitted(&o.job, o.image_epoch);
            }
            let retired = RetiredOp {
                report: o.report(),
                error: o.error,
            };
            self.retired_ops.insert(op, retired);
            if self.retired_ops.len() > RETIRED_OPS_KEPT {
                self.retired_ops.pop_first();
            }
        }
        if let Some(r) = self.recovery_waiting_on(op) {
            r.recovered_at = Some(now);
            r.outcome = RecoveryOutcome::Recovered;
        }
    }

    /// Arms a periodic checkpoint driver for `job` (the LSF-integration
    /// analogue): every `interval`, a coordinated checkpoint with `opts`
    /// starts unless one is already running; the driver retires itself
    /// once the job finishes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`].
    pub fn schedule_periodic_checkpoints(
        &mut self,
        job: &str,
        interval: SimDuration,
        opts: CkptOptions,
    ) -> Result<(), ClusterError> {
        if !self.jobs.contains_key(job) {
            return Err(ClusterError::NoSuchJob);
        }
        self.arm_periodic_ckpt(job, interval, opts);
        Ok(())
    }

    pub(crate) fn on_periodic_ckpt(&mut self, job: &str, interval: SimDuration, opts: CkptOptions) {
        if !self.jobs.contains_key(job) || self.job_finished(job) {
            return; // driver retires
        }
        if !self.job_busy(job) {
            if let Err(e) = self.start_checkpoint_with(job, opts) {
                // A failed tick must not kill the periodic driver; record
                // the cause and try again next interval.
                let now = self.now;
                self.soft_faults.push((now, "periodic-checkpoint", e));
            }
        }
        self.arm_periodic_ckpt(job, interval, opts);
    }

    fn arm_periodic_ckpt(&mut self, job: &str, interval: SimDuration, opts: CkptOptions) {
        self.arm(
            self.now + interval,
            Event::PeriodicCkpt {
                job: job.to_owned(),
                interval,
                opts,
            },
        );
    }

    // ---- coordinator wiring -------------------------------------------------

    pub(crate) fn on_coord_ctl(&mut self, op: u64, from: usize, msg: CtlMsg) {
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        let (msgs, effects) = o.coord.on_message(from, msg, self.now);
        let (job, image_epoch, kind) = (o.job.clone(), o.image_epoch, o.coord.kind());
        let migration = o.migration.clone();
        self.schedule_coord_sends(op, msgs);
        for fx in effects {
            match (fx, &migration) {
                // A migration's spool is never committed, so it can never
                // become a rollback target. The hand-off happens here, not
                // at `Complete`: the `continue` that follows would
                // otherwise resume the pod at its source.
                (CoordEffect::Commit { .. }, Some((pod, dst))) => {
                    self.hand_off(op, &job, pod, *dst);
                }
                (CoordEffect::Complete { .. }, Some(_)) if kind == OpKind::Checkpoint => {
                    self.start_restore_round(op);
                }
                (CoordEffect::Commit { .. }, None) => {
                    let store = self.store(&job);
                    store.commit(image_epoch);
                    if self.params.prune_old_epochs {
                        store.prune_below(image_epoch);
                        // With retention pruning on, only the newest epoch
                        // survives — compact the replica logs down to it so
                        // write amplification tracks the retained state,
                        // not the job's age. No-op at k = 1.
                        store.compact_logs();
                    }
                }
                (CoordEffect::Complete { .. }, _) => self.op_completed(op),
                // Only `on_timeout` and `force_abort` abort an op.
                (CoordEffect::Aborted { .. }, _) => {}
            }
        }
    }

    pub(crate) fn on_coord_send(&mut self, op: u64, to: usize, msg: CtlMsg) {
        let Some(o) = self.ops.get(&op) else {
            return;
        };
        let (node, coord_node) = (o.agents_nodes[to], o.coord_node);
        let now = self.now;
        self.ctl()
            .send(CtlAddr::coord(coord_node), CtlAddr::agent(node), &msg, now);
        self.postprocess(coord_node);
    }

    pub(crate) fn on_coord_retry(&mut self, op: u64, attempt: u32) {
        let msgs = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            // An op that settled (or was force-aborted) stops retrying:
            // retransmissions never outlive their operation.
            if o.settled() {
                return;
            }
            o.coord.on_retry(self.now)
        };
        self.schedule_coord_sends(op, msgs);
        let next = attempt + 1;
        if let Some(d) = self.params.ctl_retry.delay(next) {
            self.arm(self.now + d, Event::CoordRetry { op, attempt: next });
        }
    }

    pub(crate) fn on_coord_timeout(&mut self, op: u64) {
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        let (msgs, effects) = o.coord.on_timeout(self.now);
        self.schedule_coord_sends(op, msgs);
        if effects
            .iter()
            .any(|fx| matches!(fx, CoordEffect::Aborted { .. }))
        {
            self.op_aborted_cleanup(op);
        }
    }

    /// Drains a node's coordinator endpoint. A pong is its sender's
    /// liveness, stored on this node for the heartbeat rounds coordinated
    /// here, and costs nothing. Any other frame is routed by its epoch, the
    /// op id, to the live op coordinated here: from one of that op's agents
    /// it costs one control-CPU slot and becomes an [`Event::CoordCtl`]
    /// firing. A frame for any other op,
    /// or from a node that is not one of the op's agents, is dropped
    /// uncharged, like a frame lost in flight.
    pub(crate) fn pump_coord(&mut self, n: usize) {
        while let Some((from, msg)) = self.ctl().recv(CtlAddr::coord(n)) {
            let sender = from.node as usize;
            if let CtlMsg::Pong { .. } = msg {
                self.nodes[n].pongs.insert(sender, self.now);
                continue;
            }
            let op = msg.epoch();
            let agent = self
                .ops
                .get(&op)
                .filter(|o| o.coord_node == n && !o.settled())
                .and_then(|o| o.agents_nodes.iter().position(|&an| an == sender));
            let Some(from) = agent else { continue };
            let at = self.ctl_slot(n);
            self.arm(at, Event::CoordCtl { op, from, msg });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterParams, JobSpec, PodSpec};
    use simnet::addr::{IpAddr, MacAddr};
    use workloads::ComputeConfig;
    use zap::image::MacMode;

    #[test]
    fn retired_reports_are_bounded_and_evicted_ops_stay_finished() {
        let mut w = World::new(2, ClusterParams::default());
        let cfg = ComputeConfig {
            outer: 1 << 40,
            inner: 100,
        };
        let job = JobSpec {
            name: "c".into(),
            coordinator_node: 1,
            pods: vec![PodSpec {
                name: "p".into(),
                ip: IpAddr::from_octets([10, 0, 1, 1]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2001)),
                node: 0,
                programs: vec![cfg.program()],
            }],
        };
        w.launch_job(&job).unwrap();
        let mut ops = Vec::new();
        for _ in 0..RETIRED_OPS_KEPT + 3 {
            let op = w
                .start_checkpoint("c", ProtocolMode::Blocking, None)
                .unwrap();
            assert!(w.run_until_op(op, 1_000_000), "checkpoint {op} finishes");
            assert!(w.op_report(op).is_some_and(|r| r.complete));
            w.store("c").discard_epoch(op);
            ops.push(op);
            assert!(w.retired_ops.len() <= RETIRED_OPS_KEPT);
        }
        assert_eq!(w.retired_ops.len(), RETIRED_OPS_KEPT);
        let (first, last) = (ops[0], ops[ops.len() - 1]);
        assert!(w.op_finished(first), "an evicted op is still finished");
        assert!(w.op_report(first).is_none() && w.op_error(first).is_none());
        assert!(w.op_report(last).is_some(), "the newest report is kept");
        assert!(
            !w.op_finished(0) && !w.op_finished(last + 1),
            "never issued"
        );
    }
}
