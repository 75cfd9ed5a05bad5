//! Coordinated-operation runtime, coordinator side: install, message
//! flow, retry/timeout, abort and completion bookkeeping.
//!
//! This layer owns the lifetime of one coordinated checkpoint or restart:
//! binding the coordinator's control socket (through the
//! [`crate::transport::CtlTransport`] seam), serializing its sends on the
//! control-plane CPU, and tearing the operation down on commit, abort or
//! injected failure. Every future action is registered through the
//! [`crate::runtime::Timers`] seam rather than scheduled as a raw DES
//! event, so the same code drives both the simulated and the real-socket
//! runtime. The agent half — executing protocol actions against the Zap
//! layer and the disk — is in [`crate::ops_agent`]; the COW arm/drain
//! schedule is in [`crate::drain`].

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};
use zap::{ArmedPodCheckpoint, PodImage};

use cruz::coordinator::{CoordEffect, CoordStats, Coordinator};
use cruz::error::CruzError;
use cruz::proto::{CtlMsg, OpKind, ProtocolMode};
use cruz::store::PreparedPut;

use crate::params::CkptCaptureMode;
use crate::recovery::RecoveryOutcome;
use crate::runtime::{Deadline, Timers};
use crate::state::{ClusterError, World};
use crate::transport::{CtlSock, CtlTransport};

/// Per-operation state the engine tracks from install to completion.
pub(crate) struct OpRuntime {
    pub(crate) coord: Coordinator,
    pub(crate) kind: OpKind,
    pub(crate) cow: bool,
    /// How this checkpoint captures memory (stop-the-world or COW arm/drain).
    pub(crate) capture: CkptCaptureMode,
    pub(crate) job: String,
    /// Epoch used for image storage (for restarts: the epoch restored).
    pub(crate) image_epoch: u64,
    pub(crate) coord_node: usize,
    pub(crate) coord_sock: CtlSock,
    pub(crate) agents_nodes: Vec<usize>,
    pub(crate) pending_ckpt: BTreeMap<usize, Vec<(String, PreparedPut)>>,
    /// COW capture: snapshots armed at freeze, awaiting their background
    /// drain — (arm-complete time, per-pod armed checkpoints).
    pub(crate) pending_arm: BTreeMap<usize, (SimTime, Vec<(String, ArmedPodCheckpoint)>)>,
    /// COW capture: pre-image bytes copied on each node because post-resume
    /// guest writes raced the drain.
    pub(crate) cow_copied: BTreeMap<usize, u64>,
    pub(crate) pending_restore: BTreeMap<usize, Vec<(String, PodImage)>>,
    pub(crate) local_ops: BTreeMap<usize, (SimTime, SimTime)>,
    pub(crate) resumed_at: BTreeMap<usize, SimTime>,
    pub(crate) complete: bool,
    pub(crate) aborted: bool,
    /// First control-plane failure hit while driving this operation; set
    /// when the op is force-aborted instead of panicking the world.
    pub(crate) error: Option<CruzError>,
}

impl OpRuntime {
    fn report(&self) -> OpReport {
        OpReport {
            kind: self.kind,
            stats: self.coord.stats.clone(),
            local_ops: self
                .local_ops
                .iter()
                .map(|(&n, &(s, e))| (n, s, e))
                .collect(),
            resumed_at: self.resumed_at.iter().map(|(&n, &t)| (n, t)).collect(),
            complete: self.complete,
            aborted: self.aborted,
            cow_copied_bytes: self.cow_copied.iter().map(|(&n, &b)| (n, b)).collect(),
        }
    }
}

/// What the engine keeps of a completed operation: its report. A settled
/// coordinator ignores every further message, retry and timeout, and every
/// agent has resumed, so nothing else of the operation is read again; its
/// control socket is closed, and a retransmission still queued for it is
/// dropped like a frame lost in flight. Retiring keeps a long-running
/// world's memory (and its ephemeral ports) from growing with the number
/// of operations it has run.
pub(crate) struct RetiredOp {
    report: OpReport,
    error: Option<CruzError>,
}

/// Options of a coordinated checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CkptOptions {
    /// Protocol variant (Fig. 2 blocking or Fig. 4 optimized).
    pub mode: ProtocolMode,
    /// §5.2 copy-on-write: blackout covers capture only; `durable` gates
    /// the commit.
    pub cow: bool,
    /// Memory-capture mode override; `None` uses `ClusterParams::capture`.
    /// [`CkptCaptureMode::Cow`] shrinks the freeze to the snapshot-arm
    /// window and implies the §5.2 durability split (`cow` above).
    pub capture: Option<CkptCaptureMode>,
    /// Failure-detection timeout (abort + rollback on expiry).
    pub timeout: Option<SimDuration>,
}

impl Default for CkptOptions {
    fn default() -> Self {
        CkptOptions {
            mode: ProtocolMode::Blocking,
            cow: false,
            capture: None,
            timeout: None,
        }
    }
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
        self.start_checkpoint_opts(job, mode, false, timeout)
    }

    /// Like [`World::start_checkpoint`], with the §5.2 copy-on-write
    /// optimization selectable: when `cow` is true the blackout covers only
    /// state *capture*; image writes complete in the background and gate
    /// the commit record via `durable` messages.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`].
    pub fn start_checkpoint_opts(
        &mut self,
        job: &str,
        mode: ProtocolMode,
        cow: bool,
        timeout: Option<SimDuration>,
    ) -> Result<u64, ClusterError> {
        self.start_checkpoint_with(
            job,
            CkptOptions {
                mode,
                cow,
                timeout,
                ..CkptOptions::default()
            },
        )
    }

    /// The fully-general checkpoint entry point.
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
        let capture = opts.capture.unwrap_or(self.params.capture);
        let op = self.next_op;
        self.next_op += 1;
        let mut coord = Coordinator::new(
            OpKind::Checkpoint,
            opts.mode,
            op,
            (0..agents_nodes.len()).collect(),
        );
        // With recovery on, every operation gets a failure-detection
        // timeout even if the caller set none: a crashed participant must
        // abort the op, not hang it forever.
        let timeout = opts.timeout.or_else(|| {
            self.params
                .recovery
                .enabled
                .then_some(self.params.recovery.op_timeout)
        });
        if let Some(t) = timeout {
            coord = coord.with_timeout(t);
        }
        // COW capture needs the §5.2 message flow: `done` at arm-complete
        // resumes pods early, `durable` after the background drain gates the
        // commit record.
        if opts.cow || capture == CkptCaptureMode::Cow {
            coord = coord.with_cow();
        }
        self.install_op(
            op,
            op,
            OpKind::Checkpoint,
            job,
            coord_node,
            agents_nodes,
            coord,
            capture,
        )?;
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
        // before the restore recreates them.
        let survivors: Vec<(usize, zap::pod::PodId)> = self
            .jobs
            .get(job)
            .ok_or(ClusterError::NoSuchJob)?
            .placements
            .iter()
            .filter_map(|p| {
                let pod_id = p.pod_id?;
                self.nodes[p.node].alive.then_some((p.node, pod_id))
            })
            .collect();
        for (node, pod_id) in survivors {
            // A survivor that refuses teardown would leave its addresses
            // bound and wreck the restore; abort the restart instead.
            let slot = &mut self.nodes[node];
            slot.zap.destroy_pod(&mut slot.kernel, pod_id)?;
            self.postprocess(node);
        }
        let jr = self.jobs.get_mut(job).ok_or(ClusterError::NoSuchJob)?;
        for (pod, node) in placement {
            if let Some(p) = jr.placement_mut(pod) {
                p.node = *node;
            }
        }
        for p in jr.placements.iter_mut() {
            p.pod_id = None; // instantiated at restore time
        }
        let agents_nodes = jr.app_nodes();
        let coord_node = jr.coordinator_node;
        let op = self.next_op;
        self.next_op += 1;
        let mut coord = Coordinator::new(
            OpKind::Restart,
            ProtocolMode::Blocking,
            op,
            (0..agents_nodes.len()).collect(),
        );
        if self.params.recovery.enabled {
            coord = coord.with_timeout(self.params.recovery.op_timeout);
        }
        // `_mode` is accepted for API symmetry only: a restart always
        // blocks until every node restored.
        self.install_op(
            op,
            epoch,
            OpKind::Restart,
            job,
            coord_node,
            agents_nodes,
            coord,
            CkptCaptureMode::StopTheWorld,
        )?;
        Ok(op)
    }

    #[allow(clippy::too_many_arguments)]
    fn install_op(
        &mut self,
        op: u64,
        image_epoch: u64,
        kind: OpKind,
        job: &str,
        coord_node: usize,
        agents_nodes: Vec<usize>,
        mut coord: Coordinator,
        capture: CkptCaptureMode,
    ) -> Result<(), ClusterError> {
        let coord_sock = self.bind_ctl_sock(coord_node)?;
        let (msgs, _) = coord.start(self.now);
        let deadline = coord.deadline();
        let cow = coord.cow();
        self.ops.insert(
            op,
            OpRuntime {
                coord,
                kind,
                cow,
                capture,
                job: job.to_owned(),
                image_epoch,
                coord_node,
                coord_sock,
                agents_nodes,
                pending_ckpt: BTreeMap::new(),
                pending_arm: BTreeMap::new(),
                cow_copied: BTreeMap::new(),
                pending_restore: BTreeMap::new(),
                local_ops: BTreeMap::new(),
                resumed_at: BTreeMap::new(),
                complete: false,
                aborted: false,
                error: None,
            },
        );
        self.schedule_coord_sends(op, msgs);
        if let Some(d) = deadline {
            self.arm(d.into(), Deadline::CoordTimeout { op });
        }
        if let Some(p) = self.params.ctl_retry {
            if let Some(d) = p.delay(0) {
                self.arm(
                    (self.now + d).into(),
                    Deadline::CoordRetry { op, attempt: 0 },
                );
            }
        }
        Ok(())
    }

    /// Binds an ephemeral control-plane endpoint on a node, through the
    /// transport seam.
    pub(crate) fn bind_ctl_sock(&mut self, node: usize) -> Result<CtlSock, ClusterError> {
        Ok(self.ctl().bind(node, 0)?)
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
            self.arm(at.into(), Deadline::CoordSend { op, to: agent, msg });
        }
    }

    /// A report of an operation's progress/outcome.
    pub fn op_report(&self, op: u64) -> Option<OpReport> {
        match self.ops.get(&op) {
            Some(o) => Some(o.report()),
            None => Some(self.retired_ops.get(&op)?.report.clone()),
        }
    }

    /// True once the operation completed (successfully or by abort).
    pub fn op_finished(&self, op: u64) -> bool {
        match self.ops.get(&op) {
            Some(o) => o.complete || o.aborted,
            None => self.retired_ops.contains_key(&op),
        }
    }

    /// The control-plane error that force-aborted an operation, if any.
    pub fn op_error(&self, op: u64) -> Option<&CruzError> {
        match self.ops.get(&op) {
            Some(o) => o.error.as_ref(),
            None => self.retired_ops.get(&op)?.error.as_ref(),
        }
    }

    /// Migrations whose destination refused the restore: (job, pod, error).
    pub fn migration_failures(&self) -> &[(String, String, CruzError)] {
        &self.migration_failures
    }

    /// Force-aborts an operation on a control-plane failure: the op is
    /// marked aborted, the error recorded, abort messages broadcast to
    /// every participant (so frozen pods resume rather than hang), and the
    /// epoch's partial images discarded. One corrupt image or refused Zap
    /// action kills one operation, not the whole world.
    pub(crate) fn fail_op(&mut self, op: u64, err: CruzError) {
        let msgs = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            if o.error.is_none() {
                o.error = Some(err);
            }
            if o.complete || o.aborted {
                return;
            }
            o.aborted = true;
            o.coord.force_abort().0
        };
        self.schedule_coord_sends(op, msgs);
        self.op_aborted_cleanup(op);
    }

    /// Post-abort bookkeeping shared by every abort path: a checkpoint's
    /// uncommitted epoch is discarded and any chunks stranded by a torn or
    /// interrupted write are reclaimed; a pending recovery pass waiting on
    /// this op is marked failed.
    pub(crate) fn op_aborted_cleanup(&mut self, op: u64) {
        if let Some(o) = self.ops.get(&op) {
            if o.kind == OpKind::Checkpoint {
                let store = self.store(&o.job.clone());
                store.discard_epoch(o.image_epoch);
                store.gc_orphan_chunks();
            }
        }
        if let Some(idx) = self.pending_recovery.remove(&op) {
            if let Some(r) = self.recovery_reports.get_mut(idx) {
                if r.outcome == RecoveryOutcome::InProgress {
                    r.outcome = RecoveryOutcome::Failed;
                }
            }
        }
    }

    /// Retires an operation that just completed (see [`RetiredOp`]) and
    /// stamps a recovery pass waiting on it.
    fn op_completed(&mut self, op: u64) {
        let now = self.now;
        if let Some(o) = self.ops.remove(&op) {
            self.ctl().close(o.coord_node, o.coord_sock, now.into());
            let retired = RetiredOp {
                report: o.report(),
                error: o.error,
            };
            self.retired_ops.insert(op, retired);
        }
        if let Some(idx) = self.pending_recovery.remove(&op) {
            if let Some(r) = self.recovery_reports.get_mut(idx) {
                r.recovered_at = Some(now);
                r.outcome = RecoveryOutcome::Recovered;
            }
        }
    }

    /// Arms a periodic checkpoint driver for `job` (the LSF-integration
    /// analogue): every `interval`, a coordinated checkpoint starts unless
    /// one is already running; the driver retires itself once the job
    /// finishes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`].
    pub fn schedule_periodic_checkpoints(
        &mut self,
        job: &str,
        interval: SimDuration,
        mode: ProtocolMode,
        cow: bool,
    ) -> Result<(), ClusterError> {
        if !self.jobs.contains_key(job) {
            return Err(ClusterError::NoSuchJob);
        }
        self.arm(
            (self.now + interval).into(),
            Deadline::PeriodicCkpt {
                job: job.to_owned(),
                interval: interval.into(),
                mode,
                cow,
            },
        );
        Ok(())
    }

    pub(crate) fn on_periodic_ckpt(
        &mut self,
        job: &str,
        interval: SimDuration,
        mode: ProtocolMode,
        cow: bool,
    ) {
        if !self.jobs.contains_key(job) || self.job_finished(job) {
            return; // driver retires
        }
        if !self.job_busy(job) {
            if let Err(e) = self.start_checkpoint_opts(job, mode, cow, None) {
                // A failed tick must not kill the periodic driver; record
                // the cause and try again next interval.
                let now = self.now;
                self.soft_faults.push((now, "periodic-checkpoint", e));
            }
        }
        self.arm(
            (self.now + interval).into(),
            Deadline::PeriodicCkpt {
                job: job.to_owned(),
                interval: interval.into(),
                mode,
                cow,
            },
        );
    }

    // ---- coordinator wiring -------------------------------------------------

    pub(crate) fn on_coord_ctl(&mut self, op: u64, from: usize, msg: CtlMsg) {
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        let (msgs, effects) = o.coord.on_message(from, msg, self.now);
        let job = o.job.clone();
        let image_epoch = o.image_epoch;
        self.schedule_coord_sends(op, msgs);
        for fx in effects {
            match fx {
                CoordEffect::Commit { .. } => {
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
                CoordEffect::Complete { .. } => {
                    if let Some(o) = self.ops.get_mut(&op) {
                        o.complete = true;
                    }
                    self.op_completed(op);
                }
                CoordEffect::Aborted { .. } => {
                    if let Some(o) = self.ops.get_mut(&op) {
                        o.aborted = true;
                    }
                    self.op_aborted_cleanup(op);
                }
            }
        }
    }

    pub(crate) fn on_coord_send(&mut self, op: u64, to: usize, msg: CtlMsg) {
        let Some(o) = self.ops.get(&op) else {
            return;
        };
        let node = o.agents_nodes[to];
        let coord_node = o.coord_node;
        let sock = o.coord_sock;
        let now = self.now;
        let mut ctl = self.ctl();
        let dst = ctl.agent_addr(node);
        ctl.send(coord_node, sock, dst, &msg, now.into());
        self.postprocess(coord_node);
    }

    pub(crate) fn on_coord_retry(&mut self, op: u64, attempt: u32) {
        let Some(policy) = self.params.ctl_retry else {
            return;
        };
        let msgs = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            // An op that settled (or was force-aborted) stops retrying:
            // backed-off retransmissions never outlive their operation.
            if o.complete || o.aborted {
                return;
            }
            o.coord.on_retry(self.now)
        };
        self.schedule_coord_sends(op, msgs);
        let next = attempt + 1;
        if let Some(d) = policy.delay(next) {
            self.arm(
                (self.now + d).into(),
                Deadline::CoordRetry { op, attempt: next },
            );
        }
    }

    pub(crate) fn on_coord_timeout(&mut self, op: u64) {
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        let (msgs, effects) = o.coord.on_timeout(self.now);
        self.schedule_coord_sends(op, msgs);
        for fx in effects {
            if let CoordEffect::Aborted { .. } = fx {
                if let Some(o) = self.ops.get_mut(&op) {
                    o.aborted = true;
                }
                self.op_aborted_cleanup(op);
            }
        }
    }

    /// Drains coordinator sockets hosted on a node: each agent reply costs
    /// one control-CPU slot and becomes a [`Deadline::CoordCtl`] firing.
    pub(crate) fn pump_coord(&mut self, n: usize) {
        let op_socks: Vec<(u64, CtlSock)> = self
            .ops
            .iter()
            .filter(|(_, o)| o.coord_node == n && !o.complete && !o.aborted)
            .map(|(&id, o)| (id, o.coord_sock))
            .collect();
        for (op, sock) in op_socks {
            while let Some((from, msg)) = self.ctl().recv(n, sock) {
                // Identify the agent by the sender's node index.
                let Some(agent_idx) = self.ops.get(&op).and_then(|o| {
                    o.agents_nodes
                        .iter()
                        .position(|&an| an == from.node as usize)
                }) else {
                    continue;
                };
                let at = self.ctl_slot(n);
                self.arm(
                    at.into(),
                    Deadline::CoordCtl {
                        op,
                        from: agent_idx,
                        msg,
                    },
                );
            }
        }
    }
}
