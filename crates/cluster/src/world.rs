//! The thin world driver: the event loop, the node table, the switch,
//! the carrier, and the twin cycle.
//!
//! Protocol behavior lives in the layers above — [`crate::ops`],
//! [`crate::drain`], [`crate::heartbeat`] and [`crate::jobs`] each extend
//! [`World`] with their own `impl` block, and every control frame they
//! move goes through the [`crate::transport`] seam. This module only pops
//! events, stamps the trace digest, routes frames between nodes and the
//! switch, and re-arms per-node run/timer scheduling.
//!
//! A world runs on one of two carriers. [`World::new`] gives the sim
//! carrier: control frames ride the simulated fabric and time is virtual,
//! which is what the golden traces pin. [`World::new_loopback`] gives the
//! loopback carrier: control frames ride real UDP sockets on `127.0.0.1`
//! and the event queue doubles as a deadline heap paced by the wall
//! clock. Guest traffic stays on the simulated switch either way. The
//! protocol engine above is the same code on both, and
//! [`World::run_cycle`] runs the same checkpoint → crash → restore cycle
//! on either.

use std::collections::BTreeMap;

use des::{digest, EventQueue, SimDuration, SimRng, SimTime};
use simnet::addr::{IpAddr, MacAddr};
use simnet::fault::FrameFate;
use simnet::link::LinkState;
use simnet::switch::{PortId, Switch};
use simnet::{EthFrame, NetStack};
use simos::disk::Disk;
use simos::fs::NetFs;
use simos::kernel::Kernel;
use zap::Zap;

use cruz::agent::Agent;
use cruz::error::CruzError;
use cruz::proto::{ProtocolMode, AGENT_PORT};
use cruz::replog::{clear_replica_faults, install_replica_faults, ReplicatedStore, ScrubReport};

use crate::events::Event;
use crate::fault::{FaultPlan, ProtocolPoint};
use crate::jobs::{JobRuntime, JobSpec};
use crate::params::ClusterParams;
use crate::recovery::RecoveryReport;
use crate::runtime::{image_set_digest, CtlInstant, Deadline, Timers};
use crate::state::FaultState;
use crate::transport::{Ctl, CtlSock, CtlTransport, NetCtl, SimnetCtl};

pub use crate::node::Node;
pub use crate::ops::{CkptOptions, OpReport};
pub use crate::state::{ClusterError, World};

/// Outcome of one [`World::run_cycle`]: run the job to completion,
/// checkpoint it, crash the hosting node(s), restore the committed epoch
/// onto a spare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The committed checkpoint epoch the restore rolled back to.
    pub epoch: u64,
    /// [`image_set_digest`] over the restored pods' image bytes as read
    /// back from the store — the cross-carrier comparison point.
    pub restored_digest: u64,
    /// The pods restored onto the spare, in digest order.
    pub restored_pods: Vec<String>,
    /// The checkpoint operation; [`World::op_report`] has its timings.
    pub checkpoint_op: u64,
    /// Events processed over the whole cycle.
    pub events_processed: u64,
}

/// Events a cycle phase may take before it counts as wedged.
const CYCLE_EVENT_BUDGET: u64 = 50_000_000;

fn stuck(what: &'static str) -> ClusterError {
    ClusterError::Protocol(CruzError::Protocol(what))
}

impl World {
    /// Builds a cluster of `n` nodes on one switch, on the sim carrier.
    /// Node `i` owns IP `10.0.0.(i+1)`.
    pub fn new(n: usize, params: ClusterParams) -> World {
        // cruz-lint: allow(silent-unwrap)
        World::with_carrier(n, params, None).expect("agent port free on a fresh stack")
    }

    /// Builds the same cluster on the loopback carrier: every control
    /// endpoint is a real non-blocking UDP socket on `127.0.0.1`, and
    /// [`World::step`] serves them until the wall clock reaches the next
    /// event, so `now` reads wall-clock time since construction. After a
    /// fixed wall budget the world stops stepping, so a wedged socket
    /// path fails its run loop instead of hanging it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Protocol`] when the host refuses loopback sockets
    /// (probe with [`crate::transport::loopback_available`]).
    pub fn new_loopback(n: usize, params: ClusterParams) -> Result<World, ClusterError> {
        Ok(World::with_carrier(n, params, Some(NetCtl::new()?))?)
    }

    fn with_carrier(
        n: usize,
        params: ClusterParams,
        net: Option<NetCtl>,
    ) -> Result<World, CruzError> {
        assert!(n > 0, "a cluster needs at least one node");
        let fs = NetFs::new();
        let mut rng = SimRng::from_seed(params.seed);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let net = NetStack::new(
                MacAddr::from_index(i as u32 + 1),
                Self::node_ip(i),
                params.subnet_prefix,
                params.tcp.clone(),
            );
            let mut kernel = Kernel::new(net, fs.clone(), Disk::new(params.disk), params.kernel);
            let zap = Zap::new();
            zap.install(&mut kernel);
            nodes.push(Node {
                kernel,
                zap,
                agent: Agent::new(),
                agent_sock: CtlSock::UNBOUND,
                agent_coord_addr: None,
                alive: true,
                run_scheduled: false,
                timer_scheduled: None,
                ctl_cpu_free: SimTime::ZERO,
            });
        }
        // Deliberate discard: burn one seed-stream draw so every later
        // draw stays aligned with the pinned golden-trace digests.
        // cruz-lint: allow(swallowed-error)
        let _ = rng.next_u64();
        let mut w = World {
            now: SimTime::ZERO,
            net,
            queue: EventQueue::new(),
            nodes,
            switch: Switch::new(n),
            links_up: vec![LinkState::new(); n],
            links_down: vec![LinkState::new(); n],
            fs,
            params,
            rng,
            jobs: BTreeMap::new(),
            migrations: BTreeMap::new(),
            migration_failures: Vec::new(),
            ops: BTreeMap::new(),
            retired_ops: BTreeMap::new(),
            next_op: 1,
            events_processed: 0,
            trace_digest: digest::OFFSET,
            hb: BTreeMap::new(),
            fault: None,
            recovery_reports: Vec::new(),
            pending_recovery: BTreeMap::new(),
            recoveries: BTreeMap::new(),
            crash_log: Vec::new(),
            soft_faults: Vec::new(),
            scrub_reports: Vec::new(),
        };
        for i in 0..n {
            w.nodes[i].agent_sock = w.ctl().bind(i, AGENT_PORT)?;
        }
        Ok(w)
    }

    /// The IP of node `i`: `10.0.0.(i+1)`.
    pub fn node_ip(i: usize) -> IpAddr {
        crate::node::node_ip(i)
    }

    /// The world's control-plane transport — its carrier's: every
    /// protocol layer binds, sends and receives [`cruz::proto::CtlMsg`]
    /// frames through this seam rather than touching a node's network
    /// stack or a socket directly.
    pub fn ctl(&mut self) -> Ctl<'_> {
        match &mut self.net {
            Some(net) => Ctl::Net(net),
            None => Ctl::Sim(SimnetCtl::new(&mut self.nodes)),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to a node's kernel.
    pub fn kernel(&self, n: usize) -> &Kernel {
        &self.nodes[n].kernel
    }

    /// Mutable access to a node's kernel. Callers that mutate kernel state
    /// should follow with [`World::kick_node`].
    pub fn kernel_mut(&mut self, n: usize) -> &mut Kernel {
        &mut self.nodes[n].kernel
    }

    /// A handle to a node's Zap layer.
    pub fn zap(&self, n: usize) -> Zap {
        self.nodes[n].zap.clone()
    }

    /// Re-evaluates a node's scheduling after out-of-band kernel mutation.
    pub fn kick_node(&mut self, n: usize) {
        self.postprocess(n);
    }

    /// Events processed so far (progress metric for run loops).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The checkpoint store for a job: `params.store.replicas` replica
    /// stores behind the one-store API (1 = the plain unreplicated store,
    /// byte-identical to earlier versions), inheriting the cluster's
    /// worker count for the capture hot path (a wall-clock knob
    /// only — produced bytes are identical at every width).
    pub fn store(&self, job: &str) -> ReplicatedStore {
        ReplicatedStore::new(self.fs.clone(), job, self.params.store.replicas.max(1))
            .with_threads(self.params.store.threads)
    }

    /// The runtime state of a job.
    pub fn job(&self, name: &str) -> Option<&JobRuntime> {
        self.jobs.get(name)
    }

    /// True while a coordinated operation or a migration is in flight for
    /// `job` — new operations are refused until it settles.
    pub fn job_busy(&self, job: &str) -> bool {
        self.migrations.get(job).copied().unwrap_or(0) > 0
            || self
                .ops
                .values()
                .any(|o| o.job == job && !o.complete && !o.aborted)
    }

    /// Marks a node dead: it stops processing events (fail-stop crash).
    /// On the loopback carrier its control endpoints close as well.
    pub fn crash_node(&mut self, n: usize) {
        if self.nodes[n].alive {
            self.nodes[n].alive = false;
            self.crash_log.push((n, self.now));
            if let Some(net) = &mut self.net {
                net.close_node(n);
            }
        }
    }

    /// Whether a node is alive (false for out-of-range indices).
    pub fn node_alive(&self, n: usize) -> bool {
        self.nodes.get(n).map(|x| x.alive).unwrap_or(false)
    }

    /// Sets the per-frame loss probability (fault injection).
    // Tuning knob, never checkpoint state. cruz-lint: allow(float-in-sim)
    pub fn set_frame_loss(&mut self, p: f64) {
        self.params.frame_loss = p;
    }

    /// Installs a fault plan: disk faults are armed on their nodes now;
    /// crash and frame faults strike as the run reaches them. The plan's
    /// own seed drives a dedicated RNG stream, so the same plan against the
    /// same world seed replays the identical trace.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for d in &plan.disk {
            if let Some(node) = self.nodes.get_mut(d.node) {
                node.kernel.disk.inject_write_fault(d.nth_write, d.fault);
            }
        }
        // Store-replica faults live in control files on the shared
        // filesystem (the replicated store re-reads them on every op).
        // A plan without any leaves the filesystem untouched, so existing
        // pinned traces see zero delta.
        if plan.replicas.is_empty() {
            clear_replica_faults(&self.fs);
        } else {
            install_replica_faults(&self.fs, &plan.replicas);
        }
        self.fault = Some(FaultState {
            plan: plan.clone(),
            rng: SimRng::from_seed(plan.seed),
            crash_hits: BTreeMap::new(),
        });
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Every recovery pass the self-healing manager has run so far.
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery_reports
    }

    /// Every store scrub pass run so far: `(when, job, what it fixed)`.
    pub fn scrub_reports(&self) -> &[(SimTime, String, ScrubReport)] {
        &self.scrub_reports
    }

    /// Non-fatal control-plane failures recorded instead of discarded:
    /// (simulated time, site, error). Empty on a clean run.
    pub fn soft_faults(&self) -> &[(SimTime, &'static str, ClusterError)] {
        &self.soft_faults
    }

    /// Crashes the plan says should fire at `point` on `node`: counts the
    /// occurrence and kills the node when a [`crate::fault::CrashFault`]
    /// names it. Returns true when the node just died.
    pub(crate) fn maybe_crash(&mut self, node: usize, point: ProtocolPoint) -> bool {
        let fire = match self.fault.as_mut() {
            Some(f) => {
                let hits = f.crash_hits.entry((node, point as u8)).or_insert(0);
                let nth = *hits;
                *hits += 1;
                f.plan
                    .crashes
                    .iter()
                    .any(|c| c.node == node && c.point == point && c.nth == nth)
            }
            None => false,
        };
        if fire {
            self.crash_node(node);
        }
        fire
    }

    /// Reserves one message-processing slot on a node's control-plane CPU,
    /// returning when the work completes.
    pub(crate) fn ctl_slot(&mut self, node: usize) -> SimTime {
        let start = self.nodes[node].ctl_cpu_free.max(self.now);
        let done = start + self.params.ctl_msg_cpu;
        self.nodes[node].ctl_cpu_free = done;
        done
    }

    // ---- event loop -------------------------------------------------------

    /// Processes one event. Returns false when the queue is empty, or on
    /// the loopback carrier once its wall budget is spent.
    pub fn step(&mut self) -> bool {
        if self.net.is_some() && !self.pace() {
            return false;
        }
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now || self.net.is_some(), "time went backwards");
        self.now = self.now.max(at);
        self.events_processed += 1;
        self.trace_digest = digest::fold_u64(self.trace_digest, at.as_nanos());
        self.trace_digest = digest::fold_u64(self.trace_digest, ev.fingerprint());
        self.dispatch(ev);
        true
    }

    /// The running event-trace digest (see the field docs). Equal seeds
    /// must yield equal digests at equal points in the run.
    pub fn trace_digest(&self) -> u64 {
        self.trace_digest
    }

    /// The loopback carrier's clock: serves every live node's control
    /// endpoints, waiting on a socket read timeout, until the wall clock
    /// reaches the next queued event. Leaves `now` at the wall clock.
    /// False when the queue is empty or the wall budget is spent.
    fn pace(&mut self) -> bool {
        loop {
            let Some(net) = &self.net else { return false };
            if net.budget_spent() {
                return false;
            }
            self.now = self.now.max(net.now().into());
            for n in 0..self.nodes.len() {
                if self.nodes[n].alive {
                    self.poll_ctl(n);
                }
            }
            let (Some(next), Some(net)) = (self.queue.peek_time(), &self.net) else {
                return false;
            };
            if SimTime::from(net.now()) >= next {
                return true;
            }
            net.wait_until(next.into());
        }
    }

    /// Runs until simulated time `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > t || !self.step() {
                break;
            }
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Runs until the predicate holds, within an event budget. Returns
    /// whether the predicate held.
    pub fn run_until_pred(&mut self, max_events: u64, pred: impl Fn(&World) -> bool) -> bool {
        for _ in 0..max_events {
            if pred(self) {
                return true;
            }
            if !self.step() {
                return pred(self);
            }
        }
        pred(self)
    }

    /// Runs until operation `op` finishes (or the event budget runs out).
    pub fn run_until_op(&mut self, op: u64, max_events: u64) -> bool {
        self.run_until_pred(max_events, |w| w.op_finished(op))
    }

    /// The twin cycle, on whichever carrier this world runs: launch
    /// `spec`, run it until every process exits, checkpoint it with
    /// `opts`, crash every node hosting a pod, restore the committed epoch
    /// onto `spare`, and digest the restored images as the store serves
    /// them.
    ///
    /// The workload must terminate on its own: capturing its finished
    /// state makes the image bytes independent of capture timing, which
    /// is what makes the digest comparable across carriers.
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`] from launch, checkpoint or restart;
    /// [`ClusterError::BadNode`] for an out-of-range spare;
    /// [`ClusterError::Protocol`] when a phase aborts or runs out of
    /// events (or, on the loopback carrier, wall time).
    pub fn run_cycle(
        &mut self,
        spec: &JobSpec,
        spare: usize,
        opts: CkptOptions,
    ) -> Result<CycleReport, ClusterError> {
        let job = spec.name.as_str();
        if spare >= self.nodes.len() {
            return Err(ClusterError::BadNode(spare));
        }
        if spec.pods.iter().any(|p| p.node == spare) {
            return Err(stuck("spare node hosts a pod of the job"));
        }
        self.launch_job(spec)?;
        if !self.run_until_pred(CYCLE_EVENT_BUDGET, |w| w.job_finished(job)) {
            return Err(stuck("workload did not finish within the cycle budget"));
        }
        let checkpoint_op = self.start_checkpoint_with(job, opts)?;
        self.settle(checkpoint_op)?;
        let epoch = self
            .store(job)
            .latest_committed_epoch()
            .ok_or(stuck("no committed epoch after checkpoint"))?;
        for n in self.job(job).map(JobRuntime::app_nodes).unwrap_or_default() {
            self.crash_node(n);
        }
        let placement: Vec<(String, usize)> =
            spec.pods.iter().map(|p| (p.name.clone(), spare)).collect();
        let restart = self.start_restart(job, epoch, &placement, ProtocolMode::Blocking)?;
        self.settle(restart)?;
        let store = self.store(job);
        let mut pods: Vec<String> = spec.pods.iter().map(|p| p.name.clone()).collect();
        pods.sort();
        let mut pairs: Vec<(String, Vec<u8>)> = Vec::with_capacity(pods.len());
        for p in pods {
            let bytes = store
                .get_image(&p, epoch)
                .ok_or(stuck("restored pod image missing from the store"))?;
            pairs.push((p, bytes));
        }
        Ok(CycleReport {
            epoch,
            restored_digest: image_set_digest(&pairs),
            restored_pods: pairs.into_iter().map(|(p, _)| p).collect(),
            checkpoint_op,
            events_processed: self.events_processed,
        })
    }

    /// Runs operation `op` to its end; an abort or an exhausted budget is
    /// an error.
    fn settle(&mut self, op: u64) -> Result<(), ClusterError> {
        if !self.run_until_op(op, CYCLE_EVENT_BUDGET) {
            return Err(stuck("operation did not finish within the cycle budget"));
        }
        match self.op_report(op) {
            Some(r) if !r.aborted => Ok(()),
            _ => Err(stuck("operation aborted")),
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::NodeRun(n) => self.on_node_run(n),
            Event::NodeTick(n) => self.on_node_tick(n),
            Event::FrameAtSwitch { from_port, frame } => self.on_frame_at_switch(from_port, frame),
            Event::FrameAtNode { port, frame } => self.on_frame_at_node(port, frame),
            Event::FrameAtNodeInjected { port, frame } => self.on_frame_injected(port, frame),
            Event::Deadline(d) => self.on_deadline(d),
        }
    }

    fn on_deadline(&mut self, d: Deadline) {
        match d {
            Deadline::AgentCtl {
                node,
                msg,
                reply_to,
            } => self.on_agent_ctl(node, msg, reply_to),
            Deadline::AgentLocalDone { node, op } => self.on_agent_local_done(node, op),
            Deadline::AgentDurable { node, op } => self.on_agent_durable(node, op),
            Deadline::CkptDrain { node, op } => self.on_ckpt_drain(node, op),
            Deadline::CoordCtl { op, from, msg } => self.on_coord_ctl(op, from, msg),
            Deadline::CoordSend { op, to, msg } => self.on_coord_send(op, to, msg),
            Deadline::CoordTimeout { op } => self.on_coord_timeout(op),
            Deadline::CoordRetry { op, attempt } => self.on_coord_retry(op, attempt),
            Deadline::Heartbeat { job } => self.on_heartbeat(&job),
            Deadline::HeartbeatTimeout {
                job,
                sent_at,
                pinged,
            } => self.on_heartbeat_timeout(&job, sent_at.into(), pinged),
            Deadline::PeriodicCkpt {
                job,
                interval,
                mode,
                cow,
            } => self.on_periodic_ckpt(&job, interval.into(), mode, cow),
            Deadline::MigrateFinish {
                job,
                pod,
                dst,
                image,
            } => self.on_migrate_finish(&job, &pod, dst, &image),
            Deadline::StoreScrub { job, interval } => self.on_store_scrub(&job, interval.into()),
        }
    }

    fn on_node_run(&mut self, n: usize) {
        self.nodes[n].run_scheduled = false;
        if !self.nodes[n].alive {
            return;
        }
        let out = self.nodes[n].kernel.run_slice(self.now);
        let after = self.now + out.elapsed.max(SimDuration::from_nanos(1));
        self.emit_frames(n, after);
        self.poll_ctl(n);
        if self.nodes[n].kernel.has_runnable() {
            self.nodes[n].run_scheduled = true;
            self.queue.push(after, Event::NodeRun(n));
        }
        self.reschedule_timer(n);
    }

    fn on_node_tick(&mut self, n: usize) {
        self.nodes[n].timer_scheduled = None;
        if !self.nodes[n].alive {
            return;
        }
        self.nodes[n].kernel.on_tick(self.now);
        self.postprocess(n);
    }

    fn on_frame_at_switch(&mut self, from_port: usize, frame: EthFrame) {
        let outs = self.switch.forward(PortId(from_port), &frame);
        for PortId(p) in outs {
            let deliver =
                self.links_down[p].schedule(self.now, frame.wire_len(), &self.params.link);
            self.queue.push(
                deliver,
                Event::FrameAtNode {
                    port: p,
                    frame: frame.clone(),
                },
            );
        }
    }

    fn on_frame_at_node(&mut self, port: usize, frame: EthFrame) {
        if !self.nodes[port].alive {
            return;
        }
        if self.params.frame_loss > 0.0 && self.rng.chance(self.params.frame_loss) {
            return;
        }
        if let Some(f) = self.fault.as_mut() {
            if !f.plan.frames.is_none() {
                match f.plan.frames.decide(&mut f.rng) {
                    FrameFate::Deliver => {}
                    FrameFate::Drop => return,
                    FrameFate::Duplicate { delay } => {
                        self.queue.push(
                            self.now + delay,
                            Event::FrameAtNodeInjected {
                                port,
                                frame: frame.clone(),
                            },
                        );
                    }
                    FrameFate::Reorder { delay } => {
                        // Held back: later frames overtake it on the wire.
                        self.queue
                            .push(self.now + delay, Event::FrameAtNodeInjected { port, frame });
                        return;
                    }
                }
            }
        }
        self.deliver_frame(port, frame);
    }

    fn on_frame_injected(&mut self, port: usize, frame: EthFrame) {
        if !self.nodes[port].alive {
            return;
        }
        self.deliver_frame(port, frame);
    }

    fn deliver_frame(&mut self, port: usize, frame: EthFrame) {
        self.nodes[port].kernel.on_frame(frame, self.now);
        self.postprocess(port);
    }

    // ---- node plumbing ------------------------------------------------------

    /// Drains a node's outgoing frames and re-arms its run/timer events.
    pub(crate) fn postprocess(&mut self, n: usize) {
        self.emit_frames(n, self.now);
        self.poll_ctl(n);
        if self.nodes[n].kernel.has_runnable() && !self.nodes[n].run_scheduled {
            self.nodes[n].run_scheduled = true;
            self.queue.push(self.now, Event::NodeRun(n));
        }
        self.reschedule_timer(n);
    }

    fn emit_frames(&mut self, n: usize, at: SimTime) {
        let frames = self.nodes[n].kernel.take_frames();
        for frame in frames {
            let arrive = self.links_up[n].schedule(at, frame.wire_len(), &self.params.link);
            self.queue.push(
                arrive,
                Event::FrameAtSwitch {
                    from_port: n,
                    frame,
                },
            );
        }
    }

    fn reschedule_timer(&mut self, n: usize) {
        let Some(t) = self.nodes[n].kernel.next_timer() else {
            return;
        };
        let t = t.max(self.now);
        match self.nodes[n].timer_scheduled {
            Some(existing) if existing <= t => {}
            _ => {
                self.nodes[n].timer_scheduled = Some(t);
                self.queue.push(t, Event::NodeTick(n));
            }
        }
    }

    /// Drains control datagrams at a node-service point: the agent
    /// endpoint, heartbeat sockets of jobs coordinated here, then
    /// coordinator reply sockets — in that fixed order, so the event
    /// schedule is identical run to run.
    fn poll_ctl(&mut self, n: usize) {
        self.pump_agent(n);
        self.pump_heartbeat(n);
        self.pump_coord(n);
    }
}

/// The world's side of the runtime seam: `now` is the carrier's time and
/// `arm` appends to the event queue (insertion order breaks time ties,
/// satisfying the [`Timers`] ordering contract exactly).
impl Timers for World {
    fn now(&self) -> CtlInstant {
        self.now.into()
    }

    fn arm(&mut self, at: CtlInstant, d: Deadline) {
        self.queue.push(at.into(), Event::Deadline(d));
    }
}
