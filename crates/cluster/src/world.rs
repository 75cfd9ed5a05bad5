//! The thin world driver: the event loop, the node table, the switch,
//! the carrier, and the twin cycle.
//!
//! Protocol behavior lives in the layers above — [`crate::ops`],
//! [`crate::ops_agent`], [`crate::heartbeat`] and [`crate::jobs`] each extend
//! [`World`] with their own `impl` block, and every control frame they
//! move goes through the [`crate::transport`]. This module only arms and
//! pops events, stamps the trace digest, routes frames between nodes and
//! the switch, and re-arms per-node run/timer scheduling.
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

use des::{digest, EventQueue, SimDuration, SimTime};
use simnet::addr::{IpAddr, MacAddr};
use simnet::link::LinkState;
use simnet::switch::{PortId, Switch};
use simnet::{EthFrame, NetStack};
use simos::disk::Disk;
use simos::fs::NetFs;
use simos::kernel::Kernel;
use zap::Zap;

use cruz::agent::Agent;
use cruz::error::CruzError;
use cruz::proto::ProtocolMode;
use cruz::replog::{ReplicaFaults, ReplicatedStore};

use crate::events::Event;
use crate::fault::{FaultPlan, FaultState, FrameFate, ProtocolPoint};
use crate::jobs::{JobRuntime, JobSpec};
use crate::node::MAX_NODES;
use crate::params::{ClusterParams, SUBNET_PREFIX};
use crate::recovery::RecoveryReport;
use crate::transport::{Carrier, Ctl, NetCtl, SimnetCtl};

pub use crate::node::Node;
pub use crate::ops::OpReport;
pub use crate::params::CkptOptions;
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

/// The cross-carrier comparison point of the twin-runtime property: an
/// FNV-1a digest over `(pod name, image bytes)` pairs, folded in the
/// order given (callers sort by pod name first).
///
/// [`World::run_cycle`] computes this over the image bytes read back from
/// the store after a restore; for a workload that ran to completion
/// before capture the bytes — and therefore this digest — must match
/// exactly on both carriers.
pub fn image_set_digest(pods: &[(String, Vec<u8>)]) -> u64 {
    let mut h = digest::OFFSET;
    for (name, bytes) in pods {
        h = digest::fold(h, name.as_bytes());
        h = digest::fold_u64(h, bytes.len() as u64);
        h = digest::fold(h, bytes);
    }
    h
}

/// Events a cycle phase may take before it counts as wedged.
const CYCLE_EVENT_BUDGET: u64 = 50_000_000;

fn stuck(what: &'static str) -> ClusterError {
    ClusterError::Protocol(CruzError::Protocol(what))
}

impl World {
    /// Builds a cluster of `n` nodes on one switch, on the sim carrier.
    /// Node `i` owns IP `10.0.0.(i+1)`, so `n` is at most
    /// [`MAX_NODES`].
    pub fn new(n: usize, params: ClusterParams) -> World {
        // cruz-lint: allow(silent-unwrap)
        World::with_carrier(n, params, false).expect("control ports free on a fresh stack")
    }

    /// Builds the same cluster on the loopback carrier: each node's two
    /// control endpoints are real non-blocking UDP sockets on `127.0.0.1`,
    /// and [`World::step`] serves them until the wall clock reaches the
    /// next event, so `now` reads wall-clock time since construction. After a
    /// fixed wall budget the world stops stepping, so a wedged socket
    /// path fails its run loop instead of hanging it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Protocol`] when the host refuses loopback sockets
    /// (probe with [`crate::transport::loopback_available`]).
    pub fn new_loopback(n: usize, params: ClusterParams) -> Result<World, ClusterError> {
        Ok(World::with_carrier(n, params, true)?)
    }

    /// Builds the nodes, then binds each node's agent and coordinator
    /// endpoints on the chosen carrier: the only control binds a world
    /// makes.
    fn with_carrier(n: usize, params: ClusterParams, loopback: bool) -> Result<World, CruzError> {
        assert!(n > 0, "a cluster needs at least one node");
        assert!(
            n <= MAX_NODES,
            "a cluster of {n} nodes does not fit the 10.0.0.x node subnet (at most {MAX_NODES})"
        );
        let fs = NetFs::new();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let net = NetStack::new(
                MacAddr::from_index(i as u32 + 1),
                Self::node_ip(i),
                SUBNET_PREFIX,
                params.tcp.clone(),
            );
            let mut kernel = Kernel::new(net, fs.clone(), Disk::new(params.disk), params.kernel);
            let zap = Zap::new();
            zap.install(&mut kernel);
            nodes.push(Node {
                kernel,
                zap,
                agent: Agent::new(),
                agent_coord_addr: None,
                crashed_at: None,
                pongs: BTreeMap::new(),
                run_scheduled: false,
                timer_scheduled: None,
                ctl_cpu_free: SimTime::ZERO,
            });
        }
        let carrier = if loopback {
            Carrier::Net(NetCtl::new(n)?)
        } else {
            Carrier::Sim(SimnetCtl::bind(&mut nodes)?)
        };
        Ok(World {
            now: SimTime::ZERO,
            carrier,
            queue: EventQueue::new(),
            nodes,
            switch: Switch::new(n),
            links_up: vec![LinkState::new(); n],
            links_down: vec![LinkState::new(); n],
            fs,
            params,
            jobs: BTreeMap::new(),
            ops: BTreeMap::new(),
            retired_ops: BTreeMap::new(),
            next_op: 1,
            events_processed: 0,
            trace_digest: digest::OFFSET,
            hb: BTreeMap::new(),
            fault: FaultState::new(&FaultPlan::none(0)),
            replica_faults: ReplicaFaults::default(),
            recovery_reports: Vec::new(),
            recoveries: BTreeMap::new(),
            soft_faults: Vec::new(),
            frames: Vec::new(),
        })
    }

    /// The IP of node `i`: `10.0.0.(i+1)`.
    pub fn node_ip(i: usize) -> IpAddr {
        crate::node::node_ip(i)
    }

    /// The world's control-plane transport — its carrier's: every
    /// protocol layer sends and receives [`cruz::proto::CtlMsg`] frames
    /// between the nodes' fixed endpoints through it rather than touching
    /// a node's network stack or a socket directly.
    pub(crate) fn ctl(&mut self) -> Ctl<'_> {
        Ctl::new(&mut self.carrier, &mut self.nodes)
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
    /// byte-identical to earlier versions), on the world's one replica
    /// fault plane, inheriting the cluster's worker count for capture and
    /// restore (a wall-clock knob only — produced bytes are identical at
    /// every width).
    pub fn store(&self, job: &str) -> ReplicatedStore {
        ReplicatedStore::new(self.fs.clone(), job, self.params.store.replicas.max(1))
            .with_threads(self.params.store.threads)
            .with_faults(self.replica_faults.clone())
    }

    /// The runtime state of a job.
    pub fn job(&self, name: &str) -> Option<&JobRuntime> {
        self.jobs.get(name)
    }

    /// True while a coordinated operation (a checkpoint, restart or
    /// migration) is in flight for `job` — new operations are refused until
    /// it settles.
    pub fn job_busy(&self, job: &str) -> bool {
        self.ops.values().any(|o| o.job == job && !o.settled())
    }

    /// Marks a node dead: it stops processing events (fail-stop crash).
    /// On the loopback carrier its control endpoints close as well.
    pub fn crash_node(&mut self, n: usize) {
        if self.nodes[n].alive() {
            self.nodes[n].crashed_at = Some(self.now);
            if let Carrier::Net(net) = &mut self.carrier {
                net.close_node(n);
            }
        }
    }

    /// Whether a node is alive (false for out-of-range indices).
    pub fn node_alive(&self, n: usize) -> bool {
        self.nodes.get(n).is_some_and(Node::alive)
    }

    /// Installs a fault plan in place of the one installed before, with
    /// every hit counter back at zero: crash, disk and frame faults strike
    /// as the run reaches them, and replica-store faults are armed now on
    /// the replica fault plane every job's store shares (which also
    /// revives any crashed replica). The plan's own seed drives a dedicated
    /// RNG stream, so the same plan against the same world seed replays the
    /// identical trace.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.replica_faults.arm(&plan.replicas);
        self.fault = FaultState::new(plan);
    }

    /// Every recovery pass the self-healing manager has run so far.
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery_reports
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
        let fire = self.fault.crashes_at(node, point);
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

    /// Queues `ev` to fire at `at`: the one way onto the event queue.
    /// Events armed for the same instant fire in arm order; on the
    /// loopback carrier an event fires once the wall clock reaches `at`.
    pub(crate) fn arm(&mut self, at: SimTime, ev: Event) {
        self.queue.push(at, ev);
    }

    /// Processes one event. Returns false when the queue is empty, or on
    /// the loopback carrier once its wall budget is spent.
    pub fn step(&mut self) -> bool {
        if self.carrier.net().is_some() && !self.pace() {
            return false;
        }
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            at >= self.now || self.carrier.net().is_some(),
            "time went backwards"
        );
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
            let Some(net) = self.carrier.net() else {
                return false;
            };
            if net.budget_spent() {
                return false;
            }
            self.now = self.now.max(net.now());
            for n in 0..self.nodes.len() {
                if self.nodes[n].alive() {
                    self.poll_ctl(n);
                }
            }
            let (Some(next), Some(net)) = (self.queue.peek_time(), self.carrier.net()) else {
                return false;
            };
            if net.now() >= next {
                return true;
            }
            net.wait_until(next);
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
            Event::AgentCtl {
                node,
                msg,
                reply_to,
            } => self.on_agent_ctl(node, msg, reply_to),
            Event::AgentLocalDone { node, op } => self.on_agent_local_done(node, op),
            Event::AgentDurable { node, op } => self.on_agent_durable(node, op),
            Event::CkptDrain { node, op } => self.on_ckpt_drain(node, op),
            Event::CoordCtl { op, from, msg } => self.on_coord_ctl(op, from, msg),
            Event::CoordSend { op, to, msg } => self.on_coord_send(op, to, msg),
            Event::CoordTimeout { op } => self.on_coord_timeout(op),
            Event::CoordRetry { op, attempt } => self.on_coord_retry(op, attempt),
            Event::Heartbeat { job } => self.on_heartbeat(&job),
            Event::HeartbeatTimeout {
                job,
                sent_at,
                pinged,
            } => self.on_heartbeat_timeout(&job, sent_at, pinged),
            Event::PeriodicCkpt {
                job,
                interval,
                opts,
            } => self.on_periodic_ckpt(&job, interval, opts),
        }
    }

    fn on_node_run(&mut self, n: usize) {
        self.nodes[n].run_scheduled = false;
        if !self.nodes[n].alive() {
            return;
        }
        let out = self.nodes[n].kernel.run_slice(self.now);
        let after = self.now + out.elapsed.max(SimDuration::from_nanos(1));
        self.emit_frames(n, after);
        self.poll_ctl(n);
        if self.nodes[n].kernel.has_runnable() {
            self.nodes[n].run_scheduled = true;
            self.arm(after, Event::NodeRun(n));
        }
        self.reschedule_timer(n);
    }

    fn on_node_tick(&mut self, n: usize) {
        self.nodes[n].timer_scheduled = None;
        if !self.nodes[n].alive() {
            return;
        }
        self.nodes[n].kernel.on_tick(self.now);
        self.postprocess(n);
    }

    fn on_frame_at_switch(&mut self, from_port: usize, frame: EthFrame) {
        let mut outs = self.switch.forward(PortId(from_port), &frame);
        let Some(PortId(mut port)) = outs.next() else {
            return;
        };
        // Every output port but the last gets a copy; the last takes the
        // frame.
        for PortId(next) in outs {
            self.send_down(port, frame.clone());
            port = next;
        }
        self.send_down(port, frame);
    }

    /// Puts a frame on the switch's downlink to node `port`.
    fn send_down(&mut self, port: usize, frame: EthFrame) {
        let deliver = self.links_down[port].schedule(self.now, frame.wire_len(), &self.params.link);
        self.arm(deliver, Event::FrameAtNode { port, frame });
    }

    fn on_frame_at_node(&mut self, port: usize, frame: EthFrame) {
        if !self.nodes[port].alive() {
            return;
        }
        match self.fault.frame_fate() {
            FrameFate::Deliver => {}
            FrameFate::Drop => return,
            FrameFate::Duplicate { delay } => {
                self.arm(
                    self.now + delay,
                    Event::FrameAtNodeInjected {
                        port,
                        frame: frame.clone(),
                    },
                );
            }
            FrameFate::Reorder { delay } => {
                // Held back: later frames overtake it on the wire.
                self.arm(self.now + delay, Event::FrameAtNodeInjected { port, frame });
                return;
            }
        }
        self.deliver_frame(port, frame);
    }

    fn on_frame_injected(&mut self, port: usize, frame: EthFrame) {
        if !self.nodes[port].alive() {
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
            self.arm(self.now, Event::NodeRun(n));
        }
        self.reschedule_timer(n);
    }

    /// Puts a node's outgoing frames on its uplink — the one place frames
    /// leave a node. A crashed node is silent: whatever its stack queued
    /// (a coordinator's pending `Start`s, say) is dropped here.
    fn emit_frames(&mut self, n: usize, at: SimTime) {
        let mut frames = std::mem::take(&mut self.frames);
        frames.extend(self.nodes[n].kernel.take_frames());
        if !self.nodes[n].alive() {
            frames.clear();
        }
        for frame in frames.drain(..) {
            let arrive = self.links_up[n].schedule(at, frame.wire_len(), &self.params.link);
            self.arm(
                arrive,
                Event::FrameAtSwitch {
                    from_port: n,
                    frame,
                },
            );
        }
        self.frames = frames;
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
                self.arm(t, Event::NodeTick(n));
            }
        }
    }

    /// Drains control datagrams at a node-service point: the agent
    /// endpoint, then the coordinator endpoint — in that fixed order, so
    /// the event schedule is identical run to run.
    fn poll_ctl(&mut self, n: usize) {
        self.pump_agent(n);
        self.pump_coord(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_digest_is_order_and_length_sensitive() {
        let a = ("p0".to_string(), vec![1u8, 2, 3]);
        let b = ("p1".to_string(), vec![4u8]);
        let fwd = image_set_digest(&[a.clone(), b.clone()]);
        let rev = image_set_digest(&[b, a]);
        assert_ne!(fwd, rev);
        // Length framing: ("p0", [1]) + ("p1", []) must differ from
        // ("p0", []) + ("p1", [1]) even though the concatenation agrees.
        let x = image_set_digest(&[("p0".into(), vec![1]), ("p1".into(), vec![])]);
        let y = image_set_digest(&[("p0".into(), vec![]), ("p1".into(), vec![1])]);
        assert_ne!(x, y);
    }

    #[test]
    #[should_panic(expected = "does not fit the 10.0.0.x node subnet")]
    fn a_node_past_the_last_octet_is_refused() {
        // Node 255 would own 10.0.0.0 and node 256 would alias node 0.
        World::new(256, ClusterParams::default());
    }
}
