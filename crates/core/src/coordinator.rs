//! The Checkpoint Coordinator (Fig. 2, plus the Fig. 4 optimization).
//!
//! The coordinator is a pure state machine: it emits messages and effects;
//! the hosting runtime (the `cluster` crate) ships datagrams and executes
//! effects. This keeps the O(N)-message protocol directly unit-testable.

use std::collections::BTreeSet;

use des::{SimDuration, SimTime};

use crate::proto::{CtlMsg, OpKind, ProtocolMode};

/// Identifies an agent (node index within the operation).
pub type AgentId = usize;

/// A side effect the runtime must perform for the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordEffect {
    /// All agents saved their state: the global checkpoint is consistent.
    /// Write the commit record for `epoch` (the two-phase-commit decision).
    Commit {
        /// Committed epoch.
        epoch: u64,
    },
    /// The operation finished (all agents resumed).
    Complete {
        /// Epoch.
        epoch: u64,
    },
    /// The operation was aborted.
    Aborted {
        /// Epoch.
        epoch: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Waiting for `Done` (and, in optimized mode, `CommDisabled`) messages.
    Collecting,
    /// Commit decided; waiting for every `ContinueDone`.
    Continuing,
    Done,
    Aborted,
}

/// Timing observations of one coordinated operation, the raw material for
/// Figs. 5(a) and 5(b).
#[derive(Debug, Clone, Default)]
pub struct CoordStats {
    /// When the first `Start` was sent.
    pub started_at: Option<SimTime>,
    /// When each agent's `Done` arrived.
    pub done_at: Vec<(AgentId, SimTime)>,
    /// When each agent's `CommDisabled` arrived (optimized mode).
    pub comm_disabled_at: Vec<(AgentId, SimTime)>,
    /// When the last `Done` arrived (commit point).
    pub all_done_at: Option<SimTime>,
    /// When the last `ContinueDone` arrived (total checkpoint latency end).
    pub completed_at: Option<SimTime>,
    /// Control messages sent by the coordinator.
    pub msgs_sent: u64,
    /// Control messages received by the coordinator.
    pub msgs_received: u64,
}

impl CoordStats {
    /// Total latency: first message sent to last `done` received — the
    /// quantity plotted in Fig. 5(a).
    pub fn checkpoint_latency(&self) -> Option<SimDuration> {
        Some(self.all_done_at?.duration_since(self.started_at?))
    }
}

/// The coordinator state machine for one operation.
#[derive(Debug)]
pub struct Coordinator {
    kind: OpKind,
    mode: ProtocolMode,
    epoch: u64,
    agents: Vec<AgentId>,
    phase: Phase,
    cow: bool,
    comm_disabled: BTreeSet<AgentId>,
    done: BTreeSet<AgentId>,
    durable: BTreeSet<AgentId>,
    continue_sent: BTreeSet<AgentId>,
    continue_done: BTreeSet<AgentId>,
    committed: bool,
    timeout: Option<SimDuration>,
    deadline: Option<SimTime>,
    /// Timing observations.
    pub stats: CoordStats,
}

impl Coordinator {
    /// Creates a coordinator for `agents`, using the given protocol variant.
    pub fn new(kind: OpKind, mode: ProtocolMode, epoch: u64, agents: Vec<AgentId>) -> Self {
        assert!(!agents.is_empty(), "an operation needs at least one agent");
        Coordinator {
            kind,
            mode,
            epoch,
            agents,
            phase: Phase::Idle,
            cow: false,
            comm_disabled: BTreeSet::new(),
            done: BTreeSet::new(),
            durable: BTreeSet::new(),
            continue_sent: BTreeSet::new(),
            continue_done: BTreeSet::new(),
            committed: false,
            timeout: None,
            deadline: None,
            stats: CoordStats::default(),
        }
    }

    /// Arms a failure-detection timeout: if the operation has not completed
    /// within `timeout` of starting, [`Coordinator::on_timeout`] aborts it.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Enables the §5.2 copy-on-write optimization: agents report `done` as
    /// soon as state is captured (shrinking the blackout to the capture
    /// time), and the commit record waits for every agent's `durable`.
    pub fn with_cow(mut self) -> Self {
        self.cow = true;
        self
    }

    /// The operation's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The operation kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The protocol variant.
    pub fn mode(&self) -> ProtocolMode {
        self.mode
    }

    /// The agents participating.
    pub fn agents(&self) -> &[AgentId] {
        &self.agents
    }

    /// True once every agent has resumed.
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Done
    }

    /// True if the operation was aborted.
    pub fn is_aborted(&self) -> bool {
        self.phase == Phase::Aborted
    }

    /// The failure-detection deadline, if armed.
    pub fn deadline(&self) -> Option<SimTime> {
        if matches!(self.phase, Phase::Done | Phase::Aborted) {
            None
        } else {
            self.deadline
        }
    }

    /// Step 1: send `<checkpoint>` (or `<restart>`) to every agent.
    pub fn start(&mut self, now: SimTime) -> (Vec<(AgentId, CtlMsg)>, Vec<CoordEffect>) {
        assert_eq!(self.phase, Phase::Idle, "coordinator already started");
        self.phase = Phase::Collecting;
        self.stats.started_at = Some(now);
        self.deadline = self.timeout.map(|t| now + t);
        let msg = CtlMsg::Start {
            kind: self.kind,
            epoch: self.epoch,
            mode: self.mode,
            cow: self.cow,
        };
        let out: Vec<(AgentId, CtlMsg)> = self.agents.iter().map(|&a| (a, msg)).collect();
        self.stats.msgs_sent += out.len() as u64;
        (out, Vec::new())
    }

    /// Feeds an agent message; returns messages to send and effects to run.
    pub fn on_message(
        &mut self,
        from: AgentId,
        msg: CtlMsg,
        now: SimTime,
    ) -> (Vec<(AgentId, CtlMsg)>, Vec<CoordEffect>) {
        let mut out = Vec::new();
        let mut effects = Vec::new();
        if msg.epoch() != self.epoch || matches!(self.phase, Phase::Done | Phase::Aborted) {
            return (out, effects); // stale
        }
        self.stats.msgs_received += 1;
        match msg {
            CtlMsg::CommDisabled { .. } => {
                self.comm_disabled.insert(from);
                self.stats.comm_disabled_at.push((from, now));
            }
            CtlMsg::Done { .. } => {
                if self.done.insert(from) {
                    self.stats.done_at.push((from, now));
                }
                if self.done.len() == self.agents.len() {
                    self.stats.all_done_at = Some(now);
                    self.phase = Phase::Continuing;
                    self.maybe_commit(&mut effects);
                }
            }
            CtlMsg::Durable { .. } => {
                self.durable.insert(from);
                self.maybe_commit(&mut effects);
            }
            CtlMsg::ContinueDone { .. } => {
                self.continue_done.insert(from);
                if self.continue_done.len() == self.agents.len() && self.commit_ready() {
                    self.phase = Phase::Done;
                    self.stats.completed_at = Some(now);
                    effects.push(CoordEffect::Complete { epoch: self.epoch });
                }
            }
            _ => {}
        }
        // Decide which agents may continue.
        for &a in &self.agents.clone() {
            if self.continue_sent.contains(&a) || !self.done.contains(&a) {
                continue;
            }
            let may_continue = match self.mode {
                // Fig. 2: everyone waits for the last save.
                ProtocolMode::Blocking => self.done.len() == self.agents.len(),
                // Fig. 4: communication must be disabled everywhere, then
                // each node goes as soon as its own save is in.
                ProtocolMode::Optimized => self.comm_disabled.len() == self.agents.len(),
            };
            if may_continue {
                self.continue_sent.insert(a);
                out.push((a, CtlMsg::Continue { epoch: self.epoch }));
            }
        }
        self.stats.msgs_sent += out.len() as u64;
        (out, effects)
    }

    fn commit_ready(&self) -> bool {
        self.kind != OpKind::Checkpoint || !self.cow || self.durable.len() == self.agents.len()
    }

    fn maybe_commit(&mut self, effects: &mut Vec<CoordEffect>) {
        if self.committed || self.kind != OpKind::Checkpoint {
            return;
        }
        let done_all = self.done.len() == self.agents.len();
        let durable_all = !self.cow || self.durable.len() == self.agents.len();
        if done_all && durable_all {
            self.committed = true;
            effects.push(CoordEffect::Commit { epoch: self.epoch });
        }
        // The op may have been waiting only on durables to complete.
        if self.committed
            && self.continue_done.len() == self.agents.len()
            && self.phase == Phase::Continuing
        {
            self.phase = Phase::Done;
            effects.push(CoordEffect::Complete { epoch: self.epoch });
        }
    }

    /// Retransmits messages whose expected responses are missing: `start`
    /// to agents that have not answered at all, `continue` to agents that
    /// have not acknowledged resuming. Safe against duplicate delivery —
    /// agents treat repeats idempotently. Call periodically when the
    /// transport may drop datagrams.
    pub fn on_retry(&mut self, _now: SimTime) -> Vec<(AgentId, CtlMsg)> {
        if matches!(self.phase, Phase::Idle | Phase::Done | Phase::Aborted) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &a in &self.agents {
            if self.continue_sent.contains(&a) {
                if !self.continue_done.contains(&a) {
                    out.push((a, CtlMsg::Continue { epoch: self.epoch }));
                }
            } else if !(self.done.contains(&a)
                || self.mode == ProtocolMode::Optimized && self.comm_disabled.contains(&a))
            {
                // Nothing heard from this agent yet: the start may be lost.
                out.push((
                    a,
                    CtlMsg::Start {
                        kind: self.kind,
                        epoch: self.epoch,
                        mode: self.mode,
                        cow: self.cow,
                    },
                ));
            }
        }
        self.stats.msgs_sent += out.len() as u64;
        out
    }

    /// Fires the failure-detection timeout: aborts the operation.
    pub fn on_timeout(&mut self, now: SimTime) -> (Vec<(AgentId, CtlMsg)>, Vec<CoordEffect>) {
        if matches!(self.phase, Phase::Done | Phase::Aborted) {
            return (Vec::new(), Vec::new());
        }
        let Some(deadline) = self.deadline else {
            return (Vec::new(), Vec::new());
        };
        if now < deadline {
            return (Vec::new(), Vec::new());
        }
        self.force_abort()
    }

    /// Aborts the operation unconditionally (no deadline check): the
    /// recovery manager calls this when it learns out-of-band that a
    /// participant is dead. Idempotent once the operation settled.
    pub fn force_abort(&mut self) -> (Vec<(AgentId, CtlMsg)>, Vec<CoordEffect>) {
        if matches!(self.phase, Phase::Done | Phase::Aborted) {
            return (Vec::new(), Vec::new());
        }
        self.phase = Phase::Aborted;
        let out: Vec<(AgentId, CtlMsg)> = self
            .agents
            .iter()
            .map(|&a| (a, CtlMsg::Abort { epoch: self.epoch }))
            .collect();
        self.stats.msgs_sent += out.len() as u64;
        (out, vec![CoordEffect::Aborted { epoch: self.epoch }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::ZERO;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn blocking_protocol_follows_fig2() {
        let mut c = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 1, vec![0, 1, 2]);
        let (msgs, fx) = c.start(T);
        assert_eq!(msgs.len(), 3);
        assert!(fx.is_empty());
        // Two dones: nobody continues yet.
        let (m, _) = c.on_message(0, CtlMsg::Done { epoch: 1 }, t(10));
        assert!(m.is_empty());
        let (m, _) = c.on_message(1, CtlMsg::Done { epoch: 1 }, t(20));
        assert!(m.is_empty());
        // Third done: commit + continue to everyone.
        let (m, fx) = c.on_message(2, CtlMsg::Done { epoch: 1 }, t(30));
        assert_eq!(m.len(), 3);
        assert!(m
            .iter()
            .all(|(_, msg)| matches!(msg, CtlMsg::Continue { epoch: 1 })));
        assert_eq!(fx, vec![CoordEffect::Commit { epoch: 1 }]);
        assert_eq!(
            c.stats.checkpoint_latency(),
            Some(SimDuration::from_micros(30))
        );
        // Continue-dones complete the op.
        for a in 0..3 {
            let (_, fx) = c.on_message(a, CtlMsg::ContinueDone { epoch: 1 }, t(40 + a as u64));
            if a == 2 {
                assert_eq!(fx, vec![CoordEffect::Complete { epoch: 1 }]);
            } else {
                assert!(fx.is_empty());
            }
        }
        assert!(c.is_complete());
        // O(N): 3 starts + 3 continues.
        assert_eq!(c.stats.msgs_sent, 6);
        assert_eq!(c.stats.msgs_received, 6);
    }

    #[test]
    fn optimized_protocol_releases_early_savers() {
        let mut c = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Optimized, 7, vec![0, 1]);
        let _ = c.start(T);
        // Node 0 disables comm and even finishes saving — but node 1's
        // communication is not yet known to be disabled: no continue.
        let _ = c.on_message(0, CtlMsg::CommDisabled { epoch: 7 }, t(1));
        let (m, _) = c.on_message(0, CtlMsg::Done { epoch: 7 }, t(5));
        assert!(m.is_empty(), "must wait for all comm-disabled");
        // Node 1 disables comm: node 0 may now continue even though node 1
        // has not saved (its state cannot change node 0's checkpoint).
        let (m, _) = c.on_message(1, CtlMsg::CommDisabled { epoch: 7 }, t(6));
        assert_eq!(m, vec![(0, CtlMsg::Continue { epoch: 7 })]);
        // Node 1 finishes: it continues too, and the commit fires.
        let (m, fx) = c.on_message(1, CtlMsg::Done { epoch: 7 }, t(9));
        assert_eq!(m, vec![(1, CtlMsg::Continue { epoch: 7 })]);
        assert_eq!(fx, vec![CoordEffect::Commit { epoch: 7 }]);
    }

    #[test]
    fn stale_and_duplicate_messages_ignored() {
        let mut c = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 2, vec![0]);
        let _ = c.start(T);
        // Wrong epoch.
        let (m, fx) = c.on_message(0, CtlMsg::Done { epoch: 99 }, t(1));
        assert!(m.is_empty() && fx.is_empty());
        // Duplicate done does not double-send continue.
        let (m1, _) = c.on_message(0, CtlMsg::Done { epoch: 2 }, t(2));
        assert_eq!(m1.len(), 1);
        let (m2, _) = c.on_message(0, CtlMsg::Done { epoch: 2 }, t(3));
        assert!(m2.is_empty());
    }

    #[test]
    fn restart_kind_skips_commit_effect() {
        let mut c = Coordinator::new(OpKind::Restart, ProtocolMode::Blocking, 3, vec![0]);
        let _ = c.start(T);
        let (m, fx) = c.on_message(0, CtlMsg::Done { epoch: 3 }, t(1));
        assert_eq!(m.len(), 1);
        assert!(fx.is_empty(), "restart has nothing to commit");
        let (_, fx) = c.on_message(0, CtlMsg::ContinueDone { epoch: 3 }, t(2));
        assert_eq!(fx, vec![CoordEffect::Complete { epoch: 3 }]);
    }

    #[test]
    fn timeout_aborts() {
        let mut c = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 4, vec![0, 1])
            .with_timeout(SimDuration::from_millis(100));
        let _ = c.start(T);
        let _ = c.on_message(0, CtlMsg::Done { epoch: 4 }, t(10));
        assert_eq!(c.deadline(), Some(t(100_000)));
        // Early poll: nothing.
        let (m, _) = c.on_timeout(t(50_000));
        assert!(m.is_empty());
        // Deadline passes: abort to everyone.
        let (m, fx) = c.on_timeout(t(100_000));
        assert_eq!(m.len(), 2);
        assert!(m
            .iter()
            .all(|(_, msg)| matches!(msg, CtlMsg::Abort { epoch: 4 })));
        assert_eq!(fx, vec![CoordEffect::Aborted { epoch: 4 }]);
        assert!(c.is_aborted());
        // Post-abort messages are ignored.
        let (m, fx) = c.on_message(1, CtlMsg::Done { epoch: 4 }, t(110_000));
        assert!(m.is_empty() && fx.is_empty());
        assert_eq!(c.deadline(), None);
    }

    #[test]
    fn force_abort_needs_no_deadline_and_is_idempotent() {
        // No timeout armed: on_timeout can never fire, force_abort still can.
        let mut c = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 6, vec![0, 1]);
        let _ = c.start(T);
        let (m, _) = c.on_timeout(t(1));
        assert!(m.is_empty(), "no deadline armed");
        let (m, fx) = c.force_abort();
        assert_eq!(m.len(), 2);
        assert!(m
            .iter()
            .all(|(_, msg)| matches!(msg, CtlMsg::Abort { epoch: 6 })));
        assert_eq!(fx, vec![CoordEffect::Aborted { epoch: 6 }]);
        assert!(c.is_aborted());
        // Second call is a no-op.
        let (m, fx) = c.force_abort();
        assert!(m.is_empty() && fx.is_empty());
    }

    #[test]
    fn cow_mode_delays_commit_until_durable() {
        let mut c =
            Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 8, vec![0, 1]).with_cow();
        let (msgs, _) = c.start(T);
        assert!(msgs
            .iter()
            .all(|(_, m)| matches!(m, CtlMsg::Start { cow: true, .. })));
        // Both captures done: continues flow, but NO commit yet.
        let (_, fx) = c.on_message(0, CtlMsg::Done { epoch: 8 }, t(1));
        assert!(fx.is_empty());
        let (m, fx) = c.on_message(1, CtlMsg::Done { epoch: 8 }, t(2));
        assert_eq!(m.len(), 2, "continues sent at capture time");
        assert!(fx.is_empty(), "commit must wait for durability");
        // Agents resume...
        let (_, fx) = c.on_message(0, CtlMsg::ContinueDone { epoch: 8 }, t(3));
        assert!(fx.is_empty());
        let (_, fx) = c.on_message(1, CtlMsg::ContinueDone { epoch: 8 }, t(4));
        assert!(fx.is_empty(), "completion also gated on durability");
        // ...and the background writes land.
        let (_, fx) = c.on_message(0, CtlMsg::Durable { epoch: 8 }, t(5));
        assert!(fx.is_empty());
        let (_, fx) = c.on_message(1, CtlMsg::Durable { epoch: 8 }, t(6));
        assert_eq!(
            fx,
            vec![
                CoordEffect::Commit { epoch: 8 },
                CoordEffect::Complete { epoch: 8 }
            ]
        );
        assert!(c.is_complete());
    }

    #[test]
    fn cow_durable_before_last_done_still_commits_once() {
        let mut c =
            Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 9, vec![0, 1]).with_cow();
        let _ = c.start(T);
        let _ = c.on_message(0, CtlMsg::Done { epoch: 9 }, t(1));
        let _ = c.on_message(0, CtlMsg::Durable { epoch: 9 }, t(2));
        let _ = c.on_message(1, CtlMsg::Durable { epoch: 9 }, t(3));
        // All durables in, but agent 1's done missing: no commit.
        let (_, fx) = c.on_message(1, CtlMsg::Done { epoch: 9 }, t(4));
        assert!(fx.contains(&CoordEffect::Commit { epoch: 9 }));
    }

    #[test]
    fn retry_resends_only_whats_missing() {
        let mut c = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 5, vec![0, 1, 2]);
        let _ = c.start(T);
        // Agent 0 finished everything it can; agent 1 saved; agent 2 silent.
        let _ = c.on_message(0, CtlMsg::Done { epoch: 5 }, t(1));
        let _ = c.on_message(1, CtlMsg::Done { epoch: 5 }, t(2));
        let retries = c.on_retry(t(1000));
        // Not all done ⇒ nobody was sent continue; agent 2 gets its start
        // again, agents 0/1 are heard from so nothing is resent to them.
        assert_eq!(retries.len(), 1);
        assert!(matches!(retries[0], (2, CtlMsg::Start { .. })));
        // Agent 2 saves: continues flow; drop agent 1's continue-done.
        let _ = c.on_message(2, CtlMsg::Done { epoch: 5 }, t(3));
        let _ = c.on_message(0, CtlMsg::ContinueDone { epoch: 5 }, t(4));
        let _ = c.on_message(2, CtlMsg::ContinueDone { epoch: 5 }, t(5));
        let retries = c.on_retry(t(2000));
        assert_eq!(retries, vec![(1, CtlMsg::Continue { epoch: 5 })]);
        // Completion stops all retries.
        let _ = c.on_message(1, CtlMsg::ContinueDone { epoch: 5 }, t(6));
        assert!(c.is_complete());
        assert!(c.on_retry(t(3000)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn rejects_empty_agent_set() {
        let _ = Coordinator::new(OpKind::Checkpoint, ProtocolMode::Blocking, 1, vec![]);
    }
}
