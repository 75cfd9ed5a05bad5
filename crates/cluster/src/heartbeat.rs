//! Failure detection and self-healing recovery: heartbeat rounds, dead
//! declarations, fencing, rollback, spare selection and coordinator
//! failover.
//!
//! All wire traffic here — pings from the coordinator node's endpoint,
//! pongs it drains with every other reply (`World::pump_coord`), abort
//! broadcasts after a failover — moves through the [`crate::transport`]
//! like every other control frame, so detection latency includes real
//! (simulated) network and control-CPU delays.

use std::collections::BTreeMap;

use des::SimTime;

use cruz::error::CruzError;
use cruz::proto::{CtlMsg, ProtocolMode};

use crate::events::Event;
use crate::node::CtlAddr;
use crate::recovery::{RecoveryCause, RecoveryOutcome, RecoveryReport};
use crate::state::{ClusterError, World};

/// Per-job heartbeat bookkeeping (ping sequence, last pong time per
/// node).
pub(crate) struct HeartbeatState {
    seq: u64,
    last_pong: BTreeMap<usize, SimTime>,
}

impl World {
    /// Puts a job under the self-healing recovery manager: the coordinator
    /// node pings every app node each heartbeat interval; nodes that miss
    /// the deadline are declared dead, in-flight operations are aborted,
    /// uncommitted epochs discarded, and the job restarts from its last
    /// committed epoch on spare nodes. Jobs launched while
    /// `params.recovery.enabled` is set are enrolled automatically.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`].
    pub fn enable_recovery(&mut self, job: &str) -> Result<(), ClusterError> {
        if !self.jobs.contains_key(job) {
            return Err(ClusterError::NoSuchJob);
        }
        if self.hb.contains_key(job) {
            return Ok(());
        }
        self.hb.insert(
            job.to_owned(),
            HeartbeatState {
                seq: 0,
                last_pong: BTreeMap::new(),
            },
        );
        self.arm(
            self.now + self.params.recovery.heartbeat_interval,
            Event::Heartbeat {
                job: job.to_owned(),
            },
        );
        Ok(())
    }

    /// One heartbeat round: ping every app node from the coordinator, arm
    /// the round's timeout, reschedule. The driver retires itself when the
    /// job finishes or recovery gives the job up.
    pub(crate) fn on_heartbeat(&mut self, job: &str) {
        if !self.hb.contains_key(job) {
            return;
        }
        if !self.jobs.contains_key(job) || self.job_finished(job) {
            self.hb.remove(job);
            return;
        }
        // The heartbeat driver doubles as the watchdog for the control
        // plane itself: a dead coordinator node is re-homed first.
        let coord_node = match self.jobs.get(job) {
            Some(jr) => jr.coordinator_node,
            None => return,
        };
        if !self.nodes[coord_node].alive {
            self.coordinator_failover(job);
            if !self.hb.contains_key(job) {
                return; // failover gave up (no alive node to re-home to)
            }
        }
        let (seq, coord_node) = {
            let Some(jr) = self.jobs.get(job) else { return };
            let Some(hb) = self.hb.get_mut(job) else {
                return;
            };
            hb.seq += 1;
            (hb.seq, jr.coordinator_node)
        };
        let pinged = self
            .jobs
            .get(job)
            .map(|jr| jr.app_nodes())
            .unwrap_or_default();
        let now = self.now;
        let ping = CtlMsg::Ping { seq };
        let mut ctl = self.ctl();
        for &n in &pinged {
            ctl.send(CtlAddr::coord(coord_node), CtlAddr::agent(n), &ping, now);
        }
        self.postprocess(coord_node);
        self.arm(
            self.now + self.params.recovery.heartbeat_timeout,
            Event::HeartbeatTimeout {
                job: job.to_owned(),
                sent_at: self.now,
                pinged,
            },
        );
        self.arm(
            self.now + self.params.recovery.heartbeat_interval,
            Event::Heartbeat {
                job: job.to_owned(),
            },
        );
    }

    /// The deadline of one heartbeat round: pinged nodes that have not
    /// ponged since the round was sent — and still host this job's pods —
    /// are declared dead and handed to the recovery manager.
    pub(crate) fn on_heartbeat_timeout(&mut self, job: &str, sent_at: SimTime, pinged: Vec<usize>) {
        let Some(hb) = self.hb.get(job) else {
            return;
        };
        if !self.jobs.contains_key(job) || self.job_finished(job) {
            return;
        }
        let dead: Vec<usize> = pinged
            .into_iter()
            .filter(|&n| {
                let answered = hb.last_pong.get(&n).map(|&t| t >= sent_at).unwrap_or(false);
                let hosting = self
                    .jobs
                    .get(job)
                    .map(|jr| jr.placements.iter().any(|p| p.node == n))
                    .unwrap_or(false);
                !answered && hosting
            })
            .collect();
        if dead.is_empty() {
            return;
        }
        self.recover_job(job, &dead, sent_at);
    }

    /// The recovery pass: abort in-flight operations, fence the declared
    /// dead (a lost pong must not leave two copies of a pod running), roll
    /// the store back to its last committed epoch, pick spares, restart.
    fn recover_job(&mut self, job: &str, dead: &[usize], sent_at: SimTime) {
        let detected_at = self.now;
        let crashed_at = self
            .crash_log
            .iter()
            .filter(|(n, _)| dead.contains(n))
            .map(|&(_, t)| t)
            .min();
        let mut base_report = RecoveryReport {
            job: job.to_owned(),
            cause: RecoveryCause::HeartbeatTimeout,
            dead_nodes: dead.to_vec(),
            crashed_at,
            ping_sent_at: sent_at,
            detected_at,
            aborted_ops: Vec::new(),
            rollback_epoch: None,
            restart_op: None,
            scrubbed_replicas: Vec::new(),
            recovered_at: None,
            outcome: RecoveryOutcome::InProgress,
        };
        let spent = self.recoveries.entry(job.to_owned()).or_insert(0);
        if *spent >= self.params.recovery.max_recoveries {
            self.hb.remove(job);
            self.recovery_reports.push(RecoveryReport {
                outcome: RecoveryOutcome::Unrecoverable,
                ..base_report
            });
            return;
        }
        *spent += 1;
        // Abort everything in flight for the job: a dead participant can
        // never answer, and the restart needs the job quiescent.
        let inflight: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, o)| o.job == job && !o.complete && !o.aborted)
            .map(|(&id, _)| id)
            .collect();
        for &op in &inflight {
            self.fail_op(op, CruzError::Protocol("participant declared dead"));
        }
        // Fence: destroy this job's pods on declared-dead nodes that are in
        // fact alive (lost pongs) — the STONITH analogue — and unbind every
        // placement on a dead node so the restart re-homes it.
        let fenced: Vec<(usize, zap::pod::PodId)> = self
            .jobs
            .get(job)
            .map(|jr| {
                jr.placements
                    .iter()
                    .filter(|p| dead.contains(&p.node))
                    .filter_map(|p| {
                        let pid = p.pod_id?;
                        self.nodes[p.node].alive.then_some((p.node, pid))
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (n, pid) in fenced {
            let slot = &mut self.nodes[n];
            // Fencing a node already declared dead: if the destroy fails
            // the pod is gone anyway, which is the outcome fencing wants.
            // cruz-lint: allow(swallowed-error)
            let _ = slot.zap.destroy_pod(&mut slot.kernel, pid);
            self.postprocess(n);
        }
        if let Some(jr) = self.jobs.get_mut(job) {
            for p in jr.placements.iter_mut() {
                if dead.contains(&p.node) {
                    p.pod_id = None;
                }
            }
        }
        // Roll the store back: half-written epochs can never commit now,
        // and chunks stranded by torn writes or mid-drain crashes are
        // reclaimed before the restart reads the store.
        let store = self.store(job);
        // With a replicated store, scrub first: replicas that crashed or
        // tore mid-append are rebuilt from the reference log and rejoin
        // the set, so the discard/GC ops below (and the restart's reads)
        // see k healthy, byte-identical copies.
        if store.replica_count() > 1 {
            base_report.scrubbed_replicas = store.scrub_and_repair().repaired;
        }
        for e in store.uncommitted_epochs() {
            store.discard_epoch(e);
        }
        store.gc_orphan_chunks();
        // The heal left every replica log carrying the fault's full
        // history — the discarded epoch's blobs included. Compact to the
        // minimal self-contained form so write amplification tracks the
        // retained state (≈2k) instead of accreting per incident (a no-op
        // at k = 1, which keeps no log).
        store.compact_logs();
        let Some(rollback) = store.latest_committed_epoch() else {
            self.hb.remove(job);
            self.recovery_reports.push(RecoveryReport {
                aborted_ops: inflight,
                outcome: RecoveryOutcome::Unrecoverable,
                ..base_report
            });
            return;
        };
        let Some(placement) = self.pick_spares(job, dead) else {
            self.hb.remove(job);
            self.recovery_reports.push(RecoveryReport {
                aborted_ops: inflight,
                rollback_epoch: Some(rollback),
                outcome: RecoveryOutcome::Unrecoverable,
                ..base_report
            });
            return;
        };
        match self.start_restart(job, rollback, &placement, ProtocolMode::Blocking) {
            Ok(restart_op) => {
                let idx = self.recovery_reports.len();
                self.recovery_reports.push(RecoveryReport {
                    aborted_ops: inflight,
                    rollback_epoch: Some(rollback),
                    restart_op: Some(restart_op),
                    ..base_report
                });
                self.pending_recovery.insert(restart_op, idx);
            }
            Err(_) => {
                // e.g. a survivor that refused teardown; the next
                // heartbeat round retries with a fresh pass.
                self.recovery_reports.push(RecoveryReport {
                    aborted_ops: inflight,
                    rollback_epoch: Some(rollback),
                    outcome: RecoveryOutcome::Failed,
                    ..base_report
                });
            }
        }
    }

    /// Picks replacement nodes for pods displaced off `dead` nodes: the
    /// lowest-index alive node not already hosting the job's pods and not
    /// its coordinator, one spare per displaced pod where possible (the
    /// last spare takes the overflow). Returns `None` when no eligible
    /// spare exists (every alive non-coordinator node already hosts the
    /// job).
    fn pick_spares(&self, job: &str, dead: &[usize]) -> Option<Vec<(String, usize)>> {
        let jr = self.jobs.get(job)?;
        let coord = jr.coordinator_node;
        let occupied: Vec<usize> = jr
            .placements
            .iter()
            .filter(|p| !dead.contains(&p.node))
            .map(|p| p.node)
            .collect();
        let eligible: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| {
                self.nodes[n].alive && n != coord && !dead.contains(&n) && !occupied.contains(&n)
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let displaced: Vec<String> = jr
            .placements
            .iter()
            .filter(|p| dead.contains(&p.node))
            .map(|p| p.name.clone())
            .collect();
        let out = displaced
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, eligible[i.min(eligible.len() - 1)]))
            .collect();
        Some(out)
    }

    /// Re-homes a job's control plane after its coordinator node died: the
    /// lowest-index alive node coordinates its heartbeat, and every operation
    /// orphaned by the dead coordinator is aborted from the new home so
    /// frozen pods resume. The agents accept the abort because it carries
    /// the orphaned op's epoch; a stale one arriving after a later restart
    /// is ignored by their epoch guard.
    fn coordinator_failover(&mut self, job: &str) {
        let Some(old) = self.jobs.get(job).map(|jr| jr.coordinator_node) else {
            return;
        };
        let Some(new) = (0..self.nodes.len()).find(|&n| self.nodes[n].alive) else {
            self.hb.remove(job);
            return;
        };
        if let Some(jr) = self.jobs.get_mut(job) {
            jr.coordinator_node = new;
        }
        if let Some(hb) = self.hb.get_mut(job) {
            hb.last_pong.clear();
        }
        let orphans: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, o)| o.job == job && o.coord_node == old && !o.complete && !o.aborted)
            .map(|(&id, _)| id)
            .collect();
        for &op in &orphans {
            let agents = self
                .ops
                .get(&op)
                .map(|o| o.agents_nodes.clone())
                .unwrap_or_default();
            let now = self.now;
            {
                let abort = CtlMsg::Abort { epoch: op };
                let mut ctl = self.ctl();
                for n in agents {
                    ctl.send(CtlAddr::coord(new), CtlAddr::agent(n), &abort, now);
                }
            }
            if let Some(o) = self.ops.get_mut(&op) {
                o.aborted = true;
                if o.error.is_none() {
                    o.error = Some(CruzError::Protocol("coordinator failed over"));
                }
            }
            self.op_aborted_cleanup(op);
        }
        self.postprocess(new);
        let crashed_at = self
            .crash_log
            .iter()
            .filter(|&&(n, _)| n == old)
            .map(|&(_, t)| t)
            .min();
        self.recovery_reports.push(RecoveryReport {
            job: job.to_owned(),
            cause: RecoveryCause::CoordinatorFailover,
            dead_nodes: vec![old],
            crashed_at,
            ping_sent_at: self.now,
            detected_at: self.now,
            aborted_ops: orphans,
            rollback_epoch: None,
            restart_op: None,
            scrubbed_replicas: Vec::new(),
            recovered_at: Some(self.now),
            outcome: RecoveryOutcome::Recovered,
        });
    }

    /// A pong from node `from` reached node `n`'s coordinator endpoint: it
    /// is `from`'s liveness for every job whose heartbeat `n` coordinates.
    pub(crate) fn record_pong(&mut self, n: usize, from: usize) {
        for (job, hb) in self.hb.iter_mut() {
            if self
                .jobs
                .get(job)
                .is_some_and(|jr| jr.coordinator_node == n)
            {
                hb.last_pong.insert(from, self.now);
            }
        }
    }
}
