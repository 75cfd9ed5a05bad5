//! The timed section: a closed loop on the simulated clock.
//!
//! After set-up, the benchmark takes a base checkpoint, then repeats one cycle
//! until its wall budget is spent: run, checkpoint (`start_checkpoint_with`
//! → `run_until_op`), run, and roll back in place to the base epoch
//! (`start_restart` with an empty placement → `run_until_op`), then drop
//! the cycle's epoch. Each operation is issued only after the previous one
//! finished, at simulated gaps drawn from the seed. Every checkpoint writes
//! the store and every rollback reads it back.
//!
//! Rolling back to one fixed epoch makes every cycle start from the same
//! state. Rolling back to the newest epoch instead chains cycles together,
//! and the stream's TCP state drifts between rates along the chain, which
//! makes its wall time depend on where the chain happens to be.
//!
//! Checks: operations must commit or complete, every epoch must read back
//! with the digests its checkpoint wrote, the base epoch must keep its
//! pinned digest, and guest progress must rewind at each rollback and
//! advance after it.

use std::collections::BTreeMap;

use cluster::World;
use cruz::digest;
use cruz::proto::ProtocolMode;
use cruz::ChunkId;
use des::SimRng;

use crate::reference;
use crate::spans::Recorder;
use crate::workloads::Spec;

/// Event budget for one operation to finish.
const OP_MAX_EVENTS: u64 = 100_000_000;

/// Set-ups per run: at least the first, at most the second; no more are
/// started once [`SETUP_BUDGET_NS`] has passed.
const SETUP_REPS: (usize, usize) = (5, 21);
const SETUP_BUDGET_NS: u64 = 2_000_000_000;

/// Builds the workload's world (`World::new`, `launch_job`, warm-up)
/// [`SETUP_REPS`] times. Returns the last world and every set-up's wall
/// seconds.
pub fn setup(spec: &Spec, rec: &mut Recorder) -> Result<(World, Vec<f64>), String> {
    let t0 = rec.now_ns();
    let mut times = Vec::new();
    let mut world = None;
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && rec.now_ns() - t0 < SETUP_BUDGET_NS)
    {
        // Drop the previous world first so peak memory holds one world.
        drop(world.take());
        let o = rec.open("setup");
        let mut w = World::new(spec.nodes, spec.params.clone());
        w.launch_job(&spec.job)
            .map_err(|e| format!("launch {}: {e:?}", spec.name))?;
        w.run_for(spec.warmup);
        times.push(rec.close(o, 0) as f64 / 1e9);
        world = Some(w);
    }
    Ok((world.ok_or("no set-up ran")?, times))
}

/// Everything one stretch of cycles measured. A phase's *cost* is its wall
/// time over the reference time measured around it (see [`reference`]).
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall ns of each cycle's two runs, checkpoint and rollback.
    pub cycle_ns: Vec<f64>,
    /// The sum of the same four phases' costs, per cycle.
    pub cycle_cost: Vec<f64>,
    pub ckpt_ns: Vec<f64>,
    pub ckpt_cost: Vec<f64>,
    pub restart_ns: Vec<f64>,
    pub restart_cost: Vec<f64>,
    /// The reference time (mean of the passes on either side) of every
    /// timed phase, ns.
    pub ref_ns: Vec<f64>,
    pub exec_sim_ns: u64,
    pub exec_wall_ns: u64,
    /// The summed cost of the run phases.
    pub exec_cost: f64,
    pub exec_events: u64,
    pub tcp_bytes: u64,
    pub sim_ckpt_ns: Vec<f64>,
    pub sim_overhead_ns: Vec<f64>,
    pub sim_freeze_ns: Vec<f64>,
    pub sim_restart_ns: Vec<f64>,
    /// COW pre-image bytes copied, per checkpoint.
    pub cow_copied: Vec<f64>,
    /// Bytes that landed in the store per raw image byte, per checkpoint.
    pub stored_ratio: Vec<f64>,
}

/// One committed epoch's images: `(pod, bytes)` in pod order.
pub type Epoch = Vec<(String, Vec<u8>)>;

/// Drives one workload's world through the timed cycles.
pub struct Runner<'a> {
    spec: &'a Spec,
    w: World,
    rng: SimRng,
    gaps_drawn: u64,
    /// The epoch every rollback returns to.
    base: u64,
    /// Progress right after the last rollback, not yet seen to advance.
    rolled_back_at: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub base_digest: u64,
    pub problems: Vec<String>,
    /// Epochs read back through the store, kept for the layer replay
    /// until `keep_epochs` are held (the base epoch first).
    pub kept: Vec<Epoch>,
    pub keep_epochs: usize,
}

impl<'a> Runner<'a> {
    /// Runs the workload's first gap and takes the base checkpoint that
    /// every rollback returns to. The first gap is the same for every seed,
    /// so the base epoch's digest is pinned; a moved digest counts as a
    /// failed operation. Then runs one checked but untimed cycle, so
    /// caches and allocations are warm before timing starts.
    pub fn new(spec: &'a Spec, w: World, seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let mut r = Runner {
            spec,
            w,
            rng: SimRng::from_seed(seed),
            gaps_drawn: 0,
            base: 0,
            rolled_back_at: None,
            attempted: 0,
            failed: 0,
            base_digest: 0,
            problems: Vec::new(),
            kept: Vec::new(),
            keep_epochs: 0,
        };
        let mut scratch = Samples::default();
        r.exec(rec, &mut scratch, false);
        r.base = r
            .checkpoint(rec, &mut scratch)
            .ok_or_else(|| format!("{}: the base checkpoint did not commit", spec.name))?;
        let images = r.read_epoch(r.base)?;
        r.base_digest = epoch_digest(&images);
        if r.base_digest != spec.first_epoch_digest {
            r.fail(format!(
                "first-epoch digest {:#018x} moved from {:#018x}",
                r.base_digest, spec.first_epoch_digest
            ));
        }
        r.cycle(rec, &mut scratch);
        Ok(r)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 16 {
            self.problems.push(why);
        }
    }

    /// Runs cycles until `budget_ns` of wall time has passed since
    /// `rec.now_ns()` at entry (at least one cycle).
    pub fn cycles(&mut self, rec: &mut Recorder, budget_ns: u64) -> Samples {
        let mut s = Samples::default();
        let until = rec.now_ns() + budget_ns;
        loop {
            self.cycle(rec, &mut s);
            if rec.now_ns() >= until {
                return s;
            }
        }
    }

    /// One untimed run at the end, so the last rollback's progress check
    /// has a run after it too.
    pub fn settle(&mut self, rec: &mut Recorder) {
        let mut scratch = Samples::default();
        self.exec(rec, &mut scratch, false);
    }

    /// Runs one gap; returns its wall nanoseconds and its cost.
    fn exec(&mut self, rec: &mut Recorder, s: &mut Samples, before_rollback: bool) -> (u64, f64) {
        let gap = self
            .spec
            .gap(before_rollback, self.gaps_drawn == 0, self.rng.next_u64());
        self.gaps_drawn += 1;
        let p0 = self.spec.progress(&self.w);
        let ev0 = self.w.events_processed();
        let ((), ns, ref_ns) = reference::around(rec, |rec| {
            let o = rec.open("exec");
            self.w.run_for(gap);
            ((), rec.close(o, 0))
        });
        let cost = ns as f64 / ref_ns as f64;
        let p1 = self.spec.progress(&self.w);
        s.exec_wall_ns += ns;
        s.exec_cost += cost;
        s.ref_ns.push(ref_ns as f64);
        s.exec_sim_ns += gap.as_nanos();
        s.exec_events += self.w.events_processed() - ev0;
        if let (Some(a), Some(b)) = (p0, p1) {
            s.tcp_bytes += self.spec.tcp_bytes(b.saturating_sub(a));
        }
        if let Some(rb) = self.rolled_back_at.take() {
            if p1.is_none_or(|p| p <= rb) {
                self.fail(format!("progress stuck at {rb} after a rollback"));
            }
        }
        (ns, cost)
    }

    /// Takes a checkpoint (timed) and checks it committed, recording its
    /// simulated timings and the store bytes it landed. Returns the epoch.
    fn checkpoint(&mut self, rec: &mut Recorder, s: &mut Samples) -> Option<u64> {
        let job = self.spec.job.name.clone();
        let before = store_files(&self.w);
        let ((op, finished), ns, ref_ns) = reference::around(rec, |rec| {
            let o = rec.open("ckpt");
            let started = self.w.start_checkpoint_with(&job, self.spec.opts);
            let finished = started
                .as_ref()
                .is_ok_and(|&op| self.w.run_until_op(op, OP_MAX_EVENTS));
            let op = started.map_or(0, |op| op);
            ((op, finished), rec.close(o, op))
        });
        s.ckpt_ns.push(ns as f64);
        s.ckpt_cost.push(ns as f64 / ref_ns as f64);
        s.ref_ns.push(ref_ns as f64);
        self.attempted += 1;

        let check = rec.open("check");
        let report = self.w.op_report(op);
        let store = self.w.store(&job);
        let ok = finished
            && report.as_ref().is_some_and(|r| r.complete && !r.aborted)
            && store.is_committed(op);
        if !ok {
            self.fail(format!("checkpoint {op} did not commit"));
            rec.close(check, op);
            return None;
        }
        if let Some(r) = report {
            s.sim_ckpt_ns
                .extend(r.stats.checkpoint_latency().map(|d| d.as_nanos() as f64));
            s.sim_overhead_ns
                .extend(r.coordination_overhead().map(|d| d.as_nanos() as f64));
            s.sim_freeze_ns.extend(
                r.blocked_durations()
                    .iter()
                    .map(|&(_, d)| d.as_nanos() as f64),
            );
            s.cow_copied
                .push(r.cow_copied_bytes.iter().map(|&(_, b)| b).sum::<u64>() as f64);
        }
        let raw: u64 = store
            .pods_in_epoch(op)
            .iter()
            .filter_map(|pod| store.image_len(pod, op))
            .sum();
        let landed: u64 = store_files(&self.w)
            .iter()
            .map(|(path, &len)| len.saturating_sub(before.get(path).copied().unwrap_or(0)))
            .sum();
        if raw > 0 {
            s.stored_ratio.push(landed as f64 / raw as f64);
        }
        rec.close(check, op);
        Some(op)
    }

    /// Reads every pod image of `epoch` back through the store; each must
    /// match the digest sidecar its checkpoint wrote.
    fn read_epoch(&self, epoch: u64) -> Result<Epoch, String> {
        let store = self.w.store(&self.spec.job.name);
        let pods = store.pods_in_epoch(epoch);
        if pods.is_empty() {
            return Err(format!("epoch {epoch} holds no images"));
        }
        pods.into_iter()
            .map(|pod| {
                let pinned = store.replica(0).read_digest(&pod, epoch);
                match store.get_image(&pod, epoch) {
                    Some(bytes) if Some(ChunkId::of(&bytes)) == pinned => Ok((pod, bytes)),
                    _ => Err(format!("epoch {epoch} pod {pod} read back wrong")),
                }
            })
            .collect()
    }

    fn keep(&mut self, epoch: u64) {
        if self.kept.len() >= self.keep_epochs {
            return;
        }
        if self.kept.is_empty() {
            if let Ok(base) = self.read_epoch(self.base) {
                self.kept.push(base);
            }
        }
        if self.kept.len() < self.keep_epochs {
            if let Ok(images) = self.read_epoch(epoch) {
                self.kept.push(images);
            }
        }
    }

    /// Run, checkpoint, run, roll back to the base epoch; then check the
    /// rollback, drop the cycle's own epoch and compact the store's logs,
    /// so every cycle starts from the same state and the same store.
    fn cycle(&mut self, rec: &mut Recorder, s: &mut Samples) {
        let job = self.spec.job.name.clone();
        let cycle = rec.open("cycle");
        let exec_a = self.exec(rec, s, false);
        let Some(epoch) = self.checkpoint(rec, s) else {
            rec.close(cycle, 0);
            return;
        };
        let ckpt = (
            s.ckpt_ns.last().copied().unwrap_or(0.0) as u64,
            s.ckpt_cost.last().copied().unwrap_or(0.0),
        );
        let check = rec.open("check");
        if let Err(e) = self.read_epoch(epoch) {
            self.fail(e);
        }
        self.keep(epoch);
        rec.close(check, epoch);

        let exec_b = self.exec(rec, s, true);
        let before = self.spec.progress(&self.w);
        let base = self.base;
        let ((rop, finished), restart, ref_ns) = reference::around(rec, |rec| {
            let o = rec.open("restart");
            let started = self
                .w
                .start_restart(&job, base, &[], ProtocolMode::Blocking);
            let finished = started
                .as_ref()
                .is_ok_and(|&rop| self.w.run_until_op(rop, OP_MAX_EVENTS));
            let rop = started.map_or(0, |rop| rop);
            ((rop, finished), rec.close(o, rop))
        });
        let restart_cost = restart as f64 / ref_ns as f64;
        s.restart_ns.push(restart as f64);
        s.restart_cost.push(restart_cost);
        s.ref_ns.push(ref_ns as f64);
        self.attempted += 1;

        let check = rec.open("check");
        self.check_rollback(rop, finished, before, s);
        let store = self.w.store(&job);
        store.discard_epoch(epoch);
        // A replicated store's logs keep every put's blobs until compacted;
        // left to grow, memory would track how many cycles the host fits in
        // the budget. A no-op at k = 1.
        store.compact_logs();
        rec.close(check, rop);
        s.cycle_ns
            .push((exec_a.0 + ckpt.0 + exec_b.0 + restart) as f64);
        s.cycle_cost
            .push(exec_a.1 + ckpt.1 + exec_b.1 + restart_cost);
        rec.close(cycle, epoch);
    }

    /// Checks a rollback finished, the base epoch still reads back with its
    /// pinned digest, and progress rewound; arms the check that it
    /// advances again.
    fn check_rollback(&mut self, rop: u64, finished: bool, before: Option<u64>, s: &mut Samples) {
        let report = self.w.op_report(rop);
        if !(finished && report.as_ref().is_some_and(|r| r.complete && !r.aborted)) {
            self.fail(format!("rollback {rop} did not complete"));
            return;
        }
        if let Some(lat) = report.and_then(|r| r.stats.checkpoint_latency()) {
            s.sim_restart_ns.push(lat.as_nanos() as f64);
        }
        match self.read_epoch(self.base) {
            Ok(images) if epoch_digest(&images) == self.base_digest => {}
            Ok(_) => self.fail(format!("base epoch {} digest moved", self.base)),
            Err(e) => self.fail(e),
        }
        match (self.spec.progress(&self.w), before) {
            (Some(now), Some(b)) if now <= b => self.rolled_back_at = Some(now),
            _ => self.fail(format!("rollback {rop} did not rewind progress")),
        }
    }
}

/// FNV digest over an epoch's pod names and images, in pod order.
fn epoch_digest(images: &Epoch) -> u64 {
    images.iter().fold(digest::OFFSET, |h, (pod, bytes)| {
        digest::fold(digest::fold(h, pod.as_bytes()), bytes)
    })
}

/// Every store file (all replica trees and operation logs) and its size.
fn store_files(w: &World) -> BTreeMap<String, u64> {
    ["/ckpt", "/rep"]
        .iter()
        .flat_map(|prefix| w.fs.list(prefix))
        .filter_map(|path| {
            let len = w.fs.len_of(&path)?;
            Some((path, len))
        })
        .collect()
}
