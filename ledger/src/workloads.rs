//! The four workloads: what each runs, on which configuration, and how its
//! guest progress is read back.
//!
//! Each one loads some layers heavily and leaves others almost idle (the
//! table in `ledger/README.md` gives the reasons):
//!
//! * `slm-stw` — the Fig. 5 ring, stop-the-world capture, plain k=1 store;
//! * `slm-dedup-cow` — the same ring on the dedup+compress store at k=3,
//!   COW capture and the optimized protocol;
//! * `stream` — the Fig. 6 maximum-rate TCP pair;
//! * `compute` — two interpreter-bound pods.

use cluster::world::CkptOptions;
use cluster::{CkptCaptureMode, ClusterParams, JobSpec, PodSpec, StoreConfig, World};
use cruz::proto::ProtocolMode;
use des::SimDuration;
use simnet::addr::{IpAddr, MacAddr};
use simos::program::Program;
use workloads::compute::ComputeConfig;
use workloads::slm::ITER_COUNTER_ADDR;
use workloads::streaming::RECV_COUNTER_ADDR;
use zap::image::MacMode;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["slm-stw", "slm-dedup-cow", "stream", "compute"];

/// Ranks of both slm workloads (the Fig. 5 4-node point).
const SLM_RANKS: usize = 4;

/// How a workload's guests report progress.
#[derive(Debug, Clone, Copy)]
pub enum Progress {
    /// Sum of every rank's timestep counter; each timestep moves
    /// `halo_bytes` over TCP per rank.
    SlmIters { halo_bytes: u64 },
    /// The receiver's cumulative byte counter.
    StreamBytes,
    /// Sum of every pod's outer-loop register (`r7`); no TCP traffic.
    ComputeLoops,
}

/// A workload, fully configured for one seed.
pub struct Spec {
    pub name: &'static str,
    pub job: JobSpec,
    pub nodes: usize,
    pub params: ClusterParams,
    pub opts: CkptOptions,
    /// Simulated time run after launch, before anything is timed.
    pub warmup: SimDuration,
    /// Base simulated run before each checkpoint and before each rollback
    /// (see [`Spec::gap`]).
    pub gaps: [SimDuration; 2],
    pub progress: Progress,
    /// FNV digest of the first committed epoch's images, pinned: the first
    /// checkpoint lands at the same simulated instant for every seed.
    pub first_epoch_digest: u64,
    /// Ranges the simulated-time metrics must fall in: the bands
    /// `EXPERIMENTS.md` records for the paper's figures. Deterministic, so
    /// a value outside its band is a failed check, not noise.
    pub bands: &'static [(&'static str, f64, f64)],
}

impl Spec {
    /// The workload named `name`, with its cluster seeded by `seed` and
    /// the store's worker count pinned at no more than `host_cpus`.
    pub fn new(name: &str, seed: u64, host_cpus: usize) -> Option<Spec> {
        let mut spec = match name {
            "slm-stw" => Spec {
                // Fig. 5(a) ≈1 s at 4 nodes (E5: 1.017 s checkpoint, 1.012 s
                // restart); Fig. 5(b) 350–550 µs of coordination.
                bands: &[
                    ("sim_ckpt_latency_ms", 1000.0, 1035.0),
                    ("sim_coord_overhead_us", 350.0, 550.0),
                    ("sim_restart_latency_ms", 995.0, 1030.0),
                ],
                // Its runs are the ring's only cheap phase; at 100 ms they
                // last ~5 ms of wall time right after a 32 MiB restore or
                // read-back, and their speed swings with the caches and the
                // host. 2 s runs (~130 ms of wall time each) amortise that;
                // the plain store writes whole images, so more dirty pages
                // cost nothing extra.
                first_epoch_digest: 0xa2d6_cac7_f184_e339,
                ..slm(
                    "slm-stw",
                    bench::fig5::fig5_params(),
                    CkptOptions::default(),
                    1,
                    SimDuration::from_secs(2),
                )
            },
            "slm-dedup-cow" => slm(
                "slm-dedup-cow",
                ClusterParams {
                    store: StoreConfig {
                        replicas: 3,
                        ..StoreConfig::dedup_compress()
                    },
                    ..bench::cow::cow_params()
                },
                CkptOptions {
                    mode: ProtocolMode::Optimized,
                    capture: Some(CkptCaptureMode::Cow),
                    ..CkptOptions::default()
                },
                2.min(host_cpus),
                // 20 timesteps dirty 320 of each rank's 2048 pages, so
                // epochs stay mostly clean for dedup.
                SimDuration::from_millis(100),
            ),
            "stream" => stream(),
            "compute" => compute(),
            _ => return None,
        };
        spec.params.seed = seed;
        // Every rollback returns to the base epoch, which pruning would
        // delete; the runner drops each cycle's epoch itself.
        spec.params.prune_old_epochs = false;
        Some(spec)
    }

    /// The simulated run before the next checkpoint (`before_rollback`
    /// false) or rollback: its base gap plus up to 1/64 of it drawn
    /// from the seed. The run's first gap (`first`) is exactly the base, so
    /// the first checkpoint (and its pinned digest) is the same for every
    /// seed while later ones land at seed-dependent phases.
    pub fn gap(&self, before_rollback: bool, first: bool, draw: u64) -> SimDuration {
        let base = self.gaps[usize::from(before_rollback)].as_nanos();
        let jitter = if first { 0 } else { draw % (base / 64) };
        SimDuration::from_nanos(base + jitter)
    }

    /// The first pod's program (what the interpreter replay runs).
    pub fn first_program(&self) -> &Program {
        &self.job.pods[0].programs[0]
    }

    /// The guests' progress counter (see [`Progress`]); `None` when a pod
    /// cannot be read.
    pub fn progress(&self, w: &World) -> Option<u64> {
        let job = self.job.name.as_str();
        let pods = self.job.pods.iter().map(|p| p.name.as_str());
        match self.progress {
            Progress::SlmIters { .. } => pods
                .map(|pod| read_u64(w, job, pod, ITER_COUNTER_ADDR))
                .sum(),
            Progress::StreamBytes => read_u64(w, job, "receiver", RECV_COUNTER_ADDR),
            Progress::ComputeLoops => pods
                .map(|pod| {
                    let p = w.job(job)?.placement(pod)?;
                    let pid = w.zap(p.node).real_pid(p.pod_id?, 1)?;
                    Some(w.kernel(p.node).process(pid)?.cpu.reg(simcpu::isa::R7))
                })
                .sum(),
        }
    }

    /// TCP payload bytes moved by `progress_delta` units of progress.
    pub fn tcp_bytes(&self, progress_delta: u64) -> u64 {
        match self.progress {
            Progress::SlmIters { halo_bytes } => progress_delta * halo_bytes,
            Progress::StreamBytes => progress_delta,
            Progress::ComputeLoops => 0,
        }
    }
}

fn read_u64(w: &World, job: &str, pod: &str, addr: u64) -> Option<u64> {
    let b = w.peek_guest(job, pod, 1, addr, 8)?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

fn slm(
    name: &'static str,
    mut params: ClusterParams,
    opts: CkptOptions,
    threads: usize,
    gap: SimDuration,
) -> Spec {
    let cfg = bench::fig5::fig5_slm(SLM_RANKS);
    params.store.threads = threads;
    Spec {
        name,
        job: cfg.job_spec("slm", SLM_RANKS),
        nodes: SLM_RANKS + 1,
        params,
        opts,
        warmup: SimDuration::from_millis(100),
        gaps: [gap; 2],
        progress: Progress::SlmIters {
            halo_bytes: cfg.halo_bytes,
        },
        // The ring's state after the 100 ms warm-up and a 100 ms gap.
        first_epoch_digest: 0x5183_8599_105e_0795,
        bands: &[],
    }
}

fn stream() -> Spec {
    let (job, _) = bench::fig6::streaming_job(2 * 1024 * 1024);
    let mut params = ClusterParams::default();
    params.store.threads = 1;
    Spec {
        name: "stream",
        job,
        nodes: 3,
        params,
        opts: CkptOptions::default(),
        warmup: SimDuration::from_millis(300),
        // After an in-place rollback the restored sender sits out its
        // retransmission backoff (~0.9 s simulated) before the stream
        // resumes, so the run before each checkpoint outlasts it; after a
        // checkpoint it resumes within the 200 ms minimum RTO.
        gaps: [
            SimDuration::from_millis(1200),
            SimDuration::from_millis(300),
        ],
        progress: Progress::StreamBytes,
        first_epoch_digest: 0x5ed6_acdb_45a7_bd7d,
        bands: &[],
    }
}

fn compute() -> Spec {
    // Runs for the whole benchmark: rollbacks rewind it every cycle.
    let cfg = ComputeConfig {
        outer: 1 << 40,
        inner: 10_000,
    };
    let pod = |name: &str, octet: u8, node: usize| PodSpec {
        name: name.into(),
        ip: IpAddr::from_octets([10, 0, 1, octet]),
        mac_mode: MacMode::Dedicated(MacAddr::from_index(2000 + u32::from(octet))),
        node,
        programs: vec![cfg.program()],
    };
    let mut params = ClusterParams::default();
    params.store.threads = 1;
    Spec {
        name: "compute",
        job: JobSpec {
            name: "compute".into(),
            coordinator_node: 2,
            pods: vec![pod("a", 10, 0), pod("b", 11, 1)],
        },
        nodes: 3,
        params,
        opts: CkptOptions::default(),
        warmup: SimDuration::from_millis(2),
        // Short runs (~80 ms of wall time each) give a run many checkpoints
        // and rollbacks to take medians over.
        gaps: [SimDuration::from_micros(500); 2],
        progress: Progress::ComputeLoops,
        first_epoch_digest: 0xff6f_7638_5615_56c8,
        bands: &[],
    }
}
