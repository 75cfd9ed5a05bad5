//! Cluster-wide simulation parameters.
//!
//! The defaults are calibrated to the paper's testbed (§6): dual 1 GHz
//! Pentium III nodes, gigabit Ethernet, 2005-era disks. `EXPERIMENTS.md`
//! documents how each figure depends on these values.

use cruz::store::StoreConfig;
use des::SimDuration;
use simnet::link::LinkParams;
use simnet::tcp::TcpConfig;
use simos::disk::DiskParams;
use simos::kernel::KernelParams;

/// How checkpoint images are captured from frozen pods (§6's copy-on-write
/// future optimization vs. the paper's measured stop-the-world behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptCaptureMode {
    /// Pods stay frozen until the full image is extracted — downtime scales
    /// with image size. This is what the paper's testbed measured.
    #[default]
    StopTheWorld,
    /// Pods resume as soon as the memory snapshot is armed (copy-on-write);
    /// pages drain to the store in the background, so downtime scales with
    /// the arm cost plus non-memory state, at the price of bounded extra
    /// page copies proportional to the post-resume write rate.
    Cow,
}

/// Capped exponential backoff for control-plane retransmissions.
///
/// Attempt `n` (0-based) fires `min(base * 2^n, cap)` after the previous
/// one, up to `max_attempts` total retries. Retries stop immediately once
/// the operation completes or aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on the per-attempt delay.
    pub cap: SimDuration,
    /// Maximum number of retries (0 disables retrying entirely).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy that fires every `interval` without backoff growth — the
    /// behavior of the old fixed-delay retry, bounded at `max_attempts`.
    pub fn fixed(interval: SimDuration, max_attempts: u32) -> Self {
        RetryPolicy {
            base: interval,
            cap: interval,
            max_attempts,
        }
    }

    /// Delay before retry `attempt` (0-based), or `None` once exhausted.
    pub fn delay(&self, attempt: u32) -> Option<SimDuration> {
        if attempt >= self.max_attempts {
            return None;
        }
        let shifted = self
            .base
            .as_nanos()
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        Some(SimDuration::from_nanos(shifted.min(self.cap.as_nanos())))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(50),
            cap: SimDuration::from_millis(800),
            max_attempts: 8,
        }
    }
}

/// How the recovery manager picks replacement nodes for dead ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparePolicy {
    /// Lowest-index alive node not already hosting the job's pods and not
    /// its coordinator — one spare per displaced pod where possible.
    #[default]
    FirstFree,
    /// Pack every displaced pod onto the first eligible spare (minimizes
    /// the number of nodes drafted, at the price of colocation).
    Pack,
}

/// Parameters of the self-healing recovery manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryParams {
    /// Master switch: when false (default) no heartbeats are sent and no
    /// automatic recovery runs, preserving seeded traces of earlier PRs.
    pub enabled: bool,
    /// Interval between coordinator heartbeat rounds.
    pub heartbeat_interval: SimDuration,
    /// A pinged node that has not answered within this window is declared
    /// dead. Must comfortably exceed the control-plane round-trip.
    pub heartbeat_timeout: SimDuration,
    /// Failure-detection timeout armed on every operation that does not
    /// set its own: a crashed or wedged participant aborts the op instead
    /// of hanging it forever.
    pub op_timeout: SimDuration,
    /// Maximum automatic recoveries per job before giving up.
    pub max_recoveries: u32,
    /// Replacement-node selection policy.
    pub spare_policy: SparePolicy,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            enabled: false,
            heartbeat_interval: SimDuration::from_millis(20),
            heartbeat_timeout: SimDuration::from_millis(10),
            op_timeout: SimDuration::from_secs(30),
            max_recoveries: 4,
            spare_policy: SparePolicy::default(),
        }
    }
}

/// Tunable parameters of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Per-link bandwidth/latency (node NIC to switch port).
    pub link: LinkParams,
    /// Kernel timing (instruction cost, syscall overhead, quantum).
    pub kernel: KernelParams,
    /// Checkpoint-disk model.
    pub disk: DiskParams,
    /// TCP configuration for every stack.
    pub tcp: TcpConfig,
    /// Subnet prefix length (nodes and pods share one routing domain).
    pub subnet_prefix: u8,
    /// CPU cost of sending or processing one control-plane message. The
    /// coordinator serializes sends, which is what produces the per-node
    /// slope of Fig. 5(b).
    pub ctl_msg_cpu: SimDuration,
    /// Agent-side cost of acting on a `start`/`continue` message: netfilter
    /// rule configuration and pod signalling (kernel round trips on a
    /// 2005-era node). Sits on the coordination critical path but outside
    /// the measured local-save window, as in the paper.
    pub agent_op_cpu: SimDuration,
    /// Memory bandwidth for serializing checkpoint state (bytes/second).
    pub extract_bps: u64,
    /// Independent per-frame loss probability (fault injection; 0 for the
    /// paper's experiments).
    pub frame_loss: f64, // tuning knob, not image state; cruz-lint: allow(float-in-sim)
    /// Master RNG seed.
    pub seed: u64,
    /// Discard older committed epochs whenever a newer one commits (bounds
    /// checkpoint-store growth during long sweeps).
    pub prune_old_epochs: bool,
    /// Control-plane retransmission policy for lossy fabrics. `None`
    /// (default) disables retries: on a lossless LAN the four-message
    /// exchange needs none, keeping the O(N) message count exact.
    pub ctl_retry: Option<RetryPolicy>,
    /// Self-healing recovery manager (heartbeat failure detection and
    /// automatic restart from the last committed epoch).
    pub recovery: RecoveryParams,
    /// Checkpoint-store representation: plain monolithic images (default,
    /// the paper's testbed behavior) or the content-addressed
    /// deduplicating store, with chunk size and per-chunk compression
    /// selectable for ablation. The dedup store is the one way to write
    /// only what changed: every manifest is full-fidelity, yet a steady
    /// epoch stores only its novel chunks. `store.threads` sizes the
    /// capture worker pool (`0` = auto via `CRUZ_THREADS`/host
    /// parallelism, `1` = serial reference path) — a wall-clock knob
    /// only: produced bytes and trace digests are identical at every
    /// width. `store.replicas` sets the replication factor k: every store
    /// mutation fans out through the per-replica operation log, reads are
    /// digest-checked quorum reads, and recovery scrubs/repairs replicas
    /// before rolling back, so a restart survives the loss of up to k−1
    /// replica stores (`1` = the plain unreplicated store, byte-identical
    /// to earlier versions).
    pub store: StoreConfig,
    /// Default capture mode for checkpoint operations (overridable per-op
    /// via `CkptOptions::capture`).
    pub capture: CkptCaptureMode,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            link: LinkParams::gigabit(),
            kernel: KernelParams::default(),
            disk: DiskParams::era_2005(),
            tcp: TcpConfig::default(),
            subnet_prefix: 16,
            ctl_msg_cpu: SimDuration::from_micros(35),
            agent_op_cpu: SimDuration::from_micros(120),
            extract_bps: 2_000_000_000,
            frame_loss: 0.0,
            seed: 42,
            prune_old_epochs: false,
            ctl_retry: None,
            recovery: RecoveryParams::default(),
            store: StoreConfig::default(),
            capture: CkptCaptureMode::default(),
        }
    }
}

impl ClusterParams {
    /// Time to serialize `bytes` of checkpoint state in memory.
    pub fn extract_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / self.extract_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_scales_with_size() {
        let p = ClusterParams::default();
        assert_eq!(p.extract_time(2_000_000_000), SimDuration::from_secs(1));
        assert_eq!(p.extract_time(0), SimDuration::ZERO);
    }

    #[test]
    fn retry_backoff_doubles_up_to_cap_then_exhausts() {
        let p = RetryPolicy {
            base: SimDuration::from_millis(10),
            cap: SimDuration::from_millis(35),
            max_attempts: 4,
        };
        assert_eq!(p.delay(0), Some(SimDuration::from_millis(10)));
        assert_eq!(p.delay(1), Some(SimDuration::from_millis(20)));
        assert_eq!(p.delay(2), Some(SimDuration::from_millis(35)), "capped");
        assert_eq!(p.delay(3), Some(SimDuration::from_millis(35)));
        assert_eq!(p.delay(4), None, "attempts exhausted");
        // Huge attempt numbers must not overflow the shift.
        let wide = RetryPolicy {
            max_attempts: u32::MAX,
            ..p
        };
        assert_eq!(wide.delay(200), Some(SimDuration::from_millis(35)));
    }

    #[test]
    fn fixed_retry_policy_never_grows() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(100), 3);
        assert_eq!(p.delay(0), p.delay(2));
        assert_eq!(p.delay(3), None);
    }
}
