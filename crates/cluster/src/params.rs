//! Cluster-wide simulation parameters.
//!
//! The defaults are calibrated to the paper's testbed (§6): dual 1 GHz
//! Pentium III nodes, gigabit Ethernet, 2005-era disks. `EXPERIMENTS.md`
//! documents how each figure depends on these values.

use cruz::proto::ProtocolMode;
use cruz::store::StoreConfig;
use des::SimDuration;
use simnet::link::LinkParams;
use simnet::tcp::TcpConfig;
use simos::disk::DiskParams;
use simos::kernel::KernelParams;

/// When a checkpoint's capture pipeline drains and persists. Every capture
/// arms each pod's memory snapshot in the freeze, drains it into an image
/// and persists the image; the modes differ only in when the drain and the
/// persist fire, and so in how long the pods stay frozen (E15's downtime
/// ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptCaptureMode {
    /// Pods stay frozen until the image is drained and written to disk —
    /// downtime scales with image size. This is what the paper's testbed
    /// measured.
    #[default]
    StopTheWorld,
    /// §5.2 write-back: the drain runs in the freeze, but pods resume once
    /// the image is captured; the disk write proceeds in the background
    /// and its `durable` gates the commit.
    Writeback,
    /// Pods resume as soon as the memory snapshot is armed (copy-on-write);
    /// pages drain to the store in the background, so downtime scales with
    /// the arm cost plus non-memory state, at the price of bounded extra
    /// page copies proportional to the post-resume write rate.
    Cow,
}

/// Options of a coordinated checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CkptOptions {
    /// Protocol variant (Fig. 2 blocking or Fig. 4 optimized).
    pub mode: ProtocolMode,
    /// Capture schedule; `None` is [`CkptCaptureMode::StopTheWorld`].
    pub capture: Option<CkptCaptureMode>,
    /// Failure-detection timeout (abort + rollback on expiry).
    pub timeout: Option<SimDuration>,
}

impl Default for CkptOptions {
    fn default() -> Self {
        CkptOptions {
            mode: ProtocolMode::Blocking,
            capture: None,
            timeout: None,
        }
    }
}

/// Subnet prefix length of every node's stack (nodes and pods share one
/// routing domain).
pub(crate) const SUBNET_PREFIX: u8 = 16;

/// Agent-side cost of acting on a `start`/`continue` message: netfilter
/// rule configuration and pod signalling (kernel round trips on a
/// 2005-era node). Sits on the coordination critical path but outside the
/// measured local-save window, as in the paper.
pub(crate) const AGENT_OP_CPU: SimDuration = SimDuration::from_micros(120);

/// Memory bandwidth for serializing checkpoint state (bytes/second).
const EXTRACT_BPS: u64 = 2_000_000_000;

/// Maximum automatic recoveries per job before the recovery manager gives
/// up on it.
pub(crate) const MAX_RECOVERIES: u32 = 4;

/// Time to serialize `bytes` of checkpoint state in memory.
pub(crate) fn extract_time(bytes: u64) -> SimDuration {
    SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / EXTRACT_BPS)
}

/// Fixed-interval control-plane retransmissions: each retry fires
/// `interval` after the previous one, up to `max_attempts` retries in all.
/// Retries stop at once when the operation completes or aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay between two retries, and before the first.
    pub interval: SimDuration,
    /// Maximum number of retries (0 disables retrying).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries at all.
    pub const NONE: RetryPolicy = RetryPolicy {
        interval: SimDuration::ZERO,
        max_attempts: 0,
    };

    /// Delay before retry `attempt` (0-based), or `None` once exhausted.
    pub fn delay(&self, attempt: u32) -> Option<SimDuration> {
        (attempt < self.max_attempts).then_some(self.interval)
    }
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
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            enabled: false,
            heartbeat_interval: SimDuration::from_millis(20),
            heartbeat_timeout: SimDuration::from_millis(10),
            op_timeout: SimDuration::from_secs(30),
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
    /// CPU cost of sending or processing one control-plane message. The
    /// coordinator serializes sends, which is what produces the per-node
    /// slope of Fig. 5(b).
    pub ctl_msg_cpu: SimDuration,
    /// Unused: nothing in the world draws from it (frame loss comes from an
    /// installed fault plan's own seed). Kept only because the benchmark
    /// harness still sets it.
    pub seed: u64,
    /// Discard older committed epochs whenever a newer one commits (bounds
    /// checkpoint-store growth during long sweeps).
    pub prune_old_epochs: bool,
    /// Control-plane retransmission policy for lossy fabrics. The default,
    /// [`RetryPolicy::NONE`], disables retries: on a lossless LAN the
    /// four-message exchange needs none, keeping the O(N) message count
    /// exact.
    pub ctl_retry: RetryPolicy,
    /// Self-healing recovery manager (heartbeat failure detection and
    /// automatic restart from the last committed epoch).
    pub recovery: RecoveryParams,
    /// Checkpoint-store configuration: plain whole-image chunks (default,
    /// the paper's testbed behavior) or page-aligned content-addressed
    /// dedup, with chunk size and per-chunk compression selectable for
    /// ablation. The dedup store is the one way to write
    /// only what changed: every manifest is full-fidelity, yet a steady
    /// epoch stores only its novel chunks. `store.threads` sizes the
    /// capture and restore worker pool (`0` = auto, the host's
    /// parallelism; `1` = serial reference path) — a wall-clock knob
    /// only: produced bytes and trace digests are identical at every
    /// width. `store.replicas` sets the replication factor k: every store
    /// mutation fans out through the per-replica operation log, reads are
    /// digest-checked quorum reads, and recovery scrubs/repairs replicas
    /// before rolling back, so a restart survives the loss of up to k−1
    /// replica stores (`1` = the plain unreplicated store, byte-identical
    /// to earlier versions).
    pub store: StoreConfig,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            link: LinkParams::gigabit(),
            kernel: KernelParams::default(),
            disk: DiskParams::era_2005(),
            tcp: TcpConfig::default(),
            ctl_msg_cpu: SimDuration::from_micros(35),
            seed: 42,
            prune_old_epochs: false,
            ctl_retry: RetryPolicy::NONE,
            recovery: RecoveryParams::default(),
            store: StoreConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_scales_with_size() {
        assert_eq!(extract_time(2_000_000_000), SimDuration::from_secs(1));
        assert_eq!(extract_time(0), SimDuration::ZERO);
    }

    #[test]
    fn fixed_retry_policy_never_grows() {
        let p = RetryPolicy {
            interval: SimDuration::from_millis(100),
            max_attempts: 3,
        };
        assert_eq!(p.delay(0), Some(p.interval));
        assert_eq!(p.delay(0), p.delay(2));
        assert_eq!(p.delay(3), None);
        assert_eq!(RetryPolicy::NONE.delay(0), None);
    }
}
