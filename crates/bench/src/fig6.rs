//! Figure 6: the received-rate timeline of a maximum-rate TCP stream across
//! a coordinated checkpoint — rate collapses while communication is
//! disabled, a short pulse drains the receive buffer, and the sender
//! resumes after TCP's retransmission backoff.

use cluster::{ClusterParams, JobSpec, PodSpec, World};
use cruz::proto::ProtocolMode;
use des::{SimDuration, SimTime};
use simnet::addr::{IpAddr, MacAddr};
use workloads::streaming::{StreamingConfig, RECV_COUNTER_ADDR};
use zap::image::MacMode;

use crate::util::local_save;

/// One sample of the rate timeline.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Sample {
    /// Time relative to checkpoint start, in milliseconds.
    pub t_ms: f64,
    /// Received rate over the preceding 10 ms, in Mb/s.
    pub rate_mbps: f64,
}

/// The result of a Fig. 6 run.
#[derive(Debug, Clone)]
pub struct Fig6Run {
    /// The sampled timeline.
    pub samples: Vec<Fig6Sample>,
    /// How long the checkpoint kept communication disabled (the slowest
    /// node's local save window), in milliseconds.
    pub checkpoint_ms: f64,
    /// When that local save started, in ms relative to checkpoint start:
    /// the save spans `[save_start_ms, save_start_ms + checkpoint_ms]`.
    pub save_start_ms: f64,
    /// First post-checkpoint time the stream was back at ≥50 % of its
    /// pre-checkpoint rate, in ms relative to checkpoint start.
    pub recovery_ms: Option<f64>,
    /// Bytes the receiver read in the first 10 ms after the checkpoint
    /// started (the coordinator's first `Start`): the pulse at blackout
    /// onset.
    pub pulse_bytes: u64,
}

/// Builds the streaming job used by Fig. 6.
pub fn streaming_job(state_bytes: u64) -> (JobSpec, StreamingConfig) {
    let cfg = StreamingConfig {
        receiver_ip: IpAddr::from_octets([10, 0, 1, 2]),
        port: 7200,
        total_bytes: None,
        state_bytes,
    };
    let spec = JobSpec {
        name: "stream".into(),
        coordinator_node: 2,
        pods: vec![
            PodSpec {
                name: "sender".into(),
                ip: IpAddr::from_octets([10, 0, 1, 1]),
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2101)),
                node: 0,
                programs: vec![cfg.sender_program()],
            },
            PodSpec {
                name: "receiver".into(),
                ip: cfg.receiver_ip,
                mac_mode: MacMode::Dedicated(MacAddr::from_index(2102)),
                node: 1,
                programs: vec![cfg.receiver_program()],
            },
        ],
    };
    (spec, cfg)
}

/// Bytes the streaming job's receiver has read so far.
pub fn received_bytes(w: &World) -> u64 {
    w.peek_guest("stream", "receiver", 1, RECV_COUNTER_ADDR, 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0)
}

/// Milliseconds of steady stream sampled before the checkpoint.
const PRE_MS: u64 = 40;
/// The sampling step, in milliseconds.
const STEP_MS: u64 = 2;
/// Samples per sliding rate window (10 ms).
const WINDOW_STEPS: usize = 5;

/// Runs the Fig. 6 experiment: stream at maximum rate, checkpoint at t=0,
/// and sample the received rate every 2 ms over a sliding 10 ms window,
/// from 40 ms before the checkpoint to `post_ms` after it.
///
/// `state_bytes` sets the checkpoint's local-save window (the paper's was
/// ≈120 ms).
pub fn run_fig6(state_bytes: u64, post_ms: u64) -> Fig6Run {
    let (spec, _) = streaming_job(state_bytes);
    let mut w = World::new(3, ClusterParams::default());
    w.launch_job(&spec).expect("launch streaming job");
    // Warm the stream up to steady state.
    w.run_for(SimDuration::from_millis(300));

    // Record (t, cumulative bytes) while stepping; the checkpoint starts
    // once the world stands at t = 0, right after that step's sample.
    let t_ckpt = w.now + SimDuration::from_millis(PRE_MS);
    let mut history: Vec<(SimTime, u64)> = Vec::new();
    let mut op = None;
    let t_end = t_ckpt + SimDuration::from_millis(post_ms);
    let mut t = w.now;
    while t <= t_end {
        w.run_until(t);
        history.push((t, received_bytes(&w)));
        if op.is_none() && t >= t_ckpt {
            op = Some(
                w.start_checkpoint("stream", ProtocolMode::Blocking, None)
                    .expect("start checkpoint"),
            );
        }
        t += SimDuration::from_millis(STEP_MS);
    }
    let op = op.expect("checkpoint fired");
    let report = w.op_report(op).expect("checkpoint report");
    let save = local_save(&report);
    let checkpoint_ms = save.as_millis_f64();
    let since_ckpt = |t: SimTime| (t.as_nanos() as f64 - t_ckpt.as_nanos() as f64) / 1e6;
    let slowest = report
        .local_ops
        .iter()
        .find(|(_, s, e)| e.duration_since(*s) == save);
    let save_start_ms = since_ckpt(slowest.expect("the checkpoint saved").1);

    // Sliding-window rates, timed from the checkpoint instant. The first
    // sample has no window to measure over, so the rates start at the
    // second, and the first windows reach back only to the first sample.
    let mut samples = Vec::new();
    for (i, &(at, bytes)) in history.iter().enumerate().skip(1) {
        let (from, base) = history[i.saturating_sub(WINDOW_STEPS)];
        let dt = at.duration_since(from).as_secs_f64();
        let db = bytes.saturating_sub(base) as f64;
        let rate = db * 8.0 / dt / 1e6;
        samples.push(Fig6Sample {
            t_ms: since_ckpt(at),
            rate_mbps: rate,
        });
    }

    // Pre-checkpoint steady rate and recovery point.
    let pre_rate: f64 = {
        let pre: Vec<f64> = samples
            .iter()
            .filter(|s| s.t_ms < 0.0)
            .map(|s| s.rate_mbps)
            .collect();
        pre.iter().sum::<f64>() / pre.len().max(1) as f64
    };
    let recovery_ms = samples
        .iter()
        .filter(|s| s.t_ms > checkpoint_ms)
        .find(|s| s.rate_mbps >= pre_rate * 0.5)
        .map(|s| s.t_ms);

    // The drain pulse, timed from the checkpoint's own start: it fires at
    // t = 0, so both ends fall on the sample grid.
    let started = report.stats.started_at.expect("the checkpoint started");
    let received_by = |t: SimTime| {
        let last = history.iter().rev().find(|h| h.0 <= t);
        last.map_or(0, |h| h.1)
    };
    let pulse = SimDuration::from_millis(WINDOW_STEPS as u64 * STEP_MS);
    let pulse_bytes = received_by(started + pulse) - received_by(started);

    Fig6Run {
        samples,
        checkpoint_ms,
        save_start_ms,
        recovery_ms,
        pulse_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_collapses_and_recovers() {
        let run = run_fig6(2 * 1024 * 1024, 400);
        // Steady pre-checkpoint rate is most of a gigabit.
        let pre: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.t_ms < -5.0)
            .map(|s| s.rate_mbps)
            .collect();
        let pre_avg = pre.iter().sum::<f64>() / pre.len() as f64;
        assert!(pre_avg > 500.0, "steady rate {pre_avg} Mb/s");
        // During the checkpoint the rate collapses.
        let mid: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.t_ms > 12.0 && s.t_ms < run.checkpoint_ms - 2.0)
            .map(|s| s.rate_mbps)
            .collect();
        assert!(!mid.is_empty());
        assert!(
            mid.iter().cloned().fold(f64::MAX, f64::min) < pre_avg * 0.2,
            "rate must collapse during the blackout"
        );
        // And it recovers after TCP's backoff.
        let rec = run.recovery_ms.expect("stream recovers");
        assert!(
            rec > run.checkpoint_ms && rec < 600.0,
            "recovery at {rec} ms (checkpoint {} ms)",
            run.checkpoint_ms
        );
    }
}
