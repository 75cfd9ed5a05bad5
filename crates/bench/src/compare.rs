//! Cruz vs. the flush-based baseline (§5.2): message complexity and
//! coordination overhead as the node count grows.

use baseline::FlushSim;
use cluster::{ClusterParams, World};
use cruz::proto::ProtocolMode;
use des::SimDuration;
use workloads::slm::SlmConfig;

use crate::fig5::fig5_slm;

/// One node-count point of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct ComparePoint {
    /// Node count.
    pub nodes: usize,
    /// Cruz coordinator messages (sent + received).
    pub cruz_msgs: u64,
    /// Cruz coordination overhead.
    pub cruz_overhead: SimDuration,
    /// Baseline total messages.
    pub flush_msgs: u64,
    /// Baseline coordination overhead.
    pub flush_overhead: SimDuration,
}

/// Runs a Cruz checkpoint of an `n`-rank slm job, then feeds the measured
/// local-save durations into the flush-based model under identical link
/// and CPU parameters.
pub fn run_compare(n: usize, channel_flush_bytes: u64) -> ComparePoint {
    let slm = SlmConfig {
        state_bytes: 512 * 1024,
        compute_ns: 2_000_000,
        halo_bytes: 4 * 1024,
        ..fig5_slm(n)
    };
    let params = ClusterParams {
        prune_old_epochs: true,
        ..ClusterParams::default()
    };
    let mut w = World::new(n + 1, params.clone());
    w.launch_job(&slm.job_spec("slm", n)).expect("launch slm");
    w.run_for(SimDuration::from_millis(50));
    let op = w
        .start_checkpoint("slm", ProtocolMode::Blocking, None)
        .expect("start checkpoint");
    assert!(w.run_until_op(op, 100_000_000));
    let rep = w.op_report(op).expect("report");
    let local_save: Vec<SimDuration> = {
        let mut v: Vec<(usize, SimDuration)> = rep
            .local_ops
            .iter()
            .map(|&(node, s, e)| (node, e.duration_since(s)))
            .collect();
        v.sort_by_key(|&(n, _)| n);
        v.into_iter().map(|(_, d)| d).collect()
    };
    let flush = FlushSim {
        nodes: n,
        link: params.link,
        ctl_msg_cpu: params.ctl_msg_cpu,
        local_save,
        channel_flush_bytes,
        marker_bytes: 64,
        reconnect_rtt: SimDuration::from_micros(300),
    }
    .run_checkpoint();
    ComparePoint {
        nodes: n,
        cruz_msgs: rep.stats.msgs_sent + rep.stats.msgs_received,
        cruz_overhead: rep.coordination_overhead().expect("overhead"),
        flush_msgs: flush.messages,
        flush_overhead: flush.coordination_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cruz_stays_linear_while_flush_grows_quadratically() {
        let p4 = run_compare(4, 64 * 1024);
        let p8 = run_compare(8, 64 * 1024);
        // Cruz: exactly 4 messages per node.
        assert_eq!(p4.cruz_msgs, 16);
        assert_eq!(p8.cruz_msgs, 32);
        // Baseline: the N(N-1) marker term dominates growth.
        assert!(p8.flush_msgs > p4.flush_msgs * 2);
        // And Cruz's coordination is cheaper at every size.
        assert!(p4.cruz_overhead < p4.flush_overhead);
        assert!(p8.cruz_overhead < p8.flush_overhead);
    }
}
