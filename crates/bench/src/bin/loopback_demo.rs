//! End-to-end demo of the two carriers: the same checkpoint → crash →
//! restore cycle ([`World::run_cycle`]) run once on the deterministic sim
//! carrier and once on the loopback carrier — control frames over real
//! UDP sockets on `127.0.0.1`, time from the wall clock — with the
//! restored-image digests compared.
//!
//! Both runs drive one protocol engine; only the transport and the clock
//! differ. For each carrier the demo prints the checkpoint's Fig. 5(b)
//! numbers from its `OpReport`: total checkpoint latency and the
//! coordination overhead (latency minus the slowest local save). On the
//! sim carrier they are simulated time; on the loopback carrier they are
//! real time on the host that ran the demo.
//!
//! Prints `SKIPPED` and exits 0 where the sandbox forbids loopback
//! sockets, so CI can run it unconditionally.

use cluster::{
    loopback_available, CkptOptions, ClusterParams, CycleReport, JobSpec, PodSpec, World,
};
use simnet::addr::{IpAddr, MacAddr};
use workloads::compute::ComputeConfig;
use zap::image::MacMode;

/// The demo cluster: pod on node 0, spare node 1, coordinator node 2.
const NODES: usize = 3;
const SPARE: usize = 1;

fn demo_spec() -> JobSpec {
    let cfg = ComputeConfig {
        outer: 60,
        inner: 80,
    };
    JobSpec {
        name: "demo".into(),
        coordinator_node: 2,
        pods: vec![PodSpec {
            name: "p0".into(),
            ip: IpAddr::from_octets([10, 0, 1, 5]),
            mac_mode: MacMode::Dedicated(MacAddr::from_index(2101)),
            node: 0,
            programs: vec![cfg.program()],
        }],
    }
}

/// Runs the cycle on `world` and prints its line of the comparison.
fn cycle(carrier: &str, mut world: World) -> CycleReport {
    let rep = world
        .run_cycle(&demo_spec(), SPARE, CkptOptions::default())
        .unwrap_or_else(|e| panic!("{carrier} cycle failed: {e}"));
    let ckpt = world
        .op_report(rep.checkpoint_op)
        .expect("checkpoint report");
    let us = |d: Option<des::SimDuration>| d.map_or(f64::NAN, |d| d.as_nanos() as f64 / 1e3);
    println!(
        "{carrier:<4}: epoch {}  pods {:?}  digest {:#018x}  ckpt latency {:.0} us  coordination overhead {:.0} us  ({} events)",
        rep.epoch,
        rep.restored_pods,
        rep.restored_digest,
        us(ckpt.stats.checkpoint_latency()),
        us(ckpt.coordination_overhead()),
        rep.events_processed
    );
    rep
}

fn main() {
    if !loopback_available() {
        println!("SKIPPED: loopback UDP sockets unavailable in this environment");
        return;
    }
    println!("# twin cycle: run to completion, checkpoint, crash node 0, restore on the spare");
    let sim = cycle("sim", World::new(NODES, ClusterParams::default()));
    let world = World::new_loopback(NODES, ClusterParams::default()).expect("loopback carrier");
    let net = cycle("net", world);
    assert_eq!(
        net.restored_digest, sim.restored_digest,
        "loopback restore must be byte-identical to the simulated restore"
    );
    println!("# digests match: the loopback carrier restored the sim carrier's exact bytes");
}
