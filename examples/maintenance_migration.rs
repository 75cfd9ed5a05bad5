//! Planned maintenance: live-migrate a busy TCP server off a host that
//! needs to go down, without the remote client noticing.
//!
//! ```sh
//! cargo run --example maintenance_migration
//! ```

use cruz_repro::cluster::{ClusterParams, World};
use cruz_repro::des::SimDuration;
use cruz_repro::workloads::streaming::RECV_COUNTER_ADDR;

fn received(world: &World) -> u64 {
    world
        .peek_guest("stream", "receiver", 1, RECV_COUNTER_ADDR, 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(0)
}

fn main() {
    let (job, _) = bench::fig6::streaming_job(8 * 1024 * 1024);
    let mut world = World::new(4, ClusterParams::default());
    world.launch_job(&job).expect("launch");

    // The stream runs at gigabit rate between nodes 0 (sender) and 1
    // (receiver).
    world.run_for(SimDuration::from_millis(300));
    let before = received(&world);
    println!(
        "t={} streaming at full rate, {} MB delivered",
        world.now,
        before / 1_000_000
    );

    // Node 1 needs maintenance: migrate the receiver pod to node 2. Its IP
    // and MAC move with it; the sender keeps its connection and simply
    // retransmits what was in flight.
    println!(
        "t={} migrating receiver pod from node 1 to node 2",
        world.now
    );
    let t0 = world.now;
    world.migrate_pod("stream", "receiver", 2).expect("migrate");

    // The receiver reads on until the freeze lands; the pause ends at the
    // first byte delivered after delivery stalled.
    let (mut stalled, mut resumed) = (false, None);
    let mut last = before;
    for _ in 0..500 {
        world.run_for(SimDuration::from_millis(2));
        let c = received(&world);
        stalled |= c == last;
        if stalled && resumed.is_none() && c > last {
            resumed = Some(world.now.duration_since(t0));
        }
        last = c;
    }
    let pause = resumed.expect("stream must survive the migration");
    println!(
        "t={} stream resumed after a {:.0} ms pause; receiver now on node {}",
        world.now,
        pause.as_millis_f64(),
        world
            .job("stream")
            .unwrap()
            .placement("receiver")
            .unwrap()
            .node
    );
    println!(
        "delivered {} MB more after migration — connection survived intact",
        (last - before) / 1_000_000
    );
    assert!(last > before);
}
