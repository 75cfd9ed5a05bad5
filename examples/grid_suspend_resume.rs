//! Utility-computing resource management: suspend a whole job to shared
//! storage, hand its nodes to someone else, and resume it later — the
//! paper's grid scenario (§1).
//!
//! ```sh
//! cargo run --example grid_suspend_resume
//! ```

use cruz_repro::cluster::{ClusterParams, World};
use cruz_repro::cruz::proto::ProtocolMode;
use cruz_repro::des::SimDuration;
use cruz_repro::workloads::slm::{SlmConfig, ITER_COUNTER_ADDR};

fn iteration(world: &World) -> u64 {
    world
        .peek_guest("batch", "rank0", 1, ITER_COUNTER_ADDR, 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(0)
}

fn main() {
    let slm = SlmConfig {
        ranks: 2,
        state_bytes: 4 * 1024 * 1024,
        iters: 200,
        compute_ns: 2_000_000,
        halo_bytes: 4096,
        port: 7100,
        state_step_bytes: 0,
    };
    let mut world = World::new(3, ClusterParams::default());
    world.launch_job(&slm.job_spec("batch", 2)).expect("launch");
    world.run_for(SimDuration::from_millis(120));
    println!(
        "t={} batch job at iteration {}",
        world.now,
        iteration(&world)
    );

    // Suspend: checkpoint to the shared filesystem, then evict the pods.
    let epoch = world
        .start_checkpoint("batch", ProtocolMode::Blocking, None)
        .expect("suspend");
    assert!(world.run_until_op(epoch, 50_000_000));
    world.evict_job("batch").expect("evict");
    let stored: u64 = {
        let store = world.store("batch");
        (0..2)
            .filter_map(|r| store.image_len(&format!("rank{r}"), epoch))
            .sum()
    };
    println!(
        "t={} suspended: {} MB parked on shared storage, nodes are free",
        world.now,
        stored / 1_000_000
    );

    // ... the freed nodes run other tenants for a while ...
    world.run_for(SimDuration::from_secs(5));

    // Resume exactly where it left off, on the same nodes.
    let rs = world
        .start_restart("batch", epoch, &[], ProtocolMode::Blocking)
        .expect("resume");
    assert!(world.run_until_op(rs, 50_000_000));
    println!("t={} resumed at iteration {}", world.now, iteration(&world));

    assert!(world.run_until_pred(200_000_000, |w| w.job_finished("batch")));
    assert_eq!(world.pod_exit_code("batch", "rank0", 1), Some(0));
    assert_eq!(world.pod_exit_code("batch", "rank1", 1), Some(0));
    println!("t={} job finished all 200 iterations", world.now);
}
