//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (§6), plus the ablations DESIGN.md calls out.
//!
//! Each module builds the workload, drives the simulated cluster, and
//! returns the measured series; the `src/bin/*` binaries print them in the
//! shape the paper reports. `EXPERIMENTS.md` records paper-vs-measured for
//! every experiment.

#![warn(missing_docs)]

pub mod ablation;
pub mod compare;
pub mod cow;
pub mod dedup;
pub mod fig5;
pub mod fig6;
pub mod overhead;
pub mod recovery;
pub mod replication;
pub mod util;

pub use cow::{run_cow_sweep, run_cow_variant, CowRow};
pub use dedup::{run_dedup_sweep, run_dedup_variant, DedupRow};
pub use fig5::{fig5_params, run_fig5, run_restart_sweep, Fig5Point};
pub use fig6::{run_fig6, Fig6Sample};
pub use recovery::{replay_fingerprints, run_recovery_point, run_recovery_sweep, RecoveryRow};
pub use replication::{
    replica_chaos_fingerprints, run_replication_point, run_replication_sweep, ReplicationRow,
};
