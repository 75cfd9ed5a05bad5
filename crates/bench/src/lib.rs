//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (§6), plus the ablations DESIGN.md calls out.
//!
//! Each module builds the workload, drives the simulated cluster, and
//! returns the measured series. The `repro` binary runs them as one
//! registry of experiment rows: it renders each row's table, checks it
//! against the paper's band, and requires it to match `EXPERIMENTS.md`
//! byte for byte.

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
