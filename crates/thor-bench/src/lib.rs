//! # thor-bench
//!
//! The experiment harness: the datasets, systems and runs shared by the
//! `reproduce` binary, which regenerates every table and figure of the
//! paper's evaluation from one registry (`src/bin/reproduce/`), by
//! bench_thor and by the release performance floors
//! (`tests/floors.rs`).
//!
//! `reproduce [--seed N] [--out DIR]` runs each experiment at the scale
//! it declares (1.0 for the paper's artifacts, 0.25 for the ablations;
//! see EXPERIMENTS.md). The floors run the Disease A–Z dataset at scale
//! 0.25, seed 42:
//! `cargo test --release -p thor-bench --test floors -- --ignored --test-threads=1`.
//! Nothing here reads an environment variable.

pub mod harness;
pub mod report;

pub use harness::{
    disease_dataset, prepare_engine, resume_dataset, run_system, run_thor_sweep, sweep_engine,
    tau_sweep, RunOutcome, System,
};
pub use report::{fmt_duration, Table as TextTable};
