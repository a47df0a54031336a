//! # thor-bench
//!
//! The experiment harness: the datasets, systems and runs shared by the
//! `reproduce` binary, which regenerates every table and figure of the
//! paper's evaluation from one registry (`src/bin/reproduce/`), by the
//! `bench_*` binaries and bench_thor, and by Criterion micro-benches for
//! the substrates.
//!
//! `reproduce [--seed N] [--out DIR]` runs each experiment at the scale
//! it declares (1.0 for the paper's artifacts, 0.25 for the ablations;
//! see EXPERIMENTS.md). Only the `bench_*` binaries read `THOR_SCALE`
//! and `THOR_SEED` ([`scale_from_env`], [`harness::seed_from_env`]).

pub mod harness;
pub mod report;

pub use harness::{
    disease_dataset, prepare_engine, resume_dataset, run_system, run_thor_sweep, scale_from_env,
    sweep_engine, tau_sweep, RunOutcome, System,
};
pub use report::{fmt_duration, Table as TextTable};
