//! # vyrd-benchmark — one benchmark for the whole pipeline
//!
//! Six named workloads, each run from one fixed `--seed` in its own
//! process, measured **from outside**: by timing calls into the
//! program's public functions and reading its public counters. An
//! untraced run reports the end-to-end metrics a user of VYRD would
//! feel; a separate traced run reports the per-layer ledger. The names
//! are in [`names`]; what each means, how it is taken and what each
//! workload is predicted *not* to move is in `README.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod env;
pub mod gate;
pub mod harness;
pub mod interleave;
pub mod json;
pub mod layers;
pub mod names;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
