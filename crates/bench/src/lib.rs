//! # dkc-bench
//!
//! The experiment harness that regenerates the paper's evaluation: E1–E15,
//! listed in the README's "Benchmarks and experiments".
//!
//! Every experiment is a plain function in [`experiments`] returning structured
//! rows, and the `exp_*` binaries print them as tables. The conference version
//! of the paper defers raw numbers to its full version, so the reproduced
//! quantities are the theorem guarantees, the lower-bound constructions, and
//! the stated empirical observation that the approximation ratio converges to
//! ≈ 2 (and on real-ish graphs to ≈ 1) much faster than the worst-case round
//! bound.

#![deny(deprecated)]

pub mod experiments;
pub mod report;
pub mod table;
pub mod workloads;

pub use experiments::ExperimentOutput;
pub use report::{ExperimentRecord, Report};
pub use table::Table;
pub use workloads::{standard_suite, ExpArgs, Reads, Workload, WorkloadScale};
