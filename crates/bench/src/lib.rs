//! # pg-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation plus Criterion
//! microbenchmarks. This library crate holds the shared pieces: wall-clock
//! timing with warmup and repetition (§VIII-A follows the Hoefler–Belli
//! benchmarking recommendations), dataset selection, the distributed
//! communication-volume model of §VIII-F, and markdown row printing so
//! every binary emits a copy-pasteable table.
//!
//! All experiments honor two environment variables:
//!
//! * `PG_SCALE` — integer down-scaling of dataset sizes (default chosen per
//!   binary so a full run finishes in seconds; `PG_SCALE=1` reproduces the
//!   published sizes). A set value that is not a positive integer stops
//!   the binary with an error.
//! * `PG_THREADS` — thread count (default: all cores), as in `pg-parallel`.
//!
//! Speed at accuracy, end to end and per layer, is measured by the
//! standalone `perfbench` package at the repository root, not here.

pub mod distmodel;
pub mod harness;
pub mod workloads;

pub use harness::{time_median, time_once, Timed};
pub use workloads::{env_scale, kronecker_suite, real_world_suite};
