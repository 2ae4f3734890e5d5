//! Performance benchmark of the spatio-temporal split-learning workspace.
//!
//! One binary drives three workloads through the public APIs of the
//! library crates and reports either the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run). The clock is read here,
//! in the benchmark, never inside the library crates: the traced run
//! records spans around calls into each layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync-paper --seed 1 --seconds 30 --trace 0
//! ```

#![forbid(unsafe_code)]

pub mod cli;
pub mod e2e;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workload;
