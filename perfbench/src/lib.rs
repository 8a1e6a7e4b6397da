//! The DTexL repository benchmark: workload generation, the rebuilt
//! per-layer pipeline the traced run times, span recording and order
//! statistics. `src/main.rs` drives the workloads; see `README.md`.

#![forbid(unsafe_code)]

pub mod gen;
pub mod rebuild;
pub mod stats;
pub mod trace;
