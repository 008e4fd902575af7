//! The repository benchmark: the placement path measured end to end
//! and layer by layer.
//!
//! Four workloads (see [`workload::WORKLOADS`]) drive First Fit
//! placement through the allocation daemon over loopback or through
//! the compiled engine in process. An untraced run reports the
//! end-to-end metrics of `BENCHMARK.json`; a traced run reports the
//! per-layer ones and writes the spans behind them. Every outcome is
//! checked against an in-process reference session.

pub mod cpus;
pub mod daemon;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod spec;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;
