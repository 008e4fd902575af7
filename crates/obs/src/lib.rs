#![warn(missing_docs)]

//! # `dbp-obs` — observability for the packing engine
//!
//! The paper's objective `Σ_k |U_k|` is an integral over time of bin
//! state, and this crate makes that time dimension visible. It
//! attaches to [`dbp_core`]'s engine through the passive
//! [`EngineObserver`](dbp_core::EngineObserver) hooks and provides:
//!
//! * [`TraceRecorder`] — records every engine event (arrivals,
//!   validated placements with scan/reject detail, bin
//!   openings/closings, departures, run completion) with **exact
//!   rational timestamps**, and serializes them as JSONL.
//! * [`StepSeries`] — replays a trace into exact step time-series:
//!   open-bin count, per-bin level, and instantaneous utilization,
//!   integrated on [`dbp_simcore::TimeWeighted`].
//! * [`MetricsRegistry`] / [`EngineMetrics`] — counters, gauges,
//!   time-weighted signals, and wall-clock histograms (events/sec,
//!   placement scan length, bins opened/reused), snapshotting to
//!   deterministic JSON.
//! * [`Profiler`] — the in-engine self-profiler: attaches through
//!   `Runner::probe`/`SessionBuilder::probe` (both engines, outcomes
//!   bit-identical), attributes wall time to the engine's hot-path
//!   phases, histograms per-arrival scan/descent/gcd work, and
//!   exports phase-share tables, folded flamegraph stacks, and
//!   Chrome spans.
//! * [`chrome_trace`] — exports a trace in Chrome trace-event format,
//!   so a run opens directly in Perfetto
//!   ([`chrome_trace_with_spans`] merges profiler spans in).
//! * [`replay()`]/[`verify`] — re-derive `total_usage` and
//!   `max_open_bins` from the raw event log and check them against
//!   the [`PackingOutcome`](dbp_core::PackingOutcome) **bit-for-bit**,
//!   proving the record/serialize/parse pipeline loss-free.
//!
//! ```
//! use dbp_core::prelude::*;
//! use dbp_numeric::rat;
//! use dbp_obs::{StepSeries, TraceRecorder};
//!
//! let jobs = Instance::builder()
//!     .item(rat(1, 2), rat(0, 1), rat(2, 1))
//!     .item(rat(3, 4), rat(0, 1), rat(3, 1))
//!     .build()
//!     .unwrap();
//!
//! let mut recorder = TraceRecorder::new();
//! let outcome = Runner::new(&jobs)
//!     .observer(&mut recorder)
//!     .run(&mut FirstFit::new())
//!     .unwrap();
//!
//! // The trace replays to the exact same aggregates…
//! let summary = dbp_obs::verify(recorder.events(), &outcome).unwrap();
//! assert_eq!(summary.total_usage, outcome.total_usage());
//!
//! // …and carries the full time dimension.
//! let series = StepSeries::from_events(recorder.events());
//! assert_eq!(series.summary().unwrap().max_open_bins, outcome.max_open_bins());
//! ```

pub mod chrome;
pub mod metrics;
pub mod openmetrics;
pub mod prof;
pub mod replay;
pub mod series;
pub mod sink;
pub mod trace;
pub mod watchdog;

pub use chrome::{chrome_trace, chrome_trace_with_spans};
pub use metrics::{set_ratio_gauge, telemetry_registry, EngineMetrics, Histogram, MetricsRegistry};
pub use openmetrics::{MetricsServer, OPENMETRICS_CONTENT_TYPE};
pub use prof::Profiler;
pub use replay::{replay, verify, ReplayError, ReplaySummary};
pub use series::{SeriesPoint, SeriesSummary, StepSeries};
pub use sink::TelemetrySink;
pub use trace::{events_to_jsonl, parse_jsonl, TraceEvent, TraceRecorder};
pub use watchdog::{Watchdog, WatchdogAlert};
