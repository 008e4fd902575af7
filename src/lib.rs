#![warn(missing_docs)]

//! # `mindbp` — MinUsageTime Dynamic Bin Packing
//!
//! A complete implementation and experimental reproduction of
//! *"On First Fit Bin Packing for Online Cloud Server Allocation"*
//! (Tang, Li, Ren, Cai — IEEE IPDPS 2016): online job dispatching to
//! pay-as-you-go cloud servers, modeled as dynamic bin packing that
//! minimizes **total bin usage time**, with First Fit's `(µ+4)`
//! competitive-ratio machinery made executable and certifiable.
//!
//! This crate is the umbrella: it re-exports the workspace members
//! and hosts the runnable examples and cross-crate integration tests.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`numeric`] | `dbp-numeric` | exact rationals, half-open intervals, interval sets |
//! | [`simcore`] | `dbp-simcore` | event queue, time-weighted statistics |
//! | [`core`] | `dbp-core` | items/instances, packing engine, algorithm zoo |
//! | [`analysis`] | `dbp-analysis` | exact adversary, bounds, §IV–§VII decomposition, certification |
//! | [`workloads`] | `dbp-workloads` | adversarial gadgets, random & gaming workloads, traces |
//! | [`cloudsim`] | `dbp-cloudsim` | dispatcher, billing models, cost reports |
//! | [`par`] | `dbp-par` | deterministic parallel sweeps |
//! | [`obs`] | `dbp-obs` | engine tracing, metrics registry, replay verification |
//! | [`viz`] | `dbp-viz` | ASCII timeline renderings (the paper's figures) |
//! | [`multidim`] | `dbp-multidim` | multi-resource extension (§IX future work) |
//!
//! ## Quickstart
//!
//! ```
//! use mindbp::prelude::*;
//! use mindbp::numeric::rat;
//!
//! // Three jobs; sizes are fractions of one server, times are hours.
//! let jobs = Instance::builder()
//!     .item(rat(1, 2), rat(0, 1), rat(2, 1))
//!     .item(rat(1, 4), rat(1, 1), rat(3, 1))
//!     .item(rat(3, 4), rat(1, 1), rat(2, 1))
//!     .build()
//!     .unwrap();
//!
//! let outcome = Runner::new(&jobs).run(&mut FirstFit::new()).unwrap();
//! let report = mindbp::analysis::measure_ratio(&jobs, &outcome);
//!
//! assert!(report.exact_ratio().unwrap() <= report.theorem1_bound().unwrap());
//! ```

pub use dbp_analysis as analysis;
pub use dbp_cloudsim as cloudsim;
pub use dbp_core as core;
pub use dbp_multidim as multidim;
pub use dbp_numeric as numeric;
pub use dbp_obs as obs;
pub use dbp_par as par;
pub use dbp_simcore as simcore;
pub use dbp_viz as viz;
pub use dbp_workloads as workloads;

/// The guided tour (docs/TUTORIAL.md), included here so its code
/// blocks compile and run as doctests.
#[doc = include_str!("../docs/TUTORIAL.md")]
pub mod tutorial {}

/// The most common imports across the workspace.
pub mod prelude {
    pub use dbp_analysis::{certify_first_fit, measure_ratio, opt_lower_bound};
    pub use dbp_cloudsim::prelude::*;
    pub use dbp_core::prelude::*;
    pub use dbp_numeric::{rat, Interval, IntervalSet, Rational};
    pub use dbp_workloads::{GamingConfig, RandomWorkload};
}
