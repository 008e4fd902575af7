#![warn(missing_docs)]

//! # `dbp-cloudsim` — online cloud server allocation
//!
//! The application layer the paper motivates (§I): a stream of jobs
//! (game sessions, batch tasks, …) is dispatched on arrival to cloud
//! servers of unit resource capacity; servers are rented
//! pay-as-you-go, so the provider's bill is the total server usage
//! time — rounded up to the billing quantum, as public clouds do
//! (per-hour billing for classic EC2, per-second with a minimum for
//! modern instance types).
//!
//! This crate wraps the `dbp-core` packing engine with:
//!
//! * [`billing`] — billing models (continuous, quantized) applied
//!   per server rental;
//! * [`dispatcher`] — end-to-end simulation: replay a job stream
//!   against a dispatch algorithm and produce a [`report::CostReport`]
//!   with billed cost, utilization, peak fleet size and an
//!   open-server time series.
//!
//! ```
//! use dbp_cloudsim::prelude::*;
//! use dbp_core::prelude::*;
//! use dbp_numeric::rat;
//!
//! // Two half-server jobs, an hour each (times in minutes).
//! let jobs = Instance::builder()
//!     .item(rat(1, 2), rat(0, 1), rat(60, 1))
//!     .item(rat(1, 2), rat(10, 1), rat(70, 1))
//!     .build()
//!     .unwrap();
//! let report = simulate(&jobs)
//!     .billing(BillingModel::hourly())
//!     .run(&mut FirstFit::new())
//!     .unwrap();
//! assert_eq!(report.servers_used, 1);
//! assert_eq!(report.usage_time, rat(70, 1));      // one server, 70 min
//! assert_eq!(report.billed_time, rat(120, 1));    // rounded to 2 hours
//! ```

pub mod billing;
pub mod dispatcher;
pub mod report;

pub use billing::BillingModel;
pub use dispatcher::{simulate, Simulation};
pub use report::{CostReport, ServerRecord};

/// One-stop imports.
pub mod prelude {
    pub use crate::billing::BillingModel;
    pub use crate::dispatcher::{simulate, Simulation};
    pub use crate::report::CostReport;
}
