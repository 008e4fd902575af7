#![warn(missing_docs)]

//! # `dbp-core` — MinUsageTime Dynamic Bin Packing
//!
//! Reference implementation of the online bin packing model from
//! *"On First Fit Bin Packing for Online Cloud Server Allocation"*
//! (Tang, Li, Ren, Cai — IPDPS 2016).
//!
//! ## The model (paper §I, §III)
//!
//! Items (jobs) arrive over continuous time. Item `r` has a size
//! `s(r) ∈ (0, 1]` and is *active* on a half-open interval
//! `I(r) = [arrival, departure)`. The departure time is **not known
//! when the item is packed** — algorithms see only arrivals and the
//! current state of the open bins. Bins have unit capacity; the total
//! size of active items in a bin may never exceed 1; items never
//! migrate. A bin is *open* from its first item's arrival until its
//! last active item departs, and the cost of a packing is the total
//! bin usage time `Σ_k |U_k|` — for cloud servers, the accumulated
//! pay-as-you-go renting time.
//!
//! ## What lives where
//!
//! * [`item`] — items, validated instances, instance statistics
//!   (`µ`, time–space demand `vol`, `span`).
//! * [`bin`] — open-bin state and the read-only snapshot handed to
//!   algorithms.
//! * [`engine`] — the event-driven online packing engine; enforces
//!   feasibility, hides departures from the algorithm until they
//!   happen, and produces a complete [`engine::PackingOutcome`].
//! * [`observe`] — passive instrumentation hooks
//!   ([`observe::EngineObserver`]) through which tracing and metrics
//!   (the `dbp-obs` crate) watch a run without influencing it.
//! * [`probe`] — zero-cost self-profiling hooks
//!   ([`probe::PhaseProbe`]): phase-attributed span timing and
//!   per-arrival scan/descent work counts on **both** engines, with
//!   the detached path compiling to nothing.
//! * [`algo`] — the algorithm zoo: **First Fit** (the paper's
//!   subject, Theorem 1: `(µ+4)`-competitive), Best Fit, Worst Fit,
//!   Last Fit, Random Fit (the Any-Fit family, §I), **Next Fit**
//!   (§VIII), and the size-classified **Hybrid First Fit** of
//!   Li–Tang–Cai.
//! * [`tick`] — the compile-then-run pipeline: instances rescaled to
//!   `u64` ticks/units via denominator LCMs and replayed on a pure
//!   integer engine, with bit-identical outcomes and automatic
//!   fallback to the Rational engine on overflow.
//! * [`scan`] and [`fit_tree`] — the tick engine's two placement
//!   indexes: chunked (autovectorizing) residual-gap sweeps below the
//!   scan crossover, a `u64` tournament tree above it.
//!
//! * [`session`] — streaming online sessions (incremental ingestion
//!   with live metrics and journal checkpoints) and the unified
//!   batch [`session::Runner`].
//!
//! ## Quick example
//!
//! ```
//! use dbp_core::prelude::*;
//! use dbp_numeric::rat;
//!
//! // Three jobs that all fit together in one unit bin.
//! let instance = Instance::builder()
//!     .item(rat(1, 2), rat(0, 1), rat(2, 1))
//!     .item(rat(1, 4), rat(1, 1), rat(3, 1))
//!     .item(rat(1, 4), rat(0, 1), rat(4, 1))
//!     .build()
//!     .unwrap();
//!
//! let outcome = Runner::new(&instance).run(&mut FirstFit::new()).unwrap();
//! // First Fit packs everything into one bin, open for [0, 4).
//! assert_eq!(outcome.bins().len(), 1);
//! assert_eq!(outcome.total_usage(), rat(4, 1));
//!
//! // The same run, streamed one event at a time:
//! let mut session = Session::builder(FirstFit::new()).build().unwrap();
//! session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
//! session.arrive(ItemId(2), rat(1, 4), rat(0, 1)).unwrap();
//! session.arrive(ItemId(1), rat(1, 4), rat(1, 1)).unwrap();
//! session.depart(ItemId(0), rat(2, 1)).unwrap();
//! session.depart(ItemId(1), rat(3, 1)).unwrap();
//! session.depart(ItemId(2), rat(4, 1)).unwrap();
//! assert_eq!(session.finish().unwrap(), outcome);
//! ```

pub mod algo;
pub mod bin;
pub mod engine;
pub mod fit_tree;
mod hash;
pub mod item;
pub mod observe;
pub mod probe;
pub mod scan;
pub mod session;
pub mod tick;

pub use algo::{
    AnyFit, BestFit, DepartureAlignedFit, FirstFit, FitPolicy, HybridFirstFit, LastFit,
    MarginalCostFit, NextFit, PackingAlgorithm, Placement, RandomFit, Scripted, WorstFit,
};
pub use bin::{BinId, BinSnapshot, OpenBin};
pub use engine::{event_schedule, BinRecord, PackingEngine, PackingError, PackingOutcome};
pub use fit_tree::FitTree;
pub use item::{Instance, InstanceBuilder, InstanceError, InstanceStats, Item, ItemId};
pub use observe::{EngineObserver, FanOut, NoopObserver};
pub use probe::{EventKind, NoopProbe, Phase, PhaseProbe, ProbeCounter};
pub use session::{
    Backend, BatchError, Event, Runner, Session, SessionBuilder, SessionError, SessionMetrics,
    SessionSnapshot, TickGrid,
};
pub use tick::{CompileError, CompiledInstance, TickEngine, TickPolicy, SCAN_CROSSOVER};

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::algo::{
        BestFit, FirstFit, HybridFirstFit, LastFit, NextFit, PackingAlgorithm, Placement,
        RandomFit, WorstFit,
    };
    pub use crate::bin::{BinId, BinSnapshot, OpenBin};
    pub use crate::engine::{event_schedule, PackingEngine, PackingOutcome};
    pub use crate::item::{Instance, Item, ItemId};
    pub use crate::observe::{EngineObserver, NoopObserver};
    pub use crate::probe::{NoopProbe, Phase, PhaseProbe, ProbeCounter};
    pub use crate::session::{Backend, Event, Runner, Session, SessionError, TickGrid};
    pub use crate::tick::{CompiledInstance, TickPolicy};
}
