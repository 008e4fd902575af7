//! Online packing algorithms.
//!
//! The paper analyzes the *Any Fit* family — algorithms that open a
//! new bin **only when no open bin can accommodate the incoming
//! item** (§I) — with **First Fit** as the star: Theorem 1 shows FF
//! is `(µ+4)`-competitive for MinUsageTime DBP. §VIII contrasts it
//! with **Next Fit**, which keeps a single *available* bin and is
//! inherently `≥ µ`-competitive by the pair construction.
//!
//! All algorithms here are *online*: [`PackingAlgorithm::place`]
//! receives only the arriving item's size and a snapshot of the
//! currently open bins. Departure times are invisible until the
//! departure happens.

mod any_fit;
mod clairvoyant;
mod hybrid;
mod next_fit;
mod scripted;

pub use any_fit::{
    AnyFit, BestFit, EarliestOpened, FirstFit, FitPolicy, HighestLevel, LastFit, LatestOpened,
    LowestLevel, RandomChoice, RandomFit, WorstFit,
};
pub use clairvoyant::{DepartureAlignedFit, MarginalCostFit};
pub use hybrid::HybridFirstFit;
pub use next_fit::NextFit;
pub use scripted::Scripted;

use crate::bin::{BinId, BinSnapshot};
use crate::item::ItemId;
use crate::probe::ProbeCounter;
use crate::tick::TickPolicy;
use dbp_numeric::Rational;

/// What an algorithm sees when an item arrives: size and time, never
/// the departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalView {
    /// The arriving item's identifier.
    pub item: ItemId,
    /// The arriving item's size.
    pub size: Rational,
    /// Current time.
    pub time: Rational,
}

/// An algorithm's placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Put the item into an already-open bin.
    Existing(BinId),
    /// Open a fresh bin for the item.
    OpenNew,
}

/// An online MinUsageTime DBP packing algorithm.
///
/// Implementations must be deterministic given their own state (the
/// randomized [`RandomFit`] derives all randomness from a stored
/// seed, restored by [`reset`](Self::reset)).
///
/// `Send` is a supertrait: algorithms are plain owned data, and the
/// bound is what lets a [`crate::session::Session`] holding one move
/// between threads, as a daemon tenant does between the connections
/// that drive it.
pub trait PackingAlgorithm: Send {
    /// Human-readable name (appears in reports and outcomes).
    fn name(&self) -> String;

    /// Clears all run state. Called by the engine before a replay so
    /// one algorithm value can be reused across runs.
    fn reset(&mut self) {}

    /// Decides where the arriving item goes. The engine validates
    /// the decision and aborts the run on an infeasible placement —
    /// a correct implementation never returns one.
    fn place(&mut self, arrival: &ArrivalView, bins: &BinSnapshot<'_>) -> Placement;

    /// Notification that the engine committed a placement.
    /// `new_bin` is `true` when the placement opened `bin`. This is
    /// how stateful algorithms (Next Fit, Hybrid First Fit) learn the
    /// id of a freshly opened bin.
    fn on_placed(&mut self, _item: ItemId, _bin: BinId, _new_bin: bool, _time: Rational) {}

    /// Notification of an item departure; `bins` is the state
    /// *after* removal (and after the bin closed, if it did).
    fn on_departure(
        &mut self,
        _item: ItemId,
        _bin: BinId,
        _time: Rational,
        _bins: &BinSnapshot<'_>,
    ) {
    }

    /// Notification that a bin emptied and closed.
    fn on_bin_closed(&mut self, _bin: BinId, _time: Rational) {}

    /// The integer-engine policy this algorithm is equivalent to, if
    /// any. First/Best/Worst Fit return their [`TickPolicy`];
    /// everything else returns `None` and always runs on the exact
    /// Rational engine. Backend selection in
    /// [`crate::session::Runner`] and [`crate::session::Session`]
    /// keys off this — never off the algorithm's name.
    fn tick_policy(&self) -> Option<TickPolicy> {
        None
    }

    /// Algorithmic work spent on the **most recent**
    /// [`place`](Self::place) decision, as a probe counter sample —
    /// bins examined for linear scanners. `None` (the default) for
    /// algorithms that do not account their scans. Queried by the
    /// engine only when a profiling probe is attached
    /// ([`crate::probe::PhaseProbe`]), so implementations may keep the
    /// bookkeeping unconditionally cheap (a single stored integer).
    fn probe_sample(&self) -> Option<(ProbeCounter, u64)> {
        None
    }
}

// A mutable reference is itself a packing algorithm: this is what
// lets the unified `Runner` drive a caller-owned algorithm through a
// `Session` (which stores its algorithm boxed) without taking
// ownership.
impl<T: PackingAlgorithm + ?Sized> PackingAlgorithm for &mut T {
    fn name(&self) -> String {
        (**self).name()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn place(&mut self, arrival: &ArrivalView, bins: &BinSnapshot<'_>) -> Placement {
        (**self).place(arrival, bins)
    }
    fn on_placed(&mut self, item: ItemId, bin: BinId, new_bin: bool, time: Rational) {
        (**self).on_placed(item, bin, new_bin, time);
    }
    fn on_departure(&mut self, item: ItemId, bin: BinId, time: Rational, bins: &BinSnapshot<'_>) {
        (**self).on_departure(item, bin, time, bins);
    }
    fn on_bin_closed(&mut self, bin: BinId, time: Rational) {
        (**self).on_bin_closed(bin, time);
    }
    fn tick_policy(&self) -> Option<TickPolicy> {
        (**self).tick_policy()
    }
    fn probe_sample(&self) -> Option<(ProbeCounter, u64)> {
        (**self).probe_sample()
    }
}

// A boxed algorithm is one too: `algo::by_name` hands out
// `Box<dyn PackingAlgorithm>`, which `Session::resume` feeds straight
// back into the builder.
impl<T: PackingAlgorithm + ?Sized> PackingAlgorithm for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn place(&mut self, arrival: &ArrivalView, bins: &BinSnapshot<'_>) -> Placement {
        (**self).place(arrival, bins)
    }
    fn on_placed(&mut self, item: ItemId, bin: BinId, new_bin: bool, time: Rational) {
        (**self).on_placed(item, bin, new_bin, time);
    }
    fn on_departure(&mut self, item: ItemId, bin: BinId, time: Rational, bins: &BinSnapshot<'_>) {
        (**self).on_departure(item, bin, time, bins);
    }
    fn on_bin_closed(&mut self, bin: BinId, time: Rational) {
        (**self).on_bin_closed(bin, time);
    }
    fn tick_policy(&self) -> Option<TickPolicy> {
        (**self).tick_policy()
    }
    fn probe_sample(&self) -> Option<(ProbeCounter, u64)> {
        (**self).probe_sample()
    }
}

/// Constructs a zoo algorithm from its canonical
/// [`name`](PackingAlgorithm::name), or `None` for names that are
/// unknown or not reconstructible from the name alone (`RandomFit`
/// needs its seed, `Scripted` its script, the clairvoyant algorithms
/// their instance). This is how [`crate::session::Session::resume`]
/// rebuilds the algorithm recorded in a checkpoint.
///
/// The retired names of the tree-indexed variants (`FirstFitFast`,
/// `BestFitFast`, `WorstFitFast`) still load, as the algorithm they
/// always matched placement for placement, so older checkpoints
/// resume.
pub fn by_name(name: &str) -> Option<Box<dyn PackingAlgorithm>> {
    Some(match name {
        "FirstFit" | "FirstFitFast" => Box::new(FirstFit::new()),
        "BestFit" | "BestFitFast" => Box::new(BestFit::new()),
        "WorstFit" | "WorstFitFast" => Box::new(WorstFit::new()),
        "LastFit" => Box::new(LastFit::new()),
        "NextFit" => Box::new(NextFit::new()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Instance;
    use crate::session::Runner;
    use dbp_numeric::rat;

    /// The shared scenario: bins end up at distinct levels so each
    /// policy makes a distinguishable choice.
    ///
    /// Arrivals at t=0: a=0.6, b=0.5, c=0.3  →  FF: a+c in b0? Let's
    /// trace FF: a(0.6)→b0; b(0.5) doesn't fit b0 → b1; c(0.3) fits
    /// b0 (0.9) → b0. Levels: b0=0.9, b1=0.5.
    /// At t=1, d=0.4 arrives: fits only b1 for FF.
    fn scenario() -> Instance {
        Instance::builder()
            .item(rat(3, 5), rat(0, 1), rat(2, 1)) // a
            .item(rat(1, 2), rat(0, 1), rat(2, 1)) // b
            .item(rat(3, 10), rat(0, 1), rat(2, 1)) // c
            .item(rat(2, 5), rat(1, 1), rat(2, 1)) // d
            .build()
            .unwrap()
    }

    #[test]
    fn algorithms_produce_valid_distinct_packings() {
        let inst = scenario();
        let ff = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        let bf = Runner::new(&inst).run(&mut BestFit::new()).unwrap();
        let wf = Runner::new(&inst).run(&mut WorstFit::new()).unwrap();
        let nf = Runner::new(&inst).run(&mut NextFit::new()).unwrap();
        // All pack 4 items.
        for out in [&ff, &bf, &wf, &nf] {
            assert_eq!(out.assignments().len(), 4);
        }
        // FF and BF agree here (c to the fuller b0); WF sends c to b1.
        assert_eq!(ff.bin_of(ItemId(2)), Some(BinId(0)));
        assert_eq!(bf.bin_of(ItemId(2)), Some(BinId(0)));
        assert_eq!(wf.bin_of(ItemId(2)), Some(BinId(1)));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FirstFit::new().name(), "FirstFit");
        assert_eq!(BestFit::new().name(), "BestFit");
        assert_eq!(WorstFit::new().name(), "WorstFit");
        assert_eq!(LastFit::new().name(), "LastFit");
        assert_eq!(NextFit::new().name(), "NextFit");
        assert_eq!(RandomFit::seeded(7).name(), "RandomFit");
        assert!(HybridFirstFit::classic()
            .name()
            .starts_with("HybridFirstFit"));
    }
}
