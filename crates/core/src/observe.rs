//! Passive instrumentation hooks for the packing engine.
//!
//! An [`EngineObserver`] sees every event the engine processes —
//! arrivals, validated placement decisions, bin openings/closings,
//! departures, and run completion — without being able to influence
//! any of them. Observers are how tracing, metrics, and perf
//! snapshots (the `dbp-obs` crate) attach to a run.
//!
//! Every callback has a no-op default body, so an observer implements
//! only what it cares about, and the unobserved entry points
//! ([`PackingEngine::arrive`](crate::engine::PackingEngine::arrive)
//! etc.) route through the zero-sized [`NoopObserver`] at no
//! allocation cost.
//!
//! Observation points fire at precise moments:
//!
//! * [`on_arrival`](EngineObserver::on_arrival) — before the
//!   algorithm is consulted; the snapshot is the state the algorithm
//!   will see.
//! * [`on_placement`](EngineObserver::on_placement) — after the
//!   decision is **validated** but before it mutates the engine, so
//!   the snapshot is still pre-placement (this is what lets a
//!   recorder reconstruct which bins were scanned and rejected).
//! * [`on_bin_opened`](EngineObserver::on_bin_opened) — right after
//!   the placement callback, when the decision opens a fresh bin.
//! * [`on_departure`](EngineObserver::on_departure) /
//!   [`on_bin_closed`](EngineObserver::on_bin_closed) — after the
//!   engine's books are updated; the closed callback hands over the
//!   bin's complete [`BinRecord`].
//! * [`on_run_finished`](EngineObserver::on_run_finished) — once the
//!   outcome has been assembled.

use crate::algo::ArrivalView;
use crate::bin::{BinId, BinSnapshot};
use crate::engine::{BinRecord, PackingOutcome};
use crate::item::ItemId;
use dbp_numeric::Rational;

/// Read-only instrumentation callbacks, all defaulted to no-ops.
///
/// Invalid events (duplicate arrivals, infeasible placements, …) are
/// *not* observed: the engine reports them as errors before any
/// callback fires, so an observer only ever sees the legal history.
///
/// `Send` is a supertrait for the same reason as on
/// [`crate::algo::PackingAlgorithm`]: an observer attached to a
/// [`crate::session::Session`] travels with it when the session moves
/// to another thread.
pub trait EngineObserver: Send {
    /// An arrival is about to be offered to the algorithm. `bins` is
    /// exactly what the algorithm will see.
    fn on_arrival(&mut self, arrival: &ArrivalView, bins: &BinSnapshot<'_>) {
        let _ = (arrival, bins);
    }

    /// A placement decision passed validation. `bins` is the
    /// **pre-placement** snapshot; `chosen` is the target bin
    /// (`opened_new` marks it as freshly opened — it is not in `bins`
    /// yet in that case).
    fn on_placement(
        &mut self,
        arrival: &ArrivalView,
        bins: &BinSnapshot<'_>,
        chosen: BinId,
        opened_new: bool,
    ) {
        let _ = (arrival, bins, chosen, opened_new);
    }

    /// A new bin was opened at `time` (fires after
    /// [`on_placement`](Self::on_placement)).
    fn on_bin_opened(&mut self, bin: BinId, time: Rational) {
        let _ = (bin, time);
    }

    /// `item` (of `size`) departed from `bin` at `time`; `bins` is
    /// the post-departure snapshot (a bin emptied by this departure
    /// is already gone from it).
    fn on_departure(
        &mut self,
        item: ItemId,
        bin: BinId,
        size: Rational,
        time: Rational,
        bins: &BinSnapshot<'_>,
    ) {
        let _ = (item, bin, size, time, bins);
    }

    /// A bin emptied and closed; `record` is its final history.
    fn on_bin_closed(&mut self, record: &BinRecord) {
        let _ = record;
    }

    /// The run completed and `outcome` was assembled.
    fn on_run_finished(&mut self, outcome: &PackingOutcome) {
        let _ = outcome;
    }
}

/// The do-nothing observer behind the unobserved entry points.
///
/// Zero-sized; every callback inherits the empty default body, so the
/// observed code path degenerates to a handful of trivially
/// predictable virtual calls and performs no allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl EngineObserver for NoopObserver {}

/// Broadcasts every callback to a list of observers, in order.
///
/// This is how `pack --events … --metrics …` attaches a trace
/// recorder and a metrics collector to the same run.
pub struct FanOut<'a> {
    observers: Vec<&'a mut dyn EngineObserver>,
}

impl<'a> FanOut<'a> {
    /// Wraps a list of observers.
    pub fn new(observers: Vec<&'a mut dyn EngineObserver>) -> FanOut<'a> {
        FanOut { observers }
    }
}

impl EngineObserver for FanOut<'_> {
    fn on_arrival(&mut self, arrival: &ArrivalView, bins: &BinSnapshot<'_>) {
        for o in &mut self.observers {
            o.on_arrival(arrival, bins);
        }
    }

    fn on_placement(
        &mut self,
        arrival: &ArrivalView,
        bins: &BinSnapshot<'_>,
        chosen: BinId,
        opened_new: bool,
    ) {
        for o in &mut self.observers {
            o.on_placement(arrival, bins, chosen, opened_new);
        }
    }

    fn on_bin_opened(&mut self, bin: BinId, time: Rational) {
        for o in &mut self.observers {
            o.on_bin_opened(bin, time);
        }
    }

    fn on_departure(
        &mut self,
        item: ItemId,
        bin: BinId,
        size: Rational,
        time: Rational,
        bins: &BinSnapshot<'_>,
    ) {
        for o in &mut self.observers {
            o.on_departure(item, bin, size, time, bins);
        }
    }

    fn on_bin_closed(&mut self, record: &BinRecord) {
        for o in &mut self.observers {
            o.on_bin_closed(record);
        }
    }

    fn on_run_finished(&mut self, outcome: &PackingOutcome) {
        for o in &mut self.observers {
            o.on_run_finished(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::FirstFit;
    use crate::item::Instance;
    use crate::session::Runner;
    use dbp_numeric::rat;

    /// Counts callback invocations.
    #[derive(Default)]
    struct Tally {
        arrivals: usize,
        placements: usize,
        opened: usize,
        departures: usize,
        closed: usize,
        finished: usize,
    }

    impl EngineObserver for Tally {
        fn on_arrival(&mut self, _: &ArrivalView, _: &BinSnapshot<'_>) {
            self.arrivals += 1;
        }
        fn on_placement(&mut self, _: &ArrivalView, _: &BinSnapshot<'_>, _: BinId, _: bool) {
            self.placements += 1;
        }
        fn on_bin_opened(&mut self, _: BinId, _: Rational) {
            self.opened += 1;
        }
        fn on_departure(
            &mut self,
            _: ItemId,
            _: BinId,
            _: Rational,
            _: Rational,
            _: &BinSnapshot<'_>,
        ) {
            self.departures += 1;
        }
        fn on_bin_closed(&mut self, _: &BinRecord) {
            self.closed += 1;
        }
        fn on_run_finished(&mut self, _: &PackingOutcome) {
            self.finished += 1;
        }
    }

    fn sample() -> Instance {
        Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(2, 1))
            .item(rat(3, 4), rat(0, 1), rat(3, 1))
            .item(rat(1, 4), rat(1, 1), rat(2, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn every_event_is_observed_once() {
        let mut tally = Tally::default();
        let out = Runner::new(&sample())
            .observer(&mut tally)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(tally.arrivals, 3);
        assert_eq!(tally.placements, 3);
        assert_eq!(tally.departures, 3);
        assert_eq!(tally.opened, out.bins_opened());
        assert_eq!(tally.closed, out.bins_opened());
        assert_eq!(tally.finished, 1);
    }

    #[test]
    fn fan_out_reaches_all_observers() {
        let mut a = Tally::default();
        let mut b = Tally::default();
        {
            let mut fan = FanOut::new(vec![&mut a, &mut b]);
            Runner::new(&sample())
                .observer(&mut fan)
                .run(&mut FirstFit::new())
                .unwrap();
        }
        assert_eq!(a.arrivals, 3);
        assert_eq!(b.arrivals, 3);
        assert_eq!(a.finished, 1);
        assert_eq!(b.finished, 1);
    }

    #[test]
    fn observed_and_unobserved_runs_agree() {
        let plain = crate::session::Runner::new(&sample())
            .run(&mut FirstFit::new())
            .unwrap();
        let observed = Runner::new(&sample())
            .observer(&mut NoopObserver)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(plain, observed);
    }
}
