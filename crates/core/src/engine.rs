//! The event-driven online packing engine.
//!
//! The engine is the referee between an instance and an online
//! algorithm: it replays arrivals and departures in time order
//! (departures first at equal timestamps — intervals are half-open),
//! asks the algorithm where to place each arriving item, **validates
//! feasibility**, and keeps exact books: per-bin usage periods,
//! per-bin level integrals, and the global usage-time objective
//! `Σ_k |U_k|` the paper minimizes.
//!
//! Algorithms cannot cheat: they see only [`crate::bin::BinSnapshot`]
//! (current open bins) and the arriving item's size — never a
//! departure time.

use crate::algo::{ArrivalView, PackingAlgorithm, Placement};
use crate::bin::{BinId, BinSnapshot, OpenBin};
use crate::item::{Instance, ItemId};
use crate::observe::{EngineObserver, NoopObserver};
use crate::probe::{EventKind, NoopProbe, Phase, PhaseProbe};
use dbp_numeric::{Interval, Rational};
use dbp_simcore::{EventClass, EventSchedule};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;

/// Errors surfaced while driving a packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackingError {
    /// The algorithm placed an item into a bin that cannot hold it.
    Infeasible {
        /// Offending bin.
        bin: BinId,
        /// Bin level before the placement.
        level: Rational,
        /// Size of the item being placed.
        size: Rational,
    },
    /// The algorithm referenced a bin that is not open.
    NoSuchBin(BinId),
    /// An item id arrived twice without departing.
    DuplicateItem(ItemId),
    /// A departure was issued for an item the engine is not tracking.
    UnknownItem(ItemId),
    /// Events were driven with a time earlier than the engine's clock.
    TimeRegression {
        /// Engine clock.
        now: Rational,
        /// Offending event time.
        event: Rational,
    },
    /// [`PackingEngine::finish`] was called while items are active.
    ItemsStillActive(usize),
}

impl fmt::Display for PackingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackingError::Infeasible { bin, level, size } => write!(
                f,
                "infeasible placement: bin {bin} at level {level} cannot take size {size}"
            ),
            PackingError::NoSuchBin(b) => write!(f, "placement into non-open bin {b}"),
            PackingError::DuplicateItem(r) => write!(f, "item {r} arrived twice"),
            PackingError::UnknownItem(r) => write!(f, "departure of unknown item {r}"),
            PackingError::TimeRegression { now, event } => {
                write!(f, "event at {event} precedes engine clock {now}")
            }
            PackingError::ItemsStillActive(n) => {
                write!(f, "finish() with {n} items still active")
            }
        }
    }
}

impl std::error::Error for PackingError {}

/// Full history of one bin after the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinRecord {
    /// Bin identifier == opening rank.
    pub id: BinId,
    /// Usage period `U_k = [opened, closed)`.
    pub usage: Interval,
    /// Every item ever placed in the bin, in placement order.
    pub items: Vec<ItemId>,
    /// `∫ level(t) dt` over the usage period (exact).
    pub level_integral: Rational,
    /// Peak level reached.
    pub peak_level: Rational,
}

impl BinRecord {
    /// Mean level over the usage period (`None` for zero-length
    /// usage, which cannot happen for validated instances).
    pub fn mean_level(&self) -> Option<Rational> {
        let len = self.usage.len();
        (!len.is_zero()).then(|| self.level_integral / len)
    }
}

/// The result of a completed packing run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackingOutcome {
    algorithm: String,
    bins: Vec<BinRecord>,
    assignments: Vec<(ItemId, BinId)>,
    total_usage: Rational,
    max_open_bins: usize,
}

impl PackingOutcome {
    /// Name of the algorithm that produced this packing.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Per-bin histories, in opening order.
    pub fn bins(&self) -> &[BinRecord] {
        &self.bins
    }

    /// `(item, bin)` pairs sorted by item id.
    pub fn assignments(&self) -> &[(ItemId, BinId)] {
        &self.assignments
    }

    /// The bin an item was placed in.
    pub fn bin_of(&self, item: ItemId) -> Option<BinId> {
        self.assignments
            .binary_search_by(|(r, _)| r.cmp(&item))
            .ok()
            .map(|i| self.assignments[i].1)
    }

    /// The objective: total bin usage time `Σ_k |U_k|`
    /// (`FF_total(R)` for First Fit, §III.C).
    pub fn total_usage(&self) -> Rational {
        self.total_usage
    }

    /// Peak number of simultaneously open bins (the *standard* DBP
    /// objective, for comparison).
    pub fn max_open_bins(&self) -> usize {
        self.max_open_bins
    }

    /// Number of bins ever opened.
    pub fn bins_opened(&self) -> usize {
        self.bins.len()
    }

    /// Aggregate utilization: packed time–space demand divided by
    /// usage time (`None` for an empty run). Always `≤ 1`.
    pub fn utilization(&self) -> Option<Rational> {
        (!self.total_usage.is_zero()).then(|| {
            let packed: Rational = self.bins.iter().map(|b| b.level_integral).sum();
            packed / self.total_usage
        })
    }

    /// Assembles an outcome from already-finalized parts: the tick
    /// engine's integer books converted back to exact `Rational`s, or
    /// a finish frame read straight off the wire (`dbp_proto::fast`).
    /// Like the derived `Deserialize`, it checks nothing.
    pub fn from_parts(
        algorithm: String,
        bins: Vec<BinRecord>,
        assignments: Vec<(ItemId, BinId)>,
        total_usage: Rational,
        max_open_bins: usize,
    ) -> PackingOutcome {
        PackingOutcome {
            algorithm,
            bins,
            assignments,
            total_usage,
            max_open_bins,
        }
    }

    /// Relabels the algorithm name (a tick replay reports the name of
    /// the algorithm the caller drove, so both engines produce
    /// literally identical outcomes).
    pub(crate) fn with_algorithm(mut self, algorithm: &str) -> PackingOutcome {
        self.algorithm = algorithm.to_string();
        self
    }
}

/// Per-bin mutable bookkeeping while the run is live. `pub(crate)`
/// so the tick engine can hand its integer books over to an exact
/// engine when a streaming session leaves the tick grid.
#[derive(Debug, Clone)]
pub(crate) struct LiveBin {
    pub(crate) opened_at: Rational,
    pub(crate) items: Vec<ItemId>,
    pub(crate) level_integral: Rational,
    pub(crate) peak_level: Rational,
    pub(crate) last_change: Rational,
}

/// Sentinel slot for a bin that is not (or no longer) open.
const NO_SLOT: u32 = u32::MAX;

/// The incremental engine. Drive it with [`arrive`](Self::arrive) /
/// [`depart`](Self::depart) in non-decreasing time order (the batch
/// [`crate::session::Runner`] does this for you), then call
/// [`finish`](Self::finish).
pub struct PackingEngine {
    /// Open bins sorted by id, as exposed to algorithms.
    open: Vec<OpenBin>,
    /// Parallel bookkeeping for each open bin (same order as `open`).
    live: Vec<LiveBin>,
    /// Completed bin records.
    closed: Vec<BinRecord>,
    /// item -> (bin, size, arrival) for active items, sorted by item
    /// id.
    active: Vec<(ItemId, BinId, Rational, Rational)>,
    /// Final assignment log.
    assignments: Vec<(ItemId, BinId)>,
    /// bin id → current index into `open`/`live` (`NO_SLOT` once
    /// closed). Ids are dense opening ranks, so a flat vector gives
    /// O(1) lookup on both the arrival and departure paths; the
    /// entries right of a closing bin are patched during the same
    /// left-shift `Vec::remove` already performs.
    slot_of: Vec<u32>,
    next_bin: u32,
    now: Option<Rational>,
    max_open: usize,
    /// Running `Σ |U_k|` over the *closed* bins, maintained
    /// incrementally so live metrics never rescan the records.
    closed_usage: Rational,
    /// `(n, Σ level_integral)` over the first `n` closed bins.
    /// [`vol_accrued`](Self::vol_accrued) folds in the bins closed
    /// since its last call, so a run that never asks for `vol` does no
    /// extra `Rational` arithmetic.
    closed_integral: Cell<(usize, Rational)>,
}

impl Default for PackingEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PackingEngine {
    /// Creates an idle engine.
    pub fn new() -> PackingEngine {
        PackingEngine {
            open: Vec::new(),
            live: Vec::new(),
            closed: Vec::new(),
            active: Vec::new(),
            assignments: Vec::new(),
            slot_of: Vec::new(),
            next_bin: 0,
            now: None,
            max_open: 0,
            closed_usage: Rational::ZERO,
            closed_integral: Cell::new((0, Rational::ZERO)),
        }
    }

    /// Reassembles a mid-run engine from explicit books. This is the
    /// hand-over point of the tick-to-exact promotion: a streaming
    /// session that leaves its tick grid converts the integer books
    /// back to exact `Rational`s and continues here, bit-identically.
    ///
    /// `open`/`live` must be parallel and sorted by bin id, `active`
    /// (item, bin, size, arrival) sorted by item id, and ids dense
    /// opening ranks below `next_bin`.
    #[allow(clippy::too_many_arguments)] // the books are one atomic hand-over, not an API
    pub(crate) fn from_books(
        open: Vec<OpenBin>,
        live: Vec<LiveBin>,
        closed: Vec<BinRecord>,
        active: Vec<(ItemId, BinId, Rational, Rational)>,
        assignments: Vec<(ItemId, BinId)>,
        next_bin: u32,
        now: Option<Rational>,
        max_open: usize,
    ) -> PackingEngine {
        debug_assert_eq!(open.len(), live.len());
        debug_assert!(open.windows(2).all(|w| w[0].id < w[1].id));
        debug_assert!(active.windows(2).all(|w| w[0].0 < w[1].0));
        let mut slot_of = vec![NO_SLOT; next_bin as usize];
        for (slot, bin) in open.iter().enumerate() {
            slot_of[bin.id.index()] = slot as u32;
        }
        let closed_usage = closed.iter().map(|b| b.usage.len()).sum();
        PackingEngine {
            open,
            live,
            closed,
            active,
            assignments,
            slot_of,
            next_bin,
            now,
            max_open,
            closed_usage,
            closed_integral: Cell::new((0, Rational::ZERO)),
        }
    }

    /// Current index of `bin` in `open`/`live`, `None` if not open.
    #[inline]
    fn slot(&self, bin: BinId) -> Option<usize> {
        match self.slot_of.get(bin.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Engine clock (time of the last processed event).
    pub fn now(&self) -> Option<Rational> {
        self.now
    }

    /// Number of currently open bins.
    pub fn open_bins(&self) -> usize {
        self.open.len()
    }

    /// Number of currently active items.
    pub fn active_items(&self) -> usize {
        self.active.len()
    }

    /// Snapshot of the open bins (what an algorithm would see).
    pub fn snapshot(&self) -> BinSnapshot<'_> {
        BinSnapshot::new(&self.open)
    }

    /// `true` iff `item` arrived and has not departed.
    pub fn is_active(&self, item: ItemId) -> bool {
        self.active.binary_search_by(|(r, ..)| r.cmp(&item)).is_ok()
    }

    /// Total level across the open bins (the current load).
    pub fn load(&self) -> Rational {
        self.open.iter().map(|b| b.level).sum()
    }

    /// Number of bins ever opened.
    pub fn bins_opened(&self) -> usize {
        self.next_bin as usize
    }

    /// Peak number of simultaneously open bins so far.
    pub fn peak_open_bins(&self) -> usize {
        self.max_open
    }

    /// Usage time `Σ_k |U_k|` accrued so far: closed bins contribute
    /// their full usage period, open bins the span from their opening
    /// to the engine clock. This is the run's objective-to-date and
    /// what a live session reports as accumulated usage.
    pub fn usage_accrued(&self) -> Rational {
        let now = match self.now {
            Some(t) => t,
            None => return Rational::ZERO,
        };
        self.closed_usage
            + self
                .live
                .iter()
                .map(|l| now - l.opened_at)
                .sum::<Rational>()
    }

    /// Workload volume `vol(R) = Σᵢ sᵢ·lenᵢ = ∫ load dt` accrued so far
    /// (Proposition 1): the closed bins' level integrals plus each open
    /// bin's integral carried to the engine clock. Like
    /// [`usage_accrued`](Self::usage_accrued), one pass over the open
    /// bins, plus the bins closed since the last call.
    pub fn vol_accrued(&self) -> Rational {
        let Some(now) = self.now else {
            return Rational::ZERO;
        };
        let (folded, sum) = self.closed_integral.get();
        let closed = sum
            + self.closed[folded..]
                .iter()
                .map(|b| b.level_integral)
                .sum::<Rational>();
        self.closed_integral.set((self.closed.len(), closed));
        let open = self.open.iter().zip(&self.live);
        let to_now =
            |(o, l): (&OpenBin, &LiveBin)| l.level_integral + o.level * (now - l.last_change);
        closed + open.map(to_now).sum::<Rational>()
    }

    /// Validates the clock without committing it: rejected events
    /// must leave the engine untouched (sessions rely on this to keep
    /// their journal replay bit-identical to the live run), so
    /// callers advance `self.now` only after the whole event is
    /// validated.
    fn check_time(&self, t: Rational) -> Result<(), PackingError> {
        if let Some(now) = self.now {
            if t < now {
                return Err(PackingError::TimeRegression { now, event: t });
            }
        }
        Ok(())
    }

    fn advance_bin_clock(open: &mut OpenBin, live: &mut LiveBin, t: Rational) {
        // Equal-time event bursts hit the same bin repeatedly at one
        // instant; the zero-length interval contributes nothing, so
        // skip the Rational multiply (two gcd reductions) entirely.
        if t == live.last_change {
            return;
        }
        live.level_integral += open.level * (t - live.last_change);
        live.last_change = t;
    }

    /// Processes an arrival: asks `algo` for a placement, validates
    /// it, and applies it. Returns the chosen bin.
    pub fn arrive(
        &mut self,
        algo: &mut dyn PackingAlgorithm,
        item: ItemId,
        size: Rational,
        time: Rational,
    ) -> Result<BinId, PackingError> {
        self.arrive_observed(algo, &mut NoopObserver, item, size, time)
    }

    /// [`arrive`](Self::arrive) with instrumentation: `obs` sees the
    /// arrival (pre-decision) and the validated placement
    /// (pre-application). Invalid decisions error out unobserved.
    pub fn arrive_observed(
        &mut self,
        algo: &mut dyn PackingAlgorithm,
        obs: &mut dyn EngineObserver,
        item: ItemId,
        size: Rational,
        time: Rational,
    ) -> Result<BinId, PackingError> {
        self.arrive_probed(algo, obs, &mut NoopProbe, item, size, time)
    }

    /// [`arrive_observed`](Self::arrive_observed) with profiling:
    /// `probe` brackets the event's phases and receives the
    /// algorithm's scan-work sample. Generic so the detached
    /// ([`NoopProbe`]) instantiation monomorphizes to the exact
    /// uninstrumented machine code.
    pub fn arrive_probed<P: PhaseProbe + ?Sized>(
        &mut self,
        algo: &mut dyn PackingAlgorithm,
        obs: &mut dyn EngineObserver,
        probe: &mut P,
        item: ItemId,
        size: Rational,
        time: Rational,
    ) -> Result<BinId, PackingError> {
        probe.event(EventKind::Arrival);
        self.check_time(time)?;
        // `active` is sorted by item id: one binary search both
        // rejects duplicates and yields the insertion point reused
        // for the post-placement insert below.
        let active_pos = match self.active.binary_search_by(|(r, ..)| r.cmp(&item)) {
            Ok(_) => return Err(PackingError::DuplicateItem(item)),
            Err(pos) => pos,
        };
        let arrival = ArrivalView { item, size, time };
        let placement = {
            let snap = BinSnapshot::new(&self.open);
            probe.enter(Phase::ObserverDispatch);
            obs.on_arrival(&arrival, &snap);
            probe.exit(Phase::ObserverDispatch);
            probe.enter(Phase::FitScan);
            let placement = algo.place(&arrival, &snap);
            probe.exit(Phase::FitScan);
            placement
        };
        if probe.is_active() {
            if let Some((counter, n)) = algo.probe_sample() {
                probe.count(counter, n);
            }
        }
        let (bin_id, new_bin) = match placement {
            Placement::Existing(bin_id) => {
                let idx = self.slot(bin_id).ok_or(PackingError::NoSuchBin(bin_id))?;
                if !self.open[idx].fits(size) {
                    return Err(PackingError::Infeasible {
                        bin: bin_id,
                        level: self.open[idx].level,
                        size,
                    });
                }
                {
                    let snap = BinSnapshot::new(&self.open);
                    probe.enter(Phase::ObserverDispatch);
                    obs.on_placement(&arrival, &snap, bin_id, false);
                    probe.exit(Phase::ObserverDispatch);
                }
                probe.enter(Phase::PlacementCommit);
                let (open, live) = (&mut self.open[idx], &mut self.live[idx]);
                probe.enter(Phase::ClockAdvance);
                Self::advance_bin_clock(open, live, time);
                probe.exit(Phase::ClockAdvance);
                open.level += size;
                open.contents.push((item, size));
                live.items.push(item);
                if open.level > live.peak_level {
                    live.peak_level = open.level;
                }
                probe.exit(Phase::PlacementCommit);
                (bin_id, false)
            }
            Placement::OpenNew => {
                let bin_id = BinId(self.next_bin);
                {
                    let snap = BinSnapshot::new(&self.open);
                    probe.enter(Phase::ObserverDispatch);
                    obs.on_placement(&arrival, &snap, bin_id, true);
                    obs.on_bin_opened(bin_id, time);
                    probe.exit(Phase::ObserverDispatch);
                }
                probe.enter(Phase::PlacementCommit);
                self.next_bin += 1;
                debug_assert_eq!(self.slot_of.len(), bin_id.index());
                self.slot_of.push(self.open.len() as u32);
                self.open.push(OpenBin {
                    id: bin_id,
                    opened_at: time,
                    level: size,
                    contents: vec![(item, size)],
                });
                self.live.push(LiveBin {
                    opened_at: time,
                    items: vec![item],
                    level_integral: Rational::ZERO,
                    peak_level: size,
                    last_change: time,
                });
                self.max_open = self.max_open.max(self.open.len());
                probe.exit(Phase::PlacementCommit);
                (bin_id, true)
            }
        };
        // Only a validated placement moves the clock.
        self.now = Some(time);
        probe.enter(Phase::PlacementCommit);
        self.active.insert(active_pos, (item, bin_id, size, time));
        self.assignments.push((item, bin_id));
        probe.exit(Phase::PlacementCommit);
        probe.enter(Phase::TreeSync);
        algo.on_placed(item, bin_id, new_bin, time);
        probe.exit(Phase::TreeSync);
        Ok(bin_id)
    }

    /// Processes a departure: removes the item from its bin, closing
    /// the bin if it empties, and notifies `algo`.
    pub fn depart(
        &mut self,
        algo: &mut dyn PackingAlgorithm,
        item: ItemId,
        time: Rational,
    ) -> Result<BinId, PackingError> {
        self.depart_observed(algo, &mut NoopObserver, item, time)
    }

    /// [`depart`](Self::depart) with instrumentation: `obs` sees the
    /// departure (post-application) and, if the bin emptied, its
    /// complete closing record.
    pub fn depart_observed(
        &mut self,
        algo: &mut dyn PackingAlgorithm,
        obs: &mut dyn EngineObserver,
        item: ItemId,
        time: Rational,
    ) -> Result<BinId, PackingError> {
        self.depart_probed(algo, obs, &mut NoopProbe, item, time)
            .map(|(bin, _)| bin)
    }

    /// [`depart_observed`](Self::depart_observed) with profiling; see
    /// [`arrive_probed`](Self::arrive_probed) for the probe contract.
    /// Returns the bin the item left and the time it arrived.
    pub fn depart_probed<P: PhaseProbe + ?Sized>(
        &mut self,
        algo: &mut dyn PackingAlgorithm,
        obs: &mut dyn EngineObserver,
        probe: &mut P,
        item: ItemId,
        time: Rational,
    ) -> Result<(BinId, Rational), PackingError> {
        probe.event(EventKind::Departure);
        self.check_time(time)?;
        probe.enter(Phase::DepartureDrain);
        let pos = match self.active.binary_search_by(|(r, ..)| r.cmp(&item)) {
            Ok(pos) => pos,
            Err(_) => {
                probe.exit(Phase::DepartureDrain);
                return Err(PackingError::UnknownItem(item));
            }
        };
        self.now = Some(time);
        let (_, bin_id, size, arrived) = self.active.remove(pos);
        let idx = self.slot(bin_id).expect("active item's bin must be open");
        {
            let (open, live) = (&mut self.open[idx], &mut self.live[idx]);
            probe.enter(Phase::ClockAdvance);
            Self::advance_bin_clock(open, live, time);
            probe.exit(Phase::ClockAdvance);
            open.level -= size;
            let in_bin = open
                .contents
                .iter()
                .position(|(r, _)| *r == item)
                .expect("item recorded in its bin");
            open.contents.remove(in_bin);
        }
        let closed_now = self.open[idx].contents.is_empty();
        if closed_now {
            let open = self.open.remove(idx);
            let live = self.live.remove(idx);
            // Patch the id→slot index alongside the left-shift the
            // two removals just performed.
            self.slot_of[open.id.index()] = NO_SLOT;
            for b in &self.open[idx..] {
                self.slot_of[b.id.index()] -= 1;
            }
            debug_assert!(open.level.is_zero(), "empty bin must have zero level");
            let usage = Interval::new(live.opened_at, time);
            self.closed_usage += usage.len();
            self.closed.push(BinRecord {
                id: open.id,
                usage,
                items: live.items,
                level_integral: live.level_integral,
                peak_level: live.peak_level,
            });
        }
        probe.exit(Phase::DepartureDrain);
        {
            let snap = BinSnapshot::new(&self.open);
            probe.enter(Phase::ObserverDispatch);
            obs.on_departure(item, bin_id, size, time, &snap);
            probe.exit(Phase::ObserverDispatch);
            probe.enter(Phase::TreeSync);
            algo.on_departure(item, bin_id, time, &snap);
            probe.exit(Phase::TreeSync);
            if closed_now {
                probe.enter(Phase::ObserverDispatch);
                obs.on_bin_closed(self.closed.last().expect("bin record just pushed"));
                probe.exit(Phase::ObserverDispatch);
                probe.enter(Phase::TreeSync);
                algo.on_bin_closed(bin_id, time);
                probe.exit(Phase::TreeSync);
            }
        }
        Ok((bin_id, arrived))
    }

    /// Finalizes the run. Fails if items are still active (every
    /// validated instance drains completely when replayed).
    pub fn finish(self, algorithm: &str) -> Result<PackingOutcome, PackingError> {
        self.finish_observed(algorithm, &mut NoopObserver)
    }

    /// [`finish`](Self::finish) with instrumentation: `obs` sees the
    /// assembled outcome before it is returned.
    pub fn finish_observed(
        mut self,
        algorithm: &str,
        obs: &mut dyn EngineObserver,
    ) -> Result<PackingOutcome, PackingError> {
        if !self.active.is_empty() {
            return Err(PackingError::ItemsStillActive(self.active.len()));
        }
        debug_assert!(self.open.is_empty());
        self.closed.sort_by_key(|b| b.id);
        self.assignments.sort_by_key(|&(r, _)| r);
        let total_usage = self.closed.iter().map(|b| b.usage.len()).sum();
        let outcome = PackingOutcome {
            algorithm: algorithm.to_string(),
            bins: self.closed,
            assignments: self.assignments,
            total_usage,
            max_open_bins: self.max_open,
        };
        obs.on_run_finished(&outcome);
        Ok(outcome)
    }
}

/// Builds the replay schedule of an instance: one arrival and one
/// departure event per item, pre-sorted into engine firing order.
///
/// The order is the canonical `(time, class, seq)` contract of
/// `dbp_simcore::EventQueue`: global time order; at equal times departures
/// precede arrivals (half-open intervals); equal-time same-class
/// events run in item order. Build it once per instance and replay it
/// against any number of algorithms with
/// [`Runner::schedule`](crate::session::Runner::schedule) — a sweep
/// over `k` algorithms pays one sort instead of `k` heap fills of
/// `2n` entries each.
pub fn event_schedule(instance: &Instance) -> EventSchedule<ItemId> {
    let mut entries = Vec::with_capacity(instance.len() * 2);
    for item in instance.items() {
        entries.push((item.arrival(), EventClass::Arrival, item.id));
        entries.push((item.departure(), EventClass::Departure, item.id));
    }
    EventSchedule::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::FirstFit;
    use crate::session::{Backend, Runner};
    use dbp_numeric::rat;

    /// First Fit on this module's engine (`Runner`'s default
    /// `Backend::Auto` would replay these instances on the tick
    /// engine).
    fn first_fit(i: &Instance) -> PackingOutcome {
        Runner::new(i)
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap()
    }

    fn inst(specs: &[(i128, i128, i128, i128)]) -> Instance {
        // (size_num, size_den, arrival, departure)
        Instance::new(
            specs
                .iter()
                .map(|&(n, d, a, dep)| (rat(n, d), rat(a, 1), rat(dep, 1)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_item_single_bin() {
        let i = inst(&[(1, 2, 0, 3)]);
        let out = first_fit(&i);
        assert_eq!(out.bins_opened(), 1);
        assert_eq!(out.total_usage(), rat(3, 1));
        assert_eq!(out.max_open_bins(), 1);
        assert_eq!(out.bin_of(ItemId(0)), Some(BinId(0)));
        assert_eq!(out.bins()[0].usage, Interval::new(rat(0, 1), rat(3, 1)));
        assert_eq!(out.bins()[0].level_integral, rat(3, 2));
        assert_eq!(out.bins()[0].peak_level, rat(1, 2));
        assert_eq!(out.utilization(), Some(rat(1, 2)));
    }

    #[test]
    fn bin_reuse_at_departure_instant() {
        // Item 0 on [0,1), item 1 (full size) on [1,2). Intervals are
        // half-open, so the departure at t=1 is processed before the
        // arrival at t=1: bin 0 empties and closes, and since closed
        // bins never reopen, First Fit must open a NEW bin for item 1.
        // Two bins, usage 1 each.
        let i = inst(&[(1, 1, 0, 1), (1, 1, 1, 2)]);
        let out = first_fit(&i);
        assert_eq!(out.bins_opened(), 2);
        assert_eq!(out.total_usage(), rat(2, 1));
        assert_eq!(out.max_open_bins(), 1);
    }

    #[test]
    fn capacity_forces_second_bin() {
        let i = inst(&[(2, 3, 0, 2), (2, 3, 0, 2)]);
        let out = first_fit(&i);
        assert_eq!(out.bins_opened(), 2);
        assert_eq!(out.total_usage(), rat(4, 1));
        assert_eq!(out.max_open_bins(), 2);
        assert_eq!(out.bin_of(ItemId(0)), Some(BinId(0)));
        assert_eq!(out.bin_of(ItemId(1)), Some(BinId(1)));
    }

    #[test]
    fn usage_periods_track_openings_and_closings() {
        // Two items in one bin with staggered intervals, then a late
        // item reopening a fresh bin after everything closed.
        let i = inst(&[(1, 2, 0, 2), (1, 2, 1, 4), (1, 2, 6, 7)]);
        let out = first_fit(&i);
        assert_eq!(out.bins_opened(), 2);
        let b0 = &out.bins()[0];
        let b1 = &out.bins()[1];
        assert_eq!(b0.usage, Interval::new(rat(0, 1), rat(4, 1)));
        assert_eq!(b1.usage, Interval::new(rat(6, 1), rat(7, 1)));
        assert_eq!(out.total_usage(), rat(5, 1));
        // Level integral of b0: 1/2 on [0,1), 1 on [1,2), 1/2 on [2,4)
        assert_eq!(b0.level_integral, rat(1, 2) + rat(1, 1) + rat(1, 1));
        assert_eq!(b0.peak_level, rat(1, 1));
        assert_eq!(b0.mean_level(), Some(rat(5, 8)));
    }

    #[test]
    fn infeasible_placement_is_rejected() {
        struct Stubborn;
        impl PackingAlgorithm for Stubborn {
            fn name(&self) -> String {
                "stubborn".into()
            }
            fn place(&mut self, _a: &ArrivalView, bins: &BinSnapshot<'_>) -> Placement {
                match bins.open_bins().first() {
                    Some(b) => Placement::Existing(b.id), // even if it doesn't fit
                    None => Placement::OpenNew,
                }
            }
        }
        let i = inst(&[(2, 3, 0, 2), (2, 3, 0, 2)]);
        let err = Runner::new(&i).run(&mut Stubborn).unwrap_err();
        assert!(matches!(
            err,
            crate::session::SessionError::Packing(PackingError::Infeasible { bin: BinId(0), .. })
        ));
    }

    #[test]
    fn a_rejected_placement_leaves_the_clock() {
        struct Stubborn;
        impl PackingAlgorithm for Stubborn {
            fn name(&self) -> String {
                "stubborn".into()
            }
            fn place(&mut self, _a: &ArrivalView, bins: &BinSnapshot<'_>) -> Placement {
                match bins.open_bins().first() {
                    Some(b) => Placement::Existing(b.id),
                    None => Placement::OpenNew,
                }
            }
        }
        let mut eng = PackingEngine::new();
        eng.arrive(&mut Stubborn, ItemId(0), rat(2, 3), rat(0, 1))
            .unwrap();
        let err = eng
            .arrive(&mut Stubborn, ItemId(1), rat(2, 3), rat(5, 1))
            .unwrap_err();
        assert!(matches!(err, PackingError::Infeasible { .. }));
        assert_eq!(eng.now(), Some(rat(0, 1)));
        assert_eq!(eng.usage_accrued(), Rational::ZERO);
        assert_eq!(eng.vol_accrued(), Rational::ZERO);
    }

    #[test]
    fn placement_into_closed_bin_is_rejected() {
        struct Ghost;
        impl PackingAlgorithm for Ghost {
            fn name(&self) -> String {
                "ghost".into()
            }
            fn place(&mut self, a: &ArrivalView, _b: &BinSnapshot<'_>) -> Placement {
                if a.item == ItemId(0) {
                    Placement::OpenNew
                } else {
                    Placement::Existing(BinId(0)) // closed by then
                }
            }
        }
        let i = inst(&[(1, 2, 0, 1), (1, 2, 2, 3)]);
        let err = Runner::new(&i).run(&mut Ghost).unwrap_err();
        assert!(matches!(
            err,
            crate::session::SessionError::Packing(PackingError::NoSuchBin(BinId(0)))
        ));
    }

    #[test]
    fn engine_rejects_time_regression() {
        let mut eng = PackingEngine::new();
        let mut ff = FirstFit::new();
        eng.arrive(&mut ff, ItemId(0), rat(1, 2), rat(5, 1))
            .unwrap();
        let err = eng
            .arrive(&mut ff, ItemId(1), rat(1, 2), rat(4, 1))
            .unwrap_err();
        assert!(matches!(err, PackingError::TimeRegression { .. }));
    }

    #[test]
    fn engine_rejects_duplicates_and_unknowns() {
        let mut eng = PackingEngine::new();
        let mut ff = FirstFit::new();
        eng.arrive(&mut ff, ItemId(0), rat(1, 2), rat(0, 1))
            .unwrap();
        assert_eq!(
            eng.arrive(&mut ff, ItemId(0), rat(1, 4), rat(1, 1)),
            Err(PackingError::DuplicateItem(ItemId(0)))
        );
        assert_eq!(
            eng.depart(&mut ff, ItemId(7), rat(1, 1)),
            Err(PackingError::UnknownItem(ItemId(7)))
        );
    }

    #[test]
    fn finish_requires_drained_engine() {
        let mut eng = PackingEngine::new();
        let mut ff = FirstFit::new();
        eng.arrive(&mut ff, ItemId(0), rat(1, 2), rat(0, 1))
            .unwrap();
        let err = eng.finish("ff").unwrap_err();
        assert_eq!(err, PackingError::ItemsStillActive(1));
    }

    #[test]
    fn max_open_bins_counts_concurrency() {
        // Three simultaneous full-size items: three bins at once.
        let i = inst(&[(1, 1, 0, 2), (1, 1, 0, 2), (1, 1, 0, 2), (1, 1, 3, 4)]);
        let out = first_fit(&i);
        assert_eq!(out.max_open_bins(), 3);
        assert_eq!(out.bins_opened(), 4);
        assert_eq!(out.total_usage(), rat(7, 1));
    }

    #[test]
    fn scheduled_replay_matches_the_direct_run_and_is_reusable() {
        let i = inst(&[(1, 2, 0, 2), (1, 2, 1, 4), (1, 2, 6, 7), (2, 3, 0, 2)]);
        let direct = first_fit(&i);
        let sched = event_schedule(&i);
        assert_eq!(sched.len(), 2 * i.len());
        let mut ff = FirstFit::new();
        let first = Runner::new(&i)
            .schedule(&sched)
            .backend(Backend::Exact)
            .run(&mut ff)
            .unwrap();
        let second = Runner::new(&i)
            .schedule(&sched)
            .backend(Backend::Exact)
            .run(&mut ff)
            .unwrap();
        assert_eq!(first, direct);
        assert_eq!(second, direct);
    }

    #[test]
    fn equal_time_burst_keeps_exact_integral() {
        // Five same-instant arrivals into one bin, staggered
        // departures; the zero-length-interval fast path in
        // advance_bin_clock must not disturb the level integral.
        let i = inst(&[
            (1, 10, 0, 1),
            (1, 10, 0, 2),
            (1, 10, 0, 2),
            (1, 10, 0, 3),
            (1, 10, 0, 3),
        ]);
        let out = first_fit(&i);
        assert_eq!(out.bins_opened(), 1);
        // Level: 1/2 on [0,1), 2/5 on [1,2), 1/5 on [2,3).
        assert_eq!(
            out.bins()[0].level_integral,
            rat(1, 2) + rat(2, 5) + rat(1, 5)
        );
        assert_eq!(out.bins()[0].peak_level, rat(1, 2));
        assert_eq!(out.total_usage(), rat(3, 1));
    }

    #[test]
    fn outcome_assignment_lookup() {
        let i = inst(&[(1, 2, 0, 2), (1, 2, 0, 2), (1, 2, 0, 2)]);
        let out = first_fit(&i);
        assert_eq!(out.bin_of(ItemId(0)), Some(BinId(0)));
        assert_eq!(out.bin_of(ItemId(1)), Some(BinId(0)));
        assert_eq!(out.bin_of(ItemId(2)), Some(BinId(1)));
        assert_eq!(out.bin_of(ItemId(9)), None);
        assert_eq!(out.algorithm(), "FirstFit");
    }
}
