//! Event tracing: the [`TraceRecorder`] observer and its JSONL
//! serialization.
//!
//! Every event carries exact [`Rational`] timestamps — serialized as
//! `{num, den}` integer pairs — so a written trace replays
//! **bit-for-bit** (see [`mod@crate::replay`]); floats never appear on
//! this path.

use dbp_core::algo::ArrivalView;
use dbp_core::{BinId, BinRecord, BinSnapshot, EngineObserver, ItemId, PackingOutcome};
use dbp_numeric::Rational;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One engine event, as recorded in a JSONL trace.
///
/// The variants mirror [`EngineObserver`]'s callbacks one-to-one,
/// with the snapshot-derived scan information materialized into the
/// [`Placement`](Self::Placement) variant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An item arrived (before the algorithm was consulted).
    Arrival {
        /// Event time.
        t: Rational,
        /// Arriving item.
        item: ItemId,
        /// Item size.
        size: Rational,
        /// Number of bins open at arrival.
        open_bins: usize,
    },
    /// A validated placement decision.
    Placement {
        /// Event time.
        t: Rational,
        /// Placed item.
        item: ItemId,
        /// Item size (capacity consumed in the chosen bin).
        size: Rational,
        /// Chosen bin.
        bin: BinId,
        /// `true` iff the decision opened a fresh bin.
        opened_new: bool,
        /// Bins inspected in opening order before the decision
        /// resolved: the chosen bin's scan position + 1, or all open
        /// bins when a new one was opened.
        scanned: usize,
        /// The scanned bins that could not hold the item
        /// (`level + size > 1`).
        rejected: Vec<BinId>,
    },
    /// A fresh bin was opened.
    BinOpened {
        /// Event time.
        t: Rational,
        /// The new bin.
        bin: BinId,
    },
    /// An item departed.
    Departure {
        /// Event time.
        t: Rational,
        /// Departing item.
        item: ItemId,
        /// The bin it left.
        bin: BinId,
        /// Item size (freed capacity).
        size: Rational,
    },
    /// A bin emptied and closed.
    BinClosed {
        /// Event time (end of the bin's usage period).
        t: Rational,
        /// The closed bin.
        bin: BinId,
        /// Start of the bin's usage period.
        opened_at: Rational,
        /// `∫ level dt` over the usage period.
        level_integral: Rational,
        /// Peak level reached.
        peak_level: Rational,
        /// Items ever placed in the bin.
        items: usize,
    },
    /// The run completed.
    RunFinished {
        /// Algorithm name.
        algorithm: String,
        /// Objective `Σ_k |U_k|`.
        total_usage: Rational,
        /// Peak simultaneously open bins.
        max_open_bins: usize,
        /// Bins ever opened.
        bins_opened: usize,
    },
}

impl TraceEvent {
    /// The event's timestamp (`None` for [`RunFinished`](Self::RunFinished),
    /// which is not a point in simulated time).
    pub fn time(&self) -> Option<Rational> {
        match self {
            TraceEvent::Arrival { t, .. }
            | TraceEvent::Placement { t, .. }
            | TraceEvent::BinOpened { t, .. }
            | TraceEvent::Departure { t, .. }
            | TraceEvent::BinClosed { t, .. } => Some(*t),
            TraceEvent::RunFinished { .. } => None,
        }
    }

    /// Short lowercase tag for summaries (`"arrival"`, `"placement"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::BinOpened { .. } => "bin_opened",
            TraceEvent::Departure { .. } => "departure",
            TraceEvent::BinClosed { .. } => "bin_closed",
            TraceEvent::RunFinished { .. } => "run_finished",
        }
    }

    /// The [`Arrival`](Self::Arrival) event of an
    /// [`EngineObserver::on_arrival`] callback.
    pub fn from_arrival(arrival: &ArrivalView, bins: &BinSnapshot<'_>) -> TraceEvent {
        TraceEvent::Arrival {
            t: arrival.time,
            item: arrival.item,
            size: arrival.size,
            open_bins: bins.len(),
        }
    }

    /// The [`Placement`](Self::Placement) event of an
    /// [`EngineObserver::on_placement`] callback, with the scan
    /// statistics materialized from the pre-placement snapshot.
    pub fn from_placement(
        arrival: &ArrivalView,
        bins: &BinSnapshot<'_>,
        chosen: BinId,
        opened_new: bool,
    ) -> TraceEvent {
        Self::from_placement_reusing(arrival, bins, chosen, opened_new, Vec::new())
    }

    /// [`from_placement`](Self::from_placement) writing the rejected
    /// set into a recycled buffer (cleared here) — lets a bounded
    /// sink hand evicted events' allocations back to the scanner
    /// instead of allocating per placement.
    pub(crate) fn from_placement_reusing(
        arrival: &ArrivalView,
        bins: &BinSnapshot<'_>,
        chosen: BinId,
        opened_new: bool,
        mut rejected: Vec<BinId>,
    ) -> TraceEvent {
        rejected.clear();
        let scanned = scan_stats_into(bins, arrival.size, chosen, opened_new, &mut rejected);
        TraceEvent::Placement {
            t: arrival.time,
            item: arrival.item,
            size: arrival.size,
            bin: chosen,
            opened_new,
            scanned,
            rejected,
        }
    }

    /// The [`BinOpened`](Self::BinOpened) event of an
    /// [`EngineObserver::on_bin_opened`] callback.
    pub fn from_bin_opened(bin: BinId, time: Rational) -> TraceEvent {
        TraceEvent::BinOpened { t: time, bin }
    }

    /// The [`Departure`](Self::Departure) event of an
    /// [`EngineObserver::on_departure`] callback.
    pub fn from_departure(item: ItemId, bin: BinId, size: Rational, time: Rational) -> TraceEvent {
        TraceEvent::Departure {
            t: time,
            item,
            bin,
            size,
        }
    }

    /// The [`BinClosed`](Self::BinClosed) event of an
    /// [`EngineObserver::on_bin_closed`] callback.
    pub fn from_bin_closed(record: &BinRecord) -> TraceEvent {
        TraceEvent::BinClosed {
            t: record.usage.hi(),
            bin: record.id,
            opened_at: record.usage.lo(),
            level_integral: record.level_integral,
            peak_level: record.peak_level,
            items: record.items.len(),
        }
    }

    /// The [`RunFinished`](Self::RunFinished) event of an
    /// [`EngineObserver::on_run_finished`] callback.
    pub fn from_run_finished(outcome: &PackingOutcome) -> TraceEvent {
        TraceEvent::RunFinished {
            algorithm: outcome.algorithm().to_string(),
            total_usage: outcome.total_usage(),
            max_open_bins: outcome.max_open_bins(),
            bins_opened: outcome.bins_opened(),
        }
    }
}

/// Computes the scan statistics for a placement from the
/// pre-placement snapshot: how many bins an opening-order scan
/// inspects before resolving, and which of those cannot hold the
/// item. Algorithm-agnostic — derived from engine state, not from the
/// algorithm's private bookkeeping.
fn scan_stats_into(
    bins: &BinSnapshot<'_>,
    size: Rational,
    chosen: BinId,
    opened_new: bool,
    rejected: &mut Vec<BinId>,
) -> usize {
    // One forward pass: stop at the chosen bin (it fits — the engine
    // validated the placement before observing it), collecting the
    // non-fitting bins seen on the way. `level + size ≤ 1` is checked
    // as `level ≤ 1 − size`: the budget is subtracted once per scan,
    // leaving only a gcd-free `Ord` comparison per bin.
    let open = bins.open_bins();
    let budget = Rational::ONE - size;
    for (i, b) in open.iter().enumerate() {
        if !opened_new && b.id == chosen {
            return i + 1;
        }
        if b.level > budget {
            if rejected.is_empty() {
                // One exact allocation instead of doubling growth —
                // every remaining scanned bin could be a reject, and
                // a fresh-bin decision rejects most of the line.
                rejected.reserve(open.len() - i);
            }
            rejected.push(b.id);
        }
    }
    open.len()
}

/// An [`EngineObserver`] that records every event as a
/// [`TraceEvent`], ready to be written out as JSONL.
///
/// ```
/// use dbp_core::prelude::*;
/// use dbp_numeric::rat;
/// use dbp_obs::TraceRecorder;
///
/// let jobs = Instance::builder()
///     .item(rat(1, 2), rat(0, 1), rat(2, 1))
///     .item(rat(1, 2), rat(1, 1), rat(3, 1))
///     .build()
///     .unwrap();
/// let mut rec = TraceRecorder::new();
/// let outcome = Runner::new(&jobs)
///     .observer(&mut rec)
///     .run(&mut FirstFit::new())
///     .unwrap();
/// assert_eq!(dbp_obs::verify(rec.events(), &outcome).is_ok(), true);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// The recorded events, in engine order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Serializes the trace as JSONL (one compact JSON event per
    /// line).
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// Writes the JSONL trace to `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }
}

impl EngineObserver for TraceRecorder {
    fn on_arrival(&mut self, arrival: &ArrivalView, bins: &BinSnapshot<'_>) {
        self.events.push(TraceEvent::from_arrival(arrival, bins));
    }

    fn on_placement(
        &mut self,
        arrival: &ArrivalView,
        bins: &BinSnapshot<'_>,
        chosen: BinId,
        opened_new: bool,
    ) {
        self.events.push(TraceEvent::from_placement(
            arrival, bins, chosen, opened_new,
        ));
    }

    fn on_bin_opened(&mut self, bin: BinId, time: Rational) {
        self.events.push(TraceEvent::from_bin_opened(bin, time));
    }

    fn on_departure(
        &mut self,
        item: ItemId,
        bin: BinId,
        size: Rational,
        time: Rational,
        _bins: &BinSnapshot<'_>,
    ) {
        self.events
            .push(TraceEvent::from_departure(item, bin, size, time));
    }

    fn on_bin_closed(&mut self, record: &BinRecord) {
        self.events.push(TraceEvent::from_bin_closed(record));
    }

    fn on_run_finished(&mut self, outcome: &PackingOutcome) {
        self.events.push(TraceEvent::from_run_finished(outcome));
    }
}

/// Serializes a slice of events as JSONL.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("trace events always serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into events. Blank lines are skipped;
/// the error names the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{FirstFit, Instance, Runner};
    use dbp_numeric::rat;

    fn sample() -> Instance {
        Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(2, 1))
            .item(rat(3, 4), rat(0, 1), rat(3, 1))
            .item(rat(1, 4), rat(1, 1), rat(2, 1))
            .build()
            .unwrap()
    }

    fn record() -> (Vec<TraceEvent>, dbp_core::PackingOutcome) {
        let mut rec = TraceRecorder::new();
        let out = Runner::new(&sample())
            .observer(&mut rec)
            .run(&mut FirstFit::new())
            .unwrap();
        (rec.into_events(), out)
    }

    #[test]
    fn event_stream_shape() {
        let (events, out) = record();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        assert_eq!(count("arrival"), 3);
        assert_eq!(count("placement"), 3);
        assert_eq!(count("departure"), 3);
        assert_eq!(count("bin_opened"), out.bins_opened());
        assert_eq!(count("bin_closed"), out.bins_opened());
        assert_eq!(count("run_finished"), 1);
        // Timestamps are non-decreasing across timed events.
        let times: Vec<_> = events.iter().filter_map(TraceEvent::time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn first_fit_scan_is_recorded() {
        // Item 1 (3/4) does not fit bin 0 (level 1/2): FF scans bin 0,
        // rejects it, opens bin 1.
        let (events, _) = record();
        let placements: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Placement {
                    item,
                    bin,
                    opened_new,
                    scanned,
                    rejected,
                    ..
                } => Some((item.0, bin.0, *opened_new, *scanned, rejected.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(placements[0], (0, 0, true, 0, vec![]));
        assert_eq!(placements[1], (1, 1, true, 1, vec![BinId(0)]));
        // Item 2 (1/4) fits bin 0 at scan position 1.
        assert_eq!(placements[2], (2, 0, false, 1, vec![]));
    }

    #[test]
    fn jsonl_round_trips_bit_exactly() {
        let (events, _) = record();
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        // And exotic rationals survive too.
        let ev = TraceEvent::BinOpened {
            t: rat(1_000_000_007, 998_244_353),
            bin: BinId(41),
        };
        let back = parse_jsonl(&events_to_jsonl(std::slice::from_ref(&ev))).unwrap();
        assert_eq!(back, vec![ev]);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let err = parse_jsonl("{\"BinOpened\":{}}\nnot json\n").unwrap_err();
        assert!(err.contains("line 1") || err.contains("line 2"), "{err}");
    }

    #[test]
    fn parse_errors_name_the_exact_line_past_blanks() {
        // Valid line, blank line, then garbage: the error must point
        // at physical line 3, not the second parsed event.
        let good = serde_json::to_string(&TraceEvent::BinOpened {
            t: rat(1, 1),
            bin: BinId(0),
        })
        .unwrap();
        let text = format!("{good}\n\n{{\"Departure\": 7}}\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
        // Truncated JSON is also a line-numbered error, not a panic.
        let err = parse_jsonl("{\"BinOpened\":{\"t\":").unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
    }

    #[test]
    fn extreme_rational_timestamps_round_trip_and_verify() {
        // Timestamps with huge numerators and non-unit denominators
        // (coprime, near the i128-safe range for exact integration)
        // must survive write → parse → replay-verify bit-exactly.
        let big = 1_000_000_000_000_000_003i128; // prime
        let inst = Instance::builder()
            .item(rat(999_999_999_999_999_999, big), rat(big, 7), rat(big, 5))
            .item(rat(1, big), rat(big, 7), rat(big, 6))
            .build()
            .unwrap();
        let mut rec = TraceRecorder::new();
        let out = Runner::new(&inst)
            .observer(&mut rec)
            .run(&mut FirstFit::new())
            .unwrap();
        let events = rec.into_events();
        let parsed = parse_jsonl(&events_to_jsonl(&events)).unwrap();
        assert_eq!(parsed, events);
        // The parsed trace replays against the outcome bit-for-bit.
        crate::verify(&parsed, &out).unwrap();
        // And the exotic timestamps really did make the round trip.
        let t0 = parsed
            .iter()
            .find_map(|e| match e {
                TraceEvent::Arrival { t, .. } => Some(*t),
                _ => None,
            })
            .unwrap();
        assert_eq!(t0, rat(big, 7));
    }
}
