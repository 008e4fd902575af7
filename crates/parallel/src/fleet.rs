//! Sharded multi-tenant streaming: a fleet of independent sessions.
//!
//! A [`Fleet`] owns `N` independent [`Session`]s (shards) — e.g. one
//! per tenant, availability zone, or server pool — and dispatches
//! batched events to them in batch order, on the calling thread
//! ([`Fleet::dispatch_each`]). Each shard sees its own events in batch
//! order, so every shard's packing is exactly what a standalone session
//! fed the same subsequence would produce. The paper's objective, total
//! usage time, adds up over independent pools, so a fleet's usage is
//! the sum of its shards'.

use dbp_core::session::{Event, Session, SessionError, SessionMetrics};
use dbp_core::{BinId, PackingAlgorithm, PackingOutcome};
use dbp_numeric::Rational;
use dbp_obs::{telemetry_registry, MetricsRegistry};
use std::fmt;

/// A rejected event, located by shard and by its index in the
/// dispatched batch.
#[derive(Debug)]
pub struct FleetError {
    /// Shard whose session rejected the event.
    pub shard: usize,
    /// Index of the offending event in the dispatched slice.
    pub index: usize,
    /// The session's typed rejection.
    pub error: SessionError,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} rejected event #{}: {}",
            self.shard, self.index, self.error
        )
    }
}

impl std::error::Error for FleetError {}

/// `N` independent streaming sessions driven as one unit.
///
/// Shards are fully isolated: each has its own algorithm state, bins,
/// clock, and journal. The fleet adds routed batch application with
/// per-shard error isolation ([`dispatch_each`](Self::dispatch_each)),
/// aggregated [`metrics`](Self::metrics), and a collective
/// [`finish`](Self::finish).
pub struct Fleet<'s> {
    shards: Vec<Session<'s>>,
}

impl fmt::Debug for Fleet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl<'s> Fleet<'s> {
    /// Assembles a fleet from already-built sessions (shard `i` is
    /// `sessions[i]`). Use this for heterogeneous fleets — different
    /// algorithms, backends, or grids per shard.
    pub fn new(sessions: Vec<Session<'s>>) -> Fleet<'s> {
        Fleet { shards: sessions }
    }

    /// Builds `n` shards running identical fresh algorithms with
    /// default session settings.
    pub fn homogeneous<A, F>(n: usize, mut make: F) -> Result<Fleet<'s>, SessionError>
    where
        A: PackingAlgorithm + 's,
        F: FnMut() -> A,
    {
        let shards = (0..n)
            .map(|_| Session::builder(make()).build())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet::new(shards))
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` for a fleet with no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Read access to one shard's session.
    ///
    /// # Panics
    /// If `shard` is out of range.
    pub fn session(&self, shard: usize) -> &Session<'s> {
        &self.shards[shard]
    }

    /// Mutable access to one shard's session, for driving a single
    /// shard directly (`arrive`/`depart`/`snapshot`).
    ///
    /// # Panics
    /// If `shard` is out of range.
    pub fn session_mut(&mut self, shard: usize) -> &mut Session<'s> {
        &mut self.shards[shard]
    }

    /// Applies a batch in batch order: `route` names each batch
    /// item's shard and event, and `placed(index, bin)` runs for every
    /// event a shard applied, in batch order, with the [`BinId`] its
    /// session returned — the assigned bin for an arrival, the
    /// (possibly closed) bin the item vacated for a departure. Bin ids
    /// are **shard-local**: shard 0's bin 0 and shard 1's bin 0 are
    /// different physical bins.
    ///
    /// A shard that rejects an event applies none of its later ones
    /// (the rejection leaves that session unchanged, like any
    /// [`Session`] error); other shards are unaffected and keep going.
    /// Errors come back sorted by shard id, then batch index.
    ///
    /// Routing is validated up front: an out-of-range shard id
    /// ([`SessionError::UnknownShard`]) aborts the whole dispatch
    /// before *any* event is applied, so a typo'd route never leaves
    /// the batch half-ingested.
    pub fn dispatch_each<T>(
        &mut self,
        batch: &[T],
        route: impl Fn(&T) -> (usize, &Event),
        mut placed: impl FnMut(usize, BinId),
    ) -> Result<(), Vec<FleetError>> {
        let shards = self.shards.len();
        let routing: Vec<FleetError> = batch
            .iter()
            .enumerate()
            .filter_map(|(index, item)| match route(item) {
                (shard, _) if shard >= shards => Some(FleetError {
                    shard,
                    index,
                    error: SessionError::UnknownShard { shard, shards },
                }),
                _ => None,
            })
            .collect();
        if !routing.is_empty() {
            return Err(routing);
        }

        let mut errors: Vec<FleetError> = Vec::new();
        for (index, item) in batch.iter().enumerate() {
            let (shard, event) = route(item);
            if errors.iter().any(|e| e.shard == shard) {
                continue;
            }
            match self.shards[shard].apply(event) {
                Ok(bin) => placed(index, bin),
                Err(error) => errors.push(FleetError {
                    shard,
                    index,
                    error,
                }),
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            errors.sort_by_key(|e| (e.shard, e.index));
            Err(errors)
        }
    }

    /// Live per-shard metrics, indexed by shard.
    pub fn metrics(&self) -> Vec<SessionMetrics> {
        self.shards.iter().map(Session::metrics).collect()
    }

    /// Folds every shard's live [`SessionMetrics`] into one
    /// fleet-wide view, under the natural per-field law: event
    /// tallies, open bins, load, and usage add; `now` takes the
    /// furthest shard clock; lifetime extremes take min/max;
    /// `vol`/`span` add when every shard tracks them (any shard
    /// without telemetry makes them `None`, matching a single
    /// session without telemetry). `peak_open_bins` adds — the sum
    /// of per-shard peaks is the honest fleet-wide capacity bound,
    /// since shards pack independently and their peaks need not
    /// coincide in time. A fleet of one folds to its session's view.
    ///
    /// Deterministic like [`merged_metrics`](Self::merged_metrics):
    /// depends only on what each shard absorbed.
    pub fn folded_metrics(&self) -> SessionMetrics {
        let mut per_shard = self.shards.iter().map(Session::metrics);
        let Some(mut folded) = per_shard.next() else {
            return SessionMetrics {
                now: None,
                events: 0,
                arrivals: 0,
                departures: 0,
                open_bins: 0,
                active_items: 0,
                bins_opened: 0,
                peak_open_bins: 0,
                load: Rational::ZERO,
                usage_time: Rational::ZERO,
                vol: None,
                span: None,
                min_lifetime: None,
                max_lifetime: None,
            };
        };
        let add = |a: Option<Rational>, b: Option<Rational>| match (a, b) {
            (Some(x), Some(y)) => Some(x + y),
            _ => None,
        };
        for m in per_shard {
            folded.now = match (folded.now, m.now) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            folded.events += m.events;
            folded.arrivals += m.arrivals;
            folded.departures += m.departures;
            folded.open_bins += m.open_bins;
            folded.active_items += m.active_items;
            folded.bins_opened += m.bins_opened;
            folded.peak_open_bins += m.peak_open_bins;
            folded.load += m.load;
            folded.usage_time += m.usage_time;
            folded.vol = add(folded.vol, m.vol);
            folded.span = add(folded.span, m.span);
            folded.min_lifetime = match (folded.min_lifetime, m.min_lifetime) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            folded.max_lifetime = match (folded.max_lifetime, m.max_lifetime) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        folded
    }

    /// Folds every shard's stream-derived metrics into one
    /// fleet-wide [`MetricsRegistry`] via
    /// [`telemetry_registry`] + [`MetricsRegistry::merge`].
    ///
    /// The result is **deterministic**: it depends only on the events
    /// each shard has absorbed, never on merge order — counters and
    /// exact totals add, the `peak_open_bins` histogram takes one
    /// sample per shard. For a single-shard fleet it is exactly the
    /// standalone session's registry; for `N` shards it equals merging
    /// the `N` standalone registries in any order. The `vol`/`span`
    /// totals (present when the shard sessions enable
    /// `SessionBuilder::telemetry`) sum the per-shard lower bounds, so
    /// `usage_time / max(vol, span)` on the merged registry (see
    /// `dbp_obs::set_ratio_gauge`) gauges the fleet against the sum of
    /// per-shard optima — the right baseline for a fleet that packs
    /// shards independently.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for shard in &self.shards {
            merged.merge(&telemetry_registry(&shard.metrics()));
        }
        merged
    }

    /// Finishes every shard, returning per-shard outcomes in shard
    /// order. The first shard still holding active items fails the
    /// whole fleet (matching [`Session::finish`]).
    pub fn finish(self) -> Result<Vec<PackingOutcome>, FleetError> {
        self.shards
            .into_iter()
            .enumerate()
            .map(|(shard, session)| {
                session.finish().map_err(|error| FleetError {
                    shard,
                    index: 0,
                    error,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::session::Backend;
    use dbp_core::{FirstFit, ItemId, NextFit, Runner};
    use dbp_numeric::rat;

    fn arrive(id: u32, num: i128, den: i128, t: i128) -> Event {
        Event::Arrive {
            id: ItemId(id),
            size: rat(num, den),
            time: rat(t, 1),
        }
    }

    fn depart(id: u32, t: i128) -> Event {
        Event::Depart {
            id: ItemId(id),
            time: rat(t, 1),
        }
    }

    /// Routes a test batch's `(shard, event)` pairs as written.
    fn as_routed((shard, event): &(usize, Event)) -> (usize, &Event) {
        (*shard, event)
    }

    /// A deterministic multi-shard stream: shard s gets items with
    /// sizes cycling 1/2, 1/3, 1/4 and lifetimes staggered by shard.
    fn stream(shards: usize, per_shard: u32) -> Vec<(usize, Event)> {
        let mut events = Vec::new();
        for s in 0..shards {
            for i in 0..per_shard {
                let t = i as i128;
                events.push((s, arrive(i, 1, 2 + ((i as i128 + s as i128) % 3), t)));
                events.push((s, depart(i, t + 2 + s as i128)));
            }
        }
        // Per shard the order must stay time-sorted; across shards the
        // events interleave.
        events.sort_by_key(|(shard, e)| (e.time(), *shard));
        events
    }

    #[test]
    fn fleet_matches_standalone_sessions() {
        let shards = 4;
        let events = stream(shards, 24);
        let mut fleet = Fleet::homogeneous(shards, FirstFit::new).unwrap();
        fleet.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
        let outcomes = fleet.finish().unwrap();

        for (s, outcome) in outcomes.iter().enumerate() {
            let mut solo = Session::builder(FirstFit::new()).build().unwrap();
            for (shard, event) in &events {
                if *shard == s {
                    solo.apply(event).unwrap();
                }
            }
            assert_eq!(outcome, &solo.finish().unwrap(), "shard {s}");
        }
    }

    #[test]
    fn dispatch_is_deterministic_across_repeats() {
        let events = stream(8, 16);
        let run = || {
            let mut fleet = Fleet::homogeneous(8, FirstFit::new).unwrap();
            fleet.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
            fleet.finish().unwrap()
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn heterogeneous_shards_keep_their_algorithms() {
        let mut fleet = Fleet::new(vec![
            Session::builder(FirstFit::new()).build().unwrap(),
            Session::builder(NextFit::new()).build().unwrap(),
        ]);
        assert_eq!(fleet.session(0).algorithm(), "FirstFit");
        assert_eq!(fleet.session(1).algorithm(), "NextFit");
        let batch = [
            (0, arrive(0, 1, 2, 0)),
            (1, arrive(0, 1, 2, 0)),
            (0, depart(0, 3)),
            (1, depart(0, 3)),
        ];
        fleet.dispatch_each(&batch, as_routed, |_, _| {}).unwrap();
        let m = fleet.metrics();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].events, 2);
        assert_eq!(m[1].events, 2);
        fleet.finish().unwrap();
    }

    #[test]
    fn bad_routing_aborts_before_any_event_applies() {
        let mut fleet = Fleet::homogeneous(2, FirstFit::new).unwrap();
        let batch = [(0, arrive(0, 1, 2, 0)), (7, arrive(1, 1, 2, 0))];
        let mut placed = Vec::new();
        let errs = fleet
            .dispatch_each(&batch, as_routed, |index, _| placed.push(index))
            .unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].shard, 7);
        assert_eq!(errs[0].index, 1);
        assert!(matches!(
            errs[0].error,
            SessionError::UnknownShard {
                shard: 7,
                shards: 2
            }
        ));
        // Nothing was applied, including to the valid shard 0.
        assert_eq!(fleet.metrics()[0].events, 0);
        assert!(placed.is_empty());
    }

    #[test]
    fn shard_failure_is_isolated_and_located() {
        let mut fleet = Fleet::homogeneous(3, FirstFit::new).unwrap();
        let batch = [
            (0, arrive(0, 1, 2, 0)),
            (1, arrive(0, 1, 2, 5)),
            (1, arrive(1, 1, 2, 3)), // time regression on shard 1
            (1, arrive(2, 1, 2, 9)), // never applied
            (2, arrive(0, 1, 2, 0)),
        ];
        let mut placed = Vec::new();
        let errs = fleet
            .dispatch_each(&batch, as_routed, |index, _| placed.push(index))
            .unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!((errs[0].shard, errs[0].index), (1, 2));
        // Every applied event was reported, in batch order.
        assert_eq!(placed, [0, 1, 4]);
        // Healthy shards absorbed their events; the failed shard kept
        // its pre-rejection state and stopped there.
        let m = fleet.metrics();
        assert_eq!(m[0].events, 1);
        assert_eq!(m[1].events, 1);
        assert_eq!(m[2].events, 1);
    }

    #[test]
    fn routed_dispatch_by_item_id() {
        let mut fleet = Fleet::homogeneous(2, FirstFit::new).unwrap();
        let events = vec![
            arrive(0, 1, 2, 0),
            arrive(1, 1, 2, 0),
            depart(0, 1),
            depart(1, 2),
        ];
        fleet
            .dispatch_each(&events, |e| (e.id().0 as usize % 2, e), |_, _| {})
            .unwrap();
        let outcomes = fleet.finish().unwrap();
        assert_eq!(outcomes[0].total_usage(), rat(1, 1));
        assert_eq!(outcomes[1].total_usage(), rat(2, 1));
    }

    #[test]
    fn tick_shards_match_exact_shards() {
        // Integer-friendly stream: Auto sessions engage the tick path
        // and must agree with Exact sessions shard for shard.
        let events = stream(3, 12);
        let mut auto = Fleet::homogeneous(3, FirstFit::new).unwrap();
        let mut exact = Fleet::new(
            (0..3)
                .map(|_| {
                    Session::builder(FirstFit::new())
                        .backend(Backend::Exact)
                        .build()
                        .unwrap()
                })
                .collect(),
        );
        auto.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
        exact.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
        assert_eq!(auto.finish().unwrap(), exact.finish().unwrap());
    }

    #[test]
    fn merged_metrics_fold_matches_standalone_registries() {
        let shards = 3;
        let events = stream(shards, 10);
        let mut fleet = Fleet::new(
            (0..shards)
                .map(|_| {
                    Session::builder(FirstFit::new())
                        .telemetry()
                        .build()
                        .unwrap()
                })
                .collect(),
        );
        fleet.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
        let merged = fleet.merged_metrics();

        // The fold equals merging standalone per-shard registries.
        let mut expected = dbp_obs::MetricsRegistry::new();
        for s in 0..shards {
            let mut solo = Session::builder(FirstFit::new())
                .telemetry()
                .build()
                .unwrap();
            for (shard, event) in &events {
                if *shard == s {
                    solo.apply(event).unwrap();
                }
            }
            expected.merge(&dbp_obs::telemetry_registry(&solo.metrics()));
        }
        assert_eq!(merged.to_json_pretty(), expected.to_json_pretty());

        // Additive sections really did add across shards.
        assert_eq!(merged.counter("events"), events.len() as u64);
        assert!(merged.total("vol").unwrap().is_positive());
        assert_eq!(
            merged.histogram("peak_open_bins").unwrap().count(),
            shards as u64
        );
        assert_eq!(merged.counter("dispatches"), 0);
        fleet.finish().unwrap();
    }

    #[test]
    fn placements_match_standalone_sessions() {
        let shards = 3;
        let events = stream(shards, 16);
        let mut fleet = Fleet::homogeneous(shards, FirstFit::new).unwrap();
        let mut bins = Vec::new();
        fleet
            .dispatch_each(&events, as_routed, |_, bin| bins.push(bin))
            .unwrap();
        assert_eq!(bins.len(), events.len());

        // Each shard's placement sequence equals a standalone session
        // fed the same subsequence.
        for s in 0..shards {
            let mut solo = Session::builder(FirstFit::new()).build().unwrap();
            for (i, (shard, event)) in events.iter().enumerate() {
                if *shard == s {
                    assert_eq!(solo.apply(event).unwrap(), bins[i], "event {i}");
                }
            }
        }
        fleet.finish().unwrap();
    }

    #[test]
    fn a_rejection_keeps_the_other_shards_placements() {
        let batch = vec![
            (0usize, arrive(0, 1, 2, 0)),
            (1, arrive(0, 1, 2, 5)),
            (1, arrive(1, 1, 2, 3)), // time regression on shard 1
            (2, arrive(0, 1, 2, 0)),
        ];
        let mut fleet = Fleet::homogeneous(3, FirstFit::new).unwrap();
        let mut placed = Vec::new();
        let errs = fleet
            .dispatch_each(&batch, as_routed, |index, bin| placed.push((index, bin)))
            .unwrap_err();
        assert_eq!((errs[0].shard, errs[0].index), (1, 2));
        // Each shard's first item opened its bin 0.
        assert_eq!(placed, [(0, BinId(0)), (1, BinId(0)), (3, BinId(0))]);
        let m = fleet.metrics();
        assert_eq!((m[0].events, m[1].events, m[2].events), (1, 1, 1));
    }

    #[test]
    fn folded_metrics_aggregate_the_shard_views() {
        let shards = 3;
        let events = stream(shards, 10);
        let mut fleet = Fleet::new(
            (0..shards)
                .map(|_| {
                    Session::builder(FirstFit::new())
                        .telemetry()
                        .build()
                        .unwrap()
                })
                .collect::<Vec<_>>(),
        );
        fleet.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
        let folded = fleet.folded_metrics();
        let per_shard = fleet.metrics();

        assert_eq!(folded.events as usize, events.len());
        assert_eq!(
            folded.arrivals,
            per_shard.iter().map(|m| m.arrivals).sum::<u64>()
        );
        assert_eq!(
            folded.usage_time,
            per_shard
                .iter()
                .fold(rat(0, 1), |acc, m| acc + m.usage_time)
        );
        assert_eq!(folded.now, per_shard.iter().filter_map(|m| m.now).max());
        // Telemetry on every shard => folded vol/span are summed.
        assert_eq!(
            folded.vol.unwrap(),
            per_shard
                .iter()
                .fold(rat(0, 1), |acc, m| acc + m.vol.unwrap())
        );

        // An empty fleet folds to the zero view with no telemetry.
        let empty = Fleet::homogeneous(0, FirstFit::new).unwrap();
        let zero = empty.folded_metrics();
        assert_eq!(zero.events, 0);
        assert_eq!(zero.vol, None);
        fleet.finish().unwrap();
    }

    #[test]
    fn empty_fleet_and_empty_dispatch() {
        let mut none = Fleet::homogeneous(0, FirstFit::new).unwrap();
        assert!(none.is_empty());
        none.dispatch_each(&[], as_routed, |_, _| {}).unwrap();
        assert!(none.finish().unwrap().is_empty());

        let mut idle = Fleet::homogeneous(2, FirstFit::new).unwrap();
        idle.dispatch_each(&[], as_routed, |_, _| {}).unwrap();
        let outcomes = idle.finish().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.bins().is_empty()));
    }

    #[test]
    fn single_shard_fleet_equals_batch_runner() {
        use dbp_core::Instance;
        let instance = Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(2, 1))
            .item(rat(2, 3), rat(1, 1), rat(3, 1))
            .item(rat(1, 4), rat(1, 1), rat(4, 1))
            .build()
            .unwrap();
        let schedule = dbp_core::event_schedule(&instance);
        let events: Vec<(usize, Event)> = schedule
            .iter()
            .map(|entry| {
                let item = instance.item(entry.payload);
                (
                    0usize,
                    match entry.class {
                        dbp_simcore::EventClass::Departure => Event::Depart {
                            id: item.id,
                            time: entry.time,
                        },
                        _ => Event::Arrive {
                            id: item.id,
                            size: item.size,
                            time: entry.time,
                        },
                    },
                )
            })
            .collect();
        let mut fleet = Fleet::homogeneous(1, FirstFit::new).unwrap();
        fleet.dispatch_each(&events, as_routed, |_, _| {}).unwrap();
        let fleet_outcome = fleet.finish().unwrap().remove(0);
        let batch = Runner::new(&instance).run(&mut FirstFit::new()).unwrap();
        assert_eq!(fleet_outcome, batch);
    }
}
