//! Property-based tests of the packing engine and algorithm zoo.
//!
//! These establish the *model-level* invariants every run must
//! satisfy regardless of algorithm: conservation (every item packed
//! exactly once), capacity feasibility, exact usage accounting, and
//! the defining greediness property of the Any-Fit family.
//!
//! The universal, Any-Fit, determinism and invariance properties run
//! on both engines: `Backend::Exact` (the linear Any-Fit scans on the
//! Rational engine, the reference) and the default `Backend::Auto`,
//! which sends First/Best/Worst Fit to the tick engine whenever the
//! instance compiles.

use dbp_core::prelude::*;
use dbp_core::PackingAlgorithm;
use dbp_numeric::{rat, IntervalSet, Rational};
use proptest::prelude::*;

/// Strategy: a well-formed instance with up to 24 items.
///
/// Sizes are drawn from `{1/8, 1/6, …, 1}`-style small fractions,
/// arrivals from a small integer-ish grid with halves and quarters,
/// durations `≥ 1/2`. This hits lots of simultaneous-event ties,
/// exact fills and bin closings.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=8, 1i128..=8, 0i128..=40, 1i128..=16).prop_map(|(num, den, arr4, dur4)| {
        let size = rat(num.min(den), den); // in (0, 1]
        let arrival = rat(arr4, 4);
        let duration = rat(dur4, 4);
        (size, arrival, arrival + duration)
    });
    prop::collection::vec(item, 0..24)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// Every algorithm under test, freshly constructed.
fn algorithms() -> Vec<Box<dyn PackingAlgorithm>> {
    vec![
        Box::new(FirstFit::new()),
        Box::new(BestFit::new()),
        Box::new(WorstFit::new()),
        Box::new(LastFit::new()),
        Box::new(NextFit::new()),
        Box::new(RandomFit::seeded(0xDBF)),
        Box::new(HybridFirstFit::classic()),
    ]
}

/// The engines every property runs on.
const BACKENDS: [Backend; 2] = [Backend::Exact, Backend::Auto];

/// Replays `inst` with `algo` on `backend`.
fn run(inst: &Instance, backend: Backend, algo: &mut dyn PackingAlgorithm) -> PackingOutcome {
    Runner::new(inst)
        .backend(backend)
        .run(algo)
        .unwrap_or_else(|e| {
            panic!(
                "{} on {backend:?} failed on valid instance: {e}",
                algo.name()
            )
        })
}

/// Replays `inst` with `algo` on `backend` and checks the universal
/// outcome invariants shared by all algorithms.
fn check_universal(
    inst: &Instance,
    backend: Backend,
    algo: &mut dyn PackingAlgorithm,
) -> PackingOutcome {
    let out = run(inst, backend, algo);

    // (1) Conservation: every item assigned exactly once.
    assert_eq!(out.assignments().len(), inst.len(), "{}", algo.name());
    for item in inst.items() {
        assert!(
            out.bin_of(item.id).is_some(),
            "{} lost {}",
            algo.name(),
            item.id
        );
    }

    // (2) Bin membership is consistent with assignments.
    for bin in out.bins() {
        for id in &bin.items {
            assert_eq!(out.bin_of(*id), Some(bin.id));
        }
    }

    // (3) Capacity feasibility, replayed independently of the engine:
    // at every event time, the total size of active items per bin ≤ 1.
    for t in inst.event_times() {
        for bin in out.bins() {
            let level: Rational = bin
                .items
                .iter()
                .map(|id| inst.item(*id))
                .filter(|r| r.active_at(t))
                .map(|r| r.size)
                .sum();
            assert!(
                level <= Rational::ONE,
                "{}: bin {} over capacity at t={t}: {level}",
                algo.name(),
                bin.id
            );
        }
    }

    // (4) Usage periods are exactly the hull of the members' activity:
    // opened at the first arrival, closed at the last departure.
    for bin in out.bins() {
        let first_arrival = bin
            .items
            .iter()
            .map(|id| inst.item(*id).arrival())
            .min()
            .expect("bins are never empty");
        let last_departure = bin
            .items
            .iter()
            .map(|id| inst.item(*id).departure())
            .max()
            .unwrap();
        assert_eq!(bin.usage.lo(), first_arrival, "{}", algo.name());
        assert_eq!(bin.usage.hi(), last_departure, "{}", algo.name());
        // A bin must be continuously non-empty over its usage period:
        // the union of member activity covers the usage interval.
        let member_union =
            IntervalSet::from_intervals(bin.items.iter().map(|id| inst.item(*id).interval));
        assert_eq!(
            member_union.measure(),
            bin.usage.len(),
            "{}: bin {} went empty mid-usage (would have closed)",
            algo.name(),
            bin.id
        );
    }

    // (5) Objective accounting: total usage is the sum of periods.
    let direct: Rational = out.bins().iter().map(|b| b.usage.len()).sum();
    assert_eq!(out.total_usage(), direct);

    // (6) Lower bounds (Propositions 1 and 2 applied to ANY packing):
    // usage ≥ span(R) and usage ≥ vol(R).
    assert!(out.total_usage() >= inst.span(), "{}", algo.name());
    assert!(out.total_usage() >= inst.vol(), "{}", algo.name());

    // (7) The union of usage periods is exactly the active-time union.
    let usage_union = IntervalSet::from_intervals(out.bins().iter().map(|b| b.usage));
    assert_eq!(usage_union, inst.active_set(), "{}", algo.name());

    // (8) Level integral per bin equals the members' demand.
    for bin in out.bins() {
        let demand: Rational = bin.items.iter().map(|id| inst.item(*id).demand()).sum();
        assert_eq!(bin.level_integral, demand, "{}", algo.name());
    }

    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_algorithms_satisfy_universal_invariants(inst in instance_strategy()) {
        for backend in BACKENDS {
            for mut algo in algorithms() {
                check_universal(&inst, backend, algo.as_mut());
            }
        }
    }

    #[test]
    fn any_fit_algorithms_never_open_unnecessarily(inst in instance_strategy()) {
        // Defining property (§I): an Any-Fit algorithm opens a new bin
        // only when no open bin fits. We verify by replaying the
        // outcome: when an item opened bin k, every bin open at that
        // moment must have lacked room.
        for backend in BACKENDS {
            for mut algo in [
                Box::new(FirstFit::new()) as Box<dyn PackingAlgorithm>,
                Box::new(BestFit::new()),
                Box::new(WorstFit::new()),
                Box::new(LastFit::new()),
                Box::new(RandomFit::seeded(7)),
            ] {
                let out = run(&inst, backend, algo.as_mut());
                for bin in out.bins() {
                    let opener = bin.items[0];
                    let t = inst.item(opener).arrival();
                    let size = inst.item(opener).size;
                    // Bins open at time t that were opened before this one:
                    for other in out.bins() {
                        if other.id >= bin.id || !other.usage.contains_point(t) {
                            continue;
                        }
                        // Level of `other` at t, *after* same-instant
                        // departures, counting only items placed before
                        // the opener (same-instant arrivals run in id
                        // order):
                        let level: Rational = other
                            .items
                            .iter()
                            .map(|id| inst.item(*id))
                            .filter(|r| {
                                r.active_at(t) && (r.arrival() < t || r.id < opener)
                            })
                            .map(|r| r.size)
                            .sum();
                        prop_assert!(
                            level + size > Rational::ONE,
                            "{} on {:?}: item {} opened {} while {} had room (level {} + size {})",
                            out.algorithm(), backend, opener, bin.id, other.id, level, size
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_fit_chooses_earliest_feasible(inst in instance_strategy()) {
        // Sharper FF-specific check: each item went to the
        // earliest-opened bin that had room at its arrival.
        for backend in BACKENDS {
            let out = run(&inst, backend, &mut FirstFit::new());
            for item in inst.items() {
                let chosen = out.bin_of(item.id).unwrap();
                let t = item.arrival();
                for other in out.bins() {
                    if other.id >= chosen || !other.usage.contains_point(t) {
                        continue;
                    }
                    if other.usage.lo() == t && other.items[0] >= item.id {
                        continue; // opened by a later same-instant item
                    }
                    let level: Rational = other
                        .items
                        .iter()
                        .map(|id| inst.item(*id))
                        .filter(|r| {
                            r.active_at(t) && (r.arrival() < t || r.id < item.id)
                        })
                        .map(|r| r.size)
                        .sum();
                    prop_assert!(
                        level + item.size > Rational::ONE,
                        "FF on {:?} skipped feasible earlier bin {} for {}",
                        backend, other.id, item.id
                    );
                }
            }
        }
    }

    /// Rerunning one algorithm value gives the same outcome on each
    /// engine, and `Backend::Auto` reproduces the exact reference bit
    /// for bit.
    #[test]
    fn runs_are_deterministic(inst in instance_strategy()) {
        for mut algo in algorithms() {
            let reference = run(&inst, Backend::Exact, algo.as_mut());
            for backend in BACKENDS {
                let a = run(&inst, backend, algo.as_mut());
                let b = run(&inst, backend, algo.as_mut());
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&a, &reference, "{:?} diverged from the exact reference", backend);
            }
        }
    }

    /// MinUsageTime DBP is invariant under time scaling and
    /// translation: same assignments, costs scaled/unchanged.
    #[test]
    fn time_scale_and_translation_invariance(
        inst in instance_strategy(),
        c_num in 1i128..=5,
        c_den in 1i128..=5,
        dt in -20i128..=20,
    ) {
        let c = rat(c_num, c_den);
        let scaled = inst.scaled_time(c);
        let moved = inst.translated(rat(dt, 1));
        prop_assert_eq!(scaled.mu(), inst.mu());
        for backend in BACKENDS {
            let base = run(&inst, backend, &mut FirstFit::new());

            let scaled_out = run(&scaled, backend, &mut FirstFit::new());
            prop_assert_eq!(scaled_out.assignments(), base.assignments());
            prop_assert_eq!(scaled_out.total_usage(), base.total_usage() * c);

            let moved_out = run(&moved, backend, &mut FirstFit::new());
            prop_assert_eq!(moved_out.assignments(), base.assignments());
            prop_assert_eq!(moved_out.total_usage(), base.total_usage());
        }
    }

    /// Concatenated disjoint phases cost exactly the sum of the
    /// phases (bins never span the gap).
    #[test]
    fn concatenation_is_additive(a in instance_strategy(), b in instance_strategy()) {
        let joined = a.then(&b, Rational::ONE);
        let cost_a = Runner::new(&a).run(&mut FirstFit::new()).unwrap().total_usage();
        let cost_b = Runner::new(&b).run(&mut FirstFit::new()).unwrap().total_usage();
        let cost_joined = Runner::new(&joined).run(&mut FirstFit::new()).unwrap().total_usage();
        prop_assert_eq!(cost_joined, cost_a + cost_b);
    }

    #[test]
    fn hybrid_pools_are_class_pure(inst in instance_strategy()) {
        let mut hff = HybridFirstFit::classic();
        let out = Runner::new(&inst).run(&mut hff).unwrap();
        for bin in out.bins() {
            let classes: Vec<usize> = bin
                .items
                .iter()
                .map(|id| hff.class_of(inst.item(*id).size))
                .collect();
            prop_assert!(classes.windows(2).all(|w| w[0] == w[1]),
                "mixed-class bin {:?}", bin);
        }
    }
}
