//! Equivalence of the tick-compiled integer engine with the exact
//! Rational engine.
//!
//! Tick compilation rescales an instance onto its denominator-LCM
//! grid and replays it in pure `u64`/`u128` arithmetic; nothing about
//! the *packing* may change. These properties replay random
//! instances — dense with equal-time departure/arrival boundaries,
//! exact fills, and mid-run bin closures — through the `TickEngine`
//! and through the linear-scan references on the exact engine
//! (`Backend::Exact`), and require **bit-identical** outcomes:
//! assignments, per-bin usage intervals, exact level integrals and
//! peaks, the `Σ_k |U_k|` objective, and peak concurrency, algorithm
//! name included. Two properties check `Runner`'s `Backend::Auto`
//! against `Backend::Exact`: instances that compile take the tick
//! path, and instances that cannot compile (oversized LCMs,
//! out-of-range horizons) fall back to the Rational engine, both
//! transparently. Another renames every item and
//! requires tick-vs-tick outcomes equal up to the renaming, which
//! pins the compiled arrival-rank numbering and its map back to
//! instance ids. A last property pins `CompiledInstance::compile`
//! itself, table for table, to the comparison-sort compile it replaced.

use dbp_core::prelude::*;
use dbp_core::tick::{CompileError, CompiledInstance, TickEngine, TickEvent, TickItem, TickPolicy};
use dbp_core::{BinRecord, PackingAlgorithm, PackingError, PackingOutcome};
use dbp_numeric::{checked_lcm, rat, Rational};
use dbp_simcore::EventClass;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Strategy: a well-formed instance with up to 40 items on a mixed
/// grid (halves..eighths for sizes, quarters for times), forcing many
/// simultaneous events and nontrivial LCMs.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=8, 1i128..=8, 0i128..=60, 1i128..=20).prop_map(|(num, den, arr4, dur4)| {
        let size = rat(num.min(den), den); // in (0, 1]
        let arrival = rat(arr4, 4);
        let duration = rat(dur4, 4);
        (size, arrival, arrival + duration)
    });
    prop::collection::vec(item, 0..40)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// Strategy: equal-timestamp bursts — every item arrives at one of
/// only three instants and departs at one of three others, so the
/// half-open tie-breaking (departures first, then arrivals in item
/// order) decides nearly every placement.
fn burst_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=6, 0i128..=2, 0i128..=2).prop_map(|(num, slot, hold)| {
        let size = rat(num, 6);
        let arrival = rat(slot * 2, 1);
        let departure = arrival + rat(2 * (hold + 1), 1);
        (size, arrival, departure)
    });
    prop::collection::vec(item, 1..30)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// Strategy: instances guaranteed to overflow tick compilation — a
/// salted mix of normal items plus one item whose timestamp
/// denominators are coprime five-digit primes (LCM far past the
/// `u32::MAX` scale cap).
fn overflow_strategy() -> impl Strategy<Value = Instance> {
    instance_strategy().prop_map(|inst| {
        let mut specs: Vec<_> = inst
            .items()
            .iter()
            .map(|it| (it.size, it.arrival(), it.departure()))
            .collect();
        specs.push((rat(1, 2), rat(1, 99991), rat(1, 99991) + rat(1, 99989)));
        Instance::new(specs).expect("overflow salt keeps specs valid")
    })
}

/// Strategy: forced-overflow bursts — every size exceeds half a bin,
/// so each arrival in a shared-instant burst must open a fresh bin.
/// With a small crossover override the linear→tree scan promotion
/// then fires *inside* an arrival burst.
fn overflow_burst_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=9, 0i128..=1, 1i128..=2).prop_map(|(n, wave, hold)| {
        let size = rat(9 + n, 18); // in (1/2, 1]
        let arrival = rat(wave * 4, 1);
        (size, arrival, arrival + rat(4 * hold, 1))
    });
    prop::collection::vec(item, 1..32)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// Strategy: an instance and a renaming of its items. Random keys
/// shuffle the ids; then the ids of items arriving at one instant are
/// handed back in their original relative order, because the
/// schedule breaks those ties by id and a renaming that reorders them
/// may legitimately change the packing. Returns the instance and
/// `old_of_new`, the original id of each renamed item.
fn renamed_strategy() -> impl Strategy<Value = (Instance, Vec<ItemId>)> {
    prop_oneof![instance_strategy(), burst_strategy()].prop_flat_map(|inst| {
        let n = inst.len();
        (Just(inst), prop::collection::vec(0u32..u32::MAX, n..=n)).prop_map(|(inst, keys)| {
            let mut old_of_new: Vec<ItemId> = (0..inst.len() as u32).map(ItemId).collect();
            old_of_new.sort_by_key(|id| (keys[id.index()], *id));
            // Keep the positions the shuffle gave each arrival instant,
            // but refill them with that instant's ids in original order.
            let mut by_instant: BTreeMap<_, VecDeque<ItemId>> = BTreeMap::new();
            for it in inst.items() {
                by_instant.entry(it.arrival()).or_default().push_back(it.id);
            }
            for id in &mut old_of_new {
                *id = by_instant
                    .get_mut(&inst.item(*id).arrival())
                    .and_then(VecDeque::pop_front)
                    .expect("one id per position");
            }
            (inst, old_of_new)
        })
    })
}

/// The instance with item `k` being the original item `old_of_new[k]`.
fn renamed_instance(inst: &Instance, old_of_new: &[ItemId]) -> Instance {
    let specs = old_of_new
        .iter()
        .map(|&id| {
            let it = inst.item(id);
            (it.size, it.arrival(), it.departure())
        })
        .collect();
    Instance::new(specs).expect("a renaming keeps specs valid")
}

/// A renamed run's assignments and bins, translated back to original
/// ids (assignments re-sorted by the original id).
fn translated(
    out: &PackingOutcome,
    old_of_new: &[ItemId],
) -> (Vec<(ItemId, BinId)>, Vec<BinRecord>) {
    let mut assignments: Vec<(ItemId, BinId)> = out
        .assignments()
        .iter()
        .map(|&(item, bin)| (old_of_new[item.index()], bin))
        .collect();
    assignments.sort();
    let bins = out
        .bins()
        .iter()
        .map(|b| BinRecord {
            items: b.items.iter().map(|i| old_of_new[i.index()]).collect(),
            ..b.clone()
        })
        .collect();
    (assignments, bins)
}

/// Replays `compiled` through the *public per-event* API — one
/// `arrive`/`depart` call per schedule entry, in schedule order —
/// bypassing the burst batching that [`CompiledInstance::run`] does
/// internally, then finishes.
fn replay_per_event(
    compiled: &CompiledInstance,
    policy: TickPolicy,
    crossover: Option<usize>,
) -> Result<PackingOutcome, PackingError> {
    let mut eng = TickEngine::new(compiled, policy);
    if let Some(c) = crossover {
        eng.set_scan_crossover(c);
    }
    let items = compiled.items();
    for ev in compiled.schedule() {
        match ev.class {
            EventClass::Arrival => {
                eng.arrive(ev.item, items[ev.item.index()].size, ev.tick)?;
            }
            EventClass::Departure => {
                eng.depart(ev.item, ev.tick)?;
            }
            EventClass::Control => {}
        }
    }
    eng.finish(policy.name())
}

/// Constructors of the linear First/Best/Worst Fit references.
fn policy_algorithms() -> [fn() -> Box<dyn PackingAlgorithm>; 3] {
    [
        || Box::new(FirstFit::new()),
        || Box::new(BestFit::new()),
        || Box::new(WorstFit::new()),
    ]
}

/// Compiles and runs `policy`, then checks full outcome equality
/// (name included) against the linear reference on the exact engine.
fn assert_tick_equivalent(
    inst: &Instance,
    policy: TickPolicy,
    linear: &mut dyn PackingAlgorithm,
) -> Result<(), TestCaseError> {
    let compiled = CompiledInstance::compile(inst).expect("strategy instances compile");
    let tick: PackingOutcome = compiled.run(policy).expect("tick run succeeds");
    let exact: PackingOutcome = Runner::new(inst)
        .backend(Backend::Exact)
        .run(linear)
        .expect("reference run succeeds");
    prop_assert_eq!(
        &tick,
        &exact,
        "tick {} diverged from reference",
        policy.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn tick_first_fit_is_bit_identical(inst in instance_strategy()) {
        assert_tick_equivalent(&inst, TickPolicy::FirstFit, &mut FirstFit::new())?;
    }

    #[test]
    fn tick_best_fit_is_bit_identical(inst in instance_strategy()) {
        assert_tick_equivalent(&inst, TickPolicy::BestFit, &mut BestFit::new())?;
    }

    #[test]
    fn tick_worst_fit_is_bit_identical(inst in instance_strategy()) {
        assert_tick_equivalent(&inst, TickPolicy::WorstFit, &mut WorstFit::new())?;
    }

    /// Equal-timestamp bursts: the integer engine must reproduce the
    /// heap's departure-before-arrival, item-order tie-breaking.
    #[test]
    fn tick_handles_equal_time_bursts(inst in burst_strategy()) {
        assert_tick_equivalent(&inst, TickPolicy::FirstFit, &mut FirstFit::new())?;
        assert_tick_equivalent(&inst, TickPolicy::BestFit, &mut BestFit::new())?;
    }

    /// Instances that refuse to compile run under `Backend::Auto`
    /// through the Rational fallback — transparently, algorithm name
    /// included — while `Backend::Tick` reports the compile error.
    #[test]
    fn auto_fallback_is_transparent(inst in overflow_strategy()) {
        prop_assert!(CompiledInstance::compile(&inst).is_err());
        for linear in policy_algorithms() {
            let auto = Runner::new(&inst).run(linear().as_mut()).expect("fallback run succeeds");
            let exact = Runner::new(&inst)
                .backend(Backend::Exact)
                .run(linear().as_mut())
                .expect("reference run succeeds");
            prop_assert_eq!(&auto, &exact, "fallback {} diverged", exact.algorithm());
            let strict = Runner::new(&inst).backend(Backend::Tick).run(linear().as_mut());
            prop_assert!(
                matches!(strict, Err(SessionError::Compile(_))),
                "{}: strict tick run did not refuse", exact.algorithm()
            );
        }
    }

    /// The batched replay (one clock check and one bookkeeping flush
    /// per equal-tick burst) must be bit-identical to naive per-event
    /// application through the public API — including across
    /// departure-before-arrival ties at shared instants.
    #[test]
    fn batched_bursts_match_per_event_replay(inst in burst_strategy()) {
        let compiled = CompiledInstance::compile(&inst).expect("burst instances compile");
        for policy in [TickPolicy::FirstFit, TickPolicy::BestFit, TickPolicy::WorstFit] {
            let batched = compiled.run(policy).expect("batched run succeeds");
            let stepped =
                replay_per_event(&compiled, policy, None).expect("per-event run succeeds");
            prop_assert_eq!(
                batched,
                stepped,
                "{} batched/per-event drift",
                policy.name()
            );
        }
    }

    /// Mixed-grid instances through the same batched-vs-per-event
    /// lens: ragged tick spacing, partial fills, mid-run closures.
    #[test]
    fn batched_bursts_match_per_event_on_mixed_grids(inst in instance_strategy()) {
        let compiled = CompiledInstance::compile(&inst).expect("strategy instances compile");
        for policy in [TickPolicy::FirstFit, TickPolicy::BestFit, TickPolicy::WorstFit] {
            let batched = compiled.run(policy).expect("batched run succeeds");
            let stepped =
                replay_per_event(&compiled, policy, None).expect("per-event run succeeds");
            prop_assert_eq!(
                batched,
                stepped,
                "{} batched/per-event drift",
                policy.name()
            );
        }
    }

    /// Forced-overflow bursts with a tiny crossover: the linear→tree
    /// promotion fires in the middle of an arrival burst and must be
    /// invisible — batched, per-event, and exact Rational replays all
    /// agree bit-for-bit.
    #[test]
    fn crossover_promotion_mid_burst_is_invisible(
        inst in overflow_burst_strategy(),
        crossover in 0usize..=8,
    ) {
        let compiled = CompiledInstance::compile(&inst).expect("burst instances compile");
        for (policy, mut reference) in [
            (TickPolicy::FirstFit, Box::new(FirstFit::new()) as Box<dyn PackingAlgorithm>),
            (TickPolicy::BestFit, Box::new(BestFit::new())),
            (TickPolicy::WorstFit, Box::new(WorstFit::new())),
        ] {
            let batched = compiled
                .run_with_crossover(policy, crossover)
                .expect("batched run succeeds");
            let stepped = replay_per_event(&compiled, policy, Some(crossover))
                .expect("per-event run succeeds");
            prop_assert_eq!(
                &batched,
                &stepped,
                "{} batched/per-event drift at crossover {}",
                policy.name(),
                crossover
            );
            let exact = Runner::new(&inst)
                .backend(Backend::Exact)
                .run(reference.as_mut())
                .expect("reference run succeeds");
            prop_assert_eq!(
                &batched,
                &exact,
                "{} diverged from exact at crossover {}",
                policy.name(),
                crossover
            );
        }
    }

    /// Faulty event streams fail identically whatever the scan mode:
    /// a duplicate arrival, an unknown departure, or a clock
    /// regression injected after a valid prefix must surface the same
    /// error from a forced-linear and a forced-tree engine.
    #[test]
    fn engine_errors_are_scan_mode_invariant(
        inst in burst_strategy(),
        cut in 0usize..=60,
        fault in 0u8..3,
    ) {
        let compiled = CompiledInstance::compile(&inst).expect("burst instances compile");
        let items = compiled.items();
        let schedule = compiled.schedule();
        let cut = cut.min(schedule.len());
        let mut linear = TickEngine::new(&compiled, TickPolicy::FirstFit);
        linear.set_scan_crossover(usize::MAX);
        let mut tree = TickEngine::new(&compiled, TickPolicy::FirstFit);
        tree.set_scan_crossover(0);
        let mut active: Vec<ItemId> = Vec::new();
        let mut last_tick = 0u64;
        for ev in &schedule[..cut] {
            match ev.class {
                EventClass::Arrival => {
                    let size = items[ev.item.index()].size;
                    linear.arrive(ev.item, size, ev.tick).expect("valid prefix");
                    tree.arrive(ev.item, size, ev.tick).expect("valid prefix");
                    active.push(ev.item);
                }
                EventClass::Departure => {
                    linear.depart(ev.item, ev.tick).expect("valid prefix");
                    tree.depart(ev.item, ev.tick).expect("valid prefix");
                    active.retain(|&i| i != ev.item);
                }
                EventClass::Control => {}
            }
            last_tick = ev.tick;
        }
        let fresh = ItemId(compiled.len() as u32 + 7);
        // Degrade to the always-available fault when the prefix lacks
        // the precondition (an active item / a nonzero clock).
        let (lin_err, tree_err) = match fault {
            0 if !active.is_empty() => {
                let dup = active[0];
                (
                    linear.arrive(dup, 1, last_tick).unwrap_err(),
                    tree.arrive(dup, 1, last_tick).unwrap_err(),
                )
            }
            2 if last_tick > 0 => (
                linear.arrive(fresh, 1, last_tick - 1).unwrap_err(),
                tree.arrive(fresh, 1, last_tick - 1).unwrap_err(),
            ),
            _ => (
                linear.depart(fresh, last_tick).unwrap_err(),
                tree.depart(fresh, last_tick).unwrap_err(),
            ),
        };
        prop_assert_eq!(&lin_err, &tree_err, "scan modes disagreed on the error");
        let expected_kind = matches!(
            lin_err,
            PackingError::DuplicateItem(_)
                | PackingError::UnknownItem(_)
                | PackingError::TimeRegression { .. }
        );
        prop_assert!(expected_kind, "unexpected error kind: {:?}", lin_err);
    }

    /// `Backend::Auto` on compilable instances takes the tick path
    /// (the same outcome as a strict `Backend::Tick` run) and still
    /// equals the exact reference, algorithm name included.
    #[test]
    fn auto_takes_the_tick_path_when_possible(inst in instance_strategy()) {
        prop_assert!(CompiledInstance::compile(&inst).is_ok());
        for linear in policy_algorithms() {
            let auto = Runner::new(&inst).run(linear().as_mut()).unwrap();
            let tick = Runner::new(&inst)
                .backend(Backend::Tick)
                .run(linear().as_mut())
                .unwrap();
            let exact = Runner::new(&inst)
                .backend(Backend::Exact)
                .run(linear().as_mut())
                .unwrap();
            prop_assert_eq!(&auto, &tick);
            prop_assert_eq!(&auto, &exact);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Renaming items (keeping same-instant arrivals in order) renames
    /// the outcome and changes nothing else: batched, tree-mode and
    /// per-event replays of the renamed instance, translated back,
    /// equal the original replay under every policy. The compiled
    /// tables agree rank for rank.
    #[test]
    fn renaming_items_renames_the_outcome((inst, old_of_new) in renamed_strategy()) {
        let renamed = renamed_instance(&inst, &old_of_new);
        let compiled = CompiledInstance::compile(&inst).expect("strategy instances compile");
        let twin = CompiledInstance::compile(&renamed).expect("a renaming compiles alike");
        prop_assert_eq!(compiled.items(), twin.items());
        let mapped: Vec<ItemId> = twin
            .item_ids()
            .iter()
            .map(|id| old_of_new[id.index()])
            .collect();
        prop_assert_eq!(compiled.item_ids(), &mapped[..]);
        for policy in [TickPolicy::FirstFit, TickPolicy::BestFit, TickPolicy::WorstFit] {
            let original = compiled.run(policy).expect("tick run succeeds");
            let runs = [
                ("run", twin.run(policy)),
                ("tree-mode", twin.run_with_crossover(policy, 1)),
                ("per-event", replay_per_event(&twin, policy, None)),
            ];
            for (label, run) in runs {
                let run = run.expect("renamed run succeeds");
                let (assignments, bins) = translated(&run, &old_of_new);
                prop_assert_eq!(
                    original.assignments(),
                    &assignments[..],
                    "{} {} assignments",
                    policy.name(),
                    label
                );
                prop_assert_eq!(original.bins(), &bins[..], "{} {} bins", policy.name(), label);
                prop_assert_eq!(original.total_usage(), run.total_usage());
                prop_assert_eq!(original.max_open_bins(), run.max_open_bins());
                prop_assert_eq!(original.algorithm(), run.algorithm());
            }
        }
    }
}

/// Denominators whose running LCM grows as items are added.
const COMPILE_DENS: [i128; 8] = [1, 2, 3, 4, 5, 6, 8, 12];

/// Strategy: an item of a tie-heavy instance. It arrives at one of
/// three integer instants and departs one to three units later, on
/// the integer or just past it; sizes and fractional departures take
/// denominators from [`COMPILE_DENS`].
fn tie_item() -> impl Strategy<Value = (Rational, Rational, Rational)> {
    (
        1i128..=12,
        0usize..8,
        0i128..3,
        1i128..=3,
        0usize..8,
        0i128..2,
    )
        .prop_map(|(num, sden, slot, hold, dden, frac)| {
            let (sden, dden) = (COMPILE_DENS[sden], COMPILE_DENS[dden]);
            let arrival = rat(slot, 1);
            (
                rat(1 + (num - 1) % sden, sden),
                arrival,
                arrival + rat(hold, 1) + rat(frac, dden),
            )
        })
}

/// Strategy: instances for the compile reference, in three shapes that
/// between them take both sort paths of `compile`:
/// * ties: 2–80 [`tie_item`]s listed in random order, so long runs of
///   equal `(tick, class)` keys name items out of arrival order, and
///   later items raise both LCMs (the counting path);
/// * wide: 2–60 items arriving at instants 10⁵ apart (still tied) and
///   departing on 1/7 or 1/1000 grids, so the key span is far above
///   `4·m + 64` for `m` events (the comparison path);
/// * short: zero or one item.
///
/// Every instance is then shifted by a random, possibly negative,
/// offset with its own denominator, which moves the origin off zero.
fn compile_strategy() -> impl Strategy<Value = Instance> {
    let wide = (1i128..=8, 0i128..6, 1i128..=3000, 0usize..3).prop_map(|(num, far, dur, fine)| {
        let arrival = rat(far * 100_000, 1);
        (rat(num, 8), arrival, arrival + rat(dur, [1, 7, 1000][fine]))
    });
    let specs = prop_oneof![
        prop::collection::vec(tie_item(), 2..80),
        prop::collection::vec(wide, 2..60),
        prop::collection::vec(tie_item(), 0..2),
    ];
    (specs, -50_000i128..50_000, 0usize..8).prop_map(|(specs, shift, den)| {
        let shift = rat(shift, COMPILE_DENS[den]);
        let specs = specs
            .into_iter()
            .map(|(size, arrival, departure)| (size, arrival + shift, departure + shift))
            .collect();
        Instance::new(specs).expect("strategy produces valid specs")
    })
}

/// Everything `compile` produces, for whole-table comparison.
#[derive(Debug, PartialEq)]
struct Tables {
    origin: Rational,
    time_scale: i128,
    size_scale: i128,
    items: Vec<TickItem>,
    schedule: Vec<TickEvent>,
    item_ids: Vec<ItemId>,
}

/// The tables `compile` built, or its error.
fn tables_of(compiled: Result<CompiledInstance, CompileError>) -> Result<Tables, CompileError> {
    compiled.map(|c| Tables {
        origin: c.origin(),
        time_scale: c.time_scale(),
        size_scale: c.size_scale(),
        items: c.items().to_vec(),
        schedule: c.schedule().to_vec(),
        item_ids: c.item_ids().to_vec(),
    })
}

/// The comparison-sort compile, step for step: the origin, both LCMs
/// folded through `checked_lcm` item by item from the origin's
/// denominator, the tick conversion, a stable `sort_by_key` on
/// `tick << 2 | class`, then the arrival-rank pass.
fn reference_compile(instance: &Instance) -> Result<Tables, CompileError> {
    const MAX_SCALE: i128 = u32::MAX as i128;
    let origin = instance
        .items()
        .iter()
        .map(|it| it.arrival())
        .min()
        .unwrap_or(Rational::ZERO);
    let mut time_scale = origin.denom();
    let mut size_scale = 1;
    for item in instance.items() {
        for den in [item.arrival().denom(), item.departure().denom()] {
            time_scale = checked_lcm(time_scale, den)
                .filter(|&l| l <= MAX_SCALE)
                .ok_or(CompileError::TimeScaleOverflow)?;
        }
        size_scale = checked_lcm(size_scale, item.size.denom())
            .filter(|&l| l <= MAX_SCALE)
            .ok_or(CompileError::SizeScaleOverflow)?;
    }
    let origin_ticks = origin.scaled_to(time_scale);
    let ticks = |t: Rational| {
        origin_ticks
            .and_then(|o| t.scaled_to(time_scale)?.checked_sub(o))
            .or_else(|| (t - origin).scaled_to(time_scale))
            .filter(|&n| (0..=MAX_SCALE).contains(&n))
            .map(|n| n as u64)
            .ok_or(CompileError::TickOverflow)
    };
    let mut by_id = Vec::new();
    let mut schedule = Vec::new();
    for item in instance.items() {
        let (arrival, departure) = (ticks(item.arrival())?, ticks(item.departure())?);
        let size = item.size.scaled_to(size_scale).expect("on the size grid") as u64;
        by_id.push(TickItem {
            size,
            arrival,
            departure,
        });
        for (tick, class) in [
            (arrival, EventClass::Arrival),
            (departure, EventClass::Departure),
        ] {
            schedule.push(TickEvent {
                tick,
                class,
                item: item.id,
            });
        }
    }
    schedule.sort_by_key(|e| e.tick << 2 | e.class as u64);
    let (mut items, mut item_ids) = (Vec::new(), Vec::new());
    let mut rank_of = vec![0u32; by_id.len()];
    for ev in &mut schedule {
        let id = ev.item;
        if ev.class == EventClass::Arrival {
            rank_of[id.index()] = item_ids.len() as u32;
            items.push(by_id[id.index()]);
            item_ids.push(id);
        }
        ev.item = ItemId(rank_of[id.index()]);
    }
    Ok(Tables {
        origin,
        time_scale,
        size_scale,
        items,
        schedule,
        item_ids,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `compile` equals the comparison-sort compile table for table —
    /// origin, scales, items, schedule and rank map — or fails with
    /// the same error, on both sort paths and on instances that
    /// overflow the time LCM.
    #[test]
    fn compile_equals_the_comparison_sort_compile(
        inst in prop_oneof![compile_strategy(), instance_strategy(), overflow_strategy()]
    ) {
        prop_assert_eq!(
            tables_of(CompiledInstance::compile(&inst)),
            reference_compile(&inst)
        );
    }
}

/// The reference on the edge shapes: no items, one item (on a
/// negative, fractional origin), and the three overflow shapes (time
/// LCM, size LCM, horizon).
#[test]
fn compile_equals_the_comparison_sort_compile_on_edge_shapes() {
    let shapes = [
        vec![],
        vec![(rat(2, 3), rat(-7, 4), rat(5, 6))],
        vec![
            (rat(1, 2), rat(1, 99991), rat(2, 1)),
            (rat(1, 2), rat(1, 99989), rat(2, 1)),
        ],
        vec![
            (rat(1, 99991), rat(0, 1), rat(1, 1)),
            (rat(1, 99989), rat(0, 1), rat(1, 1)),
        ],
        vec![
            (rat(1, 2), rat(0, 1), rat(5_000_000_000, 1)),
            (rat(1, 2), rat(1, 2), rat(1, 1)),
        ],
    ];
    let errors = [
        None,
        None,
        Some(CompileError::TimeScaleOverflow),
        Some(CompileError::SizeScaleOverflow),
        Some(CompileError::TickOverflow),
    ];
    for (specs, error) in shapes.into_iter().zip(errors) {
        let inst = Instance::new(specs).unwrap();
        let compiled = tables_of(CompiledInstance::compile(&inst));
        assert_eq!(compiled.as_ref().err(), error.as_ref());
        assert_eq!(compiled, reference_compile(&inst));
    }
}

/// Deterministic anchor at scale: the staircase instance keeps
/// hundreds of bins concurrently open; the compiled replay must agree
/// with the exact engine on every book.
#[test]
fn staircase_tick_equivalence_at_scale() {
    let n: i128 = 1500;
    let window: i128 = 300;
    let mut b = Instance::builder();
    for i in 0..n {
        let size = if i % 5 == 0 {
            rat(11 + (i * 13) % 23, 100)
        } else {
            rat(51 + (i * 7) % 49, 100)
        };
        b = b.item(size, rat(i, 1), rat(i + window, 1));
    }
    let inst = b.build().unwrap();
    let compiled = CompiledInstance::compile(&inst).unwrap();
    assert_eq!(compiled.time_scale(), 1);
    assert_eq!(compiled.size_scale(), 100);
    let tick = compiled.run(TickPolicy::FirstFit).unwrap();
    let exact = Runner::new(&inst)
        .backend(Backend::Exact)
        .run(&mut FirstFit::new())
        .unwrap();
    assert_eq!(tick, exact);
    assert!(tick.max_open_bins() >= window as usize / 2);
}
