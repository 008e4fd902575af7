//! Tick compilation: integer-arithmetic replay of exact instances.
//!
//! The Rational engine ([`crate::engine`]) keeps every book — bin
//! levels, level integrals, usage periods — in exact `i128`
//! fractions, paying gcd reductions on the hot path. Exactness does
//! not require fractions at *runtime*: every concrete instance lies
//! on a finite grid, namely the LCM of its timestamp denominators
//! (for time) and of its size denominators (for size). Rescaling once
//! onto that grid turns the whole replay into `u64`/`u128` machine
//! arithmetic, and the final results convert back to the very same
//! reduced `Rational`s the exact engine would have produced:
//!
//! * **times** become ticks `(t − t₀)·T` where `T` is the time LCM
//!   and `t₀` the earliest arrival (subtracting `t₀` keeps negative
//!   timestamps representable in unsigned ticks);
//! * **sizes** become units `s·S` where `S` is the size LCM; the unit
//!   bin capacity becomes the integer `S`;
//! * **level integrals** accumulate as `Σ units·Δticks` in `u128` and
//!   convert back as the exact fraction over `T·S`.
//!
//! Because the rescaling map is strictly monotone, every comparison
//! an Any-Fit policy makes (feasibility `gap ≥ s`, Best-Fit minima,
//! Worst-Fit maxima, tie-breaks on bin id) has the same answer in
//! tick space as in rational space — so [`TickEngine`] produces
//! **bit-identical** [`PackingOutcome`]s, which the `prop_tick`
//! property suite asserts against the linear-scan references on the
//! exact engine.
//!
//! The engine itself is data-oriented (see `DESIGN.md`, "Hot path
//! anatomy"): live bin state lives in a slot-recycled
//! structure-of-arrays `BinStore`, placement queries below the scan
//! crossover sweep a dense gap array through the vectorized
//! [`crate::scan`] kernels, the active set is an `O(1)` slot map
//! (dense for compiled replays, hashed for streaming sessions), and
//! [`CompiledInstance::run`] applies the pre-sorted schedule in
//! equal-`(tick, class)` **bursts** — one clock check and one
//! bookkeeping flush per burst instead of per event. Compiled items
//! are numbered by arrival rank, so a replay reads its item table and
//! active set front to back whatever order the instance lists them
//! in; ranks map back to instance ids once, in
//! [`TickEngine::finish`].
//!
//! History stays off the hot path: the engine records each placement
//! once, as an arrival-ordered `(item, bin)` assignment, and each bin's
//! usage period, integral and peak in a table indexed by bin id. No
//! bin keeps an item log; `finish` rebuilds every log from the
//! assignments in one counting pass by bin and walks the bin table in
//! id order. Only a session whose item ids are sparse pays a
//! comparison sort, for its assignments.
//!
//! Compilation is linear on every grid the experiments replay. After
//! a pass for the origin, one pass folds both denominator LCMs, where
//! a denominator that already divides its running scale costs one
//! 32-bit remainder. The next converts the items and lays out their
//! events, which a stable counting sort on the packed `(tick, class)`
//! key puts in schedule order; only a key span of `4·m + 64` or more,
//! for `m` events, takes a stable comparison sort instead. `finish`
//! orders its assignments with the same helper.
//!
//! Compilation is checked end to end: if either LCM, any scaled
//! quantity, or the tick horizon leaves the supported range (scales
//! and horizon each capped at `u32::MAX`, which bounds every interim
//! product below `u128`/`i128` limits), [`CompiledInstance::compile`]
//! reports [`CompileError`] and [`crate::session::Runner`] falls back
//! to the linear Any-Fit algorithm on the exact Rational engine —
//! same outcome, slower path.

use crate::algo::PackingAlgorithm;
use crate::bin::BinId;
use crate::engine::{BinRecord, PackingError, PackingOutcome};
use crate::fit_tree::FitTree;
use crate::hash::BuildIdHasher;
use crate::item::{Instance, ItemId};
use crate::probe::{EventKind, NoopProbe, Phase, PhaseProbe, ProbeCounter};
use crate::scan;
use crate::state::{u32_at, u64_at, StateError, StateReader, StateWriter};
use dbp_numeric::{checked_lcm, gcd128, Interval, Rational};
use dbp_simcore::EventClass;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Hard cap on both LCM scales and the tick horizon. Keeping each
/// factor below `2³²` bounds every product the engine forms:
/// per-bin integrals by `capacity·horizon < 2⁶⁴` (fits `u128` and,
/// converted, `i128`), and the conversion denominator `T·S < 2⁶⁴`.
const MAX_SCALE: i128 = u32::MAX as i128;

/// Open-bin count above which a [`TickEngine`] switches its placement
/// scan from the chunked linear sweep ([`crate::scan`]) to the
/// [`FitTree`] index. Re-measured against the vectorized sweep
/// (forced-linear vs forced-tree staircase replays, all three
/// policies): First Fit's chunked sweep only breaks even with the
/// tree near `B ≈ 2048`, Best/Worst Fit — which always scan the full
/// slice — near `B ≈ 512`. The shared constant sits at the BF/WF
/// boundary so no policy regresses while FF keeps a ~1.5× win at
/// `B = 512` (sweep table in `DESIGN.md`, "Hot path anatomy";
/// per-slot-scan era value was 64).
pub const SCAN_CROSSOVER: usize = 512;

/// Vacant-slot / vacant-entry sentinel for bin ids. Bin ids are
/// opening ranks bounded by the item count, which the instance
/// validation caps well below `u32::MAX`.
const VACANT: u32 = u32::MAX;

/// Why an instance could not be rescaled to tick space. Every variant
/// routes a [`crate::session::Backend::Auto`] run to the Rational
/// fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The LCM of timestamp denominators exceeds [`u32::MAX`].
    TimeScaleOverflow,
    /// The LCM of size denominators exceeds [`u32::MAX`].
    SizeScaleOverflow,
    /// A scaled timestamp exceeds the `u32::MAX` tick horizon.
    TickOverflow,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TimeScaleOverflow => write!(f, "time-denominator LCM out of range"),
            CompileError::SizeScaleOverflow => write!(f, "size-denominator LCM out of range"),
            CompileError::TickOverflow => write!(f, "scaled timestamp beyond the tick horizon"),
        }
    }
}

impl std::error::Error for CompileError {}

/// An instance's tick grid: the origin and the two LCM scales, which
/// [`CompiledInstance::compile`] derives before it converts an item
/// and [`crate::session::TickGrid::for_instance`] reads on its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    /// The earliest arrival, subtracted before scaling.
    origin: Rational,
    /// `origin · time_scale`, when the product fits `i128`.
    origin_ticks: Option<i128>,
    /// Ticks per time unit (`T`, the timestamp-denominator LCM).
    pub(crate) time_scale: u32,
    /// Units per bin capacity (`S`, the size-denominator LCM).
    pub(crate) size_scale: u32,
}

impl Grid {
    /// Folds every denominator of `instance` into the two scales, item
    /// by item and in the order arrival, departure, size (the origin's
    /// first), so the first fold to leave range names the error.
    pub(crate) fn of(instance: &Instance) -> Result<Grid, CompileError> {
        let origin = instance
            .items()
            .iter()
            .map(|it| it.arrival())
            .min()
            .unwrap_or(Rational::ZERO);
        let (mut time_scale, mut size_scale) = (1, 1);
        fold_lcm(
            &mut time_scale,
            origin.denom(),
            CompileError::TimeScaleOverflow,
        )?;
        for item in instance.items() {
            for den in [item.arrival().denom(), item.departure().denom()] {
                fold_lcm(&mut time_scale, den, CompileError::TimeScaleOverflow)?;
            }
            fold_lcm(
                &mut size_scale,
                item.size.denom(),
                CompileError::SizeScaleOverflow,
            )?;
        }
        Ok(Grid {
            origin,
            origin_ticks: origin.scaled_to(i128::from(time_scale)),
            time_scale,
            size_scale,
        })
    }

    /// `(t − t₀)·T` in ticks, or [`CompileError::TickOverflow`] past
    /// the `u32::MAX` horizon. Computed as `t·T − t₀·T`: `T` folds in
    /// every timestamp denominator, so both products are integers and
    /// no rational subtraction is needed. A product past `i128` takes
    /// the rational route.
    #[inline]
    pub(crate) fn ticks(&self, t: Rational) -> Result<u64, CompileError> {
        let time_scale = i128::from(self.time_scale);
        self.origin_ticks
            .and_then(|o| t.scaled_to(time_scale)?.checked_sub(o))
            .or_else(|| (t - self.origin).scaled_to(time_scale))
            .filter(|&n| (0..=MAX_SCALE).contains(&n))
            .map(|n| n as u64)
            .ok_or(CompileError::TickOverflow)
    }

    /// A validated size in units: the size LCM folds in its
    /// denominator, and sizes in `(0, 1]` scale into `1..=S`.
    #[inline]
    fn units(&self, size: Rational) -> u64 {
        let units = size
            .scaled_to(i128::from(self.size_scale))
            .expect("size denominator divides the size LCM");
        debug_assert!(
            units >= 1 && units <= i128::from(self.size_scale),
            "validated size in (0,1]"
        );
        units as u64
    }
}

/// Folds a (positive, reduced) denominator into a running LCM scale.
/// After the first few items nearly every denominator already divides
/// the scale, and that case costs one 32-bit remainder; only a new
/// factor pays the checked `i128` LCM and the [`MAX_SCALE`] check.
#[inline]
fn fold_lcm(scale: &mut u32, den: i128, overflow: CompileError) -> Result<(), CompileError> {
    // A denominator above the scale cannot divide it; any other fits
    // `u32`, as the scale does.
    if den <= i128::from(*scale) && scale.is_multiple_of(den as u32) {
        return Ok(());
    }
    *scale = checked_lcm(i128::from(*scale), den)
        .filter(|&l| l <= MAX_SCALE)
        .ok_or(overflow)? as u32;
    Ok(())
}

/// An item rescaled to integer ticks and size units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickItem {
    /// Size in units of `1/S` (always in `1..=capacity`).
    pub size: u64,
    /// Arrival tick, offset from the compile origin.
    pub arrival: u64,
    /// Departure tick (strictly greater than `arrival`).
    pub departure: u64,
}

/// One pre-sorted replay event of a compiled instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickEvent {
    /// Firing tick.
    pub tick: u64,
    /// Departures before arrivals at equal ticks (half-open
    /// intervals), exactly as in the Rational replay.
    pub class: EventClass,
    /// The item arriving or departing, by arrival rank (see
    /// [`CompiledInstance::item_ids`]).
    pub item: ItemId,
}

/// Which Any-Fit selection rule a [`TickEngine`] runs per arrival.
///
/// Names are the canonical algorithm names, so a tick outcome is
/// literally identical — algorithm string included — to the
/// corresponding linear-scan reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickPolicy {
    /// Earliest-opened feasible bin.
    FirstFit,
    /// Highest-level (tightest) feasible bin, ties earliest-opened.
    BestFit,
    /// Lowest-level (roomiest) feasible bin, ties earliest-opened.
    WorstFit,
}

impl TickPolicy {
    /// Canonical algorithm name reported in the outcome.
    pub fn name(self) -> &'static str {
        match self {
            TickPolicy::FirstFit => "FirstFit",
            TickPolicy::BestFit => "BestFit",
            TickPolicy::WorstFit => "WorstFit",
        }
    }

    /// The linear-scan Rational algorithm equivalent to this policy.
    /// It keeps no placement state, so it makes correct decisions
    /// from *any* engine state — which is what the tick-to-exact
    /// promotion of a streaming session needs.
    pub(crate) fn linear_algo(self) -> Box<dyn PackingAlgorithm> {
        match self {
            TickPolicy::FirstFit => Box::new(crate::algo::FirstFit::new()),
            TickPolicy::BestFit => Box::new(crate::algo::BestFit::new()),
            TickPolicy::WorstFit => Box::new(crate::algo::WorstFit::new()),
        }
    }
}

/// An instance rescaled onto its integer grid, with a pre-sorted
/// replay schedule. Built once, replayed per algorithm.
///
/// Items are renumbered by **arrival rank**: the item whose arrival
/// comes `r`-th in the schedule is item `r` of [`items`](Self::items)
/// and of every [`TickEvent`], and [`item_ids`](Self::item_ids)`[r]`
/// is its [`ItemId`] in the instance. Generated instances number
/// items independently of arrival, so replaying them by instance id
/// reads the item table and the engine's active set in random order;
/// by rank, arrivals read both front to back. Outcomes and errors
/// still speak instance ids.
#[derive(Debug, Clone)]
pub struct CompiledInstance {
    origin: Rational,
    time_scale: i128,
    size_scale: i128,
    capacity: u64,
    items: Vec<TickItem>,
    schedule: Vec<TickEvent>,
    /// Arrival rank → instance id, shared with every engine built on
    /// this instance (a permutation of `0..len`).
    ids: Arc<[ItemId]>,
}

impl CompiledInstance {
    /// Rescales `instance` to tick space, or reports why it does not
    /// fit the supported integer range.
    ///
    /// Linear in the item count whenever the schedule's packed
    /// `(tick, class)` keys span fewer than `4·m + 64` values for `m`
    /// events, as on every grid the experiments and the benchmark
    /// replay: the schedule then takes a stable counting sort, and only
    /// a wider span takes a stable comparison sort. A denominator that
    /// already divides its running LCM costs one 32-bit remainder, so
    /// only a new factor pays a checked `i128` LCM.
    pub fn compile(instance: &Instance) -> Result<CompiledInstance, CompileError> {
        let grid = Grid::of(instance)?;
        let mut by_id = Vec::with_capacity(instance.len());
        let mut entries = Vec::with_capacity(instance.len() * 2);
        for item in instance.items() {
            let arrival = grid.ticks(item.arrival())?;
            let departure = grid.ticks(item.departure())?;
            by_id.push(TickItem {
                size: grid.units(item.size),
                arrival,
                departure,
            });
            entries.push(TickEvent {
                tick: arrival,
                class: EventClass::Arrival,
                item: item.id,
            });
            entries.push(TickEvent {
                tick: departure,
                class: EventClass::Departure,
                item: item.id,
            });
        }
        // Stable: full `(tick, class)` ties keep insertion (item)
        // order — the same total order the seq-numbered heap produces.
        // Ticks stay below 2³² and the schedule holds only departures
        // (0) and arrivals (1), so `(tick, class)` packs into one
        // `u64` key of at most twice the horizon.
        let mut schedule = stable_sort_by_key(entries, |e| {
            debug_assert!(e.class != EventClass::Control);
            e.tick << 1 | e.class as u64
        });
        // Renumber in place by arrival rank. An item departs strictly
        // after it arrives, so its rank is known by the time its
        // departure is rewritten; the event order itself is untouched.
        let mut items = Vec::with_capacity(by_id.len());
        let mut ids = Vec::with_capacity(by_id.len());
        let mut rank_of = vec![0u32; by_id.len()];
        for ev in &mut schedule {
            let id = ev.item;
            let rank = match ev.class {
                EventClass::Arrival => {
                    let rank = ids.len() as u32;
                    items.push(by_id[id.index()]);
                    ids.push(id);
                    rank_of[id.index()] = rank;
                    rank
                }
                _ => rank_of[id.index()],
            };
            ev.item = ItemId(rank);
        }
        Ok(CompiledInstance {
            origin: grid.origin,
            time_scale: i128::from(grid.time_scale),
            size_scale: i128::from(grid.size_scale),
            capacity: u64::from(grid.size_scale),
            items,
            schedule,
            ids: ids.into(),
        })
    }

    /// The timestamp subtracted before scaling (earliest arrival).
    pub fn origin(&self) -> Rational {
        self.origin
    }

    /// Ticks per time unit (`T`, the timestamp-denominator LCM).
    pub fn time_scale(&self) -> i128 {
        self.time_scale
    }

    /// Units per bin capacity (`S`, the size-denominator LCM).
    pub fn size_scale(&self) -> i128 {
        self.size_scale
    }

    /// The integer bin capacity (`== size_scale`).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The rescaled items in arrival-rank order: `items()[r]` is the
    /// item of rank `r`, instance id [`item_ids`](Self::item_ids)`[r]`.
    pub fn items(&self) -> &[TickItem] {
        &self.items
    }

    /// The pre-sorted replay schedule (two events per item), by
    /// `(tick, class)` with ties in instance-id order. Sorted once, by
    /// [`compile`](Self::compile): a stable counting sort on the packed
    /// key, or a stable comparison sort when the key span is too wide
    /// for a counting array. Events name items by arrival rank, so
    /// arrivals count `0, 1, 2, …` and [`item_ids`](Self::item_ids)
    /// maps a rank back to its [`ItemId`].
    pub fn schedule(&self) -> &[TickEvent] {
        &self.schedule
    }

    /// Arrival rank → instance id: `item_ids()[r]` is the [`ItemId`]
    /// of the item that [`items`](Self::items) and
    /// [`schedule`](Self::schedule) call `r`. A permutation of
    /// `0..len`.
    pub fn item_ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the instance has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Replays the schedule through a [`TickEngine`] under `policy`.
    /// The schedule is borrowed, never rebuilt: a sweep calls this
    /// once per algorithm on one compiled instance.
    pub fn run(&self, policy: TickPolicy) -> Result<PackingOutcome, PackingError> {
        self.run_probed(policy, &mut NoopProbe)
    }

    /// [`run`](Self::run) with a profiling probe bracketing every
    /// event's phases (see [`PhaseProbe`]). The detached
    /// ([`NoopProbe`]) instantiation is what [`run`](Self::run)
    /// monomorphizes to, at zero cost.
    pub fn run_probed<P: PhaseProbe + ?Sized>(
        &self,
        policy: TickPolicy,
        probe: &mut P,
    ) -> Result<PackingOutcome, PackingError> {
        self.replay(TickEngine::new(self, policy), policy, probe)
    }

    /// Test-only: [`run`](Self::run) with an explicit scan-crossover
    /// override, so property tests can exercise the linear→tree
    /// promotion (including mid-burst) on small instances without
    /// building [`SCAN_CROSSOVER`]-sized ones.
    #[doc(hidden)]
    pub fn run_with_crossover(
        &self,
        policy: TickPolicy,
        crossover: usize,
    ) -> Result<PackingOutcome, PackingError> {
        let mut engine = TickEngine::new(self, policy);
        engine.set_scan_crossover(crossover);
        self.replay(engine, policy, &mut NoopProbe)
    }

    /// Burst-batched replay: the schedule is pre-sorted by
    /// `(tick, class)`, so equal-tick runs of one class are
    /// contiguous and can be applied with one clock check and one
    /// deferred bookkeeping flush per run instead of per event.
    /// Outcome- and error-identical to per-event application (the
    /// `prop_tick` suite pins both).
    fn replay<P: PhaseProbe + ?Sized>(
        &self,
        mut engine: TickEngine,
        policy: TickPolicy,
        probe: &mut P,
    ) -> Result<PackingOutcome, PackingError> {
        let schedule = &self.schedule;
        let mut i = 0;
        while i < schedule.len() {
            let TickEvent { tick, class, .. } = schedule[i];
            let mut j = i + 1;
            while j < schedule.len() && schedule[j].tick == tick && schedule[j].class == class {
                j += 1;
            }
            match class {
                EventClass::Arrival => {
                    engine.arrive_burst(probe, &schedule[i..j], &self.items, tick)?;
                }
                EventClass::Departure => {
                    engine.depart_burst(probe, &schedule[i..j], tick)?;
                }
                EventClass::Control => {}
            }
            i = j;
        }
        engine.finish(policy.name())
    }
}

/// Structure-of-arrays store of live bin state, indexed by *slot*.
///
/// Slots are recycled through a free list when bins close, so every
/// array is bounded by the **peak** number of simultaneously open
/// bins — a long-running streaming session no longer accretes a hole
/// per closed bin the way the old `Vec<Option<TickLive>>` did. Bin
/// *ids* (opening ranks; monotone, never reused) are data here, not
/// indices: `ids[slot]` names the bin currently occupying a slot,
/// [`VACANT`] marks a free one. Only state the hot path updates lives
/// here; a bin's opening tick is in its [`TickRecord`], and its item
/// log is not kept at all (see [`TickEngine::finish`]).
#[derive(Debug, Clone, Default)]
struct BinStore {
    /// Bin id occupying each slot ([`VACANT`] when free).
    ids: Vec<u32>,
    /// Current level in units.
    levels: Vec<u64>,
    /// Active item count.
    counts: Vec<u32>,
    /// Tick of the last level change (integral bookkeeping).
    last_change: Vec<u64>,
    /// `Σ level·Δticks` accrued so far.
    integrals: Vec<u128>,
    /// Peak level in units.
    peaks: Vec<u64>,
    /// Recycled slots of closed bins.
    free: Vec<u32>,
}

impl BinStore {
    /// Opens a bin with one item: recycles a free slot or grows every
    /// array by one. Returns the slot.
    fn alloc(&mut self, id: u32, size: u64, tick: u64) -> u32 {
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            debug_assert_eq!(self.ids[s], VACANT, "free list holds only vacant slots");
            self.ids[s] = id;
            self.levels[s] = size;
            self.counts[s] = 1;
            self.last_change[s] = tick;
            self.integrals[s] = 0;
            self.peaks[s] = size;
            slot
        } else {
            let slot = self.ids.len() as u32;
            self.ids.push(id);
            self.levels.push(size);
            self.counts.push(1);
            self.last_change.push(tick);
            self.integrals.push(0);
            self.peaks.push(size);
            slot
        }
    }

    /// Returns a closed bin's slot to the free list.
    fn release(&mut self, slot: u32) {
        self.ids[slot as usize] = VACANT;
        self.free.push(slot);
    }

    /// Accrues the level integral up to `tick`. Same
    /// zero-length-interval skip as the Rational engine — here it
    /// saves a `u128` multiply instead of two gcds.
    #[inline]
    fn advance_clock(&mut self, slot: usize, tick: u64) {
        let since = self.last_change[slot];
        if tick != since {
            self.integrals[slot] += self.levels[slot] as u128 * (tick - since) as u128;
            self.last_change[slot] = tick;
        }
    }

    /// Number of allocated slots (free or occupied) — the peak open
    /// count so far, and the store's memory high-water mark.
    fn slots(&self) -> usize {
        self.ids.len()
    }
}

/// One bin's integer history, at index `id` of the engine's record
/// table: pushed when the bin opens, completed when it closes,
/// converted in `finish`. The bin's id is its index, and its item log
/// is rebuilt from the assignments. While the bin is open, only
/// `opened` is current; its live integral and peak are in the
/// [`BinStore`].
#[derive(Debug, Clone, Copy)]
struct TickRecord {
    /// Opening tick.
    opened: u64,
    /// Closing tick.
    closed: u64,
    /// `Σ level·Δticks` over the usage period.
    integral: u128,
    /// Peak level in units.
    peak: u64,
}

/// One active item's placement: its bin id, the bin's current
/// [`BinStore`] slot, the item's size in units and its arrival tick
/// (sizes are at most the capacity and ticks within the horizon, both
/// `u32`-bounded). `bin == VACANT` marks a dense-set entry whose item
/// is not active.
#[derive(Debug, Clone, Copy)]
struct ActiveEntry {
    bin: u32,
    slot: u32,
    units: u32,
    arrived: u32,
}

impl ActiveEntry {
    const EMPTY: ActiveEntry = ActiveEntry {
        bin: VACANT,
        slot: 0,
        units: 0,
        arrived: 0,
    };
}

/// The item → placement map, `O(1)` both ways.
///
/// Compiled replays have dense item ids (`0..n`, the compile-time
/// arrival ranks), so a flat vector indexed by id is the whole map.
/// Streaming sessions accept arbitrary caller-minted ids and use a
/// multiply-mix hash map instead, bounded by the peak active count.
/// The old engine kept a sorted `Vec<(ItemId, BinId, u64)>` here,
/// whose binary-search-plus-shift removal dominated departure time
/// (`departure_drain` ≈ 31% in `BENCH_profile.json` before this
/// layout).
#[derive(Debug, Clone)]
enum ActiveSet {
    /// Flat, indexed by `ItemId` — compiled replays (pre-sized to the
    /// instance) and streaming sessions with reasonably small ids.
    Dense(Vec<ActiveEntry>),
    /// Hashed by raw id: the fallback once a caller mints an id past
    /// [`DENSE_ID_LIMIT`], where a flat table would waste memory.
    Sparse(HashMap<u32, ActiveEntry, BuildIdHasher>),
}

/// Largest id the dense active table will *grow* to reach on the
/// streaming path before demoting to the hashed variant (pre-sized
/// compiled tables never grow, so compiled replays are exempt no
/// matter the instance size). 2^20 caps the table at 16 MiB while
/// keeping every realistically-minted id space on the flat O(1) path.
const DENSE_ID_LIMIT: usize = 1 << 20;

/// How a [`TickEngine`] answers placement queries. Starts [`Linear`]
/// and switches permanently to [`Tree`] the first time the open-bin
/// count exceeds the scan crossover — gaps and slots are carried by
/// the linear arrays, so the [`FitTree`] and its id→slot table are
/// rebuilt deterministically at the switch. Both modes implement the
/// exact same selection and tie-break rules, so the mode is invisible
/// in outcomes.
///
/// [`Linear`]: ScanMode::Linear
/// [`Tree`]: ScanMode::Tree
#[derive(Debug, Clone)]
enum ScanMode {
    /// Sweep the open bins in id order through [`crate::scan`].
    Linear(LinearScan),
    /// Query the [`FitTree`] (`O(log B)` descents).
    Tree,
}

/// Parallel arrays over the open bins in opening (id) order — the
/// linear mode's whole state. `gaps` is the dense `u64` slice the
/// vectorized [`crate::scan`] kernels sweep; `ids` (ascending: new
/// ids only grow, so a push keeps it sorted) and `slots` resolve a
/// hit position to the bin's identity and [`BinStore`] slot. A close
/// is one binary-search removal (`O(open)`, the same class as the
/// sweep itself); a departure that leaves the bin open is one
/// binary-search gap update.
#[derive(Debug, Clone, Default)]
struct LinearScan {
    gaps: Vec<u64>,
    ids: Vec<u32>,
    slots: Vec<u32>,
}

/// The integer-arithmetic twin of [`crate::engine::PackingEngine`].
///
/// Mirrors the exact engine's semantics — duplicate and feasibility
/// validation, time-regression checks, half-open interval
/// tie-breaking, peak and integral tracking — but every book is a
/// machine integer in data-oriented storage: bin state in the
/// slot-recycled `BinStore` arrays, the active set in an `O(1)`
/// `ActiveSet` slot map, and placement queries on a dense gap
/// slice via the chunked [`crate::scan`] sweeps while few bins are
/// open, or on a [`FitTree`] over `u64` keys (`gap + 1`, `0`
/// tombstoning closed bins) above [`SCAN_CROSSOVER`]. Conversion
/// back to exact [`Rational`]s happens once, in
/// [`finish`](Self::finish).
#[derive(Debug, Clone)]
pub struct TickEngine {
    policy: TickPolicy,
    capacity: u64,
    origin: Rational,
    /// `origin · time_scale` when the origin lies on the tick grid
    /// (always, for compiled instances: the time LCM folds in the
    /// origin's denominator) — lets [`time_of`](Self::time_of) build
    /// its result as a single fraction instead of a rational add.
    origin_ticks: Option<i128>,
    time_scale: i128,
    size_scale: i128,
    store: BinStore,
    open_count: usize,
    /// Every bin ever opened, by id: bin ids are opening ranks, so
    /// the next id to mint is `records.len()`.
    records: Vec<TickRecord>,
    active: ActiveSet,
    active_count: usize,
    /// Every placement in arrival order, by engine id — the whole
    /// placement history (each bin's item log is rebuilt from it).
    assignments: Vec<(ItemId, BinId)>,
    /// Engine id → instance id for compiled replays (the instance's
    /// [`CompiledInstance::item_ids`]); empty for streaming engines,
    /// whose ids already are the caller's.
    ids: Arc<[ItemId]>,
    scan: ScanMode,
    /// Placement index; empty until `scan` switches to `Tree`. Built
    /// for `policy`, so only Best Fit maintains its ordered set.
    tree: FitTree,
    /// Bin id → store slot, indexed directly by id ([`VACANT`] once
    /// the bin closes); maintained only in tree mode (linear mode
    /// carries slots in its own arrays). Like the tree's leaves it
    /// grows with the bins ever opened, at 4 bytes per bin.
    tree_slots: Vec<u32>,
    /// Open-bin count above which the scan promotes to the tree
    /// ([`SCAN_CROSSOVER`] unless a test overrides it).
    crossover: usize,
    now: Option<u64>,
    max_open: usize,
    /// Current total level across open bins, in units.
    level_total: u64,
    /// `Σ (closed − opened)` ticks over the closed bins.
    closed_ticks: u128,
    /// `Σ opened` ticks over the *open* bins (incremented on open,
    /// decremented on close); with `open_count · now` this yields the
    /// open bins' accrued usage without a scan.
    open_opened_sum: u128,
    /// `Σ units·departed − Σ units·arrived` ticks over every item
    /// (`units·tick` off at each arrival, back on at its departure);
    /// with `level_total · now` this yields `∫ load dt` in unit-ticks
    /// without a scan.
    vol_offset: i128,
}

impl TickEngine {
    /// Creates an engine for one compiled instance under `policy`.
    ///
    /// The engine speaks the compiled numbering: [`arrive`](Self::arrive),
    /// [`depart`](Self::depart) and [`is_active`](Self::is_active) take
    /// the arrival ranks of [`CompiledInstance::schedule`], so the
    /// active set is a flat vector sized to the instance and filled
    /// front to back. Errors and the [`finish`](Self::finish)ed
    /// outcome map ranks back to instance ids (ids past the instance
    /// are reported as given), so driving the schedule event by event
    /// yields exactly [`CompiledInstance::run`]'s result.
    pub fn new(compiled: &CompiledInstance, policy: TickPolicy) -> TickEngine {
        let mut engine = Self::with_grid(
            policy,
            compiled.origin,
            compiled.time_scale,
            compiled.size_scale,
        );
        engine.active = ActiveSet::Dense(vec![ActiveEntry::EMPTY; compiled.len()]);
        engine.assignments.reserve(compiled.len());
        engine.ids = Arc::clone(&compiled.ids);
        engine
    }

    /// Creates an engine on an explicit grid: `time_scale` ticks per
    /// time unit, `size_scale` units per bin capacity, timestamps
    /// measured from `origin`. This is the streaming entry point — a
    /// session declares the grid up front instead of compiling a
    /// complete instance. Item ids are caller-minted, so the active
    /// set starts as an empty flat table that grows to the ids
    /// actually seen (hashed only past [`DENSE_ID_LIMIT`]).
    pub(crate) fn with_grid(
        policy: TickPolicy,
        origin: Rational,
        time_scale: i128,
        size_scale: i128,
    ) -> TickEngine {
        debug_assert!((1..=MAX_SCALE).contains(&time_scale));
        debug_assert!((1..=MAX_SCALE).contains(&size_scale));
        TickEngine {
            policy,
            capacity: size_scale as u64,
            origin_ticks: origin.scaled_to(time_scale),
            origin,
            time_scale,
            size_scale,
            store: BinStore::default(),
            open_count: 0,
            records: Vec::new(),
            // Streams mint their own ids, but almost always from a
            // small space: start flat and demote to hashed only if an
            // id past DENSE_ID_LIMIT ever shows up.
            active: ActiveSet::Dense(Vec::new()),
            active_count: 0,
            assignments: Vec::new(),
            ids: Arc::new([]),
            scan: ScanMode::Linear(LinearScan::default()),
            tree: FitTree::for_policy(policy),
            tree_slots: Vec::new(),
            crossover: SCAN_CROSSOVER,
            now: None,
            max_open: 0,
            level_total: 0,
            closed_ticks: 0,
            open_opened_sum: 0,
            vol_offset: 0,
        }
    }

    /// The Any-Fit policy this engine places by.
    pub(crate) fn policy(&self) -> TickPolicy {
        self.policy
    }

    /// Test-only override of the linear→tree promotion threshold.
    #[doc(hidden)]
    pub fn set_scan_crossover(&mut self, crossover: usize) {
        self.crossover = crossover;
    }

    /// Converts a tick back to the exact original timestamp.
    fn time_of(&self, tick: u64) -> Rational {
        // Grid-aligned origins (the overwhelmingly common case) fold
        // into one reduction; the rational add below would reduce
        // twice. Both forms are the same value, hence the same
        // canonical `Rational`.
        if let Some(o) = self.origin_ticks {
            if let Some(n) = o.checked_add(tick as i128) {
                return Rational::new(n, self.time_scale);
            }
        }
        self.origin + Rational::new(tick as i128, self.time_scale)
    }

    /// The instance id behind engine id `item`. The rank table is a
    /// permutation of `0..n`, so mapping ids past it to themselves
    /// keeps the map one-to-one.
    fn instance_id(&self, item: ItemId) -> ItemId {
        self.ids.get(item.index()).copied().unwrap_or(item)
    }

    /// Converts a unit count back to an exact size/level.
    fn size_of(&self, units: u64) -> Rational {
        Rational::new(units as i128, self.size_scale)
    }

    /// Validates the clock without committing it: rejected events
    /// must leave the engine untouched (sessions rely on this to keep
    /// their journal replay bit-identical to the live run), so
    /// callers advance `self.now` only after the whole event is
    /// validated.
    fn check_time(&self, tick: u64) -> Result<(), PackingError> {
        if let Some(now) = self.now {
            if tick < now {
                return Err(PackingError::TimeRegression {
                    now: self.time_of(now),
                    event: self.time_of(tick),
                });
            }
        }
        Ok(())
    }

    /// Number of currently open bins.
    pub fn open_bins(&self) -> usize {
        self.open_count
    }

    /// Number of currently active items.
    pub fn active_items(&self) -> usize {
        self.active_count
    }

    /// `true` iff `item` arrived and has not departed.
    pub fn is_active(&self, item: ItemId) -> bool {
        self.active_get(item).is_some()
    }

    /// Engine clock as an exact timestamp.
    pub fn now(&self) -> Option<Rational> {
        self.now.map(|t| self.time_of(t))
    }

    /// Total level across the open bins (the current load), exact.
    pub fn load(&self) -> Rational {
        self.size_of(self.level_total)
    }

    /// Number of bins ever opened.
    pub fn bins_opened(&self) -> usize {
        self.records.len()
    }

    /// Peak number of simultaneously open bins so far.
    pub fn peak_open_bins(&self) -> usize {
        self.max_open
    }

    /// Number of bin-state slots the engine has allocated. Slots are
    /// recycled through a free list when bins close, so this is the
    /// peak open-bin count, **not** the (unbounded) number of bins
    /// ever opened — the memory-flatness contract a long-running
    /// streaming session relies on, and what the soak test pins.
    pub fn slot_capacity(&self) -> usize {
        self.store.slots()
    }

    /// Usage time `Σ_k |U_k|` accrued so far (closed bins fully, open
    /// bins up to the engine clock), exact. Mirrors
    /// [`crate::engine::PackingEngine::usage_accrued`].
    pub fn usage_accrued(&self) -> Rational {
        let now = match self.now {
            Some(t) => t,
            None => return Rational::ZERO,
        };
        let open_ticks = self.open_count as u128 * now as u128 - self.open_opened_sum;
        Rational::new((self.closed_ticks + open_ticks) as i128, self.time_scale)
    }

    /// Workload volume `vol(R) = ∫ load dt` accrued so far, exact:
    /// the sum of every bin's level integral to the engine clock.
    /// Mirrors [`crate::engine::PackingEngine::vol_accrued`].
    pub fn vol_accrued(&self) -> Rational {
        let unit_ticks = self.now.map_or(0, |now| {
            self.vol_offset + now as i128 * self.level_total as i128
        });
        Rational::new(unit_ticks, self.time_scale * self.size_scale)
    }

    fn active_get(&self, item: ItemId) -> Option<ActiveEntry> {
        match &self.active {
            ActiveSet::Dense(entries) => entries
                .get(item.index())
                .copied()
                .filter(|e| e.bin != VACANT),
            ActiveSet::Sparse(map) => map.get(&item.0).copied(),
        }
    }

    fn active_insert(&mut self, item: ItemId, entry: ActiveEntry) {
        if item.index() >= DENSE_ID_LIMIT {
            if let ActiveSet::Dense(entries) = &self.active {
                // Only demote when the id would force a *grow* past
                // the limit — a pre-sized compiled table that already
                // covers the id stays flat.
                if item.index() >= entries.len() {
                    self.demote_active();
                }
            }
        }
        match &mut self.active {
            ActiveSet::Dense(entries) => {
                // Compiled ids are in-range by construction; direct
                // callers may mint larger ones, so grow to fit.
                if item.index() >= entries.len() {
                    entries.resize(item.index() + 1, ActiveEntry::EMPTY);
                }
                entries[item.index()] = entry;
            }
            ActiveSet::Sparse(map) => {
                map.insert(item.0, entry);
            }
        }
        self.active_count += 1;
    }

    /// One-way dense → hashed migration for id spaces too large for
    /// a flat table.
    #[cold]
    fn demote_active(&mut self) {
        let prior = std::mem::replace(&mut self.active, ActiveSet::Sparse(HashMap::default()));
        let ActiveSet::Dense(entries) = prior else {
            return;
        };
        let ActiveSet::Sparse(map) = &mut self.active else {
            unreachable!("just installed the sparse variant");
        };
        map.reserve(self.active_count);
        for (i, e) in entries.iter().enumerate() {
            if e.bin != VACANT {
                map.insert(i as u32, *e);
            }
        }
    }

    fn active_remove(&mut self, item: ItemId) -> Option<ActiveEntry> {
        let hit = match &mut self.active {
            ActiveSet::Dense(entries) => match entries.get_mut(item.index()) {
                Some(e) if e.bin != VACANT => Some(std::mem::replace(e, ActiveEntry::EMPTY)),
                _ => None,
            },
            ActiveSet::Sparse(map) => map.remove(&item.0),
        };
        if hit.is_some() {
            self.active_count -= 1;
        }
        hit
    }

    /// The active entries with their item ids, sorted by id (the
    /// promotion's and the state writer's cold paths).
    fn active_sorted(&self) -> Vec<(ItemId, ActiveEntry)> {
        match &self.active {
            ActiveSet::Dense(entries) => entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.bin != VACANT)
                .map(|(i, e)| (ItemId(i as u32), *e))
                .collect(),
            ActiveSet::Sparse(map) => {
                let mut all: Vec<(ItemId, ActiveEntry)> =
                    map.iter().map(|(&id, e)| (ItemId(id), *e)).collect();
                all.sort_unstable_by_key(|&(item, _)| item);
                all
            }
        }
    }

    /// One-way switch from the linear sweep to the [`FitTree`]: the
    /// index and the id→slot table are rebuilt from the linear arrays
    /// (which fully determine them), and every later query descends
    /// the tree.
    fn promote_to_tree(&mut self) {
        let ScanMode::Linear(lin) = std::mem::replace(&mut self.scan, ScanMode::Tree) else {
            return;
        };
        self.tree.clear();
        self.tree_slots.clear();
        self.tree_slots.resize(self.records.len(), VACANT);
        for ((&id, &slot), &gap) in lin.ids.iter().zip(&lin.slots).zip(&lin.gaps) {
            self.tree.open(BinId(id), gap + 1);
            self.tree_slots[id as usize] = slot;
        }
    }

    /// Processes an arrival: queries the policy, validates the
    /// placement, applies it. Returns the chosen bin.
    pub fn arrive(&mut self, item: ItemId, size: u64, tick: u64) -> Result<BinId, PackingError> {
        self.arrive_probed(&mut NoopProbe, item, size, tick)
    }

    /// [`arrive`](Self::arrive) with a profiling probe (phase spans
    /// plus the bins-examined / descent-depth sample). The detached
    /// [`NoopProbe`] instantiation monomorphizes to the plain
    /// [`arrive`](Self::arrive) machine code.
    pub fn arrive_probed<P: PhaseProbe + ?Sized>(
        &mut self,
        probe: &mut P,
        item: ItemId,
        size: u64,
        tick: u64,
    ) -> Result<BinId, PackingError> {
        probe.event(EventKind::Arrival);
        self.check_time(tick)?;
        let bin = self.apply_arrival(probe, item, size, tick)?;
        self.now = Some(tick);
        self.level_total += size;
        self.vol_offset -= size as i128 * tick as i128;
        self.max_open = self.max_open.max(self.open_count);
        Ok(bin)
    }

    /// Applies one arrival burst — every event shares `tick`. One
    /// clock check up front; `level_total`, `vol_offset` and
    /// `max_open` flush once at the end (arrivals never close bins, so
    /// `open_count` is non-decreasing across the burst and its final
    /// value is the burst maximum).
    fn arrive_burst<P: PhaseProbe + ?Sized>(
        &mut self,
        probe: &mut P,
        events: &[TickEvent],
        items: &[TickItem],
        tick: u64,
    ) -> Result<(), PackingError> {
        self.check_time(tick)?;
        self.now = Some(tick);
        let mut units = 0u64;
        for ev in events {
            probe.event(EventKind::Arrival);
            let size = items[ev.item.index()].size;
            self.apply_arrival(probe, ev.item, size, tick)?;
            units += size;
        }
        self.level_total += units;
        self.vol_offset -= units as i128 * tick as i128;
        self.max_open = self.max_open.max(self.open_count);
        Ok(())
    }

    /// The shared arrival core: everything except the clock check and
    /// the `level_total`/`vol_offset`/`max_open` bookkeeping, which the
    /// per-event and burst entry points fold in at their own cadence.
    fn apply_arrival<P: PhaseProbe + ?Sized>(
        &mut self,
        probe: &mut P,
        item: ItemId,
        size: u64,
        tick: u64,
    ) -> Result<BinId, PackingError> {
        if self.is_active(item) {
            return Err(PackingError::DuplicateItem(self.instance_id(item)));
        }
        probe.enter(Phase::FitScan);
        // A hit resolves to (bin id, store slot, linear position).
        let chosen = match &self.scan {
            ScanMode::Linear(lin) => {
                let hit = match self.policy {
                    TickPolicy::FirstFit => scan::first_fit(&lin.gaps, size),
                    TickPolicy::BestFit => scan::best_fit(&lin.gaps, size),
                    TickPolicy::WorstFit => scan::worst_fit(&lin.gaps, size),
                };
                if probe.is_active() {
                    // FF stops at its hit; BF/WF examine every bin.
                    let scanned = match (self.policy, hit) {
                        (TickPolicy::FirstFit, Some(pos)) => pos as u64 + 1,
                        _ => lin.gaps.len() as u64,
                    };
                    probe.count(ProbeCounter::BinsScanned, scanned);
                }
                hit.map(|pos| (lin.ids[pos], lin.slots[pos], pos))
            }
            // Shifted-key queries: stored keys are `gap + 1`, so
            // probe with `size + 1`; sizes are ≥ 1, so the probe is
            // ≥ 2 and can never match a tombstone.
            ScanMode::Tree => {
                let (hit, depth) = match self.policy {
                    TickPolicy::FirstFit => self.tree.first_fit_counted(size + 1),
                    TickPolicy::BestFit => self.tree.best_fit_counted(size + 1),
                    TickPolicy::WorstFit => self.tree.worst_fit_counted(size + 1),
                };
                if probe.is_active() {
                    probe.count(ProbeCounter::TreeDepth, depth as u64);
                }
                hit.map(|bin_id| {
                    let slot = self.tree_slots[bin_id.index()];
                    debug_assert_ne!(slot, VACANT, "tree hit resolves to a live slot");
                    (bin_id.0, slot, usize::MAX)
                })
            }
        };
        probe.exit(Phase::FitScan);
        let (bin_id, slot) = match chosen {
            Some((id, slot, pos)) => {
                let s = slot as usize;
                debug_assert!(
                    self.store.levels[s] + size <= self.capacity,
                    "scan returned an infeasible bin"
                );
                probe.enter(Phase::PlacementCommit);
                probe.enter(Phase::ClockAdvance);
                self.store.advance_clock(s, tick);
                probe.exit(Phase::ClockAdvance);
                let level = self.store.levels[s] + size;
                self.store.levels[s] = level;
                self.store.counts[s] += 1;
                if level > self.store.peaks[s] {
                    self.store.peaks[s] = level;
                }
                probe.exit(Phase::PlacementCommit);
                probe.enter(Phase::TreeSync);
                match &mut self.scan {
                    ScanMode::Linear(lin) => lin.gaps[pos] -= size,
                    ScanMode::Tree => self.tree.place(BinId(id), size),
                }
                probe.exit(Phase::TreeSync);
                (BinId(id), slot)
            }
            None => {
                let id = self.records.len() as u32;
                probe.enter(Phase::PlacementCommit);
                // Closing fields are filled in when the bin closes.
                self.records.push(TickRecord {
                    opened: tick,
                    closed: tick,
                    integral: 0,
                    peak: size,
                });
                let slot = self.store.alloc(id, size, tick);
                self.open_count += 1;
                self.open_opened_sum += tick as u128;
                probe.exit(Phase::PlacementCommit);
                probe.enter(Phase::TreeSync);
                let crossed = match &mut self.scan {
                    ScanMode::Linear(lin) => {
                        lin.gaps.push(self.capacity - size);
                        lin.ids.push(id); // ids ascend: stays sorted
                        lin.slots.push(slot);
                        self.open_count > self.crossover
                    }
                    ScanMode::Tree => {
                        self.tree.open(BinId(id), self.capacity - size + 1);
                        let i = id as usize;
                        if i >= self.tree_slots.len() {
                            self.tree_slots.resize(i + 1, VACANT);
                        }
                        self.tree_slots[i] = slot;
                        false
                    }
                };
                if crossed {
                    self.promote_to_tree();
                }
                probe.exit(Phase::TreeSync);
                (BinId(id), slot)
            }
        };
        probe.enter(Phase::PlacementCommit);
        self.active_insert(
            item,
            ActiveEntry {
                bin: bin_id.0,
                slot,
                units: u32::try_from(size).expect("sizes are at most the u32 capacity"),
                arrived: u32::try_from(tick).expect("ticks stay within the u32 horizon"),
            },
        );
        self.assignments.push((item, bin_id));
        probe.exit(Phase::PlacementCommit);
        Ok(bin_id)
    }

    /// Processes a departure: removes the item from its bin, closing
    /// the bin if it empties.
    pub fn depart(&mut self, item: ItemId, tick: u64) -> Result<BinId, PackingError> {
        self.depart_probed(&mut NoopProbe, item, tick)
            .map(|(bin, _)| bin)
    }

    /// [`depart`](Self::depart) with a profiling probe; see
    /// [`arrive_probed`](Self::arrive_probed) for the probe contract.
    /// Returns the bin the item left and the tick it arrived at.
    pub fn depart_probed<P: PhaseProbe + ?Sized>(
        &mut self,
        probe: &mut P,
        item: ItemId,
        tick: u64,
    ) -> Result<(BinId, u64), PackingError> {
        probe.event(EventKind::Departure);
        self.check_time(tick)?;
        let entry = self.apply_departure(probe, item, tick)?;
        self.now = Some(tick);
        self.level_total -= u64::from(entry.units);
        self.vol_offset += i128::from(entry.units) * tick as i128;
        Ok((BinId(entry.bin), u64::from(entry.arrived)))
    }

    /// Applies one departure burst — every event shares `tick`. One
    /// clock check up front, one `level_total` and `vol_offset` flush
    /// at the end.
    fn depart_burst<P: PhaseProbe + ?Sized>(
        &mut self,
        probe: &mut P,
        events: &[TickEvent],
        tick: u64,
    ) -> Result<(), PackingError> {
        self.check_time(tick)?;
        self.now = Some(tick);
        let mut units = 0u64;
        for ev in events {
            probe.event(EventKind::Departure);
            units += u64::from(self.apply_departure(probe, ev.item, tick)?.units);
        }
        self.level_total -= units;
        self.vol_offset += units as i128 * tick as i128;
        Ok(())
    }

    /// The shared departure core: everything except the clock check
    /// and the `level_total`/`vol_offset` bookkeeping. Returns the
    /// departed item's entry.
    fn apply_departure<P: PhaseProbe + ?Sized>(
        &mut self,
        probe: &mut P,
        item: ItemId,
        tick: u64,
    ) -> Result<ActiveEntry, PackingError> {
        probe.enter(Phase::DepartureDrain);
        let Some(entry) = self.active_remove(item) else {
            probe.exit(Phase::DepartureDrain);
            return Err(PackingError::UnknownItem(self.instance_id(item)));
        };
        let s = entry.slot as usize;
        probe.enter(Phase::ClockAdvance);
        self.store.advance_clock(s, tick);
        probe.exit(Phase::ClockAdvance);
        let units = u64::from(entry.units);
        self.store.levels[s] -= units;
        self.store.counts[s] -= 1;
        let closed_now = self.store.counts[s] == 0;
        if closed_now {
            debug_assert_eq!(self.store.levels[s], 0, "empty bin must have zero level");
            let rec = &mut self.records[entry.bin as usize];
            rec.closed = tick;
            rec.integral = self.store.integrals[s];
            rec.peak = self.store.peaks[s];
            let opened = rec.opened;
            self.open_count -= 1;
            self.open_opened_sum -= opened as u128;
            self.closed_ticks += (tick - opened) as u128;
            self.store.release(entry.slot);
        }
        probe.exit(Phase::DepartureDrain);
        probe.enter(Phase::TreeSync);
        match &mut self.scan {
            ScanMode::Linear(lin) => {
                let at = lin
                    .ids
                    .binary_search(&entry.bin)
                    .expect("departing item's bin is in the scan order");
                if closed_now {
                    lin.gaps.remove(at);
                    lin.ids.remove(at);
                    lin.slots.remove(at);
                } else {
                    lin.gaps[at] += units;
                }
            }
            ScanMode::Tree => {
                if closed_now {
                    self.tree.close(BinId(entry.bin));
                    self.tree_slots[entry.bin as usize] = VACANT;
                } else {
                    self.tree
                        .set_gap(BinId(entry.bin), self.capacity - self.store.levels[s] + 1);
                }
            }
        }
        probe.exit(Phase::TreeSync);
        Ok(entry)
    }

    /// Converts the live integer books back to exact `Rational`s and
    /// hands them to a [`crate::engine::PackingEngine`], mid-run.
    ///
    /// This is the tick-to-exact *promotion* behind `Backend::Auto`
    /// streaming sessions: when an event leaves the declared grid,
    /// the session continues on the exact engine from precisely the
    /// state the integer replay reached. Every conversion below is
    /// the inverse of the compile-time rescaling, so the promoted
    /// engine's books are bit-identical to what an exact engine fed
    /// the same prefix would hold. Bin item logs are rebuilt from the
    /// assignments as in [`finish`](Self::finish), and each open
    /// bin's contents are the active occurrences in its log.
    pub(crate) fn into_exact(self) -> crate::engine::PackingEngine {
        use crate::bin::OpenBin;
        use crate::engine::LiveBin;
        debug_assert!(self.ids.is_empty(), "only streaming engines promote");
        let denom = self.time_scale * self.size_scale;
        let act = self.active_sorted();
        let logs = item_logs(&self.assignments, self.records.len());
        // Bin id → store slot of the open bins, so the walk below
        // visits bins in id (opening) order, as the exact engine's
        // books list them.
        let mut slot_of = vec![VACANT; self.records.len()];
        for (slot, &id) in self.store.ids.iter().enumerate() {
            if id != VACANT {
                slot_of[id as usize] = slot as u32;
            }
        }
        // One consumed-flag per active entry: an id may recur in a
        // bin's item log (depart, then re-arrive), but at most one
        // occurrence is active — the *latest* one, which is the
        // occurrence the exact engine would hold in `contents`.
        let mut consumed = vec![false; act.len()];
        let mut open = Vec::with_capacity(self.open_count);
        let mut live = Vec::with_capacity(self.open_count);
        let mut closed = Vec::with_capacity(self.records.len() - self.open_count);
        let bins = self.records.iter().zip(&slot_of).zip(logs);
        for (id, ((rec, &slot), items)) in bins.enumerate() {
            let bin_id = BinId(id as u32);
            if slot == VACANT {
                closed.push(BinRecord {
                    id: bin_id,
                    usage: Interval::new(self.time_of(rec.opened), self.time_of(rec.closed)),
                    items,
                    level_integral: Rational::new(rec.integral as i128, denom),
                    peak_level: self.size_of(rec.peak),
                });
                continue;
            }
            let s = slot as usize;
            let count = self.store.counts[s] as usize;
            let mut picked: Vec<(ItemId, Rational)> = Vec::with_capacity(count);
            for &item in items.iter().rev() {
                if picked.len() == count {
                    break;
                }
                if let Ok(pos) = act.binary_search_by(|&(r, _)| r.cmp(&item)) {
                    if act[pos].1.bin == bin_id.0 && !consumed[pos] {
                        consumed[pos] = true;
                        picked.push((item, self.size_of(u64::from(act[pos].1.units))));
                    }
                }
            }
            picked.reverse();
            open.push(OpenBin {
                id: bin_id,
                opened_at: self.time_of(rec.opened),
                level: self.size_of(self.store.levels[s]),
                contents: picked,
            });
            live.push(LiveBin {
                opened_at: self.time_of(rec.opened),
                items,
                level_integral: Rational::new(self.store.integrals[s] as i128, denom),
                peak_level: self.size_of(self.store.peaks[s]),
                last_change: self.time_of(self.store.last_change[s]),
            });
        }
        let active = act
            .iter()
            .map(|&(item, e)| {
                let size = self.size_of(u64::from(e.units));
                (item, BinId(e.bin), size, self.time_of(u64::from(e.arrived)))
            })
            .collect();
        let now = self.now.map(|t| self.time_of(t));
        crate::engine::PackingEngine::from_books(
            open,
            live,
            closed,
            active,
            self.assignments,
            self.records.len() as u32,
            now,
            self.max_open,
        )
    }

    /// Number of arrivals applied: every arrival records one
    /// assignment.
    pub(crate) fn arrivals(&self) -> usize {
        self.assignments.len()
    }

    /// Appends a streaming engine's books to a state blob (see
    /// [`crate::state`]): the clock, the peak open count, the scan
    /// crossover and mode, then the bin records, the bin store slot by
    /// slot with its free list, the live active entries and the
    /// assignments. Ticks and levels fit `u32` and integrals `u64`
    /// (`capacity·horizon < 2⁶⁴`), so each is written at that width.
    pub(crate) fn write_state(&self, w: &mut StateWriter) -> Result<(), StateError> {
        debug_assert!(self.ids.is_empty(), "only streaming engines write state");
        let narrow = |v: u64| {
            u32::try_from(v).map_err(|_| StateError::Unsupported("a tick or level past u32"))
        };
        let wide =
            |v: u128| u64::try_from(v).map_err(|_| StateError::Unsupported("an integral past u64"));
        let now = self
            .now
            .ok_or(StateError::Unsupported("the engine has applied no event"))?;
        w.u32(narrow(now)?);
        w.u64(self.max_open as u64);
        w.u64(self.crossover as u64);
        w.bool(matches!(self.scan, ScanMode::Tree));
        w.len(self.records.len())?;
        for rec in &self.records {
            w.u32(narrow(rec.opened)?);
            w.u32(narrow(rec.closed)?);
            w.u64(wide(rec.integral)?);
            w.u32(narrow(rec.peak)?);
        }
        let store = &self.store;
        w.len(store.slots())?;
        for s in 0..store.slots() {
            w.u32(store.ids[s]);
            w.u32(narrow(store.levels[s])?);
            w.u32(store.counts[s]);
            w.u32(narrow(store.last_change[s])?);
            w.u64(wide(store.integrals[s])?);
            w.u32(narrow(store.peaks[s])?);
        }
        w.len(store.free.len())?;
        for &slot in &store.free {
            w.u32(slot);
        }
        let (sparse, dense_len) = match &self.active {
            ActiveSet::Dense(entries) => (false, entries.len()),
            ActiveSet::Sparse(_) => (true, 0),
        };
        w.bool(sparse);
        w.len(dense_len)?;
        w.len(self.active_count)?;
        let mut write_entry = |id: u32, e: &ActiveEntry| {
            w.u32(id);
            w.u32(e.bin);
            w.u32(e.units);
            w.u32(e.arrived);
        };
        // In id order, so that equal books write equal bytes.
        for (item, e) in self.active_sorted() {
            write_entry(item.0, &e);
        }
        w.len(self.assignments.len())?;
        for &(item, bin) in &self.assignments {
            w.u32(item.0);
            w.u32(bin.0);
        }
        Ok(())
    }

    /// Rebuilds a streaming engine from books [`write_state`]
    /// (Self::write_state) wrote, on the grid of `time_scale` ticks
    /// and `size_scale` units from the origin tick `origin_ticks`.
    ///
    /// Every index is checked against the table it points into, every
    /// open bin's level and item count against its live entries, and
    /// every active item's latest assignment against its bin, so books
    /// that decode are books the engine can run on. What they
    /// determine is rebuilt instead of read: the open and active
    /// counts, the running sums, the linear-scan arrays, and the
    /// [`FitTree`] with its id → slot table in tree mode.
    pub(crate) fn read_state(
        r: &mut StateReader,
        policy: TickPolicy,
        origin_ticks: i128,
        time_scale: i128,
        size_scale: i128,
    ) -> Result<TickEngine, StateError> {
        use StateError::Invalid;
        let origin = Rational::new(origin_ticks, time_scale);
        let mut engine = TickEngine::with_grid(policy, origin, time_scale, size_scale);
        let capacity = engine.capacity;
        let now = u64::from(r.u32()?);
        if origin_ticks.checked_add(i128::from(now)).is_none() {
            return Err(Invalid("the clock leaves the time range"));
        }
        let max_open = usize::try_from(r.u64()?).map_err(|_| Invalid("the peak open count"))?;
        engine.crossover = usize::try_from(r.u64()?).map_err(|_| Invalid("the scan crossover"))?;
        let tree = r.bool("the scan mode")?;

        let rows = r.rows(20)?;
        if rows.len() >= VACANT as usize {
            return Err(Invalid("more bins than bin ids"));
        }
        let mut records = Vec::with_capacity(rows.len());
        for row in rows {
            let rec = TickRecord {
                opened: u64::from(u32_at(row, 0)),
                closed: u64::from(u32_at(row, 1)),
                integral: u128::from(u64_at(row, 8)),
                peak: u64::from(u32_at(row, 4)),
            };
            if rec.opened > now || rec.peak > capacity {
                return Err(Invalid("a bin record"));
            }
            records.push(rec);
        }

        let rows = r.rows(28)?;
        let store = &mut engine.store;
        let slots = rows.len();
        store.ids.reserve(slots);
        store.levels.reserve(slots);
        store.counts.reserve(slots);
        store.last_change.reserve(slots);
        store.integrals.reserve(slots);
        store.peaks.reserve(slots);
        // Bin id → slot of the open bins.
        let mut slot_of = vec![VACANT; records.len()];
        for (slot, row) in rows.enumerate() {
            let id = u32_at(row, 0);
            let (level, count, last_change) = (
                u64::from(u32_at(row, 1)),
                u32_at(row, 2),
                u64::from(u32_at(row, 3)),
            );
            let peak = u64::from(u32_at(row, 6));
            if id != VACANT {
                let open = slot_of
                    .get_mut(id as usize)
                    .ok_or(Invalid("a slot's bin id"))?;
                if *open != VACANT
                    || level > capacity
                    || count == 0
                    || last_change > now
                    || peak > capacity
                {
                    return Err(Invalid("an open bin"));
                }
                *open = slot as u32;
            }
            store.ids.push(id);
            store.levels.push(level);
            store.counts.push(count);
            store.last_change.push(last_change);
            store.integrals.push(u128::from(u64_at(row, 16)));
            store.peaks.push(peak);
        }
        let mut listed = vec![false; slots];
        for row in r.rows(4)? {
            let slot = u32_at(row, 0);
            match listed.get_mut(slot as usize) {
                Some(seen) if !*seen && store.ids[slot as usize] == VACANT => *seen = true,
                _ => return Err(Invalid("the free list")),
            }
            store.free.push(slot);
        }
        if store.free.len() != store.ids.iter().filter(|&&id| id == VACANT).count() {
            return Err(Invalid("the free list"));
        }

        let sparse = r.bool("the active-set layout")?;
        let dense_len = r.u32()? as usize;
        if dense_len > DENSE_ID_LIMIT || (sparse && dense_len != 0) {
            return Err(Invalid("the active-set layout"));
        }
        let rows = r.rows(16)?;
        let active_count = rows.len();
        let mut active = if sparse {
            let mut map = HashMap::default();
            map.reserve(active_count);
            ActiveSet::Sparse(map)
        } else {
            ActiveSet::Dense(vec![ActiveEntry::EMPTY; dense_len])
        };
        // Each open bin's level and item count, summed over its items.
        let mut sums = vec![(0u64, 0u32); slots];
        for row in rows {
            let (id, bin, units, arrived) = (
                u32_at(row, 0),
                u32_at(row, 1),
                u32_at(row, 2),
                u32_at(row, 3),
            );
            let slot = match slot_of.get(bin as usize) {
                Some(&slot) if slot != VACANT => slot,
                _ => return Err(Invalid("an active item's bin")),
            };
            if units == 0 || u64::from(units) > capacity || u64::from(arrived) > now {
                return Err(Invalid("an active item"));
            }
            let entry = ActiveEntry {
                bin,
                slot,
                units,
                arrived,
            };
            let fresh = match &mut active {
                ActiveSet::Dense(entries) => match entries.get_mut(id as usize) {
                    Some(e) if e.bin == VACANT => {
                        *e = entry;
                        true
                    }
                    _ => false,
                },
                ActiveSet::Sparse(map) => map.insert(id, entry).is_none(),
            };
            let sum = &mut sums[slot as usize];
            sum.0 += u64::from(units);
            sum.1 += 1;
            if !fresh || sum.1 > store.counts[slot as usize] {
                return Err(Invalid("an active item"));
            }
        }
        for (s, &(level, count)) in sums.iter().enumerate() {
            if store.ids[s] != VACANT && (level, count) != (store.levels[s], store.counts[s]) {
                return Err(Invalid("an open bin's level or item count"));
            }
        }

        let rows = r.rows(8)?;
        let mut assignments = Vec::with_capacity(rows.len());
        for row in rows {
            let bin = u32_at(row, 1);
            if bin as usize >= records.len() {
                return Err(Invalid("an assignment's bin"));
            }
            assignments.push((ItemId(u32_at(row, 0)), BinId(bin)));
        }
        // An active item's latest placement must be its bin: the
        // promotion to the exact engine finds its contents that way.
        // Live items arrived recently, so the walk back stops early.
        engine.active = active;
        let mut placed: HashSet<u32, BuildIdHasher> = HashSet::default();
        for &(item, bin) in assignments.iter().rev() {
            if placed.len() == active_count {
                break;
            }
            if let Some(e) = engine.active_get(item) {
                if placed.insert(item.0) && e.bin != bin.0 {
                    return Err(Invalid("an active item's placement"));
                }
            }
        }
        if placed.len() != active_count {
            return Err(Invalid("an active item without a placement"));
        }

        // The running sums and the scan index, from the books.
        let store = &engine.store;
        let mut lin = LinearScan::default();
        if tree {
            engine.tree_slots = vec![VACANT; records.len()];
        }
        for (id, (rec, &slot)) in records.iter().zip(&slot_of).enumerate() {
            if slot == VACANT {
                if rec.closed < rec.opened || rec.closed > now {
                    return Err(Invalid("a closed bin's usage period"));
                }
                engine.closed_ticks += u128::from(rec.closed - rec.opened);
                engine.vol_offset += rec.integral as i128;
                continue;
            }
            let s = slot as usize;
            let level = store.levels[s];
            engine.open_count += 1;
            engine.open_opened_sum += u128::from(rec.opened);
            engine.level_total = engine
                .level_total
                .checked_add(level)
                .ok_or(Invalid("the total level"))?;
            engine.vol_offset +=
                store.integrals[s] as i128 - i128::from(level) * i128::from(store.last_change[s]);
            let gap = capacity - level;
            if tree {
                engine.tree.open(BinId(id as u32), gap + 1);
                engine.tree_slots[id] = slot;
            } else {
                lin.gaps.push(gap);
                lin.ids.push(id as u32);
                lin.slots.push(slot);
            }
        }
        if max_open < engine.open_count || max_open > records.len() {
            return Err(Invalid("the peak open count"));
        }
        engine.scan = if tree {
            ScanMode::Tree
        } else {
            ScanMode::Linear(lin)
        };
        engine.records = records;
        engine.assignments = assignments;
        engine.active_count = active_count;
        engine.max_open = max_open;
        engine.now = Some(now);
        Ok(engine)
    }

    /// Finalizes the run, converting every integer book back to the
    /// exact `Rational` form of [`PackingOutcome`]. Fails if items
    /// are still active.
    ///
    /// Runs no comparison sort unless a session's ids are sparse: the
    /// bin records are already in id order, each bin's item log is
    /// rebuilt from the arrival-ordered assignments in one counting
    /// pass by bin, and the assignments reach id order by a counting
    /// sort (see `sort_by_item`).
    pub fn finish(mut self, algorithm: &str) -> Result<PackingOutcome, PackingError> {
        if self.active_count > 0 {
            return Err(PackingError::ItemsStillActive(self.active_count));
        }
        debug_assert_eq!(self.open_count, 0);
        // No item is active, so nothing reads the live books again:
        // free them before the outcome's allocations join them.
        self.store = BinStore::default();
        self.active = ActiveSet::Dense(Vec::new());
        self.scan = ScanMode::Tree;
        self.tree = FitTree::for_policy(self.policy);
        self.tree_slots = Vec::new();
        // Ranks → instance ids once, before the logs and the sort
        // read the assignments.
        let mut assignments = std::mem::take(&mut self.assignments);
        if !self.ids.is_empty() {
            for entry in &mut assignments {
                entry.0 = self.instance_id(entry.0);
            }
        }
        let logs = item_logs(&assignments, self.records.len());
        let assignments = sort_by_item(assignments);
        // Both scales ≤ 2³², so the product fits i128. Every
        // `integral/denom` shares whatever factor the whole batch
        // shares with the grid denominator (usually most of `T·S` —
        // integrals are sums of `level·Δtick` products on the same
        // grid), so that factor is divided out once, here, and the
        // per-bin `Rational::new` reduction runs on pre-shrunk
        // operands. `Rational::new` always reduces fully, so the
        // results are bit-identical to the unbatched form.
        let denom = self.time_scale * self.size_scale;
        let mut shared = denom;
        for rec in &self.records {
            if shared == 1 {
                break;
            }
            shared = gcd128(rec.integral as i128, shared);
        }
        let shared_denom = denom / shared;
        let bins: Vec<BinRecord> = self
            .records
            .iter()
            .zip(logs)
            .enumerate()
            .map(|(id, (rec, items))| BinRecord {
                id: BinId(id as u32),
                usage: Interval::new(self.time_of(rec.opened), self.time_of(rec.closed)),
                items,
                level_integral: Rational::new(rec.integral as i128 / shared, shared_denom),
                peak_level: self.size_of(rec.peak),
            })
            .collect();
        // `Σ |usage_k|` in one reduction: the running `closed_ticks`
        // tally already holds the integer sum, and an exact sum of
        // `b_k/T` fractions reduces to the same canonical value.
        let total_usage = Rational::new(self.closed_ticks as i128, self.time_scale);
        debug_assert_eq!(
            total_usage,
            bins.iter().map(|b| b.usage.len()).sum::<Rational>()
        );
        Ok(PackingOutcome::from_parts(
            algorithm.to_string(),
            bins,
            assignments,
            total_usage,
            self.max_open,
        ))
    }
}

/// Every bin's item log, indexed by bin id: the items placed in it,
/// in arrival order. `assignments` lists every placement in arrival
/// order, so one counting pass by bin sizes each log and a second
/// fills it — one exactly-sized allocation per bin.
fn item_logs(assignments: &[(ItemId, BinId)], bins: usize) -> Vec<Vec<ItemId>> {
    let mut lens = vec![0u32; bins];
    for &(_, bin) in assignments {
        lens[bin.index()] += 1;
    }
    let mut logs: Vec<Vec<ItemId>> = lens
        .iter()
        .map(|&len| Vec::with_capacity(len as usize))
        .collect();
    for &(item, bin) in assignments {
        logs[bin.index()].push(item);
    }
    logs
}

/// `assignments` stably sorted by item id, so an id placed more than
/// once keeps its placements in arrival order. A compiled replay's
/// ranks, and a session's caller-minted ids when they are dense, take
/// the counting path of [`stable_sort_by_key`].
fn sort_by_item(assignments: Vec<(ItemId, BinId)>) -> Vec<(ItemId, BinId)> {
    stable_sort_by_key(assignments, |&(item, _)| u64::from(item.0))
}

/// `v` sorted by `key`, stably: equal keys keep their order in `v`.
/// The one sort of the tick path, behind both
/// [`CompiledInstance::compile`]'s schedule and
/// [`TickEngine::finish`]'s assignments.
///
/// Keys spanning fewer than `4·n + 64` values for `n` elements take a
/// counting sort over the span: one pass for the key range, one to
/// count, one to scatter in order, so ties land in input order. Only a
/// wider span, which no counting array of that size covers, takes a
/// stable comparison sort (`sort_by_key`).
fn stable_sort_by_key<T: Copy>(mut v: Vec<T>, key: impl Fn(&T) -> u64) -> Vec<T> {
    let n = v.len();
    let Some(&first) = v.first() else {
        return v;
    };
    let (lo, hi) = v.iter().fold((u64::MAX, 0), |(lo, hi), x| {
        let k = key(x);
        (lo.min(k), hi.max(k))
    });
    if n > u32::MAX as usize || hi - lo >= 4 * n as u64 + 64 {
        v.sort_by_key(key);
        return v;
    }
    // `next[k]` is where the next element of key `lo + k` goes.
    let mut next = vec![0u32; (hi - lo) as usize + 1];
    for x in &v {
        next[(key(x) - lo) as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let len = *slot;
        *slot = start;
        start += len;
    }
    let mut sorted = vec![first; n];
    for x in &v {
        let at = &mut next[(key(x) - lo) as usize];
        sorted[*at as usize] = *x;
        *at += 1;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BestFit, FirstFit, WorstFit};
    use crate::session::Runner;
    use dbp_numeric::rat;

    /// The exact Rational engine's outcome. `Runner`'s default
    /// `Backend::Auto` would route these policies to the tick engine
    /// itself.
    fn exact(inst: &Instance, algo: &mut dyn PackingAlgorithm) -> PackingOutcome {
        Runner::new(inst)
            .backend(crate::session::Backend::Exact)
            .run(algo)
            .unwrap()
    }

    /// A churny scenario: mid-run closures, exact fills, equal-time
    /// departure/arrival boundaries.
    fn scenario() -> Instance {
        Instance::builder()
            .item(rat(7, 10), rat(0, 1), rat(10, 1))
            .item(rat(2, 5), rat(0, 1), rat(6, 1))
            .item(rat(9, 10), rat(0, 1), rat(1, 1))
            .item(rat(1, 2), rat(1, 1), rat(10, 1))
            .item(rat(3, 10), rat(2, 1), rat(10, 1))
            .item(rat(3, 5), rat(6, 1), rat(10, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn compile_rescales_onto_the_lcm_grid() {
        let inst = Instance::builder()
            .item(rat(1, 2), rat(1, 2), rat(7, 3)) // times on halves/thirds
            .item(rat(2, 3), rat(5, 4), rat(3, 1))
            .build()
            .unwrap();
        let c = CompiledInstance::compile(&inst).unwrap();
        assert_eq!(c.origin(), rat(1, 2));
        assert_eq!(c.time_scale(), 12); // lcm(2, 3, 4, 1)
        assert_eq!(c.size_scale(), 6); // lcm(2, 3)
        assert_eq!(c.capacity(), 6);
        assert_eq!(
            c.items(),
            &[
                TickItem {
                    size: 3,
                    arrival: 0,
                    departure: 22
                },
                TickItem {
                    size: 4,
                    arrival: 9,
                    departure: 30
                },
            ]
        );
        // Schedule: arrivals/departures in (tick, class) order.
        let order: Vec<(u64, EventClass)> =
            c.schedule().iter().map(|e| (e.tick, e.class)).collect();
        assert_eq!(
            order,
            vec![
                (0, EventClass::Arrival),
                (9, EventClass::Arrival),
                (22, EventClass::Departure),
                (30, EventClass::Departure),
            ]
        );
    }

    /// Items listed out of arrival order: the compiled tables run in
    /// arrival rank (ties at one instant by instance id), while the
    /// outcome and the errors still name instance ids.
    #[test]
    fn compile_numbers_items_by_arrival_rank() {
        let inst = Instance::builder()
            .item(rat(1, 2), rat(3, 1), rat(5, 1)) // r0: rank 2
            .item(rat(1, 4), rat(1, 1), rat(4, 1)) // r1: rank 0
            .item(rat(3, 4), rat(2, 1), rat(3, 1)) // r2: rank 1
            .item(rat(1, 4), rat(3, 1), rat(6, 1)) // r3: rank 3 (tie with r0)
            .build()
            .unwrap();
        let c = CompiledInstance::compile(&inst).unwrap();
        assert_eq!(c.item_ids(), &[ItemId(1), ItemId(2), ItemId(0), ItemId(3)]);
        let sizes: Vec<u64> = c.items().iter().map(|it| it.size).collect();
        assert_eq!(sizes, vec![1, 3, 2, 1]);
        let order: Vec<(u64, EventClass, u32)> = c
            .schedule()
            .iter()
            .map(|e| (e.tick, e.class, e.item.0))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, EventClass::Arrival, 0),
                (1, EventClass::Arrival, 1),
                (2, EventClass::Departure, 1),
                (2, EventClass::Arrival, 2),
                (2, EventClass::Arrival, 3),
                (3, EventClass::Departure, 0),
                (4, EventClass::Departure, 2),
                (5, EventClass::Departure, 3),
            ]
        );
        let out = c.run(TickPolicy::FirstFit).unwrap();
        assert_eq!(out, exact(&inst, &mut FirstFit::new()));

        // A per-event caller speaks ranks; errors come back as instance
        // ids, and ids past the instance pass through unchanged.
        let mut eng = TickEngine::new(&c, TickPolicy::FirstFit);
        eng.arrive(ItemId(0), 1, 0).unwrap();
        assert!(eng.is_active(ItemId(0)));
        assert_eq!(
            eng.arrive(ItemId(0), 1, 0),
            Err(PackingError::DuplicateItem(ItemId(1)))
        );
        assert_eq!(
            eng.depart(ItemId(2), 1),
            Err(PackingError::UnknownItem(ItemId(0)))
        );
        assert_eq!(
            eng.depart(ItemId(9), 1),
            Err(PackingError::UnknownItem(ItemId(9)))
        );
    }

    /// A per-event caller that leaves the schedule — an id past the
    /// instance, a rank placed twice — still finishes to assignments
    /// sorted by instance id, through the mapped stable sort.
    #[test]
    fn off_schedule_callers_finish_by_instance_id() {
        let inst = Instance::builder()
            .item(rat(1, 2), rat(1, 1), rat(2, 1)) // rank 1
            .item(rat(1, 2), rat(0, 1), rat(2, 1)) // rank 0
            .build()
            .unwrap();
        let c = CompiledInstance::compile(&inst).unwrap();
        let mut eng = TickEngine::new(&c, TickPolicy::FirstFit);
        eng.arrive(ItemId(1), 1, 0).unwrap();
        eng.arrive(ItemId(5), 1, 0).unwrap();
        eng.depart(ItemId(1), 1).unwrap();
        eng.arrive(ItemId(1), 1, 1).unwrap();
        eng.depart(ItemId(1), 2).unwrap();
        eng.depart(ItemId(5), 2).unwrap();
        let out = eng.finish("FirstFit").unwrap();
        assert_eq!(
            out.assignments(),
            &[
                (ItemId(0), BinId(0)),
                (ItemId(0), BinId(0)),
                (ItemId(5), BinId(0)),
            ]
        );
        assert_eq!(out.bins()[0].items, vec![ItemId(0), ItemId(5), ItemId(0)]);
    }

    #[test]
    fn negative_timestamps_compile_via_the_origin_shift() {
        let inst = Instance::builder()
            .item(rat(1, 2), rat(-3, 2), rat(1, 1))
            .item(rat(1, 2), rat(0, 1), rat(2, 1))
            .build()
            .unwrap();
        let c = CompiledInstance::compile(&inst).unwrap();
        assert_eq!(c.origin(), rat(-3, 2));
        assert_eq!(c.items()[0].arrival, 0);
        let out = c.run(TickPolicy::FirstFit).unwrap();
        assert_eq!(out, exact(&inst, &mut FirstFit::new()));
    }

    #[test]
    fn tick_runs_are_bit_identical_to_the_rational_engine() {
        let inst = scenario();
        for (policy, mut reference) in [
            (
                TickPolicy::FirstFit,
                Box::new(FirstFit::new()) as Box<dyn PackingAlgorithm>,
            ),
            (TickPolicy::BestFit, Box::new(BestFit::new())),
            (TickPolicy::WorstFit, Box::new(WorstFit::new())),
        ] {
            let compiled = CompiledInstance::compile(&inst).unwrap();
            let tick = compiled.run(policy).unwrap();
            assert_eq!(
                tick,
                exact(&inst, reference.as_mut()),
                "{} diverged",
                policy.name()
            );
        }
    }

    #[test]
    fn compiled_instance_is_reusable_across_policies_and_runs() {
        let inst = scenario();
        let compiled = CompiledInstance::compile(&inst).unwrap();
        let a = compiled.run(TickPolicy::FirstFit).unwrap();
        let b = compiled.run(TickPolicy::FirstFit).unwrap();
        assert_eq!(a, b);
        let bf = compiled.run(TickPolicy::BestFit).unwrap();
        assert_eq!(bf, exact(&inst, &mut BestFit::new()));
    }

    #[test]
    fn oversized_denominators_refuse_to_compile() {
        // Two coprime five-digit-squared denominators push the LCM
        // past u32::MAX.
        let huge_times = Instance::builder()
            .item(rat(1, 2), rat(1, 99991), rat(2, 1))
            .item(rat(1, 2), rat(1, 99989), rat(2, 1))
            .build()
            .unwrap();
        assert_eq!(
            CompiledInstance::compile(&huge_times).unwrap_err(),
            CompileError::TimeScaleOverflow
        );
        let huge_sizes = Instance::builder()
            .item(rat(1, 99991), rat(0, 1), rat(1, 1))
            .item(rat(1, 99989), rat(0, 1), rat(1, 1))
            .build()
            .unwrap();
        assert_eq!(
            CompiledInstance::compile(&huge_sizes).unwrap_err(),
            CompileError::SizeScaleOverflow
        );
        // Scales fit but the horizon does not: fractional grid times
        // a five-billion-unit span.
        let huge_span = Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(5_000_000_000, 1))
            .item(rat(1, 2), rat(1, 2), rat(1, 1))
            .build()
            .unwrap();
        assert_eq!(
            CompiledInstance::compile(&huge_span).unwrap_err(),
            CompileError::TickOverflow
        );
    }

    #[test]
    fn auto_falls_back_to_the_rational_engine_on_overflow() {
        let inst = Instance::builder()
            .item(rat(1, 2), rat(1, 99991), rat(2, 1))
            .item(rat(1, 2), rat(1, 99989), rat(2, 1))
            .item(rat(1, 2), rat(1, 1), rat(3, 1))
            .build()
            .unwrap();
        assert!(CompiledInstance::compile(&inst).is_err());
        let auto = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        assert_eq!(auto, exact(&inst, &mut FirstFit::new())); // name included
    }

    #[test]
    fn empty_instance_runs_to_an_empty_outcome() {
        let inst = Instance::new(Vec::new()).unwrap();
        let compiled = CompiledInstance::compile(&inst).unwrap();
        assert!(compiled.is_empty());
        let out = compiled.run(TickPolicy::FirstFit).unwrap();
        assert_eq!(out.bins_opened(), 0);
        assert_eq!(out.total_usage(), Rational::ZERO);
        assert_eq!(out, Runner::new(&inst).run(&mut FirstFit::new()).unwrap());
    }

    /// A staircase builder matching the perf-snapshot shape: item `i`
    /// lives on `[i, i + window)`, 4 of 5 items force singleton bins.
    fn staircase(n: i128, window: i128) -> Instance {
        let mut b = Instance::builder();
        for i in 0..n {
            let size = if i % 5 == 0 {
                rat(11 + (i * 13) % 23, 100)
            } else {
                rat(51 + (i * 7) % 49, 100)
            };
            b = b.item(size, rat(i, 1), rat(i + window, 1));
        }
        b.build().unwrap()
    }

    /// A staircase that pushes the open-bin count well past the scan
    /// crossover: the engine must switch from the linear sweep to the
    /// rebuilt tree mid-run without any outcome drift against the
    /// exact Rational engine, for every policy. The exact-engine
    /// reference makes production-constant scale too slow for a unit
    /// test, so the promotion is exercised at an overridden crossover
    /// — the switch logic is identical at any threshold, and the
    /// production constant is covered tick-vs-tick below.
    #[test]
    fn adaptive_scan_crossover_is_invisible_in_outcomes() {
        const CROSSOVER: usize = 64;
        let inst = staircase(5 * CROSSOVER as i128, 3 * CROSSOVER as i128);
        let compiled = CompiledInstance::compile(&inst).unwrap();
        for (policy, mut reference) in [
            (
                TickPolicy::FirstFit,
                Box::new(FirstFit::new()) as Box<dyn PackingAlgorithm>,
            ),
            (TickPolicy::BestFit, Box::new(BestFit::new())),
            (TickPolicy::WorstFit, Box::new(WorstFit::new())),
        ] {
            let tick = compiled.run_with_crossover(policy, CROSSOVER).unwrap();
            assert!(
                tick.max_open_bins() > CROSSOVER,
                "scenario must cross the scan threshold"
            );
            let exact = Runner::new(&inst)
                .backend(crate::session::Backend::Exact)
                .run(reference.as_mut())
                .unwrap();
            assert_eq!(
                tick,
                exact,
                "{} diverged across the crossover",
                policy.name()
            );
        }
    }

    /// The production [`SCAN_CROSSOVER`] itself: a staircase wide
    /// enough to cross it must produce the same outcome as forced
    /// all-linear and forced all-tree replays (tick-vs-tick, so the
    /// scale stays cheap even in debug builds).
    #[test]
    fn production_crossover_matches_forced_scan_modes() {
        let inst = staircase(5 * SCAN_CROSSOVER as i128, 3 * SCAN_CROSSOVER as i128);
        let compiled = CompiledInstance::compile(&inst).unwrap();
        for policy in [
            TickPolicy::FirstFit,
            TickPolicy::BestFit,
            TickPolicy::WorstFit,
        ] {
            let adaptive = compiled.run(policy).unwrap();
            assert!(adaptive.max_open_bins() > SCAN_CROSSOVER);
            let all_linear = compiled.run_with_crossover(policy, usize::MAX).unwrap();
            let all_tree = compiled.run_with_crossover(policy, 0).unwrap();
            assert_eq!(adaptive, all_linear, "{} linear drift", policy.name());
            assert_eq!(adaptive, all_tree, "{} tree drift", policy.name());
        }
    }

    #[test]
    fn tick_engine_validates_like_the_exact_engine() {
        let inst = scenario();
        let compiled = CompiledInstance::compile(&inst).unwrap();
        let mut eng = TickEngine::new(&compiled, TickPolicy::FirstFit);
        eng.arrive(ItemId(0), 5, 10).unwrap();
        assert_eq!(
            eng.arrive(ItemId(0), 5, 11),
            Err(PackingError::DuplicateItem(ItemId(0)))
        );
        assert!(matches!(
            eng.arrive(ItemId(1), 5, 3),
            Err(PackingError::TimeRegression { .. })
        ));
        assert_eq!(
            eng.depart(ItemId(9), 12),
            Err(PackingError::UnknownItem(ItemId(9)))
        );
        assert_eq!(eng.open_bins(), 1);
        assert_eq!(eng.active_items(), 1);
        let err = eng.finish("FirstFit").unwrap_err();
        assert_eq!(err, PackingError::ItemsStillActive(1));
    }

    /// Soak: 100k arrive/depart cycles with a bounded concurrent
    /// population through the streaming (sparse) entry point. The
    /// free list must keep the bin-state slot arrays flat at the peak
    /// open count — the old `Vec<Option<_>>` layout grew one hole per
    /// closed bin and would report ~50k slots here.
    #[test]
    fn slot_reuse_keeps_streaming_state_flat() {
        const CYCLES: u32 = 100_000;
        // Width of the live window: how many items are in flight.
        const WIDTH: u32 = 8;
        let mut eng = TickEngine::with_grid(TickPolicy::FirstFit, Rational::ZERO, 1, 100);
        // Oversized items: every arrival opens its own bin, every
        // departure closes it — maximum slot churn.
        for i in 0..CYCLES {
            let tick = u64::from(i);
            eng.arrive(ItemId(i), 51, tick).unwrap();
            if i >= WIDTH {
                eng.depart(ItemId(i - WIDTH), tick).unwrap();
            }
        }
        assert_eq!(eng.open_bins(), WIDTH as usize);
        assert_eq!(eng.bins_opened(), CYCLES as usize);
        assert_eq!(eng.peak_open_bins(), WIDTH as usize + 1);
        // The memory contract: slots track peak concurrency, not the
        // number of bins ever opened.
        assert_eq!(eng.slot_capacity(), eng.peak_open_bins());
        // Drain and finish; the outcome still reports every bin.
        for i in (CYCLES - WIDTH)..CYCLES {
            eng.depart(ItemId(i), u64::from(CYCLES)).unwrap();
        }
        let out = eng.finish("FirstFit").unwrap();
        assert_eq!(out.bins_opened(), CYCLES as usize);
    }

    /// An id past [`DENSE_ID_LIMIT`] demotes a streaming engine's
    /// active set, once, from the flat table to the hashed map, and
    /// leaves `finish` ids too sparse for a counting sort. With ids
    /// `3` (placed twice, into different bins), `2^21` and
    /// `u32::MAX − 7`, the engine and a tick session must finish equal
    /// to the exact session: assignments by id, the repeat in arrival
    /// order.
    #[test]
    fn sparse_ids_demote_the_active_set_and_finish_by_id() {
        use crate::session::{Backend, Session, TickGrid};
        const FAR: u32 = 1 << 21;
        const LAST: u32 = u32::MAX - 7;
        // (id, Some(quarters) to arrive | None to depart, time)
        let script: [(u32, Option<i128>, i128); 9] = [
            (3, Some(2), 0),   // bin 0
            (FAR, Some(2), 0), // bin 0, demotes
            (3, None, 1),
            (LAST, Some(3), 1), // bin 1
            (3, Some(3), 1),    // bin 2
            (FAR, None, 2),
            (3, None, 2),
            (LAST, None, 2),
            (7, Some(1), 3), // bin 3, after every bin closed
        ];
        let mut eng = TickEngine::with_grid(TickPolicy::FirstFit, Rational::ZERO, 1, 4);
        let mut tick = Session::builder(FirstFit::new())
            .backend(Backend::Tick)
            .grid(TickGrid::new(1, 4))
            .build()
            .unwrap();
        let mut exact = Session::builder(FirstFit::new())
            .backend(Backend::Exact)
            .build()
            .unwrap();
        let mut demoted = false;
        for &(id, quarters, t) in &script {
            let (item, time) = (ItemId(id), rat(t, 1));
            match quarters {
                Some(q) => {
                    let bin = eng.arrive(item, q as u64, t as u64).unwrap();
                    assert_eq!(tick.arrive(item, rat(q, 4), time).unwrap(), bin);
                    assert_eq!(exact.arrive(item, rat(q, 4), time).unwrap(), bin);
                }
                None => {
                    eng.depart(item, t as u64).unwrap();
                    tick.depart(item, time).unwrap();
                    exact.depart(item, time).unwrap();
                }
            }
            // Flat until the first far id, hashed from then on.
            demoted |= id as usize >= DENSE_ID_LIMIT;
            assert_eq!(matches!(eng.active, ActiveSet::Sparse(_)), demoted);
        }
        eng.depart(ItemId(7), 4).unwrap();
        tick.depart(ItemId(7), rat(4, 1)).unwrap();
        exact.depart(ItemId(7), rat(4, 1)).unwrap();
        let reference = exact.finish().unwrap();
        assert_eq!(eng.finish("FirstFit").unwrap(), reference);
        assert_eq!(tick.finish().unwrap(), reference);
        assert_eq!(
            reference.assignments(),
            &[
                (ItemId(3), BinId(0)),
                (ItemId(3), BinId(2)),
                (ItemId(7), BinId(3)),
                (ItemId(FAR), BinId(0)),
                (ItemId(LAST), BinId(1)),
            ]
        );
    }

    /// `TickGrid::for_instance` reads the grid without compiling a
    /// schedule, and must still answer exactly as `compile` does: the
    /// same two scales, or the same error. Pinned on pseudo-random
    /// instances — mixed and growing denominators, negative origins,
    /// horizons on both sides of the tick cap — and on the three
    /// overflow shapes.
    #[test]
    fn tick_grid_for_instance_matches_compile() {
        use crate::session::TickGrid;
        let mut cases = vec![
            Instance::new(Vec::new()).unwrap(),
            scenario(),
            // The three overflow shapes: time LCM, size LCM, horizon.
            Instance::builder()
                .item(rat(1, 2), rat(1, 99991), rat(2, 1))
                .item(rat(1, 2), rat(1, 99989), rat(2, 1))
                .build()
                .unwrap(),
            Instance::builder()
                .item(rat(1, 99991), rat(0, 1), rat(1, 1))
                .item(rat(1, 99989), rat(0, 1), rat(1, 1))
                .build()
                .unwrap(),
            Instance::builder()
                .item(rat(1, 2), rat(0, 1), rat(5_000_000_000, 1))
                .item(rat(1, 2), rat(1, 2), rat(1, 1))
                .build()
                .unwrap(),
        ];
        const DENS: [i128; 10] = [1, 2, 3, 4, 5, 7, 12, 1000, 65521, 65519];
        let mut x = 0x2545_F491u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound) as i128
        };
        for n in [1, 3, 10, 40] {
            for _ in 0..40 {
                let mut b = Instance::builder();
                for _ in 0..n {
                    let (sden, aden, dden) = (
                        DENS[next(10) as usize],
                        DENS[next(8) as usize],
                        DENS[next(10) as usize],
                    );
                    let arrival = rat(next(2_000_001) - 1_000_000, aden);
                    let far = if next(4) == 0 { 1 << 22 } else { 1 };
                    let departure = arrival + rat((1 + next(1000)) * far, dden);
                    b = b.item(rat(1 + next(sden as u64), sden), arrival, departure);
                }
                cases.push(b.build().unwrap());
            }
        }
        let mut outcomes = [0; 4];
        for inst in &cases {
            let compiled = CompiledInstance::compile(inst)
                .map(|c| TickGrid::new(c.time_scale() as u32, c.size_scale() as u32));
            outcomes[match compiled {
                Ok(_) => 0,
                Err(CompileError::TimeScaleOverflow) => 1,
                Err(CompileError::SizeScaleOverflow) => 2,
                Err(CompileError::TickOverflow) => 3,
            }] += 1;
            assert_eq!(TickGrid::for_instance(inst), compiled, "{inst:?}");
        }
        assert!(
            outcomes.iter().all(|&k| k > 0),
            "every outcome covered: {outcomes:?}"
        );
    }

    /// Both paths of `sort_by_item` — the counting sort over dense ids
    /// and the comparison sort over sparse ones — equal a stable sort
    /// by id. Bin ids count arrivals, so any reordering of a repeated
    /// id shows.
    #[test]
    fn sort_by_item_is_a_stable_sort_by_id_on_every_path() {
        let mut cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            vec![2, 0, 1],                     // dense permutation: counting
            vec![1, 1, 3],                     // dense repeats: counting
            vec![5, 3, 5, 4, 3, 9],            // dense repeats: counting
            vec![3, u32::MAX - 7, 3, 1 << 21], // sparse: comparison
        ];
        let mut x = 0x9E37_79B9u32;
        for len in [10u32, 100, 1000] {
            for span in [len, 2 * len, 8 * len] {
                cases.push(
                    (0..len)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 17;
                            x ^= x << 5;
                            1000 + x % span
                        })
                        .collect(),
                );
            }
        }
        for ids in cases {
            let assignments: Vec<(ItemId, BinId)> = ids
                .iter()
                .enumerate()
                .map(|(k, &id)| (ItemId(id), BinId(k as u32)))
                .collect();
            let mut expected = assignments.clone();
            expected.sort_by_key(|&(item, _)| item);
            assert_eq!(sort_by_item(assignments), expected, "ids {ids:?}");
        }
    }

    /// The burst-batched batch replay must match per-event
    /// application through the public engine API, including
    /// departure-before-arrival ties at shared ticks.
    #[test]
    fn burst_replay_matches_per_event_replay() {
        // Equal-tick churn: at t=1..4, one item departs and two
        // arrive at every step.
        let mut b = Instance::builder();
        for i in 0..12i128 {
            let arr = i / 3;
            b = b.item(rat(3 + (i % 4), 10), rat(arr, 1), rat(arr + 1 + (i % 2), 1));
        }
        let inst = b.build().unwrap();
        let compiled = CompiledInstance::compile(&inst).unwrap();
        for policy in [
            TickPolicy::FirstFit,
            TickPolicy::BestFit,
            TickPolicy::WorstFit,
        ] {
            let batch = compiled.run(policy).unwrap();
            let mut eng = TickEngine::new(&compiled, policy);
            for ev in compiled.schedule() {
                match ev.class {
                    EventClass::Arrival => {
                        eng.arrive(ev.item, compiled.items()[ev.item.index()].size, ev.tick)
                            .unwrap();
                    }
                    EventClass::Departure => {
                        eng.depart(ev.item, ev.tick).unwrap();
                    }
                    EventClass::Control => {}
                }
            }
            let per_event = eng.finish(policy.name()).unwrap();
            assert_eq!(batch, per_event, "{} diverged", policy.name());
        }
    }
}
