//! The metrics registry and the engine metrics observer.
//!
//! [`MetricsRegistry`] is a small, dependency-free metrics surface:
//! monotone counters, last-write-wins gauges, exact rational totals,
//! exact time-weighted signals (on [`dbp_simcore::TimeWeighted`]),
//! and log₂-bucketed histograms for wall-clock and scan-length
//! samples. Everything snapshots to a single JSON object with stable
//! key order, so snapshots diff cleanly across runs.
//!
//! Registries are **mergeable** ([`MetricsRegistry::merge`]): every
//! section has a lawful fold (counters and totals add, gauges resolve
//! last-write-wins by a process-wide write stamp, histogram buckets
//! add, time-weighted signals stitch), so the daemon's per-tenant
//! registries collapse into one server-wide registry whose snapshot is
//! byte-identical whatever order the tenants merge in.
//!
//! [`EngineMetrics`] is an [`EngineObserver`] that populates a
//! registry with the standard engine signals: event counts and
//! events/sec, placement scan lengths, bins opened vs reused, and the
//! time-weighted open-bin count. [`telemetry_registry`] renders a
//! session's stream-derived [`SessionMetrics`] — including the
//! paper's `vol(R)`/`span(R)` lower-bound trackers — into a registry
//! built purely from merge-safe sections.

use dbp_core::algo::ArrivalView;
use dbp_core::session::SessionMetrics;
use dbp_core::{BinId, BinRecord, BinSnapshot, EngineObserver, ItemId, PackingOutcome};
use dbp_numeric::Rational;
use dbp_simcore::TimeWeighted;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Process-wide logical clock stamping every gauge write, so
/// last-write-wins stays well-defined when gauges from *different*
/// registries (e.g. per-tenant collectors) are merged. Starts at 1 so
/// stamp 0 can never win against a real write.
static GAUGE_CLOCK: AtomicU64 = AtomicU64::new(1);

fn gauge_stamp() -> u64 {
    GAUGE_CLOCK.fetch_add(1, Ordering::Relaxed)
}

/// A gauge value plus the process-wide write stamp that orders it
/// against writes in other registries. The stamp never appears in
/// snapshots — it exists only to resolve merges.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gauge {
    value: f64,
    stamp: u64,
}

/// Log₂-bucketed histogram of non-negative `f64` samples.
///
/// Bucket `i` holds samples in `(2^(i-1), 2^i]` (bucket 0 holds
/// `[0, 1]`), which spans nanoseconds to minutes in 64 buckets —
/// coarse, but allocation-bounded and plenty for latency shapes.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// Records one sample (negative samples clamp to 0).
    pub fn observe(&mut self, sample: f64) {
        let v = sample.max(0.0);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v <= 1.0 {
            0
        } else {
            // ceil(log2(v)), capped to keep the map bounded.
            (v.log2().ceil() as u32).min(63)
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The populated log₂ buckets as `(upper_bound, count)` pairs in
    /// ascending bound order: bucket exponent `i` covers samples
    /// `≤ 2^i` (and bucket 0 covers `[0, 1]`).
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter().map(|(b, n)| (2f64.powi(*b as i32), *n))
    }

    /// Bucketed quantile estimate (`None` when empty): the upper bound
    /// of the log₂ bucket covering rank `⌈q·count⌉`, clamped to the
    /// observed max. The estimate therefore never exceeds the true
    /// quantile by more than one power of two — the same fidelity a
    /// scraper gets from the rendered `_bucket` series, so client- and
    /// server-side p50/p99 are comparable by construction.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bound, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges `other` into `self`: counts, sums, and per-bucket tallies
    /// add; extremes combine. The merged histogram is exactly what
    /// observing both sample streams into one histogram would have
    /// produced — `merge(H(A), H(B)) = H(A ∪ B)` — so the fold is
    /// commutative and associative.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (bucket, n) in &other.buckets {
            *self.buckets.entry(*bucket).or_insert(0) += n;
        }
    }

    fn snapshot(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .map(|(b, n)| {
                Value::Object(vec![
                    ("le".into(), Value::Float(2f64.powi(*b as i32))),
                    ("count".into(), Value::Int(*n as i128)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".into(), Value::Int(self.count as i128)),
            ("sum".into(), Value::Float(self.sum)),
            // An empty histogram has no extremes: emit `null`, not a
            // fabricated 0.0 (mirrors `mean`).
            ("min".into(), self.min().map_or(Value::Null, Value::Float)),
            ("max".into(), self.max().map_or(Value::Null, Value::Float)),
            ("mean".into(), self.mean().map_or(Value::Null, Value::Float)),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

/// Counters, gauges, exact totals, time-weighted signals, and
/// histograms under string names, with a deterministic JSON snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    totals: BTreeMap<String, Rational>,
    weighted: BTreeMap<String, TimeWeighted>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Increments counter `name` by `by`.
    pub fn inc_by(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` (last write wins, ordered by a process-wide
    /// write stamp so the rule survives cross-registry merges).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(
            name.to_string(),
            Gauge {
                value,
                stamp: gauge_stamp(),
            },
        );
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|g| g.value)
    }

    /// Adds `delta` to the exact rational total `name` (starting from
    /// zero). Totals are the registry's *additive exact* section —
    /// `vol(R)`, `span(R)`, usage time — and fold across registries
    /// without rounding.
    pub fn add_total(&mut self, name: &str, delta: Rational) {
        *self
            .totals
            .entry(name.to_string())
            .or_insert(Rational::ZERO) += delta;
    }

    /// Overwrites the exact rational total `name`.
    pub fn set_total(&mut self, name: &str, value: Rational) {
        self.totals.insert(name.to_string(), value);
    }

    /// The exact total `name`, if set.
    pub fn total(&self, name: &str) -> Option<Rational> {
        self.totals.get(name).copied()
    }

    /// Updates the exact time-weighted signal `name` to `value` at
    /// simulated time `t` (the first call starts the window).
    pub fn track(&mut self, name: &str, t: Rational, value: Rational) {
        match self.weighted.get_mut(name) {
            Some(w) => w.set(t, value),
            None => {
                self.weighted
                    .insert(name.to_string(), TimeWeighted::starting_at(t, value));
            }
        }
    }

    /// The time-weighted signal `name`, if tracked.
    pub fn tracked(&self, name: &str) -> Option<&TimeWeighted> {
        self.weighted.get(name)
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(sample);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges a prebuilt histogram into `name` under the same fold
    /// law as [`merge`](Self::merge) — how externally-accumulated
    /// sample streams (e.g. a profiler's work counters) enter a
    /// registry without replaying every sample.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, g)| (k.as_str(), g.value))
    }

    /// All exact totals, in name order.
    pub fn totals(&self) -> impl Iterator<Item = (&str, Rational)> + '_ {
        self.totals.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All time-weighted signals, in name order.
    pub fn weighted(&self) -> impl Iterator<Item = (&str, &TimeWeighted)> + '_ {
        self.weighted.iter().map(|(k, w)| (k.as_str(), w))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Times `f`, recording the wall-clock duration in nanoseconds
    /// into histogram `name`, and returns `f`'s result.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.observe(name, start.elapsed().as_nanos() as f64);
        out
    }

    /// Merges `other` into `self`, section by section, under each
    /// section's fold law:
    ///
    /// * **counters** and **totals** add (exactly, for totals);
    /// * **gauges** resolve last-write-wins by the process-wide write
    ///   stamp (ties keep `self`'s value, so repeated merges are
    ///   stable);
    /// * **histograms** add per-bucket ([`Histogram::merge`]);
    /// * **time-weighted signals** stitch under zero-extension
    ///   ([`TimeWeighted::merge`]) — integrals add exactly.
    ///
    /// The fold is commutative and associative up to gauge
    /// tie-breaking, so a server can merge tenant registries in any
    /// order and snapshot the same bytes.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            match self.gauges.get_mut(name) {
                Some(mine) if mine.stamp >= g.stamp => {}
                Some(mine) => *mine = *g,
                None => {
                    self.gauges.insert(name.clone(), *g);
                }
            }
        }
        for (name, v) in &other.totals {
            *self.totals.entry(name.clone()).or_insert(Rational::ZERO) += *v;
        }
        for (name, w) in &other.weighted {
            match self.weighted.get_mut(name) {
                Some(mine) => mine.merge(w),
                None => {
                    self.weighted.insert(name.clone(), w.clone());
                }
            }
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Merges `other` into `self` with every metric name prefixed by
    /// `prefix`, under the same per-section fold laws as
    /// [`merge`](Self::merge).
    ///
    /// This is how a multi-tenant exposition page stays *lawful*: each
    /// tenant's registry lands under its own namespace
    /// (`tenant_acme_dbp_events_total`, ...), so tenants can never
    /// alias each other's series, while the un-prefixed server-wide
    /// aggregate remains a plain [`merge`](Self::merge) of the same
    /// inputs.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(format!("{prefix}{name}")).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            let key = format!("{prefix}{name}");
            match self.gauges.get_mut(&key) {
                Some(mine) if mine.stamp >= g.stamp => {}
                Some(mine) => *mine = *g,
                None => {
                    self.gauges.insert(key, *g);
                }
            }
        }
        for (name, v) in &other.totals {
            *self
                .totals
                .entry(format!("{prefix}{name}"))
                .or_insert(Rational::ZERO) += *v;
        }
        for (name, w) in &other.weighted {
            let key = format!("{prefix}{name}");
            match self.weighted.get_mut(&key) {
                Some(mine) => mine.merge(w),
                None => {
                    self.weighted.insert(key, w.clone());
                }
            }
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(format!("{prefix}{name}"))
                .or_default()
                .merge(h);
        }
    }

    /// Snapshots everything into one JSON object:
    /// `{counters, gauges, totals, time_weighted, histograms}` with
    /// sorted keys throughout. Totals serialize as exact `{num, den}`
    /// pairs; gauge write stamps never appear.
    pub fn snapshot(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v as i128)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), Value::Float(g.value)))
            .collect();
        let totals = self
            .totals
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::to_value(v)))
            .collect();
        let weighted = self
            .weighted
            .iter()
            .map(|(k, w)| {
                let avg = w.time_average();
                (
                    k.clone(),
                    Value::Object(vec![
                        (
                            "time_average".into(),
                            avg.map_or(Value::Null, |a| Value::Float(a.to_f64())),
                        ),
                        ("max".into(), Value::Float(w.max().to_f64())),
                        ("min".into(), Value::Float(w.min().to_f64())),
                        ("integral".into(), serde_json::to_value(&w.integral())),
                    ]),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("totals".into(), Value::Object(totals)),
            ("time_weighted".into(), Value::Object(weighted)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }

    /// Pretty-printed JSON snapshot.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot always serializes")
    }
}

/// Renders a session's stream-derived counters into a registry built
/// purely from merge-safe sections, so the registries of several
/// sessions (a daemon's tenants) fold into one view with
/// [`MetricsRegistry::merge`]:
///
/// * counters `arrivals`, `departures`, `events`, `bins_opened`,
///   `open_bins`, `active_items` — additive across sessions;
/// * exact totals `load` and `usage_time`, plus `vol` and `span` when
///   the session tracks telemetry (see
///   `SessionBuilder::telemetry`) — the Propositions 1–2
///   lower-bound numerators, additive because each session's optimum
///   is bounded below by its own `max(vol, span)`;
/// * histogram `peak_open_bins` with one sample per session, so the
///   merged `max` is the largest peak and `count` the session count.
///
/// Deliberately **no gauges**: gauges resolve last-write-wins, which
/// would make a fold depend on merge order. Derived gauges
/// (e.g. the live competitive-ratio estimate) belong on the *merged*
/// registry — see [`set_ratio_gauge`].
pub fn telemetry_registry(m: &SessionMetrics) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.inc_by("arrivals", m.arrivals);
    r.inc_by("departures", m.departures);
    r.inc_by("events", m.events);
    r.inc_by("bins_opened", m.bins_opened as u64);
    r.inc_by("open_bins", m.open_bins as u64);
    r.inc_by("active_items", m.active_items as u64);
    r.add_total("load", m.load);
    r.add_total("usage_time", m.usage_time);
    if let Some(vol) = m.vol {
        r.add_total("vol", vol);
    }
    if let Some(span) = m.span {
        r.add_total("span", span);
    }
    r.observe("peak_open_bins", m.peak_open_bins as f64);
    r
}

/// Computes the live competitive-ratio upper estimate
/// `usage_time / max(vol, span)` from the registry's exact totals and
/// publishes it as gauge `ratio_upper_estimate` (plus `lower_bound`,
/// the `max(vol, span)` denominator, as a float gauge). No-op while
/// the lower bound is still zero or the totals are absent.
///
/// Call this on a *merged* registry: `vol` and `span` totals are
/// per-session lower bounds summed, so the gauge estimates the merged
/// sessions' usage against the sum of their optima.
pub fn set_ratio_gauge(registry: &mut MetricsRegistry) {
    let (Some(usage), Some(vol), Some(span)) = (
        registry.total("usage_time"),
        registry.total("vol"),
        registry.total("span"),
    ) else {
        return;
    };
    let bound = vol.max(span);
    if !bound.is_positive() {
        return;
    }
    registry.set_gauge("lower_bound", bound.to_f64());
    registry.set_gauge("ratio_upper_estimate", (usage / bound).to_f64());
}

/// An [`EngineObserver`] that fills a [`MetricsRegistry`] with the
/// standard engine signals.
///
/// Counters: `arrivals`, `departures`, `placements`, `bins_opened`,
/// `bins_reused`, `bins_closed`, `events`. Histogram `scan_length`
/// (bins inspected per placement, in opening order) and
/// `event_gap_ns` (wall-clock between consecutive events).
/// Time-weighted signal `open_bins` over simulated time. Gauges
/// `wall_seconds` and `events_per_sec`, set when the run finishes.
#[derive(Debug)]
pub struct EngineMetrics {
    registry: MetricsRegistry,
    started: Instant,
    last_event: Instant,
    events: u64,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Creates a fresh collector; the wall clock starts now.
    pub fn new() -> EngineMetrics {
        let now = Instant::now();
        EngineMetrics {
            registry: MetricsRegistry::new(),
            started: now,
            last_event: now,
            events: 0,
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the collector, returning the registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    fn tick(&mut self) {
        let now = Instant::now();
        self.registry.observe(
            "event_gap_ns",
            now.duration_since(self.last_event).as_nanos() as f64,
        );
        self.last_event = now;
        self.events += 1;
        self.registry.inc("events");
    }
}

impl EngineObserver for EngineMetrics {
    fn on_arrival(&mut self, _arrival: &ArrivalView, _bins: &BinSnapshot<'_>) {
        self.tick();
        self.registry.inc("arrivals");
    }

    fn on_placement(
        &mut self,
        arrival: &ArrivalView,
        bins: &BinSnapshot<'_>,
        chosen: BinId,
        opened_new: bool,
    ) {
        self.registry.inc("placements");
        let scanned = if opened_new {
            bins.len()
        } else {
            bins.open_bins()
                .iter()
                .position(|b| b.id == chosen)
                .map_or(bins.len(), |p| p + 1)
        };
        self.registry.observe("scan_length", scanned as f64);
        if !opened_new {
            self.registry.inc("bins_reused");
        }
        let _ = arrival;
    }

    fn on_bin_opened(&mut self, _bin: BinId, time: Rational) {
        self.registry.inc("bins_opened");
        let open = self.registry.counter("bins_opened") - self.registry.counter("bins_closed");
        self.registry
            .track("open_bins", time, Rational::from_int(open as i128));
    }

    fn on_departure(
        &mut self,
        _item: ItemId,
        _bin: BinId,
        _size: Rational,
        _time: Rational,
        _bins: &BinSnapshot<'_>,
    ) {
        self.tick();
        self.registry.inc("departures");
    }

    fn on_bin_closed(&mut self, record: &BinRecord) {
        self.registry.inc("bins_closed");
        let open = self.registry.counter("bins_opened") - self.registry.counter("bins_closed");
        self.registry.track(
            "open_bins",
            record.usage.hi(),
            Rational::from_int(open as i128),
        );
    }

    fn on_run_finished(&mut self, outcome: &PackingOutcome) {
        let wall = self.started.elapsed().as_secs_f64();
        self.registry.set_gauge("wall_seconds", wall);
        if wall > 0.0 {
            self.registry
                .set_gauge("events_per_sec", self.events as f64 / wall);
        }
        self.registry
            .set_gauge("total_usage", outcome.total_usage().to_f64());
        self.registry
            .set_gauge("max_open_bins", outcome.max_open_bins() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{FirstFit, Instance, Runner};
    use dbp_numeric::rat;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0.5, 1.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Some(100.0));
        assert!((h.mean().unwrap() - 26.125).abs() < 1e-9);
        // 0.5 and 1.0 land in bucket 0; 3.0 in 2 (le 4); 100 in 7 (le 128).
        assert_eq!(h.buckets.get(&0), Some(&2));
        assert_eq!(h.buckets.get(&2), Some(&1));
        assert_eq!(h.buckets.get(&7), Some(&1));
        let bounds: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(bounds, vec![(1.0, 2), (4.0, 1), (128.0, 1)]);
    }

    #[test]
    fn merge_prefixed_namespaces_every_section() {
        let mut tenant = MetricsRegistry::new();
        tenant.inc_by("dbp_events_total", 5);
        tenant.set_gauge("dbp_open_bins", 3.0);
        tenant.add_total("dbp_usage_time", rat(7, 2));
        tenant.track("dbp_load", rat(0, 1), rat(1, 2));
        tenant.observe("dbp_latency", 2.0);

        let mut page = MetricsRegistry::new();
        page.inc_by("tenant_acme_dbp_events_total", 1);
        page.merge_prefixed("tenant_acme_", &tenant);

        assert_eq!(page.counter("tenant_acme_dbp_events_total"), 6);
        assert_eq!(page.gauge("tenant_acme_dbp_open_bins"), Some(3.0));
        assert_eq!(page.total("tenant_acme_dbp_usage_time"), Some(rat(7, 2)));
        assert!(page.tracked("tenant_acme_dbp_load").is_some());
        assert_eq!(
            page.histogram("tenant_acme_dbp_latency").unwrap().count(),
            1
        );
        // Nothing leaked into the un-prefixed namespace.
        assert_eq!(page.counter("dbp_events_total"), 0);
        assert!(page.gauge("dbp_open_bins").is_none());

        // Prefixed merge folds exactly like a plain merge of renamed
        // inputs: merging twice doubles counters, keeps gauges.
        page.merge_prefixed("tenant_acme_", &tenant);
        assert_eq!(page.counter("tenant_acme_dbp_events_total"), 11);
        assert_eq!(page.gauge("tenant_acme_dbp_open_bins"), Some(3.0));
    }

    #[test]
    fn merge_prefixed_collisions_and_empties_fold_lawfully() {
        // Two tenant names that sanitize to the same prefix (the page
        // builder maps any non-alphanumeric to `_`, so `a.b` and `a_b`
        // both become `tenant_a_b_`): their series alias, and the fold
        // laws make the collision additive rather than lossy — the
        // shared counter is the sum, the histogram is the union.
        let mut one = MetricsRegistry::new();
        one.inc_by("events", 3);
        one.observe("latency", 2.0);
        let mut two = MetricsRegistry::new();
        two.inc_by("events", 4);
        two.observe("latency", 900.0);
        let mut page = MetricsRegistry::new();
        page.merge_prefixed("tenant_a_b_", &one);
        page.merge_prefixed("tenant_a_b_", &two);
        assert_eq!(page.counter("tenant_a_b_events"), 7);
        assert_eq!(page.histogram("tenant_a_b_latency").unwrap().count(), 2);

        // An empty source registry is the identity, and merging into
        // an empty page is a pure (prefixed) copy.
        let before = page.snapshot();
        page.merge_prefixed("tenant_a_b_", &MetricsRegistry::new());
        assert_eq!(page.snapshot(), before);
        let mut fresh = MetricsRegistry::new();
        fresh.merge_prefixed("t_", &one);
        assert_eq!(fresh.counter("t_events"), 3);
        assert_eq!(fresh.histogram("t_latency").unwrap().count(), 1);

        // A prefixed histogram landing on a name some counter already
        // uses: sections are independent maps, so both series survive
        // under the same name — no cross-section clobbering.
        let mut clash = MetricsRegistry::new();
        clash.inc_by("t_latency", 5);
        clash.merge_prefixed("t_", &one);
        assert_eq!(clash.counter("t_latency"), 5);
        assert_eq!(clash.histogram("t_latency").unwrap().count(), 1);
        // And the reverse: a prefixed counter next to a histogram.
        let mut reverse = MetricsRegistry::new();
        reverse.observe("t_events", 1.0);
        reverse.merge_prefixed("t_", &one);
        assert_eq!(reverse.counter("t_events"), 3);
        assert_eq!(reverse.histogram("t_events").unwrap().count(), 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds_clamped_to_extremes() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);

        let mut h = Histogram::default();
        for v in [0.5, 3.0, 3.5, 100.0] {
            h.observe(v);
        }
        // Rank 2 of 4 lands in the (2, 4] bucket.
        assert_eq!(h.quantile(0.5), Some(4.0));
        // The top quantile clamps to the observed max, not the 128.0
        // bucket bound.
        assert_eq!(h.quantile(0.99), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // The bottom rank answers with its bucket's upper bound.
        assert_eq!(h.quantile(0.0), Some(1.0));

        // A single sample answers every quantile with itself.
        let mut one = Histogram::default();
        one.observe(7.0);
        assert_eq!(one.quantile(0.5), Some(7.0));
        assert_eq!(one.quantile(0.99), Some(7.0));
    }

    #[test]
    fn empty_histogram_snapshot_has_null_extremes() {
        // Regression: an empty histogram used to fabricate
        // `min: 0.0` / `max: 0.0`; like `mean`, they must be `null`.
        let h = Histogram::default();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let snap = h.snapshot();
        assert_eq!(snap.get("min"), Some(&Value::Null));
        assert_eq!(snap.get("max"), Some(&Value::Null));
        assert_eq!(snap.get("mean"), Some(&Value::Null));
        assert_eq!(snap.get("count"), Some(&Value::Int(0)));
        // One observation makes them real numbers again.
        let mut h = h;
        h.observe(2.5);
        let snap = h.snapshot();
        assert_eq!(snap.get("min"), Some(&Value::Float(2.5)));
        assert_eq!(snap.get("max"), Some(&Value::Float(2.5)));
    }

    #[test]
    fn histogram_merge_equals_union_of_streams() {
        let (a_samples, b_samples) = ([0.5, 3.0, 700.0], [1.0, 3.5, 0.25, 9e9]);
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut union = Histogram::default();
        for v in a_samples {
            a.observe(v);
            union.observe(v);
        }
        for v in b_samples {
            b.observe(v);
            union.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.snapshot(), union.snapshot());
        // Merging an empty histogram is the identity, both ways.
        let mut left = a.clone();
        left.merge(&Histogram::default());
        assert_eq!(left.snapshot(), a.snapshot());
        let mut right = Histogram::default();
        right.merge(&a);
        assert_eq!(right.snapshot(), a.snapshot());
    }

    #[test]
    fn registry_snapshot_structure() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.inc_by("a", 2);
        m.set_gauge("g", 1.5);
        m.add_total("vol", rat(1, 3));
        m.add_total("vol", rat(1, 6));
        m.track("w", rat(0, 1), rat(1, 1));
        m.track("w", rat(2, 1), rat(3, 1));
        let answer = m.time("t_ns", || 7);
        assert_eq!(answer, 7);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.gauge("g"), Some(1.5));
        assert_eq!(m.total("vol"), Some(rat(1, 2)));
        assert_eq!(m.tracked("w").unwrap().integral(), rat(2, 1));
        let snap = m.snapshot();
        assert_eq!(snap.get("counters").unwrap().get("a"), Some(&Value::Int(3)));
        assert!(snap.get("histograms").unwrap().get("t_ns").is_some());
        // Totals serialize as exact {num, den} pairs.
        let vol = snap.get("totals").unwrap().get("vol").unwrap();
        assert_eq!(vol.get("num").unwrap().as_int(), Some(1));
        assert_eq!(vol.get("den").unwrap().as_int(), Some(2));
        // Snapshot text parses back as JSON.
        assert!(serde_json::parse(&m.to_json_pretty()).is_ok());
    }

    #[test]
    fn registry_merge_folds_every_section() {
        let mut a = MetricsRegistry::new();
        a.inc_by("events", 3);
        a.add_total("usage_time", rat(5, 2));
        a.observe("peak", 4.0);
        a.track("open", rat(0, 1), rat(2, 1));
        a.set_gauge("ratio", 1.0);
        let mut b = MetricsRegistry::new();
        b.inc_by("events", 2);
        b.inc("departures");
        b.add_total("usage_time", rat(1, 2));
        b.observe("peak", 9.0);
        b.track("open", rat(0, 1), rat(1, 1));
        b.set_gauge("ratio", 2.0); // later write stamp: wins the merge

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("events"), 5);
        assert_eq!(merged.counter("departures"), 1);
        assert_eq!(merged.total("usage_time"), Some(rat(3, 1)));
        assert_eq!(merged.histogram("peak").unwrap().max(), Some(9.0));
        assert_eq!(merged.gauge("ratio"), Some(2.0));
        assert_eq!(merged.tracked("open").unwrap().current(), rat(3, 1));

        // Merge order cannot change the snapshot bytes.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(flipped.to_json_pretty(), merged.to_json_pretty());
    }

    #[test]
    fn ratio_gauge_derives_from_exact_totals() {
        let mut r = MetricsRegistry::new();
        set_ratio_gauge(&mut r); // no totals: no-op
        assert_eq!(r.gauge("ratio_upper_estimate"), None);
        r.add_total("usage_time", rat(9, 1));
        r.add_total("vol", rat(3, 1));
        r.add_total("span", rat(4, 1));
        set_ratio_gauge(&mut r);
        assert_eq!(r.gauge("lower_bound"), Some(4.0));
        assert_eq!(r.gauge("ratio_upper_estimate"), Some(2.25));
    }

    #[test]
    fn engine_metrics_collects_standard_signals() {
        let jobs = Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(2, 1))
            .item(rat(3, 4), rat(0, 1), rat(3, 1))
            .item(rat(1, 4), rat(1, 1), rat(2, 1))
            .build()
            .unwrap();
        let mut em = EngineMetrics::new();
        let out = Runner::new(&jobs)
            .observer(&mut em)
            .run(&mut FirstFit::new())
            .unwrap();
        let m = em.registry();
        assert_eq!(m.counter("arrivals"), 3);
        assert_eq!(m.counter("departures"), 3);
        assert_eq!(m.counter("placements"), 3);
        assert_eq!(m.counter("bins_opened"), out.bins_opened() as u64);
        assert_eq!(m.counter("bins_closed"), out.bins_opened() as u64);
        assert_eq!(m.counter("bins_reused"), 1);
        assert_eq!(m.histogram("scan_length").unwrap().count(), 3);
        // ∫ open_bins dt over the run equals total usage.
        assert_eq!(
            m.tracked("open_bins").unwrap().integral(),
            out.total_usage()
        );
        assert!(m.gauge("wall_seconds").unwrap() >= 0.0);
    }
}
