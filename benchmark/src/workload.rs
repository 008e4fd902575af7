//! The four workloads: their shapes, their seeded inputs, and the
//! in-process reference every served or replayed outcome must equal.
//!
//! Every input is built during set-up from `dbp_workloads::
//! RandomWorkload` and the run's seed — instance, rendered event
//! stream, reference outcome and recovery stream — so the timed loops
//! generate nothing.

use crate::speed::Probe;
use dbp_core::{
    event_schedule, Event, FirstFit, Instance, PackingOutcome, Session, TickGrid, SCAN_CROSSOVER,
};
use dbp_numeric::{rat, Rational};
use dbp_simcore::EventClass;
use dbp_workloads::random::{ArrivalDist, DurationDist, SizeDist};
use dbp_workloads::RandomWorkload;

/// Grid denominator of every sampled size and timestamp; sessions
/// declare the matching [`TickGrid`], so the tick engine runs.
pub const GRID: u32 = 1024;

/// Longest item duration (shortest is 1), so every instance has
/// `µ ≤ 4`.
pub const MU: i128 = 4;

/// Poisson-ish arrivals come `1/160` apart on average: ~400 items in
/// flight, ~280 open First Fit bins on average.
const POISSON_RATE: i128 = 160;

/// Events per tenant in the recovery phase.
pub const RECOVERY_EVENTS: usize = 500_000;

/// Events per frame when loading or re-streaming recovery tenants.
pub const RECOVERY_FRAME_EVENTS: usize = 1024;

/// Tenants the recovery phase restores.
pub const RECOVERY_TENANTS: usize = 2;

/// Recovery repetitions per run.
pub const RECOVERY_REPS: usize = 7;

/// The probe recovery timings are scaled by: replaying or re-streaming
/// a million events is computation on every workload.
pub const RECOVERY_PROBE: Probe = Probe::Sort;

/// The tick grid every session and tenant declares.
pub fn tick_grid() -> TickGrid {
    TickGrid::new(GRID, GRID)
}

/// How a workload drives the placement path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One closed-loop client over loopback against a daemon child.
    Serve,
    /// In-process `CompiledInstance::run`, one thread, no daemon.
    Replay,
}

/// The arrival process, which sets how many bins are open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Geometric gaps; open bins stay below [`SCAN_CROSSOVER`], so the
    /// tick engine's linear scan runs.
    Poisson,
    /// Flash crowds: waves of `per_wave` simultaneous arrivals one
    /// time unit apart; thousands of bins open, so the `FitTree` scan
    /// runs.
    Bursty {
        /// Items per wave.
        per_wave: usize,
    },
}

/// One workload's shape and frozen window size.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Served or replayed.
    pub kind: Kind,
    /// Events per request frame.
    pub frame_events: usize,
    /// Tenants journal every accepted event before the ack.
    pub journal: bool,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Items per tenant lifetime (hello, stream, `finish`); one replay
    /// call replays the same instance.
    pub lifetime_items: usize,
    /// Lifetimes per timed window (replay: calls per window). Frozen
    /// so every window does the same work.
    pub lifetimes_per_window: usize,
    /// The probe the windows' timings are scaled by: echo where socket
    /// round trips dominate, sort where computation does.
    pub window_probe: Probe,
    /// Events each recovery tenant holds.
    pub recovery_events: usize,
}

impl WorkloadSpec {
    /// Events in one lifetime.
    pub fn lifetime_events(&self) -> usize {
        2 * self.lifetime_items
    }

    /// Events in one timed window.
    pub fn events_per_window(&self) -> u64 {
        (self.lifetimes_per_window * self.lifetime_events()) as u64
    }

    /// The seeded generator for `n` items of this workload's shape.
    pub fn generator(&self, n: usize, seed: u64) -> RandomWorkload {
        let arrivals = match self.arrivals {
            Arrivals::Poisson => ArrivalDist::Poissonish {
                mean_gap: rat(1, POISSON_RATE),
            },
            Arrivals::Bursty { per_wave } => ArrivalDist::Bursty {
                bursts: n.div_ceil(per_wave) as u32,
                spacing: Rational::ONE,
            },
        };
        RandomWorkload {
            n,
            seed,
            grid: GRID as i128,
            sizes: SizeDist::Uniform { max: Rational::ONE },
            durations: DurationDist::Uniform {
                min: Rational::ONE,
                max: rat(MU, 1),
            },
            arrivals,
        }
    }

    /// The probe set-up timings are scaled by: daemon start-up is
    /// process and socket work, compile is computation.
    pub fn setup_probe(&self) -> Probe {
        match self.kind {
            Kind::Serve => Probe::Echo,
            Kind::Replay => Probe::Sort,
        }
    }

    /// Whether a lifetime's open-bin profile sits in this workload's
    /// band: below the scan crossover for Poisson streams, past 4000
    /// for flash crowds.
    pub fn in_band(&self, shape: &Shape) -> bool {
        match self.arrivals {
            Arrivals::Poisson => {
                (200.0..=400.0).contains(&shape.open_bins_mean)
                    && shape.peak_open_bins < SCAN_CROSSOVER
            }
            Arrivals::Bursty { .. } => shape.peak_open_bins >= 4000,
        }
    }
}

const SINGLE: WorkloadSpec = WorkloadSpec {
    name: "serve-single",
    kind: Kind::Serve,
    frame_events: 1,
    journal: false,
    arrivals: Arrivals::Poisson,
    lifetime_items: 5_000,
    lifetimes_per_window: 4,
    window_probe: Probe::Echo,
    recovery_events: RECOVERY_EVENTS,
};

const BATCH: WorkloadSpec = WorkloadSpec {
    name: "serve-batch",
    kind: Kind::Serve,
    frame_events: 1024,
    journal: false,
    arrivals: Arrivals::Bursty { per_wave: 3_000 },
    lifetime_items: 60_000,
    lifetimes_per_window: 1,
    window_probe: Probe::Sort,
    recovery_events: RECOVERY_EVENTS,
};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    SINGLE,
    BATCH,
    WorkloadSpec {
        name: "serve-durable",
        journal: true,
        ..SINGLE
    },
    WorkloadSpec {
        name: "replay",
        kind: Kind::Replay,
        lifetimes_per_window: 36,
        ..BATCH
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Renders an instance into the wire stream a live client would send:
/// departures before arrivals at equal times, then item order — the
/// replay order of `CompiledInstance`, so outcomes agree bit for bit.
pub fn render(instance: &Instance) -> Vec<Event> {
    event_schedule(instance)
        .iter()
        .map(|e| match e.class {
            EventClass::Arrival => Event::Arrive {
                id: e.payload,
                size: instance.items()[e.payload.0 as usize].size,
                time: e.time,
            },
            _ => Event::Depart {
                id: e.payload,
                time: e.time,
            },
        })
        .collect()
}

/// A lifetime's open-bin profile (per event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Mean open bins after each event.
    pub open_bins_mean: f64,
    /// Most bins open at once.
    pub peak_open_bins: usize,
}

/// What every lifetime and replay must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// The in-process outcome over the lifetime stream.
    pub outcome: PackingOutcome,
    /// Total bin usage over `max(vol, span)`, the paper's objective
    /// against its lower bound.
    pub usage_over_lb: f64,
}

impl Reference {
    /// First Fit on the declared grid over `events`, with telemetry
    /// for the lower bound — the same algorithm and grid the tenants
    /// and the compiled replay run.
    pub fn compute(events: &[Event]) -> Reference {
        let mut session = Session::builder(FirstFit::new())
            .grid(tick_grid())
            .telemetry()
            .without_checkpoints()
            .build()
            .expect("First Fit runs on the tick grid");
        session
            .ingest(events)
            .expect("rendered streams obey the online contract");
        let usage_over_lb = session
            .metrics()
            .ratio_upper_estimate()
            .expect("telemetry is on and the stream is non-empty")
            .to_f64();
        Reference {
            outcome: session.finish().expect("every item departs"),
            usage_over_lb,
        }
    }
}

/// Open bins after every event of `events`.
pub fn shape(events: &[Event]) -> Shape {
    // No telemetry: with it, `metrics()` costs O(active items).
    let mut session = Session::builder(FirstFit::new())
        .grid(tick_grid())
        .without_checkpoints()
        .build()
        .expect("First Fit runs on the tick grid");
    let mut sum = 0u64;
    for event in events {
        session
            .apply(event)
            .expect("rendered streams obey the online contract");
        sum += session.metrics().open_bins as u64;
    }
    Shape {
        open_bins_mean: sum as f64 / events.len() as f64,
        peak_open_bins: session.metrics().peak_open_bins,
    }
}

/// Everything a run needs, built once before timing.
pub struct Inputs {
    /// One lifetime's instance (compiled by `replay`).
    pub instance: Instance,
    /// The instance as a wire stream.
    pub events: Vec<Event>,
    /// What each lifetime and replay must produce.
    pub reference: Reference,
    /// The lifetime's open-bin profile.
    pub shape: Shape,
    /// The stream each recovery tenant holds.
    pub recovery: Vec<Event>,
}

impl Inputs {
    /// Builds a workload's inputs from its seed.
    pub fn build(spec: &WorkloadSpec, seed: u64) -> Inputs {
        let instance = spec.generator(spec.lifetime_items, seed).generate();
        let events = render(&instance);
        let recovery = render(&spec.generator(spec.recovery_events / 2, seed).generate());
        Inputs {
            reference: Reference::compute(&events),
            shape: shape(&events),
            instance,
            events,
            recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn workloads_match_the_contract() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, Spec::get().workloads);
    }

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        for w in &WORKLOADS {
            let a = w.generator(2_000, 7).generate();
            assert_eq!(a, w.generator(2_000, 7).generate());
            assert_ne!(a, w.generator(2_000, 8).generate());
            assert_eq!(render(&a).len(), 4_000);
        }
    }

    #[test]
    fn lifetimes_hold_their_open_bin_bands() {
        // Full-size lifetimes: the shape is what the band is about.
        for w in [&WORKLOADS[0], &WORKLOADS[1]] {
            for seed in [1, 2] {
                let events = render(&w.generator(w.lifetime_items, seed).generate());
                let shape = shape(&events);
                assert!(w.in_band(&shape), "{} seed {seed}: {shape:?}", w.name);
            }
        }
    }

    #[test]
    fn reference_matches_the_compiled_replay() {
        let w = &WORKLOADS[3];
        let instance = w.generator(3_000, 5).generate();
        let reference = Reference::compute(&render(&instance));
        let replayed = dbp_core::CompiledInstance::compile(&instance)
            .unwrap()
            .run(dbp_core::TickPolicy::FirstFit)
            .unwrap();
        assert_eq!(replayed, reference.outcome);
        assert!(reference.usage_over_lb >= 1.0);
    }
}
