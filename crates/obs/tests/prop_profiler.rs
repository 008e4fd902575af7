//! Attaching the profiler must be invisible to the packing.
//!
//! A [`Profiler`] hangs off the engines' `PhaseProbe` hooks, which
//! carry no packing semantics — so a profiled run must produce the
//! same outcome, bit for bit, as an unprofiled one, on **both**
//! engines. These properties replay random instances — dense with
//! equal-time departure/arrival boundaries, exact fills, and mid-run
//! bin closures — through profiled and bare runs of each Any-Fit
//! policy on each backend and require identical outcomes.

use dbp_core::prelude::*;
use dbp_core::{PackingAlgorithm, PackingOutcome, SessionError};
use dbp_numeric::rat;
use dbp_obs::Profiler;
use proptest::prelude::*;

/// Strategy: a well-formed instance with up to 40 items.
///
/// Quarter-grid arrivals and durations force many simultaneous
/// events (departure-before-arrival ties at equal timestamps); the
/// size law mixes tiny and near-unit items so both the "fits
/// somewhere" and "forces a new bin" branches fire constantly.
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

/// Runs `make()` bare and under a fresh profiler on `backend`,
/// requiring identical outcomes — and that the profiler saw every
/// event of the run it watched.
fn assert_profile_invisible(
    inst: &Instance,
    backend: Backend,
    make: &dyn Fn() -> Box<dyn PackingAlgorithm>,
) -> Result<(), TestCaseError> {
    let bare: Result<PackingOutcome, SessionError> =
        Runner::new(inst).backend(backend).run(make().as_mut());
    let mut prof = Profiler::new();
    let profiled = Runner::new(inst)
        .backend(backend)
        .probe(&mut prof)
        .run(make().as_mut());
    match (bare, profiled) {
        (Ok(b), Ok(p)) => {
            prop_assert_eq!(&b, &p, "profiled run diverged on {:?}", backend);
            prop_assert_eq!(prof.events(), 2 * inst.len() as u64);
            let total: f64 = prof.phase_shares().iter().map(|(_, s)| s).sum();
            if !inst.is_empty() {
                prop_assert!((total - 1.0).abs() < 1e-9, "shares sum to {}", total);
            }
        }
        // Strict-tick failures (or any error) must not depend on the
        // probe either.
        (b, p) => prop_assert_eq!(b, p),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn profiled_first_fit_is_bit_identical(inst in instance_strategy()) {
        for backend in [Backend::Auto, Backend::Exact, Backend::Tick] {
            assert_profile_invisible(&inst, backend, &|| Box::new(FirstFit::new()))?;
        }
    }

    #[test]
    fn profiled_best_fit_is_bit_identical(inst in instance_strategy()) {
        for backend in [Backend::Auto, Backend::Exact, Backend::Tick] {
            assert_profile_invisible(&inst, backend, &|| Box::new(BestFit::new()))?;
        }
    }

    #[test]
    fn profiled_worst_fit_is_bit_identical(inst in instance_strategy()) {
        for backend in [Backend::Auto, Backend::Exact, Backend::Tick] {
            assert_profile_invisible(&inst, backend, &|| Box::new(WorstFit::new()))?;
        }
    }

    /// Event-sampled profilers skip clock reads, never events: the
    /// outcome and the event tally must match the every-event run.
    #[test]
    fn sampling_rate_changes_nothing_but_span_counts(
        inst in instance_strategy(),
        every in 1u64..=7,
    ) {
        let bare = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        let mut prof = Profiler::new().with_sampling(every);
        let profiled = Runner::new(&inst)
            .probe(&mut prof)
            .run(&mut FirstFit::new())
            .unwrap();
        prop_assert_eq!(bare, profiled);
        prop_assert_eq!(prof.events(), 2 * inst.len() as u64);
        prop_assert_eq!(prof.sampled_events(), prof.events().div_ceil(every));
    }
}

/// The crossover-scale anchor: a staircase wide enough to drive the
/// tick engine's adaptive scan over `SCAN_CROSSOVER` while profiled,
/// checked against the bare run on both engines.
#[test]
fn profiled_staircase_crosses_the_scan_threshold() {
    let n: i128 = 5 * dbp_core::SCAN_CROSSOVER as i128;
    let window: i128 = 3 * dbp_core::SCAN_CROSSOVER as i128;
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
    let bare = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
    let mut prof = Profiler::new();
    let profiled = Runner::new(&inst)
        .probe(&mut prof)
        .run(&mut FirstFit::new())
        .unwrap();
    assert_eq!(bare, profiled);
    assert!(
        bare.max_open_bins() > dbp_core::SCAN_CROSSOVER,
        "staircase must exceed the crossover, got {}",
        bare.max_open_bins()
    );
    // Post-crossover arrivals report tree descents, pre-crossover
    // ones linear scans: both counters saw work.
    use dbp_core::ProbeCounter;
    assert!(prof.counter(ProbeCounter::BinsScanned).count() > 0);
    assert!(prof.counter(ProbeCounter::TreeDepth).count() > 0);
}
