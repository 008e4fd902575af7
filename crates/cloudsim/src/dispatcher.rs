//! End-to-end dispatch simulation.
//!
//! Jobs map one-to-one onto DBP items (the paper's reduction, §I):
//! the job's resource demand is the item size, its lifetime the item
//! interval, a server a unit bin. Dispatch is migration-free and
//! online — exactly the packing engine's contract — so the simulator
//! replays the stream through a [`dbp_core::session::Runner`] and
//! derives the billing and fleet reports from the outcome.
//!
//! [`simulate`] is a builder: configure billing, an observer, and an
//! engine backend, then [`run`](Simulation::run) a dispatch
//! algorithm. Live streaming sessions produce the same reports via
//! [`CostReport::from_outcome`] on their finished outcome.

use crate::billing::BillingModel;
use crate::report::CostReport;
use dbp_core::session::{Backend, Runner, SessionError};
use dbp_core::{EngineObserver, Instance, PackingAlgorithm};

/// Starts a dispatch simulation over the job stream `jobs`.
///
/// Defaults: [`BillingModel::Continuous`], no observer,
/// [`Backend::Auto`] (the engine picks the integer tick path when the
/// algorithm and stream allow it — outcomes are identical either
/// way).
///
/// ```
/// use dbp_cloudsim::prelude::*;
/// use dbp_core::prelude::*;
/// use dbp_numeric::rat;
///
/// let jobs = Instance::builder()
///     .item(rat(1, 2), rat(0, 1), rat(60, 1))
///     .build()
///     .unwrap();
/// let report = simulate(&jobs)
///     .billing(BillingModel::hourly())
///     .run(&mut FirstFit::new())
///     .unwrap();
/// assert_eq!(report.billed_time, rat(60, 1));
/// ```
pub fn simulate(jobs: &Instance) -> Simulation<'_> {
    Simulation {
        jobs,
        billing: BillingModel::Continuous,
        observer: None,
        backend: Backend::Auto,
    }
}

/// A configured-but-not-yet-run dispatch simulation. Built by
/// [`simulate`]; consumed by [`run`](Simulation::run).
pub struct Simulation<'a> {
    jobs: &'a Instance,
    billing: BillingModel,
    observer: Option<&'a mut dyn EngineObserver>,
    backend: Backend,
}

impl<'a> Simulation<'a> {
    /// Sets the billing model applied per server rental.
    pub fn billing(mut self, billing: BillingModel) -> Simulation<'a> {
        self.billing = billing;
        self
    }

    /// Attaches an [`EngineObserver`]: every dispatch decision
    /// streams through it before the report is assembled. Observed
    /// runs always use the exact engine.
    pub fn observer(mut self, observer: &'a mut dyn EngineObserver) -> Simulation<'a> {
        self.observer = Some(observer);
        self
    }

    /// Pins the engine backend (see [`Backend`]); [`Backend::Auto`]
    /// by default.
    pub fn backend(mut self, backend: Backend) -> Simulation<'a> {
        self.backend = backend;
        self
    }

    /// Replays the job stream against `algo` and assembles the
    /// [`CostReport`].
    pub fn run(self, algo: &mut dyn PackingAlgorithm) -> Result<CostReport, SessionError> {
        let mut runner = Runner::new(self.jobs).backend(self.backend);
        if let Some(observer) = self.observer {
            runner = runner.observer(observer);
        }
        let outcome = runner.run(algo)?;
        Ok(CostReport::from_outcome(
            &outcome,
            self.jobs.len(),
            self.billing,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;
    use dbp_core::session::Session;
    use dbp_numeric::{rat, Rational};

    fn jobs() -> Instance {
        // Times in minutes. Three jobs over ~2 hours.
        Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(50, 1))
            .item(rat(1, 2), rat(20, 1), rat(90, 1))
            .item(rat(3, 4), rat(30, 1), rat(100, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn continuous_billing_matches_usage() {
        let r = simulate(&jobs()).run(&mut FirstFit::new()).unwrap();
        assert_eq!(r.billed_time, r.usage_time);
        assert_eq!(r.billing_overhead(), Some(rat(1, 1)));
        assert_eq!(r.jobs, 3);
    }

    #[test]
    fn hourly_billing_rounds_each_rental() {
        // FF: jobs 1+2 share server A ([0,90), 90 min → 120 billed);
        // job 3 (3/4) needs server B ([30,100), 70 min → 120 billed).
        let r = simulate(&jobs())
            .billing(BillingModel::hourly())
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(r.servers_used, 2);
        assert_eq!(r.usage_time, rat(160, 1));
        assert_eq!(r.billed_time, rat(240, 1));
        assert_eq!(r.billing_overhead(), Some(rat(3, 2)));
        for s in &r.servers {
            assert!(s.billed >= s.rental.len());
            assert!(s.mean_utilization <= Rational::ONE);
        }
    }

    #[test]
    fn open_series_tracks_fleet() {
        let r = simulate(&jobs()).run(&mut FirstFit::new()).unwrap();
        assert_eq!(r.open_at(rat(-1, 1)), 0);
        assert_eq!(r.open_at(rat(0, 1)), 1);
        assert_eq!(r.open_at(rat(40, 1)), 2);
        assert_eq!(r.open_at(rat(95, 1)), 1);
        assert_eq!(r.open_at(rat(100, 1)), 0);
        assert_eq!(r.peak_servers, 2);
    }

    #[test]
    fn backends_agree_on_the_bill() {
        let exact = simulate(&jobs())
            .billing(BillingModel::hourly())
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap();
        let auto = simulate(&jobs())
            .billing(BillingModel::hourly())
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(exact, auto);
    }

    #[test]
    fn live_session_reports_the_same_bill() {
        // Stream the same jobs through a Session and bill its
        // outcome: identical report to the batch simulation.
        let batch = simulate(&jobs())
            .billing(BillingModel::hourly())
            .run(&mut FirstFit::new())
            .unwrap();
        let mut session = Session::builder(FirstFit::new()).build().unwrap();
        session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        session.arrive(ItemId(1), rat(1, 2), rat(20, 1)).unwrap();
        session.arrive(ItemId(2), rat(3, 4), rat(30, 1)).unwrap();
        session.depart(ItemId(0), rat(50, 1)).unwrap();
        session.depart(ItemId(1), rat(90, 1)).unwrap();
        session.depart(ItemId(2), rat(100, 1)).unwrap();
        let outcome = session.finish().unwrap();
        let live = CostReport::from_outcome(&outcome, 3, BillingModel::hourly());
        assert_eq!(live, batch);
    }

    #[test]
    fn observed_simulation_bills_the_same() {
        let mut obs = NoopObserver;
        let r = simulate(&jobs())
            .billing(BillingModel::hourly())
            .observer(&mut obs)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(r.billed_time, rat(240, 1));
    }

    #[test]
    fn different_dispatchers_compared_fairly() {
        let stream = Instance::builder()
            .item(rat(1, 2), rat(0, 1), rat(10, 1))
            .item(rat(1, 4), rat(0, 1), rat(120, 1))
            .item(rat(1, 2), rat(15, 1), rat(30, 1))
            .item(rat(1, 2), rat(40, 1), rat(55, 1))
            .build()
            .unwrap();
        let ff = simulate(&stream)
            .billing(BillingModel::hourly())
            .run(&mut FirstFit::new())
            .unwrap();
        let nf = simulate(&stream)
            .billing(BillingModel::hourly())
            .run(&mut NextFit::new())
            .unwrap();
        // Both dispatch everything; cost comparison is meaningful.
        assert_eq!(ff.jobs, nf.jobs);
        assert!(ff.billed_time <= nf.billed_time, "FF should not lose here");
    }

    #[test]
    fn empty_stream_yields_idle_report() {
        let empty = Instance::new(vec![]).unwrap();
        let r = simulate(&empty)
            .billing(BillingModel::hourly())
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(r.servers_used, 0);
        assert_eq!(r.billed_time, Rational::ZERO);
        assert_eq!(r.billing_overhead(), None);
        assert!(r.open_series.is_empty());
    }

    #[test]
    fn equal_time_rental_end_and_start_merge_in_open_series() {
        // A full-size job forces its server closed at t=10, and the
        // next full-size job arrives exactly then. Closed servers
        // never reopen, so a second server starts at the same instant
        // the first one ends: the step series must merge the two
        // endpoint deltas into one entry (end applied before start)
        // rather than dipping to 0 at t=10.
        let stream = Instance::builder()
            .item(rat(1, 1), rat(0, 1), rat(10, 1))
            .item(rat(1, 1), rat(10, 1), rat(20, 1))
            .build()
            .unwrap();
        let r = simulate(&stream).run(&mut FirstFit::new()).unwrap();
        assert_eq!(r.servers_used, 2);
        assert_eq!(r.peak_servers, 1);
        assert_eq!(
            r.open_series,
            vec![
                (rat(0, 1), 1),
                (rat(10, 1), 1), // merged: -1 (end) then +1 (start)
                (rat(20, 1), 0),
            ]
        );
        assert_eq!(r.open_at(rat(10, 1)), 1);
    }

    #[test]
    fn degenerate_outcomes_utilization_and_mean_level() {
        // Empty run: no usage, so utilization is undefined.
        let empty = Instance::new(vec![]).unwrap();
        let out = Runner::new(&empty).run(&mut FirstFit::new()).unwrap();
        assert_eq!(out.utilization(), None);
        assert!(out.bins().is_empty());

        // Single item: the bin's mean level is exactly the item size,
        // and the run's utilization equals it.
        let single = Instance::builder()
            .item(rat(1, 3), rat(0, 1), rat(7, 1))
            .build()
            .unwrap();
        let out = Runner::new(&single).run(&mut FirstFit::new()).unwrap();
        assert_eq!(out.bins().len(), 1);
        assert_eq!(out.bins()[0].mean_level(), Some(rat(1, 3)));
        assert_eq!(out.utilization(), Some(rat(1, 3)));

        // Perfectly packed run: utilization is exactly 1.
        let full = Instance::builder()
            .item(rat(1, 1), rat(0, 1), rat(5, 1))
            .build()
            .unwrap();
        let out = Runner::new(&full).run(&mut FirstFit::new()).unwrap();
        assert_eq!(out.utilization(), Some(Rational::ONE));
        assert_eq!(out.bins()[0].mean_level(), Some(Rational::ONE));
    }

    #[test]
    fn gaming_trace_end_to_end() {
        // Smoke: a day of synthetic cloud gaming dispatches cleanly
        // and produces a sane bill.
        let trace = dbp_workloads::GamingConfig::default().generate();
        let r = simulate(&trace.instance)
            .billing(BillingModel::hourly())
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(r.jobs, trace.instance.len());
        assert!(r.billed_time >= r.usage_time);
        assert!(r.utilization.unwrap() <= Rational::ONE);
        assert!(r.peak_servers >= 1);
    }
}
