//! Tree-backed Any-Fit algorithms: `O(log B)` placement decisions.
//!
//! [`FirstFitFast`], [`BestFitFast`] and [`WorstFitFast`] are drop-in
//! replacements for the linear-scan [`FirstFit`](super::FirstFit) /
//! [`BestFit`](super::BestFit) / [`WorstFit`](super::WorstFit): same
//! [`PackingAlgorithm`] trait, **bit-identical placement decisions**
//! (asserted by the `prop_fast_fit` property suite), but each arrival
//! costs one [`FitTree`] descent instead of a scan over every open
//! bin.
//!
//! The tree is kept in sync with the engine purely through the
//! algorithm callbacks — [`on_placed`](PackingAlgorithm::on_placed)
//! charges the placed size against the chosen bin (or registers the
//! fresh bin), [`on_departure`](PackingAlgorithm::on_departure) reads
//! the bin's post-departure level from the snapshot, and
//! [`on_bin_closed`](PackingAlgorithm::on_bin_closed) tombstones the
//! leaf. No engine internals are touched, so these run against any
//! driver of the `PackingAlgorithm` trait. Like the other stateful
//! algorithms (Next Fit, Hybrid First Fit), one value must not be
//! shared across interleaved engines; `reset` restores pristine
//! state.

use super::{ArrivalView, PackingAlgorithm, Placement};
use crate::bin::{BinId, BinSnapshot};
use crate::fit_tree::FitTree;
use crate::item::ItemId;
use crate::probe::ProbeCounter;
use crate::tick::TickPolicy;
use dbp_numeric::Rational;
use std::marker::PhantomData;

/// Which `FitTree` query a [`TreeFit`] instance runs per arrival.
/// (`Send` because [`PackingAlgorithm`] requires it of `TreeFit`.)
pub trait TreeRule: Send {
    /// Static display name of the resulting algorithm.
    const NAME: &'static str;
    /// The equivalent integer-engine policy (see
    /// [`PackingAlgorithm::tick_policy`]).
    const TICK: TickPolicy;
    /// Selects a feasible bin for `size` (or `None` to open) plus the
    /// number of tree nodes the query visited (probe accounting).
    fn query_counted(tree: &FitTree, size: Rational) -> (Option<BinId>, u32);

    /// Selects a feasible bin for `size`, or `None` to open.
    fn query(tree: &FitTree, size: Rational) -> Option<BinId> {
        Self::query_counted(tree, size).0
    }
}

/// First Fit rule: earliest-opened feasible bin.
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestFeasible;

impl TreeRule for EarliestFeasible {
    const TICK: TickPolicy = TickPolicy::FirstFit;
    const NAME: &'static str = "FirstFitFast";
    fn query_counted(tree: &FitTree, size: Rational) -> (Option<BinId>, u32) {
        tree.first_fit_counted(size)
    }
}

/// Best Fit rule: highest-level feasible bin, ties earliest-opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct TightestFeasible;

impl TreeRule for TightestFeasible {
    const TICK: TickPolicy = TickPolicy::BestFit;
    const NAME: &'static str = "BestFitFast";
    fn query_counted(tree: &FitTree, size: Rational) -> (Option<BinId>, u32) {
        tree.best_fit_counted(size)
    }
}

/// Worst Fit rule: lowest-level feasible bin, ties earliest-opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoomiestFeasible;

impl TreeRule for RoomiestFeasible {
    const TICK: TickPolicy = TickPolicy::WorstFit;
    const NAME: &'static str = "WorstFitFast";
    fn query_counted(tree: &FitTree, size: Rational) -> (Option<BinId>, u32) {
        tree.worst_fit_counted(size)
    }
}

/// Generic tree-backed Any-Fit algorithm over a [`TreeRule`]. Its
/// index is built for the rule's policy, so only Best Fit keeps the
/// tree's `(gap, id)` ordered set.
#[derive(Debug, Clone)]
pub struct TreeFit<R: TreeRule> {
    tree: FitTree,
    /// Size of the arrival whose placement decision is in flight
    /// (set by `place`, consumed by `on_placed`).
    pending: Option<Rational>,
    /// Tree nodes visited by the most recent `place` query (probe
    /// accounting; one integer store per arrival).
    last_depth: u64,
    _rule: PhantomData<R>,
}

impl<R: TreeRule> TreeFit<R> {
    /// Creates the algorithm with an empty index.
    pub fn new() -> TreeFit<R> {
        TreeFit {
            tree: FitTree::for_policy(R::TICK),
            pending: None,
            last_depth: 0,
            _rule: PhantomData,
        }
    }

    /// Read access to the underlying index (diagnostics/tests).
    pub fn tree(&self) -> &FitTree {
        &self.tree
    }
}

impl<R: TreeRule> Default for TreeFit<R> {
    fn default() -> TreeFit<R> {
        TreeFit::new()
    }
}

impl<R: TreeRule> PackingAlgorithm for TreeFit<R> {
    fn name(&self) -> String {
        R::NAME.to_string()
    }

    fn reset(&mut self) {
        self.tree.clear();
        self.pending = None;
        self.last_depth = 0;
    }

    fn place(&mut self, arrival: &ArrivalView, _bins: &BinSnapshot<'_>) -> Placement {
        self.pending = Some(arrival.size);
        let (hit, depth) = R::query_counted(&self.tree, arrival.size);
        self.last_depth = depth as u64;
        match hit {
            Some(bin) => Placement::Existing(bin),
            None => Placement::OpenNew,
        }
    }

    fn on_placed(&mut self, _item: ItemId, bin: BinId, new_bin: bool, _time: Rational) {
        let size = self
            .pending
            .take()
            .expect("on_placed must follow a place() call");
        if new_bin {
            self.tree.open(bin, Rational::ONE - size);
        } else {
            self.tree.place(bin, size);
        }
    }

    fn on_departure(&mut self, _item: ItemId, bin: BinId, _time: Rational, bins: &BinSnapshot<'_>) {
        // The snapshot is post-removal: if the bin is still open its
        // new level is authoritative; if it closed, `on_bin_closed`
        // fires next and tombstones the leaf.
        if let Some(b) = bins.get(bin) {
            self.tree.set_gap(bin, Rational::ONE - b.level);
        }
    }

    fn on_bin_closed(&mut self, bin: BinId, _time: Rational) {
        self.tree.close(bin);
    }

    fn tick_policy(&self) -> Option<TickPolicy> {
        Some(R::TICK)
    }

    fn probe_sample(&self) -> Option<(ProbeCounter, u64)> {
        Some((ProbeCounter::TreeDepth, self.last_depth))
    }
}

/// Tree-backed First Fit (see [`EarliestFeasible`]).
pub type FirstFitFast = TreeFit<EarliestFeasible>;
/// Tree-backed Best Fit (see [`TightestFeasible`]).
pub type BestFitFast = TreeFit<TightestFeasible>;
/// Tree-backed Worst Fit (see [`RoomiestFeasible`]).
pub type WorstFitFast = TreeFit<RoomiestFeasible>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BestFit, FirstFit, WorstFit};
    use crate::item::Instance;
    use crate::session::Runner;
    use dbp_numeric::rat;

    /// A churny scenario: mid-run closures, exact fills, equal-time
    /// departure/arrival boundaries.
    fn scenario() -> Instance {
        Instance::builder()
            .item(rat(7, 10), rat(0, 1), rat(10, 1))
            .item(rat(2, 5), rat(0, 1), rat(6, 1))
            .item(rat(9, 10), rat(0, 1), rat(1, 1)) // closes its bin at t=1
            .item(rat(1, 2), rat(1, 1), rat(10, 1)) // arrives as that closes
            .item(rat(3, 10), rat(2, 1), rat(10, 1)) // exact fill of b0
            .item(rat(3, 5), rat(6, 1), rat(10, 1)) // arrives at a departure instant
            .build()
            .unwrap()
    }

    #[test]
    fn fast_first_fit_matches_reference() {
        let inst = scenario();
        let fast = Runner::new(&inst).run(&mut FirstFitFast::new()).unwrap();
        let slow = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        assert_eq!(fast.assignments(), slow.assignments());
        assert_eq!(fast.bins(), slow.bins());
        assert_eq!(fast.total_usage(), slow.total_usage());
        assert_eq!(fast.algorithm(), "FirstFitFast");
    }

    #[test]
    fn fast_best_and_worst_match_reference() {
        let inst = scenario();
        let bf_fast = Runner::new(&inst).run(&mut BestFitFast::new()).unwrap();
        let bf = Runner::new(&inst).run(&mut BestFit::new()).unwrap();
        assert_eq!(bf_fast.assignments(), bf.assignments());
        let wf_fast = Runner::new(&inst).run(&mut WorstFitFast::new()).unwrap();
        let wf = Runner::new(&inst).run(&mut WorstFit::new()).unwrap();
        assert_eq!(wf_fast.assignments(), wf.assignments());
    }

    #[test]
    fn reuse_across_runs_via_reset() {
        let inst = scenario();
        let mut ff = FirstFitFast::new();
        let a = Runner::new(&inst).run(&mut ff).unwrap();
        let b = Runner::new(&inst).run(&mut ff).unwrap(); // reset() clears the tree
        assert_eq!(a, b);
        assert!(ff.tree().is_empty()); // everything departed and closed
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FirstFitFast::new().name(), "FirstFitFast");
        assert_eq!(BestFitFast::new().name(), "BestFitFast");
        assert_eq!(WorstFitFast::new().name(), "WorstFitFast");
    }
}
