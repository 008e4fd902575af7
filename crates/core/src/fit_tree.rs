//! `FitTree` — the tick engine's sublinear placement index over open
//! bins.
//!
//! A linear Any-Fit scan visits every open bin per arrival, which
//! makes a replay with `B` concurrent bins cost `Θ(n·B)`. Above
//! [`SCAN_CROSSOVER`](crate::SCAN_CROSSOVER) open bins the tick engine
//! (`crate::tick`) switches to this classic alternative (a
//! Johnson-style tournament tree over residual capacities): one leaf
//! per bin, internal nodes storing the **maximum residual gap** of
//! their subtree, so that the three Any-Fit selection rules become
//! `O(log B)` tree descents:
//!
//! * [`first_fit`](FitTree::first_fit) — the *earliest-opened* bin
//!   with `gap ≥ s` (leftmost feasible leaf);
//! * [`worst_fit`](FitTree::worst_fit) — the *lowest-level* feasible
//!   bin (leftmost leaf attaining the maximum gap);
//! * [`best_fit`](FitTree::best_fit) — the *highest-level* feasible
//!   bin, answered from a companion ordered set keyed `(gap, id)`
//!   (a tournament tree alone cannot answer "minimum gap ≥ s" in one
//!   descent).
//!
//! Only a tree built for Best Fit keeps that ordered set
//! ([`FitTree::new`], or [`FitTree::for_policy`] with
//! [`TickPolicy::BestFit`]). A tree built for First or Worst Fit
//! skips it, so each of its updates is one leaf write plus one
//! pull-up, with no B-tree remove/insert per event. The tick engine
//! builds its tree from the policy it runs, so the policy alone
//! decides which index exists.
//!
//! Keys are the tick engine's integer gaps in size units, **shifted
//! by one** (`key = gap + 1 ≥ 1`) so that `0` is free to tombstone
//! closed leaves; queries shift the size the same way (`size + 1`),
//! which preserves every comparison, and [`place`](FitTree::place)
//! subtracts the unshifted size. Every comparison on a descent is a
//! machine integer compare.
//!
//! Leaves are indexed by [`BinId`] directly — bin ids are assigned in
//! opening order and never reused, so leaf order *is* opening order
//! and "leftmost" *is* "earliest opened". Closed bins leave a
//! tombstone leaf that no query can match. The leaf array doubles
//! geometrically as ids grow, so a tree that has seen `N` bins opened
//! pays `O(log N)` per query and amortized `O(1)` growth per opening.
//! A batch run bounds `N` by its item count and
//! [`clear`](FitTree::clear)s the tree between runs; a streaming
//! session never clears it, so there the leaves grow with every bin
//! the session has ever opened, closed ones included.

use crate::bin::BinId;
use crate::tick::TickPolicy;
use std::collections::BTreeSet;

/// Key of tombstoned (closed) and never-opened leaves: strictly below
/// every live key, so no query (whose keys are `size + 1 ≥ 2`) can
/// match it.
const CLOSED: u64 = 0;

/// Tournament (max-)tree over bin residual gaps, plus — in a tree
/// built for Best Fit — an ordered `(gap, id)` set for Best-Fit
/// queries. See the module docs.
#[derive(Debug, Clone)]
pub struct FitTree {
    /// Number of leaves (a power of two, or 0 before first use).
    cap: usize,
    /// 1-based flat tree: `tree[1]` is the root, leaves occupy
    /// `tree[cap..2·cap]`; `tree[i]` is the max key in the subtree.
    tree: Vec<u64>,
    /// Number of live (non-tombstoned) leaves.
    live: usize,
    /// Live bins ordered by `(key, id)`: Best Fit is the first entry
    /// at or above `(s, BinId(0))`. `None` in a tree built for First
    /// or Worst Fit, which never asks.
    by_gap: Option<BTreeSet<(u64, BinId)>>,
}

impl Default for FitTree {
    fn default() -> FitTree {
        FitTree::new()
    }
}

impl FitTree {
    /// Creates an empty index that answers all three queries (the
    /// Best-Fit ordered set included).
    pub fn new() -> FitTree {
        FitTree::for_policy(TickPolicy::BestFit)
    }

    /// Creates an empty index for one selection rule: the `(gap, id)`
    /// ordered set is kept only for [`TickPolicy::BestFit`], so First
    /// and Worst Fit updates skip it.
    pub fn for_policy(policy: TickPolicy) -> FitTree {
        FitTree {
            cap: 0,
            tree: Vec::new(),
            live: 0,
            by_gap: (policy == TickPolicy::BestFit).then(BTreeSet::new),
        }
    }

    /// Removes every bin (start of a new run); the tree keeps the
    /// policy it was built for.
    pub fn clear(&mut self) {
        self.cap = 0;
        self.tree.clear();
        self.live = 0;
        if let Some(set) = &mut self.by_gap {
            set.clear();
        }
    }

    /// Number of live (open) bins in the index.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff no bin is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The key (`gap + 1`) of a live bin (`None` if closed or
    /// unknown).
    pub fn gap(&self, id: BinId) -> Option<u64> {
        let i = id.index();
        if i < self.cap && self.tree[self.cap + i] != CLOSED {
            Some(self.tree[self.cap + i])
        } else {
            None
        }
    }

    /// Grows the leaf array to cover `want` leaves, rebuilding the
    /// internal max nodes.
    fn grow(&mut self, want: usize) {
        let mut cap = self.cap.max(1);
        while cap < want {
            cap *= 2;
        }
        if cap == self.cap {
            return;
        }
        let mut tree = vec![CLOSED; 2 * cap];
        if self.cap > 0 {
            tree[cap..cap + self.cap].copy_from_slice(&self.tree[self.cap..2 * self.cap]);
        }
        for i in (1..cap).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        self.cap = cap;
        self.tree = tree;
    }

    /// Re-establishes the max invariant on the path above leaf `i`.
    fn pull_up(&mut self, mut i: usize) {
        i = (self.cap + i) / 2;
        while i >= 1 {
            let m = self.tree[2 * i].max(self.tree[2 * i + 1]);
            if self.tree[i] == m {
                break;
            }
            self.tree[i] = m;
            i /= 2;
        }
    }

    /// Registers a freshly opened bin with key `gap` (its residual
    /// gap plus one).
    ///
    /// # Panics
    /// Panics if `id` is already live (ids are never reused).
    pub fn open(&mut self, id: BinId, gap: u64) {
        let i = id.index();
        self.grow(i + 1);
        assert!(
            self.tree[self.cap + i] == CLOSED,
            "bin {id} opened twice in FitTree"
        );
        self.tree[self.cap + i] = gap;
        self.pull_up(i);
        self.live += 1;
        if let Some(set) = &mut self.by_gap {
            set.insert((gap, id));
        }
    }

    /// Shrinks a live bin's gap by `size` (an item was placed).
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn place(&mut self, id: BinId, size: u64) {
        let old = self.gap(id).expect("place() into a bin not in FitTree");
        self.replace(id, old, old - size);
    }

    /// Sets a live bin's key to an absolute value (an item departed
    /// and the bin's level is known).
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn set_gap(&mut self, id: BinId, gap: u64) {
        let old = self.gap(id).expect("set_gap() on a bin not in FitTree");
        self.replace(id, old, gap);
    }

    /// Moves live bin `id` from key `old` to `gap`.
    fn replace(&mut self, id: BinId, old: u64, gap: u64) {
        if old == gap {
            return;
        }
        if let Some(set) = &mut self.by_gap {
            set.remove(&(old, id));
            set.insert((gap, id));
        }
        let i = id.index();
        self.tree[self.cap + i] = gap;
        self.pull_up(i);
    }

    /// Tombstones a closed bin.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn close(&mut self, id: BinId) {
        let i = id.index();
        let old = self.gap(id).expect("close() of a bin not in FitTree");
        if let Some(set) = &mut self.by_gap {
            set.remove(&(old, id));
        }
        self.tree[self.cap + i] = CLOSED;
        self.pull_up(i);
        self.live -= 1;
    }

    /// First Fit: the earliest-opened live bin with key `≥ size`.
    pub fn first_fit(&self, size: u64) -> Option<BinId> {
        self.first_fit_counted(size).0
    }

    /// [`first_fit`](Self::first_fit) plus the number of tree nodes
    /// the descent visited (root check counts as 1). The counter is a
    /// register increment, so callers that discard it (the plain
    /// query) pay nothing after inlining; profiling probes read it as
    /// the per-arrival descent depth.
    pub fn first_fit_counted(&self, size: u64) -> (Option<BinId>, u32) {
        if self.cap == 0 || self.tree[1] < size {
            return (None, 1);
        }
        let mut i = 1;
        let mut depth = 1u32;
        while i < self.cap {
            i = if self.tree[2 * i] >= size {
                2 * i
            } else {
                2 * i + 1
            };
            depth += 1;
        }
        (Some(BinId((i - self.cap) as u32)), depth)
    }

    /// Best Fit: the highest-level (smallest-key) live bin with
    /// key `≥ size`; ties broken toward the earliest-opened bin.
    ///
    /// # Panics
    /// Panics if the tree was built for First or Worst Fit, which
    /// keeps no `(gap, id)` set to answer from.
    pub fn best_fit(&self, size: u64) -> Option<BinId> {
        self.by_gap
            .as_ref()
            .expect("best_fit() on a FitTree built without its Best-Fit set")
            .range((size, BinId(u32::MIN))..)
            .next()
            .map(|&(_, id)| id)
    }

    /// [`best_fit`](Self::best_fit) with a descent count of 1 (the
    /// ordered-set range lookup is one probe from the caller's view).
    pub fn best_fit_counted(&self, size: u64) -> (Option<BinId>, u32) {
        (self.best_fit(size), 1)
    }

    /// Worst Fit: the lowest-level (largest-key) live bin, provided
    /// it can take `size`; ties broken toward the earliest-opened
    /// bin (the leftmost leaf attaining the root's maximum).
    pub fn worst_fit(&self, size: u64) -> Option<BinId> {
        self.worst_fit_counted(size).0
    }

    /// [`worst_fit`](Self::worst_fit) plus the descent node count
    /// (see [`first_fit_counted`](Self::first_fit_counted)).
    pub fn worst_fit_counted(&self, size: u64) -> (Option<BinId>, u32) {
        if self.cap == 0 || self.tree[1] < size {
            return (None, 1);
        }
        let max = self.tree[1];
        let mut i = 1;
        let mut depth = 1u32;
        while i < self.cap {
            i = if self.tree[2 * i] == max {
                2 * i
            } else {
                2 * i + 1
            };
            depth += 1;
        }
        (Some(BinId((i - self.cap) as u32)), depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Gaps and sizes below are in twentieths of a bin, written as the
    // tick engine passes them: keys `gap + 1`, queries `size + 1`.

    #[test]
    fn empty_tree_answers_nothing() {
        let t = FitTree::new();
        assert!(t.is_empty());
        assert_eq!(t.first_fit(11), None);
        assert_eq!(t.best_fit(11), None);
        assert_eq!(t.worst_fit(11), None);
        assert_eq!(t.gap(BinId(0)), None);
    }

    #[test]
    fn selection_rules_agree_with_definitions() {
        let mut t = FitTree::new();
        // Gaps: b0=2, b1=10, b2=8, b3=10.
        t.open(BinId(0), 2 + 1);
        t.open(BinId(1), 10 + 1);
        t.open(BinId(2), 8 + 1);
        t.open(BinId(3), 10 + 1);
        assert_eq!(t.len(), 4);
        // size 6: earliest feasible is b1; tightest feasible is b2;
        // roomiest is b1 (gap 10, tie with b3 → earliest).
        assert_eq!(t.first_fit(6 + 1), Some(BinId(1)));
        assert_eq!(t.best_fit(6 + 1), Some(BinId(2)));
        assert_eq!(t.worst_fit(6 + 1), Some(BinId(1)));
        // size 1 fits everything: FF→b0, BF→b0 (tightest), WF→b1.
        assert_eq!(t.first_fit(1 + 1), Some(BinId(0)));
        assert_eq!(t.best_fit(1 + 1), Some(BinId(0)));
        assert_eq!(t.worst_fit(1 + 1), Some(BinId(1)));
        // Nothing fits 12.
        assert_eq!(t.first_fit(12 + 1), None);
        assert_eq!(t.best_fit(12 + 1), None);
        assert_eq!(t.worst_fit(12 + 1), None);
    }

    #[test]
    fn updates_and_closures_are_tracked() {
        let mut t = FitTree::new();
        t.open(BinId(0), 10 + 1);
        t.open(BinId(1), 10 + 1);
        t.place(BinId(0), 5); // b0 gap → 5
        assert_eq!(t.gap(BinId(0)), Some(5 + 1));
        assert_eq!(t.first_fit(7 + 1), Some(BinId(1)));
        t.set_gap(BinId(0), 15 + 1); // departure grew the gap
        assert_eq!(t.first_fit(14 + 1), Some(BinId(0)));
        t.close(BinId(0));
        assert_eq!(t.gap(BinId(0)), None);
        assert_eq!(t.first_fit(2 + 1), Some(BinId(1)));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.first_fit(2 + 1), None);
    }

    #[test]
    fn exact_fill_boundary_is_inclusive() {
        let mut t = FitTree::new();
        t.open(BinId(0), 5 + 1);
        // gap == size is feasible (capacity is inclusive).
        assert_eq!(t.first_fit(5 + 1), Some(BinId(0)));
        assert_eq!(t.best_fit(5 + 1), Some(BinId(0)));
        assert_eq!(t.worst_fit(5 + 1), Some(BinId(0)));
        t.place(BinId(0), 5);
        // A full bin keeps key 1, above the tombstone: still live.
        assert_eq!(t.gap(BinId(0)), Some(1));
        assert_eq!(t.first_fit(1 + 1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_preserves_existing_leaves() {
        let mut t = FitTree::new();
        for k in 0..100u32 {
            t.open(BinId(k), 2 * (1 + k as u64 % 7) + 1);
        }
        assert_eq!(t.len(), 100);
        // Leftmost with gap ≥ 14: gaps cycle 2..14, so the first leaf
        // holding 14 is id 6.
        assert_eq!(t.first_fit(14 + 1), Some(BinId(6)));
        // Close the first fifty; queries shift right.
        for k in 0..50u32 {
            t.close(BinId(k));
        }
        assert_eq!(t.first_fit(14 + 1), Some(BinId(55)));
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn counted_queries_report_descent_depth() {
        let mut t = FitTree::new();
        for k in 0..5u32 {
            t.open(BinId(k), 10 + 1);
        }
        // cap grew to 8: a full descent visits root + 3 levels.
        let (hit, depth) = t.first_fit_counted(5 + 1);
        assert_eq!(hit, Some(BinId(0)));
        assert_eq!(depth, 4);
        assert_eq!(t.worst_fit_counted(5 + 1), (Some(BinId(0)), 4));
        assert_eq!(t.best_fit_counted(5 + 1), (Some(BinId(0)), 1));
        // Infeasible queries stop at the root.
        assert_eq!(t.first_fit_counted(15 + 1), (None, 1));
        assert_eq!(t.worst_fit_counted(15 + 1), (None, 1));
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn double_open_panics() {
        let mut t = FitTree::new();
        t.open(BinId(0), 10 + 1);
        t.open(BinId(0), 10 + 1);
    }

    #[test]
    #[should_panic(expected = "without its Best-Fit set")]
    fn best_fit_needs_the_ordered_set() {
        let mut t = FitTree::for_policy(TickPolicy::FirstFit);
        t.open(BinId(0), 10 + 1);
        t.best_fit(5 + 1);
    }

    /// Cross-check every query against a brute-force scan on a
    /// deterministic pseudo-random churn sequence, in a tree built for
    /// each policy: all of them answer First and Worst Fit and count
    /// live bins, and the Best-Fit tree answers Best Fit too.
    #[test]
    fn matches_linear_scan_under_churn() {
        let policies = [
            TickPolicy::FirstFit,
            TickPolicy::BestFit,
            TickPolicy::WorstFit,
        ];
        let mut trees = policies.map(FitTree::for_policy);
        // (bin, key) of every live bin; keys are gap + 1 with gaps in
        // hundredths.
        let mut live: Vec<(BinId, u64)> = Vec::new();
        let mut next = 0u32;
        let mut state = 0x9E37u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..600 {
            match rng() % 3 {
                0 => {
                    let key = rng() % 100 + 1;
                    trees.iter_mut().for_each(|t| t.open(BinId(next), key));
                    live.push((BinId(next), key));
                    next += 1;
                }
                1 if !live.is_empty() => {
                    let k = rng() as usize % live.len();
                    let (id, _) = live.remove(k);
                    trees.iter_mut().for_each(|t| t.close(id));
                }
                _ if !live.is_empty() => {
                    let k = rng() as usize % live.len();
                    let key = rng() % 100 + 1;
                    live[k].1 = key;
                    trees.iter_mut().for_each(|t| t.set_gap(live[k].0, key));
                }
                _ => {}
            }
            let s = 1 + rng() % 99 + 1;
            let ff = live
                .iter()
                .filter(|(_, g)| *g >= s)
                .min_by_key(|(id, _)| *id)
                .map(|&(id, _)| id);
            let bf = live
                .iter()
                .filter(|(_, g)| *g >= s)
                .min_by_key(|&&(id, g)| (g, id))
                .map(|&(id, _)| id);
            let wf = live
                .iter()
                .filter(|(_, g)| *g >= s)
                .max_by(|a, b| (a.1, std::cmp::Reverse(a.0)).cmp(&(b.1, std::cmp::Reverse(b.0))))
                .map(|&(id, _)| id);
            for (t, policy) in trees.iter().zip(policies) {
                let name = policy.name();
                assert_eq!(
                    t.first_fit(s),
                    ff,
                    "{name} tree: first_fit diverged at step {step}"
                );
                assert_eq!(
                    t.worst_fit(s),
                    wf,
                    "{name} tree: worst_fit diverged at step {step}"
                );
                assert_eq!(
                    t.len(),
                    live.len(),
                    "{name} tree: len diverged at step {step}"
                );
                if policy == TickPolicy::BestFit {
                    assert_eq!(t.best_fit(s), bf, "best_fit diverged at step {step}");
                }
            }
        }
    }
}
