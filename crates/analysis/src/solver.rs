//! Exact classical bin packing by branch and bound.
//!
//! `OPT(R, t)` — the minimum number of unit bins into which the items
//! active at time `t` can be repacked (paper §III.C) — is an instance
//! of classical bin packing, NP-hard in general but small in practice
//! here: the active sets along an event profile rarely exceed a few
//! hundred items.
//!
//! The solver front-end in this module:
//!
//! * **tick-compiles** the size multiset to `u32` units on the LCM
//!   grid ([`crate::units`]) and runs the integer branch-and-bound
//!   kernel ([`crate::bb`]: Martello–Toth L2/L3 bounds, dominance
//!   reduction, FFD + local-search incumbent, best-fit-ordered DFS);
//! * keeps a **lock-sharded memo** keyed by the gcd-canonical unit
//!   multiset, so rationally-equal multisets — and the same multiset
//!   arriving from different grids — hit one entry, and concurrent
//!   profile shards ([`crate::optimal`]) don't serialize on a single
//!   mutex;
//! * falls back to the original `Rational` search
//!   ([`reference_min_bins`]) for multisets whose denominators exceed
//!   the `u32` grid — and keeps that seed implementation public as
//!   the differential-testing reference.

use crate::bb;
use crate::units::{compile_sizes, UnitKey};
use dbp_numeric::Rational;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of memo shards; hashes spread keys uniformly, so a handful
/// of shards removes essentially all cross-worker contention.
const MEMO_SHARDS: usize = 16;

/// Locks a memo table, recovering it from a poisoned lock: the memo
/// only ever inserts whole entries, so a worker that panicked while
/// holding the lock cannot have left a half-written one behind.
fn locked<T>(memo: &Mutex<T>) -> MutexGuard<'_, T> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable exact bin packing solver with a sharded memo table.
///
/// ```
/// use dbp_analysis::ExactBinPacking;
/// use dbp_numeric::rat;
///
/// let solver = ExactBinPacking::new();
/// // Three items of 2/3 cannot share: 3 bins.
/// assert_eq!(solver.min_bins(&[rat(2, 3), rat(2, 3), rat(2, 3)]), 3);
/// // 0.6 + 0.4, 0.5 + 0.5: 2 bins.
/// assert_eq!(
///     solver.min_bins(&[rat(3, 5), rat(1, 2), rat(2, 5), rat(1, 2)]),
///     2
/// );
/// ```
#[derive(Debug)]
pub struct ExactBinPacking {
    /// Unit-canonical results, sharded by key hash.
    shards: Vec<Mutex<HashMap<UnitKey, u32>>>,
    /// Fallback results for multisets off every `u32` grid.
    rational_memo: Mutex<HashMap<Vec<Rational>, u32>>,
}

impl Default for ExactBinPacking {
    fn default() -> ExactBinPacking {
        ExactBinPacking {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            rational_memo: Mutex::new(HashMap::new()),
        }
    }
}

impl ExactBinPacking {
    /// Creates a solver with an empty memo table.
    pub fn new() -> ExactBinPacking {
        ExactBinPacking::default()
    }

    /// Minimum number of unit bins for `sizes` (each in `(0, 1]`).
    ///
    /// # Panics
    /// Panics if any size is outside `(0, 1]`.
    pub fn min_bins(&self, sizes: &[Rational]) -> usize {
        assert!(
            sizes.iter().all(|s| s.is_positive() && *s <= Rational::ONE),
            "sizes must lie in (0, 1]"
        );
        if sizes.is_empty() {
            return 0;
        }
        match compile_sizes(sizes) {
            Some(c) => {
                let out = self.solve_units(&c.units, c.capacity, None, 0, u64::MAX);
                debug_assert!(out.is_exact());
                out.upper
            }
            None => {
                let mut sorted: Vec<Rational> = sizes.to_vec();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                if let Some(&hit) = locked(&self.rational_memo).get(&sorted) {
                    return hit as usize;
                }
                let result = reference_search(&sorted);
                locked(&self.rational_memo).insert(sorted, result as u32);
                result
            }
        }
    }

    /// Solves (or brackets, under `budget`) a sorted-decreasing unit
    /// multiset through the sharded memo; `warm` and `floor` are the
    /// warm-start packing and external lower bound of [`bb::pack`] —
    /// the incremental profile's temporal-coherence carry-overs.
    ///
    /// On a memo hit the returned outcome is exact with an **empty**
    /// `packing` (the memo stores counts, not packings): callers
    /// maintaining a warm packing keep their current one.
    pub fn solve_units(
        &self,
        units_desc: &[u32],
        capacity: u32,
        warm: Option<&[Vec<u32>]>,
        floor: usize,
        budget: u64,
    ) -> bb::BbOutcome {
        let key = UnitKey::new(units_desc.to_vec(), capacity);
        if let Some(&hit) = locked(self.shard(&key)).get(&key) {
            return bb::BbOutcome {
                lower: hit as usize,
                upper: hit as usize,
                packing: Vec::new(),
                nodes: 0,
            };
        }
        let out = bb::pack(units_desc, capacity, warm, floor, budget);
        if out.is_exact() {
            locked(self.shard(&key)).insert(key, out.upper as u32);
        }
        out
    }

    fn shard(&self, key: &UnitKey) -> &Mutex<HashMap<UnitKey, u32>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % MEMO_SHARDS]
    }

    /// Number of memoized size multisets (diagnostics).
    pub fn memo_len(&self) -> usize {
        self.shards.iter().map(|s| locked(s).len()).sum::<usize>()
            + locked(&self.rational_memo).len()
    }

    /// Clears the memo table.
    pub fn clear(&self) {
        for s in &self.shards {
            locked(s).clear();
        }
        locked(&self.rational_memo).clear();
    }
}

/// The seed branch-and-bound on `Rational` multisets, preserved
/// verbatim as (a) the fallback for multisets too fine for any `u32`
/// grid and (b) the differential-testing and benchmarking reference
/// for the integer kernel (`tests/prop_opt_solver.rs` asserts
/// bit-equal `min_bins`; the `BENCH_opt_solver.json` seed arm
/// measures the speedup against it).
///
/// # Panics
/// Panics if any size is outside `(0, 1]`.
pub fn reference_min_bins(sizes: &[Rational]) -> usize {
    assert!(
        sizes.iter().all(|s| s.is_positive() && *s <= Rational::ONE),
        "sizes must lie in (0, 1]"
    );
    if sizes.is_empty() {
        return 0;
    }
    let mut sorted: Vec<Rational> = sizes.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    reference_search(&sorted)
}

/// L2 + FFD sandwich, then DFS — the seed solver's exact pipeline on
/// a sorted-decreasing multiset.
fn reference_search(sorted: &[Rational]) -> usize {
    let lb = lower_bound_l2(sorted);
    let ffd = first_fit_decreasing(sorted);
    if ffd == lb {
        ffd
    } else {
        let mut search = Search {
            items: sorted,
            bins: Vec::with_capacity(ffd),
            best: ffd,
            suffix_sum: suffix_sums(sorted),
        };
        search.dfs(0, lb);
        search.best
    }
}

/// `suffix_sum[i] = Σ_{j ≥ i} items[j]`.
fn suffix_sums(items: &[Rational]) -> Vec<Rational> {
    let mut sums = vec![Rational::ZERO; items.len() + 1];
    for i in (0..items.len()).rev() {
        sums[i] = sums[i + 1] + items[i];
    }
    sums
}

/// First Fit Decreasing on a size-decreasing slice: a classic
/// `11/9·OPT + 6/9` upper bound, used as the incumbent.
pub fn first_fit_decreasing(sorted_desc: &[Rational]) -> usize {
    let mut bins: Vec<Rational> = Vec::new();
    for &s in sorted_desc {
        match bins.iter_mut().find(|level| **level + s <= Rational::ONE) {
            Some(level) => *level += s,
            None => bins.push(s),
        }
    }
    bins.len()
}

/// The continuous lower bound `L1 = ⌈Σ sizes⌉`.
pub fn lower_bound_l1(sizes: &[Rational]) -> usize {
    let total: Rational = sizes.iter().sum();
    total.ceil().max(0) as usize
}

/// The Martello–Toth `L2` lower bound.
///
/// For a threshold `α ∈ [0, 1/2]`, partition the items into
/// `J1 = {s > 1 − α}`, `J2 = {1/2 < s ≤ 1 − α}`, `J3 = {α ≤ s ≤ 1/2}`.
/// No two items of `J1 ∪ J2` share a bin, and no `J3` item fits with
/// a `J1` item, so `J3`'s volume in excess of the spare capacity of
/// `J2`'s bins forces `⌈overflow⌉` extra bins. `L2` is the maximum of
/// `|J1 ∪ J2| + extra(α)` over thresholds `α` drawn from the distinct
/// item sizes (together with `L1 = ⌈Σ s⌉`, the `α = 0` case).
pub fn lower_bound_l2(sorted_desc: &[Rational]) -> usize {
    let l1 = lower_bound_l1(sorted_desc);
    let mut best = l1.max(usize::from(!sorted_desc.is_empty()));
    let half = Rational::HALF;

    // Candidate thresholds: α = 0 (captures "every item > 1/2 needs
    // its own bin") plus the distinct sizes ≤ 1/2.
    let mut alphas: Vec<Rational> = sorted_desc.iter().copied().filter(|s| *s <= half).collect();
    alphas.dedup();
    alphas.push(Rational::ZERO);

    for &alpha in &alphas {
        let one_minus_alpha = Rational::ONE - alpha;
        let mut n12 = 0usize; // |J1 ∪ J2|: items with size > 1/2 … and > 1−α
        let mut free_j2 = Rational::ZERO; // spare capacity in J2's bins
        let mut vol_j3 = Rational::ZERO; // volume of items in [α, 1/2]
        for &s in sorted_desc {
            if s > half {
                n12 += 1;
                if s <= one_minus_alpha {
                    free_j2 += Rational::ONE - s;
                }
            } else if s >= alpha {
                vol_j3 += s;
            }
        }
        let overflow = vol_j3 - free_j2;
        let extra = if overflow.is_positive() {
            overflow.ceil() as usize
        } else {
            0
        };
        best = best.max(n12 + extra);
    }
    best
}

/// DFS state for the reference branch and bound.
struct Search<'a> {
    items: &'a [Rational],
    bins: Vec<Rational>,
    best: usize,
    suffix_sum: Vec<Rational>,
}

impl Search<'_> {
    fn dfs(&mut self, idx: usize, global_lb: usize) {
        if self.best == global_lb {
            return; // cannot improve further anywhere
        }
        if idx == self.items.len() {
            self.best = self.best.min(self.bins.len());
            return;
        }
        // Prune: bins already open + volume bound on the remainder.
        let remaining = self.suffix_sum[idx];
        let open_gap: Rational = self.bins.iter().map(|level| Rational::ONE - *level).sum();
        let overflow = remaining - open_gap;
        let need_new = if overflow.is_positive() {
            overflow.ceil() as usize
        } else {
            0
        };
        if self.bins.len() + need_new >= self.best {
            return;
        }

        let s = self.items[idx];
        // Try existing bins, skipping duplicate levels (symmetry).
        let mut tried: Vec<Rational> = Vec::with_capacity(self.bins.len());
        for b in 0..self.bins.len() {
            let level = self.bins[b];
            if level + s > Rational::ONE || tried.contains(&level) {
                continue;
            }
            tried.push(level);
            self.bins[b] = level + s;
            self.dfs(idx + 1, global_lb);
            self.bins[b] = level;
            if self.best == global_lb {
                return;
            }
        }
        // Try a new bin (always a distinct state: level 0 bins never
        // coexist with the current item unplaced).
        if self.bins.len() + 1 < self.best {
            self.bins.push(s);
            self.dfs(idx + 1, global_lb);
            self.bins.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_numeric::rat;

    #[test]
    fn empty_and_singleton() {
        let s = ExactBinPacking::new();
        assert_eq!(s.min_bins(&[]), 0);
        assert_eq!(s.min_bins(&[rat(1, 1)]), 1);
        assert_eq!(s.min_bins(&[rat(1, 100)]), 1);
    }

    #[test]
    fn perfect_pairs() {
        let s = ExactBinPacking::new();
        // 0.4+0.6 twice → 2 bins.
        assert_eq!(s.min_bins(&[rat(2, 5), rat(3, 5), rat(2, 5), rat(3, 5)]), 2);
    }

    #[test]
    fn ffd_suboptimal_case_is_solved_exactly() {
        // Exactness is cross-validated against the reference solver
        // in the property suite; here we spot-check a few knowns.
        let s = ExactBinPacking::new();
        assert_eq!(
            s.min_bins(&[rat(11, 20), rat(7, 10), rat(9, 20), rat(3, 10)]),
            2
        );
        // Seven items of size 2/5: pairs only → ⌈7/2⌉ = 4 bins? 2/5*2 = 4/5 ≤ 1,
        // 2/5*3 = 6/5 > 1 → 4 bins.
        assert_eq!(s.min_bins(&vec![rat(2, 5); 7]), 4);
    }

    #[test]
    fn l1_and_l2_bounds() {
        let sizes = [rat(3, 5), rat(3, 5), rat(3, 5)];
        // L1 = ceil(1.8) = 2; L2 = 3 (all > 1/2).
        assert_eq!(lower_bound_l1(&sizes), 2);
        assert_eq!(lower_bound_l2(&sizes), 3);
        assert_eq!(ExactBinPacking::new().min_bins(&sizes), 3);
    }

    #[test]
    fn l2_counts_medium_overflow() {
        // Two items of 0.6 (need 2 bins, spare 0.4 each) plus small
        // items of 0.3 × 4 (volume 1.2 > spare 0.8): L2 ≥ 2 + ⌈0.4⌉ = 3.
        let mut sizes = vec![rat(3, 5), rat(3, 5)];
        sizes.extend(vec![rat(3, 10); 4]);
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(lower_bound_l2(&sizes), 3);
        assert_eq!(ExactBinPacking::new().min_bins(&sizes), 3);
    }

    #[test]
    fn memo_caches_results() {
        let s = ExactBinPacking::new();
        let sizes = [rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)];
        let a = s.min_bins(&sizes);
        assert_eq!(s.memo_len(), 1);
        // Permutation hits the same canonical key.
        let shuffled = [rat(1, 5), rat(1, 4), rat(1, 2), rat(1, 3)];
        let b = s.min_bins(&shuffled);
        assert_eq!(a, b);
        assert_eq!(s.memo_len(), 1);
        s.clear();
        assert_eq!(s.memo_len(), 0);
    }

    #[test]
    fn memo_key_is_grid_canonical() {
        // Regression (ISSUE 8): rationally-equal multisets written on
        // different grids must share one memo entry. 1/2 + 1/4 vs
        // 2/4 + 2/8 reduce to the same Rationals already; push
        // further with sizes whose *unit* encodings differ by a
        // common factor before gcd canonicalization.
        let s = ExactBinPacking::new();
        let a = s.min_bins(&[rat(1, 2), rat(1, 4)]);
        let b = s.min_bins(&[rat(2, 4), rat(2, 8)]);
        let c = s.min_bins(&[rat(8, 16), rat(4, 16)]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(
            s.memo_len(),
            1,
            "one canonical entry for all three spellings"
        );
        // A genuinely different multiset adds a second entry.
        let _ = s.min_bins(&[rat(1, 2), rat(1, 3)]);
        assert_eq!(s.memo_len(), 2);
    }

    #[test]
    fn reference_solver_agrees_on_knowns() {
        let s = ExactBinPacking::new();
        for sizes in [
            vec![rat(2, 3); 3],
            vec![rat(2, 5), rat(3, 5), rat(2, 5), rat(3, 5)],
            (1..=15).map(|i| rat(i, 31)).collect::<Vec<_>>(),
        ] {
            assert_eq!(s.min_bins(&sizes), reference_min_bins(&sizes));
        }
    }

    #[test]
    fn fallback_handles_off_grid_denominators() {
        // LCM of these denominators overflows u32 → Rational path.
        let p = (1i128 << 31) - 1;
        let sizes = [rat(1, p), rat(1, p - 1), rat(1, 2)];
        let s = ExactBinPacking::new();
        assert_eq!(s.min_bins(&sizes), 1);
        assert_eq!(s.min_bins(&sizes), 1); // memo path
        assert_eq!(s.memo_len(), 1);
    }

    #[test]
    #[should_panic(expected = "sizes must lie in (0, 1]")]
    fn oversized_items_rejected() {
        let _ = ExactBinPacking::new().min_bins(&[rat(3, 2)]);
    }

    #[test]
    fn moderately_hard_instance() {
        // 15 items with mixed sizes; exact answer checked against the
        // volume bound and FFD sandwich.
        let sizes: Vec<_> = (1..=15).map(|i| rat(i, 31)).collect();
        let s = ExactBinPacking::new();
        let opt = s.min_bins(&sizes);
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert!(opt >= lower_bound_l1(&sizes));
        assert!(opt <= first_fit_decreasing(&sorted));
        // Σ i/31 for i=1..15 = 120/31 ≈ 3.87 → L1 = 4.
        assert_eq!(opt, 4);
    }
}
