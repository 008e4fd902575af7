#![warn(missing_docs)]

//! # `dbp-par` — deterministic parallel sweeps
//!
//! The experiment harness evaluates many independent `(instance,
//! algorithm)` cells. This crate provides a small, dependency-free
//! parallel map built on `std::thread::scope` and an atomic work index
//! (the classic fetch-add work queue from *Rust Atomics and Locks*,
//! claiming short runs of eight indices per RMW to keep contention on
//! the shared counter low):
//!
//! * results come back **in input order**, independent of thread
//!   count or scheduling — experiments are reproducible;
//! * worker panics propagate to the caller (no silently missing
//!   cells);
//! * zero allocation per task beyond the output slot.
//!
//! ```
//! let squares = dbp_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! The [`fleet`] module holds independent *streaming sessions*
//! rather than cells: a sharded [`Fleet`] of `dbp-core` sessions fed
//! batched events in batch order on the calling thread, with
//! deterministic per-shard results. Shards are independent server
//! pools, so worker threads could change only wall-clock time, and
//! on a frame-sized batch a thread scope costs more than it saves.

pub mod fleet;

pub use fleet::{Fleet, FleetError};

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many indices one fetch-add claims. Claiming short runs instead
/// of single items divides the atomic RMW traffic (and the cacheline
/// ping-pong on `next`) by the run length while keeping load balance:
/// with the experiment sweeps' cell counts (hundreds to thousands) a
/// straggler can hold at most `CLAIM_RUN - 1` extra items. Workers
/// still claim *indices*, so results scatter back in input order
/// exactly as before.
const CLAIM_RUN: usize = 8;

/// Maps `f` over `items` in parallel, returning results in input
/// order. Uses up to `threads` workers.
///
/// # Panics
/// Re-raises the first panic from any worker.
pub fn par_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }

    // Output slots, written exactly once each by whichever worker
    // claims the index. `Option<R>` keeps initialization safe without
    // `unsafe`; the mutex-free claim protocol is the atomic index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);

    // Hand each worker a disjoint view of the slots via a channel of
    // raw indices is unnecessary: we split the work by claimed index
    // and collect per-worker (index, result) pairs, then scatter.
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut mine: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = next.fetch_add(CLAIM_RUN, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + CLAIM_RUN).min(n);
                    for (i, item) in items[start..end].iter().enumerate() {
                        mine.push((start + i, f(item)));
                    }
                }
                mine
            }));
        }
        for h in handles {
            // join() returns Err on worker panic; unwrap re-raises.
            per_worker.push(h.join().expect("worker panicked"));
        }
    });

    for chunk in per_worker {
        for (i, r) in chunk {
            debug_assert!(slots[i].is_none(), "slot {i} written twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

/// [`par_map_with_threads`] with the available parallelism.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    par_map_with_threads(items, threads, f)
}

/// Per-worker progress/timing summary from a reporting parallel map.
///
/// Produced by [`par_map_report`]; the perf-snapshot layer in
/// `dbp-bench` serializes these into `BENCH_*.json` so sweeps expose
/// their load balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index, `0..threads`.
    pub worker: usize,
    /// Number of items this worker processed.
    pub items: usize,
    /// Wall-clock nanoseconds spent inside `f` (work only).
    pub busy_ns: u128,
    /// Wall-clock nanoseconds from worker start to worker exit
    /// (work + queue contention + scheduling).
    pub elapsed_ns: u128,
}

/// [`par_map_with_threads`], but additionally reports how the work
/// was distributed: one [`WorkerReport`] per worker, in worker order.
///
/// The reporting path times every task (two `Instant` reads per
/// item), so keep the non-reporting [`par_map`] for hot sweeps where
/// the distribution is not of interest.
///
/// # Panics
/// Re-raises the first panic from any worker.
pub fn par_map_report_with_threads<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> (Vec<R>, Vec<WorkerReport>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let threads = threads.clamp(1, n);

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);

    let mut per_worker: Vec<(Vec<(usize, R)>, WorkerReport)> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let started = std::time::Instant::now();
                let mut mine: Vec<(usize, R)> = Vec::new();
                let mut busy_ns: u128 = 0;
                loop {
                    let start = next.fetch_add(CLAIM_RUN, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + CLAIM_RUN).min(n);
                    for (i, item) in items[start..end].iter().enumerate() {
                        let t0 = std::time::Instant::now();
                        let r = f(item);
                        busy_ns += t0.elapsed().as_nanos();
                        mine.push((start + i, r));
                    }
                }
                let report = WorkerReport {
                    worker,
                    items: mine.len(),
                    busy_ns,
                    elapsed_ns: started.elapsed().as_nanos(),
                };
                (mine, report)
            }));
        }
        for h in handles {
            per_worker.push(h.join().expect("worker panicked"));
        }
    });

    let mut reports = Vec::with_capacity(threads);
    for (chunk, report) in per_worker {
        for (i, r) in chunk {
            debug_assert!(slots[i].is_none(), "slot {i} written twice");
            slots[i] = Some(r);
        }
        reports.push(report);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect();
    (results, reports)
}

/// [`par_map_report_with_threads`] with the available parallelism.
pub fn par_map_report<T, R, F>(items: &[T], f: F) -> (Vec<R>, Vec<WorkerReport>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    par_map_report_with_threads(items, threads, f)
}

/// Evaluates `f` over the cartesian product `rows × cols`, returning
/// a row-major matrix. The sweep shape used by most experiment
/// tables.
pub fn par_table<A, B, R, F>(rows: &[A], cols: &[B], f: F) -> Vec<Vec<R>>
where
    A: Sync,
    B: Sync,
    R: Send,
    F: Fn(&A, &B) -> R + Sync,
{
    let cells: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|i| (0..cols.len()).map(move |j| (i, j)))
        .collect();
    let flat = par_map(&cells, |&(i, j)| f(&rows[i], &cols[j]));
    let mut out: Vec<Vec<R>> = Vec::with_capacity(rows.len());
    let mut it = flat.into_iter();
    for _ in 0..rows.len() {
        out.push(it.by_ref().take(cols.len()).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = par_map(&input, |&x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = par_map_with_threads(&[1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_with_threads(&[5, 6], 64, |&x| x);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let input: Vec<u64> = (0..1000).collect();
        let out = par_map_with_threads(&input, 8, |&x| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(CALLS.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let input: Vec<u64> = (0..100).collect();
        let _ = par_map_with_threads(&input, 4, |&x| {
            if x == 37 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn report_accounts_for_every_item() {
        let input: Vec<u64> = (0..200).collect();
        let (out, reports) = par_map_report_with_threads(&input, 4, |&x| x + 1);
        assert_eq!(out, input.iter().map(|x| x + 1).collect::<Vec<_>>());
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().map(|r| r.items).sum::<usize>(), 200);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.worker, i);
            assert!(r.elapsed_ns >= r.busy_ns);
        }
    }

    #[test]
    fn report_on_empty_input() {
        let (out, reports) = par_map_report(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
        assert!(reports.is_empty());
    }

    #[test]
    fn table_is_row_major() {
        let rows = [1i64, 2, 3];
        let cols = [10i64, 20];
        let t = par_table(&rows, &cols, |a, b| a * b);
        assert_eq!(t, vec![vec![10, 20], vec![20, 40], vec![30, 60]]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Input sizes bracket the claim-run geometry: shorter than
        // one run, exactly one run, one item past a run boundary, a
        // non-multiple far bigger than `threads · CLAIM_RUN`, and an
        // exact multiple of the run length.
        for n in [1u64, 7, 8, 9, 500, 512] {
            let input: Vec<u64> = (0..n).collect();
            let base = par_map_with_threads(&input, 1, |&x| x.wrapping_mul(2654435761));
            for threads in [2, 4, 7, 16] {
                let out = par_map_with_threads(&input, threads, |&x| x.wrapping_mul(2654435761));
                assert_eq!(out, base, "n = {n}, threads = {threads}");
                let (rep_out, reports) =
                    par_map_report_with_threads(&input, threads, |&x| x.wrapping_mul(2654435761));
                assert_eq!(
                    rep_out, base,
                    "reporting path: n = {n}, threads = {threads}"
                );
                assert_eq!(
                    reports.iter().map(|r| r.items).sum::<usize>(),
                    n as usize,
                    "reports must account for every item"
                );
            }
        }
    }

    #[test]
    fn chunked_claiming_processes_each_item_once() {
        // A size that is neither a multiple of the claim run nor of
        // the thread count, so runs straddle the tail.
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let input: Vec<u64> = (0..CLAIM_RUN as u64 * 13 + 5).collect();
        let out = par_map_with_threads(&input, 7, |&x| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, input);
        assert_eq!(CALLS.load(Ordering::Relaxed), input.len() as u64);
    }
}
