//! Chunked residual-gap scans for the tick engine's linear mode.
//!
//! Below its scan crossover the [`crate::tick::TickEngine`] answers
//! placement queries by sweeping a dense `Vec<u64>` of residual gaps
//! (one entry per open bin, in opening order — see the engine's SoA
//! layout). These sweeps are written to autovectorize on stable Rust
//! with no intrinsics: the slice is walked in fixed-width
//! [`LANES`]-wide chunks whose inner loops are branchless reductions
//! (an any-feasible OR for First Fit, a masked min for Best Fit, a
//! max for Worst Fit), so LLVM turns each chunk into a handful of
//! SIMD compares even at baseline target features. Only after a chunk
//! reduction signals a candidate does a short in-chunk scan recover
//! the exact position, which keeps the tie-break rules — earliest
//! opened bin wins — bit-identical to the `*_scalar` references.
//!
//! The `*_scalar` twins are the pre-vectorization per-slot sweeps,
//! kept as the semantic reference: the `prop_scan` suite asserts
//! position-for-position agreement, and the `fit_scaling` perf
//! snapshot measures both so `perf_check` can gate
//! `chunked_vs_scalar_scan_ratio ≥ 1` (the vectorized sweep must
//! never lose to the sweep it replaced).
//!
//! All selectors return the *position* of the chosen bin within the
//! gap slice (not a bin id): the caller owns the parallel id/slot
//! arrays and uses the position for an `O(1)` gap update on
//! placement. Feasibility masking uses `u64::MAX` as the infeasible
//! sentinel, which no live gap can alias — gaps are bounded by the
//! bin capacity, itself at most `u32::MAX`.

/// Fixed chunk width of the vectorized sweeps, in `u64` lanes. Eight
/// 64-bit lanes span one 64-byte cache line per chunk and map onto
/// one-to-four vector compares depending on the target's SIMD width.
pub const LANES: usize = 8;

/// Position of the **earliest** gap with `gap >= size` (First Fit),
/// or `None` when nothing fits.
#[inline]
pub fn first_fit(gaps: &[u64], size: u64) -> Option<usize> {
    let mut chunks = gaps.chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        // Branchless any-feasible reduction: one OR tree per chunk.
        let mut feasible = false;
        for &g in chunk {
            feasible |= g >= size;
        }
        if feasible {
            for (i, &g) in chunk.iter().enumerate() {
                if g >= size {
                    return Some(base + i);
                }
            }
        }
        base += LANES;
    }
    for (i, &g) in chunks.remainder().iter().enumerate() {
        if g >= size {
            return Some(base + i);
        }
    }
    None
}

/// Position of the **smallest** feasible gap, earliest position on
/// ties (Best Fit), or `None` when nothing fits.
#[inline]
pub fn best_fit(gaps: &[u64], size: u64) -> Option<usize> {
    // Infeasible lanes are masked to `u64::MAX`, which no feasible
    // gap can reach (gaps are capacity-bounded, sizes are >= 1), so a
    // plain min reduction finds the tightest feasible gap.
    let mut best = u64::MAX;
    let mut best_at = usize::MAX;
    let mut base = 0usize;
    let mut chunks = gaps.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut m = u64::MAX;
        for &g in chunk {
            let key = if g >= size { g } else { u64::MAX };
            m = m.min(key);
        }
        // Strict `<`: an earlier chunk keeps the win on equal gaps.
        if m < best {
            for (i, &g) in chunk.iter().enumerate() {
                if g == m {
                    best = m;
                    best_at = base + i;
                    break;
                }
            }
        }
        base += LANES;
    }
    for (i, &g) in chunks.remainder().iter().enumerate() {
        let key = if g >= size { g } else { u64::MAX };
        if key < best {
            best = key;
            best_at = base + i;
        }
    }
    (best_at != usize::MAX).then_some(best_at)
}

/// Position of the **largest** gap regardless of feasibility,
/// earliest position on ties — provided that largest gap actually
/// fits `size` (Worst Fit). `None` when the slice is empty or the
/// roomiest bin cannot take the item.
#[inline]
pub fn worst_fit(gaps: &[u64], size: u64) -> Option<usize> {
    if gaps.is_empty() {
        return None;
    }
    // Seed with position 0 so the strict `>` comparisons below keep
    // the earliest position on ties — including the all-equal case.
    let mut best = gaps[0];
    let mut best_at = 0usize;
    let mut base = 0usize;
    let mut chunks = gaps.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut m = 0u64;
        for &g in chunk {
            m = m.max(g);
        }
        if m > best {
            for (i, &g) in chunk.iter().enumerate() {
                if g == m {
                    best = m;
                    best_at = base + i;
                    break;
                }
            }
        }
        base += LANES;
    }
    for (i, &g) in chunks.remainder().iter().enumerate() {
        if g > best {
            best = g;
            best_at = base + i;
        }
    }
    (best >= size).then_some(best_at)
}

/// Per-slot reference for [`first_fit`]: the early-exit sweep the
/// chunked version replaced.
pub fn first_fit_scalar(gaps: &[u64], size: u64) -> Option<usize> {
    gaps.iter().position(|&g| g >= size)
}

/// Per-slot reference for [`best_fit`]: smallest feasible gap, strict
/// `<` keeps the earliest position on ties.
pub fn best_fit_scalar(gaps: &[u64], size: u64) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (i, &g) in gaps.iter().enumerate() {
        if g >= size && best.is_none_or(|(bg, _)| g < bg) {
            best = Some((g, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Per-slot reference for [`worst_fit`]: largest gap (strict `>`
/// keeps the earliest position on ties), then a feasibility check on
/// the winner.
pub fn worst_fit_scalar(gaps: &[u64], size: u64) -> Option<usize> {
    let mut roomiest: Option<(u64, usize)> = None;
    for (i, &g) in gaps.iter().enumerate() {
        if roomiest.is_none_or(|(bg, _)| g > bg) {
            roomiest = Some((g, i));
        }
    }
    match roomiest {
        Some((g, i)) if g >= size => Some(i),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_picks_the_earliest_feasible_gap() {
        let gaps = [3, 9, 4, 9, 2, 9, 9, 9, 1, 9, 9, 9];
        assert_eq!(first_fit(&gaps, 5), Some(1));
        assert_eq!(first_fit(&gaps, 4), Some(1));
        assert_eq!(first_fit(&gaps, 10), None);
        assert_eq!(first_fit(&[], 1), None);
        // Hit in the remainder (slice shorter than one chunk).
        assert_eq!(first_fit(&[1, 2, 7], 6), Some(2));
    }

    #[test]
    fn best_fit_prefers_tight_gaps_then_early_positions() {
        let gaps = [8, 5, 9, 5, 7, 5, 6, 5, 5, 9];
        assert_eq!(best_fit(&gaps, 5), Some(1)); // min 5, earliest at 1
        assert_eq!(best_fit(&gaps, 6), Some(6));
        assert_eq!(best_fit(&gaps, 9), Some(2));
        assert_eq!(best_fit(&gaps, 10), None);
        assert_eq!(best_fit(&[], 1), None);
    }

    #[test]
    fn worst_fit_takes_the_roomiest_bin_or_none() {
        let gaps = [2, 9, 4, 9, 2, 1, 1, 1, 9, 1];
        assert_eq!(worst_fit(&gaps, 5), Some(1)); // max 9, earliest at 1
        assert_eq!(worst_fit(&gaps, 9), Some(1));
        assert_eq!(worst_fit(&gaps, 10), None); // roomiest cannot fit
        assert_eq!(worst_fit(&[], 1), None);
        // All-zero gaps: still reports position 0 if size were 0 —
        // but sizes are >= 1, so a full house yields None.
        assert_eq!(worst_fit(&[0, 0, 0], 1), None);
    }

    #[test]
    fn chunked_scans_agree_with_the_scalar_references() {
        // Deterministic pseudo-random sweep across lengths that cover
        // empty, sub-chunk, exact-chunk, and remainder shapes.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..80usize {
            let gaps: Vec<u64> = (0..len).map(|_| next() % 17).collect();
            for size in 1..=17u64 {
                assert_eq!(
                    first_fit(&gaps, size),
                    first_fit_scalar(&gaps, size),
                    "FF diverged: len={len} size={size} gaps={gaps:?}"
                );
                assert_eq!(
                    best_fit(&gaps, size),
                    best_fit_scalar(&gaps, size),
                    "BF diverged: len={len} size={size} gaps={gaps:?}"
                );
                assert_eq!(
                    worst_fit(&gaps, size),
                    worst_fit_scalar(&gaps, size),
                    "WF diverged: len={len} size={size} gaps={gaps:?}"
                );
            }
        }
    }
}
