//! E1 — Theorem 1: First Fit is `(µ+4)`-competitive.
//!
//! Sweeps `µ` across randomized instance families, measures First
//! Fit's achieved ratio against the **exact** repacking adversary,
//! and reports the worst and mean ratios next to the `µ+4` bound,
//! plus the margin of the instance-wise certificate
//! `FF ≤ (µ+3)·vol + span`. The paper predicts every measured ratio
//! stays below `µ+4` (and typically far below — the bound is
//! worst-case).

use crate::table::{dec, Table};
use dbp_analysis::measure_ratio;
use dbp_core::{FirstFit, Runner};
use dbp_numeric::{rat, Rational};
use dbp_par::par_map;
use dbp_simcore::SummaryStats;
use dbp_workloads::RandomWorkload;

/// One µ-row of the experiment.
#[derive(Debug, Clone)]
pub struct MuRow {
    /// Target duration ratio.
    pub mu: Rational,
    /// Instances measured (those with exact adversary).
    pub instances: usize,
    /// Worst measured `FF/OPT`.
    pub max_ratio: Rational,
    /// Mean measured ratio.
    pub mean_ratio: f64,
    /// The `µ+4` bound.
    pub bound: Rational,
    /// Smallest observed slack in `FF ≤ (µ+3)·vol + span`, as the
    /// quotient `FF / ((µ+3)·vol + span)` — must stay ≤ 1.
    pub worst_cert_quotient: Rational,
}

/// Runs the sweep: `seeds_per_mu` random instances of `n` items for
/// each µ in `mus`.
pub fn run(mus: &[u32], n: usize, seeds_per_mu: u64) -> (Vec<MuRow>, Table) {
    let mut rows = Vec::new();
    for &mu in mus {
        let mu_r = rat(mu as i128, 1);
        let seeds: Vec<u64> = (0..seeds_per_mu).collect();
        let cells = par_map(&seeds, |&seed| {
            // Mix sharp and smooth duration laws across seeds.
            let mut wl = if seed % 2 == 0 {
                RandomWorkload::with_sharp_mu(n, mu_r, seed)
            } else {
                RandomWorkload::with_mu(n, mu_r, seed)
            };
            // Scale the arrival horizon with µ to keep the peak
            // concurrency inside the exact adversary's reach.
            wl.arrivals = dbp_workloads::random::ArrivalDist::Uniform {
                horizon: (rat(n as i128, 16) * mu_r).max(rat(n as i128, 8)),
            };
            let inst = wl.generate();
            // Tick-compiled First Fit: bit-identical to the Rational
            // engine, integer arithmetic on the hot path.
            let out = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
            let rep = measure_ratio(&inst, &out);
            let actual_mu = inst.mu().unwrap_or(Rational::ONE);
            let cert_bound = (actual_mu + Rational::from_int(3)) * inst.vol() + inst.span();
            let cert_q = if cert_bound.is_zero() {
                Rational::ZERO
            } else {
                out.total_usage() / cert_bound
            };
            (rep.exact_ratio(), cert_q)
        });

        let mut max_ratio = Rational::ZERO;
        let mut mean = SummaryStats::new();
        let mut worst_cert = Rational::ZERO;
        let mut counted = 0usize;
        for (ratio, cert_q) in cells {
            if let Some(r) = ratio {
                counted += 1;
                mean.push(r.to_f64());
                if r > max_ratio {
                    max_ratio = r;
                }
            }
            if cert_q > worst_cert {
                worst_cert = cert_q;
            }
        }
        rows.push(MuRow {
            mu: mu_r,
            instances: counted,
            max_ratio,
            mean_ratio: mean.mean().unwrap_or(0.0),
            bound: mu_r + Rational::from_int(4),
            worst_cert_quotient: worst_cert,
        });
    }

    let mut table = Table::new(
        "E1 / Theorem 1: measured First Fit ratio vs the (µ+4) bound",
        &[
            "µ",
            "instances",
            "max FF/OPT",
            "mean FF/OPT",
            "µ+4",
            "cert quotient",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.mu.to_string(),
            r.instances.to_string(),
            dec(r.max_ratio),
            format!("{:.3}", r.mean_ratio),
            r.bound.to_string(),
            dec(r.worst_cert_quotient),
        ]);
    }
    table.note("cert quotient = max over instances of FF/((µ+3)·vol+span); Theorem 1 requires ≤ 1");
    table.note("ratios use the exact repacking adversary OPT_total = ∫OPT(R,t)dt");
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_shape_holds() {
        let (rows, table) = run(&[1, 2, 4], 36, 6);
        assert_eq!(rows.len(), 3);
        assert_eq!(table.len(), 3);
        for r in &rows {
            assert!(r.instances > 0, "no exact adversary at µ = {}", r.mu);
            assert!(
                r.max_ratio <= r.bound,
                "Theorem 1 violated at µ = {}: {} > {}",
                r.mu,
                r.max_ratio,
                r.bound
            );
            assert!(
                r.worst_cert_quotient <= Rational::ONE,
                "certificate violated at µ = {}",
                r.mu
            );
            assert!(r.max_ratio >= Rational::ONE, "ratio below 1 is impossible");
        }
    }
}
