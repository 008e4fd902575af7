//! Engine-level microbenchmarks: event replay and snapshot cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbp_core::prelude::*;
use dbp_numeric::rat;
use dbp_workloads::random::{ArrivalDist, RandomWorkload};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    // Bursty stream (many concurrent bins) vs sparse stream.
    for (label, horizon_div) in [("dense", 16usize), ("sparse", 2)] {
        let n = 2000usize;
        let mut wl = RandomWorkload::with_mu(n, rat(4, 1), 5);
        wl.arrivals = ArrivalDist::Uniform {
            horizon: rat((n / horizon_div) as i128, 1),
        };
        let inst = wl.generate();
        group.throughput(Throughput::Elements(2 * n as u64)); // arrivals + departures
                                                              // The exact Rational engine's linear First Fit scan.
        group.bench_with_input(BenchmarkId::new(label, n), &inst, |b, inst| {
            b.iter(|| {
                Runner::new(inst)
                    .backend(Backend::Exact)
                    .run(&mut FirstFit::new())
                    .unwrap()
                    .bins_opened()
            });
        });
        // And through the tick-compiled integer engine: the schedule
        // is compiled once and each iteration is a pure `u64` replay
        // — the gap to the exact arm is the Rational-arithmetic and
        // linear-scan cost.
        let compiled = CompiledInstance::compile(&inst).expect("workload compiles");
        group.bench_with_input(
            BenchmarkId::new(format!("{label}-tick"), n),
            &compiled,
            |b, compiled| {
                b.iter(|| compiled.run(TickPolicy::FirstFit).unwrap().bins_opened());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
