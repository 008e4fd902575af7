//! Per-algorithm packing throughput on random workloads.
//!
//! Measures a batch `Runner` replay end-to-end (event replay +
//! placement + accounting) for each algorithm at several instance
//! sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbp_core::prelude::*;
use dbp_core::PackingAlgorithm;
use dbp_numeric::rat;
use dbp_workloads::RandomWorkload;

fn algorithms() -> Vec<Box<dyn PackingAlgorithm>> {
    vec![
        Box::new(FirstFit::new()),
        Box::new(BestFit::new()),
        Box::new(WorstFit::new()),
        Box::new(NextFit::new()),
        Box::new(HybridFirstFit::classic()),
    ]
}

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    for n in [100usize, 1000, 4000] {
        let inst = RandomWorkload::with_mu(n, rat(8, 1), 42).generate();
        group.throughput(Throughput::Elements(n as u64));
        for mut algo in algorithms() {
            let name = algo.name();
            group.bench_with_input(BenchmarkId::new(name, n), &inst, |b, inst| {
                b.iter(|| Runner::new(inst).run(algo.as_mut()).unwrap().total_usage());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_packing);
criterion_main!(benches);
