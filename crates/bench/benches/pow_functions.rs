//! Criterion bench backing experiment E8: per-hash cost of HashCore and the
//! comparator PoW functions.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use hashcore::HashCore;
use hashcore_baselines::{
    HashCorePow, MemoryHardPow, PowFunction, RandomxLitePow, SelectionPow, Sha256dPow,
};
use hashcore_profile::PerformanceProfile;
use std::hint::black_box;

fn bench_profile() -> PerformanceProfile {
    // A reduced instruction target keeps a full `cargo bench` run short while
    // preserving the relative ordering; the exp8 binary uses the full-scale
    // reference profile.
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 20_000;
    profile
}

fn bench_pow_functions(c: &mut Criterion) {
    let mut group = c.benchmark_group("pow_functions");
    group.sample_size(10);
    bench_pow(&mut group, &Sha256dPow);
    bench_pow(&mut group, &MemoryHardPow::new(256 << 10, 2));
    bench_pow(&mut group, &RandomxLitePow::new(20_000));
    bench_pow(&mut group, &SelectionPow::new(bench_profile(), 16, 1));
    bench_pow(
        &mut group,
        &HashCorePow::new(HashCore::new(bench_profile())),
    );
    group.finish();
}

/// Times one `pow_hash` per iteration over a counter input.
fn bench_pow<P: PowFunction>(group: &mut BenchmarkGroup<'_>, pow: &P) {
    group.bench_function(pow.name(), |b| {
        let mut counter = 0u64;
        b.iter(|| {
            counter = counter.wrapping_add(1);
            black_box(pow.pow_hash(&counter.to_le_bytes()))
        });
    });
}

criterion_group!(benches, bench_pow_functions);
criterion_main!(benches);
