//! Experiment E1 (Criterion variant): single-source replacement paths, paper algorithm vs the
//! `Õ(mn)` baselines, over growing `n` with `m ≈ 4n`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msrp_bench::{standard_graph, WorkloadKind};
use msrp_core::{solve_ssrp, MsrpParams};
use msrp_graph::ShortestPathTree;
use msrp_rpath::{single_source_brute_force, single_source_via_single_pair};

fn bench_ssrp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssrp_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for &n in &[128usize, 256, 512] {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 42).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        group.bench_with_input(BenchmarkId::new("brute_force", n), &n, |b, _| {
            b.iter(|| single_source_brute_force(&g, &tree))
        });
        group.bench_with_input(BenchmarkId::new("classical_per_target", n), &n, |b, _| {
            b.iter(|| single_source_via_single_pair(&g, &tree))
        });
        let params = MsrpParams::scaled_for_benchmarks();
        group.bench_with_input(BenchmarkId::new("paper_ssrp", n), &n, |b, _| {
            b.iter(|| solve_ssrp(&g, 0, &params))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ssrp);
criterion_main!(benches);
