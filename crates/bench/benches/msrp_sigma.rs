//! Experiment E2 (Criterion variant): multi-source replacement paths as σ grows, fixed graph.
//! The paper's claim (Theorem 1/26) is an `Õ(m·sqrt(nσ) + σn²)` interpolation between the σ=1
//! (Chechik–Cohen) and σ=n (Bernstein–Karger) endpoints.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_core::{solve_msrp, MsrpParams, SourceToLandmarkStrategy};
use msrp_graph::ShortestPathTree;
use msrp_rpath::single_source_brute_force;

fn bench_msrp_sigma(c: &mut Criterion) {
    let mut group = c.benchmark_group("msrp_sigma");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let n = 256;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 7).freeze();
    for &sigma in &[1usize, 2, 4, 8] {
        let sources = evenly_spaced_sources(n, sigma);
        let cover = MsrpParams::scaled_for_benchmarks();
        group.bench_with_input(BenchmarkId::new("path_cover", sigma), &sigma, |b, _| {
            b.iter(|| solve_msrp(&g, &sources, &cover))
        });
        let exact = cover.clone().with_strategy(SourceToLandmarkStrategy::Exact);
        group.bench_with_input(BenchmarkId::new("exact_tables", sigma), &sigma, |b, _| {
            b.iter(|| solve_msrp(&g, &sources, &exact))
        });
        group.bench_with_input(
            BenchmarkId::new("per_source_brute_force", sigma),
            &sigma,
            |b, _| {
                b.iter(|| {
                    for &s in &sources {
                        let tree = ShortestPathTree::build(&g, s);
                        let _ = single_source_brute_force(&g, &tree);
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_msrp_sigma);
criterion_main!(benches);
