//! Head-to-head measurement of the two BFS kernels: the top-down [`BfsScratch`] and the
//! 64-way bit-parallel [`MultiBfsScratch`] wave, on a low-diameter sparse-random workload
//! and a high-diameter grid.
//!
//! Wave timings cover an *entire 64-source wave*; divide by 64 for the per-source figure.
//! The `avoid_*` pair is the oracle `build_exact` inner loop's shape: 64 edge-avoiding
//! searches from one source, sequential versus one wave.
//!
//! `CRITERION_SUMMARY=bench.jsonl cargo bench -p msrp-bench --bench graph_bfs_kernels`
//! appends one JSON line per benchmark.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msrp_bench::workloads::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_graph::{bfs_trees_wave, BfsScratch, Edge, MultiBfsScratch, WAVE_LANES};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_bfs_kernels");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    for kind in [WorkloadKind::SparseRandom, WorkloadKind::Grid] {
        for n in [16_384usize, 65_536] {
            let csr = standard_graph(kind, n, 3).freeze();
            let n = csr.vertex_count();
            let label = |k: &str| format!("{}/{k}", kind.label());
            let sources = evenly_spaced_sources(n, WAVE_LANES);
            let mut td = BfsScratch::new();
            let mut wave = MultiBfsScratch::new();
            // Sanity at bench time: the two kernels must agree before being compared.
            td.run(&csr, 0);
            wave.run_wave(&csr, &sources);
            assert_eq!(wave.lane_dist_vec(0), td.dist());

            group.bench_with_input(BenchmarkId::new(label("top_down"), n), &n, |b, _| {
                b.iter(|| {
                    td.run(&csr, 0);
                    td.dist()[n / 2]
                })
            });
            group.bench_with_input(BenchmarkId::new(label("wave64"), n), &n, |b, _| {
                b.iter(|| {
                    wave.run_wave(&csr, &sources);
                    wave.lane_dist(0, n / 2)
                })
            });
            group.bench_with_input(BenchmarkId::new(label("wave64_trees"), n), &n, |b, _| {
                b.iter(|| bfs_trees_wave(&csr, &sources, &mut wave).len())
            });

            // The oracle-build inner loop: 64 searches from one source, each avoiding a
            // different tree edge of that source.
            let parent0: Vec<Edge> = {
                td.run(&csr, 0);
                (1..n)
                    .filter_map(|v| {
                        let p = td.parent_raw()[v];
                        (p != msrp_graph::NO_PARENT).then(|| Edge::new(p as usize, v))
                    })
                    .take(WAVE_LANES)
                    .collect()
            };
            group.bench_with_input(BenchmarkId::new(label("avoid64_seq"), n), &n, |b, _| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for &e in &parent0 {
                        td.run_avoiding(&csr, 0, e);
                        acc += td.dist()[n / 2] as u64;
                    }
                    acc
                })
            });
            group.bench_with_input(BenchmarkId::new(label("avoid64_wave"), n), &n, |b, _| {
                b.iter(|| {
                    wave.run_avoiding_wave(&csr, 0, &parent0);
                    wave.lane_dist(0, n / 2)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
