//! The payoff measurement for the weighted MSRP pipeline: reusable-scratch Dijkstra on the
//! weighted CSR substrate, and the crossing-edge subtree solver versus the weighted brute
//! force it is validated against.
//!
//! Three comparisons:
//!
//! * **Dijkstra** — one-shot [`WeightedCsrGraph::dijkstra`] (fresh buffers per run) versus a
//!   reused [`DijkstraScratch`] (`O(visited)` reset), plus the edge-avoiding variant, on the
//!   standard sparse-random workload with seed-pinned random weights;
//! * **weighted trees** — [`WeightedTree::build_with_scratch`] (the per-source preprocessing
//!   of the weighted solver and oracle);
//! * **weighted MSRP** — [`solve_msrp_weighted`] (one subtree-restricted multi-seed Dijkstra
//!   per tree edge; output-sensitive) versus
//!   [`WeightedReplacementOracle::build_exact`] (one full-graph Dijkstra per tree edge), with
//!   the two asserted entry-for-entry equal before timing.
//!
//! Snapshot the numbers into `BENCH_weighted.json` with
//! `CRITERION_SUMMARY=bench.jsonl cargo bench -p msrp-bench --bench graph_weighted`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msrp_bench::workloads::{evenly_spaced_sources, standard_weighted_graph, WorkloadKind};
use msrp_core::solve_msrp_weighted;
use msrp_graph::{DijkstraScratch, WeightedTree};
use msrp_oracle::WeightedReplacementOracle;
use msrp_rpath::single_source_brute_force_weighted_with_scratch;

const MAX_WEIGHT: u64 = 1000;

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_weighted");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    // Mirror graph_csr's size choice: n = 1024 is cache-resident, n = 16384 memory-bound.
    for n in [1024usize, 16384] {
        let g = standard_weighted_graph(WorkloadKind::SparseRandom, n, 3, MAX_WEIGHT).freeze();
        group.bench_with_input(BenchmarkId::new("dijkstra_fresh", n), &n, |b, _| {
            b.iter(|| g.dijkstra(0))
        });
        let mut scratch = DijkstraScratch::new();
        group.bench_with_input(BenchmarkId::new("dijkstra_scratch", n), &n, |b, _| {
            b.iter(|| {
                scratch.run(&g, 0);
                scratch.dist()[n / 2]
            })
        });
        let avoid = g.edge_vec()[0].0;
        group.bench_with_input(BenchmarkId::new("dijkstra_avoid_scratch", n), &n, |b, _| {
            b.iter(|| {
                scratch.run_avoiding(&g, 0, avoid);
                scratch.dist()[n / 2]
            })
        });
        group.bench_with_input(BenchmarkId::new("weighted_tree_build", n), &n, |b, _| {
            b.iter(|| WeightedTree::build_with_scratch(&g, 0, &mut scratch))
        });
    }
    group.finish();
}

fn bench_weighted_msrp(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_weighted");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    for n in [256usize, 512] {
        let g = standard_weighted_graph(WorkloadKind::SparseRandom, n, 3, MAX_WEIGHT).freeze();
        let sources = evenly_spaced_sources(g.vertex_count(), 2);
        // Sanity: the subtree solver must agree with the brute force entry for entry —
        // the full replacement tables are compared bit for bit, not sampled.
        {
            let out = solve_msrp_weighted(&g, &sources);
            let mut scratch = DijkstraScratch::new();
            for (tree, solved) in out.trees.iter().zip(&out.per_source) {
                let truth = single_source_brute_force_weighted_with_scratch(&g, tree, &mut scratch);
                assert_eq!(*solved, truth, "source {}", tree.source());
            }
        }
        group.bench_with_input(BenchmarkId::new("weighted_msrp_subtree", n), &n, |b, _| {
            b.iter(|| solve_msrp_weighted(&g, &sources))
        });
        group.bench_with_input(BenchmarkId::new("weighted_brute_force", n), &n, |b, _| {
            b.iter(|| WeightedReplacementOracle::build_exact(&g, &sources))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dijkstra, bench_weighted_msrp);
criterion_main!(benches);
