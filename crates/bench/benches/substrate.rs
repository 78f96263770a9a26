//! Micro-benchmarks of the substrates the algorithm is built on: BFS / shortest-path trees and
//! the classical single-pair routine.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use msrp_bench::{standard_graph, WorkloadKind};
use msrp_graph::{bfs, bfs_distances, ShortestPathTree};
use msrp_rpath::single_pair_replacement_paths;

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let g = standard_graph(WorkloadKind::SparseRandom, 1024, 3);
    let csr = g.freeze();
    let tree = ShortestPathTree::build(&csr, 0);
    let dist_to_target = bfs_distances(&g, 777);

    group.bench_function("bfs_n1024", |b| b.iter(|| bfs(&g, 0)));
    group.bench_function("shortest_path_tree_n1024", |b| {
        b.iter(|| ShortestPathTree::from_bfs(bfs(&g, 0)))
    });
    group.bench_function("classical_single_pair_n1024", |b| {
        b.iter(|| single_pair_replacement_paths(&csr, &tree, 777, &dist_to_target))
    });

    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
