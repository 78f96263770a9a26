//! Micro-benchmarks of the substrates the algorithm is built on: BFS / shortest-path trees, the
//! classical single-pair routine, and the cuckoo hash table against the standard library map.

use std::collections::HashMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use msrp_bench::{standard_graph, WorkloadKind};
use msrp_graph::{bfs, bfs_distances, CuckooHashMap, ShortestPathTree};
use msrp_rpath::single_pair_replacement_paths;

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let g = standard_graph(WorkloadKind::SparseRandom, 1024, 3);
    let csr = g.freeze();
    let tree = ShortestPathTree::build(&g, 0);
    let dist_to_target = bfs_distances(&g, 777);

    group.bench_function("bfs_n1024", |b| b.iter(|| bfs(&g, 0)));
    group.bench_function("shortest_path_tree_n1024", |b| b.iter(|| ShortestPathTree::build(&g, 0)));
    group.bench_function("classical_single_pair_n1024", |b| {
        b.iter(|| single_pair_replacement_paths(&csr, &tree, 777, &dist_to_target))
    });

    let keys: Vec<(u32, u32, u64)> = (0..20_000u32).map(|i| (i % 64, i / 64, i as u64)).collect();
    group.bench_function("cuckoo_insert_get_20k", |b| {
        b.iter(|| {
            let mut m = CuckooHashMap::with_capacity(32_768);
            for &k in &keys {
                m.insert(k, k.2 as u32);
            }
            let mut acc = 0u64;
            for &k in &keys {
                acc += *m.get(&k).unwrap() as u64;
            }
            acc
        })
    });
    group.bench_function("std_hashmap_insert_get_20k", |b| {
        b.iter(|| {
            let mut m = HashMap::with_capacity(32_768);
            for &k in &keys {
                m.insert(k, k.2 as u32);
            }
            let mut acc = 0u64;
            for &k in &keys {
                acc += *m.get(&k).unwrap() as u64;
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
