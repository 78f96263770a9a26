//! The payoff measurement for the Bernstein–Karger preprocessing: `build_bk` (one multi-seed
//! BFS per tree-edge cut, over the entries it changes) against `build_exact` (one full
//! avoiding-BFS per tree edge) on the `graph_csr`/`oracle_queries` workloads, plus the query
//! surface of a BK-built oracle against recomputation.
//!
//! Both constructions are asserted to produce **identical tables** before anything is timed
//! (row-for-row `==`, the same check `tests/bk_differential.rs` pins), so every pair of
//! numbers compares two routes to the same answers.
//!
//! Snapshot the numbers into `BENCH_bk.json` with
//! `CRITERION_SUMMARY=bench.jsonl cargo bench -p msrp-bench --bench oracle_bk`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_graph::bfs_csr_avoiding_edge;
use msrp_oracle::ReplacementPathOracle;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_bk");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    // The graph_csr build sizes (256, 512) plus a larger point where the asymptotic gap —
    // BK touches each edge O(depth) times, the brute force O(n) times — dominates.
    for n in [256usize, 512, 1024] {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 3);
        let csr = g.freeze();
        let sources = evenly_spaced_sources(n, 2);
        // Identical tables, asserted before timing.
        {
            let bk = ReplacementPathOracle::build_bk(&csr, &sources);
            let exact = ReplacementPathOracle::build_exact(&csr, &sources);
            assert_eq!(bk.trees(), exact.trees(), "n={n}");
            assert_eq!(bk.per_source(), exact.per_source(), "n={n}");
        }
        group.bench_with_input(BenchmarkId::new("build_exact_per_edge_bfs", n), &n, |b, _| {
            b.iter(|| ReplacementPathOracle::build_exact(&csr, &sources))
        });
        // The id predates the removal of the heavy-path cover; `BENCH_bk.json` rows key on it.
        group.bench_with_input(BenchmarkId::new("build_bk_path_cover", n), &n, |b, _| {
            b.iter(|| ReplacementPathOracle::build_bk(&csr, &sources))
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_bk");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    // The oracle_queries workload shape (n=256, σ=8, 512 seeded queries), served from a
    // BK-built oracle.
    let n = 256;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let csr = g.freeze();
    let sources = evenly_spaced_sources(n, 8);
    let oracle = ReplacementPathOracle::build_bk(&csr, &sources);
    {
        let exact = ReplacementPathOracle::build_exact(&csr, &sources);
        assert_eq!(oracle.trees(), exact.trees());
        assert_eq!(oracle.per_source(), exact.per_source());
    }
    let mut rng = StdRng::seed_from_u64(5);
    let edges = g.edge_vec();
    let queries: Vec<_> = (0..512)
        .map(|_| {
            (
                sources[rng.gen_range(0..sources.len())],
                rng.gen_range(0..n),
                edges[rng.gen_range(0..edges.len())],
            )
        })
        .collect();
    group.bench_function("bk_oracle_512_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(s, t, e) in &queries {
                acc = acc.wrapping_add(oracle.replacement_distance(s, t, e).unwrap_or(0) as u64);
            }
            acc
        })
    });
    group.bench_function("bfs_recompute_32_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(s, t, e) in queries.iter().take(32) {
                acc = acc.wrapping_add(bfs_csr_avoiding_edge(&csr, s, e).dist[t] as u64);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
