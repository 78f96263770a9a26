//! Experiment E8 (Criterion variant): scaling of the serving subsystem.
//!
//! Two questions, matching `EXPERIMENTS.md` §E8 and the `BENCH_service.json` snapshot:
//!
//! * does sharded oracle *construction* (`build_shards`) scale with the thread count?
//! * does concurrent *querying* through the `QueryService` worker pool scale with the worker
//!   count, and what does the pool cost over a direct in-process query loop?

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_core::MsrpParams;
use msrp_oracle::{build_shards, ReplacementPathOracle};
use msrp_serve::{random_queries, PendingBatch, Query, QueryService, ServiceConfig, ShardedOracle};

const SIGMA: usize = 8;
const QUERIES: usize = 16384;

fn bench_parallel_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let n = 192;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11).freeze();
    let sources = evenly_spaced_sources(n, SIGMA);
    let params = MsrpParams::scaled_for_benchmarks();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("build_parallel_threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    ReplacementPathOracle::from_shards(build_shards(&g, &sources, &params, threads))
                })
            },
        );
    }
    group.finish();
}

fn bench_concurrent_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let n = 256;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let sources = evenly_spaced_sources(n, SIGMA);
    let params = MsrpParams::scaled_for_benchmarks();
    let mut rng = StdRng::seed_from_u64(5);
    let queries = random_queries(&g, &sources, QUERIES, &mut rng);

    // Baseline: the same query set answered by a direct in-process loop (no queue, no pool).
    let csr = g.freeze();
    let direct = ShardedOracle::build(&csr, &sources, &params, 1);
    group.bench_function("direct_oracle_loop_16k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(direct.query(q).unwrap_or(0) as u64);
            }
            acc
        })
    });

    for workers in [1usize, 2, 4] {
        let oracle = ShardedOracle::build(&csr, &sources, &params, workers);
        let service = QueryService::start(oracle, &ServiceConfig { workers });
        // Split the workload into one in-flight batch per worker so the pool actually runs
        // concurrently; a single answer_batch call would serialize on one worker.
        let batches: Vec<&[Query]> = queries.chunks(QUERIES / workers).collect();
        group.bench_with_input(
            BenchmarkId::new("service_16k_queries_workers", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    let pending: Vec<PendingBatch> =
                        batches.iter().map(|batch| service.submit(batch)).collect();
                    pending.into_iter().map(|p| p.wait().len()).sum::<usize>()
                })
            },
        );
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_build, bench_concurrent_queries);
criterion_main!(benches);
