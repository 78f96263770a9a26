//! Experiment E5 (Criterion variant): query latency of the fault-tolerant oracle against
//! recomputation with BFS. Recompute runs the CSR kernel through one reused `BfsScratch`,
//! as E5 does, so the gap is the oracle's and not the kernel's.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_core::MsrpParams;
use msrp_graph::BfsScratch;
use msrp_oracle::ReplacementPathOracle;

fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_queries");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let n = 256;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let csr = g.freeze();
    let sources = evenly_spaced_sources(n, 8);
    let oracle = ReplacementPathOracle::build(&csr, &sources, &MsrpParams::scaled_for_benchmarks());
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

    group.bench_function("structured_oracle_512_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(s, t, e) in &queries {
                acc = acc.wrapping_add(oracle.replacement_distance(s, t, e).unwrap_or(0) as u64);
            }
            acc
        })
    });
    let mut bfs = BfsScratch::new();
    group.bench_function("bfs_recompute_32_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(s, t, e) in queries.iter().take(32) {
                bfs.run_avoiding(&csr, s, e);
                acc = acc.wrapping_add(bfs.dist()[t] as u64);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
