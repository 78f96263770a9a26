//! The payoff measurement for snapshot persistence: booting a serving oracle from a
//! `msrp-snap` buffer (`ShardedOracle::from_snapshot` — checksum walk + validated table
//! adoption) against re-running the Bernstein–Karger construction from the frozen graph
//! (`ShardedOracle::build_bk_csr`), on the sparse-random workload at `n = 2^17` (plus a
//! smaller point for the scaling shape).
//!
//! The booted oracle is asserted **bit-identical** before anything is timed: re-encoding
//! it must reproduce the snapshot buffer byte-for-byte, so both routes answer the same
//! queries by construction (the same canonical-encoding check the snapshot fuzz battery
//! pins).
//!
//! Snapshot the numbers into `BENCH_snapshot.json` with
//! `CRITERION_SUMMARY=bench.jsonl cargo bench -p msrp-bench --bench oracle_snapshot`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_serve::service::ShardedOracle;

fn bench_boot(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_snapshot");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_millis(300));

    // n = 2^14 shows the shape; n = 2^17 is the acceptance point, where the BK build walks
    // ~n log n edge-touches per source while the snapshot boot is one linear checksum +
    // copy pass over the buffer.
    // σ = 4 matches the `msrpctl create` default.
    for n in [1usize << 14, 1 << 17] {
        let csr = standard_graph(WorkloadKind::SparseRandom, n, 7).freeze();
        let sources = evenly_spaced_sources(n, 4);
        let oracle = ShardedOracle::build_bk_csr(&csr, &sources, 2);
        let bytes = oracle.to_snapshot(&csr);
        // Bit-identical before timing: boot, then prove the round trip is canonical.
        {
            let (g2, booted) = ShardedOracle::from_snapshot(&bytes).expect("pristine snapshot");
            assert_eq!(g2, csr, "n={n}");
            assert_eq!(booted.to_snapshot(&g2), bytes, "n={n}: boot is not bit-identical");
        }
        group.bench_with_input(BenchmarkId::new("build_bk_from_scratch", n), &n, |b, _| {
            b.iter(|| ShardedOracle::build_bk_csr(&csr, &sources, 2))
        });
        group.bench_with_input(BenchmarkId::new("boot_from_snapshot", n), &n, |b, _| {
            b.iter(|| ShardedOracle::from_snapshot(&bytes).expect("pristine snapshot"))
        });
        group.bench_with_input(BenchmarkId::new("encode_snapshot", n), &n, |b, _| {
            b.iter(|| oracle.to_snapshot(&csr))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_boot);
criterion_main!(benches);
