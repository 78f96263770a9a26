//! The observability tax: what span tracing + slow-query logging cost on the serving hot
//! path (the `BENCH_obs.json` snapshot; the acceptance bar is < 3% on the batch p50).
//!
//! Three measurements:
//!
//! * the same 256-query batch answered by an identical worker pool with tracing off vs on
//!   (journal + slow-query log armed, threshold high enough that nothing is captured — the
//!   steady-state configuration), which is the overhead number that matters;
//! * the journal write itself (`SpanJournal::record`), the primitive each batch pays three
//!   times when tracing is on;
//! * `render_metrics`, the cost a `METRICS` wire request puts on the serving process.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_obs::SpanJournal;
use msrp_serve::{random_queries, ObsConfig, QueryService, ServiceConfig, ShardedOracle};

const SIGMA: usize = 8;
const BATCH: usize = 256;

/// The tracing-on configuration under test: journal and slow-query log armed, threshold
/// high enough that a healthy batch never takes the capture path — the configuration a
/// production service would actually run with.
fn traced_config() -> ObsConfig {
    ObsConfig {
        journal_capacity: 65_536,
        slow_query_threshold: Some(Duration::from_millis(50)),
        slow_log_capacity: 64,
        trace_seed: 42,
    }
}

fn bench_batch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let n = 192;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let sources = evenly_spaced_sources(n, SIGMA);
    let oracle = ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2);
    let mut rng = StdRng::seed_from_u64(5);
    let queries = random_queries(&g, &sources, BATCH, &mut rng);
    let config = ServiceConfig { workers: 2 };
    for (label, obs) in [("tracing_off", ObsConfig::default()), ("tracing_on", traced_config())] {
        let service = QueryService::start_observed(oracle.clone(), &config, &obs);
        let mut ran = false;
        group.bench_function(format!("batch_{BATCH}_{label}"), |b| {
            ran = true;
            b.iter(|| service.answer_batch(&queries).len())
        });
        // Tracing on must actually have traced: three spans per batch, nothing dropped
        // into the slow log at this threshold. A name filter that skips the benchmark
        // leaves nothing to check.
        if obs.enabled() && ran {
            let journal = service.journal_snapshot().expect("journal armed");
            assert!(journal.total > 0 && journal.total % 3 == 0, "spans were journaled");
        }
    }
    group.finish();
}

fn bench_obs_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    let journal = SpanJournal::new(65_536);
    let mut ticket = 0u64;
    group.bench_function("journal_record", |b| {
        b.iter(|| {
            ticket += 1;
            journal.record(ticket, 1, 0, Duration::from_micros(7));
        })
    });
    // Exposition rendering against a service that has real traffic in its histograms.
    let n = 96;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let sources = evenly_spaced_sources(n, SIGMA);
    let service = QueryService::start_observed(
        ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2),
        &ServiceConfig { workers: 2 },
        &traced_config(),
    );
    let mut rng = StdRng::seed_from_u64(6);
    let queries = random_queries(&g, &sources, 64, &mut rng);
    for _ in 0..32 {
        service.answer_batch(&queries);
    }
    group.bench_function("render_metrics", |b| b.iter(|| service.render_metrics().len()));
    group.finish();
}

criterion_group!(benches, bench_batch_overhead, bench_obs_primitives);
criterion_main!(benches);
