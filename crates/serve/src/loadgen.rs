//! A deterministic, seed-pinned, closed-loop load generator for [`QueryService`].
//!
//! *Closed loop* means every client thread keeps exactly one batch outstanding: it submits a
//! batch, blocks for the answers, records the client-observed latency, and only then builds
//! the next batch. Offered load therefore adapts to service capacity instead of overrunning
//! the queue, and the measured throughput is the service's sustainable rate at the configured
//! concurrency.
//!
//! Determinism: client `i` draws its workload from `StdRng::seed_from_u64(mix(seed, i))`, so
//! the multiset of issued queries — and, because answers come from immutable state, the
//! per-client answer checksums — depend only on `(graph, sources, config)`, never on thread
//! scheduling or worker count. The property suite relies on this to compare runs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_graph::{Distance, Graph, Vertex};

use crate::metrics::{HistogramSnapshot, LatencyHistogram};
use crate::service::{Query, QueryService, RouteOracle};

/// Configuration of a load-generation run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Number of concurrent client threads (clamped to at least 1).
    pub clients: usize,
    /// Batches each client issues.
    pub batches_per_client: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Workload seed; client `i` uses a sub-seed derived from it.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig { clients: 2, batches_per_client: 20, batch_size: 16, seed: 1 }
    }
}

/// Results of a load-generation run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Total queries issued across all clients.
    pub total_queries: u64,
    /// Wall-clock duration of the whole run.
    pub wall_secs: f64,
    /// Client-observed batch latency (submit → answers).
    pub latency: HistogramSnapshot,
    /// Order-independent digest of every answer, for determinism assertions: the wrapping sum
    /// of per-client checksums, each a wrapping sum of encoded answers.
    pub checksum: u64,
}

impl LoadReport {
    /// Sustained throughput in queries per second.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_secs == 0.0 {
            0.0
        } else {
            self.total_queries as f64 / self.wall_secs
        }
    }
}

/// Draws `count` random queries over `g`: a uniform source from `sources`, a uniform target,
/// and a uniform edge of the graph to avoid.
///
/// # Panics
///
/// Panics if `sources` is empty or `g` has no edges.
pub fn random_queries(g: &Graph, sources: &[Vertex], count: usize, rng: &mut StdRng) -> Vec<Query> {
    assert!(!sources.is_empty(), "at least one source is required");
    let edges = g.edge_vec();
    assert!(!edges.is_empty(), "the graph must have edges");
    let n = g.vertex_count();
    (0..count)
        .map(|_| {
            Query::new(
                sources[rng.gen_range(0..sources.len())],
                rng.gen_range(0..n),
                edges[rng.gen_range(0..edges.len())],
            )
        })
        .collect()
}

/// Encodes one answer into the checksum domain (distinguishes "unroutable" from every
/// distance, including the infinite one).
fn encode_answer(a: Option<msrp_graph::Distance>) -> u64 {
    match a {
        None => u64::MAX,
        Some(d) => d as u64,
    }
}

/// Per-client sub-seed: splitmix-style mixing keeps client streams well separated even for
/// adjacent seeds.
fn client_seed(seed: u64, client: u64) -> u64 {
    let mut z = seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives `service` with `config.clients` closed-loop clients issuing seed-pinned workloads
/// over `g` and the service's own source set.
pub fn run_closed_loop(service: &QueryService, g: &Graph, config: &LoadConfig) -> LoadReport {
    run_closed_loop_on(service, g, &service.oracle().sources(), config)
}

/// The generic body of [`run_closed_loop`]: drives any service answering in [`Distance`]s
/// — including an epoch-swapping [`QueryService<EpochOracle>`](crate::EpochOracle), whose
/// source set is stable across epochs and therefore passed in (the tests drive a live swap
/// through it).
///
/// Note the determinism caveat under churn: the issued query multiset is still a pure
/// function of `(g, sources, config)`, but answers — and hence `checksum` — depend on which
/// epoch each batch lands in. Against an immutable oracle the checksum stays reproducible
/// exactly as before.
fn run_closed_loop_on<O: RouteOracle<Answer = Distance>>(
    service: &QueryService<O>,
    g: &Graph,
    sources: &[Vertex],
    config: &LoadConfig,
) -> LoadReport {
    let clients = config.clients.max(1);
    let latency = LatencyHistogram::new();
    let start = Instant::now();
    let client_checksums: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let sources = &sources;
                let latency = &latency;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(client_seed(config.seed, client as u64));
                    let mut checksum = 0u64;
                    for _ in 0..config.batches_per_client {
                        let batch = random_queries(g, sources, config.batch_size, &mut rng);
                        let submitted = Instant::now();
                        let answers = service.answer_batch(&batch);
                        latency.record(submitted.elapsed());
                        for a in answers {
                            checksum = checksum.wrapping_add(encode_answer(a));
                        }
                    }
                    checksum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    LoadReport {
        total_queries: (clients * config.batches_per_client * config.batch_size) as u64,
        wall_secs,
        latency: latency.snapshot(),
        checksum: client_checksums.iter().fold(0u64, |acc, &c| acc.wrapping_add(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ShardedOracle};
    use msrp_core::MsrpParams;
    use msrp_graph::generators::grid_graph;

    #[test]
    fn random_queries_are_deterministic_per_seed() {
        let g = grid_graph(4, 4);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            random_queries(&g, &[0, 5], 50, &mut a),
            random_queries(&g, &[0, 5], 50, &mut b)
        );
    }

    #[test]
    fn closed_loop_reports_are_complete_and_deterministic() {
        let g = grid_graph(5, 5);
        let sources = [0usize, 12, 24];
        let config = LoadConfig { clients: 3, batches_per_client: 5, batch_size: 8, seed: 42 };
        let mut checksums = Vec::new();
        for workers in [1usize, 4] {
            let oracle = ShardedOracle::build(&g.freeze(), &sources, &MsrpParams::default(), 2);
            let service = QueryService::start(oracle, &ServiceConfig { workers });
            let report = run_closed_loop(&service, &g, &config);
            assert_eq!(report.total_queries, 3 * 5 * 8);
            assert_eq!(report.latency.count, 3 * 5);
            assert!(report.throughput_qps() > 0.0);
            checksums.push(report.checksum);
            let metrics = service.shutdown();
            assert_eq!(metrics.queries_total, report.total_queries);
        }
        assert_eq!(checksums[0], checksums[1], "answers must not depend on worker count");
    }

    #[test]
    fn closed_loop_drives_an_epoch_service_through_a_live_swap() {
        use crate::epoch::EpochOracle;
        let g = grid_graph(5, 5);
        let sources = [0usize, 12, 24];
        let oracle0 = ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2);
        let service = QueryService::start(EpochOracle::new(oracle0), &ServiceConfig { workers: 2 });
        let config = LoadConfig { clients: 2, batches_per_client: 6, batch_size: 8, seed: 5 };
        let report = std::thread::scope(|scope| {
            let swapper = scope.spawn(|| {
                // Rebuild for a removed edge and publish while the clients are running.
                let mut g2 = g.clone();
                g2.remove_edge(0, 1).unwrap();
                let (next, stats) = service
                    .oracle()
                    .current()
                    .oracle
                    .rebuild_bk_csr(&g2.freeze(), msrp_graph::Edge::new(0, 1));
                assert_eq!(stats.sources_total, 3, "{stats:?}");
                service.oracle().publish(next).id
            });
            let report = run_closed_loop_on(&service, &g, &sources, &config);
            assert_eq!(swapper.join().expect("swapper"), 1);
            report
        });
        assert_eq!(report.total_queries, 2 * 6 * 8);
        assert_eq!(service.oracle().epoch_id(), 1);
        let metrics = service.shutdown();
        assert!(metrics.queries_total >= report.total_queries);
    }

    #[test]
    fn client_seeds_are_well_separated() {
        let s: Vec<u64> = (0..8).map(|i| client_seed(7, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }
}
