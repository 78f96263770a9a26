//! The live-churn driver: streams seed-pinned edge failure/repair events at a running
//! epoch-swapping [`QueryService`] while closed-loop query batches keep arriving, and
//! validates every answer against per-epoch ground truth.
//!
//! Each event toggles one edge of the served graph. A background thread rebuilds the
//! post-event oracle through the incremental Bernstein–Karger path
//! ([`ShardedOracle::rebuild_bk_csr`]) and publishes it as a new epoch; meanwhile the driver
//! keeps firing batches at the service. Because every batch is pinned to a single epoch (see
//! `msrp_serve::epoch`), a batch answered during the swap must equal — query for query — the
//! answer set of either the pre-event or the post-event graph; after the rebuild thread is
//! joined, batches must match the post-event graph exactly. The driver recomputes both
//! grounds truth with avoiding-BFS runs and counts a `mismatched_batches` that a correct
//! stack keeps at zero on every seed.
//!
//! With `verify_full` set, every event additionally runs a from-scratch
//! [`ShardedOracle::build_bk_csr`] on the post-event graph and asserts the incremental
//! result equals it shard-for-shard, row-for-row — the differential that makes the epoch
//! publish safe without a validation pass — while timing both paths for the E11 report.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_graph::{BfsScratch, CsrGraph, Distance, Edge, Graph, Vertex};
use msrp_oracle::RebuildStats;
use msrp_serve::{
    EpochOracle, HistogramSnapshot, Query, QueryService, ServiceConfig, ShardedOracle,
};

/// Configuration of a churn run.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// The service's sources (gateways), sharded across `shards`.
    pub gateways: Vec<Vertex>,
    /// Number of churn events (each toggles one edge: failure or repair).
    pub events: usize,
    /// Query batches fired while each event's rebuild is in flight.
    pub batches_in_flight: usize,
    /// Query batches fired after each event's epoch is published.
    pub batches_settled: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Oracle shards.
    pub shards: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Master seed for event and query streams.
    pub seed: u64,
    /// Also run a from-scratch rebuild per event, assert bit-equality with the incremental
    /// result, and time both (E11 and the test suite set this; pure benchmarks may not).
    pub verify_full: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            gateways: vec![0],
            events: 8,
            batches_in_flight: 3,
            batches_settled: 2,
            batch_size: 16,
            shards: 2,
            workers: 2,
            seed: 11,
            verify_full: true,
        }
    }
}

/// Results of a churn run.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Events processed (failures + repairs).
    pub events: usize,
    /// How many of them were repairs (re-adding a previously failed edge).
    pub repairs: usize,
    /// Queries issued across all batches.
    pub total_queries: u64,
    /// Batches whose answers matched *no* single epoch's ground truth (0 for a correct
    /// stack: the headline acceptance number).
    pub mismatched_batches: usize,
    /// Incremental-rebuild work accounting, merged over all events. `sources_total` /
    /// `cuts_total` are exactly the work the full-rebuild baseline does per event.
    pub incremental: RebuildStats,
    /// Wall time spent in incremental rebuilds (sum over events).
    pub incremental_rebuild_time: Duration,
    /// Wall time spent in from-scratch rebuilds (sum; zero unless `verify_full`).
    pub full_rebuild_time: Duration,
    /// Staleness windows (event arrival → epoch published) as recorded by the service.
    pub staleness: HistogramSnapshot,
    /// Rebuild latencies as recorded by the service.
    pub rebuild_latency: HistogramSnapshot,
    /// Epoch id after the last event (== `events`).
    pub final_epoch: u64,
}

impl ChurnReport {
    /// `true` when incremental invalidation did strictly less work than the full-rebuild
    /// baseline over the whole run — the acceptance criterion E11 prints per seed.
    pub fn incremental_win(&self) -> bool {
        self.incremental.strictly_less_than_full()
    }
}

/// Ground truth for one batch under one graph: an avoiding-BFS per query (the same
/// recompute-from-scratch baseline the failure simulation uses).
fn recompute_batch(
    csr: &CsrGraph,
    gateways: &[Vertex],
    batch: &[Query],
    scratch: &mut BfsScratch,
) -> Vec<Option<Distance>> {
    let n = csr.vertex_count();
    batch
        .iter()
        .map(|q| {
            if q.target >= n || q.avoid.hi() >= n || !gateways.contains(&q.source) {
                return None;
            }
            scratch.run_avoiding(csr, q.source, q.avoid);
            Some(scratch.dist()[q.target])
        })
        .collect()
}

/// Draws one seed-pinned query batch: gateway sources, uniform targets, and avoided edges
/// drawn from the *initial* edge set (so queries routinely name currently-failed edges —
/// the interesting case under churn).
fn draw_batch(
    gateways: &[Vertex],
    n: usize,
    edge_pool: &[Edge],
    size: usize,
    rng: &mut StdRng,
) -> Vec<Query> {
    (0..size)
        .map(|_| {
            Query::new(
                gateways[rng.gen_range(0..gateways.len())],
                rng.gen_range(0..n),
                edge_pool[rng.gen_range(0..edge_pool.len())],
            )
        })
        .collect()
}

/// Runs the churn simulation on (a private copy of) `g0`.
///
/// # Panics
///
/// Panics if `g0` has no edges, a gateway is out of range, or — with `verify_full` — the
/// incremental rebuild ever diverges from the from-scratch build (it must not).
pub fn run_churn(g0: &Graph, config: &ChurnConfig) -> ChurnReport {
    assert!(config.events > 0, "a churn run needs at least one event");
    let mut g = g0.clone();
    let n = g.vertex_count();
    let edge_pool = g.edge_vec();
    assert!(!edge_pool.is_empty(), "the served graph must have edges");
    let service = QueryService::start(
        EpochOracle::new(ShardedOracle::build_bk_csr(&g.freeze(), &config.gateways, config.shards)),
        &ServiceConfig { workers: config.workers },
    );
    let metrics = service.shared_metrics();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut scratch = BfsScratch::new();
    let mut down: Vec<Edge> = Vec::new();
    let mut repairs = 0usize;
    let mut total_queries = 0u64;
    let mut mismatched_batches = 0usize;
    let mut incremental = RebuildStats::default();
    let mut incremental_rebuild_time = Duration::ZERO;
    let mut full_rebuild_time = Duration::ZERO;
    for _event in 0..config.events {
        // Pick the toggle: repair a failed edge with probability ~1/3 when one exists,
        // otherwise fail a present edge (never the last one).
        let repair = !down.is_empty() && (g.edge_count() <= 1 || rng.gen_range(0..3usize) == 0);
        let e = if repair {
            repairs += 1;
            let e = down.swap_remove(rng.gen_range(0..down.len()));
            let (u, v) = e.endpoints();
            g.add_edge(u, v).unwrap();
            e
        } else {
            let edges = g.edge_vec();
            let e = edges[rng.gen_range(0..edges.len())];
            let (u, v) = e.endpoints();
            g.remove_edge(u, v).unwrap();
            down.push(e);
            e
        };
        let old_epoch = service.oracle().current();
        let pre_csr = {
            // Reconstruct the pre-event graph for ground truth (toggle back temporarily).
            let mut pre = g.clone();
            let (u, v) = e.endpoints();
            if repair {
                pre.remove_edge(u, v).unwrap();
            } else {
                pre.add_edge(u, v).unwrap();
            }
            pre.freeze()
        };
        let post_csr = g.freeze();
        let event_at = Instant::now();
        // Pre-draw the in-flight batches so the RNG stays on the main thread.
        let in_flight: Vec<Vec<Query>> = (0..config.batches_in_flight)
            .map(|_| draw_batch(&config.gateways, n, &edge_pool, config.batch_size, &mut rng))
            .collect();
        let swap_stats = std::thread::scope(|scope| {
            let rebuilder = scope.spawn(|| {
                let rebuild_at = Instant::now();
                let (next, stats) = old_epoch.oracle.rebuild_bk_csr(&post_csr, e);
                let rebuilt_in = rebuild_at.elapsed();
                let epoch = service.oracle().publish(next);
                metrics.record_epoch_swap(epoch.id, event_at.elapsed(), rebuilt_in, &stats);
                (stats, rebuilt_in)
            });
            // Load while the rebuild is in flight: each batch must match one epoch's truth.
            for batch in &in_flight {
                let answers = service.answer_batch(batch);
                total_queries += batch.len() as u64;
                let pre_truth = recompute_batch(&pre_csr, &config.gateways, batch, &mut scratch);
                let matches_pre = answers == pre_truth;
                let matches_post = matches_pre || {
                    let post_truth =
                        recompute_batch(&post_csr, &config.gateways, batch, &mut scratch);
                    answers == post_truth
                };
                if !matches_pre && !matches_post {
                    mismatched_batches += 1;
                }
            }
            rebuilder.join().expect("rebuild thread panicked")
        });
        incremental.merge(&swap_stats.0);
        incremental_rebuild_time += swap_stats.1;
        if config.verify_full {
            let full_at = Instant::now();
            let full = ShardedOracle::build_bk_csr(&post_csr, &config.gateways, config.shards);
            full_rebuild_time += full_at.elapsed();
            let current = service.oracle().current();
            for (inc_shard, full_shard) in current.oracle.shards().iter().zip(full.shards()) {
                assert!(
                    inc_shard.trees() == full_shard.trees()
                        && inc_shard.per_source() == full_shard.per_source(),
                    "incremental rebuild diverged from the from-scratch build"
                );
            }
        }
        // Settled load: the swap is published, so answers must match the new graph exactly.
        for _ in 0..config.batches_settled {
            let batch = draw_batch(&config.gateways, n, &edge_pool, config.batch_size, &mut rng);
            let answers = service.answer_batch(&batch);
            total_queries += batch.len() as u64;
            if answers != recompute_batch(&post_csr, &config.gateways, &batch, &mut scratch) {
                mismatched_batches += 1;
            }
        }
    }
    let final_epoch = service.oracle().epoch_id();
    let snapshot = service.shutdown();
    ChurnReport {
        events: config.events,
        repairs,
        total_queries,
        mismatched_batches,
        incremental,
        incremental_rebuild_time,
        full_rebuild_time,
        staleness: snapshot.staleness_window,
        rebuild_latency: snapshot.rebuild_latency,
        final_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, grid_graph};

    #[test]
    fn churn_run_is_exact_on_every_batch() {
        let mut rng = StdRng::seed_from_u64(301);
        let g = connected_gnm(40, 110, &mut rng).unwrap();
        let config = ChurnConfig {
            gateways: vec![0, 13, 26, 39],
            events: 10,
            seed: 302,
            ..ChurnConfig::default()
        };
        let report = run_churn(&g, &config);
        assert_eq!(report.mismatched_batches, 0);
        assert_eq!(report.final_epoch, 10);
        assert_eq!(report.staleness.count, 10);
        assert_eq!(report.rebuild_latency.count, 10);
        assert_eq!(report.total_queries, 10 * 5 * 16);
        assert!(report.incremental_win(), "{:?}", report.incremental);
        // The rung table accounts for every source the ladder touched, and its wall times
        // are bounded by the measured rebuild wall time.
        let table = report.incremental.rungs();
        assert_eq!(table.map(|(r, _, _)| r), ["reuse", "patch", "rebuild"]);
        let sources: usize = table.iter().map(|&(_, s, _)| s).sum();
        assert_eq!(sources, report.incremental.sources_total);
        let staged: Duration = table.iter().map(|&(_, _, t)| t).sum();
        assert!(
            staged <= report.incremental_rebuild_time,
            "stage times {staged:?} exceed the rebuild wall {:?}",
            report.incremental_rebuild_time
        );
    }

    #[test]
    fn churn_survives_disconnections_on_sparse_graphs() {
        // A grid has bridges after a few removals; disconnected targets must answer ∞,
        // never mismatch, and repairs must restore exactness.
        let config = ChurnConfig {
            gateways: vec![0, 24],
            events: 12,
            batch_size: 12,
            seed: 909,
            ..ChurnConfig::default()
        };
        let report = run_churn(&grid_graph(5, 5), &config);
        assert_eq!(report.mismatched_batches, 0);
        assert_eq!(report.events, 12);
        assert!(report.repairs > 0, "seed 909 must exercise the repair path");
    }

    #[test]
    fn incremental_beats_full_on_multiple_seeds() {
        let mut rng = StdRng::seed_from_u64(311);
        for seed in [1u64, 7, 23] {
            let g = connected_gnm(32, 90, &mut rng).unwrap();
            let config = ChurnConfig {
                gateways: vec![0, 10, 20, 30],
                events: 8,
                seed,
                ..ChurnConfig::default()
            };
            let report = run_churn(&g, &config);
            assert_eq!(report.mismatched_batches, 0, "seed {seed}");
            assert!(report.incremental_win(), "seed {seed}: {:?}", report.incremental);
        }
    }
}
