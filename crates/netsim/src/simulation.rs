//! A seeded single-link-failure simulation (experiment E7).
//!
//! The scenario follows the MPLS-restoration motivation of the replacement-path literature: a
//! network carries traffic from a small set of ingress gateways (the σ sources) to arbitrary
//! destinations; links fail one at a time and are repaired before the next failure (the
//! single-fault model of the paper). On every failure a batch of routing queries must be
//! answered. The simulation answers each query twice — through the precomputed replacement-path
//! oracle and by recomputing a BFS from scratch — and checks that the answers agree, recording
//! wall-clock time spent on each side.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_core::MsrpParams;
use msrp_graph::{BfsScratch, CsrGraph, Distance, Edge, Graph, Vertex, INFINITE_DISTANCE};
use msrp_oracle::ReplacementPathOracle;
use msrp_serve::{Query, QueryService, ServiceConfig, ShardedOracle};

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimulationConfig {
    /// The ingress gateways (sources of the oracle).
    pub gateways: Vec<Vertex>,
    /// Number of link failures to inject.
    pub failures: usize,
    /// Number of routing queries issued per failure.
    pub queries_per_failure: usize,
    /// RNG seed (failures and queries are fully determined by it).
    pub seed: u64,
    /// Parameters for the oracle construction.
    pub params: MsrpParams,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            gateways: vec![0],
            failures: 20,
            queries_per_failure: 10,
            seed: 7,
            params: MsrpParams::default(),
        }
    }
}

/// One injected failure and the queries answered under it.
#[derive(Clone, Debug)]
pub struct FailureEvent {
    /// The failed link.
    pub edge: Edge,
    /// `(gateway, destination, distance under failure)` for every query.
    pub answers: Vec<(Vertex, Vertex, Distance)>,
    /// How many of the answered queries lost connectivity entirely.
    pub disconnected: usize,
}

/// Aggregate results of a simulation run.
#[derive(Clone, Debug)]
pub struct SimulationReport {
    /// The injected failures, in order.
    pub events: Vec<FailureEvent>,
    /// Total number of routing queries answered.
    pub total_queries: usize,
    /// Queries whose oracle answer differed from recomputation (must be 0 — checked in tests).
    pub mismatches: usize,
    /// Queries that became disconnected under the failure.
    pub disconnected_queries: usize,
    /// Sum over answered queries of `replacement − baseline` (only finite detours).
    pub total_stretch: u64,
    /// Wall-clock time spent constructing the oracle.
    pub oracle_build_time: Duration,
    /// Wall-clock time spent answering queries through the oracle.
    pub oracle_query_time: Duration,
    /// Wall-clock time spent answering the same queries by re-running BFS.
    pub recompute_time: Duration,
}

impl SimulationReport {
    /// Average extra hops caused by a failure, over queries that stayed connected.
    pub fn average_stretch(&self) -> f64 {
        let connected = self.total_queries - self.disconnected_queries;
        if connected == 0 {
            0.0
        } else {
            self.total_stretch as f64 / connected as f64
        }
    }

    /// The headline number of experiments E7/E8: how much faster the precomputed oracle (or
    /// the query service wrapping it) answers the failure workload than recomputing each
    /// answer from scratch (`recompute_time / oracle_query_time`; infinite when querying took
    /// no measurable time).
    pub fn oracle_speedup(&self) -> f64 {
        let o = self.oracle_query_time.as_secs_f64();
        if o == 0.0 {
            f64::INFINITY
        } else {
            self.recompute_time.as_secs_f64() / o
        }
    }
}

/// Runs the simulation on `g` with the given configuration: every failure's query batch is
/// answered by in-process calls to a [`ReplacementPathOracle`]. `oracle_query_time` is
/// taken per failure batch.
///
/// # Panics
///
/// Panics if the configuration has no gateways or the graph has no edges.
pub fn run_simulation(g: &Graph, config: &SimulationConfig) -> SimulationReport {
    simulate(
        g,
        config,
        |csr| ReplacementPathOracle::build(csr, &config.gateways, &config.params),
        |oracle, batch| {
            batch.iter().map(|q| oracle.replacement_distance(q.source, q.target, q.avoid)).collect()
        },
        |oracle, s, t| oracle.distance(s, t),
    )
}

/// Runs the same seeded simulation, but routes every per-failure query batch through a
/// [`QueryService`]: the oracle shards are built in parallel (`shards` construction
/// workers) and each failure's batch is answered by the service's worker pool instead of by
/// in-process calls.
///
/// Both entry points share one failure loop, so for a given `config` they inject the same
/// failures and queries — and, because the service is answer-preserving (see the
/// `msrp-serve` property suite), they must produce the same events, stretch, and mismatch
/// counts; only the timing columns differ. `oracle_build_time` covers sharded construction
/// plus service start-up, and `oracle_query_time` covers the full submit → answers round
/// trip including queueing.
///
/// # Panics
///
/// Panics on the same configurations as [`run_simulation`].
pub fn run_simulation_with_service(
    g: &Graph,
    config: &SimulationConfig,
    shards: usize,
    workers: usize,
) -> SimulationReport {
    simulate(
        g,
        config,
        |csr| {
            QueryService::start(
                ShardedOracle::build(csr, &config.gateways, &config.params, shards),
                &ServiceConfig { workers },
            )
        },
        |service, batch| service.answer_batch(batch),
        |service, s, t| service.oracle().distance(s, t),
    )
}

/// The failure loop of both entry points. `build` constructs the answering side over the
/// frozen graph (timed as `oracle_build_time`). Per failure, the seeded RNG draws the
/// failed link and then each query's gateway and destination; `answer_batch` answers the
/// whole batch (timed as `oracle_query_time`), every answer is checked against a BFS
/// recomputation, and `distance` gives the fault-free distance the stretch is measured from.
fn simulate<O>(
    g: &Graph,
    config: &SimulationConfig,
    build: impl FnOnce(&CsrGraph) -> O,
    answer_batch: impl Fn(&O, &[Query]) -> Vec<Option<Distance>>,
    distance: impl Fn(&O, Vertex, Vertex) -> Option<Distance>,
) -> SimulationReport {
    assert!(!config.gateways.is_empty(), "at least one gateway is required");
    assert!(g.edge_count() > 0, "the network must have links");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // One frozen CSR view serves the build and every recomputed answer; the recompute loop
    // reuses one set of BFS buffers across all failures.
    let csr = g.freeze();
    let mut scratch = BfsScratch::new();

    let build_start = Instant::now();
    let oracle = build(&csr);
    let mut report = SimulationReport {
        events: Vec::with_capacity(config.failures),
        total_queries: 0,
        mismatches: 0,
        disconnected_queries: 0,
        total_stretch: 0,
        oracle_build_time: build_start.elapsed(),
        oracle_query_time: Duration::ZERO,
        recompute_time: Duration::ZERO,
    };

    let edges = g.edge_vec();
    let n = g.vertex_count();
    for _ in 0..config.failures {
        let edge = edges[rng.gen_range(0..edges.len())];
        let batch: Vec<Query> = (0..config.queries_per_failure)
            .map(|_| {
                let gw = config.gateways[rng.gen_range(0..config.gateways.len())];
                let dest = rng.gen_range(0..n);
                Query::new(gw, dest, edge)
            })
            .collect();
        report.total_queries += batch.len();

        let start = Instant::now();
        let batch_answers = answer_batch(&oracle, &batch);
        report.oracle_query_time += start.elapsed();

        let mut answers = Vec::with_capacity(batch.len());
        let mut disconnected = 0;
        for (q, answer) in batch.iter().zip(batch_answers) {
            let answer = answer.expect("gateway is a source");

            let start = Instant::now();
            scratch.run_avoiding(&csr, q.source, edge);
            let recomputed = scratch.dist()[q.target];
            report.recompute_time += start.elapsed();

            if answer != recomputed {
                report.mismatches += 1;
            }
            if recomputed == INFINITE_DISTANCE {
                disconnected += 1;
            } else if let Some(base) = distance(&oracle, q.source, q.target) {
                report.total_stretch += (recomputed - base) as u64;
            }
            answers.push((q.source, q.target, answer));
        }
        report.disconnected_queries += disconnected;
        report.events.push(FailureEvent { edge, answers, disconnected });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, grid_graph, path_graph};
    use rand::rngs::StdRng;

    #[test]
    fn oracle_and_recomputation_always_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = connected_gnm(40, 90, &mut rng).unwrap();
        let config = SimulationConfig {
            gateways: vec![0, 13, 27],
            failures: 25,
            queries_per_failure: 8,
            seed: 11,
            params: MsrpParams::default(),
        };
        let report = run_simulation(&g, &config);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.total_queries, 25 * 8);
        assert_eq!(report.events.len(), 25);
        assert!(report.average_stretch() >= 0.0);
        assert!(report.oracle_speedup() > 0.0);
        assert!(report.oracle_build_time.as_nanos() > 0);
    }

    #[test]
    fn bridge_failures_report_disconnections() {
        let g = path_graph(12);
        let config = SimulationConfig {
            gateways: vec![0],
            failures: 30,
            queries_per_failure: 4,
            seed: 3,
            params: MsrpParams::default(),
        };
        let report = run_simulation(&g, &config);
        assert_eq!(report.mismatches, 0);
        assert!(report.disconnected_queries > 0, "path graphs disconnect on every failure");
        let per_event: usize = report.events.iter().map(|e| e.disconnected).sum();
        assert_eq!(per_event, report.disconnected_queries);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let g = grid_graph(5, 5);
        let config = SimulationConfig { gateways: vec![0, 24], ..Default::default() };
        let a = run_simulation(&g, &config);
        let b = run_simulation(&g, &config);
        assert_eq!(a.total_queries, b.total_queries);
        assert_eq!(a.total_stretch, b.total_stretch);
        let edges_a: Vec<_> = a.events.iter().map(|e| e.edge).collect();
        let edges_b: Vec<_> = b.events.iter().map(|e| e.edge).collect();
        assert_eq!(edges_a, edges_b);
    }

    #[test]
    fn service_backed_simulation_matches_the_in_process_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = connected_gnm(36, 80, &mut rng).unwrap();
        let config = SimulationConfig {
            gateways: vec![0, 12, 25],
            failures: 15,
            queries_per_failure: 6,
            seed: 21,
            params: MsrpParams::default(),
        };
        let plain = run_simulation(&g, &config);
        let served = run_simulation_with_service(&g, &config, 2, 3);
        assert_eq!(served.mismatches, 0);
        assert_eq!(served.total_queries, plain.total_queries);
        assert_eq!(served.total_stretch, plain.total_stretch);
        assert_eq!(served.disconnected_queries, plain.disconnected_queries);
        for (a, b) in plain.events.iter().zip(&served.events) {
            assert_eq!(a.edge, b.edge, "same seed must inject the same failures");
            assert_eq!(a.answers, b.answers, "the service must be answer-preserving");
        }
        assert!(served.oracle_speedup() > 0.0);
    }

    #[test]
    fn oracle_speedup_is_the_recompute_to_query_ratio() {
        let report = SimulationReport {
            events: Vec::new(),
            total_queries: 0,
            mismatches: 0,
            disconnected_queries: 0,
            total_stretch: 0,
            oracle_build_time: Duration::ZERO,
            oracle_query_time: Duration::from_millis(2),
            recompute_time: Duration::from_millis(10),
        };
        assert!((report.oracle_speedup() - 5.0).abs() < 1e-9);
        let zero = SimulationReport { oracle_query_time: Duration::ZERO, ..report };
        assert_eq!(zero.oracle_speedup(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "gateway")]
    fn empty_gateways_panic() {
        let g = grid_graph(3, 3);
        let config = SimulationConfig { gateways: vec![], ..Default::default() };
        let _ = run_simulation(&g, &config);
    }
}
