//! Integration test of the serving stack through the umbrella crate: sharded parallel
//! construction → `QueryService` → the netsim failure scenario, all cross-checked against the
//! single-threaded solver output.

use msrp::core::MsrpParams;
use msrp::graph::generators::connected_gnm;
use msrp::netsim::{run_simulation, run_simulation_with_service, SimulationConfig};
use msrp::oracle::{build_shards, ReplacementPathOracle};
use msrp::serve::{run_closed_loop, LoadConfig, QueryService, ServiceConfig, ShardedOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn the_full_serving_stack_is_answer_preserving() {
    let mut rng = StdRng::seed_from_u64(12);
    let g = connected_gnm(48, 110, &mut rng).unwrap();
    let sources = [0usize, 11, 23, 35, 47];
    let csr = g.freeze();
    let params = MsrpParams::default();

    // Parallel construction must agree with sequential construction through the re-exports.
    let sequential = ReplacementPathOracle::build(&csr, &sources, &params);
    let parallel = ReplacementPathOracle::from_shards(build_shards(&csr, &sources, &params, 3));
    for &s in &sources {
        for t in 0..g.vertex_count() {
            for e in g.edges() {
                assert_eq!(
                    parallel.replacement_distance(s, t, e),
                    sequential.replacement_distance(s, t, e)
                );
            }
        }
    }

    // A service-driven load answers the same numbers as the in-process oracle (checksummed
    // by the deterministic closed-loop generator) and keeps its books consistent.
    let oracle = ShardedOracle::build(&csr, &sources, &params, 2);
    let service = QueryService::start(oracle, &ServiceConfig { workers: 3 });
    let load = LoadConfig { clients: 2, batches_per_client: 8, batch_size: 32, seed: 5 };
    let report_a = run_closed_loop(&service, &g, &load);
    let metrics = service.shutdown();
    assert_eq!(metrics.queries_total, report_a.total_queries);
    assert_eq!(metrics.unroutable_total, 0);

    let oracle = ShardedOracle::build(&csr, &sources, &params, 1);
    let service_again = QueryService::start(oracle, &ServiceConfig { workers: 1 });
    let report_b = run_closed_loop(&service_again, &g, &load);
    service_again.shutdown();
    assert_eq!(report_a.checksum, report_b.checksum);

    // The netsim failure scenario routed through the service matches the plain simulation.
    let config = SimulationConfig {
        gateways: sources.to_vec(),
        failures: 12,
        queries_per_failure: 8,
        seed: 31,
        params,
    };
    let plain = run_simulation(&g, &config);
    let served = run_simulation_with_service(&g, &config, 2, 2);
    assert_eq!(served.mismatches, 0);
    assert_eq!(plain.total_stretch, served.total_stretch);
    for (a, b) in plain.events.iter().zip(&served.events) {
        assert_eq!(a.answers, b.answers);
    }
}
