//! Network resilience study: the MPLS-restoration scenario that motivates replacement paths.
//!
//! A metro network carries traffic from a handful of ingress gateways to every node. Links fail
//! one at a time; the operator wants to know, *before* any failure happens, how much longer
//! every route becomes under every possible single failure — exactly the multi-source
//! replacement path problem. This example builds the fault-tolerant oracle, injects failures,
//! and reports recovery statistics per graph family.
//!
//! Run with: `cargo run --release --example network_resilience`

use msrp::core::MsrpParams;
use msrp::graph::generators::{barabasi_albert, connected_gnm, grid_graph};
use msrp::graph::Graph;
use msrp::netsim::{run_simulation, SimulationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let scenarios: Vec<(&str, Graph)> = vec![
        ("metro grid 12x12", grid_graph(12, 12)),
        ("sparse ISP mesh", connected_gnm(144, 360, &mut rng).expect("valid parameters")),
        ("scale-free backbone", barabasi_albert(144, 3, &mut rng).expect("valid parameters")),
    ];

    println!(
        "{:<22} {:>8} {:>10} {:>12} {:>12} {:>14}",
        "scenario", "queries", "mismatch", "disconnected", "avg stretch", "query speedup"
    );
    for (name, graph) in scenarios {
        let n = graph.vertex_count();
        let config = SimulationConfig {
            gateways: vec![0, n / 3, 2 * n / 3, n - 1],
            failures: 150,
            queries_per_failure: 25,
            seed: 4,
            params: MsrpParams::scaled_for_benchmarks(),
        };
        let report = run_simulation(&graph, &config);
        println!(
            "{:<22} {:>8} {:>10} {:>12} {:>12.2} {:>13.1}x",
            name,
            report.total_queries,
            report.mismatches,
            report.disconnected_queries,
            report.average_stretch(),
            report.oracle_speedup(),
        );
        assert_eq!(report.mismatches, 0, "oracle answers must match recomputation");
    }

    println!(
        "\nEvery oracle answer was cross-checked against a from-scratch BFS under the failure; \
         the speedup column is the wall-clock ratio between the two ways of answering the same \
         queries (higher is better for the precomputed oracle)."
    );
}
