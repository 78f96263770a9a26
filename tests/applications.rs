//! Integration tests for the application crates (oracle, BMM reduction, network simulation,
//! Vickrey pricing) driven through the umbrella crate's public API.

use msrp::bmm::{multiply_via_msrp, BoolMatrix, ReductionPlan};
use msrp::core::MsrpParams;
use msrp::graph::generators::{connected_gnm, cycle_graph, grid_graph};
use msrp::netsim::{run_simulation, vickrey_prices, SimulationConfig};
use msrp::oracle::ReplacementPathOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bmm_reduction_agrees_with_naive_product_over_densities() {
    let mut rng = StdRng::seed_from_u64(1);
    for &density in &[0.05, 0.2, 0.5, 0.9] {
        let a = BoolMatrix::random(12, density, &mut rng);
        let b = BoolMatrix::random(12, density, &mut rng);
        let expected = a.multiply_naive(&b);
        for sigma in [1usize, 3] {
            assert_eq!(
                multiply_via_msrp(&a, &b, sigma, &MsrpParams::default()),
                expected,
                "density {density}, sigma {sigma}"
            );
        }
    }
}

#[test]
fn reduction_plan_sizes_follow_the_theorem() {
    // Theorem 28 uses sqrt(n/σ) graphs, each with O(n) vertices.
    let plan = ReductionPlan::for_size(64, 4);
    assert_eq!(plan.rows_per_source, 4); // sqrt(64/4)
    assert_eq!(plan.batches, 4); // 64 / (4 * 4)
    let mut rng = StdRng::seed_from_u64(2);
    let a = BoolMatrix::random(64, 0.05, &mut rng);
    let b = BoolMatrix::random(64, 0.05, &mut rng);
    let gadget = msrp::bmm::GadgetGraph::build(&a, &b, 0, &plan);
    assert!(gadget.graph.vertex_count() < 6 * 64, "gadget graphs stay linear in n");
    assert_eq!(gadget.sources.len(), 4);
}

#[test]
fn simulation_answers_are_consistent_on_every_family() {
    let mut rng = StdRng::seed_from_u64(3);
    let graphs = vec![cycle_graph(30), grid_graph(6, 6), connected_gnm(36, 80, &mut rng).unwrap()];
    for g in graphs {
        let n = g.vertex_count();
        let config = SimulationConfig {
            gateways: vec![0, n / 2],
            failures: 15,
            queries_per_failure: 6,
            seed: 42,
            params: MsrpParams::default(),
        };
        let report = run_simulation(&g, &config);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.total_queries, 15 * 6);
    }
}

#[test]
fn vickrey_prices_are_consistent_with_oracle_distances() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = connected_gnm(30, 70, &mut rng).unwrap().freeze();
    let oracle = ReplacementPathOracle::build(&g, &[0], &MsrpParams::default());
    for t in 1..g.vertex_count() {
        let base = oracle.distance(0, t).unwrap();
        let prices = vickrey_prices(&oracle, 0, t).unwrap();
        assert_eq!(prices.len() as u32, base);
        for p in prices {
            match p.replacement {
                Some(rep) => {
                    assert!(rep >= base);
                    assert_eq!(p.payment, Some(rep - base + 1));
                }
                None => assert!(p.is_critical()),
            }
        }
    }
}

#[test]
fn oracle_entry_counts_scale_with_sources() {
    let g = grid_graph(5, 5).freeze();
    let one = ReplacementPathOracle::build(&g, &[0], &MsrpParams::default());
    let three = ReplacementPathOracle::build(&g, &[0, 12, 24], &MsrpParams::default());
    assert!(three.entry_count() > one.entry_count());
    assert_eq!(three.sources().len(), 3);
}
