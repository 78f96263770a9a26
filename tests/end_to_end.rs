//! Cross-crate integration tests: the full pipeline from graph generation through the paper's
//! solvers to the oracle and the applications, checked against the brute-force ground truth.

use msrp::core::verify::{exactness, verify_msrp, verify_ssrp};
use msrp::core::{solve_msrp, solve_ssrp, MsrpParams, SourceToLandmarkStrategy};
use msrp::graph::generators::{
    barabasi_albert, connected_gnm, cycle_graph, grid_graph, hypercube, random_geometric,
    torus_graph,
};
use msrp::graph::{Graph, ShortestPathTree, INFINITE_DISTANCE};
use msrp::oracle::ReplacementPathOracle;
use msrp::rpath::{compare, single_source_brute_force, single_source_via_single_pair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sources_for(n: usize, sigma: usize) -> Vec<usize> {
    (0..sigma).map(|i| i * n / sigma).collect()
}

#[test]
fn ssrp_is_exact_on_a_suite_of_graph_families() {
    let params = MsrpParams::default();
    let mut rng = StdRng::seed_from_u64(1);
    let graphs: Vec<(&str, Graph)> = vec![
        ("cycle", cycle_graph(21)),
        ("grid", grid_graph(5, 6)),
        ("torus", torus_graph(5, 5)),
        ("hypercube", hypercube(5)),
        ("gnm", connected_gnm(60, 150, &mut rng).unwrap()),
        ("preferential", barabasi_albert(60, 2, &mut rng).unwrap()),
        ("geometric", random_geometric(60, 0.25, true, &mut rng)),
    ];
    for (name, g) in graphs {
        let g = g.freeze();
        let out = solve_ssrp(&g, 0, &params);
        let report = verify_ssrp(&g, &out);
        assert!(report.is_exact(), "{name}: {:?}", report.mismatches.first());
    }
}

#[test]
fn msrp_is_exact_across_sigma_values() {
    let mut rng = StdRng::seed_from_u64(2);
    let g = connected_gnm(48, 120, &mut rng).unwrap().freeze();
    for sigma in [1usize, 2, 4, 8, 16, 48] {
        let sources = sources_for(48, sigma);
        let out = solve_msrp(&g, &sources, &MsrpParams::default());
        let reports = verify_msrp(&g, &out);
        let (good, total) = exactness(&reports);
        assert_eq!(good, total, "sigma = {sigma}");
        assert_eq!(out.source_count(), sigma);
    }
}

#[test]
fn all_algorithms_agree_with_each_other() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = connected_gnm(40, 100, &mut rng).unwrap().freeze();
    let tree = ShortestPathTree::build(&g, 7);
    let brute = single_source_brute_force(&g, &tree);
    let classical = single_source_via_single_pair(&g, &tree);
    let paper = solve_ssrp(&g, 7, &MsrpParams::default());
    let msrp = solve_msrp(&g, &[7, 21], &MsrpParams::default());
    assert!(compare(&brute, &classical).is_exact());
    assert!(compare(&brute, &paper.distances).is_exact());
    assert!(compare(&brute, &msrp.per_source[0]).is_exact());
}

#[test]
fn path_cover_and_exact_strategies_agree() {
    let mut rng = StdRng::seed_from_u64(4);
    for trial in 0..3u64 {
        let g = connected_gnm(32, 80, &mut rng).unwrap().freeze();
        let sources = sources_for(32, 4);
        let pc = solve_msrp(&g, &sources, &MsrpParams::default().with_seed(trial));
        let ex = solve_msrp(
            &g,
            &sources,
            &MsrpParams::default().with_seed(trial).with_strategy(SourceToLandmarkStrategy::Exact),
        );
        for i in 0..sources.len() {
            assert_eq!(pc.per_source[i], ex.per_source[i], "trial {trial}, source index {i}");
        }
    }
}

#[test]
fn oracle_round_trip_through_the_full_stack() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = connected_gnm(36, 90, &mut rng).unwrap();
    let sources = sources_for(36, 3);
    let oracle = ReplacementPathOracle::build(&g.freeze(), &sources, &MsrpParams::default());
    for &s in &sources {
        for t in 0..g.vertex_count() {
            for e in g.edges() {
                let expected = msrp::rpath::replacement_distance(&g, s, t, e);
                let e_on_path = oracle
                    .canonical_path(s, t)
                    .map(|p| p.windows(2).any(|w| msrp::graph::Edge::new(w[0], w[1]) == e))
                    .unwrap_or(false);
                let got = oracle.replacement_distance(s, t, e).unwrap();
                if e_on_path {
                    assert_eq!(got, expected, "s={s} t={t} e={e}");
                } else {
                    // Off-path failures return the fault-free distance by definition.
                    assert_eq!(got, oracle.distance(s, t).unwrap_or(INFINITE_DISTANCE));
                }
            }
        }
    }
}

#[test]
fn disconnected_graphs_are_handled_throughout() {
    // Two components: a cycle and a path; sources in both.
    let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
    edges.extend_from_slice(&[(4, 5), (5, 6)]);
    let g = Graph::from_edges(7, &edges).unwrap().freeze();
    let out = solve_msrp(&g, &[0, 4], &MsrpParams::default());
    let reports = verify_msrp(&g, &out);
    let (good, total) = exactness(&reports);
    assert_eq!(good, total);
    // Cross-component queries report infinity.
    assert_eq!(out.distance_avoiding(0, 5, msrp::graph::Edge::new(0, 1)), Some(INFINITE_DISTANCE));
}

#[test]
fn outputs_are_reproducible_across_runs() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = connected_gnm(50, 130, &mut rng).unwrap().freeze();
    let sources = sources_for(50, 5);
    let params = MsrpParams::default().with_seed(77);
    let a = solve_msrp(&g, &sources, &params);
    let b = solve_msrp(&g, &sources, &params);
    for i in 0..sources.len() {
        assert_eq!(a.per_source[i], b.per_source[i]);
    }
    assert_eq!(a.entry_count(), b.entry_count());
}
