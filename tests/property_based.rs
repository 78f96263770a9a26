//! Property-based tests over random graphs: the randomized solvers must agree with the
//! brute-force ground truth, and structural invariants of the output must hold.
//!
//! Each property is checked over a fixed number of cases generated from a pinned
//! `StdRng` seed, so a failure is reproducible from the case index alone (the suite used
//! to rely on `proptest`, whose default configuration reruns with fresh entropy).

use msrp::core::{solve_msrp, solve_ssrp, MsrpParams};
use msrp::graph::{CsrGraph, Graph, ShortestPathTree, INFINITE_DISTANCE};
use msrp::rpath::{compare, single_source_brute_force, single_source_via_single_pair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;

/// A connected graph with `n ∈ [4, 28)` vertices built from a random spanning tree plus
/// random extra edges, together with a vertex index usable as a source.
fn connected_graph(rng: &mut StdRng) -> (CsrGraph, usize) {
    let n = rng.gen_range(4usize..28);
    let mut g = Graph::new(n);
    for child in 1..n {
        let parent = rng.gen_range(0usize..1000) % child;
        let _ = g.add_edge_if_absent(parent, child);
    }
    for _ in 0..rng.gen_range(0..2 * n) {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            let _ = g.add_edge_if_absent(u, v);
        }
    }
    let source = rng.gen_range(0..n);
    (g.freeze(), source)
}

#[test]
fn ssrp_matches_brute_force_on_random_connected_graphs() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let (g, source) = connected_graph(&mut rng);
        let out = solve_ssrp(&g, source, &MsrpParams::default());
        let truth = single_source_brute_force(&g, &out.tree);
        let report = compare(&truth, &out.distances);
        assert!(report.is_exact(), "case {case}: mismatch: {:?}", report.mismatches.first());
    }
}

#[test]
fn classical_baseline_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    for case in 0..CASES {
        let (g, source) = connected_graph(&mut rng);
        let tree = ShortestPathTree::build(&g, source);
        let truth = single_source_brute_force(&g, &tree);
        let fast = single_source_via_single_pair(&g, &tree);
        assert!(compare(&truth, &fast).is_exact(), "case {case}");
    }
}

#[test]
fn msrp_matches_brute_force_with_three_sources() {
    let mut rng = StdRng::seed_from_u64(0x3507);
    for case in 0..CASES {
        let (g, source) = connected_graph(&mut rng);
        let n = g.vertex_count();
        let mut sources = vec![source, (source + n / 3) % n, (source + 2 * n / 3) % n];
        sources.sort_unstable();
        sources.dedup();
        let out = solve_msrp(&g, &sources, &MsrpParams::default());
        for (i, dist) in out.per_source.iter().enumerate() {
            let truth = single_source_brute_force(&g, &out.trees[i]);
            let report = compare(&truth, dist);
            assert!(
                report.is_exact(),
                "case {case}, source {}: {:?}",
                out.sources[i],
                report.mismatches.first()
            );
        }
    }
}

#[test]
fn replacement_distances_are_never_shorter_than_the_original() {
    let mut rng = StdRng::seed_from_u64(0x10_0A_D5);
    for case in 0..CASES {
        let (g, source) = connected_graph(&mut rng);
        let out = solve_ssrp(&g, source, &MsrpParams::default());
        for (t, _i, d) in out.distances.iter() {
            if let Some(base) = out.tree.distance(t) {
                assert!(
                    d == INFINITE_DISTANCE || d >= base,
                    "case {case}: replacement {d} shorter than base {base} for target {t}"
                );
            }
        }
    }
}

#[test]
fn scaled_constants_never_under_estimate() {
    let mut rng = StdRng::seed_from_u64(0x5CA1ED);
    for case in 0..CASES {
        let (g, source) = connected_graph(&mut rng);
        let params = MsrpParams::scaled_for_benchmarks();
        let out = solve_ssrp(&g, source, &params);
        let truth = single_source_brute_force(&g, &out.tree);
        let report = compare(&truth, &out.distances);
        assert_eq!(report.under_estimates, 0, "case {case}");
    }
}
