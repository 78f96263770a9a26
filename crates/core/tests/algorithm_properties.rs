//! Property-based and randomized-stress tests of the core solvers, complementing the in-module
//! unit tests: invariants of the landmark hierarchy, structural properties of the output, and
//! agreement between both source→landmark strategies on random inputs.
//!
//! Each property is checked over a fixed number of cases generated from a pinned
//! `StdRng` seed, so a failure is reproducible from the case index alone (the suite used
//! to rely on `proptest`, whose default configuration reruns with fresh entropy).

use msrp_core::{solve_msrp, solve_ssrp, MsrpParams, SampledLevels, SourceToLandmarkStrategy};
use msrp_graph::{Graph, INFINITE_DISTANCE};
use msrp_rpath::{compare, single_source_brute_force};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 20;

fn connected_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(4usize..26);
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
    g
}

#[test]
fn landmark_hierarchy_invariants() {
    let mut rng = StdRng::seed_from_u64(0x1A4D);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..400);
        let sigma = rng.gen_range(1usize..16);
        let seed = rng.gen_range(0u64..1000);
        let params = MsrpParams::default();
        let forced = vec![0, n - 1];
        let levels = SampledLevels::sample_seeded(n, sigma, &params, seed, &forced);
        // Forced vertices are present, priorities point at real levels, and the union is sorted.
        assert!(levels.contains(0) && levels.contains(n - 1), "case {case}");
        for &v in levels.all() {
            let p = levels.priority(v).unwrap();
            assert!(p < levels.level_count(), "case {case}");
            assert!(levels.level(p).contains(&v), "case {case}");
        }
        let mut sorted = levels.all().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted.as_slice(), levels.all(), "case {case}");
        assert_eq!(levels.level_count(), params.max_level(n, sigma) + 1, "case {case}");
    }
}

#[test]
fn ssrp_output_shape_and_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0x5542);
    for case in 0..CASES {
        let g = connected_graph(&mut rng).freeze();
        let seed = rng.gen_range(0u64..50);
        let out = solve_ssrp(&g, 0, &MsrpParams::default().with_seed(seed));
        for t in 0..g.vertex_count() {
            let depth = out.tree.distance(t).unwrap_or(0) as usize;
            assert_eq!(
                out.distances.row(t).len(),
                if out.tree.is_reachable(t) { depth } else { 0 },
                "case {case}"
            );
            for &d in out.distances.row(t).iter() {
                // Replacement distances are at least the original distance and at least the
                // length forced by the failed edge's position.
                assert!(d >= depth as u32 || d == INFINITE_DISTANCE, "case {case}");
            }
        }
    }
}

#[test]
fn both_strategies_agree_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x57247);
    for case in 0..CASES {
        let g = connected_graph(&mut rng).freeze();
        let seed = rng.gen_range(0u64..50);
        let n = g.vertex_count();
        let sources = vec![0, n / 2];
        let sources: Vec<usize> = if sources[0] == sources[1] { vec![0] } else { sources };
        let pc = solve_msrp(&g, &sources, &MsrpParams::default().with_seed(seed));
        let ex = solve_msrp(
            &g,
            &sources,
            &MsrpParams::default().with_seed(seed).with_strategy(SourceToLandmarkStrategy::Exact),
        );
        for i in 0..sources.len() {
            assert_eq!(&pc.per_source[i], &ex.per_source[i], "case {case}");
        }
    }
}

#[test]
fn msrp_is_exact_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xE44C7);
    for case in 0..CASES {
        let g = connected_graph(&mut rng).freeze();
        let seed = rng.gen_range(0u64..50);
        let n = g.vertex_count();
        let mut sources = vec![0, n / 3, (2 * n) / 3];
        sources.sort_unstable();
        sources.dedup();
        let out = solve_msrp(&g, &sources, &MsrpParams::default().with_seed(seed));
        for (i, dist) in out.per_source.iter().enumerate() {
            let truth = single_source_brute_force(&g, &out.trees[i]);
            let report = compare(&truth, dist);
            assert!(report.is_exact(), "case {case}: {:?}", report.mismatches.first());
        }
    }
}
