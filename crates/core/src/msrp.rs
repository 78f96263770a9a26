//! The multi-source solver (Theorem 1 / Theorem 26): replacement paths from every source in `S`
//! to every vertex, avoiding every edge on the corresponding canonical shortest path.

use std::time::Instant;

use msrp_graph::{CsrGraph, ShortestPathTree, Vertex};

use crate::multi_source::{build_path_cover_table, PathCoverInputs};
use crate::near_small::build_near_small;
use crate::output::MsrpOutput;
use crate::params::{MsrpParams, SourceToLandmarkStrategy};
use crate::preprocess::BfsIndex;
use crate::sampling::SampledLevels;
use crate::source_landmark::SourceLandmarkTable;
use crate::ssrp::complete_source;
use crate::stats::AlgorithmStats;

/// Solves the multiple-source replacement path problem for the given sources
/// (`Õ(m·sqrt(nσ) + σn²)` expected time with the paper's constants and the
/// [`SourceToLandmarkStrategy::PathCover`] strategy).
///
/// The output is exact with high probability over the landmark/center sampling; every reported
/// value is always the length of a real path avoiding the corresponding edge.
///
/// # Panics
///
/// Panics if `sources` is empty, contains duplicates, or contains an out-of-range vertex.
///
/// ```
/// use msrp_core::{solve_msrp, MsrpParams};
/// use msrp_graph::generators::cycle_graph;
///
/// let g = cycle_graph(10).freeze();
/// let out = solve_msrp(&g, &[0, 5], &MsrpParams::default());
/// assert_eq!(out.per_source[1].get(7, 0), Some(8));
/// ```
pub fn solve_msrp(g: &CsrGraph, sources: &[Vertex], params: &MsrpParams) -> MsrpOutput {
    let n = g.vertex_count();
    assert!(!sources.is_empty(), "at least one source is required");
    for &s in sources {
        assert!(s < n, "source {s} out of range (n = {n})");
    }
    let mut dedup = sources.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), sources.len(), "sources must be distinct");

    let sigma = sources.len();
    let mut stats = AlgorithmStats { sigma, ..Default::default() };

    let start = Instant::now();
    let trees: Vec<ShortestPathTree> =
        sources.iter().map(|&s| ShortestPathTree::build(g, s)).collect();
    stats.record_phase("source BFS trees", start.elapsed());

    let start = Instant::now();
    let landmarks = SampledLevels::sample_seeded(n, sigma, params, params.seed, sources);
    stats.record_phase("landmark sampling", start.elapsed());
    stats.landmark_count = landmarks.len();
    stats.landmark_level_sizes = landmarks.level_sizes();

    let start = Instant::now();
    let landmark_index = BfsIndex::build(g, landmarks.all());
    stats.record_phase("landmark BFS", start.elapsed());

    let start = Instant::now();
    let near_small: Vec<_> =
        trees.iter().map(|tree| build_near_small(g, tree, params, sigma)).collect();
    stats.record_phase("near-small auxiliary graphs", start.elapsed());
    stats.near_small_nodes = near_small.iter().map(|r| r.node_count()).sum();
    stats.near_small_edges = near_small.iter().map(|r| r.edge_count()).sum();

    let table = match params.strategy {
        SourceToLandmarkStrategy::Exact => {
            let start = Instant::now();
            let table = SourceLandmarkTable::exact(g, &trees, &landmark_index);
            stats.record_phase("source-landmark replacement paths (exact)", start.elapsed());
            table
        }
        SourceToLandmarkStrategy::PathCover => {
            let inputs = PathCoverInputs {
                g,
                params,
                sigma,
                sources,
                source_trees: &trees,
                landmarks: &landmarks,
                landmark_index: &landmark_index,
                near_small: &near_small,
            };
            build_path_cover_table(&inputs, &mut stats)
        }
    };
    stats.source_landmark_entries = table.entry_count();

    let start = Instant::now();
    let per_source: Vec<_> = trees
        .iter()
        .enumerate()
        .map(|(s_idx, tree)| {
            let view = table.view(s_idx, tree, &landmark_index);
            complete_source(
                g,
                tree,
                &landmarks,
                &landmark_index,
                &view,
                &near_small[s_idx],
                params,
                sigma,
            )
        })
        .collect();
    stats.record_phase("far/near completion", start.elapsed());
    stats.output_entries = per_source.iter().map(|d| d.entry_count()).sum();

    MsrpOutput { sources: sources.to_vec(), trees, per_source, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{exactness, verify_msrp};
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph, torus_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_exact(g: &CsrGraph, sources: &[Vertex], params: &MsrpParams) {
        let out = solve_msrp(g, sources, params);
        let reports = verify_msrp(g, &out);
        let (good, total) = exactness(&reports);
        assert_eq!(
            good,
            total,
            "first mismatch: {:?}",
            reports.iter().flat_map(|r| r.mismatches.first()).next()
        );
    }

    #[test]
    fn exact_on_structured_graphs_path_cover() {
        let params = MsrpParams::default();
        assert_exact(&cycle_graph(16).freeze(), &[0, 5, 11], &params);
        assert_exact(&grid_graph(4, 5).freeze(), &[0, 19], &params);
        assert_exact(&torus_graph(4, 4).freeze(), &[0, 7, 9], &params);
    }

    #[test]
    fn exact_on_random_graphs_path_cover() {
        let mut rng = StdRng::seed_from_u64(4242);
        for n in [20usize, 30] {
            let g = connected_gnm(n, 2 * n, &mut rng).unwrap().freeze();
            assert_exact(&g, &[0, n / 2, n - 1], &MsrpParams::default());
        }
    }

    #[test]
    fn exact_with_exact_strategy() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = connected_gnm(30, 70, &mut rng).unwrap().freeze();
        let params = MsrpParams::default().with_strategy(SourceToLandmarkStrategy::Exact);
        assert_exact(&g, &[1, 7, 20, 29], &params);
    }

    #[test]
    fn strategies_agree_on_the_answer() {
        let mut rng = StdRng::seed_from_u64(123);
        let g = connected_gnm(24, 60, &mut rng).unwrap().freeze();
        let sources = [2usize, 13, 21];
        let a = solve_msrp(&g, &sources, &MsrpParams::default());
        let b = solve_msrp(
            &g,
            &sources,
            &MsrpParams::default().with_strategy(SourceToLandmarkStrategy::Exact),
        );
        for s_idx in 0..sources.len() {
            assert_eq!(a.per_source[s_idx], b.per_source[s_idx]);
        }
    }

    #[test]
    fn single_source_msrp_matches_ssrp() {
        let g = grid_graph(4, 4).freeze();
        let msrp = solve_msrp(&g, &[5], &MsrpParams::default());
        let ssrp = crate::solve_ssrp(&g, 5, &MsrpParams::default());
        assert_eq!(msrp.per_source[0], ssrp.distances);
    }

    #[test]
    fn sigma_equal_n_works() {
        let g = cycle_graph(9).freeze();
        let sources: Vec<usize> = (0..9).collect();
        assert_exact(&g, &sources, &MsrpParams::default());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_sources_panic() {
        let g = cycle_graph(5).freeze();
        let _ = solve_msrp(&g, &[1, 1], &MsrpParams::default());
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panic() {
        let g = cycle_graph(5).freeze();
        let _ = solve_msrp(&g, &[], &MsrpParams::default());
    }

    #[test]
    fn never_under_estimates_with_scaled_constants() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = connected_gnm(40, 90, &mut rng).unwrap().freeze();
        let out = solve_msrp(&g, &[0, 10, 20, 30], &MsrpParams::scaled_for_benchmarks());
        let reports = verify_msrp(&g, &out);
        for r in &reports {
            assert_eq!(r.under_estimates, 0);
        }
    }
}
