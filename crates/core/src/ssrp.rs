//! The single-source solver (Theorem 14) and the per-source completion phase shared with the
//! multi-source solver.
//!
//! Pipeline for one source `s` (Sections 5–7 of the paper):
//!
//! 1. build the canonical BFS tree `T_s`;
//! 2. sample the landmark hierarchy `L_0 ⊇ L_1 ⊇ …` and run BFS from every landmark;
//! 3. compute the replacement paths from `s` to every landmark (classical routine for `σ = 1`);
//! 4. build the Section 7.1 auxiliary graph and run Dijkstra (small near-edge paths);
//! 5. for every target, relax far edges with Algorithm 3 and near edges with Algorithm 4.

use std::time::Instant;

use msrp_graph::{CsrGraph, ShortestPathTree, Vertex};
use msrp_rpath::SourceReplacementDistances;

use crate::far::relax_far_edges;
use crate::near_large::relax_near_large;
use crate::near_small::{build_near_small, NearSmallResult};
use crate::output::SsrpOutput;
use crate::params::MsrpParams;
use crate::preprocess::BfsIndex;
use crate::sampling::SampledLevels;
use crate::source_landmark::{SourceLandmarkTable, SourceLandmarkView};
use crate::stats::AlgorithmStats;

/// Completes the answer for one source given the preprocessed structures: applies the
/// Section 7.1 candidates, copies the source→landmark table for landmark targets, and runs
/// Algorithms 3 and 4 for every target.
#[allow(clippy::too_many_arguments)]
pub(crate) fn complete_source(
    g: &CsrGraph,
    tree_s: &ShortestPathTree,
    landmarks: &SampledLevels,
    landmark_index: &BfsIndex,
    view: &SourceLandmarkView<'_>,
    near_small: &NearSmallResult,
    params: &MsrpParams,
    sigma: usize,
) -> SourceReplacementDistances {
    let mut out = SourceReplacementDistances::new(tree_s);

    // Small near-edge replacement paths (Section 7.1).
    near_small.apply_to(tree_s, &mut out);

    // The table itself *is* the answer for landmark targets; seed those rows.
    for (r_idx, &r) in landmark_index.vertices().iter().enumerate() {
        if r == tree_s.source() || !tree_s.is_reachable(r) {
            continue;
        }
        for (pos, e) in tree_s.path_edges(r).iter().enumerate() {
            out.relax(r, pos, view.replacement(r_idx, *e));
        }
    }

    // Far edges (Algorithm 3) and near edges with large replacement paths (Algorithm 4).
    for t in 0..g.vertex_count() {
        if t == tree_s.source() || !tree_s.is_reachable(t) {
            continue;
        }
        relax_far_edges(g, tree_s, t, landmarks, landmark_index, view, params, sigma, &mut out);
        relax_near_large(g, tree_s, t, landmarks, landmark_index, view, params, sigma, &mut out);
    }
    out
}

/// Solves the single-source replacement path problem for `source` (Theorem 14,
/// `Õ(m√n + n²)` expected time with the paper's constants).
///
/// The output is exact with high probability over the landmark sampling; every reported value is
/// always the length of a real path avoiding the corresponding edge (never an under-estimate).
///
/// # Panics
///
/// Panics if `source` is out of range for `g`.
///
/// ```
/// use msrp_core::{solve_ssrp, MsrpParams};
/// use msrp_graph::generators::cycle_graph;
///
/// let g = cycle_graph(10).freeze();
/// let out = solve_ssrp(&g, 0, &MsrpParams::default());
/// // Avoiding the first edge of the path 0-1-2 forces the long way round (length 8).
/// assert_eq!(out.distances.get(2, 0), Some(8));
/// ```
pub fn solve_ssrp(g: &CsrGraph, source: Vertex, params: &MsrpParams) -> SsrpOutput {
    assert!(source < g.vertex_count(), "source {source} out of range");
    let n = g.vertex_count();
    let sigma = 1;
    let mut stats = AlgorithmStats { sigma, ..Default::default() };

    let start = Instant::now();
    let tree = ShortestPathTree::build(g, source);
    stats.record_phase("source BFS tree", start.elapsed());

    let start = Instant::now();
    let landmarks = SampledLevels::sample_seeded(n, sigma, params, params.seed, &[source]);
    stats.record_phase("landmark sampling", start.elapsed());
    stats.landmark_count = landmarks.len();
    stats.landmark_level_sizes = landmarks.level_sizes();

    let start = Instant::now();
    let landmark_index = BfsIndex::build(g, landmarks.all());
    stats.record_phase("landmark BFS", start.elapsed());

    let start = Instant::now();
    let table = SourceLandmarkTable::exact(g, std::slice::from_ref(&tree), &landmark_index);
    stats.record_phase("source-landmark replacement paths", start.elapsed());
    stats.source_landmark_entries = table.entry_count();

    let start = Instant::now();
    let near_small = build_near_small(g, &tree, params, sigma);
    stats.record_phase("near-small auxiliary graph", start.elapsed());
    stats.near_small_nodes = near_small.node_count();
    stats.near_small_edges = near_small.edge_count();

    let start = Instant::now();
    let view = table.view(0, &tree, &landmark_index);
    let distances =
        complete_source(g, &tree, &landmarks, &landmark_index, &view, &near_small, params, sigma);
    stats.record_phase("far/near completion", start.elapsed());
    stats.output_entries = distances.entry_count();

    SsrpOutput { source, tree, distances, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{
        barabasi_albert, connected_gnm, cycle_graph, grid_graph, hypercube, path_graph, torus_graph,
    };
    use msrp_rpath::{compare, single_source_brute_force};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_exact(g: &CsrGraph, source: Vertex, params: &MsrpParams) {
        let out = solve_ssrp(g, source, params);
        let truth = single_source_brute_force(g, &out.tree);
        let report = compare(&truth, &out.distances);
        assert!(
            report.is_exact(),
            "source {source}: {} mismatches, first: {:?}",
            report.mismatches.len(),
            report.mismatches.first()
        );
    }

    #[test]
    fn exact_on_structured_graphs_with_paper_constants() {
        let params = MsrpParams::default();
        assert_exact(&cycle_graph(15).freeze(), 0, &params);
        assert_exact(&grid_graph(4, 5).freeze(), 3, &params);
        assert_exact(&torus_graph(4, 4).freeze(), 0, &params);
        assert_exact(&hypercube(4).freeze(), 5, &params);
        assert_exact(&path_graph(9).freeze(), 2, &params);
    }

    #[test]
    fn exact_on_random_graphs_with_paper_constants() {
        let mut rng = StdRng::seed_from_u64(1234);
        for n in [20usize, 35, 50] {
            let g = connected_gnm(n, 2 * n, &mut rng).unwrap().freeze();
            assert_exact(&g, 0, &MsrpParams::default());
            assert_exact(&g, n / 2, &MsrpParams::default().with_seed(n as u64));
        }
    }

    #[test]
    fn exact_on_preferential_attachment() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = barabasi_albert(60, 2, &mut rng).unwrap().freeze();
        assert_exact(&g, 0, &MsrpParams::default());
    }

    #[test]
    fn never_under_estimates_even_with_tiny_samples() {
        // With an absurdly small sampling constant the answer may be an over-estimate, but it
        // must remain a valid path length (>= the true replacement distance).
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnm(40, 80, &mut rng).unwrap().freeze();
        let params = MsrpParams {
            sampling_constant: 0.05,
            log_scale: 0.1,
            near_constant: 0.5,
            ..MsrpParams::default()
        };
        let out = solve_ssrp(&g, 0, &params);
        let truth = single_source_brute_force(&g, &out.tree);
        let report = compare(&truth, &out.distances);
        assert_eq!(report.under_estimates, 0, "{:?}", report.mismatches.first());
    }

    #[test]
    fn stats_are_populated() {
        let g = grid_graph(5, 5).freeze();
        let out = solve_ssrp(&g, 0, &MsrpParams::default());
        assert_eq!(out.stats.sigma, 1);
        assert!(out.stats.landmark_count > 0);
        assert!(out.stats.output_entries > 0);
        assert!(out.stats.phases.len() >= 5);
        assert!(out.stats.total_time().as_nanos() > 0);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = grid_graph(4, 6).freeze();
        let a = solve_ssrp(&g, 1, &MsrpParams::default());
        let b = solve_ssrp(&g, 1, &MsrpParams::default());
        assert_eq!(a.distances, b.distances);
    }
}
