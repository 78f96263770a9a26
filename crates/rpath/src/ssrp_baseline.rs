//! The "inefficient algorithm" of Section 3: run the classical single-pair routine for every
//! target, giving `Õ(mn)` total time.
//!
//! This is the strongest *simple* baseline for the single-source problem and the one the paper's
//! `Õ(m√n + n²)` algorithm is designed to beat; experiment E1 plots both.

use msrp_graph::{BfsScratch, CsrGraph, ShortestPathTree};

use crate::distances::SourceReplacementDistances;
use crate::single_pair::single_pair_replacement_paths;

/// Computes all single-source replacement paths by invoking the classical `Õ(m + n)` single-pair
/// routine once per target (`Õ(mn)` total). The per-target BFS runs through one shared
/// [`BfsScratch`], so the loop performs no per-target allocation.
pub fn single_source_via_single_pair(
    g: &CsrGraph,
    tree: &ShortestPathTree,
) -> SourceReplacementDistances {
    let mut scratch = BfsScratch::new();
    let mut out = SourceReplacementDistances::new(tree);
    for t in 0..g.vertex_count() {
        if t == tree.source() || !tree.is_reachable(t) {
            continue;
        }
        scratch.run(g, t);
        let row = single_pair_replacement_paths(g, tree, t, scratch.dist());
        for (i, &d) in row.iter().enumerate() {
            out.set(t, i, d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::single_source_brute_force;
    use crate::compare::compare;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph, torus_graph};
    use msrp_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_matches_truth(g: &Graph, s: usize) {
        let g = &g.freeze();
        let tree = ShortestPathTree::build(g, s);
        let truth = single_source_brute_force(g, &tree);
        let fast = single_source_via_single_pair(g, &tree);
        let report = compare(&truth, &fast);
        assert!(
            report.is_exact(),
            "mismatches: {:?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
    }

    #[test]
    fn matches_truth_on_structured_graphs() {
        assert_matches_truth(&cycle_graph(11), 0);
        assert_matches_truth(&grid_graph(4, 5), 2);
        assert_matches_truth(&torus_graph(4, 4), 5);
    }

    #[test]
    fn matches_truth_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [15usize, 25, 40] {
            let g = connected_gnm(n, 2 * n, &mut rng).unwrap();
            assert_matches_truth(&g, 0);
            assert_matches_truth(&g, n / 2);
        }
    }

    #[test]
    fn disconnected_components_are_skipped() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]).unwrap().freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let out = single_source_via_single_pair(&g, &tree);
        assert!(out.row(3).is_empty());
        assert!(out.row(5).is_empty());
        assert_eq!(out.get(2, 0), Some(2));
    }
}
