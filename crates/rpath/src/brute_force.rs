//! Exhaustive ground truth: remove the edge, rerun BFS.
//!
//! These routines are quadratic-or-worse and exist for two reasons: (1) every other algorithm in
//! the workspace is validated against them (unit tests, property tests, experiment E3), and
//! (2) they are the "recompute from scratch" baseline the benchmarks compare against.

use msrp_graph::{
    bfs_avoiding_edge, BfsScratch, CsrGraph, Distance, Edge, Graph, MultiBfsScratch,
    ShortestPathTree, Vertex, WAVE_LANES,
};

use crate::distances::SourceReplacementDistances;

/// The replacement distance `|st ⋄ e|` computed by a single BFS in `G \ {e}`.
///
/// `e` does not have to lie on the shortest `s–t` path (in that case the result simply equals
/// `d_{G\e}(s, t)`, which may or may not equal `d(s, t)`).
///
/// ```
/// use msrp_graph::{generators::cycle_graph, Edge};
/// use msrp_rpath::replacement_distance;
///
/// let g = cycle_graph(6);
/// assert_eq!(replacement_distance(&g, 0, 2, Edge::new(1, 2)), 4);
/// ```
pub fn replacement_distance(g: &Graph, s: Vertex, t: Vertex, e: Edge) -> Distance {
    bfs_avoiding_edge(g, s, e).dist[t]
}

/// Ground-truth single-source replacement paths: for every target `t` and every edge `e_i` on
/// the canonical `s–t` path, the exact value of `|st ⋄ e_i|`.
///
/// Runs one BFS per tree edge of `tree` (so `O(n·(m + n))` time), then distributes the result to
/// every target whose canonical path uses that edge. Allocates one private scratch.
///
/// # Panics
///
/// Panics if `tree` is not rooted at a vertex of `g`.
pub fn single_source_brute_force(
    g: &CsrGraph,
    tree: &ShortestPathTree,
) -> SourceReplacementDistances {
    let mut scratch = BfsScratch::new();
    single_source_brute_force_with_scratch(g, tree, &mut scratch)
}

/// The brute-force inner loop: one edge-avoiding BFS per tree edge, all through the caller's
/// [`BfsScratch`] so the `O(n)` searches share one set of buffers (this is what
/// `msrp-oracle::build_exact` runs per source).
///
/// # Panics
///
/// Panics if `tree` is not rooted at a vertex of `g`.
pub fn single_source_brute_force_with_scratch(
    g: &CsrGraph,
    tree: &ShortestPathTree,
    scratch: &mut BfsScratch,
) -> SourceReplacementDistances {
    let n = g.vertex_count();
    let s = tree.source();
    assert!(s < n, "tree root out of range for the graph");
    let mut out = SourceReplacementDistances::new(tree);
    // Every edge on some canonical path is a tree edge (p, c); its position on the path to any
    // affected target is depth(c) - 1, and the affected targets are exactly the descendants of c.
    for c in 0..n {
        let p = match tree.parent(c) {
            Some(p) => p,
            None => continue,
        };
        let e = Edge::new(p, c);
        let pos = tree.distance_or_infinite(c) as usize - 1;
        scratch.run_avoiding(g, s, e);
        for (t, &d) in scratch.dist().iter().enumerate() {
            if tree.is_reachable(t) && tree.is_ancestor(c, t) {
                out.set(t, pos, d);
            }
        }
    }
    out
}

/// Bit-parallel variant of [`single_source_brute_force_with_scratch`]: the tree edges are
/// batched into waves of up to [`WAVE_LANES`] and each wave runs all of its edge-avoiding
/// searches simultaneously through one [`MultiBfsScratch`].
///
/// The brute-force tables consume only distances, and the avoiding wave's distance planes are
/// bit-identical to the sequential kernel's `dist` array (pinned by the kernel differential
/// suite), so this produces *exactly* the same [`SourceReplacementDistances`] — it is the
/// memory-bandwidth-friendly route `msrp-oracle::build_exact` takes per source.
///
/// # Panics
///
/// Panics if `tree` is not rooted at a vertex of `g`.
pub fn single_source_brute_force_wave(
    g: &CsrGraph,
    tree: &ShortestPathTree,
    wave: &mut MultiBfsScratch,
) -> SourceReplacementDistances {
    let n = g.vertex_count();
    let s = tree.source();
    assert!(s < n, "tree root out of range for the graph");
    let mut out = SourceReplacementDistances::new(tree);
    // Same edge enumeration as the sequential loop: child vertices in ascending order.
    let children: Vec<Vertex> = (0..n).filter(|&c| tree.parent(c).is_some()).collect();
    let mut edges = Vec::with_capacity(WAVE_LANES);
    for batch in children.chunks(WAVE_LANES) {
        edges.clear();
        edges.extend(batch.iter().map(|&c| Edge::new(tree.parent(c).unwrap(), c)));
        wave.run_avoiding_wave(g, s, &edges);
        for (lane, &c) in batch.iter().enumerate() {
            let pos = tree.distance_or_infinite(c) as usize - 1;
            for t in 0..n {
                if tree.is_reachable(t) && tree.is_ancestor(c, t) {
                    out.set(t, pos, wave.lane_dist(lane, t));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph, path_graph};
    use msrp_graph::INFINITE_DISTANCE;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_replacements_go_the_long_way() {
        let g = cycle_graph(8).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let out = single_source_brute_force(&g, &tree);
        // Path 0-1-2-3: avoiding any edge on it forces the complementary arc of length 8 - d.
        assert_eq!(out.get(3, 0), Some(5));
        assert_eq!(out.get(3, 1), Some(5));
        assert_eq!(out.get(3, 2), Some(5));
        assert_eq!(out.get(1, 0), Some(7));
    }

    #[test]
    fn bridges_have_no_replacement() {
        let g = path_graph(5).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let out = single_source_brute_force(&g, &tree);
        for t in 1..5 {
            for i in 0..out.row(t).len() {
                assert_eq!(out.get(t, i), Some(INFINITE_DISTANCE));
            }
        }
    }

    #[test]
    fn grid_replacements_detour_by_two() {
        let g = grid_graph(3, 3).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let out = single_source_brute_force(&g, &tree);
        // Distances in a grid detour around a single missing edge with +2 at most
        // (and exactly +2 for the first edge of a straight-line path).
        let d03 = tree.distance(3).unwrap();
        let r = out.get(3, 0).unwrap();
        assert_eq!(r, d03 + 2);
    }

    #[test]
    fn matches_per_query_brute_force() {
        let g = grid_graph(3, 4);
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let out = single_source_brute_force(&csr, &tree);
        for t in 0..g.vertex_count() {
            let edges = tree.path_edges(t);
            for (i, e) in edges.iter().enumerate() {
                assert_eq!(out.get(t, i), Some(replacement_distance(&g, 0, t, *e)));
            }
        }
    }

    #[test]
    fn replacement_distance_for_off_path_edges() {
        let g = cycle_graph(6);
        // Removing (3, 4) does not affect the path from 0 to 2.
        assert_eq!(replacement_distance(&g, 0, 2, Edge::new(3, 4)), 2);
    }

    #[test]
    fn disconnected_graph_rows_are_empty() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap().freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let out = single_source_brute_force(&g, &tree);
        assert!(out.row(3).is_empty());
        assert!(out.row(4).is_empty());
        assert_eq!(out.get(2, 0), Some(INFINITE_DISTANCE));
    }

    #[test]
    fn wave_route_is_bit_identical_to_the_sequential_route() {
        // n = 130 reachable children > 2 * WAVE_LANES, so chunking runs at least three waves
        // and the last one is partial.
        let mut rng = StdRng::seed_from_u64(9);
        let g = connected_gnm(130, 4 * 130, &mut rng).unwrap();
        let csr = g.freeze();
        let mut scratch = BfsScratch::new();
        let mut wave = MultiBfsScratch::new();
        for s in [0usize, 64, 129] {
            let tree = ShortestPathTree::build_with_scratch(&csr, s, &mut scratch);
            let sequential = single_source_brute_force_with_scratch(&csr, &tree, &mut scratch);
            let waved = single_source_brute_force_wave(&csr, &tree, &mut wave);
            assert_eq!(waved, sequential, "source {s}");
        }
    }

    #[test]
    fn wave_route_handles_bridges_and_disconnection() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]).unwrap();
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let mut wave = MultiBfsScratch::new();
        let waved = single_source_brute_force_wave(&csr, &tree, &mut wave);
        assert_eq!(waved, single_source_brute_force(&csr, &tree));
        assert_eq!(waved.get(3, 1), Some(INFINITE_DISTANCE));
        assert!(waved.row(5).is_empty());
    }
}
