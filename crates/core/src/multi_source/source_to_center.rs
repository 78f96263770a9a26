//! Section 8.1: replacement paths from every source to every center, for edges close to the
//! center on the canonical center→source path.
//!
//! For a fixed source `s`, the auxiliary graph has a node `[c]` per center, and a node `[c, e]`
//! per center `c` of priority `k` and each of the first `ℓ·2^k·sqrt(n/σ)·log n` edges `e` on the
//! canonical `c→s` path (counted from `c`). Edges:
//!
//! * `[s] → [c]` with weight `d(s, c)`;
//! * `[s] → [c, e]` with the Section 7.1 small-path weight `w[c, e]` when it exists;
//! * `[c'] → [c, e]` with weight `d(c', c)` when `e` lies neither on the canonical `s–c'` path
//!   nor on the canonical `c'–c` path;
//! * `[c', e] → [c, e]` with weight `d(c', c)` when `e` does not lie on the canonical `c'–c`
//!   path (same physical edge `e` on both sides).
//!
//! Dijkstra from `[s]` labels every `[c, e]` with a valid `e`-avoiding `s→c` walk length; by
//! Lemma 20 it equals `|sc ⋄ e|` for every edge in the window, with high probability.

use std::collections::HashMap;

use msrp_graph::{
    CsrGraph, Distance, Edge, ShortestPathTree, Vertex, WeightedDigraph, INFINITE_WEIGHT,
};

use crate::near_small::NearSmallResult;
use crate::params::MsrpParams;
use crate::preprocess::BfsIndex;
use crate::sampling::SampledLevels;

/// Replacement distances from one source to every center, keyed by
/// `(center vertex, deeper endpoint of the avoided edge in the source tree)`.
pub type SourceCenterMap = HashMap<(Vertex, Vertex), Distance>;

/// Builds the Section 8.1 auxiliary graph for one source and extracts `d(s, c, e)`.
#[allow(clippy::too_many_arguments)]
pub fn source_to_center_replacements(
    g: &CsrGraph,
    tree_s: &ShortestPathTree,
    centers: &SampledLevels,
    center_index: &BfsIndex,
    near_small: &NearSmallResult,
    params: &MsrpParams,
    sigma: usize,
) -> SourceCenterMap {
    let n = g.vertex_count();
    let s = tree_s.source();

    // Node 0 = [s].
    let mut aux = WeightedDigraph::new(1);
    // [c] nodes.
    let mut center_node: HashMap<Vertex, usize> = HashMap::new();
    for &c in centers.all() {
        if !tree_s.is_reachable(c) {
            continue;
        }
        let idx = aux.add_node();
        center_node.insert(c, idx);
        aux.add_edge(0, idx, tree_s.distance_or_infinite(c) as u64);
    }
    // [c, e] nodes: e identified by its deeper endpoint (child) in T_s.
    // pair_node[(c, child)] = aux index; nodes_by_child[child] lists (center, idx) pairs.
    let mut pair_node: HashMap<(Vertex, Vertex), usize> = HashMap::new();
    let mut nodes_by_child: HashMap<Vertex, Vec<(Vertex, usize)>> = HashMap::new();
    for &c in centers.all() {
        if c == s || !tree_s.is_reachable(c) {
            continue;
        }
        let priority = centers.priority(c).unwrap_or(0);
        let window = params.window_size(priority, n, sigma);
        let depth = tree_s.distance_or_infinite(c) as usize;
        let mut child = c;
        for _ in 0..window.min(depth) {
            let idx = aux.add_node();
            pair_node.insert((c, child), idx);
            nodes_by_child.entry(child).or_default().push((c, idx));
            // [s] -> [c, e] via the small near-edge path, when Section 7.1 found one.
            if let Some(w) = near_small.distance(c, child) {
                aux.add_edge(0, idx, w as u64);
            }
            child = match tree_s.parent(child) {
                Some(p) => p,
                None => break,
            };
        }
    }
    // Incoming edges from other centers.
    for (&(c, child), &idx) in &pair_node {
        let parent = tree_s.parent(child).expect("window edges are tree edges");
        let e = Edge::new(parent, child);
        for &c_prime in centers.all() {
            if c_prime == c || !tree_s.is_reachable(c_prime) {
                continue;
            }
            let cp_idx = center_index.index(c_prime).expect("center has a BFS tree");
            let cp_tree = center_index.tree(cp_idx);
            if cp_tree.path_contains_edge(c, e) {
                continue; // the canonical c'–c path must avoid e
            }
            let weight = cp_tree.distance_or_infinite(c) as u64;
            // [c'] -> [c, e] additionally requires the canonical s–c' path to avoid e.
            if !tree_s.is_ancestor(child, c_prime) {
                aux.add_edge(center_node[&c_prime], idx, weight);
            }
            // [c', e] -> [c, e] when the same physical edge is within c''s window.
            if let Some(&cp_pair) = pair_node.get(&(c_prime, child)) {
                aux.add_edge(cp_pair, idx, weight);
            }
        }
    }

    let result = aux.dijkstra(0);
    let mut out = HashMap::with_capacity(pair_node.len());
    for (&key, &idx) in &pair_node {
        let d = result.dist[idx];
        if d != INFINITE_WEIGHT {
            out.insert(key, d.min(Distance::MAX as u64 - 1) as Distance);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::near_small::build_near_small;
    use msrp_graph::generators::{connected_gnm, cycle_graph};
    use msrp_graph::Graph;
    use msrp_rpath::replacement_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(
        g: &Graph,
        s: Vertex,
        params: &MsrpParams,
        sigma: usize,
    ) -> (ShortestPathTree, SourceCenterMap) {
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, s);
        let centers =
            SampledLevels::sample_seeded(g.vertex_count(), sigma, params, params.seed ^ 1, &[s]);
        let center_index = BfsIndex::build(&csr, centers.all());
        let near_small = build_near_small(&csr, &tree, params, sigma);
        let map = source_to_center_replacements(
            &csr,
            &tree,
            &centers,
            &center_index,
            &near_small,
            params,
            sigma,
        );
        (tree, map)
    }

    #[test]
    fn window_entries_match_brute_force_on_small_graphs() {
        // With paper constants on small graphs every vertex is a center and the window covers
        // every edge, so the map must be exactly the replacement distances to all vertices.
        let mut rng = StdRng::seed_from_u64(3);
        for n in [16usize, 24] {
            let g = connected_gnm(n, 2 * n, &mut rng).unwrap();
            let (tree, map) = run(&g, 0, &MsrpParams::default(), 1);
            assert!(!map.is_empty());
            for (&(c, child), &d) in &map {
                let parent = tree.parent(child).unwrap();
                let truth = replacement_distance(&g, 0, c, Edge::new(parent, child));
                assert_eq!(d, truth, "center {c}, child {child}");
            }
        }
    }

    #[test]
    fn entries_never_under_estimate_with_sparse_centers() {
        let g = cycle_graph(40);
        let params = MsrpParams { sampling_constant: 0.4, log_scale: 0.3, ..MsrpParams::default() };
        let (tree, map) = run(&g, 0, &params, 2);
        for (&(c, child), &d) in &map {
            let parent = tree.parent(child).unwrap();
            let truth = replacement_distance(&g, 0, c, Edge::new(parent, child));
            assert!(d >= truth, "({c}, {child}): {d} < {truth}");
        }
    }

    #[test]
    fn unreachable_centers_are_skipped() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (_, map) = run(&g, 0, &MsrpParams::default(), 1);
        assert!(map.keys().all(|&(c, _)| c <= 2));
    }
}
