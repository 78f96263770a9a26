//! Section 7.1: *small* replacement paths avoiding a *near* edge, via an auxiliary graph.
//!
//! For a fixed source `s`, the auxiliary graph `G_s` has a node `[v]` for every vertex, a node
//! `[t, e]` for every target `t` and every near edge `e` on the canonical `s–t` path, and the
//! following edges:
//!
//! * `[s] → [v]` with weight `d(s, v)`;
//! * `[v] → [t, e]` with weight 1 when `v` is a neighbour of `t`, `e` does not lie on the
//!   canonical `s–v` path, **and `(v, t)` is not the avoided edge `e` itself** (the extra guard
//!   documented in `DESIGN.md`);
//! * `[v, e] → [t, e]` with weight 1 when `v` is a neighbour of `t` and the node `[v, e]` exists.
//!
//! A Dijkstra run from `[s]` then labels every `[t, e]` with a length `w[t, e]` that is always
//! the length of a real `e`-avoiding `s–t` walk (so it can be used as a candidate everywhere)
//! and is exactly `|st ⋄ e|` whenever the replacement path is *small*
//! (`|st ⋄ e| ≤ |se| + 2·sqrt(n/σ)·log n`, Lemma 10).
//!
//! The Dijkstra predecessors are kept so that Section 8.2.1 can enumerate the actual paths.

use std::collections::HashMap;

use msrp_graph::{
    CsrGraph, DijkstraResult, Distance, ShortestPathTree, Vertex, WeightedDigraph, INFINITE_WEIGHT,
};
use msrp_rpath::SourceReplacementDistances;

use crate::params::MsrpParams;

/// The role of a node of the auxiliary graph `G_s`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum AuxNode {
    /// The source node `[s]`.
    Source,
    /// A plain vertex node `[v]`.
    Plain(Vertex),
    /// A pair node `[t, e]`, where the near edge `e` is identified by its deeper endpoint
    /// (child) in the source's BFS tree.
    Pair { target: Vertex, edge_child: Vertex },
}

/// The result of the Section 7.1 computation for one source.
#[derive(Clone, Debug)]
pub struct NearSmallResult {
    source: Vertex,
    /// `(target, edge_child)` → auxiliary-path length `w[t, e]`.
    dist: HashMap<(Vertex, Vertex), Distance>,
    /// `(target, edge_child)` → auxiliary node index (for path reconstruction).
    node_of_pair: HashMap<(Vertex, Vertex), usize>,
    nodes: Vec<AuxNode>,
    dijkstra: DijkstraResult,
    node_count: usize,
    edge_count: usize,
}

/// Builds the auxiliary graph for one source and runs Dijkstra on it.
pub fn build_near_small(
    g: &CsrGraph,
    tree_s: &ShortestPathTree,
    params: &MsrpParams,
    sigma: usize,
) -> NearSmallResult {
    let n = g.vertex_count();
    let s = tree_s.source();
    let near = params.near_threshold(n, sigma);

    let mut nodes: Vec<AuxNode> = Vec::with_capacity(2 * n);
    let mut aux = WeightedDigraph::new(0);
    // Node 0: [s].
    nodes.push(AuxNode::Source);
    aux.add_node();
    // Plain nodes [v] for every reachable vertex.
    let mut plain_node: Vec<Option<usize>> = vec![None; n];
    for (v, node) in plain_node.iter_mut().enumerate() {
        if tree_s.is_reachable(v) {
            let idx = aux.add_node();
            nodes.push(AuxNode::Plain(v));
            *node = Some(idx);
            aux.add_edge(0, idx, tree_s.distance_or_infinite(v) as u64);
        }
    }
    // Pair nodes [t, e] for every target and every near edge on its canonical path.
    let mut node_of_pair: HashMap<(Vertex, Vertex), usize> = HashMap::new();
    for t in 0..n {
        if t == s || !tree_s.is_reachable(t) {
            continue;
        }
        let depth = tree_s.distance_or_infinite(t) as usize;
        // Walk up from t; the child vertex at position i is encountered first (i = depth-1).
        let mut child = t;
        for i in (0..depth).rev() {
            let dist_to_target = (depth - 1 - i) as f64;
            if dist_to_target >= near {
                break;
            }
            let idx = aux.add_node();
            nodes.push(AuxNode::Pair { target: t, edge_child: child });
            node_of_pair.insert((t, child), idx);
            child = match tree_s.parent(child) {
                Some(p) => p,
                None => break,
            };
        }
    }
    // Edges into pair nodes.
    for (&(t, edge_child), &pair_idx) in &node_of_pair {
        let edge_parent = tree_s.parent(edge_child).expect("near edge child has a parent");
        for v in g.neighbors(t) {
            if !tree_s.is_reachable(v) {
                continue;
            }
            // [v] -> [t, e]: the canonical s–v path must avoid e, and (v, t) must not be e.
            let crossing_is_e = edge_child == t && v == edge_parent;
            if !crossing_is_e && !tree_s.is_ancestor(edge_child, v) {
                aux.add_edge(plain_node[v].expect("reachable"), pair_idx, 1);
            }
            // [v, e] -> [t, e].
            if let Some(&v_pair) = node_of_pair.get(&(v, edge_child)) {
                aux.add_edge(v_pair, pair_idx, 1);
            }
        }
    }
    let dijkstra = aux.dijkstra(0);

    let mut dist = HashMap::with_capacity(node_of_pair.len());
    for (&key, &idx) in &node_of_pair {
        let d = dijkstra.dist[idx];
        if d != INFINITE_WEIGHT {
            dist.insert(key, d.min(Distance::MAX as u64 - 1) as Distance);
        }
    }
    NearSmallResult {
        source: s,
        dist,
        node_of_pair,
        nodes,
        dijkstra,
        node_count: aux.node_count(),
        edge_count: aux.edge_count(),
    }
}

impl NearSmallResult {
    /// The source this result belongs to.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Number of nodes of the auxiliary graph (statistics).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges of the auxiliary graph (statistics).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The auxiliary-path length `w[t, e]` for the near edge identified by its deeper endpoint
    /// `edge_child`, if the pair node exists and is reachable.
    pub fn distance(&self, target: Vertex, edge_child: Vertex) -> Option<Distance> {
        self.dist.get(&(target, edge_child)).copied()
    }

    /// Relaxes every known `(t, e)` entry of `out` with the auxiliary-path lengths.
    pub fn apply_to(&self, tree_s: &ShortestPathTree, out: &mut SourceReplacementDistances) {
        for (&(t, edge_child), &w) in &self.dist {
            let pos = tree_s.distance_or_infinite(edge_child) as usize - 1;
            out.relax(t, pos, w);
        }
    }

    /// Iterates over all `(target, edge_child, distance)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (Vertex, Vertex, Distance)> + '_ {
        self.dist.iter().map(|(&(t, c), &d)| (t, c, d))
    }

    /// Reconstructs the actual vertex sequence of the auxiliary shortest path for `(t, e)`
    /// (used by Section 8.2.1 to find centers lying on small replacement paths).
    ///
    /// The returned path starts at the source and ends at `target`; consecutive vertices are
    /// adjacent in `g`, and the number of edges equals [`NearSmallResult::distance`].
    pub fn small_path(
        &self,
        tree_s: &ShortestPathTree,
        target: Vertex,
        edge_child: Vertex,
    ) -> Option<Vec<Vertex>> {
        let &idx = self.node_of_pair.get(&(target, edge_child))?;
        let aux_path = self.dijkstra.path_to(idx)?;
        let mut real: Vec<Vertex> = Vec::new();
        for &node in &aux_path {
            match self.nodes[node] {
                AuxNode::Source => {
                    // The source is emitted as part of the first Plain node's canonical path.
                }
                AuxNode::Plain(v) => {
                    let prefix = tree_s.path_from_source(v)?;
                    real.extend(prefix);
                }
                AuxNode::Pair { target: t, .. } => real.push(t),
            }
        }
        if real.is_empty() {
            real.push(self.source);
        }
        Some(real)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph};
    use msrp_graph::{Edge, INFINITE_DISTANCE};
    use msrp_rpath::{replacement_distance, single_source_brute_force};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> MsrpParams {
        MsrpParams::default()
    }

    #[test]
    fn matches_truth_when_every_replacement_is_small() {
        // With the paper constants on a small dense-ish graph every edge is near and every
        // replacement path is small, so the Section 7.1 graph alone already solves SSRP.
        let mut rng = StdRng::seed_from_u64(9);
        let g = connected_gnm(30, 75, &mut rng).unwrap();
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let truth = single_source_brute_force(&csr, &tree);
        let near = build_near_small(&csr, &tree, &params(), 1);
        let mut out = SourceReplacementDistances::new(&tree);
        near.apply_to(&tree, &mut out);
        for (t, i, d) in truth.iter() {
            let got = out.get(t, i).unwrap();
            assert!(got >= d, "candidate may never under-estimate");
            if d != INFINITE_DISTANCE {
                assert_eq!(got, d, "target {t} edge {i}");
            }
        }
    }

    #[test]
    fn candidates_are_always_valid_paths() {
        let g = grid_graph(4, 4);
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let near = build_near_small(&csr, &tree, &params(), 1);
        for (t, child, w) in near.iter() {
            let parent = tree.parent(child).unwrap();
            let truth = replacement_distance(&g, 0, t, Edge::new(parent, child));
            assert!(w >= truth, "w[{t},{child}] = {w} under-estimates {truth}");
        }
    }

    #[test]
    fn reconstructed_paths_avoid_the_edge_and_have_the_right_length() {
        let g = cycle_graph(9);
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let near = build_near_small(&csr, &tree, &params(), 1);
        for (t, child, w) in near.iter() {
            let parent = tree.parent(child).unwrap();
            let avoided = Edge::new(parent, child);
            let path = near.small_path(&tree, t, child).expect("path exists");
            assert_eq!(path.first(), Some(&0));
            assert_eq!(path.last(), Some(&t));
            assert_eq!(path.len() as Distance - 1, w, "length mismatch for ({t}, {child})");
            for pair in path.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]), "non-edge in reconstructed path");
                assert_ne!(Edge::new(pair[0], pair[1]), avoided, "path uses the avoided edge");
            }
        }
    }

    #[test]
    fn bridge_edges_have_no_pair_distance() {
        // In a path graph, removing any edge disconnects the target: no [t, e] label.
        let g = msrp_graph::generators::path_graph(6);
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let near = build_near_small(&csr, &tree, &params(), 1);
        assert_eq!(near.iter().count(), 0);
        assert!(near.distance(3, 2).is_none());
        assert!(near.node_count() > 0);
        assert!(near.edge_count() > 0);
        assert_eq!(near.source(), 0);
    }

    #[test]
    fn guard_prevents_walking_over_the_avoided_edge() {
        // Without the (v, t) != e guard, the path 0-1 avoiding edge (0, 1) would be "found" with
        // length 1 by stepping from [0] straight over the forbidden edge.
        let g = cycle_graph(5);
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        let near = build_near_small(&csr, &tree, &params(), 1);
        assert_eq!(near.distance(1, 1), Some(4));
    }
}
