//! The *k most vital arcs* problem (Malik, Mittal and Gupta, Operations Research Letters 1989 —
//! the classical paper the MSRP result builds on).
//!
//! The most vital edge of an `s–t` pair is the edge on the shortest path whose failure increases
//! the distance the most; the `k` most vital edges are the top-`k` by that criterion. With the
//! single-pair replacement distances in hand the answer is a sort, so this module is a thin,
//! well-tested layer over [`crate::single_pair_replacement_paths`].

use msrp_graph::{bfs_csr, CsrGraph, Distance, Edge, ShortestPathTree, Vertex, INFINITE_DISTANCE};

use crate::single_pair::single_pair_replacement_paths;

/// One edge of the shortest path ranked by how much its failure hurts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VitalEdge {
    /// The edge.
    pub edge: Edge,
    /// Its position on the canonical path.
    pub position: usize,
    /// The replacement distance when it fails (`INFINITE_DISTANCE` when it is a bridge).
    pub replacement_distance: Distance,
}

impl VitalEdge {
    /// The increase over the fault-free distance, or `None` for bridges.
    pub fn damage(&self, base: Distance) -> Option<Distance> {
        if self.replacement_distance == INFINITE_DISTANCE {
            None
        } else {
            Some(self.replacement_distance - base)
        }
    }
}

/// Returns the edges of the canonical `s–t` path sorted from most to least vital
/// (bridges first, then by decreasing replacement distance; ties broken by path position).
///
/// Returns an empty vector when `t` is unreachable from the tree's source or equals it.
pub fn most_vital_edges(g: &CsrGraph, tree: &ShortestPathTree, t: Vertex) -> Vec<VitalEdge> {
    let dist_to_t = bfs_csr(g, t).dist;
    let replacements = single_pair_replacement_paths(g, tree, t, &dist_to_t);
    let mut out: Vec<VitalEdge> = tree
        .path_edges(t)
        .into_iter()
        .enumerate()
        .map(|(position, edge)| VitalEdge {
            edge,
            position,
            replacement_distance: replacements.get(position).copied().unwrap_or(INFINITE_DISTANCE),
        })
        .collect();
    out.sort_by(|a, b| {
        b.replacement_distance.cmp(&a.replacement_distance).then(a.position.cmp(&b.position))
    });
    out
}

/// The single most vital edge of the `s–t` pair, if the path has any edge.
pub fn most_vital_edge(g: &CsrGraph, tree: &ShortestPathTree, t: Vertex) -> Option<VitalEdge> {
    most_vital_edges(g, tree, t).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph, path_graph};
    use msrp_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bridges_rank_first() {
        // A triangle 0-1-2 followed by a bridge 2-3: the bridge must be the most vital edge on
        // the path from 0 to 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap().freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let vital = most_vital_edges(&g, &tree, 3);
        assert_eq!(vital[0].edge, Edge::new(2, 3));
        assert_eq!(vital[0].replacement_distance, INFINITE_DISTANCE);
        assert_eq!(vital[0].damage(2), None);
        assert_eq!(most_vital_edge(&g, &tree, 3).unwrap().edge, Edge::new(2, 3));
    }

    #[test]
    fn cycle_edges_are_equally_vital() {
        let g = cycle_graph(10).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let vital = most_vital_edges(&g, &tree, 4);
        assert_eq!(vital.len(), 4);
        assert!(vital.iter().all(|v| v.replacement_distance == 6));
        assert!(vital.iter().all(|v| v.damage(4) == Some(2)));
        // Ties are broken by path position.
        assert_eq!(vital[0].position, 0);
        assert_eq!(vital[3].position, 3);
    }

    #[test]
    fn path_graphs_are_all_bridges() {
        let g = path_graph(5).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let vital = most_vital_edges(&g, &tree, 4);
        assert_eq!(vital.len(), 4);
        assert!(vital.iter().all(|v| v.replacement_distance == INFINITE_DISTANCE));
    }

    #[test]
    fn unreachable_targets_have_no_vital_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap().freeze();
        let tree = ShortestPathTree::build(&g, 0);
        assert!(most_vital_edges(&g, &tree, 3).is_empty());
        assert!(most_vital_edge(&g, &tree, 3).is_none());
        assert!(most_vital_edge(&g, &tree, 0).is_none());
    }

    #[test]
    fn ranking_agrees_with_replacement_distances() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = connected_gnm(30, 60, &mut rng).unwrap();
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, 0);
        for t in 1..30 {
            let vital = most_vital_edges(&csr, &tree, t);
            for pair in vital.windows(2) {
                assert!(pair[0].replacement_distance >= pair[1].replacement_distance);
            }
            for v in &vital {
                let truth = crate::replacement_distance(&g, 0, t, v.edge);
                assert_eq!(v.replacement_distance, truth);
            }
        }
    }
}
