//! Bridges, articulation points and 2-edge-connected components (DFS low-link).
//!
//! Bridges are exactly the edges whose failure admits *no* replacement path for some pair, so
//! they are the structurally "critical" links; the network simulator and the test-suite use this
//! module to predict which replacement distances must be infinite, and the experiment harness
//! uses it to characterize workloads.

use crate::csr::CsrGraph;
use crate::edge::Edge;
use crate::graph::Vertex;

/// The output of the low-link analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectivityReport {
    /// All bridge edges, in normalized order.
    pub bridges: Vec<Edge>,
    /// All articulation (cut) vertices, sorted.
    pub articulation_points: Vec<Vertex>,
    /// `component[v]` is the id of the 2-edge-connected component containing `v`
    /// (`usize::MAX` for isolated behaviour never occurs: every vertex gets an id).
    pub two_edge_component: Vec<usize>,
    /// Number of 2-edge-connected components.
    pub two_edge_component_count: usize,
}

impl ConnectivityReport {
    /// `true` when `e` is a bridge.
    pub fn is_bridge(&self, e: Edge) -> bool {
        self.bridges.binary_search(&e).is_ok()
    }

    /// `true` when `v` is an articulation point.
    pub fn is_articulation_point(&self, v: Vertex) -> bool {
        self.articulation_points.binary_search(&v).is_ok()
    }

    /// `true` when `u` and `v` survive any single edge failure together (same 2-edge component).
    pub fn same_two_edge_component(&self, u: Vertex, v: Vertex) -> bool {
        self.two_edge_component[u] == self.two_edge_component[v]
    }
}

/// Runs the iterative low-link DFS over all components of `g`.
pub fn analyze_connectivity(g: &CsrGraph) -> ConnectivityReport {
    let n = g.vertex_count();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut parent: Vec<Option<Vertex>> = vec![None; n];
    let mut timer = 0usize;
    let mut bridges = Vec::new();
    let mut articulation = vec![false; n];

    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // Iterative DFS: stack of (vertex, index into adjacency list).
        let mut stack: Vec<(Vertex, usize)> = vec![(root, 0)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0usize;
        while let Some(&(v, i)) = stack.last() {
            if i < g.degree(v) {
                stack.last_mut().expect("non-empty").1 += 1;
                let w = g.neighbor_row(v)[i] as Vertex;
                // Skip the edge to the DFS parent (graphs are simple, so there is exactly one).
                if parent[v] == Some(w) {
                    continue;
                }
                if disc[w] == usize::MAX {
                    parent[w] = Some(v);
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((w, 0));
                } else {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        bridges.push(Edge::new(p, v));
                    }
                    if p != root && low[v] >= disc[p] {
                        articulation[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            articulation[root] = true;
        }
    }

    bridges.sort_unstable();
    let articulation_points: Vec<Vertex> = (0..n).filter(|&v| articulation[v]).collect();

    // 2-edge-connected components: connected components of G minus the bridges.
    let mut component = vec![usize::MAX; n];
    let mut count = 0usize;
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let id = count;
        count += 1;
        let mut stack = vec![start];
        component[start] = id;
        while let Some(v) = stack.pop() {
            for w in g.neighbors(v) {
                if component[w] == usize::MAX && bridges.binary_search(&Edge::new(v, w)).is_err() {
                    component[w] = id;
                    stack.push(w);
                }
            }
        }
    }

    ConnectivityReport {
        bridges,
        articulation_points,
        two_edge_component: component,
        two_edge_component_count: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_avoiding_edge;
    use crate::distance::INFINITE_DISTANCE;
    use crate::generators::{connected_gnm, cycle_graph, grid_graph, path_graph, star_graph};
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn brute_force_bridges(g: &Graph) -> Vec<Edge> {
        // An edge is a bridge iff removing it disconnects its endpoints.
        g.edges()
            .filter(|&e| {
                let (u, v) = e.endpoints();
                bfs_avoiding_edge(g, u, e).dist[v] == INFINITE_DISTANCE
            })
            .collect()
    }

    #[test]
    fn path_graphs_are_all_bridges() {
        let g = path_graph(7);
        let r = analyze_connectivity(&g.freeze());
        assert_eq!(r.bridges.len(), 6);
        assert_eq!(r.articulation_points, vec![1, 2, 3, 4, 5]);
        assert_eq!(r.two_edge_component_count, 7);
        assert!(r.is_bridge(Edge::new(2, 3)));
        assert!(!r.same_two_edge_component(0, 6));
    }

    #[test]
    fn cycles_have_no_bridges() {
        let g = cycle_graph(9);
        let r = analyze_connectivity(&g.freeze());
        assert!(r.bridges.is_empty());
        assert!(r.articulation_points.is_empty());
        assert_eq!(r.two_edge_component_count, 1);
        assert!(r.same_two_edge_component(0, 5));
    }

    #[test]
    fn stars_have_a_single_cut_vertex() {
        let g = star_graph(8);
        let r = analyze_connectivity(&g.freeze());
        assert_eq!(r.bridges.len(), 7);
        assert_eq!(r.articulation_points, vec![0]);
        assert!(r.is_articulation_point(0));
        assert!(!r.is_articulation_point(3));
    }

    #[test]
    fn barbell_graph_has_one_bridge() {
        // Two triangles connected by a single edge.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .unwrap();
        let r = analyze_connectivity(&g.freeze());
        assert_eq!(r.bridges, vec![Edge::new(2, 3)]);
        assert_eq!(r.articulation_points, vec![2, 3]);
        assert_eq!(r.two_edge_component_count, 2);
        assert!(r.same_two_edge_component(0, 2));
        assert!(!r.same_two_edge_component(0, 3));
    }

    #[test]
    fn grids_are_two_edge_connected() {
        let r = analyze_connectivity(&grid_graph(4, 5).freeze());
        assert!(r.bridges.is_empty());
        assert_eq!(r.two_edge_component_count, 1);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [12usize, 20, 30] {
            // Sparse enough that bridges are likely.
            let g = connected_gnm(n, n + 3, &mut rng).unwrap();
            let r = analyze_connectivity(&g.freeze());
            assert_eq!(r.bridges, brute_force_bridges(&g), "n = {n}");
        }
    }

    #[test]
    fn disconnected_graphs_are_supported() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let r = analyze_connectivity(&g.freeze());
        assert_eq!(r.bridges, vec![Edge::new(3, 4)]);
        assert_eq!(r.two_edge_component_count, 4); // triangle, {3}, {4}, {5}
    }
}
