//! Breadth-first search (Section 5 of the paper).
//!
//! BFS is the workhorse of every algorithm in this reproduction: shortest-path trees are BFS
//! trees, the brute-force ground truth reruns BFS with an edge removed, and the preprocessing
//! phase runs BFS from every landmark and every center.
//!
//! The entry points here traverse the adjacency-list [`Graph`] directly and are kept as the
//! seed representation (and as the reference the CSR kernels are tested against). Hot
//! paths should freeze the graph once ([`Graph::freeze`]) and run
//! [`bfs_csr`](crate::bfs_csr) / [`BfsScratch`](crate::BfsScratch) over the CSR view, which
//! produces bit-for-bit identical results on a flat, cache-friendly layout.

use std::collections::VecDeque;

use crate::distance::{Distance, INFINITE_DISTANCE};
use crate::edge::Edge;
use crate::graph::{Graph, Vertex};

/// The result of a breadth-first search from a single source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// The source vertex the search started from.
    pub source: Vertex,
    /// `dist[v]` is the hop distance from the source to `v` (`INFINITE_DISTANCE` if unreachable).
    pub dist: Vec<Distance>,
    /// `parent[v]` is the BFS-tree parent of `v` (`None` for the source and unreachable vertices).
    pub parent: Vec<Option<Vertex>>,
    /// Vertices in the order they were dequeued (reachable vertices only, source first).
    pub order: Vec<Vertex>,
}

impl BfsResult {
    /// Returns `true` when `v` was reached by the search.
    pub fn is_reachable(&self, v: Vertex) -> bool {
        self.dist[v] != INFINITE_DISTANCE
    }
}

/// Runs BFS from `source`, visiting neighbours in sorted order (deterministic trees).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs(g: &Graph, source: Vertex) -> BfsResult {
    bfs_impl(g, source, None)
}

/// Runs BFS from `source` in `G \ {avoid}` without materializing the modified graph.
///
/// This is the inner loop of the brute-force replacement-path baseline.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_avoiding_edge(g: &Graph, source: Vertex, avoid: Edge) -> BfsResult {
    bfs_impl(g, source, Some(avoid))
}

/// Convenience wrapper returning only the distance vector.
pub fn bfs_distances(g: &Graph, source: Vertex) -> Vec<Distance> {
    bfs(g, source).dist
}

fn bfs_impl(g: &Graph, source: Vertex, avoid: Option<Edge>) -> BfsResult {
    let n = g.vertex_count();
    assert!(source < n, "BFS source {source} out of range (n = {n})");
    let mut dist = vec![INFINITE_DISTANCE; n];
    let mut parent = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::with_capacity(n);

    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let dv = dist[v];
        for &w in g.neighbors(v) {
            if let Some(e) = avoid {
                if (v == e.lo() && w == e.hi()) || (v == e.hi() && w == e.lo()) {
                    continue;
                }
            }
            if dist[w] == INFINITE_DISTANCE {
                dist[w] = dv + 1;
                parent[w] = Some(v);
                queue.push_back(w);
            }
        }
    }
    BfsResult { source, dist, parent, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn distances_on_a_cycle() {
        let g = cycle(6);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(r.order.len(), 6);
        assert!(r.is_reachable(3));
    }

    #[test]
    fn parents_form_a_tree_rooted_at_the_source() {
        let g = cycle(7);
        let r = bfs(&g, 2);
        assert_eq!(r.parent[2], None);
        for v in 0..7 {
            if v == 2 {
                continue;
            }
            let p = r.parent[v].expect("connected graph");
            assert_eq!(r.dist[v], r.dist[p] + 1);
            assert!(g.has_edge(v, p));
        }
    }

    #[test]
    fn unreachable_vertices_report_infinity() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], INFINITE_DISTANCE);
        assert!(!r.is_reachable(3));
        assert_eq!(r.parent[2], None);
        assert_eq!(r.order.len(), 2);
    }

    #[test]
    fn avoiding_an_edge_changes_distances() {
        let g = cycle(6);
        let r = bfs_avoiding_edge(&g, 0, Edge::new(0, 1));
        // Without (0,1), vertex 1 must be reached the long way round.
        assert_eq!(r.dist[1], 5);
        assert_eq!(r.dist[5], 1);
    }

    #[test]
    fn avoiding_a_bridge_disconnects() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = bfs_avoiding_edge(&g, 0, Edge::new(1, 2));
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], INFINITE_DISTANCE);
        assert_eq!(r.dist[3], INFINITE_DISTANCE);
    }

    #[test]
    fn order_is_source_first_and_monotone_in_distance() {
        let g = cycle(9);
        let r = bfs(&g, 4);
        assert_eq!(r.order[0], 4);
        for w in r.order.windows(2) {
            assert!(r.dist[w[0]] <= r.dist[w[1]]);
        }
    }

    #[test]
    fn bfs_distances_wrapper_matches_full_bfs() {
        let g = cycle(5);
        assert_eq!(bfs_distances(&g, 3), bfs(&g, 3).dist);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = Graph::new(2);
        let _ = bfs(&g, 5);
    }

    #[test]
    fn deterministic_tree_with_sorted_adjacency() {
        // Vertex 3 is reachable at distance 2 via both 1 and 2; the parent must be the smaller.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.parent[3], Some(1));
    }
}
