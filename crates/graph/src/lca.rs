//! Least common ancestors via Euler tour + sparse-table RMQ (Lemma 6 of the paper,
//! following Bender and Farach-Colton, LATIN 2000).
//!
//! The index is built in `O(n log n)` time and answers queries in `O(1)`. The paper only needs
//! ancestry tests on root-to-vertex paths (answered directly by [`ShortestPathTree`]), but the
//! LCA structure is the general tool Lemma 6 cites and is used by the tree-distance helpers and
//! the network simulator.

use crate::distance::{dist_add, Distance, INFINITE_DISTANCE};
use crate::graph::Vertex;
use crate::tree::ShortestPathTree;

/// Constant-time LCA queries over a [`ShortestPathTree`].
///
/// ```
/// use msrp_graph::{Graph, ShortestPathTree};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])?;
/// let tree = ShortestPathTree::build(&g, 0);
/// let lca = tree.lca_index();
/// assert_eq!(lca.lca(3, 4), Some(1));
/// assert_eq!(lca.lca(3, 6), Some(0));
/// assert_eq!(lca.tree_distance(3, 6), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LcaIndex {
    /// Euler tour of the tree (vertices, with repeats).
    euler: Vec<Vertex>,
    /// Depth of each Euler tour entry.
    euler_depth: Vec<u32>,
    /// First occurrence of each vertex in the Euler tour (`usize::MAX` if unreachable).
    first: Vec<usize>,
    /// Sparse table over Euler positions; `table[k][i]` is the position with minimum depth in
    /// the window of length `2^k` starting at `i`.
    table: Vec<Vec<u32>>,
    /// Depth (= BFS distance) per vertex.
    depth: Vec<Distance>,
    root: Vertex,
}

impl LcaIndex {
    /// Builds the index for the reachable part of `tree`.
    pub fn build(tree: &ShortestPathTree) -> Self {
        let n = tree.vertex_count();
        let children = tree.children();
        let mut euler = Vec::with_capacity(2 * n);
        let mut euler_depth = Vec::with_capacity(2 * n);
        let mut first = vec![usize::MAX; n];
        let root = tree.source();

        if n > 0 && tree.is_reachable(root) {
            // Iterative Euler tour.
            let mut stack: Vec<(Vertex, usize)> = vec![(root, 0)];
            push_occurrence(&mut euler, &mut euler_depth, &mut first, tree, root);
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                if let Some(&c) = children.of(v).get(*idx) {
                    let c = c as Vertex;
                    *idx += 1;
                    push_occurrence(&mut euler, &mut euler_depth, &mut first, tree, c);
                    stack.push((c, 0));
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        push_occurrence(&mut euler, &mut euler_depth, &mut first, tree, p);
                    }
                }
            }
        }

        let table = build_sparse_table(&euler_depth);
        let depth = tree.distances().to_vec();
        LcaIndex { euler, euler_depth, first, table, depth, root }
    }

    /// Lowest common ancestor of `u` and `v`, or `None` if either is unreachable from the root.
    pub fn lca(&self, u: Vertex, v: Vertex) -> Option<Vertex> {
        let fu = *self.first.get(u)?;
        let fv = *self.first.get(v)?;
        if fu == usize::MAX || fv == usize::MAX {
            return None;
        }
        let (lo, hi) = if fu <= fv { (fu, fv) } else { (fv, fu) };
        let pos = self.range_min_position(lo, hi);
        Some(self.euler[pos])
    }

    /// Distance between `u` and `v` measured *in the tree* (not in the underlying graph).
    pub fn tree_distance(&self, u: Vertex, v: Vertex) -> Option<Distance> {
        let a = self.lca(u, v)?;
        let du = self.depth[u];
        let dv = self.depth[v];
        let da = self.depth[a];
        if du == INFINITE_DISTANCE || dv == INFINITE_DISTANCE || da == INFINITE_DISTANCE {
            return None;
        }
        Some(dist_add(du - da, dv - da))
    }

    /// Returns `true` when `a` is an ancestor of `d` in the tree (every vertex is its own ancestor).
    pub fn is_ancestor(&self, a: Vertex, d: Vertex) -> bool {
        self.lca(a, d) == Some(a)
    }

    /// The root of the underlying tree.
    pub fn root(&self) -> Vertex {
        self.root
    }

    /// Length of the Euler tour (useful for size accounting in experiments).
    pub fn euler_len(&self) -> usize {
        self.euler.len()
    }

    fn range_min_position(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi && hi < self.euler_depth.len());
        let len = hi - lo + 1;
        let k = usize::BITS as usize - 1 - (len.leading_zeros() as usize);
        let left = self.table[k][lo] as usize;
        let right = self.table[k][hi + 1 - (1 << k)] as usize;
        if self.euler_depth[left] <= self.euler_depth[right] {
            left
        } else {
            right
        }
    }
}

fn push_occurrence(
    euler: &mut Vec<Vertex>,
    euler_depth: &mut Vec<u32>,
    first: &mut [usize],
    tree: &ShortestPathTree,
    v: Vertex,
) {
    if first[v] == usize::MAX {
        first[v] = euler.len();
    }
    euler.push(v);
    euler_depth.push(tree.distance_or_infinite(v));
}

fn build_sparse_table(depths: &[u32]) -> Vec<Vec<u32>> {
    let n = depths.len();
    if n == 0 {
        return vec![Vec::new()];
    }
    let levels = (usize::BITS as usize) - (n.leading_zeros() as usize);
    let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
    table.push((0..n as u32).collect());
    let mut k = 1;
    while (1 << k) <= n {
        let prev = &table[k - 1];
        let width = 1 << (k - 1);
        let mut row = Vec::with_capacity(n + 1 - (1 << k));
        for i in 0..=(n - (1 << k)) {
            let a = prev[i] as usize;
            let b = prev[i + width] as usize;
            row.push(if depths[a] <= depths[b] { a as u32 } else { b as u32 });
        }
        table.push(row);
        k += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn balanced_tree() -> (Graph, ShortestPathTree) {
        // A complete binary tree on 15 vertices (1-indexed heap layout shifted to 0-index).
        let mut edges = Vec::new();
        for v in 1..15usize {
            edges.push(((v - 1) / 2, v));
        }
        let g = Graph::from_edges(15, &edges).unwrap();
        let t = ShortestPathTree::build(&g, 0);
        (g, t)
    }

    fn naive_lca(t: &ShortestPathTree, u: Vertex, v: Vertex) -> Option<Vertex> {
        let pu = t.path_from_source(u)?;
        let pv = t.path_from_source(v)?;
        let mut last = None;
        for (a, b) in pu.iter().zip(pv.iter()) {
            if a == b {
                last = Some(*a);
            } else {
                break;
            }
        }
        last
    }

    #[test]
    fn matches_naive_lca_on_balanced_tree() {
        let (_, t) = balanced_tree();
        let idx = t.lca_index();
        for u in 0..15 {
            for v in 0..15 {
                assert_eq!(idx.lca(u, v), naive_lca(&t, u, v), "lca({u}, {v})");
            }
        }
    }

    #[test]
    fn matches_naive_lca_on_path() {
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
            .unwrap();
        let t = ShortestPathTree::build(&g, 3);
        let idx = t.lca_index();
        for u in 0..8 {
            for v in 0..8 {
                assert_eq!(idx.lca(u, v), naive_lca(&t, u, v));
            }
        }
    }

    #[test]
    fn tree_distance_matches_path_lengths() {
        let (_, t) = balanced_tree();
        let idx = t.lca_index();
        assert_eq!(idx.tree_distance(7, 8), Some(2)); // siblings under 3
        assert_eq!(idx.tree_distance(7, 14), Some(6)); // opposite leaves
        assert_eq!(idx.tree_distance(0, 14), Some(3));
        assert_eq!(idx.tree_distance(5, 5), Some(0));
    }

    #[test]
    fn ancestor_queries() {
        let (_, t) = balanced_tree();
        let idx = t.lca_index();
        assert!(idx.is_ancestor(0, 14));
        assert!(idx.is_ancestor(2, 14));
        assert!(!idx.is_ancestor(1, 14));
        assert!(idx.is_ancestor(14, 14));
        assert_eq!(idx.root(), 0);
    }

    #[test]
    fn unreachable_vertices_yield_none() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let t = ShortestPathTree::build(&g, 0);
        let idx = t.lca_index();
        assert_eq!(idx.lca(0, 3), None);
        assert_eq!(idx.lca(3, 4), None);
        assert_eq!(idx.lca(1, 2), Some(1));
        assert_eq!(idx.tree_distance(0, 4), None);
    }

    #[test]
    fn single_vertex_tree() {
        let g = Graph::new(1);
        let t = ShortestPathTree::build(&g, 0);
        let idx = t.lca_index();
        assert_eq!(idx.lca(0, 0), Some(0));
        assert_eq!(idx.tree_distance(0, 0), Some(0));
        assert!(idx.euler_len() >= 1);
    }

    #[test]
    fn lca_on_bfs_tree_of_cyclic_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let t = ShortestPathTree::build(&g, 0);
        let idx = t.lca_index();
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(idx.lca(u, v), naive_lca(&t, u, v));
            }
        }
    }
}
