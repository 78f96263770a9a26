//! Shortest-path (BFS) trees with constant-time ancestry queries.
//!
//! The paper's algorithms constantly ask questions of the form *"does the edge `e` lie on the
//! canonical shortest path from `r` to `t`?"* (Algorithm 4, Sections 7.1, 8.1–8.3). Because the
//! canonical path is a root-to-vertex path of the BFS tree `T_r`, the question reduces to an
//! ancestry test, which we answer in `O(1)` using Euler-tour entry/exit times.

use crate::bfs::{bfs, BfsResult};
use crate::csr::{bfs_csr, BfsScratch, CsrGraph};
use crate::distance::{Distance, INFINITE_DISTANCE};
use crate::edge::Edge;
use crate::graph::{Graph, Vertex};
use crate::lca::LcaIndex;

/// A rooted BFS tree of an unweighted graph, annotated for `O(1)` path queries.
///
/// ```
/// use msrp_graph::{Graph, ShortestPathTree, Edge};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])?;
/// let t = ShortestPathTree::build(&g, 0);
/// assert_eq!(t.distance(2), Some(2));
/// assert!(t.path_contains_edge(2, Edge::new(0, 1)));
/// assert!(!t.path_contains_edge(4, Edge::new(0, 1)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: Vertex,
    dist: Vec<Distance>,
    parent: Vec<Option<Vertex>>,
    order: Vec<Vertex>,
    tin: Vec<u32>,
    tout: Vec<u32>,
}

impl ShortestPathTree {
    /// Builds the BFS tree rooted at `source` (deterministic: sorted adjacency order).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build(g: &Graph, source: Vertex) -> Self {
        Self::from_bfs(bfs(g, source))
    }

    /// Builds the BFS tree rooted at `source` over the CSR view (bit-for-bit the same tree as
    /// [`build`](Self::build), since freezing preserves adjacency order).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build_csr(g: &CsrGraph, source: Vertex) -> Self {
        Self::from_bfs(bfs_csr(g, source))
    }

    /// Builds the BFS tree rooted at `source` reusing the caller's [`BfsScratch`] buffers —
    /// the preferred entry point when many trees are built over the same graph (landmark and
    /// center preprocessing, `build_exact`).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build_with_scratch(g: &CsrGraph, source: Vertex, scratch: &mut BfsScratch) -> Self {
        scratch.run(g, source);
        Self::from_bfs(scratch.to_result())
    }

    /// Builds the BFS tree rooted at `source` with the direction-optimizing kernel —
    /// bit-for-bit the same tree as [`build_with_scratch`](Self::build_with_scratch)
    /// (the kernel reproduces the top-down parent and order rules exactly), usually faster
    /// on large low-diameter graphs. The incremental oracle rebuild runs its from-scratch
    /// rung through this.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build_with_dir_opt(
        g: &CsrGraph,
        source: Vertex,
        scratch: &mut crate::DirOptScratch,
    ) -> Self {
        scratch.run(g, source);
        Self::from_bfs(scratch.to_result())
    }

    /// Builds the tree from an existing BFS result.
    pub fn from_bfs(bfs: BfsResult) -> Self {
        let BfsResult { source, dist, parent, order } = bfs;
        let n = dist.len();
        let (tin, tout) = euler_times(n, &order, &parent);
        ShortestPathTree { source, dist, parent, order, tin, tout }
    }

    /// The root of the tree.
    #[inline]
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.dist.len()
    }

    /// Distance from the root to `v`, or `None` if `v` is unreachable.
    #[inline]
    pub fn distance(&self, v: Vertex) -> Option<Distance> {
        let d = self.dist[v];
        if d == INFINITE_DISTANCE {
            None
        } else {
            Some(d)
        }
    }

    /// Distance from the root to `v`, with `INFINITE_DISTANCE` for unreachable vertices.
    #[inline]
    pub fn distance_or_infinite(&self, v: Vertex) -> Distance {
        self.dist[v]
    }

    /// The raw distance vector (entries are `INFINITE_DISTANCE` for unreachable vertices).
    #[inline]
    pub fn distances(&self) -> &[Distance] {
        &self.dist
    }

    /// Tree parent of `v`.
    #[inline]
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        self.parent[v]
    }

    /// `true` when `v` is reachable from the root.
    #[inline]
    pub fn is_reachable(&self, v: Vertex) -> bool {
        self.dist[v] != INFINITE_DISTANCE
    }

    /// Reachable vertices in BFS order (root first).
    #[inline]
    pub fn bfs_order(&self) -> &[Vertex] {
        &self.order
    }

    /// Returns `true` when `a` is an ancestor of `d` (a vertex is an ancestor of itself).
    ///
    /// Both vertices must be reachable for the answer to be meaningful; unreachable vertices are
    /// never ancestors of anything and have no ancestors except themselves.
    #[inline]
    pub fn is_ancestor(&self, a: Vertex, d: Vertex) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(d) {
            return a == d;
        }
        self.tin[a] <= self.tin[d] && self.tout[d] <= self.tout[a]
    }

    /// Returns `true` when `v` lies on the canonical root→`t` path.
    #[inline]
    pub fn path_contains_vertex(&self, t: Vertex, v: Vertex) -> bool {
        self.is_reachable(t) && self.is_ancestor(v, t)
    }

    /// If `e` is a tree edge, returns its deeper endpoint (the child side), else `None`.
    pub fn deeper_endpoint(&self, e: Edge) -> Option<Vertex> {
        let (u, v) = e.endpoints();
        if self.parent[v] == Some(u) {
            Some(v)
        } else if self.parent[u] == Some(v) {
            Some(u)
        } else {
            None
        }
    }

    /// Returns `true` when `e` is an edge of the tree.
    pub fn is_tree_edge(&self, e: Edge) -> bool {
        self.deeper_endpoint(e).is_some()
    }

    /// Returns `true` when the edge `e` lies on the canonical root→`t` path.
    ///
    /// This is the "does `rt` avoid `e`" primitive used throughout the paper (negated).
    pub fn path_contains_edge(&self, t: Vertex, e: Edge) -> bool {
        match self.deeper_endpoint(e) {
            Some(child) => self.is_reachable(t) && self.is_ancestor(child, t),
            None => false,
        }
    }

    /// Position (0-based) of the edge `e` on the canonical root→`t` path, if it lies on it.
    ///
    /// Position `i` means `e` is the `i`-th edge when walking from the root, i.e. it connects the
    /// vertices at depth `i` and `i + 1` on the path.
    pub fn edge_position_on_path(&self, t: Vertex, e: Edge) -> Option<usize> {
        let child = self.deeper_endpoint(e)?;
        if self.is_reachable(t) && self.is_ancestor(child, t) {
            Some(self.dist[child] as usize - 1)
        } else {
            None
        }
    }

    /// The canonical path from the root to `t` (inclusive), or `None` if `t` is unreachable.
    pub fn path_from_source(&self, t: Vertex) -> Option<Vec<Vertex>> {
        if !self.is_reachable(t) {
            return None;
        }
        let mut path = Vec::with_capacity(self.dist[t] as usize + 1);
        let mut cur = t;
        path.push(cur);
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }

    /// The `i`-th edge on the canonical root→`t` path (0-based), if it exists.
    pub fn path_edge(&self, t: Vertex, i: usize) -> Option<Edge> {
        if !self.is_reachable(t) || (i as u64) >= self.dist[t] as u64 {
            return None;
        }
        // Walk up from t to depth i + 1; its parent edge is the answer.
        let mut cur = t;
        while self.dist[cur] as usize > i + 1 {
            cur = self.parent[cur].expect("reachable non-root vertex has a parent");
        }
        let p = self.parent[cur].expect("depth >= 1 vertex has a parent");
        Some(Edge::new(p, cur))
    }

    /// All edges on the canonical root→`t` path, in root→`t` order.
    pub fn path_edges(&self, t: Vertex) -> Vec<Edge> {
        match self.path_from_source(t) {
            None => Vec::new(),
            Some(path) => path.windows(2).map(|w| Edge::new(w[0], w[1])).collect(),
        }
    }

    /// Vertex at depth `depth` on the canonical root→`t` path, if the path is that long.
    pub fn path_vertex_at_depth(&self, t: Vertex, depth: usize) -> Option<Vertex> {
        if !self.is_reachable(t) || (depth as u64) > self.dist[t] as u64 {
            return None;
        }
        let mut cur = t;
        while self.dist[cur] as usize > depth {
            cur = self.parent[cur]?;
        }
        Some(cur)
    }

    /// Builds an LCA index over this tree (Lemma 6 in the paper).
    pub fn lca_index(&self) -> LcaIndex {
        LcaIndex::build(self)
    }

    /// The children lists of this tree as one flat buffer (see [`TreeChildren`]).
    pub(crate) fn children(&self) -> TreeChildren {
        TreeChildren::build(self.vertex_count(), &self.order, &self.parent)
    }
}

/// The children lists of a rooted tree in one flat counting-sorted buffer: one count pass
/// and one fill pass over the settle `order`, instead of `n` per-vertex `Vec`s. Counting
/// sort over `order` is stable, so each vertex's children appear in settle order — for a
/// BFS tree over sorted adjacency rows, ascending discovery order.
///
/// The one children builder of the hop trees: the heavy-path cover
/// ([`TreePathCover::build`](crate::TreePathCover::build)) and the LCA index walk children
/// through it ([`euler_times`] needs no children lists).
pub(crate) struct TreeChildren {
    /// `kids[off[v]..off[v + 1]]` are the children of `v`.
    off: Vec<u32>,
    kids: Vec<u32>,
}

impl TreeChildren {
    /// Children of the tree over `n` vertices given by its settle `order` and `parent` array.
    pub(crate) fn build(n: usize, order: &[Vertex], parent: &[Option<Vertex>]) -> Self {
        // Counts land in `off[p + 2]`, so after the prefix sum `off[p + 1]` is the start of
        // `p`'s children; the fill pass advances it as a write cursor to their end, which is
        // the start of `p + 1`'s — exactly the final offsets, with no cursor array.
        let mut off = vec![0u32; n + 2];
        for &v in order {
            if let Some(p) = parent[v] {
                off[p + 2] += 1;
            }
        }
        for v in 0..n {
            off[v + 2] += off[v + 1];
        }
        let mut kids: Vec<u32> = vec![0; off[n + 1] as usize];
        for &v in order {
            if let Some(p) = parent[v] {
                kids[off[p + 1] as usize] = v as u32;
                off[p + 1] += 1;
            }
        }
        off.truncate(n + 1);
        TreeChildren { off, kids }
    }

    /// The children of `v`, in settle order.
    #[inline]
    pub(crate) fn of(&self, v: Vertex) -> &[u32] {
        &self.kids[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// Euler entry/exit times of the rooted tree given by its settle `order` (root first) and
/// `parent` array: the times of a DFS from the root that visits each vertex's children in
/// settle order (unreachable vertices keep time 0). Shared by the unweighted [`ShortestPathTree`] and
/// the weighted [`WeightedTree`](crate::WeightedTree), whose `O(1)` ancestry tests both
/// reduce to interval containment of these times.
///
/// Computed in closed form rather than by walking the DFS: a vertex with preorder index
/// `i`, tree depth `d` and subtree size `s` is entered after `i` entries and `i − d`
/// exits, so `tin = 1 + 2i − d` and `tout = tin + 2s − 1`. Sizes accumulate child → parent
/// over the reversed settle order; preorder indices follow in one forward pass, because
/// each vertex's children appear in settle order and a child's slot is its parent's next
/// free one. No children lists and no stack: the snapshot boot path runs this once per
/// persisted source.
pub(crate) fn euler_times(
    n: usize,
    order: &[Vertex],
    parent: &[Option<Vertex>],
) -> (Vec<u32>, Vec<u32>) {
    // `tout` holds subtree sizes until the last pass, `tin` each vertex's next child slot.
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    for &v in order.iter().rev() {
        tout[v] += 1;
        if let Some(p) = parent[v] {
            tout[p] += tout[v];
        }
    }
    let mut pre = vec![0u32; n];
    let mut depth = vec![0u32; n];
    for &v in order {
        if let Some(p) = parent[v] {
            pre[v] = tin[p];
            tin[p] += tout[v];
            depth[v] = depth[p] + 1;
        }
        tin[v] = pre[v] + 1;
    }
    for &v in order {
        let size = tout[v];
        tin[v] = 1 + 2 * pre[v] - depth[v];
        tout[v] = tin[v] + 2 * size - 1;
    }
    (tin, tout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        // 0-1-2-3 path plus a shortcut 0-4-3 and a pendant 5 off vertex 2.
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (2, 5)]).unwrap()
    }

    #[test]
    fn distances_and_parents() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g, 0);
        assert_eq!(t.source(), 0);
        assert_eq!(t.distance(0), Some(0));
        assert_eq!(t.distance(3), Some(2));
        assert_eq!(t.distance(5), Some(3));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(3), Some(4)); // BFS with sorted adjacency reaches 3 via 4? 3's neighbours processed: from 2 (dist 2) and 4 (dist 1) -> via 4 at dist 2; order of discovery: level 1 = {1,4}; processing 1 first discovers 2; processing 4 discovers 3. So parent(3)=4.
        assert!(t.is_reachable(5));
    }

    #[test]
    fn ancestry_queries() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g, 0);
        assert!(t.is_ancestor(0, 5));
        assert!(t.is_ancestor(2, 5));
        assert!(t.is_ancestor(5, 5));
        assert!(!t.is_ancestor(5, 2));
        assert!(!t.is_ancestor(4, 5));
        assert!(t.path_contains_vertex(5, 1));
        assert!(!t.path_contains_vertex(3, 1));
    }

    #[test]
    fn tree_edges_and_positions() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g, 0);
        let e01 = Edge::new(0, 1);
        let e12 = Edge::new(1, 2);
        let e25 = Edge::new(2, 5);
        let e43 = Edge::new(4, 3);
        assert!(t.is_tree_edge(e01));
        assert!(t.is_tree_edge(e43));
        assert!(!t.is_tree_edge(Edge::new(2, 3))); // non-tree edge
        assert_eq!(t.deeper_endpoint(e12), Some(2));
        assert!(t.path_contains_edge(5, e01));
        assert!(t.path_contains_edge(5, e25));
        assert!(!t.path_contains_edge(3, e01));
        assert_eq!(t.edge_position_on_path(5, e01), Some(0));
        assert_eq!(t.edge_position_on_path(5, e12), Some(1));
        assert_eq!(t.edge_position_on_path(5, e25), Some(2));
        assert_eq!(t.edge_position_on_path(3, e01), None);
    }

    #[test]
    fn canonical_paths() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g, 0);
        assert_eq!(t.path_from_source(5), Some(vec![0, 1, 2, 5]));
        assert_eq!(t.path_from_source(3), Some(vec![0, 4, 3]));
        assert_eq!(t.path_edges(5), vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 5)]);
        assert_eq!(t.path_edge(5, 1), Some(Edge::new(1, 2)));
        assert_eq!(t.path_edge(5, 3), None);
        assert_eq!(t.path_vertex_at_depth(5, 2), Some(2));
        assert_eq!(t.path_vertex_at_depth(5, 0), Some(0));
        assert_eq!(t.path_vertex_at_depth(5, 4), None);
    }

    #[test]
    fn unreachable_vertices() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let t = ShortestPathTree::build(&g, 0);
        assert_eq!(t.distance(2), None);
        assert_eq!(t.distance_or_infinite(2), INFINITE_DISTANCE);
        assert!(!t.is_reachable(3));
        assert_eq!(t.path_from_source(2), None);
        assert!(!t.path_contains_edge(2, Edge::new(2, 3)));
        assert_eq!(t.path_edges(3), Vec::new());
        assert!(!t.is_ancestor(0, 2));
        assert!(t.is_ancestor(2, 2));
    }

    #[test]
    fn path_edges_consistent_with_positions() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g, 0);
        for v in 0..g.vertex_count() {
            let edges = t.path_edges(v);
            for (i, e) in edges.iter().enumerate() {
                assert_eq!(t.edge_position_on_path(v, *e), Some(i));
                assert_eq!(t.path_edge(v, i), Some(*e));
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::new(1);
        let t = ShortestPathTree::build(&g, 0);
        assert_eq!(t.distance(0), Some(0));
        assert_eq!(t.path_from_source(0), Some(vec![0]));
        assert!(t.path_edges(0).is_empty());
        assert!(t.is_ancestor(0, 0));
    }

    /// Euler times by an explicit DFS from the root, children in settle order.
    fn reference_euler_times(t: &ShortestPathTree) -> (Vec<u32>, Vec<u32>) {
        let n = t.vertex_count();
        let (mut tin, mut tout) = (vec![0u32; n], vec![0u32; n]);
        let mut timer = 1;
        let mut stack = vec![(t.source, false)];
        while let Some((v, exiting)) = stack.pop() {
            if exiting {
                tout[v] = timer;
            } else {
                tin[v] = timer;
                stack.push((v, true));
                let kids = t.order.iter().filter(|&&c| t.parent[c] == Some(v));
                stack.extend(kids.rev().map(|&c| (c, false)));
            }
            timer += 1;
        }
        (tin, tout)
    }

    #[test]
    fn euler_times_match_an_explicit_dfs() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(41);
        let graphs = [
            sample_graph(),
            crate::generators::grid_graph(5, 6),
            crate::generators::gnm(60, 70, &mut rng).unwrap(),
            Graph::new(1),
        ];
        for g in &graphs {
            for s in [0, g.vertex_count() / 2, g.vertex_count() - 1] {
                let t = ShortestPathTree::build(g, s);
                assert_eq!((t.tin.clone(), t.tout.clone()), reference_euler_times(&t), "s={s}");
            }
        }
    }

    #[test]
    fn bfs_order_is_exposed() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g, 0);
        assert_eq!(t.bfs_order()[0], 0);
        assert_eq!(t.bfs_order().len(), 6);
    }
}
