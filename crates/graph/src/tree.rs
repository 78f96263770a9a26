//! Canonical shortest-path trees with constant-time ancestry queries.
//!
//! The paper's algorithms constantly ask questions of the form *"does the edge `e` lie on the
//! canonical shortest path from `r` to `t`?"* (Algorithm 4, Sections 7.1, 8.1–8.3). Because the
//! canonical path is a root-to-vertex path of the shortest-path tree `T_r`, the question
//! reduces to an ancestry test, which we answer in `O(1)` using Euler-tour entry/exit times.
//! One [`CanonicalTree`] type serves both metrics: BFS trees ([`ShortestPathTree`]) and
//! Dijkstra trees ([`WeightedTree`](crate::WeightedTree)).

use crate::bfs::BfsResult;
use crate::csr::{BfsScratch, CsrGraph, NO_PARENT};
use crate::edge::Edge;
use crate::graph::Vertex;
use crate::metric::{Hop, Metric};

/// A rooted canonical shortest-path tree under the metric `M`, annotated for `O(1)` path
/// queries.
///
/// Canonical paths separate *distance* (`M::Dist`) from *depth* (number of edges on the
/// canonical path); replacement-path tables index avoided edges by their 0-based position on
/// the canonical path, which is `depth(child) - 1`. Under the hop metric the two coincide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalTree<M: Metric> {
    source: Vertex,
    dist: Vec<M::Dist>,
    /// Sentinel-encoded parents: `parent[v]` is the tree parent of `v`, or [`NO_PARENT`]
    /// for the root and unreachable vertices (4 bytes per vertex, the kernels' own form).
    parent: Vec<u32>,
    /// Hop depths beyond `dist` ([`Metric::Depths`]).
    depths: M::Depths,
    /// Reachable vertices in settle order (root first).
    order: Vec<u32>,
    tin: Vec<u32>,
    tout: Vec<u32>,
}

/// A rooted BFS tree of an unweighted graph (its depth is its hop distance).
///
/// ```
/// use msrp_graph::{Graph, ShortestPathTree, Edge};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])?.freeze();
/// let t = ShortestPathTree::build(&g, 0);
/// assert_eq!(t.distance(2), Some(2));
/// assert!(t.path_contains_edge(2, Edge::new(0, 1)));
/// assert!(!t.path_contains_edge(4, Edge::new(0, 1)));
/// # Ok(())
/// # }
/// ```
pub type ShortestPathTree = CanonicalTree<Hop>;

impl ShortestPathTree {
    /// Builds the BFS tree rooted at `source` (deterministic: sorted adjacency order).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build(g: &CsrGraph, source: Vertex) -> Self {
        Self::build_with_scratch(g, source, &mut BfsScratch::new())
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
        Self::from_raw(
            source,
            scratch.dist().to_vec(),
            scratch.parent_raw().to_vec(),
            scratch.order().iter().map(|&v| v as u32).collect(),
        )
    }

    /// Builds the tree from an adjacency-list [`BfsResult`] (the adapter for
    /// [`bfs`](crate::bfs())); the CSR kernels hand their flat buffers to
    /// [`from_raw`](Self::from_raw) instead.
    pub fn from_bfs(bfs: BfsResult) -> Self {
        let BfsResult { source, dist, parent, order } = bfs;
        let parent = parent.iter().map(|p| p.map_or(NO_PARENT, |p| p as u32)).collect();
        Self::from_raw(source, dist, parent, order.iter().map(|&v| v as u32).collect())
    }
}

impl<M: Metric> CanonicalTree<M> {
    /// Adopts raw traversal buffers as they are: `dist` (`M::INFINITY` when unreachable),
    /// sentinel-encoded `parent` ([`NO_PARENT`] for the root and unreachable vertices) and
    /// the settle `order` of the reachable vertices, root first. The buffers must describe a
    /// shortest-path tree rooted at `source` whose `order` settles every parent before its
    /// children (any BFS queue and any Dijkstra settle order does); only the depth store and
    /// the Euler times are computed here.
    pub fn from_raw(source: Vertex, dist: Vec<M::Dist>, parent: Vec<u32>, order: Vec<u32>) -> Self {
        let depths = M::depths(&dist, &parent, &order);
        let (tin, tout) = euler_times(&order, &parent, |v| M::depth(&dist, &depths, v));
        CanonicalTree { source, dist, parent, depths, order, tin, tout }
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
    pub fn distance(&self, v: Vertex) -> Option<M::Dist> {
        let d = self.dist[v];
        (d != M::INFINITY).then_some(d)
    }

    /// Distance from the root to `v`, with `M::INFINITY` for unreachable vertices.
    #[inline]
    pub fn distance_or_infinite(&self, v: Vertex) -> M::Dist {
        self.dist[v]
    }

    /// The raw distance vector (entries are `M::INFINITY` for unreachable vertices).
    #[inline]
    pub fn distances(&self) -> &[M::Dist] {
        &self.dist
    }

    /// Number of edges on the canonical root→`v` path (0 for the root and for unreachable
    /// vertices).
    #[inline]
    pub fn depth(&self, v: Vertex) -> usize {
        M::depth(&self.dist, &self.depths, v) as usize
    }

    /// Tree parent of `v`.
    #[inline]
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        let p = self.parent[v];
        (p != NO_PARENT).then_some(p as Vertex)
    }

    /// The sentinel-encoded parent array: `parents_raw()[v]` is the parent of `v` as a
    /// `u32`, or [`NO_PARENT`] for the root and unreachable vertices.
    #[inline]
    pub fn parents_raw(&self) -> &[u32] {
        &self.parent
    }

    /// `true` when `v` is reachable from the root.
    #[inline]
    pub fn is_reachable(&self, v: Vertex) -> bool {
        self.dist[v] != M::INFINITY
    }

    /// Reachable vertices in settle order (root first): BFS order under the hop metric,
    /// non-decreasing distance under the weighted one.
    #[inline]
    pub fn order(&self) -> &[u32] {
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

    /// Preorder position and subtree size of `v`, or `None` when `v` is unreachable. The
    /// preorder is the DFS of the tree from the root with children in settle order, so the
    /// subtree of `v` is exactly the position interval `[pre, pre + size)`. Both follow in
    /// `O(1)` from the closed-form Euler times (`tin = 1 + 2·pre − depth`,
    /// `tout = tin + 2·size − 1`); nothing extra is stored.
    #[inline]
    pub fn preorder_interval(&self, v: Vertex) -> Option<(usize, usize)> {
        if !self.is_reachable(v) {
            return None;
        }
        Some(preorder_from_euler(self.tin[v], self.tout[v], M::depth(&self.dist, &self.depths, v)))
    }

    /// Returns `true` when `v` lies on the canonical root→`t` path.
    #[inline]
    pub fn path_contains_vertex(&self, t: Vertex, v: Vertex) -> bool {
        self.is_reachable(t) && self.is_ancestor(v, t)
    }

    /// If `e` is a tree edge, returns its deeper endpoint (the child side), else `None`.
    pub fn deeper_endpoint(&self, e: Edge) -> Option<Vertex> {
        let (u, v) = e.endpoints();
        if self.parent[v] == u as u32 {
            Some(v)
        } else if self.parent[u] == v as u32 {
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
            Some(self.depth(child) - 1)
        } else {
            None
        }
    }

    /// The canonical path from the root to `t` (inclusive), or `None` if `t` is unreachable.
    pub fn path_from_source(&self, t: Vertex) -> Option<Vec<Vertex>> {
        if !self.is_reachable(t) {
            return None;
        }
        let mut path = Vec::with_capacity(self.depth(t) + 1);
        let mut cur = t;
        path.push(cur);
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }

    /// The `i`-th edge on the canonical root→`t` path (0-based), if it exists.
    pub fn path_edge(&self, t: Vertex, i: usize) -> Option<Edge> {
        let cur = self.path_vertex_at_depth(t, i.checked_add(1)?)?;
        Some(Edge::new(self.parent(cur)?, cur))
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
        if !self.is_reachable(t) || depth > self.depth(t) {
            return None;
        }
        let mut cur = t;
        while self.depth(cur) > depth {
            cur = self.parent(cur)?;
        }
        Some(cur)
    }
}

/// Euler entry/exit times of the rooted tree given by its settle `order` (root first, every
/// parent before its children), sentinel-encoded `parent` array and tree `depth` of each
/// vertex: the times of a DFS from the root that visits each vertex's children in settle
/// order (unreachable vertices keep time 0). A [`CanonicalTree`]'s `O(1)` ancestry test
/// reduces to interval containment of these times.
///
/// Computed in closed form rather than by walking the DFS: a vertex with preorder index
/// `i`, tree depth `d` and subtree size `s` is entered after `i` entries and `i − d`
/// exits, so `tin = 1 + 2i − d` and `tout = tin + 2s − 1`. Sizes accumulate child → parent
/// over the reversed settle order. Preorder indices follow in one forward pass, because
/// each vertex's children appear in settle order and a child's slot is its parent's next
/// free one: `tin[v]` holds that next slot, which ends at `i + s`, so `i` is recovered as
/// `tin[v] − s` without an array of its own. No children lists and no stack: the snapshot
/// boot path runs this once per persisted source.
fn euler_times(
    order: &[u32],
    parent: &[u32],
    depth: impl Fn(Vertex) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    let n = parent.len();
    // `tout` holds subtree sizes until the last pass.
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    for &v in order.iter().rev() {
        let v = v as usize;
        tout[v] += 1;
        let p = parent[v];
        if p != NO_PARENT {
            tout[p as usize] += tout[v];
        }
    }
    for &v in order {
        let v = v as usize;
        let p = parent[v];
        if p == NO_PARENT {
            tin[v] = 1;
        } else {
            let p = p as usize;
            tin[v] = tin[p] + 1;
            tin[p] += tout[v];
        }
    }
    for &v in order {
        let v = v as usize;
        let size = tout[v];
        let pre = tin[v] - size;
        tin[v] = 1 + 2 * pre - depth(v);
        tout[v] = tin[v] + 2 * size - 1;
    }
    (tin, tout)
}

/// The inverse of [`euler_times`]' closed form: the preorder position and subtree size of
/// a reachable vertex with Euler times `tin`, `tout` and tree depth `depth`, namely
/// `pre = (tin + depth − 1) / 2` and `size = (tout − tin + 1) / 2`.
#[inline]
fn preorder_from_euler(tin: u32, tout: u32, depth: u32) -> (usize, usize) {
    let (tin, tout, depth) = (tin as usize, tout as usize, depth as usize);
    ((tin + depth - 1) / 2, (tout - tin).div_ceil(2))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::distance::INFINITE_DISTANCE;
    use crate::graph::Graph;

    fn sample_graph() -> Graph {
        // 0-1-2-3 path plus a shortcut 0-4-3 and a pendant 5 off vertex 2.
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (2, 5)]).unwrap()
    }

    #[test]
    fn distances_and_parents() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g.freeze(), 0);
        assert_eq!(t.source(), 0);
        assert_eq!(t.distance(0), Some(0));
        assert_eq!(t.distance(3), Some(2));
        assert_eq!(t.distance(5), Some(3));
        assert_eq!(t.parent(0), None);
        // Level 1 is {1, 4}; 1 discovers 2, then 4 discovers 3.
        assert_eq!(t.parent(3), Some(4));
        assert!(t.is_reachable(5));
    }

    #[test]
    fn ancestry_queries() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g.freeze(), 0);
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
        let t = ShortestPathTree::build(&g.freeze(), 0);
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
        let t = ShortestPathTree::build(&g.freeze(), 0);
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
        let t = ShortestPathTree::build(&g.freeze(), 0);
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
        let t = ShortestPathTree::build(&g.freeze(), 0);
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
        let t = ShortestPathTree::build(&g.freeze(), 0);
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
                let kids = t.order.iter().filter(|&&c| t.parent[c as usize] == v as u32);
                stack.extend(kids.rev().map(|&c| (c as usize, false)));
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
                let t = ShortestPathTree::build(&g.freeze(), s);
                assert_eq!((t.tin.clone(), t.tout.clone()), reference_euler_times(&t), "s={s}");
            }
        }
    }

    /// Preorder positions and subtree sizes of the tree given by its `source`, settle
    /// `order` and sentinel-encoded `parent` array, by an explicit DFS from the root with
    /// children in settle order (`None` for vertices outside the tree). Shared with the
    /// weighted tree's tests.
    pub(crate) fn reference_preorder(
        source: Vertex,
        order: &[u32],
        parent: &[u32],
    ) -> Vec<Option<(usize, usize)>> {
        let mut out = vec![None; parent.len()];
        let mut next = 0;
        let mut stack = vec![(source, false)];
        while let Some((v, exiting)) = stack.pop() {
            if exiting {
                let pre = out[v].map_or(0, |(pre, _)| pre);
                out[v] = Some((pre, next - pre));
            } else {
                out[v] = Some((next, 0));
                next += 1;
                stack.push((v, true));
                let kids = order.iter().filter(|&&c| parent[c as usize] == v as u32);
                stack.extend(kids.rev().map(|&c| (c as usize, false)));
            }
        }
        out
    }

    /// The graph set of the preorder and raw-constructor tests.
    fn preorder_graphs() -> [Graph; 5] {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(47);
        [
            sample_graph(),
            crate::generators::grid_graph(5, 6),
            crate::generators::gnm(60, 70, &mut rng).unwrap(),
            // Unreachable vertices, including isolated ones.
            Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (4, 5)]).unwrap(),
            Graph::new(1),
        ]
    }

    #[test]
    fn hop_preorder_intervals_match_an_explicit_dfs() {
        for g in &preorder_graphs() {
            for s in [0, g.vertex_count() / 2, g.vertex_count() - 1] {
                let t = ShortestPathTree::build(&g.freeze(), s);
                let derived: Vec<_> =
                    (0..g.vertex_count()).map(|v| t.preorder_interval(v)).collect();
                assert_eq!(derived, reference_preorder(s, &t.order, &t.parent), "s={s}");
            }
        }
    }

    #[test]
    fn raw_constructors_match_the_adjacency_list_adapter() {
        // Every CSR kernel hands its u32 buffers to `from_raw`; each tree must equal the
        // one `from_bfs` adapts from the adjacency-list BFS.
        let mut td = BfsScratch::new();
        let mut wave = crate::MultiBfsScratch::new();
        for g in &preorder_graphs() {
            let csr = g.freeze();
            let n = g.vertex_count();
            let sources = [0, n / 2, n - 1];
            let waved = crate::bfs_trees_wave(&csr, &sources, &mut wave);
            for (k, &s) in sources.iter().enumerate() {
                let reference = ShortestPathTree::from_bfs(bfs(g, s));
                let built = [
                    ("scratch", ShortestPathTree::build_with_scratch(&csr, s, &mut td)),
                    ("wave", waved[k].clone()),
                ];
                for (kernel, t) in &built {
                    for v in 0..n {
                        assert_eq!(t.parent(v), reference.parent(v), "{kernel} s={s} v={v}");
                        let interval = t.preorder_interval(v);
                        assert_eq!(interval, reference.preorder_interval(v), "{kernel} s={s}");
                    }
                    assert_eq!(t.order(), reference.order(), "{kernel} s={s}");
                    assert_eq!(t, &reference, "{kernel} s={s}");
                }
            }
        }
    }

    #[test]
    fn subtrees_are_contiguous_preorder_intervals() {
        // The fact the cut kernel relies on: `v` lies in the position interval of `a`
        // exactly when `a` is an ancestor of `v`.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(53);
        for case in 0..12 {
            let n = 10 + 7 * case;
            let g = crate::generators::gnm(n, n + 3 * case, &mut rng).unwrap();
            for s in [0, n / 3, n - 1] {
                let t = ShortestPathTree::build(&g.freeze(), s);
                for a in (0..n).filter(|&a| t.is_reachable(a)) {
                    let (pa, sa) = t.preorder_interval(a).unwrap();
                    for v in (0..n).filter(|&v| t.is_reachable(v)) {
                        let (pv, _) = t.preorder_interval(v).unwrap();
                        let inside = (pa..pa + sa).contains(&pv);
                        assert_eq!(inside, t.is_ancestor(a, v), "case {case} s={s} a={a} v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn bfs_order_is_exposed() {
        let g = sample_graph();
        let t = ShortestPathTree::build(&g.freeze(), 0);
        assert_eq!(t.order()[0], 0);
        assert_eq!(t.order().len(), 6);
    }
}
