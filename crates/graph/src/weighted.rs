//! The weighted input-graph substrate: undirected weighted graphs, their frozen CSR view,
//! a reusable Dijkstra scratch, and weighted shortest-path trees.
//!
//! The paper's algorithms are stated for unweighted graphs, but its Section 9 discussion
//! (and the classical replacement-path literature it builds on) lifts to non-negative edge
//! weights by swapping BFS trees for Dijkstra shortest-path trees. This module provides the
//! weighted counterpart of the unweighted traversal core:
//!
//! | unweighted | weighted |
//! |---|---|
//! | [`Graph`] | [`WeightedGraph`] |
//! | [`CsrGraph`](crate::CsrGraph) | [`WeightedCsrGraph`] |
//! | [`BfsScratch`](crate::BfsScratch) | [`DijkstraScratch`] |
//! | [`ShortestPathTree`](crate::ShortestPathTree) | [`WeightedTree`] (one [`CanonicalTree`] type) |
//!
//! Only the graph types, the searches (each its metric's
//! [`Metric::Scratch`](crate::Metric::Scratch)) and the tree constructors are written twice;
//! the trees, replacement tables, brute force, oracles and snapshot codec downstream are
//! written once, generic over [`Metric`](crate::Metric).
//!
//! Weights are [`Weight`] (`u64`); [`INFINITE_WEIGHT`] is the "no path" sentinel and the
//! saturation point of distance arithmetic (a path whose length would reach the sentinel is
//! treated as unreachable — see the sentinel's docs). Per-edge weights must be *finite*
//! (`< INFINITE_WEIGHT`); [`WeightedGraph::add_edge`] rejects the sentinel at insert time.
//!
//! Like the unweighted side, adjacency rows are kept sorted by neighbour id and freezing
//! preserves that order, so Dijkstra's relaxation order — and therefore every shortest-path
//! tree and every canonical path — is a deterministic function of the input and seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::NO_PARENT;
use crate::dijkstra::{DijkstraResult, Weight, INFINITE_WEIGHT};
use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::{Graph, Vertex};
use crate::metric::Weighted;
use crate::tree::CanonicalTree;

/// An undirected, simple graph with finite non-negative `u64` edge weights, adjacency rows
/// kept sorted by neighbour id.
///
/// ```
/// use msrp_graph::WeightedGraph;
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = WeightedGraph::from_edges(4, &[(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 0, 2)])?;
/// assert!(g.has_edge(1, 0));
/// let csr = g.freeze();
/// let d = csr.dijkstra(0);
/// assert_eq!(d.dist[2], 4); // 0-1-2 beats 0-3-2
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeightedGraph {
    /// `(neighbour, weight)` pairs per vertex, sorted by neighbour id.
    adj: Vec<Vec<(Vertex, Weight)>>,
    edge_count: usize,
}

impl WeightedGraph {
    /// Creates a weighted graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        WeightedGraph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Creates a weighted graph from an explicit `(u, v, w)` edge list.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range, any edge is a self loop or a
    /// duplicate, or any weight is `INFINITE_WEIGHT` (the reserved "no path" sentinel).
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex, Weight)]) -> Result<Self, GraphError> {
        let mut g = WeightedGraph::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Lifts an unweighted [`Graph`] by assigning each edge the weight `weight(e)`; edges are
    /// visited in normalized sorted order, so a seeded RNG in the closure yields a
    /// deterministic weighting (this is what
    /// [`random_weights`](crate::generators::random_weights) does).
    ///
    /// # Panics
    ///
    /// Panics if the closure produces `INFINITE_WEIGHT` for some edge.
    pub fn from_graph(g: &Graph, mut weight: impl FnMut(Edge) -> Weight) -> Self {
        let mut out = WeightedGraph::new(g.vertex_count());
        for e in g.edges() {
            let (u, v) = e.endpoints();
            let w = weight(e);
            out.add_edge(u, v, w).expect("edges of a simple graph with finite weights");
        }
        out
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, `u == v`, the edge already
    /// exists, or `w == INFINITE_WEIGHT` (so no single *edge* can masquerade as "no path";
    /// saturation of path *sums* is handled by Dijkstra, see [`INFINITE_WEIGHT`]).
    pub fn add_edge(&mut self, u: Vertex, v: Vertex, w: Weight) -> Result<(), GraphError> {
        let n = self.vertex_count();
        for x in [u, v] {
            if x >= n {
                return Err(GraphError::VertexOutOfRange { vertex: x, vertex_count: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if w == INFINITE_WEIGHT {
            return Err(GraphError::InvalidParameters {
                reason: format!("edge ({u}, {v}) weight equals the INFINITE_WEIGHT sentinel"),
            });
        }
        let pos_u = match self.adj[u].binary_search_by_key(&v, |&(x, _)| x) {
            Ok(_) => return Err(GraphError::DuplicateEdge { u, v }),
            Err(pos) => pos,
        };
        self.adj[u].insert(pos_u, (v, w));
        let pos_v = self.adj[v]
            .binary_search_by_key(&u, |&(x, _)| x)
            .expect_err("the reverse arc cannot exist when the forward arc did not");
        self.adj[v].insert(pos_v, (u, w));
        self.edge_count += 1;
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The `(neighbour, weight)` row of `v`, sorted by neighbour id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[(Vertex, Weight)] {
        &self.adj[v]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v].len()
    }

    /// Weight of the edge `{u, v}`, or `None` when absent (or an endpoint is out of range).
    fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<Weight> {
        let n = self.vertex_count();
        if u >= n || v >= n {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.adj[a].binary_search_by_key(&b, |&(x, _)| x).ok().map(|i| self.adj[a][i].1)
    }

    /// Returns `true` when the edge `{u, v}` is present.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Iterates over all edges, each reported once in normalized order, with its weight.
    pub fn edges(&self) -> impl Iterator<Item = (Edge, Weight)> + '_ {
        (0..self.vertex_count()).flat_map(move |u| {
            self.adj[u]
                .iter()
                .filter(move |&&(v, _)| u < v)
                .map(move |&(v, w)| (Edge::new(u, v), w))
        })
    }

    /// Collects all `(edge, weight)` pairs into a vector (normalized, sorted order).
    pub fn edge_vec(&self) -> Vec<(Edge, Weight)> {
        self.edges().collect()
    }

    /// Forgets the weights, producing the underlying unweighted [`Graph`].
    pub fn topology(&self) -> Graph {
        let mut g = Graph::new(self.vertex_count());
        for (e, _) in self.edges() {
            let (u, v) = e.endpoints();
            g.add_edge(u, v).expect("the weighted graph is simple");
        }
        g
    }

    /// Freezes into the flat CSR view every weighted traversal runs over.
    pub fn freeze(&self) -> WeightedCsrGraph {
        let n = self.vertex_count();
        assert!(n < u32::MAX as usize, "CSR vertex ids are u32");
        let total: usize = self.adj.iter().map(Vec::len).sum();
        assert!(total <= u32::MAX as usize, "CSR offsets are u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        offsets.push(0u32);
        for row in &self.adj {
            for &(v, w) in row {
                targets.push(v as u32);
                weights.push(w);
            }
            offsets.push(targets.len() as u32);
        }
        WeightedCsrGraph { offsets, targets, weights, edge_count: self.edge_count }
    }
}

/// An immutable CSR snapshot of a [`WeightedGraph`]: flat target and weight arrays delimited
/// per vertex by `offsets`, rows sorted by neighbour id (freezing preserves the sorted order,
/// so traversals over the two representations are bit-for-bit identical).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedCsrGraph {
    /// `offsets[v]..offsets[v + 1]` is the row of `v`; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbour rows (length `2m`), each row sorted ascending.
    targets: Vec<u32>,
    /// `weights[i]` is the weight of the arc `targets[i]`.
    weights: Vec<Weight>,
    edge_count: usize,
}

impl Default for WeightedCsrGraph {
    fn default() -> Self {
        WeightedCsrGraph {
            offsets: vec![0],
            targets: Vec::new(),
            weights: Vec::new(),
            edge_count: 0,
        }
    }
}

impl WeightedCsrGraph {
    /// Rebuilds a frozen weighted graph from raw CSR arrays — the weighted twin of
    /// [`CsrGraph::from_raw_parts`](crate::CsrGraph::from_raw_parts), with two extra
    /// obligations: `weights` must parallel `targets` arc-for-arc, every weight must be
    /// finite (`< INFINITE_WEIGHT`), and the two arcs of each undirected edge must carry
    /// the same weight. Everything is validated before any field is adopted; the snapshot
    /// loader (`msrp-snap`) relies on this being the single source of truth for what a
    /// well-formed frozen weighted graph is.
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        targets: Vec<u32>,
        weights: Vec<Weight>,
    ) -> Result<Self, GraphError> {
        let malformed = |reason: String| GraphError::MalformedCsr { reason };
        if weights.len() != targets.len() {
            return Err(malformed(format!("{} weights for {} arcs", weights.len(), targets.len())));
        }
        if let Some(i) = weights.iter().position(|&w| w == INFINITE_WEIGHT) {
            return Err(malformed(format!("arc {i} carries the infinite-weight sentinel")));
        }
        // The unweighted validator checks everything weight-independent (offsets shape,
        // sorted rows, in-range ids, arc symmetry).
        let skeleton = crate::CsrGraph::from_raw_parts(offsets, targets)?;
        let n = skeleton.vertex_count();
        let edge_count = skeleton.edge_count();
        let (offsets, targets) = skeleton.into_raw_parts();
        let graph = WeightedCsrGraph { offsets, targets, weights, edge_count };
        for u in 0..n {
            for (v, w) in graph.neighbors(u) {
                if graph.edge_weight(v, u) != Some(w) {
                    return Err(malformed(format!(
                        "arcs {u}->{v} and {v}->{u} disagree on weight"
                    )));
                }
            }
        }
        Ok(graph)
    }

    /// The raw offsets array (`n + 1` words; row `v` is `offsets[v]..offsets[v + 1]`).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbour rows (length `2m`, each row sorted ascending).
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The raw per-arc weights (`weights[i]` belongs to the arc `targets[i]`).
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns an iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.vertex_count()
    }

    /// The raw CSR row of `v`: neighbour ids and the matching weights.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_row(&self, v: Vertex) -> (&[u32], &[Weight]) {
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        (&self.targets[range.clone()], &self.weights[range])
    }

    /// The `(neighbour, weight)` pairs of `v` in ascending neighbour order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight)> + '_ {
        let (targets, weights) = self.neighbor_row(v);
        targets.iter().zip(weights).map(|(&t, &w)| (t as Vertex, w))
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Weight of the edge `{u, v}`, or `None` when absent (or an endpoint is out of range).
    fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<Weight> {
        let n = self.vertex_count();
        if u >= n || v >= n {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let (targets, weights) = self.neighbor_row(a);
        targets.binary_search(&(b as u32)).ok().map(|i| weights[i])
    }

    /// Returns `true` when the edge `{u, v}` is present.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Iterates over all edges, each reported once in normalized order, with its weight.
    pub fn edges(&self) -> impl Iterator<Item = (Edge, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (Edge::new(u, v), w))
        })
    }

    /// Collects all `(edge, weight)` pairs into a vector (normalized, sorted order).
    pub fn edge_vec(&self) -> Vec<(Edge, Weight)> {
        self.edges().collect()
    }

    /// Returns `true` when every vertex is reachable from vertex 0 (vacuously true when
    /// empty). Weights play no role in connectivity.
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (w, _) in self.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Converts back to the mutable representation (`g.freeze().thaw() == g` exactly).
    pub fn thaw(&self) -> WeightedGraph {
        let adj: Vec<Vec<(Vertex, Weight)>> =
            self.vertices().map(|v| self.neighbors(v).collect()).collect();
        WeightedGraph { adj, edge_count: self.edge_count }
    }

    /// Runs Dijkstra from `source` (one-shot; allocates fresh buffers). For repeated
    /// searches prefer a shared [`DijkstraScratch`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn dijkstra(&self, source: Vertex) -> DijkstraResult {
        let mut scratch = DijkstraScratch::new();
        scratch.run(self, source);
        scratch.into_result()
    }

    /// Runs Dijkstra from `source` in `G \ {avoid}` (one-shot) without materializing the
    /// modified graph.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn dijkstra_avoiding_edge(&self, source: Vertex, avoid: Edge) -> DijkstraResult {
        let mut scratch = DijkstraScratch::new();
        scratch.run_avoiding(self, source, avoid);
        scratch.into_result()
    }
}

/// Reusable Dijkstra buffers — distances, predecessors, the settle order and the heap —
/// reset in `O(visited)` between runs instead of reallocated; the weighted counterpart of
/// [`BfsScratch`](crate::BfsScratch).
///
/// The brute force runs one Dijkstra per tree edge through it
/// (`Metric::distances_avoiding`); the settle order doubles as the list of touched entries,
/// so resetting only rewrites what the previous run wrote (every vertex whose distance was
/// relaxed is eventually settled exactly once, because stale heap entries are skipped and a
/// saturated sum — equal to [`INFINITE_WEIGHT`] — can never win the strict relaxation).
///
/// ```
/// use msrp_graph::{DijkstraScratch, WeightedGraph};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = WeightedGraph::from_edges(4, &[(0, 1, 5), (1, 2, 5), (0, 3, 1), (3, 2, 2)])?;
/// let csr = g.freeze();
/// let mut scratch = DijkstraScratch::new();
/// scratch.run(&csr, 0);
/// assert_eq!(scratch.dist(), &[0, 5, 3, 1]);
/// assert_eq!(scratch.parent()[2], Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<Weight>,
    parent: Vec<Option<Vertex>>,
    /// Settle order of the last run (doubles as the touched-entry list for the reset).
    order: Vec<Vertex>,
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
    source: Vertex,
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers are sized lazily on the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the buffers for a graph with `n` vertices in `O(visited)` (full `O(n)` init
    /// only when the vertex count changes).
    fn reset(&mut self, n: usize) {
        self.heap.clear();
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, INFINITE_WEIGHT);
            self.parent.clear();
            self.parent.resize(n, None);
            self.order.clear();
            self.order.reserve(n);
        } else {
            for &v in &self.order {
                self.dist[v] = INFINITE_WEIGHT;
                self.parent[v] = None;
            }
            self.order.clear();
        }
    }

    /// Runs Dijkstra from `source` over the weighted CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn run(&mut self, g: &WeightedCsrGraph, source: Vertex) {
        self.run_impl(g, source, None);
    }

    /// Runs Dijkstra from `source` in `G \ {avoid}` without materializing the modified graph.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn run_avoiding(&mut self, g: &WeightedCsrGraph, source: Vertex, avoid: Edge) {
        self.run_impl(g, source, Some(avoid));
    }

    fn run_impl(&mut self, g: &WeightedCsrGraph, source: Vertex, avoid: Option<Edge>) {
        let n = g.vertex_count();
        assert!(source < n, "Dijkstra source {source} out of range (n = {n})");
        self.reset(n);
        self.source = source;
        let dist = &mut self.dist[..];
        let parent = &mut self.parent[..];
        let order = &mut self.order;
        let heap = &mut self.heap;
        dist[source] = 0;
        heap.push(Reverse((0, source as u32)));
        // The avoided-edge test is hoisted out of the hot loop, mirroring `BfsScratch`.
        match avoid {
            None => {
                while let Some(Reverse((d, v))) = heap.pop() {
                    let v = v as usize;
                    if d > dist[v] {
                        continue; // stale entry
                    }
                    order.push(v);
                    let (targets, weights) = g.neighbor_row(v);
                    for (&w, &wt) in targets.iter().zip(weights) {
                        let w = w as usize;
                        // A saturated sum equals INFINITE_WEIGHT and cannot pass the
                        // strict `<`, so the sentinel is never stored as a finite
                        // distance (see INFINITE_WEIGHT).
                        let nd = d.saturating_add(wt);
                        if nd < dist[w] {
                            dist[w] = nd;
                            parent[w] = Some(v);
                            heap.push(Reverse((nd, w as u32)));
                        }
                    }
                }
            }
            Some(e) => {
                let (lo, hi) = e.endpoints();
                while let Some(Reverse((d, v))) = heap.pop() {
                    let v = v as usize;
                    if d > dist[v] {
                        continue;
                    }
                    order.push(v);
                    let (targets, weights) = g.neighbor_row(v);
                    for (&w, &wt) in targets.iter().zip(weights) {
                        let w = w as usize;
                        if (v == lo && w == hi) || (v == hi && w == lo) {
                            continue;
                        }
                        let nd = d.saturating_add(wt);
                        if nd < dist[w] {
                            dist[w] = nd;
                            parent[w] = Some(v);
                            heap.push(Reverse((nd, w as u32)));
                        }
                    }
                }
            }
        }
    }

    /// The source of the last run.
    #[inline]
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Distances of the last run (`INFINITE_WEIGHT` for unreachable vertices).
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.dist
    }

    /// Shortest-path-tree predecessors of the last run (`None` for the source and
    /// unreachable vertices).
    #[inline]
    pub fn parent(&self) -> &[Option<Vertex>] {
        &self.parent
    }

    /// Settled vertices of the last run in settle order (source first, distances
    /// non-decreasing).
    #[inline]
    pub fn order(&self) -> &[Vertex] {
        &self.order
    }

    /// Clones the buffers of the last run into an owned [`DijkstraResult`].
    pub fn to_result(&self) -> DijkstraResult {
        DijkstraResult { dist: self.dist.clone(), pred: self.parent.clone(), source: self.source }
    }

    /// Moves the buffers of the last run into an owned [`DijkstraResult`] without copying.
    pub fn into_result(self) -> DijkstraResult {
        DijkstraResult { dist: self.dist, pred: self.parent, source: self.source }
    }
}

/// A rooted Dijkstra shortest-path tree of a weighted graph. Its distance (sum of weights)
/// and its depth (edges on the canonical path) differ, so it stores a hop depth per vertex.
///
/// ```
/// use msrp_graph::{Edge, WeightedGraph, WeightedTree};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = WeightedGraph::from_edges(4, &[(0, 1, 5), (1, 2, 5), (0, 3, 1), (3, 2, 2)])?;
/// let t = WeightedTree::build(&g.freeze(), 0);
/// assert_eq!(t.distance(2), Some(3));
/// assert_eq!(t.depth(2), 2);
/// assert!(t.path_contains_edge(2, Edge::new(0, 3)));
/// assert!(!t.path_contains_edge(2, Edge::new(0, 1)));
/// # Ok(())
/// # }
/// ```
pub type WeightedTree = CanonicalTree<Weighted>;

impl WeightedTree {
    /// Builds the Dijkstra tree rooted at `source` (deterministic: sorted adjacency order,
    /// min-heap ties broken towards smaller vertex ids).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build(g: &WeightedCsrGraph, source: Vertex) -> Self {
        let mut scratch = DijkstraScratch::new();
        Self::build_with_scratch(g, source, &mut scratch)
    }

    /// Builds the Dijkstra tree rooted at `source` reusing the caller's scratch buffers —
    /// the preferred entry point when many trees are built over the same graph.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn build_with_scratch(
        g: &WeightedCsrGraph,
        source: Vertex,
        scratch: &mut DijkstraScratch,
    ) -> Self {
        scratch.run(g, source);
        Self::from_raw(
            source,
            scratch.dist().to_vec(),
            scratch.parent().iter().map(|p| p.map_or(NO_PARENT, |p| p as u32)).collect(),
            scratch.order().iter().map(|&v| v as u32).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weighted square with a shortcut: the cheap route 0→3→2 undercuts the hop-short 0→1→2.
    fn sample() -> WeightedGraph {
        WeightedGraph::from_edges(5, &[(0, 1, 5), (1, 2, 5), (0, 3, 1), (3, 2, 2), (2, 4, 1)])
            .unwrap()
    }

    #[test]
    fn construction_and_queries() {
        let g = sample();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(0, 2), None);
        assert_eq!(g.edge_weight(0, 99), None);
        assert!(g.has_edge(3, 2));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[(1, 5), (3, 1)]);
        let edges = g.edge_vec();
        assert_eq!(edges.len(), 5);
        assert_eq!(edges[0], (Edge::new(0, 1), 5));
    }

    #[test]
    fn invalid_edges_are_rejected() {
        let mut g = WeightedGraph::new(3);
        assert!(matches!(g.add_edge(0, 3, 1), Err(GraphError::VertexOutOfRange { .. })));
        assert!(matches!(g.add_edge(1, 1, 1), Err(GraphError::SelfLoop { .. })));
        g.add_edge(0, 1, 2).unwrap();
        assert!(matches!(g.add_edge(1, 0, 9), Err(GraphError::DuplicateEdge { .. })));
        assert!(matches!(
            g.add_edge(1, 2, INFINITE_WEIGHT),
            Err(GraphError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn freeze_thaw_round_trips_exactly() {
        let g = sample();
        let csr = g.freeze();
        assert_eq!(csr.vertex_count(), g.vertex_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.edge_vec(), g.edge_vec());
        assert_eq!(csr.thaw(), g);
        for v in 0..g.vertex_count() {
            assert_eq!(csr.degree(v), g.degree(v));
            assert_eq!(csr.neighbors(v).collect::<Vec<_>>(), g.neighbors(v));
        }
        assert_eq!(csr.edge_weight(2, 3), Some(2));
        assert_eq!(csr.edge_weight(2, 7), None);
        let empty = WeightedGraph::new(0);
        assert_eq!(empty.freeze().thaw(), empty);
        assert_eq!(WeightedCsrGraph::default(), WeightedGraph::new(0).freeze());
    }

    #[test]
    fn topology_forgets_weights() {
        let g = sample();
        let t = g.topology();
        assert_eq!(t.edge_count(), g.edge_count());
        assert!(t.has_edge(0, 3));
        let relifted = WeightedGraph::from_graph(&t, |_| 7);
        assert_eq!(relifted.edge_weight(0, 3), Some(7));
    }

    #[test]
    fn dijkstra_takes_the_cheap_route() {
        let g = sample().freeze();
        assert!(g.is_connected());
        let r = g.dijkstra(0);
        assert_eq!(r.dist, vec![0, 5, 3, 1, 4]);
        assert_eq!(r.path_to(4), Some(vec![0, 3, 2, 4]));
    }

    #[test]
    fn scratch_matches_one_shot_and_resets_cleanly() {
        let g = sample().freeze();
        let mut scratch = DijkstraScratch::new();
        for s in 0..g.vertex_count() {
            scratch.run(&g, s);
            let fresh = g.dijkstra(s);
            assert_eq!(scratch.source(), s);
            assert_eq!(scratch.dist(), &fresh.dist[..], "source {s}");
            assert_eq!(scratch.parent(), &fresh.pred[..], "source {s}");
            assert_eq!(scratch.to_result().dist, fresh.dist);
        }
        // Settle order starts at the source with non-decreasing distances.
        scratch.run(&g, 0);
        assert_eq!(scratch.order()[0], 0);
        let dists: Vec<Weight> = scratch.order().iter().map(|&v| scratch.dist()[v]).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        // Reuse across graphs of different sizes forces a full re-init.
        let small = WeightedGraph::from_edges(2, &[(0, 1, 3)]).unwrap().freeze();
        scratch.run(&small, 1);
        assert_eq!(scratch.dist(), &[3, 0]);
        scratch.run(&g, 0);
        assert_eq!(scratch.dist(), &[0, 5, 3, 1, 4]);
    }

    #[test]
    fn avoiding_runs_reset_stale_entries() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap().freeze();
        let mut scratch = DijkstraScratch::new();
        scratch.run_avoiding(&g, 0, Edge::new(1, 2));
        assert_eq!(scratch.dist()[1], 1);
        assert_eq!(scratch.dist()[3], INFINITE_WEIGHT);
        scratch.run(&g, 0);
        assert_eq!(scratch.dist(), &[0, 1, 2, 3]);
        assert_eq!(scratch.parent()[3], Some(2));
        let one_shot = g.dijkstra_avoiding_edge(0, Edge::new(1, 2));
        assert_eq!(one_shot.dist[3], INFINITE_WEIGHT);
        assert_eq!(one_shot.dist[1], 1);
    }

    #[test]
    fn unit_weights_reproduce_bfs_distances() {
        let topo = crate::generators::grid_graph(4, 4);
        let weighted = WeightedGraph::from_graph(&topo, |_| 1).freeze();
        let bfs = crate::bfs::bfs(&topo, 0);
        let dj = weighted.dijkstra(0);
        for v in 0..16 {
            assert_eq!(dj.dist[v], bfs.dist[v] as Weight);
        }
        // The trees are bit-for-bit identical too: same sorted-adjacency tie-breaking.
        assert_eq!(dj.pred, bfs.parent);
    }

    #[test]
    fn weighted_tree_annotations() {
        let g = sample().freeze();
        let t = WeightedTree::build(&g, 0);
        assert_eq!(t.source(), 0);
        assert_eq!(t.vertex_count(), 5);
        assert_eq!(t.distance(4), Some(4));
        assert_eq!(t.depth(4), 3);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.parent(4), Some(2));
        assert_eq!(t.path_from_source(4), Some(vec![0, 3, 2, 4]));
        assert_eq!(t.path_edges(4), vec![Edge::new(0, 3), Edge::new(3, 2), Edge::new(2, 4)]);
        assert!(t.is_ancestor(3, 4));
        assert!(!t.is_ancestor(1, 4));
        assert!(t.path_contains_vertex(4, 2));
        assert!(t.is_tree_edge(Edge::new(0, 3)));
        assert!(!t.is_tree_edge(Edge::new(1, 2)));
        assert_eq!(t.edge_position_on_path(4, Edge::new(3, 2)), Some(1));
        assert_eq!(t.edge_position_on_path(4, Edge::new(0, 1)), None);
        assert_eq!(t.deeper_endpoint(Edge::new(0, 3)), Some(3));
        assert_eq!(t.order()[0], 0);
        assert_eq!(t.distances()[3], 1);
        assert_eq!(t.distance_or_infinite(3), 1);
    }

    #[test]
    fn weighted_tree_handles_unreachable_vertices() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2), (2, 3, 2)]).unwrap().freeze();
        assert!(!g.is_connected());
        let t = WeightedTree::build(&g, 0);
        assert_eq!(t.distance(2), None);
        assert_eq!(t.distance_or_infinite(2), INFINITE_WEIGHT);
        assert!(!t.is_reachable(3));
        assert_eq!(t.depth(2), 0);
        assert_eq!(t.path_from_source(2), None);
        assert!(t.path_edges(3).is_empty());
        assert!(!t.path_contains_edge(2, Edge::new(2, 3)));
        assert!(!t.is_ancestor(0, 2));
        assert!(t.is_ancestor(2, 2));
    }

    #[test]
    fn zero_weight_edges_settle_parents_first() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]).unwrap().freeze();
        let t = WeightedTree::build(&g, 0);
        assert_eq!(t.distance(3), Some(0));
        assert_eq!(t.depth(3), 3);
        assert_eq!(t.path_from_source(3), Some(vec![0, 1, 2, 3]));
    }

    /// The graph set of the preorder and raw-constructor tests.
    fn preorder_graphs() -> [WeightedCsrGraph; 5] {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(43);
        [
            sample().freeze(),
            // Zero weights: every distance ties at 0, so the tree shape comes from the
            // settle order alone.
            WeightedGraph::from_graph(&crate::generators::grid_graph(4, 5), |_| 0).freeze(),
            crate::generators::random_weights(
                &crate::generators::gnm(50, 60, &mut rng).unwrap(),
                3,
                &mut rng,
            )
            .freeze(),
            // Unreachable vertices, including isolated ones.
            WeightedGraph::from_edges(7, &[(0, 1, 2), (1, 2, 0), (0, 2, 2), (4, 5, 1)])
                .unwrap()
                .freeze(),
            WeightedGraph::new(1).freeze(),
        ]
    }

    #[test]
    fn preorder_intervals_match_an_explicit_dfs() {
        for g in &preorder_graphs() {
            for s in [0, g.vertex_count() / 2, g.vertex_count() - 1] {
                let t = WeightedTree::build(g, s);
                let derived: Vec<_> =
                    (0..g.vertex_count()).map(|v| t.preorder_interval(v)).collect();
                let reference =
                    crate::tree::tests::reference_preorder(s, t.order(), t.parents_raw());
                assert_eq!(derived, reference, "s={s}");
            }
        }
    }

    #[test]
    fn raw_constructor_matches_the_scratch_buffers() {
        // `from_parts` adopts the u32 form of the scratch's buffers; read back, it must
        // give the scratch's own parents and order, and the preorder of an explicit DFS.
        let mut scratch = DijkstraScratch::new();
        for g in &preorder_graphs() {
            for s in [0, g.vertex_count() / 2, g.vertex_count() - 1] {
                let t = WeightedTree::build_with_scratch(g, s, &mut scratch);
                for v in 0..g.vertex_count() {
                    assert_eq!(t.parent(v), scratch.parent()[v], "s={s} v={v}");
                }
                let order: Vec<Vertex> = t.order().iter().map(|&v| v as Vertex).collect();
                assert_eq!(order, scratch.order(), "s={s}");
                let reference =
                    crate::tree::tests::reference_preorder(s, t.order(), t.parents_raw());
                for (v, &interval) in reference.iter().enumerate() {
                    assert_eq!(t.preorder_interval(v), interval, "s={s} v={v}");
                }
                assert_eq!(g.dijkstra(s).pred, scratch.parent(), "s={s}");
                assert_eq!(t, WeightedTree::build(g, s), "s={s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = WeightedGraph::new(2).freeze();
        let mut scratch = DijkstraScratch::new();
        scratch.run(&g, 5);
    }
}
