//! The frozen compressed-sparse-row (CSR) traversal core.
//!
//! Every algorithm in this reproduction is BFS-dominated: shortest-path trees are BFS trees,
//! the solver's preprocessing runs one BFS per landmark and per center, and the brute-force
//! comparator runs one BFS per tree edge per source. [`Graph`] stores one heap-allocated
//! `Vec` per vertex, which is convenient for the mutating generators but pointer-chasing for
//! traversal. [`CsrGraph`] is the same graph *frozen* into two flat arrays:
//!
//! * `offsets[v]..offsets[v + 1]` delimits the neighbour row of `v` inside `targets`;
//! * `targets` concatenates all adjacency rows, each row in ascending vertex order.
//!
//! Freezing preserves the sorted-neighbour order of [`Graph`], so every BFS tree, every
//! canonical path, and every seeded experiment computed over the CSR view is bit-for-bit
//! identical to the seed representation — only the memory layout (and therefore the cache
//! behaviour) changes. [`CsrGraph::thaw`] converts back for the mutating generators.

use crate::distance::INFINITE_DISTANCE;
use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::{Graph, Vertex};

/// Sentinel entry of the flat parent arrays ([`BfsScratch::parent_raw`] and the sibling
/// kernels): the vertex has no BFS-tree parent, either because it is the source or because
/// it is unreachable. Chosen as `u32::MAX` so it can never collide with a vertex id (the
/// CSR substrate caps ids strictly below `u32::MAX`).
pub const NO_PARENT: u32 = u32::MAX;

/// Widens a flat sentinel-encoded parent array into the `Option<Vertex>` form the owned
/// [`BfsResult`](crate::BfsResult) stores (trees keep the flat form).
pub(crate) fn decode_parents(raw: &[u32]) -> Vec<Option<Vertex>> {
    raw.iter().map(|&p| if p == NO_PARENT { None } else { Some(p as Vertex) }).collect()
}

/// An immutable, cache-friendly CSR snapshot of a [`Graph`].
///
/// ```
/// use msrp_graph::{bfs, bfs_csr, Graph};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// let csr = g.freeze();
/// assert_eq!(csr.vertex_count(), 4);
/// assert_eq!(csr.degree(1), 2);
/// assert!(csr.has_edge(3, 0));
/// // Traversals agree bit-for-bit with the adjacency-list representation.
/// assert_eq!(bfs_csr(&csr, 0), bfs(&g, 0));
/// // And thawing round-trips exactly.
/// assert_eq!(csr.thaw(), g);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` is the row of `v` in `targets`; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbour rows (length `2m`), each row sorted ascending.
    targets: Vec<u32>,
    /// Number of undirected edges (`targets.len() / 2`, cached).
    edge_count: usize,
}

impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph { offsets: vec![0], targets: Vec::new(), edge_count: 0 }
    }
}

impl CsrGraph {
    /// Builds the CSR arrays from sorted adjacency rows (the freeze half of the round trip).
    pub(crate) fn from_sorted_adj(adj: &[Vec<Vertex>], edge_count: usize) -> Self {
        let n = adj.len();
        assert!(n < u32::MAX as usize, "CSR vertex ids are u32");
        let total: usize = adj.iter().map(Vec::len).sum();
        assert!(total <= u32::MAX as usize, "CSR offsets are u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(total);
        offsets.push(0u32);
        for row in adj {
            targets.extend(row.iter().map(|&w| w as u32));
            offsets.push(targets.len() as u32);
        }
        CsrGraph { offsets, targets, edge_count }
    }

    /// Rebuilds a frozen graph from raw CSR arrays, validating every structural invariant
    /// the freeze path guarantees: `offsets` starts at 0, is monotone, and ends at
    /// `targets.len()`; every target id is in range; each neighbour row is strictly
    /// ascending (sorted, no duplicates, no self-loops); and each undirected edge appears
    /// as exactly two arcs. `edge_count` is recomputed, so a graph built here is
    /// indistinguishable from one built by [`Graph::freeze`] — this is the trust boundary
    /// the snapshot loader (`msrp-snap`) adopts decoded buffers through.
    pub fn from_raw_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Result<Self, GraphError> {
        let malformed = |reason: String| GraphError::MalformedCsr { reason };
        if offsets.is_empty() {
            return Err(malformed("offsets array is empty (need at least [0])".into()));
        }
        let n = offsets.len() - 1;
        if n >= u32::MAX as usize {
            return Err(malformed(format!("{n} vertices overflow u32 vertex ids")));
        }
        if offsets[0] != 0 {
            return Err(malformed(format!("offsets[0] is {}, not 0", offsets[0])));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed("offsets are not monotone non-decreasing".into()));
        }
        if offsets[n] as usize != targets.len() {
            return Err(malformed(format!(
                "offsets end at {} but there are {} arcs",
                offsets[n],
                targets.len()
            )));
        }
        if !targets.len().is_multiple_of(2) {
            return Err(malformed(format!(
                "odd arc count {} cannot pair into undirected edges",
                targets.len()
            )));
        }
        for v in 0..n {
            let row = &targets[offsets[v] as usize..offsets[v + 1] as usize];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(malformed(format!("row of vertex {v} is not strictly ascending")));
            }
            if row.iter().any(|&t| t as usize >= n || t as usize == v) {
                return Err(malformed(format!("row of vertex {v} has an invalid target id")));
            }
        }
        let edge_count = targets.len() / 2;
        let graph = CsrGraph { offsets, targets, edge_count };
        // Arc symmetry: every arc u→v must have its reverse v→u. Rows are sorted, so each
        // check is one binary search; O(m log d) total, paid once at adoption time.
        for u in 0..n {
            for &v in &graph.targets[graph.offsets[u] as usize..graph.offsets[u + 1] as usize] {
                let vr = graph.neighbor_row(v as usize);
                if vr.binary_search(&(u as u32)).is_err() {
                    return Err(malformed(format!("arc {u}->{v} has no reverse arc")));
                }
            }
        }
        Ok(graph)
    }

    /// Decomposes into the raw `(offsets, targets)` arrays (crate-internal: the weighted
    /// validator reuses the unweighted one without copying the arrays back out).
    pub(crate) fn into_raw_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.targets)
    }

    /// The raw offsets array (`n + 1` words; row `v` is `offsets[v]..offsets[v + 1]`).
    ///
    /// Exposed (read-only) so serializers can persist the frozen layout verbatim; the
    /// inverse is [`from_raw_parts`](Self::from_raw_parts).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbour rows (length `2m`, each row sorted ascending).
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
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

    /// The raw CSR row of `v`: its neighbours as `u32`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_row(&self, v: Vertex) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The neighbours of `v` in ascending order (same order as [`Graph::neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.neighbor_row(v).iter().map(|&w| w as Vertex)
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

    /// Returns `true` when the edge `{u, v}` is present (binary search of the smaller row).
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let n = self.vertex_count();
        if u >= n || v >= n {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbor_row(a).binary_search(&(b as u32)).is_ok()
    }

    /// Iterates over all edges, each reported once in normalized order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbor_row(u)
                .iter()
                .filter(move |&&v| u < v as usize)
                .map(move |&v| Edge::new(u, v as usize))
        })
    }

    /// Collects all edges into a vector (normalized, sorted order).
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Returns `true` when every vertex is reachable from vertex 0 (vacuously true when empty).
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
            for w in self.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Average degree `2m / n` (0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.vertex_count() as f64
        }
    }

    /// Converts back to the mutable adjacency-list representation (the thaw half of the
    /// round trip). `g.freeze().thaw() == g` exactly, because both representations keep
    /// neighbour rows sorted.
    pub fn thaw(&self) -> Graph {
        let adj: Vec<Vec<Vertex>> = self.vertices().map(|v| self.neighbors(v).collect()).collect();
        Graph::from_sorted_adj_parts(adj, self.edge_count)
    }
}

/// Reusable BFS buffers: distances, parents and the queue/visit order, reset in `O(visited)`
/// between runs instead of reallocated.
///
/// The `build_exact` edge-removal loop and the `msrp-rpath` brute force run one BFS per tree
/// edge; with a scratch they stop paying three `Vec` allocations (and an `O(n)` fill) per BFS.
/// The queue itself doubles as the visit order, so resetting only touches the entries the
/// previous run actually wrote.
///
/// ```
/// use msrp_graph::{bfs, BfsScratch, Graph};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])?;
/// let csr = g.freeze();
/// let mut scratch = BfsScratch::new();
/// for s in 0..5 {
///     scratch.run(&csr, s);
///     assert_eq!(scratch.to_result(), bfs(&g, s));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    dist: Vec<crate::distance::Distance>,
    /// Flat sentinel-encoded parents (`NO_PARENT` = none): 4 bytes per entry instead of the
    /// 16 bytes of `Option<Vertex>`, and the hot loop writes a plain `u32` store.
    parent: Vec<u32>,
    /// The BFS queue; after a run it holds the reachable vertices in dequeue order.
    order: Vec<Vertex>,
    source: Vertex,
}

impl BfsScratch {
    /// Creates an empty scratch; buffers are sized lazily on the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the buffers for a graph with `n` vertices in `O(visited)` (full `O(n)` init only
    /// when the vertex count changes).
    fn reset(&mut self, n: usize) {
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, INFINITE_DISTANCE);
            self.parent.clear();
            self.parent.resize(n, NO_PARENT);
            self.order.clear();
            self.order.reserve(n);
        } else {
            for &v in &self.order {
                self.dist[v] = INFINITE_DISTANCE;
                self.parent[v] = NO_PARENT;
            }
            self.order.clear();
        }
    }

    /// Runs BFS from `source` over the CSR graph, visiting neighbours in ascending order
    /// (bit-for-bit the same trees as [`bfs`](crate::bfs())).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn run(&mut self, g: &CsrGraph, source: Vertex) {
        self.run_impl(g, source, None);
    }

    /// Runs BFS from `source` in `G \ {avoid}` without materializing the modified graph.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn run_avoiding(&mut self, g: &CsrGraph, source: Vertex, avoid: Edge) {
        self.run_impl(g, source, Some(avoid));
    }

    fn run_impl(&mut self, g: &CsrGraph, source: Vertex, avoid: Option<Edge>) {
        let n = g.vertex_count();
        assert!(source < n, "BFS source {source} out of range (n = {n})");
        self.reset(n);
        self.source = source;
        // Disjoint borrows of the three buffers, so the hot loop's loads and stores carry
        // noalias information (matching what the local-variable seed kernel gets for free).
        let dist = &mut self.dist[..];
        let parent = &mut self.parent[..];
        let order = &mut self.order;
        dist[source] = 0;
        order.push(source);
        let mut head = 0;
        // The avoided-edge test is hoisted out of the hot loop: the plain kernel pays no
        // per-neighbour branch, and the avoiding kernel tests the single forbidden pair.
        match avoid {
            None => {
                while head < order.len() {
                    let v = order[head];
                    head += 1;
                    let dv = dist[v];
                    for &w in g.neighbor_row(v) {
                        let w = w as usize;
                        if dist[w] == INFINITE_DISTANCE {
                            dist[w] = dv + 1;
                            parent[w] = v as u32;
                            order.push(w);
                        }
                    }
                }
            }
            Some(e) => {
                let (lo, hi) = e.endpoints();
                while head < order.len() {
                    let v = order[head];
                    head += 1;
                    let dv = dist[v];
                    for &w in g.neighbor_row(v) {
                        let w = w as usize;
                        if (v == lo && w == hi) || (v == hi && w == lo) {
                            continue;
                        }
                        if dist[w] == INFINITE_DISTANCE {
                            dist[w] = dv + 1;
                            parent[w] = v as u32;
                            order.push(w);
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

    /// Distances of the last run (`INFINITE_DISTANCE` for unreachable vertices).
    #[inline]
    pub fn dist(&self) -> &[crate::distance::Distance] {
        &self.dist
    }

    /// The flat sentinel-encoded parent array of the last run: `parent_raw()[v]` is the
    /// BFS-tree parent of `v` as a `u32`, or [`NO_PARENT`] for the source and unreachable
    /// vertices. This is the kernel's native representation; consumers that loop over many
    /// entries (oracle row construction) avoid the `Option` branch per read.
    #[inline]
    pub fn parent_raw(&self) -> &[u32] {
        &self.parent
    }

    /// BFS-tree parent of `v` (`None` for the source and unreachable vertices) — the
    /// `Option` view of one [`parent_raw`](Self::parent_raw) entry.
    #[inline]
    pub fn parent_of(&self, v: Vertex) -> Option<Vertex> {
        let p = self.parent[v];
        if p == NO_PARENT {
            None
        } else {
            Some(p as Vertex)
        }
    }

    /// Reachable vertices of the last run in dequeue order (source first).
    #[inline]
    pub fn order(&self) -> &[Vertex] {
        &self.order
    }

    /// Clones the buffers of the last run into an owned [`BfsResult`](crate::BfsResult)
    /// (widening the sentinel-encoded parents back to `Option<Vertex>`).
    pub fn to_result(&self) -> crate::BfsResult {
        crate::BfsResult {
            source: self.source,
            dist: self.dist.clone(),
            parent: decode_parents(&self.parent),
            order: self.order.clone(),
        }
    }

    /// Moves the buffers of the last run into an owned [`BfsResult`](crate::BfsResult)
    /// (for one-shot searches that do not reuse the scratch; the parent array is widened,
    /// the other buffers move without copying).
    pub fn into_result(self) -> crate::BfsResult {
        crate::BfsResult {
            source: self.source,
            parent: decode_parents(&self.parent),
            dist: self.dist,
            order: self.order,
        }
    }
}

/// Runs BFS from `source` over the CSR graph (one-shot; allocates fresh buffers).
///
/// For repeated searches prefer a shared [`BfsScratch`].
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_csr(g: &CsrGraph, source: Vertex) -> crate::BfsResult {
    let mut scratch = BfsScratch::new();
    scratch.run(g, source);
    scratch.into_result()
}

/// Runs BFS from `source` in `G \ {avoid}` over the CSR graph (one-shot).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_csr_avoiding_edge(g: &CsrGraph, source: Vertex, avoid: Edge) -> crate::BfsResult {
    let mut scratch = BfsScratch::new();
    scratch.run_avoiding(g, source, avoid);
    scratch.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{bfs, bfs_avoiding_edge};

    fn sample() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (2, 5)]).unwrap()
    }

    #[test]
    fn freeze_preserves_counts_rows_and_queries() {
        let g = sample();
        let csr = g.freeze();
        assert_eq!(csr.vertex_count(), g.vertex_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.average_degree(), g.average_degree());
        assert_eq!(csr.is_connected(), g.is_connected());
        assert_eq!(csr.edge_vec(), g.edge_vec());
        for v in g.vertices() {
            assert_eq!(csr.degree(v), g.degree(v));
            assert_eq!(csr.neighbors(v).collect::<Vec<_>>(), g.neighbors(v));
        }
        for u in 0..7 {
            for v in 0..7 {
                if u != v {
                    assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn thaw_round_trips_exactly() {
        let g = sample();
        assert_eq!(g.freeze().thaw(), g);
        let empty = Graph::new(0);
        assert_eq!(empty.freeze().thaw(), empty);
        let isolated = Graph::new(3);
        assert_eq!(isolated.freeze().thaw(), isolated);
    }

    #[test]
    fn default_is_the_empty_graph() {
        let csr = CsrGraph::default();
        assert_eq!(csr.vertex_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.is_connected());
        assert_eq!(csr.average_degree(), 0.0);
        assert_eq!(csr, Graph::new(0).freeze());
    }

    #[test]
    fn csr_bfs_matches_seed_bfs_bit_for_bit() {
        let g = sample();
        let csr = g.freeze();
        for s in g.vertices() {
            assert_eq!(bfs_csr(&csr, s), bfs(&g, s), "source {s}");
        }
        for e in g.edges() {
            assert_eq!(bfs_csr_avoiding_edge(&csr, 0, e), bfs_avoiding_edge(&g, 0, e), "{e}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let g = sample();
        let csr = g.freeze();
        let mut scratch = BfsScratch::new();
        for s in g.vertices() {
            scratch.run(&csr, s);
            let fresh = bfs(&g, s);
            assert_eq!(scratch.source(), s);
            assert_eq!(scratch.dist(), &fresh.dist[..]);
            assert_eq!(decode_parents(scratch.parent_raw()), fresh.parent);
            assert_eq!(scratch.order(), &fresh.order[..]);
            assert_eq!(scratch.to_result(), fresh);
        }
        // Reuse across graphs of different sizes forces a full re-init.
        let small = Graph::from_edges(2, &[(0, 1)]).unwrap().freeze();
        scratch.run(&small, 1);
        assert_eq!(scratch.dist(), &[1, 0]);
        scratch.run(&csr, 0);
        assert_eq!(scratch.to_result(), bfs(&g, 0));
    }

    #[test]
    fn scratch_resets_stale_entries_after_avoiding_runs() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let csr = g.freeze();
        let mut scratch = BfsScratch::new();
        scratch.run_avoiding(&csr, 0, Edge::new(1, 2));
        assert_eq!(scratch.dist()[3], INFINITE_DISTANCE);
        scratch.run(&csr, 0);
        assert_eq!(scratch.dist(), &[0, 1, 2, 3]);
        assert_eq!(scratch.parent_of(3), Some(2));
        assert_eq!(scratch.parent_raw()[3], 2);
    }

    #[test]
    fn raw_parents_convert_exactly_to_the_option_view() {
        // The sentinel-encoded flat array, the per-vertex Option view and the owned
        // BfsResult parents are three encodings of the same function.
        let g = sample();
        let csr = g.freeze();
        let mut scratch = BfsScratch::new();
        for s in g.vertices() {
            scratch.run(&csr, s);
            let result = scratch.to_result();
            assert_eq!(scratch.parent_raw().len(), g.vertex_count());
            for v in g.vertices() {
                assert_eq!(scratch.parent_of(v), result.parent[v], "s={s} v={v}");
                match result.parent[v] {
                    None => assert_eq!(scratch.parent_raw()[v], NO_PARENT),
                    Some(p) => assert_eq!(scratch.parent_raw()[v] as usize, p),
                }
            }
            assert_eq!(scratch.parent_of(s), None, "the source has no parent");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let csr = Graph::new(2).freeze();
        let mut scratch = BfsScratch::new();
        scratch.run(&csr, 5);
    }
}
