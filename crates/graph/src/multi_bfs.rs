//! Bit-parallel multi-source BFS: up to 64 searches per machine word.
//!
//! Every oracle construction in this workspace runs *batches* of BFS over the same frozen
//! [`CsrGraph`]: one per source for the shortest-path trees, one per tree edge for the
//! brute-force comparator. Those searches are independent, so [`MultiBfsScratch`] packs up
//! to [`WAVE_LANES`] of them into the bit lanes of a `u64` and advances them together:
//!
//! * three *bit planes* (`frontier`, `next`, `visited`), one word per vertex, lane `k` of
//!   word `v` meaning "search `k` has reached `v`";
//! * expansion ORs each active vertex's frontier word into the `next` word of every
//!   neighbour — one row scan serves all 64 lanes, which is where the win comes from: the
//!   lanes share every cache miss on the row and on the plane;
//! * a settle pass masks out already-visited bits, records distances for the freshly set
//!   ones, and builds the next active list, so work stays proportional to the touched
//!   vertices instead of `O(n)` per level.
//!
//! The kernel produces *distances only*. BFS distances are unique, so each lane's distance
//! plane is trivially bit-identical to a [`BfsScratch`](crate::BfsScratch) run — but the
//! canonical tree's `parent`/`order` are not derivable from distances for free (the parent
//! rule minimizes the frontier *position*, not the vertex id). When
//! trees are needed, [`bfs_trees_wave`] reruns a cheap *guided* pass per lane over the
//! finished distance plane: `w` is adopted by the first in-order vertex `v` with
//! `dist[w] == dist[v] + 1`, which reproduces the top-down parent/order exactly (first in
//! order ⇔ minimum frontier position).
//!
//! The avoiding variant [`MultiBfsScratch::run_avoiding_wave`] runs 64 *single-source*
//! searches that share one source but each exclude a different edge — exactly the shape of
//! the brute-force replacement-path loop (one BFS per tree edge), which consumes only the
//! distances and therefore inherits bit-identity outright.

use crate::csr::{CsrGraph, NO_PARENT};
use crate::distance::{Distance, INFINITE_DISTANCE};
use crate::edge::Edge;
use crate::graph::Vertex;
use crate::tree::ShortestPathTree;

/// Number of parallel searches per wave: the bit width of the plane words.
pub const WAVE_LANES: usize = 64;

/// Reusable buffers for bit-parallel multi-source BFS (see the module docs for the plane
/// layout). One scratch serves any number of waves over graphs of any size.
///
/// ```
/// use msrp_graph::{bfs_csr, generators::grid_graph, MultiBfsScratch};
///
/// let csr = grid_graph(5, 5).freeze();
/// let sources = [0usize, 7, 12, 24];
/// let mut wave = MultiBfsScratch::new();
/// wave.run_wave(&csr, &sources);
/// for (lane, &s) in sources.iter().enumerate() {
///     // Each lane's distances equal a sequential BFS from that lane's source.
///     assert_eq!(wave.lane_dist_vec(lane), bfs_csr(&csr, s).dist);
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct MultiBfsScratch {
    /// Current-level plane: bit `k` of word `v` ⇔ search `k`'s frontier holds `v`.
    frontier: Vec<u64>,
    /// Next-level accumulator plane (scattered into during expansion, drained by settle).
    next: Vec<u64>,
    /// Visited plane: bit `k` of word `v` ⇔ search `k` has discovered `v`.
    visited: Vec<u64>,
    /// Vertices with a nonzero frontier word (the level's work list).
    active: Vec<u32>,
    /// Vertices whose `next` word the expansion touched (settle candidates).
    touched: Vec<u32>,
    /// Distances, vertex-major: `dist[v * lanes + k]` is lane `k`'s distance to `v` (the
    /// settle pass then writes all lanes of a vertex into one or two cache lines).
    dist: Vec<Distance>,
    /// `(v, w, lane bits)` triples of the avoided edges, both orientations.
    avoid_pairs: Vec<(u32, u32, u64)>,
    /// Per-vertex "is an avoided-edge endpoint" flag, so the expansion's hot loop pays the
    /// mask lookup only on the handful of flagged rows.
    avoid_flag: Vec<bool>,
    /// The vertices currently flagged (the reset list for `avoid_flag`).
    avoid_flagged: Vec<u32>,
    lanes: usize,
    n: usize,
}

impl MultiBfsScratch {
    /// Creates an empty scratch; planes are sized on the first wave.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes of the last wave (the length of `sources`/`avoided` it ran with).
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Number of vertices of the graph the last wave ran over.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Distance of lane `lane` to vertex `v` (`INFINITE_DISTANCE` when unreached).
    #[inline]
    pub fn lane_dist(&self, lane: usize, v: Vertex) -> Distance {
        debug_assert!(lane < self.lanes);
        self.dist[v * self.lanes + lane]
    }

    /// The full distance vector of lane `lane`, in vertex order — directly comparable to
    /// [`BfsScratch::dist`](crate::BfsScratch::dist) of the corresponding sequential run.
    pub fn lane_dist_vec(&self, lane: usize) -> Vec<Distance> {
        assert!(lane < self.lanes, "lane {lane} out of range ({} lanes)", self.lanes);
        (0..self.n).map(|v| self.dist[v * self.lanes + lane]).collect()
    }

    fn reset(&mut self, n: usize, lanes: usize) {
        self.n = n;
        self.lanes = lanes;
        self.frontier.clear();
        self.frontier.resize(n, 0);
        self.next.clear();
        self.next.resize(n, 0);
        self.visited.clear();
        self.visited.resize(n, 0);
        self.active.clear();
        self.touched.clear();
        self.dist.clear();
        self.dist.resize(n * lanes, INFINITE_DISTANCE);
        for &v in &self.avoid_flagged {
            self.avoid_flag[v as usize] = false;
        }
        self.avoid_flagged.clear();
        self.avoid_pairs.clear();
    }

    /// Runs one wave of up to [`WAVE_LANES`] independent BFS searches, lane `k` rooted at
    /// `sources[k]` (duplicates allowed). Lane `k`'s distances afterwards equal a
    /// sequential BFS from `sources[k]`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, longer than [`WAVE_LANES`], or contains an
    /// out-of-range vertex.
    pub fn run_wave(&mut self, g: &CsrGraph, sources: &[Vertex]) {
        let n = g.vertex_count();
        assert!(
            !sources.is_empty() && sources.len() <= WAVE_LANES,
            "a wave takes 1..={WAVE_LANES} sources, got {}",
            sources.len()
        );
        self.reset(n, sources.len());
        for (k, &s) in sources.iter().enumerate() {
            assert!(s < n, "BFS source {s} out of range (n = {n})");
            let bit = 1u64 << k;
            self.dist[s * self.lanes + k] = 0;
            if self.frontier[s] == 0 {
                self.active.push(s as u32);
            }
            self.frontier[s] |= bit;
            self.visited[s] |= bit;
        }
        self.propagate::<false>(g);
    }

    /// Runs one wave of up to [`WAVE_LANES`] searches sharing the source `source`, lane `k`
    /// avoiding the edge `avoided[k]` — the batched form of
    /// [`BfsScratch::run_avoiding`](crate::BfsScratch::run_avoiding), one lane per avoided
    /// edge. Edges that are absent from the graph (including edges with out-of-range
    /// endpoints) simply never mask anything, matching the sequential kernel's semantics.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `avoided` is empty or longer than
    /// [`WAVE_LANES`].
    pub fn run_avoiding_wave(&mut self, g: &CsrGraph, source: Vertex, avoided: &[Edge]) {
        let n = g.vertex_count();
        assert!(source < n, "BFS source {source} out of range (n = {n})");
        assert!(
            !avoided.is_empty() && avoided.len() <= WAVE_LANES,
            "a wave takes 1..={WAVE_LANES} avoided edges, got {}",
            avoided.len()
        );
        self.reset(n, avoided.len());
        if self.avoid_flag.len() != n {
            self.avoid_flag.clear();
            self.avoid_flag.resize(n, false);
        }
        for (k, &e) in avoided.iter().enumerate() {
            let (lo, hi) = e.endpoints();
            // Endpoints are normalized (lo < hi), so `hi < n` means both are real vertices;
            // anything else can never match a CSR row entry and needs no mask.
            if hi < n {
                let bit = 1u64 << k;
                self.avoid_pairs.push((lo as u32, hi as u32, bit));
                self.avoid_pairs.push((hi as u32, lo as u32, bit));
                for v in [lo, hi] {
                    if !self.avoid_flag[v] {
                        self.avoid_flag[v] = true;
                        self.avoid_flagged.push(v as u32);
                    }
                }
            }
        }
        let all = if self.lanes == WAVE_LANES { u64::MAX } else { (1u64 << self.lanes) - 1 };
        for k in 0..self.lanes {
            self.dist[source * self.lanes + k] = 0;
        }
        self.frontier[source] = all;
        self.visited[source] = all;
        self.active.push(source as u32);
        self.propagate::<true>(g);
    }

    fn propagate<const AVOID: bool>(&mut self, g: &CsrGraph) {
        let lanes = self.lanes;
        let mut level: Distance = 0;
        while !self.active.is_empty() {
            level += 1;
            let MultiBfsScratch {
                frontier,
                next,
                visited,
                active,
                touched,
                dist,
                avoid_pairs,
                avoid_flag,
                ..
            } = self;
            touched.clear();
            for &v in active.iter() {
                let vu = v as usize;
                let f = frontier[vu];
                if AVOID && avoid_flag[vu] {
                    // Slow path, taken only for the ≤ 2·lanes flagged endpoints: mask the
                    // lanes whose avoided edge is exactly (v, w).
                    for &w in g.neighbor_row(vu) {
                        let wu = w as usize;
                        let mut mask = 0u64;
                        for &(a, b, m) in avoid_pairs.iter() {
                            if a == v && b == w {
                                mask |= m;
                            }
                        }
                        let bits = f & !mask;
                        if bits != 0 {
                            if next[wu] == 0 {
                                touched.push(w);
                            }
                            next[wu] |= bits;
                        }
                    }
                } else {
                    for &w in g.neighbor_row(vu) {
                        let wu = w as usize;
                        if next[wu] == 0 {
                            touched.push(w);
                        }
                        next[wu] |= f;
                    }
                }
            }
            for &v in active.iter() {
                frontier[v as usize] = 0;
            }
            active.clear();
            // Settle: keep the first-discovery bits, record their distances, and promote
            // the touched vertices that actually advanced into the new frontier.
            for &w in touched.iter() {
                let wu = w as usize;
                let fresh = next[wu] & !visited[wu];
                next[wu] = 0;
                if fresh != 0 {
                    visited[wu] |= fresh;
                    frontier[wu] = fresh;
                    active.push(w);
                    let row = &mut dist[wu * lanes..(wu + 1) * lanes];
                    let mut bits = fresh;
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        row[k] = level;
                    }
                }
            }
        }
    }
}

/// Builds the shortest-path trees of `sources` in 64-source waves: one
/// [`MultiBfsScratch::run_wave`] per chunk for the distance planes, then one guided
/// reconstruction pass per lane for the canonical `parent`/`order` (see the module docs for
/// why the pass reproduces the top-down rule exactly). The trees are bit-identical to
/// [`ShortestPathTree::build_with_scratch`] per source — the oracle differential suites pin
/// this through every construction route.
///
/// # Panics
///
/// Panics if a source is out of range.
pub fn bfs_trees_wave(
    g: &CsrGraph,
    sources: &[Vertex],
    wave: &mut MultiBfsScratch,
) -> Vec<ShortestPathTree> {
    let mut trees = Vec::with_capacity(sources.len());
    for chunk in sources.chunks(WAVE_LANES) {
        wave.run_wave(g, chunk);
        for (lane, &s) in chunk.iter().enumerate() {
            trees.push(tree_from_lane(g, s, wave, lane));
        }
    }
    trees
}

/// The guided pass: reconstructs the canonical BFS tree of lane `lane` from its finished
/// distance plane. Processing vertices in discovery order and adopting each `w` with
/// `dist[w] == dist[v] + 1` on first touch makes `parent(w)` the minimum-position frontier
/// neighbour and the append order per-parent grouped, ascending id within a group — the two
/// invariants of the top-down kernel.
fn tree_from_lane(
    g: &CsrGraph,
    source: Vertex,
    wave: &MultiBfsScratch,
    lane: usize,
) -> ShortestPathTree {
    let n = g.vertex_count();
    let dist = wave.lane_dist_vec(lane);
    let mut parent: Vec<u32> = vec![NO_PARENT; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    order.push(source as u32);
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        let next_level = dist[v as usize] + 1;
        for &w in g.neighbor_row(v as usize) {
            let wu = w as usize;
            if dist[wu] == next_level && parent[wu] == NO_PARENT {
                parent[wu] = v;
                order.push(w);
            }
        }
    }
    ShortestPathTree::from_raw(source, dist, parent, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::BfsScratch;
    use crate::generators::{cycle_graph, grid_graph, star_graph};
    use crate::graph::Graph;

    #[test]
    fn wave_distances_match_sequential_runs_per_lane() {
        let g = grid_graph(6, 7);
        let csr = g.freeze();
        let sources: Vec<Vertex> = (0..csr.vertex_count()).step_by(3).collect();
        let mut wave = MultiBfsScratch::new();
        let mut seq = BfsScratch::new();
        for chunk in sources.chunks(WAVE_LANES) {
            wave.run_wave(&csr, chunk);
            assert_eq!(wave.lane_count(), chunk.len());
            for (lane, &s) in chunk.iter().enumerate() {
                seq.run(&csr, s);
                assert_eq!(wave.lane_dist_vec(lane), seq.dist(), "lane {lane} source {s}");
            }
        }
    }

    #[test]
    fn avoiding_wave_matches_sequential_avoiding_runs() {
        let g = cycle_graph(17);
        let csr = g.freeze();
        let edges = csr.edge_vec();
        let mut wave = MultiBfsScratch::new();
        let mut seq = BfsScratch::new();
        for source in [0usize, 5, 16] {
            for chunk in edges.chunks(WAVE_LANES) {
                wave.run_avoiding_wave(&csr, source, chunk);
                for (lane, &e) in chunk.iter().enumerate() {
                    seq.run_avoiding(&csr, source, e);
                    assert_eq!(wave.lane_dist_vec(lane), seq.dist(), "s={source} e={e}");
                }
            }
        }
    }

    #[test]
    fn duplicate_sources_and_duplicate_avoided_edges_are_allowed() {
        let csr = star_graph(9).freeze();
        let mut wave = MultiBfsScratch::new();
        wave.run_wave(&csr, &[4, 4, 0]);
        assert_eq!(wave.lane_dist_vec(0), wave.lane_dist_vec(1));
        let e = Edge::new(0, 4);
        wave.run_avoiding_wave(&csr, 4, &[e, e]);
        assert_eq!(wave.lane_dist_vec(0), wave.lane_dist_vec(1));
        assert_eq!(wave.lane_dist(0, 0), INFINITE_DISTANCE, "the pendant edge is a bridge");
    }

    #[test]
    fn trees_from_waves_equal_per_source_scratch_trees() {
        let g = Graph::from_edges(
            10,
            &[(0, 1), (0, 2), (1, 4), (2, 3), (4, 5), (3, 5), (5, 6), (8, 9)],
        )
        .unwrap();
        let csr = g.freeze();
        let sources: Vec<Vertex> = (0..10).collect();
        let mut wave = MultiBfsScratch::new();
        let mut seq = BfsScratch::new();
        let trees = bfs_trees_wave(&csr, &sources, &mut wave);
        assert_eq!(trees.len(), sources.len());
        for (tree, &s) in trees.iter().zip(&sources) {
            let reference = ShortestPathTree::build_with_scratch(&csr, s, &mut seq);
            assert_eq!(tree.source(), reference.source());
            assert_eq!(tree.distances(), reference.distances(), "dist s={s}");
            assert_eq!(tree.order(), reference.order(), "order s={s}");
            for v in 0..10 {
                assert_eq!(tree.parent(v), reference.parent(v), "parent s={s} v={v}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_graph_sizes_and_variants_is_clean() {
        let big = grid_graph(5, 5).freeze();
        let small = cycle_graph(4).freeze();
        let mut wave = MultiBfsScratch::new();
        let mut seq = BfsScratch::new();
        wave.run_wave(&big, &[0, 24]);
        wave.run_avoiding_wave(&small, 0, &[Edge::new(0, 1)]);
        seq.run_avoiding(&small, 0, Edge::new(0, 1));
        assert_eq!(wave.lane_dist_vec(0), seq.dist());
        // A plain wave right after an avoiding one must not inherit stale masks.
        wave.run_wave(&small, &[0]);
        seq.run(&small, 0);
        assert_eq!(wave.lane_dist_vec(0), seq.dist());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_wave_source_panics() {
        let csr = Graph::new(3).freeze();
        MultiBfsScratch::new().run_wave(&csr, &[0, 7]);
    }

    #[test]
    #[should_panic(expected = "1..=64 sources")]
    fn empty_wave_panics() {
        let csr = Graph::new(3).freeze();
        MultiBfsScratch::new().run_wave(&csr, &[]);
    }
}
