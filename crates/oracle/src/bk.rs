//! The Bernstein–Karger single-fault preprocessing: one multi-seed subtree search per
//! tree-edge cut, replacing the one-BFS-per-tree-edge brute force of
//! [`build_exact`](ReplacementPathOracle::build_exact).
//!
//! # The pipeline
//!
//! For each source `s` with BFS tree `T_s`:
//!
//! 1. **Number** `T_s` in preorder ([`ShortestPathTree::preorder_interval`]), so every
//!    subtree is a contiguous interval of positions.
//! 2. **Visit every tree edge once**, in preorder. The edge above `c` — the tree edge
//!    `e = (p, c)` with `p = parent(c)` — separates the subtree `C = desc(c)` from the rest of
//!    the tree, and the targets whose canonical path uses `e` are exactly the members of `C`.
//! 3. **Solve one cut, not one graph.** For `t ∈ C`, every `s–t` path in `G \ e` decomposes at
//!    its *last* entry into `C`: a prefix from `s` to some `x ∉ C` (whose canonical distance
//!    survives, because canonical paths of non-descendants never use `e`), one crossing edge
//!    `{x, y} ≠ e`, and a suffix inside `G[C]`. Therefore
//!
//!    ```text
//!    d_{G\e}(s, t) = min_{y ∈ C} [ seed(y) + d_{G[C]}(y, t) ],
//!    seed(y) = min { d(s, x) + 1 : {x, y} ∈ E, x ∉ C, {x, y} ≠ e }
//!    ```
//!
//!    which one multi-seed BFS over the subtree slice computes exactly.
//!
//! The tables this fills are the rows of [`SourceReplacementDistances`], indexed by
//! the canonical-path position of the avoided edge, so `QUERY(s, t, e)` stays the same `O(1)`
//! lookup the rest of the workspace already serves. The answers are **bit-for-bit identical**
//! to `build_exact`'s: both store the exact distance `d_{G\e}(s, t)`, a unique number — the
//! differential suite (`tests/bk_differential.rs`) pins this on every seeded workload family.
//!
//! # The kernel
//!
//! Each source is first relabelled into **preorder-local coordinates**
//! ([`BkScratch::prepare`], one `O(n + m)` pass): vertices become preorder positions, so the subtree below position `pc` is the interval `[pc, pc + size)` and
//! membership is `x − pc < size` (one wrapping subtraction); each adjacency row is
//! stored in positions and ordered by depth, shallowest first. A cut then runs:
//!
//! 1. **Seeds.** Every neighbour of `y` has depth `≥ d(y) − 1`, so with depth-ordered
//!    rows the first crossing neighbour gives `seed(y)` and ends the scan. A seed equal
//!    to `d(y)` is final — no replacement path is shorter than the original — and
//!    when every vertex is final the cut is done without a search.
//! 2. **Pull.** Each remaining (*open*) vertex may also enter from a final neighbour
//!    inside the subtree; the first one in its depth-ordered row is the best.
//! 3. **Merged search.** The open vertices are counting-sorted by value (spread at most
//!    `|C| + 1`) and merged with a FIFO of relaxed vertices. FIFO values never decrease,
//!    so only a sorted entry can be stale, and final vertices are never relaxed.
//!
//! Tentative distances live in a slice indexed by `x − pc` that each cut overwrites in
//! full, so no reset list is kept.
//!
//! # Cost
//!
//! Processing the edge above `c` touches `O(|C| + m(C))` words, where `m(C)` counts edges
//! with an endpoint in `C` — and only the open vertices' rows in full. Summed over all
//! tree edges this is `O(Σ_t depth(t) + Σ_{{u,v} ∈ E} (depth(u) + depth(v)))` —
//! output-sensitive, and `O((n + m) · log n)`-ish on the shallow trees of the random
//! workloads — versus the brute force's `Θ(n · m)` per source (one full BFS per tree
//! edge). `BENCH_bk.json` records the measured gap.
//!
//! Bernstein and Karger charge their per-path tables to a heavy-path cover; this kernel
//! needs none, because a cut's cost does not depend on the order the cuts run in.

use msrp_graph::{
    bfs_trees_wave, CsrGraph, Distance, Graph, MultiBfsScratch, ShortestPathTree, Vertex,
    INFINITE_DISTANCE,
};
use msrp_obs::{timed, NoProfiler, Profiler, StageProfile};
use msrp_rpath::SourceReplacementDistances;

use crate::ReplacementPathOracle;

/// Stage labels of the profiled BK pipeline (see
/// [`build_bk_csr_profiled`](ReplacementPathOracle::build_bk_csr_profiled)): BFS tree
/// construction, the per-source relabel into preorder positions, replacement-table
/// allocation, the per-cut multi-seed BFS solves, and the shard merge. The relabel stage
/// keeps its historical name `"cover"`, which the benchmark harness reads.
pub const BK_STAGES: [&str; 5] = ["tree", "cover", "rows", "cuts", "merge"];

/// Sentinel position: "no vertex" (never equal to a real preorder position).
const NONE: u32 = u32::MAX;

/// Reusable buffers for the Bernstein–Karger per-cut searches, in **preorder-local
/// coordinates**.
///
/// [`prepare`](Self::prepare) runs once per source: it relabels the source's reachable
/// vertices by their tree preorder position and stores, indexed by position, the vertex,
/// its tree depth, its subtree size and its adjacency rewritten as positions, each row
/// ordered by depth. The subtree below position `pc` is then the position interval
/// `[pc, pc + size[pc])`, so every cut's membership test is one wrapping subtraction and
/// one compare, and its tentative distances live in a slice indexed by `x − pc` that the
/// cut overwrites in full (no reset list).
///
/// One scratch serves every cut of every source, over graphs of any size, so the whole
/// [`build_bk`](ReplacementPathOracle::build_bk) construction performs no per-cut
/// allocation (mirroring what [`MultiBfsScratch`] does for `build_exact`).
#[derive(Clone, Debug, Default)]
pub struct BkScratch {
    /// Root of the tree the per-source arrays describe (`None` before the first prepare).
    root: Option<Vertex>,
    /// Preorder position of each vertex (`NONE` for unreachable vertices).
    pos: Vec<u32>,
    /// The vertex at each position (the inverse of `pos`).
    vert: Vec<Vertex>,
    /// Tree depth (distance from the root) per position.
    depth: Vec<Distance>,
    /// Subtree size per position.
    size: Vec<u32>,
    /// The source's adjacency in positions, each row shallowest first: row `i` is
    /// `adj[off[i]..off[i + 1]]`.
    off: Vec<u32>,
    adj: Vec<u32>,
    /// Tentative distances of the current cut, indexed by `x − pc`.
    dist: Vec<Distance>,
    /// Counting-sort bucket starts over the open values of the current cut.
    count: Vec<u32>,
    /// Vertices (`x − pc`) of the current cut whose seed is above their depth (not final).
    open: Vec<u32>,
    /// `(value, x − pc)` of the current cut's open vertices with a finite value, ascending.
    seeds: Vec<(Distance, u32)>,
    /// FIFO of vertices (`x − pc`) relaxed during the current cut's search.
    fifo: Vec<u32>,
}

impl BkScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-source relabel: one `O(n + m)` pass mapping the reachable part of `g` into
    /// the preorder positions of `tree`. Every cut of this source reads only what this pass
    /// stores, so it must run (again) before the cuts of any other source.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not a tree over `g`'s vertex set.
    pub fn prepare(&mut self, g: &CsrGraph, tree: &ShortestPathTree) {
        let n = g.vertex_count();
        assert_eq!(tree.vertex_count(), n, "tree and graph disagree on the vertex count");
        let r = tree.bfs_order().len();
        self.pos.clear();
        self.pos.resize(n, NONE);
        self.vert.resize(r, 0);
        self.depth.resize(r, 0);
        self.size.resize(r, 0);
        let dists = tree.distances();
        for &v in tree.bfs_order() {
            let (pre, size) = tree.preorder_interval(v).expect("settled vertices are reachable");
            self.pos[v] = pre as u32;
            self.vert[pre] = v;
            self.depth[pre] = dists[v];
            self.size[pre] = size as u32;
        }
        self.off.clear();
        self.adj.clear();
        self.off.push(0);
        let pos = &self.pos;
        for &v in &self.vert {
            let dv = dists[v];
            // A reachable vertex's neighbours are reachable (so every position is real) and
            // have depth dv − 1, dv or dv + 1: counting-sort the row into those three
            // classes, shallowest first, so a cut's seed scan can stop at the first
            // crossing neighbour.
            let row = g.neighbor_row(v);
            let start = self.adj.len();
            self.adj.resize(start + row.len(), 0);
            let class = |x: u32| (dists[x as usize] + 1 - dv) as usize;
            let mut at = [0usize; 3];
            for &x in row {
                at[class(x)] += 1;
            }
            let mut next = [start, start + at[0], start + at[0] + at[1]];
            for &x in row {
                let k = class(x);
                self.adj[next[k]] = pos[x as usize];
                next[k] += 1;
            }
            self.off.push(self.adj.len() as u32);
        }
        // The root's subtree is the largest cut a search can see.
        self.dist.resize(r, INFINITE_DISTANCE);
        self.count.resize(r + 3, 0);
        self.root = Some(tree.source());
    }

    /// Runs the multi-seed BFS for the cut below the tree edge from position `pp` to its
    /// child `pc`, leaving `self.dist[t − pc] = d_{G\(p,c)}(s, t)` for every position `t`
    /// of the subtree — `INFINITE_DISTANCE` throughout when no crossing edge exists (the
    /// failed edge is a bridge and the whole subtree is disconnected).
    fn run_cut(&mut self, pc: u32, pp: u32) {
        let (sz, base) = (self.size[pc as usize], pc as usize);
        let (off, adj, pos_depth) = (&self.off, &self.adj, &self.depth);
        let row =
            |l: u32| &adj[off[base + l as usize] as usize..off[base + l as usize + 1] as usize];
        let depth = &pos_depth[base..base + sz as usize];
        let dist = &mut self.dist[..sz as usize];
        // Pass 1: seed every subtree vertex from its crossing edges. A neighbour x
        // contributes when it lies outside the subtree (its canonical distance survives the
        // failure) via an edge other than the failed one; `{p, c}` is the only *tree* edge
        // crossing the cut, so the exclusion is exactly that single pair. Rows are sorted
        // by depth, so the first such neighbour gives the seed. A seed equal to the depth
        // is final (no replacement path is shorter than the original); the rest are open.
        self.open.clear();
        for l in 0..sz {
            let skip = if l == 0 { pp } else { NONE };
            let crossing = row(l).iter().find(|&&x| x.wrapping_sub(pc) >= sz && x != skip);
            let s = crossing.map_or(INFINITE_DISTANCE, |&x| pos_depth[x as usize] + 1);
            dist[l as usize] = s;
            if s != depth[l as usize] {
                self.open.push(l);
            }
        }
        // Pass 2: an open vertex can also enter from a final neighbour inside the
        // subtree; the shallowest one (first in the sorted row) is the best entry.
        let (mut lo, mut hi) = (INFINITE_DISTANCE, 0);
        for &l in &self.open {
            let entry = row(l)
                .iter()
                .map(|&x| x.wrapping_sub(pc))
                .find(|&w| w < sz && dist[w as usize] == depth[w as usize]);
            let d = &mut dist[l as usize];
            if let Some(w) = entry {
                *d = (*d).min(depth[w as usize] + 1);
            }
            if *d != INFINITE_DISTANCE {
                lo = lo.min(*d);
                hi = hi.max(*d);
            }
        }
        // Nothing open (every vertex final), or nothing open is reachable at all (the
        // bridge case: the distances are already all infinite).
        if lo == INFINITE_DISTANCE {
            return;
        }
        // Pass 3: counting-sort the open vertices by value. Values lie in [d(y), d(y) + 2]
        // and depths in the subtree in [d(c), d(c) + sz − 1], so the spread is at most
        // sz + 1.
        let range = (hi - lo) as usize + 1;
        let count = &mut self.count[..range + 1];
        count.fill(0);
        for &l in &self.open {
            let d = dist[l as usize];
            if d != INFINITE_DISTANCE {
                count[(d - lo) as usize + 1] += 1;
            }
        }
        for b in 0..range {
            count[b + 1] += count[b];
        }
        self.seeds.clear();
        self.seeds.resize(count[range] as usize, (0, 0));
        for &l in &self.open {
            let d = dist[l as usize];
            if d != INFINITE_DISTANCE {
                let slot = &mut count[(d - lo) as usize];
                self.seeds[*slot as usize] = (d, l);
                *slot += 1;
            }
        }
        // Pass 4: BFS over the open vertices, merging the sorted seeds with a FIFO of
        // relaxed vertices. FIFO values never decrease and each is final when pushed, so
        // only a seed entry can be stale (its vertex was since relaxed below the seed).
        // Final vertices are never relaxed: `dv + 1 < depth` is impossible.
        self.fifo.clear();
        let (mut si, mut fi) = (0, 0);
        loop {
            let (v, dv) = match (self.fifo.get(fi), self.seeds.get(si)) {
                (Some(&f), seed) if seed.is_none_or(|&(s, _)| dist[f as usize] <= s) => {
                    fi += 1;
                    (f, dist[f as usize])
                }
                (_, Some(&(s, y))) => {
                    si += 1;
                    if dist[y as usize] < s {
                        continue; // stale: y was relaxed below its seed
                    }
                    (y, s)
                }
                (_, None) => break,
            };
            for &x in row(v) {
                let l = x.wrapping_sub(pc);
                if l < sz && dv + 1 < dist[l as usize] {
                    dist[l as usize] = dv + 1;
                    self.fifo.push(l);
                }
            }
        }
    }
}

/// Solves the single cut below tree edge `(p, c)` and writes its column of `out`: entry
/// `(t, dist(c) - 1)` for every `t` in the subtree of `c`, `INFINITE_DISTANCE` when the cut
/// is a bridge. Writes are unconditional, so the helper serves both fresh construction
/// (entries start infinite) and the incremental patcher (entries may hold a stale finite
/// value from the previous epoch).
///
/// `scratch` must have been [prepared](BkScratch::prepare) for this `tree`.
pub(crate) fn solve_cut_into(
    tree: &ShortestPathTree,
    scratch: &mut BkScratch,
    out: &mut SourceReplacementDistances,
    p: Vertex,
    c: Vertex,
) {
    debug_assert_eq!(scratch.root, Some(tree.source()), "scratch prepared for another tree");
    debug_assert_eq!(scratch.vert.len(), tree.bfs_order().len());
    let (pc, pp) = (scratch.pos[c], scratch.pos[p]);
    scratch.run_cut(pc, pp);
    let col = tree.distance_or_infinite(c) as usize - 1;
    let (pc, sz) = (pc as usize, scratch.size[pc as usize] as usize);
    for (&t, &d) in scratch.vert[pc..pc + sz].iter().zip(&scratch.dist) {
        out.set(t, col, d);
    }
}

/// The Bernstein–Karger replacement table for one source: solves every tree-edge cut, in
/// preorder, with one multi-seed subtree BFS, filling the same row layout the brute force
/// fills — exactly (see the module docs for the identity).
///
/// The tree must be a BFS tree of `g`. Exposed (rather than private to
/// [`build_bk`](ReplacementPathOracle::build_bk)) so the differential suite and experiment
/// E10 can compare rows against `single_source_brute_force_csr` with `==`.
///
/// # Panics
///
/// Panics if `tree` is not a tree over `g`'s vertex set.
pub fn bk_replacement_distances(
    g: &CsrGraph,
    tree: &ShortestPathTree,
    scratch: &mut BkScratch,
) -> SourceReplacementDistances {
    scratch.prepare(g, tree);
    prepared_replacement_distances(tree, scratch, &mut NoProfiler)
}

/// The body of [`bk_replacement_distances`] once `scratch` is prepared for `tree`, with
/// per-stage wall time charged to `profiler` (`"rows"` once, `"cuts"` once for all of this
/// source's cuts). Instantiated with [`NoProfiler`] the timing calls compile away, so the
/// public un-profiled entry point pays nothing.
fn prepared_replacement_distances<P: Profiler>(
    tree: &ShortestPathTree,
    scratch: &mut BkScratch,
    profiler: &mut P,
) -> SourceReplacementDistances {
    let mut out = timed(profiler, "rows", || SourceReplacementDistances::new(tree));
    timed(profiler, "cuts", || {
        // Position 0 is the root, which has no edge above it.
        for pc in 1..scratch.vert.len() {
            let c = scratch.vert[pc];
            let p = tree.parent(c).expect("a non-root vertex has a parent");
            solve_cut_into(tree, scratch, &mut out, p, c);
        }
    });
    out
}

impl ReplacementPathOracle {
    /// Builds the oracle with the real Bernstein–Karger preprocessing: one multi-seed
    /// subtree BFS per tree-edge cut of every source tree,
    /// instead of [`build_exact`](Self::build_exact)'s full BFS per tree edge. Answers are
    /// bit-for-bit identical to `build_exact`'s (pinned by `tests/bk_differential.rs`);
    /// only the construction cost differs. Freezes `g` once.
    ///
    /// ```
    /// use msrp_graph::{generators::cycle_graph, Edge};
    /// use msrp_oracle::ReplacementPathOracle;
    ///
    /// let g = cycle_graph(8);
    /// let oracle = ReplacementPathOracle::build_bk(&g, &[0, 4]);
    /// assert_eq!(oracle.replacement_distance(0, 3, Edge::new(1, 2)), Some(5));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as [`build_exact`](Self::build_exact) (an out-of-range
    /// source).
    pub fn build_bk(g: &Graph, sources: &[Vertex]) -> Self {
        Self::build_bk_csr(&g.freeze(), sources)
    }

    /// CSR entry point of [`build_bk`](Self::build_bk): the source trees are built in
    /// 64-way bit-parallel waves through one shared [`MultiBfsScratch`] and every cut runs
    /// through one shared [`BkScratch`], so the whole construction performs no per-cut
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range for `g`.
    pub fn build_bk_csr(g: &CsrGraph, sources: &[Vertex]) -> Self {
        Self::build_bk_csr_impl(g, sources, &mut NoProfiler)
    }

    /// Profiled variant of [`build_bk_csr`](Self::build_bk_csr): bit-identical output,
    /// with per-stage wall time (`"tree"` BFS trees, `"cover"` the per-source relabel into
    /// preorder positions, `"rows"` table allocation, `"cuts"` the multi-seed cut BFS
    /// solves — timed once per source, not per cut) accumulated into `profile`. Experiment
    /// E12 builds its build-phase tables from this.
    ///
    /// # Panics
    ///
    /// Same as [`build_bk_csr`](Self::build_bk_csr).
    pub fn build_bk_csr_profiled(
        g: &CsrGraph,
        sources: &[Vertex],
        profile: &mut StageProfile,
    ) -> Self {
        Self::build_bk_csr_impl(g, sources, profile)
    }

    fn build_bk_csr_impl<P: Profiler>(g: &CsrGraph, sources: &[Vertex], profiler: &mut P) -> Self {
        let mut wave = MultiBfsScratch::new();
        let mut scratch = BkScratch::new();
        // All source trees come from 64-way bit-parallel waves (bit-identical to the
        // per-source `BfsScratch` route); the "tree" stage is charged once per wave batch.
        let trees = timed(profiler, "tree", || bfs_trees_wave(g, sources, &mut wave));
        let distances = trees
            .iter()
            .map(|t| {
                timed(profiler, "cover", || scratch.prepare(g, t));
                prepared_replacement_distances(t, &mut scratch, profiler)
            })
            .collect();
        Self::from_parts(sources.to_vec(), trees, distances)
    }
}

/// Builds one Bernstein–Karger oracle per shard, in parallel (one scoped worker per shard
/// over the caller's graph, frozen once) — the BK mirror of [`build_shards`](crate::build_shards),
/// consumed by `msrp-serve`'s `ShardedOracle::build_bk_csr`.
///
/// `threads == 0` is treated as 1 (built inline); thread counts above σ are clamped to σ.
///
/// # Panics
///
/// Panics on the inputs [`ReplacementPathOracle::build_bk`] rejects, and if a worker thread
/// panics.
pub fn build_bk_shards(
    g: &Graph,
    sources: &[Vertex],
    threads: usize,
) -> Vec<ReplacementPathOracle> {
    build_bk_shards_csr(&g.freeze(), sources, threads)
}

/// CSR entry point of [`build_bk_shards`]: every scoped worker traverses the same frozen
/// view through a shared reference.
///
/// # Panics
///
/// Same as [`build_bk_shards`].
pub fn build_bk_shards_csr(
    g: &CsrGraph,
    sources: &[Vertex],
    threads: usize,
) -> Vec<ReplacementPathOracle> {
    let threads = threads.max(1).min(sources.len().max(1));
    if threads == 1 {
        return vec![ReplacementPathOracle::build_bk_csr(g, sources)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = crate::shard_sources(sources, threads)
            .into_iter()
            .map(|chunk| scope.spawn(move || ReplacementPathOracle::build_bk_csr(g, chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle shard worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph, path_graph, star_graph};
    use msrp_graph::Edge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rows_match_brute_force(g: &Graph, s: Vertex) {
        let csr = g.freeze();
        let tree = ShortestPathTree::build_csr(&csr, s);
        let mut scratch = BkScratch::new();
        let bk = bk_replacement_distances(&csr, &tree, &mut scratch);
        let brute = msrp_rpath::single_source_brute_force_csr(&csr, &tree);
        assert_eq!(bk, brute, "source {s}");
    }

    #[test]
    fn bk_rows_equal_brute_force_on_small_families() {
        for g in [cycle_graph(9), path_graph(7), star_graph(6), grid_graph(4, 5)] {
            for s in 0..g.vertex_count().min(4) {
                rows_match_brute_force(&g, s);
            }
        }
    }

    #[test]
    fn bk_rows_equal_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = connected_gnm(40, 95, &mut rng).unwrap();
        for s in [0, 13, 39] {
            rows_match_brute_force(&g, s);
        }
    }

    #[test]
    fn bk_rows_equal_brute_force_on_disconnected_graphs() {
        // Two components plus isolated vertices; cuts inside one component must never leak
        // distances into the other.
        let g = Graph::from_edges(
            12,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (6, 7), (7, 8), (8, 6)],
        )
        .unwrap();
        for s in [0, 4, 6, 9] {
            rows_match_brute_force(&g, s);
        }
    }

    #[test]
    fn bk_oracle_matches_exact_oracle_queries() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnm(26, 60, &mut rng).unwrap();
        let sources = [0usize, 9, 20];
        let bk = ReplacementPathOracle::build_bk(&g, &sources);
        let exact = ReplacementPathOracle::build_exact(&g, &sources);
        assert_eq!(bk.per_source(), exact.per_source());
        for &s in &sources {
            for t in 0..g.vertex_count() {
                for e in g.edges() {
                    assert_eq!(
                        bk.replacement_distance(s, t, e),
                        exact.replacement_distance(s, t, e),
                        "s={s} t={t} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn bk_reports_bridges_as_infinite() {
        let g = path_graph(6);
        let oracle = ReplacementPathOracle::build_bk(&g, &[0]);
        for t in 1..6 {
            for i in 0..t {
                let e = Edge::new(i, i + 1);
                assert_eq!(oracle.replacement_distance(0, t, e), Some(INFINITE_DISTANCE));
            }
        }
    }

    #[test]
    fn bk_shards_agree_with_the_unsharded_build() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = connected_gnm(30, 72, &mut rng).unwrap();
        let sources = [0usize, 6, 12, 18, 24];
        let whole = ReplacementPathOracle::build_bk(&g, &sources);
        for threads in [0usize, 1, 2, 5, 16] {
            let shards = build_bk_shards(&g, &sources, threads);
            let merged = ReplacementPathOracle::from_shards(shards);
            assert_eq!(merged.sources(), &sources);
            assert_eq!(merged.per_source(), whole.per_source(), "threads={threads}");
        }
    }

    #[test]
    fn profiled_build_is_bit_identical_and_covers_the_pipeline() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = connected_gnm(36, 80, &mut rng).unwrap();
        let csr = g.freeze();
        let sources = [0usize, 11, 22, 33];
        let plain = ReplacementPathOracle::build_bk_csr(&csr, &sources);
        let mut profile = StageProfile::new();
        let profiled = ReplacementPathOracle::build_bk_csr_profiled(&csr, &sources, &mut profile);
        assert_eq!(plain.per_source(), profiled.per_source());
        // Trees are batched into 64-way waves (one timed call covers all four sources
        // here); every other stage fires once per source — "cuts" times a source's whole
        // cut loop, not each cut, so the clock reads stay out of the kernel.
        assert_eq!(profile.get("tree").unwrap().count, 1);
        for stage in ["cover", "rows", "cuts"] {
            assert_eq!(profile.get(stage).unwrap().count, sources.len() as u64, "{stage}");
        }
        assert!(profile.total() > std::time::Duration::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scratch prepared for another tree")]
    fn cut_on_a_scratch_prepared_for_another_source_is_caught() {
        let csr = grid_graph(3, 3).freeze();
        let (t0, t8) = (ShortestPathTree::build_csr(&csr, 0), ShortestPathTree::build_csr(&csr, 8));
        let mut scratch = BkScratch::new();
        scratch.prepare(&csr, &t0);
        let mut out = SourceReplacementDistances::new(&t8);
        solve_cut_into(&t8, &mut scratch, &mut out, 8, 7);
    }

    #[test]
    fn shared_scratch_is_clean_across_cuts_and_sources() {
        // Re-running a second source through the same scratch must not see stale state
        // from the first (each cut overwrites its whole local slice).
        let g = grid_graph(5, 5);
        let csr = g.freeze();
        let mut scratch = BkScratch::new();
        let mut rows = Vec::new();
        for s in [0usize, 12, 24] {
            let tree = ShortestPathTree::build_csr(&csr, s);
            rows.push(bk_replacement_distances(&csr, &tree, &mut scratch));
        }
        for (i, &s) in [0usize, 12, 24].iter().enumerate() {
            let tree = ShortestPathTree::build_csr(&csr, s);
            assert_eq!(rows[i], msrp_rpath::single_source_brute_force_csr(&csr, &tree));
        }
    }
}
