//! The Bernstein–Karger single-fault preprocessing: one multi-seed search per tree-edge
//! cut whose failure changes anything, replacing the one-BFS-per-tree-edge brute force of
//! [`build_exact`](ReplacementPathOracle::build_exact).
//!
//! # The pipeline
//!
//! For each source `s` with BFS tree `T_s`, the failure of the tree edge `e = (p, c)`
//! (`p = parent(c)`) can only lengthen the canonical paths that use it, i.e. those to the
//! subtree `desc(c)`; its table column holds one entry per member of that subtree. The
//! **BFS DAG** — every edge joining a vertex to a neighbour one level up — says which of
//! those entries change:
//!
//! * **`c` has two or more DAG parents.** `c` keeps `d(c)` through the other one, and so
//!   does every vertex below it: the whole column is the fault-free `d(t)`. No search.
//! * **`c` has exactly one DAG parent, `p`.** `d(t)` changes exactly when every shortest
//!   `s–t` path runs through `c`, i.e. when `c` **dominates** `t` in the DAG. Those `t`
//!   form `c`'s dominator subtree `D = D(c)`; every other vertex keeps its distance.
//!
//! So tables start at `d(t)` and only the dominator subtrees are searched. For `t ∈ D`,
//! every `s–t` path in `G \ e` decomposes at its *last* entry into `D`: a prefix from `s`
//! to some `x ∉ D` (whose distance survives), one crossing edge `{x, y} ≠ e`, and a suffix
//! inside `G[D]`. Therefore
//!
//! ```text
//! d_{G\e}(s, t) = min_{y ∈ D} [ seed(y) + d_{G[D]}(y, t) ],
//! seed(y) = min { d(s, x) + 1 : {x, y} ∈ E, x ∉ D, {x, y} ≠ e }
//! ```
//!
//! which one multi-seed BFS over `D` computes exactly.
//!
//! The tables this fills are the rows of [`SourceReplacementDistances`], indexed by
//! the canonical-path position of the avoided edge, so `QUERY(s, t, e)` stays the same `O(1)`
//! lookup the rest of the workspace already serves. The answers are **bit-for-bit identical**
//! to `build_exact`'s: both store the exact distance `d_{G\e}(s, t)`, a unique number — the
//! differential suite (`tests/bk_differential.rs`) pins this on every seeded workload family.
//!
//! # The kernel
//!
//! Each source is first relabelled into **dominator-tree preorder** ([`BkScratch::prepare`]).
//! One pass in BFS order reads each vertex's DAG parents (its neighbours one level up, all
//! settled before it) and takes their nearest common dominator as its immediate dominator:
//! the deeper of two candidates walks up the dominator tree until they meet, since a
//! dominator always sits at a smaller depth. Vertices then become dominator-tree preorder
//! positions, so `D(c)` is the interval `[pc, pc + |D|)` and membership is `x − pc < |D|`
//! (one wrapping subtraction); each adjacency row is stored in positions and ordered by
//! depth, shallowest first, so a vertex's DAG parents are its row's prefix. A cut then runs:
//!
//! 1. **Seeds.** Every neighbour of `y` has depth `≥ d(y) − 1`, so with depth-ordered
//!    rows the first neighbour outside the interval (skipping `p` for `y = c`) gives
//!    `seed(y)` and ends the scan. Every vertex of `D` is open: its distance grows.
//! 2. **Merged search.** The seeds are counting-sorted by value (spread at most
//!    `|D| + 1`) and merged with a FIFO of relaxed vertices. FIFO values never decrease,
//!    so only a sorted entry can be stale.
//!
//! Tentative distances live in a slice indexed by `x − pc` that each cut overwrites in
//! full, so no reset list is kept.
//!
//! # Cost
//!
//! The search of `D(c)` touches `O(|D| + m(D))` words, where `m(D)` counts edges with an
//! endpoint in `D`, and every member of `D` is an entry the failure changes. Summed over
//! all cuts this is `O(changed entries + their edges)`, plus the relabel's dominator walk,
//! `O(Σ_{{u,v} ∈ E} depth)` at worst and a few steps per edge on the shallow trees of the
//! random workloads — versus the brute force's `Θ(n · m)` per source (one full BFS per
//! tree edge). `BENCH_bk.json` and `BENCH_bk_dominators.json` record the measured gaps.
//!
//! Bernstein and Karger charge their per-path tables to a heavy-path cover; this kernel
//! needs none, because a cut's cost does not depend on the order the cuts run in.

use msrp_graph::{
    bfs_trees_wave, CsrGraph, Distance, MultiBfsScratch, ShortestPathTree, Vertex,
    INFINITE_DISTANCE,
};
use msrp_obs::{timed, NoProfiler, Profiler, StageProfile};
use msrp_rpath::SourceReplacementDistances;

use crate::ReplacementPathOracle;

/// Stage labels of the profiled BK pipeline (see
/// [`build_bk_csr_profiled`](ReplacementPathOracle::build_bk_csr_profiled)): BFS tree
/// construction, the per-source dominator relabel, replacement-table allocation, the
/// per-cut multi-seed BFS solves, and the shard merge. The relabel stage keeps its
/// historical name `"cover"`, which the benchmark harness reads.
pub const BK_STAGES: [&str; 5] = ["tree", "cover", "rows", "cuts", "merge"];

/// Sentinel position or vertex: "none" (never equal to a real one).
const NONE: u32 = u32::MAX;

/// Reusable buffers for the Bernstein–Karger per-cut searches, in **dominator-tree
/// preorder coordinates**.
///
/// [`prepare`](Self::prepare) runs once per source: it relabels the source's reachable
/// vertices by their preorder position in the dominator tree of the BFS DAG and stores,
/// indexed by position, the vertex, its tree depth, the length of the interval its cut
/// searches, and its adjacency rewritten as positions, each row ordered by depth. The
/// entries the cut above position `pc` changes are then the position interval
/// `[pc, pc + span[pc])`, so every membership test is one wrapping subtraction and one
/// compare, and the cut's tentative distances live in a slice indexed by `x − pc` that the
/// cut overwrites in full (no reset list).
///
/// One scratch serves every cut of every source, over graphs of any size, so the whole
/// [`build_bk`](ReplacementPathOracle::build_bk) construction performs no per-cut
/// allocation (mirroring what [`MultiBfsScratch`] does for `build_exact`).
#[derive(Clone, Debug, Default)]
pub struct BkScratch {
    /// Root of the tree the per-source arrays describe (`None` before the first prepare).
    root: Option<Vertex>,
    /// BFS rank (index in the tree's settle order) of each vertex (`NONE` if unreachable).
    rank: Vec<u32>,
    /// Per BFS rank, the rank of the immediate dominator in the BFS DAG (`NONE` at the
    /// root).
    idom: Vec<u32>,
    /// Per BFS rank, the dominator-tree child of the root above it (itself for such a
    /// child, the root for the root).
    top: Vec<u32>,
    /// Per BFS rank, during the relabel: the dominator-subtree size, then, once placed,
    /// the next free position for its dominator children.
    next: Vec<u32>,
    /// Dominator-tree preorder position of each vertex (`NONE` for unreachable vertices).
    pos: Vec<u32>,
    /// The vertex at each position (the inverse of `pos`).
    vert: Vec<Vertex>,
    /// Tree depth (distance from the root) per position.
    depth: Vec<Distance>,
    /// Per position, the number of entries the failure of the tree edge above it changes:
    /// its dominator-subtree size when it has exactly one DAG parent, else 0 (and 0 at the
    /// root, which has no edge above it).
    span: Vec<u32>,
    /// The source's adjacency in positions, each row shallowest first and stored in BFS
    /// order: the row of position `i` is `adj[rows[i].0..rows[i].1]`, and `off` holds the
    /// row bounds by BFS rank while the relabel runs.
    rows: Vec<(u32, u32)>,
    off: Vec<u32>,
    adj: Vec<u32>,
    /// Tentative distances of the current cut, indexed by `x − pc`.
    dist: Vec<Distance>,
    /// Counting-sort bucket starts over the seed values of the current cut.
    count: Vec<u32>,
    /// `(value, x − pc)` of the current cut's vertices with a finite seed, ascending.
    seeds: Vec<(Distance, u32)>,
    /// FIFO of vertices (`x − pc`) relaxed during the current cut's search.
    fifo: Vec<u32>,
}

impl BkScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-source relabel: one pass in BFS order finding every vertex's immediate
    /// dominator in the BFS DAG, then the dominator-tree preorder and the depth-ordered rows
    /// in positions. Every cut of this source reads only what this pass stores, so it must
    /// run (again) before the cuts of any other source.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not a BFS tree over `g`'s vertex set.
    pub fn prepare(&mut self, g: &CsrGraph, tree: &ShortestPathTree) {
        let n = g.vertex_count();
        assert_eq!(tree.vertex_count(), n, "tree and graph disagree on the vertex count");
        let (order, dists) = (tree.order(), tree.distances());
        let r = order.len();
        // Pass 1, in BFS order. A reachable vertex's neighbours are reachable and have
        // depth dv − 1, dv or dv + 1: counting-sort each row into those three classes,
        // shallowest first, so a cut's seed scan can stop at the first crossing neighbour.
        // The class-0 prefix is the vertex's DAG parents, all settled before it; its
        // immediate dominator is their nearest common dominator. Dominators are settled
        // before what they dominate, so two candidates meet by walking the later-settled
        // one up. Candidates below different children of the root meet at the root at
        // once, which on shallow trees is most meetings.
        self.rank.clear();
        self.rank.resize(n, NONE);
        for (i, &v) in (0..).zip(order) {
            self.rank[v as usize] = i;
        }
        assert!(
            order.windows(2).all(|w| dists[w[0] as usize] <= dists[w[1] as usize]),
            "the tree's settle order is not a BFS order"
        );
        self.idom.clear();
        self.idom.resize(r, NONE);
        self.top.resize(r, 0);
        self.off.clear();
        self.adj.clear();
        self.off.push(0);
        for (i, &v) in order.iter().enumerate() {
            let (v, dv) = (v as usize, dists[v as usize]);
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
                self.adj[next[k]] = x;
                next[k] += 1;
            }
            self.off.push(self.adj.len() as u32);
            let mut dom = NONE;
            for &x in &self.adj[start..start + at[0]] {
                let mut a = self.rank[x as usize];
                if dom != NONE && self.top[a as usize] != self.top[dom as usize] {
                    dom = 0;
                    break;
                }
                while dom != NONE && a != dom {
                    let (late, early) = if a > dom { (a, dom) } else { (dom, a) };
                    (a, dom) = (self.idom[late as usize], early);
                }
                dom = a;
            }
            self.idom[i] = dom;
            self.top[i] = match dom {
                NONE => 0,
                0 => i as u32,
                d => self.top[d as usize],
            };
        }
        // Dominator-subtree sizes, latest first, then preorder positions in BFS order:
        // each vertex takes the next free slot of its dominator, which was placed earlier.
        // A vertex has one DAG parent exactly when its dominator is one level up; only its
        // cut changes anything.
        self.next.clear();
        self.next.resize(r, 1);
        for i in (1..r).rev() {
            self.next[self.idom[i] as usize] += self.next[i];
        }
        self.pos.clear();
        self.pos.resize(n, NONE);
        self.vert.resize(r, 0);
        self.depth.resize(r, 0);
        self.span.resize(r, 0);
        self.rows.resize(r, (0, 0));
        for (i, &v) in order.iter().enumerate() {
            let (v, dv) = (v as usize, dists[v as usize]);
            let (at, span) = match self.idom[i] {
                NONE => (0, 0),
                d => {
                    let slot = self.next[d as usize];
                    self.next[d as usize] += self.next[i];
                    let single = dists[order[d as usize] as usize] + 1 == dv;
                    (slot, if single { self.next[i] } else { 0 })
                }
            };
            self.pos[v] = at;
            self.next[i] = at + 1;
            let at = at as usize;
            self.vert[at] = v;
            self.depth[at] = dv;
            self.span[at] = span;
            self.rows[at] = (self.off[i], self.off[i + 1]);
        }
        // The rows, stored in BFS order, now name positions.
        for x in &mut self.adj {
            *x = self.pos[*x as usize];
        }
        // The root's dominator subtree is the largest interval a search can see.
        self.dist.resize(r, INFINITE_DISTANCE);
        self.count.resize(r + 3, 0);
        self.root = Some(tree.source());
    }

    /// Runs the multi-seed BFS for the cut above position `pc`, leaving
    /// `self.dist[t − pc] = d_{G\(p,c)}(s, t)` for every position `t` of the interval
    /// `[pc, pc + span[pc])` — `INFINITE_DISTANCE` throughout when no crossing edge exists
    /// (the failed edge is a bridge and the whole interval is disconnected). An empty
    /// interval (a cut that changes nothing) returns at once.
    fn run_cut(&mut self, pc: u32) {
        let (sz, base) = (self.span[pc as usize], pc as usize);
        if sz == 0 {
            return;
        }
        let (rows, adj, pos_depth) = (&self.rows[base..], &self.adj, &self.depth);
        let row = |l: u32| {
            let (start, end) = rows[l as usize];
            &adj[start as usize..end as usize]
        };
        let dist = &mut self.dist[..sz as usize];
        // `c`'s single DAG parent is the first entry of its row.
        let pp = row(0)[0];
        // Pass 1: seed every interval vertex from its crossing edges. A neighbour x
        // contributes when it lies outside the interval (its distance survives the
        // failure) via an edge other than the failed one; `{p, c}` is the only DAG edge
        // into `c`, so the exclusion is exactly that single pair. Rows are sorted by depth,
        // so the first such neighbour gives the seed.
        let (mut lo, mut hi) = (INFINITE_DISTANCE, 0);
        for l in 0..sz {
            let skip = if l == 0 { pp } else { NONE };
            let crossing = row(l).iter().find(|&&x| x.wrapping_sub(pc) >= sz && x != skip);
            let s = crossing.map_or(INFINITE_DISTANCE, |&x| pos_depth[x as usize] + 1);
            dist[l as usize] = s;
            if s != INFINITE_DISTANCE {
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        // No crossing edge at all (the bridge case: the distances are already infinite).
        if lo == INFINITE_DISTANCE {
            return;
        }
        // Pass 2: counting-sort the seeded vertices by value. Values lie in
        // [d(y) + 1, d(y) + 2] and depths in the interval in [d(c), d(c) + sz − 1], so the
        // spread is at most sz + 1.
        let range = (hi - lo) as usize + 1;
        let count = &mut self.count[..range + 1];
        count.fill(0);
        for &d in dist.iter() {
            if d != INFINITE_DISTANCE {
                count[(d - lo) as usize + 1] += 1;
            }
        }
        for b in 0..range {
            count[b + 1] += count[b];
        }
        self.seeds.clear();
        self.seeds.resize(count[range] as usize, (0, 0));
        for (l, &d) in (0..).zip(dist.iter()) {
            if d != INFINITE_DISTANCE {
                let slot = &mut count[(d - lo) as usize];
                self.seeds[*slot as usize] = (d, l);
                *slot += 1;
            }
        }
        // Pass 3: BFS over the interval, merging the sorted seeds with a FIFO of relaxed
        // vertices. FIFO values never decrease and each is final when pushed, so only a
        // seed entry can be stale (its vertex was since relaxed below the seed).
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

/// Solves the cut below the tree edge `(parent(c), c)` and writes the entries it changes:
/// column `d(c) − 1` of every `t` that `c` dominates in the BFS DAG, `INFINITE_DISTANCE`
/// when the cut is a bridge. Every other entry of the column equals `d(t)` and is left
/// alone, so `out` must already hold `d(t)` there: fresh tables start fault-free, and the
/// incremental patcher resets a dirty column first. Returns the number of entries written.
///
/// `scratch` must have been [prepared](BkScratch::prepare) for this `tree`.
pub(crate) fn solve_cut_into(
    tree: &ShortestPathTree,
    scratch: &mut BkScratch,
    out: &mut SourceReplacementDistances,
    c: Vertex,
) -> usize {
    debug_assert_eq!(scratch.root, Some(tree.source()), "scratch prepared for another tree");
    debug_assert_eq!(scratch.vert.len(), tree.order().len());
    let pc = scratch.pos[c];
    scratch.run_cut(pc);
    let (pc, sz) = (pc as usize, scratch.span[pc as usize] as usize);
    let col = scratch.depth[pc] as usize - 1;
    for (&t, &d) in scratch.vert[pc..pc + sz].iter().zip(&scratch.dist) {
        out.set(t, col, d);
    }
    sz
}

/// The Bernstein–Karger replacement table for one source: solves every tree-edge cut
/// whose failure changes an entry, with one multi-seed BFS over the entries it changes,
/// filling the same row layout the brute force fills — exactly (see the module docs for
/// the identity).
///
/// The tree must be a BFS tree of `g`. Exposed (rather than private to
/// [`build_bk`](ReplacementPathOracle::build_bk)) so the differential suite and experiment
/// E10 can compare rows against `single_source_brute_force` with `==`.
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
    let mut out = timed(profiler, "rows", || SourceReplacementDistances::fault_free(tree));
    timed(profiler, "cuts", || {
        // Position 0 is the root, which has no edge above it.
        for pc in 1..scratch.vert.len() {
            if scratch.span[pc] != 0 {
                let c = scratch.vert[pc];
                solve_cut_into(tree, scratch, &mut out, c);
            }
        }
    });
    out
}

impl ReplacementPathOracle {
    /// Builds the oracle with the real Bernstein–Karger preprocessing: one multi-seed
    /// BFS per tree-edge cut of every source tree, over the entries the cut changes,
    /// instead of [`build_exact`](Self::build_exact)'s full BFS per tree edge. Answers are
    /// bit-for-bit identical to `build_exact`'s (pinned by `tests/bk_differential.rs`);
    /// only the construction cost differs. The source trees are built in 64-way
    /// bit-parallel waves through one shared [`MultiBfsScratch`] and every cut runs through
    /// one shared [`BkScratch`], so the whole construction performs no per-cut allocation.
    ///
    /// ```
    /// use msrp_graph::{generators::cycle_graph, Edge};
    /// use msrp_oracle::ReplacementPathOracle;
    ///
    /// let g = cycle_graph(8).freeze();
    /// let oracle = ReplacementPathOracle::build_bk(&g, &[0, 4]);
    /// assert_eq!(oracle.replacement_distance(0, 3, Edge::new(1, 2)), Some(5));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains duplicates, or contains an out-of-range
    /// vertex.
    pub fn build_bk(g: &CsrGraph, sources: &[Vertex]) -> Self {
        Self::build_bk_impl(g, sources, &mut NoProfiler)
    }

    /// Profiled variant of [`build_bk`](Self::build_bk): bit-identical output,
    /// with per-stage wall time (`"tree"` BFS trees, `"cover"` the per-source dominator
    /// relabel, `"rows"` table allocation, `"cuts"` the multi-seed cut BFS
    /// solves — timed once per source, not per cut) accumulated into `profile`. Experiment
    /// E12 builds its build-phase tables from this.
    ///
    /// # Panics
    ///
    /// Same as [`build_bk`](Self::build_bk).
    pub fn build_bk_csr_profiled(
        g: &CsrGraph,
        sources: &[Vertex],
        profile: &mut StageProfile,
    ) -> Self {
        Self::build_bk_impl(g, sources, profile)
    }

    fn build_bk_impl<P: Profiler>(g: &CsrGraph, sources: &[Vertex], profiler: &mut P) -> Self {
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

/// Builds one Bernstein–Karger oracle per shard, in parallel (one scoped worker per shard,
/// every worker traversing the caller's frozen view through a shared reference) — the BK
/// counterpart of [`build_shards`](crate::build_shards), consumed by `msrp-serve`'s
/// `ShardedOracle::build_bk_csr`.
///
/// `threads == 0` is treated as 1 (built inline); thread counts above σ are clamped to σ.
///
/// # Panics
///
/// Panics on the inputs [`ReplacementPathOracle::build_bk`] rejects, and if a worker thread
/// panics.
pub fn build_bk_shards(
    g: &CsrGraph,
    sources: &[Vertex],
    threads: usize,
) -> Vec<ReplacementPathOracle> {
    crate::build_sharded(sources, threads, |chunk| ReplacementPathOracle::build_bk(g, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph, path_graph, star_graph};
    use msrp_graph::{Edge, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rows_match_brute_force(g: &Graph, s: Vertex) {
        let g = &g.freeze();
        let tree = ShortestPathTree::build(g, s);
        let mut scratch = BkScratch::new();
        let bk = bk_replacement_distances(g, &tree, &mut scratch);
        let brute = msrp_rpath::single_source_brute_force(g, &tree);
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
    fn cuts_write_exactly_the_entries_above_the_fault_free_distance() {
        let mut rng = StdRng::seed_from_u64(41);
        let graphs = [
            connected_gnm(60, 150, &mut rng).unwrap(),
            grid_graph(5, 6),
            cycle_graph(9),
            path_graph(7),
            Graph::from_edges(10, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (6, 7), (7, 8)])
                .unwrap(),
        ];
        let mut scratch = BkScratch::new();
        for g in &graphs {
            let g = g.freeze();
            for s in [0, g.vertex_count() / 2] {
                let tree = ShortestPathTree::build(&g, s);
                let brute = msrp_rpath::single_source_brute_force(&g, &tree);
                let above = brute.iter().filter(|&(t, _, d)| d > tree.distances()[t]).count();
                scratch.prepare(&g, &tree);
                // 0 is no replacement distance (every stored target is not the source), so
                // it marks the entries no cut wrote.
                let zeros = vec![0; brute.entry_count()];
                let mut out = SourceReplacementDistances::from_flat_rows(&tree, zeros);
                let written: usize = tree.order()[1..]
                    .iter()
                    .map(|&c| solve_cut_into(&tree, &mut scratch, &mut out, c as usize))
                    .sum();
                assert_eq!(written, above, "s={s}");
                assert_eq!(out.iter().filter(|&(_, _, d)| d != 0).count(), above, "s={s}");
                for (t, i, d) in out.iter().filter(|&(_, _, d)| d != 0) {
                    assert_eq!(brute.get(t, i), Some(d), "s={s} t={t} i={i}");
                }
            }
        }
    }

    #[test]
    fn a_cut_below_a_vertex_with_two_parents_writes_nothing() {
        // From 0 on the 4-cycle, vertex 2 has two DAG parents (1 and 3): failing {1, 2}
        // leaves 0–3–2, and the column stays fault-free. Vertex 1 has one parent, and the
        // cut above it lengthens d(1) to 3 (0–3–2–1).
        let g = cycle_graph(4).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let mut scratch = BkScratch::new();
        scratch.prepare(&g, &tree);
        let mut out = SourceReplacementDistances::fault_free(&tree);
        let before = out.clone();
        assert_eq!(solve_cut_into(&tree, &mut scratch, &mut out, 2), 0);
        assert_eq!(out, before);
        assert_eq!(solve_cut_into(&tree, &mut scratch, &mut out, 1), 1);
        assert_eq!(out.get(1, 0), Some(3));
    }

    #[test]
    fn bk_oracle_matches_exact_oracle_queries() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnm(26, 60, &mut rng).unwrap().freeze();
        let sources = [0usize, 9, 20];
        let bk = ReplacementPathOracle::build_bk(&g, &sources);
        let exact = ReplacementPathOracle::build_exact(&g, &sources);
        assert_eq!(bk.trees(), exact.trees());
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
        let g = path_graph(6).freeze();
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
        let g = connected_gnm(30, 72, &mut rng).unwrap().freeze();
        let sources = [0usize, 6, 12, 18, 24];
        let whole = ReplacementPathOracle::build_bk(&g, &sources);
        for threads in [0usize, 1, 2, 5, 16] {
            let shards = build_bk_shards(&g, &sources, threads);
            let merged = ReplacementPathOracle::from_shards(shards);
            assert_eq!(merged.sources(), &sources);
            assert_eq!(merged.trees(), whole.trees(), "threads={threads}");
            assert_eq!(merged.per_source(), whole.per_source(), "threads={threads}");
        }
    }

    #[test]
    fn profiled_build_is_bit_identical_and_covers_the_pipeline() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = connected_gnm(36, 80, &mut rng).unwrap();
        let csr = g.freeze();
        let sources = [0usize, 11, 22, 33];
        let plain = ReplacementPathOracle::build_bk(&csr, &sources);
        let mut profile = StageProfile::new();
        let profiled = ReplacementPathOracle::build_bk_csr_profiled(&csr, &sources, &mut profile);
        assert_eq!(plain.trees(), profiled.trees());
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
        let (t0, t8) = (ShortestPathTree::build(&csr, 0), ShortestPathTree::build(&csr, 8));
        let mut scratch = BkScratch::new();
        scratch.prepare(&csr, &t0);
        let mut out = SourceReplacementDistances::new(&t8);
        solve_cut_into(&t8, &mut scratch, &mut out, 7);
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
            let tree = ShortestPathTree::build(&csr, s);
            rows.push(bk_replacement_distances(&csr, &tree, &mut scratch));
        }
        for (i, &s) in [0usize, 12, 24].iter().enumerate() {
            let tree = ShortestPathTree::build(&csr, s);
            assert_eq!(rows[i], msrp_rpath::single_source_brute_force(&csr, &tree));
        }
    }
}
