//! Single-fault replacement-path distance oracles.
//!
//! Bernstein and Karger (STOC 2009) build, for *all* sources, a distance oracle of size `Õ(n²)`
//! answering `QUERY(x, y, e)` — the length of the shortest `x–y` path avoiding the edge `e` — in
//! `O(1)` time; the MSRP paper generalizes the preprocessing to an arbitrary number of sources
//! `σ`. This crate serves that query interface from three construction routes:
//!
//! * [`ReplacementOracle`] — per-source rows indexed by the canonical-path position of the
//!   avoided edge, all rows of a source in one flat buffer, found through a dense
//!   [`SourceSlots`] table (an `O(1)` lookup, whatever σ is). It is generic over the
//!   [`Metric`]: [`ReplacementPathOracle`] serves hops, [`WeightedReplacementOracle`]
//!   weights, through the same query code;
//! * [`build_bk`](ReplacementPathOracle::build_bk) — the **real Bernstein–Karger
//!   preprocessing** (one multi-seed subtree search per tree-edge cut, in preorder-local
//!   coordinates, see the [`bk`] module);
//! * [`build`](ReplacementPathOracle::build) — the paper's MSRP solver packaged behind the
//!   same interface;
//! * [`build_exact`](ReplacementPathOracle::build_exact) — the brute-force construction used
//!   as the ground-truth comparator (all three routes produce bit-for-bit identical tables;
//!   `tests/bk_differential.rs` pins it);
//! * [`FlatReplacementOracle`] — any oracle flattened into a cuckoo hash table keyed by
//!   `(source, target, edge)`, demonstrating the worst-case `O(1)` lookup structure the paper
//!   cites (Pagh–Rodler, Lemma 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bk;
pub mod incremental;

pub use bk::{bk_replacement_distances, build_bk_shards, BkScratch, BK_STAGES};
pub use incremental::RebuildStats;

use msrp_core::{solve_msrp, solve_msrp_weighted, MsrpOutput, MsrpParams, WeightedMsrpOutput};
use msrp_graph::{
    bfs_trees_wave, CanonicalTree, CsrGraph, CuckooHashMap, DijkstraScratch, Distance, Edge, Hop,
    Metric, MultiBfsScratch, Vertex, Weighted, WeightedCsrGraph, WeightedTree, INFINITE_DISTANCE,
};
use msrp_rpath::{
    single_source_brute_force_wave, single_source_brute_force_weighted_with_scratch,
    ReplacementDistances,
};

/// A dense `vertex → slot` table: one `u32` per vertex of the graph, `u32::MAX` for a vertex
/// that is not a source. A lookup is one bounds check and one load, whatever σ is — the
/// source half of Lemma 5's `O(1)` `QUERY`. The oracles map each source to the slot of its
/// tree and rows; `msrp-serve`'s sharded oracles map each source to its shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceSlots {
    slots: Vec<u32>,
}

impl SourceSlots {
    const NONE: u32 = u32::MAX;

    /// Builds the table over `n` vertices from `(source, slot)` pairs, or `None` when a
    /// source appears twice.
    ///
    /// # Panics
    ///
    /// Panics if a source is not below `n` or a slot does not fit below `u32::MAX`.
    pub fn new(n: usize, pairs: impl IntoIterator<Item = (Vertex, usize)>) -> Option<Self> {
        let mut slots = vec![Self::NONE; n];
        for (s, slot) in pairs {
            let cell = &mut slots[s];
            if *cell != Self::NONE {
                return None;
            }
            *cell = u32::try_from(slot).ok().filter(|&x| x != Self::NONE).expect("slot fits u32");
        }
        Some(SourceSlots { slots })
    }

    /// The slot of `v`, or `None` when `v` is not a source (any id, including ones past
    /// the graph, is a safe argument).
    pub fn get(&self, v: Vertex) -> Option<usize> {
        match self.slots.get(v) {
            Some(&slot) if slot != Self::NONE => Some(slot as usize),
            _ => None,
        }
    }
}

/// A single-edge-fault distance oracle for a fixed set of sources under the metric `M`: one
/// canonical tree and one replacement table per source, found through a dense
/// [`SourceSlots`] table.
#[derive(Clone, Debug)]
pub struct ReplacementOracle<M: Metric> {
    sources: Vec<Vertex>,
    slots: SourceSlots,
    trees: Vec<CanonicalTree<M>>,
    distances: Vec<ReplacementDistances<M>>,
}

/// The hop-metric oracle over unweighted graphs.
///
/// ```
/// use msrp_graph::{generators::cycle_graph, Edge};
/// use msrp_oracle::ReplacementPathOracle;
/// use msrp_core::MsrpParams;
///
/// let g = cycle_graph(8).freeze();
/// let oracle = ReplacementPathOracle::build(&g, &[0, 4], &MsrpParams::default());
/// assert_eq!(oracle.distance(0, 3), Some(3));
/// assert_eq!(oracle.replacement_distance(0, 3, Edge::new(1, 2)), Some(5));
/// // Edges off the canonical path do not hurt.
/// assert_eq!(oracle.replacement_distance(0, 3, Edge::new(5, 6)), Some(3));
/// ```
pub type ReplacementPathOracle = ReplacementOracle<Hop>;

/// The weighted oracle, answering `QUERY(x, y, e)` under the weighted metric from Dijkstra
/// shortest-path trees.
///
/// ```
/// use msrp_graph::{Edge, WeightedGraph};
/// use msrp_oracle::WeightedReplacementOracle;
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 10)])?;
/// let oracle = WeightedReplacementOracle::build(&g.freeze(), &[0]);
/// assert_eq!(oracle.distance(0, 2), Some(2));
/// assert_eq!(oracle.replacement_distance(0, 2, Edge::new(1, 2)), Some(11));
/// # Ok(())
/// # }
/// ```
pub type WeightedReplacementOracle = ReplacementOracle<Weighted>;

impl<M: Metric> ReplacementOracle<M> {
    /// Merges per-shard oracles (each covering a disjoint slice of the sources) into one
    /// oracle, concatenating the per-source rows in shard order.
    ///
    /// This is the merge half of every sharded build ([`build_shards`], [`build_bk_shards`],
    /// [`build_weighted_shards`]); serving layers (`msrp-serve`) build shards on their own
    /// schedule and still recover a single-oracle view through it.
    ///
    /// # Panics
    ///
    /// Panics if the shards are empty or share a source.
    pub fn from_shards(shards: Vec<Self>) -> Self {
        assert!(!shards.is_empty(), "at least one shard is required");
        let mut sources = Vec::new();
        let mut trees = Vec::new();
        let mut distances = Vec::new();
        for shard in shards {
            sources.extend_from_slice(&shard.sources);
            trees.extend(shard.trees);
            distances.extend(shard.distances);
        }
        Self::assemble(sources, trees, distances, "shards must cover disjoint sources")
    }

    /// The constructor every route ends in: indexes the sources densely ([`SourceSlots`]).
    /// Panics if there are no sources, and with `duplicate` if two entries cover the same
    /// source.
    fn assemble(
        sources: Vec<Vertex>,
        trees: Vec<CanonicalTree<M>>,
        distances: Vec<ReplacementDistances<M>>,
        duplicate: &str,
    ) -> Self {
        assert!(!sources.is_empty(), "at least one source is required");
        let n = trees.first().map_or(0, |t| t.vertex_count());
        let slots =
            SourceSlots::new(n, sources.iter().enumerate().map(|(i, &s)| (s, i))).expect(duplicate);
        ReplacementOracle { sources, slots, trees, distances }
    }

    /// Assembles an oracle from its parts: one canonical tree and one replacement table per
    /// source, in source order. This is how the Bernstein–Karger construction in [`bk`]
    /// hands over its output, and how a deserialized snapshot (`msrp-snap`) becomes a live
    /// oracle again without re-running any solver — the inverse of reading the parts back
    /// through [`sources`](Self::sources) / [`trees`](Self::trees) /
    /// [`per_source`](Self::per_source).
    ///
    /// # Panics
    ///
    /// Panics if the three vectors disagree in length, are empty, if two entries cover the
    /// same source, or if a tree is not rooted at its slot's source. Callers holding
    /// *untrusted* parts (a decoded snapshot) must validate before constructing — the
    /// snapshot loader does, and fails closed with a typed error instead of reaching these
    /// asserts.
    pub fn from_parts(
        sources: Vec<Vertex>,
        trees: Vec<CanonicalTree<M>>,
        distances: Vec<ReplacementDistances<M>>,
    ) -> Self {
        assert_eq!(sources.len(), trees.len(), "one tree per source");
        assert_eq!(sources.len(), distances.len(), "one replacement table per source");
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(trees[i].source(), s, "tree {i} is not rooted at its source");
        }
        Self::assemble(sources, trees, distances, "sources must be distinct")
    }

    /// The canonical shortest-path trees, in source order (one per source).
    ///
    /// Together with [`per_source`](Self::per_source) this is the oracle's entire state;
    /// serializers persist exactly these parts and rebuild with
    /// [`from_parts`](Self::from_parts).
    pub fn trees(&self) -> &[CanonicalTree<M>] {
        &self.trees
    }

    /// The per-source replacement tables, in source order.
    ///
    /// Exposed so differential tests and experiments can compare two construction routes
    /// row-for-row with `==` (the rows are the oracle's entire answer state: two oracles over
    /// the same trees with equal rows answer every query identically).
    pub fn per_source(&self) -> &[ReplacementDistances<M>] {
        &self.distances
    }

    /// The sources the oracle was built for.
    pub fn sources(&self) -> &[Vertex] {
        &self.sources
    }

    /// Number of vertices of the graph the oracle was built over (0 for an oracle with no
    /// trees, which no public constructor produces).
    ///
    /// Serving layers validate incoming `target`/`edge` ids against this bound *before*
    /// querying: [`replacement_distance`](Self::replacement_distance) indexes its per-tree
    /// arrays with `t` and the edge endpoints, so out-of-range ids panic (see the
    /// `msrp-serve` protocol boundary).
    pub fn vertex_count(&self) -> usize {
        self.trees.first().map_or(0, |t| t.vertex_count())
    }

    /// Slot of `s` among the sources: one dense-table load, whatever σ is.
    fn source_index(&self, s: Vertex) -> Option<usize> {
        self.slots.get(s)
    }

    /// Fault-free distance from source `s` to `t` (`None` if `s` is not a source or `t` is
    /// unreachable).
    pub fn distance(&self, s: Vertex, t: Vertex) -> Option<M::Dist> {
        let i = self.source_index(s)?;
        self.trees[i].distance(t)
    }

    /// `QUERY(s, t, e)`: length of the shortest `s–t` path avoiding `e`, or `None` when `s` is
    /// not one of the sources. `Some(M::INFINITY)` means the failure disconnects `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or an endpoint of `e` is at least [`vertex_count`](Self::vertex_count);
    /// callers exposed to untrusted ids must validate first (the serving boundary does).
    pub fn replacement_distance(&self, s: Vertex, t: Vertex, e: Edge) -> Option<M::Dist> {
        let i = self.source_index(s)?;
        if !self.trees[i].is_reachable(t) {
            return Some(M::INFINITY);
        }
        Some(self.distances[i].distance_avoiding(&self.trees[i], t, e))
    }

    /// The canonical shortest path from `s` to `t`, if both exist.
    pub fn canonical_path(&self, s: Vertex, t: Vertex) -> Option<Vec<Vertex>> {
        let i = self.source_index(s)?;
        self.trees[i].path_from_source(t)
    }

    /// Total number of `(s, t, e)` entries stored.
    pub fn entry_count(&self) -> usize {
        self.distances.iter().map(|d| d.entry_count()).sum()
    }
}

impl ReplacementPathOracle {
    /// Builds the oracle by running the paper's MSRP algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains duplicates, or contains an out-of-range
    /// vertex.
    pub fn build(g: &CsrGraph, sources: &[Vertex], params: &MsrpParams) -> Self {
        Self::from_msrp_output(solve_msrp(g, sources, params))
    }

    /// Wraps an existing solver output.
    pub fn from_msrp_output(out: MsrpOutput) -> Self {
        Self::assemble(out.sources, out.trees, out.per_source, "sources must be distinct")
    }

    /// Builds the oracle by brute force (one BFS per tree edge per source); exact, used as the
    /// comparator in tests and experiment E5. Both stages are bit-parallel: the source trees
    /// come from one [`bfs_trees_wave`] call (up to 64 sources per wave), and each source's
    /// edge-removal loop batches its tree edges into avoiding waves of up to 64 searches
    /// through one shared [`MultiBfsScratch`] — bit-identical to the sequential per-edge
    /// route (pinned by the wave differential tests), just far fewer passes over the CSR
    /// arrays.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains duplicates, or contains an out-of-range
    /// vertex.
    pub fn build_exact(g: &CsrGraph, sources: &[Vertex]) -> Self {
        let mut wave = MultiBfsScratch::new();
        let trees = bfs_trees_wave(g, sources, &mut wave);
        let distances =
            trees.iter().map(|t| single_source_brute_force_wave(g, t, &mut wave)).collect();
        Self::assemble(sources.to_vec(), trees, distances, "sources must be distinct")
    }

    /// Vickrey-style edge criticality for the `s–t` pair: for every edge on the canonical path,
    /// the increase in distance its failure causes (`None` when the failure disconnects `t`).
    ///
    /// This is the quantity the replacement-path literature uses to price edges owned by selfish
    /// agents (Nisan–Ronen; Hershberger–Suri), and what `msrp-netsim` builds on.
    pub fn detour_costs(&self, s: Vertex, t: Vertex) -> Option<Vec<(Edge, Option<Distance>)>> {
        let i = self.source_index(s)?;
        let tree = &self.trees[i];
        let base = tree.distance(t)?;
        let mut out = Vec::new();
        for (pos, e) in tree.path_edges(t).iter().enumerate() {
            let d = self.distances[i].get(t, pos)?;
            let cost = if d == INFINITE_DISTANCE { None } else { Some(d - base) };
            out.push((*e, cost));
        }
        Some(out)
    }

    /// Flattens the oracle into a cuckoo-hashed `(s, t, e) → d` table.
    pub fn flatten(&self) -> FlatReplacementOracle {
        FlatReplacementOracle::from_oracle(self)
    }
}

impl WeightedReplacementOracle {
    /// Builds the oracle by running the weighted solver (`msrp_core::solve_msrp_weighted`,
    /// the crossing-edge / subtree-Dijkstra algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains duplicates, or contains an out-of-range
    /// vertex.
    pub fn build(g: &WeightedCsrGraph, sources: &[Vertex]) -> Self {
        Self::from_output(solve_msrp_weighted(g, sources))
    }

    /// Wraps an existing weighted solver output.
    pub fn from_output(out: WeightedMsrpOutput) -> Self {
        Self::assemble(out.sources, out.trees, out.per_source, "sources must be distinct")
    }

    /// Builds the oracle by brute force (one Dijkstra per tree edge per source, all through
    /// one shared [`DijkstraScratch`]); exact, the comparator of the weighted solver in
    /// tests and experiment E9.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains duplicates, or contains an out-of-range
    /// vertex.
    pub fn build_exact(g: &WeightedCsrGraph, sources: &[Vertex]) -> Self {
        let mut scratch = DijkstraScratch::new();
        let trees: Vec<_> =
            sources.iter().map(|&s| WeightedTree::build_with_scratch(g, s, &mut scratch)).collect();
        let distances = trees
            .iter()
            .map(|t| single_source_brute_force_weighted_with_scratch(g, t, &mut scratch))
            .collect();
        Self::assemble(sources.to_vec(), trees, distances, "sources must be distinct")
    }
}

/// The oracle flattened into a single cuckoo hash table with worst-case `O(1)` probes
/// (Lemma 5 of the paper).
#[derive(Clone, Debug)]
pub struct FlatReplacementOracle {
    table: CuckooHashMap<(u32, u32, u64), Distance>,
    base: CuckooHashMap<(u32, u32), Distance>,
    /// Source-membership set. This used to be a `Vec` probed with `contains` — an `O(σ)`
    /// linear scan on *every* query, contradicting the worst-case `O(1)` bound the flat
    /// oracle exists to demonstrate; a third cuckoo probe restores the claim.
    source_set: CuckooHashMap<u32, ()>,
}

impl FlatReplacementOracle {
    /// Builds the flat table from a structured oracle.
    pub fn from_oracle(oracle: &ReplacementPathOracle) -> Self {
        let mut table = CuckooHashMap::with_capacity(2 * oracle.entry_count() + 16);
        let mut base = CuckooHashMap::new();
        let mut source_set = CuckooHashMap::with_capacity(2 * oracle.sources.len() + 16);
        for (i, &s) in oracle.sources.iter().enumerate() {
            source_set.insert(s as u32, ());
            let tree = &oracle.trees[i];
            for t in 0..tree.vertex_count() {
                if let Some(d) = tree.distance(t) {
                    base.insert((s as u32, t as u32), d);
                }
                for (pos, e) in tree.path_edges(t).iter().enumerate() {
                    if let Some(d) = oracle.distances[i].get(t, pos) {
                        table.insert((s as u32, t as u32, e.as_key()), d);
                    }
                }
            }
        }
        FlatReplacementOracle { table, base, source_set }
    }

    /// `QUERY(s, t, e)` with at most three hash probes — source membership, the stored entry
    /// when `e` is on the canonical path, and the fault-free distance otherwise — each
    /// worst-case `O(1)` (cuckoo hashing, Lemma 5). No step depends on `σ`.
    pub fn query(&self, s: Vertex, t: Vertex, e: Edge) -> Option<Distance> {
        // Ids beyond u32 cannot be table keys: such an `s` is never a source, and such a
        // `t` is never reachable (the CSR substrate caps vertex ids at u32).
        let s32 = match u32::try_from(s) {
            Ok(s32) => s32,
            Err(_) => return None,
        };
        self.source_set.get(&s32)?;
        let t32 = match u32::try_from(t) {
            Ok(t32) => t32,
            Err(_) => return Some(INFINITE_DISTANCE),
        };
        // An edge endpoint beyond u32 cannot name a graph edge, and its 64-bit key would
        // alias a real edge's key after `(lo << 32) | hi` truncation (e.g. {0, 2³² + 5}
        // collides with {1, 5}) — such a failure is off every canonical path by
        // definition, so skip the table probe and fall through to the base distance.
        // Endpoints are normalized (lo < hi), so checking `hi` covers both.
        if u32::try_from(e.hi()).is_ok() {
            if let Some(&d) = self.table.get(&(s32, t32, e.as_key())) {
                return Some(d);
            }
        }
        match self.base.get(&(s32, t32)) {
            Some(&d) => Some(d),
            None => Some(INFINITE_DISTANCE),
        }
    }

    /// Number of `(s, t, e)` entries stored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no replacement entries are stored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Splits `sources` into `shards` contiguous, non-empty, near-equal chunks (the first
/// `len % shards` chunks get one extra source). Concatenating the chunks in order yields the
/// original slice, which is what lets [`ReplacementPathOracle::from_shards`] preserve source
/// order.
///
/// # Panics
///
/// Panics if `shards` is zero or exceeds the number of sources.
pub fn shard_sources(sources: &[Vertex], shards: usize) -> Vec<&[Vertex]> {
    assert!(shards > 0, "at least one shard is required");
    assert!(shards <= sources.len(), "more shards ({shards}) than sources ({})", sources.len());
    let base = sources.len() / shards;
    let extra = sources.len() % shards;
    let mut chunks = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        chunks.push(&sources[start..start + len]);
        start += len;
    }
    chunks
}

/// Builds one oracle per shard of `sources` with `build`, in parallel: one scoped worker per
/// shard, every worker traversing the caller's graph through a shared reference. Every
/// sharded construction ([`build_shards`], [`build_bk_shards`],
/// [`build_weighted_shards`]) runs through this.
///
/// `threads == 0` is treated as 1 (built inline, no thread spawned); thread counts above σ
/// are clamped to σ.
///
/// # Panics
///
/// Panics if `build` or a worker thread panics.
pub(crate) fn build_sharded<M: Metric>(
    sources: &[Vertex],
    threads: usize,
    build: impl Fn(&[Vertex]) -> ReplacementOracle<M> + Sync,
) -> Vec<ReplacementOracle<M>> {
    let threads = threads.max(1).min(sources.len().max(1));
    if threads == 1 {
        return vec![build(sources)];
    }
    let build = &build;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_sources(sources, threads)
            .into_iter()
            .map(|chunk| scope.spawn(move || build(chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle shard worker panicked")).collect()
    })
}

/// Builds one [`ReplacementPathOracle`] per shard with the MSRP solver, in parallel, every
/// worker sharing the caller's frozen view. Serving layers (`msrp-serve`'s `ShardedOracle`)
/// keep the shards separate; [`ReplacementPathOracle::from_shards`] merges them.
///
/// `threads == 0` is treated as 1 (built inline, no thread spawned); thread counts above σ
/// are clamped to σ.
///
/// # Panics
///
/// Panics on the inputs [`ReplacementPathOracle::build`] rejects (empty, duplicate, or
/// out-of-range sources), and if a worker thread panics.
pub fn build_shards(
    g: &CsrGraph,
    sources: &[Vertex],
    params: &MsrpParams,
    threads: usize,
) -> Vec<ReplacementPathOracle> {
    build_sharded(sources, threads, |chunk| ReplacementPathOracle::build(g, chunk, params))
}

/// Builds one [`WeightedReplacementOracle`] per shard with the weighted solver, in parallel
/// over the caller's frozen weighted view; consumed by `msrp-serve`'s
/// `WeightedShardedOracle`. Threads as in [`build_shards`].
///
/// # Panics
///
/// Panics on the inputs [`WeightedReplacementOracle::build`] rejects, and if a worker
/// thread panics.
pub fn build_weighted_shards(
    g: &WeightedCsrGraph,
    sources: &[Vertex],
    threads: usize,
) -> Vec<WeightedReplacementOracle> {
    build_sharded(sources, threads, |chunk| WeightedReplacementOracle::build(g, chunk))
}

// The serving layer (`msrp-serve`) shares immutable oracles across worker threads; these
// compile-time assertions make sure a future refactor cannot silently lose thread-safety
// (e.g. by introducing `Rc` or interior mutability into the oracle or its substrates).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<ReplacementPathOracle>();
    assert_send_sync::<FlatReplacementOracle>();
    assert_send_sync::<WeightedReplacementOracle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph, path_graph};
    use msrp_rpath::replacement_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_matches_exact_construction() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = connected_gnm(28, 64, &mut rng).unwrap().freeze();
        let sources = [0usize, 9, 17];
        let fast = ReplacementPathOracle::build(&g, &sources, &MsrpParams::default());
        let exact = ReplacementPathOracle::build_exact(&g, &sources);
        for &s in &sources {
            for t in 0..g.vertex_count() {
                for e in g.edges() {
                    assert_eq!(
                        fast.replacement_distance(s, t, e),
                        exact.replacement_distance(s, t, e),
                        "s={s} t={t} e={e}"
                    );
                }
            }
        }
        assert_eq!(fast.entry_count(), exact.entry_count());
    }

    #[test]
    fn queries_for_non_sources_return_none() {
        let g = cycle_graph(6).freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0]);
        assert_eq!(oracle.replacement_distance(3, 5, Edge::new(0, 1)), None);
        assert_eq!(oracle.distance(3, 5), None);
        assert_eq!(oracle.canonical_path(3, 5), None);
        assert_eq!(oracle.sources(), &[0]);
    }

    #[test]
    fn disconnections_are_reported_as_infinite() {
        let g = path_graph(5).freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0]);
        assert_eq!(oracle.replacement_distance(0, 4, Edge::new(2, 3)), Some(INFINITE_DISTANCE));
        let costs = oracle.detour_costs(0, 4).unwrap();
        assert!(costs.iter().all(|(_, c)| c.is_none()));
    }

    #[test]
    fn detour_costs_match_definition() {
        let g = cycle_graph(8);
        let oracle = ReplacementPathOracle::build_exact(&g.freeze(), &[0]);
        let costs = oracle.detour_costs(0, 3).unwrap();
        assert_eq!(costs.len(), 3);
        for (e, c) in costs {
            let truth = replacement_distance(&g, 0, 3, e);
            assert_eq!(c, Some(truth - 3));
        }
    }

    #[test]
    fn flat_oracle_agrees_with_structured_oracle() {
        let g = grid_graph(4, 4).freeze();
        let oracle = ReplacementPathOracle::build(&g, &[0, 15], &MsrpParams::default());
        let flat = oracle.flatten();
        assert_eq!(flat.len(), oracle.entry_count());
        assert!(!flat.is_empty());
        for &s in oracle.sources() {
            for t in 0..g.vertex_count() {
                for e in g.edges() {
                    assert_eq!(flat.query(s, t, e), oracle.replacement_distance(s, t, e));
                }
            }
        }
        assert_eq!(flat.query(7, 0, Edge::new(0, 1)), None);
    }

    #[test]
    fn shard_sources_partitions_in_order() {
        let sources = [3usize, 1, 4, 1, 5, 9, 2];
        for shards in 1..=sources.len() {
            let chunks = shard_sources(&sources, shards);
            assert_eq!(chunks.len(), shards);
            assert!(chunks.iter().all(|c| !c.is_empty()));
            let max = chunks.iter().map(|c| c.len()).max().unwrap();
            let min = chunks.iter().map(|c| c.len()).min().unwrap();
            assert!(max - min <= 1, "chunks must be near-equal");
            let rejoined: Vec<_> = chunks.concat();
            assert_eq!(rejoined, sources);
        }
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn shard_sources_rejects_more_shards_than_sources() {
        let _ = shard_sources(&[0, 1], 3);
    }

    #[test]
    fn parallel_build_agrees_with_sequential_build() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = connected_gnm(30, 70, &mut rng).unwrap().freeze();
        let sources = [0usize, 5, 11, 17, 23, 29];
        let sequential = ReplacementPathOracle::build(&g, &sources, &MsrpParams::default());
        for threads in [0usize, 1, 2, 3, 4, 16] {
            let parallel = ReplacementPathOracle::from_shards(build_shards(
                &g,
                &sources,
                &MsrpParams::default(),
                threads,
            ));
            assert_eq!(parallel.sources(), &sources);
            for &s in &sources {
                for t in 0..g.vertex_count() {
                    assert_eq!(parallel.distance(s, t), sequential.distance(s, t));
                    for e in g.edges() {
                        assert_eq!(
                            parallel.replacement_distance(s, t, e),
                            sequential.replacement_distance(s, t, e),
                            "threads={threads} s={s} t={t} e={e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn from_shards_preserves_source_order() {
        let g = cycle_graph(10).freeze();
        let shards = vec![
            ReplacementPathOracle::build_exact(&g, &[4, 1]),
            ReplacementPathOracle::build_exact(&g, &[7]),
        ];
        let merged = ReplacementPathOracle::from_shards(shards);
        assert_eq!(merged.sources(), &[4, 1, 7]);
        let whole = ReplacementPathOracle::build_exact(&g, &[4, 1, 7]);
        for &s in merged.sources() {
            for t in 0..10 {
                for e in g.edges() {
                    assert_eq!(
                        merged.replacement_distance(s, t, e),
                        whole.replacement_distance(s, t, e)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_shards_panic() {
        let g = cycle_graph(6).freeze();
        let shards = vec![
            ReplacementPathOracle::build_exact(&g, &[0, 2]),
            ReplacementPathOracle::build_exact(&g, &[2]),
        ];
        let _ = ReplacementPathOracle::from_shards(shards);
    }

    #[test]
    fn canonical_paths_are_exposed() {
        let g = cycle_graph(7).freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[2]);
        assert_eq!(oracle.canonical_path(2, 4), Some(vec![2, 3, 4]));
    }

    #[test]
    fn vertex_count_is_exposed_for_boundary_validation() {
        let g = cycle_graph(9).freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0, 4]);
        assert_eq!(oracle.vertex_count(), 9);
    }

    #[test]
    fn flat_oracle_membership_is_probe_based_not_a_scan() {
        // Build with a large, deliberately scrambled source set: every query must resolve
        // source membership through the cuckoo set (worst-case O(1) probes, Lemma 5), and
        // the answers must stay identical to the structured oracle's.
        let mut rng = StdRng::seed_from_u64(31);
        let g = connected_gnm(40, 100, &mut rng).unwrap().freeze();
        let sources: Vec<usize> = vec![31, 2, 17, 39, 8, 25, 0, 12, 36, 5, 21, 29];
        let oracle = ReplacementPathOracle::build_exact(&g, &sources);
        let flat = oracle.flatten();
        for &s in &sources {
            for t in (0..40).step_by(7) {
                for e in g.edges().take(20) {
                    assert_eq!(flat.query(s, t, e), oracle.replacement_distance(s, t, e));
                }
            }
        }
        // Non-sources (including ids far outside the graph) answer None without scanning.
        for s in [1usize, 3, 38, 40, 10_000, usize::MAX] {
            assert_eq!(flat.query(s, 0, Edge::new(0, 1)), None, "s={s}");
        }
        // A valid source with an absurd target reports "no path", never a truncated hit.
        assert_eq!(flat.query(31, usize::MAX, Edge::new(0, 1)), Some(INFINITE_DISTANCE));
        // A hostile >u32 edge endpoint must not truncation-alias a real edge's key:
        // {0, 2^32 + 5} shares its `(lo << 32) | hi` key with {1, 5}. The hostile edge is
        // not in the graph, so the answer must be the fault-free base distance even where
        // the aliased real edge lies on the canonical path.
        for &s in &sources {
            for t in 0..40 {
                let hostile = Edge::new(0, (1usize << 32) + 5);
                assert_eq!(hostile.as_key(), Edge::new(1, 5).as_key(), "aliasing premise");
                assert_eq!(
                    flat.query(s, t, hostile),
                    oracle.distance(s, t).or(Some(INFINITE_DISTANCE)),
                    "s={s} t={t}"
                );
            }
        }
    }

    /// Ids the dense source index must turn away without indexing past its table.
    fn hostile_sources(n: usize) -> [usize; 4] {
        [n, u32::MAX as usize, usize::MAX, 1] // 1 is in range but never a source below
    }

    #[test]
    fn hostile_sources_answer_none_on_both_oracles() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = connected_gnm(40, 100, &mut rng).unwrap().freeze();
        let wg =
            msrp_graph::generators::weighted_connected_gnm(40, 100, 50, &mut rng).unwrap().freeze();
        let sources = [31usize, 2, 17, 39, 8, 25, 0, 12];
        let hop = ReplacementPathOracle::build_bk(&g, &sources);
        let weighted = WeightedReplacementOracle::build(&wg, &sources);
        let e = Edge::new(0, 2);
        for s in hostile_sources(40) {
            assert_eq!(hop.replacement_distance(s, 5, e), None, "s={s}");
            assert_eq!(hop.distance(s, 5), None, "s={s}");
            assert_eq!(hop.canonical_path(s, 5), None, "s={s}");
            assert_eq!(hop.detour_costs(s, 5), None, "s={s}");
            assert_eq!(weighted.replacement_distance(s, 5, e), None, "s={s}");
            assert_eq!(weighted.distance(s, 5), None, "s={s}");
            assert_eq!(weighted.canonical_path(s, 5), None, "s={s}");
        }
        // Every real source still finds its own slot, whatever its position.
        for &s in &sources {
            assert_eq!(hop.canonical_path(s, s), Some(vec![s]));
            assert_eq!(weighted.canonical_path(s, s), Some(vec![s]));
        }
    }

    #[test]
    fn source_slots_map_each_source_once() {
        let slots = SourceSlots::new(10, [(7, 0), (3, 1), (9, 2)]).unwrap();
        assert_eq!([7, 3, 9].map(|s| slots.get(s)), [Some(0), Some(1), Some(2)]);
        for v in [0, 8, 10, u32::MAX as usize, usize::MAX] {
            assert_eq!(slots.get(v), None, "v={v}");
        }
        assert_eq!(SourceSlots::new(10, [(7, 0), (7, 1)]), None);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_parts_panic() {
        let g = cycle_graph(6).freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0, 2]);
        let tree = oracle.trees()[0].clone();
        let rows = oracle.per_source()[0].clone();
        let _ = ReplacementPathOracle::from_parts(
            vec![0, 0],
            vec![tree.clone(), tree],
            vec![rows.clone(), rows],
        );
    }

    #[test]
    #[should_panic(expected = "at least one source is required")]
    fn hop_build_exact_rejects_an_empty_source_list() {
        let _ = ReplacementPathOracle::build_exact(&cycle_graph(8).freeze(), &[]);
    }

    #[test]
    #[should_panic(expected = "at least one source is required")]
    fn weighted_build_exact_rejects_an_empty_source_list() {
        let g = msrp_graph::WeightedGraph::from_graph(&cycle_graph(8), |_| 1).freeze();
        let _ = WeightedReplacementOracle::build_exact(&g, &[]);
    }

    #[test]
    fn weighted_oracle_solver_and_brute_force_agree() {
        let mut rng = StdRng::seed_from_u64(13);
        let g =
            msrp_graph::generators::weighted_connected_gnm(28, 64, 500, &mut rng).unwrap().freeze();
        let sources = [0usize, 9, 17];
        let fast = WeightedReplacementOracle::build(&g, &sources);
        let exact = WeightedReplacementOracle::build_exact(&g, &sources);
        assert_eq!(fast.entry_count(), exact.entry_count());
        assert_eq!(fast.vertex_count(), 28);
        for &s in &sources {
            for t in 0..28 {
                assert_eq!(fast.distance(s, t), exact.distance(s, t));
                for (e, _) in g.edge_vec() {
                    assert_eq!(
                        fast.replacement_distance(s, t, e),
                        exact.replacement_distance(s, t, e),
                        "s={s} t={t} e={e}"
                    );
                }
            }
        }
        assert_eq!(fast.replacement_distance(3, 5, Edge::new(0, 1)), None);
        assert_eq!(fast.sources(), &sources);
        assert!(fast.canonical_path(0, 9).is_some());
    }

    #[test]
    fn weighted_shards_merge_and_agree() {
        let mut rng = StdRng::seed_from_u64(21);
        let g =
            msrp_graph::generators::weighted_connected_gnm(24, 60, 50, &mut rng).unwrap().freeze();
        let sources = [4usize, 1, 7, 19, 11];
        let whole = WeightedReplacementOracle::build(&g, &sources);
        for threads in [0usize, 1, 2, 5, 16] {
            let shards = build_weighted_shards(&g, &sources, threads);
            let merged = WeightedReplacementOracle::from_shards(shards);
            assert_eq!(merged.sources(), &sources);
            for &s in &sources {
                for t in 0..24 {
                    for (e, _) in g.edge_vec() {
                        assert_eq!(
                            merged.replacement_distance(s, t, e),
                            whole.replacement_distance(s, t, e),
                            "threads={threads} s={s} t={t} e={e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_weighted_shards_panic() {
        let mut rng = StdRng::seed_from_u64(2);
        let g =
            msrp_graph::generators::weighted_connected_gnm(8, 12, 9, &mut rng).unwrap().freeze();
        let shards = vec![
            WeightedReplacementOracle::build_exact(&g, &[0, 2]),
            WeightedReplacementOracle::build_exact(&g, &[2]),
        ];
        let _ = WeightedReplacementOracle::from_shards(shards);
    }
}
