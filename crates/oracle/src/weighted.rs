//! The weighted cut kernel: replacement paths over Dijkstra shortest-path trees, the
//! construction behind [`WeightedReplacementOracle::build`] (the hop metric's kernel is
//! [`bk`](crate::bk)).
//!
//! Section 9 of the paper discusses lifting MSRP from hop distances to non-negative edge
//! weights; the structural facts the lift rests on are classical (Malik–Mittal–Gupta 1989
//! and the replacement-path literature the paper cites):
//!
//! For an undirected graph, a source `s` with Dijkstra tree `T_s`, and a tree edge
//! `e = (p, c)` (with `c` the child), removing `e` only affects the targets in the subtree
//! of `c`, and every replacement path from `s` to a target `t` in that subtree decomposes at
//! its **last crossing** of the cut `(V \ subtree(c), subtree(c))`:
//!
//! 1. a prefix from `s` to some `x ∉ subtree(c)` — the canonical path to `x` avoids `e`
//!    (tree paths use `e` iff their endpoint is below `c`), so the prefix costs exactly
//!    `d(s, x)`, already known from `T_s`;
//! 2. one crossing edge `(x, y)` with `y ∈ subtree(c)`, any such edge except `e` itself;
//! 3. a suffix from `y` to `t` that stays **inside** the subtree (it is below the last
//!    crossing by definition).
//!
//! So `d(s, t ⋄ e)` for *all* targets in the subtree is one multi-seed Dijkstra restricted
//! to the subtree: seed every `y ∈ subtree(c)` with `min over crossing edges (x, y)` of
//! `d(s, x) + w(x, y)`, then relax only subtree-internal edges.
//! [`build`](WeightedReplacementOracle::build) runs that search once per tree edge per
//! source, and is asserted equal bit for bit to the brute force (one full Dijkstra per tree
//! edge) in this module's tests, the `weighted_differential` battery, and experiment E9.
//!
//! # The kernel
//!
//! Each source is first relabelled into **preorder-local coordinates** (`CutScratch::prepare`,
//! once per source, `O(n + m log deg)`): vertices become positions in the tree's preorder,
//! read off the tree's Euler times in `O(1)` each
//! ([`WeightedTree::preorder_interval`]), so the subtree below position `pc` is the interval
//! `[pc, pc + size)` and membership is `x − pc < size` (one wrapping subtraction). Each
//! adjacency row is stored in positions with its weights and sorted by `d(s, x) + w(x, y)`.
//! A cut then runs:
//!
//! 1. **Seeds.** The first crossing neighbour in `y`'s sorted row gives `seed(y)` and ends
//!    the scan.
//! 2. **Dominated seeds.** In the same preorder sweep, `U(y) = min(seed(y), U(parent) +
//!    w(parent, y))` is the best the tree path down from the cut root offers `y`. A seed
//!    above `U(parent) + w(parent, y)` is dropped: the search will lower `y` strictly below
//!    it through the tree edge, so it can never be `y`'s answer.
//! 3. **Search.** The remaining seeds are sorted and merged with a binary heap that holds
//!    only relaxations; an entry above its vertex's tentative distance is stale.
//!
//! Tentative distances live in a slice indexed by `x − pc` that each cut overwrites in
//! full, so no reset list is kept. The hop kernel's final/open split is deliberately not
//! ported: a seed equal to `d(s, y)` is rare under real weights (see below).
//!
//! # Cost
//!
//! Processing the edge above `c` touches `O(|C| + m(C))` words plus `O(|C| log |C|)` for
//! the seed sort and the heap, where `C` is the subtree and `m(C)` counts edges with an
//! endpoint in `C`. Summed over all tree edges this is `O((Σ_t depth(t) + Σ_{{u,v} ∈ E}
//! (depth(u) + depth(v))) · log n)`: output-sensitive, since `Σ_t depth(t)` is exactly the
//! output size. The brute force pays a full `Θ(m log n)` Dijkstra per tree edge instead.
//!
//! Measured on weighted gnm with n = 2048, m = 4n, weights 1..=1000 and σ = 64 (the
//! `weighted_sigma64` benchmark's graph shape), seed 1: 941 k cut entries, of which only
//! 1.4 k (0.15%) have a seed equal to their distance. 363 k seeds (39%) are dominated and
//! dropped, which cuts the stale seed pops from 468 k to 104 k. The heap takes 582 k
//! relaxations, 77 k of them stale. Single-threaded, the whole solve takes about half the
//! time of the children-list kernel this replaced (`BENCH_weighted_kernel.json`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use msrp_graph::{
    DijkstraScratch, Vertex, Weight, WeightedCsrGraph, WeightedTree, INFINITE_WEIGHT,
};
use msrp_rpath::WeightedReplacementDistances;

use crate::WeightedReplacementOracle;

impl WeightedReplacementOracle {
    /// Builds the oracle with the crossing-edge decomposition (module docs): one Dijkstra
    /// tree per source, then one subtree search per tree edge. Exact and deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains duplicates, or contains an out-of-range
    /// vertex.
    pub fn build(g: &WeightedCsrGraph, sources: &[Vertex]) -> Self {
        let mut scratch = DijkstraScratch::new();
        let trees: Vec<WeightedTree> =
            sources.iter().map(|&s| WeightedTree::build_with_scratch(g, s, &mut scratch)).collect();
        let mut cuts = CutScratch::default();
        let distances = trees
            .iter()
            .map(|tree| {
                cuts.prepare(g, tree);
                prepared_replacement_distances(tree, &mut cuts)
            })
            .collect();
        Self::assemble(sources.to_vec(), trees, distances, "sources must be distinct")
    }
}

/// Sentinel position: "no vertex" (never equal to a real preorder position).
const NONE: u32 = u32::MAX;

/// One adjacency entry `y → x` of the relabelled graph.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// `d(s, x) + w(x, y)`: the entry `x` offers `y` when `x` lies outside the cut.
    key: Weight,
    /// `w(x, y)`.
    weight: Weight,
    /// The preorder position of `x`.
    to: u32,
}

/// Reusable buffers for the per-cut searches, in **preorder-local coordinates** (module
/// docs, "The kernel").
///
/// [`prepare`](Self::prepare) runs once per source. It relabels the reachable vertices by
/// their tree preorder position and stores, indexed by position, the vertex, its distance,
/// its parent's position and its subtree size, plus the adjacency rewritten as positions
/// with each row ordered by `d(s, x) + w(x, y)`. The subtree below position `pc` is then
/// the interval `[pc, pc + size[pc])`, and a cut's tentative distances live in a slice
/// indexed by `x − pc` that the cut overwrites in full.
///
/// One scratch serves every cut of every source, over graphs of any size.
#[derive(Clone, Debug, Default)]
struct CutScratch {
    /// Root of the tree the per-source arrays describe (`None` before the first prepare).
    root: Option<Vertex>,
    /// Preorder position of each vertex (`NONE` for unreachable vertices).
    pos: Vec<u32>,
    /// Vertex, distance from the root, parent position (`NONE` at the root) and subtree
    /// size, per position.
    vert: Vec<Vertex>,
    base: Vec<Weight>,
    parent: Vec<u32>,
    size: Vec<u32>,
    /// The source's adjacency in positions: row `i` is `links[off[i]..off[i + 1]]`, ordered
    /// by [`Link::key`].
    off: Vec<u32>,
    links: Vec<Link>,
    /// Tentative distances of the current cut, indexed by `x − pc`.
    dist: Vec<Weight>,
    /// `U(y)` of the current cut: the best entry the tree path down from the cut root
    /// offers `y`, indexed by `x − pc`.
    up: Vec<Weight>,
    /// `(seed, x − pc)` of the current cut's undominated finite seeds, ascending.
    seeds: Vec<(Weight, u32)>,
    /// Relaxations of the current cut's search (seeds never enter it).
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
}

impl CutScratch {
    /// The per-source relabel: positions from the tree's Euler times, then the adjacency
    /// in positions with every row sorted by `d(s, x) + w(x, y)` — `O(n + m log deg)`.
    /// Every cut of this source reads only what this pass stores.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not a tree over `g`'s vertex set.
    fn prepare(&mut self, g: &WeightedCsrGraph, tree: &WeightedTree) {
        let n = g.vertex_count();
        assert_eq!(tree.vertex_count(), n, "tree and graph disagree on the vertex count");
        let r = tree.order().len();
        self.pos.clear();
        self.pos.resize(n, NONE);
        self.vert.resize(r, 0);
        self.base.resize(r, 0);
        self.parent.resize(r, NONE);
        self.size.resize(r, 0);
        // Parents settle before children, so a parent's position is known when its child
        // asks for it.
        for &v in tree.order() {
            let v = v as usize;
            let (pre, size) = tree.preorder_interval(v).expect("settled vertices are reachable");
            self.pos[v] = pre as u32;
            self.vert[pre] = v;
            self.base[pre] = tree.distance_or_infinite(v);
            self.parent[pre] = tree.parent(v).map_or(NONE, |p| self.pos[p]);
            self.size[pre] = size as u32;
        }
        self.off.clear();
        self.links.clear();
        self.off.push(0);
        for &v in &self.vert {
            let start = self.links.len();
            let (targets, weights) = g.neighbor_row(v);
            for (&x, &weight) in targets.iter().zip(weights) {
                // A neighbour whose distance saturated to the sentinel is unreachable: it
                // lies in no subtree and offers no finite crossing entry.
                let to = self.pos[x as usize];
                if to != NONE {
                    let key = self.base[to as usize].saturating_add(weight);
                    self.links.push(Link { key, weight, to });
                }
            }
            self.links[start..].sort_unstable_by_key(|a| a.key);
            self.off.push(self.links.len() as u32);
        }
        // The root's subtree is the largest cut a search can see.
        self.dist.resize(r, INFINITE_WEIGHT);
        self.up.resize(r, INFINITE_WEIGHT);
        self.root = Some(tree.source());
    }

    /// Runs the multi-seed Dijkstra for the cut below the tree edge from position `pp` to
    /// its child `pc`, leaving `self.dist[t − pc] = d_{G\(p,c)}(s, t)` for every position
    /// `t` of the subtree (`INFINITE_WEIGHT` where no replacement path exists).
    fn run_cut(&mut self, pc: u32, pp: u32) {
        let (sz, base) = (self.size[pc as usize] as usize, pc as usize);
        let (off, links) = (&self.off, &self.links);
        let row = |l: usize| &links[off[base + l] as usize..off[base + l + 1] as usize];
        let inside = |x: u32| (x.wrapping_sub(pc) as usize) < sz;
        let dist = &mut self.dist[..sz];
        let up = &mut self.up[..sz];
        // Pass 1, in preorder (parents before children): seed every subtree vertex from its
        // crossing edges. A neighbour x contributes when it lies outside the subtree (its
        // canonical distance survives the failure) via an edge other than the failed one;
        // `{p, c}` is the only tree edge crossing the cut, so the exclusion is that single
        // arc. Rows are sorted by `d(s, x) + w(x, y)`, so the first crossing neighbour
        // gives the seed. A seed above `U(parent) + w(parent, y)` is dominated: the
        // parent's final distance is at most `U(parent)`, so relaxing the tree edge lowers
        // y strictly below its seed and the seed never matters. Its vertex keeps the seed as
        // its tentative distance and stays out of the sorted list.
        self.seeds.clear();
        for l in 0..sz {
            let skip = if l == 0 { pp } else { NONE };
            let seed = row(l)
                .iter()
                .find(|a| !inside(a.to) && a.to != skip)
                .map_or(INFINITE_WEIGHT, |a| a.key);
            let via_parent = match l {
                0 => INFINITE_WEIGHT,
                _ => {
                    let p = self.parent[base + l] as usize;
                    up[p - base].saturating_add(self.base[base + l] - self.base[p])
                }
            };
            dist[l] = seed;
            up[l] = seed.min(via_parent);
            if seed != INFINITE_WEIGHT && seed <= via_parent {
                self.seeds.push((seed, l as u32));
            }
        }
        self.seeds.sort_unstable();
        // Pass 2: Dijkstra over the subtree, merging the sorted seeds with a heap that holds
        // only relaxations. An entry above its vertex's tentative distance is stale. A
        // saturated sum equals INFINITE_WEIGHT and cannot pass the strict `<`.
        let heap = &mut self.heap;
        heap.clear();
        let mut next = 0;
        loop {
            let top = heap.peek().map(|&Reverse(h)| h);
            let (d, l) = match (top, self.seeds.get(next)) {
                (Some(h), seed) if seed.is_none_or(|&s| h <= s) => {
                    heap.pop();
                    h
                }
                (_, Some(&s)) => {
                    next += 1;
                    s
                }
                (_, None) => break,
            };
            if dist[l as usize] < d {
                continue;
            }
            for a in row(l as usize) {
                let x = a.to.wrapping_sub(pc) as usize;
                if x < sz {
                    let nd = d.saturating_add(a.weight);
                    if nd < dist[x] {
                        dist[x] = nd;
                        heap.push(Reverse((nd, x as u32)));
                    }
                }
            }
        }
    }
}

/// Fills one source's replacement table with the crossing-edge decomposition (module
/// docs): one [`run_cut`](CutScratch::run_cut) per tree edge, each writing its column
/// `depth(c) − 1` for every target below `c`.
///
/// `cuts` must have been [prepared](CutScratch::prepare) for `tree`.
fn prepared_replacement_distances(
    tree: &WeightedTree,
    cuts: &mut CutScratch,
) -> WeightedReplacementDistances {
    debug_assert_eq!(cuts.root, Some(tree.source()), "scratch prepared for another tree");
    debug_assert_eq!(cuts.vert.len(), tree.order().len());
    let mut out = WeightedReplacementDistances::new(tree);
    for pc in 1..cuts.vert.len() {
        cuts.run_cut(pc as u32, cuts.parent[pc]);
        let col = tree.depth(cuts.vert[pc]) - 1;
        let sz = cuts.size[pc] as usize;
        for (&t, &d) in cuts.vert[pc..pc + sz].iter().zip(&cuts.dist) {
            out.set(t, col, d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{
        cycle_graph, grid_graph, random_weights, weighted_barabasi_albert, weighted_connected_gnm,
    };
    use msrp_graph::{Edge, WeightedGraph};
    use msrp_rpath::single_source_brute_force_with_scratch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bit-for-bit equality of the solver against the brute-force ground truth.
    fn assert_matches_brute_force(g: &WeightedCsrGraph, sources: &[Vertex]) {
        let oracle = WeightedReplacementOracle::build(g, sources);
        let mut scratch = DijkstraScratch::new();
        for (i, tree) in oracle.trees().iter().enumerate() {
            let truth = single_source_brute_force_with_scratch(g, tree, &mut scratch);
            assert_eq!(oracle.per_source()[i], truth, "source {}", sources[i]);
        }
    }

    #[test]
    fn exact_on_structured_weighted_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for topo in [cycle_graph(16), grid_graph(4, 5)] {
            let g = random_weights(&topo, 50, &mut rng).freeze();
            let sources: Vec<Vertex> = vec![0, topo.vertex_count() - 1];
            assert_matches_brute_force(&g, &sources);
        }
    }

    #[test]
    fn exact_on_seeded_random_weighted_graphs() {
        for seed in [4242u64, 77, 2026] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = weighted_connected_gnm(30, 70, 1000, &mut rng).unwrap().freeze();
            assert_matches_brute_force(&g, &[0, 10, 15, 29]);
        }
    }

    #[test]
    fn exact_on_preferential_attachment_with_skewed_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = weighted_barabasi_albert(40, 3, 9999, &mut rng).unwrap().freeze();
        assert_matches_brute_force(&g, &[0, 20, 39]);
    }

    #[test]
    fn exact_on_disconnected_weighted_graphs() {
        // Two weighted components; targets across the cut have empty rows, and failures on
        // the source side still resolve exactly.
        let g = WeightedGraph::from_edges(
            7,
            &[(0, 1, 2), (1, 2, 3), (2, 0, 9), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 3, 1)],
        )
        .unwrap()
        .freeze();
        assert_matches_brute_force(&g, &[0, 3]);
        let oracle = WeightedReplacementOracle::build(&g, &[0]);
        assert!(oracle.per_source()[0].row(4).is_empty());
        assert_eq!(oracle.replacement_distance(0, 2, Edge::new(1, 2)), Some(9));
    }

    #[test]
    fn unit_weights_match_hop_semantics() {
        let topo = grid_graph(4, 4);
        let g = WeightedGraph::from_graph(&topo, |_| 1).freeze();
        let oracle = WeightedReplacementOracle::build(&g, &[0, 15]);
        // Losing the first edge of the canonical path from 0 to 3 costs a detour of 2,
        // mirroring the unweighted doctest in `msrp-core`.
        assert_eq!(oracle.replacement_distance(0, 3, Edge::new(0, 1)), Some(5));
        assert_matches_brute_force(&g, &[0, 15]);
    }

    #[test]
    fn one_scratch_serves_sources_and_graphs_of_every_size() {
        // Large → small → large through one scratch. The small graph has a second
        // component, zero-weight edges and isolated vertices (4 and 8), and sources in each.
        let mut rng = StdRng::seed_from_u64(505);
        let large = weighted_connected_gnm(120, 300, 1000, &mut rng).unwrap().freeze();
        let small = WeightedGraph::from_edges(
            9,
            &[(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 3, 5), (5, 6, 0), (6, 7, 1), (7, 5, 3)],
        )
        .unwrap()
        .freeze();
        let larger = weighted_barabasi_albert(150, 2, 9, &mut rng).unwrap().freeze();
        let mut cuts = CutScratch::default();
        let mut brute = DijkstraScratch::new();
        let runs: [(&WeightedCsrGraph, &[Vertex]); 4] = [
            (&large, &[0, 57, 119]),
            (&small, &[0, 3, 4, 6, 8]),
            (&larger, &[149, 1, 75]),
            (&small, &[8, 7, 2]),
        ];
        for (g, sources) in runs {
            for &s in sources {
                let tree = WeightedTree::build(g, s);
                cuts.prepare(g, &tree);
                assert_eq!(
                    prepared_replacement_distances(&tree, &mut cuts),
                    single_source_brute_force_with_scratch(g, &tree, &mut brute),
                    "n={} s={s}",
                    g.vertex_count()
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scratch prepared for another tree")]
    fn cuts_on_a_scratch_prepared_for_another_source_are_caught() {
        let g = WeightedGraph::from_graph(&grid_graph(3, 3), |_| 1).freeze();
        let (t0, t8) = (WeightedTree::build(&g, 0), WeightedTree::build(&g, 8));
        let mut cuts = CutScratch::default();
        cuts.prepare(&g, &t0);
        let _ = prepared_replacement_distances(&t8, &mut cuts);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_sources_panic() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap().freeze();
        let _ = WeightedReplacementOracle::build(&g, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panic() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1)]).unwrap().freeze();
        let _ = WeightedReplacementOracle::build(&g, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1)]).unwrap().freeze();
        let _ = WeightedReplacementOracle::build(&g, &[5]);
    }
}
