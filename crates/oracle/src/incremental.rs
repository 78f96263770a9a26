//! Incremental Bernstein–Karger rebuild after a single edge change — the oracle side of
//! live-churn serving.
//!
//! A churn event toggles one edge (a failure removes it, a repair puts it back). Rebuilding
//! the whole oracle from scratch is always *correct*; the point of this module is to redo
//! strictly less work while staying **bit-for-bit equal** to the from-scratch build, which
//! is what lets the serving layer publish the result as a new epoch without a validation
//! pass.
//!
//! # Why invalidation is per *cut*, not per tree
//!
//! The tempting rule — "only sources whose BFS tree contains the failed edge rebuild" — is
//! unsound for replacement tables. Take edges `{0,1} {1,2} {0,3} {2,3}` with source 0: the
//! BFS tree is `{0,1} {1,2} {0,3}`, so removing the non-tree edge `{2,3}` leaves the tree
//! bit-identical, yet `QUERY(0, 2, {1,2})` changes from 2 (the detour 0–3–2) to ∞. Every
//! stored entry is a distance in `G \ e`, and *any* edge of `G` can carry a detour.
//!
//! The sound unit is the tree-edge **cut**. The table column of the cut below `c` is a
//! function of exactly three things (see `bk`): the seeds `d(s, x) + 1` over crossing edges,
//! the subgraph induced by the subtree of `c`, and the subtree membership itself. All three
//! depend only on (a) the shortest-path tree and (b) the set of edges with at least one
//! endpoint inside the subtree. So when the tree is unchanged, a toggled edge can only dirty
//! the cuts whose subtree contains one of its endpoints — the ancestors of those endpoints,
//! an `O(depth)` chain (the cut below `c` is dirty exactly when `c` is an ancestor of an
//! endpoint, [`ShortestPathTree::is_ancestor`]) — and every other column is reused
//! verbatim.
//!
//! # The per-source ladder
//!
//! For each source, cheapest applicable rung wins:
//!
//! 1. **Reuse** — both endpoints of the toggled edge are unreachable from the source. The
//!    change lives entirely in a component the source never sees: tree and rows are shared
//!    (cheap `Vec` clones of the same values).
//! 2. **Patch** — a fresh BFS on the new graph produces the same distances *and* parents as
//!    the old tree. Only the dirty cuts (ancestors of the toggled edge's endpoints) are
//!    re-solved; clean columns are kept.
//! 3. **Rebuild** — the tree changed; the whole per-source table is reconstructed with the
//!    ordinary BK pipeline.
//!
//! The equality test in rung 2 compares distances and parents, not traversal order: any
//! tree with the same parent function yields the same canonical paths, the same subtree
//! *sets*, and therefore the same table values.
//!
//! The differential suite at the bottom of this module drives seeded toggle sequences
//! through [`ReplacementPathOracle::rebuild_bk`] and pins the result row-for-row against
//! `build_bk` from scratch.

use std::time::{Duration, Instant};

use msrp_graph::{BfsScratch, CsrGraph, Edge, ShortestPathTree, Vertex};

use crate::bk::{bk_replacement_distances, solve_cut_into, BkScratch};
use crate::ReplacementPathOracle;

/// Work accounting of one (or several, via [`merge`](RebuildStats::merge)) incremental
/// rebuilds — the evidence that invalidation actually saved work over a from-scratch build,
/// which would rebuild every source and re-solve every cut.
///
/// Besides the rung *counts*, each rung also accumulates the wall time its sources spent
/// in it, so a stalled rebuild can be attributed (was the time burned re-solving dirty
/// cuts of patched sources, or in full per-source rebuilds?). Timing is always on: one
/// `Instant` pair per source, which is noise next to even a single BFS.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Sources the oracle covers (what a full rebuild recomputes).
    pub sources_total: usize,
    /// Sources whose tree and rows were reused verbatim (both endpoints unreachable).
    pub sources_reused: usize,
    /// Sources whose tree survived and only dirty cuts were re-solved.
    pub sources_patched: usize,
    /// Sources rebuilt with the full BK pipeline (the tree changed).
    pub sources_rebuilt: usize,
    /// Tree-edge cuts across all sources *after* the change (full-rebuild work unit count).
    pub cuts_total: usize,
    /// Cuts actually re-solved (all cuts of rebuilt sources + dirty cuts of patched ones).
    pub cuts_recomputed: usize,
    /// Wall time spent on sources that took the reuse rung (clone-only).
    pub reuse_time: Duration,
    /// Wall time spent on sources that took the patch rung (BFS + dirty-cut solves).
    pub patch_time: Duration,
    /// Wall time spent on sources that took the full-rebuild rung.
    pub rebuild_time: Duration,
}

impl RebuildStats {
    /// Accumulates another rebuild's counts (e.g. across shards or across churn events).
    pub fn merge(&mut self, other: &RebuildStats) {
        self.sources_total += other.sources_total;
        self.sources_reused += other.sources_reused;
        self.sources_patched += other.sources_patched;
        self.sources_rebuilt += other.sources_rebuilt;
        self.cuts_total += other.cuts_total;
        self.cuts_recomputed += other.cuts_recomputed;
        self.reuse_time += other.reuse_time;
        self.patch_time += other.patch_time;
        self.rebuild_time += other.rebuild_time;
    }

    /// The ladder as a table: `(rung name, sources that took it, wall time spent in it)`,
    /// cheapest rung first. Consumed by the churn report's stage table and the metrics
    /// exposition.
    pub fn rungs(&self) -> [(&'static str, usize, Duration); 3] {
        [
            ("reuse", self.sources_reused, self.reuse_time),
            ("patch", self.sources_patched, self.patch_time),
            ("rebuild", self.sources_rebuilt, self.rebuild_time),
        ]
    }

    /// Total wall time across the three rungs (≤ the caller-observed rebuild wall time,
    /// which also covers scratch setup and shard orchestration).
    pub fn rung_time(&self) -> Duration {
        self.reuse_time + self.patch_time + self.rebuild_time
    }

    /// `true` when the incremental path did strictly less work than a from-scratch build on
    /// both axes: fewer full per-source rebuilds than sources, and fewer re-solved cuts than
    /// cuts. (On a graph with no cuts this is vacuously false; churn workloads always have
    /// cuts.)
    pub fn strictly_less_than_full(&self) -> bool {
        self.sources_rebuilt < self.sources_total && self.cuts_recomputed < self.cuts_total
    }
}

/// The dirty cuts of a tree for a toggled edge: every reachable ancestor chain vertex of the
/// edge's endpoints, root excluded (the root has no cut above it). These are exactly the
/// cuts `c` that are ancestors of `changed.lo()` or `changed.hi()`, enumerated in
/// `O(depth)` by walking parent pointers instead of testing all `n` cuts.
fn dirty_cuts(tree: &ShortestPathTree, changed: Edge) -> Vec<Vertex> {
    let mut dirty = Vec::new();
    for endpoint in [changed.lo(), changed.hi()] {
        if !tree.is_reachable(endpoint) {
            continue;
        }
        let mut v = endpoint;
        while let Some(p) = tree.parent(v) {
            dirty.push(v);
            v = p;
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// `true` when the two trees encode the same shortest-path forest: equal distance arrays and
/// equal parent functions. Traversal-order fields are deliberately not compared (they do not
/// affect any stored answer).
fn same_forest(a: &ShortestPathTree, b: &ShortestPathTree) -> bool {
    a.distances() == b.distances() && a.parents_raw() == b.parents_raw()
}

impl ReplacementPathOracle {
    /// Rebuilds this oracle for `g_new` — the graph it was built over with the single edge
    /// `changed` added or removed — reusing every per-source table the change provably does
    /// not touch. The result is bit-for-bit equal to `build_bk(g_new, sources)`; the
    /// returned [`RebuildStats`] say how much work that equality cost.
    ///
    /// # Panics
    ///
    /// Panics if `g_new` has a different vertex count than the graph this oracle was built
    /// over, or if an endpoint of `changed` is out of range.
    pub fn rebuild_bk(&self, g_new: &CsrGraph, changed: Edge) -> (Self, RebuildStats) {
        let n = g_new.vertex_count();
        assert_eq!(n, self.vertex_count(), "churn must not change the vertex set");
        assert!(changed.hi() < n, "changed edge {changed:?} out of range");
        // The per-source probe runs the top-down kernel, one source at a time. It is
        // bit-identical to the wave `build_bk` builds its trees with, so `same_forest`
        // and the row-for-row equality with a fresh `build_bk` are untouched.
        let mut bfs = BfsScratch::new();
        let mut scratch = BkScratch::new();
        let mut stats = RebuildStats { sources_total: self.sources.len(), ..Default::default() };
        let mut trees = Vec::with_capacity(self.trees.len());
        let mut distances = Vec::with_capacity(self.distances.len());
        for (old_tree, old_rows) in self.trees.iter().zip(&self.distances) {
            let rung_start = Instant::now();
            if !old_tree.is_reachable(changed.lo()) && !old_tree.is_reachable(changed.hi()) {
                // Rung 1: the toggled edge lives entirely in a component this source never
                // reaches (a removal keeps it unreachable; an addition between two
                // unreachable vertices merges components the source still cannot enter).
                // No BFS from the source and no cut search ever traverses it.
                stats.sources_reused += 1;
                stats.cuts_total += old_tree.order().len().saturating_sub(1);
                trees.push(old_tree.clone());
                distances.push(old_rows.clone());
                stats.reuse_time += rung_start.elapsed();
                continue;
            }
            let new_tree = ShortestPathTree::build_with_scratch(g_new, old_tree.source(), &mut bfs);
            stats.cuts_total += new_tree.order().len().saturating_sub(1);
            if same_forest(&new_tree, old_tree) {
                // Rung 2: same forest ⇒ same canonical paths, same row layout, same subtree
                // sets. Only cuts whose subtree contains a toggled endpoint can differ.
                let mut rows = old_rows.clone();
                let dirty = dirty_cuts(&new_tree, changed);
                if !dirty.is_empty() {
                    // The same O(n + m) relabel the fresh BFS above already paid for.
                    scratch.prepare(g_new, &new_tree);
                }
                for &c in &dirty {
                    let p = new_tree.parent(c).expect("dirty cut vertex has a parent");
                    debug_assert!(
                        new_tree.is_ancestor(c, changed.lo())
                            || new_tree.is_ancestor(c, changed.hi())
                    );
                    solve_cut_into(&new_tree, &mut scratch, &mut rows, p, c);
                }
                stats.cuts_recomputed += dirty.len();
                stats.sources_patched += 1;
                trees.push(new_tree);
                distances.push(rows);
                stats.patch_time += rung_start.elapsed();
            } else {
                // Rung 3: the shortest-path forest changed; rebuild this source outright.
                stats.cuts_recomputed += new_tree.order().len().saturating_sub(1);
                stats.sources_rebuilt += 1;
                distances.push(bk_replacement_distances(g_new, &new_tree, &mut scratch));
                trees.push(new_tree);
                stats.rebuild_time += rung_start.elapsed();
            }
        }
        (Self::from_parts(self.sources.clone(), trees, distances), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, grid_graph, path_graph};
    use msrp_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Tree-for-tree and row-for-row equality with a from-scratch build: the oracle's
    /// entire answer state.
    fn assert_equals_scratch_build(inc: &ReplacementPathOracle, g: &CsrGraph) {
        let full = ReplacementPathOracle::build_bk(g, inc.sources());
        assert_eq!(inc.trees(), full.trees());
        assert_eq!(inc.per_source(), full.per_source());
    }

    /// Toggles `e` in `g`: removes it when present, adds it when absent.
    fn toggle(g: &mut Graph, e: Edge) {
        let (u, v) = e.endpoints();
        if g.has_edge(u, v) {
            g.remove_edge(u, v).unwrap();
        } else {
            g.add_edge(u, v).unwrap();
        }
    }

    fn drive_sequence(mut g: Graph, sources: &[Vertex], seed: u64, steps: usize) -> RebuildStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = ReplacementPathOracle::build_bk(&g.freeze(), sources);
        let mut removed: Vec<Edge> = Vec::new();
        let mut agg = RebuildStats::default();
        for step in 0..steps {
            // Alternate failures and repairs, biased toward failures while few are down.
            let repair = !removed.is_empty() && rng.gen_range(0..3usize) == 0;
            let e = if repair {
                removed.swap_remove(rng.gen_range(0..removed.len()))
            } else {
                let edges = g.edge_vec();
                edges[rng.gen_range(0..edges.len())]
            };
            if !repair {
                removed.push(e);
            }
            toggle(&mut g, e);
            let csr = g.freeze();
            let wall_start = Instant::now();
            let (next, stats) = oracle.rebuild_bk(&csr, e);
            let wall = wall_start.elapsed();
            assert_eq!(
                stats.sources_reused + stats.sources_patched + stats.sources_rebuilt,
                stats.sources_total,
                "step {step}: every source takes exactly one rung"
            );
            assert!(stats.cuts_recomputed <= stats.cuts_total, "step {step}");
            assert!(stats.rung_time() <= wall, "step {step}: rung times cannot exceed wall");
            for (name, count, time) in stats.rungs() {
                assert!(
                    count > 0 || time == Duration::ZERO,
                    "step {step}: rung {name} charged {time:?} with no sources"
                );
            }
            assert_equals_scratch_build(&next, &csr);
            agg.merge(&stats);
            oracle = next;
        }
        agg
    }

    #[test]
    fn random_toggle_sequences_match_scratch_builds() {
        let mut rng = StdRng::seed_from_u64(501);
        for seed in 0..4u64 {
            let g = connected_gnm(28, 70, &mut rng).unwrap();
            let agg = drive_sequence(g, &[0, 9, 18, 27], 600 + seed, 12);
            assert!(
                agg.strictly_less_than_full(),
                "incremental must beat full rebuild in aggregate: {agg:?}"
            );
        }
    }

    #[test]
    fn grid_toggles_patch_rather_than_rebuild() {
        // Grids are dense in non-tree edges: most toggles leave every BFS forest intact, so
        // the patched rung must dominate and the aggregate stays strictly below full work.
        let agg = drive_sequence(grid_graph(6, 6), &[0, 35], 77, 10);
        assert!(agg.sources_patched > 0, "{agg:?}");
        assert!(agg.strictly_less_than_full(), "{agg:?}");
    }

    #[test]
    fn patch_after_a_rebuilt_source_relabels_for_its_own_tree() {
        // Sources share one scratch in order. When the first source's tree changes (its
        // full rebuild prepares the scratch for that tree) and the second only re-solves
        // dirty cuts, the patch must prepare the scratch for its own tree first.
        let mut rng = StdRng::seed_from_u64(909);
        let g0 = connected_gnm(30, 70, &mut rng).unwrap();
        let csr0 = g0.freeze();
        let alone = |s: Vertex, g: &CsrGraph, e: Edge| {
            ReplacementPathOracle::build_bk(&csr0, &[s]).rebuild_bk(g, e).1
        };
        let mut found = 0;
        for e in g0.edge_vec() {
            let mut g = g0.clone();
            toggle(&mut g, e);
            let csr = g.freeze();
            for (a, b) in [(0, 15), (15, 0), (7, 22), (22, 7)] {
                let (sa, sb) = (alone(a, &csr, e), alone(b, &csr, e));
                if sa.sources_rebuilt == 1 && sb.sources_patched == 1 && sb.cuts_recomputed > 0 {
                    let oracle = ReplacementPathOracle::build_bk(&csr0, &[a, b]);
                    let (next, stats) = oracle.rebuild_bk(&csr, e);
                    assert_eq!((stats.sources_rebuilt, stats.sources_patched), (1, 1), "{e:?}");
                    assert_equals_scratch_build(&next, &csr);
                    found += 1;
                }
            }
        }
        assert!(found > 0, "no toggle rebuilt one source and patched the next");
    }

    #[test]
    fn bridge_removal_and_repair_round_trip() {
        // On a path every edge is a bridge: removal changes the tree (full per-source
        // rebuild) and disconnects a suffix; repairing it must restore the original tables.
        let mut g = path_graph(8);
        let csr0 = g.freeze();
        let oracle0 = ReplacementPathOracle::build_bk(&csr0, &[0, 7]);
        let bridge = Edge::new(3, 4);
        toggle(&mut g, bridge);
        let (broken, stats) = oracle0.rebuild_bk(&g.freeze(), bridge);
        assert_equals_scratch_build(&broken, &g.freeze());
        assert_eq!(stats.sources_rebuilt, 2, "a bridge removal reshapes both trees");
        assert_eq!(broken.distance(0, 7), None);
        toggle(&mut g, bridge);
        let (repaired, _) = broken.rebuild_bk(&g.freeze(), bridge);
        assert_equals_scratch_build(&repaired, &g.freeze());
        assert_eq!(repaired.trees(), oracle0.trees(), "repair restores the trees");
        assert_eq!(repaired.per_source(), oracle0.per_source(), "repair restores the tables");
    }

    #[test]
    fn changes_in_unseen_components_reuse_everything() {
        // Two components; sources live in the first. Toggling inside the second must reuse
        // every per-source table without running a single BFS or cut search.
        let mut g = Graph::new(10);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8), (8, 5)] {
            g.add_edge(u, v).unwrap();
        }
        let oracle = ReplacementPathOracle::build_bk(&g.freeze(), &[0, 2]);
        let far = Edge::new(5, 7);
        toggle(&mut g, far);
        let (next, stats) = oracle.rebuild_bk(&g.freeze(), far);
        assert_eq!(stats.sources_reused, 2);
        assert_eq!(stats.cuts_recomputed, 0);
        assert_eq!(stats.patch_time, Duration::ZERO, "no time may be charged to idle rungs");
        assert_eq!(stats.rebuild_time, Duration::ZERO);
        assert_equals_scratch_build(&next, &g.freeze());
    }

    #[test]
    fn nontree_edge_removal_still_changes_answers() {
        // The soundness counterexample from the module docs: removing a *non-tree* edge
        // leaves the BFS tree identical but flips a stored detour to ∞. The patched rung
        // must catch it (a tree-level invalidation rule would not).
        let g0 = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (2, 3)]).unwrap();
        let oracle = ReplacementPathOracle::build_bk(&g0.freeze(), &[0]);
        assert_eq!(oracle.replacement_distance(0, 2, Edge::new(1, 2)), Some(2));
        let mut g = g0.clone();
        let nontree = Edge::new(2, 3);
        toggle(&mut g, nontree);
        let (next, stats) = oracle.rebuild_bk(&g.freeze(), nontree);
        // (The graph is so small that both endpoints' ancestor chains cover every cut, so
        // no cut is spared here — the saving shows on real workloads; what this test pins
        // is that the *patched* rung, not a tree-level skip, handles non-tree edges.)
        assert_eq!(stats.sources_patched, 1, "{stats:?}");
        assert_eq!(
            next.replacement_distance(0, 2, Edge::new(1, 2)),
            Some(msrp_graph::INFINITE_DISTANCE)
        );
        assert_equals_scratch_build(&next, &g.freeze());
    }

    #[test]
    fn dirty_cuts_are_the_ancestors_of_the_changed_endpoints() {
        // `dirty_cuts` against its definition, by brute force over every vertex: the
        // reachable non-root ancestors of either endpoint.
        let mut rng = StdRng::seed_from_u64(313);
        let graphs = [
            msrp_graph::generators::gnm(40, 60, &mut rng).unwrap(),
            connected_gnm(30, 70, &mut rng).unwrap(),
            grid_graph(5, 6),
            Graph::from_edges(12, &[(0, 1), (1, 2), (2, 0), (2, 3), (5, 6), (6, 7), (7, 5)])
                .unwrap(),
        ];
        for g in &graphs {
            let n = g.vertex_count();
            for s in [0, n / 2, n - 1] {
                let tree = ShortestPathTree::build(&g.freeze(), s);
                for e in g.edges() {
                    let expected: Vec<Vertex> = (0..n)
                        .filter(|&c| c != s && tree.is_reachable(c))
                        .filter(|&c| tree.is_ancestor(c, e.lo()) || tree.is_ancestor(c, e.hi()))
                        .collect();
                    assert_eq!(dirty_cuts(&tree, e), expected, "s={s} e={e:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "vertex set")]
    fn vertex_count_mismatch_is_rejected() {
        let g = path_graph(5);
        let oracle = ReplacementPathOracle::build_bk(&g.freeze(), &[0]);
        let _ = oracle.rebuild_bk(&path_graph(6).freeze(), Edge::new(0, 1));
    }
}
