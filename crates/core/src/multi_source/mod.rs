//! Section 8: computing the source→landmark replacement tables for *many* sources within the
//! `Õ(m·sqrt(nσ) + σn²)` budget (the paper's main contribution beyond Chechik–Cohen).
//!
//! The pipeline, per the paper:
//!
//! 1. sample **centers** `C_k` like landmarks; we additionally force all sources *and all
//!    landmarks* into `C_0` (see `DESIGN.md`) so that every source→landmark path starts and
//!    ends at a center, closing the boundary intervals of the path-cover decomposition;
//! 2. **Section 8.1** — replacement paths from every source to every center for edges within
//!    the center's window (auxiliary graph per source);
//! 3. **Section 8.2** — replacement paths from every center to every landmark for edges within
//!    the center's window (8.2.1 small paths through centers, 8.2.2 auxiliary graph per center);
//! 4. **Section 8.3** — interval decomposition of every source→landmark path, MTC values, the
//!    bottleneck edge of every interval, and one more auxiliary graph per source whose Dijkstra
//!    yields the replacement distances avoiding each bottleneck edge;
//! 5. assembly: `d(s, r, e) = min(small(s, r, e), MTC(s, r, e), d(s, r, B[s, r, i(e)]))`, plus
//!    an optional Algorithm-4-style refinement sweep (`MsrpParams::refinement_sweeps`) that
//!    relaxes the table through level-0 landmarks — this mops up the boundary configurations the
//!    paper's prose glosses over; every candidate is a valid path length, so the sweep can only
//!    improve entries.

mod center_to_landmark;
mod intervals;
mod source_to_center;

pub use center_to_landmark::{
    center_to_landmark_replacements, small_paths_through_centers, CenterLandmarkMap,
};
pub use intervals::{
    anchor_positions, decompose_path, interval_of_edge, mtc_value, Interval, MtcInputs,
};
pub use source_to_center::{source_to_center_replacements, SourceCenterMap};

use std::collections::HashMap;

use msrp_graph::{
    dist_add, CsrGraph, Distance, Edge, ShortestPathTree, Vertex, WeightedDigraph,
    INFINITE_DISTANCE, INFINITE_WEIGHT,
};

use crate::near_small::NearSmallResult;
use crate::params::MsrpParams;
use crate::preprocess::BfsIndex;
use crate::sampling::SampledLevels;
use crate::source_landmark::SourceLandmarkTable;
use crate::stats::AlgorithmStats;

/// Everything the path-cover construction needs from the earlier phases.
pub struct PathCoverInputs<'a> {
    /// The input graph (frozen CSR view).
    pub g: &'a CsrGraph,
    /// Algorithm parameters.
    pub params: &'a MsrpParams,
    /// Number of sources (σ).
    pub sigma: usize,
    /// The sources.
    pub sources: &'a [Vertex],
    /// Canonical BFS tree per source.
    pub source_trees: &'a [ShortestPathTree],
    /// The sampled landmark hierarchy.
    pub landmarks: &'a SampledLevels,
    /// BFS trees of the landmarks.
    pub landmark_index: &'a BfsIndex,
    /// Section 7.1 results, one per source.
    pub near_small: &'a [NearSmallResult],
}

/// Builds the source→landmark replacement table with the Section 8 machinery.
pub fn build_path_cover_table(
    inputs: &PathCoverInputs<'_>,
    stats: &mut AlgorithmStats,
) -> SourceLandmarkTable {
    let g = inputs.g;
    let params = inputs.params;
    let sigma = inputs.sigma;
    let n = g.vertex_count();

    // --- Centers (forced: sources ∪ landmarks). ---
    let mut forced: Vec<Vertex> = inputs.sources.to_vec();
    forced.extend_from_slice(inputs.landmarks.all());
    let centers = stats.time_phase("center sampling", || {
        SampledLevels::sample_seeded(n, sigma, params, params.seed ^ 0x9E37_79B9, &forced)
    });
    stats.center_count = centers.len();
    let center_index = stats.time_phase("center BFS", || BfsIndex::build(g, centers.all()));

    // --- Section 8.1: source → center. ---
    let source_center: Vec<SourceCenterMap> = stats.time_phase("source-to-center (8.1)", || {
        inputs
            .source_trees
            .iter()
            .zip(inputs.near_small.iter())
            .map(|(tree_s, near)| {
                source_to_center_replacements(
                    g,
                    tree_s,
                    &centers,
                    &center_index,
                    near,
                    params,
                    sigma,
                )
            })
            .collect()
    });

    // --- Section 8.2: center → landmark. ---
    let small_through = stats.time_phase("small paths through centers (8.2.1)", || {
        small_paths_through_centers(
            inputs.source_trees,
            inputs.near_small,
            inputs.landmark_index,
            &centers,
        )
    });
    let center_landmark = stats.time_phase("center-to-landmark (8.2.2)", || {
        center_to_landmark_replacements(
            g,
            &centers,
            &center_index,
            inputs.landmark_index,
            &small_through,
            params,
            sigma,
        )
    });

    // --- Section 8.3 + assembly, per source. ---
    let rows = stats.time_phase("intervals, bottlenecks, assembly (8.3)", || {
        inputs
            .source_trees
            .iter()
            .enumerate()
            .map(|(s_idx, tree_s)| {
                assemble_source_rows(
                    inputs,
                    tree_s,
                    &centers,
                    &center_index,
                    &source_center[s_idx],
                    &center_landmark,
                    &inputs.near_small[s_idx],
                )
            })
            .collect::<Vec<_>>()
    });

    let mut table_rows = rows;
    if params.refinement_sweeps > 0 {
        stats.time_phase("refinement sweeps", || {
            for (s_idx, tree_s) in inputs.source_trees.iter().enumerate() {
                refine_rows(inputs, tree_s, &mut table_rows[s_idx]);
            }
        });
    }
    SourceLandmarkTable::from_rows(table_rows)
}

/// Builds the `d(s, r, ·)` rows for one source: MTC values, bottleneck edges, the Section 8.3
/// auxiliary graph, and the final minimum.
#[allow(clippy::too_many_arguments)]
fn assemble_source_rows(
    inputs: &PathCoverInputs<'_>,
    tree_s: &ShortestPathTree,
    centers: &SampledLevels,
    center_index: &BfsIndex,
    source_center: &SourceCenterMap,
    center_landmark: &CenterLandmarkMap,
    near_small: &NearSmallResult,
) -> Vec<Vec<Distance>> {
    let landmark_index = inputs.landmark_index;
    let landmark_count = landmark_index.len();

    // Lookup closures shared by the MTC evaluation.
    let c2l_lookup = |c: Vertex, r: Vertex, e: Edge| -> Distance {
        let c_tree = match center_index.tree_of(c) {
            Some(t) => t,
            None => return INFINITE_DISTANCE,
        };
        if !c_tree.path_contains_edge(r, e) {
            c_tree.distance_or_infinite(r)
        } else {
            center_landmark.get(&(c, r, e)).copied().unwrap_or(INFINITE_DISTANCE)
        }
    };
    let s2c_lookup = |c: Vertex, edge_child: Vertex| -> Distance {
        source_center.get(&(c, edge_child)).copied().unwrap_or(INFINITE_DISTANCE)
    };

    // Per landmark: the canonical path, its anchors/intervals, and the MTC value per edge.
    let mut paths: Vec<Option<Vec<Vertex>>> = Vec::with_capacity(landmark_count);
    let mut anchors_per: Vec<Vec<usize>> = Vec::with_capacity(landmark_count);
    let mut intervals_per: Vec<Vec<Interval>> = Vec::with_capacity(landmark_count);
    let mut mtc_per: Vec<Vec<Distance>> = Vec::with_capacity(landmark_count);
    for r_idx in 0..landmark_count {
        let r = landmark_index.vertices()[r_idx];
        let path = if r == tree_s.source() { None } else { tree_s.path_from_source(r) };
        match path {
            Some(path) if path.len() >= 2 => {
                let anchors = anchor_positions(&path, centers);
                let intervals = decompose_path(&path, centers);
                let c2l = |c: Vertex, e: Edge| c2l_lookup(c, r, e);
                let mtc_inputs = MtcInputs {
                    path: &path,
                    anchors: &anchors,
                    center_to_landmark: &c2l,
                    source_to_center: &s2c_lookup,
                };
                let mtc: Vec<Distance> =
                    (0..path.len() - 1).map(|pos| mtc_value(&mtc_inputs, pos)).collect();
                paths.push(Some(path));
                anchors_per.push(anchors);
                intervals_per.push(intervals);
                mtc_per.push(mtc);
            }
            _ => {
                paths.push(None);
                anchors_per.push(Vec::new());
                intervals_per.push(Vec::new());
                mtc_per.push(Vec::new());
            }
        }
    }

    // Bottleneck edge per (landmark, interval): the edge position maximizing the MTC value.
    let mut bottleneck_pos: Vec<Vec<usize>> = Vec::with_capacity(landmark_count);
    for r_idx in 0..landmark_count {
        let mut per_interval = Vec::with_capacity(intervals_per[r_idx].len());
        for iv in &intervals_per[r_idx] {
            let mut best_pos = iv.start_pos;
            let mut best_val = 0u64;
            for (pos, &mtc) in mtc_per[r_idx].iter().enumerate().take(iv.end_pos).skip(iv.start_pos)
            {
                let v = mtc as u64;
                if v >= best_val {
                    best_val = v;
                    best_pos = pos;
                }
            }
            per_interval.push(best_pos);
        }
        bottleneck_pos.push(per_interval);
    }

    // --- Section 8.3 auxiliary graph. ---
    // Node 0 = [s]; nodes [r] per landmark; nodes [s, r, i] per (landmark, interval).
    let mut aux = WeightedDigraph::new(1);
    let mut landmark_node: Vec<Option<usize>> = vec![None; landmark_count];
    for (r_idx, node) in landmark_node.iter_mut().enumerate() {
        let r = landmark_index.vertices()[r_idx];
        if !tree_s.is_reachable(r) {
            continue;
        }
        let idx = aux.add_node();
        *node = Some(idx);
        aux.add_edge(0, idx, tree_s.distance_or_infinite(r) as u64);
    }
    let mut interval_node: HashMap<(usize, usize), usize> = HashMap::new();
    for (r_idx, ivs) in intervals_per.iter().enumerate() {
        for i in 0..ivs.len() {
            let idx = aux.add_node();
            interval_node.insert((r_idx, i), idx);
        }
    }
    // Helper: MTC(s, r', B) for an arbitrary landmark r' and an arbitrary edge B; falls back to
    // d(s, r') when B is not on the canonical s–r' path.
    let mtc_for = |r_idx: usize, e: Edge, edge_child: Vertex| -> Distance {
        match &paths[r_idx] {
            None => INFINITE_DISTANCE,
            Some(path) => {
                let r = landmark_index.vertices()[r_idx];
                match tree_s.edge_position_on_path(r, e) {
                    None => tree_s.distance_or_infinite(r),
                    Some(pos) => {
                        let _ = path;
                        let _ = edge_child;
                        mtc_per[r_idx][pos]
                    }
                }
            }
        }
    };
    for r_idx in 0..landmark_count {
        let r = landmark_index.vertices()[r_idx];
        for (i, iv) in intervals_per[r_idx].iter().enumerate() {
            let node = interval_node[&(r_idx, i)];
            let path = paths[r_idx].as_ref().expect("intervals exist only for real paths");
            let b_pos = bottleneck_pos[r_idx][i];
            let b_edge = Edge::new(path[b_pos], path[b_pos + 1]);
            let b_child = path[b_pos + 1];
            let _ = iv;
            // Small near-edge path avoiding the bottleneck, when Section 7.1 labelled it.
            if let Some(w) = near_small.distance(r, b_child) {
                aux.add_edge(0, node, w as u64);
            }
            // MTC of the bottleneck itself.
            let own_mtc = mtc_per[r_idx][b_pos];
            if own_mtc != INFINITE_DISTANCE {
                aux.add_edge(0, node, own_mtc as u64);
            }
            // Candidates through every other landmark r'.
            for rp_idx in 0..landmark_count {
                if rp_idx == r_idx {
                    continue;
                }
                let rp = landmark_index.vertices()[rp_idx];
                let rp_tree = landmark_index.tree(rp_idx);
                if rp_tree.path_contains_edge(r, b_edge) {
                    continue; // canonical r'–r path must avoid B
                }
                let rp_to_r = rp_tree.distance_or_infinite(r);
                if rp_to_r == INFINITE_DISTANCE {
                    continue;
                }
                // [s] -> [s, r, i] with weight MTC(s, r', B) + d(r', r).
                let through = dist_add(mtc_for(rp_idx, b_edge, b_child), rp_to_r);
                if through != INFINITE_DISTANCE {
                    aux.add_edge(0, node, through as u64);
                }
                // [s, r', j] -> [s, r, i] when B lies in interval j of the s–r' path.
                if let Some(b_pos_on_rp) = tree_s.edge_position_on_path(rp, b_edge) {
                    if let Some(j) = interval_of_edge(&intervals_per[rp_idx], b_pos_on_rp) {
                        let from = interval_node[&(rp_idx, j)];
                        aux.add_edge(from, node, rp_to_r as u64);
                    }
                }
            }
        }
    }
    let bottleneck_result = aux.dijkstra(0);
    let bottleneck_value = |r_idx: usize, interval: usize| -> Distance {
        match interval_node.get(&(r_idx, interval)) {
            None => INFINITE_DISTANCE,
            Some(&idx) => {
                let d = bottleneck_result.dist[idx];
                if d == INFINITE_WEIGHT {
                    INFINITE_DISTANCE
                } else {
                    d.min(Distance::MAX as u64 - 1) as Distance
                }
            }
        }
    };

    // --- Final assembly. ---
    let mut rows: Vec<Vec<Distance>> = Vec::with_capacity(landmark_count);
    for r_idx in 0..landmark_count {
        let r = landmark_index.vertices()[r_idx];
        let row = match &paths[r_idx] {
            None => Vec::new(),
            Some(path) => {
                let k = path.len() - 1;
                let mut row = vec![INFINITE_DISTANCE; k];
                for pos in 0..k {
                    let mut best = mtc_per[r_idx][pos];
                    if let Some(i) = interval_of_edge(&intervals_per[r_idx], pos) {
                        best = best.min(bottleneck_value(r_idx, i));
                    }
                    if let Some(w) = near_small.distance(r, path[pos + 1]) {
                        best = best.min(w);
                    }
                    row[pos] = best;
                }
                row
            }
        };
        rows.push(row);
    }
    rows
}

/// Algorithm-4-style refinement of one source's rows: relax every `(r, e)` entry through every
/// level-0 landmark `r'` whose canonical path to `r` avoids `e`. Entries only decrease and every
/// candidate is a valid path length.
fn refine_rows(
    inputs: &PathCoverInputs<'_>,
    tree_s: &ShortestPathTree,
    rows: &mut [Vec<Distance>],
) {
    let landmark_index = inputs.landmark_index;
    let level0 = inputs.landmarks.level(0);
    // Process landmarks in increasing order of distance from the source so that most
    // dependencies are already settled when they are read.
    let mut order: Vec<usize> = (0..landmark_index.len()).collect();
    order.sort_by_key(|&r_idx| tree_s.distance_or_infinite(landmark_index.vertices()[r_idx]));

    for _ in 0..inputs.params.refinement_sweeps {
        for &r_idx in &order {
            let r = landmark_index.vertices()[r_idx];
            if r == tree_s.source() || !tree_s.is_reachable(r) {
                continue;
            }
            let path = match tree_s.path_from_source(r) {
                Some(p) => p,
                None => continue,
            };
            for pos in 0..path.len() - 1 {
                let e = Edge::new(path[pos], path[pos + 1]);
                let mut best = rows[r_idx][pos];
                for &rp in level0 {
                    if rp == r {
                        continue;
                    }
                    let rp_idx = match landmark_index.index(rp) {
                        Some(i) => i,
                        None => continue,
                    };
                    let rp_tree = landmark_index.tree(rp_idx);
                    if rp_tree.path_contains_edge(r, e) {
                        continue;
                    }
                    let d_rp_r = rp_tree.distance_or_infinite(r);
                    let s_to_rp = match tree_s.edge_position_on_path(rp, e) {
                        Some(p) => rows[rp_idx].get(p).copied().unwrap_or(INFINITE_DISTANCE),
                        None => tree_s.distance_or_infinite(rp),
                    };
                    best = best.min(dist_add(s_to_rp, d_rp_r));
                }
                rows[r_idx][pos] = best;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::near_small::build_near_small;
    use msrp_graph::generators::{connected_gnm, cycle_graph, grid_graph};
    use msrp_graph::Graph;
    use msrp_rpath::replacement_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_inputs(
        g: &CsrGraph,
        sources: &[Vertex],
        params: &MsrpParams,
    ) -> (Vec<ShortestPathTree>, SampledLevels, BfsIndex, Vec<NearSmallResult>) {
        let sigma = sources.len();
        let trees: Vec<_> = sources.iter().map(|&s| ShortestPathTree::build(g, s)).collect();
        let landmarks =
            SampledLevels::sample_seeded(g.vertex_count(), sigma, params, params.seed, sources);
        let landmark_index = BfsIndex::build(g, landmarks.all());
        let near: Vec<_> = trees.iter().map(|t| build_near_small(g, t, params, sigma)).collect();
        (trees, landmarks, landmark_index, near)
    }

    fn table_matches_truth(g: &Graph, sources: &[Vertex], params: &MsrpParams) {
        let csr = g.freeze();
        let (trees, landmarks, landmark_index, near) = build_inputs(&csr, sources, params);
        let inputs = PathCoverInputs {
            g: &csr,
            params,
            sigma: sources.len(),
            sources,
            source_trees: &trees,
            landmarks: &landmarks,
            landmark_index: &landmark_index,
            near_small: &near,
        };
        let mut stats = AlgorithmStats::default();
        let table = build_path_cover_table(&inputs, &mut stats);
        for (s_idx, &s) in sources.iter().enumerate() {
            for (r_idx, &r) in landmark_index.vertices().iter().enumerate() {
                let edges = trees[s_idx].path_edges(r);
                for (pos, e) in edges.iter().enumerate() {
                    let truth = replacement_distance(g, s, r, *e);
                    let got = table.row(s_idx, r_idx)[pos];
                    assert!(got >= truth, "under-estimate at s={s}, r={r}, e={e}");
                    assert_eq!(got, truth, "s={s}, r={r}, e={e}: got {got}, want {truth}");
                }
            }
        }
        assert!(stats.center_count >= landmarks.len());
    }

    #[test]
    fn path_cover_table_is_exact_on_cycles() {
        table_matches_truth(&cycle_graph(14), &[0, 7], &MsrpParams::default());
    }

    #[test]
    fn path_cover_table_is_exact_on_grids() {
        table_matches_truth(&grid_graph(4, 4), &[0, 15], &MsrpParams::default());
    }

    #[test]
    fn path_cover_table_is_exact_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [18usize, 26] {
            let g = connected_gnm(n, 2 * n, &mut rng).unwrap();
            table_matches_truth(&g, &[0, n / 3, 2 * n / 3], &MsrpParams::default());
        }
    }

    #[test]
    fn refinement_never_increases_entries() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = connected_gnm(24, 48, &mut rng).unwrap();
        let params = MsrpParams { refinement_sweeps: 0, ..MsrpParams::default() };
        let sources = [0usize, 12];
        let csr = g.freeze();
        let (trees, landmarks, landmark_index, near) = build_inputs(&csr, &sources, &params);
        let inputs = PathCoverInputs {
            g: &csr,
            params: &params,
            sigma: 2,
            sources: &sources,
            source_trees: &trees,
            landmarks: &landmarks,
            landmark_index: &landmark_index,
            near_small: &near,
        };
        let mut stats = AlgorithmStats::default();
        let without = build_path_cover_table(&inputs, &mut stats);
        let params2 = MsrpParams { refinement_sweeps: 2, ..params.clone() };
        let inputs2 = PathCoverInputs { params: &params2, ..inputs };
        let with = build_path_cover_table(&inputs2, &mut AlgorithmStats::default());
        for s_idx in 0..2 {
            for r_idx in 0..landmark_index.len() {
                for (a, b) in without.row(s_idx, r_idx).iter().zip(with.row(s_idx, r_idx)) {
                    assert!(b <= a, "refinement must only lower entries");
                }
            }
        }
    }
}
