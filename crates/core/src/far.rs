//! Section 6: replacement paths avoiding *far* edges (Algorithm 3).
//!
//! For a target `t` and a `k`-far edge `e` on the canonical `s–t` path (its distance to `t` lies
//! in `[2^{k+1}·X, 2^{k+2}·X)` with `X = sqrt(n/σ)·log n`), the replacement path's suffix is
//! longer than `2^{k+1}·X`, so with high probability a level-`k` landmark `r ∈ L_k` lies on the
//! suffix within distance `2^k·X` of `t` (Lemma 9). Because the edge is farther from `t` than
//! the landmark radius, no shortest `r–t` path can contain `e`, so
//! `d(s, t, e) = d(s, r, e) + d(r, t)` for that landmark; the algorithm simply tries every
//! landmark of the level within the radius.

use msrp_graph::{dist_add, CsrGraph, ShortestPathTree, Vertex};
use msrp_rpath::SourceReplacementDistances;

use crate::params::MsrpParams;
use crate::preprocess::BfsIndex;
use crate::sampling::SampledLevels;
use crate::source_landmark::SourceLandmarkView;

/// Relaxes the entries of `out` for every far edge on the canonical path to `target`
/// (Algorithm 3 of the paper, for one `(s, t)` pair).
#[allow(clippy::too_many_arguments)]
pub fn relax_far_edges(
    g: &CsrGraph,
    tree_s: &ShortestPathTree,
    target: Vertex,
    landmarks: &SampledLevels,
    landmark_index: &BfsIndex,
    view: &SourceLandmarkView<'_>,
    params: &MsrpParams,
    sigma: usize,
    out: &mut SourceReplacementDistances,
) {
    let n = g.vertex_count();
    let path = match tree_s.path_from_source(target) {
        Some(p) if p.len() >= 2 => p,
        _ => return,
    };
    let k = path.len() - 1;
    for i in 0..k {
        let dist_to_target = (k - i - 1) as u32;
        let level = match params.far_level(dist_to_target, n, sigma) {
            Some(level) => level,
            None => continue,
        };
        let e = msrp_graph::Edge::new(path[i], path[i + 1]);
        let radius = params.landmark_radius(level, n, sigma);
        for &r in landmarks.level(level) {
            let r_idx = landmark_index.index(r).expect("landmark has a BFS tree");
            let d_rt = landmark_index.distance(r_idx, target);
            if (d_rt as f64) > radius {
                continue;
            }
            let candidate = dist_add(view.replacement(r_idx, e), d_rt);
            out.relax(target, i, candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SampledLevels;
    use crate::source_landmark::SourceLandmarkTable;
    use msrp_graph::generators::cycle_graph;
    use msrp_graph::INFINITE_DISTANCE;
    use msrp_rpath::{replacement_distance, single_source_brute_force};

    /// Parameters shrunk so that a 40-cycle actually has far edges.
    fn tiny_params() -> MsrpParams {
        MsrpParams {
            near_constant: 1.0,
            log_scale: 0.2,
            sampling_constant: 4.0,
            ..MsrpParams::default()
        }
    }

    #[test]
    fn far_edges_exist_and_are_solved_exactly_on_a_long_cycle() {
        let g = cycle_graph(48);
        let csr = g.freeze();
        let params = tiny_params();
        let tree = ShortestPathTree::build(&csr, 0);
        let sources = [0usize];
        let landmarks =
            SampledLevels::sample_seeded(g.vertex_count(), 1, &params, params.seed, &sources);
        let landmark_index = BfsIndex::build(&csr, landmarks.all());
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &landmark_index);
        let view = table.view(0, &tree, &landmark_index);
        let truth = single_source_brute_force(&csr, &tree);

        let mut out = SourceReplacementDistances::new(&tree);
        let mut far_edges_seen = 0;
        for t in 1..g.vertex_count() {
            relax_far_edges(
                &csr,
                &tree,
                t,
                &landmarks,
                &landmark_index,
                &view,
                &params,
                1,
                &mut out,
            );
            // Count how many far positions this target has, so the test is not vacuous.
            let depth = tree.distance(t).unwrap() as usize;
            for i in 0..depth {
                if params.far_level((depth - i - 1) as u32, g.vertex_count(), 1).is_some() {
                    far_edges_seen += 1;
                    let got = out.get(t, i).unwrap();
                    assert!(got >= truth.get(t, i).unwrap(), "never under-estimates");
                    assert_eq!(got, truth.get(t, i).unwrap(), "far edge t={t} i={i}");
                }
            }
        }
        assert!(far_edges_seen > 0, "the parameters must produce at least one far edge");
    }

    #[test]
    fn near_only_targets_are_left_untouched() {
        let g = cycle_graph(10);
        let csr = g.freeze();
        // Paper constants: every edge of such a short path is near, so Algorithm 3 is a no-op.
        let params = MsrpParams::default();
        let tree = ShortestPathTree::build(&csr, 0);
        let landmarks = SampledLevels::sample_seeded(10, 1, &params, 1, &[0]);
        let landmark_index = BfsIndex::build(&csr, landmarks.all());
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &landmark_index);
        let view = table.view(0, &tree, &landmark_index);
        let mut out = SourceReplacementDistances::new(&tree);
        relax_far_edges(&csr, &tree, 5, &landmarks, &landmark_index, &view, &params, 1, &mut out);
        assert!(out.row(5).iter().all(|&d| d == INFINITE_DISTANCE));
    }

    #[test]
    fn candidates_never_under_estimate_even_with_sparse_landmarks() {
        let g = cycle_graph(64);
        let csr = g.freeze();
        let params = MsrpParams { sampling_constant: 0.3, ..tiny_params() };
        let tree = ShortestPathTree::build(&csr, 0);
        let landmarks = SampledLevels::sample_seeded(64, 1, &params, 3, &[0]);
        let landmark_index = BfsIndex::build(&csr, landmarks.all());
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &landmark_index);
        let view = table.view(0, &tree, &landmark_index);
        let mut out = SourceReplacementDistances::new(&tree);
        for t in 1..64 {
            relax_far_edges(
                &csr,
                &tree,
                t,
                &landmarks,
                &landmark_index,
                &view,
                &params,
                1,
                &mut out,
            );
            for (i, &got) in out.row(t).iter().enumerate() {
                if got != INFINITE_DISTANCE {
                    let e = tree.path_edge(t, i).unwrap();
                    assert!(got >= replacement_distance(&g, 0, t, e));
                }
            }
        }
    }
}
