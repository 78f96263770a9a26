//! Section 7.2: *large* replacement paths avoiding a *near* edge (Algorithm 4).
//!
//! When the avoided edge `e` is close to the target `t` but the replacement path is long
//! (`|st ⋄ e| > |se| + 2·sqrt(n/σ)·log n`), the suffix of the replacement path is longer than
//! `2·sqrt(n/σ)·log n` (Lemma 11), so with high probability a level-0 landmark `r ∈ L_0` lies on
//! it close to `t`, and Lemma 13 shows the canonical `r–t` path cannot contain `e`. The
//! algorithm therefore tries every `r ∈ L_0` whose canonical path to `t` avoids `e` and relaxes
//! with `d(s, r, e) + d(r, t)`.
//!
//! Every candidate is the length of a real `e`-avoiding walk (the `s→r` part avoids `e` by
//! definition of `d(s, r, e)` and the `r→t` part is the canonical path, checked to avoid `e`),
//! so running the relaxation for *every* near edge — not only those whose replacement turns out
//! to be large — is safe; the small case is simply won by the Section 7.1 candidate.

use msrp_graph::{dist_add, CsrGraph, Edge, ShortestPathTree, Vertex};
use msrp_rpath::SourceReplacementDistances;

use crate::params::MsrpParams;
use crate::preprocess::BfsIndex;
use crate::sampling::SampledLevels;
use crate::source_landmark::SourceLandmarkView;

/// Relaxes the entries of `out` for every near edge on the canonical path to `target`
/// (Algorithm 4 of the paper, for one `(s, t)` pair).
#[allow(clippy::too_many_arguments)]
pub fn relax_near_large(
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
    let near = params.near_threshold(n, sigma);
    for i in (0..k).rev() {
        let dist_to_target = (k - i - 1) as f64;
        if dist_to_target >= near {
            break;
        }
        let e = Edge::new(path[i], path[i + 1]);
        for &r in landmarks.level(0) {
            let r_idx = landmark_index.index(r).expect("landmark has a BFS tree");
            let r_tree = landmark_index.tree(r_idx);
            if r_tree.path_contains_edge(target, e) {
                continue;
            }
            let candidate =
                dist_add(view.replacement(r_idx, e), r_tree.distance_or_infinite(target));
            out.relax(target, i, candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_landmark::SourceLandmarkTable;
    use msrp_graph::generators::{connected_gnm, cycle_graph};
    use msrp_graph::{Graph, INFINITE_DISTANCE};
    use msrp_rpath::{replacement_distance, single_source_brute_force};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        g: &Graph,
        source: Vertex,
        params: &MsrpParams,
    ) -> (ShortestPathTree, SampledLevels, BfsIndex) {
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, source);
        let landmarks =
            SampledLevels::sample_seeded(g.vertex_count(), 1, params, params.seed, &[source]);
        let index = BfsIndex::build(&csr, landmarks.all());
        (tree, landmarks, index)
    }

    #[test]
    fn solves_cycle_replacements_exactly() {
        // On a cycle every replacement path is "large" (it goes all the way round), which is
        // exactly the case Algorithm 4 exists for.
        let g = cycle_graph(12);
        let params = MsrpParams::default();
        let (tree, landmarks, index) = setup(&g, 0, &params);
        let csr = g.freeze();
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &index);
        let view = table.view(0, &tree, &index);
        let truth = single_source_brute_force(&csr, &tree);
        let mut out = SourceReplacementDistances::new(&tree);
        for t in 1..12 {
            relax_near_large(&csr, &tree, t, &landmarks, &index, &view, &params, 1, &mut out);
        }
        for (t, i, expected) in truth.iter() {
            assert_eq!(out.get(t, i), Some(expected), "target {t} edge {i}");
        }
    }

    #[test]
    fn candidates_never_under_estimate() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = connected_gnm(26, 52, &mut rng).unwrap();
        let params = MsrpParams { sampling_constant: 0.5, ..MsrpParams::default() };
        let (tree, landmarks, index) = setup(&g, 0, &params);
        let csr = g.freeze();
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &index);
        let view = table.view(0, &tree, &index);
        let mut out = SourceReplacementDistances::new(&tree);
        for t in 1..g.vertex_count() {
            relax_near_large(&csr, &tree, t, &landmarks, &index, &view, &params, 1, &mut out);
            for (i, &got) in out.row(t).iter().enumerate() {
                if got != INFINITE_DISTANCE {
                    let e = tree.path_edge(t, i).unwrap();
                    assert!(got >= replacement_distance(&g, 0, t, e));
                }
            }
        }
    }

    #[test]
    fn unreachable_targets_are_ignored() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let params = MsrpParams::default();
        let (tree, landmarks, index) = setup(&g, 0, &params);
        let csr = g.freeze();
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &index);
        let view = table.view(0, &tree, &index);
        let mut out = SourceReplacementDistances::new(&tree);
        relax_near_large(&csr, &tree, 2, &landmarks, &index, &view, &params, 1, &mut out);
        assert!(out.row(2).is_empty());
    }
}
