//! Verification helpers: compare solver outputs against the brute-force ground truth
//! (experiment E3 and the integration tests are built on these).

use msrp_graph::{BfsScratch, CsrGraph};
use msrp_rpath::{
    compare, single_source_brute_force, single_source_brute_force_with_scratch, ComparisonReport,
};

use crate::output::{MsrpOutput, SsrpOutput};

/// Compares an SSRP output against the brute-force ground truth.
pub fn verify_ssrp(g: &CsrGraph, output: &SsrpOutput) -> ComparisonReport {
    let truth = single_source_brute_force(g, &output.tree);
    compare(&truth, &output.distances)
}

/// Compares every source of an MSRP output against the brute-force ground truth (one set of
/// BFS scratch buffers shared across all the sources).
pub fn verify_msrp(g: &CsrGraph, output: &MsrpOutput) -> Vec<ComparisonReport> {
    let mut scratch = BfsScratch::new();
    output
        .per_source
        .iter()
        .zip(output.trees.iter())
        .map(|(dist, tree)| {
            let truth = single_source_brute_force_with_scratch(g, tree, &mut scratch);
            compare(&truth, dist)
        })
        .collect()
}

/// Aggregate exactness over all sources: `(agreeing entries, total entries)`.
pub fn exactness(reports: &[ComparisonReport]) -> (usize, usize) {
    let total: usize = reports.iter().map(|r| r.total_entries).sum();
    let bad: usize = reports.iter().map(|r| r.mismatches.len()).sum();
    (total - bad, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_msrp, solve_ssrp, MsrpParams};
    use msrp_graph::generators::grid_graph;

    #[test]
    fn ssrp_verifies_exactly_on_a_grid() {
        let g = grid_graph(4, 4).freeze();
        let out = solve_ssrp(&g, 0, &MsrpParams::default());
        let report = verify_ssrp(&g, &out);
        assert!(report.is_exact());
    }

    #[test]
    fn msrp_verifies_exactly_on_a_grid() {
        let g = grid_graph(4, 4).freeze();
        let out = solve_msrp(&g, &[0, 5, 15], &MsrpParams::default());
        let reports = verify_msrp(&g, &out);
        assert_eq!(reports.len(), 3);
        let (good, total) = exactness(&reports);
        assert_eq!(good, total);
        assert!(total > 0);
    }
}
