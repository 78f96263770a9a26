//! Comparison of two replacement-distance tables (used by the test-suite and experiment E3).

use msrp_graph::{Distance, Vertex, INFINITE_DISTANCE};

use crate::distances::SourceReplacementDistances;

/// A single disagreement between an expected and an actual table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// The target vertex of the disagreeing entry.
    pub target: Vertex,
    /// The index of the avoided edge on the canonical path.
    pub edge_index: usize,
    /// The expected (ground-truth) distance.
    pub expected: Distance,
    /// The actual (algorithm-under-test) distance.
    pub actual: Distance,
}

/// Summary of a comparison between two tables with the same source and shape.
#[derive(Clone, Debug, Default)]
pub struct ComparisonReport {
    /// Total number of entries compared.
    pub total_entries: usize,
    /// Entries where the two tables disagree.
    pub mismatches: Vec<Mismatch>,
    /// Number of entries where the actual value is *smaller* than expected (an under-estimate
    /// would mean the algorithm reported a path that cannot exist — always a bug).
    pub under_estimates: usize,
    /// Number of entries where the actual value is larger than expected (for the randomized
    /// algorithm this is the low-probability failure mode).
    pub over_estimates: usize,
}

impl ComparisonReport {
    /// `true` when the tables agree on every entry.
    pub fn is_exact(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Fraction of entries that agree (1.0 for an empty table).
    pub fn agreement_ratio(&self) -> f64 {
        if self.total_entries == 0 {
            1.0
        } else {
            (self.total_entries - self.mismatches.len()) as f64 / self.total_entries as f64
        }
    }
}

/// Compares `actual` against `expected` entry by entry.
///
/// # Panics
///
/// Panics if the two tables have different sources or different shapes (they must be built from
/// the same canonical tree).
pub fn compare(
    expected: &SourceReplacementDistances,
    actual: &SourceReplacementDistances,
) -> ComparisonReport {
    assert_eq!(expected.source(), actual.source(), "tables have different sources");
    assert_eq!(
        expected.vertex_count(),
        actual.vertex_count(),
        "tables cover different vertex counts"
    );
    let mut report = ComparisonReport::default();
    for t in 0..expected.vertex_count() {
        let er = expected.row(t);
        let ar = actual.row(t);
        assert_eq!(er.len(), ar.len(), "row length mismatch for target {t}");
        for (i, (&e, &a)) in er.iter().zip(ar.iter()).enumerate() {
            report.total_entries += 1;
            if e != a {
                if a < e || (e == INFINITE_DISTANCE && a != INFINITE_DISTANCE) {
                    report.under_estimates += 1;
                } else {
                    report.over_estimates += 1;
                }
                report.mismatches.push(Mismatch {
                    target: t,
                    edge_index: i,
                    expected: e,
                    actual: a,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::single_source_brute_force;
    use msrp_graph::generators::cycle_graph;
    use msrp_graph::ShortestPathTree;

    #[test]
    fn identical_tables_are_exact() {
        let g = cycle_graph(8).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let a = single_source_brute_force(&g, &tree);
        let b = a.clone();
        let report = compare(&a, &b);
        assert!(report.is_exact());
        assert_eq!(report.agreement_ratio(), 1.0);
        assert_eq!(report.total_entries, a.entry_count());
    }

    #[test]
    fn over_and_under_estimates_are_classified() {
        let g = cycle_graph(8).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let expected = single_source_brute_force(&g, &tree);
        let mut actual = expected.clone();
        // An over-estimate (worse path) and an under-estimate (impossible path).
        actual.set(3, 0, expected.get(3, 0).unwrap() + 2);
        actual.set(2, 1, 1);
        let report = compare(&expected, &actual);
        assert_eq!(report.mismatches.len(), 2);
        assert_eq!(report.over_estimates, 1);
        assert_eq!(report.under_estimates, 1);
        assert!(!report.is_exact());
        assert!(report.agreement_ratio() < 1.0);
        assert!(report.mismatches.iter().any(|m| m.target == 3 && m.edge_index == 0));
    }

    #[test]
    #[should_panic(expected = "different sources")]
    fn mismatched_sources_panic() {
        let g = cycle_graph(6).freeze();
        let a = single_source_brute_force(&g, &ShortestPathTree::build(&g, 0));
        let b = single_source_brute_force(&g, &ShortestPathTree::build(&g, 1));
        let _ = compare(&a, &b);
    }
}
