//! Interval decomposition of source→landmark paths (Definition 15 and Lemma 18) and the
//! "minimum through centers" (MTC) terms of the path cover lemma (Definition 17).
//!
//! The anchors of a path are the positions of the centers on it, selected by an ascending sweep
//! from the source side and a descending sweep from the landmark side (Definition 15); both the
//! source and the landmark are themselves centers in our construction (sources and landmarks are
//! forced into `C_0`, see `DESIGN.md`), so every path starts and ends with an anchor. The
//! intervals are the stretches between consecutive anchors; Lemma 18 bounds their length by the
//! priority of the lower endpoint.

use msrp_graph::{dist_add, Distance, Edge, Vertex, INFINITE_DISTANCE};

use crate::sampling::SampledLevels;

/// An interval of a source→landmark path: the half-open range of *edge positions*
/// `[start_pos, end_pos)` between two consecutive anchors at path positions `start_pos` and
/// `end_pos`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Path position of the left anchor (a center).
    pub start_pos: usize,
    /// Path position of the right anchor (a center, possibly the landmark itself).
    pub end_pos: usize,
}

impl Interval {
    /// `true` when the edge at position `pos` (spanning path positions `pos` and `pos + 1`)
    /// belongs to this interval.
    fn contains_edge(&self, pos: usize) -> bool {
        pos >= self.start_pos && pos < self.end_pos
    }

    /// Number of edges in the interval.
    pub fn edge_count(&self) -> usize {
        self.end_pos - self.start_pos
    }
}

/// Positions of the anchors (centers selected per Definition 15) on `path`, always including
/// position 0 and the last position.
pub fn anchor_positions(path: &[Vertex], centers: &SampledLevels) -> Vec<usize> {
    let last = path.len() - 1;
    let mut anchors = vec![0, last];
    // Ascending-priority sweep from the source side.
    let mut current = centers.priority(path[0]).unwrap_or(0);
    for (pos, &v) in path.iter().enumerate().skip(1) {
        if let Some(p) = centers.priority(v) {
            if p > current {
                anchors.push(pos);
                current = p;
            }
        }
    }
    // Ascending-priority sweep from the landmark side.
    let mut current = centers.priority(path[last]).unwrap_or(0);
    for pos in (1..last).rev() {
        if let Some(p) = centers.priority(path[pos]) {
            if p > current {
                anchors.push(pos);
                current = p;
            }
        }
    }
    anchors.sort_unstable();
    anchors.dedup();
    anchors
}

/// Splits `path` into intervals between consecutive anchors.
pub fn decompose_path(path: &[Vertex], centers: &SampledLevels) -> Vec<Interval> {
    if path.len() < 2 {
        return Vec::new();
    }
    let anchors = anchor_positions(path, centers);
    anchors.windows(2).map(|w| Interval { start_pos: w[0], end_pos: w[1] }).collect()
}

/// Index of the interval containing the edge at position `pos`, assuming `intervals` partition
/// the path.
pub fn interval_of_edge(intervals: &[Interval], pos: usize) -> Option<usize> {
    intervals.iter().position(|iv| iv.contains_edge(pos))
}

/// Everything needed to evaluate MTC terms for one source→landmark path.
pub struct MtcInputs<'a> {
    /// The canonical path from the source to the landmark.
    pub path: &'a [Vertex],
    /// Anchor positions on that path (from [`anchor_positions`]).
    pub anchors: &'a [usize],
    /// `d(c, r, e)` lookup for a center `c` (by vertex), the path's landmark, and an edge; must
    /// return `INFINITE_DISTANCE` when unknown and the ordinary `d(c, r)` when `e` is known to
    /// be off the canonical `c–r` path.
    pub center_to_landmark: &'a dyn Fn(Vertex, Edge) -> Distance,
    /// `d(s, c, e)` lookup for the path's source, a center `c` (by vertex), and an edge
    /// identified by its deeper endpoint in the source tree; `INFINITE_DISTANCE` when unknown.
    pub source_to_center: &'a dyn Fn(Vertex, Vertex) -> Distance,
}

/// Evaluates the MTC value (Definition 17) for the edge at position `pos`, taking the best
/// candidate over *all* anchors before and after the edge (a superset of the paper's two
/// adjacent anchors; every candidate is individually valid, see the module docs of
/// `multi_source`).
pub fn mtc_value(inputs: &MtcInputs<'_>, pos: usize) -> Distance {
    let path = inputs.path;
    let k = path.len() - 1;
    let edge_child = path[pos + 1];
    let e = Edge::new(path[pos], path[pos + 1]);
    let mut best = INFINITE_DISTANCE;
    for &a in inputs.anchors {
        if a <= pos {
            // Anchor before the edge: d(s, c) along the path prefix (which avoids e) plus the
            // replacement from the center to the landmark.
            let c = path[a];
            let term = dist_add(a as Distance, (inputs.center_to_landmark)(c, e));
            best = best.min(term);
        } else {
            // Anchor after the edge: replacement from the source to the center plus the path
            // suffix from the center to the landmark (which avoids e).
            let c = path[a];
            let term = dist_add((inputs.source_to_center)(c, edge_child), (k - a) as Distance);
            best = best.min(term);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MsrpParams;

    fn centers_with_everyone(n: usize) -> SampledLevels {
        // Paper constants on a small n put every vertex in level 0.
        SampledLevels::sample_seeded(n, 1, &MsrpParams::default(), 3, &[])
    }

    #[test]
    fn anchors_always_include_both_ends() {
        let centers = centers_with_everyone(20);
        let path: Vec<usize> = (0..12).collect();
        let anchors = anchor_positions(&path, &centers);
        assert_eq!(*anchors.first().unwrap(), 0);
        assert_eq!(*anchors.last().unwrap(), 11);
        let intervals = decompose_path(&path, &centers);
        assert!(!intervals.is_empty());
        let covered: usize = intervals.iter().map(|iv| iv.edge_count()).sum();
        assert_eq!(covered, 11, "intervals partition the path's edges");
    }

    #[test]
    fn interval_lookup_finds_each_edge_once() {
        let centers = centers_with_everyone(30);
        let path: Vec<usize> = (0..9).collect();
        let intervals = decompose_path(&path, &centers);
        for pos in 0..8 {
            let idx = interval_of_edge(&intervals, pos).expect("edge covered");
            assert!(intervals[idx].contains_edge(pos));
        }
        assert_eq!(interval_of_edge(&intervals, 8), None);
    }

    #[test]
    fn trivial_paths_have_no_intervals() {
        let centers = centers_with_everyone(5);
        assert!(decompose_path(&[3], &centers).is_empty());
        assert!(decompose_path(&[], &centers).is_empty());
    }

    #[test]
    fn mtc_takes_the_best_side() {
        // Path 0-1-2-3-4; anchors at 0, 2, 4; edge at position 1 (between vertices 1 and 2).
        let path = vec![0usize, 1, 2, 3, 4];
        let anchors = vec![0usize, 2, 4];
        // Left-anchor candidate: d(s, c=0)=0 + d(0, r, e)=7 => 7. For the anchor at 2 (after
        // the edge): d(s, 2, e)=3 + suffix 2 => 5. Anchor at 4: d(s, 4, e)=9 + 0 => 9.
        let c2l = |c: Vertex, _e: Edge| if c == 0 { 7 } else { INFINITE_DISTANCE };
        let s2c = |c: Vertex, _child: Vertex| match c {
            2 => 3,
            4 => 9,
            _ => INFINITE_DISTANCE,
        };
        let inputs = MtcInputs {
            path: &path,
            anchors: &anchors,
            center_to_landmark: &c2l,
            source_to_center: &s2c,
        };
        assert_eq!(mtc_value(&inputs, 1), 5);
        // Edge at position 3: anchors before it are 0 and 2; the best is min(0+7, 2+INF, 9+0)...
        // anchor 4 is after? position 3 edge spans (3,4); anchor 4 > 3 so it counts as "after".
        assert_eq!(mtc_value(&inputs, 3), 7);
    }

    #[test]
    fn mtc_of_unknown_everything_is_infinite() {
        let path = vec![0usize, 1, 2];
        let anchors = vec![0usize, 2];
        let c2l = |_c: Vertex, _e: Edge| INFINITE_DISTANCE;
        let s2c = |_c: Vertex, _child: Vertex| INFINITE_DISTANCE;
        let inputs = MtcInputs {
            path: &path,
            anchors: &anchors,
            center_to_landmark: &c2l,
            source_to_center: &s2c,
        };
        assert_eq!(mtc_value(&inputs, 0), INFINITE_DISTANCE);
    }
}
