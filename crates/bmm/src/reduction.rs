//! The gadget reduction from Boolean matrix multiplication to MSRP (Theorem 28).
//!
//! # Gadget construction
//!
//! To compute `C = A × B` for `n × n` boolean matrices, the rows of `A` are split into
//! `⌈n / (σ·q)⌉` batches of `σ·q` rows each, with `q = ⌈sqrt(n/σ)⌉`. One gadget graph is built
//! per batch; inside it, each of the `σ` sources owns a *spine* `v(1) – v(2) – … – v(q)` (the
//! source is `v(q)`) and `q` of the batch's rows: the `y`-th row of the sub-batch hangs off
//! `v(y)` by a path of `2y − 1` intermediate vertices, i.e. at distance `2y` from `v(y)`.
//! The bipartite part is shared: `a(x) – b(w)` whenever `A[x][w] = 1` and `b(w) – c(z)` whenever
//! `B[w][z] = 1`.
//!
//! # Distances and decoding
//!
//! From a source (the far end of its spine), row `y` of its sub-batch is reached at distance
//! `(q − y) + 2y = q + y`, and a column vertex `c(z)` through that row at `q + y + 2`. Removing
//! the spine edge `(v(y−1), v(y))` cuts rows `1 … y−1` off the spine, and every path that
//! re-enters them through the bipartite part pays at least 4 extra hops. Therefore
//!
//! ```text
//! C[row(y)][z] = 1   ⇔   | source → c(z)  ⋄ (v(y−1), v(y)) |  =  q + y + 2      (y ≥ 2)
//! C[row(1)][z] = 1   ⇔   | source → c(z) |                    =  q + 3
//! ```
//!
//! which is exactly the information the MSRP output contains (the failed spine edge lies on the
//! canonical shortest path whenever the distance is realized through a row with index `≥ y`; for
//! smaller indices the failure does not affect the canonical path and the fault-free distance is
//! returned, which matches the first line).

use msrp_core::{solve_msrp, MsrpOutput, MsrpParams};
use msrp_graph::{Edge, Graph, Vertex};

use crate::matrix::BoolMatrix;

/// How the rows of `A` are split across gadget graphs and sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionPlan {
    /// Matrix dimension.
    pub n: usize,
    /// Number of sources per gadget graph (σ).
    pub sigma: usize,
    /// Rows handled by each source (`q = ⌈sqrt(n/σ)⌉` by default).
    pub rows_per_source: usize,
    /// Number of gadget graphs (`⌈n / (σ·q)⌉`).
    pub batches: usize,
}

impl ReductionPlan {
    /// The plan of Theorem 28 for an `n × n` instance with `σ` sources per graph.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `sigma == 0`.
    pub fn for_size(n: usize, sigma: usize) -> Self {
        assert!(n > 0 && sigma > 0, "n and sigma must be positive");
        let sigma = sigma.min(n);
        let rows_per_source = ((n as f64 / sigma as f64).sqrt().ceil() as usize).max(1);
        let rows_per_batch = sigma * rows_per_source;
        let batches = n.div_ceil(rows_per_batch);
        ReductionPlan { n, sigma, rows_per_source, batches }
    }

    /// Rows per gadget graph.
    fn rows_per_batch(&self) -> usize {
        self.sigma * self.rows_per_source
    }
}

/// One gadget graph of the reduction, together with the bookkeeping needed to decode the MSRP
/// output back into rows of `C`.
#[derive(Clone, Debug)]
pub struct GadgetGraph {
    /// The constructed graph.
    pub graph: Graph,
    /// Its sources (one per sub-batch that received at least one row).
    pub sources: Vec<Vertex>,
    /// `(source index in `sources`, local 1-based row index y, global row of A)`.
    assignments: Vec<(usize, usize, usize)>,
    /// Spine vertices per source, `spine[j][ℓ-1] = v_j(ℓ)`.
    spines: Vec<Vec<Vertex>>,
    /// Index of the first column vertex: `c(z)` is vertex `c_base + z`.
    c_base: usize,
    /// Spine length `q`.
    q: usize,
}

impl GadgetGraph {
    /// Builds the gadget graph covering rows `batch_start .. batch_start + σ·q` of `A`.
    pub fn build(a: &BoolMatrix, b: &BoolMatrix, batch_start: usize, plan: &ReductionPlan) -> Self {
        let n = plan.n;
        let q = plan.rows_per_source;
        assert_eq!(a.size(), n);
        assert_eq!(b.size(), n);

        // Vertex layout: a(x) = x, b(w) = n + w, c(z) = 2n + z, then spines and gadget chains.
        let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
        for x in 0..n {
            for w in a.row_ones(x) {
                edges.push((x, n + w));
            }
        }
        for w in 0..n {
            for z in b.row_ones(w) {
                edges.push((n + w, 2 * n + z));
            }
        }
        let mut next_vertex = 3 * n;
        let mut sources = Vec::new();
        let mut spines = Vec::new();
        let mut assignments = Vec::new();

        for j in 0..plan.sigma {
            let sub_start = batch_start + j * q;
            if sub_start >= n {
                break;
            }
            let rows_here = q.min(n - sub_start);
            // Spine v(1) … v(q) (always full length so distances are uniform across sources).
            let spine: Vec<Vertex> = (0..q)
                .map(|_| {
                    let v = next_vertex;
                    next_vertex += 1;
                    v
                })
                .collect();
            for pair in spine.windows(2) {
                edges.push((pair[0], pair[1]));
            }
            // Row gadgets: v(y) —(2y−1 intermediates)— a(row).
            for y in 1..=rows_here {
                let row = sub_start + (y - 1);
                let mut prev = spine[y - 1];
                for _ in 0..(2 * y - 1) {
                    let mid = next_vertex;
                    next_vertex += 1;
                    edges.push((prev, mid));
                    prev = mid;
                }
                edges.push((prev, row));
                assignments.push((sources.len(), y, row));
            }
            sources.push(spine[q - 1]);
            spines.push(spine);
        }

        let graph = Graph::from_edges(next_vertex, &edges)
            .expect("gadget construction never produces duplicate edges or self loops");
        GadgetGraph { graph, sources, assignments, spines, c_base: 2 * n, q }
    }

    /// Decodes the MSRP output of this gadget graph into the corresponding rows of `C`.
    pub fn decode(&self, out: &MsrpOutput, c: &mut BoolMatrix) {
        let n = c.size();
        let q = self.q as u32;
        for &(j, y, row) in &self.assignments {
            let source = self.sources[j];
            let expected = q + y as u32 + 2;
            for z in 0..n {
                let target = self.c_base + z;
                let observed = if y == 1 {
                    out.trees[out.source_index(source).expect("source present")]
                        .distance_or_infinite(target)
                } else {
                    let e = Edge::new(self.spines[j][y - 2], self.spines[j][y - 1]);
                    out.distance_avoiding(source, target, e).expect("source present")
                };
                if observed == expected {
                    c.set(row, z, true);
                }
            }
        }
    }

    /// Number of rows of `A` decided by this gadget graph.
    pub fn row_count(&self) -> usize {
        self.assignments.len()
    }
}

/// Computes `C = A × B` by building the gadget graphs of Theorem 28 and running the MSRP solver
/// on each of them.
///
/// # Panics
///
/// Panics if the matrices have different sizes or are empty.
pub fn multiply_via_msrp(
    a: &BoolMatrix,
    b: &BoolMatrix,
    sigma: usize,
    params: &MsrpParams,
) -> BoolMatrix {
    assert_eq!(a.size(), b.size(), "matrix dimensions must match");
    let n = a.size();
    assert!(n > 0, "matrices must be non-empty");
    let plan = ReductionPlan::for_size(n, sigma);
    let mut c = BoolMatrix::zeros(n);
    let mut batch_start = 0;
    while batch_start < n {
        let gadget = GadgetGraph::build(a, b, batch_start, &plan);
        let out = solve_msrp(&gadget.graph.freeze(), &gadget.sources, params);
        gadget.decode(&out, &mut c);
        batch_start += plan.rows_per_batch();
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plan_covers_all_rows() {
        for &(n, sigma) in &[(10usize, 1usize), (16, 2), (25, 4), (7, 16)] {
            let plan = ReductionPlan::for_size(n, sigma);
            assert!(plan.rows_per_batch() * plan.batches >= n);
            assert!(plan.rows_per_source >= 1);
        }
    }

    #[test]
    fn gadget_graph_has_the_claimed_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 12;
        let a = BoolMatrix::random(n, 0.3, &mut rng);
        let b = BoolMatrix::random(n, 0.3, &mut rng);
        let plan = ReductionPlan::for_size(n, 2);
        let g = GadgetGraph::build(&a, &b, 0, &plan);
        // 3n matrix vertices + O(σ q²) gadget vertices = O(n) per the theorem.
        assert!(
            g.graph.vertex_count()
                <= 3 * n + 2 * plan.sigma * plan.rows_per_source * (plan.rows_per_source + 2)
        );
        assert_eq!(g.sources.len(), plan.sigma);
        assert!(g.row_count() <= plan.rows_per_batch());
        assert!(g.q >= 1);
    }

    #[test]
    fn reduction_matches_naive_product_small() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, sigma, density) in &[(6usize, 1usize, 0.3), (8, 2, 0.25), (10, 2, 0.15)] {
            let a = BoolMatrix::random(n, density, &mut rng);
            let b = BoolMatrix::random(n, density, &mut rng);
            let expected = a.multiply_naive(&b);
            let got = multiply_via_msrp(&a, &b, sigma, &MsrpParams::default());
            assert_eq!(got, expected, "n={n}, sigma={sigma}");
        }
    }

    #[test]
    fn reduction_handles_identity_and_zero() {
        let n = 9;
        let id = BoolMatrix::identity(n);
        let zero = BoolMatrix::zeros(n);
        let params = MsrpParams::default();
        assert_eq!(multiply_via_msrp(&id, &id, 2, &params), id);
        assert_eq!(multiply_via_msrp(&id, &zero, 2, &params), zero);
        assert_eq!(multiply_via_msrp(&zero, &id, 3, &params), zero);
    }

    #[test]
    fn reduction_with_sigma_larger_than_n() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = BoolMatrix::random(5, 0.4, &mut rng);
        let b = BoolMatrix::random(5, 0.4, &mut rng);
        let expected = a.multiply_naive(&b);
        assert_eq!(multiply_via_msrp(&a, &b, 64, &MsrpParams::default()), expected);
    }

    #[test]
    fn dense_matrices_are_decoded_correctly() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = BoolMatrix::random(8, 0.7, &mut rng);
        let b = BoolMatrix::random(8, 0.7, &mut rng);
        assert_eq!(multiply_via_msrp(&a, &b, 2, &MsrpParams::default()), a.multiply_naive(&b));
    }
}
