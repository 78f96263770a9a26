//! Vickrey (VCG) pricing of shortest-path edges.
//!
//! In the path-auction setting (Nisan–Ronen 2001; Hershberger–Suri 2001 — the original
//! motivation for replacement paths), every edge is owned by a selfish agent and the buyer wants
//! to purchase a shortest `s–t` path. The VCG mechanism pays the owner of a purchased edge `e`
//! its *declared cost* plus the marginal value of its presence:
//!
//! ```text
//! payment(e) = |st ⋄ e| − (|st| − w(e))
//! ```
//!
//! For unweighted graphs (`w(e) = 1`) this is `|st ⋄ e| − |st| + 1`, and the *premium* above the
//! declared cost is the detour `|st ⋄ e| − |st|`. Edges whose removal disconnects `t` have
//! unbounded price.

use msrp_graph::{Distance, Edge, Vertex};
use msrp_oracle::ReplacementPathOracle;

/// The VCG payment for one edge of a shortest path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgePrice {
    /// The edge being priced.
    pub edge: Edge,
    /// Position of the edge on the canonical path.
    pub position: usize,
    /// The replacement distance `|st ⋄ e|` (`None` when the failure disconnects `t`).
    pub replacement: Option<Distance>,
    /// The VCG payment `|st ⋄ e| − |st| + 1` (`None` for critical edges — monopoly price).
    pub payment: Option<Distance>,
}

impl EdgePrice {
    /// The premium above the edge's unit cost (`payment − 1`), i.e. the detour length.
    pub fn premium(&self) -> Option<Distance> {
        self.payment.map(|p| p - 1)
    }

    /// `true` when the edge is critical (no replacement path exists).
    pub fn is_critical(&self) -> bool {
        self.payment.is_none()
    }
}

/// Computes the VCG payment of every edge on the canonical shortest path from `s` to `t`.
///
/// Returns `None` when `s` is not one of the oracle's sources or `t` is unreachable.
pub fn vickrey_prices(
    oracle: &ReplacementPathOracle,
    s: Vertex,
    t: Vertex,
) -> Option<Vec<EdgePrice>> {
    let base = oracle.distance(s, t)?;
    let costs = oracle.detour_costs(s, t)?;
    Some(
        costs
            .into_iter()
            .enumerate()
            .map(|(position, (edge, detour))| EdgePrice {
                edge,
                position,
                replacement: detour.map(|d| base + d),
                payment: detour.map(|d| d + 1),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_core::MsrpParams;
    use msrp_graph::generators::{cycle_graph, path_graph};
    use msrp_graph::Graph;

    #[test]
    fn cycle_prices_equal_the_detour_premium() {
        let g = cycle_graph(8).freeze();
        let oracle = ReplacementPathOracle::build(&g, &[0], &MsrpParams::default());
        let prices = vickrey_prices(&oracle, 0, 3).unwrap();
        assert_eq!(prices.len(), 3);
        for p in &prices {
            // |st| = 3, |st ⋄ e| = 5, so the payment is 3 and the premium 2.
            assert_eq!(p.replacement, Some(5));
            assert_eq!(p.payment, Some(3));
            assert_eq!(p.premium(), Some(2));
            assert!(!p.is_critical());
        }
    }

    #[test]
    fn bridges_are_critical() {
        let g = path_graph(4).freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0]);
        let prices = vickrey_prices(&oracle, 0, 3).unwrap();
        assert_eq!(prices.len(), 3);
        assert!(prices.iter().all(|p| p.is_critical()));
        assert!(prices.iter().all(|p| p.replacement.is_none()));
    }

    #[test]
    fn competitive_edges_cost_their_declared_price() {
        // Two parallel length-2 routes: losing an edge of one route costs nothing extra.
        let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap().freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0]);
        let prices = vickrey_prices(&oracle, 0, 3).unwrap();
        for p in &prices {
            assert_eq!(p.payment, Some(1));
            assert_eq!(p.premium(), Some(0));
        }
    }

    #[test]
    fn unknown_sources_and_unreachable_targets() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap().freeze();
        let oracle = ReplacementPathOracle::build_exact(&g, &[0]);
        assert!(vickrey_prices(&oracle, 1, 3).is_none());
        assert!(vickrey_prices(&oracle, 0, 3).is_none());
    }
}
