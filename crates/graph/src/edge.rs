//! Undirected edge identifiers.

use std::fmt;

use crate::graph::Vertex;

/// An undirected edge, stored with its endpoints in normalized (sorted) order.
///
/// Edges identify the *failure* in a replacement-path query, so they are used pervasively as
/// hash-map keys. Normalizing the endpoint order makes `Edge::new(u, v) == Edge::new(v, u)`.
///
/// ```
/// use msrp_graph::Edge;
/// let e = Edge::new(7, 2);
/// assert_eq!(e, Edge::new(2, 7));
/// assert_eq!(e.endpoints(), (2, 7));
/// assert_eq!(e.other(2), Some(7));
/// assert!(e.is_incident(7));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    lo: Vertex,
    hi: Vertex,
}

impl Edge {
    /// Creates an edge between `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`; the graphs in this workspace are simple and never contain self loops.
    #[inline]
    pub fn new(u: Vertex, v: Vertex) -> Self {
        assert_ne!(u, v, "self loops are not representable as edges");
        if u < v {
            Edge { lo: u, hi: v }
        } else {
            Edge { lo: v, hi: u }
        }
    }

    /// Returns the endpoints in normalized `(min, max)` order.
    #[inline]
    pub fn endpoints(&self) -> (Vertex, Vertex) {
        (self.lo, self.hi)
    }

    /// Returns the smaller endpoint.
    #[inline]
    pub fn lo(&self) -> Vertex {
        self.lo
    }

    /// Returns the larger endpoint.
    #[inline]
    pub fn hi(&self) -> Vertex {
        self.hi
    }

    /// Returns the endpoint different from `v`, or `None` if `v` is not an endpoint.
    #[inline]
    pub fn other(&self, v: Vertex) -> Option<Vertex> {
        if v == self.lo {
            Some(self.hi)
        } else if v == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Returns `true` when `v` is one of the endpoints.
    #[inline]
    pub fn is_incident(&self, v: Vertex) -> bool {
        v == self.lo || v == self.hi
    }

    /// Returns `true` when the two edges share at least one endpoint.
    #[inline]
    pub fn shares_endpoint(&self, other: &Edge) -> bool {
        self.is_incident(other.lo) || self.is_incident(other.hi)
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}-{})", self.lo, self.hi)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.lo, self.hi)
    }
}

impl From<(Vertex, Vertex)> for Edge {
    fn from((u, v): (Vertex, Vertex)) -> Self {
        Edge::new(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_makes_edges_order_insensitive() {
        assert_eq!(Edge::new(1, 9), Edge::new(9, 1));
        assert_eq!(Edge::new(1, 9).endpoints(), (1, 9));
        assert_eq!(Edge::new(9, 1).endpoints(), (1, 9));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_panic() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn other_endpoint_lookup() {
        let e = Edge::new(4, 2);
        assert_eq!(e.other(2), Some(4));
        assert_eq!(e.other(4), Some(2));
        assert_eq!(e.other(5), None);
    }

    #[test]
    fn incidence_and_sharing() {
        let e = Edge::new(0, 1);
        let f = Edge::new(1, 2);
        let g = Edge::new(2, 3);
        assert!(e.is_incident(0));
        assert!(e.is_incident(1));
        assert!(!e.is_incident(2));
        assert!(e.shares_endpoint(&f));
        assert!(!e.shares_endpoint(&g));
    }

    #[test]
    fn from_tuple_and_formatting() {
        let e: Edge = (5, 3).into();
        assert_eq!(e.endpoints(), (3, 5));
        assert_eq!(format!("{e}"), "3-5");
        assert_eq!(format!("{e:?}"), "(3-5)");
    }

    #[test]
    fn accessors_lo_hi() {
        let e = Edge::new(10, 2);
        assert_eq!(e.lo(), 2);
        assert_eq!(e.hi(), 10);
    }
}
