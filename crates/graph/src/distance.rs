//! Distance arithmetic with an explicit "unreachable" value.
//!
//! All graphs in this reproduction are unweighted, so hop counts fit comfortably in a `u32`.
//! `u32::MAX` is reserved as the *infinite* distance (`∞` in the paper), returned whenever a
//! vertex is unreachable or a replacement path does not exist (for example when the avoided
//! edge is a bridge).

/// Hop-count distance type used throughout the workspace.
pub type Distance = u32;

/// The distance reported when no path exists.
pub const INFINITE_DISTANCE: Distance = Distance::MAX;

/// Returns `true` when `d` represents a real (finite) distance.
///
/// ```
/// use msrp_graph::{is_finite, INFINITE_DISTANCE};
/// assert!(is_finite(0));
/// assert!(!is_finite(INFINITE_DISTANCE));
/// ```
#[inline]
pub fn is_finite(d: Distance) -> bool {
    d != INFINITE_DISTANCE
}

/// Adds two distances, propagating infinity.
///
/// ```
/// use msrp_graph::{dist_add, INFINITE_DISTANCE};
/// assert_eq!(dist_add(2, 3), 5);
/// assert_eq!(dist_add(2, INFINITE_DISTANCE), INFINITE_DISTANCE);
/// ```
#[inline]
pub fn dist_add(a: Distance, b: Distance) -> Distance {
    if a == INFINITE_DISTANCE || b == INFINITE_DISTANCE {
        INFINITE_DISTANCE
    } else {
        a.checked_add(b).unwrap_or(INFINITE_DISTANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_propagates_infinity() {
        assert_eq!(dist_add(INFINITE_DISTANCE, 0), INFINITE_DISTANCE);
        assert_eq!(dist_add(0, INFINITE_DISTANCE), INFINITE_DISTANCE);
        assert_eq!(dist_add(INFINITE_DISTANCE, INFINITE_DISTANCE), INFINITE_DISTANCE);
    }

    #[test]
    fn addition_of_finite_values() {
        assert_eq!(dist_add(0, 0), 0);
        assert_eq!(dist_add(7, 11), 18);
    }

    #[test]
    fn addition_saturates_instead_of_wrapping() {
        // Values this large never occur for hop counts, but the helper must not wrap around.
        assert_eq!(dist_add(INFINITE_DISTANCE - 1, 5), INFINITE_DISTANCE);
    }

    #[test]
    fn finiteness_predicate() {
        assert!(is_finite(12345));
        assert!(!is_finite(INFINITE_DISTANCE));
    }
}
