//! The flat row buffer behind both replacement tables.

use msrp_graph::Vertex;

/// Every row of one source in one buffer: row `t` is `values[offsets[t]..offsets[t + 1]]`.
///
/// `offsets` (`u32`, length `n + 1`) is the prefix sum of the row lengths, which the
/// canonical tree fixes: hop distance for the hop metric, hop depth for the weighted one.
/// A lookup is two adjacent offset loads and one load from `values`, with no per-row
/// allocation and no pointer chase through a `Vec<Vec<_>>`. The concatenated `values` are
/// exactly the snapshot's row stream for that source, so a boot decodes the stream
/// straight into them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FlatRows<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> FlatRows<T> {
    /// `n` rows of lengths `len(0), …, len(n - 1)`, every entry `fill`.
    pub(crate) fn filled(n: usize, len: impl Fn(Vertex) -> usize, fill: T) -> Self {
        let offsets = prefix_sum(n, len);
        let values = vec![fill; offsets[n] as usize];
        FlatRows { offsets, values }
    }

    /// `n` rows of lengths `len(0), …, len(n - 1)`, every entry of row `t` `fill(t)`. The
    /// buffer is allocated once, to its exact total.
    pub(crate) fn filled_per_row(
        n: usize,
        len: impl Fn(Vertex) -> usize,
        fill: impl Fn(Vertex) -> T,
    ) -> Self {
        let offsets = prefix_sum(n, len);
        let mut values = Vec::with_capacity(offsets[n] as usize);
        for (t, w) in offsets.windows(2).enumerate() {
            values.resize(w[1] as usize, fill(t));
        }
        FlatRows { offsets, values }
    }

    /// `n` rows of lengths `len(t)` cut from `flat`, in vertex order; `flat` becomes the
    /// buffer as it is.
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not hold exactly the entries the row lengths add up to.
    pub(crate) fn from_flat(n: usize, len: impl Fn(Vertex) -> usize, flat: Vec<T>) -> Self {
        let offsets = prefix_sum(n, len);
        assert_eq!(offsets[n] as usize, flat.len(), "flat rows do not match the tree's row shapes");
        FlatRows { offsets, values: flat }
    }

    /// Number of rows (the vertex count).
    pub(crate) fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `t`; panics if `t` is out of range.
    pub(crate) fn row(&self, t: Vertex) -> &[T] {
        &self.values[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Row `t`, mutably; panics if `t` is out of range.
    pub(crate) fn row_mut(&mut self, t: Vertex) -> &mut [T] {
        &mut self.values[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Entry `i` of row `t`, or `None` when either index is out of range.
    pub(crate) fn get(&self, t: Vertex, i: usize) -> Option<T> {
        if t >= self.row_count() {
            return None;
        }
        self.row(t).get(i).copied()
    }

    /// All entries, row after row.
    pub(crate) fn values(&self) -> &[T] {
        &self.values
    }

    /// `(target, edge_index, value)` for every entry, row after row.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Vertex, usize, T)> + '_ {
        (0..self.row_count())
            .flat_map(move |t| self.row(t).iter().enumerate().map(move |(i, &d)| (t, i, d)))
    }
}

/// The `n + 1` row offsets; panics, before any row exists, if they pass `u32::MAX`.
fn prefix_sum(n: usize, len: impl Fn(Vertex) -> usize) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    offsets.push(0);
    for t in 0..n {
        total += len(t);
        offsets.push(u32::try_from(total).expect("one source's row entries exceed u32::MAX"));
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "one source's row entries exceed u32::MAX")]
    fn row_totals_past_u32_fail_before_the_buffer_is_allocated() {
        // Two rows of 2^31 entries: had the check not fired first, `filled` would ask for
        // 16 GiB of `u32`s.
        let _ = FlatRows::filled(2, |_| 1 << 31, 0u32);
    }
}
