//! The flat row buffer behind both replacement tables.

use msrp_graph::Vertex;

/// Every row of one source in one buffer: row `t` is `values[offsets[t]..offsets[t + 1]]`.
///
/// `offsets` (length `n + 1`) is the prefix sum of the row lengths, which the canonical
/// tree fixes: hop distance for the hop metric, hop depth for the weighted one. A lookup
/// is two adjacent offset loads and one load from `values`, with no per-row allocation and
/// no pointer chase through a `Vec<Vec<_>>`. The concatenated `values` are exactly the
/// snapshot's row stream for that source, so a boot decodes the stream straight into them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FlatRows<T> {
    offsets: Vec<usize>,
    values: Vec<T>,
}

impl<T: Copy> FlatRows<T> {
    /// `n` rows of lengths `len(0), …, len(n - 1)`, every entry `fill`.
    pub(crate) fn filled(n: usize, len: impl Fn(Vertex) -> usize, fill: T) -> Self {
        let offsets = prefix_sum(n, len);
        let values = vec![fill; offsets[n]];
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
        assert_eq!(offsets[n], flat.len(), "flat row stream does not match the tree's row shapes");
        FlatRows { offsets, values: flat }
    }

    /// Number of rows (the vertex count).
    pub(crate) fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `t`; panics if `t` is out of range.
    pub(crate) fn row(&self, t: Vertex) -> &[T] {
        &self.values[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Row `t`, mutably; panics if `t` is out of range.
    pub(crate) fn row_mut(&mut self, t: Vertex) -> &mut [T] {
        &mut self.values[self.offsets[t]..self.offsets[t + 1]]
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

fn prefix_sum(n: usize, len: impl Fn(Vertex) -> usize) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    offsets.push(0);
    for t in 0..n {
        total += len(t);
        offsets.push(total);
    }
    offsets
}
