//! Contiguous row-major feature matrices for batched inference.
//!
//! [`crate::Regressor::predict_matrix`] is the one batched-inference API.
//! A slice of per-row `Vec<f64>`s would cost one heap allocation per row —
//! measurable overhead when a fleet shard batches 1000+ instances every
//! epoch. [`FeatureMatrix`] stores all rows in one flat buffer that callers
//! clear and refill each epoch, so steady-state batched inference performs
//! no per-row allocations at all; rows are written in place through
//! [`FeatureMatrix::push_row_with`].

/// A row-major matrix of feature rows sharing one contiguous buffer.
///
/// All rows have exactly `n_cols` values. The buffer survives
/// [`FeatureMatrix::clear`], so a reused matrix reaches a steady state
/// where refilling performs no allocations.
///
/// # Example
///
/// ```
/// use aging_ml::FeatureMatrix;
///
/// let mut m = FeatureMatrix::new(3);
/// m.push_row(&[1.0, 2.0, 3.0]);
/// m.push_row_with(|buf| buf.extend([4.0, 5.0, 6.0]));
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
/// assert_eq!(m.rows().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    n_cols: usize,
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// Creates an empty matrix whose rows will have `n_cols` values.
    ///
    /// # Panics
    ///
    /// Panics if `n_cols == 0`.
    pub fn new(n_cols: usize) -> Self {
        assert!(n_cols > 0, "a feature matrix needs at least one column");
        FeatureMatrix { n_cols, data: Vec::new() }
    }

    /// Creates an empty matrix with capacity preallocated for `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `n_cols == 0`.
    pub fn with_capacity(n_cols: usize, rows: usize) -> Self {
        assert!(n_cols > 0, "a feature matrix needs at least one column");
        FeatureMatrix { n_cols, data: Vec::with_capacity(n_cols * rows) }
    }

    /// Number of values per row.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of rows currently stored.
    pub fn n_rows(&self) -> usize {
        self.data.len() / self.n_cols
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one row by copying it.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.n_cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_cols, "row arity mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends one row built in place: `fill` must push exactly
    /// [`FeatureMatrix::n_cols`] values onto the buffer it is handed. This
    /// is the zero-copy path for feature extractors that project directly
    /// into the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `fill` pushes a different number of values (the partial
    /// row is truncated away first, keeping the matrix rectangular).
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut Vec<f64>)) {
        let start = self.data.len();
        fill(&mut self.data);
        let pushed = self.data.len() - start;
        if pushed != self.n_cols {
            self.data.truncate(start);
            panic!("row builder pushed {pushed} values, expected {}", self.n_cols);
        }
    }

    /// The `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterates over the rows in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.n_cols)
    }

    /// Removes every row, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The whole buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut m = FeatureMatrix::with_capacity(2, 4);
        for i in 0..4 {
            m.push_row(&[i as f64, (10 * i) as f64]);
        }
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(2), &[2.0, 20.0]);
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[3], &[3.0, 30.0]);
        assert_eq!(m.as_slice().len(), 8);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = FeatureMatrix::new(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        let cap = m.data.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.data.capacity(), cap, "clear must keep the allocation");
    }

    #[test]
    fn push_row_with_builds_in_place() {
        let mut m = FeatureMatrix::new(2);
        m.push_row_with(|buf| {
            buf.push(7.0);
            buf.push(8.0);
        });
        assert_eq!(m.row(0), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        let mut m = FeatureMatrix::new(3);
        m.push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "pushed 1 values, expected 2")]
    fn short_builder_panics() {
        let mut m = FeatureMatrix::new(2);
        m.push_row_with(|buf| buf.push(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_columns_panics() {
        let _ = FeatureMatrix::new(0);
    }
}
