//! Column-major sparse storage for standard-form constraint matrices.
//!
//! The elemental-inequality matrix of the Shannon cone `Γ_n` is more than 95%
//! structural zeros (every row touches at most four of the `2^n − 1` entropy
//! variables), so the revised simplex stores `A` as a vector of sparse
//! columns: each column is a row-sorted list of `(row, value)` pairs.  Columns
//! are exactly what the revised method consumes — pricing takes a sparse dot
//! product of a column with the dual vector, and the FTRAN of an entering
//! column starts from its sparse form.

use crate::scalar::Scalar;

/// An `m × n` sparse matrix stored by columns.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    rows: usize,
    cols: Vec<Vec<(usize, Scalar)>>,
}

impl SparseMatrix {
    /// Creates an empty matrix with `rows` rows and no columns.
    pub fn new(rows: usize) -> SparseMatrix {
        SparseMatrix {
            rows,
            cols: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Total number of stored (nonzero) entries.
    pub fn num_nonzeros(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Appends a column given as `(row, value)` pairs and returns its index.
    ///
    /// Zero values are dropped, duplicate rows are summed, and the stored
    /// column is sorted by row.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn push_col(&mut self, entries: impl IntoIterator<Item = (usize, Scalar)>) -> usize {
        let mut col: Vec<(usize, Scalar)> = Vec::new();
        for (row, value) in entries {
            assert!(row < self.rows, "row {row} out of range");
            col.push((row, value));
        }
        col.sort_by_key(|(row, _)| *row);
        col.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = earlier.1.add(&later.1);
                true
            } else {
                false
            }
        });
        col.retain(|(_, value)| !value.is_zero());
        self.cols.push(col);
        self.cols.len() - 1
    }

    /// The sparse entries of column `j`, sorted by row.
    pub fn col(&self, j: usize) -> &[(usize, Scalar)] {
        &self.cols[j]
    }

    /// Scatters column `j` into the dense workspace `out` (length `rows`),
    /// which must be all-zero on entry.
    pub fn scatter_col(&self, j: usize, out: &mut [Scalar]) {
        for (row, value) in &self.cols[j] {
            out[*row] = value.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: i64) -> Scalar {
        Scalar::from_int(v)
    }

    #[test]
    fn columns_are_normalized() {
        let mut a = SparseMatrix::new(4);
        let j = a.push_col(vec![(2, s(1)), (0, s(3)), (2, s(-1)), (1, s(0))]);
        assert_eq!(j, 0);
        // Row 2 cancels, row 1 was zero: only row 0 remains.
        assert_eq!(a.col(0), &[(0, s(3))]);
        assert_eq!(a.num_nonzeros(), 1);
        assert_eq!(a.num_cols(), 1);
        assert_eq!(a.num_rows(), 4);
    }

    #[test]
    fn scatter_roundtrips() {
        let mut a = SparseMatrix::new(3);
        a.push_col(vec![(0, s(5)), (2, s(-2))]);
        let mut dense = vec![Scalar::ZERO; 3];
        a.scatter_col(0, &mut dense);
        assert_eq!(dense, vec![s(5), Scalar::ZERO, s(-2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rows_panic() {
        let mut a = SparseMatrix::new(2);
        a.push_col(vec![(2, s(1))]);
    }
}
