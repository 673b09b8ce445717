//! Error type shared by every format constructor and kernel.

use std::fmt;

/// Errors produced by sparse-format constructors, conversions and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row or column index lies outside the matrix dimensions.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Matrix row count.
        rows: usize,
        /// Matrix column count.
        cols: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the two shapes.
        what: String,
    },
    /// A format invariant is violated (e.g. a CSR row-pointer array that is
    /// not monotone, or whose last element disagrees with `cols.len()`).
    InvalidStructure {
        /// Description of the violated invariant.
        what: String,
    },
    /// Duplicate `(row, col)` coordinates were supplied where a format
    /// requires unique coordinates.
    DuplicateEntry {
        /// Row of the duplicate.
        row: usize,
        /// Column of the duplicate.
        col: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, rows, cols } => {
                write!(f, "entry ({row}, {col}) out of bounds for a {rows}x{cols} matrix")
            }
            SparseError::DimensionMismatch { what } => {
                write!(f, "dimension mismatch: {what}")
            }
            SparseError::InvalidStructure { what } => {
                write!(f, "invalid sparse structure: {what}")
            }
            SparseError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::IndexOutOfBounds { row: 5, col: 7, rows: 4, cols: 4 };
        assert!(e.to_string().contains("(5, 7)"));
        assert!(e.to_string().contains("4x4"));
        let e = SparseError::DuplicateEntry { row: 1, col: 2 };
        assert!(e.to_string().contains("(1, 2)"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SparseError::DimensionMismatch { what: "a vs b".into() });
    }
}
