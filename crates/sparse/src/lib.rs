//! # abft-sparse — sparse linear algebra substrate
//!
//! This crate provides the unprotected sparse-matrix and dense-vector
//! building blocks that the ABFT schemes of the paper wrap: the Compressed
//! Sparse Row (CSR) format with 32-bit indices, a coordinate (COO) builder
//! format, dense `f64` vectors with the BLAS-1 kernels an iterative solver
//! needs, sparse matrix–vector products (serial and pool-parallel), and
//! matrix generators for the five-point-stencil systems TeaLeaf assembles.
//!
//! Everything here is *also* the baseline against which the protected
//! structures of `abft-core` are benchmarked (the 0 % overhead reference of
//! Figures 4–9).

pub mod blas1;
pub mod builders;
pub mod coo;
pub mod csr;
pub mod matrix_market;
#[cfg(test)]
mod reference;
pub mod spmv;
pub mod vector;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use matrix_market::{load_matrix_market, parse_matrix_market_str, MatrixMarketError};
pub use vector::Vector;

/// Errors produced when constructing or validating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A column index was out of range for the matrix width.
    ColumnOutOfBounds { row: usize, col: u32, cols: usize },
    /// The row-pointer array is not monotonically non-decreasing or has the
    /// wrong length / final value.
    MalformedRowPointer(String),
    /// Array lengths are inconsistent (values vs column indices).
    LengthMismatch { values: usize, columns: usize },
    /// The matrix dimensions exceed what 32-bit indices can address.
    TooLarge(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::ColumnOutOfBounds { row, col, cols } => write!(
                f,
                "column index {col} out of bounds in row {row} (matrix has {cols} columns)"
            ),
            SparseError::MalformedRowPointer(msg) => write!(f, "malformed row pointer: {msg}"),
            SparseError::LengthMismatch { values, columns } => write!(
                f,
                "values/columns length mismatch: {values} values vs {columns} column indices"
            ),
            SparseError::TooLarge(msg) => write!(f, "matrix too large for 32-bit indices: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}
