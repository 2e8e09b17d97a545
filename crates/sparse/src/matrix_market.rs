//! Streaming Matrix Market (`.mtx`) ingestion.
//!
//! Parses the NIST Matrix Market exchange format directly into [`CsrMatrix`]
//! storage without materialising an intermediate vector of `(row, col,
//! value)` triples: entries stream into structure-of-arrays buffers, a
//! per-row counting pass turns into the CSR row pointer by prefix sum, and a
//! stable counting-sort scatter places each entry (plus its symmetric
//! mirror) in its row.  A final per-row pass sorts columns and merges
//! duplicate coordinates by summation, so files with unsorted or repeated
//! entries load into canonical CSR form.
//!
//! Supported header combinations:
//!
//! * formats — `coordinate` (sparse triplets) and `array` (dense
//!   column-major; exact zeros are dropped while building the sparse form);
//! * fields — `real`, `integer`, and `pattern` (pattern entries get value
//!   `1.0`; `pattern` is only valid with `coordinate`);
//! * symmetries — `general` and `symmetric` (off-diagonal entries of a
//!   symmetric file are mirrored; `skew-symmetric` and `hermitian` are
//!   rejected, as is the `complex` field).
//!
//! Indices in the file are 1-based per the format specification and are
//! validated against the declared dimensions.

use crate::{CsrMatrix, SparseError};
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// Errors produced while reading a Matrix Market file.
#[derive(Debug)]
pub enum MatrixMarketError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line could not be parsed (1-based line number and description).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The header names a format/field/symmetry combination this parser
    /// does not support (e.g. `complex` or `hermitian`).
    Unsupported(String),
    /// The parsed entries do not form a structurally valid matrix.
    Invalid(SparseError),
}

impl fmt::Display for MatrixMarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixMarketError::Io(e) => write!(f, "matrix market: I/O error: {e}"),
            MatrixMarketError::Parse { line, message } => {
                write!(f, "matrix market: line {line}: {message}")
            }
            MatrixMarketError::Unsupported(what) => {
                write!(f, "matrix market: unsupported: {what}")
            }
            MatrixMarketError::Invalid(e) => write!(f, "matrix market: invalid matrix: {e}"),
        }
    }
}

impl std::error::Error for MatrixMarketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MatrixMarketError::Io(e) => Some(e),
            MatrixMarketError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MatrixMarketError {
    fn from(e: std::io::Error) -> Self {
        MatrixMarketError::Io(e)
    }
}

impl From<SparseError> for MatrixMarketError {
    fn from(e: SparseError) -> Self {
        MatrixMarketError::Invalid(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Coordinate,
    Array,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

struct Header {
    format: Format,
    field: Field,
    symmetry: Symmetry,
}

fn parse_header(line: &str) -> Result<Header, MatrixMarketError> {
    let tokens: Vec<String> = line.split_whitespace().map(str::to_lowercase).collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MatrixMarketError::Parse {
            line: 1,
            message: format!(
                "expected '%%MatrixMarket matrix <format> <field> <symmetry>' header, got {line:?}"
            ),
        });
    }
    let format = match tokens[2].as_str() {
        "coordinate" => Format::Coordinate,
        "array" => Format::Array,
        other => return Err(MatrixMarketError::Unsupported(format!("format {other:?}"))),
    };
    let field = match tokens[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(MatrixMarketError::Unsupported(format!("field {other:?}"))),
    };
    let symmetry = match tokens[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(MatrixMarketError::Unsupported(format!(
                "symmetry {other:?}"
            )))
        }
    };
    if format == Format::Array && field == Field::Pattern {
        return Err(MatrixMarketError::Unsupported(
            "array format with pattern field".into(),
        ));
    }
    Ok(Header {
        format,
        field,
        symmetry,
    })
}

/// Entries reserved up front from a size line's declared count: the entry
/// buffers grow past it only with entries actually read, so no declared
/// count can make the reader allocate for entries the file does not hold.
/// (The row histogram is `rows + 1` counters by construction of CSR.)
const FIRST_RESERVE: usize = 1 << 16;

/// Streaming accumulator: structure-of-arrays entry buffers plus the
/// per-row histogram that later becomes the row pointer.
struct Accumulator {
    rows: usize,
    cols: usize,
    symmetric: bool,
    entry_rows: Vec<u32>,
    entry_cols: Vec<u32>,
    entry_vals: Vec<f64>,
    row_counts: Vec<u32>,
}

impl Accumulator {
    fn new(rows: usize, cols: usize, symmetric: bool, capacity: usize) -> Self {
        Accumulator {
            rows,
            cols,
            symmetric,
            entry_rows: Vec::with_capacity(capacity),
            entry_cols: Vec::with_capacity(capacity),
            entry_vals: Vec::with_capacity(capacity),
            row_counts: vec![0u32; rows],
        }
    }

    /// Accepts one 0-based entry, counting its symmetric mirror too.
    fn push(&mut self, row: u32, col: u32, value: f64) {
        self.entry_rows.push(row);
        self.entry_cols.push(col);
        self.entry_vals.push(value);
        self.row_counts[row as usize] += 1;
        if self.symmetric && row != col {
            self.row_counts[col as usize] += 1;
        }
    }

    /// Prefix sum → scatter → per-row sort and duplicate merge.
    fn into_csr(self) -> Result<CsrMatrix, MatrixMarketError> {
        let total: usize = self.row_counts.iter().map(|&c| c as usize).sum();
        if total > u32::MAX as usize {
            return Err(MatrixMarketError::Invalid(SparseError::TooLarge(format!(
                "{total} entries after symmetric expansion"
            ))));
        }
        let mut row_pointer = Vec::with_capacity(self.rows + 1);
        row_pointer.push(0u32);
        let mut acc = 0u32;
        for &c in &self.row_counts {
            acc += c;
            row_pointer.push(acc);
        }
        // Stable scatter: input order within each row is preserved, so the
        // later duplicate merge sums file entries in file order.
        let mut cursors: Vec<u32> = row_pointer[..self.rows].to_vec();
        let mut col_indices = vec![0u32; total];
        let mut values = vec![0.0f64; total];
        let mut place = |r: u32, c: u32, v: f64, cursors: &mut [u32]| {
            let slot = cursors[r as usize] as usize;
            cursors[r as usize] += 1;
            col_indices[slot] = c;
            values[slot] = v;
        };
        for k in 0..self.entry_rows.len() {
            let (r, c, v) = (self.entry_rows[k], self.entry_cols[k], self.entry_vals[k]);
            place(r, c, v, &mut cursors);
            if self.symmetric && r != c {
                place(c, r, v, &mut cursors);
            }
        }

        // Canonicalise each row: sort by column via a reusable index
        // permutation, merging duplicate coordinates by summation.
        let mut out_cols = Vec::with_capacity(total);
        let mut out_vals = Vec::with_capacity(total);
        let mut out_ptr = Vec::with_capacity(self.rows + 1);
        out_ptr.push(0u32);
        let mut perm: Vec<u32> = Vec::new();
        for row in 0..self.rows {
            let start = row_pointer[row] as usize;
            let end = row_pointer[row + 1] as usize;
            let cols = &col_indices[start..end];
            let vals = &values[start..end];
            perm.clear();
            perm.extend(0..cols.len() as u32);
            perm.sort_by_key(|&i| cols[i as usize]);
            for &i in &perm {
                let (c, v) = (cols[i as usize], vals[i as usize]);
                match out_cols.last() {
                    Some(&last)
                        if out_cols.len() > *out_ptr.last().unwrap() as usize && last == c =>
                    {
                        *out_vals.last_mut().unwrap() += v;
                    }
                    _ => {
                        out_cols.push(c);
                        out_vals.push(v);
                    }
                }
            }
            out_ptr.push(out_cols.len() as u32);
        }
        Ok(CsrMatrix::try_new(
            self.rows, self.cols, out_vals, out_cols, out_ptr,
        )?)
    }
}

fn parse_usize(token: &str, line: usize, what: &str) -> Result<usize, MatrixMarketError> {
    token.parse().map_err(|_| MatrixMarketError::Parse {
        line,
        message: format!("invalid {what} {token:?}"),
    })
}

fn parse_value(token: &str, line: usize, field: Field) -> Result<f64, MatrixMarketError> {
    match field {
        Field::Pattern => unreachable!("pattern entries carry no value token"),
        Field::Integer => {
            token
                .parse::<i64>()
                .map(|v| v as f64)
                .map_err(|_| MatrixMarketError::Parse {
                    line,
                    message: format!("invalid integer value {token:?}"),
                })
        }
        Field::Real => token.parse().map_err(|_| MatrixMarketError::Parse {
            line,
            message: format!("invalid real value {token:?}"),
        }),
    }
}

/// Converts a 1-based file index into a validated 0-based index.
fn parse_index(
    token: &str,
    line: usize,
    limit: usize,
    what: &str,
) -> Result<u32, MatrixMarketError> {
    let raw = parse_usize(token, line, what)?;
    if raw == 0 || raw > limit {
        return Err(MatrixMarketError::Parse {
            line,
            message: format!("{what} {raw} out of range 1..={limit}"),
        });
    }
    Ok((raw - 1) as u32)
}

/// Parses Matrix Market data from any buffered reader.
pub fn parse_matrix_market<R: BufRead>(reader: R) -> Result<CsrMatrix, MatrixMarketError> {
    let mut lines = reader.lines();
    let header_line = lines.next().ok_or(MatrixMarketError::Parse {
        line: 1,
        message: "empty input".into(),
    })??;
    let header = parse_header(&header_line)?;

    let mut line_no = 1usize;
    let mut size: Option<(usize, usize, usize)> = None;
    let mut acc: Option<Accumulator> = None;
    // Array format state: entries stream in column-major order.
    let mut array_cursor = 0usize;
    let mut array_expected = 0usize;
    let mut declared = 0usize;
    let mut seen = 0usize;

    for l in lines {
        let l = l?;
        line_no += 1;
        let line = l.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        if size.is_none() {
            // The size line.
            let rows = parse_usize(tokens.next().unwrap_or(""), line_no, "row count")?;
            let cols = parse_usize(tokens.next().unwrap_or(""), line_no, "column count")?;
            if rows > u32::MAX as usize || cols > u32::MAX as usize {
                return Err(MatrixMarketError::Invalid(SparseError::TooLarge(format!(
                    "{rows} x {cols}"
                ))));
            }
            let nnz = match header.format {
                Format::Coordinate => {
                    let nnz = parse_usize(tokens.next().unwrap_or(""), line_no, "entry count")?;
                    if rows.checked_mul(cols).is_some_and(|cells| nnz > cells) {
                        return Err(MatrixMarketError::Invalid(SparseError::TooLarge(format!(
                            "{nnz} entries declared for a {rows} x {cols} matrix"
                        ))));
                    }
                    nnz
                }
                Format::Array => {
                    if header.symmetry == Symmetry::Symmetric {
                        if rows != cols {
                            return Err(MatrixMarketError::Parse {
                                line: line_no,
                                message: format!(
                                    "symmetric array matrix must be square, got {rows} x {cols}"
                                ),
                            });
                        }
                        rows * (rows + 1) / 2
                    } else {
                        rows * cols
                    }
                }
            };
            if tokens.next().is_some() {
                return Err(MatrixMarketError::Parse {
                    line: line_no,
                    message: "trailing tokens on size line".into(),
                });
            }
            declared = nnz;
            array_expected = nnz;
            size = Some((rows, cols, nnz));
            // The declared count is an upper bound nobody has checked yet
            // (array zeros are dropped, a short file is reported at the
            // end): reserve a first chunk and grow with what is read.
            acc = Some(Accumulator::new(
                rows,
                cols,
                header.symmetry == Symmetry::Symmetric,
                nnz.min(FIRST_RESERVE),
            ));
            continue;
        }
        let (rows, cols, _) = size.unwrap();
        let acc = acc.as_mut().unwrap();
        match header.format {
            Format::Coordinate => {
                seen += 1;
                if seen > declared {
                    return Err(MatrixMarketError::Parse {
                        line: line_no,
                        message: format!("more than the declared {declared} entries"),
                    });
                }
                let r = parse_index(tokens.next().unwrap_or(""), line_no, rows, "row index")?;
                let c = parse_index(tokens.next().unwrap_or(""), line_no, cols, "column index")?;
                let v = match header.field {
                    Field::Pattern => 1.0,
                    field => parse_value(tokens.next().unwrap_or(""), line_no, field)?,
                };
                if tokens.next().is_some() {
                    return Err(MatrixMarketError::Parse {
                        line: line_no,
                        message: "trailing tokens on entry line".into(),
                    });
                }
                if header.symmetry == Symmetry::Symmetric && (c as usize) > (r as usize) {
                    return Err(MatrixMarketError::Parse {
                        line: line_no,
                        message: format!(
                            "symmetric file stores the lower triangle only, got ({}, {})",
                            r + 1,
                            c + 1
                        ),
                    });
                }
                acc.push(r, c, v);
            }
            Format::Array => {
                // Dense values, one or more per line, column-major; for the
                // symmetric symmetry the lower triangle of each column.
                for token in std::iter::once(tokens.next().ok_or(MatrixMarketError::Parse {
                    line: line_no,
                    message: "empty data line".into(),
                })?)
                .chain(tokens)
                {
                    if array_cursor >= array_expected {
                        return Err(MatrixMarketError::Parse {
                            line: line_no,
                            message: format!("more than the expected {array_expected} values"),
                        });
                    }
                    let v = parse_value(token, line_no, header.field)?;
                    let (r, c) = match header.symmetry {
                        Symmetry::General => {
                            ((array_cursor % rows) as u32, (array_cursor / rows) as u32)
                        }
                        Symmetry::Symmetric => lower_triangle_coords(array_cursor, rows),
                    };
                    array_cursor += 1;
                    if v != 0.0 {
                        acc.push(r, c, v);
                    }
                }
            }
        }
    }

    let Some((_, _, _)) = size else {
        return Err(MatrixMarketError::Parse {
            line: line_no,
            message: "missing size line".into(),
        });
    };
    match header.format {
        Format::Coordinate if seen != declared => {
            return Err(MatrixMarketError::Parse {
                line: line_no,
                message: format!("expected {declared} entries, found {seen}"),
            });
        }
        Format::Array if array_cursor != array_expected => {
            return Err(MatrixMarketError::Parse {
                line: line_no,
                message: format!("expected {array_expected} values, found {array_cursor}"),
            });
        }
        _ => {}
    }
    acc.unwrap().into_csr()
}

/// Maps a linear position in a column-major lower-triangle walk (diagonal
/// included) of an `n × n` matrix to its `(row, col)` coordinates.
fn lower_triangle_coords(k: usize, n: usize) -> (u32, u32) {
    // Column c contributes n - c entries; walk columns until k fits.
    let mut c = 0usize;
    let mut k = k;
    while k >= n - c {
        k -= n - c;
        c += 1;
    }
    ((c + k) as u32, c as u32)
}

/// Parses Matrix Market data from an in-memory string.
pub fn parse_matrix_market_str(data: &str) -> Result<CsrMatrix, MatrixMarketError> {
    parse_matrix_market(data.as_bytes())
}

/// Loads a `.mtx` file from disk.
pub fn load_matrix_market(path: impl AsRef<Path>) -> Result<CsrMatrix, MatrixMarketError> {
    let file = std::fs::File::open(path)?;
    parse_matrix_market(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_is_a_clean_error() {
        match load_matrix_market("/nonexistent/matrix.mtx") {
            Err(MatrixMarketError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
            }
            other => panic!("expected a not-found I/O error, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_general_coordinate_file() {
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             \n\
             3 4 5\n\
             1 1 2.5\n\
             3 4 -1.0\n\
             2 2 1e2\n\
             1 3 0.5\n\
             3 1 7.0\n",
        )
        .unwrap();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 4, 5));
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(0, 2), 0.5);
        assert_eq!(m.get(1, 1), 100.0);
        assert_eq!(m.get(2, 0), 7.0);
        assert_eq!(m.get(2, 3), -1.0);
        // Columns are sorted within each row.
        assert_eq!(m.col_indices(), &[0, 2, 1, 0, 3]);
    }

    #[test]
    fn mirrors_symmetric_files() {
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             3 3 4\n\
             1 1 2.0\n\
             2 1 -1.0\n\
             3 3 4.0\n\
             3 2 5.0\n",
        )
        .unwrap();
        assert_eq!(m.nnz(), 6); // two off-diagonals mirrored
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn pattern_entries_get_unit_values() {
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 2 3\n\
             1 1\n\
             2 1\n\
             2 2\n",
        )
        .unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn integer_field_and_duplicate_merge() {
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate integer general\n\
             2 2 3\n\
             1 1 2\n\
             1 1 3\n\
             2 2 -4\n",
        )
        .unwrap();
        assert_eq!(m.nnz(), 2, "duplicates merge by summation");
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(1, 1), -4.0);
    }

    #[test]
    fn parses_dense_array_files() {
        // Column-major: column 1 is (1, 0), column 2 is (2, 3).
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix array real general\n\
             2 2\n\
             1.0\n\
             0.0\n\
             2.0\n\
             3.0\n",
        )
        .unwrap();
        assert_eq!(m.nnz(), 3, "exact zeros are dropped");
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn parses_symmetric_array_files() {
        // Lower triangle, column-major: (1,1) (2,1) (3,1) then (2,2) (3,2)
        // then (3,3).
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix array real symmetric\n\
             3 3\n\
             4.0 -1.0 -2.0\n\
             5.0 -3.0\n\
             6.0\n",
        )
        .unwrap();
        assert_eq!(m.nnz(), 9);
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(2, 0), -2.0);
        assert_eq!(m.get(0, 2), -2.0);
        assert_eq!(m.get(2, 1), -3.0);
        assert_eq!(m.get(2, 2), 6.0);
    }

    #[test]
    fn rejects_malformed_input() {
        // Unsupported field.
        assert!(matches!(
            parse_matrix_market_str("%%MatrixMarket matrix coordinate complex general\n1 1 1\n"),
            Err(MatrixMarketError::Unsupported(_))
        ));
        // Unsupported symmetry.
        assert!(matches!(
            parse_matrix_market_str("%%MatrixMarket matrix coordinate real hermitian\n"),
            Err(MatrixMarketError::Unsupported(_))
        ));
        // Bad header.
        assert!(parse_matrix_market_str("not a header\n").is_err());
        // Out-of-range index.
        let e = parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        );
        assert!(
            matches!(e, Err(MatrixMarketError::Parse { line: 3, .. })),
            "{e:?}"
        );
        // 0 is not a valid 1-based index.
        assert!(parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"
        )
        .is_err());
        // Entry count mismatch (too few).
        assert!(parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        .is_err());
        // Entry count mismatch (too many).
        assert!(parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n"
        )
        .is_err());
        // Upper-triangle entry in a symmetric file.
        assert!(parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n"
        )
        .is_err());
        // Pattern array is not a thing.
        assert!(matches!(
            parse_matrix_market_str("%%MatrixMarket matrix array pattern general\n2 2\n"),
            Err(MatrixMarketError::Unsupported(_))
        ));
    }

    #[test]
    fn a_size_line_cannot_reserve_what_the_file_does_not_hold() {
        // More entries declared than the matrix has cells is invalid; the
        // first two used to abort the process (a 32 GB reservation) or panic
        // ("capacity overflow") before reading a single entry, and the array
        // file below reserved 40 GB for its declared 10¹⁰ values.
        let coordinate = "%%MatrixMarket matrix coordinate real general\n";
        for nnz in ["4000000000", "18446744073709551615", "10"] {
            let e = parse_matrix_market_str(&format!("{coordinate}3 3 {nnz}\n1 1 1.0\n"));
            assert!(
                matches!(e, Err(MatrixMarketError::Invalid(_))),
                "nnz {nnz}: {e:?}"
            );
        }
        // As many entries as cells is still a valid declaration.
        assert!(parse_matrix_market_str(&format!("{coordinate}1 1 1\n1 1 1.0\n")).is_ok());
        let e = parse_matrix_market_str(
            "%%MatrixMarket matrix array real general\n100000 100000\n1.0\n",
        );
        assert!(
            matches!(e, Err(MatrixMarketError::Parse { .. })),
            "short array file: {e:?}"
        );
    }

    #[test]
    fn handles_empty_rows_and_skewed_lengths() {
        // Row 2 is empty; row 1 is long.
        let m = parse_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n\
             3 5 6\n\
             1 5 5.0\n\
             1 1 1.0\n\
             1 3 3.0\n\
             1 2 2.0\n\
             1 4 4.0\n\
             3 1 9.0\n",
        )
        .unwrap();
        assert_eq!(m.row_range(0).len(), 5);
        assert_eq!(m.row_range(1).len(), 0);
        assert_eq!(m.row_range(2).len(), 1);
        assert_eq!(m.col_indices()[..5], [0, 1, 2, 3, 4]);
    }

    #[test]
    fn lower_triangle_walk_is_column_major() {
        let coords: Vec<(u32, u32)> = (0..6).map(|k| lower_triangle_coords(k, 3)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]);
    }
}
