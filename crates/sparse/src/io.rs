//! MatrixMarket (`.mtx`) I/O.
//!
//! The paper evaluates matrices "drawn from the Texas A&M Sparse Matrix
//! collection" (§4), which distributes MatrixMarket files. This module
//! reads/writes the coordinate format so real collection matrices can be
//! run through the simulator, covering:
//!
//! - `matrix coordinate real general` (the common case),
//! - `integer` values (read as `f32`),
//! - `pattern` matrices (entries get value 1.0),
//! - `symmetric` / `skew-symmetric` storage (mirrored on load).

use crate::{CooMatrix, CsrMatrix, SparseFormat};
use std::fmt;
use std::io::{BufRead, Write};

/// MatrixMarket parse errors with 1-based line numbers.
#[derive(Debug)]
pub enum MtxError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
}

impl fmt::Display for MtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "i/o error: {e}"),
            MtxError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

fn perr<T>(line: usize, msg: impl Into<String>) -> Result<T, MtxError> {
    Err(MtxError::Parse { line, msg: msg.into() })
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
    SkewSymmetric,
}

/// Read a MatrixMarket coordinate matrix into COO form.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CooMatrix, MtxError> {
    let mut lines = reader.lines().enumerate();
    // Header line.
    let (ln, header) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return perr(1, "empty file"),
    };
    let head: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if head.len() < 5 || head[0] != "%%matrixmarket" || head[1] != "matrix" {
        return perr(ln, "expected '%%MatrixMarket matrix ...' header");
    }
    if head[2] != "coordinate" {
        return perr(ln, format!("unsupported format '{}' (only coordinate)", head[2]));
    }
    let field = match head[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return perr(ln, format!("unsupported field type '{other}'")),
    };
    let symmetry = match head[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return perr(ln, format!("unsupported symmetry '{other}'")),
    };
    // Size line (skipping comments).
    let mut size_line = None;
    for (i, l) in lines.by_ref() {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((i + 1, l));
        break;
    }
    let Some((ln, size)) = size_line else {
        return perr(0, "missing size line");
    };
    let parts: Vec<&str> = size.split_whitespace().collect();
    if parts.len() != 3 {
        return perr(ln, "size line must be 'rows cols nnz'");
    }
    let rows: usize = parts[0]
        .parse()
        .map_err(|_| MtxError::Parse { line: ln, msg: format!("bad row count {}", parts[0]) })?;
    let cols: usize = parts[1]
        .parse()
        .map_err(|_| MtxError::Parse { line: ln, msg: format!("bad col count {}", parts[1]) })?;
    let nnz: usize = parts[2]
        .parse()
        .map_err(|_| MtxError::Parse { line: ln, msg: format!("bad nnz count {}", parts[2]) })?;
    // An adversarial size line can promise more entries than the matrix
    // can hold; reject it rather than trusting it (overflow-safe).
    if nnz > rows.saturating_mul(cols) {
        return perr(ln, format!("nnz {nnz} exceeds {rows}x{cols} capacity"));
    }
    // Cap the *preallocation* (not the matrix size) so a huge-but-plausible
    // promised nnz on a truncated file cannot allocate gigabytes up front;
    // the vector still grows to the real entry count.
    let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(nnz.min(1 << 20));
    let mut seen = 0usize;
    for (i, l) in lines {
        let l = l?;
        let ln = i + 1;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let want = if field == Field::Pattern { 2 } else { 3 };
        if parts.len() < want {
            return perr(ln, format!("entry needs {want} fields, got {}", parts.len()));
        }
        let r: usize = parts[0]
            .parse()
            .map_err(|_| MtxError::Parse { line: ln, msg: format!("bad row {}", parts[0]) })?;
        let c: usize = parts[1]
            .parse()
            .map_err(|_| MtxError::Parse { line: ln, msg: format!("bad col {}", parts[1]) })?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return perr(ln, format!("entry ({r}, {c}) out of 1-based bounds {rows}x{cols}"));
        }
        let v: f32 = match field {
            Field::Pattern => 1.0,
            _ => parts[2].parse().map_err(|_| MtxError::Parse {
                line: ln,
                msg: format!("bad value {}", parts[2]),
            })?,
        };
        if !v.is_finite() {
            return perr(ln, format!("non-finite value {v}"));
        }
        if seen == nnz {
            return perr(ln, format!("more entries than the promised {nnz}"));
        }
        let (r, c) = (r - 1, c - 1);
        if v != 0.0 {
            triplets.push((r, c, v));
        }
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r != c && v != 0.0 => triplets.push((c, r, v)),
            Symmetry::SkewSymmetric if r != c && v != 0.0 => triplets.push((c, r, -v)),
            _ => {}
        }
        seen += 1;
    }
    if seen != nnz {
        return perr(0, format!("size line promised {nnz} entries, file has {seen}"));
    }
    CooMatrix::from_triplets(rows, cols, &triplets)
        .map_err(|e| MtxError::Parse { line: 0, msg: e.to_string() })
}

/// Read a MatrixMarket matrix directly into CSR. CSR holds `u32` indices,
/// so a row, column or entry count past that range is a parse error.
pub fn read_matrix_market_csr<R: BufRead>(reader: R) -> Result<CsrMatrix, MtxError> {
    CsrMatrix::try_from_coo(&read_matrix_market(reader)?)
        .map_err(|e| MtxError::Parse { line: 0, msg: e.to_string() })
}

/// Write a matrix in `coordinate real general` format.
pub fn write_matrix_market<W: Write, M: SparseFormat>(w: &mut W, m: &M) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by hht-sparse")?;
    writeln!(w, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.triplets() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use std::io::Cursor;

    #[test]
    fn reads_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 4\n\
                   1 1 5.0\n1 3 2.0\n2 3 3.0\n3 1 1.0\n";
        let m = read_matrix_market_csr(Cursor::new(src)).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(m.values(), &[5.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn reads_pattern_and_integer() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let m = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(1, 1), Some(1.0));
        let src = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 7\n";
        let m = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(m.get(1, 0), Some(7.0));
    }

    #[test]
    fn mirrors_symmetric_storage() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n\
                   1 1 1.0\n2 1 2.0\n3 2 3.0\n";
        let m = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(m.nnz(), 5); // diagonal not mirrored
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.get(1, 0), Some(2.0));
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n";
        let m = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(m.get(1, 0), Some(4.0));
        assert_eq!(m.get(0, 1), Some(-4.0));
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.0\n2 2 3.0\n";
        let m = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn error_cases() {
        assert!(read_matrix_market(Cursor::new("")).is_err());
        assert!(read_matrix_market(Cursor::new("hello\n")).is_err());
        let bad_fmt = "%%MatrixMarket matrix array real general\n2 2 4\n";
        assert!(read_matrix_market(Cursor::new(bad_fmt)).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(oob)).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        let e = read_matrix_market(Cursor::new(short)).unwrap_err();
        assert!(e.to_string().contains("promised"));
        let zero_based = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(zero_based)).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let m = generate::random_csr(16, 24, 0.8, 5);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market_csr(Cursor::new(buf)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn adversarial_inputs_error_instead_of_panicking() {
        // A size line promising more entries than rows*cols can hold (or
        // enough to overflow an allocation) must be rejected up front.
        let huge = "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n";
        let e = read_matrix_market(Cursor::new(huge)).unwrap_err();
        assert!(e.to_string().contains("capacity"), "{e}");
        // Index overflow in an entry: parse error, not a wraparound.
        let overflow = "%%MatrixMarket matrix coordinate real general\n\
                        2 2 1\n99999999999999999999999 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(overflow)).is_err());
        // More data lines than promised: rejected at the extra line.
        let extra = "%%MatrixMarket matrix coordinate real general\n\
                     2 2 1\n1 1 1.0\n2 2 2.0\n";
        let e = read_matrix_market(Cursor::new(extra)).unwrap_err();
        assert!(e.to_string().contains("more entries"), "{e}");
        // Non-finite values are data corruption, not numbers to compute on.
        let nan = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n";
        assert!(read_matrix_market(Cursor::new(nan)).is_err());
        let inf = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n";
        assert!(read_matrix_market(Cursor::new(inf)).is_err());
        // Truncated size line / pattern entry lines.
        let short_size = "%%MatrixMarket matrix coordinate real general\n2 2\n";
        assert!(read_matrix_market(Cursor::new(short_size)).is_err());
        let short_entry = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n";
        assert!(read_matrix_market(Cursor::new(short_entry)).is_err());
    }

    #[test]
    fn csr_reader_rejects_shapes_past_u32_indices() {
        // Column 4999999999 would wrap to 705032702 in a u32 index array.
        let wide = "%%MatrixMarket matrix coordinate real general\n\
                    1 5000000000 1\n1 4999999999 2.5\n";
        assert_eq!(read_matrix_market(Cursor::new(wide)).unwrap().nnz(), 1);
        let e = read_matrix_market_csr(Cursor::new(wide)).unwrap_err();
        assert!(matches!(e, MtxError::Parse { .. }), "{e}");
        assert!(e.to_string().contains("u32"), "{e}");
        // A row count of usize::MAX would overflow the row-pointer array.
        let tall = "%%MatrixMarket matrix coordinate real general\n18446744073709551615 1 0\n";
        let e = read_matrix_market_csr(Cursor::new(tall)).unwrap_err();
        assert!(matches!(e, MtxError::Parse { .. }), "{e}");
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary bytes never panic the parser: every outcome is
            /// `Ok` or a structured `MtxError`.
            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let text = String::from_utf8_lossy(&bytes).into_owned();
                let _ = read_matrix_market(Cursor::new(text.as_bytes()));
            }

            /// A well-formed header followed by arbitrary size/entry bytes
            /// never panics (exercises the post-header paths the raw fuzz
            /// rarely reaches).
            #[test]
            fn arbitrary_body_never_panics(
                bytes in proptest::collection::vec(any::<u8>(), 0..200),
                sym in 0u8..3,
            ) {
                let sym = ["general", "symmetric", "skew-symmetric"][sym as usize];
                let body = String::from_utf8_lossy(&bytes).into_owned();
                let text = format!("%%MatrixMarket matrix coordinate real {sym}\n{body}");
                let _ = read_matrix_market(Cursor::new(text.as_bytes()));
            }

            /// Structured-but-hostile numeric triples: parse succeeds or
            /// errors, and any accepted matrix satisfies its own invariants.
            #[test]
            fn hostile_triples_parse_or_error(
                rows in 0usize..6, cols in 0usize..6,
                nnz in 0usize..12,
                entries in proptest::collection::vec((0u64..8, 0u64..8, -2i32..3), 0..12),
            ) {
                let mut text = format!("%%MatrixMarket matrix coordinate real general\n{rows} {cols} {nnz}\n");
                for (r, c, v) in &entries {
                    text.push_str(&format!("{r} {c} {v}\n"));
                }
                if let Ok(m) = read_matrix_market(Cursor::new(text.as_bytes())) {
                    prop_assert_eq!(m.rows(), rows);
                    prop_assert_eq!(m.cols(), cols);
                    prop_assert!(m.nnz() <= nnz);
                }
            }
        }
    }
}
