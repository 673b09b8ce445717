//! Property-based integration tests: format equivalences and
//! simulator-vs-golden agreement on arbitrary inputs.

use hht::sparse::{
    kernels, CooMatrix, CscMatrix, CsrMatrix, DenseVector, SmashMatrix, SparseFormat, SparseVector,
};
use hht::system::config::SystemConfig;
use hht::system::runner;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Arbitrary list of unique-coordinate triplets in an `r x c` matrix.
fn arb_triplets(max_dim: usize) -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f32)>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        let entry = (0..r, 0..c, -4i32..=4);
        proptest::collection::vec(entry, 0..=r * c).prop_map(move |es| {
            // Deduplicate coordinates, skip zero values.
            let mut map = BTreeMap::new();
            for (i, j, q) in es {
                if q != 0 {
                    map.insert((i, j), q as f32 * 0.5);
                }
            }
            (r, c, map.into_iter().map(|((i, j), v)| (i, j, v)).collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every format stores exactly the same matrix.
    #[test]
    fn all_formats_agree((r, c, ts) in arb_triplets(12)) {
        let csr = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let reference = csr.triplets();
        prop_assert_eq!(&CooMatrix::from_triplets(r, c, &ts).unwrap().triplets(), &reference);
        prop_assert_eq!(&CscMatrix::from_triplets(r, c, &ts).unwrap().triplets(), &reference);
        prop_assert_eq!(&SmashMatrix::from_triplets(r, c, &ts).unwrap().triplets(), &reference);
    }

    /// Golden SpMV distributes over the dense reconstruction.
    #[test]
    fn golden_spmv_matches_dense((r, c, ts) in arb_triplets(10)) {
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let v = DenseVector::from((0..c).map(|i| (i % 5) as f32 - 2.0).collect::<Vec<_>>());
        let sparse_y = kernels::spmv(&m, &v).unwrap();
        let dense_y = m.to_dense().matvec(&v).unwrap();
        prop_assert!(sparse_y.max_abs_diff(&dense_y) < 1e-4);
    }

    /// SpMSpV through the sparse path equals SpMV on the densified vector.
    #[test]
    fn golden_spmspv_matches_spmv((r, c, ts) in arb_triplets(10), mask in proptest::collection::vec(any::<bool>(), 10)) {
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let pairs: Vec<(usize, f32)> = (0..c)
            .filter(|i| mask[i % mask.len()])
            .map(|i| (i, (i % 3) as f32 + 0.5))
            .collect();
        let x = SparseVector::from_pairs(c, &pairs).unwrap();
        let a = kernels::spmspv(&m, &x).unwrap();
        let b = kernels::spmv(&m, &x.to_dense()).unwrap();
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
    }

    /// The full cycle-level system (CPU + HHT + SRAM) computes the same
    /// SpMV as the golden kernel on arbitrary small matrices.
    #[test]
    fn system_spmv_matches_golden((r, c, ts) in arb_triplets(8)) {
        let cfg = SystemConfig::paper_default();
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let v = DenseVector::from((0..c).map(|i| 1.0 + (i % 4) as f32).collect::<Vec<_>>());
        // Internal verification panics on divergence.
        let base = runner::run_spmv_baseline(&cfg, &m, &v);
        let hht = runner::run_spmv_hht(&cfg, &m, &v);
        prop_assert_eq!(base.y, hht.y);
    }

    /// Both HHT SpMSpV variants agree with the baseline merge on arbitrary
    /// inputs (exercises the chunked-header protocol for all row shapes).
    #[test]
    fn system_spmspv_variants_match((r, c, ts) in arb_triplets(8), mask in proptest::collection::vec(any::<bool>(), 8)) {
        let cfg = SystemConfig::paper_default();
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let pairs: Vec<(usize, f32)> = (0..c)
            .filter(|i| mask[i % mask.len()])
            .map(|i| (i, 1.0 - (i % 3) as f32))
            .collect();
        let x = SparseVector::from_pairs(c, &pairs).unwrap();
        let base = runner::run_spmspv_baseline(&cfg, &m, &x);
        let v1 = runner::run_spmspv_hht_v1(&cfg, &m, &x);
        let v2 = runner::run_spmspv_hht_v2(&cfg, &m, &x);
        prop_assert!(v1.y.max_abs_diff(&base.y) < 1e-3);
        prop_assert!(v2.y.max_abs_diff(&base.y) < 1e-3);
    }

    /// Tiled SpMV agrees with the untiled HHT run for arbitrary matrices
    /// and tile sizes (exercises edge tiles, empty tiles, single-tile).
    #[test]
    fn tiled_spmv_matches_untiled((r, c, ts) in arb_triplets(10), tile in 1usize..12) {
        let cfg = SystemConfig::paper_default();
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let v = DenseVector::from((0..c).map(|i| 0.25 + (i % 5) as f32).collect::<Vec<_>>());
        let untiled = runner::run_spmv_hht(&cfg, &m, &v);
        let tiled = hht::system::tiling::run_spmv_tiled(&cfg, &m, &v, tile);
        prop_assert!(tiled.out.y.max_abs_diff(&untiled.y) < 1e-3);
    }

    /// MatrixMarket write -> read is the identity on arbitrary matrices.
    #[test]
    fn matrix_market_round_trip((r, c, ts) in arb_triplets(12)) {
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let mut buf = Vec::new();
        hht::sparse::io::write_matrix_market(&mut buf, &m).unwrap();
        let back = hht::sparse::io::read_matrix_market_csr(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, m);
    }

    /// The programmable (§7) back-end computes the same SpMV as the ASIC
    /// engine on arbitrary inputs.
    #[test]
    fn programmable_matches_asic((r, c, ts) in arb_triplets(8)) {
        let cfg = SystemConfig::paper_default();
        let m = CsrMatrix::from_triplets(r, c, &ts).unwrap();
        let v = DenseVector::from((0..c).map(|i| 1.0 - (i % 3) as f32 * 0.5).collect::<Vec<_>>());
        let asic = runner::run_spmv_hht(&cfg, &m, &v);
        let prog = runner::run_spmv_hht_programmable(&cfg, &m, &v);
        prop_assert_eq!(asic.y, prog.y);
    }
}
