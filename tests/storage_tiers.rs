//! Cross-tier bitwise parity for the storage-generic protected matrices.
//!
//! The COO and blocked-CSR tiers are *drop-in* replacements for the CSR
//! tier: for every element scheme, every panel width, and every worker
//! count, a protected SpMV through either alternative tier must produce
//! the exact same `f64` bit patterns as `ProtectedCsr`.  Both test
//! matrices have a row count that is not a multiple of the widest
//! row-pointer codeword group (8), so the group-tail paths are exercised
//! on every scheme.

use abft_suite::core::spmv::protected_spmm_plain;
use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLog, ProtectedMatrix, ProtectionConfig, SpmmWorkspace,
    SpmvWorkspace, StorageTier,
};
use abft_suite::prelude::Crc32cBackend;
use abft_suite::sparse::builders::{pad_rows_to_min_entries, poisson_2d_padded};
use abft_suite::sparse::{load_matrix_market, CsrMatrix};

fn all_schemes() -> [EccScheme; 5] {
    [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ]
}

/// Every non-CSR tier shape we pin against the CSR reference, including a
/// single-block and an oddly sized multi-block split.
fn alternative_tiers() -> [StorageTier; 4] {
    [
        StorageTier::Coo,
        StorageTier::BlockedCsr(1),
        StorageTier::BlockedCsr(3),
        StorageTier::BlockedCsr(7),
    ]
}

fn fixture(name: &str) -> CsrMatrix {
    let path = format!("{}/tests/fixtures/{}", env!("CARGO_MANIFEST_DIR"), name);
    load_matrix_market(&path).expect("fixture parses")
}

/// Test matrices: the padded Poisson operator (108 rows, 108 % 8 == 4) and
/// the handwritten irregular fixture (skewed row lengths + empty rows,
/// 12 rows, 12 % 8 == 4), padded so CRC32C's four-entry row floor holds.
fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("poisson", poisson_2d_padded(12, 9)),
        (
            "skew_general",
            pad_rows_to_min_entries(&fixture("skew_general.mtx"), 4),
        ),
    ]
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (row, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: row {row} differs ({x} vs {y})"
        );
    }
}

#[test]
fn coo_and_blocked_spmv_match_csr_bitwise_for_every_scheme() {
    for (label, m) in matrices() {
        let x: Vec<f64> = (0..m.cols())
            .map(|i| 1.0 + (i as f64 * 0.31).sin())
            .collect();
        for scheme in all_schemes() {
            let cfg = ProtectionConfig::matrix_only(scheme)
                .with_check_interval(8)
                .with_crc_backend(Crc32cBackend::SlicingBy16);
            let reference =
                AnyProtectedMatrix::encode(&m, &cfg, StorageTier::Csr).expect("csr encode");
            let log = FaultLog::new();
            let mut ws = SpmvWorkspace::new();
            // Iteration 0 runs full checks, iteration 3 is interval-skipped.
            for iteration in [0u64, 3] {
                let mut y_ref = vec![0.0; m.rows()];
                reference
                    .spmv_with(&x[..], &mut y_ref, iteration, &log, &mut ws)
                    .unwrap();
                for tier in alternative_tiers() {
                    let a = AnyProtectedMatrix::encode(&m, &cfg, tier).expect("tier encode");
                    assert_eq!(
                        std::mem::discriminant(&a.tier()),
                        std::mem::discriminant(&tier),
                        "{label}: encode must honour the tier kind"
                    );
                    let mut y = vec![0.0; m.rows()];
                    a.spmv_with(&x[..], &mut y, iteration, &log, &mut ws)
                        .unwrap();
                    assert_bitwise_eq(
                        &y,
                        &y_ref,
                        &format!("{label} {scheme:?} {tier:?} iteration={iteration}"),
                    );
                }
            }
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
    }
}

#[test]
fn tier_parity_holds_under_worker_sweeps() {
    let (label, m) = matrices().remove(0);
    let x: Vec<f64> = (0..m.cols())
        .map(|i| 2.0 + (i as f64 * 0.17).cos())
        .collect();
    for workers in [1usize, 2, 8] {
        rayon::set_worker_limit(Some(workers));
        for scheme in all_schemes() {
            let cfg =
                ProtectionConfig::matrix_only(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
            let reference =
                AnyProtectedMatrix::encode(&m, &cfg, StorageTier::Csr).expect("csr encode");
            let log = FaultLog::new();
            let mut ws = SpmvWorkspace::new();
            let mut y_ref = vec![0.0; m.rows()];
            reference
                .spmv_with(&x[..], &mut y_ref, 0, &log, &mut ws)
                .unwrap();
            for tier in alternative_tiers() {
                let a = AnyProtectedMatrix::encode(&m, &cfg.with_parallel(true), tier)
                    .expect("tier encode");
                let mut y = vec![0.0; m.rows()];
                a.spmv_with(&x[..], &mut y, 0, &log, &mut ws).unwrap();
                assert_bitwise_eq(
                    &y,
                    &y_ref,
                    &format!("{label} {scheme:?} {tier:?} workers={workers}"),
                );
            }
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
        rayon::set_worker_limit(None);
    }
}

#[test]
fn panel_spmm_parity_across_tiers() {
    let (label, m) = matrices().remove(1);
    for width in [3usize, 8] {
        let xs_owned: Vec<Vec<f64>> = (0..width)
            .map(|k| {
                (0..m.cols())
                    .map(|i| 1.0 + ((i + 7 * k) as f64 * 0.23).sin())
                    .collect()
            })
            .collect();
        let xs: Vec<&[f64]> = xs_owned.iter().map(|v| v.as_slice()).collect();
        for scheme in all_schemes() {
            let cfg =
                ProtectionConfig::matrix_only(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
            let log = FaultLog::new();
            let mut ws = SpmmWorkspace::new();
            let reference =
                AnyProtectedMatrix::encode(&m, &cfg, StorageTier::Csr).expect("csr encode");
            let mut ys_ref = vec![vec![0.0; m.rows()]; width];
            {
                let mut ys: Vec<&mut [f64]> = ys_ref.iter_mut().map(|v| v.as_mut_slice()).collect();
                protected_spmm_plain(&reference, &xs, &mut ys, 0, &log, &mut ws).unwrap();
            }
            for tier in alternative_tiers() {
                let a = AnyProtectedMatrix::encode(&m, &cfg, tier).expect("tier encode");
                let mut ys_owned = vec![vec![0.0; m.rows()]; width];
                let mut ys: Vec<&mut [f64]> =
                    ys_owned.iter_mut().map(|v| v.as_mut_slice()).collect();
                protected_spmm_plain(&a, &xs, &mut ys, 0, &log, &mut ws).unwrap();
                for (col, (y, y_ref)) in ys_owned.iter().zip(&ys_ref).enumerate() {
                    assert_bitwise_eq(
                        y,
                        y_ref,
                        &format!("{label} {scheme:?} {tier:?} width={width} col={col}"),
                    );
                }
            }
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
    }
}

#[test]
fn every_tier_roundtrips_fixtures_to_the_same_csr() {
    for name in [
        "skew_general.mtx",
        "spd_symmetric.mtx",
        "pattern_only.mtx",
        "dense_array.mtx",
        "integer_dups.mtx",
    ] {
        let m = fixture(name);
        // Secded64 keeps per-row constraints loose enough for the raw
        // (unpadded) fixtures, including their empty rows.
        let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        for tier in [
            StorageTier::Csr,
            StorageTier::Coo,
            StorageTier::BlockedCsr(3),
        ] {
            let a = AnyProtectedMatrix::encode(&m, &cfg, tier).expect("tier encode");
            let verify_log = FaultLog::new();
            assert!(
                a.verify_all(&verify_log).is_ok(),
                "{name} {tier:?}: clean verify"
            );
            let back = a.to_csr();
            let (rows, cols, values, col_indices, row_pointer) = back.into_raw();
            let (r0, c0, v0, i0, p0) = m.clone().into_raw();
            assert_eq!((rows, cols), (r0, c0), "{name} {tier:?}: shape");
            assert_eq!(values, v0, "{name} {tier:?}: values");
            assert_eq!(col_indices, i0, "{name} {tier:?}: column indices");
            assert_eq!(row_pointer, p0, "{name} {tier:?}: row pointer");
        }
    }
}
