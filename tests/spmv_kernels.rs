//! Kernel-parity pins for the zero-allocation SpMV rewrite.
//!
//! The monomorphized slice kernels must be *bitwise* interchangeable: serial
//! vs parallel execution, checked vs interval-skipped iterations, and the
//! masked raw-slice fast path vs an explicitly masked plain input all have
//! to produce identical `f64` bit patterns for every protection scheme —
//! otherwise a future kernel optimisation could silently change solver
//! trajectories.

use abft_suite::core::spmv::protected_spmv;
use abft_suite::core::{
    EccScheme, FaultLog, ProtectedCsr, ProtectedMatrix, ProtectedVector, ProtectionConfig,
    SpmvWorkspace,
};
use abft_suite::prelude::Crc32cBackend;
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::CsrMatrix;

/// Big enough that the parallel path actually splits into several pool
/// chunks (the shim goes parallel at 4096 rows).
fn test_matrix() -> CsrMatrix {
    poisson_2d_padded(96, 96)
}

/// `m` encoded under `cfg`, once serial and once parallel.
fn serial_and_parallel(m: &CsrMatrix, cfg: ProtectionConfig) -> (ProtectedCsr, ProtectedCsr) {
    (
        ProtectedCsr::from_csr(m, &cfg).unwrap(),
        ProtectedCsr::from_csr(m, &cfg.with_parallel(true)).unwrap(),
    )
}

fn all_schemes() -> [EccScheme; 5] {
    [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
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
fn serial_and_parallel_agree_bitwise_for_every_scheme_and_interval() {
    let m = test_matrix();
    let x: Vec<f64> = (0..m.cols())
        .map(|i| (i as f64 * 0.37).sin() + 1.5)
        .collect();
    for scheme in all_schemes() {
        for interval in [1u32, 8] {
            let cfg = ProtectionConfig::matrix_only(scheme)
                .with_check_interval(interval)
                .with_crc_backend(Crc32cBackend::SlicingBy16);
            let (a, a_par) = serial_and_parallel(&m, cfg);
            let log = FaultLog::new();
            let mut ws = SpmvWorkspace::new();
            // Iteration 0 always runs full checks; with interval 8,
            // iteration 3 is a skipped (`should_check == false`) iteration.
            for iteration in [0u64, 3] {
                let mut y_serial = vec![0.0; m.rows()];
                a.spmv_with(&x[..], &mut y_serial, iteration, &log, &mut ws)
                    .unwrap();
                let mut y_parallel = vec![0.0; m.rows()];
                a_par
                    .spmv_with(&x[..], &mut y_parallel, iteration, &log, &mut ws)
                    .unwrap();
                assert_bitwise_eq(
                    &y_serial,
                    &y_parallel,
                    &format!("{scheme:?} interval={interval} iteration={iteration}"),
                );
                // A fresh workspace matches a warm one.
                let mut y_fresh = vec![0.0; m.rows()];
                a.spmv_with(
                    &x[..],
                    &mut y_fresh,
                    iteration,
                    &log,
                    &mut SpmvWorkspace::new(),
                )
                .unwrap();
                assert_bitwise_eq(
                    &y_serial,
                    &y_fresh,
                    &format!("{scheme:?} interval={interval} warm vs fresh workspace"),
                );
            }
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
    }
}

#[test]
fn masked_fast_path_matches_explicitly_masked_input_bitwise() {
    let m = test_matrix();
    let x_plain: Vec<f64> = (0..m.cols())
        .map(|i| 2.0 + (i as f64 * 0.21).cos())
        .collect();
    for scheme in all_schemes() {
        let cfg = ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
        let (a, a_par) = serial_and_parallel(&m, cfg);
        let xp = ProtectedVector::from_slice(&x_plain, scheme, cfg.crc_backend);
        let mut ws = SpmvWorkspace::new();
        // What the masked view is defined to read.
        let x_masked: Vec<f64> = (0..xp.len()).map(|i| xp.get(i)).collect();
        let log = FaultLog::new();

        // The protected vector rides the MaskedWords fast path through the
        // DenseSource dispatch; the plain slice rides the Slice path.  Both
        // must produce identical bits.
        let mut y_masked = vec![0.0; m.rows()];
        a.spmv_with(&xp, &mut y_masked, 0, &log, &mut ws).unwrap();
        let mut y_slice = vec![0.0; m.rows()];
        a.spmv_with(&x_masked[..], &mut y_slice, 0, &log, &mut ws)
            .unwrap();
        assert_bitwise_eq(&y_masked, &y_slice, &format!("{scheme:?} masked vs slice"));

        // Same through the parallel kernel.
        let mut y_masked_par = vec![0.0; m.rows()];
        a_par
            .spmv_with(&xp, &mut y_masked_par, 0, &log, &mut ws)
            .unwrap();
        assert_bitwise_eq(
            &y_masked,
            &y_masked_par,
            &format!("{scheme:?} masked serial vs parallel"),
        );
    }
}

#[test]
fn fully_protected_serial_and_parallel_agree_bitwise() {
    let m = test_matrix();
    let x_plain: Vec<f64> = (0..m.cols())
        .map(|i| 1.0 + (i % 13) as f64 * 0.125)
        .collect();
    for scheme in all_schemes() {
        for interval in [1u32, 8] {
            let cfg = ProtectionConfig::full(scheme)
                .with_check_interval(interval)
                .with_crc_backend(Crc32cBackend::SlicingBy16);
            let (a, a_par) = serial_and_parallel(&m, cfg);
            let mut x = ProtectedVector::from_slice(&x_plain, scheme, cfg.crc_backend);
            let log = FaultLog::new();
            let mut ws = SpmvWorkspace::new();
            for iteration in [0u64, 3] {
                let mut y1 = ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend);
                protected_spmv(&a, &mut x, &mut y1, iteration, &log, &mut ws).unwrap();
                let mut y2 = ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend);
                protected_spmv(&a_par, &mut x, &mut y2, iteration, &log, &mut ws).unwrap();
                // The encoded storage (values + embedded redundancy) must be
                // bit-identical, not just the masked reads.
                assert_eq!(
                    y1.raw(),
                    y2.raw(),
                    "{scheme:?} interval={interval} iteration={iteration}"
                );
            }
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
    }
}

#[test]
fn kernels_still_catch_and_correct_faults_after_the_rewrite() {
    // A flip in a SECDED64 element is transparently corrected on the checked
    // iteration by both execution modes, bitwise identically.
    let m = test_matrix();
    let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64).sqrt()).collect();
    let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64)
        .with_crc_backend(Crc32cBackend::SlicingBy16);
    let (mut a, mut a_par) = serial_and_parallel(&m, cfg);
    a.inject_value_bit_flip(1234, 40);
    a_par.inject_value_bit_flip(1234, 40);
    let log = FaultLog::new();
    let mut ws = SpmvWorkspace::new();
    let mut reference = vec![0.0; m.rows()];
    abft_suite::sparse::spmv::spmv_serial(&m, &x, &mut reference);

    let mut y_serial = vec![0.0; m.rows()];
    a.spmv_with(&x[..], &mut y_serial, 0, &log, &mut ws)
        .unwrap();
    assert_bitwise_eq(&y_serial, &reference, "corrected serial");
    assert!(log.total_corrected() > 0);

    let mut y_parallel = vec![0.0; m.rows()];
    a_par
        .spmv_with(&x[..], &mut y_parallel, 0, &log, &mut ws)
        .unwrap();
    assert_bitwise_eq(&y_parallel, &reference, "corrected parallel");
}

#[test]
fn sharded_scheduler_spmv_parity_under_worker_sweeps() {
    // Serial vs sharded-parallel SpMV under worker limits past the core
    // count (steal-heavy schedules: the chunk split oversubscribes lanes).
    // Output bits and bulk check accounting must both be independent of the
    // schedule, for the matrix-protected and the fully protected kernels.
    let m = test_matrix();
    let x_plain: Vec<f64> = (0..m.cols())
        .map(|i| 1.0 + (i as f64 * 0.29).sin())
        .collect();
    for workers in [2usize, 8] {
        rayon::set_worker_limit(Some(workers));
        for scheme in all_schemes() {
            let cfg = ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
            let (a, a_par) = serial_and_parallel(&m, cfg);
            let mut ws = SpmvWorkspace::new();

            let serial_log = FaultLog::new();
            let mut y_serial = vec![0.0; m.rows()];
            a.spmv_with(&x_plain[..], &mut y_serial, 0, &serial_log, &mut ws)
                .unwrap();

            let parallel_log = FaultLog::new();
            let mut y_parallel = vec![0.0; m.rows()];
            a_par
                .spmv_with(&x_plain[..], &mut y_parallel, 0, &parallel_log, &mut ws)
                .unwrap();

            assert_bitwise_eq(
                &y_serial,
                &y_parallel,
                &format!("{scheme:?} workers={workers} plain-x"),
            );
            assert_eq!(
                parallel_log.snapshot(),
                serial_log.snapshot(),
                "{scheme:?} workers={workers}: check accounting must not depend on the schedule"
            );

            // Fully protected kernel too (masked input, protected output).
            let mut x = ProtectedVector::from_slice(&x_plain, scheme, cfg.crc_backend);
            let log = FaultLog::new();
            let mut y1 = ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend);
            protected_spmv(&a, &mut x, &mut y1, 0, &log, &mut ws).unwrap();
            let mut y2 = ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend);
            protected_spmv(&a_par, &mut x, &mut y2, 0, &log, &mut ws).unwrap();
            assert_eq!(
                y1.raw(),
                y2.raw(),
                "{scheme:?} workers={workers} fully protected"
            );
        }
        rayon::set_worker_limit(None);
    }
}
