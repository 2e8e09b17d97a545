//! Differential tests for the SIMD verification layer.
//!
//! The batched SIMD predicates (`abft_ecc::verify`) replaced the per-group
//! checks on every hot path — the masked BLAS-1 kernels, `check_all`/`scrub`
//! and the protected SpMV element loops.  The contract is that they are
//! **invisible in every observable**: kernel results bit for bit, check
//! counts, corrected/uncorrectable tallies and error indices must all match
//! the per-group reference semantics, for every scheme, any vector length
//! (including `len % group != 0` partial/padding groups), clean and faulted
//! storage, and any worker count.
//!
//! The ISA-level differential tests (every implementation in the dispatch
//! table against the portable scalar reference) live inside `abft-ecc`;
//! this suite pins the *consumers* through the public API.

use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLog, ProtectedCsr, ProtectedVector, ProtectionConfig,
    SpmvWorkspace, StorageTier,
};
use abft_suite::prelude::{Crc32cBackend, ProtectedMatrix, Solver};
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::sparse::builders::poisson_2d_padded;

fn all_schemes() -> [EccScheme; 5] {
    [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ]
}

/// Deterministic pseudo-random f64 in a solver-ish range.
fn sample(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1.0 + (x >> 11) as f64 * 2f64.powi(-53)
        })
        .collect()
}

/// Randomized lengths crossing group and accumulator-block boundaries,
/// including every `len % group != 0` residue for groups 2 and 4.
fn lengths() -> [usize; 10] {
    [1, 2, 3, 5, 7, 63, 130, 4095, 4097, 9000]
}

/// Masked kernels must agree bitwise with the group-decode reference on
/// clean storage of any length, with identical check accounting — this
/// drives the batched fast path (clean is the common case).
#[test]
fn masked_kernels_match_reference_on_all_lengths() {
    for scheme in all_schemes() {
        for len in lengths() {
            let a_vals = sample(len, 17);
            let b_vals = sample(len, 29);
            let a = ProtectedVector::from_slice(&a_vals, scheme, Crc32cBackend::SlicingBy16);
            let b = ProtectedVector::from_slice(&b_vals, scheme, Crc32cBackend::SlicingBy16);

            let log_ref = FaultLog::new();
            let log_masked = FaultLog::new();

            let d_ref = a.dot(&b, &log_ref).unwrap();
            let d_masked = a.dot_masked(&b, &log_masked).unwrap();
            assert_eq!(
                d_ref.to_bits(),
                d_masked.to_bits(),
                "{scheme:?} len={len}: dot diverged"
            );

            let n_ref = a.norm2(&log_ref).unwrap();
            let n_masked = a.norm2_masked(&log_masked).unwrap();
            assert_eq!(n_ref.to_bits(), n_masked.to_bits(), "{scheme:?} len={len}");

            let mut y_ref = a.clone();
            let mut y_masked = a.clone();
            y_ref.axpy(0.75, &b, &log_ref).unwrap();
            y_masked.axpy_masked(0.75, &b, &log_masked).unwrap();
            assert_eq!(y_ref.raw(), y_masked.raw(), "{scheme:?} len={len}: axpy");

            y_ref.update_from_fn(&log_ref, |_, v| v * 1.25).unwrap();
            y_masked.scale_masked(1.25, &log_masked).unwrap();
            assert_eq!(y_ref.raw(), y_masked.raw(), "{scheme:?} len={len}: scale");

            // Fused dot+AXPY against its decomposition.
            let fused = y_masked.dot_axpy_masked(-0.5, &b, &log_masked).unwrap();
            y_ref.axpy(-0.5, &b, &log_ref).unwrap();
            let dec = y_ref.dot(&y_ref, &log_ref).unwrap();
            assert_eq!(fused.to_bits(), dec.to_bits(), "{scheme:?} len={len}");
            assert_eq!(y_ref.raw(), y_masked.raw(), "{scheme:?} len={len}");

            // No spurious fault reports on clean data, on either path.
            for log in [&log_ref, &log_masked] {
                assert_eq!(log.total_corrected(), 0, "{scheme:?} len={len}");
                assert_eq!(log.total_uncorrectable(), 0, "{scheme:?} len={len}");
            }
        }
    }
}

/// A single injected bit flip must produce identical outcomes from the
/// batched-screened kernels and the reference: transparently corrected (and
/// identical results) for the correcting schemes, an identical abort for
/// SED.
#[test]
fn single_bit_faults_are_handled_identically() {
    for scheme in all_schemes() {
        if scheme == EccScheme::None {
            continue;
        }
        for len in [5usize, 63, 4097] {
            let vals = sample(len, 7);
            let b_vals = sample(len, 11);
            let clean = ProtectedVector::from_slice(&vals, scheme, Crc32cBackend::SlicingBy16);
            let b = ProtectedVector::from_slice(&b_vals, scheme, Crc32cBackend::SlicingBy16);
            for (index, bit) in [(0usize, 40u32), (len / 2, 14), (len - 1, 60)] {
                let mut v = clean.clone();
                v.inject_bit_flip(index, bit);

                let log_ref = FaultLog::new();
                let log_masked = FaultLog::new();
                let r_ref = v.dot(&b, &log_ref);
                let r_masked = v.dot_masked(&b, &log_masked);
                match (r_ref, r_masked) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{scheme:?} len={len} flip=({index},{bit})"
                        );
                        assert!(
                            scheme.corrects_single_flips(),
                            "{scheme:?}: SED cannot correct"
                        );
                    }
                    (Err(_), Err(_)) => {
                        assert_eq!(scheme, EccScheme::Sed, "{scheme:?} should correct");
                    }
                    (r, m) => panic!(
                        "{scheme:?} len={len} flip=({index},{bit}): paths disagree ({r:?} vs {m:?})"
                    ),
                }
                let s_ref = log_ref.snapshot();
                let s_masked = log_masked.snapshot();
                assert_eq!(
                    s_ref, s_masked,
                    "{scheme:?} len={len} flip=({index},{bit}): fault accounting diverged"
                );
            }
        }
    }
}

/// Double flips in one codeword: the SECDED schemes must report an
/// uncorrectable error from both paths with identical accounting.
#[test]
fn double_bit_faults_abort_identically() {
    for scheme in [EccScheme::Secded64, EccScheme::Secded128] {
        for len in [7usize, 130] {
            let vals = sample(len, 23);
            let mut v = ProtectedVector::from_slice(&vals, scheme, Crc32cBackend::SlicingBy16);
            v.inject_bit_flip(len / 2, 20);
            v.inject_bit_flip(len / 2, 45);

            let log_ref = FaultLog::new();
            let log_masked = FaultLog::new();
            let r_ref = v.dot(&v, &log_ref).unwrap_err();
            let r_masked = v.dot_masked(&v, &log_masked).unwrap_err();
            assert_eq!(r_ref, r_masked, "{scheme:?} len={len}");
            assert_eq!(
                log_ref.snapshot(),
                log_masked.snapshot(),
                "{scheme:?} len={len}"
            );
            assert!(log_masked.total_uncorrectable() > 0);

            // scrub must also fail identically (it takes the batched
            // whole-vector fast path first).
            let log_scrub = FaultLog::new();
            assert!(v.clone().scrub(&log_scrub).is_err(), "{scheme:?} len={len}");
        }
    }
}

/// The batched `check_all`/`scrub` fast path must record exactly the same
/// check counts as the per-group walk, and scrubbing a vector with one
/// correctable flip must restore clean storage through the fallback.
#[test]
fn check_all_and_scrub_accounting_is_unchanged() {
    for scheme in all_schemes() {
        if scheme == EccScheme::None {
            continue;
        }
        for len in lengths() {
            let vals = sample(len, 31);
            let v = ProtectedVector::from_slice(&vals, scheme, Crc32cBackend::SlicingBy16);
            let log = FaultLog::new();
            v.check_all(&log).unwrap();
            // One check per logical codeword group, exactly.
            assert_eq!(
                log.snapshot().checks[2],
                v.logical_groups(),
                "{scheme:?} len={len}: check_all count"
            );
            let log2 = FaultLog::new();
            assert_eq!(v.clone().scrub(&log2).unwrap(), 0);
            assert_eq!(
                log2.snapshot().checks[2],
                v.logical_groups(),
                "{scheme:?} len={len}: scrub count"
            );

            // A correctable flip forces the fallback walk; storage must be
            // restored bit for bit.
            if scheme.corrects_single_flips() {
                let mut faulty = v.clone();
                faulty.inject_bit_flip(len / 2, 33);
                let log3 = FaultLog::new();
                let repaired = faulty.scrub(&log3).unwrap();
                assert_eq!(repaired, 1, "{scheme:?} len={len}");
                assert_eq!(faulty.raw(), v.raw(), "{scheme:?} len={len}");
            }
        }
    }
}

/// Worker sweep {1, 2, 8}: full protected CG (parallel SpMV + parallel
/// masked BLAS-1, all riding the batched verify layer) must produce
/// bitwise-identical trajectories and schedule-independent check counts.
#[test]
fn worker_sweep_trajectories_and_check_counts_are_identical() {
    let a = poisson_2d_padded(96, 96);
    let b: Vec<f64> = (0..a.rows())
        .map(|i| 1.0 + (i % 13) as f64 * 0.25)
        .collect();

    for scheme in all_schemes() {
        let cfg = ProtectionConfig::full(scheme)
            .with_parallel(true)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
        let mut baseline = None;
        for workers in [1usize, 2, 8] {
            rayon::set_worker_limit(Some(workers));
            let op = FullyProtected::new(&protected);
            let outcome = Solver::cg()
                .max_iterations(20)
                .tolerance(0.0)
                .solve_operator(&op, &b)
                .unwrap_or_else(|e| panic!("{scheme:?} workers={workers}: {e}"));
            let fingerprint = (
                outcome
                    .solution
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                outcome.status.final_residual.to_bits(),
                outcome.faults,
            );
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(expected) => assert_eq!(
                    &fingerprint, expected,
                    "{scheme:?} workers={workers}: trajectory or check counts diverged"
                ),
            }
        }
        rayon::set_worker_limit(None);
        if scheme != EccScheme::None {
            let (_, _, faults) = baseline.unwrap();
            assert!(
                faults.checks.iter().sum::<u64>() > 0,
                "{scheme:?}: no checks recorded"
            );
        }
    }
}

/// The protected SpMV element fast paths (SED parity scan, SECDED64
/// syndrome gather) must behave exactly like the correcting reference:
/// clean rows multiply identically, a correctable flip is corrected
/// transiently, an uncorrectable one aborts.
#[test]
fn spmv_element_fast_paths_match_reference_semantics() {
    let m = poisson_2d_padded(13, 9);
    let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.17).cos()).collect();
    let mut reference = vec![0.0; m.rows()];
    abft_suite::sparse::spmv::spmv_serial(&m, &x, &mut reference);

    for scheme in [EccScheme::Sed, EccScheme::Secded64] {
        let cfg = ProtectionConfig {
            elements: scheme,
            row_pointer: EccScheme::None,
            vectors: EccScheme::None,
            check_interval: 1,
            crc_backend: Crc32cBackend::SlicingBy16,
            parallel: false,
            parity: None,
        };
        let clean = ProtectedCsr::from_csr(&m, &cfg).unwrap();
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        clean
            .spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
            .unwrap();
        assert_eq!(y, reference, "{scheme:?} clean");
        assert_eq!(log.snapshot().checks[0], m.nnz() as u64, "{scheme:?}");

        let mut faulty = clean.clone();
        faulty.inject_value_bit_flip(11, 37);
        let log2 = FaultLog::new();
        let mut y2 = vec![0.0; m.rows()];
        let result = faulty.spmv_with(&x, &mut y2, 0, &log2, &mut SpmvWorkspace::new());
        if scheme == EccScheme::Secded64 {
            result.unwrap();
            assert_eq!(y2, reference, "{scheme:?}: transient correction");
            assert!(log2.total_corrected() > 0);
        } else {
            result.unwrap_err();
            assert!(log2.total_uncorrectable() > 0);
        }
        // Check counts on the error/correction path still tally per element
        // actually visited, never more than the clean pass.
        assert!(log2.snapshot().checks[0] <= m.nnz() as u64);
    }
}
