//! Differential tests for the SIMD verification layer.
//!
//! The batched SIMD predicates (`abft_ecc::verify`) replaced the per-group
//! checks on every hot path — the masked BLAS-1 kernels, `check_all`/`scrub`
//! and the protected SpMV element loops.  The contract is that they are
//! **invisible in every observable**: kernel results bit for bit, check
//! counts, corrected/uncorrectable tallies and error indices must all match
//! the per-group semantics — plain arithmetic on the decoded values, one
//! check per codeword and operand, the fault where it was planted — for
//! every scheme, any vector length (including `len % group != 0`
//! partial/padding groups), clean and faulted storage, and any worker
//! count.  The per-group reference walkers themselves live in `abft-core`'s
//! unit tests, whose differential sweep runs every masked kernel against
//! them under planted faults.
//!
//! The ISA-level differential tests (every implementation in the dispatch
//! table against the portable scalar reference) live inside `abft-ecc`;
//! this suite pins the *consumers* through the public API.

use abft_suite::core::protected_vector::ACC_BLOCK;
use abft_suite::core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, ProtectedCsr, ProtectedVector,
    ProtectionConfig, Region, SpmvWorkspace, StorageTier,
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

/// `Σ a[i]·b[i]` folded as every protected reduction folds it: one partial
/// per [`ACC_BLOCK`] elements, the partials added in block order.
fn blocked_dot(a: &[f64], b: &[f64]) -> f64 {
    a.chunks(ACC_BLOCK)
        .zip(b.chunks(ACC_BLOCK))
        .map(|(a, b)| a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y))
        .fold(0.0, |total, part| total + part)
}

/// Masked kernels must agree bitwise with plain arithmetic on the decoded
/// values on clean storage of any length (an update re-encoded through
/// `from_slice`), with one check per codeword and operand — this drives the
/// batched fast path (clean is the common case).
#[test]
fn masked_kernels_match_reference_on_all_lengths() {
    for scheme in all_schemes() {
        for len in lengths() {
            let encode =
                |v: &[f64]| ProtectedVector::from_slice(v, scheme, Crc32cBackend::SlicingBy16);
            let a = encode(&sample(len, 17));
            let b = encode(&sample(len, 29));
            let (av, bv) = (a.to_vec(), b.to_vec());
            // `op(y[i], b[i])` on the decoded values, re-encoded.
            let update = |y: &ProtectedVector, op: &dyn Fn(f64, f64) -> f64| {
                let values: Vec<f64> = y
                    .to_vec()
                    .iter()
                    .zip(&bv)
                    .map(|(&s, &x)| op(s, x))
                    .collect();
                encode(&values)
            };
            let groups = match scheme {
                EccScheme::None => 0,
                _ => a.logical_groups(),
            };
            // One check per codeword and operand, and no fault reported.
            let log = FaultLog::new();
            let accounted = |operands: u64, what: &str| {
                let label = format!("{scheme:?} len={len}: {what}");
                assert_eq!(log.snapshot().checks[2], operands * groups, "{label}");
                assert_eq!(
                    log.total_corrected() + log.total_uncorrectable(),
                    0,
                    "{label}"
                );
                log.reset();
            };

            let d = a.dot_masked(&b, &log).unwrap();
            assert_eq!(
                d.to_bits(),
                blocked_dot(&av, &bv).to_bits(),
                "{scheme:?} len={len}"
            );
            accounted(2, "dot");

            let n = a.norm2_masked(&log).unwrap();
            let want = blocked_dot(&av, &av).sqrt();
            assert_eq!(n.to_bits(), want.to_bits(), "{scheme:?} len={len}");
            accounted(1, "norm2");

            let mut y = a.clone();
            y.axpy_masked(0.75, &b, &log).unwrap();
            let want = update(&a, &|s, x| s + 0.75 * x);
            assert_eq!(y.raw(), want.raw(), "{scheme:?} len={len}: axpy");
            accounted(2, "axpy");

            y.scale_masked(1.25, &log).unwrap();
            let want = update(&want, &|s, _| s * 1.25);
            assert_eq!(y.raw(), want.raw(), "{scheme:?} len={len}: scale");
            accounted(1, "scale");

            // Fused dot+AXPY: the dot of the stored update with itself.
            let fused = y.dot_axpy_masked(-0.5, &b, &log).unwrap();
            let want = update(&want, &|s, x| s + -0.5 * x);
            assert_eq!(y.raw(), want.raw(), "{scheme:?} len={len}: dot_axpy");
            let stored = want.to_vec();
            let dot = blocked_dot(&stored, &stored);
            assert_eq!(fused.to_bits(), dot.to_bits(), "{scheme:?} len={len}");
            accounted(2, "dot_axpy");
        }
    }
}

/// A single injected bit flip must be invisible or an honest abort: the
/// correcting schemes hand back the clean vector's result bit for bit with
/// one correction and the clean run's check count, SED aborts at the
/// flipped element.
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
            let log_clean = FaultLog::new();
            let want = clean.dot_masked(&b, &log_clean).unwrap();
            for (index, bit) in [(0usize, 40u32), (len / 2, 14), (len - 1, 60)] {
                let label = format!("{scheme:?} len={len} flip=({index},{bit})");
                let mut v = clean.clone();
                v.inject_bit_flip(index, bit);

                let log = FaultLog::new();
                let got = v.dot_masked(&b, &log);
                if scheme.corrects_single_flips() {
                    assert_eq!(got.unwrap().to_bits(), want.to_bits(), "{label}");
                    assert_eq!(log.total_corrected(), 1, "{label}");
                    assert_eq!(
                        log.snapshot().checks,
                        log_clean.snapshot().checks,
                        "{label}"
                    );
                } else {
                    let due = AbftError::Uncorrectable {
                        region: Region::DenseVector,
                        index,
                    };
                    assert_eq!(got, Err(due), "{label}");
                    assert_eq!(log.total_corrected(), 0, "{label}");
                }
                assert_eq!(
                    log.total_uncorrectable(),
                    u64::from(!scheme.corrects_single_flips()),
                    "{label}"
                );
            }
        }
    }
}

/// Double flips in one codeword: the SECDED schemes must abort the masked
/// dot with the error `check_all` reports, after the same codewords per
/// operand.
#[test]
fn double_bit_faults_abort_identically() {
    for scheme in [EccScheme::Secded64, EccScheme::Secded128] {
        for len in [7usize, 130] {
            let vals = sample(len, 23);
            let mut v = ProtectedVector::from_slice(&vals, scheme, Crc32cBackend::SlicingBy16);
            v.inject_bit_flip(len / 2, 20);
            v.inject_bit_flip(len / 2, 45);

            let log_walk = FaultLog::new();
            let log_masked = FaultLog::new();
            let r_walk = v.check_all(&log_walk).unwrap_err();
            let r_masked = v.dot_masked(&v, &log_masked).unwrap_err();
            assert_eq!(r_walk, r_masked, "{scheme:?} len={len}");
            let (mut walk, masked) = (log_walk.snapshot(), log_masked.snapshot());
            walk.checks[2] *= 2;
            assert_eq!(walk, masked, "{scheme:?} len={len}");
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
