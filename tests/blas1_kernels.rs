//! Integration tests for the masked-slice protected BLAS-1 layer.
//!
//! Four guarantees are pinned down here:
//!
//! 1. **Masked / plain parity** — on clean storage the masked kernels
//!    (check each codeword group once, compute over raw words) produce bit
//!    for bit what plain `f64` arithmetic on the decoded operands gives:
//!    reductions fold one partial per [`ACC_BLOCK`], updates equal their
//!    plain result re-encoded, for every scheme and for lengths that are
//!    not a multiple of the group size.  (Faulted storage is checked against
//!    the per-group reference walkers by the unit tests' differential
//!    sweep.)
//! 2. **Serial / parallel parity** — the chunked parallel kernels are
//!    bitwise identical to the serial ones (blocked reductions folded in
//!    block order).
//! 3. **Fault semantics** — corrupted groups are transparently corrected
//!    (or the kernel aborts, for SED), with check tallies flushed even on
//!    the error path; faults confined to the padding words of a trailing
//!    partial group are recovered by the padding reset instead of being
//!    blamed on a user-visible element.
//! 4. **Check accounting** — every kernel reports exactly the codeword
//!    checks it performed, pinned at `len % group != 0`.

use abft_suite::core::protected_vector::{masking_relative_error_bound, ACC_BLOCK};
use abft_suite::core::{AbftError, EccScheme, FaultLog, ProtectedVector, ReductionWorkspace};
use abft_suite::prelude::Crc32cBackend;

fn sample(n: usize, seed: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed) * 0.61803).sin() * 100.0 + 0.03125)
        .collect()
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

fn encode(values: &[f64], scheme: EccScheme) -> ProtectedVector {
    ProtectedVector::from_slice(values, scheme, Crc32cBackend::SlicingBy16)
}

/// Lengths exercising single-block, multi-block and partial trailing groups.
const LENGTHS: [usize; 4] = [37, 4099, 8193, 16383];

/// `Σ a[i]·b[i]` as every protected reduction folds it: one partial per
/// [`ACC_BLOCK`] elements, the partials added in block order.
fn blocked_dot(a: &[f64], b: &[f64]) -> f64 {
    a.chunks(ACC_BLOCK)
        .zip(b.chunks(ACC_BLOCK))
        .map(|(a, b)| a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y))
        .fold(0.0, |total, part| total + part)
}

/// Each masked kernel against plain `f64` arithmetic on the decoded
/// (`to_vec`) operands, an update's plain result re-encoded by `from_slice`.
#[test]
fn masked_kernels_match_group_decode_bitwise() {
    for scheme in all_schemes() {
        for n in LENGTHS {
            let a = encode(&sample(n, 1.0), scheme);
            let b = encode(&sample(n, 7.5), scheme);
            let (av, bv) = (a.to_vec(), b.to_vec());
            let mask = a.masked_words().1;
            let plain = |op: &dyn Fn(f64, f64) -> f64| {
                let values: Vec<f64> = av.iter().zip(&bv).map(|(&s, &x)| op(s, x)).collect();
                encode(&values, scheme)
            };
            let log = FaultLog::new();
            let label = |what: &str| format!("{scheme:?} n={n} {what}");

            let dot = a.dot_masked(&b, &log).unwrap();
            assert_eq!(
                dot.to_bits(),
                blocked_dot(&av, &bv).to_bits(),
                "{}",
                label("dot")
            );

            // Single pass, same fold as the dot of the vector with itself.
            let norm = a.norm2_masked(&log).unwrap();
            let want = blocked_dot(&av, &av).sqrt();
            assert_eq!(norm.to_bits(), want.to_bits(), "{}", label("norm2"));

            let mut y = a.clone();
            y.axpy_masked(2.5, &b, &log).unwrap();
            assert_eq!(
                y.raw(),
                plain(&|s, x| s + 2.5 * x).raw(),
                "{}",
                label("axpy")
            );

            let mut y = a.clone();
            y.xpay_masked(-0.75, &b, &log).unwrap();
            assert_eq!(
                y.raw(),
                plain(&|s, x| x + -0.75 * s).raw(),
                "{}",
                label("xpay")
            );

            let mut y = a.clone();
            y.scale_masked(1.0 / 3.0, &log).unwrap();
            assert_eq!(
                y.raw(),
                plain(&|s, _| s * (1.0 / 3.0)).raw(),
                "{}",
                label("scale")
            );

            // The scaled intermediate is masked as the scale kernel stores it.
            let mut y = a.clone();
            y.scale_axpy_masked(0.8, 0.3, &b, &log).unwrap();
            let want = plain(&|s, x| f64::from_bits((s * 0.8).to_bits() & mask) + 0.3 * x);
            assert_eq!(y.raw(), want.raw(), "{}", label("scale_axpy"));

            // The fused reduction is the dot of the stored update with itself.
            let mut y = a.clone();
            let fused = y.dot_axpy_masked(-1.25, &b, &log).unwrap();
            let want = plain(&|s, x| s + -1.25 * x);
            assert_eq!(y.raw(), want.raw(), "{}", label("dot_axpy"));
            let stored = want.to_vec();
            let dot = blocked_dot(&stored, &stored);
            assert_eq!(
                fused.to_bits(),
                dot.to_bits(),
                "{}",
                label("dot_axpy reduction")
            );

            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
    }
}

/// `v` with its parallel hint set.
fn parallel_hinted(v: &ProtectedVector) -> ProtectedVector {
    let mut p = v.clone();
    p.set_parallel(true);
    p
}

#[test]
fn parallel_kernels_match_serial_bitwise() {
    for scheme in all_schemes() {
        for n in [16_383usize, 32_768] {
            let a_vals = sample(n, 3.0);
            let b_vals = sample(n, 11.0);
            let a = encode(&a_vals, scheme);
            let b = encode(&b_vals, scheme);
            let pa = parallel_hinted(&a);
            let log = FaultLog::new();
            let mut ws = ReductionWorkspace::new();

            let serial = a.dot_masked(&b, &log).unwrap();
            let parallel = pa.dot_masked_with(&b, &log, &mut ws).unwrap();
            assert_eq!(parallel.to_bits(), serial.to_bits(), "{scheme:?} n={n} dot");

            let serial = a.norm2_masked(&log).unwrap();
            let parallel = pa.norm2_masked_with(&log, &mut ws).unwrap();
            assert_eq!(
                parallel.to_bits(),
                serial.to_bits(),
                "{scheme:?} n={n} norm2"
            );

            let mut s = a.clone();
            s.axpy_masked(1.5, &b, &log).unwrap();
            let mut p = pa.clone();
            p.axpy_masked(1.5, &b, &log).unwrap();
            assert_eq!(p.raw(), s.raw(), "{scheme:?} n={n} axpy");

            let mut s = a.clone();
            let serial = s.dot_axpy_masked(-0.5, &b, &log).unwrap();
            let mut p = pa.clone();
            let parallel = p.dot_axpy_masked_with(-0.5, &b, &log, &mut ws).unwrap();
            assert_eq!(p.raw(), s.raw(), "{scheme:?} n={n} dot_axpy storage");
            assert_eq!(
                parallel.to_bits(),
                serial.to_bits(),
                "{scheme:?} n={n} dot_axpy reduction"
            );
        }
    }
}

#[test]
fn masked_kernels_compute_masked_arithmetic() {
    // Against plain arithmetic on the masked values, with the scheme's noise
    // bound.
    for scheme in all_schemes() {
        let n = 97;
        let a = encode(&sample(n, 5.0), scheme);
        let b = encode(&sample(n, 2.0), scheme);
        let log = FaultLog::new();
        let expect: f64 = (0..n).map(|i| a.get(i) * b.get(i)).sum();
        let got = a.dot_masked(&b, &log).unwrap();
        assert!(
            (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "{scheme:?}"
        );

        let bound = masking_relative_error_bound(scheme).max(1e-15);
        let mut y = a.clone();
        y.axpy_masked(2.0, &b, &log).unwrap();
        for i in 0..n {
            let expect = a.get(i) + 2.0 * b.get(i);
            let rel = (y.get(i) - expect).abs() / expect.abs().max(1e-30);
            assert!(rel <= 2.0 * bound, "{scheme:?} element {i}: rel {rel}");
        }
    }
}

#[test]
fn corrupted_groups_are_corrected_in_the_masked_fast_path() {
    for scheme in [EccScheme::Secded64, EccScheme::Secded128, EccScheme::Crc32c] {
        let n = 50;
        let a_vals = sample(n, 1.0);
        let b = encode(&sample(n, 9.0), scheme);
        let clean = encode(&a_vals, scheme);
        let log = FaultLog::new();
        let expect = clean.dot_masked(&b, &log).unwrap();

        let mut corrupted = clean.clone();
        corrupted.inject_bit_flip(17, 40);
        let log = FaultLog::new();
        let got = corrupted.dot_masked(&b, &log).unwrap();
        assert_eq!(got.to_bits(), expect.to_bits(), "{scheme:?} dot after flip");
        assert_eq!(log.total_corrected(), 1, "{scheme:?}");
        assert_eq!(log.total_uncorrectable(), 0, "{scheme:?}");

        // Write kernels absorb the correction into the re-encoded storage.
        let mut corrupted = clean.clone();
        corrupted.inject_bit_flip(17, 40);
        let log = FaultLog::new();
        corrupted.axpy_masked(0.0, &b, &log).unwrap();
        assert!(log.total_corrected() >= 1, "{scheme:?}");
        let log = FaultLog::new();
        corrupted.check_all(&log).unwrap();
        assert_eq!(log.total_corrected(), 0, "{scheme:?}: storage repaired");
    }
}

#[test]
fn sed_flip_aborts_with_partial_check_tally() {
    let n = 100;
    let b = encode(&sample(n, 2.0), EccScheme::Sed);
    let mut a = encode(&sample(n, 1.0), EccScheme::Sed);
    a.inject_bit_flip(60, 33);
    let log = FaultLog::new();
    let err = a.dot_masked(&b, &log).unwrap_err();
    assert!(
        err.to_string().contains("60"),
        "error names the element: {err}"
    );
    assert_eq!(log.total_uncorrectable(), 1);
    // Checks performed before the abort are flushed: two per element for
    // elements 0..=60, nothing for the unreached tail.
    assert_eq!(log.snapshot().checks[2], 2 * 61);
}

#[test]
fn check_accounting_is_pinned_for_partial_trailing_groups() {
    // len = 7: SED/SECDED64 → 7 groups, SECDED128 → 4, CRC32C → 2.
    let n = 7;
    for (scheme, groups) in [
        (EccScheme::Sed, 7u64),
        (EccScheme::Secded64, 7),
        (EccScheme::Secded128, 4),
        (EccScheme::Crc32c, 2),
    ] {
        let a = encode(&sample(n, 1.0), scheme);
        let b = encode(&sample(n, 2.0), scheme);
        assert_eq!(a.logical_groups(), groups, "{scheme:?}");
        let dense = |log: &FaultLog| log.snapshot().checks[2];

        let log = FaultLog::new();
        a.check_all(&log).unwrap();
        assert_eq!(dense(&log), groups, "{scheme:?} check_all");

        let log = FaultLog::new();
        a.dot_masked(&b, &log).unwrap();
        assert_eq!(dense(&log), 2 * groups, "{scheme:?} dot_masked");

        // The single-pass norm checks each group once.
        let log = FaultLog::new();
        a.norm2_masked(&log).unwrap();
        assert_eq!(dense(&log), groups, "{scheme:?} norm2_masked");

        let log = FaultLog::new();
        let mut y = a.clone();
        y.axpy_masked(1.0, &b, &log).unwrap();
        assert_eq!(dense(&log), 2 * groups, "{scheme:?} axpy_masked");

        let log = FaultLog::new();
        let mut y = a.clone();
        y.scale_masked(2.0, &log).unwrap();
        assert_eq!(dense(&log), groups, "{scheme:?} scale_masked");

        let log = FaultLog::new();
        let mut y = a.clone();
        y.dot_axpy_masked(1.0, &b, &log).unwrap();
        assert_eq!(dense(&log), 2 * groups, "{scheme:?} dot_axpy_masked");

        // The checked read, the indexed update and copy_from perform checks
        // and must account for them: one per group.
        let log = FaultLog::new();
        a.read_checked(&mut [0.0; 7], &log).unwrap();
        assert_eq!(dense(&log), groups, "{scheme:?} read_checked");

        let log = FaultLog::new();
        let mut y = a.clone();
        y.update_from_fn(&log, |i, v| v + i as f64).unwrap();
        assert_eq!(dense(&log), groups, "{scheme:?} update_from_fn");

        let log = FaultLog::new();
        let mut y = a.clone();
        y.copy_from(&b, &log).unwrap();
        assert_eq!(dense(&log), groups, "{scheme:?} copy_from");
    }
}

#[test]
fn grouped_error_path_reports_partial_check_tally() {
    // A double flip in the second SECDED128 pair aborts check_all after two
    // of the four group checks.
    let mut v = encode(&sample(7, 1.0), EccScheme::Secded128);
    v.inject_bit_flip(2, 20);
    v.inject_bit_flip(2, 45);
    let log = FaultLog::new();
    assert!(v.check_all(&log).is_err());
    assert_eq!(log.total_uncorrectable(), 1);
    assert_eq!(log.snapshot().checks[2], 2);

    // The range kernels flush the same partial tally on their error path.
    type Kernel = fn(&mut ProtectedVector, &ProtectedVector, &FaultLog) -> Result<(), AbftError>;
    let kernels: [(&str, Kernel); 3] = [
        ("read_checked", |_, v, log| {
            v.read_checked(&mut [0.0; 7], log)
        }),
        ("update_from_fn", |_, v, log| {
            v.clone().update_from_fn(log, |_, x| x)
        }),
        ("copy_from", |dst, v, log| dst.copy_from(v, log)),
    ];
    for (name, kernel) in kernels {
        let log = FaultLog::new();
        let mut dst = encode(&sample(7, 2.0), EccScheme::Secded128);
        assert!(kernel(&mut dst, &v, &log).is_err(), "{name}");
        assert_eq!(log.total_uncorrectable(), 1, "{name}");
        assert_eq!(log.snapshot().checks[2], 2, "{name}");
    }
}

#[test]
fn padding_confined_faults_are_recovered_not_blamed() {
    // Secded128, odd length: element 3 of the padded storage is padding.
    // A double flip there exceeds SECDED's correction capability, but the
    // padding is architecturally zero, so the padding reset recovers it.
    let clean = encode(&sample(3, 1.0), EccScheme::Secded128);
    assert_eq!(clean.raw().len(), 4);
    let mut v = clean.clone();
    v.inject_bit_flip(3, 20);
    v.inject_bit_flip(3, 45);
    let log = FaultLog::new();
    v.check_all(&log)
        .unwrap_or_else(|e| panic!("padding fault must not abort or blame user data: {e}"));
    assert!(log.total_corrected() >= 1);
    assert_eq!(log.total_uncorrectable(), 0);
    assert_eq!(v.scrub(&log).unwrap(), 1);
    assert_eq!(v.raw(), clean.raw());

    // CRC32C, len 5: elements 5..8 of the second group are padding.  Flips
    // spread across two padding words defeat single-bit trial correction,
    // but not the padding reset.
    let clean = encode(&sample(5, 2.0), EccScheme::Crc32c);
    assert_eq!(clean.raw().len(), 8);
    let mut v = clean.clone();
    v.inject_bit_flip(6, 30);
    v.inject_bit_flip(7, 50);
    let log = FaultLog::new();
    v.check_all(&log).unwrap();
    assert!(log.total_corrected() >= 1);
    assert_eq!(log.total_uncorrectable(), 0);
    let mut w = v.clone();
    w.scrub(&log).unwrap();
    assert_eq!(w.raw(), clean.raw());

    // The masked kernels see the same recovery.
    let b = encode(&sample(5, 4.0), EccScheme::Crc32c);
    let log = FaultLog::new();
    let expect = clean.dot_masked(&b, &log).unwrap();
    let log = FaultLog::new();
    let got = v.dot_masked(&b, &log).unwrap();
    assert_eq!(got.to_bits(), expect.to_bits());
    assert!(log.total_corrected() >= 1);
}

#[test]
fn mixed_logical_and_padding_corruption_is_still_detected() {
    // One flip in a logical word and one in a padding word of the same
    // CRC32C group: the stored logical words no longer match the canonical
    // re-encoding, so the padding reset must refuse and the fault stays
    // detected-uncorrectable.
    let clean = encode(&sample(5, 2.0), EccScheme::Crc32c);
    let mut v = clean.clone();
    v.inject_bit_flip(4, 30); // logical element of the trailing group
    v.inject_bit_flip(6, 50); // padding element of the trailing group
    let log = FaultLog::new();
    assert!(v.check_all(&log).is_err());
    assert!(log.total_uncorrectable() > 0);
}

#[test]
fn sharded_scheduler_parity_under_worker_sweeps() {
    // Worker limits past the host core count oversubscribe the chunk split
    // (several chunks per lane), so announcements are genuinely stolen
    // across the per-worker queues; the blocked reductions must keep every
    // kernel on a parallel-hinted vector bitwise identical to serial
    // regardless.  Check tallies are per codeword group, so the bulk fault
    // accounting must not depend on the chunk split either.
    let n = 40_000;
    for workers in [2usize, 8] {
        rayon::set_worker_limit(Some(workers));
        for scheme in all_schemes() {
            let a = encode(&sample(n, 3.0), scheme);
            let b = encode(&sample(n, 11.0), scheme);
            let pa = parallel_hinted(&a);
            let mut ws = ReductionWorkspace::new();
            let context = |what: &str| format!("{scheme:?} workers={workers} {what}");

            let serial_log = FaultLog::new();
            let parallel_log = FaultLog::new();

            let serial = a.dot_masked(&b, &serial_log).unwrap();
            let parallel = pa.dot_masked_with(&b, &parallel_log, &mut ws).unwrap();
            assert_eq!(parallel.to_bits(), serial.to_bits(), "{}", context("dot"));

            let serial = a.norm2_masked(&serial_log).unwrap();
            let parallel = pa.norm2_masked_with(&parallel_log, &mut ws).unwrap();
            assert_eq!(parallel.to_bits(), serial.to_bits(), "{}", context("norm2"));

            let mut s = a.clone();
            s.axpy_masked(1.5, &b, &serial_log).unwrap();
            let mut p = pa.clone();
            p.axpy_masked(1.5, &b, &parallel_log).unwrap();
            assert_eq!(p.raw(), s.raw(), "{}", context("axpy"));

            let mut s = a.clone();
            s.xpay_masked(-0.75, &b, &serial_log).unwrap();
            let mut p = pa.clone();
            p.xpay_masked(-0.75, &b, &parallel_log).unwrap();
            assert_eq!(p.raw(), s.raw(), "{}", context("xpay"));

            let mut s = a.clone();
            s.scale_masked(1.0 / 3.0, &serial_log).unwrap();
            let mut p = pa.clone();
            p.scale_masked(1.0 / 3.0, &parallel_log).unwrap();
            assert_eq!(p.raw(), s.raw(), "{}", context("scale"));

            let mut s = a.clone();
            s.scale_axpy_masked(0.8, 0.3, &b, &serial_log).unwrap();
            let mut p = pa.clone();
            p.scale_axpy_masked(0.8, 0.3, &b, &parallel_log).unwrap();
            assert_eq!(p.raw(), s.raw(), "{}", context("scale_axpy"));

            let mut s = a.clone();
            let serial = s.dot_axpy_masked(-0.5, &b, &serial_log).unwrap();
            let mut p = pa.clone();
            let parallel = p
                .dot_axpy_masked_with(-0.5, &b, &parallel_log, &mut ws)
                .unwrap();
            assert_eq!(p.raw(), s.raw(), "{}", context("dot_axpy storage"));
            assert_eq!(
                parallel.to_bits(),
                serial.to_bits(),
                "{}",
                context("dot_axpy reduction")
            );

            // Identical bulk fault accounting: same checks, nothing else.
            assert_eq!(
                parallel_log.snapshot(),
                serial_log.snapshot(),
                "{}",
                context("fault accounting")
            );

            // Reusing the warm workspace across a second round must not
            // perturb results (stale partials would surface here).
            let fresh = pa.dot_masked_with(&b, &parallel_log, &mut ws).unwrap();
            let again = pa.dot_masked_with(&b, &parallel_log, &mut ws).unwrap();
            assert_eq!(
                fresh.to_bits(),
                again.to_bits(),
                "{}",
                context("warm reuse")
            );
        }
        rayon::set_worker_limit(None);
    }
}

/// Nested context scoping keeps parallel-reduction state: re-scoping with
/// `None` (an inner operator that owns no workspace, nested inside an
/// already-scoped outer solve — the FT-PCG inner-apply shape) must keep
/// the workspace the outer scope attached rather than dropping it, while
/// scoping to a different workspace replaces it and the log is shared at
/// every depth.
#[test]
fn nested_scoped_contexts_keep_the_outer_reduction_workspace() {
    use abft_suite::solvers::FaultContext;
    use std::cell::RefCell;

    let log = FaultLog::new();
    let outer_ws = RefCell::new(ReductionWorkspace::new());
    let inner_ws = RefCell::new(ReductionWorkspace::new());

    let base = FaultContext::with_log(&log);
    assert!(base.reduction().is_none());

    let outer = base.scoped_to(Some(&outer_ws));
    assert!(std::ptr::eq(outer.reduction().unwrap(), &outer_ws));

    // The fix under test: an inner re-scope with no workspace of its own
    // narrows the context without discarding the outer workspace.
    let nested = outer.scoped_to(None);
    assert!(
        std::ptr::eq(nested.reduction().unwrap(), &outer_ws),
        "nested scope with None dropped the outer reduction workspace"
    );

    // Two levels deep, same invariant.
    let deeper = nested.scoped_to(None);
    assert!(std::ptr::eq(deeper.reduction().unwrap(), &outer_ws));

    // An inner operator that *does* own a workspace takes precedence…
    let replaced = nested.scoped_to(Some(&inner_ws));
    assert!(std::ptr::eq(replaced.reduction().unwrap(), &inner_ws));

    // …and every depth records into the one shared log.
    assert!(std::ptr::eq(deeper.log(), &log));
    assert!(std::ptr::eq(replaced.log(), &log));
}
