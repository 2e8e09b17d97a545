//! The XOR erasure tier, end to end: chunk rebuilds at the storage level
//! (including the awkward geometries — trailing partial chunks, faults
//! confined to the parity words, double losses in one stripe), bitwise
//! determinism of the post-rebuild solver trajectory across worker counts,
//! and the scaled fault-injection claim — essentially every injected
//! single-chunk erasure ends in a converged, parity-rebuilt solve, with a
//! Wilson 95 % lower bound ≥ 99 %.

use abft_suite::core::spmv::{protected_spmm, protected_spmv};
use abft_suite::core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, FaultLogSnapshot, ParityConfig,
    ProtectedCsr, ProtectedVector, ProtectionConfig, ReductionWorkspace, SpmvWorkspace,
    StorageTier,
};
use abft_suite::faultsim::{
    Campaign, CampaignConfig, CampaignStats, FaultOutcome, FaultTarget, InjectionKind, StreamConfig,
};
use abft_suite::prelude::{Crc32cBackend, Solver, SolverConfig};
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::solvers::{cg_with_poll, FaultContext, LinearOperator};
use abft_suite::sparse::builders::{poisson_2d_padded, tridiagonal};

const PARITY: ParityConfig = ParityConfig {
    stripe_chunks: 4,
    chunk_words: 16,
};

/// A 100-element vector: 7 chunks of 16 words, the last holding only 4.
fn parity_vector() -> ProtectedVector {
    let values: Vec<f64> = (0..100).map(|i| 1.5 + (i as f64 * 0.37).sin()).collect();
    let mut v = ProtectedVector::from_slice(&values, EccScheme::Secded64, Crc32cBackend::Hardware);
    v.enable_parity(PARITY);
    v
}

#[test]
fn trailing_partial_chunk_is_rebuilt_bit_for_bit() {
    let mut v = parity_vector();
    assert_eq!(v.parity_chunks(), 7);
    let original = v.to_vec();
    let log = FaultLog::new();

    // Erase the trailing chunk, which covers only 4 of the 16 chunk words:
    // the rebuild must XOR exactly the surviving span, not read past the
    // storage end or leave the tail dirty.
    v.inject_chunk_erasure(PARITY.chunk_words, 6, 0x00DD_BA11);
    assert!(v.try_recover(&log), "partial trailing chunk must rebuild");
    assert_eq!(v.to_vec(), original);
    assert!(log.total_rebuilt() > 0);

    let mut out = vec![0.0; v.len()];
    v.read_checked(&mut out, &log).unwrap();
    assert_eq!(out, original);
}

#[test]
fn fault_confined_to_parity_words_never_touches_served_data() {
    let mut v = parity_vector();
    let original = v.to_vec();
    let log = FaultLog::new();

    // A DUE confined to the parity tier: the data words are clean, so reads
    // and scrubs stay clean and no rebuild is triggered.
    v.inject_parity_bit_flip(3, 17);
    let mut out = vec![0.0; v.len()];
    v.read_checked(&mut out, &log).unwrap();
    assert_eq!(out, original);
    assert_eq!(log.total_rebuilt(), 0);

    // An erasure in the stripe the stale parity word covers still recovers:
    // the rebuilt chunk is off by that one bit, which the embedded SECDED
    // absorbs in the final correcting scrub of the escalation ladder.
    v.inject_chunk_erasure(PARITY.chunk_words, 0, 0xBEEF);
    assert!(v.try_recover(&log));
    assert_eq!(v.to_vec(), original);
    assert!(log.total_rebuilt() > 0);
}

#[test]
fn double_chunk_loss_in_one_stripe_aborts_instead_of_serving_garbage() {
    let mut v = parity_vector();
    let log = FaultLog::new();

    // Chunks 0 and 1 share stripe 0: one parity chunk cannot disambiguate
    // two losses, so recovery must fail — and the storage must keep failing
    // its checks rather than ever serving a silently wrong rebuild.
    v.inject_chunk_erasure(PARITY.chunk_words, 0, 0x5EED_0001);
    v.inject_chunk_erasure(PARITY.chunk_words, 1, 0x5EED_0002);
    assert!(
        !v.try_recover(&log),
        "double loss in a stripe is unrecoverable"
    );

    let mut out = vec![0.0; v.len()];
    assert!(v.read_checked(&mut out, &log).is_err());
    assert!(log.total_uncorrectable() > 0);
}

/// `copy_from` into a parity-tier vector reads its source through the
/// barrier.  The erased source chunk here holds another vector's codewords
/// with one bit flipped in each: every word looks like a correctable flip,
/// so the embedded code alone "corrects" it to the wrong values.  The
/// stripe parity convicts the chunk instead; nothing is written, and once
/// the source is rebuilt the copy reads the original values.
#[test]
fn copy_from_convicts_an_erased_source_chunk_that_looks_correctable() {
    let mut src = parity_vector();
    let original = src.to_vec();
    let impostor: Vec<f64> = original.iter().map(|v| v * -3.0 + 0.5).collect();
    let impostor =
        ProtectedVector::from_slice(&impostor, EccScheme::Secded64, Crc32cBackend::Hardware);
    let words = 2 * PARITY.chunk_words..3 * PARITY.chunk_words;
    for i in words.clone() {
        let delta = src.raw()[i] ^ impostor.raw()[i] ^ (1 << 40);
        for bit in (0..64).filter(|b| delta >> b & 1 == 1) {
            src.inject_bit_flip(i, bit);
        }
    }
    // Alone, the embedded code accepts the chunk as sixteen corrections.
    let log = FaultLog::new();
    src.check_all(&log).unwrap();
    assert_eq!(log.total_corrected(), PARITY.chunk_words as u64);

    let mut dst = parity_vector();
    dst.fill(0.0);
    let (dst_words, dst_parity) = (dst.raw().to_vec(), dst.parity_words().unwrap().to_vec());
    let log = FaultLog::new();
    assert_eq!(
        dst.copy_from(&src, &log),
        Err(AbftError::Uncorrectable {
            region: abft_suite::core::Region::DenseVector,
            index: words.start,
        })
    );
    assert_eq!(log.total_corrected(), 0, "the garbage was decoded");
    assert_eq!(dst.raw(), &dst_words[..], "a convicted copy wrote");
    assert_eq!(dst.parity_words().unwrap(), &dst_parity[..]);

    assert!(src.try_recover(&log));
    dst.copy_from(&src, &log).unwrap();
    assert_eq!(dst.to_vec(), original);
}

/// A single correctable flip in a chunk that is not its stripe's last is
/// ordinary bit noise: the scrub behind the barrier corrects it in place.
/// The stripe classifier must not convict that chunk as erased, which
/// would read as a DUE on every read-modify-write kernel and as a rebuild
/// on every SpMV read.
#[test]
fn correctable_flip_outside_a_stripes_last_chunk_is_corrected_not_rebuilt() {
    // Two full stripes; every chunk but each stripe's last takes a turn.
    let n = 2 * PARITY.stripe_chunks * PARITY.chunk_words;
    let matrix = ProtectedCsr::from_csr(
        tridiagonal(n, 4.0, -1.0),
        &ProtectionConfig::full(EccScheme::Secded64),
    )
    .unwrap();
    let non_last = (0..2 * PARITY.stripe_chunks).filter(|c| (c + 1) % PARITY.stripe_chunks != 0);
    // `(call, whether the fault goes into the operand x)`; `axpy_xpay`
    // updates `y` and `x` from a clean third vector.
    let calls = [
        ("spmv", true),
        ("axpy_xpay", false),
        ("axpy_xpay", true),
        ("axpy", false),
        ("axpy", true),
        ("xpay", false),
        ("xpay", true),
        ("dot_axpy", false),
        ("dot_axpy", true),
        ("scale_axpy", false),
        ("scale_axpy", true),
        ("scale", false),
        ("update", false),
    ];
    for scheme in [EccScheme::Secded64, EccScheme::Secded128, EccScheme::Crc32c] {
        let clean_y = barrier_vector(scheme, n, PARITY, 2.0);
        let clean_x = barrier_vector(scheme, n, PARITY, -1.25);
        for chunk in non_last.clone() {
            for (call, into_x) in calls {
                let (mut y, mut x) = (clean_y.clone(), clean_x.clone());
                let faulted = if into_x { &mut x } else { &mut y };
                faulted.inject_bit_flip(chunk * PARITY.chunk_words + 5, 33);
                let log = FaultLog::new();
                let result = match call {
                    "spmv" => {
                        let mut ws = SpmvWorkspace::new();
                        protected_spmv(&matrix, &mut x, &mut y, 0, &log, &mut ws).map(drop)
                    }
                    "axpy_xpay" => y.axpy_xpay_masked(1.5, &mut x, 0.5, &clean_y, &log),
                    "axpy" => y.axpy_masked(1.5, &x, &log),
                    "xpay" => y.xpay_masked(0.5, &x, &log),
                    "dot_axpy" => y.dot_axpy_masked(-0.25, &x, &log).map(drop),
                    "scale_axpy" => y.scale_axpy_masked(0.5, 1.5, &x, &log),
                    "scale" => y.scale_masked(0.75, &log),
                    "update" => y.update_from_fn(&log, |i, v| v * 0.5 + i as f64),
                    other => unreachable!("unknown call {other}"),
                };
                let what = format!("{scheme:?} chunk {chunk} {call} into_x={into_x}");
                assert!(result.is_ok(), "{what}: {result:?}");
                assert_eq!(log.total_rebuilt(), 0, "{what}");
                assert_eq!(log.total_uncorrectable(), 0, "{what}");
                assert!(log.total_corrected() > 0, "{what}");
            }
        }
    }
}

#[test]
fn post_rebuild_trajectory_is_bitwise_identical_across_worker_counts() {
    let matrix = poisson_2d_padded(16, 16);
    let rhs: Vec<f64> = (0..matrix.rows())
        .map(|i| 1.0 + ((i * 7) % 13) as f64 * 0.25)
        .collect();
    let protection = ProtectionConfig::full(EccScheme::Secded64)
        .with_parity(PARITY)
        .with_parallel(true);
    let protected = AnyProtectedMatrix::encode(&matrix, &protection, StorageTier::Csr).unwrap();
    let config = SolverConfig::new(2000, 1e-15);

    // The reference trajectory: the same solve with no fault at all.
    let clean = Solver::cg()
        .config(config)
        .solve_operator(&FullyProtected::new(&protected), &rhs)
        .unwrap();
    let clean_bits: Vec<u64> = clean.solution.iter().map(|v| v.to_bits()).collect();
    assert_eq!(clean.faults.total_rebuilt(), 0);

    let mut struck_iterations = None;
    for workers in [1usize, 2, 8] {
        rayon::set_worker_limit(Some(workers));
        // Erase chunk 3 of the search direction at the boundary of
        // iteration 2, before the fused SpMV reads it.
        let op = FullyProtected::new(&protected);
        let log = FaultLog::new();
        let base = FaultContext::with_log(&log);
        let ctx = base.scoped_to(op.reduction_workspace());
        let b = op.vector_from(&rhs);
        let (mut x, status) = cg_with_poll(&op, &b, &config, &ctx, |iteration, state| {
            if iteration == 2 {
                state
                    .p
                    .inject_chunk_erasure(PARITY.chunk_words, 3, 0x0D15_C0DE);
            }
        })
        .unwrap();
        let solution = op.finish(&mut x, &ctx).unwrap();
        assert!(
            log.total_rebuilt() > 0,
            "workers={workers}: the erasure must go through the parity rebuild"
        );
        // The pre-mutation parity check certifies the operand *before* the
        // kernel writes anything, so rebuild + retry replays the clean
        // trajectory exactly: same iterate bits, same iteration count, on
        // every worker count.
        let bits: Vec<u64> = solution.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, clean_bits,
            "workers={workers}: post-rebuild solution diverged from the clean trajectory"
        );
        match struck_iterations {
            None => struck_iterations = Some(status.iterations),
            Some(expected) => assert_eq!(status.iterations, expected),
        }
        assert_eq!(status.iterations, clean.status.iterations);
    }
    rayon::set_worker_limit(None);
}

#[test]
#[ignore = "acceptance campaign (384 trials): run with cargo test -- --ignored"]
fn scaled_erasure_campaign_recovers_with_wilson_lower_bound_above_99_pct() {
    // 384 trials is the smallest campaign whose Wilson 95 % lower bound can
    // clear 99 % (at 100 % observed recovery, the bound is n / (n + z²)).
    let config = CampaignConfig {
        nx: 10,
        ny: 10,
        trials: 384,
        protection: ProtectionConfig::full(EccScheme::Secded64).with_parity(PARITY),
        target: FaultTarget::DenseVector,
        injection: InjectionKind::ChunkErasure,
        seed: 20170905,
        ..CampaignConfig::default()
    };
    let stats = Campaign::new(config.clone())
        .run_streaming(&StreamConfig::default())
        .stats;
    assert_eq!(stats.trials(), 384);
    assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0);
    assert_eq!(stats.count(FaultOutcome::DetectedAborted), 0);
    assert!(stats.count(FaultOutcome::DetectedRebuilt) > 0);

    let recovered = FaultOutcome::ALL
        .into_iter()
        .filter(|o| o.is_recovered())
        .map(|o| stats.count(o))
        .sum::<usize>();
    let (lower, _) = CampaignStats::wilson(recovered, stats.trials());
    assert!(
        lower >= 0.99,
        "Wilson 95 % lower bound on recovery is {lower:.4}, below the 99 % claim \
         ({recovered}/{} recovered)",
        stats.trials()
    );

    // Same erasures without the parity tier: every trial must abort with a
    // detected-uncorrectable error — degraded, but never silently wrong.
    let disabled = Campaign::new(CampaignConfig {
        trials: 48,
        protection: ProtectionConfig::full(EccScheme::Secded64),
        ..config
    })
    .run_streaming(&StreamConfig::default())
    .stats;
    assert_eq!(disabled.count(FaultOutcome::DetectedAborted), 48);
    assert_eq!(disabled.count(FaultOutcome::DetectedRebuilt), 0);
    assert_eq!(disabled.count(FaultOutcome::SilentCorruption), 0);
}

// ---------------------------------------------------------------------------
// Barrier fault paths.  Every call that certifies its operands at the
// parity barrier (the prechecked read-modify-write kernels and their
// parallel twins, the fused x/p update with a fault in each of its three
// operands, `copy_from`'s source, and the SpMV / SpMM inputs) on every
// scheme the tier accepts, over four stripe layouts and every fault the
// barrier tells apart.  Each outcome — the result, every fault-log snapshot
// and the storage and parity words of every vector afterwards — is pinned
// in `fixtures/barrier_paths.txt`.  A passing sweep is a kernel's one
// certification of its operands, so a clean call records one check per
// codeword per operand and no second one.
// ---------------------------------------------------------------------------

const BARRIER_SCHEMES: [EccScheme; 4] = [
    EccScheme::Sed,
    EccScheme::Secded64,
    EccScheme::Secded128,
    EccScheme::Crc32c,
];

/// `(label, elements, layout)`.
fn barrier_layouts() -> [(&'static str, usize, ParityConfig); 4] {
    let layout = |stripe_chunks, chunk_words| ParityConfig {
        stripe_chunks,
        chunk_words,
    };
    [
        // One stripe: two full chunks and a quarter one.
        ("default-9216", 9216, ParityConfig::default()),
        // Six stripes of three chunks, the last one partial chunk.
        ("stripes-999", 999, layout(3, 64)),
        ("chunk12-201", 201, layout(8, 12)),
        // Long enough for the parallel twins to split it across the pool.
        ("chunk1000-16383", 16383, layout(8, 1000)),
    ]
}

#[derive(Debug, Clone, Copy)]
enum BarrierFault {
    Clean,
    CorrectableFlip,
    DoubleFlip,
    ParityWordFlip,
    ChunkErased,
    TwoChunksErased,
    PaddingFlip,
}

const BARRIER_FAULTS: [BarrierFault; 7] = [
    BarrierFault::Clean,
    BarrierFault::CorrectableFlip,
    BarrierFault::DoubleFlip,
    BarrierFault::ParityWordFlip,
    BarrierFault::ChunkErased,
    BarrierFault::TwoChunksErased,
    BarrierFault::PaddingFlip,
];

/// Injects `fault` into `v` (chunk 1 for the data faults; chunks 0 and 1
/// share a stripe in every layout).  `false` when the vector has no
/// padding word to flip.
fn inject_barrier_fault(v: &mut ProtectedVector, fault: BarrierFault) -> bool {
    let cw = v.parity_chunk_words().expect("parity tier");
    match fault {
        BarrierFault::Clean => {}
        BarrierFault::CorrectableFlip => v.inject_bit_flip(cw + 5, 33),
        BarrierFault::DoubleFlip => {
            v.inject_bit_flip(cw + 5, 20);
            v.inject_bit_flip(cw + 5, 45);
        }
        BarrierFault::ParityWordFlip => v.inject_parity_bit_flip(5, 17),
        BarrierFault::ChunkErased => v.inject_chunk_erasure(cw, 1, 0xE1),
        BarrierFault::TwoChunksErased => {
            v.inject_chunk_erasure(cw, 0, 0xE0);
            v.inject_chunk_erasure(cw, 1, 0xE1);
        }
        BarrierFault::PaddingFlip => {
            if v.raw().len() == v.len() {
                return false;
            }
            v.inject_bit_flip(v.len(), 40);
        }
    }
    true
}

/// `(call, the vector the fault goes into)`: `y` is the vector the call
/// mutates and `x` its operand; `copy` mutates its destination and reads
/// `x`, `spmv` / `spmm` read `x` (column 1 of a three-column panel), and
/// `axpy_xpay` updates `y ← y + α x; x ← r + β x`, so its fault may also
/// sit in the third operand `r`.
const BARRIER_CALLS: [(&str, &str); 25] = [
    ("axpy", "y"),
    ("axpy", "x"),
    ("xpay", "y"),
    ("xpay", "x"),
    ("dot_axpy", "y"),
    ("dot_axpy", "x"),
    ("axpy_par", "y"),
    ("axpy_par", "x"),
    ("xpay_par", "y"),
    ("xpay_par", "x"),
    ("dot_axpy_par", "y"),
    ("dot_axpy_par", "x"),
    ("scale", "y"),
    ("scale_par", "y"),
    ("update", "y"),
    ("copy", "y"),
    ("copy", "x"),
    ("spmv", "x"),
    ("spmm", "x"),
    ("axpy_xpay", "y"),
    ("axpy_xpay", "x"),
    ("axpy_xpay", "r"),
    ("axpy_xpay_par", "y"),
    ("axpy_xpay_par", "x"),
    ("axpy_xpay_par", "r"),
];

fn barrier_vector(scheme: EccScheme, n: usize, parity: ParityConfig, seed: f64) -> ProtectedVector {
    let values: Vec<f64> = (0..n).map(|i| seed + (i as f64 * 0.37).sin()).collect();
    let mut v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::Auto);
    v.enable_parity(parity);
    v
}

/// FNV-1a over 64-bit words.
fn fnv_words(hash: &mut u64, words: &[u64]) {
    for w in words {
        for b in w.to_le_bytes() {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

fn fnv_snapshot(hash: &mut u64, s: &FaultLogSnapshot) {
    for counts in [
        s.checks,
        s.corrected,
        s.uncorrectable,
        s.bounds_violations,
        s.rebuilt,
    ] {
        fnv_words(hash, &counts);
    }
}

fn fnv_vector(hash: &mut u64, v: &ProtectedVector) {
    fnv_words(hash, v.raw());
    fnv_words(hash, v.parity_words().unwrap_or(&[u64::MAX]));
}

fn result_code(result: &Result<(), AbftError>) -> String {
    match result {
        Ok(()) => "ok".into(),
        Err(AbftError::Uncorrectable { region, index }) => format!("due:{region:?}@{index}"),
        Err(e) => format!("{e:?}"),
    }
}

/// One pinned line per scheme × layout × fault × call:
/// `scheme layout fault call/target result hash`, the hash covering every
/// fault-log snapshot, the value a reduction returned and the storage and
/// parity words of every vector the call touched.
fn barrier_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for scheme in BARRIER_SCHEMES {
        for (layout, n, parity) in barrier_layouts() {
            let matrix = ProtectedCsr::from_csr(
                tridiagonal(n, 4.0, -1.0),
                &ProtectionConfig::full(EccScheme::Secded64),
            )
            .unwrap();
            let clean_y = barrier_vector(scheme, n, parity, 2.0);
            let clean_x = barrier_vector(scheme, n, parity, -1.25);
            let clean_r = barrier_vector(scheme, n, parity, 0.5);
            for fault in BARRIER_FAULTS {
                for (call, target) in BARRIER_CALLS {
                    let (mut y, mut x) = (clean_y.clone(), clean_x.clone());
                    let mut r = clean_r.clone();
                    let faulted = match target {
                        "y" => &mut y,
                        "x" => &mut x,
                        _ => &mut r,
                    };
                    if !inject_barrier_fault(faulted, fault) {
                        continue;
                    }
                    let log = FaultLog::new();
                    let mut ws = ReductionWorkspace::new();
                    let mut hash = 0xCBF2_9CE4_8422_2325u64;
                    let mut reduced =
                        |r: Result<f64, AbftError>| r.map(|d| fnv_words(&mut hash, &[d.to_bits()]));
                    let mut extra: Vec<ProtectedVector> = Vec::new();
                    let mut col_codes = String::new();
                    // A `*_par` call is the same kernel on a vector whose
                    // parallel hint is set.
                    y.set_parallel(call.ends_with("_par"));
                    let result = match call.trim_end_matches("_par") {
                        "axpy" => y.axpy_masked(1.5, &x, &log),
                        "xpay" => y.xpay_masked(0.5, &x, &log),
                        "dot_axpy" => reduced(y.dot_axpy_masked_with(-0.25, &x, &log, &mut ws)),
                        "scale" => y.scale_masked(0.75, &log),
                        "update" => y.update_from_fn(&log, |i, v| v * 0.5 + i as f64),
                        "copy" => y.copy_from(&x, &log),
                        "spmv" => {
                            let mut ws = SpmvWorkspace::new();
                            protected_spmv(&matrix, &mut x, &mut y, 0, &log, &mut ws).map(drop)
                        }
                        "axpy_xpay" => {
                            let result = y.axpy_xpay_masked(1.5, &mut x, 0.5, &r, &log);
                            extra.push(r.clone());
                            result
                        }
                        "spmm" => {
                            let (mut x0, mut x2) = (clean_y.clone(), clean_x.clone());
                            let (mut y0, mut y2) = (clean_x.clone(), clean_y.clone());
                            let col_logs = [FaultLog::new(), FaultLog::new(), FaultLog::new()];
                            let logs: Vec<&FaultLog> = col_logs.iter().collect();
                            let mut errors = [None, None, None];
                            let mut ws = SpmvWorkspace::new();
                            let result = protected_spmm(
                                &matrix,
                                &mut [&mut x0, &mut x, &mut x2],
                                &mut [&mut y0, &mut y, &mut y2],
                                0,
                                &logs,
                                &log,
                                &mut errors,
                                &mut ws,
                            );
                            for (col_log, error) in col_logs.iter().zip(errors) {
                                fnv_snapshot(&mut hash, &col_log.snapshot());
                                let code = result_code(&error.map_or(Ok(()), Err));
                                col_codes.push_str(&format!("[{code}]"));
                            }
                            extra.extend([x0, x2, y0, y2]);
                            result.map(drop)
                        }
                        other => unreachable!("unknown call {other}"),
                    };
                    fnv_snapshot(&mut hash, &log.snapshot());
                    for v in [&y, &x].into_iter().chain(&extra) {
                        fnv_vector(&mut hash, v);
                    }
                    lines.push(format!(
                        "{scheme:?} {layout} {fault:?} {call}/{target} {}{col_codes} {hash:016x}",
                        result_code(&result)
                    ));
                }
            }
        }
    }
    lines
}

fn barrier_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/barrier_paths.txt")
}

#[test]
fn barrier_fault_paths_match_the_pinned_outcomes() {
    let pinned = std::fs::read_to_string(barrier_fixture_path()).expect("barrier fixture");
    let pinned: Vec<&str> = pinned.lines().collect();
    let actual = barrier_lines();
    assert_eq!(actual.len(), pinned.len(), "barrier case count changed");
    let diverged: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|(a, p)| a != p)
        .map(|(a, p)| format!("  pinned {p}\n  actual {a}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} barrier outcomes diverged from the pinned ones:\n{}",
        diverged.len(),
        diverged[..diverged.len().min(12)].join("\n")
    );
}

/// Prints the table `barrier_fault_paths_match_the_pinned_outcomes` pins;
/// to re-record it after a deliberate change, run with `--ignored
/// --nocapture` and keep the lines that start with a scheme name.
#[test]
#[ignore = "prints the barrier fixture"]
fn print_barrier_paths() {
    for line in barrier_lines() {
        println!("{line}");
    }
}
