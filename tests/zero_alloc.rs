//! Pins the zero-allocation property of the solver hot loop: once the
//! operator workspace is warm, extra CG iterations must not touch the heap.
//!
//! A counting global allocator measures the allocations of a 10-iteration
//! and a 60-iteration solve of the same system on the same operator; the
//! counts must be identical — every allocation belongs to per-solve setup
//! (vector clones, the decoded solution), none to the iterations.  A clean
//! matrix's `verify_all` and `scrub` must allocate nothing at all.  The
//! builders write CSR rows straight into three arrays, so their count is
//! fixed too, whatever the row count.
//!
//! The serial solves are counted on the measuring thread alone, so what the
//! test harness and the other tests' threads allocate meanwhile cannot leak
//! into a count.  The parallel solve needs the process-wide counter (its
//! pool workers must be seen), so it first repeats its warm-up until the
//! count has settled.

use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLog, ParityConfig, ProtectedMatrix, ProtectionConfig,
    StorageTier, MAX_PANEL_WIDTH,
};
use abft_suite::prelude::{Crc32cBackend, PrecondKind, Reliability, Solver};
use abft_suite::solvers::backends::{FullyProtected, MatrixProtected, Plain};
use abft_suite::solvers::{
    block_cg_panel, decode_checked, FaultContext, LinearOperator, SolverConfig,
};
use abft_suite::sparse::builders::{pad_rows_to_min_entries, poisson_2d, poisson_2d_padded};
use abft_suite::sparse::{CooMatrix, CsrMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

/// Allocations of every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations of this thread.  Const-initialised and without a
    /// destructor, so touching it from inside the allocator neither
    /// allocates nor registers anything.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no slot any more; nothing measures it.
    let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serialises the measuring tests: the worker pool and its lane limit are
/// process-wide.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Allocations `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// Allocations any thread makes while `f` runs.
fn process_allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// 63×63 grid: 3969 rows, below the parallel threshold, so the solve stays
/// on the calling thread and its counter observes every allocation.
fn system() -> (CsrMatrix, Vec<f64>) {
    let a = poisson_2d_padded(63, 63);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    (a, b)
}

#[test]
fn matrix_protected_cg_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (a, b) = system();
    let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64)
        .with_crc_backend(Crc32cBackend::SlicingBy16);
    let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
    let op = MatrixProtected::new(&protected);
    let short = Solver::cg().max_iterations(10).tolerance(0.0);
    let long = Solver::cg().max_iterations(60).tolerance(0.0);
    // Warm the operator workspace (first SpMV sizes the scratch buffers).
    short.solve_operator(&op, &b).unwrap();

    let allocs_short = allocations_during(|| {
        short.solve_operator(&op, &b).unwrap();
    });
    let allocs_long = allocations_during(|| {
        long.solve_operator(&op, &b).unwrap();
    });
    // 50 extra CG iterations (SpMV + 2 dots + 2 AXPYs + XPAY each) must not
    // add a single heap allocation.
    assert_eq!(
        allocs_short, allocs_long,
        "CG iterations allocated: {allocs_short} allocs at 10 iters vs {allocs_long} at 60"
    );

    // The whole-structure walks of a clean matrix: the row-pointer walk
    // screens its codeword runs on the stack, the element walk certifies in
    // place, and a scrub with nothing to repair keeps nothing.
    for tier in [StorageTier::Csr, StorageTier::BlockedCsr(3)] {
        for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
            let cfg = ProtectionConfig::matrix_only(scheme);
            let mut m = AnyProtectedMatrix::encode(&a, &cfg, tier).unwrap();
            let log = FaultLog::new();
            m.verify_all(&log).unwrap();
            assert_eq!(m.scrub(&log).unwrap(), 0);
            let verify = allocations_during(|| m.verify_all(&log).unwrap());
            let scrub = allocations_during(|| assert_eq!(m.scrub(&log).unwrap(), 0));
            assert_eq!(
                (verify, scrub),
                (0, 0),
                "{tier} {scheme:?}: clean walks allocated"
            );
        }
    }
}

#[test]
fn parallel_fully_protected_cg_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // 128×128 grid: 16384 unknowns — above the parallel BLAS-1 threshold
    // (PARALLEL_MIN_ELEMENTS) and enough SpMV rows for several chunks, so
    // the solve genuinely dispatches on the sharded pool.  Four lanes force
    // cross-thread scheduling even on a single-core CI box.
    rayon::set_worker_limit(Some(4));
    let a = poisson_2d_padded(128, 128);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        let cfg = ProtectionConfig::full(scheme)
            .with_parallel(true)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
        let op = FullyProtected::new(&protected);
        let short = Solver::cg().max_iterations(10).tolerance(0.0);
        let long = Solver::cg().max_iterations(60).tolerance(0.0);
        // Warm-up: spawns the pool (first use only), sizes the SpMV and
        // reduction workspaces, and grows the per-chunk scratch buffers.  A
        // worker's first task — and the lazy thread-locals it sets up — can
        // land in any of the first few solves, so repeat until two
        // consecutive short solves allocate equally.
        let measure_short = || {
            process_allocations_during(|| {
                short.solve_operator(&op, &b).unwrap();
            })
        };
        let mut allocs_short = measure_short();
        for _ in 0..16 {
            let again = measure_short();
            if std::mem::replace(&mut allocs_short, again) == again {
                break;
            }
        }
        let allocs_long = process_allocations_during(|| {
            long.solve_operator(&op, &b).unwrap();
        });
        // 50 extra parallel CG iterations — sharded-pool SpMV dispatches plus
        // workspace-backed parallel dot/AXPY/XPAY/fused dot+AXPY — must not
        // add a single heap allocation, on any participating thread.
        assert_eq!(
            allocs_short, allocs_long,
            "{scheme:?}: parallel protected CG iterations allocated"
        );
    }
    rayon::set_worker_limit(None);
}

#[test]
fn parallel_plain_cg_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The unprotected baseline on the pool: the same 128×128 grid at four
    // lanes, so the plain SpMV, dot and AXPY all split into several chunks.
    rayon::set_worker_limit(Some(4));
    let a = poisson_2d_padded(128, 128);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let op = Plain::new(&a, true);
    let short = Solver::cg().max_iterations(10).tolerance(0.0);
    let long = Solver::cg().max_iterations(60).tolerance(0.0);
    // Warm-up as above: repeat until two consecutive short solves agree.
    let measure_short = || {
        process_allocations_during(|| {
            short.solve_operator(&op, &b).unwrap();
        })
    };
    let mut allocs_short = measure_short();
    for _ in 0..16 {
        let again = measure_short();
        if std::mem::replace(&mut allocs_short, again) == again {
            break;
        }
    }
    let allocs_long = process_allocations_during(|| {
        long.solve_operator(&op, &b).unwrap();
    });
    assert_eq!(
        allocs_short, allocs_long,
        "parallel plain CG iterations allocated"
    );
    rayon::set_worker_limit(None);
}

#[test]
fn fully_protected_cg_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (a, b) = system();
    // All five element schemes: the masked BLAS-1 kernels (dot, fused
    // dot_axpy, AXPY/XPAY, scale) must stay on stack buffers, so a full
    // protected CG iteration — SpMV *and* its vector half — is heap-free.
    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        let cfg = ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
        let op = FullyProtected::new(&protected);
        let short = Solver::cg().max_iterations(10).tolerance(0.0);
        let long = Solver::cg().max_iterations(60).tolerance(0.0);
        short.solve_operator(&op, &b).unwrap();

        let allocs_short = allocations_during(|| {
            short.solve_operator(&op, &b).unwrap();
        });
        let allocs_long = allocations_during(|| {
            long.solve_operator(&op, &b).unwrap();
        });
        assert_eq!(
            allocs_short, allocs_long,
            "{scheme:?}: fully protected CG iterations allocated"
        );
    }
}

#[test]
fn parity_fully_protected_cg_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (a, b) = system();
    // The erasure tier adds a barrier ahead of every read-modify-write
    // kernel and every SpMV input: a clean barrier certifies and
    // cross-checks its operands on the stack, and the parity refresh after
    // a kernel rewrites the words it already owns.
    for scheme in [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        let cfg = ProtectionConfig::full(scheme)
            .with_parity(ParityConfig::default())
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
        let op = FullyProtected::new(&protected);
        let short = Solver::cg().max_iterations(10).tolerance(0.0);
        let long = Solver::cg().max_iterations(60).tolerance(0.0);
        short.solve_operator(&op, &b).unwrap();

        let allocs_short = allocations_during(|| {
            short.solve_operator(&op, &b).unwrap();
        });
        let allocs_long = allocations_during(|| {
            long.solve_operator(&op, &b).unwrap();
        });
        assert_eq!(
            allocs_short, allocs_long,
            "{scheme:?}: parity-tier CG iterations allocated"
        );
    }
}

/// Allocations of a width-8 block CG on `op` at 10 and at 60 iterations,
/// after a warm-up solve.  Column 3 is capped at 5 iterations, so the
/// panel also shrinks mid-solve.
fn panel_allocations<Op: LinearOperator>(op: &Op, b: &[f64]) -> (u64, u64) {
    let bs: Vec<Op::Vector> = (0..MAX_PANEL_WIDTH)
        .map(|j| op.vector_from(&b.iter().map(|v| v + j as f64 * 0.125).collect::<Vec<_>>()))
        .collect();
    let refs: Vec<&Op::Vector> = bs.iter().collect();
    let (ctx, matrix_ctx) = (FaultContext::new(), FaultContext::new());
    let ctxs = vec![&ctx; MAX_PANEL_WIDTH];
    let mut budgets = vec![None; MAX_PANEL_WIDTH];
    budgets[3] = Some(5);
    let solve = |iterations| {
        let config = SolverConfig::new(iterations, 0.0);
        let poll = |_, _| None;
        block_cg_panel(op, &refs, &config, &ctxs, &matrix_ctx, true, &budgets, poll)
    };
    drop(solve(10));
    let short = allocations_during(|| drop(solve(10)));
    let long = allocations_during(|| drop(solve(60)));
    (short, long)
}

#[test]
fn block_cg_panel_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (a, b) = system();
    // The serving queue's panel: SECDED64 vectors with the erasure tier,
    // eight columns through one SpMM per iteration.  The panel's slots,
    // contexts and errors are fixed arrays and the SpMM's interleaved input
    // lives in the operator's workspace.  Plain vectors on a protected
    // matrix take the other SpMM entry point.
    let full = ProtectionConfig::full(EccScheme::Secded64)
        .with_parity(ParityConfig::default())
        .with_crc_backend(Crc32cBackend::SlicingBy16);
    let protected = AnyProtectedMatrix::encode(&a, &full, StorageTier::Csr).unwrap();
    let (short, long) = panel_allocations(&FullyProtected::new(&protected), &b);
    assert_eq!(short, long, "SECDED64 + parity panel iterations allocated");

    let matrix_only = ProtectionConfig::matrix_only(EccScheme::Secded64);
    let protected = AnyProtectedMatrix::encode(&a, &matrix_only, StorageTier::Csr).unwrap();
    let (short, long) = panel_allocations(&MatrixProtected::new(&protected), &b);
    assert_eq!(short, long, "matrix-protected panel iterations allocated");
}

#[test]
fn ft_pcg_iterations_do_not_allocate() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (a, b) = system();
    // The guarded inner apply sits inside every FT-PCG iteration: a checked
    // read of the residual, the ILU(0) sweeps (over factors certified in
    // place in the protected tier, over plain ones in the unreliable tier)
    // and the re-encode of `z`.  Everything a solve allocates — matrix,
    // factors, vectors, the plain staging buffers — belongs to its set-up.
    for tier in [Reliability::Protected, Reliability::Unreliable] {
        let solver = Solver::cg()
            .protection(ProtectionConfig::full(EccScheme::Secded64))
            .preconditioner(PrecondKind::Ilu0, tier)
            .tolerance(0.0);
        let (short, long) = (solver.max_iterations(10), solver.max_iterations(60));
        short.solve(&a, &b).unwrap();

        let allocs_short = allocations_during(|| {
            short.solve(&a, &b).unwrap();
        });
        let allocs_long = allocations_during(|| {
            long.solve(&a, &b).unwrap();
        });
        assert_eq!(
            allocs_short, allocs_long,
            "{tier:?}: FT-PCG iterations allocated"
        );
    }
}

/// The stencil assembler and the padding pass write each row straight into
/// the output arrays: values, columns and row pointer, three allocations
/// whatever the row count (no triplet copies, no per-row buffer).  Counted
/// per thread, but under the lock all the same: its allocations must not
/// land in a parallel test's process-wide count.
#[test]
fn builders_allocate_the_three_output_arrays_only() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    for (nx, ny) in [(16, 16), (64, 64), (64, 128)] {
        let allocs = allocations_during(|| drop(poisson_2d_padded(nx, ny)));
        assert_eq!(allocs, 3, "poisson_2d_padded({nx}, {ny})");
        let plain = poisson_2d(nx, ny);
        let allocs = allocations_during(|| drop(pad_rows_to_min_entries(&plain, 5)));
        assert_eq!(allocs, 3, "pad_rows_to_min_entries of {nx}x{ny}");
    }
}

/// `m`'s entries as triplets, row by row.
fn triplets(m: &CsrMatrix) -> CooMatrix {
    let mut coo = CooMatrix::new(m.rows(), m.cols());
    for row in 0..m.rows() {
        for (col, value) in m.row_entries(row) {
            coo.push(row, col as usize, value);
        }
    }
    coo
}

/// The raw value array of a CSR-tier matrix.
fn csr_values(m: &AnyProtectedMatrix) -> *const f64 {
    match m {
        AnyProtectedMatrix::Csr(csr) => csr.raw_values().as_ptr(),
        _ => unreachable!("a CSR-tier matrix"),
    }
}

/// An owned matrix is encoded in its own arrays: the values stay where
/// they are and the redundancy goes into the index arrays.  The only
/// allocation left is growing the row pointer to whole codeword groups,
/// and the row-at-a-time builders and the triplet conversion leave room
/// for that too.
#[test]
fn an_owned_encode_writes_into_the_matrix_it_is_given() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let built = poisson_2d_padded(64, 64);
    for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
        let cfg = ProtectionConfig::matrix_only(scheme);
        // Warm whatever the configuration sets up lazily.
        drop(AnyProtectedMatrix::encode(&built, &cfg, StorageTier::Csr).unwrap());
        // Fresh from the builder, through the triplet conversion (the
        // Matrix Market reader's), and a clone, whose row pointer holds
        // exactly its `rows + 1` entries.
        for (matrix, most) in [
            (poisson_2d_padded(64, 64), 0),
            (triplets(&built).to_csr().unwrap(), 0),
            (built.clone(), 1),
        ] {
            let values = matrix.values().as_ptr();
            let mut encoded = None;
            let allocs = allocations_during(|| {
                encoded = Some(AnyProtectedMatrix::encode(matrix, &cfg, StorageTier::Csr).unwrap());
            });
            let encoded = encoded.unwrap();
            assert!(
                allocs <= most,
                "{scheme:?}: {allocs} allocations, at most {most}"
            );
            assert_eq!(csr_values(&encoded), values, "{scheme:?}: values moved");
            assert_eq!(encoded.to_csr(), built, "{scheme:?}");
        }
    }
}

/// The streamed product stages one block of rows on the stack: a fresh
/// operator's first serial `apply_dot` sizes no workspace buffer at all.
#[test]
fn a_serial_apply_dot_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let a = poisson_2d_padded(64, 64);
    for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
        let cfg = ProtectionConfig::full(scheme);
        let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
        let op = FullyProtected::new(&protected);
        let values: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = op.vector_from(&values);
        let mut y = op.zero_vector(a.rows());
        let ctx = FaultContext::new();
        let allocs = allocations_during(|| {
            op.apply_dot(&mut x, &mut y, 0, &ctx).unwrap();
        });
        assert_eq!(allocs, 0, "{scheme:?}: a serial apply_dot allocated");
    }
}

/// The checked decode copies the protected matrix once and decodes the
/// scrubbed copy in its own arrays: the copy's three arrays are all it
/// allocates.
#[test]
fn the_checked_decode_allocates_one_copy() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (a, _) = system();
    let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64);
    let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
    let log = FaultLog::new();
    let mut plain = None;
    let allocs = allocations_during(|| plain = Some(decode_checked(&protected, &log).unwrap()));
    // Debug builds add the three copies `CsrMatrix::from_raw` validates.
    let validation = if cfg!(debug_assertions) { 3 } else { 0 };
    assert_eq!(allocs, 3 + validation);
    assert_eq!(plain.unwrap(), a);
}
