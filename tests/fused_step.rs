//! The certify-once CG step: the fused trait methods (`apply_dot`,
//! `apply_panel_dot`, `axpy_xpay`) and the interleaved SpMM they run on
//! compute exactly what the unfused call sequences compute.
//!
//! * Every CG-shaped solver gives the same bits — solution, iteration
//!   count, residuals — through the fully protected backend's overrides as
//!   through the trait defaults of an operator that implements only the
//!   required methods, on every vector scheme with and without the parity
//!   tier.
//! * A parity erasure that convicts the XPAY half of the default x/p update
//!   is rebuilt and retried without applying the AXPY half twice, in CG and
//!   in block CG.
//! * The interleaved SpMM equals one single-vector SpMV per column, bit for
//!   bit, on every storage tier and panel width, and its fused dots equal
//!   the masked dot of each column's input and output.
//! * The streamed single-vector product equals the width-1 panel (the
//!   staged product and dot) on non-square matrices whose sides are not
//!   multiples of `ACC_BLOCK`, serial and on the pool.
//! * A matrix fault in the last block of a streamed product returns the
//!   fault and leaves the output's codewords and parity consistent.
//! * A column index pushed out of range while the interval policy skips the
//!   checks fails the SpMM exactly as it fails the SpMV.

use abft_suite::core::protected_vector::ACC_BLOCK;
use abft_suite::core::spmv::{
    protected_spmm, protected_spmm_dot, protected_spmm_plain, protected_spmv, protected_spmv_dot,
};
use abft_suite::core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, ParityConfig, ProtectedMatrix,
    ProtectedVector, ProtectionConfig, Region, SpmmWorkspace, SpmvWorkspace, StorageTier,
    MAX_PANEL_WIDTH,
};
use abft_suite::ecc::Crc32cBackend;
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::solvers::generic::{block_cg, cg, ppcg};
use abft_suite::solvers::{
    ft_pcg, ChebyshevBounds, FaultContext, Ilu0, LinearOperator, Reliability, SolveStatus,
    SolverConfig, SolverError, SolverVector,
};
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::CsrMatrix;
use std::cell::Cell;

thread_local! {
    /// Residual updates left before the next one erases a parity chunk of
    /// the residual it has just written; `None` erases nothing.
    static ERASE_RESIDUAL_AFTER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A protected vector that implements only the required [`SolverVector`]
/// methods (`dot_axpy` is also the erasure hook) and `try_rebuild`, so the
/// x/p update runs its default call sequence.
#[derive(Debug, Clone)]
struct Unfused(ProtectedVector);

impl SolverVector for Unfused {
    fn len(&self) -> usize {
        SolverVector::len(&self.0)
    }

    fn dot(&self, other: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        self.0.dot(&other.0, ctx)
    }

    fn axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        self.0.axpy(alpha, &x.0, ctx)
    }

    fn xpay(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        self.0.xpay(alpha, &x.0, ctx)
    }

    fn scale(&mut self, alpha: f64, ctx: &FaultContext) -> Result<(), SolverError> {
        self.0.scale(alpha, ctx)
    }

    fn dot_axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        let rr = self.0.dot_axpy(alpha, &x.0, ctx)?;
        let erase = ERASE_RESIDUAL_AFTER.with(|left| {
            let now = left.get();
            left.set(now.and_then(|n| n.checked_sub(1)));
            now == Some(0)
        });
        if erase {
            let chunk_words = self.0.parity_chunk_words().expect("parity tier");
            self.0.inject_chunk_erasure(chunk_words, 1, 0x0E7A_5E0F);
        }
        Ok(rr)
    }

    fn scale_axpy(
        &mut self,
        beta: f64,
        alpha: f64,
        x: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        self.0.scale_axpy(beta, alpha, &x.0, ctx)
    }

    fn fill(&mut self, value: f64) {
        SolverVector::fill(&mut self.0, value)
    }

    fn copy_from(&mut self, other: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        SolverVector::copy_from(&mut self.0, &other.0, ctx)
    }

    fn update_indexed(
        &mut self,
        ctx: &FaultContext,
        f: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SolverError> {
        self.0.update_indexed(ctx, f)
    }

    fn to_plain(&self) -> Vec<f64> {
        self.0.to_plain()
    }

    fn read_checked(&self, out: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        SolverVector::read_checked(&self.0, out, ctx)
    }

    fn try_rebuild(&mut self, ctx: &FaultContext) -> bool {
        self.0.try_rebuild(ctx)
    }
}

/// The fully protected backend behind the required [`LinearOperator`]
/// methods only: `apply_dot`, `apply_panel` and `apply_panel_dot` run their
/// defaults.
struct UnfusedOp<'a>(FullyProtected<'a>);

impl LinearOperator for UnfusedOp<'_> {
    type Vector = Unfused;

    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn apply(
        &self,
        x: &mut Unfused,
        y: &mut Unfused,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        self.0.apply(&mut x.0, &mut y.0, iteration, ctx)
    }

    fn diagonal(&self, ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        self.0.diagonal(ctx)
    }

    fn vector_from(&self, values: &[f64]) -> Unfused {
        Unfused(self.0.vector_from(values))
    }

    fn zero_vector(&self, n: usize) -> Unfused {
        Unfused(self.0.zero_vector(n))
    }

    fn finish(&self, solution: &mut Unfused, ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        self.0.finish(&mut solution.0, ctx)
    }
}

/// What a solve is compared by: the solution's bits and its status.
type Trace = (Vec<u64>, SolveStatus);

fn trace(x: &impl SolverVector, status: SolveStatus) -> Trace {
    (x.to_plain().iter().map(|v| v.to_bits()).collect(), status)
}

/// CG, PPCG, FT-PCG (ILU(0)) and each column of a width-3 block CG on `op`.
fn solve_all<Op: LinearOperator>(op: &Op, rhs: &[Vec<f64>], ilu: &Ilu0) -> Vec<Trace> {
    let ctx = FaultContext::new();
    let config = SolverConfig::new(400, 1e-20);
    let bounds = ChebyshevBounds::estimate_gershgorin(&matrix());
    let b = op.vector_from(&rhs[0]);
    let (x, s) = cg(op, &b, &config, &ctx).unwrap();
    let mut traces = vec![trace(&x, s)];
    let (x, s) = ppcg(op, &b, bounds, 3, &config, &ctx).unwrap();
    traces.push(trace(&x, s));
    let (x, s) = ft_pcg(op, &b, ilu, &config, &ctx).unwrap();
    traces.push(trace(&x, s));
    let bs: Vec<Op::Vector> = rhs.iter().map(|r| op.vector_from(r)).collect();
    let refs: Vec<&Op::Vector> = bs.iter().collect();
    for column in block_cg(op, &refs, &config, &ctx) {
        assert!(column.error.is_none(), "{:?}", column.error);
        traces.push(trace(&column.solution, column.status));
    }
    traces
}

fn matrix() -> CsrMatrix {
    poisson_2d_padded(14, 11)
}

#[test]
fn solvers_match_through_the_fused_overrides_and_the_trait_defaults() {
    let a = matrix();
    let rhs: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            (0..a.rows())
                .map(|i| 1.0 + ((i * (j + 2)) % 9) as f64 * 0.125)
                .collect()
        })
        .collect();
    let ilu = Ilu0::new(
        &a,
        Reliability::Protected,
        EccScheme::Secded64,
        Crc32cBackend::Auto,
    )
    .unwrap();
    for scheme in [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        for parity in [None, Some(ParityConfig::default())] {
            let mut cfg = ProtectionConfig::full(scheme);
            if let Some(parity) = parity {
                cfg = cfg.with_parity(parity);
            }
            let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
            let fused = solve_all(&FullyProtected::new(&protected), &rhs, &ilu);
            let unfused = solve_all(&UnfusedOp(FullyProtected::new(&protected)), &rhs, &ilu);
            assert_eq!(fused.len(), 6);
            for (solver, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                assert!(f.1.iterations > 0, "{scheme:?} {parity:?} solver {solver}");
                assert_eq!(f, u, "{scheme:?} parity {parity:?} solver {solver}");
            }
        }
    }
}

#[test]
fn an_erasure_convicted_by_the_default_xpay_is_retried_without_a_second_axpy() {
    let a = matrix();
    let rhs: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let cfg = ProtectionConfig::full(EccScheme::Secded64).with_parity(ParityConfig {
        stripe_chunks: 4,
        chunk_words: 16,
    });
    let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
    let op = UnfusedOp(FullyProtected::new(&protected));
    let config = SolverConfig::new(400, 1e-20);
    let solve = |block: bool, erase_after: Option<usize>| {
        ERASE_RESIDUAL_AFTER.with(|left| left.set(erase_after));
        let ctx = FaultContext::new();
        let b = op.vector_from(&rhs);
        let outcome = if block {
            let column = block_cg(&op, &[&b], &config, &ctx).remove(0);
            assert!(column.error.is_none(), "{:?}", column.error);
            trace(&column.solution, column.status)
        } else {
            let (x, status) = cg(&op, &b, &config, &ctx).unwrap();
            trace(&x, status)
        };
        (outcome, ctx.snapshot())
    };
    for block in [false, true] {
        let (clean, clean_log) = solve(block, None);
        assert_eq!(clean_log.rebuilt.iter().sum::<u64>(), 0);
        // The residual written by iteration 4's update loses a chunk: the
        // x/p update's AXPY passes, its XPAY convicts the chunk, the
        // residual is rebuilt from parity and only the XPAY runs again.
        let (faulted, faulted_log) = solve(block, Some(3));
        assert!(clean.1.iterations > 4, "block {block}: {:?}", clean.1);
        assert_eq!(faulted_log.rebuilt.iter().sum::<u64>(), 1, "block {block}");
        assert!(
            faulted == clean,
            "block {block}: x differs from the unfaulted solve"
        );
    }
}

/// Protected inputs of a width-`k` panel, each column different.
fn panel_inputs(a: &AnyProtectedMatrix, width: usize) -> Vec<ProtectedVector> {
    let cfg = a.config();
    (0..width)
        .map(|j| {
            let values: Vec<f64> = (0..a.cols())
                .map(|i| ((i + 11 * j) as f64 * 0.17).sin() + 1.25)
                .collect();
            ProtectedVector::from_slice(&values, cfg.vectors, cfg.crc_backend)
        })
        .collect()
}

#[test]
fn interleaved_spmm_matches_per_column_spmvs_on_every_tier() {
    let a = matrix();
    for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
        let cfg = ProtectionConfig::full(scheme);
        for tier in [
            StorageTier::Csr,
            StorageTier::BlockedCsr(3),
            StorageTier::Coo,
        ] {
            let m = AnyProtectedMatrix::encode(&a, &cfg, tier).unwrap();
            for width in 1..=MAX_PANEL_WIDTH {
                let label = format!("{scheme:?} {tier} width {width}");
                let mut xs = panel_inputs(&m, width);
                // One SpMV per column: its output and its fused dot, which
                // is the masked dot of its input and output.
                let mut refs = Vec::new();
                for x in &mut xs {
                    let zero = || ProtectedVector::zeros(m.rows(), cfg.vectors, cfg.crc_backend);
                    let (mut y, mut y_dot) = (zero(), zero());
                    let log = FaultLog::new();
                    protected_spmv(&m, x, &mut y, 0, &log, &mut SpmvWorkspace::new()).unwrap();
                    let dot =
                        protected_spmv_dot(&m, x, &mut y_dot, 0, &log, &mut SpmvWorkspace::new())
                            .unwrap();
                    assert_eq!(y_dot.raw(), y.raw(), "{label}");
                    assert_eq!(dot.to_bits(), x.dot_masked(&y, &log).unwrap().to_bits());
                    refs.push((y, dot));
                }
                let logs: Vec<FaultLog> = (0..width).map(|_| FaultLog::new()).collect();
                let log_refs: Vec<&FaultLog> = logs.iter().collect();
                let zeros = || -> Vec<ProtectedVector> {
                    (0..width)
                        .map(|_| ProtectedVector::zeros(m.rows(), cfg.vectors, cfg.crc_backend))
                        .collect()
                };
                let (mut ys, mut ys_dot) = (zeros(), zeros());
                let dots = {
                    let mut xr: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
                    let mut yr: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
                    let mut errors = vec![None; width];
                    protected_spmm(
                        &m,
                        &mut xr,
                        &mut yr,
                        0,
                        &log_refs,
                        &FaultLog::new(),
                        &mut errors,
                        &mut SpmmWorkspace::new(),
                    )
                    .unwrap();
                    let mut yr: Vec<&mut ProtectedVector> = ys_dot.iter_mut().collect();
                    protected_spmm_dot(
                        &m,
                        &mut xr,
                        &mut yr,
                        0,
                        &log_refs,
                        &FaultLog::new(),
                        &mut errors,
                        &mut SpmmWorkspace::new(),
                    )
                    .unwrap()
                };
                for (j, (y, dot)) in refs.iter().enumerate() {
                    assert_eq!(ys[j].raw(), y.raw(), "{label} column {j}");
                    assert_eq!(ys_dot[j].raw(), y.raw(), "{label} column {j}");
                    assert_eq!(dots[j].to_bits(), dot.to_bits(), "{label} column {j}");
                }
                assert!(dots[width..].iter().all(|&d| d == 0.0), "{label}");

                // The plain-vector entry point, against plain SpMVs.
                let plain: Vec<Vec<f64>> = xs.iter().map(ProtectedVector::to_vec).collect();
                let mut want = vec![vec![0.0; m.rows()]; width];
                for (x, y) in plain.iter().zip(&mut want) {
                    let log = FaultLog::new();
                    m.spmv_with(&x[..], y, 0, &log, &mut SpmvWorkspace::new())
                        .unwrap();
                }
                let mut got = vec![vec![0.0; m.rows()]; width];
                let xr: Vec<&[f64]> = plain.iter().map(|x| &x[..]).collect();
                let mut yr: Vec<&mut [f64]> = got.iter_mut().map(|y| &mut y[..]).collect();
                let log = FaultLog::new();
                protected_spmm_plain(&m, &xr, &mut yr, 0, &log, &mut SpmmWorkspace::new()).unwrap();
                let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
                    v.iter()
                        .map(|y| y.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "{label} plain panel");
            }
        }
    }
}

/// A `rows × cols` matrix of five entries per row at scattered columns,
/// with mixed-sign values so the dots cancel.
fn rectangular(rows: usize, cols: usize) -> CsrMatrix {
    let (mut values, mut col_indices, mut row_pointer) = (Vec::new(), Vec::new(), vec![0u32]);
    for i in 0..rows {
        let mut row: Vec<u32> = (0..5).map(|j| ((i * 7 + j * 13) % cols) as u32).collect();
        row.sort_unstable();
        for c in row {
            col_indices.push(c);
            values.push(((i + 3 * c as usize) % 11) as f64 * 0.0625 - 0.3);
        }
        row_pointer.push(col_indices.len() as u32);
    }
    CsrMatrix::try_new(rows, cols, values, col_indices, row_pointer).unwrap()
}

#[test]
fn streamed_spmv_matches_the_width_one_panel_on_non_square_matrices() {
    // Four lanes, so the parallel configuration splits the output into
    // several block-aligned chunks even on a one-core host.
    rayon::set_worker_limit(Some(4));
    let long = 2 * ACC_BLOCK + 37;
    for (rows, cols) in [(long, long - 2200), (long - 2200, long)] {
        let a = rectangular(rows, cols);
        for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
            for tier in [
                StorageTier::Csr,
                StorageTier::BlockedCsr(3),
                StorageTier::Coo,
            ] {
                for parallel in [false, true] {
                    let label = format!("{rows}x{cols} {scheme:?} {tier} parallel {parallel}");
                    let cfg = ProtectionConfig::full(scheme).with_parallel(parallel);
                    let m = AnyProtectedMatrix::encode(&a, &cfg, tier).unwrap();
                    let mut x = panel_inputs(&m, 1).remove(0);
                    let zero = || ProtectedVector::zeros(rows, cfg.vectors, cfg.crc_backend);
                    let (mut streamed, mut staged) = (zero(), zero());
                    let log = FaultLog::new();
                    let mut ws = SpmvWorkspace::new();
                    let dot =
                        protected_spmv_dot(&m, &mut x, &mut streamed, 0, &log, &mut ws).unwrap();
                    let panel_dot = protected_spmm_dot(
                        &m,
                        &mut [&mut x],
                        &mut [&mut staged],
                        0,
                        &[&log],
                        &log,
                        &mut [None],
                        &mut SpmmWorkspace::new(),
                    )
                    .unwrap()[0];
                    assert_eq!(streamed.raw(), staged.raw(), "{label}");
                    assert_eq!(dot.to_bits(), panel_dot.to_bits(), "{label}");
                    assert_ne!(dot, 0.0, "{label}");
                    let mut plain = zero();
                    protected_spmv(&m, &mut x, &mut plain, 0, &log, &mut ws).unwrap();
                    assert_eq!(plain.raw(), staged.raw(), "{label}");
                }
            }
        }
    }
    rayon::set_worker_limit(None);
}

#[test]
fn a_matrix_fault_in_the_last_block_leaves_the_output_consistent() {
    let a = poisson_2d_padded(91, 91);
    assert!(a.rows() > 2 * ACC_BLOCK && !a.rows().is_multiple_of(ACC_BLOCK));
    let cfg = ProtectionConfig::full(EccScheme::Secded64).with_parity(ParityConfig {
        stripe_chunks: 4,
        chunk_words: 64,
    });
    let mut protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
    // Two flips in one element of a row in the last block: uncorrectable.
    let k = a.row_pointer()[a.rows() - 40] as usize + 2;
    protected.inject_value_bit_flip(k, 3);
    protected.inject_value_bit_flip(k, 40);
    let op = FullyProtected::new(&protected);
    let values: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 9) as f64 * 0.25).collect();
    let mut p = op.vector_from(&values);
    let mut w = op.zero_vector(a.rows());
    let ctx = FaultContext::new();
    let error = op.apply_dot(&mut p, &mut w, 0, &ctx).unwrap_err();
    assert!(
        matches!(
            error,
            SolverError::Fault(AbftError::Uncorrectable {
                region: Region::CsrElements,
                index,
            }) if index == k
        ),
        "{error:?}"
    );
    let log = FaultLog::new();
    w.check_all(&log).unwrap();
    w.verify_parity(&log).unwrap();
    // No stripe is stale: recomputing the parity changes nothing.
    let mut refreshed = w.clone();
    refreshed.refresh_parity();
    assert_eq!(refreshed.parity_words(), w.parity_words());
    assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
}

#[test]
fn out_of_range_column_under_a_skipped_check_fails_the_spmm_like_the_spmv() {
    let a = matrix();
    // Checks every 4th iteration: iteration 1 reads the elements with
    // bounds checks only.
    let cfg = ProtectionConfig::full(EccScheme::Secded64).with_check_interval(4);
    for tier in [
        StorageTier::Csr,
        StorageTier::BlockedCsr(3),
        StorageTier::Coo,
    ] {
        let mut m = AnyProtectedMatrix::encode(&a, &cfg, tier).unwrap();
        // Bit 20 of element 57's column index: far past the 154 columns.
        m.inject_col_bit_flip(57, 20);
        let spmv_error = {
            let mut x = panel_inputs(&m, 1).remove(0);
            let mut y = ProtectedVector::zeros(m.rows(), cfg.vectors, cfg.crc_backend);
            let log = FaultLog::new();
            let result = protected_spmv(&m, &mut x, &mut y, 1, &log, &mut SpmvWorkspace::new());
            assert_eq!(log.snapshot().bounds_violations[0], 1, "{tier}");
            result.unwrap_err()
        };
        assert!(
            matches!(
                spmv_error,
                AbftError::OutOfRange {
                    region: Region::CsrElements,
                    index: 57,
                    limit,
                    ..
                } if limit == a.cols()
            ),
            "{tier}: {spmv_error:?}"
        );
        for width in [2, 5, MAX_PANEL_WIDTH] {
            let mut xs = panel_inputs(&m, width);
            let mut ys: Vec<ProtectedVector> = (0..width)
                .map(|_| ProtectedVector::zeros(m.rows(), cfg.vectors, cfg.crc_backend))
                .collect();
            let logs: Vec<FaultLog> = (0..width).map(|_| FaultLog::new()).collect();
            let log_refs: Vec<&FaultLog> = logs.iter().collect();
            let matrix_log = FaultLog::new();
            let mut xr: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
            let mut yr: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
            let result = protected_spmm(
                &m,
                &mut xr,
                &mut yr,
                1,
                &log_refs,
                &matrix_log,
                &mut vec![None; width],
                &mut SpmmWorkspace::new(),
            );
            assert_eq!(result, Err(spmv_error.clone()), "{tier} width {width}");
            assert_eq!(matrix_log.snapshot().bounds_violations[0], 1, "{tier}");
        }
    }
}
