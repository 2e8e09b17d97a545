//! Preconditioners with a caller-chosen reliability tier — the *selective
//! reliability* layer.
//!
//! The selective-reliability literature (Bridges/Ferreira/Heroux/Hoemmen)
//! observes that an outer iteration which is itself fault-tolerant can
//! absorb errors made by expensive inner work, so the inner work may run
//! on cheaper, unreliable hardware or storage.  The opaque-preconditioner
//! refinement (Elliott/Hoemmen/Mueller) adds the contract this module
//! implements: the outer solver never *verifies* the preconditioner's
//! output, it only *bounds* it.
//!
//! A [`Preconditioner`] therefore computes `z ≈ M⁻¹ r` over **plain
//! slices**: the outer solver owns the reliability boundary, reading the
//! residual through its checked kernels before the apply and re-encoding
//! (and norm-screening) the result after it.  What differs between tiers
//! is what happens *inside* the apply:
//!
//! * [`Reliability::Protected`] — the factors live in a
//!   [`ProtectedVector`] and every apply certifies them with one
//!   [`ProtectedVector::scrub`] (one batched predicate while they are
//!   clean, one check per codeword group either way, recorded in the
//!   caller's [`FaultContext`]), then reads them in place through the
//!   AND-mask of [`ProtectedVector::masked_words`] — the protected SpMV's
//!   idiom for `x`; nothing is staged into a plain copy.  A factor SDC is
//!   detected before it can steer the solve, and a correctable one is
//!   healed in the storage, so it is corrected once, not on every apply.
//! * [`Reliability::Unreliable`] — the factors are plain `Vec<f64>`, the
//!   apply runs zero integrity checks and allocates nothing.  A factor or
//!   mid-apply SDC flows straight into `z`; the outer solver's
//!   bounded-norm screen is the only line of defence — which is exactly
//!   the selective-reliability bet.
//!
//! Two concrete preconditioners are provided: [`Ilu0`] (incomplete LU
//! with zero fill on the matrix's own sparsity pattern — the workhorse
//! for the paper's SPD systems) and [`Polynomial`] (a truncated
//! Jacobi–Neumann series that never forms triangular factors, the
//! fallback for unsymmetric patterns where ILU(0) pivots are fragile).

use std::cell::RefCell;

use crate::backend::{FaultContext, SolverError};
use abft_core::{EccScheme, ProtectedVector};
use abft_ecc::Crc32cBackend;
use abft_sparse::CsrMatrix;

/// The reliability tier a preconditioner's factor storage and apply run in
/// — the selective-reliability decision of a solve
/// ([`Solver::preconditioner`](crate::Solver::preconditioner)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reliability {
    /// Uniform protection: factors in [`ProtectedVector`] storage, every
    /// apply certifies them through checked masked reads.
    #[default]
    Protected,
    /// Selective reliability: plain `Vec<f64>` factors, zero checks,
    /// allocation-free applies; the outer solver screens the result.
    Unreliable,
}

impl Reliability {
    /// The policy this tier stands for, `"uniform"` or `"selective"` — the
    /// label of bench rows and the failure corpus.
    pub fn label(self) -> &'static str {
        match self {
            Reliability::Protected => "uniform",
            Reliability::Unreliable => "selective",
        }
    }
}

/// The preconditioner surface of the inner-outer solver, alongside
/// [`LinearOperator`](crate::backend::LinearOperator): one apply plus the
/// reliability hint and amplification bound the outer loop screens with.
pub trait Preconditioner {
    /// Problem size (rows of the operator being preconditioned).
    fn rows(&self) -> usize;

    /// Computes `z ≈ M⁻¹ r` over plain values.
    ///
    /// `r` is a certified snapshot the outer solver read through its
    /// checked kernels; `z` is written in full.  Protected-tier
    /// implementations record their factor checks in `ctx` and fail with
    /// [`SolverError::Fault`] on uncorrectable factor corruption
    /// (fail-stop); unreliable-tier implementations never err.
    fn apply(&self, r: &[f64], z: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError>;

    /// The tier this instance was built in.
    fn reliability(&self) -> Reliability {
        Reliability::Protected
    }

    /// An estimate `C` such that a fault-free apply satisfies
    /// `‖z‖₂ ≤ C · ‖r‖₂` — the opaque-preconditioner bound the outer
    /// solver screens inner results against.  `None` falls back to the
    /// solver's permissive default.
    fn bound_hint(&self) -> Option<f64> {
        None
    }

    /// Short label for bench and report rows.
    fn label(&self) -> &'static str {
        "preconditioner"
    }
}

/// Which concrete preconditioner a [`Solver`](crate::Solver) or queue job
/// asks for — plain data, hashable, so the serving layer can batch jobs by
/// (matrix, config, precond) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecondKind {
    /// ILU(0) on the matrix's own sparsity pattern.
    Ilu0,
    /// Truncated Jacobi–Neumann polynomial with the given number of
    /// refinement steps (unsymmetric-safe fallback).
    Polynomial(usize),
}

impl PrecondKind {
    /// Stable discriminant for panel keys and logs.
    pub fn key(self) -> u64 {
        match self {
            PrecondKind::Ilu0 => 1,
            PrecondKind::Polynomial(steps) => 2 | ((steps as u64) << 8),
        }
    }

    /// Human-readable label (bench/report rows).
    pub fn label(self) -> &'static str {
        match self {
            PrecondKind::Ilu0 => "ilu0",
            PrecondKind::Polynomial(_) => "polynomial",
        }
    }

    /// Builds this preconditioner for `a` in the requested tier.  The
    /// scheme/backend pair is only consulted by the protected tier (it
    /// decides how the factors are encoded).
    pub fn build(
        self,
        a: &CsrMatrix,
        reliability: Reliability,
        scheme: EccScheme,
        backend: Crc32cBackend,
    ) -> Result<Box<dyn Preconditioner>, SolverError> {
        Ok(match self {
            PrecondKind::Ilu0 => Box::new(Ilu0::new(a, reliability, scheme, backend)?),
            PrecondKind::Polynomial(steps) => {
                Box::new(Polynomial::new(a, steps, reliability, scheme, backend)?)
            }
        })
    }
}

/// Factor storage shared by the concrete preconditioners: plain values for
/// the unreliable tier, an encoded [`ProtectedVector`] for the protected
/// tier (behind a `RefCell`: an apply takes `&self` but heals corrected
/// factor words in place).
#[derive(Debug)]
enum FactorStore {
    Unreliable(Vec<f64>),
    Protected(RefCell<ProtectedVector>),
}

impl FactorStore {
    /// Encodes `values` for the requested tier.  The protected tier masks
    /// mantissa bits exactly like every other protected vector; the
    /// slightly perturbed factors only affect preconditioner quality,
    /// never correctness (the outer iteration is flexible).
    fn new(
        values: Vec<f64>,
        reliability: Reliability,
        scheme: EccScheme,
        backend: Crc32cBackend,
    ) -> Self {
        match reliability {
            Reliability::Unreliable => FactorStore::Unreliable(values),
            Reliability::Protected => {
                let scheme = if scheme == EccScheme::None {
                    EccScheme::Secded64
                } else {
                    scheme
                };
                let factors = ProtectedVector::from_slice(&values, scheme, backend);
                FactorStore::Protected(RefCell::new(factors))
            }
        }
    }

    fn reliability(&self) -> Reliability {
        match self {
            FactorStore::Unreliable(_) => Reliability::Unreliable,
            FactorStore::Protected(_) => Reliability::Protected,
        }
    }

    /// Flips one bit of stored factor `k` (fault-injection hook): the raw
    /// f64 for the unreliable tier, the encoded storage word for the
    /// protected tier.
    fn inject_bit_flip(&mut self, k: usize, bit: u32) {
        match self {
            FactorStore::Unreliable(values) => {
                values[k] = f64::from_bits(values[k].to_bits() ^ (1u64 << (bit % 64)));
            }
            FactorStore::Protected(factors) => factors.get_mut().inject_bit_flip(k, bit),
        }
    }
}

/// Evaluates `$kernel` with `$factor` bound to the tier's factor read
/// (`impl Fn(usize) -> f64`), as a `Result<_, SolverError>`.  The protected
/// tier first certifies the whole factor vector with one scrub (recording
/// the checks in `$ctx`, healing a corrected word in place) and then reads
/// the masked words where they lie; the unreliable tier reads its plain
/// values untouched.
macro_rules! with_factors {
    ($store:expr, $ctx:expr, |$factor:ident| $kernel:expr) => {
        match $store {
            FactorStore::Unreliable(values) => {
                let $factor = |k: usize| values[k];
                Ok($kernel)
            }
            FactorStore::Protected(factors) => {
                let mut factors = factors.borrow_mut();
                match factors.scrub($ctx.log()) {
                    Ok(_) => {
                        let (words, mask) = factors.masked_words();
                        let $factor = |k: usize| f64::from_bits(words[k] & mask);
                        Ok($kernel)
                    }
                    Err(fault) => Err(SolverError::from(fault)),
                }
            }
        }
    };
}

/// Deterministic amplification estimate for the opaque-preconditioner
/// screen: the largest `‖z‖/‖r‖` seen over a handful of fixed probe
/// vectors, widened by a generous slack so a healthy apply never trips
/// the screen while a wild one still does.
fn estimate_bound(n: usize, mut apply: impl FnMut(&[f64], &mut [f64])) -> f64 {
    const SLACK: f64 = 64.0;
    let mut r = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut worst = 1.0f64;
    for probe in 0..3u64 {
        // splitmix64-style fixed-seed probe values in [-1, 1]: cheap,
        // deterministic, and rich enough to excite every factor row.
        let mut s = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(probe + 1);
        for ri in r.iter_mut() {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = s;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            *ri = (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
        apply(&r, &mut z);
        let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let zn: f64 = z.iter().map(|v| v * v).sum::<f64>().sqrt();
        if rn > 0.0 && zn.is_finite() {
            worst = worst.max(zn / rn);
        }
    }
    worst * SLACK
}

/// ILU(0): incomplete LU factorization with zero fill-in, stored on the
/// sparsity pattern of `A` itself.  The apply is the usual pair of
/// triangular solves (unit lower, then upper), in place over `z` and
/// allocation-free in both tiers.
#[derive(Debug)]
pub struct Ilu0 {
    n: usize,
    rowptr: Vec<usize>,
    cols: Vec<usize>,
    /// Index of the diagonal entry within each row's slice of `cols`.
    diag: Vec<usize>,
    store: FactorStore,
    bound: f64,
}

impl Ilu0 {
    /// Factors `a` and stores the result in the requested reliability
    /// tier.  Fails with [`SolverError::Unsupported`] when the matrix is
    /// not square, has a row out of strictly increasing column order (the
    /// factorization and the triangular solves find a row's lower and upper
    /// parts by position), is missing a diagonal entry, or produces a zero
    /// pivot (use [`Polynomial`] for such patterns).
    pub fn new(
        a: &CsrMatrix,
        reliability: Reliability,
        scheme: EccScheme,
        backend: Crc32cBackend,
    ) -> Result<Self, SolverError> {
        let (rowptr, cols, diag, values) = ilu0_factor(a)?;
        let n = a.rows();
        let bound = estimate_bound(n, |r, z| {
            ilu0_solve(&rowptr, &cols, &diag, |k| values[k], r, z);
        });
        Ok(Ilu0 {
            n,
            rowptr,
            cols,
            diag,
            store: FactorStore::new(values, reliability, scheme, backend),
            bound,
        })
    }

    /// Number of stored factor values (the injection index domain of
    /// [`Ilu0::inject_factor_bit_flip`]).
    pub fn factor_count(&self) -> usize {
        self.cols.len()
    }

    /// Flips one bit of stored factor `k` (fault-injection hook).
    pub fn inject_factor_bit_flip(&mut self, k: usize, bit: u32) {
        self.store.inject_bit_flip(k, bit);
    }
}

impl Preconditioner for Ilu0 {
    fn rows(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        assert_eq!(r.len(), self.n, "ilu0: residual has wrong length");
        assert_eq!(z.len(), self.n, "ilu0: output has wrong length");
        with_factors!(&self.store, ctx, |factor| {
            ilu0_solve(&self.rowptr, &self.cols, &self.diag, factor, r, z)
        })
    }

    fn reliability(&self) -> Reliability {
        self.store.reliability()
    }

    fn bound_hint(&self) -> Option<f64> {
        Some(self.bound)
    }

    fn label(&self) -> &'static str {
        "ilu0"
    }
}

/// Runs the ILU(0) factorization; returns `(rowptr, cols, diag, values)`.
#[allow(clippy::type_complexity)]
fn ilu0_factor(
    a: &CsrMatrix,
) -> Result<(Vec<usize>, Vec<usize>, Vec<usize>, Vec<f64>), SolverError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolverError::Unsupported(
            "ilu0: matrix must be square".into(),
        ));
    }
    let rowptr: Vec<usize> = a.row_pointer().iter().map(|&p| p as usize).collect();
    let cols: Vec<usize> = a.col_indices().iter().map(|&c| c as usize).collect();
    let mut values = a.values().to_vec();
    let mut diag = vec![usize::MAX; n];
    for i in 0..n {
        let row = &cols[rowptr[i]..rowptr[i + 1]];
        if row.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(SolverError::Unsupported(format!(
                "ilu0: row {i} is not in strictly increasing column order"
            )));
        }
        if let Some(off) = row.iter().position(|&c| c == i) {
            diag[i] = rowptr[i] + off;
        }
        if diag[i] == usize::MAX {
            return Err(SolverError::Unsupported(format!(
                "ilu0: row {i} has no diagonal entry"
            )));
        }
    }
    // IKJ-variant ILU(0): eliminate row i against every earlier row k it
    // references, updating only positions already present in the pattern.
    for i in 0..n {
        let row = rowptr[i]..rowptr[i + 1];
        for k_idx in row.clone() {
            let k = cols[k_idx];
            if k >= i {
                break;
            }
            let pivot = values[diag[k]];
            if pivot == 0.0 {
                return Err(SolverError::Unsupported(format!(
                    "ilu0: zero pivot at row {k}"
                )));
            }
            values[k_idx] /= pivot;
            let mult = values[k_idx];
            let upper = rowptr[k]..rowptr[k + 1];
            for j_idx in k_idx + 1..row.end {
                let j = cols[j_idx];
                // Position (k, j) in row k, if the pattern has it.
                if let Ok(off) = cols[upper.clone()].binary_search(&j) {
                    values[j_idx] -= mult * values[upper.start + off];
                }
            }
        }
        if values[diag[i]] == 0.0 {
            return Err(SolverError::Unsupported(format!(
                "ilu0: zero pivot at row {i}"
            )));
        }
    }
    Ok((rowptr, cols, diag, values))
}

/// Applies `z = U⁻¹ L⁻¹ r` over the combined factor storage: forward
/// substitution with the unit lower triangle, then backward substitution
/// with the upper triangle.  `factor(k)` reads stored factor `k` — a plain
/// load or a masked one, so both tiers run this one kernel.  In place over
/// `z`, no allocation.
fn ilu0_solve(
    rowptr: &[usize],
    cols: &[usize],
    diag: &[usize],
    factor: impl Fn(usize) -> f64,
    r: &[f64],
    z: &mut [f64],
) {
    let n = diag.len();
    for i in 0..n {
        let mut s = r[i];
        for idx in rowptr[i]..diag[i] {
            s -= factor(idx) * z[cols[idx]];
        }
        z[i] = s;
    }
    for i in (0..n).rev() {
        let mut s = z[i];
        for idx in diag[i] + 1..rowptr[i + 1] {
            s -= factor(idx) * z[cols[idx]];
        }
        z[i] = s / factor(diag[i]);
    }
}

/// Truncated Jacobi–Neumann polynomial preconditioner:
/// `z₀ = D⁻¹ r`, then `steps` refinements `z ← z + D⁻¹ (r − A z)`.
///
/// Needs nothing but the diagonal to be invertible, so it serves the
/// unsymmetric / pattern-irregular systems where ILU(0) declines.  The
/// stored data is `A`'s values followed by the `n` inverse-diagonal
/// entries, so the protected tier certifies factors and diagonal with one
/// scrub per apply.
#[derive(Debug)]
pub struct Polynomial {
    n: usize,
    rowptr: Vec<usize>,
    cols: Vec<usize>,
    steps: usize,
    store: FactorStore,
    /// Scratch for `A z` between refinement steps (allocation-free apply).
    scratch: RefCell<Vec<f64>>,
    bound: f64,
}

impl Polynomial {
    /// Builds the preconditioner with the given number of refinement
    /// steps (0 = plain Jacobi).  Fails when the matrix is not square or
    /// has a zero diagonal entry.
    pub fn new(
        a: &CsrMatrix,
        steps: usize,
        reliability: Reliability,
        scheme: EccScheme,
        backend: Crc32cBackend,
    ) -> Result<Self, SolverError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(SolverError::Unsupported(
                "polynomial: matrix must be square".into(),
            ));
        }
        let rowptr: Vec<usize> = a.row_pointer().iter().map(|&p| p as usize).collect();
        let cols: Vec<usize> = a.col_indices().iter().map(|&c| c as usize).collect();
        let mut data = a.values().to_vec();
        for (i, d) in a.diagonal().as_slice().iter().enumerate() {
            if *d == 0.0 {
                return Err(SolverError::Unsupported(format!(
                    "polynomial: zero diagonal at row {i}"
                )));
            }
            data.push(1.0 / d);
        }
        let bound = estimate_bound(n, |r, z| {
            let mut t = vec![0.0; n];
            polynomial_solve(&rowptr, &cols, |k| data[k], steps, r, z, &mut t);
        });
        Ok(Polynomial {
            n,
            rowptr,
            cols,
            steps,
            store: FactorStore::new(data, reliability, scheme, backend),
            scratch: RefCell::new(vec![0.0; n]),
            bound,
        })
    }

    /// Number of stored factor values (matrix values plus the inverse
    /// diagonal), the injection index domain of
    /// [`Polynomial::inject_factor_bit_flip`].
    pub fn factor_count(&self) -> usize {
        self.cols.len() + self.n
    }

    /// Flips one bit of stored factor `k` (fault-injection hook).
    pub fn inject_factor_bit_flip(&mut self, k: usize, bit: u32) {
        self.store.inject_bit_flip(k, bit);
    }
}

impl Preconditioner for Polynomial {
    fn rows(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        assert_eq!(r.len(), self.n, "polynomial: residual has wrong length");
        assert_eq!(z.len(), self.n, "polynomial: output has wrong length");
        let mut t = self.scratch.borrow_mut();
        with_factors!(&self.store, ctx, |factor| {
            polynomial_solve(&self.rowptr, &self.cols, factor, self.steps, r, z, &mut t)
        })
    }

    fn reliability(&self) -> Reliability {
        self.store.reliability()
    }

    fn bound_hint(&self) -> Option<f64> {
        Some(self.bound)
    }

    fn label(&self) -> &'static str {
        "polynomial"
    }
}

/// The polynomial apply kernel.  `factor(k)` reads stored factor `k` (see
/// [`ilu0_solve`]): the matrix values, then the inverse diagonal from
/// `cols.len()` on; `t` is the `A z` scratch.
fn polynomial_solve(
    rowptr: &[usize],
    cols: &[usize],
    factor: impl Fn(usize) -> f64,
    steps: usize,
    r: &[f64],
    z: &mut [f64],
    t: &mut [f64],
) {
    let n = r.len();
    let inv_diag = |i: usize| factor(cols.len() + i);
    for i in 0..n {
        z[i] = inv_diag(i) * r[i];
    }
    for _ in 0..steps {
        for i in 0..n {
            let mut s = 0.0;
            for idx in rowptr[i]..rowptr[i + 1] {
                s += factor(idx) * z[cols[idx]];
            }
            t[i] = s;
        }
        for i in 0..n {
            z[i] += inv_diag(i) * (r[i] - t[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_sparse::builders::poisson_2d_padded;

    fn residual(a: &CsrMatrix, z: &[f64], r: &[f64]) -> f64 {
        let mut az = vec![0.0; a.rows()];
        abft_sparse::spmv::spmv_serial(a, z, &mut az);
        az.iter()
            .zip(r)
            .map(|(azi, ri)| (azi - ri) * (azi - ri))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn ilu0_refuses_a_row_out_of_column_order() {
        // [[4,-1,0],[-1,4,-1],[0,-1,4]]: tridiagonal, so ILU(0) is exact.
        let factor = |cols: Vec<u32>, vals: Vec<f64>| {
            let a = CsrMatrix::try_new(3, 3, vals, cols, vec![0, 2, 5, 7]).unwrap();
            Ilu0::new(
                &a,
                Reliability::Unreliable,
                EccScheme::None,
                Crc32cBackend::Auto,
            )
        };
        let sorted = factor(
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0],
        )
        .unwrap();
        let mut z = [0.0; 3];
        sorted
            .apply(&[1.0, 2.0, 3.0], &mut z, &FaultContext::new())
            .unwrap();
        let exact = [13.0 / 28.0, 24.0 / 28.0, 27.0 / 28.0];
        for (got, want) in z.iter().zip(exact) {
            assert!((got - want).abs() < 1e-14, "{z:?}");
        }
        // Row 1 stored as columns (2, 1, 0) factored to z = [0.4375, 0.75,
        // 0.875] before the order was checked; now it is refused by name.
        let scrambled = factor(
            vec![0, 1, 2, 1, 0, 1, 2],
            vec![4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0],
        );
        match scrambled {
            Err(SolverError::Unsupported(why)) => assert!(why.contains("row 1"), "{why}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn ilu0_is_exact_where_the_pattern_admits_no_fill() {
        // A tridiagonal pattern has zero fill-in, so ILU(0) is the exact
        // LU factorization and one apply solves the system outright.
        let n = 12;
        let mut vals = Vec::new();
        let mut cols = Vec::new();
        let mut rp = vec![0u32];
        for i in 0..n {
            if i > 0 {
                vals.push(-1.0);
                cols.push(i as u32 - 1);
            }
            vals.push(4.0);
            cols.push(i as u32);
            if i + 1 < n {
                vals.push(-1.0);
                cols.push(i as u32 + 1);
            }
            rp.push(vals.len() as u32);
        }
        let a = CsrMatrix::from_raw(n, n, vals, cols, rp);
        let r: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.3).collect();
        let m = Ilu0::new(
            &a,
            Reliability::Unreliable,
            EccScheme::None,
            Crc32cBackend::Auto,
        )
        .unwrap();
        let mut z = vec![0.0; n];
        m.apply(&r, &mut z, &FaultContext::new()).unwrap();
        assert!(residual(&a, &z, &r) < 1e-10);
    }

    #[test]
    fn ilu0_reduces_the_poisson_residual() {
        let a = poisson_2d_padded(8, 8);
        let n = a.rows();
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let m = Ilu0::new(
            &a,
            Reliability::Unreliable,
            EccScheme::None,
            Crc32cBackend::Auto,
        )
        .unwrap();
        let mut z = vec![0.0; n];
        let ctx = FaultContext::new();
        m.apply(&r, &mut z, &ctx).unwrap();
        // One ILU(0) apply on the 5-point Laplacian leaves only the
        // fill-remainder `R z`; the residual must clearly shrink.
        let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(residual(&a, &z, &r) < 0.75 * rn);
        assert_eq!(m.reliability(), Reliability::Unreliable);
        assert!(m.bound_hint().unwrap() >= 1.0);
    }

    #[test]
    fn protected_tier_checks_factors_and_detects_flips() {
        let a = poisson_2d_padded(6, 6);
        let n = a.rows();
        let r = vec![1.0; n];
        let (tier, scheme, backend) = (
            Reliability::Protected,
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        );
        let ilu0 = Ilu0::new(&a, tier, scheme, backend).unwrap();
        let polynomial = Polynomial::new(&a, 2, tier, scheme, backend).unwrap();
        type Flip<M> = fn(&mut M, usize, u32);
        fn exercise<M: Preconditioner>(mut m: M, flip: Flip<M>, groups: u64, r: &[f64]) {
            let apply = |m: &M| {
                let ctx = FaultContext::new();
                let mut z = vec![0.0; r.len()];
                let result = m.apply(r, &mut z, &ctx);
                (result, z, ctx.snapshot())
            };
            let (result, clean_z, faults) = apply(&m);
            result.unwrap();
            assert_eq!(m.reliability(), Reliability::Protected);
            // One check per factor codeword, nothing found.
            assert_eq!(faults.total_checks(), groups, "{}", m.label());
            assert_eq!(faults.total_corrected(), 0, "{}", m.label());

            // A single factor bit flip is corrected by the certifying scrub…
            flip(&mut m, 3, 14);
            let (result, z, faults) = apply(&m);
            result.unwrap();
            assert_eq!(faults.total_corrected(), 1, "{}", m.label());
            assert_eq!(z, clean_z, "{}", m.label());
            // …and healed in the storage: the next apply finds nothing to
            // correct and computes on the clean factors, bit for bit.
            let (result, z, faults) = apply(&m);
            result.unwrap();
            assert_eq!(faults.total_corrected(), 0, "{}", m.label());
            assert_eq!(faults.total_checks(), groups, "{}", m.label());
            assert_eq!(z, clean_z, "{}", m.label());

            // Two flips in one factor word are beyond SECDED: fail-stop.
            flip(&mut m, 3, 14);
            flip(&mut m, 3, 40);
            let (result, _, faults) = apply(&m);
            assert!(
                matches!(result, Err(SolverError::Fault(_))),
                "{}",
                m.label()
            );
            assert_eq!(faults.total_uncorrectable(), 1, "{}", m.label());
        }
        let groups = ilu0.factor_count() as u64;
        exercise(ilu0, Ilu0::inject_factor_bit_flip, groups, &r);
        let groups = polynomial.factor_count() as u64;
        exercise(polynomial, Polynomial::inject_factor_bit_flip, groups, &r);
    }

    #[test]
    fn polynomial_handles_unsymmetric_patterns() {
        // A small unsymmetric matrix with a safe diagonal: ILU(0) is not
        // required here, but the polynomial tier must reduce the residual.
        let a = CsrMatrix::from_raw(
            3,
            3,
            vec![4.0, 1.0, 3.0, -1.0, 5.0],
            vec![0, 2, 0, 1, 2],
            vec![0, 2, 4, 5],
        );
        let r = vec![1.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        let m = Polynomial::new(
            &a,
            4,
            Reliability::Unreliable,
            EccScheme::None,
            Crc32cBackend::Auto,
        )
        .unwrap();
        m.apply(&r, &mut z, &FaultContext::new()).unwrap();
        let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(residual(&a, &z, &r) < rn);
        assert_eq!(m.label(), "polynomial");
        assert_eq!(m.factor_count(), 5 + 3);
    }

    #[test]
    fn kind_keys_are_distinct_and_stable() {
        assert_ne!(PrecondKind::Ilu0.key(), PrecondKind::Polynomial(4).key());
        assert_ne!(
            PrecondKind::Polynomial(2).key(),
            PrecondKind::Polynomial(3).key()
        );
        assert_eq!(PrecondKind::Ilu0.key(), 1);
    }
}
