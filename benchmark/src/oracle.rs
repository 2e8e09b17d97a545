//! Correctness oracle: every timed operation's output is checked against
//! the plain matrix and against the unprotected baseline's answer, with
//! nothing but the plain reference kernels.

use abft_suite::sparse::spmv::spmv_serial;
use abft_suite::sparse::CsrMatrix;

/// How far above the solver's own tolerance the recomputed squared
/// residual may sit (the recurrence residual and `b − A x` differ by
/// rounding, and protected vectors by their masked mantissa bits).
pub const RESIDUAL_SLACK: f64 = 10.0;
/// Largest accepted relative L2 distance to the baseline solution (and
/// largest accepted TeaLeaf field-summary difference).
pub const MAX_RELATIVE_DISTANCE: f64 = 1e-6;

/// `‖b − A x‖₂²` recomputed with the plain serial SpMV.
pub fn residual_sq(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    spmv_serial(a, x, &mut ax);
    ax.iter().zip(b).map(|(p, q)| (q - p) * (q - p)).sum()
}

/// `‖x − reference‖₂ / ‖reference‖₂`.
pub fn relative_distance(x: &[f64], reference: &[f64]) -> f64 {
    let diff: f64 = x
        .iter()
        .zip(reference)
        .map(|(p, q)| (p - q) * (p - q))
        .sum();
    let norm: f64 = reference.iter().map(|q| q * q).sum();
    (diff / norm).sqrt()
}

/// True when `x` solves `a x = b` to `tolerance` (squared residual, with
/// [`RESIDUAL_SLACK`]) and agrees with the baseline's `reference`.
pub fn solution_ok(a: &CsrMatrix, b: &[f64], x: &[f64], reference: &[f64], tolerance: f64) -> bool {
    x.len() == b.len()
        && x.len() == reference.len()
        && residual_sq(a, x, b) <= RESIDUAL_SLACK * tolerance
        && relative_distance(x, reference) < MAX_RELATIVE_DISTANCE
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_suite::sparse::builders::poisson_2d_padded;

    #[test]
    fn accepts_the_solution_and_rejects_a_perturbed_one() {
        let a = poisson_2d_padded(8, 8);
        let x: Vec<f64> = (0..a.rows()).map(|i| 1.0 + i as f64 * 0.01).collect();
        let mut b = vec![0.0; a.rows()];
        spmv_serial(&a, &x, &mut b);
        assert!(solution_ok(&a, &b, &x, &x, 1e-10));
        let mut wrong = x.clone();
        wrong[5] += 1e-3;
        assert!(!solution_ok(&a, &b, &wrong, &x, 1e-10));
        // Right residual, wrong reference: the second leg catches it.
        assert!(!solution_ok(&a, &b, &x, &wrong, 1e-10));
        assert!(!solution_ok(&a, &b, &x[1..], &x, 1e-10));
    }
}
