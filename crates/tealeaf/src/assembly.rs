//! Conduction-matrix assembly.
//!
//! Each TeaLeaf time-step solves the implicit backward-Euler discretisation
//! of the linear heat conduction equation
//!
//! ```text
//! (I + Δt · K) u = u₀,       K = −∇·(κ ∇·)
//! ```
//!
//! on the regular grid, where `u = ρ·e` is the cell energy density and the
//! face conductivities `Kx / Ky` are harmonic means of the cell-centred
//! conductivity `κ = 1/ρ` (the RECIP_CONDUCTIVITY option the standard deck
//! uses).  The operator is a five-point stencil and, like the original code,
//! every row stores exactly five entries — boundary rows keep explicit zeros
//! — which also satisfies the ≥ 4-entries-per-row requirement of the CRC32C
//! element protection.

use crate::grid::Grid;
use abft_sparse::builders::five_point_stencil;
use abft_sparse::CsrMatrix;

/// How the cell conductivity is derived from density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Conductivity {
    /// κ = density (TeaLeaf's CONDUCTIVITY=1).
    Density,
    /// κ = 1 / density (TeaLeaf's RECIP_CONDUCTIVITY, the benchmark default).
    #[default]
    Reciprocal,
}

/// Face conductivities in x and y, computed once per time-step.
#[derive(Debug, Clone)]
pub struct FaceCoefficients {
    /// `kx[idx]` is the conductivity of the face between cell `idx−1` and
    /// `idx` in x (zero on the domain boundary).
    pub kx: Vec<f64>,
    /// `ky[idx]` is the conductivity of the face between cell `idx−nx` and
    /// `idx` in y (zero on the domain boundary).
    pub ky: Vec<f64>,
}

/// Computes the face conductivities from the density field.
pub fn face_coefficients(
    grid: &Grid,
    density: &[f64],
    conductivity: Conductivity,
) -> FaceCoefficients {
    assert_eq!(density.len(), grid.cells());
    let kappa = |idx: usize| -> f64 {
        match conductivity {
            Conductivity::Density => density[idx],
            Conductivity::Reciprocal => 1.0 / density[idx],
        }
    };
    let mut kx = vec![0.0; grid.cells()];
    let mut ky = vec![0.0; grid.cells()];
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            let idx = grid.index(i, j);
            if i > 0 {
                let left = grid.index(i - 1, j);
                // Harmonic-style mean used by TeaLeaf: (κa + κb) / (2 κa κb).
                kx[idx] = (kappa(left) + kappa(idx)) / (2.0 * kappa(left) * kappa(idx));
            }
            if j > 0 {
                let down = grid.index(i, j - 1);
                ky[idx] = (kappa(down) + kappa(idx)) / (2.0 * kappa(down) * kappa(idx));
            }
        }
    }
    FaceCoefficients { kx, ky }
}

/// Assembles the implicit conduction operator `I + Δt·K` as a CSR matrix with
/// exactly five stored entries per row (fewer only on grids of fewer than
/// five cells).
///
/// One callback into [`five_point_stencil`], which emits rows straight into
/// CSR, columns ascending.  Boundary rows have fewer than five neighbours;
/// like TeaLeaf they are padded with explicit zeros, placed at the lowest
/// columns the row does not use.
pub fn assemble_matrix(grid: &Grid, coeffs: &FaceCoefficients, dt: f64) -> CsrMatrix {
    let rx = dt / (grid.dx() * grid.dx());
    let ry = dt / (grid.dy() * grid.dy());
    five_point_stencil(grid.nx, grid.ny, 5.min(grid.cells()), |i, j| {
        let idx = grid.index(i, j);
        let west = coeffs.kx[idx];
        let east = if i + 1 < grid.nx {
            coeffs.kx[grid.index(i + 1, j)]
        } else {
            0.0
        };
        let south = coeffs.ky[idx];
        let north = if j + 1 < grid.ny {
            coeffs.ky[grid.index(i, j + 1)]
        } else {
            0.0
        };
        let centre = 1.0 + rx * (west + east) + ry * (south + north);
        (centre, -rx * west, -rx * east, -ry * south, -ry * north)
    })
}

/// Builds the right-hand side `u₀ = ρ·e` (cell energy density).
pub fn assemble_rhs(density: &[f64], energy: &[f64]) -> Vec<f64> {
    assert_eq!(density.len(), energy.len());
    density.iter().zip(energy).map(|(rho, e)| rho * e).collect()
}

/// Recovers the specific energy field from the solved energy density.
pub fn energy_from_u(u: &[f64], density: &[f64]) -> Vec<f64> {
    assert_eq!(u.len(), density.len());
    u.iter().zip(density).map(|(ui, rho)| ui / rho).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    /// The assembly route [`assemble_matrix`] replaced, written out in full
    /// so the pin shares no code with the sparse crate's assembler: each
    /// row's stencil entries and its padding zeros (at the lowest columns
    /// the row does not use) are collected, then sorted by column.  Rows
    /// come in row order, so this is the old global `(row, col)` sort.
    fn assemble_via_sorted_rows(grid: &Grid, coeffs: &FaceCoefficients, dt: f64) -> CsrMatrix {
        let n = grid.cells();
        let rx = dt / (grid.dx() * grid.dx());
        let ry = dt / (grid.dy() * grid.dy());
        let (mut values, mut col_indices, mut row_pointer) = (Vec::new(), Vec::new(), vec![0]);
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                let idx = grid.index(i, j);
                let west = coeffs.kx[idx];
                let east = if i + 1 < grid.nx {
                    coeffs.kx[grid.index(i + 1, j)]
                } else {
                    0.0
                };
                let south = coeffs.ky[idx];
                let north = if j + 1 < grid.ny {
                    coeffs.ky[grid.index(i, j + 1)]
                } else {
                    0.0
                };
                let centre = 1.0 + rx * (west + east) + ry * (south + north);
                let mut row = Vec::new();
                if j > 0 {
                    row.push((idx - grid.nx, -ry * south));
                }
                if i > 0 {
                    row.push((idx - 1, -rx * west));
                }
                row.push((idx, centre));
                if i + 1 < grid.nx {
                    row.push((idx + 1, -rx * east));
                }
                if j + 1 < grid.ny {
                    row.push((idx + grid.nx, -ry * north));
                }
                let mut candidate = 0;
                while row.len() < 5.min(n) {
                    if !row.iter().any(|&(c, _)| c == candidate) {
                        row.push((candidate, 0.0));
                    }
                    candidate += 1;
                }
                row.sort_by_key(|&(c, _)| c);
                for (c, v) in row {
                    col_indices.push(c as u32);
                    values.push(v);
                }
                row_pointer.push(col_indices.len() as u32);
            }
        }
        CsrMatrix::try_new(n, n, values, col_indices, row_pointer).unwrap()
    }

    #[test]
    fn direct_assembly_equals_the_coo_route_bit_for_bit() {
        for (nx, ny) in [
            (1, 1),
            (1, 3),
            (1, 9),
            (3, 1),
            (9, 1),
            (2, 2),
            (5, 7),
            (1, 7),
            (17, 13),
            (32, 32),
            (256, 256),
        ] {
            let grid = Grid::new(nx, ny, nx as f64 * 0.7, ny as f64 * 1.3);
            let density: Vec<f64> = (0..grid.cells())
                .map(|idx| 0.2 + ((idx * 7) % 13) as f64 * 0.31)
                .collect();
            for conductivity in [Conductivity::Reciprocal, Conductivity::Density] {
                let coeffs = face_coefficients(&grid, &density, conductivity);
                let got = assemble_matrix(&grid, &coeffs, 0.004);
                let want = assemble_via_sorted_rows(&grid, &coeffs, 0.004);
                let label = format!("{nx}x{ny} {conductivity:?}");
                assert_eq!(got.row_pointer(), want.row_pointer(), "{label}");
                // Column order, and with it where boundary rows put their
                // explicit zeros.
                assert_eq!(got.col_indices(), want.col_indices(), "{label}");
                let bits =
                    |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{label}");
                assert_eq!(got, want, "{label}");
            }
        }
    }

    fn uniform_problem(nx: usize, ny: usize) -> (Grid, Vec<f64>, Vec<f64>) {
        let grid = Grid::new(nx, ny, nx as f64, ny as f64);
        let density = vec![1.0; grid.cells()];
        let energy = vec![2.0; grid.cells()];
        (grid, density, energy)
    }

    #[test]
    fn uniform_density_gives_uniform_coefficients() {
        let (grid, density, _) = uniform_problem(6, 4);
        let coeffs = face_coefficients(&grid, &density, Conductivity::Reciprocal);
        // κ = 1 everywhere → interior faces have (1+1)/(2·1·1) = 1.
        for j in 0..grid.ny {
            for i in 1..grid.nx {
                assert_eq!(coeffs.kx[grid.index(i, j)], 1.0);
            }
            assert_eq!(coeffs.kx[grid.index(0, j)], 0.0);
        }
        for i in 0..grid.nx {
            assert_eq!(coeffs.ky[grid.index(i, 0)], 0.0);
        }
    }

    #[test]
    fn conductivity_options_differ() {
        let grid = Grid::new(2, 1, 2.0, 1.0);
        let density = vec![2.0, 4.0];
        let recip = face_coefficients(&grid, &density, Conductivity::Reciprocal);
        let dens = face_coefficients(&grid, &density, Conductivity::Density);
        // Reciprocal: κ = 0.5, 0.25 → (0.75)/(2·0.125) = 3.
        assert!((recip.kx[1] - 3.0).abs() < 1e-14);
        // Density: κ = 2, 4 → 6 / 16 = 0.375.
        assert!((dens.kx[1] - 0.375).abs() < 1e-14);
    }

    #[test]
    fn matrix_is_spd_like_and_five_entries_per_row() {
        let (grid, density, _) = uniform_problem(8, 5);
        let coeffs = face_coefficients(&grid, &density, Conductivity::Reciprocal);
        let a = assemble_matrix(&grid, &coeffs, 0.01);
        assert_eq!(a.rows(), 40);
        assert!(a.is_symmetric(1e-12));
        for row in 0..a.rows() {
            assert_eq!(a.row_range(row).len(), 5, "row {row}");
        }
        // Diagonal dominance (strictly, thanks to the identity term).
        for row in 0..a.rows() {
            let diag = a.get(row, row);
            let off: f64 = a
                .row_entries(row)
                .filter(|&(c, _)| c as usize != row)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off);
        }
    }

    #[test]
    fn zero_dt_gives_identity() {
        let (grid, density, _) = uniform_problem(4, 4);
        let coeffs = face_coefficients(&grid, &density, Conductivity::Reciprocal);
        let a = assemble_matrix(&grid, &coeffs, 0.0);
        for row in 0..a.rows() {
            assert_eq!(a.get(row, row), 1.0);
            let off: f64 = a
                .row_entries(row)
                .filter(|&(c, _)| c as usize != row)
                .map(|(_, v)| v.abs())
                .sum();
            assert_eq!(off, 0.0);
        }
    }

    #[test]
    fn rhs_and_energy_recovery_roundtrip() {
        let (_, density, energy) = uniform_problem(3, 3);
        let u = assemble_rhs(&density, &energy);
        assert!(u.iter().all(|&v| v == 2.0));
        let e = energy_from_u(&u, &density);
        assert_eq!(e, energy);
    }
}
