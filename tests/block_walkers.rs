//! Fault paths through the block-granular kernels.
//!
//! The SECDED64 and CRC32C SpMV/SpMM kernels certify 64 rows of elements
//! with one batched predicate and the masked BLAS-1 kernels certify whole
//! runs and write back 128 staged results at a time.  Blocking must not be
//! observable: with a fault planted at a block edge, the outputs, the
//! [`FaultLogSnapshot`] and the reported error must equal those of per-row /
//! per-group execution.  The per-row reference here is the same public
//! range kernel driven **one row per call** (a one-row block is a row); the
//! per-group reference is the group-decode [`ProtectedVector`] methods.
//!
//! Also pinned: `verify_all` under CRC32C reads the row structure through
//! the checked path, so a correctable structure flip is absorbed instead of
//! shifting the slice a row checksum is computed over.

use abft_suite::core::spmv::{protected_spmm_plain, DenseView};
use abft_suite::core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, FaultLogSnapshot, ProtectedMatrix,
    ProtectedVector, ProtectionConfig, SpmmWorkspace, SpmvWorkspace, StorageTier,
};
use abft_suite::prelude::Crc32cBackend;
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::spmv::spmv_serial;

const TIERS: [StorageTier; 3] = [
    StorageTier::Csr,
    StorageTier::Coo,
    StorageTier::BlockedCsr(3),
];

/// Index of [`FaultLogSnapshot`]'s row-structure region.
const ROW_STRUCTURE: usize = 1;

/// The flip one scenario plants.
#[derive(Debug, Clone, Copy)]
enum Flip {
    /// One flipped value bit of element `k`: corrected on read.
    Value(usize),
    /// One flipped column-index bit of element `k`: corrected on read.
    Column(usize),
    /// Two flipped value bits of element `k`: uncorrectable.
    Double(usize),
    /// One flipped bit of the redundancy byte element `k` carries (a
    /// checksum byte under CRC32C, where `k` must be one of its row's first
    /// four elements).
    Checksum(usize),
    /// Flipped bits of the row structure at `row` (its row-pointer entry in
    /// the CSR tiers, its first element's row index under COO): one payload
    /// bit is corrected, one redundancy bit leaves the payload intact, two
    /// payload bits are uncorrectable.
    RowPointer(usize, &'static [u32]),
}

const RP_PAYLOAD: &[u32] = &[2];
const RP_REDUNDANCY: &[u32] = &[29];
const RP_DOUBLE: &[u32] = &[2, 11];

fn plant(a: &mut AnyProtectedMatrix, what: Flip) {
    match what {
        Flip::Value(k) => a.inject_value_bit_flip(k, 17),
        Flip::Column(k) => a.inject_col_bit_flip(k, 3),
        Flip::Double(k) => {
            a.inject_value_bit_flip(k, 3);
            a.inject_value_bit_flip(k, 40);
        }
        Flip::Checksum(k) => a.inject_col_bit_flip(k, 28),
        Flip::RowPointer(row, bits) => {
            let entry = match a {
                AnyProtectedMatrix::Coo(c) => c.to_csr().row_pointer()[row] as usize,
                AnyProtectedMatrix::BlockedCsr(b) => {
                    // Per-block pointers are laid out consecutively.
                    let block = (0..b.num_blocks())
                        .rev()
                        .find(|&i| b.block_row_start(i) <= row)
                        .unwrap();
                    row + block
                }
                AnyProtectedMatrix::Csr(_) => row,
            };
            for &bit in bits {
                a.inject_structure_bit_flip(entry, bit);
            }
        }
    }
}

/// Outcome of one product: per-column outputs, the log, the error.
struct Run {
    ys: Vec<Vec<f64>>,
    faults: FaultLogSnapshot,
    result: Result<(), AbftError>,
}

/// The shipped whole-matrix entry points: SpMV for width 1, SpMM above.
fn run_kernel(a: &AnyProtectedMatrix, xs: &[Vec<f64>]) -> Run {
    let log = FaultLog::new();
    let mut ys = vec![vec![0.0; a.rows()]; xs.len()];
    let result = if xs.len() == 1 {
        a.spmv_auto_with(&xs[0][..], &mut ys[0], 0, &log, &mut SpmvWorkspace::new())
    } else {
        let xr: Vec<&[f64]> = xs.iter().map(|x| &x[..]).collect();
        let mut yr: Vec<&mut [f64]> = ys.iter_mut().map(|y| &mut y[..]).collect();
        protected_spmm_plain(a, &xr, &mut yr, 0, &log, &mut SpmmWorkspace::new())
    };
    Run {
        ys,
        faults: log.snapshot(),
        result,
    }
}

/// The same range kernels, one row per call, stopping at the first error.
fn run_per_row(a: &AnyProtectedMatrix, xs: &[Vec<f64>]) -> Run {
    let log = FaultLog::new();
    let width = xs.len();
    let views: Vec<DenseView<'_>> = xs.iter().map(|x| DenseView::Slice(x)).collect();
    let mut ys = vec![vec![0.0; a.rows()]; width];
    let mut scratch = Vec::new();
    let mut products = vec![0.0; width];
    let mut result = Ok(());
    for row in 0..a.rows() {
        result = if width == 1 {
            a.spmv_range_view(row, views[0], &mut products, true, &mut scratch, &log)
        } else {
            a.spmm_range_view(row, &views, &mut products, true, &mut scratch, &log)
        };
        if result.is_err() {
            break;
        }
        for (y, &p) in ys.iter_mut().zip(&products) {
            y[row] = p;
        }
    }
    Run {
        ys,
        faults: log.snapshot(),
        result,
    }
}

fn bits(ys: &[Vec<f64>]) -> Vec<Vec<u64>> {
    ys.iter()
        .map(|y| y.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn planted_faults_at_block_edges_match_per_row_execution() {
    // 5184 rows: enough for the parallel drivers to split into chunks, and
    // a multiple of 64 so the three storage blocks start on walker blocks.
    let plain = poisson_2d_padded(72, 72);
    let rp = plain.row_pointer();
    let at = |row: usize| rp[row] as usize;
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|j| {
            (0..plain.cols())
                .map(|i| 1.0 + ((i + 13 * j) as f64 * 0.37).sin())
                .collect()
        })
        .collect();
    // Elements at the first / middle / last position of the walker block of
    // rows 64..128, on both sides of the 128 boundary, and on both sides of
    // a block boundary inside the second parallel chunk (rows 2592..).
    let elements = [
        at(64),
        at(96) + 2,
        at(128) - 1,
        at(128),
        at(2592 + 64) - 1,
        at(2592 + 64),
        plain.nnz() - 1,
    ];
    let mut plants: Vec<Flip> = Vec::new();
    for k in elements {
        plants.extend([Flip::Value(k), Flip::Column(k), Flip::Double(k)]);
    }
    for row in [64, 128, 2592 + 64] {
        plants.push(Flip::Checksum(at(row)));
    }
    for row in [64, 100, 127, 128] {
        plants
            .extend([RP_PAYLOAD, RP_REDUNDANCY, RP_DOUBLE].map(|bits| Flip::RowPointer(row, bits)));
    }

    // COO keeps its own per-row CRC32C kernel; the row-block walker under
    // CRC32C is the CSR tiers'.
    let cases = [
        (
            ProtectionConfig::matrix_only(EccScheme::Secded64),
            &TIERS[..],
        ),
        (
            ProtectionConfig::full(EccScheme::Crc32c),
            &[StorageTier::Csr, StorageTier::BlockedCsr(3)],
        ),
    ];
    for (cfg, &tier) in cases
        .iter()
        .flat_map(|(cfg, tiers)| tiers.iter().map(move |tier| (cfg, tier)))
    {
        for parallel in [false, true] {
            let scheme = cfg.elements;
            let cfg = cfg.with_parallel(parallel);
            let clean = AnyProtectedMatrix::encode(&plain, &cfg, tier).unwrap();
            for width in [1usize, 8] {
                let xs = &xs[..width];
                let fault_free = run_kernel(&clean, xs);
                fault_free.result.as_ref().unwrap();
                for &what in &plants {
                    let label =
                        format!("{scheme:?} {tier:?} parallel={parallel} width={width} {what:?}");
                    let mut corrupt = clean.clone();
                    plant(&mut corrupt, what);
                    let got = run_kernel(&corrupt, xs);
                    let want = run_per_row(&corrupt, xs);
                    assert_eq!(got.result, want.result, "{label}");

                    let (mut g, mut w) = (got.faults, want.faults);
                    // A row-pointer group is decoded once per cursor: once
                    // per touching row in the reference, once per range in
                    // the kernel.  Both must see it; the count is not
                    // comparable.
                    if matches!(what, Flip::RowPointer(..)) && got.result.is_ok() {
                        assert!(g.corrected[ROW_STRUCTURE] >= 1, "{label}");
                        assert!(w.corrected[ROW_STRUCTURE] >= 1, "{label}");
                        g.corrected[ROW_STRUCTURE] = 0;
                        w.corrected[ROW_STRUCTURE] = 0;
                    }
                    // COO finds a row's end by decoding the next row's first
                    // index, which a call per row repeats: the reference's
                    // row-structure check count runs ahead of the kernel's.
                    if tier == StorageTier::Coo {
                        w.checks[ROW_STRUCTURE] = g.checks[ROW_STRUCTURE];
                    }
                    if got.result.is_err() {
                        assert!(
                            matches!(what, Flip::Double(_) | Flip::RowPointer(_, RP_DOUBLE)),
                            "{label}"
                        );
                        assert!(
                            matches!(got.result, Err(AbftError::Uncorrectable { .. })),
                            "{label}"
                        );
                        if parallel {
                            // Which other chunks ran before the abort is up
                            // to the scheduler; the checks they flushed are
                            // not comparable.
                            g.checks = w.checks;
                        }
                        assert_eq!(g, w, "{label}");
                        continue;
                    }
                    assert_eq!(g, w, "{label}");
                    assert_eq!(g.checks, fault_free.faults.checks, "{label}");
                    if !matches!(what, Flip::RowPointer(..)) {
                        assert_eq!(g.total_corrected(), 1, "{label}");
                    }
                    assert_eq!(bits(&got.ys), bits(&want.ys), "{label}");
                    // A corrected read is the clean value.
                    assert_eq!(bits(&got.ys), bits(&fault_free.ys), "{label}");
                }
            }
        }
    }
}

/// A correctable flip of the row structure must not turn into a false DUE
/// (or an out-of-bounds slice) when `verify_all` checks the row-granular
/// CRC32C element codewords.
#[test]
fn crc32c_verify_all_reads_the_row_structure_checked() {
    let plain = poisson_2d_padded(16, 16);
    let cfg = ProtectionConfig::full(EccScheme::Crc32c);
    for tier in TIERS {
        let clean = AnyProtectedMatrix::encode(&plain, &cfg, tier).unwrap();
        let baseline = FaultLog::new();
        clean.verify_all(&baseline).unwrap();
        let entries = clean.structure_entries();
        for entry in [1, 40, entries / 2, entries - 2] {
            for bit in [0u32, 2, 9, 20] {
                let mut corrupt = clean.clone();
                corrupt.inject_structure_bit_flip(entry, bit);
                let log = FaultLog::new();
                let result = corrupt.verify_all(&log);
                assert_eq!(result, Ok(()), "{tier:?} entry {entry} bit {bit}");
                let faults = log.snapshot();
                assert!(
                    faults.total_corrected() >= 1,
                    "{tier:?} entry {entry} bit {bit}"
                );
                assert_eq!(faults.total_uncorrectable(), 0);
                assert_eq!(faults.checks, baseline.snapshot().checks);
            }
        }
    }
}

fn first_wrong_row(got: &[f64], want: &[f64]) -> Option<usize> {
    assert_eq!(got.len(), want.len());
    (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits())
}

/// A COO range kernel that starts mid-matrix bisects for its first element.
/// A correctable flip that *lowers* the stored row index of an element in
/// the range's first row must not misdirect that search past the element:
/// the product stays the clean one and the flip is corrected, once.
#[test]
fn coo_range_start_survives_lowered_row_indices() {
    let cfg = ProtectionConfig::full(EccScheme::Secded64).with_parallel(true);
    // Row 2592 is where the parallel driver splits 5184 rows in two (one
    // lane: no split).  The coverage gate's COO-parallel rows lean on the
    // same geometry.
    assert!(rayon::chunk_count(72 * 72) <= 2);
    for (n, row0) in [(16usize, 96usize), (16, 100), (16, 160), (72, 2592)] {
        let plain = poisson_2d_padded(n, n);
        let x: Vec<f64> = (0..plain.cols())
            .map(|i| 1.0 + (i as f64 * 0.37).sin())
            .collect();
        let mut expected = vec![0.0; plain.rows()];
        spmv_serial(&plain, &x, &mut expected);
        let clean = AnyProtectedMatrix::encode(&plain, &cfg, StorageTier::Coo).unwrap();
        for k in plain.row_range(row0) {
            for bit in (0..24).filter(|bit| row0 >> bit & 1 == 1) {
                let label = format!("{n}x{n} row {row0} element {k} bit {bit}");
                let mut corrupt = clean.clone();
                corrupt.inject_structure_bit_flip(k, bit);

                let log = FaultLog::new();
                let mut tail = vec![0.0; plain.rows() - row0];
                let view = DenseView::Slice(&x);
                corrupt
                    .spmv_range_view(row0, view, &mut tail, true, &mut Vec::new(), &log)
                    .unwrap_or_else(|e| panic!("{label}: {e:?}"));
                assert_eq!(first_wrong_row(&tail, &expected[row0..]), None, "{label}");
                assert_eq!(log.snapshot().total_corrected(), 1, "{label}");

                let whole = run_kernel(&corrupt, std::slice::from_ref(&x));
                assert_eq!(whole.result, Ok(()), "{label} parallel");
                assert_eq!(
                    first_wrong_row(&whole.ys[0], &expected),
                    None,
                    "{label} parallel"
                );
                // The range before also decodes the first element of
                // `row0`, to find its own end.
                assert!(whole.faults.total_corrected() >= 1, "{label} parallel");
            }
        }
    }
}

fn sample(n: usize, seed: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed) * 0.61803).sin() * 100.0 + 0.03125)
        .collect()
}

/// `dot/axpy/xpay/scale/dot_axpy_masked`, `copy_from` and `read_checked`
/// against the group-decode reference with a flip in `s` or in `x` at the
/// edges of the 128-element write stages and of the 4096-element
/// accumulation blocks, in the trailing partial group and in its padding.
#[test]
fn masked_updates_match_group_decode_with_faults_at_stage_edges() {
    // Not a multiple of four: CRC32C's last group holds two elements and
    // two padding words.
    let n = 8202;
    for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
        let encode =
            |seed: f64| ProtectedVector::from_slice(&sample(n, seed), scheme, Crc32cBackend::Auto);
        let (s0, x0) = (encode(1.0), encode(7.5));
        let alpha = 0.625;
        let mut indices = vec![0usize, 127, 128, 255, 4095, 4096, 4223, n - 1];
        indices.extend(n..s0.raw().len());
        for index in indices {
            for in_x in [false, true] {
                // A payload bit, a redundancy bit, two payload bits.
                for flips in [&[33u32][..], &[3], &[20, 45]] {
                    let label = format!("{scheme:?} index {index} in_x={in_x} flips={flips:?}");
                    let (mut s, mut x) = (s0.clone(), x0.clone());
                    for &bit in flips {
                        if in_x { &mut x } else { &mut s }.inject_bit_flip(index, bit);
                    }
                    // Padding words are architecturally zero, so any damage
                    // confined to them is repaired.
                    let recoverable = flips.len() == 1 || index >= n;
                    type Kernel = fn(
                        &mut ProtectedVector,
                        f64,
                        &ProtectedVector,
                        &FaultLog,
                    ) -> Result<f64, AbftError>;
                    let pairs: [(&str, Kernel, Kernel); 7] = [
                        (
                            "dot",
                            |s, _, x, log| s.dot_masked(x, log),
                            |s, _, x, log| s.dot(x, log),
                        ),
                        (
                            "axpy",
                            |s, a, x, log| s.axpy_masked(a, x, log).map(|()| 0.0),
                            |s, a, x, log| s.axpy(a, x, log).map(|()| 0.0),
                        ),
                        (
                            "xpay",
                            |s, a, x, log| s.xpay_masked(a, x, log).map(|()| 0.0),
                            |s, a, x, log| s.xpay(a, x, log).map(|()| 0.0),
                        ),
                        (
                            "scale",
                            |s, a, _, log| s.scale_masked(a, log).map(|()| 0.0),
                            |s, a, _, log| s.update_from_fn(log, |_, v| v * a).map(|()| 0.0),
                        ),
                        (
                            "dot_axpy",
                            |s, a, x, log| s.dot_axpy_masked(a, x, log),
                            |s, a, x, log| {
                                s.axpy(a, x, log)?;
                                s.dot(s, &FaultLog::new())
                            },
                        ),
                        // `x + 0·s` is the group-decode copy.
                        (
                            "copy_from",
                            |s, _, x, log| s.copy_from(x, log).map(|()| 0.0),
                            |s, _, x, log| s.xpay(0.0, x, log).map(|()| 0.0),
                        ),
                        // Storing what a checked read of `x` handed out (and
                        // nothing where it handed out nothing) is a copy.
                        (
                            "read_checked",
                            |s, _, x, log| {
                                let mut out = vec![f64::NAN; x.len()];
                                let read = x.read_checked(&mut out, log);
                                let keep =
                                    |i: usize, v: f64| if out[i].is_nan() { v } else { out[i] };
                                s.update_from_fn(&FaultLog::new(), keep)?;
                                read.map(|()| 0.0)
                            },
                            |s, _, x, log| s.copy_from(x, log).map(|()| 0.0),
                        ),
                    ];
                    for (name, masked, reference) in pairs {
                        if name == "scale" && in_x {
                            continue;
                        }
                        if matches!(name, "copy_from" | "read_checked") && !in_x {
                            continue;
                        }
                        let (mut sm, mut sr) = (s.clone(), s.clone());
                        let (log_m, log_r) = (FaultLog::new(), FaultLog::new());
                        let got = masked(&mut sm, alpha, &x, &log_m);
                        let want = reference(&mut sr, alpha, &x, &log_r);
                        assert_eq!(got.is_ok(), recoverable, "{name} {label}");
                        assert_eq!(
                            got.as_ref().map(|v| v.to_bits()),
                            want.as_ref().map(|v| v.to_bits()),
                            "{name} {label}"
                        );
                        let mut faults_r = log_r.snapshot();
                        if name == "copy_from" {
                            // Its reference checks `s` too, group for group.
                            faults_r.checks[2] /= 2;
                        }
                        assert_eq!(log_m.snapshot(), faults_r, "{name} {label}");
                        assert_eq!(sm.raw(), sr.raw(), "{name} {label}");
                    }
                }
            }
        }
    }
}
