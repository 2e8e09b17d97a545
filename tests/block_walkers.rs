//! Fault paths through the block-granular kernels.
//!
//! The CSR range kernel certifies 64 rows of elements with one batched
//! predicate and the masked BLAS-1 kernels certify whole runs and write back
//! 128 staged results at a time.  Blocking must not be observable: with a
//! fault planted at a row, pair or block edge, under every element scheme
//! and storage tier, the outputs, the [`FaultLogSnapshot`] and the reported
//! error must equal those of per-row / per-group execution *and* what the
//! scheme's code alone predicts.  The per-row reference is the same public
//! range kernel driven **one row per call** (a one-row block is a row); the
//! predicted one runs no protected kernel at all ([`expect`], the plain
//! `spmv_serial`); the per-group reference is the group-decode
//! [`ProtectedVector`] methods.
//!
//! Also pinned: `scrub` reports what `verify_all` reports and restores the
//! encoding, and `verify_all` under CRC32C reads the row structure through
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
use abft_suite::sparse::CsrMatrix;

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
        a.spmv_with(&xs[0][..], &mut ys[0], 0, &log, &mut SpmvWorkspace::new())
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

/// Where the storage blocks of a tier start: pairs restart, and reported
/// element indices are relative to, the first element of the owning block.
fn storage_block_rows(a: &AnyProtectedMatrix) -> Vec<usize> {
    match a {
        AnyProtectedMatrix::BlockedCsr(b) => {
            (0..b.num_blocks()).map(|i| b.block_row_start(i)).collect()
        }
        _ => vec![0],
    }
}

/// What a planted element flip must do, worked out from the scheme's code
/// and the matrix layout alone — the reference that does not run a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Read as the clean value, with this many corrections logged (a pair
    /// straddling two rows is decoded by both).
    Corrected(u64),
    /// Reported uncorrectable at `index` (relative to the storage block) by
    /// `row`, the first row that touches the codeword.
    Due { index: usize, row: usize },
    /// Invisible to the code: the product is that of the flipped matrix.
    Undetected,
}

fn expect(scheme: EccScheme, what: Flip, rp: &[u32], block_rows: &[usize]) -> Expect {
    let (k, double) = match what {
        Flip::Value(k) | Flip::Column(k) | Flip::Checksum(k) => (k, false),
        Flip::Double(k) => (k, true),
        Flip::RowPointer(..) => unreachable!("element flips only"),
    };
    let row_of = |k: usize| rp.partition_point(|&e| e as usize <= k) - 1;
    let row = row_of(k);
    let block = block_rows.partition_point(|&r| r <= row) - 1;
    let base = rp[block_rows[block]] as usize;
    let block_end = block_rows
        .get(block + 1)
        .map_or(rp[rp.len() - 1], |&r| rp[r]) as usize;
    match scheme {
        EccScheme::None => Expect::Undetected,
        // One parity bit: odd flip counts are seen, even ones are not, and
        // column bit 28 is index payload.
        EccScheme::Sed if double => Expect::Undetected,
        EccScheme::Sed => Expect::Due {
            index: k - base,
            row,
        },
        EccScheme::Secded64 if double => Expect::Due {
            index: k - base,
            row,
        },
        EccScheme::Secded64 => Expect::Corrected(1),
        EccScheme::Secded128 => {
            let first = base + ((k - base) & !1);
            // An unpaired last element carries its own codeword.
            let last = (first + 1).min(block_end - 1);
            if double {
                Expect::Due {
                    index: first - base,
                    row: row_of(first),
                }
            } else {
                Expect::Corrected(1 + (row_of(first) != row_of(last)) as u64)
            }
        }
        EccScheme::Crc32c if double => Expect::Due {
            index: rp[row] as usize - base,
            row,
        },
        EccScheme::Crc32c => Expect::Corrected(1),
    }
}

/// Value / column / double flips on elements at the first, middle and last
/// position of the walker block of rows 64..128, on both sides of the 128
/// boundary, on both sides of a pair that straddles a row boundary and on
/// both sides of a block boundary inside the second parallel chunk (rows
/// 2592..), plus a flipped redundancy bit at four row starts.
fn element_plants(plain: &CsrMatrix) -> Vec<Flip> {
    let at = |row: usize| plain.row_pointer()[row] as usize;
    // A row inside the walker block that starts on an odd element: the
    // SECDED128 pair around its first element straddles two rows.
    let straddled = (65..128).find(|&row| at(row) % 2 == 1).unwrap();
    let elements = [
        at(64),
        at(straddled) - 1,
        at(straddled),
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
    for row in [64, straddled, 128, 2592 + 64] {
        plants.push(Flip::Checksum(at(row)));
    }
    plants
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
    // The unflipped products, from the plain kernel.
    let clean_ys: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; plain.rows()];
            spmv_serial(&plain, x, &mut y);
            y
        })
        .collect();
    let element_plants = element_plants(&plain);
    let mut rp_plants: Vec<Flip> = Vec::new();
    for row in [64, 100, 127, 128] {
        rp_plants
            .extend([RP_PAYLOAD, RP_REDUNDANCY, RP_DOUBLE].map(|bits| Flip::RowPointer(row, bits)));
    }

    for scheme in EccScheme::ALL {
        // Only the grouped row-structure codes correct a flip, which is what
        // the row-structure assertions below are written for.
        let (cfg, rp_flips) = match scheme {
            EccScheme::Secded64 => (ProtectionConfig::matrix_only(scheme), true),
            EccScheme::Crc32c => (ProtectionConfig::full(scheme), true),
            _ => (ProtectionConfig::matrix_only(scheme), false),
        };
        for (tier, parallel) in TIERS
            .into_iter()
            .flat_map(|tier| [(tier, false), (tier, true)])
        {
            let cfg = cfg.with_parallel(parallel);
            let clean = AnyProtectedMatrix::encode(&plain, &cfg, tier).unwrap();
            let block_rows = storage_block_rows(&clean);
            let plants = element_plants
                .iter()
                .chain(rp_plants.iter().filter(|_| rp_flips));
            for width in [1usize, 8] {
                let xs = &xs[..width];
                let fault_free = run_kernel(&clean, xs);
                fault_free.result.as_ref().unwrap();
                assert_eq!(bits(&fault_free.ys), bits(&clean_ys[..width]));
                for &what in plants.clone() {
                    let label =
                        format!("{scheme:?} {tier:?} parallel={parallel} width={width} {what:?}");
                    let mut corrupt = clean.clone();
                    plant(&mut corrupt, what);
                    let got = run_kernel(&corrupt, xs);
                    let want = run_per_row(&corrupt, xs);
                    assert_eq!(got.result, want.result, "{label}");

                    // The reference that runs no protected kernel.
                    if !matches!(what, Flip::RowPointer(..)) {
                        let faults = got.faults;
                        match expect(scheme, what, rp, &block_rows) {
                            Expect::Corrected(events) => {
                                assert_eq!(got.result, Ok(()), "{label}");
                                assert_eq!(faults.corrected, [events, 0, 0], "{label}");
                                assert_eq!(faults.total_uncorrectable(), 0, "{label}");
                                assert_eq!(faults.bounds_violations, [0; 3], "{label}");
                                assert_eq!(faults.checks, fault_free.faults.checks, "{label}");
                                assert_eq!(bits(&got.ys), bits(&clean_ys[..width]), "{label}");
                            }
                            Expect::Due { index, row } => {
                                let region = abft_suite::core::Region::CsrElements;
                                let due = AbftError::Uncorrectable { region, index };
                                assert_eq!(got.result, Err(due), "{label}");
                                // Every row up to the failing one was counted
                                // before it was decoded; COO also decoded the
                                // row index that ends the failing row.
                                let structure = match tier {
                                    StorageTier::Coo => {
                                        at(row + 1) + (row + 1 < plain.rows()) as usize
                                    }
                                    _ => 2 * (row + 1),
                                };
                                let mut expected = FaultLogSnapshot {
                                    checks: [at(row + 1) as u64, structure as u64, 0],
                                    uncorrectable: [1, 0, 0],
                                    ..FaultLogSnapshot::default()
                                };
                                if parallel {
                                    // Which chunks ran before the abort is up
                                    // to the scheduler.
                                    expected.checks = faults.checks;
                                }
                                assert_eq!(faults, expected, "{label}");
                            }
                            Expect::Undetected => {
                                assert_eq!(got.result, Ok(()), "{label}");
                                assert_eq!(faults.checks, fault_free.faults.checks, "{label}");
                                assert_eq!(faults.total_corrected(), 0, "{label}");
                                assert_eq!(faults.total_uncorrectable(), 0, "{label}");
                                let flipped = corrupt.to_csr();
                                for (x, y) in xs.iter().zip(&got.ys) {
                                    let mut silent = vec![0.0; flipped.rows()];
                                    spmv_serial(&flipped, x, &mut silent);
                                    assert_eq!(bits(&[silent]), bits(std::slice::from_ref(y)));
                                }
                            }
                        }
                    }

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
                            matches!(what, Flip::Double(_) | Flip::RowPointer(_, RP_DOUBLE))
                                || !scheme.corrects_single_flips(),
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
                    assert_eq!(bits(&got.ys), bits(&want.ys), "{label}");
                    if scheme.corrects_single_flips() {
                        // A corrected read is the clean value.
                        assert_eq!(bits(&got.ys), bits(&fault_free.ys), "{label}");
                    }
                }
            }
        }
    }
}

/// Interval-skipped iterations read a block's row bounds in one go too, with
/// nothing but the bounds checks left: a flipped row-structure entry or a
/// column index sent out of range must be caught (or read through) exactly
/// as by a call per row.
#[test]
fn interval_skipped_blocks_match_per_row_execution() {
    let plain = poisson_2d_padded(24, 24);
    let at = |row: usize| plain.row_pointer()[row] as usize;
    let x: Vec<f64> = (0..plain.cols()).map(|i| 1.0 + i as f64 * 0.01).collect();
    let view = DenseView::Slice(&x);
    let mut plants = vec![Flip::Value(at(64)), Flip::Double(at(127) + 1)];
    for row in [1, 64, 100, 127, 128, 575] {
        // A low payload bit, the top payload bit (past the element arrays),
        // and a redundancy bit the unchecked read masks off.
        plants.extend([&[2u32][..], &[27], &[29]].map(|bits| Flip::RowPointer(row, bits)));
    }
    for cfg in [
        ProtectionConfig::matrix_only(EccScheme::Secded64),
        ProtectionConfig::elements_only(EccScheme::Crc32c),
    ] {
        // The CSR tiers: COO has no row bounds to read ahead.
        for tier in [StorageTier::Csr, StorageTier::BlockedCsr(3)] {
            let clean = AnyProtectedMatrix::encode(&plain, &cfg, tier).unwrap();
            for &what in &plants {
                let label = format!("{:?} {tier:?} {what:?}", cfg.elements);
                let mut corrupt = clean.clone();
                plant(&mut corrupt, what);
                // A wild column index: bit 23 is the top index bit.
                if let Flip::Value(k) = what {
                    corrupt.inject_col_bit_flip(k, 23);
                }
                let (log, row_log) = (FaultLog::new(), FaultLog::new());
                let mut y = vec![0.0; plain.rows()];
                let got = corrupt.spmv_range_view(0, view, &mut y, false, &mut Vec::new(), &log);
                let mut want = Ok(());
                let mut y_rows = vec![0.0; plain.rows()];
                for (row, slot) in y_rows.iter_mut().enumerate() {
                    let out = std::slice::from_mut(slot);
                    want =
                        corrupt.spmv_range_view(row, view, out, false, &mut Vec::new(), &row_log);
                    if want.is_err() {
                        break;
                    }
                }
                assert_eq!(got, want, "{label}");
                assert_eq!(log.snapshot(), row_log.snapshot(), "{label}");
                if got.is_ok() {
                    assert_eq!(bits(&[y]), bits(&[y_rows]), "{label}");
                }
            }
        }
    }
}

/// The raw storage of every array a tier keeps: values, encoded column
/// indices, encoded row structure.
fn storage(a: &AnyProtectedMatrix) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let csr = |m: &abft_suite::core::ProtectedCsr| {
        let values = m.raw_values().iter().map(|v| v.to_bits()).collect();
        let structure = m.row_pointer().raw().to_vec();
        (values, m.raw_col_indices().to_vec(), structure)
    };
    match a {
        AnyProtectedMatrix::Csr(m) => csr(m),
        AnyProtectedMatrix::Coo(m) => (
            m.raw_values().iter().map(|v| v.to_bits()).collect(),
            m.raw_col_indices().to_vec(),
            m.raw_row_indices().to_vec(),
        ),
        AnyProtectedMatrix::BlockedCsr(b) => {
            let mut all = (Vec::new(), Vec::new(), Vec::new());
            for (values, cols, structure) in b.blocks().iter().map(csr) {
                all.0.extend(values);
                all.1.extend(cols);
                all.2.extend(structure);
            }
            all
        }
    }
}

/// `scrub` is `verify_all` plus a write-back: on the element flips of the
/// test above both report the same result and the same element events, and
/// after a correctable flip the scrubbed storage is a fresh encode again.
#[test]
fn scrub_reports_what_verify_reports_and_restores_the_encoding() {
    let plain = poisson_2d_padded(72, 72);
    for scheme in EccScheme::ALL {
        let cfg = ProtectionConfig::matrix_only(scheme);
        for tier in TIERS {
            let clean = AnyProtectedMatrix::encode(&plain, &cfg, tier).unwrap();
            let block_rows = storage_block_rows(&clean);
            let baseline = FaultLog::new();
            clean.verify_all(&baseline).unwrap();
            for what in element_plants(&plain) {
                let label = format!("{scheme:?} {tier:?} {what:?}");
                let mut corrupt = clean.clone();
                plant(&mut corrupt, what);
                let (verify_log, scrub_log) = (FaultLog::new(), FaultLog::new());
                let verified = corrupt.verify_all(&verify_log);
                let scrubbed = corrupt.scrub(&scrub_log);
                let (v, s) = (verify_log.snapshot(), scrub_log.snapshot());
                assert_eq!(verified, scrubbed.clone().map(|_| ()), "{label}");
                // Element events and checks; the row structure's scrub keeps
                // its own check accounting.
                assert_eq!(v.checks[0], s.checks[0], "{label}");
                assert_eq!(v.corrected, s.corrected, "{label}");
                assert_eq!(v.uncorrectable, s.uncorrectable, "{label}");
                assert_eq!(v.bounds_violations, s.bounds_violations, "{label}");
                match expect(scheme, what, plain.row_pointer(), &block_rows) {
                    // Whole-matrix passes visit each codeword once, so a
                    // straddling pair is one event here.
                    Expect::Corrected(_) => {
                        assert_eq!(scrubbed, Ok(1), "{label}");
                        assert_eq!(v.corrected, [1, 0, 0], "{label}");
                        assert_eq!(v.checks, baseline.snapshot().checks, "{label}");
                        assert_eq!(storage(&corrupt), storage(&clean), "{label}");
                    }
                    Expect::Due { index, .. } => {
                        let region = abft_suite::core::Region::CsrElements;
                        let due = AbftError::Uncorrectable { region, index };
                        assert_eq!(verified, Err(due), "{label}");
                        assert_eq!(v.uncorrectable, [1, 0, 0], "{label}");
                    }
                    Expect::Undetected => {
                        assert_eq!(scrubbed, Ok(0), "{label}");
                        assert_eq!(v.checks, baseline.snapshot().checks, "{label}");
                        assert_eq!(v.total_corrected() + v.total_uncorrectable(), 0);
                    }
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
                assert_eq!(
                    faults.total_corrected(),
                    1,
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
    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        // Not a multiple of the group: CRC32C's last group holds two
        // elements and two padding words, SECDED128's one and one.
        let n = 8202 + (scheme == EccScheme::Secded128) as usize;
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
                    let recoverable = match scheme {
                        EccScheme::None => true,
                        // Parity sees odd flip counts only.
                        EccScheme::Sed => flips.len() % 2 == 0,
                        // Padding words are architecturally zero, so any
                        // damage confined to them is repaired.
                        _ => flips.len() == 1 || index >= n,
                    };
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
                        // `0 + α·s` is the group-decode scale (no product
                        // here is a negative zero).
                        (
                            "scale",
                            |s, a, _, log| s.scale_masked(a, log).map(|()| 0.0),
                            |s, a, _, log| {
                                let zeros = ProtectedVector::zeros(
                                    s.len(),
                                    s.scheme(),
                                    Crc32cBackend::Auto,
                                );
                                s.xpay(a, &zeros, log).map(|()| 0.0)
                            },
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
                        if matches!(name, "copy_from" | "scale") {
                            // Its reference checks a second operand too,
                            // group for group.
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
