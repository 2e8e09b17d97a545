//! ECC check-throughput microbenchmark backing `BENCH_ecc.json`.
//!
//! The full-protection scheme pays an integrity check on every SpMV and
//! every vector read, so the verify layer's throughput bounds solver
//! throughput.  This harness measures that layer three ways:
//!
//! * **`verify_run`** — certifying a whole encoded vector clean, per scheme:
//!   the *per_group* path re-creates the pre-SIMD check exactly (one
//!   [`abft_ecc::secded::Secded::verify`] / parity / checksum call per
//!   codeword group, the code the masked kernels ran before the batched
//!   layer existed), the *batched* path is the dispatched SIMD predicate of
//!   [`abft_ecc::verify`].
//! * **`dot_masked`** — the masked BLAS-1 dot end to end: *per_group* is a
//!   faithful re-implementation of the check-per-group kernel, *batched* is
//!   the shipped [`ProtectedVector::dot_masked`].
//! * **`crc32c`** — the slicing-width family over the input lengths that
//!   matter (the ~60-byte TeaLeaf row codeword, the 32-byte vector group,
//!   and long runs), the measurements behind
//!   [`abft_ecc::crc32c::auto_software_width`]'s thresholds.  The
//!   *per_group* rows pin the old fixed slicing-by-16 width, the *batched*
//!   rows the `Auto` policy, and *width* rows document every backend.
//!   On a hardware-CRC host the `Auto` rows reflect the `crc32`
//!   instruction — which the pre-PR `Hardware` default already used — so
//!   read the width **policy**'s software-path delta from the width rows
//!   (`SlicingBy16` vs `SlicingBy8`/`SlicingBy4` at each length), not from
//!   pre→post; only `crc_hardware: false` hosts see the policy in the
//!   pre/post comparison itself.
//!
//! Each invocation emits **two trajectory points** — pre (`per_group`) and
//! post (`batched`) — measured in the same process on the same host, with
//! `host_cores`, the dispatched ISA and the hardware-CRC probe recorded so
//! numbers from a 1-core scalar CI box are never mistaken for AVX2 results.

use crate::best_of;
use abft_core::spmv::protected_spmv;
use abft_core::{
    EccScheme, FaultLog, ProtectedCsr, ProtectedVector, ProtectionConfig, SpmvWorkspace,
};
use abft_ecc::secded::{SECDED_118, SECDED_56};
use abft_ecc::sed::parity_u64;
use abft_ecc::{verify, Crc32c, Crc32cBackend};
use abft_faultsim::json::Json;
use abft_sparse::builders::poisson_2d_padded;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct EccBenchRow {
    /// Measured operation: `verify_run`, `dot_masked`, `spmv_protected` or
    /// `crc32c`.
    pub op: String,
    /// Protection-scheme label, or the CRC backend label for `crc32c` rows.
    pub scheme: String,
    /// `per_group` (pre: one check per codeword group, scalar),
    /// `batched` (post: the dispatched SIMD layer) or `width` (CRC width
    /// documentation rows).
    pub path: String,
    /// Workload size: elements for the vector ops, bytes for `crc32c` rows.
    pub size: usize,
    /// Mean wall time per operation in nanoseconds (minimum over repeats).
    pub mean_ns_per_op: f64,
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct EccBenchConfig {
    /// Vector length (elements) for the `verify_run` / `dot_masked` rows.
    pub elements: usize,
    /// Poisson grid side for the `spmv_protected` row.
    pub grid_n: usize,
    /// CRC input lengths in bytes.
    pub crc_lengths: Vec<usize>,
    /// Operations per timed repeat.
    pub iters: usize,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
}

impl Default for EccBenchConfig {
    fn default() -> Self {
        EccBenchConfig {
            elements: 256 * 256,
            grid_n: 256,
            // 8 B: one row-pointer word.  32 B: one CRC vector group.
            // 60 B: the TeaLeaf 5-element row codeword.  128 B+: vector
            // runs, bracketing the policy thresholds.
            crc_lengths: vec![8, 32, 60, 128, 512, 4096],
            iters: 40,
            repeats: 3,
        }
    }
}

impl EccBenchConfig {
    /// Tiny CI preset.
    pub fn smoke() -> Self {
        EccBenchConfig {
            elements: 24 * 24,
            grid_n: 24,
            crc_lengths: vec![32, 60, 512],
            iters: 2,
            repeats: 1,
        }
    }
}

fn schemes() -> [EccScheme; 4] {
    [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ]
}

/// The read mask clearing a scheme's reserved dense-vector mantissa bits.
fn read_mask(scheme: EccScheme) -> u64 {
    !((1u64 << scheme.vector_mantissa_bits()) - 1)
}

/// The pre-SIMD whole-run check: one verify-only call per codeword group,
/// exactly the per-group predicate the masked kernels ran before the
/// batched layer (kept here, against the public `abft-ecc` API, as the
/// benchmark's reference).
fn per_group_clean(scheme: EccScheme, words: &[u64], mask: u64, crc: &Crc32c) -> bool {
    match scheme {
        EccScheme::None => true,
        EccScheme::Sed => words.iter().all(|&w| parity_u64(w) == 0),
        EccScheme::Secded64 => words
            .iter()
            .all(|&w| w & 0x80 == 0 && SECDED_56.verify(&[w >> 8], (w & 0x7F) as u16)),
        EccScheme::Secded128 => words.chunks_exact(2).all(|pair| {
            let (w0, w1) = (pair[0], pair[1]);
            let payload = [(w0 >> 5) | (w1 >> 5) << 59, (w1 >> 5) >> 5];
            let stored = ((w0 & 0x1F) | ((w1 & 0x07) << 5)) as u16;
            w1 & 0x18 == 0 && SECDED_118.verify(&payload, stored)
        }),
        EccScheme::Crc32c => words.chunks_exact(4).all(|group| {
            let stored = group
                .iter()
                .enumerate()
                .fold(0u32, |acc, (j, w)| acc | (((*w & 0xFF) as u32) << (8 * j)));
            stored == crc.checksum_words_masked(group, mask)
        }),
    }
}

/// The batched whole-run check: the dispatched SIMD predicates (CRC groups
/// loop the checksum with the `Auto` width policy, mirroring
/// `GroupCodec::run_clean`).
fn batched_clean(scheme: EccScheme, words: &[u64], mask: u64, crc: &Crc32c) -> bool {
    match scheme {
        EccScheme::None => true,
        EccScheme::Sed => verify::sed_words_clean(words),
        EccScheme::Secded64 => verify::secded64_words_clean(words),
        EccScheme::Secded128 => verify::secded128_words_clean(words),
        EccScheme::Crc32c => words.chunks_exact(4).all(|group| {
            let stored = group
                .iter()
                .enumerate()
                .fold(0u32, |acc, (j, w)| acc | (((*w & 0xFF) as u32) << (8 * j)));
            stored == crc.checksum_words_masked(group, mask)
        }),
    }
}

/// Check-per-group masked dot product — the shape of the pre-SIMD
/// `dot_masked` kernel, re-created against public APIs.
fn dot_per_group(scheme: EccScheme, a: &[u64], b: &[u64], mask: u64, crc: &Crc32c) -> Option<f64> {
    let group = scheme.vector_group().max(1);
    let mut acc = 0.0;
    for (ga, gb) in a.chunks(group).zip(b.chunks(group)) {
        if !per_group_clean(scheme, ga, mask, crc) || !per_group_clean(scheme, gb, mask, crc) {
            return None;
        }
        for (&aw, &bw) in ga.iter().zip(gb) {
            acc += f64::from_bits(aw & mask) * f64::from_bits(bw & mask);
        }
    }
    Some(acc)
}

/// Runs the sweep.
pub fn ecc_microbench(config: &EccBenchConfig) -> Vec<EccBenchRow> {
    let mut rows = Vec::new();
    let log = FaultLog::new();

    // Vector verify + masked dot, per scheme and path.
    let values: Vec<f64> = (0..config.elements)
        .map(|i| 1.0 + (i as f64 * 0.13).sin())
        .collect();
    let values_b: Vec<f64> = (0..config.elements)
        .map(|i| 0.5 + (i as f64 * 0.07).cos())
        .collect();
    for scheme in schemes() {
        // The pre path pins the old fixed slicing-by-16 software width; the
        // post path uses the shipped Auto policy.
        let pre_crc = Crc32c::new(Crc32cBackend::SlicingBy16);
        let post_crc = Crc32c::auto();
        let backend = if scheme == EccScheme::Crc32c {
            Crc32cBackend::Auto
        } else {
            Crc32cBackend::SlicingBy16
        };
        let a = ProtectedVector::from_slice(&values, scheme, backend);
        let b = ProtectedVector::from_slice(&values_b, scheme, backend);
        let mask = read_mask(scheme);
        let mut push = |op: &str, path: &str, ns: f64| {
            rows.push(EccBenchRow {
                op: op.into(),
                scheme: scheme.label().into(),
                path: path.into(),
                size: config.elements,
                mean_ns_per_op: ns,
            });
        };

        let mut sink = true;
        push(
            "verify_run",
            "per_group",
            best_of(config.repeats, config.iters, |_| {
                sink &= per_group_clean(scheme, a.raw(), mask, &pre_crc);
            }),
        );
        push(
            "verify_run",
            "batched",
            best_of(config.repeats, config.iters, |_| {
                sink &= batched_clean(scheme, a.raw(), mask, &post_crc);
            }),
        );
        assert!(sink, "benchmark vectors must verify clean");

        let mut acc = 0.0;
        push(
            "dot_masked",
            "per_group",
            best_of(config.repeats, config.iters, |_| {
                acc +=
                    dot_per_group(scheme, a.raw(), b.raw(), mask, &pre_crc).expect("clean vectors");
            }),
        );
        push(
            "dot_masked",
            "batched",
            best_of(config.repeats, config.iters, |_| {
                acc += a.dot_masked(&b, &log).expect("clean vectors");
            }),
        );
        std::hint::black_box(acc);
    }

    // Fully protected SpMV end to end (checked matrix + scrubbed vector),
    // per scheme — the consumer the verify layer exists for.  Shipped
    // (batched) path only: the per-group matrix kernels no longer exist.
    let matrix = poisson_2d_padded(config.grid_n, config.grid_n);
    for scheme in schemes() {
        let cfg = ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::Auto);
        let encoded = ProtectedCsr::from_csr(&matrix, &cfg).expect("encode");
        let x_vals: Vec<f64> = (0..matrix.cols())
            .map(|i| 1.0 + (i as f64 * 0.13).sin())
            .collect();
        let mut x = ProtectedVector::from_slice(&x_vals, scheme, Crc32cBackend::Auto);
        let mut y = ProtectedVector::zeros(matrix.rows(), scheme, Crc32cBackend::Auto);
        let mut ws = SpmvWorkspace::new();
        let ns = best_of(config.repeats, config.iters, |i| {
            protected_spmv(&encoded, &mut x, &mut y, i as u64, &log, &mut ws).expect("clean spmv");
        });
        rows.push(EccBenchRow {
            op: "spmv_protected".into(),
            scheme: scheme.label().into(),
            path: "batched".into(),
            size: matrix.rows(),
            mean_ns_per_op: ns,
        });
    }

    // CRC32C width × length sweep.
    let max_len = config.crc_lengths.iter().copied().max().unwrap_or(0);
    let data: Vec<u8> = (0..max_len)
        .map(|i| (i as u8).wrapping_mul(41).wrapping_add(3))
        .collect();
    let mut widths: Vec<(String, String, Crc32c)> = vec![
        (
            "SlicingBy16".into(),
            "per_group".into(),
            Crc32c::new(Crc32cBackend::SlicingBy16),
        ),
        ("Auto".into(), "batched".into(), Crc32c::auto()),
        (
            "SlicingBy4".into(),
            "width".into(),
            Crc32c::new(Crc32cBackend::SlicingBy4),
        ),
        (
            "SlicingBy8".into(),
            "width".into(),
            Crc32c::new(Crc32cBackend::SlicingBy8),
        ),
    ];
    if abft_ecc::crc32c::hardware_available() {
        widths.push((
            "Hardware".into(),
            "width".into(),
            Crc32c::new(Crc32cBackend::Hardware),
        ));
    }
    for &len in &config.crc_lengths {
        for (label, path, crc) in &widths {
            let input = &data[..len];
            let mut sink = 0u32;
            // Short checksums are too fast for one call per timing loop
            // iteration; batch 64 calls per iteration and divide.
            const BATCH: usize = 64;
            let ns = best_of(config.repeats, config.iters, |_| {
                for _ in 0..BATCH {
                    sink ^= crc.checksum(std::hint::black_box(input));
                }
            }) / BATCH as f64;
            std::hint::black_box(sink);
            rows.push(EccBenchRow {
                op: "crc32c".into(),
                scheme: label.clone(),
                path: path.clone(),
                size: len,
                mean_ns_per_op: ns,
            });
        }
    }
    rows
}

/// Renders the sweep as two trajectory points — pre (`per_group`) and post
/// (`batched`) — ready to append to `BENCH_ecc.json`.  `width` rows ride in
/// the post point as the policy documentation.
pub fn trajectory_points_json(
    label: &str,
    config: &EccBenchConfig,
    rows: &[EccBenchRow],
) -> Vec<Json> {
    [
        ("per_group", vec!["per_group"]),
        ("batched", vec!["batched", "width"]),
    ]
    .iter()
    .map(|(path, includes)| {
        Json::obj([
            ("label", format!("{label} ({path} checks)").into()),
            (
                "host_cores",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .into(),
            ),
            ("isa", verify::detected_isa().label().into()),
            (
                "crc_hardware",
                abft_ecc::crc32c::hardware_available().into(),
            ),
            (
                "workload",
                Json::obj([
                    ("elements", config.elements.into()),
                    ("grid_n", config.grid_n.into()),
                    (
                        "crc_lengths",
                        Json::Arr(config.crc_lengths.iter().map(|&l| l.into()).collect()),
                    ),
                    ("iters", config.iters.into()),
                    ("repeats", config.repeats.into()),
                ]),
            ),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .filter(|row| includes.contains(&row.path.as_str()))
                        .map(|row| {
                            Json::obj([
                                ("op", row.op.clone().into()),
                                ("scheme", row.scheme.clone().into()),
                                ("path", row.path.clone().into()),
                                ("size", row.size.into()),
                                ("mean_ns_per_op", row.mean_ns_per_op.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    })
    .collect()
}

/// Renders a plain-text table pairing the two paths per op/scheme with the
/// resulting speedup, followed by the CRC width sweep.
pub fn render_table(rows: &[EccBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:>10} {:>15} {:>12} {:>9}\n",
        "op", "scheme", "size", "per_group ns", "batched ns", "speedup"
    ));
    for row in rows
        .iter()
        .filter(|r| r.path == "per_group" && r.op != "crc32c")
    {
        let batched = rows
            .iter()
            .find(|r| r.path == "batched" && r.op == row.op && r.scheme == row.scheme);
        let (batched_ns, speedup) = match batched {
            Some(b) => (
                format!("{:.0}", b.mean_ns_per_op),
                format!("{:.2}x", row.mean_ns_per_op / b.mean_ns_per_op),
            ),
            None => ("-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<14} {:<12} {:>10} {:>15.0} {:>12} {:>9}\n",
            row.op, row.scheme, row.size, row.mean_ns_per_op, batched_ns, speedup
        ));
    }
    for row in rows
        .iter()
        .filter(|r| r.op == "spmv_protected" && r.path == "batched")
    {
        out.push_str(&format!(
            "{:<14} {:<12} {:>10} {:>15} {:>12.0} {:>9}\n",
            row.op, row.scheme, row.size, "-", row.mean_ns_per_op, "-"
        ));
    }
    out.push_str("\nCRC32C width sweep (ns per checksum):\n");
    let mut lengths: Vec<usize> = rows
        .iter()
        .filter(|r| r.op == "crc32c")
        .map(|r| r.size)
        .collect();
    lengths.sort_unstable();
    lengths.dedup();
    let mut backends: Vec<&str> = Vec::new();
    for r in rows.iter().filter(|r| r.op == "crc32c") {
        if !backends.contains(&r.scheme.as_str()) {
            backends.push(r.scheme.as_str());
        }
    }
    out.push_str(&format!("{:<14}", "bytes"));
    for b in &backends {
        out.push_str(&format!(" {:>12}", b));
    }
    out.push('\n');
    for len in lengths {
        out.push_str(&format!("{:<14}", len));
        for b in &backends {
            let ns = rows
                .iter()
                .find(|r| r.op == "crc32c" && r.size == len && r.scheme == *b)
                .map(|r| format!("{:.1}", r.mean_ns_per_op))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(" {:>12}", ns));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_paired_rows() {
        let config = EccBenchConfig {
            elements: 64,
            grid_n: 12,
            crc_lengths: vec![32, 60],
            iters: 1,
            repeats: 1,
        };
        let rows = ecc_microbench(&config);
        for op in ["verify_run", "dot_masked"] {
            for scheme in schemes() {
                for path in ["per_group", "batched"] {
                    assert!(
                        rows.iter()
                            .any(|r| r.op == op && r.scheme == scheme.label() && r.path == path),
                        "missing {op}/{}/{path}",
                        scheme.label()
                    );
                }
            }
        }
        assert!(rows.iter().any(|r| r.op == "spmv_protected"));
        assert!(rows.iter().any(|r| r.op == "crc32c" && r.size == 60));
        assert!(rows.iter().all(|r| r.mean_ns_per_op > 0.0));

        let points = trajectory_points_json("test", &config, &rows);
        assert_eq!(points.len(), 2);
        let pre = points[0].render();
        let post = points[1].render();
        assert!(pre.contains("per_group"));
        assert!(pre.contains("host_cores"));
        assert!(post.contains("isa"));
        assert!(post.contains("crc_hardware"));
        // Width documentation rows live only in the post point.
        assert!(post.contains("SlicingBy4"));
        assert!(!pre.contains("SlicingBy4"));

        let table = render_table(&rows);
        assert!(table.contains("speedup"));
        assert!(table.contains("CRC32C width sweep"));
    }

    #[test]
    fn per_group_and_batched_predicates_agree() {
        let values: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 9.0).collect();
        for scheme in schemes() {
            let v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
            let mask = read_mask(scheme);
            let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
            assert!(per_group_clean(scheme, v.raw(), mask, &crc), "{scheme:?}");
            assert!(batched_clean(scheme, v.raw(), mask, &crc), "{scheme:?}");
            // A flipped payload bit fails both paths identically.
            let mut bad = v.clone();
            bad.inject_bit_flip(5, 33);
            assert!(
                !per_group_clean(scheme, bad.raw(), mask, &crc),
                "{scheme:?}"
            );
            assert!(!batched_clean(scheme, bad.raw(), mask, &crc), "{scheme:?}");
        }
    }

    #[test]
    fn per_group_dot_matches_masked_dot() {
        let a_vals: Vec<f64> = (0..50).map(|i| 1.0 + (i as f64 * 0.3).cos()).collect();
        let b_vals: Vec<f64> = (0..50).map(|i| 2.0 - (i as f64 * 0.2).sin()).collect();
        let log = FaultLog::new();
        for scheme in schemes() {
            let a = ProtectedVector::from_slice(&a_vals, scheme, Crc32cBackend::SlicingBy16);
            let b = ProtectedVector::from_slice(&b_vals, scheme, Crc32cBackend::SlicingBy16);
            let mask = read_mask(scheme);
            let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
            let pre = dot_per_group(scheme, a.raw(), b.raw(), mask, &crc).unwrap();
            let post = a.dot_masked(&b, &log).unwrap();
            assert!(
                (pre - post).abs() <= 1e-9 * post.abs().max(1.0),
                "{scheme:?}: {pre} vs {post}"
            );
        }
    }
}
