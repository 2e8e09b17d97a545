//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction.  `BENCHMARK.json` lists the same names (a test compares the
//! two); bounds live only in `BENCHMARK.json`.

/// One metric's name, unit and whether lower or higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the solver sees, measured with tracing off.  Failures are
/// reported beside these as `failed` out of `attempted` operations.
pub const END_TO_END: [MetricDef; 4] = [
    lower("solve_s", "s"),
    lower("baseline_solve_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, prefixed with the workspace crate
/// they describe.  A metric that does not apply to a workload (no
/// preconditioner, no queue, no parity tier) reads 0 there.
pub const PER_LAYER: [MetricDef; 56] = [
    lower("solvers.iterations", "count"),
    lower("solvers.baseline_iterations", "count"),
    lower("solvers.s_per_iteration", "s"),
    lower("solvers.overhead_x", "x"),
    lower("solvers.apply_s", "s"),
    lower("solvers.apply_calls", "count"),
    lower("solvers.blas1_s", "s"),
    lower("solvers.blas1_calls", "count"),
    lower("solvers.dot_s", "s"),
    lower("solvers.axpy_s", "s"),
    lower("solvers.xpay_s", "s"),
    lower("solvers.dot_axpy_s", "s"),
    lower("solvers.norm2_s", "s"),
    lower("solvers.copy_s", "s"),
    lower("solvers.precond_apply_s", "s"),
    lower("solvers.precond_apply_calls", "count"),
    lower("solvers.precond_build_s", "s"),
    lower("solvers.finish_s", "s"),
    lower("solvers.driver_self_s", "s"),
    higher("solvers.trace_coverage", "share"),
    lower("solvers.trace_overhead_share", "share"),
    lower("core.spmv_s", "s"),
    lower("core.spmv_plainx_s", "s"),
    lower("core.spmm8_s", "s"),
    lower("core.matrix_verify_s", "s"),
    lower("core.vector_check_s", "s"),
    lower("core.dot_s", "s"),
    lower("core.axpy_s", "s"),
    lower("core.xpay_s", "s"),
    lower("core.dot_axpy_s", "s"),
    lower("core.parity_verify_s", "s"),
    lower("core.parity_refresh_s", "s"),
    lower("core.encode_s", "s"),
    lower("core.vector_encode_s", "s"),
    lower("core.matrix_checks", "count"),
    lower("core.vector_checks", "count"),
    lower("core.corrected", "count"),
    lower("core.uncorrectable", "count"),
    lower("core.spmv_overhead_x", "x"),
    lower("core.dot_overhead_x", "x"),
    lower("sparse.spmv_s", "s"),
    lower("sparse.dot_s", "s"),
    lower("sparse.axpy_s", "s"),
    higher("sparse.spmv_gbps", "GB/s"),
    lower("sparse.assemble_s", "s"),
    higher("ecc.secded64_words_gbps", "GB/s"),
    higher("ecc.secded88_elements_gbps", "GB/s"),
    higher("ecc.crc32c_gbps", "GB/s"),
    lower("tealeaf.assembly_s", "s"),
    lower("tealeaf.solve_s", "s"),
    lower("tealeaf.iterations", "count"),
    lower("serve.submit_s", "s"),
    lower("serve.drain_s", "s"),
    lower("serve.panel_overhead_s", "s"),
    lower("serve.pool_roundtrip_us", "us"),
    lower("serve.matrix_checks_per_rhs", "count"),
];

/// Counts that repeat exactly for one commit and seed; `--compare` demands
/// equality instead of applying a bound.
pub const EXACT_COUNTS: [&str; 4] = [
    "solvers.iterations",
    "core.matrix_checks",
    "core.vector_checks",
    "serve.matrix_checks_per_rhs",
];

/// Named per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    /// Records `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in [`PER_LAYER`] or was already recorded —
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every catalogue metric in catalogue order; the ones this workload
    /// did not record read 0.
    pub fn complete(&self) -> Vec<(MetricDef, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (*m, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }
}
