//! Tracing at the solver trait seam, from outside the library.
//!
//! The generic solvers only ever touch a [`LinearOperator`], its
//! [`SolverVector`]s and (for FT-PCG) a [`Preconditioner`].  Wrapping those
//! three in decorators that record one span per trait call therefore splits
//! a whole solve into operator applies, BLAS-1, preconditioner applies and
//! the end-of-solve `finish`, with nothing inside `crates/` instrumented:
//! the decorated operator is handed to the unchanged `generic::cg`,
//! `ft_pcg` and `block_cg_panel`.
//!
//! Spans are kept in memory (one preallocated `Vec`) and analysed after the
//! run.  A span's *self time* is its duration minus the part its child
//! spans cover, so the self times of a trace sum to its root's duration.

use abft_suite::core::ReductionWorkspace;
use abft_suite::solvers::{
    ChebyshevBounds, FaultContext, LinearOperator, Preconditioner, Reliability, SolverError,
    SolverVector,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval: nanoseconds since the tracer's epoch, plus the
/// index of the span that was open when this one started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<u32>>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            current: Cell::new(None),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of whichever span is
    /// open on this tracer.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.current.get();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            (spans.len() - 1) as u32
        };
        self.current.set(Some(index));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.current.set(parent);
        let span = &mut self.spans.borrow_mut()[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self seconds and call count per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(span.name).or_insert((0.0, 0));
        entry.0 += own as f64 * 1e-9;
        entry.1 += 1;
    }
    totals
}

/// Span names of [`Traced::apply`] / [`Traced::apply_panel`].
pub const APPLY_SPANS: [&str; 2] = ["apply", "apply_panel"];
/// Span name of [`TracedPrecond::apply`].
pub const PRECOND_SPAN: &str = "precond_apply";
/// Span name of [`Traced::finish`].
pub const FINISH_SPAN: &str = "finish";
/// Span names of the vector surface: every [`SolverVector`] method plus the
/// operator's vector constructors and its `diagonal` read-out.
pub const VECTOR_SPANS: [&str; 17] = [
    "dot",
    "norm2",
    "axpy",
    "xpay",
    "scale",
    "dot_axpy",
    "scale_axpy",
    "fill",
    "copy_from",
    "clone",
    "update_indexed",
    "to_plain",
    "read_checked",
    "try_rebuild",
    "vector_from",
    "zero_vector",
    "diagonal",
];

/// [`LinearOperator`] decorator recording one span per call.
#[derive(Debug)]
pub struct Traced<'t, Op> {
    inner: &'t Op,
    tracer: &'t Tracer,
}

impl<'t, Op> Traced<'t, Op> {
    pub fn new(inner: &'t Op, tracer: &'t Tracer) -> Self {
        Traced { inner, tracer }
    }
}

/// [`SolverVector`] decorator recording one span per call.
#[derive(Debug)]
pub struct TracedVec<'t, V> {
    inner: V,
    tracer: &'t Tracer,
}

impl<V: Clone> Clone for TracedVec<'_, V> {
    fn clone(&self) -> Self {
        TracedVec {
            inner: self.tracer.span("clone", || self.inner.clone()),
            tracer: self.tracer,
        }
    }
}

impl<V: SolverVector> SolverVector for TracedVec<'_, V> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dot(&self, other: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        self.tracer
            .span("dot", || self.inner.dot(&other.inner, ctx))
    }

    fn norm2(&self, ctx: &FaultContext) -> Result<f64, SolverError> {
        self.tracer.span("norm2", || self.inner.norm2(ctx))
    }

    fn axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        self.tracer
            .span("axpy", || self.inner.axpy(alpha, &x.inner, ctx))
    }

    fn xpay(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        self.tracer
            .span("xpay", || self.inner.xpay(alpha, &x.inner, ctx))
    }

    fn scale(&mut self, alpha: f64, ctx: &FaultContext) -> Result<(), SolverError> {
        self.tracer.span("scale", || self.inner.scale(alpha, ctx))
    }

    fn dot_axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        self.tracer
            .span("dot_axpy", || self.inner.dot_axpy(alpha, &x.inner, ctx))
    }

    fn scale_axpy(
        &mut self,
        beta: f64,
        alpha: f64,
        x: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        self.tracer.span("scale_axpy", || {
            self.inner.scale_axpy(beta, alpha, &x.inner, ctx)
        })
    }

    fn fill(&mut self, value: f64) {
        self.tracer.span("fill", || self.inner.fill(value))
    }

    fn copy_from(&mut self, other: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        self.tracer
            .span("copy_from", || self.inner.copy_from(&other.inner, ctx))
    }

    fn update_indexed(
        &mut self,
        ctx: &FaultContext,
        f: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SolverError> {
        self.tracer
            .span("update_indexed", || self.inner.update_indexed(ctx, f))
    }

    fn to_plain(&self) -> Vec<f64> {
        self.tracer.span("to_plain", || self.inner.to_plain())
    }

    fn read_checked(&self, out: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        self.tracer
            .span("read_checked", || self.inner.read_checked(out, ctx))
    }

    fn try_rebuild(&mut self, ctx: &FaultContext) -> bool {
        self.tracer
            .span("try_rebuild", || self.inner.try_rebuild(ctx))
    }
}

impl<'t, Op: LinearOperator> LinearOperator for Traced<'t, Op> {
    type Vector = TracedVec<'t, Op::Vector>;

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(
        &self,
        x: &mut Self::Vector,
        y: &mut Self::Vector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        self.tracer.span("apply", || {
            self.inner.apply(&mut x.inner, &mut y.inner, iteration, ctx)
        })
    }

    fn apply_panel(
        &self,
        xs: &mut [&mut Self::Vector],
        ys: &mut [&mut Self::Vector],
        iteration: u64,
        col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        col_errors: &mut [Option<SolverError>],
    ) -> Result<(), SolverError> {
        self.tracer.span("apply_panel", || {
            let mut xs: Vec<&mut Op::Vector> = xs.iter_mut().map(|x| &mut x.inner).collect();
            let mut ys: Vec<&mut Op::Vector> = ys.iter_mut().map(|y| &mut y.inner).collect();
            self.inner.apply_panel(
                &mut xs, &mut ys, iteration, col_ctxs, matrix_ctx, col_errors,
            )
        })
    }

    fn diagonal(&self, ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        self.tracer.span("diagonal", || self.inner.diagonal(ctx))
    }

    fn vector_from(&self, values: &[f64]) -> Self::Vector {
        TracedVec {
            inner: self
                .tracer
                .span("vector_from", || self.inner.vector_from(values)),
            tracer: self.tracer,
        }
    }

    fn zero_vector(&self, n: usize) -> Self::Vector {
        TracedVec {
            inner: self
                .tracer
                .span("zero_vector", || self.inner.zero_vector(n)),
            tracer: self.tracer,
        }
    }

    fn bounds_hint(&self) -> Option<ChebyshevBounds> {
        self.inner.bounds_hint()
    }

    fn reduction_workspace(&self) -> Option<&RefCell<ReductionWorkspace>> {
        self.inner.reduction_workspace()
    }

    fn finish(
        &self,
        solution: &mut Self::Vector,
        ctx: &FaultContext,
    ) -> Result<Vec<f64>, SolverError> {
        self.tracer
            .span(FINISH_SPAN, || self.inner.finish(&mut solution.inner, ctx))
    }
}

/// [`Preconditioner`] decorator recording one span per apply.
pub struct TracedPrecond<'t> {
    inner: &'t dyn Preconditioner,
    tracer: &'t Tracer,
}

impl<'t> TracedPrecond<'t> {
    pub fn new(inner: &'t dyn Preconditioner, tracer: &'t Tracer) -> Self {
        TracedPrecond { inner, tracer }
    }
}

impl Preconditioner for TracedPrecond<'_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn apply(&self, r: &[f64], z: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        self.tracer
            .span(PRECOND_SPAN, || self.inner.apply(r, z, ctx))
    }

    fn reliability(&self) -> Reliability {
        self.inner.reliability()
    }

    fn bound_hint(&self) -> Option<f64> {
        self.inner.bound_hint()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let tracer = Tracer::with_capacity(8);
        tracer.span("root", || {
            tracer.span("a", || {
                tracer.span("leaf", || std::hint::black_box(1 + 1));
            });
            tracer.span("a", || ());
        });
        let spans = tracer.take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("root", None),
                ("a", Some(0)),
                ("leaf", Some(1)),
                ("a", Some(0))
            ]
        );
        for span in &spans[1..] {
            let parent = &spans[span.parent.unwrap() as usize];
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        }
        let own = self_times_ns(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"].1, 2);
        assert!(tracer.take().is_empty());
    }
}
