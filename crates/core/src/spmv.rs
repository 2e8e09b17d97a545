//! Fully protected sparse matrix–vector products.
//!
//! [`ProtectedMatrix::spmv_with`] accepts any
//! [`DenseSource`] as its input vector, so the same kernel serves the
//! matrix-only configurations (plain `&[f64]` input) and the fully protected
//! configurations (a [`ProtectedVector`] input read through its masking
//! layer) — for every storage tier implementing
//! [`ProtectedMatrix`].  The free functions here add
//! the vector-side integrity work for the fully protected case:
//!
//! * the input vector is scrubbed once per kernel invocation — this plays the
//!   role of the paper's multi-element, multi-iteration-aware read cache
//!   (§VI-C): every codeword of `x` is checked exactly once per SpMV instead
//!   of once per stencil access;
//! * after that scrub the kernel reads `x` through the **masked raw-slice
//!   fast path** ([`DenseView::MaskedWords`]): a `&[u64]` view plus an
//!   AND-mask held in a register, so the bandwidth-bound inner loop performs
//!   one load and one AND per access instead of an assert-guarded
//!   `ProtectedVector::get` call;
//! * the output vector is streamed: [`protected_spmv`] computes one
//!   [`ACC_BLOCK`] of rows into a stack stage and encodes it straight into
//!   `y`'s storage, so each group is encoded exactly once and no `rows`-long
//!   buffer exists, and [`protected_spmv_dot`] folds each block's `x · y`
//!   partial from the stage before the next block (CG's `p · Ap` without
//!   re-verifying either vector); the panel kernels stage their row-major
//!   product panel in the workspace and sum [`protected_spmm_dot`]'s dots
//!   from it;
//! * a multi-RHS panel is interleaved once per call into one row-major
//!   input ([`InterleavedX`]), so a matrix element reads all its columns'
//!   inputs from one cache line.
//!
//! Every entry point — [`ProtectedMatrix::spmv_with`], [`protected_spmv`]
//! and its `_dot` form, [`protected_spmm_plain`], [`protected_spmm`] and its
//! `_dot` form — runs its range kernel through one row-range driver that
//! follows the matrix's own `config().parallel`: one chunk on the caller,
//! or `rayon::chunk_count` row-aligned chunks on the worker pool.  Rows
//! never straddle a chunk, so both produce the same bits.
//!
//! Per-chunk scratch and the panel stage live in a caller-owned
//! [`SpmvWorkspace`], so a solver iterating these kernels performs **zero
//! heap allocations** after the first call warms the workspace (a serial
//! single-vector product, with nothing to stage, allocates nothing at all).

use crate::error::AbftError;
use crate::protected_matrix::ProtectedMatrix;
use crate::protected_vector::{GroupCodec, ProtectedVector, ACC_BLOCK};
use crate::report::FaultLog;
use crate::schemes::EccScheme;
use abft_sparse::Vector;

/// Borrowed storage view of a dense source, letting the SpMV kernels
/// monomorphize one tight inner loop per storage kind.
#[derive(Debug, Clone, Copy)]
pub enum DenseView<'a> {
    /// Plain `f64` storage.
    Slice(&'a [f64]),
    /// Raw 64-bit words whose reserved redundancy bits are cleared by an
    /// AND-mask on every read (a scrubbed [`ProtectedVector`]).
    MaskedWords {
        /// The logical elements as raw bit patterns.
        words: &'a [u64],
        /// AND-mask clearing the reserved bits.
        mask: u64,
    },
}

/// Read-only access to a dense vector, abstracting over plain storage and the
/// masked reads of a [`ProtectedVector`].
pub trait DenseSource {
    /// Number of elements.
    fn length(&self) -> usize;
    /// The storage view the kernels read through.
    fn view(&self) -> DenseView<'_>;
}

impl DenseSource for [f64] {
    #[inline]
    fn length(&self) -> usize {
        self.len()
    }
    #[inline]
    fn view(&self) -> DenseView<'_> {
        DenseView::Slice(self)
    }
}

impl DenseSource for Vec<f64> {
    #[inline]
    fn length(&self) -> usize {
        self.len()
    }
    #[inline]
    fn view(&self) -> DenseView<'_> {
        DenseView::Slice(self)
    }
}

impl DenseSource for Vector {
    #[inline]
    fn length(&self) -> usize {
        self.len()
    }
    #[inline]
    fn view(&self) -> DenseView<'_> {
        DenseView::Slice(self.as_slice())
    }
}

impl DenseSource for ProtectedVector {
    #[inline]
    fn length(&self) -> usize {
        self.len()
    }
    #[inline]
    fn view(&self) -> DenseView<'_> {
        let (words, mask) = self.masked_words();
        DenseView::MaskedWords { words, mask }
    }
}

/// Bounds-checked element access the monomorphized kernels read `x` through.
/// The single `Option` check per access *is* the paper's range check — no
/// separate assert, no double indexing.
pub(crate) trait XRead: Copy {
    /// Number of readable elements.
    fn len(&self) -> usize;
    /// Element `i`, or `None` when `i` is out of range (a corrupted column
    /// index pointing outside the vector).
    fn get(&self, i: usize) -> Option<f64>;
}

/// Plain-slice reader.
#[derive(Clone, Copy)]
pub(crate) struct SliceX<'a>(pub(crate) &'a [f64]);

impl XRead for SliceX<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn get(&self, i: usize) -> Option<f64> {
        self.0.get(i).copied()
    }
}

/// Masked raw-word reader: one load, one AND, mask in a register.
#[derive(Clone, Copy)]
pub(crate) struct MaskedX<'a> {
    pub(crate) words: &'a [u64],
    pub(crate) mask: u64,
}

impl XRead for MaskedX<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.words.len()
    }
    #[inline(always)]
    fn get(&self, i: usize) -> Option<f64> {
        self.words.get(i).map(|&w| f64::from_bits(w & self.mask))
    }
}

/// Maximum number of right-hand sides a multi-RHS panel may carry.
///
/// The SpMM kernels accumulate one stack slot per column, so the bound keeps
/// per-row state in registers / L1 and lets the interleaved input panel
/// hold one fixed-size array per vector element.  Eight is where the
/// per-RHS matrix verify cost has already dropped below the
/// memory-bandwidth noise floor.
pub const MAX_PANEL_WIDTH: usize = 8;

/// The input of the multi-RHS range kernels: a width-`k` panel of vectors
/// interleaved row-major, `xp[col][j]` element `col` of column `j` (the
/// flat `xp[col * MAX_PANEL_WIDTH + j]`), so one matrix element reads its
/// `k` inputs from one cache line instead of from `k` separate vectors.
/// Slots `j >= k` are zero.  The entry points fill it once per call, row by
/// row from the certified (masked) words, into their workspace.
#[derive(Debug, Clone, Copy)]
pub struct InterleavedX<'a> {
    pub(crate) xp: &'a [[f64; MAX_PANEL_WIDTH]],
    pub(crate) width: usize,
}

impl<'a> InterleavedX<'a> {
    /// Wraps an interleaved panel of `width` columns, one row per vector
    /// element.
    ///
    /// # Panics
    /// Panics unless `width` is in `1..=MAX_PANEL_WIDTH`.
    pub fn new(xp: &'a [[f64; MAX_PANEL_WIDTH]], width: usize) -> Self {
        assert!(
            (1..=MAX_PANEL_WIDTH).contains(&width),
            "interleaved panel width {width} outside 1..={MAX_PANEL_WIDTH}"
        );
        InterleavedX { xp, width }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Reusable scratch storage for the SpMV and SpMM kernels, owned by the
/// solver state so iterations perform no heap allocations after setup.
///
/// One workspace serves every kernel shape: the staging buffer of the
/// multi-RHS products (a row-major `rows × k` panel, `products[row * k +
/// col]`), the interleaved input panel of the SpMM ([`InterleavedX`]) and
/// one `ChunkScratch` per chunk (a serial call is chunk 0).  The streamed
/// single-vector products stage their rows on the stack.  Buffers grow on
/// first use and are reused verbatim afterwards.
#[derive(Debug, Default, Clone)]
pub struct SpmvWorkspace {
    /// Panel products before group encoding.
    pub(crate) products: Vec<f64>,
    /// The SpMM input panel, one row per input-vector element.
    panel: Vec<[f64; MAX_PANEL_WIDTH]>,
    /// CRC row-codeword bytes of a serial streamed product, apart from the
    /// chunk scratch so that such a product sizes nothing.
    scratch: Vec<u8>,
    /// Per-chunk scratch of the range kernels.
    pub(crate) chunks: Vec<ChunkScratch>,
}

/// One chunk's scratch: the CRC row-codeword bytes of its range kernels and
/// the per-block `x · y` partials of a parallel streamed product.
#[derive(Debug, Default, Clone)]
pub(crate) struct ChunkScratch {
    bytes: Vec<u8>,
    partials: Vec<f64>,
}

/// The workspace of the multi-RHS kernels: the same buffers, the product
/// staging holding a panel.
pub type SpmmWorkspace = SpmvWorkspace;

impl SpmvWorkspace {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// kernel invocation.
    pub fn new() -> Self {
        SpmvWorkspace::default()
    }
}

/// The first `len` product slots, grown on first use.
fn product_slots(products: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if products.len() < len {
        products.resize(len, 0.0);
    }
    &mut products[..len]
}

/// The first `n` chunk scratches, grown on first use.
fn chunk_states(chunks: &mut Vec<ChunkScratch>, n: usize) -> &mut [ChunkScratch] {
    if chunks.len() < n {
        chunks.resize_with(n, ChunkScratch::default);
    }
    &mut chunks[..n]
}

/// The row-range driver every protected SpMV and SpMM runs through:
/// `kernel(row0, rows, scratch)` fills `out` (`stride` slots per matrix row,
/// so no chunk splits a panel row) as one chunk on the caller, or — when
/// the matrix is configured parallel — as `rayon::chunk_count` row-aligned
/// chunks on the worker pool, chunk `c` staging its CRC row codewords in
/// `chunks[c]`.
fn drive_rows<A: ProtectedMatrix + ?Sized>(
    a: &A,
    out: &mut [f64],
    stride: usize,
    chunks: &mut Vec<ChunkScratch>,
    kernel: impl Fn(usize, &mut [f64], &mut Vec<u8>) -> Result<(), AbftError> + Sync,
) -> Result<(), AbftError> {
    let n_chunks = if a.config().parallel {
        rayon::chunk_count(out.len())
    } else {
        1
    };
    let states = chunk_states(chunks, n_chunks);
    rayon::with_chunks_mut_strided(out, states, stride, |offset, rows, state| {
        kernel(offset / stride, rows, &mut state.bytes)
    })
}

/// `y = A x` over a prepared view, through [`drive_rows`].
pub(crate) fn spmv_rows<A: ProtectedMatrix + ?Sized>(
    a: &A,
    x: DenseView<'_>,
    y: &mut [f64],
    check: bool,
    log: &FaultLog,
    chunks: &mut Vec<ChunkScratch>,
) -> Result<(), AbftError> {
    drive_rows(a, y, 1, chunks, |row0, rows, scratch| {
        a.spmv_range_view(row0, x, rows, check, scratch, log)
    })
}

/// Certifies `x` for one kernel invocation and returns the masked words
/// and read mask the kernels then read it through.  A clean vector is
/// certified — and, with the erasure tier, cross-checked against its stripe
/// parity — by one barrier sweep without decoding any group; anything else
/// takes the scrub (checked, and repaired if a correctable flip is found)
/// after the parity repair.
///
/// Parity first: an erased chunk whose garbage mimics correctable noise
/// would be silently miscorrected by the scrub — and the schemes are linear,
/// so afterwards the stripe evidence can no longer single out the culprit.
/// The repair rebuilds any convicted chunk before the scrub runs (a no-op
/// without the tier).
fn scrubbed_words<'a>(
    x: &'a mut ProtectedVector,
    log: &FaultLog,
) -> Result<(&'a [u64], u64), AbftError> {
    if x.scheme() != EccScheme::None && !x.barrier_sweep(log) {
        x.repair_parity(log)?;
        x.scrub(log)?;
    }
    Ok(x.masked_words())
}

/// `x · y` over masked words and the values `y` is about to store, summed
/// per [`ACC_BLOCK`] elements and the block partials folded in order —
/// bitwise [`ProtectedVector::dot_masked`] of the certified input and the
/// written output, without reading (or checking) either again.  A
/// rectangular product sums over the shorter of the two.
fn masked_dot((x, x_mask): (&[u64], u64), y: &[f64], y_mask: u64) -> f64 {
    let mut total = 0.0;
    for (x, y) in x.chunks(ACC_BLOCK).zip(y.chunks(ACC_BLOCK)) {
        total += block_dot(x, x_mask, y, y_mask);
    }
    total
}

/// One block's partial of [`masked_dot`], over the shorter of `x` and `y`.
#[inline]
fn block_dot(x: &[u64], x_mask: u64, y: &[f64], y_mask: u64) -> f64 {
    let mut block = 0.0;
    for (&w, &v) in x.iter().zip(y) {
        block += f64::from_bits(w & x_mask) * f64::from_bits(v.to_bits() & y_mask);
    }
    block
}

/// One streamed single-vector product: what every block of
/// [`spmv_encode`] needs besides its slice of `y`'s storage.
struct RowStream<'a, A: ?Sized> {
    a: &'a A,
    /// The certified input, as masked words and their read mask.
    x: (&'a [u64], u64),
    check: bool,
    log: &'a FaultLog,
    /// `y`'s codec, which also carries its read mask.
    codec: GroupCodec,
    /// `y`'s logical length.
    rows: usize,
    /// Elements the `x · y` dot sums over: the shorter side, or none.
    dot_len: usize,
}

impl<A: ProtectedMatrix + ?Sized> RowStream<'_, A> {
    /// Streams the rows behind the storage words `offset..offset +
    /// out.len()` of `y` (`offset` on an [`ACC_BLOCK`] boundary): each
    /// block's products are computed into a stack stage, encoded into
    /// `out`, and the block's `x · y` partial handed to `partial` — in
    /// block order, exactly [`masked_dot`]'s blocks.  A matrix fault
    /// returns at once, the blocks before it already stored.
    fn run(
        &self,
        offset: usize,
        out: &mut [u64],
        scratch: &mut Vec<u8>,
        mut partial: impl FnMut(f64),
    ) -> Result<(), AbftError> {
        let (words, mask) = self.x;
        let xv = DenseView::MaskedWords { words, mask };
        let mut stage = [0.0f64; ACC_BLOCK];
        for (b, block) in out.chunks_mut(ACC_BLOCK).enumerate() {
            let at = offset + b * ACC_BLOCK;
            let stage = &mut stage[..block.len()];
            let (products, padding) = stage.split_at_mut(block.len().min(self.rows - at));
            self.a
                .spmv_range_view(at, xv, products, self.check, scratch, self.log)?;
            padding.fill(0.0);
            self.codec.encode_run(stage, block);
            if at < self.dot_len {
                let x = &words[at..self.dot_len.min(at + ACC_BLOCK)];
                partial(block_dot(x, mask, stage, self.codec.mask));
            }
        }
        Ok(())
    }
}

/// `y = A x` with both the matrix and the vectors protected.
///
/// The input vector is scrubbed (checked, and repaired if a correctable flip
/// is found) once up front — a clean vector is certified by one batched
/// SIMD predicate without decoding any group; row products are then
/// computed through the masked raw-slice fast path into the workspace (on
/// the worker pool when the matrix is configured parallel) and the output
/// vector is rebuilt group by group.
///
/// ```
/// use abft_core::spmv::protected_spmv;
/// use abft_core::{EccScheme, FaultLog, ProtectedCsr, ProtectedVector,
///                 ProtectionConfig, SpmvWorkspace};
/// use abft_ecc::Crc32cBackend;
/// use abft_sparse::CsrMatrix;
///
/// // y = A x for a tiny 2×2 operator, fully protected with SECDED64.
/// let m = CsrMatrix::try_new(2, 2, vec![2.0, 1.0, 3.0], vec![0, 1, 1],
///                            vec![0, 2, 3])?;
/// let cfg = ProtectionConfig::full(EccScheme::Secded64);
/// let a = ProtectedCsr::from_csr(&m, &cfg)?;
/// let mut x = ProtectedVector::from_slice(&[1.0, 10.0], EccScheme::Secded64,
///                                         Crc32cBackend::Auto);
/// let mut y = ProtectedVector::zeros(2, EccScheme::Secded64, Crc32cBackend::Auto);
/// let log = FaultLog::new();
/// let mut ws = SpmvWorkspace::new();
/// protected_spmv(&a, &mut x, &mut y, 0, &log, &mut ws)?;
/// assert!((y.get(0) - 12.0).abs() < 1e-9); // 2·1 + 1·10
/// assert!((y.get(1) - 30.0).abs() < 1e-9); // 3·10
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn protected_spmv<A: ProtectedMatrix + ?Sized>(
    a: &A,
    x: &mut ProtectedVector,
    y: &mut ProtectedVector,
    iteration: u64,
    log: &FaultLog,
    ws: &mut SpmvWorkspace,
) -> Result<(), AbftError> {
    spmv_encode(a, x, y, iteration, log, ws, false).map(drop)
}

/// [`protected_spmv`] that also returns `x · y` — CG's `p · Ap`.  The dot
/// is summed from the certified input and the staged products in
/// [`ProtectedVector::dot_masked`]'s order, so for a square `A` it is
/// bitwise that dot product, without re-verifying either vector.
///
/// ```
/// use abft_core::spmv::protected_spmv_dot;
/// use abft_core::{EccScheme, FaultLog, ProtectedCsr, ProtectedVector,
///                 ProtectionConfig, SpmvWorkspace};
/// use abft_ecc::Crc32cBackend;
/// use abft_sparse::CsrMatrix;
///
/// let m = CsrMatrix::try_new(2, 2, vec![2.0, 1.0, 3.0], vec![0, 1, 1],
///                            vec![0, 2, 3])?;
/// let a = ProtectedCsr::from_csr(&m, &ProtectionConfig::full(EccScheme::Secded64))?;
/// let mut x = ProtectedVector::from_slice(&[1.0, 10.0], EccScheme::Secded64,
///                                         Crc32cBackend::Auto);
/// let mut y = ProtectedVector::zeros(2, EccScheme::Secded64, Crc32cBackend::Auto);
/// let log = FaultLog::new();
/// let xy = protected_spmv_dot(&a, &mut x, &mut y, 0, &log, &mut SpmvWorkspace::new())?;
/// assert_eq!(xy, x.dot_masked(&y, &log)?); // 1·12 + 10·30
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn protected_spmv_dot<A: ProtectedMatrix + ?Sized>(
    a: &A,
    x: &mut ProtectedVector,
    y: &mut ProtectedVector,
    iteration: u64,
    log: &FaultLog,
    ws: &mut SpmvWorkspace,
) -> Result<f64, AbftError> {
    spmv_encode(a, x, y, iteration, log, ws, true)
}

/// The body of [`protected_spmv`] and [`protected_spmv_dot`]; the dot is
/// summed only when `with_dot`.  `y` is streamed a [`RowStream`] block at
/// a time, serially or — when the matrix is configured parallel — in
/// block-aligned chunks on the pool whose block partials are folded in
/// block order afterwards, the same bits either way.  `y`'s parity tier is
/// refreshed on the error path too, so a matrix fault leaves every stripe
/// matching the blocks already stored.
fn spmv_encode<A: ProtectedMatrix + ?Sized>(
    a: &A,
    x: &mut ProtectedVector,
    y: &mut ProtectedVector,
    iteration: u64,
    log: &FaultLog,
    ws: &mut SpmvWorkspace,
    with_dot: bool,
) -> Result<f64, AbftError> {
    assert_eq!(x.len(), a.cols(), "protected_spmv: x has wrong length");
    assert_eq!(y.len(), a.rows(), "protected_spmv: y has wrong length");
    let (words, mask) = scrubbed_words(x, log)?;
    let stream = RowStream {
        a,
        x: (words, mask),
        check: a.policy().should_check(iteration),
        log,
        codec: y.codec(),
        rows: y.len(),
        dot_len: if with_dot {
            words.len().min(y.len())
        } else {
            0
        },
    };
    let n_chunks = if a.config().parallel {
        rayon::chunk_count(y.data.len())
    } else {
        1
    };
    let mut total = 0.0;
    let result = if n_chunks == 1 {
        stream.run(0, &mut y.data, &mut ws.scratch, |p| total += p)
    } else {
        let states = chunk_states(&mut ws.chunks, n_chunks);
        for state in states.iter_mut() {
            state.partials.clear();
        }
        let result =
            rayon::with_chunks_mut_strided(&mut y.data, states, ACC_BLOCK, |offset, out, state| {
                let partials = &mut state.partials;
                stream.run(offset, out, &mut state.bytes, |p| partials.push(p))
            });
        for p in states.iter().flat_map(|state| &state.partials) {
            total += p;
        }
        result
    };
    y.parity_commit();
    result.map(|()| total)
}

/// Fills `panel[..cols]` row by row: `panel[i][j]` is element `i` of
/// column `j` read through `read(column j's word, j)`, slots past the
/// panel's width zero.
fn interleave<T: Copy>(
    panel: &mut [[f64; MAX_PANEL_WIDTH]],
    columns: &[&[T]],
    read: impl Fn(T, usize) -> f64,
) {
    let width = columns.len();
    for (i, row) in panel.iter_mut().enumerate() {
        for (j, (slot, column)) in row.iter_mut().zip(columns).enumerate() {
            *slot = read(column[i], j);
        }
        row[width..].fill(0.0);
    }
}

/// Runs a prepared view panel through the range kernels and
/// [`drive_rows`], leaving the row-major product panel in the workspace.
/// One column takes the single-vector sink straight off its view; a wider
/// panel is first interleaved into the workspace ([`InterleavedX`]), its
/// views uniform — all plain or all masked.  Matrix-side checks and faults
/// go to `log`.
fn spmm_rows<A: ProtectedMatrix + ?Sized>(
    a: &A,
    views: &[DenseView<'_>],
    check: bool,
    log: &FaultLog,
    ws: &mut SpmmWorkspace,
) -> Result<(), AbftError> {
    let width = views.len();
    if width == 1 {
        let products = product_slots(&mut ws.products, a.rows());
        return spmv_rows(a, views[0], products, check, log, &mut ws.chunks);
    }
    let cols = a.cols();
    if ws.panel.len() < cols {
        ws.panel.resize(cols, [0.0; MAX_PANEL_WIDTH]);
    }
    let panel = &mut ws.panel[..cols];
    if let DenseView::Slice(_) = views[0] {
        let mut columns = [&[][..]; MAX_PANEL_WIDTH];
        for (column, view) in columns.iter_mut().zip(views) {
            let DenseView::Slice(s) = *view else {
                panic!("spmm: a panel mixes plain and masked columns")
            };
            *column = s;
        }
        interleave(panel, &columns[..width], |v, _| v);
    } else {
        let (mut columns, mut masks) = ([&[][..]; MAX_PANEL_WIDTH], [0u64; MAX_PANEL_WIDTH]);
        for ((column, m), view) in columns.iter_mut().zip(&mut masks).zip(views) {
            let DenseView::MaskedWords { words, mask } = *view else {
                panic!("spmm: a panel mixes plain and masked columns")
            };
            (*column, *m) = (words, mask);
        }
        interleave(panel, &columns[..width], |w, j| {
            f64::from_bits(w & masks[j])
        });
    }
    let xp = InterleavedX::new(&ws.panel[..cols], width);
    let products = product_slots(&mut ws.products, a.rows() * width);
    drive_rows(a, products, width, &mut ws.chunks, |row0, rows, scratch| {
        a.spmm_range_view(row0, xp, rows, check, scratch, log)
    })
}

/// `ys[j] = A xs[j]` for a panel of plain vectors over a protected matrix —
/// the multi-RHS entry point of the matrix-protected tier.
///
/// Each matrix codeword group is verified once for the whole panel, so the
/// per-RHS matrix verify cost scales as `1/k`; column `j`'s output is
/// bitwise identical to a single-vector SpMV of `xs[j]`.
pub fn protected_spmm_plain<A: ProtectedMatrix + ?Sized>(
    a: &A,
    xs: &[&[f64]],
    ys: &mut [&mut [f64]],
    iteration: u64,
    log: &FaultLog,
    ws: &mut SpmmWorkspace,
) -> Result<(), AbftError> {
    let width = xs.len();
    assert!(
        (1..=MAX_PANEL_WIDTH).contains(&width),
        "protected_spmm_plain: panel width {width} outside 1..={MAX_PANEL_WIDTH}"
    );
    assert_eq!(
        ys.len(),
        width,
        "protected_spmm_plain: xs/ys width mismatch"
    );
    for x in xs {
        assert_eq!(
            x.len(),
            a.cols(),
            "protected_spmm_plain: x has wrong length"
        );
    }
    for y in ys.iter() {
        assert_eq!(
            y.len(),
            a.rows(),
            "protected_spmm_plain: y has wrong length"
        );
    }
    let check = a.policy().should_check(iteration);
    let mut views = [DenseView::Slice(&[][..]); MAX_PANEL_WIDTH];
    for (slot, x) in views.iter_mut().zip(xs) {
        *slot = DenseView::Slice(x);
    }
    spmm_rows(a, &views[..width], check, log, ws)?;
    let panel = &ws.products[..a.rows() * width];
    for (j, y) in ys.iter_mut().enumerate() {
        for (row, yi) in y.iter_mut().enumerate() {
            *yi = panel[row * width + j];
        }
    }
    Ok(())
}

/// `ys[j] = A xs[j]` for a panel of protected vectors over a protected
/// matrix — the fully protected multi-RHS kernel.
///
/// Vector-side integrity is per column: each `xs[j]` is scrubbed once into
/// its own `col_logs[j]` (exactly the per-invocation scrub of
/// [`protected_spmv`]), and a column whose scrub fails is dropped from the
/// panel with its error stored in `col_errors[j]` — the other columns
/// proceed.  The survivors are interleaved into one input panel in the
/// workspace, so the matrix traversal reads all of them per element from
/// one cache line.  Matrix-side checks and faults go to `matrix_log`; a
/// matrix fault aborts the whole panel with `Err` (every surviving column
/// read the same corrupt structure).  Columns whose `col_errors` slot is
/// already `Some` on entry are skipped.
#[allow(clippy::too_many_arguments)]
pub fn protected_spmm<A: ProtectedMatrix + ?Sized>(
    a: &A,
    xs: &mut [&mut ProtectedVector],
    ys: &mut [&mut ProtectedVector],
    iteration: u64,
    col_logs: &[&FaultLog],
    matrix_log: &FaultLog,
    col_errors: &mut [Option<AbftError>],
    ws: &mut SpmmWorkspace,
) -> Result<(), AbftError> {
    spmm_encode(
        a, xs, ys, iteration, col_logs, matrix_log, col_errors, ws, false,
    )
    .map(drop)
}

/// [`protected_spmm`] that also returns `xs[j] · ys[j]` for every column it
/// computed (0.0 for the others) — block CG's `p · Ap`, each bitwise what
/// [`protected_spmv_dot`] returns for that column.
#[allow(clippy::too_many_arguments)]
pub fn protected_spmm_dot<A: ProtectedMatrix + ?Sized>(
    a: &A,
    xs: &mut [&mut ProtectedVector],
    ys: &mut [&mut ProtectedVector],
    iteration: u64,
    col_logs: &[&FaultLog],
    matrix_log: &FaultLog,
    col_errors: &mut [Option<AbftError>],
    ws: &mut SpmmWorkspace,
) -> Result<[f64; MAX_PANEL_WIDTH], AbftError> {
    spmm_encode(
        a, xs, ys, iteration, col_logs, matrix_log, col_errors, ws, true,
    )
}

/// The body of [`protected_spmm`] and [`protected_spmm_dot`]; the dots are
/// summed only when `with_dots`.
#[allow(clippy::too_many_arguments)]
fn spmm_encode<A: ProtectedMatrix + ?Sized>(
    a: &A,
    xs: &mut [&mut ProtectedVector],
    ys: &mut [&mut ProtectedVector],
    iteration: u64,
    col_logs: &[&FaultLog],
    matrix_log: &FaultLog,
    col_errors: &mut [Option<AbftError>],
    ws: &mut SpmmWorkspace,
    with_dots: bool,
) -> Result<[f64; MAX_PANEL_WIDTH], AbftError> {
    let width = xs.len();
    assert!(
        (1..=MAX_PANEL_WIDTH).contains(&width),
        "protected_spmm: panel width {width} outside 1..={MAX_PANEL_WIDTH}"
    );
    assert_eq!(ys.len(), width, "protected_spmm: xs/ys width mismatch");
    assert_eq!(
        col_logs.len(),
        width,
        "protected_spmm: col_logs width mismatch"
    );
    assert_eq!(
        col_errors.len(),
        width,
        "protected_spmm: col_errors width mismatch"
    );
    for x in xs.iter() {
        assert_eq!(x.len(), a.cols(), "protected_spmm: x has wrong length");
    }
    for y in ys.iter() {
        assert_eq!(y.len(), a.rows(), "protected_spmm: y has wrong length");
    }
    // Per-column scrub, each into its own tenant log (exactly the
    // per-invocation certification of `protected_spmv`); a failing column is
    // isolated, not panel-fatal, and the survivors are compacted into a
    // fixed-size view panel.
    let mut inputs = [(&[][..], 0u64); MAX_PANEL_WIDTH];
    let mut views = [DenseView::Slice(&[][..]); MAX_PANEL_WIDTH];
    let mut positions = [0usize; MAX_PANEL_WIDTH];
    let mut live = 0usize;
    for (j, x) in xs.iter_mut().enumerate() {
        if col_errors[j].is_some() {
            continue;
        }
        match scrubbed_words(x, col_logs[j]) {
            Ok((words, mask)) => {
                inputs[live] = (words, mask);
                views[live] = DenseView::MaskedWords { words, mask };
                positions[live] = j;
                live += 1;
            }
            Err(e) => col_errors[j] = Some(e),
        }
    }
    let mut dots = [0.0; MAX_PANEL_WIDTH];
    if live == 0 {
        return Ok(dots);
    }
    let check = a.policy().should_check(iteration);
    spmm_rows(a, &views[..live], check, matrix_log, ws)?;
    let products = &ws.products[..a.rows() * live];
    if live == 1 {
        let j = positions[0];
        ys[j].fill_from_fn(|row| products[row]);
        if with_dots {
            dots[j] = masked_dot(inputs[0], products, ys[j].read_mask);
        }
        return Ok(dots);
    }
    if with_dots {
        let mut y_masks = [0u64; MAX_PANEL_WIDTH];
        for (mask, &j) in y_masks.iter_mut().zip(&positions[..live]) {
            *mask = ys[j].read_mask;
        }
        let panel_dots = panel_dots(&ws.panel[..a.cols()], products, live, &y_masks);
        for (pos, &j) in positions[..live].iter().enumerate() {
            dots[j] = panel_dots[pos];
        }
    }
    for (pos, &j) in positions[..live].iter().enumerate() {
        ys[j].fill_from_fn(|row| products[row * live + pos]);
    }
    Ok(dots)
}

/// `x_j · y_j` for every column of a panel product — `xp` the interleaved
/// (masked) inputs, `products` the row-major outputs before encoding —
/// bitwise what [`masked_dot`] returns column by column: lane `j` adds its
/// products element by element per [`ACC_BLOCK`] block and folds the block
/// partials in order, the lanes side by side instead of one after another.
fn panel_dots(
    xp: &[[f64; MAX_PANEL_WIDTH]],
    products: &[f64],
    width: usize,
    y_masks: &[u64; MAX_PANEL_WIDTH],
) -> [f64; MAX_PANEL_WIDTH] {
    let (mut total, mut block) = ([0.0; MAX_PANEL_WIDTH], [0.0; MAX_PANEL_WIDTH]);
    for (i, (x, y)) in xp.iter().zip(products.chunks_exact(width)).enumerate() {
        if i % ACC_BLOCK == 0 {
            for (t, b) in total.iter_mut().zip(&mut block) {
                *t += std::mem::take(b);
            }
        }
        for (j, (b, &v)) in block.iter_mut().zip(y).enumerate() {
            *b += x[j] * f64::from_bits(v.to_bits() & y_masks[j]);
        }
    }
    for (t, b) in total.iter_mut().zip(block) {
        *t += b;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protected_csr::ProtectedCsr;
    use crate::schemes::ProtectionConfig;
    use abft_ecc::Crc32cBackend;
    use abft_sparse::builders::poisson_2d_padded;

    fn full_config(scheme: EccScheme) -> ProtectionConfig {
        ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16)
    }

    fn setup(scheme: EccScheme) -> (ProtectedCsr, ProtectedVector, ProtectedVector, Vec<f64>) {
        let m = poisson_2d_padded(9, 7);
        let cfg = full_config(scheme);
        let a = ProtectedCsr::from_csr(&m, &cfg).unwrap();
        let x_plain: Vec<f64> = (0..m.cols())
            .map(|i| (i as f64 * 0.11).sin() + 2.0)
            .collect();
        let x = ProtectedVector::from_slice(&x_plain, scheme, cfg.crc_backend);
        let y = ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend);
        // Reference computed with the *masked* x (what the protected kernel sees).
        let x_masked: Vec<f64> = (0..x.len()).map(|i| x.get(i)).collect();
        let mut reference = vec![0.0; m.rows()];
        abft_sparse::spmv::spmv_serial(&m, &x_masked, &mut reference);
        (a, x, y, reference)
    }

    #[test]
    fn fully_protected_spmv_matches_reference() {
        for scheme in [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ] {
            let (a, mut x, mut y, reference) = setup(scheme);
            let log = FaultLog::new();
            let mut ws = SpmvWorkspace::new();
            protected_spmv(&a, &mut x, &mut y, 0, &log, &mut ws).unwrap();
            for (row, &expect) in reference.iter().enumerate() {
                let got = y.get(row);
                let tol = 1e-12 * expect.abs().max(1.0);
                assert!(
                    (got - expect).abs() <= tol.max(1e-10),
                    "{scheme:?} row {row}: {got} vs {expect}"
                );
            }
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);

            // A parallel-configured matrix agrees with the serial one.
            let m = poisson_2d_padded(9, 7);
            let par = ProtectedCsr::from_csr(&m, &full_config(scheme).with_parallel(true)).unwrap();
            let mut y2 = ProtectedVector::zeros(a.rows(), scheme, Crc32cBackend::SlicingBy16);
            protected_spmv(&par, &mut x, &mut y2, 0, &log, &mut ws).unwrap();
            assert_eq!(y.raw(), y2.raw(), "{scheme:?}");
        }
    }

    #[test]
    fn corrupted_input_vector_is_repaired_before_use() {
        let (a, mut x, mut y, reference) = setup(EccScheme::Secded64);
        x.inject_bit_flip(10, 33);
        let log = FaultLog::new();
        let mut ws = SpmvWorkspace::new();
        protected_spmv(&a, &mut x, &mut y, 0, &log, &mut ws).unwrap();
        assert!(log.total_corrected() > 0);
        for (row, &expect) in reference.iter().enumerate() {
            assert!((y.get(row) - expect).abs() <= 1e-10 + 1e-12 * expect.abs());
        }
    }

    #[test]
    fn uncorrectable_input_vector_aborts() {
        let (a, mut x, mut y, _) = setup(EccScheme::Sed);
        x.inject_bit_flip(4, 50);
        let log = FaultLog::new();
        let mut ws = SpmvWorkspace::new();
        assert!(protected_spmv(&a, &mut x, &mut y, 0, &log, &mut ws).is_err());
        assert!(log.total_uncorrectable() > 0);
    }

    #[test]
    fn auto_dispatch_follows_config() {
        let m = poisson_2d_padded(6, 6);
        let cfg = full_config(EccScheme::Crc32c).with_parallel(true);
        let a = ProtectedCsr::from_csr(&m, &cfg).unwrap();
        let mut x = ProtectedVector::from_slice(
            &vec![1.0; m.cols()],
            EccScheme::Crc32c,
            Crc32cBackend::SlicingBy16,
        );
        let mut y = ProtectedVector::zeros(m.rows(), EccScheme::Crc32c, Crc32cBackend::SlicingBy16);
        let log = FaultLog::new();
        let mut ws = SpmvWorkspace::new();
        protected_spmv(&a, &mut x, &mut y, 0, &log, &mut ws).unwrap();
        // Row sums of the padded Poisson operator are reproduced.
        let ones = vec![1.0; m.cols()];
        let mut reference = vec![0.0; m.rows()];
        abft_sparse::spmv::spmv_serial(&m, &ones, &mut reference);
        for (row, expect) in reference.iter().enumerate() {
            assert!((y.get(row) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn workspace_buffers_are_reused_between_calls() {
        let (a, mut x, mut y, _) = setup(EccScheme::Crc32c);
        let log = FaultLog::new();
        let mut ws = SpmvWorkspace::new();
        // The streamed single-vector product stages on the stack: clean
        // serial calls size nothing.
        for iteration in 0..3 {
            protected_spmv(&a, &mut x, &mut y, iteration, &log, &mut ws).unwrap();
        }
        assert_eq!(ws.products.capacity(), 0);
        assert!(ws.chunks.is_empty());
        // A panel sizes its stage and chunk scratch once.
        let xs = [vec![1.0; a.cols()], vec![2.0; a.cols()]];
        let mut ys = [vec![0.0; a.rows()], vec![0.0; a.rows()]];
        let mut panel = |ws: &mut SpmvWorkspace, iteration| {
            let [y0, y1] = &mut ys;
            let xs = [&xs[0][..], &xs[1][..]];
            protected_spmm_plain(&a, &xs, &mut [y0, y1], iteration, &log, ws).unwrap();
        };
        panel(&mut ws, 0);
        let products_ptr = ws.products.as_ptr();
        let products_cap = ws.products.capacity();
        assert!(products_cap >= 2 * a.rows());
        for iteration in 1..10 {
            panel(&mut ws, iteration);
        }
        // The staging buffers were neither reallocated nor grown.
        assert_eq!(ws.products.as_ptr(), products_ptr);
        assert_eq!(ws.products.capacity(), products_cap);
        assert_eq!(ws.chunks.len(), 1);
    }

    #[test]
    fn spmm_columns_match_independent_spmvs_bitwise() {
        for scheme in [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ] {
            let m = poisson_2d_padded(9, 7);
            let cfg = full_config(scheme);
            let a = ProtectedCsr::from_csr(&m, &cfg).unwrap();
            for width in [1usize, 2, 3, 8] {
                let mut xs: Vec<ProtectedVector> = (0..width)
                    .map(|j| {
                        let plain: Vec<f64> = (0..m.cols())
                            .map(|i| ((i + 7 * j) as f64 * 0.13).cos() + 1.5)
                            .collect();
                        ProtectedVector::from_slice(&plain, scheme, cfg.crc_backend)
                    })
                    .collect();
                // Reference: k independent single-vector SpMVs.
                let mut refs = Vec::new();
                for x in &mut xs {
                    let mut y = ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend);
                    let log = FaultLog::new();
                    let mut ws = SpmvWorkspace::new();
                    protected_spmv(&a, x, &mut y, 0, &log, &mut ws).unwrap();
                    refs.push(y);
                }
                // Panel product.
                let mut ys: Vec<ProtectedVector> = (0..width)
                    .map(|_| ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend))
                    .collect();
                let col_logs: Vec<FaultLog> = (0..width).map(|_| FaultLog::new()).collect();
                let matrix_log = FaultLog::new();
                let mut col_errors = vec![None; width];
                let mut ws = SpmmWorkspace::new();
                {
                    let mut xr: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
                    let mut yr: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
                    let lr: Vec<&FaultLog> = col_logs.iter().collect();
                    protected_spmm(
                        &a,
                        &mut xr,
                        &mut yr,
                        0,
                        &lr,
                        &matrix_log,
                        &mut col_errors,
                        &mut ws,
                    )
                    .unwrap();
                }
                assert!(col_errors.iter().all(Option::is_none));
                for (j, reference) in refs.iter().enumerate() {
                    for row in 0..m.rows() {
                        assert_eq!(
                            ys[j].get(row).to_bits(),
                            reference.get(row).to_bits(),
                            "{scheme:?} width {width} col {j} row {row}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spmm_matrix_checks_are_panel_width_invariant() {
        // One traversal's matrix-side check count must not depend on how
        // many RHS ride along — that is the 1/k amortization.
        let m = poisson_2d_padded(9, 7);
        for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
            let cfg = full_config(scheme);
            let a = ProtectedCsr::from_csr(&m, &cfg).unwrap();
            let mut counts = Vec::new();
            for width in [1usize, 2, 4, 8] {
                let mut xs: Vec<ProtectedVector> = (0..width)
                    .map(|_| {
                        ProtectedVector::from_slice(&vec![1.0; m.cols()], scheme, cfg.crc_backend)
                    })
                    .collect();
                let mut ys: Vec<ProtectedVector> = (0..width)
                    .map(|_| ProtectedVector::zeros(m.rows(), scheme, cfg.crc_backend))
                    .collect();
                let col_logs: Vec<FaultLog> = (0..width).map(|_| FaultLog::new()).collect();
                let matrix_log = FaultLog::new();
                let mut col_errors = vec![None; width];
                let mut ws = SpmmWorkspace::new();
                let mut xr: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
                let mut yr: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
                let lr: Vec<&FaultLog> = col_logs.iter().collect();
                protected_spmm(
                    &a,
                    &mut xr,
                    &mut yr,
                    0,
                    &lr,
                    &matrix_log,
                    &mut col_errors,
                    &mut ws,
                )
                .unwrap();
                counts.push(matrix_log.snapshot().total_checks());
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{scheme:?}: matrix checks varied with panel width: {counts:?}"
            );
            assert!(counts[0] > 0, "{scheme:?}: no matrix checks recorded");
        }
    }

    #[test]
    fn spmm_isolates_a_corrupt_column() {
        let m = poisson_2d_padded(9, 7);
        let cfg = full_config(EccScheme::Sed); // SED: any flip is uncorrectable
        let a = ProtectedCsr::from_csr(&m, &cfg).unwrap();
        let width = 3usize;
        let mut xs: Vec<ProtectedVector> = (0..width)
            .map(|_| {
                ProtectedVector::from_slice(&vec![1.0; m.cols()], EccScheme::Sed, cfg.crc_backend)
            })
            .collect();
        xs[1].inject_bit_flip(5, 40);
        let mut ys: Vec<ProtectedVector> = (0..width)
            .map(|_| ProtectedVector::zeros(m.rows(), EccScheme::Sed, cfg.crc_backend))
            .collect();
        let col_logs: Vec<FaultLog> = (0..width).map(|_| FaultLog::new()).collect();
        let matrix_log = FaultLog::new();
        let mut col_errors = vec![None; width];
        let mut ws = SpmmWorkspace::new();
        let mut xr: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
        let mut yr: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
        let lr: Vec<&FaultLog> = col_logs.iter().collect();
        protected_spmm(
            &a,
            &mut xr,
            &mut yr,
            0,
            &lr,
            &matrix_log,
            &mut col_errors,
            &mut ws,
        )
        .unwrap();
        // Column 1 died alone; its fault landed in its own log.
        assert!(col_errors[1].is_some());
        assert!(col_errors[0].is_none() && col_errors[2].is_none());
        assert!(col_logs[1].total_uncorrectable() > 0);
        assert_eq!(col_logs[0].total_uncorrectable(), 0);
        assert_eq!(col_logs[2].total_uncorrectable(), 0);
        // Survivors got their products.
        let ones = vec![1.0; m.cols()];
        let mut reference = vec![0.0; m.rows()];
        abft_sparse::spmv::spmv_serial(&m, &ones, &mut reference);
        for j in [0usize, 2] {
            for (row, &expect) in reference.iter().enumerate() {
                assert!((ys[j].get(row) - expect).abs() < 1e-9, "col {j} row {row}");
            }
        }
    }

    #[test]
    fn dense_source_impls_agree() {
        let data = vec![1.5, -2.25, 3.0];
        let slice: &[f64] = &data;
        let vector = Vector::from_vec(data.clone());
        let protected =
            ProtectedVector::from_slice(&data, EccScheme::None, Crc32cBackend::SlicingBy16);
        assert_eq!(slice.length(), 3);
        assert_eq!(data.length(), 3);
        assert_eq!(vector.length(), 3);
        assert_eq!(protected.length(), 3);
        // Every storage view reads back the stored (masked) values.
        for source in [slice.view(), data.view(), vector.view(), protected.view()] {
            match source {
                DenseView::Slice(s) => assert_eq!(s, &data[..]),
                DenseView::MaskedWords { words, mask } => {
                    assert_eq!(words.len(), 3);
                    for (i, &w) in words.iter().enumerate() {
                        assert_eq!(f64::from_bits(w & mask), protected.get(i));
                    }
                }
            }
        }
    }
}
