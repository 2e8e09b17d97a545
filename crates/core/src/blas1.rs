//! Masked-slice protected BLAS-1 kernels — the §VI-C read-caching argument
//! applied to the *vector* half of a solver iteration.
//!
//! These are the only dense-vector kernels: every [`ProtectedVector`]
//! dot, norm, AXPY, scale, checked read, indexed update and copy is one of
//! the range kernels below.  None decodes a codeword group into a stack
//! buffer element by element, because the ECC math does not require it: a
//! group can be **checked once** (a cheap verify-only predicate, no
//! correction machinery) and, when clean — the overwhelmingly common case —
//! the arithmetic can run straight over the raw `u64` words with the read
//! mask held in a register, exactly like the SpMV fast path.  Every kernel
//! has the same two arms, whatever the scheme: a run that
//! `GroupCodec::run_clean` certifies with one batched predicate is computed
//! with masked loads (and written back a staged run at a time), and only a
//! run that fails it is re-walked group by group through
//! `GroupCodec::read_group`, which takes the correcting decode only for a
//! group that fails its own check.  Two-operand kernels panic on operands
//! of different lengths or schemes.
//!
//! Four further properties, shared by every kernel here:
//!
//! * **Bulk fault accounting** — integrity checks are tallied in a local
//!   counter and flushed to the [`FaultLog`] in one update per call,
//!   mirroring the range kernels; on the worker pool each chunk adds its
//!   local tally to one shared atomic once.  The flush happens on the error
//!   path too, so an aborting fault reports exactly the checks performed.
//! * **Blocked reductions** — the dot-product family accumulates per
//!   [`ACC_BLOCK`] elements and folds the block partials in order, so the
//!   serial and the chunked parallel kernels are **bitwise identical**.
//! * **Fusion** — [`ProtectedVector::dot_axpy_masked`] applies
//!   `self ← self + α·x` and returns the updated `‖self‖²` in a single pass
//!   over each group, so CG's residual update and convergence check touch
//!   every codeword once instead of three times.  Likewise
//!   [`ProtectedVector::scale_axpy_masked`] fuses Chebyshev's
//!   `d ← β·d + α·r` pair and [`ProtectedVector::axpy_xpay_masked`] CG's
//!   `x ← x + α·p; p ← r + β·p`.
//! * **Certify once** — in parity mode a kernel's operands have passed the
//!   barrier's sweep before it runs, and that sweep is their one check:
//!   the range kernels then take the certified arm without a second
//!   predicate or tally.
//!
//! Serial or parallel is the vector's own
//! [`is_parallel`](ProtectedVector::is_parallel) hint, read by the kernel:
//! a parallel vector long enough to split runs as block-aligned chunks on
//! the worker pool, anything else as one chunk on the caller, with the same
//! bits and the same check counts either way.  The elementwise kernels
//! (AXPY, XPAY, scale, the fused scale + AXPY) need no workspace; the three
//! reductions keep a serial body beside one `*_masked_with` form that
//! stages its partial sums in a caller-owned [`ReductionWorkspace`] — the
//! solver backends own one behind a `RefCell`, exactly like the
//! [`SpmvWorkspace`](crate::SpmvWorkspace), so whole protected CG
//! iterations never touch the heap (`tests/zero_alloc.rs` pins both
//! paths).

use crate::error::AbftError;
use crate::protected_vector::{GroupCodec, ProtectedVector, ACC_BLOCK, MAX_GROUP};
use crate::report::{FaultLog, Region};
use crate::schemes::EccScheme;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum storage-word count for the chunked-parallel BLAS-1 variants to
/// engage; shorter vectors take the serial kernels.
///
/// Two blocked-reduction partials (2 × [`ACC_BLOCK`] = 8192 elements,
/// 64 KiB of `f64` storage) are the smallest input a parallel split can
/// cover while keeping every chunk boundary on a block boundary — and below
/// roughly this size the scoped-dispatch fixed cost (announcing the task,
/// waking workers, the completion wait) exceeds the loop it would offload.
pub const PARALLEL_MIN_ELEMENTS: usize = 2 * ACC_BLOCK;

/// Flushes a locally tallied check count in one bulk atomic update.
#[inline]
pub(crate) fn flush_checks(log: &FaultLog, scheme: EccScheme, tally: u64) {
    if scheme != EccScheme::None && tally > 0 {
        log.record_checks(Region::DenseVector, tally);
    }
}

/// Most chunks an elementwise kernel splits into: the fused x/p kernel
/// hands its second mutated operand to the chunks as a stack array of
/// slices.
const MAX_UPDATE_CHUNKS: usize = 64;

/// Number of chunk states, at most [`MAX_UPDATE_CHUNKS`], for a parallel
/// kernel over `n` storage words such that every chunk boundary falls on an
/// [`ACC_BLOCK`] boundary (and hence on a codeword-group boundary).
/// Returns 1 — run serial — when the input is too small or no aligned split
/// exists.
fn block_aligned_chunks(n: usize) -> usize {
    if n < PARALLEL_MIN_ELEMENTS {
        return 1;
    }
    let max = rayon::chunk_count(n).min(MAX_UPDATE_CHUNKS);
    (2..=max)
        .rev()
        .find(|&k| n.div_ceil(k) % ACC_BLOCK == 0)
        .unwrap_or(1)
}

/// Chunk count for the block-partial dot kernels (which chunk the partials
/// buffer, not the data, so no alignment constraint applies).
fn partial_chunks(n_blocks: usize) -> usize {
    rayon::chunk_count(n_blocks * ACC_BLOCK)
        .min(n_blocks)
        .max(1)
}

/// Reusable scratch storage for the chunked-parallel BLAS-1 reductions,
/// owned by the solver backends (behind a `RefCell`, the sibling of
/// [`crate::SpmvWorkspace`]) so parallel reductions reuse preallocated
/// partial slots instead of allocating per call.
///
/// Buffers grow on first use and are reused verbatim afterwards; all
/// contents are transient per kernel invocation (partial slots are
/// rewritten), so one workspace may serve any sequence of kernels on
/// vectors of any length or scheme.
#[derive(Debug, Default, Clone)]
pub struct ReductionWorkspace {
    /// Flat per-[`ACC_BLOCK`]-block partial sums (dot / norm²), folded in
    /// block order after the dispatch.
    partials: Vec<f64>,
    /// Per-chunk block partials of the fused dot + AXPY, which chunks the
    /// mutated storage, not the partials buffer.
    chunk_partials: Vec<Vec<f64>>,
    /// Per-chunk partial sums of the *plain* parallel dot
    /// ([`abft_sparse`] storage), so the unprotected backends share the
    /// allocation-free property.
    plain: Vec<f64>,
}

impl ReductionWorkspace {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// kernel invocation.
    pub fn new() -> Self {
        ReductionWorkspace::default()
    }

    /// Borrows `n_blocks` partial slots.
    fn partials(&mut self, n_blocks: usize) -> &mut [f64] {
        if self.partials.len() < n_blocks {
            self.partials.resize(n_blocks, 0.0);
        }
        &mut self.partials[..n_blocks]
    }

    /// Borrows `n_chunks` empty partial lists, their capacity retained.
    fn chunk_partials(&mut self, n_chunks: usize) -> &mut [Vec<f64>] {
        if self.chunk_partials.len() < n_chunks {
            self.chunk_partials.resize_with(n_chunks, Vec::new);
        }
        let lists = &mut self.chunk_partials[..n_chunks];
        for list in lists.iter_mut() {
            list.clear();
        }
        lists
    }

    /// The plain-path per-chunk partial buffer, handed to
    /// [`abft_sparse::spmv::dot_parallel_with`], which sizes it itself.
    pub fn plain_chunk_buffer(&mut self) -> &mut Vec<f64> {
        &mut self.plain
    }
}

/// Runs `body(offset, chunk, state, tally)` over `data` split into
/// `states.len()` chunks and flushes the checks it tallies in one update.
/// One chunk runs inline with a plain `u64` tally; several run on the
/// worker pool, each adding its local tally to one shared atomic once.
fn run_chunks<T: Send, S: Send>(
    data: &mut [T],
    states: &mut [S],
    log: &FaultLog,
    scheme: EccScheme,
    body: impl Fn(usize, &mut [T], &mut S, &mut u64) -> Result<(), AbftError> + Sync,
) -> Result<(), AbftError> {
    if let [state] = states {
        let mut tally = 0;
        let result = body(0, data, state, &mut tally);
        flush_checks(log, scheme, tally);
        return result;
    }
    let checks = AtomicU64::new(0);
    let result = rayon::with_chunks_mut(data, states, |offset, chunk, state| {
        let mut tally = 0;
        let result = body(offset, chunk, state, &mut tally);
        checks.fetch_add(tally, Ordering::Relaxed);
        result
    });
    flush_checks(log, scheme, checks.into_inner());
    result
}

/// Sums `block(start, end)` over the [`ACC_BLOCK`] runs of `n` storage words
/// in order — the fold every reduction shares — stopping at the first error.
fn sum_blocks(
    n: usize,
    mut block: impl FnMut(usize, usize) -> Result<f64, AbftError>,
) -> Result<f64, AbftError> {
    let mut total = 0.0;
    for start in (0..n).step_by(ACC_BLOCK) {
        total += block(start, (start + ACC_BLOCK).min(n))?;
    }
    Ok(total)
}

/// `Σ a[i]·b[i]` over one block's logical elements, checking each codeword
/// group once.  `a`/`b` are whole-group storage slices; `base` is the global
/// element index of `a[0]`, `len` the global logical length.
fn dot_block(
    codec: GroupCodec,
    a: &[u64],
    b: &[u64],
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
) -> Result<f64, AbftError> {
    let mask = codec.mask;
    let group = codec.group();
    let mut acc = 0.0;
    if codec.run_clean(a) && codec.run_clean(b) {
        // Batched screening pass certified every group of the block;
        // accumulate the logical elements straight off the raw words.
        // Group-order accumulation equals element-order accumulation, so
        // this is bitwise identical to the walk below.
        *tally += 2 * (a.len() / group) as u64;
        let logical = a.len().min(len - base);
        for (&aw, &bw) in a[..logical].iter().zip(&b[..logical]) {
            acc += f64::from_bits(aw & mask) * f64::from_bits(bw & mask);
        }
        return Ok(acc);
    }
    for off in (0..a.len()).step_by(group) {
        *tally += 2;
        let logical = group.min(len - (base + off));
        let av = codec.read_group(&a[off..off + group], logical, base + off, log)?;
        let bv = codec.read_group(&b[off..off + group], logical, base + off, log)?;
        for j in 0..logical {
            acc += av[j] * bv[j];
        }
    }
    Ok(acc)
}

/// `Σ a[i]²` over one block, checking each codeword group **once** (where
/// the two-operand dot would check it twice).
fn norm_block(
    codec: GroupCodec,
    a: &[u64],
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
) -> Result<f64, AbftError> {
    let mask = codec.mask;
    let group = codec.group();
    let mut acc = 0.0;
    if codec.run_clean(a) {
        *tally += (a.len() / group) as u64;
        let logical = a.len().min(len - base);
        for &aw in &a[..logical] {
            let v = f64::from_bits(aw & mask);
            acc += v * v;
        }
        return Ok(acc);
    }
    for off in (0..a.len()).step_by(group) {
        *tally += 1;
        let logical = group.min(len - (base + off));
        let av = codec.read_group(&a[off..off + group], logical, base + off, log)?;
        for &v in &av[..logical] {
            acc += v * v;
        }
    }
    Ok(acc)
}

/// Two-operand update `s[i] ← op(s[i], x[i])` over a whole-group storage
/// range, one check per group per operand, one re-encode per group.  `op`
/// sees every logical element pair once, in ascending order, and none at or
/// after an uncorrectable group — a fused kernel may reduce over what it
/// returns.  A `certified` range (both operands passed the parity barrier's
/// sweep) is computed without a second predicate or check.
#[allow(clippy::too_many_arguments)]
fn zip_range(
    codec: GroupCodec,
    s: &mut [u64],
    x: &[u64],
    certified: bool,
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
    op: &mut impl FnMut(f64, f64) -> f64,
) -> Result<(), AbftError> {
    let mask = codec.mask;
    let group = codec.group();
    if certified || (codec.run_clean(s) && codec.run_clean(x)) {
        // Batched screening pass: one predicate over each operand's whole
        // range replaces the per-group checks, and the results are written
        // a staged run at a time.
        if !certified {
            *tally += 2 * (s.len() / group) as u64;
        }
        codec.rewrite_staged(s, s.len().min(len - base), |j, sw| {
            op(f64::from_bits(sw & mask), f64::from_bits(x[j] & mask))
        });
        return Ok(());
    }
    for off in (0..s.len()).step_by(group) {
        *tally += 2;
        let logical = group.min(len - (base + off));
        let gs = &mut s[off..off + group];
        let sv = codec.read_group(gs, logical, base + off, log)?;
        let xv = codec.read_group(&x[off..off + group], logical, base + off, log)?;
        let mut buf = [0.0f64; MAX_GROUP];
        for j in 0..logical {
            buf[j] = op(sv[j], xv[j]);
        }
        codec.encode(&buf, gs);
    }
    Ok(())
}

/// One element of the fused `s ← s + α·x`, `Σ s'[i]²`: returns the update
/// and adds to `acc` the square of the value as it will be *stored* (masked,
/// re-encoded), so the sum equals running the AXPY and then a dot on the
/// updated vector.
#[inline(always)]
fn axpy_and_square(alpha: f64, mask: u64, acc: &mut f64, s: f64, xv: f64) -> f64 {
    let updated = s + alpha * xv;
    let stored = f64::from_bits(updated.to_bits() & mask);
    *acc += stored * stored;
    updated
}

/// Checked read `out[i] ← s[i]` over a whole-group storage range, one check
/// per group: each [`ACC_BLOCK`] run is certified by one batched predicate
/// and then read with masked loads; only a failing run is re-walked group by
/// group through the correcting decode.  `out` receives the range's logical
/// elements; `s` is not written (a corrected value is handed out, not
/// healed).
pub(crate) fn read_range(
    codec: GroupCodec,
    s: &[u64],
    out: &mut [f64],
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
) -> Result<(), AbftError> {
    let mask = codec.mask;
    let group = codec.group();
    let mut start = 0;
    while start < s.len() {
        let end = (start + ACC_BLOCK).min(s.len());
        let run = &s[start..end];
        if codec.run_clean(run) {
            *tally += (run.len() / group) as u64;
            let logical = end.min(len - base);
            for (o, &w) in out[start..logical].iter_mut().zip(run) {
                *o = f64::from_bits(w & mask);
            }
        } else {
            let mut off = start;
            while off < end {
                *tally += 1;
                let logical = group.min(len - (base + off));
                let v = codec.read_group(&s[off..off + group], logical, base + off, log)?;
                out[off..off + logical].copy_from_slice(&v[..logical]);
                off += group;
            }
        }
        start = end;
    }
    Ok(())
}

/// Indexed read-modify-write `s[i] ← f(i, s[i])` over a whole-group storage
/// range, one check and one re-encode per group, certified per
/// [`ACC_BLOCK`] run like [`read_range`] unless the parity barrier has
/// `certified` it already.  `f` sees every logical element once, in
/// ascending order, and none at or after an uncorrectable group; a
/// corrected group is healed by its re-encode.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_range(
    codec: GroupCodec,
    s: &mut [u64],
    certified: bool,
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
    f: &mut impl FnMut(usize, f64) -> f64,
) -> Result<(), AbftError> {
    let mask = codec.mask;
    let group = codec.group();
    let mut start = 0;
    while start < s.len() {
        let end = (start + ACC_BLOCK).min(s.len());
        let at = base + start;
        let run = &mut s[start..end];
        if certified || codec.run_clean(run) {
            if !certified {
                *tally += (run.len() / group) as u64;
            }
            codec.rewrite_staged(run, run.len().min(len - at), |j, sw| {
                f(at + j, f64::from_bits(sw & mask))
            });
        } else {
            let mut off = 0;
            while off < run.len() {
                *tally += 1;
                let logical = group.min(len - (at + off));
                let gs = &mut run[off..off + group];
                let sv = codec.read_group(gs, logical, at + off, log)?;
                let mut buf = [0.0f64; MAX_GROUP];
                for j in 0..logical {
                    buf[j] = f(at + off + j, sv[j]);
                }
                codec.encode(&buf, gs);
                off += group;
            }
        }
        start = end;
    }
    Ok(())
}

/// Checked copy `dst[i] ← src[i]` between whole-group storage ranges of one
/// scheme, one check per source group, certified per [`ACC_BLOCK`] run like
/// [`read_range`] unless the parity barrier has `certified` the source
/// already: a clean codeword is its own canonical re-encoding, so a
/// certified run is a plain word copy and only a failing group is decoded
/// (corrected) and re-encoded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn copy_range(
    codec: GroupCodec,
    dst: &mut [u64],
    src: &[u64],
    certified: bool,
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
) -> Result<(), AbftError> {
    let group = codec.group();
    let mut start = 0;
    while start < src.len() {
        let end = (start + ACC_BLOCK).min(src.len());
        let run = &src[start..end];
        if certified || codec.run_clean(run) {
            if !certified {
                *tally += (run.len() / group) as u64;
            }
            dst[start..end].copy_from_slice(run);
        } else {
            let mut off = start;
            while off < end {
                *tally += 1;
                let logical = group.min(len - (base + off));
                let v = codec.read_group(&src[off..off + group], logical, base + off, log)?;
                codec.encode(&v, &mut dst[off..off + group]);
                off += group;
            }
        }
        start = end;
    }
    Ok(())
}

/// Fused `x[i] ← x[i] + α·p[i]`, `p[i] ← r[i] + β·p[i]` over whole-group
/// storage ranges — CG's iterate and search-direction updates in one pass.
/// Each [`ACC_BLOCK`] run is certified by one batched predicate per operand
/// (or not at all when the parity barrier has `certified` all three) and
/// then written a staged run at a time, `x` before `p`, so `x` reads the
/// old `p`; a failing run is walked group by group, one check per group
/// per operand, correcting as it reads.  Bitwise the AXPY followed by the
/// XPAY.
#[allow(clippy::too_many_arguments)]
fn axpy_xpay_range(
    codec: GroupCodec,
    x: &mut [u64],
    p: &mut [u64],
    r: &[u64],
    certified: bool,
    (alpha, beta): (f64, f64),
    base: usize,
    len: usize,
    log: &FaultLog,
    tally: &mut u64,
) -> Result<(), AbftError> {
    let mask = codec.mask;
    let group = codec.group();
    let masked = |w: u64| f64::from_bits(w & mask);
    for start in (0..x.len()).step_by(ACC_BLOCK) {
        let end = (start + ACC_BLOCK).min(x.len());
        let at = base + start;
        let (x, p, r) = (&mut x[start..end], &mut p[start..end], &r[start..end]);
        if certified || (codec.run_clean(x) && codec.run_clean(p) && codec.run_clean(r)) {
            if !certified {
                *tally += 3 * (x.len() / group) as u64;
            }
            let logical = x.len().min(len - at);
            codec.rewrite_staged(x, logical, |j, xw| masked(xw) + alpha * masked(p[j]));
            codec.rewrite_staged(p, logical, |j, pw| masked(r[j]) + beta * masked(pw));
            continue;
        }
        for off in (0..x.len()).step_by(group) {
            *tally += 3;
            let logical = group.min(len - (at + off));
            let (gx, gp) = (&mut x[off..off + group], &mut p[off..off + group]);
            let xv = codec.read_group(gx, logical, at + off, log)?;
            let pv = codec.read_group(gp, logical, at + off, log)?;
            let rv = codec.read_group(&r[off..off + group], logical, at + off, log)?;
            let (mut new_x, mut new_p) = ([0.0f64; MAX_GROUP], [0.0f64; MAX_GROUP]);
            for j in 0..logical {
                new_x[j] = xv[j] + alpha * pv[j];
                new_p[j] = rv[j] + beta * pv[j];
            }
            codec.encode(&new_x, gx);
            codec.encode(&new_p, gp);
        }
    }
    Ok(())
}

impl ProtectedVector {
    /// Chunks an elementwise kernel over this vector runs in: one, unless
    /// the vector is parallel and its storage splits on block boundaries.
    fn update_chunks(&self) -> usize {
        if self.is_parallel() {
            block_aligned_chunks(self.data.len())
        } else {
            1
        }
    }

    /// Chunks a reduction over this vector's `n_blocks` block partials runs
    /// in: one, unless the vector is parallel and long enough to split.
    fn reduction_chunks(&self, n_blocks: usize) -> usize {
        if self.is_parallel() && self.data.len() >= PARALLEL_MIN_ELEMENTS {
            partial_chunks(n_blocks)
        } else {
            1
        }
    }

    /// Panics unless `x` is a same-length, same-scheme operand of `what`.
    pub(crate) fn assert_operand(&self, x: &ProtectedVector, what: &str) {
        assert_eq!(self.len(), x.len(), "{what}: length mismatch");
        assert_eq!(
            self.scheme, x.scheme,
            "{what}: schemes must match (got {:?} vs {:?})",
            self.scheme, x.scheme
        );
    }

    /// Masked bulk dot product: each [`ACC_BLOCK`]-element block is first
    /// certified clean by one batched SIMD predicate
    /// ([`abft_ecc::verify`]), then the multiply-accumulate runs over the
    /// raw words with the mask in a register; only a failing block is
    /// re-walked group by group through the correcting decode.  Check
    /// tallies are flushed to the log in one bulk atomic update per call.
    /// Always serial; see [`ProtectedVector::dot_masked_with`].
    ///
    /// # Panics
    /// Panics unless `other` has this vector's length and scheme.
    ///
    /// ```
    /// use abft_core::{EccScheme, FaultLog, ProtectedVector};
    /// use abft_ecc::Crc32cBackend;
    ///
    /// let a = ProtectedVector::from_slice(&[1.0, 2.0, 3.0], EccScheme::Secded64,
    ///                                     Crc32cBackend::Auto);
    /// let b = ProtectedVector::from_slice(&[4.0, 5.0, 6.0], EccScheme::Secded64,
    ///                                     Crc32cBackend::Auto);
    /// let log = FaultLog::new();
    /// let d = a.dot_masked(&b, &log)?;
    /// assert_eq!(d, 32.0); // 1·4 + 2·5 + 3·6: small integers survive the mask
    /// assert_eq!(log.snapshot().checks[2], 6); // one check per codeword
    /// # Ok::<(), abft_core::AbftError>(())
    /// ```
    pub fn dot_masked(&self, other: &ProtectedVector, log: &FaultLog) -> Result<f64, AbftError> {
        self.assert_operand(other, "dot_masked");
        let codec = self.codec();
        let mut tally = 0u64;
        let result = sum_blocks(self.data.len(), |start, end| {
            let (a, b) = (&self.data[start..end], &other.data[start..end]);
            dot_block(codec, a, b, start, self.len, log, &mut tally)
        });
        flush_checks(log, codec.scheme, tally);
        result
    }

    /// [`ProtectedVector::dot_masked`] following the vector's parallel
    /// hint: block partials are computed on the worker pool into `ws` and
    /// folded in block order, so the result is bitwise identical to the
    /// serial kernel, which runs whenever the vector is serial or short.  A
    /// warm workspace makes the call allocation-free.
    pub fn dot_masked_with(
        &self,
        other: &ProtectedVector,
        log: &FaultLog,
        ws: &mut ReductionWorkspace,
    ) -> Result<f64, AbftError> {
        let padded = self.data.len();
        let n_blocks = padded.div_ceil(ACC_BLOCK);
        let n_chunks = self.reduction_chunks(n_blocks);
        if n_chunks <= 1 {
            return self.dot_masked(other, log);
        }
        self.assert_operand(other, "dot_masked");
        let codec = self.codec();
        let len = self.len;
        let (a, b) = (&self.data, &other.data);
        let partials = ws.partials(n_blocks);
        let states = &mut vec![(); n_chunks];
        run_chunks(
            partials,
            states,
            log,
            codec.scheme,
            |block0, part, _, tally| {
                for (i, slot) in part.iter_mut().enumerate() {
                    let start = (block0 + i) * ACC_BLOCK;
                    let end = (start + ACC_BLOCK).min(padded);
                    *slot = dot_block(
                        codec,
                        &a[start..end],
                        &b[start..end],
                        start,
                        len,
                        log,
                        tally,
                    )?;
                }
                Ok(())
            },
        )?;
        Ok(partials.iter().sum())
    }

    /// Masked Euclidean norm: one pass, one check per codeword group (the
    /// two-operand `dot_masked(self, self)` checks every group twice).
    /// Always serial; see [`ProtectedVector::norm2_masked_with`].
    pub fn norm2_masked(&self, log: &FaultLog) -> Result<f64, AbftError> {
        let codec = self.codec();
        let mut tally = 0u64;
        let result = sum_blocks(self.data.len(), |start, end| {
            norm_block(
                codec,
                &self.data[start..end],
                start,
                self.len,
                log,
                &mut tally,
            )
        });
        flush_checks(log, codec.scheme, tally);
        result.map(f64::sqrt)
    }

    /// [`ProtectedVector::norm2_masked`] following the vector's parallel
    /// hint, bitwise identical to the serial kernel (allocation-free once
    /// `ws` is warm).
    pub fn norm2_masked_with(
        &self,
        log: &FaultLog,
        ws: &mut ReductionWorkspace,
    ) -> Result<f64, AbftError> {
        let padded = self.data.len();
        let n_blocks = padded.div_ceil(ACC_BLOCK);
        let n_chunks = self.reduction_chunks(n_blocks);
        if n_chunks <= 1 {
            return self.norm2_masked(log);
        }
        let codec = self.codec();
        let len = self.len;
        let data = &self.data;
        let partials = ws.partials(n_blocks);
        let states = &mut vec![(); n_chunks];
        run_chunks(
            partials,
            states,
            log,
            codec.scheme,
            |block0, part, _, tally| {
                for (i, slot) in part.iter_mut().enumerate() {
                    let start = (block0 + i) * ACC_BLOCK;
                    let end = (start + ACC_BLOCK).min(padded);
                    *slot = norm_block(codec, &data[start..end], start, len, log, tally)?;
                }
                Ok(())
            },
        )?;
        Ok(partials.iter().sum::<f64>().sqrt())
    }

    /// Masked `self ← self + α·x`: one check per group per operand, then the
    /// update runs on the raw masked words and each group is re-encoded
    /// once.
    pub fn axpy_masked(
        &mut self,
        alpha: f64,
        x: &ProtectedVector,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        self.zip_masked(x, log, "axpy_masked", move |s, xv| s + alpha * xv)
    }

    /// Masked `self ← x + α·self` (the CG search-direction update).
    pub fn xpay_masked(
        &mut self,
        alpha: f64,
        x: &ProtectedVector,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        self.zip_masked(x, log, "xpay_masked", move |s, xv| xv + alpha * s)
    }

    /// Masked `self ← α·self`: one check and one re-encode per group.
    pub fn scale_masked(&mut self, alpha: f64, log: &FaultLog) -> Result<(), AbftError> {
        let certified = self.parity_precheck(&[], log)?;
        let codec = self.codec();
        let len = self.len;
        let states = &mut vec![(); self.update_chunks()];
        let result = run_chunks(
            &mut self.data,
            states,
            log,
            codec.scheme,
            |offset, chunk, _, tally| {
                let f = &mut |_, v| v * alpha;
                update_range(codec, chunk, certified, offset, len, log, tally, f)
            },
        );
        if result.is_ok() {
            self.parity_commit();
        }
        result
    }

    /// Fused masked `self ← β·self + α·x` — Chebyshev's scale-then-AXPY pair
    /// in a single pass over each group.  The scaled intermediate is
    /// re-masked exactly as the scale kernel would have stored it, so the
    /// result is bitwise identical to `scale(β)` followed by `axpy(α, x)`.
    pub fn scale_axpy_masked(
        &mut self,
        beta: f64,
        alpha: f64,
        x: &ProtectedVector,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        let mask = self.read_mask;
        self.zip_masked(x, log, "scale_axpy_masked", move |s, xv| {
            f64::from_bits((s * beta).to_bits() & mask) + alpha * xv
        })
    }

    /// Fused masked `self ← self + α·x` returning the updated `‖self‖²` —
    /// CG's residual update and convergence reduction in one pass over each
    /// group (one check per operand, one re-encode, instead of the three
    /// passes of AXPY + two dot reads).  Bitwise identical to the AXPY
    /// followed by `dot(self, self)`.  Always serial; see
    /// [`ProtectedVector::dot_axpy_masked_with`].
    pub fn dot_axpy_masked(
        &mut self,
        alpha: f64,
        x: &ProtectedVector,
        log: &FaultLog,
    ) -> Result<f64, AbftError> {
        self.assert_operand(x, "dot_axpy_masked");
        let certified = self.parity_precheck(&[x], log)?;
        let codec = self.codec();
        let len = self.len;
        let mut tally = 0u64;
        let result = sum_blocks(self.data.len(), |start, end| {
            let (s, x) = (&mut self.data[start..end], &x.data[start..end]);
            let mut part = 0.0;
            let op = &mut |s, xv| axpy_and_square(alpha, codec.mask, &mut part, s, xv);
            zip_range(codec, s, x, certified, start, len, log, &mut tally, op)?;
            Ok(part)
        });
        flush_checks(log, codec.scheme, tally);
        if result.is_ok() {
            self.parity_commit();
        }
        result
    }

    /// [`ProtectedVector::dot_axpy_masked`] following the vector's parallel
    /// hint: chunks are aligned to [`ACC_BLOCK`] boundaries and the block
    /// partials are folded in block order, so the result (and the updated
    /// storage) is bitwise identical to the serial kernel.  The per-chunk
    /// block-partial lists live in the caller-owned `ws` (capacity retained
    /// across calls), so a warm workspace makes the call allocation-free.
    pub fn dot_axpy_masked_with(
        &mut self,
        alpha: f64,
        x: &ProtectedVector,
        log: &FaultLog,
        ws: &mut ReductionWorkspace,
    ) -> Result<f64, AbftError> {
        let n_chunks = self.update_chunks();
        if n_chunks <= 1 {
            return self.dot_axpy_masked(alpha, x, log);
        }
        self.assert_operand(x, "dot_axpy_masked");
        let certified = self.parity_precheck(&[x], log)?;
        let codec = self.codec();
        let len = self.len;
        let x_data = &x.data;
        let states = ws.chunk_partials(n_chunks);
        run_chunks(
            &mut self.data,
            states,
            log,
            codec.scheme,
            |offset, chunk, partials, tally| {
                for (b, s) in chunk.chunks_mut(ACC_BLOCK).enumerate() {
                    let at = offset + b * ACC_BLOCK;
                    let x = &x_data[at..at + s.len()];
                    let mut part = 0.0;
                    let op = &mut |s, xv| axpy_and_square(alpha, codec.mask, &mut part, s, xv);
                    zip_range(codec, s, x, certified, at, len, log, tally, op)?;
                    partials.push(part);
                }
                Ok(())
            },
        )?;
        self.parity_commit();
        Ok(states.iter().flatten().sum())
    }

    /// Fused masked `self ← self + α·p; p ← r + β·p` — CG's iterate and
    /// search-direction updates in one pass, serial or block-aligned chunks
    /// per the parallel hint, bitwise identical to `axpy_masked(α, p)`
    /// followed by `p.xpay_masked(β, r)`.  One check per group per operand
    /// (the AXPY and the XPAY check `p` twice between them), and none in
    /// parity mode once the barrier's sweep of all three has passed; then a
    /// detected fault aborts before either vector is written.
    ///
    /// # Panics
    /// Panics unless `p` and `r` have this vector's length and scheme.
    pub fn axpy_xpay_masked(
        &mut self,
        alpha: f64,
        p: &mut ProtectedVector,
        beta: f64,
        r: &ProtectedVector,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        self.assert_operand(p, "axpy_xpay_masked");
        self.assert_operand(r, "axpy_xpay_masked");
        let certified = self.parity_precheck(&[p, r], log)?;
        let codec = self.codec();
        let len = self.len;
        let n_chunks = self.update_chunks();
        // `p`'s chunks, cut where `run_chunks` cuts `self`'s.
        let mut p_parts: [&mut [u64]; MAX_UPDATE_CHUNKS] =
            std::array::from_fn(|_| Default::default());
        let chunk = self.data.len().div_ceil(n_chunks).max(1);
        for (slot, part) in p_parts.iter_mut().zip(p.data.chunks_mut(chunk)) {
            *slot = part;
        }
        let r_data = &r.data;
        let result = run_chunks(
            &mut self.data,
            &mut p_parts[..n_chunks],
            log,
            codec.scheme,
            |offset, x, p, tally| {
                let r = &r_data[offset..offset + x.len()];
                let coefficients = (alpha, beta);
                axpy_xpay_range(
                    codec,
                    x,
                    p,
                    r,
                    certified,
                    coefficients,
                    offset,
                    len,
                    log,
                    tally,
                )
            },
        );
        if result.is_ok() {
            self.parity_commit();
            p.parity_commit();
        }
        result
    }

    /// Shared driver of the two-operand masked updates `self[i] ←
    /// op(self[i], x[i])`, serial or block-aligned chunks per the parallel
    /// hint (elementwise, so bitwise identical either way).
    fn zip_masked(
        &mut self,
        x: &ProtectedVector,
        log: &FaultLog,
        what: &str,
        op: impl Fn(f64, f64) -> f64 + Sync,
    ) -> Result<(), AbftError> {
        self.assert_operand(x, what);
        let certified = self.parity_precheck(&[x], log)?;
        let codec = self.codec();
        let len = self.len;
        let x_data = &x.data;
        let states = &mut vec![(); self.update_chunks()];
        let result = run_chunks(
            &mut self.data,
            states,
            log,
            codec.scheme,
            |offset, chunk, _, tally| {
                let x = &x_data[offset..offset + chunk.len()];
                zip_range(
                    codec, chunk, x, certified, offset, len, log, tally, &mut &op,
                )
            },
        );
        if result.is_ok() {
            self.parity_commit();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_ecc::Crc32cBackend;

    #[test]
    fn block_aligned_chunk_boundaries_land_on_blocks() {
        assert_eq!(block_aligned_chunks(100), 1);
        assert_eq!(block_aligned_chunks(ACC_BLOCK), 1);
        for n in [4 * ACC_BLOCK, 16 * ACC_BLOCK, 256 * ACC_BLOCK] {
            let k = block_aligned_chunks(n);
            assert!((1..=MAX_UPDATE_CHUNKS).contains(&k));
            if k > 1 {
                assert_eq!(n.div_ceil(k) % ACC_BLOCK, 0, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn masked_kernels_handle_the_empty_vector() {
        let log = FaultLog::new();
        let a = ProtectedVector::zeros(0, EccScheme::Crc32c, Crc32cBackend::SlicingBy16);
        let mut b = a.clone();
        assert_eq!(a.dot_masked(&a, &log).unwrap(), 0.0);
        assert_eq!(a.norm2_masked(&log).unwrap(), 0.0);
        b.axpy_masked(2.0, &a, &log).unwrap();
        b.scale_masked(3.0, &log).unwrap();
        assert_eq!(b.dot_axpy_masked(1.0, &a, &log).unwrap(), 0.0);
        let mut c = a.clone();
        b.axpy_xpay_masked(1.0, &mut c, 2.0, &a, &log).unwrap();
        assert_eq!(log.snapshot().checks[2], 0);
    }
}
