//! Dense floating-point vector protection (§VI-B, Fig. 3).
//!
//! Unlike the CSR index vectors, an `f64` has no unused bits, so the paper
//! stores the redundancy in the **least-significant mantissa bits** and masks
//! those bits to zero whenever a value is used in computation.  The masking
//! perturbs each value by at most 2⁻⁴⁴ relative (8 mantissa bits), which the
//! paper reports changes the converged solution by less than 2.0 × 10⁻¹¹ %
//! and the iteration count by under 1 %.
//!
//! Bit budgets per scheme (Fig. 3):
//!
//! | scheme | reserved LSBs per element | elements per codeword |
//! |---|---|---|
//! | SED | 1 | 1 |
//! | SECDED64 | 8 | 1 |
//! | SECDED128 | 5 | 2 |
//! | CRC32C | 8 | 4 |
//!
//! Every bulk kernel works one codeword ("group") at a time: a group is
//! checked once, operated on, and re-encoded once — the read-buffering /
//! write-buffering scheme of §VI-C that removes the per-element
//! read-modify-write penalty.  Each has one path, a range kernel of
//! [`crate::blas1`] on this module's `GroupCodec`: a run one batched
//! predicate certifies is computed straight over the raw words with the
//! AND-mask in a register, and only a run that fails it is walked group by
//! group.  That covers the BLAS-1 family and the reliability-boundary calls
//! (`read_checked`, `update_from_fn`, `copy_from`) alike.  Two-operand
//! kernels take operands of one length and one scheme and panic otherwise.
//! The per-group decode walkers the range kernels replaced live on in this
//! module's tests as the reference they are differentially checked against.
//!
//! Check accounting is uniform across every method: integrity checks are
//! tallied locally while a kernel runs and folded into the [`FaultLog`] in
//! one bulk update when it finishes — on the error path too, so an aborting
//! fault reports exactly the checks that were performed, never the checks a
//! completed pass would have performed.

use crate::blas1::{copy_range, flush_checks, read_range, update_range};
use crate::error::AbftError;
use crate::report::{FaultLog, Region};
use crate::schemes::{EccScheme, ParityConfig};
use abft_ecc::secded::DecodeOutcome;
use abft_ecc::sed::parity_u64;
use abft_ecc::{Crc32c, Crc32cBackend, SECDED_118, SECDED_56};

/// Maximum number of elements in one codeword group.
pub(crate) const MAX_GROUP: usize = 4;

/// Elements per partial-sum block of the dot-product family.  Every
/// reduction in [`crate::blas1`] accumulates per fixed-size block and then
/// folds the block partials in order, so the serial and chunked-parallel
/// kernels are **bitwise identical** for a given input.  A multiple of
/// every group size.
pub const ACC_BLOCK: usize = 4096;

/// Elements the write paths compute into a stack buffer before one
/// [`GroupCodec::encode_run`] writes them back: long enough to feed the
/// batched encoder whole batches, short enough to stay in L1.  A multiple
/// of every group size and a divisor of [`ACC_BLOCK`].
pub(crate) const ENCODE_STAGE: usize = 128;

/// Positions the barrier sweep takes from every chunk of a parity stripe per
/// step: the stack accumulator the chunks' words are XORed into, small
/// enough to stay in L1 beside them.  A multiple of every group size.
const SWEEP_BLOCK: usize = 1024;

/// A dense `f64` vector whose elements carry embedded ECC in their
/// least-significant mantissa bits.
///
/// For the grouped schemes the internal storage is padded with zero elements
/// up to a whole number of codeword groups, so the redundancy of a trailing
/// partial group has somewhere to live.  The padding is at most
/// `group − 1 ≤ 3` extra elements regardless of the vector length — a
/// constant handful of bytes, not a per-element overhead.
#[derive(Debug, Clone)]
pub struct ProtectedVector {
    pub(crate) scheme: EccScheme,
    /// Raw bit patterns, redundancy embedded in the reserved low bits.
    /// Length is `len` rounded up to a multiple of the group size.
    pub(crate) data: Vec<u64>,
    /// Logical number of elements.
    pub(crate) len: usize,
    /// AND-mask applied on every read (clears the reserved bits).
    pub(crate) read_mask: u64,
    pub(crate) crc: Crc32c,
    /// Execution hint the masked BLAS-1 kernels read: a parallel vector runs
    /// them as block-aligned chunks on the worker pool.  Not part of the
    /// encoded state — the raw storage is unaffected.
    parallel: bool,
    /// Optional XOR erasure tier: per-stripe parity chunks over the encoded
    /// storage, so an uncorrectable codeword (or a deliberately erased
    /// chunk) is rebuilt from its stripe siblings instead of aborting.
    /// `None` (the default) keeps the vector byte-identical in behaviour to
    /// the parity-free layout.
    parity: Option<ParityState>,
}

/// Internal state of the XOR erasure tier (layout in [`ParityConfig`]).
#[derive(Debug, Clone)]
struct ParityState {
    /// Chunk size in storage words (a multiple of [`MAX_GROUP`], so chunk
    /// boundaries always align with codeword boundaries).
    chunk_words: usize,
    /// Data chunks per parity stripe.
    stripe_chunks: usize,
    /// Stripe-major parity words: `stripe_count × chunk_words` entries, each
    /// the word-wise XOR of the stripe's data chunks (absent trailing words
    /// of a partial final chunk contribute zero).
    words: Vec<u64>,
}

/// Outcome of the stripe-parity cross-check (see
/// [`ProtectedVector::verify_parity`]).
///
/// The classifier must run **before** a scrub gets to "repair" an erased
/// chunk: the embedded schemes are linear, so once a scrub has re-encoded
/// miscorrected garbage the stripe residual `parity ⊕ chunks` is itself a
/// valid codeword and XORs cleanly into *every* chunk — attribution becomes
/// impossible.  Pre-scrub, the residual of an erasure is raw noise and
/// convicts exactly one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParityVerdict {
    /// Every stripe's XOR matches its stored parity.
    Consistent,
    /// The mismatch is explainable by in-place ECC correction (pending
    /// correctable bit flips): the ordinary scrub restores the originals,
    /// and the parity becomes consistent again on its own.
    Deferred,
    /// Exactly one chunk's tentative rebuild (`parity ⊕ siblings`) verifies
    /// clean, and the chunk's current content is beyond the embedded ECC's
    /// correction radius from it: that chunk was erased and must be rebuilt
    /// from the parity tier.
    Erased {
        /// The erased data chunk.
        chunk: usize,
    },
    /// The data chunks all verify clean and no rebuild candidate exists:
    /// the fault is confined to the parity words themselves, so the data
    /// keeps being served.
    StaleParity,
    /// A mismatch that cannot be attributed to a single chunk (e.g. a
    /// double loss in one stripe): unrecoverable.
    Ambiguous {
        /// The stripe whose mismatch could not be attributed.
        stripe: usize,
    },
}

impl ProtectedVector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize, scheme: EccScheme, backend: Crc32cBackend) -> Self {
        Self::from_slice(&vec![0.0; n], scheme, backend)
    }

    /// Encodes a plain slice.  The reserved mantissa bits of each value are
    /// lost (masked to zero) — this is the controlled noise §VI-B discusses.
    pub fn from_slice(values: &[f64], scheme: EccScheme, backend: Crc32cBackend) -> Self {
        let group = scheme.vector_group();
        let padded = values.len().div_ceil(group) * group;
        let mut v = ProtectedVector {
            scheme,
            data: vec![0u64; padded],
            len: values.len(),
            read_mask: read_mask(scheme),
            crc: Crc32c::new(backend),
            parallel: false,
            parity: None,
        };
        v.fill_from_fn(|i| values[i]);
        v
    }

    /// The protection scheme.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of elements per codeword group.
    pub fn group_size(&self) -> usize {
        self.scheme.vector_group()
    }

    /// Number of codeword groups that hold user-visible elements.  The
    /// storage is padded to whole groups, so this also equals the storage
    /// group count; check accounting is specified in terms of logical groups
    /// so a change to the padding policy can never drift the reported
    /// counts.
    pub fn logical_groups(&self) -> u64 {
        self.len.div_ceil(self.group_size()) as u64
    }

    /// Sets the execution hint the masked BLAS-1 kernels read: `true` runs
    /// them as block-aligned chunks on the worker pool (same bits, same
    /// check counts).
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Whether the masked BLAS-1 kernels run on the worker pool for this
    /// vector.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Raw (encoded) storage — exposed for fault injection and tests.
    pub fn raw(&self) -> &[u64] {
        &self.data
    }

    /// The masked raw-slice fast path: the logical elements as raw bit
    /// patterns plus the AND-mask that clears the reserved redundancy bits.
    ///
    /// Reading `f64::from_bits(words[i] & mask)` is exactly
    /// [`ProtectedVector::get`] without the bounds assert — the view the
    /// SpMV kernels use after the per-invocation scrub has verified the
    /// storage (§VI-C read caching).
    #[inline]
    pub fn masked_words(&self) -> (&[u64], u64) {
        (&self.data[..self.len], self.read_mask)
    }

    /// Flips one bit of one stored element (fault injection hook).
    pub fn inject_bit_flip(&mut self, index: usize, bit: u32) {
        self.data[index] ^= 1u64 << bit;
    }

    /// Reads element `i` with the redundancy bits masked off, without an
    /// integrity check.  This is the fast path used after a kernel has
    /// already checked the groups it touches (the read-caching of §VI-C).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        f64::from_bits(self.data[i] & self.read_mask)
    }

    /// Decodes the whole vector into a plain `Vec<f64>` (masked, unchecked).
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// The one whole-vector walk under [`ProtectedVector::check_all`] and
    /// [`ProtectedVector::scrub`].  The batched predicate certifies a clean
    /// vector (every SpMV scrubs its input) without decoding a single group;
    /// a failing one is walked group by group, a correction logged and
    /// handed to `repair` as `(first element, repaired codeword)`, the first
    /// uncorrectable codeword logged and returned.  `tally` gains one check
    /// per codeword walked.
    fn walk(
        &self,
        log: &FaultLog,
        tally: &mut u64,
        mut repair: impl FnMut(usize, [u64; MAX_GROUP]),
    ) -> Result<(), AbftError> {
        let codec = self.codec();
        let group = codec.group();
        if codec.run_clean(&self.data) {
            *tally += (self.data.len() / group) as u64;
            return Ok(());
        }
        for base in (0..self.data.len()).step_by(group) {
            *tally += 1;
            let before = log.total_corrected();
            let (values, _) = self.decode_group(base, log)?;
            if log.total_corrected() > before {
                let mut words = [0u64; MAX_GROUP];
                codec.encode(&values, &mut words[..group]);
                repair(base, words);
            }
        }
        Ok(())
    }

    /// Verifies every codeword.  Errors are logged; correctable flips are
    /// *not* written back (use [`ProtectedVector::scrub`]).
    pub fn check_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        let mut tally = 0u64;
        let result = self.walk(log, &mut tally, |_, _| {});
        flush_checks(log, self.scheme, tally);
        result
    }

    /// [`ProtectedVector::check_all`]'s walk plus the write-backs it
    /// reports: repairs correctable codewords in place and returns how many.
    pub fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        let mut tally = 0u64;
        let mut repairs = Vec::new();
        let result = self.walk(log, &mut tally, |base, words| repairs.push((base, words)));
        flush_checks(log, self.scheme, tally);
        let group = self.group_size();
        for (base, words) in &repairs {
            self.data[*base..base + group].copy_from_slice(&words[..group]);
        }
        result.map(|()| repairs.len())
    }

    /// Overwrites every element with `f(i)`, encoding one staged run of
    /// groups at a time (pure write buffering: no read-side integrity work).
    pub fn fill_from_fn(&mut self, mut f: impl FnMut(usize) -> f64) {
        let len = self.len;
        self.codec()
            .rewrite_staged(&mut self.data, len, |i, _| f(i));
        self.parity_commit();
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.fill_from_fn(|_| value);
    }

    /// Read-modify-write of every element through `f(index, value)`, one
    /// check and one re-encode per codeword group (§VI-C buffering), on the
    /// block-certified `update_range` kernel.  This is the primitive behind
    /// the pointwise solver updates (Jacobi's `x += D⁻¹ (b − A x)`, FT-PCG's
    /// re-encode of the inner result) on protected storage.
    pub fn update_from_fn(
        &mut self,
        log: &FaultLog,
        mut f: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), AbftError> {
        let certified = self.parity_precheck(&[], log)?;
        let codec = self.codec();
        let len = self.len;
        let mut tally = 0u64;
        let data = &mut self.data;
        let result = update_range(codec, data, certified, 0, len, log, &mut tally, &mut f);
        flush_checks(log, codec.scheme, tally);
        if result.is_ok() {
            self.parity_commit();
        }
        result
    }

    /// Decodes the whole vector into `out`, verifying each codeword group as
    /// it is read (the checked counterpart of [`ProtectedVector::to_vec`],
    /// without allocating), on the block-certified `read_range` kernel.
    /// A corrected value is handed out but not written back.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn read_checked(&self, out: &mut [f64], log: &FaultLog) -> Result<(), AbftError> {
        assert_eq!(out.len(), self.len, "read_checked: length mismatch");
        let codec = self.codec();
        let mut tally = 0u64;
        let result = read_range(codec, &self.data, out, 0, self.len, log, &mut tally);
        flush_checks(log, codec.scheme, tally);
        result
    }

    /// Copies (and re-encodes) the contents of `other`, checking `other` as
    /// it is read, on the block-certified `copy_range` kernel.  With the
    /// erasure tier on this vector the source first passes the parity
    /// barrier, like every other operand a parity-mode write reads: an
    /// erased source chunk is convicted (and nothing written), not decoded
    /// as correctable noise, and a swept source is copied without a second
    /// check.
    ///
    /// # Panics
    /// Panics unless `other` has this vector's length and scheme.
    pub fn copy_from(&mut self, other: &ProtectedVector, log: &FaultLog) -> Result<(), AbftError> {
        self.assert_operand(other, "copy_from");
        let certified = self.parity.is_some() && other.barrier_certify(log)?;
        let codec = other.codec();
        let len = self.len;
        let mut tally = 0u64;
        let (dst, src) = (&mut self.data, &other.data);
        let result = copy_range(codec, dst, src, certified, 0, len, log, &mut tally);
        flush_checks(log, codec.scheme, tally);
        if result.is_ok() {
            self.parity_commit();
        }
        result
    }

    /// The codec for this vector's scheme — the shared check / decode /
    /// encode implementation the masked kernels also run on.
    #[inline]
    pub(crate) fn codec(&self) -> GroupCodec {
        GroupCodec {
            scheme: self.scheme,
            mask: self.read_mask,
            crc: self.crc,
        }
    }

    /// Decodes and verifies the group starting at `base`, returning the
    /// masked (and, if a recoverable fault was found, transiently corrected)
    /// values plus the number of *logical* elements in the group.  Errors
    /// are recorded in `log`.
    #[inline]
    pub(crate) fn decode_group(
        &self,
        base: usize,
        log: &FaultLog,
    ) -> Result<([f64; MAX_GROUP], usize), AbftError> {
        let group = self.group_size();
        let logical = group.min(self.len.saturating_sub(base));
        let out = self
            .codec()
            .decode(&self.data[base..base + group], logical, base, log)?;
        Ok((out, logical))
    }

    // ------------------------------------------------------------------
    // XOR erasure tier
    // ------------------------------------------------------------------

    /// Enables the XOR erasure tier over the encoded storage and computes
    /// the initial parity.  The storage words are split into chunks of
    /// `config.chunk_words`; each stripe of `config.stripe_chunks` data
    /// chunks gets one parity chunk holding their word-wise XOR, so any
    /// single lost or uncorrectable chunk in a stripe can be rebuilt
    /// bit-for-bit from the parity and its surviving siblings.
    ///
    /// # Panics
    /// Panics when the vector is unprotected (`EccScheme::None`): a rebuilt
    /// chunk is trusted only after the embedded ECC re-verifies it, which
    /// needs a real scheme.  Also panics on a zero or non-group-aligned
    /// `chunk_words` or a zero `stripe_chunks`.
    pub fn enable_parity(&mut self, config: ParityConfig) {
        assert!(
            self.scheme != EccScheme::None,
            "parity tier requires ECC-protected storage"
        );
        assert!(
            config.chunk_words > 0 && config.chunk_words.is_multiple_of(MAX_GROUP),
            "chunk_words must be a positive multiple of MAX_GROUP"
        );
        assert!(config.stripe_chunks > 0, "stripe_chunks must be > 0");
        self.parity = Some(ParityState {
            chunk_words: config.chunk_words,
            stripe_chunks: config.stripe_chunks,
            words: Vec::new(),
        });
        self.refresh_parity();
    }

    /// Whether the erasure tier is enabled.
    pub fn has_parity(&self) -> bool {
        self.parity.is_some()
    }

    /// Chunk size (in storage words) of the erasure tier, when enabled.
    pub fn parity_chunk_words(&self) -> Option<usize> {
        self.parity.as_ref().map(|p| p.chunk_words)
    }

    /// The parity words themselves — exposed for fault injection and tests.
    pub fn parity_words(&self) -> Option<&[u64]> {
        self.parity.as_ref().map(|p| p.words.as_slice())
    }

    /// Number of data chunks covered by the erasure tier (0 when disabled).
    pub fn parity_chunks(&self) -> usize {
        match &self.parity {
            Some(p) => self.data.len().div_ceil(p.chunk_words),
            None => 0,
        }
    }

    /// Recomputes every parity chunk from the current encoded storage: each
    /// stripe's parity is written from its first chunk and the siblings are
    /// XORed in.  The write paths call this after a successful mutation; a
    /// kernel that aborts *before* mutating anything (the parity-mode
    /// pre-check) leaves both storage and parity untouched, so the rebuild
    /// evidence stays consistent.  A no-op when the tier is disabled.
    pub fn refresh_parity(&mut self) {
        let Some(state) = self.parity.as_mut() else {
            return;
        };
        let cw = state.chunk_words;
        let stripe_words = cw * state.stripe_chunks;
        state
            .words
            .resize(self.data.len().div_ceil(stripe_words) * cw, 0);
        for (parity, stripe) in state
            .words
            .chunks_exact_mut(cw)
            .zip(self.data.chunks(stripe_words))
        {
            let mut chunks = stripe.chunks(cw);
            let first = chunks.next().expect("a stripe holds at least one word");
            parity[..first.len()].copy_from_slice(first);
            parity[first.len()..].fill(0);
            for chunk in chunks {
                xor_into(parity, chunk);
            }
        }
    }

    /// The barrier's single pass over this vector: `true` when every
    /// codeword is strictly clean under the scheme's batched predicate and,
    /// with the erasure tier enabled, every stripe's XOR matches its parity
    /// — the chunks are certified and cross-checked block by block in one
    /// walk, see [`sweep_stripe`].  The checks are recorded (one per
    /// codeword, as a clean [`ProtectedVector::check_all`] or
    /// [`ProtectedVector::scrub`] records them) only on `true`; on `false`
    /// nothing is recorded and the caller takes the classifying path.
    pub(crate) fn barrier_sweep(&self, log: &FaultLog) -> bool {
        let codec = self.codec();
        let clean = match self.parity.as_ref() {
            None => codec.run_clean(&self.data),
            Some(state) => {
                let cw = state.chunk_words;
                let mut acc = [0u64; SWEEP_BLOCK];
                state
                    .words
                    .chunks_exact(cw)
                    .zip(self.data.chunks(cw * state.stripe_chunks))
                    .all(|(parity, stripe)| sweep_stripe(&mut acc, parity, stripe, Some(codec)))
            }
        };
        if clean {
            flush_checks(log, self.scheme, (self.data.len() / codec.group()) as u64);
        }
        clean
    }

    /// Cross-checks every stripe's XOR against the stored parity and
    /// attributes any mismatch.  See [`ParityVerdict`] and
    /// [`ProtectedVector::verify_parity`] for the reasoning; this is the
    /// shared classifier behind the read-side certification and
    /// [`ProtectedVector::try_recover`].  A consistent stripe is settled by
    /// [`sweep_stripe`] on the stack; the classifier's two chunk-sized
    /// buffers are allocated only once a stripe mismatches.
    fn parity_verdict(&self) -> ParityVerdict {
        let Some(state) = self.parity.as_ref() else {
            return ParityVerdict::Consistent;
        };
        let cw = state.chunk_words;
        let n_chunks = self.data.len().div_ceil(cw);
        let stripes = n_chunks.div_ceil(state.stripe_chunks);
        let codec = self.codec();
        let group = codec.group();
        // Bits the embedded scheme can correct in place, per codeword group
        // (SED detects but never corrects).
        let cap: u32 = match self.scheme {
            EccScheme::None | EccScheme::Sed => 0,
            _ => 1,
        };
        let mut stale = false;
        let mut deferred = false;
        let mut block = [0u64; SWEEP_BLOCK];
        let mut buffers: Option<(Vec<u64>, Vec<u64>)> = None;
        for stripe in 0..stripes {
            let parity = &state.words[stripe * cw..(stripe + 1) * cw];
            let first = stripe * state.stripe_chunks;
            let last = (first + state.stripe_chunks).min(n_chunks);
            let data = &self.data[first * cw..(last * cw).min(self.data.len())];
            if sweep_stripe(&mut block, parity, data, None) {
                continue;
            }
            let (acc, tentative) = buffers.get_or_insert_with(|| (vec![0; cw], vec![0; cw]));
            // acc = parity ⊕ (XOR of the stripe's data chunks): zero word-wise
            // iff the stripe is consistent.
            acc.copy_from_slice(parity);
            for chunk in data.chunks(cw) {
                xor_into(acc, chunk);
            }
            // Attribute the mismatch.  The tentative rebuild of chunk `c` is
            // `parity ⊕ siblings = acc ⊕ c`: for the chunk that took the
            // fault that is its original content and verifies strictly clean
            // under the embedded ECC, while an innocent chunk's tentative
            // rebuild folds the raw residue in and decodes as noise.
            let mut candidate = None;
            let mut candidates = 0usize;
            let mut all_current_clean = true;
            for chunk in first..last {
                let lo = chunk * cw;
                let hi = (lo + cw).min(self.data.len());
                let span = &self.data[lo..hi];
                if !span.chunks_exact(group).all(|g| codec.is_clean(g)) {
                    all_current_clean = false;
                }
                // A chunk whose span of `acc` is all zero cannot be the
                // faulted one: rebuilding it would change nothing.
                if acc[..hi - lo].iter().all(|&w| w == 0) {
                    continue;
                }
                for (t, (&w, &r)) in tentative.iter_mut().zip(span.iter().zip(acc.iter())) {
                    *t = w ^ r;
                }
                if tentative[..hi - lo]
                    .chunks_exact(group)
                    .all(|g| codec.is_clean(g))
                {
                    candidates += 1;
                    candidate = Some((chunk, hi - lo));
                }
            }
            match (candidates, candidate) {
                (1, Some((chunk, words))) => {
                    // Ordinary correctable noise also leaves exactly one
                    // candidate (the flipped chunk, whose tentative rebuild
                    // is its original).  Distinguish it from an erasure by
                    // the correction radius: if every codeword group of the
                    // current content is within `cap` flipped bits of the
                    // tentative, the decoder will restore exactly that
                    // original — leave it to the scrub.  Anything farther is
                    // a loss only the parity tier can rebuild.  The
                    // candidate's content XOR its tentative is `acc` itself
                    // (`tentative` by now holds a later chunk's rebuild).
                    let explainable = acc[..words]
                        .chunks_exact(group)
                        .all(|g| g.iter().map(|w| w.count_ones()).sum::<u32>() <= cap);
                    if explainable {
                        deferred = true;
                    } else {
                        return ParityVerdict::Erased { chunk };
                    }
                }
                // No chunk's rebuild verifies and the data itself is clean:
                // the parity words took the fault, not the data.
                (0, _) if all_current_clean => stale = true,
                // No candidate but dirty data: pending corrections spread
                // over several chunks (scrub will restore them), or a
                // multi-chunk loss (the scrub's DUE escalation decides).
                (0, _) => deferred = true,
                _ => return ParityVerdict::Ambiguous { stripe },
            }
        }
        if deferred {
            ParityVerdict::Deferred
        } else if stale {
            ParityVerdict::StaleParity
        } else {
            ParityVerdict::Consistent
        }
    }

    /// Cross-check of the erasure tier, detection only: recomputes each
    /// stripe's XOR and compares it against the stored parity words.
    ///
    /// This closes the one detection hole the embedded ECC has against
    /// whole-chunk erasures: with small odds, every word of a garbage chunk
    /// presents a syndrome that mimics a *correctable* single-bit error, so
    /// a scrub would silently "repair" the garbage in place and the storage
    /// would then verify clean.  The stripe XOR is not foolable that way —
    /// a genuine correction restores the original word and keeps the parity
    /// consistent, while miscorrected garbage does not — and because the
    /// schemes are linear the check must run **before** any correction
    /// re-encodes the chunk (afterwards the residual is itself a valid
    /// codeword and the culprit can no longer be singled out).
    ///
    /// Returns `Ok` when every stripe is consistent, when a mismatch is
    /// explainable by pending in-place corrections (the ordinary scrub
    /// restores the originals), and when the only explanation is damage
    /// confined to the parity words themselves (the data chunks all verify
    /// clean and no rebuild candidate exists — the data is trustworthy and
    /// keeps being served).  A located chunk loss is reported as an
    /// uncorrectable error whose index points into that chunk, so the
    /// recovery ladder rebuilds the right one; an unattributable mismatch
    /// is reported against the stripe.  A no-op returning `Ok` when the
    /// tier is disabled.
    pub fn verify_parity(&self, log: &FaultLog) -> Result<(), AbftError> {
        match self.parity_verdict() {
            ParityVerdict::Consistent | ParityVerdict::Deferred | ParityVerdict::StaleParity => {
                Ok(())
            }
            ParityVerdict::Erased { chunk } => {
                log.record_uncorrectable(Region::DenseVector);
                Err(AbftError::Uncorrectable {
                    region: Region::DenseVector,
                    index: chunk * self.parity_chunk_words().unwrap_or(1),
                })
            }
            ParityVerdict::Ambiguous { stripe } => {
                log.record_uncorrectable(Region::DenseVector);
                let state = self.parity.as_ref().expect("verdict implies parity");
                Err(AbftError::Uncorrectable {
                    region: Region::DenseVector,
                    index: stripe * state.stripe_chunks * state.chunk_words,
                })
            }
        }
    }

    /// Read-side certification of the erasure tier: like
    /// [`ProtectedVector::verify_parity`] but repairs what it convicts —
    /// every chunk the stripe evidence identifies as lost is rebuilt from
    /// parity and its siblings on the spot (recorded in `log`), **before**
    /// the caller's scrub gets a chance to miscorrect it.  The kernels call
    /// this ahead of the per-invocation scrub, so a rebuilt read proceeds on
    /// the original bits and the solver trajectory is untouched.
    ///
    /// Returns `Err` only for an unattributable mismatch (e.g. a double
    /// loss in one stripe), which no single parity chunk can rebuild.  A
    /// no-op returning `Ok` when the tier is disabled.
    pub fn repair_parity(&mut self, log: &FaultLog) -> Result<(), AbftError> {
        let Some(cw) = self.parity_chunk_words() else {
            return Ok(());
        };
        // Each pass rebuilds one distinct chunk; losses never recur once
        // rebuilt, so the chunk count bounds the loop.
        let budget = self.data.len().div_ceil(cw) + 1;
        for _ in 0..budget {
            match self.parity_verdict() {
                ParityVerdict::Consistent
                | ParityVerdict::Deferred
                | ParityVerdict::StaleParity => return Ok(()),
                ParityVerdict::Erased { chunk } => {
                    if !self.rebuild_chunk(chunk, log) {
                        // The classifier verified the tentative rebuild
                        // clean, so this is unreachable in practice; abort
                        // honestly rather than loop.
                        log.record_uncorrectable(Region::DenseVector);
                        return Err(AbftError::Uncorrectable {
                            region: Region::DenseVector,
                            index: chunk * cw,
                        });
                    }
                }
                ParityVerdict::Ambiguous { stripe } => {
                    log.record_uncorrectable(Region::DenseVector);
                    let state = self.parity.as_ref().expect("verdict implies parity");
                    return Err(AbftError::Uncorrectable {
                        region: Region::DenseVector,
                        index: stripe * state.stripe_chunks * cw,
                    });
                }
            }
        }
        log.record_uncorrectable(Region::DenseVector);
        Err(AbftError::Uncorrectable {
            region: Region::DenseVector,
            index: 0,
        })
    }

    /// Rebuilds data chunk `chunk` as the XOR of its stripe's parity chunk
    /// and the surviving sibling chunks, then re-verifies the rebuilt words
    /// with the embedded ECC.  Returns `true` (and records the rebuild in
    /// `log`) only when the rebuilt chunk verifies strictly clean; a failed
    /// verification (stale parity, double-chunk loss in one stripe) leaves
    /// the chunk in its rebuilt-but-dirty state so the next integrity check
    /// honestly aborts rather than ever accepting a wrong answer.
    pub fn rebuild_chunk(&mut self, chunk: usize, log: &FaultLog) -> bool {
        let Some(state) = self.parity.as_ref() else {
            return false;
        };
        let cw = state.chunk_words;
        let n_chunks = self.data.len().div_ceil(cw);
        if chunk >= n_chunks {
            return false;
        }
        let stripe = chunk / state.stripe_chunks;
        let mut rebuilt = state.words[stripe * cw..(stripe + 1) * cw].to_vec();
        let first = stripe * state.stripe_chunks;
        let last = (first + state.stripe_chunks).min(n_chunks);
        for sibling in (first..last).filter(|&s| s != chunk) {
            let lo = sibling * cw;
            let hi = (lo + cw).min(self.data.len());
            xor_into(&mut rebuilt, &self.data[lo..hi]);
        }
        let lo = chunk * cw;
        let hi = (lo + cw).min(self.data.len());
        self.data[lo..hi].copy_from_slice(&rebuilt[..hi - lo]);
        let codec = self.codec();
        debug_assert_eq!((hi - lo) % codec.group(), 0);
        let clean = self.data[lo..hi]
            .chunks_exact(codec.group())
            .all(|g| codec.is_clean(g));
        if clean {
            log.record_rebuilt(Region::DenseVector);
        }
        clean
    }

    /// Escalation ladder for uncorrectable dense-vector errors.  The parity
    /// verdict runs first on every pass — rebuilding any chunk the stripe
    /// evidence convicts *before* a scrub can miscorrect it (see the
    /// linearity note on [`ProtectedVector::verify_parity`]) — then a
    /// correcting scrub runs, and each DUE it still reports escalates to a
    /// rebuild of the containing chunk.
    /// Returns `true` when the vector ends verified clean under both the
    /// embedded ECC and the stripe parity (every loss absorbed), `false`
    /// when recovery is impossible — no parity tier, a non-vector fault,
    /// more than one lost chunk in a stripe, or corrupt parity.
    pub fn try_recover(&mut self, log: &FaultLog) -> bool {
        let Some(cw) = self.parity_chunk_words() else {
            return false;
        };
        // Each productive pass rebuilds one distinct chunk; the extra
        // passes bound the final verification scrub and parity cross-check.
        let budget = self.data.len().div_ceil(cw) + 2;
        for _ in 0..budget {
            match self.parity_verdict() {
                ParityVerdict::Erased { chunk } => {
                    if !self.rebuild_chunk(chunk, log) {
                        return false;
                    }
                    continue;
                }
                ParityVerdict::Ambiguous { .. } => {
                    log.record_uncorrectable(Region::DenseVector);
                    return false;
                }
                ParityVerdict::Consistent
                | ParityVerdict::Deferred
                | ParityVerdict::StaleParity => {}
            }
            match self.scrub(log) {
                Ok(_) => {
                    if matches!(
                        self.parity_verdict(),
                        ParityVerdict::Consistent | ParityVerdict::StaleParity
                    ) {
                        return true;
                    }
                    // A rebuildable mismatch remains: the next pass handles
                    // it at the top of the loop.
                }
                Err(AbftError::Uncorrectable {
                    region: Region::DenseVector,
                    index,
                }) => {
                    if !self.rebuild_chunk(index / cw, log) {
                        // The rebuild did not verify strictly clean, but the
                        // embedded ECC may still absorb the residue (e.g. a
                        // parity chunk stale by one correctable bit): one
                        // correcting scrub tries, and the next pass re-judges
                        // the parity evidence honestly.
                        if self.scrub(log).is_err() {
                            return false;
                        }
                        log.record_rebuilt(Region::DenseVector);
                    }
                }
                Err(_) => return false,
            }
        }
        false
    }

    /// Poisons a whole chunk of encoded storage with deterministic garbage
    /// (a splitmix64 stream over `seed`) **without** updating the parity
    /// tier — the model of a lost shard or erased node.  `chunk_words` is
    /// the chunk geometry (pass the parity tier's when enabled, so the
    /// erasure lines up with a rebuildable chunk).
    ///
    /// # Panics
    /// Panics when the chunk start lies beyond the storage.
    pub fn inject_chunk_erasure(&mut self, chunk_words: usize, chunk: usize, seed: u64) {
        assert!(chunk_words > 0, "chunk_words must be > 0");
        let lo = chunk * chunk_words;
        assert!(lo < self.data.len(), "chunk {chunk} beyond storage");
        let hi = (lo + chunk_words).min(self.data.len());
        let mut s = seed ^ (chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for w in &mut self.data[lo..hi] {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
    }

    /// Flips one bit of one parity word (fault-injection hook for the
    /// "DUE confined to the parity tier" scenarios).
    ///
    /// # Panics
    /// Panics when the parity tier is disabled or `word` is out of range.
    pub fn inject_parity_bit_flip(&mut self, word: usize, bit: u32) {
        let state = self.parity.as_mut().expect("parity tier not enabled");
        state.words[word] ^= 1u64 << bit;
    }

    /// Parity-mode write barrier: before a read-modify-write kernel mutates
    /// anything, certify the mutated vector (and any operand it reads) so a
    /// detected fault aborts with **zero mutation** — the caller can then
    /// rebuild the lost chunk and re-run the kernel without double-applying
    /// a partial update.  A no-op when the erasure tier is disabled.
    ///
    /// This vector and each of `operands` is one
    /// [`ProtectedVector::barrier_sweep`]; only a vector the sweep does not
    /// pass takes the classifying sequence, with its events, indices and
    /// counts.  `Ok(true)` when every sweep passed: the sweeps are then the
    /// kernel's one certification of its operands, and its range kernels
    /// take their certified arm without checking a word again.  `Ok(false)`
    /// without the tier, or when a vector had to be classified (and may
    /// hold a correctable flip the range kernels must still correct).
    pub(crate) fn parity_precheck(
        &self,
        operands: &[&ProtectedVector],
        log: &FaultLog,
    ) -> Result<bool, AbftError> {
        if self.parity.is_none() {
            return Ok(false);
        }
        let mut swept = true;
        for v in std::iter::once(self).chain(operands.iter().copied()) {
            swept &= v.barrier_certify(log)?;
        }
        Ok(swept)
    }

    /// One vector through the barrier: `Ok(true)` when its sweep passes,
    /// else the classifying sequence — parity first (see `verify_parity`):
    /// an erasure must be convicted before any decode treats its garbage as
    /// correctable noise — and `Ok(false)` when that finds nothing fatal.
    fn barrier_certify(&self, log: &FaultLog) -> Result<bool, AbftError> {
        if self.barrier_sweep(log) {
            return Ok(true);
        }
        self.verify_parity(log)?;
        self.check_all(log)?;
        Ok(false)
    }

    /// Parity-mode write epilogue: recompute parity after a successful
    /// mutation.  A no-op when the tier is disabled.
    #[inline]
    pub(crate) fn parity_commit(&mut self) {
        if self.parity.is_some() {
            self.refresh_parity();
        }
    }
}

/// One parity stripe — `parity` its chunk of parity words, `stripe` its
/// data words — in blocks of [`SWEEP_BLOCK`] positions: the block of every
/// chunk is XORed into `acc`, seeded with the block's parity words, and
/// with a `certify` codec also run through its batched predicate in the
/// same pass ([`GroupCodec::run_clean_xor`]).  `true` when every block is
/// clean and the stripe's XOR matches its parity at every position.
fn sweep_stripe(
    acc: &mut [u64; SWEEP_BLOCK],
    parity: &[u64],
    stripe: &[u64],
    certify: Option<GroupCodec>,
) -> bool {
    let cw = parity.len();
    for at in (0..cw).step_by(SWEEP_BLOCK) {
        let acc = &mut acc[..SWEEP_BLOCK.min(cw - at)];
        acc.copy_from_slice(&parity[at..at + acc.len()]);
        for chunk in stripe.chunks(cw) {
            // Only the last chunk can be short; its blocks may run empty.
            let words = &chunk[at.min(chunk.len())..(at + acc.len()).min(chunk.len())];
            let acc = &mut acc[..words.len()];
            let clean = match certify {
                Some(codec) => codec.run_clean_xor(words, acc),
                None => {
                    xor_into(acc, words);
                    true
                }
            };
            if !clean {
                return false;
            }
        }
        if acc.iter().fold(0, |any, &a| any | a) != 0 {
            return false;
        }
    }
    true
}

/// `acc[i] ^= words[i]` over the shorter of the two.
#[inline]
fn xor_into(acc: &mut [u64], words: &[u64]) {
    for (a, &w) in acc.iter_mut().zip(words) {
        *a ^= w;
    }
}

/// Per-scheme codec for one codeword group of raw storage words: the one
/// implementation of check / correct / re-encode under every
/// [`ProtectedVector`] kernel, most of which run in [`crate::blas1`] over
/// chunked raw slices where no `&ProtectedVector` is available.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupCodec {
    pub(crate) scheme: EccScheme,
    pub(crate) mask: u64,
    pub(crate) crc: Crc32c,
}

impl GroupCodec {
    /// Elements per codeword group.
    #[inline]
    pub(crate) fn group(&self) -> usize {
        self.scheme.vector_group()
    }

    /// Batched check-only verification of a whole-group-aligned run of
    /// storage words (`words.len()` must be a multiple of the group size):
    /// `true` when **every** codeword in the run is consistent.
    ///
    /// This is the block-granular screening pass of the masked kernels: one
    /// call certifies an entire [`ACC_BLOCK`] (or a whole vector) through
    /// the dispatched predicates of [`abft_ecc::verify`] — SIMD lanes for
    /// the parity and Hamming schemes, four checksum chains in flight for
    /// CRC32C — and only a failing run is re-walked group by group to
    /// locate, correct and attribute the fault.
    #[inline]
    pub(crate) fn run_clean(&self, words: &[u64]) -> bool {
        match self.scheme {
            EccScheme::None => true,
            EccScheme::Sed => abft_ecc::verify::sed_words_clean(words),
            EccScheme::Secded64 => abft_ecc::verify::secded64_words_clean(words),
            EccScheme::Secded128 => abft_ecc::verify::secded128_words_clean(words),
            EccScheme::Crc32c => abft_ecc::verify::crc32c_groups_clean(&self.crc, words),
        }
    }

    /// [`GroupCodec::run_clean`] that also XORs the run into `acc` (equal
    /// lengths) while it is in L1 — in the predicate's own registers under
    /// SECDED64, the scheme with a fused kernel.
    #[inline]
    pub(crate) fn run_clean_xor(&self, words: &[u64], acc: &mut [u64]) -> bool {
        if self.scheme == EccScheme::Secded64 {
            return abft_ecc::verify::secded64_words_clean_xor(words, acc);
        }
        xor_into(acc, words);
        self.run_clean(words)
    }

    /// Check-only verification of one group (`words.len()` must equal the
    /// group size): `true` when every codeword bit is consistent.  The
    /// masked kernels run their raw-slice fast path over groups this
    /// accepts; anything else takes the correcting `GroupCodec::decode`.
    #[inline]
    pub(crate) fn is_clean(&self, words: &[u64]) -> bool {
        match self.scheme {
            EccScheme::None => true,
            EccScheme::Sed => parity_u64(words[0]) == 0,
            EccScheme::Secded64 => {
                let w = words[0];
                w & 0x80 == 0 && SECDED_56.verify(&[w >> 8], (w & 0x7F) as u16)
            }
            EccScheme::Secded128 => {
                let (w0, w1) = (words[0], words[1]);
                let payload = [(w0 >> 5) | (w1 >> 5) << 59, (w1 >> 5) >> 5];
                let stored = ((w0 & 0x1F) | ((w1 & 0x07) << 5)) as u16;
                w1 & 0x18 == 0 && SECDED_118.verify(&payload, stored)
            }
            EccScheme::Crc32c => {
                let stored = words
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (j, w)| acc | (((*w & 0xFF) as u32) << (8 * j)));
                stored == self.crc.checksum_words_masked(words, self.mask)
            }
        }
    }

    /// Decodes and verifies one group, returning the masked (and, where a
    /// recoverable fault was found, transiently corrected) values.
    /// `logical` is the number of user-visible elements in the group (less
    /// than the group size only in the trailing partial group); `base` is
    /// the global index of the group's first element, used for error
    /// attribution.  Corrected and uncorrectable events are recorded in
    /// `log`; check counts are the caller's responsibility (kernels tally
    /// them locally and flush in bulk).
    pub(crate) fn decode(
        &self,
        stored: &[u64],
        logical: usize,
        base: usize,
        log: &FaultLog,
    ) -> Result<[f64; MAX_GROUP], AbftError> {
        let group = stored.len();
        let mut words = [0u64; MAX_GROUP];
        words[..group].copy_from_slice(stored);
        if let Err(offset) = self.correct_in_place(&mut words, group, log) {
            match self.padding_reset(stored, logical) {
                Some(fixed) => {
                    // The corruption is confined to padding words, which are
                    // architecturally zero: recoverable, and never blamed on
                    // a user-visible element.
                    log.record_corrected(Region::DenseVector);
                    words = fixed;
                }
                None => {
                    log.record_uncorrectable(Region::DenseVector);
                    return Err(AbftError::Uncorrectable {
                        region: Region::DenseVector,
                        index: base + offset,
                    });
                }
            }
        }
        let mut out = [0.0f64; MAX_GROUP];
        for j in 0..group {
            out[j] = f64::from_bits(words[j] & self.mask);
        }
        Ok(out)
    }

    /// One group of a run the batched predicate failed: its masked words
    /// when it passes its own [`GroupCodec::is_clean`] check, else the
    /// correcting [`GroupCodec::decode`].  Only the first `logical` values
    /// are meaningful; arguments as for `decode`.
    #[inline]
    pub(crate) fn read_group(
        &self,
        words: &[u64],
        logical: usize,
        base: usize,
        log: &FaultLog,
    ) -> Result<[f64; MAX_GROUP], AbftError> {
        if !self.is_clean(words) {
            return self.decode(words, logical, base, log);
        }
        let mut out = [0.0f64; MAX_GROUP];
        for (o, &w) in out.iter_mut().zip(&words[..logical]) {
            *o = f64::from_bits(w & self.mask);
        }
        Ok(out)
    }

    /// Per-scheme check-and-correct over one group's words.  Correctable
    /// flips are repaired in `words` (and recorded); an unrecoverable
    /// codeword returns the in-group element offset to report, leaving the
    /// uncorrectable classification to `GroupCodec::decode` (which first
    /// attempts the padding reset).
    fn correct_in_place(
        &self,
        words: &mut [u64; MAX_GROUP],
        group: usize,
        log: &FaultLog,
    ) -> Result<(), usize> {
        match self.scheme {
            EccScheme::None => {}
            EccScheme::Sed => {
                // Per-element parity over the full 64-bit word.
                for (j, w) in words[..group].iter().enumerate() {
                    if parity_u64(*w) != 0 {
                        return Err(j);
                    }
                }
            }
            EccScheme::Secded64 => {
                for (j, w) in words[..group].iter_mut().enumerate() {
                    let stored = (*w & 0xFF) as u16;
                    // Only 7 of the 8 reserved bits carry the code; the 8th is
                    // defined to be zero, so a flip there is trivially
                    // detectable and correctable.
                    if stored & 0x80 != 0 {
                        log.record_corrected(Region::DenseVector);
                    }
                    let stored = stored & 0x7F;
                    let mut payload = [*w >> 8];
                    match SECDED_56.check_and_correct(&mut payload, stored) {
                        DecodeOutcome::NoError => {}
                        DecodeOutcome::CorrectedData(_) => {
                            log.record_corrected(Region::DenseVector);
                            *w = (payload[0] << 8) | (*w & 0xFF);
                        }
                        DecodeOutcome::CorrectedRedundancy => {
                            log.record_corrected(Region::DenseVector);
                        }
                        DecodeOutcome::Uncorrectable => return Err(j),
                    }
                }
            }
            EccScheme::Secded128 => {
                // Pair codeword: 2 × 59 payload bits, 8 redundancy bits split
                // 5 + 3 across the two elements' reserved LSBs.
                let w1 = if group > 1 { words[1] } else { 0 };
                // Bits 3–4 of the second element's reserved field are unused
                // and defined to be zero.
                if w1 & 0x18 != 0 {
                    log.record_corrected(Region::DenseVector);
                }
                let stored = ((words[0] & 0x1F) | ((w1 & 0x07) << 5)) as u16;
                let mut payload = [(words[0] >> 5) | (w1 >> 5) << 59, (w1 >> 5) >> 5];
                match SECDED_118.check_and_correct(&mut payload, stored) {
                    DecodeOutcome::NoError => {}
                    DecodeOutcome::CorrectedData(_) => {
                        log.record_corrected(Region::DenseVector);
                        words[0] = (payload[0] << 5) | (words[0] & 0x1F);
                        if group > 1 {
                            let p1 = (payload[0] >> 59) | (payload[1] << 5);
                            words[1] = (p1 << 5) | (w1 & 0x1F);
                        }
                    }
                    DecodeOutcome::CorrectedRedundancy => {
                        log.record_corrected(Region::DenseVector);
                    }
                    DecodeOutcome::Uncorrectable => return Err(0),
                }
            }
            EccScheme::Crc32c => {
                // Four-element codeword: CRC32C over the masked bit patterns,
                // one checksum byte in each element's reserved LSBs.
                let stored = words[..group]
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (j, w)| acc | (((*w & 0xFF) as u32) << (8 * j)));
                let computed = self.crc.checksum_words_masked(&words[..group], self.mask);
                if stored != computed {
                    if (stored ^ computed).count_ones() == 1 {
                        // Flip in the stored checksum byte: data intact.
                        log.record_corrected(Region::DenseVector);
                    } else if let Some(fixed) = self.crc_try_correct(words, group, stored) {
                        log.record_corrected(Region::DenseVector);
                        *words = fixed;
                    } else {
                        return Err(0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Last-resort recovery for a trailing partial group: the padding
    /// elements beyond the logical length are architecturally zero, so when
    /// re-encoding the logical values (with zeroed padding) reproduces the
    /// stored logical words bit for bit, the corruption is confined to the
    /// padding words and the canonical re-encoding restores the group.
    fn padding_reset(&self, stored: &[u64], logical: usize) -> Option<[u64; MAX_GROUP]> {
        let group = stored.len();
        if logical == 0 || logical >= group {
            return None;
        }
        let mut values = [0.0f64; MAX_GROUP];
        for (v, w) in values[..logical].iter_mut().zip(stored) {
            *v = f64::from_bits(w & self.mask);
        }
        let mut canonical = [0u64; MAX_GROUP];
        self.encode(&values, &mut canonical[..group]);
        if canonical[..logical] == stored[..logical] {
            Some(canonical)
        } else {
            None
        }
    }

    /// Attempts single-bit trial correction of a CRC-protected group.
    fn crc_try_correct(
        &self,
        words: &[u64; MAX_GROUP],
        count: usize,
        stored: u32,
    ) -> Option<[u64; MAX_GROUP]> {
        let mut bytes = [0u8; MAX_GROUP * 8];
        for j in 0..count {
            bytes[j * 8..j * 8 + 8].copy_from_slice(&(words[j] & self.mask).to_le_bytes());
        }
        let bit = abft_ecc::correction::correct_crc32c_single(
            &self.crc,
            &mut bytes[..count * 8],
            stored,
        )?;
        // Corrections inside the masked LSBs cannot correspond to real flips.
        if bit % 64 < 8 {
            return None;
        }
        let mut fixed = *words;
        for j in 0..count {
            let restored = u64::from_le_bytes(bytes[j * 8..j * 8 + 8].try_into().unwrap());
            fixed[j] = restored | (words[j] & !self.mask);
        }
        Some(fixed)
    }

    /// Canonical encode of a whole-group-aligned run: `out[i]` receives the
    /// codeword word of `values[i]` (equal lengths, a multiple of the group
    /// size; padding elements must be zero).  SECDED64 and CRC32C go
    /// through the dispatched batched encoders of [`abft_ecc::verify`], the
    /// per-element schemes store (and, under SED, fold the parity of) each
    /// word in line, and SECDED128 loops [`GroupCodec::encode`] pair by
    /// pair.  Bit-identical to the per-group encode for every scheme.
    #[inline]
    pub(crate) fn encode_run(&self, values: &[f64], out: &mut [u64]) {
        debug_assert_eq!(values.len(), out.len());
        match self.scheme {
            EccScheme::None => {
                for (o, v) in out.iter_mut().zip(values) {
                    *o = v.to_bits();
                }
            }
            EccScheme::Sed => {
                for (o, v) in out.iter_mut().zip(values) {
                    *o = sed_word(*v, self.mask);
                }
            }
            EccScheme::Secded64 => abft_ecc::verify::secded64_encode_words(values, out),
            EccScheme::Secded128 => {
                debug_assert_eq!(values.len() % 2, 0);
                let mut buf = [0.0f64; MAX_GROUP];
                for (v, o) in values.chunks_exact(2).zip(out.chunks_exact_mut(2)) {
                    buf[..2].copy_from_slice(v);
                    self.encode(&buf, o);
                }
            }
            EccScheme::Crc32c => abft_ecc::verify::crc32c_encode_groups(&self.crc, values, out),
        }
    }

    /// `words[j] ← encode(f(j, words[j]))` over a whole-group-aligned run
    /// whose first `logical` words are user-visible (the rest is padding,
    /// rewritten as zero): [`ENCODE_STAGE`] results at a time are computed
    /// into a stack buffer and written with one [`GroupCodec::encode_run`]
    /// — except under the per-element codes that have no batched encoder to
    /// feed (none, SED), whose results are written where they were read.
    /// `f` sees the stored word unchecked — callers certify the run first.
    #[inline]
    pub(crate) fn rewrite_staged(
        &self,
        words: &mut [u64],
        logical: usize,
        mut f: impl FnMut(usize, u64) -> f64,
    ) {
        // Matched outside the loops, which then vectorise around `f`.
        match self.scheme {
            EccScheme::None => {
                for (j, w) in words.iter_mut().enumerate() {
                    *w = f(j, *w).to_bits();
                }
                return;
            }
            EccScheme::Sed => {
                for (j, w) in words.iter_mut().enumerate() {
                    *w = sed_word(f(j, *w), self.mask);
                }
                return;
            }
            _ => {}
        }
        let mut stage = [0.0f64; ENCODE_STAGE];
        for (b, out) in words.chunks_mut(ENCODE_STAGE).enumerate() {
            let at = b * ENCODE_STAGE;
            let n = out.len().min(logical - at);
            for (j, (slot, &w)) in stage[..n].iter_mut().zip(out.iter()).enumerate() {
                *slot = f(at + j, w);
            }
            stage[n..out.len()].fill(0.0);
            self.encode_run(&stage[..out.len()], out);
        }
    }

    /// Canonical encode of one group from plain values (the reserved LSBs of
    /// the inputs are discarded).  `out.len()` must equal the group size;
    /// entries in `values` beyond the logical length must be zero.
    #[inline]
    pub(crate) fn encode(&self, values: &[f64; MAX_GROUP], out: &mut [u64]) {
        let mask = self.mask;
        let count = out.len();
        match self.scheme {
            // Per-element codewords: a group is a run of one.
            EccScheme::None | EccScheme::Sed => self.encode_run(&values[..count], out),
            EccScheme::Secded64 => abft_ecc::verify::scalar::secded64_encode_words(values, out),
            EccScheme::Secded128 => {
                let b0 = values[0].to_bits() >> 5;
                let b1 = if count > 1 {
                    values[1].to_bits() >> 5
                } else {
                    0
                };
                let payload = [b0 | (b1 << 59), b1 >> 5];
                let red = SECDED_118.encode(&payload) as u64;
                out[0] = (b0 << 5) | (red & 0x1F);
                if count > 1 {
                    out[1] = (b1 << 5) | ((red >> 5) & 0x07);
                }
            }
            EccScheme::Crc32c => {
                let mut words = [0u64; MAX_GROUP];
                for (w, v) in words[..count].iter_mut().zip(values) {
                    *w = v.to_bits() & mask;
                }
                let checksum = self.crc.checksum_words_masked(&words[..count], mask);
                for (o, (j, &w)) in out.iter_mut().zip(words[..count].iter().enumerate()) {
                    *o = w | (((checksum >> (8 * j)) & 0xFF) as u64);
                }
            }
        }
    }
}

/// The SED codeword of `value`: its masked bits with their parity in the
/// reserved LSB.
#[inline(always)]
fn sed_word(value: f64, mask: u64) -> u64 {
    let payload = value.to_bits() & mask;
    payload | parity_u64(payload) as u64
}

/// The AND-mask clearing a scheme's reserved mantissa bits.
fn read_mask(scheme: EccScheme) -> u64 {
    !((1u64 << scheme.vector_mantissa_bits()) - 1)
}

/// Largest relative error the masking can introduce for a normal `f64`
/// (2^(reserved bits) ULPs of the 52-bit mantissa).
pub fn masking_relative_error_bound(scheme: EccScheme) -> f64 {
    (1u64 << scheme.vector_mantissa_bits()) as f64 * 2f64.powi(-52)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReductionWorkspace;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.618).sin() * 1000.0 + 0.125)
            .collect()
    }

    fn all_schemes() -> [EccScheme; 5] {
        [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ]
    }

    #[test]
    fn roundtrip_values_within_masking_noise() {
        let values = sample(37);
        for scheme in all_schemes() {
            let v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
            assert_eq!(v.len(), 37);
            assert!(!v.is_empty());
            assert_eq!(v.scheme(), scheme);
            let bound = masking_relative_error_bound(scheme);
            for (i, &orig) in values.iter().enumerate() {
                let got = v.get(i);
                let rel = ((got - orig) / orig).abs();
                assert!(
                    rel <= bound,
                    "{scheme:?} element {i}: rel error {rel} > bound {bound}"
                );
            }
            let log = FaultLog::new();
            v.check_all(&log).unwrap();
            assert_eq!(
                log.total_corrected() + log.total_uncorrectable(),
                0,
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn masked_bits_are_zero_on_read() {
        let values = sample(8);
        for scheme in all_schemes() {
            let v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
            let reserved = scheme.vector_mantissa_bits();
            for i in 0..v.len() {
                let bits = v.get(i).to_bits();
                if reserved > 0 {
                    assert_eq!(bits & ((1 << reserved) - 1), 0, "{scheme:?}");
                }
            }
        }
    }

    #[test]
    fn every_single_flip_is_handled_per_scheme_contract() {
        let values = sample(12);
        for scheme in all_schemes() {
            if scheme == EccScheme::None {
                continue;
            }
            let clean = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
            for index in [0usize, 5, 11] {
                for bit in (0..64).step_by(7) {
                    let mut v = clean.clone();
                    v.inject_bit_flip(index, bit);
                    let log = FaultLog::new();
                    let result = v.check_all(&log);
                    if scheme == EccScheme::Sed {
                        assert!(
                            result.is_err(),
                            "{scheme:?}: flip at ({index},{bit}) undetected"
                        );
                    } else {
                        // Correctable: check succeeds and records a correction.
                        result.unwrap_or_else(|e| {
                            panic!("{scheme:?}: flip at ({index},{bit}) not corrected: {e}")
                        });
                        assert_eq!(log.total_corrected(), 1, "{scheme:?} ({index},{bit})");
                        // Scrubbing restores the clean storage.
                        let mut v2 = v.clone();
                        assert_eq!(v2.scrub(&log).unwrap(), 1);
                        assert_eq!(v2.raw(), clean.raw(), "{scheme:?} ({index},{bit})");
                    }
                }
            }
        }
    }

    #[test]
    fn double_flips_are_detected_by_secded() {
        let values = sample(10);
        for scheme in [EccScheme::Secded64, EccScheme::Secded128] {
            let mut v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
            v.inject_bit_flip(2, 20);
            v.inject_bit_flip(2, 45);
            let log = FaultLog::new();
            assert!(v.check_all(&log).is_err(), "{scheme:?}");
            assert!(log.total_uncorrectable() > 0);
        }
    }

    #[test]
    fn dot_and_axpy_match_plain_arithmetic() {
        let a_vals = sample(25);
        let b_vals: Vec<f64> = sample(25).iter().map(|x| x * 0.5 - 3.0).collect();
        let log = FaultLog::new();
        for scheme in all_schemes() {
            let a = ProtectedVector::from_slice(&a_vals, scheme, Crc32cBackend::SlicingBy16);
            let b = ProtectedVector::from_slice(&b_vals, scheme, Crc32cBackend::SlicingBy16);
            // Reference uses the *masked* values, because that is what the
            // protected kernels are defined to compute with.
            let expect_dot: f64 = (0..25).map(|i| a.get(i) * b.get(i)).sum();
            let got = a.dot_masked(&b, &log).unwrap();
            assert!(
                (got - expect_dot).abs() <= 1e-9 * expect_dot.abs().max(1.0),
                "{scheme:?}"
            );

            let mut y = a.clone();
            y.axpy_masked(2.5, &b, &log).unwrap();
            for i in 0..25 {
                let expect = a.get(i) + 2.5 * b.get(i);
                let rel = (y.get(i) - expect).abs() / expect.abs().max(1e-30);
                assert!(rel < 1e-12, "{scheme:?} axpy element {i}");
            }

            let mut p = a.clone();
            p.xpay_masked(0.75, &b, &log).unwrap();
            for i in 0..25 {
                let expect = b.get(i) + 0.75 * a.get(i);
                let rel = (p.get(i) - expect).abs() / expect.abs().max(1e-30);
                assert!(rel < 1e-12, "{scheme:?} xpay element {i}");
            }

            let n = a.norm2_masked(&log).unwrap();
            assert!((n - expect_dot_norm(&a)).abs() < 1e-9 * n.max(1.0));
        }
    }

    fn expect_dot_norm(a: &ProtectedVector) -> f64 {
        (0..a.len())
            .map(|i| a.get(i) * a.get(i))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn fill_set_and_copy() {
        let log = FaultLog::new();
        for scheme in all_schemes() {
            let mut v = ProtectedVector::zeros(11, scheme, Crc32cBackend::SlicingBy16);
            assert!(v.to_vec().iter().all(|&x| x == 0.0));
            v.fill(3.5);
            assert!(v.to_vec().iter().all(|&x| x == 3.5));
            v.check_all(&log).unwrap();

            v.fill_from_fn(|i| i as f64);
            assert_eq!(v.get(7), 7.0);
            v.check_all(&log).unwrap();

            v.update_from_fn(&log, |i, x| if i == 4 { 99.0 } else { x })
                .unwrap();
            assert_eq!(v.get(4), 99.0);
            assert_eq!(v.get(5), 5.0);
            v.check_all(&log).unwrap();

            let src = ProtectedVector::from_slice(&sample(11), scheme, Crc32cBackend::SlicingBy16);
            v.copy_from(&src, &log).unwrap();
            for i in 0..11 {
                assert_eq!(v.get(i), src.get(i));
            }
        }
    }

    #[test]
    fn masking_noise_bound_is_small() {
        assert_eq!(
            masking_relative_error_bound(EccScheme::None),
            2f64.powi(-52)
        );
        assert!(masking_relative_error_bound(EccScheme::Crc32c) < 1e-12);
        assert!(
            masking_relative_error_bound(EccScheme::Secded128)
                < masking_relative_error_bound(EccScheme::Secded64)
        );
    }

    #[test]
    fn run_encode_and_certify_equal_the_per_group_codec() {
        // 10⁵ payloads with random low bits: stale redundancy must not leak
        // into a codeword.
        let mut x = 0x5EED_0020u64;
        let values: Vec<f64> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        for scheme in all_schemes() {
            for backend in [Crc32cBackend::Auto, Crc32cBackend::SlicingBy8] {
                let codec = ProtectedVector::zeros(0, scheme, backend).codec();
                let group = codec.group();
                let mut run = vec![0u64; values.len()];
                codec.encode_run(&values, &mut run);
                let mut per_group = vec![0u64; values.len()];
                let mut buf = [0.0f64; MAX_GROUP];
                for (v, o) in values.chunks(group).zip(per_group.chunks_mut(group)) {
                    buf[..group].copy_from_slice(v);
                    codec.encode(&buf, o);
                }
                assert!(run == per_group, "{scheme:?} {backend:?}");
                assert!(codec.run_clean(&run), "{scheme:?} {backend:?}");
                assert!(run.chunks(group).all(|g| codec.is_clean(g)));
                if scheme != EccScheme::None {
                    run[77_777] ^= 1 << 21;
                    assert!(!codec.run_clean(&run), "{scheme:?} {backend:?}");
                }
            }
        }
    }

    #[test]
    fn group_sizes() {
        assert_eq!(
            ProtectedVector::zeros(4, EccScheme::Crc32c, Crc32cBackend::SlicingBy16).group_size(),
            4
        );
        assert_eq!(
            ProtectedVector::zeros(4, EccScheme::Sed, Crc32cBackend::SlicingBy16).group_size(),
            1
        );
    }

    #[test]
    fn odd_tail_groups_are_protected() {
        // Lengths that are not multiples of the group size still protect the
        // trailing elements.
        let log = FaultLog::new();
        for scheme in [EccScheme::Secded128, EccScheme::Crc32c] {
            for n in [1usize, 2, 3, 5, 6, 7, 9] {
                let values = sample(n);
                let clean =
                    ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
                let mut v = clean.clone();
                v.inject_bit_flip(n - 1, 37);
                v.check_all(&log).unwrap();
                assert!(log.total_corrected() > 0, "{scheme:?} n={n}");
                log.reset();
            }
        }
    }

    #[test]
    fn parallel_hint_roundtrips_and_survives_clone() {
        let mut v = ProtectedVector::zeros(4, EccScheme::Sed, Crc32cBackend::SlicingBy16);
        assert!(!v.is_parallel());
        v.set_parallel(true);
        assert!(v.is_parallel());
        assert!(v.clone().is_parallel());
    }

    #[test]
    fn logical_group_counts() {
        for (scheme, n, expect) in [
            (EccScheme::Sed, 7usize, 7u64),
            (EccScheme::Secded64, 7, 7),
            (EccScheme::Secded128, 7, 4),
            (EccScheme::Crc32c, 7, 2),
            (EccScheme::Crc32c, 8, 2),
            (EccScheme::Crc32c, 0, 0),
        ] {
            let v = ProtectedVector::zeros(n, scheme, Crc32cBackend::SlicingBy16);
            assert_eq!(v.logical_groups(), expect, "{scheme:?} n={n}");
            // The padded storage is always a whole number of groups, and
            // every one of them holds at least one logical element.
            assert_eq!(
                v.raw().len() as u64,
                expect * v.group_size() as u64,
                "{scheme:?} n={n}"
            );
        }
    }

    /// Every two-operand kernel rejects an operand of another length or
    /// another scheme, `dot_masked_with` on its chunked path too (16383
    /// elements split on a multi-core host).
    #[test]
    fn mismatched_operands_panic() {
        type Kernel = fn(&mut ProtectedVector, &ProtectedVector, &FaultLog);
        let kernels: [(&str, Kernel); 6] = [
            ("dot_masked", |s, x, log| drop(s.dot_masked(x, log))),
            ("dot_masked_with", |s, x, log| {
                drop(s.dot_masked_with(x, log, &mut ReductionWorkspace::new()))
            }),
            ("copy_from", |s, x, log| drop(s.copy_from(x, log))),
            ("axpy_masked", |s, x, log| drop(s.axpy_masked(1.0, x, log))),
            ("xpay_masked", |s, x, log| drop(s.xpay_masked(1.0, x, log))),
            ("dot_axpy_masked", |s, x, log| {
                drop(s.dot_axpy_masked(1.0, x, log))
            }),
        ];
        let n = 16383;
        let vector = |n, scheme| {
            let mut v = ProtectedVector::zeros(n, scheme, Crc32cBackend::Auto);
            v.set_parallel(true);
            v
        };
        for (name, kernel) in kernels {
            for (len, scheme) in [(n + 1, EccScheme::Sed), (n, EccScheme::Secded64)] {
                let (mut s, x) = (vector(n, EccScheme::Sed), vector(len, scheme));
                let log = FaultLog::new();
                let run = std::panic::AssertUnwindSafe(|| kernel(&mut s, &x, &log));
                let panicked = std::panic::catch_unwind(run).is_err();
                assert!(panicked, "{name}: Sed x{n} against {scheme:?} x{len}");
            }
        }
    }

    fn small_parity() -> ParityConfig {
        small_parity_of(8)
    }

    fn small_parity_of(chunk_words: usize) -> ParityConfig {
        ParityConfig {
            stripe_chunks: 3,
            chunk_words,
        }
    }

    #[test]
    fn parity_rebuild_restores_an_erased_chunk_bit_for_bit() {
        let log = FaultLog::new();
        for scheme in [
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ] {
            // 67 elements: every scheme gets a trailing partial chunk, and
            // SECDED128 additionally gets a trailing partial codeword group.
            let mut v =
                ProtectedVector::from_slice(&sample(67), scheme, Crc32cBackend::SlicingBy16);
            v.enable_parity(small_parity());
            let clean = v.raw().to_vec();
            let last = v.parity_chunks() - 1;
            for chunk in [1usize, last] {
                v.inject_chunk_erasure(8, chunk, 0x00DD_F00D + chunk as u64);
                assert_ne!(v.raw(), &clean[..], "{scheme:?} chunk {chunk}");
                assert!(v.try_recover(&log), "{scheme:?} chunk {chunk}");
                assert_eq!(v.raw(), &clean[..], "{scheme:?} chunk {chunk}");
            }
            assert!(log.total_rebuilt() >= 2, "{scheme:?}");
            log.reset();
        }
    }

    #[test]
    fn double_chunk_loss_in_one_stripe_aborts_instead_of_fabricating() {
        let log = FaultLog::new();
        let mut v = ProtectedVector::from_slice(
            &sample(64),
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        );
        v.enable_parity(ParityConfig {
            stripe_chunks: 4,
            chunk_words: 8,
        });
        v.inject_chunk_erasure(8, 0, 1);
        v.inject_chunk_erasure(8, 1, 2);
        assert!(
            !v.try_recover(&log),
            "two losses per stripe exceed XOR parity"
        );
        // The storage must still *fail* verification — never a wrong answer.
        assert!(v.check_all(&log).is_err());
    }

    #[test]
    fn corrupt_parity_never_reads_on_clean_data_and_never_fakes_a_rebuild() {
        let log = FaultLog::new();
        let values = sample(64);
        let mut v =
            ProtectedVector::from_slice(&values, EccScheme::Secded64, Crc32cBackend::SlicingBy16);
        v.enable_parity(ParityConfig {
            stripe_chunks: 2,
            chunk_words: 8,
        });
        let clean = v.raw().to_vec();
        // A DUE confined to the parity words: data stays clean, so the
        // parity is simply never consulted.
        v.inject_parity_bit_flip(3, 17);
        v.check_all(&log).unwrap();
        assert_eq!(v.scrub(&log).unwrap(), 0);
        // Parity stale by ONE bit + a lost chunk: the rebuilt chunk is one
        // flip away from the truth, which the embedded ECC corrects — the
        // ladder recovers the exact original rather than aborting.
        v.inject_chunk_erasure(8, 0, 7);
        assert!(v.try_recover(&log));
        assert_eq!(v.raw(), &clean[..]);
        // Parity stale by TWO bits in one word + a lost chunk: the rebuilt
        // word carries a double flip the ECC can only detect.  The ladder
        // must abort — never hand back a wrong chunk.
        v.refresh_parity();
        v.inject_parity_bit_flip(3, 17);
        v.inject_parity_bit_flip(3, 44);
        v.inject_chunk_erasure(8, 0, 11);
        assert!(!v.try_recover(&log));
        assert!(v.check_all(&log).is_err());
    }

    #[test]
    fn parity_tracks_the_mutating_write_paths() {
        let log = FaultLog::new();
        let values = sample(40);
        let mut v =
            ProtectedVector::from_slice(&values, EccScheme::Secded64, Crc32cBackend::SlicingBy16);
        v.enable_parity(small_parity());
        let x = ProtectedVector::from_slice(
            &sample(40),
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        );
        v.axpy_masked(1.5, &x, &log).unwrap();
        v.update_from_fn(&log, |_, x| x * 0.25).unwrap();
        v.copy_from(&x, &log).unwrap();
        // The incremental refreshes must equal a from-scratch recompute.
        let incremental = v.parity_words().unwrap().to_vec();
        let mut fresh = v.clone();
        fresh.refresh_parity();
        assert_eq!(fresh.parity_words().unwrap(), &incremental[..]);
        // And an erasure after the updates is still recoverable.
        let clean = v.raw().to_vec();
        v.inject_chunk_erasure(8, 2, 99);
        assert!(v.try_recover(&log));
        assert_eq!(v.raw(), &clean[..]);
    }

    #[test]
    fn parity_precheck_aborts_with_zero_mutation() {
        let log = FaultLog::new();
        let mut v = ProtectedVector::from_slice(
            &sample(32),
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        );
        v.enable_parity(small_parity());
        let mut x = ProtectedVector::from_slice(
            &sample(32),
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        );
        // A double flip makes the operand uncorrectable.
        x.inject_bit_flip(1, 20);
        x.inject_bit_flip(1, 45);
        let before = v.raw().to_vec();
        let parity_before = v.parity_words().unwrap().to_vec();
        assert!(v.axpy_masked(2.0, &x, &log).is_err());
        assert_eq!(v.raw(), &before[..], "failed kernel must not mutate");
        assert_eq!(v.parity_words().unwrap(), &parity_before[..]);
    }

    /// The per-group walkers every kernel ran on before the block-certified
    /// range kernels of [`crate::blas1`] replaced them, kept verbatim as the
    /// reference the kernels are differentially tested against: one scalar
    /// `decode_group` per codeword, whatever its state (the dot and the
    /// two-operand updates fuse the check in line under the per-element
    /// codes).  Same-scheme operands only.
    impl ProtectedVector {
        fn update_from_fn_reference(
            &mut self,
            log: &FaultLog,
            f: impl FnMut(usize, f64) -> f64,
        ) -> Result<(), AbftError> {
            let certified = self.parity_precheck(&[], log)?;
            let mut tally = 0u64;
            let result = self.update_from_fn_inner(log, &mut tally, f);
            self.record_reference_checks(log, certified, tally);
            if result.is_ok() {
                self.parity_commit();
            }
            result
        }

        fn update_from_fn_inner(
            &mut self,
            log: &FaultLog,
            tally: &mut u64,
            mut f: impl FnMut(usize, f64) -> f64,
        ) -> Result<(), AbftError> {
            let group = self.group_size();
            let len = self.len;
            let mut base = 0;
            while base < self.data.len() {
                *tally += 1;
                let (mut buf, _) = self.decode_group(base, log)?;
                let count = group.min(len.saturating_sub(base));
                for (j, value) in buf[..count].iter_mut().enumerate() {
                    *value = f(base + j, *value);
                }
                self.encode_group(base, &buf);
                base += group;
            }
            Ok(())
        }

        fn read_checked_reference(&self, out: &mut [f64], log: &FaultLog) -> Result<(), AbftError> {
            assert_eq!(out.len(), self.len, "read_checked: length mismatch");
            let mut tally = 0u64;
            let result = self.read_checked_inner(out, log, &mut tally);
            if self.scheme != EccScheme::None {
                log.record_checks(Region::DenseVector, tally);
            }
            result
        }

        fn read_checked_inner(
            &self,
            out: &mut [f64],
            log: &FaultLog,
            tally: &mut u64,
        ) -> Result<(), AbftError> {
            let group = self.group_size();
            let mut base = 0;
            while base < self.data.len() {
                *tally += 1;
                let (buf, logical) = self.decode_group(base, log)?;
                out[base..base + logical].copy_from_slice(&buf[..logical]);
                base += group;
            }
            Ok(())
        }

        fn copy_from_reference(
            &mut self,
            other: &ProtectedVector,
            log: &FaultLog,
        ) -> Result<(), AbftError> {
            self.assert_operand(other, "copy_from");
            let certified = self.parity.is_some() && other.barrier_certify(log)?;
            let mut tally = 0u64;
            let result = self.copy_from_inner(other, log, &mut tally);
            self.record_reference_checks(log, certified, tally);
            if result.is_ok() {
                self.parity_commit();
            }
            result
        }

        fn copy_from_inner(
            &mut self,
            other: &ProtectedVector,
            log: &FaultLog,
            tally: &mut u64,
        ) -> Result<(), AbftError> {
            let group = self.group_size();
            let mut base = 0;
            while base < self.data.len() {
                *tally += 1;
                let (buf, _) = other.decode_group(base, log)?;
                self.encode_group(base, &buf);
                base += group;
            }
            Ok(())
        }

        /// Accumulation is blocked per [`ACC_BLOCK`] elements, like the
        /// masked kernels.
        fn dot_reference(&self, other: &ProtectedVector, log: &FaultLog) -> Result<f64, AbftError> {
            self.assert_operand(other, "dot");
            let mut tally = 0u64;
            let result = self.dot_inner(other, log, &mut tally);
            if self.scheme != EccScheme::None {
                log.record_checks(Region::DenseVector, tally);
            }
            result
        }

        fn dot_inner(
            &self,
            other: &ProtectedVector,
            log: &FaultLog,
            tally: &mut u64,
        ) -> Result<f64, AbftError> {
            let group = self.group_size();
            let per_element = matches!(self.scheme, EccScheme::None | EccScheme::Sed);
            let mask = self.read_mask;
            let sed = self.scheme == EccScheme::Sed;
            let mut total = 0.0;
            let mut block = 0;
            while block < self.data.len() {
                let block_end = (block + ACC_BLOCK).min(self.data.len());
                let mut acc = 0.0;
                if per_element {
                    // Per-element codewords: fused check + multiply without
                    // the group-buffer machinery.
                    for i in block..block_end {
                        let (a, b) = (self.data[i], other.data[i]);
                        if sed {
                            *tally += 2;
                            if parity_u64(a) != 0 || parity_u64(b) != 0 {
                                log.record_uncorrectable(Region::DenseVector);
                                return Err(AbftError::Uncorrectable {
                                    region: Region::DenseVector,
                                    index: i,
                                });
                            }
                        }
                        acc += f64::from_bits(a & mask) * f64::from_bits(b & mask);
                    }
                } else {
                    let mut base = block;
                    while base < block_end {
                        *tally += 2;
                        let (a, count) = self.decode_group(base, log)?;
                        let (b, _) = other.decode_group(base, log)?;
                        for j in 0..count {
                            acc += a[j] * b[j];
                        }
                        base += group;
                    }
                }
                total += acc;
                block = block_end;
            }
            Ok(total)
        }

        /// One checked read per group and the blocked sum of squares — not
        /// `dot_reference(self, self)`, which checks and corrects every
        /// group twice where the single-pass kernel does so once.
        fn norm2_reference(&self, log: &FaultLog) -> Result<f64, AbftError> {
            let mut values = vec![0.0; self.len];
            self.read_checked_reference(&mut values, log)?;
            let block = |b: &[f64]| b.iter().fold(0.0, |acc, v| acc + v * v);
            Ok(values
                .chunks(ACC_BLOCK)
                .map(block)
                .fold(0.0, |t, p| t + p)
                .sqrt())
        }

        fn axpy_reference(
            &mut self,
            alpha: f64,
            x: &ProtectedVector,
            log: &FaultLog,
        ) -> Result<(), AbftError> {
            self.zip_reference(x, log, |s, xv| s + alpha * xv)
        }

        fn xpay_reference(
            &mut self,
            alpha: f64,
            x: &ProtectedVector,
            log: &FaultLog,
        ) -> Result<(), AbftError> {
            self.zip_reference(x, log, |s, xv| xv + alpha * s)
        }

        /// `self[i] ← op(self[i], x[i])`, one decode and one encode per group.
        fn zip_reference(
            &mut self,
            x: &ProtectedVector,
            log: &FaultLog,
            op: impl Fn(f64, f64) -> f64,
        ) -> Result<(), AbftError> {
            self.assert_operand(x, "vector update");
            let certified = self.parity_precheck(&[x], log)?;
            let mut tally = 0u64;
            let result = self.zip_inner(x, log, &mut tally, op);
            self.record_reference_checks(log, certified, tally);
            if result.is_ok() {
                self.parity_commit();
            }
            result
        }

        fn zip_inner(
            &mut self,
            x: &ProtectedVector,
            log: &FaultLog,
            tally: &mut u64,
            op: impl Fn(f64, f64) -> f64,
        ) -> Result<(), AbftError> {
            let group = self.group_size();
            if matches!(self.scheme, EccScheme::None | EccScheme::Sed) {
                // Per-element codewords: fused check + update + re-encode.
                let mask = self.read_mask;
                let sed = self.scheme == EccScheme::Sed;
                for (i, (s, &xw)) in self.data.iter_mut().zip(&x.data).enumerate() {
                    if sed {
                        *tally += 2;
                        if parity_u64(*s) != 0 || parity_u64(xw) != 0 {
                            log.record_uncorrectable(Region::DenseVector);
                            return Err(AbftError::Uncorrectable {
                                region: Region::DenseVector,
                                index: i,
                            });
                        }
                    }
                    let updated = op(f64::from_bits(*s & mask), f64::from_bits(xw & mask));
                    let payload = updated.to_bits() & mask;
                    *s = if sed {
                        payload | parity_u64(payload) as u64
                    } else {
                        updated.to_bits()
                    };
                }
                return Ok(());
            }
            let mut base = 0;
            while base < self.data.len() {
                *tally += 2;
                let (mut s, count) = self.decode_group(base, log)?;
                let (xv, _) = x.decode_group(base, log)?;
                for j in 0..count {
                    s[j] = op(s[j], xv[j]);
                }
                self.encode_group(base, &s);
                base += group;
            }
            Ok(())
        }

        /// `self ← self + α·p; p ← r + β·p`, one decode of each operand and
        /// one encode of each written vector per group.
        fn axpy_xpay_reference(
            &mut self,
            alpha: f64,
            p: &mut ProtectedVector,
            beta: f64,
            r: &ProtectedVector,
            log: &FaultLog,
        ) -> Result<(), AbftError> {
            self.assert_operand(p, "axpy_xpay");
            self.assert_operand(r, "axpy_xpay");
            let certified = self.parity_precheck(&[p, r], log)?;
            let mut tally = 0u64;
            let mut walk = || {
                for base in (0..self.data.len()).step_by(self.group_size()) {
                    tally += 3;
                    let (mut x, count) = self.decode_group(base, log)?;
                    let (mut pv, _) = p.decode_group(base, log)?;
                    let (rv, _) = r.decode_group(base, log)?;
                    for j in 0..count {
                        x[j] += alpha * pv[j];
                        pv[j] = rv[j] + beta * pv[j];
                    }
                    self.encode_group(base, &x);
                    p.encode_group(base, &pv);
                }
                Ok(())
            };
            let result = walk();
            self.record_reference_checks(log, certified, tally);
            if result.is_ok() {
                self.parity_commit();
                p.parity_commit();
            }
            result
        }

        /// A reference walk's checks, unless the parity barrier's sweeps
        /// were the kernel's certification.
        fn record_reference_checks(&self, log: &FaultLog, certified: bool, tally: u64) {
            if self.scheme != EccScheme::None && !certified {
                log.record_checks(Region::DenseVector, tally);
            }
        }

        /// Re-encodes the group starting at `base` from plain values; entries
        /// in `values` beyond the logical length must be zero.
        fn encode_group(&mut self, base: usize, values: &[f64; MAX_GROUP]) {
            let group = self.group_size();
            let codec = self.codec();
            codec.encode(values, &mut self.data[base..base + group]);
        }
    }

    /// `(index, bit)` flips of one differential case.
    type Flips = Vec<(usize, u32)>;

    /// No flip, then at each edge index a payload bit, a redundancy bit, the
    /// reserved field's top bit, two bits in one word and two bits in two
    /// words of one codeword; every padding slot gets the same.  The edges
    /// are those of the first two 128-element write stages, of the first
    /// [`ACC_BLOCK`], of the stage after it and of the vector.  A `chunked`
    /// sweep plants one correctable and one uncorrectable flip on each side
    /// of every block edge (its chunk boundaries) and in the padding
    /// instead.
    fn differential_cases(v: &ProtectedVector, chunked: bool) -> Vec<Flips> {
        let (n, padded, group) = (v.len(), v.raw().len(), v.group_size());
        let edges: Vec<usize> = if chunked {
            let blocks = (ACC_BLOCK..n).step_by(ACC_BLOCK);
            blocks.flat_map(|b| [b - 1, b]).collect()
        } else {
            vec![0, 127, 128, 255, 4095, 4096, 4223, n.saturating_sub(1)]
        };
        let mut indices: Vec<usize> = edges.into_iter().filter(|&i| i < n).collect();
        indices.sort_unstable();
        indices.dedup();
        let mut cases = vec![Vec::new()];
        for i in indices.into_iter().chain(n..padded) {
            cases.push(vec![(i, 33)]);
            cases.push(vec![(i, 20), (i, 45)]);
            if chunked {
                continue;
            }
            cases.push(vec![(i, 3)]);
            cases.push(vec![(i, 7)]);
            let neighbour = i ^ 1;
            if group > 1 && neighbour < padded {
                cases.push(vec![(i, 20), (neighbour, 45)]);
            }
        }
        cases
    }

    /// Whether the embedded code alone absorbs `flips` (no parity tier):
    /// an unprotected vector notices nothing, parity misses even flip
    /// counts, and the correcting codes fix one flip per codeword or any
    /// damage confined to the architecturally zero padding.
    fn recoverable(scheme: EccScheme, n: usize, flips: &[(usize, u32)]) -> bool {
        match scheme {
            EccScheme::None => true,
            EccScheme::Sed => flips.len().is_multiple_of(2),
            _ => flips.len() < 2 || flips.iter().all(|&(i, _)| i >= n),
        }
    }

    /// Runs `kernel` and `reference` on clones of one faulted state and
    /// asserts they agree on result (error index included), fault log and
    /// whatever `observe` extracts (storage, parity, output bits, the calls
    /// `f` received).  Returns whether the kernel succeeded.
    ///
    /// When a `chunked` kernel aborts, the chunks beside the failing one may
    /// have run: only the error and the fault events must then agree, not
    /// the check count or what was written.
    fn assert_same<S: Clone, R: PartialEq + std::fmt::Debug, O: PartialEq + std::fmt::Debug>(
        label: &str,
        chunked: bool,
        state: &S,
        kernel: impl FnOnce(&mut S, &FaultLog) -> Result<R, AbftError>,
        reference: impl FnOnce(&mut S, &FaultLog) -> Result<R, AbftError>,
        observe: impl Fn(&S) -> O,
    ) -> bool {
        let (mut got, mut want) = (state.clone(), state.clone());
        let (log_got, log_want) = (FaultLog::new(), FaultLog::new());
        let result = kernel(&mut got, &log_got);
        assert_eq!(result, reference(&mut want, &log_want), "{label}");
        let (mut faults_got, mut faults_want) = (log_got.snapshot(), log_want.snapshot());
        if chunked && result.is_err() {
            (faults_got.checks, faults_want.checks) = ([0; 3], [0; 3]);
        } else {
            assert_eq!(observe(&got), observe(&want), "{label}");
        }
        assert_eq!(faults_got, faults_want, "{label}");
        result.is_ok()
    }

    const ALPHA: f64 = 0.625;
    const BETA: f64 = -1.25;

    /// Which sweeps run a table kernel: a serial vector runs a `_with`
    /// reduction as its serial kernel, and a parallel one runs the serial
    /// reductions exactly as a serial vector does.
    #[derive(Clone, Copy, PartialEq)]
    enum Runs {
        Serial,
        Chunked,
        Both,
    }

    /// A masked kernel on one vector, or on a vector and a same-scheme
    /// operand, with its result as bits (0 for the updates).
    type Single = fn(&mut ProtectedVector, &FaultLog) -> Result<u64, AbftError>;
    type Pair = fn(&mut ProtectedVector, &ProtectedVector, &FaultLog) -> Result<u64, AbftError>;

    /// The one-vector masked kernels beside their references.
    const SINGLES: [(&str, Runs, Single, Single); 3] = [
        (
            "norm2_masked",
            Runs::Serial,
            |v, log| v.norm2_masked(log).map(f64::to_bits),
            |v, log| v.norm2_reference(log).map(f64::to_bits),
        ),
        (
            "norm2_masked_with",
            Runs::Chunked,
            |v, log| {
                let ws = &mut ReductionWorkspace::new();
                v.norm2_masked_with(log, ws).map(f64::to_bits)
            },
            |v, log| v.norm2_reference(log).map(f64::to_bits),
        ),
        (
            "scale_masked",
            Runs::Both,
            |v, log| v.scale_masked(ALPHA, log).map(|()| 0),
            |v, log| {
                v.update_from_fn_reference(log, |_, x| x * ALPHA)
                    .map(|()| 0)
            },
        ),
    ];

    /// `self ← self + α·x`, then the dot of the stored result with itself.
    fn dot_axpy_reference(
        s: &mut ProtectedVector,
        x: &ProtectedVector,
        log: &FaultLog,
    ) -> Result<u64, AbftError> {
        s.axpy_reference(ALPHA, x, log)?;
        let s = &*s;
        s.dot_reference(s, &FaultLog::new()).map(f64::to_bits)
    }

    /// The two-operand masked kernels beside their references.
    const PAIRS: [(&str, Runs, Pair, Pair); 7] = [
        (
            "dot_masked",
            Runs::Serial,
            |s, x, log| s.dot_masked(x, log).map(f64::to_bits),
            |s, x, log| s.dot_reference(x, log).map(f64::to_bits),
        ),
        (
            "dot_masked_with",
            Runs::Chunked,
            |s, x, log| {
                let ws = &mut ReductionWorkspace::new();
                s.dot_masked_with(x, log, ws).map(f64::to_bits)
            },
            |s, x, log| s.dot_reference(x, log).map(f64::to_bits),
        ),
        (
            "axpy_masked",
            Runs::Both,
            |s, x, log| s.axpy_masked(ALPHA, x, log).map(|()| 0),
            |s, x, log| s.axpy_reference(ALPHA, x, log).map(|()| 0),
        ),
        (
            "xpay_masked",
            Runs::Both,
            |s, x, log| s.xpay_masked(ALPHA, x, log).map(|()| 0),
            |s, x, log| s.xpay_reference(ALPHA, x, log).map(|()| 0),
        ),
        (
            "scale_axpy_masked",
            Runs::Both,
            |s, x, log| s.scale_axpy_masked(BETA, ALPHA, x, log).map(|()| 0),
            |s, x, log| {
                // The scaled intermediate as the scale kernel stores it.
                let mask = s.read_mask;
                let op = move |v: f64, xv| f64::from_bits((v * BETA).to_bits() & mask) + ALPHA * xv;
                s.zip_reference(x, log, op).map(|()| 0)
            },
        ),
        (
            "dot_axpy_masked",
            Runs::Serial,
            |s, x, log| s.dot_axpy_masked(ALPHA, x, log).map(f64::to_bits),
            dot_axpy_reference,
        ),
        (
            "dot_axpy_masked_with",
            Runs::Chunked,
            |s, x, log| {
                let ws = &mut ReductionWorkspace::new();
                s.dot_axpy_masked_with(ALPHA, x, log, ws).map(f64::to_bits)
            },
            dot_axpy_reference,
        ),
    ];

    /// Every range kernel against its per-group reference, on every
    /// [`differential_cases`] fault of every scheme and length, the
    /// two-operand kernels with the fault in either operand.  A `parallel`
    /// sweep sets the vectors' hint, so a long enough vector runs the
    /// chunked paths, and runs only the kernels that have one.
    ///
    /// The table kernels skip the reserved-bit flip: in every kernel it
    /// takes the `GroupCodec::read_group` → `decode` path a redundancy flip
    /// takes, and `read_checked`, `update_from_fn` and `copy_from` keep it
    /// for the codec branch it reaches.
    fn differential_sweep(lengths: &[usize], parity: Option<ParityConfig>, parallel: bool) {
        let stored =
            |v: &ProtectedVector| (v.raw().to_vec(), v.parity_words().map(<[u64]>::to_vec));
        let runs = |r: Runs| r == Runs::Both || (r == Runs::Chunked) == parallel;
        for scheme in all_schemes() {
            if parity.is_some() && scheme == EccScheme::None {
                continue;
            }
            for &n in lengths {
                let encode = |values: &[f64]| {
                    let mut v = ProtectedVector::from_slice(values, scheme, Crc32cBackend::Auto);
                    v.set_parallel(parallel);
                    if let Some(config) = parity {
                        v.enable_parity(config);
                    }
                    v
                };
                let clean = encode(&sample(n));
                let operand = encode(&sample(n).iter().map(|x| x * 0.5 - 3.0).collect::<Vec<_>>());
                let target = encode(&vec![-7.0; n]);
                for flips in differential_cases(&clean, parallel) {
                    let label = format!(
                        "{scheme:?} n={n} parity={parity:?} parallel={parallel} flips={flips:?}"
                    );
                    // Without the parity tier, whose barrier also refuses
                    // damage the embedded code would absorb, every kernel
                    // succeeds exactly when the code alone recovers.
                    let recovers = |name: &str, ok: bool| {
                        if parity.is_none() {
                            assert_eq!(ok, recoverable(scheme, n, &flips), "{name} {label}");
                        }
                    };
                    let faulted = |v: &ProtectedVector| {
                        let mut v = v.clone();
                        for &(index, bit) in &flips {
                            v.data[index] ^= 1u64 << bit;
                        }
                        v
                    };
                    let v = faulted(&clean);

                    if !parallel {
                        let ok = assert_same(
                            &format!("read_checked {label}"),
                            false,
                            &vec![-7.0f64; n],
                            |out, log| v.read_checked(out, log),
                            |out, log| v.read_checked_reference(out, log),
                            |out| out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        );
                        recovers("read_checked", ok);

                        // Every logical element once, ascending, none at or
                        // after an uncorrectable group — and identically so.
                        let f = |calls: &mut Vec<usize>, i: usize, x: f64| {
                            calls.push(i);
                            x * 1.5 + i as f64
                        };
                        let ok = assert_same(
                            &format!("update_from_fn {label}"),
                            false,
                            &(v.clone(), Vec::new()),
                            |(s, calls), log| s.update_from_fn(log, |i, x| f(calls, i, x)),
                            |(s, calls), log| {
                                s.update_from_fn_reference(log, |i, x| f(calls, i, x))
                            },
                            |(s, calls)| (stored(s), calls.clone()),
                        );
                        recovers("update_from_fn", ok);

                        let ok = assert_same(
                            &format!("copy_from {label}"),
                            false,
                            &target,
                            |dst, log| dst.copy_from(&v, log),
                            |dst, log| dst.copy_from_reference(&v, log),
                            stored,
                        );
                        recovers("copy_from", ok);
                    }

                    if flips.iter().any(|&(_, bit)| bit == 7) {
                        continue;
                    }
                    for (name, when, kernel, reference) in SINGLES {
                        if runs(when) {
                            let label = format!("{name} {label}");
                            let ok = assert_same(&label, parallel, &v, kernel, reference, stored);
                            recovers(name, ok);
                        }
                    }
                    let sides = [(&v, &operand), (&clean, &faulted(&operand))];
                    let sides = if flips.is_empty() {
                        &sides[..1]
                    } else {
                        &sides[..]
                    };
                    // The fused x/p update with the fault in each of its
                    // three operands in turn.
                    let r = encode(&sample(n).iter().map(|x| 2.0 - x).collect::<Vec<_>>());
                    let triples = [
                        (&v, operand.clone(), r.clone()),
                        (&clean, faulted(&operand), r.clone()),
                        (&clean, operand.clone(), faulted(&r)),
                    ];
                    let fused_sides = if flips.is_empty() { 1 } else { 3 };
                    for (side, (s, p, r)) in triples.iter().take(fused_sides).enumerate() {
                        let ok = assert_same(
                            &format!("axpy_xpay_masked fault in operand {side} {label}"),
                            parallel,
                            &((*s).clone(), p.clone()),
                            |(s, p), log| s.axpy_xpay_masked(ALPHA, p, BETA, r, log),
                            |(s, p), log| s.axpy_xpay_reference(ALPHA, p, BETA, r, log),
                            |(s, p)| (stored(s), stored(p)),
                        );
                        recovers("axpy_xpay_masked", ok);
                    }
                    for (side, (s, x)) in sides.iter().enumerate() {
                        for (name, when, kernel, reference) in PAIRS {
                            if !runs(when) {
                                continue;
                            }
                            let ok = assert_same(
                                &format!("{name} fault in operand {side} {label}"),
                                parallel,
                                *s,
                                |s, log| kernel(s, x, log),
                                |s, log| reference(s, x, log),
                                stored,
                            );
                            recovers(name, ok);
                        }
                    }
                }
            }
        }
    }

    /// The parallel-hinted lengths split into block-aligned chunks on a
    /// multi-core host (16383 into four, 8192 into two), so every kernel
    /// that follows the hint — the `_with` reductions included — runs its
    /// chunked path.
    #[test]
    fn range_kernels_match_the_per_group_walkers_they_replaced() {
        differential_sweep(&[0, 1, 3, 127, 128, 4095, 4096, 4097, 8202], None, false);
        differential_sweep(&[16383], None, true);
    }

    #[test]
    fn range_kernels_keep_the_parity_barriers_of_the_walkers() {
        // The last chunk is partial and holds the 4095/4096 block edge.
        differential_sweep(&[4097], Some(small_parity_of(680)), false);
        differential_sweep(&[8192], Some(small_parity_of(2048)), true);
    }

    #[test]
    fn update_from_fn_visits_each_element_once_and_stops_at_a_due() {
        let log = FaultLog::new();
        for scheme in all_schemes() {
            let mut v = ProtectedVector::from_slice(&sample(8202), scheme, Crc32cBackend::Auto);
            let mut calls = Vec::new();
            v.update_from_fn(&log, |i, x| {
                calls.push(i);
                x
            })
            .unwrap();
            assert!(calls.iter().copied().eq(0..8202), "{scheme:?}");
            if matches!(scheme, EccScheme::None | EccScheme::Sed) {
                continue;
            }
            // A double flip in element 4100: nothing from its group on.
            v.data[4100] ^= 1 << 20 | 1 << 45;
            calls.clear();
            let err = v.update_from_fn(&log, |i, x| {
                calls.push(i);
                x
            });
            assert!(err.is_err(), "{scheme:?}");
            assert!(calls.iter().copied().eq(0..4100), "{scheme:?}");
        }
    }

    #[test]
    fn recovery_without_parity_declines() {
        let log = FaultLog::new();
        let mut v = ProtectedVector::from_slice(
            &sample(32),
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        );
        v.inject_chunk_erasure(8, 0, 5);
        assert!(!v.try_recover(&log));
        assert_eq!(log.total_rebuilt(), 0);
    }

    #[test]
    #[should_panic]
    fn parity_requires_a_real_scheme() {
        let mut v = ProtectedVector::zeros(8, EccScheme::None, Crc32cBackend::SlicingBy16);
        v.enable_parity(ParityConfig::default());
    }
}
