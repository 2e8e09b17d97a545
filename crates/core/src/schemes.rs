//! Protection scheme selection and the bit-budget bookkeeping behind it.
//!
//! Each [`EccScheme`] fixes, for each protected region, how many spare bits
//! are claimed, how many elements share one codeword ("group"), and the
//! resulting constraint on the matrix dimensions (§VI of the paper: SED
//! limits the column count to 2³¹−1, SECDED and CRC32C to 2²⁴−1; row-pointer
//! protection with 4 spare bits per entry limits NNZ to 2²⁸−1).

use abft_ecc::Crc32cBackend;

/// The software ECC scheme applied to a protected region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EccScheme {
    /// No protection: data is stored verbatim and never checked.  Used as the
    /// per-region "off switch" so partially protected configurations
    /// (e.g. Fig. 4: elements only) can be expressed.
    #[default]
    None,
    /// Single Error Detection — one parity bit per codeword.
    Sed,
    /// SECDED Hamming code over (roughly) 64 data bits per codeword.
    Secded64,
    /// SECDED Hamming code over (roughly) 128 data bits per codeword.
    Secded128,
    /// CRC32C checksum over a row (matrix) or group (vectors).
    Crc32c,
}

impl EccScheme {
    /// All concrete schemes (excluding `None`), in the order the paper's
    /// figures present them.
    pub const ALL: [EccScheme; 4] = [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            EccScheme::None => "Unprotected",
            EccScheme::Sed => "SED",
            EccScheme::Secded64 => "SECDED64",
            EccScheme::Secded128 => "SECDED128",
            EccScheme::Crc32c => "CRC32C",
        }
    }

    /// Number of high bits of each CSR **column index** reserved for
    /// redundancy (Fig. 1).
    pub fn element_index_bits(self) -> u32 {
        match self {
            EccScheme::None => 0,
            EccScheme::Sed => 1,
            EccScheme::Secded64 | EccScheme::Secded128 | EccScheme::Crc32c => 8,
        }
    }

    /// How many CSR elements share one codeword (Fig. 1: SED and SECDED64
    /// protect single elements, SECDED128 pairs two, CRC32C covers a whole
    /// matrix row).
    pub fn element_group(self) -> ElementGrouping {
        match self {
            EccScheme::None => ElementGrouping::PerElement,
            EccScheme::Sed | EccScheme::Secded64 => ElementGrouping::PerElement,
            EccScheme::Secded128 => ElementGrouping::Pair,
            EccScheme::Crc32c => ElementGrouping::PerRow,
        }
    }

    /// Maximum number of matrix columns representable once the index bits are
    /// reserved.
    pub fn max_columns(self) -> usize {
        (1usize << (32 - self.element_index_bits())) - 1
    }

    /// Number of high bits of each **row-pointer** entry reserved for
    /// redundancy (Fig. 2).
    pub fn row_pointer_index_bits(self) -> u32 {
        match self {
            EccScheme::None => 0,
            EccScheme::Sed => 1,
            EccScheme::Secded64 | EccScheme::Secded128 | EccScheme::Crc32c => 4,
        }
    }

    /// Number of row-pointer entries that share one codeword (Fig. 2 (b):
    /// redundancy is split across 2 / 4 / 8 entries for SECDED64 / SECDED128 /
    /// CRC32C).
    pub fn row_pointer_group(self) -> usize {
        match self {
            EccScheme::None | EccScheme::Sed => 1,
            EccScheme::Secded64 => 2,
            EccScheme::Secded128 => 4,
            EccScheme::Crc32c => 8,
        }
    }

    /// Maximum number of non-zeros representable once the row-pointer bits
    /// are reserved.
    pub fn max_nnz(self) -> usize {
        (1usize << (32 - self.row_pointer_index_bits())) - 1
    }

    /// Number of least-significant mantissa bits of each dense-vector `f64`
    /// reserved for redundancy (Fig. 3).
    pub fn vector_mantissa_bits(self) -> u32 {
        match self {
            EccScheme::None => 0,
            EccScheme::Sed => 1,
            EccScheme::Secded64 => 8,
            EccScheme::Secded128 => 5,
            EccScheme::Crc32c => 8,
        }
    }

    /// Number of dense-vector elements that share one codeword (Fig. 3:
    /// 1 / 1 / 2 / 4 for SED / SECDED64 / SECDED128 / CRC32C).
    pub fn vector_group(self) -> usize {
        match self {
            EccScheme::None | EccScheme::Sed | EccScheme::Secded64 => 1,
            EccScheme::Secded128 => 2,
            EccScheme::Crc32c => 4,
        }
    }

    /// Whether the scheme can *correct* (not just detect) a single bit flip.
    pub fn corrects_single_flips(self) -> bool {
        matches!(
            self,
            EccScheme::Secded64 | EccScheme::Secded128 | EccScheme::Crc32c
        )
    }

    /// Minimum number of stored entries a matrix row must have for this
    /// scheme to protect the CSR elements (CRC32C distributes its 32-bit
    /// checksum over 8 spare bits per element, so it needs at least 4).
    pub fn min_row_entries(self) -> usize {
        match self {
            EccScheme::Crc32c => 4,
            _ => 0,
        }
    }
}

/// How CSR elements are grouped into codewords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementGrouping {
    /// One codeword per (value, column-index) pair.
    PerElement,
    /// One codeword per two consecutive elements.
    Pair,
    /// One codeword per matrix row.
    PerRow,
}

/// Layout of the XOR erasure (parity) tier layered on top of a vector's
/// embedded ECC: the storage words are split into fixed-size chunks, and one
/// parity chunk is kept per stripe of `stripe_chunks` data chunks.  When the
/// embedded ECC reports an *uncorrectable* error, the containing chunk is
/// rebuilt bit-for-bit as the XOR of the stripe's parity and its surviving
/// sibling chunks, then re-verified by the ECC before the solve resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParityConfig {
    /// Number of data chunks per parity stripe (`P`): one parity chunk
    /// absorbs the loss of any single chunk among `P` siblings.
    pub stripe_chunks: usize,
    /// Chunk size in storage words.  Must be a positive multiple of the
    /// largest codeword group (4), so chunk boundaries always align with
    /// codeword boundaries and a rebuilt chunk can be re-verified in
    /// isolation.
    pub chunk_words: usize,
}

impl Default for ParityConfig {
    /// One parity chunk per 8 data chunks, chunks matching the reduction
    /// kernels' accumulation block ([`crate::protected_vector::ACC_BLOCK`]) —
    /// a 12.5 % parity overhead at the runtime's natural work granularity.
    fn default() -> Self {
        ParityConfig {
            stripe_chunks: 8,
            chunk_words: crate::protected_vector::ACC_BLOCK,
        }
    }
}

/// The full protection configuration of a solver run: which scheme protects
/// each region, how often integrity checks run, and which CRC backend is
/// used.  This is the knob the benchmark harness sweeps to regenerate the
/// paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionConfig {
    /// Scheme protecting the CSR elements (values + column indices).
    pub elements: EccScheme,
    /// Scheme protecting the CSR row-pointer vector.
    pub row_pointer: EccScheme,
    /// Scheme protecting the dense floating-point vectors.
    pub vectors: EccScheme,
    /// Full integrity checks are run every `check_interval` matrix accesses
    /// (CG iterations); in between only bounds checks are performed
    /// (§VI-A-2).  `1` means check on every access.
    pub check_interval: u32,
    /// CRC32C backend (hardware when available vs slicing-by-16 software).
    pub crc_backend: Crc32cBackend,
    /// Run the kernels on the worker pool.  A protected matrix's products
    /// read this directly; the solver backends hand it to their work
    /// vectors.  The protected kernels produce the same bits either way.
    pub parallel: bool,
    /// Optional XOR erasure tier for the dense solver vectors: `Some` layers
    /// per-stripe parity chunks over the embedded ECC so an uncorrectable
    /// error (or a lost chunk) is rebuilt instead of aborting the solve.
    /// Requires `vectors != EccScheme::None` — a rebuilt chunk is only
    /// trusted after the embedded ECC re-verifies it.
    pub parity: Option<ParityConfig>,
}

impl Default for ProtectionConfig {
    fn default() -> Self {
        ProtectionConfig::unprotected()
    }
}

impl ProtectionConfig {
    /// No protection anywhere — the baseline configuration.
    ///
    /// The CRC backend defaults to [`Crc32cBackend::Auto`]: the hardware
    /// instruction when the CPU has one, otherwise the slicing width chosen
    /// per input length (short row codewords and long vector runs get
    /// different widths — see [`abft_ecc::crc32c::auto_software_width`]).
    pub fn unprotected() -> Self {
        ProtectionConfig {
            elements: EccScheme::None,
            row_pointer: EccScheme::None,
            vectors: EccScheme::None,
            check_interval: 1,
            crc_backend: Crc32cBackend::Auto,
            parallel: false,
            parity: None,
        }
    }

    /// Protects every region with the same scheme (the paper's "fully
    /// protected" configuration).
    pub fn full(scheme: EccScheme) -> Self {
        ProtectionConfig {
            elements: scheme,
            row_pointer: scheme,
            vectors: scheme,
            ..ProtectionConfig::unprotected()
        }
    }

    /// Protects only the CSR elements (Fig. 4).
    pub fn elements_only(scheme: EccScheme) -> Self {
        ProtectionConfig {
            elements: scheme,
            ..ProtectionConfig::unprotected()
        }
    }

    /// Protects only the row-pointer vector (Fig. 5).
    pub fn row_pointer_only(scheme: EccScheme) -> Self {
        ProtectionConfig {
            row_pointer: scheme,
            ..ProtectionConfig::unprotected()
        }
    }

    /// Protects only the dense vectors (Fig. 9).
    pub fn vectors_only(scheme: EccScheme) -> Self {
        ProtectionConfig {
            vectors: scheme,
            ..ProtectionConfig::unprotected()
        }
    }

    /// Protects the whole CSR matrix (elements + row pointer) with one scheme
    /// (Figs. 6–8).
    pub fn matrix_only(scheme: EccScheme) -> Self {
        ProtectionConfig {
            elements: scheme,
            row_pointer: scheme,
            ..ProtectionConfig::unprotected()
        }
    }

    /// Builder-style setter for the check interval.
    pub fn with_check_interval(mut self, interval: u32) -> Self {
        self.check_interval = interval.max(1);
        self
    }

    /// Builder-style setter for the CRC backend.
    pub fn with_crc_backend(mut self, backend: Crc32cBackend) -> Self {
        self.crc_backend = backend;
        self
    }

    /// Builder-style setter for parallel execution.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Builder-style setter for the XOR erasure tier on the dense vectors.
    ///
    /// # Panics
    /// Panics if the vectors are unprotected (`EccScheme::None`), if
    /// `chunk_words` is zero or not a multiple of the largest codeword
    /// group, or if `stripe_chunks` is zero: the rebuild path re-verifies a
    /// reconstructed chunk with the embedded ECC, so parity without ECC
    /// would accept silently wrong rebuilds.
    pub fn with_parity(mut self, parity: ParityConfig) -> Self {
        assert!(
            self.vectors != EccScheme::None,
            "parity tier requires ECC-protected vectors (vectors == None)"
        );
        assert!(
            parity.chunk_words > 0 && parity.chunk_words.is_multiple_of(4),
            "parity chunk_words must be a positive multiple of the max codeword group (4)"
        );
        assert!(parity.stripe_chunks > 0, "parity stripe_chunks must be > 0");
        self.parity = Some(parity);
        self
    }

    /// True when no region is protected.
    pub fn is_unprotected(&self) -> bool {
        self.elements == EccScheme::None
            && self.row_pointer == EccScheme::None
            && self.vectors == EccScheme::None
    }

    /// Short label used by the benchmark output, e.g.
    /// `elements=SECDED64 rowptr=None vectors=None interval=1`.
    pub fn describe(&self) -> String {
        format!(
            "elements={} rowptr={} vectors={} interval={}{}{}",
            self.elements.label(),
            self.row_pointer.label(),
            self.vectors.label(),
            self.check_interval,
            if self.parallel { " parallel" } else { "" },
            match self.parity {
                Some(p) => format!(" parity(P={})", p.stripe_chunks),
                None => String::new(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_budgets_match_the_paper() {
        // Fig. 1: SED keeps 31 index bits, SECDED/CRC keep 24.
        assert_eq!(EccScheme::Sed.max_columns(), (1 << 31) - 1);
        assert_eq!(EccScheme::Secded64.max_columns(), (1 << 24) - 1);
        assert_eq!(EccScheme::Crc32c.max_columns(), (1 << 24) - 1);
        assert_eq!(EccScheme::None.max_columns(), u32::MAX as usize);

        // Fig. 2: SED keeps 31 row-pointer bits, the rest keep 28.
        assert_eq!(EccScheme::Sed.max_nnz(), (1 << 31) - 1);
        assert_eq!(EccScheme::Secded64.max_nnz(), (1 << 28) - 1);
        assert_eq!(EccScheme::Secded128.max_nnz(), (1 << 28) - 1);

        // Fig. 2(b): group sizes 2 / 4 / 8.
        assert_eq!(EccScheme::Sed.row_pointer_group(), 1);
        assert_eq!(EccScheme::Secded64.row_pointer_group(), 2);
        assert_eq!(EccScheme::Secded128.row_pointer_group(), 4);
        assert_eq!(EccScheme::Crc32c.row_pointer_group(), 8);

        // Fig. 3: mantissa bits 1 / 8 / 5 / 8 and groups 1 / 1 / 2 / 4.
        assert_eq!(EccScheme::Sed.vector_mantissa_bits(), 1);
        assert_eq!(EccScheme::Secded64.vector_mantissa_bits(), 8);
        assert_eq!(EccScheme::Secded128.vector_mantissa_bits(), 5);
        assert_eq!(EccScheme::Crc32c.vector_mantissa_bits(), 8);
        assert_eq!(EccScheme::Secded128.vector_group(), 2);
        assert_eq!(EccScheme::Crc32c.vector_group(), 4);

        // CRC32C needs at least four elements per row.
        assert_eq!(EccScheme::Crc32c.min_row_entries(), 4);
        assert_eq!(EccScheme::Sed.min_row_entries(), 0);
    }

    #[test]
    fn correction_capability() {
        assert!(!EccScheme::None.corrects_single_flips());
        assert!(!EccScheme::Sed.corrects_single_flips());
        assert!(EccScheme::Secded64.corrects_single_flips());
        assert!(EccScheme::Secded128.corrects_single_flips());
        assert!(EccScheme::Crc32c.corrects_single_flips());
    }

    #[test]
    fn labels_and_grouping() {
        assert_eq!(EccScheme::Sed.label(), "SED");
        assert_eq!(EccScheme::Crc32c.label(), "CRC32C");
        assert_eq!(EccScheme::ALL.len(), 4);
        assert_eq!(EccScheme::Sed.element_group(), ElementGrouping::PerElement);
        assert_eq!(EccScheme::Secded128.element_group(), ElementGrouping::Pair);
        assert_eq!(EccScheme::Crc32c.element_group(), ElementGrouping::PerRow);
    }

    #[test]
    fn config_constructors() {
        let base = ProtectionConfig::unprotected();
        assert!(base.is_unprotected());
        assert_eq!(base, ProtectionConfig::default());

        let full = ProtectionConfig::full(EccScheme::Secded64);
        assert_eq!(full.elements, EccScheme::Secded64);
        assert_eq!(full.row_pointer, EccScheme::Secded64);
        assert_eq!(full.vectors, EccScheme::Secded64);
        assert!(!full.is_unprotected());

        let elems = ProtectionConfig::elements_only(EccScheme::Sed);
        assert_eq!(elems.elements, EccScheme::Sed);
        assert_eq!(elems.row_pointer, EccScheme::None);

        let rp = ProtectionConfig::row_pointer_only(EccScheme::Crc32c);
        assert_eq!(rp.row_pointer, EccScheme::Crc32c);
        assert_eq!(rp.elements, EccScheme::None);

        let vecs = ProtectionConfig::vectors_only(EccScheme::Secded128);
        assert_eq!(vecs.vectors, EccScheme::Secded128);

        let mat = ProtectionConfig::matrix_only(EccScheme::Sed)
            .with_check_interval(16)
            .with_parallel(true);
        assert_eq!(mat.elements, EccScheme::Sed);
        assert_eq!(mat.row_pointer, EccScheme::Sed);
        assert_eq!(mat.vectors, EccScheme::None);
        assert_eq!(mat.check_interval, 16);
        assert!(mat.parallel);
        assert!(mat.describe().contains("SED"));
        assert!(mat.describe().contains("parallel"));

        // Interval is clamped to at least 1.
        assert_eq!(base.with_check_interval(0).check_interval, 1);
    }

    #[test]
    fn parity_knob_defaults_off_and_builds_on() {
        assert_eq!(ProtectionConfig::default().parity, None);
        let p = ParityConfig::default();
        assert_eq!(p.stripe_chunks, 8);
        assert_eq!(p.chunk_words % 4, 0);
        let cfg = ProtectionConfig::full(EccScheme::Secded64).with_parity(p);
        assert_eq!(cfg.parity, Some(p));
        assert!(cfg.describe().contains("parity(P=8)"));
    }

    #[test]
    #[should_panic]
    fn parity_requires_protected_vectors() {
        let _ = ProtectionConfig::unprotected().with_parity(ParityConfig::default());
    }
}
