//! Fault specification: where and how bits are flipped.

use rand::Rng;

/// Which protected region receives the injected flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The 64-bit values of the CSR matrix.
    MatrixValues,
    /// The (encoded) 32-bit column indices of the CSR matrix.
    MatrixColumnIndices,
    /// The (encoded) 32-bit row-pointer entries.
    RowPointer,
    /// A protected dense floating-point vector.
    DenseVector,
}

/// Which *live solver vector* a mid-iteration injection strikes.
///
/// Unlike [`FaultTarget::DenseVector`] (a vector at rest, scrubbed outside
/// any solve), these name the three vectors of the CG recurrence while the
/// solver is running; the fault lands between two iterations via the
/// `cg_with_poll` hook and the next kernel that reads the vector meets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverVectorTarget {
    /// The current iterate `x`.
    X,
    /// The current residual `r`.
    R,
    /// The current search direction `p`.
    P,
}

impl SolverVectorTarget {
    /// All live-vector targets.
    pub const ALL: [SolverVectorTarget; 3] = [
        SolverVectorTarget::X,
        SolverVectorTarget::R,
        SolverVectorTarget::P,
    ];
}

impl FaultTarget {
    /// All targets.
    pub const ALL: [FaultTarget; 4] = [
        FaultTarget::MatrixValues,
        FaultTarget::MatrixColumnIndices,
        FaultTarget::RowPointer,
        FaultTarget::DenseVector,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::MatrixValues => "matrix values",
            FaultTarget::MatrixColumnIndices => "matrix column indices",
            FaultTarget::RowPointer => "row pointer",
            FaultTarget::DenseVector => "dense vector",
        }
    }

    /// Width in bits of one element of this region.
    pub fn element_bits(self) -> u32 {
        match self {
            FaultTarget::MatrixValues | FaultTarget::DenseVector => 64,
            FaultTarget::MatrixColumnIndices | FaultTarget::RowPointer => 32,
        }
    }
}

/// A concrete set of bit flips to inject into one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Target region.
    pub target: FaultTarget,
    /// `(element index, bit index)` pairs to flip.
    pub flips: Vec<(usize, u32)>,
}

impl FaultSpec {
    /// Draws `count` independent uniformly random flips over `elements`
    /// elements of `target`.  Flips may coincide (the paper's multi-bit-upset
    /// scenario includes that case).
    pub fn random(rng: &mut impl Rng, target: FaultTarget, elements: usize, count: usize) -> Self {
        assert!(elements > 0, "cannot inject into an empty region");
        let flips = (0..count)
            .map(|_| {
                (
                    rng.gen_range(0..elements),
                    rng.gen_range(0..target.element_bits()),
                )
            })
            .collect();
        FaultSpec { target, flips }
    }

    /// Draws a burst error: `length` consecutive bits flipped starting at a
    /// random position inside a random element (burst errors are the error
    /// class CRC32C is particularly good at, §IV).
    pub fn random_burst(
        rng: &mut impl Rng,
        target: FaultTarget,
        elements: usize,
        length: u32,
    ) -> Self {
        assert!(elements > 0, "cannot inject into an empty region");
        assert!(length >= 1 && length <= target.element_bits());
        let element = rng.gen_range(0..elements);
        let start = rng.gen_range(0..=target.element_bits() - length);
        let flips = (0..length)
            .map(|offset| (element, start + offset))
            .collect();
        FaultSpec { target, flips }
    }

    /// Draws an *erasure* of `span` consecutive elements: the span is chosen
    /// aligned to its own width and every element in it receives roughly half
    /// its bits as independent random flips — the flip-level model of losing
    /// a whole shard or codeword group (the contents are garbage, not a
    /// small perturbation of the original).
    ///
    /// # Panics
    /// Panics when `span` is zero or larger than the region.
    pub fn erase_span(
        rng: &mut impl Rng,
        target: FaultTarget,
        elements: usize,
        span: usize,
    ) -> Self {
        assert!(elements > 0, "cannot inject into an empty region");
        assert!(
            span >= 1 && span <= elements,
            "erasure span {span} outside 1..={elements}"
        );
        let start = rng.gen_range(0..elements / span) * span;
        let bits = target.element_bits();
        let mut flips = Vec::with_capacity(span * (bits as usize / 2));
        for element in start..start + span {
            for _ in 0..bits / 2 {
                flips.push((element, rng.gen_range(0..bits)));
            }
        }
        FaultSpec { target, flips }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_flips_are_in_range_and_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let spec = FaultSpec::random(&mut rng, FaultTarget::MatrixValues, 100, 5);
        assert_eq!(spec.flips.len(), 5);
        for &(element, bit) in &spec.flips {
            assert!(element < 100);
            assert!(bit < 64);
        }
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let spec2 = FaultSpec::random(&mut rng2, FaultTarget::MatrixValues, 100, 5);
        assert_eq!(spec, spec2);
    }

    #[test]
    fn burst_is_contiguous() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = FaultSpec::random_burst(&mut rng, FaultTarget::RowPointer, 20, 6);
        assert_eq!(spec.flips.len(), 6);
        let element = spec.flips[0].0;
        for (i, &(e, bit)) in spec.flips.iter().enumerate() {
            assert_eq!(e, element);
            assert_eq!(bit, spec.flips[0].1 + i as u32);
            assert!(bit < 32);
        }
    }

    #[test]
    fn labels_and_widths() {
        assert_eq!(FaultTarget::ALL.len(), 4);
        assert_eq!(FaultTarget::MatrixValues.element_bits(), 64);
        assert_eq!(FaultTarget::RowPointer.element_bits(), 32);
        assert!(FaultTarget::DenseVector.label().contains("vector"));
    }

    #[test]
    fn erase_span_is_aligned_and_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let spec = FaultSpec::erase_span(&mut rng, FaultTarget::RowPointer, 40, 4);
        // Half of 32 bits for each of the 4 elements in the span.
        assert_eq!(spec.flips.len(), 4 * 16);
        let start = spec.flips.iter().map(|&(e, _)| e).min().unwrap();
        assert_eq!(start % 4, 0, "span must be aligned to its width");
        for &(element, bit) in &spec.flips {
            assert!((start..start + 4).contains(&element));
            assert!(bit < 32);
        }
    }

    #[test]
    #[should_panic]
    fn empty_region_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        FaultSpec::random(&mut rng, FaultTarget::MatrixValues, 0, 1);
    }
}
