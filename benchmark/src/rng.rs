//! Seeded input generation.  Everything random in the benchmark comes from
//! one SplitMix64 stream per purpose, so the same `--seed` gives the same
//! inputs and the library only ever receives generated data.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_170_905;

/// Steele, Lea & Flood's SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so the right-hand
    /// sides and the fault sites never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        mixer.next_u64();
        mixer
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// A right-hand side with entries uniform in `[1, 2.5]` (TeaLeaf's energy
/// range), from stream `stream` of `seed`.
pub fn rhs(seed: u64, stream: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed, stream);
    (0..n).map(|_| 1.0 + 1.5 * rng.next_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        assert_eq!(rhs(7, 0, 64), rhs(7, 0, 64));
        assert_ne!(rhs(7, 0, 64), rhs(8, 0, 64));
        assert_ne!(rhs(7, 0, 64), rhs(7, 1, 64));
        assert!(rhs(7, 0, 4096).iter().all(|v| (1.0..=2.5).contains(v)));
        let mut rng = SplitMix64::new(1, 2);
        assert!((0..1000).all(|_| rng.below(10) < 10));
    }
}
