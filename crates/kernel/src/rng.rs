//! Deterministic fault-injection / backoff RNG.
//!
//! The network layer needs a loss roll per lossy hop, and the retry engine
//! needs backoff jitter — so the workspace carries one tiny SplitMix64
//! generator instead of an external dependency (the build environment has
//! no crates.io access). Determinism per seed is part of
//! the contract: tests reseed via `Network::reseed` and expect reproducible
//! drop patterns, and the exactly-once fault-injection suite sweeps seeds.

/// SplitMix64 — 64 bits of state, one multiply-xorshift chain per draw.
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_unit_range() {
        let mut a = FaultRng::seed_from_u64(5);
        let mut b = FaultRng::seed_from_u64(5);
        for _ in 0..100 {
            let x = a.unit_f64();
            assert_eq!(x, b.unit_f64());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultRng::seed_from_u64(1);
        let mut b = FaultRng::seed_from_u64(2);
        assert_ne!(a.unit_f64(), b.unit_f64());
    }
}
