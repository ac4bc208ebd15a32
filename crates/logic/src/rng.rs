//! A tiny deterministic RNG (SplitMix64).
//!
//! The runtime oracle's determinism contract — `synquid fuzz --seed S` is
//! bit-reproducible across runs and machines — forbids wall-clock or OS
//! randomness, so its input generator draws from this self-contained
//! stream; so do the seeded property suites and the benchmark's
//! submission orders. SplitMix64 passes BigCrush, needs eight bytes of
//! state, and its whole implementation fits on one page, which is
//! exactly the auditability a soundness harness wants from its entropy
//! source.

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n` must be positive). The modulo bias is
    /// irrelevant at the tiny ranges the generator uses.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// A draw in the inclusive range `lo..=hi`.
    pub fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// A fair coin.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Splits off an independent stream (used to give each fuzz case its
    /// own stream, so shrinking one case cannot perturb the next).
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranged_draws_stay_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let n = rng.int_in(-5, 5);
            assert!((-5..=5).contains(&n));
            assert!(rng.below(3) < 3);
        }
    }

    #[test]
    fn split_streams_are_independent_of_later_parent_use() {
        let mut parent = Rng::new(9);
        let mut child = parent.split();
        let first = child.next_u64();
        parent.next_u64();
        let mut parent2 = Rng::new(9);
        let mut child2 = parent2.split();
        assert_eq!(child2.next_u64(), first);
    }
}
