//! A small, fast, seedable PRNG: xoshiro256** seeded via SplitMix64.
//!
//! This is the single source of pseudo-randomness in the workspace. It is
//! *not* cryptographic; it exists so that simulations, load generators and
//! property tests are deterministic in a 64-bit seed and reproducible on
//! every platform with no external crates.

/// One step of the SplitMix64 sequence; also usable as a standalone mixer
/// for deriving per-case seeds from a base seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes two words into one well-distributed word — used to derive
/// independent sub-seeds (e.g. per-case seeds from a run seed).
#[inline]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// A seedable xoshiro256** generator.
///
/// Same-seed instances produce identical sequences forever; that property
/// is load-bearing for the whole repo (simulation replay, property-test
/// reproduction, regression cases), so the algorithm must never change
/// silently. See `tests` for pinned known-answer vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded, per the
    /// xoshiro authors' recommendation; any seed, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[0, n)`. Unbiased (rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "u64_below(0)");
        // Widening-multiply method (Lemire); reject the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform draw from the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.u64_below(span + 1)
    }

    /// A uniform draw from the inclusive range `[lo, hi]` of `usize`.
    #[inline]
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A uniform draw from the inclusive range `[lo, hi]` of `i64`.
    #[inline]
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "i64_in: empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128) as u128;
        if span == u64::MAX as u128 {
            return self.next_u64() as i64;
        }
        (lo as i128 + self.u64_below(span as u64 + 1) as i128) as i64
    }

    /// A uniform i64 over the full range.
    #[inline]
    pub fn any_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniform byte.
    #[inline]
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TestRng {
        /// Derives an independent generator (distinct stream) from this one.
        fn fork(&mut self) -> TestRng {
            TestRng::new(self.next_u64())
        }
    }

    #[test]
    fn known_answer_vectors_pin_the_algorithm() {
        // If these change, every recorded regression seed in the repo is
        // invalidated. Do not "fix" the constants; fix the generator.
        let mut r = TestRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
        let mut r = TestRng::new(42);
        assert_eq!(r.next_u64(), 1546998764402558742);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::new(8);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| c.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut r = TestRng::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "mean={mean}");
    }

    #[test]
    fn ranges_hit_every_value_and_respect_bounds() {
        let mut r = TestRng::new(5);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = r.u64_in(10, 15);
            assert!((10..=15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "not all values drawn: {seen:?}");
        for _ in 0..1000 {
            let v = r.i64_in(-3, 3);
            assert!((-3..=3).contains(&v));
        }
        assert_eq!(r.u64_in(9, 9), 9);
        let _ = r.i64_in(i64::MIN, i64::MAX); // full span must not overflow
    }

    #[test]
    fn u64_below_is_unbiased_enough() {
        let mut r = TestRng::new(11);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.u64_below(3) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "u64_below(0)")]
    fn zero_range_panics() {
        TestRng::new(1).u64_below(0);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = TestRng::new(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut a = TestRng::new(1);
        let mut f = a.fork();
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| f.next_u64()).collect::<Vec<_>>()
        );
    }
}
