//! A tiny, dependency-free, deterministic pseudo-random number generator.
//!
//! The repository builds in hermetic environments with no access to a
//! crate registry, so everything that needs randomness — the `random`
//! search baseline, the seeded property tests, benchmark input
//! generation — uses this SplitMix64 generator instead of an external
//! crate. SplitMix64 passes BigCrush on its own and is the standard
//! seeding generator of the xoshiro family; its statistical quality is
//! far beyond what schedule sampling requires, and it is trivially
//! reproducible from a 64-bit seed.

/// A SplitMix64 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use icb_core::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// let ix = a.gen_index(10);
/// assert!(ix < 10);
/// ```
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the finalizer decorrelates nearby seeds.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias over a
    /// 64-bit source is below 2^-32 for every `n` that fits in memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index requires a nonempty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// A uniform value in `lo..hi` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range requires lo < hi");
        lo + self.gen_index(hi - lo)
    }

    /// A uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn gen_ratio(&mut self, num: usize, den: usize) -> bool {
        self.gen_index(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = SplitMix64::new(0);
        let mut b = SplitMix64::new(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_index_in_range_and_covers() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = r.gen_index(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws cover 0..7");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..200 {
            let v = r.gen_range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn gen_ratio_is_roughly_calibrated() {
        let mut r = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| r.gen_ratio(1, 4)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    #[should_panic(expected = "nonempty range")]
    fn gen_index_rejects_zero() {
        SplitMix64::new(0).gen_index(0);
    }
}
