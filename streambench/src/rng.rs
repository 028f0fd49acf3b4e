//! Seeded input generation. SplitMix64 is small, fast and fully
//! determined by its seed, so the same `--seed` gives the same inputs
//! on every host and commit.

/// The SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by the multiply-shift
    /// reduction; the bias is below `bound / 2^64`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi.abs_diff(lo)) as i64
    }

    /// Uniform in `[-1, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * u - 1.0
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates): every value appears
/// exactly once, and the order depends only on `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_deterministic_and_distinct() {
        let a = permutation(1000, 42);
        assert_eq!(a, permutation(1000, 42));
        assert_ne!(a, permutation(1000, 43));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<i64>>());
        // Not the identity: the shuffle actually moved elements.
        assert!(
            a.iter()
                .enumerate()
                .filter(|(i, &x)| *i as i64 != x)
                .count()
                > 900
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.range_i64(-5, 5);
            assert!((-5..5).contains(&x));
            let f = r.unit_f64();
            assert!((-1.0..1.0).contains(&f));
            assert!(r.below(3) < 3);
        }
    }

    #[test]
    fn seeds_give_reproducible_streams() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }
}
