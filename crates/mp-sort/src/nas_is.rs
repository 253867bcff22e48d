//! The NAS "Integer Sorting" benchmark workload (Table 1).
//!
//! "The NAS parallel benchmark suite is a collection of 8 test problems
//! … The 'Integer Sorting' benchmark requires the sorting of 8 million
//! 19-bit integers" \[BBS91\]. The reference inputs are generated, not
//! shipped: the suite's linear-congruential generator
//! (`x ← 5^13 · x mod 2^46`, seed 314159265) produces uniform deviates,
//! and each key is the average of four of them scaled to `[0, 2^19)` —
//! giving the benchmark's hallmark *approximately Gaussian* key
//! distribution (bucket loads are far from uniform, which is exactly what
//! stresses a bucket/multiprefix sort).
//!
//! `n` is a parameter here so laptop-scale runs keep the same
//! distribution; the full benchmark size is [`FULL_N`] = 2²³ with
//! [`MAX_KEY`] = 2¹⁹, iterated [`ITERATIONS`] = 10 times.

/// Full benchmark problem size (class A): 2²³ keys.
pub const FULL_N: usize = 1 << 23;
/// Key range: 19-bit integers.
pub const MAX_KEY: usize = 1 << 19;
/// The benchmark performs 10 ranking iterations.
pub const ITERATIONS: usize = 10;

/// The NAS pseudorandom generator: multiplicative LCG modulo 2^46 with
/// multiplier 5^13.
#[derive(Debug, Clone)]
pub struct NasRng {
    x: u64,
}

/// 5^13 — the NAS suite's multiplier.
const A: u64 = 1_220_703_125;
const MOD_MASK: u64 = (1 << 46) - 1;

impl NasRng {
    /// The benchmark's standard seed.
    pub fn standard() -> Self {
        NasRng { x: 314_159_265 }
    }

    /// A custom seed (must be odd and < 2^46 for full period).
    pub fn with_seed(seed: u64) -> Self {
        NasRng {
            x: (seed | 1) & MOD_MASK,
        }
    }

    /// Next deviate in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 5^13 · x mod 2^46: the product fits u128.
        self.x = ((self.x as u128 * A as u128) & MOD_MASK as u128) as u64;
        self.x as f64 / (1u64 << 46) as f64
    }
}

/// Generate `n` NAS IS keys in `[0, max_key)`: each key is
/// `⌊max_key · (r1 + r2 + r3 + r4) / 4⌋`.
pub fn generate_keys(n: usize, max_key: usize, rng: &mut NasRng) -> Vec<usize> {
    (0..n)
        .map(|_| {
            let s = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64();
            let k = (max_key as f64 * s / 4.0) as usize;
            k.min(max_key - 1)
        })
        .collect()
}

/// The benchmark's per-iteration key perturbation: iteration `i` plants
/// `key[i] = i` and `key[i + ITERATIONS] = max_key − i` before ranking, so
/// consecutive rankings are not byte-identical.
pub fn perturb_keys(keys: &mut [usize], iteration: usize, max_key: usize) {
    if keys.len() > iteration {
        keys[iteration] = iteration.min(max_key - 1);
    }
    let j = iteration + ITERATIONS;
    if keys.len() > j {
        keys[j] = max_key.saturating_sub(iteration).min(max_key - 1);
    }
}

/// Full verification in the NAS sense: the ranks must place the keys in
/// non-descending order and form a permutation.
pub fn full_verify(keys: &[usize], ranks: &[usize]) -> bool {
    if keys.len() != ranks.len() {
        return false;
    }
    let mut sorted = vec![usize::MAX; keys.len()];
    for (i, &r) in ranks.iter().enumerate() {
        if r >= sorted.len() || sorted[r] != usize::MAX {
            return false; // out of range or not a permutation
        }
        sorted[r] = keys[i];
    }
    sorted.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = NasRng::standard();
        let mut b = NasRng::standard();
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn keys_in_range_and_bell_shaped() {
        let mut rng = NasRng::standard();
        let keys = generate_keys(100_000, MAX_KEY, &mut rng);
        assert!(keys.iter().all(|&k| k < MAX_KEY));
        // Sum-of-4-uniforms: mean near max/2, central quartile much more
        // populated than the tails.
        let mid = keys
            .iter()
            .filter(|&&k| (MAX_KEY * 3 / 8..MAX_KEY * 5 / 8).contains(&k))
            .count();
        let tail = keys.iter().filter(|&&k| k < MAX_KEY / 8).count()
            + keys.iter().filter(|&&k| k >= MAX_KEY * 7 / 8).count();
        assert!(
            mid > 10 * tail.max(1),
            "distribution should be bell-shaped: mid {mid} vs tails {tail}"
        );
        let mean = keys.iter().sum::<usize>() as f64 / keys.len() as f64;
        let half = MAX_KEY as f64 / 2.0;
        assert!(
            (mean - half).abs() < half * 0.02,
            "mean {mean} far from {half}"
        );
    }

    #[test]
    fn full_verify_accepts_correct_ranking() {
        let mut rng = NasRng::standard();
        let keys = generate_keys(5000, 1 << 10, &mut rng);
        let ranks = crate::rank_sort::rank_keys(&keys, 1 << 10, multiprefix::Engine::Auto).unwrap();
        assert!(full_verify(&keys, &ranks));
    }

    #[test]
    fn full_verify_rejects_corruption() {
        let keys = vec![3usize, 1, 2];
        let good = vec![2usize, 0, 1];
        assert!(full_verify(&keys, &good));
        assert!(!full_verify(&keys, &[2, 1, 1]), "not a permutation");
        assert!(!full_verify(&keys, &[0, 1, 2]), "wrong order");
        assert!(!full_verify(&keys, &[2, 0]), "length mismatch");
        assert!(!full_verify(&keys, &[2, 0, 9]), "rank out of range");
    }

    #[test]
    fn perturbation_touches_expected_slots() {
        let mut keys = vec![0usize; 64];
        perturb_keys(&mut keys, 3, MAX_KEY);
        assert_eq!(keys[3], 3);
        assert_eq!(keys[13], MAX_KEY - 3);
    }
}
