//! Seeded input generation. Every input a workload hands the library is
//! drawn from one [`SplitMix64`] stream per (workload, seed), so the same
//! seed reproduces the same bytes and the library sees nothing else.

/// SplitMix64: a small, fast, fully specified generator (no dependency
/// whose stream could change under us).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated per workload by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = SplitMix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A value in `[-2^20, 2^20)`: sums of a million of them stay far from
    /// `i64` overflow, so every engine's wrapping result is the plain sum.
    pub fn value(&mut self) -> i64 {
        (self.next_u64() >> 43) as i64 - (1 << 20)
    }
}

/// Stream tags, one per workload.
pub const TAG_BATCH: u64 = 1;
/// Service request pool.
pub const TAG_SERVICE: u64 = 2;
/// Session prefill and client operations.
pub const TAG_SESSION: u64 = 3;

/// `n` values with labels uniform in `[0, m)`.
pub fn labelled(rng: &mut SplitMix64, n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
    let mut values = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(rng.value());
        labels.push(rng.below(m));
    }
    (values, labels)
}

/// Little-endian bytes of a labelled input, for the determinism tests.
#[cfg(test)]
pub(crate) fn to_bytes(values: &[i64], labels: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * values.len());
    for (v, l) in values.iter().zip(labels) {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&(*l as u64).to_le_bytes());
    }
    out
}
