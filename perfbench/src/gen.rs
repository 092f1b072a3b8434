//! Seeded input generation. Every random choice a workload makes — bond
//! lengths, starting points, the served θ stream, arrival times, the job
//! mix and the rank-death schedule — is drawn here from the one `--seed`,
//! so the same seed gives the same inputs and the program under test only
//! ever sees the generated values.

/// SplitMix64: tiny, fast, and fully specified, so the inputs do not
/// depend on any library's RNG stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads that
    /// share a seed still draw independent inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with the given mean (Poisson inter-arrival times).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// `n` values stratified over `[lo, hi)`: one uniform draw per equal-width
/// stratum, shuffled. Every seed covers the whole interval evenly, so the
/// work per input varies between seeds far less than with plain draws.
pub fn stratified(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    let mut v: Vec<f64> = (0..n)
        .map(|i| lo + width * (i as f64 + rng.unit()))
        .collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// A starting point: `n` independent uniform jitters in `[-scale, scale)`
/// around the Hartree–Fock point θ = 0.
pub fn jitter(rng: &mut Rng, n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range(-scale, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            let mut v = stratified(&mut r, 16, 1.0, 3.0);
            v.extend(jitter(&mut r, 8, 0.1));
            v.push(r.exp(2.0));
            v.push(r.below(7) as f64);
            v
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn stratified_covers_every_stratum() {
        let mut r = Rng::new(5, 0);
        let mut v = stratified(&mut r, 10, 0.0, 10.0);
        v.sort_by(f64::total_cmp);
        for (i, x) in v.iter().enumerate() {
            assert!(
                *x >= i as f64 && *x < (i + 1) as f64,
                "{x} outside stratum {i}"
            );
        }
    }
}
