//! The NAS IS benchmark protocol as a reusable driver.
//!
//! The benchmark is not "sort once": it generates the keys, then performs
//! [`crate::nas_is::ITERATIONS`] *ranking* iterations, perturbing two keys
//! before each (so no iteration can reuse the last one's answer), and
//! finally runs a full verification of the last ranking. This module
//! packages that protocol with per-iteration timing so the Table 1 bench
//! and the examples share one implementation.

use crate::nas_is::{full_verify, generate_keys, perturb_keys, NasRng, ITERATIONS};
use crate::rank_sort::rank_keys;
use multiprefix::{Engine, MpError};
use std::time::{Duration, Instant};

/// How the ranking step is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranker {
    /// The multiprefix route (Figure 11) with the given engine.
    Multiprefix(Engine),
    /// The bucket-sort baseline.
    BucketSort,
    /// The counting-sort baseline.
    CountingSort,
}

/// Results of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Problem size.
    pub n: usize,
    /// Key range.
    pub max_key: usize,
    /// Which ranker ran.
    pub ranker: Ranker,
    /// Wall-clock per iteration.
    pub iteration_times: Vec<Duration>,
    /// Total wall-clock over all ranking iterations.
    pub total: Duration,
    /// Did the final ranking pass full verification?
    pub verified: bool,
}

impl BenchmarkReport {
    /// Mean time per iteration.
    pub fn mean_iteration(&self) -> Duration {
        if self.iteration_times.is_empty() {
            Duration::ZERO
        } else {
            self.total / self.iteration_times.len() as u32
        }
    }

    /// Throughput in keys ranked per second over the whole run.
    pub fn keys_per_second(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.n * self.iteration_times.len()) as f64 / secs
        }
    }
}

/// Run the full NAS IS protocol at size `n` with key range `max_key`.
pub fn run_benchmark(n: usize, max_key: usize, ranker: Ranker) -> Result<BenchmarkReport, MpError> {
    let mut rng = NasRng::standard();
    let mut keys = generate_keys(n, max_key, &mut rng);
    let mut iteration_times = Vec::with_capacity(ITERATIONS);
    let mut last_ranks: Vec<usize> = Vec::new();

    let start = Instant::now();
    for it in 0..ITERATIONS {
        perturb_keys(&mut keys, it, max_key);
        let t = Instant::now();
        last_ranks = match ranker {
            Ranker::Multiprefix(engine) => rank_keys(&keys, max_key, engine)?,
            Ranker::BucketSort => crate::bucket_sort::bucket_ranks(&keys, max_key),
            Ranker::CountingSort => crate::counting_sort::counting_ranks(&keys, max_key),
        };
        iteration_times.push(t.elapsed());
    }
    let total = start.elapsed();
    let verified = full_verify(&keys, &last_ranks);
    Ok(BenchmarkReport {
        n,
        max_key,
        ranker,
        iteration_times,
        total,
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_runs_and_verifies_all_rankers() {
        for ranker in [
            Ranker::Multiprefix(Engine::Serial),
            Ranker::Multiprefix(Engine::Chunked),
            Ranker::BucketSort,
            Ranker::CountingSort,
        ] {
            let report = run_benchmark(10_000, 1 << 10, ranker).unwrap();
            assert!(report.verified, "{ranker:?} failed verification");
            assert_eq!(report.iteration_times.len(), ITERATIONS);
            assert!(report.total >= report.iteration_times.iter().sum());
            assert!(report.keys_per_second() > 0.0);
        }
    }

    #[test]
    fn all_rankers_agree_on_final_ranking() {
        // Same protocol, same perturbations → identical final keys, and
        // every ranker must produce the identical (stable) ranking.
        let final_ranks = |ranker: Ranker| {
            let mut rng = NasRng::standard();
            let mut keys = generate_keys(5_000, 1 << 9, &mut rng);
            let mut ranks = Vec::new();
            for it in 0..ITERATIONS {
                perturb_keys(&mut keys, it, 1 << 9);
                ranks = match ranker {
                    Ranker::Multiprefix(engine) => rank_keys(&keys, 1 << 9, engine).unwrap(),
                    Ranker::BucketSort => crate::bucket_sort::bucket_ranks(&keys, 1 << 9),
                    Ranker::CountingSort => crate::counting_sort::counting_ranks(&keys, 1 << 9),
                };
            }
            ranks
        };
        let a = final_ranks(Ranker::Multiprefix(Engine::Spinetree));
        assert_eq!(a, final_ranks(Ranker::BucketSort));
        assert_eq!(a, final_ranks(Ranker::CountingSort));
    }

    #[test]
    fn mean_and_throughput_consistency() {
        let report = run_benchmark(2_000, 256, Ranker::CountingSort).unwrap();
        let mean = report.mean_iteration();
        assert!(mean <= report.total);
        assert!(
            report.keys_per_second() > 1000.0,
            "counting sort should not be that slow"
        );
    }
}
