//! Integer sorting with multiprefix (§5.1 / Figure 11) on the NAS IS
//! workload, with a correctness check against the classical baselines.
//!
//! ```sh
//! cargo run --release --example integer_sort [n]
//! ```

use mp_sort::bucket_sort::bucket_ranks;
use mp_sort::counting_sort::counting_ranks;
use mp_sort::nas_is::{full_verify, generate_keys, perturb_keys, NasRng, ITERATIONS, MAX_KEY};
use mp_sort::rank_sort::{rank_keys, sort_by_ranks};
use multiprefix::Engine;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 20);
    println!("NAS IS-style workload: {n} keys in [0, 2^19), sum-of-4-uniforms distribution\n");

    let mut rng = NasRng::standard();
    let mut keys = generate_keys(n, MAX_KEY, &mut rng);

    // The benchmark's 10 ranking iterations, with per-iteration key
    // perturbation and verification.
    let t = Instant::now();
    let mut last_ranks = Vec::new();
    for it in 0..ITERATIONS {
        perturb_keys(&mut keys, it, MAX_KEY);
        last_ranks = rank_keys(&keys, MAX_KEY, Engine::Chunked).unwrap();
    }
    let elapsed = t.elapsed();
    assert!(
        full_verify(&keys, &last_ranks),
        "NAS full verification failed"
    );
    println!("{ITERATIONS} ranking iterations (Engine::Chunked): {elapsed:?} — full_verify OK");

    // Agreement across the independent implementations.
    assert_eq!(last_ranks, bucket_ranks(&keys, MAX_KEY));
    assert_eq!(last_ranks, counting_ranks(&keys, MAX_KEY));
    println!("ranks agree with bucket sort and counting sort baselines");

    // The ranks materialize the stable sort.
    let sorted = sort_by_ranks(&keys, &last_ranks);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    println!(
        "sorted: first = {}, median = {}, last = {} (bell-shaped keys center near {})",
        sorted[0],
        sorted[n / 2],
        sorted[n - 1],
        MAX_KEY / 2
    );
}
