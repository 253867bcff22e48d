//! Quickstart: the multiprefix operation on the paper's Figure 1 example,
//! across operators and engines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use multiprefix::op::{Max, Min, Plus};
use multiprefix::{multiprefix, multireduce, Engine};

fn main() {
    // Figure 1 of the paper: values with unsorted integer labels.
    //   A = 1 3 2 1 1 2 3 1
    //   L = 2 3 2 2 3 3 2 2   (the paper's 1-based labels)
    let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
    let labels = [1usize, 2, 1, 1, 2, 2, 1, 1]; // 0-based here
    let m = 4;

    println!("values: {values:?}");
    println!("labels: {labels:?}\n");

    let out = multiprefix(&values, &labels, m, Plus, Engine::Auto).unwrap();
    println!("multiprefix-PLUS sums:      {:?}", out.sums);
    println!("per-label reductions:       {:?}", out.reductions);
    println!("(each sum is the total of earlier same-label values — Figure 1's S and R)\n");

    // Any associative operator works; absent labels get the identity.
    let mx = multiprefix(&values, &labels, m, Max, Engine::Auto).unwrap();
    println!("multiprefix-MAX sums:       {:?}", mx.sums);
    let mn = multireduce(&values, &labels, m, Min, Engine::Auto).unwrap();
    println!("multireduce-MIN reductions: {mn:?}\n");

    // All engines agree; pick explicitly when you care.
    for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
        let o = multiprefix(&values, &labels, m, Plus, engine).unwrap();
        assert_eq!(o.sums, out.sums);
        println!("{engine:?} engine agrees");
    }

    // Scale check: a million elements through the rayon engine.
    let n = 1_000_000;
    let big_values = vec![1i64; n];
    let big_labels: Vec<usize> = (0..n).map(|i| i % 1024).collect();
    let t = std::time::Instant::now();
    let big = multiprefix(&big_values, &big_labels, 1024, Plus, Engine::Chunked).unwrap();
    println!(
        "\n1M elements over 1024 labels via Engine::Chunked: {:?} (reduction[0] = {})",
        t.elapsed(),
        big.reductions[0]
    );
}
