//! One-screen host wall-clock summary: every engine and key derived
//! primitive at one size, as a readable table (the Criterion benches give
//! statistics; this gives orientation).
//!
//! ```sh
//! cargo run -p mp-bench --release --bin host_summary [n]
//! ```

use mp_bench::{lcg_labels, render_table};
use multiprefix::atomic::{multiprefix_atomic, multireduce_atomic};
use multiprefix::op::Plus;
use multiprefix::scan::{exclusive_scan_blelloch, exclusive_scan_partition, exclusive_scan_serial};
use multiprefix::{multiprefix, multireduce, Engine};
use std::time::Instant;

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);
    let m = 1024;
    let values: Vec<i64> = (0..n as i64).map(|i| i % 101 - 50).collect();
    let labels = lcg_labels(n, m, 1);
    println!(
        "host summary: n = {n}, m = {m}, {} rayon threads\n",
        rayon::current_num_threads()
    );

    let mut rows = Vec::new();
    let (reference, t) = time(|| multiprefix(&values, &labels, m, Plus, Engine::Serial).unwrap());
    rows.push(vec![
        "multiprefix Serial (Figure 2)".into(),
        format!("{t:.1}"),
    ]);

    let (out, t) = time(|| multiprefix(&values, &labels, m, Plus, Engine::Spinetree).unwrap());
    assert_eq!(out, reference);
    rows.push(vec![
        "multiprefix Spinetree (vector-sim)".into(),
        format!("{t:.1}"),
    ]);

    let (out, t) = time(|| multiprefix(&values, &labels, m, Plus, Engine::Chunked).unwrap());
    assert_eq!(out, reference);
    rows.push(vec!["multiprefix Chunked".into(), format!("{t:.1}")]);

    let (out, t) = time(|| multiprefix_atomic(&values, &labels, m, Plus));
    assert_eq!(out, reference);
    rows.push(vec![
        "multiprefix Atomic (lock-free)".into(),
        format!("{t:.1}"),
    ]);

    let (red, t) = time(|| multireduce(&values, &labels, m, Plus, Engine::Chunked).unwrap());
    assert_eq!(red, reference.reductions);
    rows.push(vec!["multireduce Chunked".into(), format!("{t:.1}")]);

    let (red, t) = time(|| multireduce_atomic(&values, &labels, m, Plus));
    assert_eq!(red, reference.reductions);
    rows.push(vec![
        "multireduce Atomic (combining send)".into(),
        format!("{t:.1}"),
    ]);

    let (s0, t) = time(|| exclusive_scan_serial(&values, Plus));
    rows.push(vec!["scan serial".into(), format!("{t:.1}")]);
    let (s1, t) = time(|| exclusive_scan_partition(&values, Plus));
    assert_eq!(s0, s1);
    rows.push(vec!["scan partition method".into(), format!("{t:.1}")]);
    let (s2, t) = time(|| exclusive_scan_blelloch(&values, Plus));
    assert_eq!(s0, s2);
    rows.push(vec!["scan Blelloch (join)".into(), format!("{t:.1}")]);

    println!("{}", render_table(&["operation", "ms"], &rows));
    println!("all parallel variants verified against the serial reference");
}
