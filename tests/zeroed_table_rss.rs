//! The plain path's zeroed reduction vector is never advised for huge
//! pages. It comes from `calloc`, whose untouched pages stay unmapped, so
//! a call with `m ≫ n` maps only the pages of the labels it touches;
//! advised, every touched label would map a whole 2 MiB page.
//!
//! Alone in its own test binary: it reads the process's resident set
//! size, which another test running beside it would move.
#![cfg(target_os = "linux")]

use multiprefix::op::Plus;
use multiprefix::{multiprefix, Engine};

/// This process's resident set size in KiB (`VmRSS` in `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// With transparent huge pages set to `always`, the kernel backs the
/// untouched table with huge pages whatever the library advises, so there
/// is nothing to pin.
fn huge_pages_always() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| mode.contains("[always]"))
}

#[test]
fn an_untouched_zeroed_table_stays_unmapped() {
    if huge_pages_always() {
        eprintln!("transparent huge pages are `always`: the pin does not apply");
        return;
    }
    // 1 000 labels spread over 2²⁴ buckets (a 128 MiB reduction vector):
    // each touches its own 4 KiB page, and every one of the 64 huge pages.
    let (n, m) = (1_000, 1 << 24);
    let values = vec![1i64; n];
    let labels: Vec<usize> = (0..n).map(|i| i * (m / n)).collect();
    let before = vm_rss_kib();
    let out = multiprefix(&values, &labels, m, Plus, Engine::Auto).expect("valid input");
    let grew = vm_rss_kib().saturating_sub(before);
    assert_eq!(out.reductions[labels[n - 1]], 1);
    assert!(
        grew < 16 << 10,
        "VmRSS grew by {grew} KiB for 1 000 touched labels"
    );
}
