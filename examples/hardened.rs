//! Tour of the hardened execution layer: overflow policies, resource
//! budgets, panic containment, self-checking, and arbitration-fault
//! detection.
//!
//! ```sh
//! cargo run --example hardened
//! ```

use multiprefix::atomic::multiprefix_atomic_hardened;
use multiprefix::op::Plus;
use multiprefix::{
    multiprefix, multiprefix_verified, try_multiprefix, Engine, ExecConfig, OverflowPolicy,
};
use pram::{multiprefix_with_faults, FaultPlan};

fn main() {
    // A problem the classic API silently wraps: MAX + 1 in bucket 0.
    let values = [i64::MAX, 1, 7];
    let labels = [0usize, 0, 1];

    let wrapped = multiprefix(&values, &labels, 2, Plus, Engine::Auto).unwrap();
    println!(
        "classic API wraps:        reductions = {:?}",
        wrapped.reductions
    );

    // Checked: every engine reports the same serial-order trip index.
    let checked = ExecConfig::default().overflow(OverflowPolicy::Checked);
    for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
        let err = try_multiprefix(&values, &labels, 2, Plus, engine, checked).unwrap_err();
        println!("checked  {engine:>9?}:      {err}");
    }
    let err = multiprefix_atomic_hardened(&values, &labels, 2, Plus, OverflowPolicy::Checked)
        .unwrap_err();
    println!("checked     atomic:      {err}");

    // Saturating: clamps instead of erroring.
    let saturating = ExecConfig::default().overflow(OverflowPolicy::Saturating);
    let out = try_multiprefix(&values, &labels, 2, Plus, Engine::Auto, saturating).unwrap();
    println!(
        "saturating:               reductions = {:?}",
        out.reductions
    );

    // Budgets reject absurd problems before any allocation happens.
    let tight = ExecConfig::default().max_buckets(1 << 20);
    let err = try_multiprefix::<i64, _>(&[], &[], 1 << 30, Plus, Engine::Auto, tight).unwrap_err();
    println!("budget:                   {err}");
    let err = try_multiprefix::<i64, _>(
        &[],
        &[],
        usize::MAX / 16,
        Plus,
        Engine::Serial,
        ExecConfig::default(),
    )
    .unwrap_err();
    println!("fallible allocation:      {err}");

    // Self-checking: any engine's output cross-checked against the oracle.
    let n = 1000usize;
    let vals: Vec<i64> = (0..n as i64).collect();
    let labs: Vec<usize> = (0..n).map(|i| i % 7).collect();
    let out = multiprefix_verified(&vals, &labs, 7, Plus, Engine::Chunked).unwrap();
    println!(
        "verified chunked run:     reductions[0] = {}",
        out.reductions[0]
    );

    // Fault injection on the PRAM: corrupt arbitration commits, and show
    // the same cross-check catches the corrupted spinetree.
    let layout = multiprefix::spinetree::Layout::square(400, 1);
    let contended: Vec<i64> = (1..=400).collect();
    let one_class = vec![0usize; 400];
    for rate_ppm in [0u32, 1_000_000] {
        let report = multiprefix_with_faults(
            &contended,
            &one_class,
            1,
            layout,
            7,
            FaultPlan::arb(1, rate_ppm),
        )
        .unwrap();
        println!(
            "pram faults rate={rate_ppm:>7}: injected = {:>3}, detection = {}",
            report.faults_injected,
            match &report.detection {
                Ok(()) => "output verified correct".to_string(),
                Err(e) => format!("CAUGHT — {e}"),
            }
        );
    }
}
