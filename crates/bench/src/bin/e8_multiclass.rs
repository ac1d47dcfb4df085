//! E8 (extension): what finer conflict-class granularity buys.
//!
//! Usage: `cargo run --release -p otp-bench --bin e8_multiclass [txns]`
//!
//! The paper's conclusion: "our concurrency model is restrictive in that
//! defining conflict classes … is only feasible for applications in which
//! coarse-granularity locking does not result in performance degradation.
//! We are working on improving our concurrency model." This experiment
//! quantifies the degradation: the same cross-partition transfer load
//! executed (a) under the single-class model — which forces one coarse
//! class — and (b) under the multi-class extension (DESIGN.md §17), where
//! transactions declare exactly the partitions they touch.

fn main() {
    let txns: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    println!("# E8 — coarse single class vs multi-class declaration\n");
    let table = otp_bench::e8_multiclass_granularity(&[2, 4, 8, 16], txns, 42);
    println!("{}", table.to_markdown());
    println!("CSV:\n{}", table.to_csv());
}
