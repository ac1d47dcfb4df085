//! The benchmark's executable: see the library's documentation and
//! `benchmark/README.md`.

use otp_benchmark::measure::CountingAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match otp_benchmark::run_cli(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("otp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
