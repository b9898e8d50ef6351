//! End-to-end determinism of the parallel harness: `iwc <experiment>`
//! must emit byte-identical stdout regardless of `IWC_THREADS`.
//!
//! Harness bookkeeping (the `[bench] ...` line and `results/bench_*.json`)
//! goes to stderr and the results directory only, so stdout is a pure
//! function of the workload suite.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iwc-determinism-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    dir
}

fn run(name: &str, threads: &str, results: &PathBuf) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_iwc"))
        .arg(name)
        .env("IWC_THREADS", threads)
        .env("IWC_RESULTS_DIR", results)
        .env("IWC_TRACE_LEN", "2000")
        .output()
        .expect("spawn harness binary");
    assert!(
        out.status.success(),
        "iwc {name} (IWC_THREADS={threads}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn assert_stdout_thread_invariant(name: &str) {
    let dir = scratch_dir(name);
    let serial = run(name, "1", &dir);
    let parallel = run(name, "8", &dir);
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "iwc {name} stdout must be byte-identical for IWC_THREADS=1 vs 8"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table2_stdout_is_thread_count_invariant() {
    assert_stdout_thread_invariant("table2");
}

/// The full Table 4 sweep (26 divergent workloads x 7 simulator runs, twice).
/// Too slow for the debug-profile test suite, so it is ignored there; it runs
/// under `cargo test --release` or `cargo test -- --ignored`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the full Table 4 sweep twice; use --release"
)]
fn table4_stdout_is_thread_count_invariant() {
    assert_stdout_thread_invariant("table4");
}

/// Unknown experiment names fail with a nonzero exit and a hint, without
/// touching stdout.
#[test]
fn iwc_rejects_unknown_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_iwc"))
        .arg("fig99")
        .output()
        .expect("spawn iwc driver");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("iwc list"));
}
