//! Command-line entry point of the repository benchmark.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-catalog|corpus-fresh|serve-mix> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --pins
//! ```
//!
//! Prints a human-readable report, a provenance line, the deterministic
//! counter block, a `verification: PASSED|FAILED` line, and as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or the per-layer metrics with `--trace 1`).
//! `--pins` prints the pinned cycle table of `expected/sim_cycles.tsv`.

use iwc_perfbench::{
    corpus_fresh, peak_rss_mb, serve_mix, sim_catalog, spans::Tracer, Outcome, RunSpec, END_TO_END,
    PER_LAYER, WORKLOADS,
};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Simulator escape hatches: the benchmark measures the default program
/// only.
const KNOBS: [&str; 3] = ["IWC_EXEC", "IWC_SCHED", "IWC_BURST"];

struct Args {
    workload: String,
    spec: RunSpec,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        spec: RunSpec {
            seed: seed.unwrap_or(iwc_perfbench::DEFAULT_SEED),
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

/// First line of a command's standard output, or `unknown`.
fn output_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit checked out in the working directory; git must not look
/// for a repository above it.
fn git_rev() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    output_of(&mut cmd)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", iwc_telemetry::json::escape(s))
}

fn provenance(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Threads doing the workload's work; serve-mix's closed-loop clients
    // mostly wait on their requests.
    let threads = match a.workload.as_str() {
        "serve-mix" => serve_mix::WORKERS,
        _ => 1,
    };
    format!(
        "{{\"git_rev\":{},\"profile\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{threads}}}",
        json_str(&git_rev()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&cpu_model()),
        json_str(&output_of(
            Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
                .arg("--version")
        )),
        json_str(&a.workload),
        a.spec.seed,
        a.spec.seconds,
        a.spec.trace,
    )
}

/// The final JSON line: every metric of the run's kind, 0 for a layer
/// the workload does not exercise.
fn result_line(out: &Outcome, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--pins") {
        let built = sim_catalog::build_catalog(&Tracer::new(false), None);
        return match sim_catalog::pin_table(&built) {
            Ok(t) => {
                print!("{t}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set: the benchmark measures the default program");
        return ExitCode::from(2);
    }

    println!(
        "== perfbench {} (seed {}, {} s, trace {}) ==",
        args.workload,
        args.spec.seed,
        args.spec.seconds,
        u8::from(args.spec.trace)
    );
    println!("provenance: {}", provenance(&args));
    let mut out = match args.workload.as_str() {
        "sim-catalog" => sim_catalog::run(&args.spec),
        "corpus-fresh" => corpus_fresh::run(&args.spec),
        _ => serve_mix::run(&args.spec),
    };
    if !args.spec.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    for l in &out.lines {
        println!("{l}");
    }
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("counters: {{{}}}", counters.join(","));
    let names: &[(&str, &str)] = if args.spec.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, unit) in names {
        if let Some(v) = out.metrics.get(name) {
            println!("{name:<32} {v:>16.6} {unit}");
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_ratio {fail_ratio} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    for e in &out.errors {
        println!("error: {e}");
    }
    let passed = out.failed == 0 && out.attempted > 0;
    println!(
        "verification: {} ({} operations checked against pinned or direct results)",
        if passed { "PASSED" } else { "FAILED" },
        out.attempted
    );
    println!("{}", result_line(&out, args.spec.trace));
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
