//! `iwc perfgate` — regression sentinel over the checked-in benchmark
//! trajectories.
//!
//! Every `results/BENCH_*.json` report keeps a `"runs"` list — one
//! `{ threads, wall_ms, cells }` line per recorded sweep, carried forward
//! across regenerations — so the repo already stores a per-machine perf
//! trajectory. This gate turns that trajectory into a pass/fail signal:
//! for each report it picks the *current* run (the last run recorded at
//! the report's own thread count; writers append runs in recording
//! order), derives its rate in cells per second, takes the **median of
//! the other runs over the same number of cells** (up to the last
//! [`BASELINE_POOL`]) as the baseline, and fails when the current rate
//! falls below `baseline × (1 − tolerance)`. Runs over a different cell
//! count measured a different sweep, so they never enter the baseline.
//!
//! The median-of-pool baseline makes the gate robust to a single noisy
//! historical run, and the tolerance band (default ±20%,
//! `IWC_PERFGATE_TOL` override, malformed values warn once and fall back)
//! absorbs machine-to-machine variance — CI widens it. A report with no
//! history yet ("no baseline") passes: the gate only ever compares a
//! trajectory against itself.
//!
//! The verdict table is ranked worst-first (smallest current/baseline
//! ratio at the top) so the headline regression is the first line of the
//! report. Serve latency quantiles (`p50_hi`/`p99_hi`) are surfaced
//! informationally — they are single snapshots, not trajectories, so they
//! are reported but not gated.

use super::Outcome;
use crate::runner::{parse_run_line, results_dir, RunRecord};

/// Default noise band: fail only when the current rate is more than 20%
/// below the baseline median.
pub(crate) const DEFAULT_TOL: f64 = 0.20;

/// Baseline pool size: the median is taken over at most this many of the
/// most recent non-current runs.
const BASELINE_POOL: usize = 8;

/// The gated reports, in presentation order.
const REPORTS: [&str; 3] = ["BENCH_sim.json", "BENCH_corpus.json", "BENCH_serve.json"];

/// One report's verdict: the current rate against its baseline median.
#[derive(Clone, Debug)]
struct Verdict {
    report: String,
    /// The run being judged.
    current: RunRecord,
    /// Cells per second of the current run.
    rate: f64,
    /// Median rate of the baseline pool, when any history exists.
    baseline: Option<f64>,
    /// Runs the baseline median was taken over.
    pool: usize,
    tol: f64,
}

impl Verdict {
    /// The lowest rate that still passes.
    fn floor(&self) -> Option<f64> {
        self.baseline.map(|b| b * (1.0 - self.tol))
    }

    /// `current / baseline` — the ranking key (worst first).
    fn ratio(&self) -> f64 {
        self.baseline.map_or(f64::INFINITY, |b| self.rate / b)
    }

    fn pass(&self) -> bool {
        self.floor().is_none_or(|f| self.rate >= f)
    }
}

/// Pure parse of an `IWC_PERFGATE_TOL` value: a fraction strictly between
/// 0 and 1 (e.g. `0.35` widens the band to ±35%).
pub(crate) fn parse_tol(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(t) if t > 0.0 && t < 1.0 => Ok(t),
        _ => Err(format!("want a fraction in (0, 1), got {raw:?}")),
    }
}

/// The effective tolerance: `IWC_PERFGATE_TOL` when set and valid,
/// otherwise [`DEFAULT_TOL`] (malformed values warn once, never fail).
fn tolerance() -> f64 {
    match std::env::var("IWC_PERFGATE_TOL") {
        Ok(raw) => parse_tol(&raw).unwrap_or_else(|why| {
            crate::warn_once(
                "IWC_PERFGATE_TOL",
                &format!(
                    "warning: ignoring malformed IWC_PERFGATE_TOL ({why}); using {DEFAULT_TOL}"
                ),
            );
            DEFAULT_TOL
        }),
        Err(_) => DEFAULT_TOL,
    }
}

/// Cells per second of one recorded run; `None` for degenerate records.
fn rate(r: &RunRecord) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    (r.wall_ms > 0.0 && r.cells > 0).then(|| r.cells as f64 / (r.wall_ms / 1e3))
}

/// The report's own thread count (`"threads": N` in the header, distinct
/// from the per-run lines, which `parse_run_line` handles).
fn header_threads(text: &str) -> Option<usize> {
    text.lines().find_map(|line| {
        let rest = line.trim().strip_prefix("\"threads\":")?;
        rest.trim().trim_end_matches(',').parse().ok()
    })
}

/// Median of a non-empty slice (the even case averages the middle pair).
fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Judges one report text: current = the last run at the header thread
/// count (falling back to the last run line), baseline = median of the
/// rates of the other runs with the current run's cell count, pool capped
/// at [`BASELINE_POOL`].
fn evaluate(report: &str, text: &str, tol: f64) -> Option<Verdict> {
    let runs: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
    let header = header_threads(text);
    let at = runs
        .iter()
        .rposition(|r| header.is_none_or(|t| r.threads == t))
        .unwrap_or(runs.len().checked_sub(1)?);
    let current = runs[at];
    let pool: Vec<f64> = runs
        .iter()
        .enumerate()
        .filter(|&(i, r)| i != at && r.cells == current.cells)
        .filter_map(|(_, r)| rate(r))
        .collect();
    let pool = &pool[pool.len().saturating_sub(BASELINE_POOL)..];
    Some(Verdict {
        report: report.to_string(),
        current,
        rate: rate(&current)?,
        baseline: median(pool),
        pool: pool.len(),
        tol,
    })
}

/// Worst-first ranking: smallest current/baseline ratio on top, reports
/// without a baseline at the bottom (alphabetical within ties).
fn rank(verdicts: &mut [Verdict]) {
    verdicts.sort_by(|a, b| {
        f64::total_cmp(&a.ratio(), &b.ratio()).then_with(|| a.report.cmp(&b.report))
    });
}

/// First number after `"key":` anywhere in the text — for the
/// informational (ungated) serve latency fields.
fn number_field(text: &str, key: &str) -> Option<f64> {
    let tail = &text[text.find(&format!("\"{key}\""))?..];
    let tail = &tail[tail.find(':')? + 1..];
    let end = tail.find([',', '}', '\n'])?;
    tail[..end].trim().parse().ok()
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    let tol = tolerance();
    println!(
        "== Perf regression gate: BENCH_*.json run trajectories, tolerance -{:.0}% ==\n",
        tol * 100.0
    );

    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut serve_text = String::new();
    for report in REPORTS {
        let path = results_dir().join(report);
        let Ok(text) = std::fs::read_to_string(&path) else {
            println!("{report:<18} missing (skipped)");
            continue;
        };
        if report == "BENCH_serve.json" {
            serve_text = text.clone();
        }
        match evaluate(report, &text, tol) {
            Some(v) => verdicts.push(v),
            None => println!("{report:<18} no runs recorded (skipped)"),
        }
    }
    rank(&mut verdicts);

    let mut failures = 0;
    for v in &verdicts {
        match (v.baseline, v.floor()) {
            (Some(b), Some(floor)) => {
                let mark = if v.pass() { "ok" } else { "FAIL" };
                failures += usize::from(!v.pass());
                println!(
                    "{:<18} {:>9.1} cells/s ({} thread(s), {} cells)  \
                     baseline {:>9.1} over {} run(s), floor {:>9.1}  [{mark}]",
                    v.report, v.rate, v.current.threads, v.current.cells, b, v.pool, floor
                );
            }
            _ => println!(
                "{:<18} {:>9.1} cells/s ({} thread(s), {} cells)  no baseline yet  [ok]",
                v.report, v.rate, v.current.threads, v.current.cells
            ),
        }
    }

    // Serve latency quantiles: one snapshot per regeneration, so they are
    // surfaced for the reader but never gated.
    if let (Some(p50), Some(p99)) = (
        number_field(&serve_text, "p50_hi"),
        number_field(&serve_text, "p99_hi"),
    ) {
        println!("\nserve latency (informational): p50 <= {p50:.0} us, p99 <= {p99:.0} us");
    }

    if failures > 0 {
        eprintln!(
            "[perfgate] FAIL: {failures} of {} gated report(s) regressed beyond -{:.0}% \
             (override the band with IWC_PERFGATE_TOL)",
            verdicts.len(),
            tol * 100.0
        );
        return Outcome::fail();
    }
    println!(
        "\nperfgate: {} report(s) gated, 0 regressions",
        verdicts.len()
    );
    Outcome::done()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tol_parses_fractions_and_rejects_nonsense() {
        assert_eq!(parse_tol("0.35"), Ok(0.35));
        assert_eq!(parse_tol(" 0.05 "), Ok(0.05));
        assert!(parse_tol("0").is_err(), "zero band gates on noise");
        assert!(parse_tol("1").is_err(), "full band gates nothing");
        assert!(parse_tol("1.5").is_err());
        assert!(parse_tol("-0.2").is_err());
        assert!(parse_tol("lots").is_err());
        assert!(parse_tol("NaN").is_err());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    const REPORT: &str = r#"{
  "name": "sim",
  "schema": 2,
  "threads": 1,
  "runs": [
    { "threads": 1, "wall_ms": 10000.00, "cells": 400 },
    { "threads": 4, "wall_ms": 2000.00, "cells": 600 },
    { "threads": 2, "wall_ms": 4000.00, "cells": 600 },
    { "threads": 1, "wall_ms": 7500.00, "cells": 600 }
  ]
}"#;

    #[test]
    fn evaluate_picks_current_by_header_threads_and_pools_same_cells() {
        let v = evaluate("BENCH_sim.json", REPORT, DEFAULT_TOL).expect("report gates");
        // Current = the last 1-thread run (header says threads: 1), not
        // the faster multi-thread sweeps.
        assert_eq!(v.current.threads, 1);
        assert_eq!(v.current.cells, 600);
        assert!((v.rate - 80.0).abs() < 1e-9, "{}", v.rate);
        // Pool = the other 600-cell runs: 300 and 150 cells/s, median 225.
        // The 400-cell run measured another sweep and stays out.
        assert_eq!(v.pool, 2);
        assert_eq!(v.baseline, Some(225.0));
        // 80 < 225 * 0.8 = 180: a regression at the default band.
        assert!(!v.pass());
        assert!(v.floor().unwrap() > v.rate);
        // A wide enough band passes the same trajectory.
        let wide = evaluate("BENCH_sim.json", REPORT, 0.7).unwrap();
        assert!(wide.pass());
    }

    /// A sweep that shrinks: the newest run covers fewer cells than an
    /// older one at the same thread count. The newest run is the one
    /// gated, and the older, larger sweep is no baseline for it.
    #[test]
    fn evaluate_gates_the_newest_run_when_the_sweep_shrinks() {
        let text = "{\n  \"threads\": 1,\n  \"runs\": [\n    \
                    { \"threads\": 1, \"wall_ms\": 1000.00, \"cells\": 600 },\n    \
                    { \"threads\": 1, \"wall_ms\": 10000.00, \"cells\": 400 }\n  ]\n}";
        let v = evaluate("BENCH_sim.json", text, DEFAULT_TOL).expect("gates");
        assert_eq!(v.current.cells, 400, "the newest run is current");
        assert!((v.rate - 40.0).abs() < 1e-9, "{}", v.rate);
        assert_eq!(v.pool, 0, "a 600-cell run is no baseline for 400 cells");
        assert_eq!(v.baseline, None);
    }

    #[test]
    fn single_run_reports_have_no_baseline_and_pass() {
        let text = "{\n  \"threads\": 2,\n  \"runs\": [\n    \
                    { \"threads\": 2, \"wall_ms\": 100.00, \"cells\": 8 }\n  ]\n}";
        let v = evaluate("BENCH_serve.json", text, DEFAULT_TOL).expect("gates");
        assert_eq!(v.baseline, None);
        assert_eq!(v.pool, 0);
        assert!(v.pass(), "no history must never fail the gate");
        assert!(evaluate("x", "{}", DEFAULT_TOL).is_none(), "no runs at all");
    }

    #[test]
    fn ranking_puts_the_worst_regression_first() {
        let mk = |report: &str, rate: f64, baseline: Option<f64>| Verdict {
            report: report.to_string(),
            current: RunRecord {
                threads: 1,
                wall_ms: 1000.0,
                cells: 1,
            },
            rate,
            baseline,
            pool: baseline.is_some().into(),
            tol: DEFAULT_TOL,
        };
        let mut vs = vec![
            mk("a", 90.0, Some(100.0)),
            mk("b", 50.0, Some(100.0)),
            mk("c", 10.0, None),
        ];
        rank(&mut vs);
        let order: Vec<&str> = vs.iter().map(|v| v.report.as_str()).collect();
        assert_eq!(
            order,
            ["b", "a", "c"],
            "worst ratio first, no-baseline last"
        );
    }

    #[test]
    fn degenerate_runs_never_divide_by_zero() {
        assert_eq!(
            rate(&RunRecord {
                threads: 1,
                wall_ms: 0.0,
                cells: 100
            }),
            None
        );
        assert_eq!(
            rate(&RunRecord {
                threads: 1,
                wall_ms: 5.0,
                cells: 0
            }),
            None
        );
    }

    #[test]
    fn serve_latency_fields_parse_informationally() {
        let text = "  \"latency_us\": { \"mean\": 34057, \"p50_hi\": 32767, \"p99_hi\": 131071 },";
        assert_eq!(number_field(text, "p50_hi"), Some(32767.0));
        assert_eq!(number_field(text, "p99_hi"), Some(131071.0));
        assert_eq!(number_field(text, "absent"), None);
    }
}
