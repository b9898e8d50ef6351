//! # iwc-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | Experiment | Paper artifact |
//! |---|---|
//! | `fig3` | SIMD efficiency of the workload suite, coherent/divergent split |
//! | `fig8` | Ivy Bridge divergence micro-benchmark, relative times |
//! | `fig9` | SIMD utilization breakdown of divergent workloads |
//! | `fig10` | EU execution-cycle reduction from BCC and SCC |
//! | `fig11` | Ray tracing: total vs EU cycle reduction, DC1/DC2, throughput |
//! | `fig12` | Rodinia: total vs EU cycle reduction, 128KB vs perfect L3 |
//! | `table2` | Nested-branch benefit of IVB/BCC/SCC |
//! | `table4` | Summary of max/average benefits |
//! | `rf_area` | Register-file organization study (§4.3 / Fig. 5) |
//! | `ablation_swizzle` | Distance-limited SCC crossbars (§4.3) |
//!
//! Every experiment lives in the [`experiments`] registry and runs through
//! the unified driver: `cargo run --release -p iwc-bench --bin iwc --
//! <name>` (`iwc list` enumerates the registry). The `IWC_SCALE`
//! environment variable scales problem sizes (default 1) and
//! `IWC_TRACE_LEN` the synthetic trace length.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod runner;

use iwc_compaction::EngineId;
use iwc_sim::{GpuConfig, SimResult};
use iwc_workloads::Built;

/// Emits `msg` to stderr once per `key` per process — the env knobs are
/// read once per cell, and a malformed value should not warn once per cell.
pub(crate) fn warn_once(key: &str, msg: &str) {
    use std::sync::Mutex;
    static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut warned = WARNED.lock().expect("warn_once poisoned");
    if !warned.iter().any(|k| k == key) {
        warned.push(key.to_string());
        eprintln!("{msg}");
    }
}

/// Reads an environment knob, warning on stderr (instead of silently
/// defaulting) when the value is present but unparsable.
fn env_knob<T>(key: &str, default: T) -> T
where
    T: std::str::FromStr + std::fmt::Display,
{
    match std::env::var(key) {
        Ok(v) => match v.trim().parse() {
            Ok(x) => x,
            Err(_) => {
                warn_once(
                    key,
                    &format!("warning: ignoring malformed {key}={v:?}; using default {default}"),
                );
                default
            }
        },
        Err(_) => default,
    }
}

/// Problem-size scale from `IWC_SCALE` (default 1).
pub fn scale() -> u32 {
    env_knob("IWC_SCALE", 1)
}

/// Synthetic trace length from `IWC_TRACE_LEN` (default
/// [`iwc_trace::synth::DEFAULT_TRACE_LEN`]).
pub fn trace_len() -> usize {
    env_knob("IWC_TRACE_LEN", iwc_trace::synth::DEFAULT_TRACE_LEN)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Renders a unicode bar of `frac` (clamped to [0, 1]) over `width` cells.
pub fn bar(frac: f64, width: usize) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let cells = (frac * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < cells { '#' } else { '.' });
    }
    s
}

/// Prints the Table 3 configuration banner used by every harness binary.
pub fn print_config(cfg: &GpuConfig) {
    println!(
        "config: {} EUs x {} threads, ALU {}-wide, mode {}, L3 {}KB/{}-way/{} banks/{} cyc, \
         LLC {}MB/{} cyc, SLM {} cyc, DC {:.1} lines/cyc{}",
        cfg.eus,
        cfg.threads_per_eu,
        cfg.alu_width,
        cfg.compaction,
        cfg.mem.l3.size_bytes >> 10,
        cfg.mem.l3.ways,
        cfg.mem.l3.banks,
        cfg.mem.l3.latency,
        cfg.mem.llc.size_bytes >> 20,
        cfg.mem.llc.latency,
        cfg.mem.slm_latency,
        cfg.mem.dc_lines_per_cycle,
        if cfg.mem.perfect_l3 {
            ", perfect L3"
        } else {
            ""
        },
    );
}

/// The process-wide telemetry registry. Every simulation routed through
/// [`run_mode`] folds its [`SimResult::telemetry`] snapshot here (counters
/// add, histograms merge — addition commutes, so the aggregate is identical
/// whatever `IWC_THREADS` schedule the parallel harness picks), and
/// [`runner::Harness::finish`] embeds the final snapshot into
/// `results/bench_<name>.json`.
pub fn telemetry() -> &'static iwc_telemetry::Registry {
    static REGISTRY: std::sync::OnceLock<iwc_telemetry::Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(iwc_telemetry::Registry::new)
}

/// Runs `built` under the given compaction engine (paper-default GPU
/// otherwise), with the functional check applied, and folds the run's
/// telemetry snapshot into the process-wide [`telemetry`] registry. Accepts
/// a [`iwc_compaction::CompactionMode`] or any registry [`EngineId`].
///
/// # Panics
///
/// Panics when the simulation fails or the workload check rejects the
/// output — harness binaries should never silently report wrong-result
/// runs.
pub fn run_mode(built: &Built, engine: impl Into<EngineId>) -> SimResult {
    run_cfg(built, &GpuConfig::paper_default().with_compaction(engine))
}

/// Like [`run_mode`], but under an explicit configuration (DC-bandwidth and
/// perfect-L3 sweeps): functional check applied, telemetry absorbed into
/// the process-wide [`telemetry`] registry.
///
/// # Panics
///
/// Panics when the simulation fails or the workload check rejects the
/// output.
pub fn run_cfg(built: &Built, cfg: &GpuConfig) -> SimResult {
    let r = built
        .run_checked(cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", built.name));
    telemetry().absorb(&r.telemetry);
    r
}

/// [`Built::run_modes`] with every result's telemetry folded into the
/// process-wide [`telemetry`] registry — the harness-side entry point for
/// multi-engine sweeps over one configuration.
///
/// # Panics
///
/// Panics when any simulation fails or a workload check rejects its output.
pub fn run_modes_cfg<M: Into<EngineId> + Copy>(
    built: &Built,
    cfg: &GpuConfig,
    modes: &[M],
) -> Vec<SimResult> {
    modes
        .iter()
        .map(|&m| run_cfg(built, &cfg.with_compaction(m)))
        .collect()
}

/// Relative total-cycle reduction of `opt` versus `base`.
pub fn cycle_reduction(base: &SimResult, opt: &SimResult) -> f64 {
    if base.cycles == 0 {
        0.0
    } else {
        1.0 - opt.cycles as f64 / base.cycles as f64
    }
}

/// Simple max/average accumulator for Table 4.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxAvg {
    /// Largest sample.
    pub max: f64,
    sum: f64,
    n: u32,
}

impl MaxAvg {
    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.max = self.max.max(v);
        self.sum += v;
        self.n += 1;
    }

    /// Mean of the samples (0 when empty).
    pub fn avg(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / f64::from(self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(pct(0.053), "  5.3%");
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 3), "###");
        assert_eq!(bar(-1.0, 3), "...");
    }

    #[test]
    fn env_knob_falls_back_with_warning_on_malformed() {
        std::env::set_var("IWC_TEST_KNOB_OK", "7");
        assert_eq!(env_knob("IWC_TEST_KNOB_OK", 1u32), 7);
        std::env::set_var("IWC_TEST_KNOB_BAD", "abc");
        assert_eq!(env_knob("IWC_TEST_KNOB_BAD", 3u32), 3);
        assert_eq!(env_knob("IWC_TEST_KNOB_UNSET", 5u32), 5);
    }

    #[test]
    fn max_avg() {
        let mut m = MaxAvg::default();
        m.add(0.1);
        m.add(0.3);
        assert_eq!(m.max, 0.3);
        assert!((m.avg() - 0.2).abs() < 1e-12);
    }
}
