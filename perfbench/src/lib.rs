//! The repository benchmark: three workloads that each stress different
//! layers of the intra-warp compaction reproduction.
//!
//! * [`sim_catalog`] — every catalog kernel under every canonical
//!   compaction engine: the simulator core does the work.
//! * [`corpus_fresh`] — a freshly generated 600-trace corpus pack analysed
//!   without the results cache: pack I/O, hash verification and the
//!   analyzer fold do the work.
//! * [`serve_mix`] — closed-loop HTTP clients against an in-process serve
//!   daemon: per-launch overhead, rendering and the wire layer carry
//!   weight.
//!
//! A run measures one workload with tracing off (end-to-end metrics) or
//! on (per-layer metrics, see [`spans`]). Every output is checked; any
//! mismatch is a failed operation and fails the run.

#![warn(rust_2018_idioms)]

pub mod corpus_fresh;
pub mod serve_mix;
pub mod sim_catalog;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Names of the workloads, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["sim-catalog", "corpus-fresh", "serve-mix"];

/// The seed the corpus report digest is pinned for.
pub const DEFAULT_SEED: u64 = 0;

/// Fewest repetitions of a workload's set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A set-up is repeated until this much time has passed (and at least
/// [`SETUP_REPS`] times), so a set-up of a few milliseconds still gives a
/// steady median.
pub const SETUP_MIN: Duration = Duration::from_millis(500);

/// End-to-end metrics, as `(name, unit)`: every workload reports all of
/// them. The unit of work behind `throughput` and the latencies is the
/// workload's own (see each workload module).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`. A workload
/// reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("bench.coverage", "ratio"),
    ("bench.other_ms", "ms"),
    ("bench.harness_ms", "ms"),
    ("bench.overhead_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("workloads.check_ms", "ms"),
    ("sim.plan.decode_ms", "ms"),
    ("sim.memimg.clone_ms", "ms"),
    ("sim.gpu.simulate_ms", "ms"),
    ("sim.gpu.simulate.raytrace_ms", "ms"),
    ("sim.gpu.simulate.kernels_ms", "ms"),
    ("sim.ns_per_issued", "ns"),
    ("sim.cycles", "count"),
    ("sim.eu.issued", "count"),
    ("sim.eu.cycles", "count"),
    ("sim.eu.issue_cycles", "count"),
    ("sim.eu.stall.front_end", "count"),
    ("sim.eu.stall.scoreboard_dep", "count"),
    ("sim.eu.stall.mem_latency", "count"),
    ("sim.eu.stall.pipe_busy", "count"),
    ("sim.eu.stall.send_queue_full", "count"),
    ("sim.eu.stall.barrier", "count"),
    ("sim.eu.stall.drained", "count"),
    ("sim.memsys.lines_requested", "count"),
    ("sim.memsys.l3_hit_ratio", "ratio"),
    ("sim.wheel.events_fired", "count"),
    ("sim.wheel.cycles_skipped", "count"),
    ("sim.wheel.skip_ratio", "ratio"),
    ("sim.burst.plans", "count"),
    ("sim.burst.plan_share", "ratio"),
    ("trace.synth.generate_s", "s"),
    ("trace.pack.open_ms", "ms"),
    ("trace.pack.read_verify_s", "s"),
    ("trace.analyze.fold_tally_s", "s"),
    ("trace.analyze.pack_s", "s"),
    ("trace.other_s", "s"),
    ("trace.pack.mb_per_s", "MB/s"),
    ("trace.records", "count"),
    ("trace.payload_bytes", "count"),
    ("trace.mean_run_len", "count"),
    ("serve.phase.parse_us", "us"),
    ("serve.phase.parse_us.p99", "us"),
    ("serve.phase.queue_us", "us"),
    ("serve.phase.queue_us.p99", "us"),
    ("serve.phase.decode_us", "us"),
    ("serve.phase.decode_us.p99", "us"),
    ("serve.phase.simulate_us", "us"),
    ("serve.phase.simulate_us.p99", "us"),
    ("serve.phase.render_us", "us"),
    ("serve.phase.render_us.p99", "us"),
    ("serve.net_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.queue.peak", "count"),
    ("serve.workers.peak", "count"),
    ("serve.request_kb.workload", "KiB"),
    ("serve.request_kb.trace", "KiB"),
    ("serve.response_kb.workload", "KiB"),
    ("serve.response_kb.trace", "KiB"),
    ("serve.jobs_failed", "count"),
    ("serve.rejected", "count"),
    ("serve.requests", "count"),
];

/// What one run asks for.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl RunSpec {
    /// The measured window. A traced run interleaves each traced unit of
    /// work with an untraced one (in a `bench.untraced` span), so the
    /// difference between the two is the tracing overhead.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// A workload's result: operations attempted and failed, the metrics of
/// the run, the deterministic counter block, and human-readable lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed outright.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic work counters: identical on every run of a seed.
    pub counters: BTreeMap<String, u64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records one operation's outcome, keeping the first few messages.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(msg());
            }
        }
    }

    /// Counts a failure of the run that is not an operation of its own.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let kb: u64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0);
    #[allow(clippy::cast_precision_loss)]
    let mb = kb as f64 / 1024.0;
    mb
}

/// Runs `f` at least [`SETUP_REPS`] times and for at least [`SETUP_MIN`],
/// and returns the last result, the median set-up time in seconds and the
/// number of repetitions. Each earlier result is torn down, in a
/// `bench.harness` span and outside the timed set-up, before the next
/// repetition starts.
pub fn timed_setup<T>(
    tracer: &spans::Tracer,
    parent: Option<spans::SpanId>,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || started.elapsed() < SETUP_MIN {
        tracer.time("bench.harness", parent, || drop(last.take()));
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let reps = times.len();
    Ok((
        last.expect("at least one set-up"),
        stats::median(&times),
        reps,
    ))
}

/// Scratch directory of the benchmark (generated packs, span dumps),
/// inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Fills the traced run's bookkeeping metrics from its spans and returns
/// the self time of every layer. The root's self time is the part no
/// layer explains (`bench.other_ms`); `bench.coverage` is the explained
/// share of the traced time, which leaves out the interleaved untraced
/// reference work; `bench.harness_ms` is the benchmark's own glue.
/// Times are per `units` of work.
pub fn span_summary(
    out: &mut Outcome,
    spans: &[spans::Span],
    units: f64,
) -> BTreeMap<&'static str, f64> {
    let selfs = spans::self_times(spans);
    let root = spans.iter().find(|s| s.parent.is_none());
    #[allow(clippy::cast_precision_loss)]
    let root_s = root.map_or(0.0, |r| (r.end_ns - r.start_ns) as f64 / 1e9);
    let other = root.map_or(0.0, |r| selfs.get(r.name).copied().unwrap_or(0.0));
    let traced_s = root_s - selfs.get("bench.untraced").copied().unwrap_or(0.0);
    let per = units.max(1e-9);
    out.set("bench.other_ms", other * 1e3 / per);
    out.set(
        "bench.coverage",
        if traced_s > 0.0 {
            1.0 - other / traced_s
        } else {
            0.0
        },
    );
    out.set(
        "bench.harness_ms",
        selfs.get("bench.harness").copied().unwrap_or(0.0) * 1e3 / per,
    );
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_telemetry::json::{parse, Json};

    /// `(name, unit)` of every entry of a `BENCHMARK.json` list.
    fn entries<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("");
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(entries(&doc, "end_to_end"), END_TO_END.to_vec());
        assert_eq!(entries(&doc, "per_layer"), PER_LAYER.to_vec());
        let workloads: Vec<&str> = entries(&doc, "workloads").iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }
}
