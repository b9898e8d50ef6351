//! `sim-catalog`: every catalog kernel at scale 1 under every canonical
//! compaction engine, on one thread, through `Built::run_checked`.
//!
//! This is the paper-sweep traffic (Fig. 10, Table 4): the simulator core
//! does nearly all the work and the trace and serve crates do none. The
//! seed only shuffles the order of the 200 cells in each pass.
//!
//! Unit of work: one cell (a kernel under one engine). A cell's time is
//! the median of its visits, so a transient stall on the host moves one
//! sample, not the result. `throughput` is simulated cycles per host
//! second spent in `run_checked`: one pass's simulated cycles over the sum
//! of the per-cell median times. The latency percentiles are over the 200
//! per-cell medians.

use crate::spans::{SpanId, Tracer};
use crate::stats::{median, quantile, SplitMix};
use crate::{timed_setup, Outcome, RunSpec};
use iwc_compaction::EngineId;
use iwc_sim::{simulate_decoded, DecodedProgram, GpuConfig, SimResult, StallCause};
use iwc_workloads::{catalog, Built};
use std::collections::BTreeMap;
use std::time::Instant;

/// Pinned simulated cycles of every cell: `kernel<TAB>engine<TAB>cycles`.
const PINS: &str = include_str!("../expected/sim_cycles.tsv");

/// Deterministic work counters of simulator runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions issued.
    pub issued: u64,
    /// EU cycles (every EU clocked every launch cycle).
    pub eu_cycles: u64,
    /// EU cycles that issued.
    pub issue_cycles: u64,
    /// Non-issuing EU cycles by cause, in `StallCause::ALL` order.
    pub stalls: [u64; 7],
    /// Cache lines requested by global messages.
    pub lines_requested: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Event-wheel events fired.
    pub wheel_events_fired: u64,
    /// EU cycles the event wheel skipped.
    pub wheel_cycles_skipped: u64,
    /// Plans issued through convergent bursts.
    pub burst_plans: u64,
}

impl SimCounters {
    /// The counters of one result.
    pub fn of(r: &SimResult) -> Self {
        let t = |k: &str| r.telemetry.counter(k).unwrap_or(0);
        Self {
            cycles: r.cycles,
            issued: r.eu.issued,
            eu_cycles: r.eu.eu_cycles,
            issue_cycles: r.eu.issue_cycles,
            stalls: StallCause::ALL.map(|c| r.eu.stall_causes.get(c)),
            lines_requested: r.mem.lines_requested,
            l3_hits: r.mem.l3_hits,
            l3_misses: r.mem.l3_misses,
            wheel_events_fired: t("sim/wheel/events_fired"),
            wheel_cycles_skipped: t("sim/wheel/cycles_skipped"),
            burst_plans: t("sim/burst/plans"),
        }
    }

    /// Adds `o` field by field.
    pub fn add(&mut self, o: &Self) {
        self.cycles += o.cycles;
        self.issued += o.issued;
        self.eu_cycles += o.eu_cycles;
        self.issue_cycles += o.issue_cycles;
        for (a, b) in self.stalls.iter_mut().zip(o.stalls) {
            *a += b;
        }
        self.lines_requested += o.lines_requested;
        self.l3_hits += o.l3_hits;
        self.l3_misses += o.l3_misses;
        self.wheel_events_fired += o.wheel_events_fired;
        self.wheel_cycles_skipped += o.wheel_cycles_skipped;
        self.burst_plans += o.burst_plans;
    }

    /// The counter block, by name.
    pub fn block(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        m.insert("sim.cycles".into(), self.cycles);
        m.insert("sim.eu.issued".into(), self.issued);
        m.insert("sim.eu.cycles".into(), self.eu_cycles);
        m.insert("sim.eu.issue_cycles".into(), self.issue_cycles);
        for (c, n) in StallCause::ALL.iter().zip(self.stalls) {
            m.insert(format!("sim.eu.stall.{}", c.label()), n);
        }
        m.insert("sim.memsys.lines_requested".into(), self.lines_requested);
        m.insert("sim.memsys.l3_hits".into(), self.l3_hits);
        m.insert("sim.memsys.l3_misses".into(), self.l3_misses);
        m.insert("sim.wheel.events_fired".into(), self.wheel_events_fired);
        m.insert("sim.wheel.cycles_skipped".into(), self.wheel_cycles_skipped);
        m.insert("sim.burst.plans".into(), self.burst_plans);
        m
    }

    /// Publishes the counters and their ratios as per-layer metrics.
    #[allow(clippy::cast_precision_loss)]
    pub fn publish(&self, out: &mut Outcome) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        for (name, v) in self.block() {
            if let Some((key, _)) = crate::PER_LAYER.iter().find(|(n, _)| *n == name) {
                out.set(key, v as f64);
            }
        }
        out.set(
            "sim.memsys.l3_hit_ratio",
            ratio(self.l3_hits, self.l3_hits + self.l3_misses),
        );
        out.set(
            "sim.wheel.skip_ratio",
            ratio(self.wheel_cycles_skipped, self.eu_cycles),
        );
        out.set("sim.burst.plan_share", ratio(self.burst_plans, self.issued));
    }
}

/// One cell of the sweep: a catalog kernel under one engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Index into the catalog.
    pub kernel: usize,
    /// Compaction engine.
    pub engine: EngineId,
}

/// Every cell of `kernels` catalog entries, in catalog × engine order.
pub fn cells(kernels: usize) -> Vec<Cell> {
    (0..kernels)
        .flat_map(|kernel| {
            EngineId::CANONICAL
                .iter()
                .map(move |&engine| Cell { kernel, engine })
        })
        .collect()
}

/// Builds every catalog kernel at scale 1, each build in a
/// `workloads.build` span under `parent`.
pub fn build_catalog(tracer: &Tracer, parent: Option<SpanId>) -> Vec<Built> {
    catalog()
        .iter()
        .map(|e| tracer.time("workloads.build", parent, || (e.build)(1)))
        .collect()
}

/// The pinned cycles, keyed by `(kernel, engine label)`.
///
/// # Panics
///
/// Panics on a malformed line: the table ships with the benchmark.
pub fn pins() -> BTreeMap<(String, String), u64> {
    PINS.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 3, "malformed pin line {l:?}");
            let cycles = f[2]
                .parse()
                .unwrap_or_else(|_| panic!("bad cycles in {l:?}"));
            ((f[0].to_string(), f[1].to_string()), cycles)
        })
        .collect()
}

/// The pin table for `built` (what `expected/sim_cycles.tsv` holds).
///
/// # Errors
///
/// Returns the first simulation or check failure.
pub fn pin_table(built: &[Built]) -> Result<String, String> {
    let mut out = String::from("# kernel\tengine\tcycles (scale 1, GpuConfig::paper_default)\n");
    for c in cells(built.len()) {
        let b = &built[c.kernel];
        let r = b.run_checked(&config(c.engine))?;
        out.push_str(&format!("{}\t{}\t{}\n", b.name, c.engine.label(), r.cycles));
    }
    Ok(out)
}

fn config(engine: EngineId) -> GpuConfig {
    GpuConfig::paper_default().with_compaction(engine)
}

/// Runs one cell decomposed into the calls `run_checked` makes, each in
/// its layer's span: image clone, plan decode, simulation, check.
fn run_traced(
    tracer: &Tracer,
    parent: Option<SpanId>,
    b: &Built,
    engine: EngineId,
) -> Result<SimResult, String> {
    let mut img = tracer.time("sim.memimg.clone", parent, || b.img.clone());
    let decoded = tracer.time("sim.plan.decode", parent, || {
        DecodedProgram::decode(&b.launch.program)
    });
    let layer = if b.name.starts_with("RT-") {
        "sim.gpu.simulate.raytrace"
    } else {
        "sim.gpu.simulate.kernels"
    };
    let r = tracer
        .time(layer, parent, || {
            simulate_decoded(&config(engine), &b.launch, &mut img, &decoded)
        })
        .map_err(|e| e.to_string())?;
    if let Some(check) = &b.check {
        tracer
            .time("workloads.check", parent, || check(&img))
            .map_err(|e| format!("{}: {e}", b.name))?;
    }
    Ok(r)
}

/// Per-cell timing samples and first-visit counters of one measured loop.
struct Sweep {
    /// Times of the measured runs: traced in a traced run.
    times: Vec<Vec<f64>>,
    /// Times of the interleaved untraced runs of a traced run.
    untraced: Vec<Vec<f64>>,
    counters: Vec<Option<SimCounters>>,
    visits: usize,
}

/// Checks one run of cell `i` against its pin and its first run.
fn verify(
    s: &mut Sweep,
    i: usize,
    b: &Built,
    label: &str,
    want: Option<u64>,
    r: Result<SimResult, String>,
    out: &mut Outcome,
) {
    match r {
        Err(e) => out.check(false, || format!("{} under {label}: {e}", b.name)),
        Ok(r) => {
            out.check(want == Some(r.cycles), || {
                format!(
                    "{} under {label}: {} cycles, pinned {want:?}",
                    b.name, r.cycles
                )
            });
            let got = SimCounters::of(&r);
            match &s.counters[i] {
                None => s.counters[i] = Some(got),
                Some(first) if *first != got => {
                    out.fail(format!(
                        "{} under {label}: counters differ between runs",
                        b.name
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

/// Visits cells in seeded passes until the window has elapsed and at
/// least one full pass is done, checking every run against the pins and
/// against the cell's first run. In a traced run every visit also runs
/// the cell untraced, alternating which goes first.
fn sweep(
    built: &[Built],
    pins: &BTreeMap<(String, String), u64>,
    spec: &RunSpec,
    tracer: &Tracer,
    parent: Option<SpanId>,
    out: &mut Outcome,
) -> Sweep {
    let all = cells(built.len());
    let mut s = Sweep {
        times: vec![Vec::new(); all.len()],
        untraced: vec![Vec::new(); all.len()],
        counters: vec![None; all.len()],
        visits: 0,
    };
    let started = Instant::now();
    let mut rng = SplitMix::new(spec.seed, 1);
    'passes: for pass in 0.. {
        let mut order: Vec<usize> = (0..all.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if pass > 0 && started.elapsed() >= spec.window() {
                break 'passes;
            }
            let c = all[i];
            let b = &built[c.kernel];
            let label = c.engine.label();
            let want = pins.get(&(b.name.clone(), label.clone())).copied();
            let traced_first = s.visits.is_multiple_of(2);
            for traced in [traced_first, !traced_first] {
                if traced && !tracer.is_on() {
                    continue;
                }
                let t = Instant::now();
                let r = if traced {
                    let g = tracer.enter("bench.harness", parent);
                    run_traced(tracer, g.id(), b, c.engine)
                } else {
                    let _g = tracer.enter("bench.untraced", parent);
                    b.run_checked(&config(c.engine))
                };
                let elapsed = t.elapsed().as_secs_f64();
                let _g = tracer.enter("bench.harness", parent);
                if traced || !tracer.is_on() {
                    s.times[i].push(elapsed);
                } else {
                    s.untraced[i].push(elapsed);
                }
                verify(&mut s, i, b, &label, want, r, out);
            }
            s.visits += 1;
        }
        if started.elapsed() >= spec.window() {
            break;
        }
    }
    s
}

/// Seconds of one pass: the sum of per-cell median times.
fn pass_seconds(times: &[Vec<f64>]) -> f64 {
    times.iter().map(|t| median(t)).sum()
}

fn pass_counters(s: &Sweep) -> SimCounters {
    let mut total = SimCounters::default();
    for c in s.counters.iter().flatten() {
        total.add(c);
    }
    total
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let pins = pins();
    let tracer = Tracer::new(spec.trace);
    let root = tracer.enter("bench.root", None);
    let (built, setup_s, reps) =
        match timed_setup(&tracer, root.id(), || Ok(build_catalog(&tracer, root.id()))) {
            Ok(v) => v,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
    let s = sweep(&built, &pins, spec, &tracer, root.id(), &mut out);
    drop(root);
    let pass_s = pass_seconds(&s.times);
    let counters = pass_counters(&s);
    out.counters = counters.block();
    #[allow(clippy::cast_precision_loss)]
    let cycles_per_s = counters.cycles as f64 / pass_s.max(1e-9);
    let cell_medians: Vec<f64> = s.times.iter().map(|t| median(t) * 1e3).collect();
    out.lines.push(format!(
        "{} cells, {} visits, pass {:.3} s (sum of per-cell medians), {:.0} simulated cycles/s",
        s.times.len(),
        s.visits,
        pass_s,
        cycles_per_s
    ));
    if !spec.trace {
        out.set("setup_s", setup_s);
        out.set("throughput", cycles_per_s);
        out.set("latency_p50_ms", median(&cell_medians));
        out.set("latency_p99_ms", quantile(&cell_medians, 0.99));
        out.lines.push(format!(
            "throughput = sim_cycles_per_s; latency = per-cell median time over {} cells",
            cell_medians.len()
        ));
        return out;
    }

    #[allow(clippy::cast_precision_loss)]
    let units = s.visits as f64 / s.times.len() as f64;
    let spans = tracer.spans();
    let selfs = crate::span_summary(&mut out, &spans, units);
    out.set(
        "bench.overhead_ms",
        (pass_s - pass_seconds(&s.untraced)) * 1e3,
    );
    let per_pass_ms = |k: &str| selfs.get(k).copied().unwrap_or(0.0) * 1e3 / units.max(1e-9);
    let builds = selfs.get("workloads.build").copied().unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    out.set("workloads.build_ms", builds * 1e3 / reps as f64);
    out.set("workloads.check_ms", per_pass_ms("workloads.check"));
    out.set("sim.plan.decode_ms", per_pass_ms("sim.plan.decode"));
    out.set("sim.memimg.clone_ms", per_pass_ms("sim.memimg.clone"));
    let rt = per_pass_ms("sim.gpu.simulate.raytrace");
    let kernels = per_pass_ms("sim.gpu.simulate.kernels");
    out.set("sim.gpu.simulate.raytrace_ms", rt);
    out.set("sim.gpu.simulate.kernels_ms", kernels);
    out.set("sim.gpu.simulate_ms", rt + kernels);
    #[allow(clippy::cast_precision_loss)]
    out.set(
        "sim.ns_per_issued",
        (rt + kernels) * 1e6 / (counters.issued as f64).max(1.0),
    );
    counters.publish(&mut out);
    if let Err(e) = crate::spans::write_json(
        &crate::out_dir().join("spans-sim-catalog.json"),
        "sim-catalog",
        &spans,
    ) {
        out.lines.push(format!("could not write spans: {e}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_doctored_pin_fails_the_cell() {
        let built: Vec<Built> = build_catalog(&Tracer::new(false), None)
            .into_iter()
            .filter(|b| b.name == "VA")
            .collect();
        let spec = RunSpec {
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let mut pins = pins();
        let mut out = Outcome::default();
        sweep(&built, &pins, &spec, &Tracer::new(false), None, &mut out);
        assert_eq!((out.attempted, out.failed), (4, 0));
        *pins
            .get_mut(&("VA".to_string(), "scc".to_string()))
            .expect("pinned") += 1;
        let mut out = Outcome::default();
        sweep(&built, &pins, &spec, &Tracer::new(false), None, &mut out);
        assert_eq!((out.attempted, out.failed), (4, 1));
    }
}
