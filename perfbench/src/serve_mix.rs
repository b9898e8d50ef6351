//! `serve-mix`: an in-process serve daemon (2 workers, results cache off)
//! driven over loopback by 2 closed-loop `client::post` clients.
//!
//! The request sequence is made of blocks of 8 requests: 7 `workload`
//! jobs over the 40 non-ray-tracing catalog kernels (small request, large
//! JSON + telemetry response) and 1 `trace` job carrying a seeded
//! 50k-record trace, base64-encoded (about 400 KB up, a small response
//! back). Launches are short and run from cached decoded plans, so
//! per-launch overhead, rendering and HTTP carry weight; the upload path
//! sits beside the download path, so a gain on one that costs the other
//! shows.
//!
//! The seed orders the kernels, places the trace job in each block and
//! seeds the trace's records; it does not change how much work a period
//! holds. The workload jobs walk one seeded permutation of the 40
//! kernels, so the sequence repeats every [`PERIOD`] requests with every
//! kernel equally often.
//!
//! Unit of work: one request. Clients share one cursor into the
//! sequence, so the requests issued are the same whatever the
//! interleaving. Set-up binds the daemon and warms it with one request
//! per distinct job (cold decodes). A failed or refused request counts
//! as [`FAILED_LATENCY_MS`] in the latency percentiles.

use crate::spans::{SpanId, Tracer};
use crate::stats::{beyond, median, quantile, SplitMix};
use crate::{timed_setup, Outcome, RunSpec};
use iwc_compaction::EngineId;
use iwc_serve::job::object_after;
use iwc_serve::{client, ServeConfig, Server, ServerHandle};
use iwc_sim::GpuConfig;
use iwc_telemetry::{Pow2Hist, TelemetrySnapshot};
use iwc_trace::{analyze_engines, corpus, Trace};
use iwc_workloads::catalog;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serve worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Requests per block: 7 workload jobs and 1 trace job.
pub const BLOCK: usize = 8;
/// Kernels the workload jobs cycle through (the non-`RT-*` catalog).
pub const KERNELS: usize = 40;
/// Requests before the sequence repeats: 40 blocks hold 280 workload
/// jobs, 7 passes over the kernels.
pub const PERIOD: usize = KERNELS * BLOCK;
/// Records in the block's trace job.
pub const TRACE_LEN: usize = 50_000;
/// Fewest requests of an end-to-end run: the p99 then has at least ten
/// samples beyond it.
pub const MIN_REQUESTS: usize = 1000;
/// Longest an end-to-end run keeps going to reach [`MIN_REQUESTS`].
pub const MAX_WINDOW: Duration = Duration::from_secs(120);
/// Latency charged to a failed or refused request.
pub const FAILED_LATENCY_MS: f64 = 1e9;

/// What a served response must carry, from a direct in-process call.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// `run_checked` under each canonical engine: cycles and the
    /// telemetry snapshot JSON.
    Workload(Vec<(u64, String)>),
    /// `analyze_engines` cycles under each canonical engine, and the
    /// record count.
    Trace(Vec<u64>, u64),
}

/// One job of the block.
#[derive(Clone, Debug)]
pub struct Job {
    /// `"workload"` or `"trace"`.
    pub kind: &'static str,
    /// Workload or trace name.
    pub name: String,
    /// Request body.
    pub body: String,
    /// Direct result the response must match.
    pub expected: Expected,
}

/// The distinct jobs (one per kernel, then the trace job) with their
/// direct results, and the seeded sequence of [`PERIOD`] job indices.
///
/// # Errors
///
/// Returns a direct run's failure.
pub fn sequence(seed: u64) -> Result<(Vec<Job>, Vec<usize>), String> {
    let kernels: Vec<_> = catalog()
        .into_iter()
        .filter(|e| !e.name.starts_with("RT-"))
        .collect();
    if kernels.len() != KERNELS {
        return Err(format!("{} non-RT kernels, want {KERNELS}", kernels.len()));
    }
    let mut jobs = kernels
        .iter()
        .map(|e| {
            let built = (e.build)(1);
            let expected = EngineId::CANONICAL
                .iter()
                .map(|&engine| {
                    built
                        .run_checked(&GpuConfig::paper_default().with_compaction(engine))
                        .map(|r| (r.cycles, r.telemetry.to_json()))
                })
                .collect::<Result<_, _>>()?;
            Ok(Job {
                kind: "workload",
                name: e.name.to_string(),
                body: format!("{{\"workload\":\"{}\",\"scale\":1}}", e.name),
                expected: Expected::Workload(expected),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut profile = corpus()[0].clone();
    profile.seed = profile.seed.wrapping_add(seed);
    jobs.push(trace_job(&profile.generate(TRACE_LEN))?);

    let mut rng = SplitMix::new(seed, 3);
    let mut order: Vec<usize> = (0..KERNELS).collect();
    rng.shuffle(&mut order);
    let mut next = order.iter().cycle();
    let seq = (0..PERIOD / BLOCK)
        .flat_map(|_| {
            let trace_at = rng.below(BLOCK);
            (0..BLOCK)
                .map(|i| {
                    if i == trace_at {
                        KERNELS
                    } else {
                        *next.next().expect("cycle never ends")
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();
    Ok((jobs, seq))
}

fn trace_job(trace: &Trace) -> Result<Job, String> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).map_err(|e| format!("{e:?}"))?;
    let report = analyze_engines(trace, &EngineId::CANONICAL);
    Ok(Job {
        kind: "trace",
        name: trace.name.clone(),
        body: format!("{{\"trace\":\"{}\"}}", iwc_serve::ws::base64(&bytes)),
        expected: Expected::Trace(
            EngineId::CANONICAL
                .iter()
                .map(|&e| report.tally.cycles_of(e))
                .collect(),
            trace.len() as u64,
        ),
    })
}

/// Every `"key":<number>` value in `body`, in order.
fn numbers_after<'a>(body: &'a str, key: &'a str) -> impl Iterator<Item = Option<u64>> + 'a {
    body.match_indices(key).map(move |(at, _)| {
        let rest = &body[at + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    })
}

/// Checks a served response body against the direct result.
///
/// # Errors
///
/// Describes the first difference.
pub fn verify(body: &str, expected: &Expected) -> Result<(), String> {
    let cycles: Vec<Option<u64>> = numbers_after(body, "\"cycles\":").collect();
    match expected {
        Expected::Workload(want) => {
            let telemetry: Vec<Option<&str>> = body
                .match_indices("\"telemetry\":")
                .map(|(at, _)| object_after(&body[at..], "\"telemetry\":"))
                .collect();
            if cycles.len() != want.len() || telemetry.len() != want.len() {
                return Err(format!("{} results, want {}", cycles.len(), want.len()));
            }
            for (i, (c, t)) in cycles.iter().zip(&telemetry).enumerate() {
                if *c != Some(want[i].0) {
                    return Err(format!("engine {i}: cycles {c:?}, direct {}", want[i].0));
                }
                if *t != Some(want[i].1.as_str()) {
                    return Err(format!("engine {i}: telemetry differs from the direct run"));
                }
            }
            Ok(())
        }
        Expected::Trace(want, records) => {
            let got: Vec<Option<u64>> = want.iter().map(|&c| Some(c)).collect();
            if cycles != got {
                return Err(format!("cycles {cycles:?}, direct {want:?}"));
            }
            let served: Vec<_> = numbers_after(body, "\"records\":").collect();
            if served != [Some(*records)] {
                return Err(format!("records {served:?}, direct {records}"));
            }
            Ok(())
        }
    }
}

/// A running in-process daemon; dropping it drains and joins it.
pub struct Daemon {
    /// Bound loopback address.
    pub addr: SocketAddr,
    /// Control handle.
    pub handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds a daemon with `workers` workers on an ephemeral loopback
    /// port, with the results cache off, and starts it.
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn start(workers: usize) -> Result<Self, String> {
        let cfg = ServeConfig {
            workers,
            results_cache: None,
            slow_ms: 0,
            ..ServeConfig::default().on_ephemeral_port()
        };
        let server = Server::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(Self {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Drains the daemon and reports how its run loop ended.
    ///
    /// # Errors
    ///
    /// Returns the daemon's error or panic.
    pub fn stop(mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One completed request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the job in the block.
    pub job: usize,
    /// Client-side latency in milliseconds.
    pub ms: f64,
    /// Response matched the direct result.
    pub ok: bool,
    /// Response body bytes.
    pub response_bytes: usize,
    /// Failure message, when not ok.
    pub error: Option<String>,
    /// Response body, kept only when asked for.
    pub body: Option<String>,
    /// Sent with client spans on (traced runs only).
    pub traced: bool,
}

/// Sends job `j` and checks the response: the round trip in a
/// `serve.request` span, the check in a `bench.harness` span.
fn request(
    addr: SocketAddr,
    jobs: &[Job],
    j: usize,
    keep_body: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Sample {
    let t = Instant::now();
    let resp = tracer.time("serve.request", parent, || {
        client::post(addr, "/v1/jobs", &jobs[j].body)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let _g = tracer.enter("bench.harness", parent);
    let (ok, error, len, body) = match resp {
        Err(e) => (false, Some(format!("request failed: {e}")), 0, None),
        Ok(r) if r.status != 200 => (
            false,
            Some(format!("status {}: {}", r.status, r.body)),
            r.body.len(),
            None,
        ),
        Ok(r) => {
            let v = verify(&r.body, &jobs[j].expected);
            let len = r.body.len();
            (v.is_ok(), v.err(), len, keep_body.then_some(r.body))
        }
    };
    Sample {
        job: j,
        ms: if ok { ms } else { FAILED_LATENCY_MS },
        ok,
        response_bytes: len,
        error,
        body,
        traced: tracer.is_on(),
    }
}

/// Sends every distinct job once, in order: the daemon's warm-up, and
/// the served bodies the determinism test compares.
pub fn each_job(
    addr: SocketAddr,
    jobs: &[Job],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Sample> {
    (0..jobs.len())
        .map(|j| request(addr, jobs, j, true, tracer, parent))
        .collect()
}

/// Closed-loop load: [`CLIENTS`] clients draw jobs from one shared
/// cursor until `window` has elapsed and at least `min_requests` were
/// sent (or [`MAX_WINDOW`] passed). In a traced run each client sends
/// every other request untraced. Returns the samples and the wall time.
fn load(
    addr: SocketAddr,
    jobs: &[Job],
    seq: &[usize],
    window: Duration,
    min_requests: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<Sample>, f64) {
    let cursor = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut mine = Vec::new();
                let off = Tracer::new(false);
                loop {
                    let elapsed = started.elapsed();
                    let enough = cursor.load(Ordering::Relaxed) >= min_requests;
                    if (elapsed >= window && enough) || elapsed >= MAX_WINDOW.max(window) {
                        break;
                    }
                    let j = seq[cursor.fetch_add(1, Ordering::Relaxed) % seq.len()];
                    mine.push(if tracer.is_on() && mine.len() % 2 == 1 {
                        tracer.time("bench.untraced", parent, || {
                            request(addr, jobs, j, false, &off, None)
                        })
                    } else {
                        request(addr, jobs, j, false, tracer, parent)
                    });
                }
                samples.lock().expect("sample list poisoned").extend(mine);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (samples.into_inner().expect("sample list poisoned"), wall)
}

fn hist_delta(after: &TelemetrySnapshot, before: &TelemetrySnapshot, name: &str) -> Pow2Hist {
    let mut d = Pow2Hist::new();
    if let Some(a) = after.hist(name) {
        d = *a;
        if let Some(b) = before.hist(name) {
            for (x, y) in d.buckets.iter_mut().zip(b.buckets) {
                *x -= y;
            }
            d.count -= b.count;
            d.sum -= b.sum;
        }
    }
    d
}

fn counter_delta(after: &TelemetrySnapshot, before: &TelemetrySnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

fn record_samples(out: &mut Outcome, jobs: &[Job], samples: &[Sample]) {
    for s in samples {
        out.check(s.ok, || {
            format!(
                "{} {}: {}",
                jobs[s.job].kind,
                jobs[s.job].name,
                s.error.as_deref().unwrap_or("mismatch")
            )
        });
    }
}

/// Deterministic counters of one period of the sequence, from the
/// served response of each distinct job.
pub fn counters(jobs: &[Job], seq: &[usize], served: &[Sample]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for &j in seq {
        let (job, s) = (&jobs[j], &served[j]);
        *m.entry(format!("serve.period.{}_jobs", job.kind))
            .or_insert(0) += 1;
        *m.entry(format!("serve.period.{}_request_bytes", job.kind))
            .or_insert(0) += job.body.len() as u64;
        *m.entry(format!("serve.period.{}_response_bytes", job.kind))
            .or_insert(0) += s.response_bytes as u64;
        if let Expected::Workload(r) = &job.expected {
            *m.entry("serve.period.simulated_cycles".into()).or_insert(0) +=
                r.iter().map(|(c, _)| c).sum::<u64>();
        }
    }
    m
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let (jobs, seq) = match sequence(spec.seed) {
        Ok(v) => v,
        Err(e) => {
            out.fail(format!("direct run: {e}"));
            return out;
        }
    };
    let tracer = Tracer::new(spec.trace);
    let root = tracer.enter("bench.root", None);
    let mut warm = Vec::new();
    let setup = timed_setup(&tracer, root.id(), || {
        let d = tracer.time("serve.bind", root.id(), || Daemon::start(WORKERS))?;
        warm.push(each_job(d.addr, &jobs, &tracer, root.id()));
        Ok(d)
    });
    let (daemon, setup_s, _) = match setup {
        Ok(v) => v,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    for w in &warm {
        record_samples(&mut out, &jobs, w);
    }
    out.counters = counters(&jobs, &seq, warm.last().expect("one set-up at least"));

    let before = daemon.handle.stats();
    let min = if spec.trace { 0 } else { MIN_REQUESTS };
    let (samples, wall) = load(
        daemon.addr,
        &jobs,
        &seq,
        spec.window(),
        min,
        &tracer,
        root.id(),
    );
    drop(root);
    let after = daemon.handle.stats();
    record_samples(&mut out, &jobs, &samples);
    let lat: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let ok = samples.iter().filter(|s| s.ok).count();
    #[allow(clippy::cast_precision_loss)]
    let rps = ok as f64 / wall.max(1e-9);
    out.lines.push(format!(
        "{} requests in {wall:.2} s ({} beyond p99), {ok} verified against direct runs",
        samples.len(),
        beyond(samples.len(), 0.99)
    ));

    if !spec.trace {
        out.set("setup_s", setup_s);
        out.set("throughput", rps);
        out.set("latency_p50_ms", median(&lat));
        out.set("latency_p99_ms", quantile(&lat, 0.99));
        out.lines
            .push("throughput = serve_rps; latency = client-side request time".into());
    } else {
        let spans = tracer.spans();
        #[allow(clippy::cast_precision_loss)]
        crate::span_summary(&mut out, &spans, samples.len().max(1) as f64);
        let of = |traced: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.ms)
                .collect()
        };
        out.set("bench.overhead_ms", median(&of(true)) - median(&of(false)));
        publish_layers(&mut out, &jobs, &samples, &before, &after);
        if let Err(e) = crate::spans::write_json(
            &crate::out_dir().join("spans-serve-mix.json"),
            "serve-mix",
            &spans,
        ) {
            out.lines.push(format!("could not write spans: {e}"));
        }
    }
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }
    out
}

#[allow(clippy::cast_precision_loss)]
fn publish_layers(
    out: &mut Outcome,
    jobs: &[Job],
    samples: &[Sample],
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
) {
    let mut phase_sum = 0.0;
    for (phase, mean_key, p99_key) in [
        ("parse", "serve.phase.parse_us", "serve.phase.parse_us.p99"),
        ("queue", "serve.phase.queue_us", "serve.phase.queue_us.p99"),
        (
            "decode",
            "serve.phase.decode_us",
            "serve.phase.decode_us.p99",
        ),
        (
            "simulate",
            "serve.phase.simulate_us",
            "serve.phase.simulate_us.p99",
        ),
        (
            "render",
            "serve.phase.render_us",
            "serve.phase.render_us.p99",
        ),
    ] {
        let h = hist_delta(after, before, &format!("serve/phase_us/{phase}"));
        phase_sum += h.mean();
        out.set(mean_key, h.mean());
        out.set(p99_key, h.quantile_hi(0.99) as f64);
    }
    let mean_us = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.ms * 1e3)
        .sum::<f64>()
        / samples.iter().filter(|s| s.ok).count().max(1) as f64;
    out.set("serve.net_us", mean_us - phase_sum);
    let hits = counter_delta(after, before, "serve/cache/hits");
    let misses = counter_delta(after, before, "serve/cache/misses");
    out.set(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set(
        "serve.queue.peak",
        after.gauge("serve/queue/peak").unwrap_or(0.0),
    );
    out.set(
        "serve.workers.peak",
        after.gauge("serve/workers/peak").unwrap_or(0.0),
    );
    for (kind, req_key, resp_key) in [
        (
            "workload",
            "serve.request_kb.workload",
            "serve.response_kb.workload",
        ),
        ("trace", "serve.request_kb.trace", "serve.response_kb.trace"),
    ] {
        let of_kind: Vec<&Sample> = samples
            .iter()
            .filter(|s| jobs[s.job].kind == kind)
            .collect();
        let n = of_kind.len().max(1) as f64;
        let req: usize = of_kind.iter().map(|s| jobs[s.job].body.len()).sum();
        let resp: usize = of_kind.iter().map(|s| s.response_bytes).sum();
        out.set(req_key, req as f64 / 1024.0 / n);
        out.set(resp_key, resp as f64 / 1024.0 / n);
    }
    out.set(
        "serve.jobs_failed",
        counter_delta(after, before, "serve/jobs_failed") as f64,
    );
    out.set(
        "serve.rejected",
        counter_delta(after, before, "serve/rejected") as f64,
    );
    out.set("serve.requests", samples.len() as f64);
}
