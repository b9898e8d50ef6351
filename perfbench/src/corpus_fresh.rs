//! `corpus-fresh`: a freshly generated 600-trace × 50k-record corpus pack
//! (30 M records), analysed with `analyze_pack_file(path, 1)` and no
//! results cache.
//!
//! Pack read, hash verification, folding and tallying do all the work
//! and the simulator does none, so a simulator change should leave this
//! workload unchanged. The pack is generated from `expanded_corpus(600)`
//! with every profile seed offset by `--seed`, written run-length
//! encoded as `iwc pack rle` writes it, and deleted when the run ends.
//!
//! Unit of work: one analysis pass over the whole pack. `throughput` is
//! traces per second of the median pass; the latency percentiles are
//! over the pass times.

use crate::spans::{SpanId, Tracer};
use crate::stats::{median, quantile};
use crate::{timed_setup, Outcome, RunSpec};
use iwc_compaction::CompactionMode;
use iwc_trace::hash::Fnv1a;
use iwc_trace::pack::{CorpusPack, PackWriter};
use iwc_trace::source::collect;
use iwc_trace::{
    analyze_pack_file, analyze_source, expanded_corpus, Profile, SliceSource, TraceReport,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Traces in the pack.
pub const TRACES: usize = 600;
/// Records per trace.
pub const TRACE_LEN: usize = 50_000;
/// Report digest of the full pack at [`crate::DEFAULT_SEED`].
pub const PINNED_DIGEST: u64 = 0x688e_042f_8c1e_aca0;

/// The corpus profiles for `seed`: `expanded_corpus(count)` with every
/// profile seed offset by `seed`.
pub fn profiles(seed: u64, count: usize) -> Vec<Profile> {
    let mut ps = expanded_corpus(count);
    for p in &mut ps {
        p.seed = p.seed.wrapping_add(seed);
    }
    ps
}

/// Writes `profiles` as a run-length encoded pack at `path`.
///
/// # Errors
///
/// Returns the first write failure.
pub fn generate(path: &Path, profiles: &[Profile], len: usize) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = PackWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
    w.set_rle(true);
    for p in profiles {
        w.add_source(&mut p.source(len))
            .map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())?;
    Ok(())
}

/// FNV-1a digest of the user-visible content of one report: name, run
/// count, and every tally quantity the figures are drawn from.
pub fn report_digest(r: &TraceReport) -> u64 {
    let mut h = Fnv1a::new();
    h.write(r.name.as_bytes());
    h.write(&[0xff]);
    let t = &r.tally;
    let mut words = vec![
        r.runs,
        t.instructions,
        t.active_channels,
        t.total_channels,
        t.bcc_fetches_saved,
        t.scc_swizzles,
    ];
    words.extend(t.buckets);
    words.extend(CompactionMode::ALL.map(|m| t.cycles.get(m)));
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Digest of a whole analysis, in pack order.
pub fn digest(reports: &[TraceReport]) -> u64 {
    let mut h = Fnv1a::new();
    for r in reports {
        h.write(&report_digest(r).to_le_bytes());
    }
    h.finish()
}

/// Deterministic counters of a pack and its analysis.
pub fn counters(
    pack: &CorpusPack<impl std::io::Read + std::io::Seek>,
    reports: &[TraceReport],
) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    m.insert("trace.traces".into(), pack.len() as u64);
    m.insert(
        "trace.records".into(),
        pack.entries().iter().map(|e| e.records).sum(),
    );
    m.insert(
        "trace.payload_bytes".into(),
        pack.entries().iter().map(|e| e.payload_bytes).sum(),
    );
    m.insert("trace.runs".into(), reports.iter().map(|r| r.runs).sum());
    m.insert(
        "trace.instructions".into(),
        reports.iter().map(|r| r.tally.instructions).sum(),
    );
    m.insert("trace.report_digest".into(), digest(reports));
    m
}

/// Removes the generated pack when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Checks every report of a pass against the first pass.
fn check_pass(out: &mut Outcome, reference: &[u64], reports: &[TraceReport]) {
    out.check(reports.len() == reference.len(), || {
        format!(
            "pass returned {} reports, want {}",
            reports.len(),
            reference.len()
        )
    });
    for (r, want) in reports.iter().zip(reference) {
        out.check(report_digest(r) == *want, || {
            format!("{}: report differs from the first pass", r.name)
        });
    }
}

/// The traced decomposition of one pass: drain each trace's verified
/// stream into memory, then fold it from a slice. Reports must match the
/// pass's own.
fn decomposed_pass(
    tracer: &Tracer,
    parent: Option<SpanId>,
    path: &Path,
    reference: &[u64],
    out: &mut Outcome,
) {
    let mut pack = match tracer.time("trace.pack.open", parent, || CorpusPack::open_path(path)) {
        Ok(p) => p,
        Err(e) => return out.fail(format!("open: {e}")),
    };
    for (i, want) in reference.iter().enumerate() {
        let read = tracer.time("trace.pack.read_verify", parent, || {
            pack.stream(i).and_then(|mut s| collect(&mut s))
        });
        let trace = match read {
            Ok(t) => t,
            Err(e) => return out.fail(format!("trace {i}: {e}")),
        };
        let report = tracer.time("trace.analyze.fold_tally", parent, || {
            analyze_source(&mut SliceSource::from(&trace))
        });
        match report {
            Ok(r) => out.check(report_digest(&r) == *want, || {
                format!("{}: in-memory fold differs from the pack analysis", r.name)
            }),
            Err(e) => out.fail(format!("trace {i}: {e}")),
        }
    }
}

/// Pass times of the measured loop, and the first pass's reports.
struct Passes {
    /// Times of the measured passes: traced in a traced run.
    times: Vec<f64>,
    /// Times of the interleaved untraced passes of a traced run.
    untraced: Vec<f64>,
    reports: Vec<TraceReport>,
}

/// Analysis passes over `path` until the window has elapsed (at least
/// one), each checked against the first. In a traced run every round also
/// makes an untraced pass, alternating which goes first, and the traced
/// decomposition of the pass.
fn passes(
    spec: &RunSpec,
    path: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
    out: &mut Outcome,
) -> Passes {
    let started = Instant::now();
    let mut p = Passes {
        times: Vec::new(),
        untraced: Vec::new(),
        reports: Vec::new(),
    };
    let mut reference: Vec<u64> = Vec::new();
    let mut round = 0;
    while p.times.is_empty() || started.elapsed() < spec.window() {
        let traced_first = round % 2 == 0;
        for traced in [traced_first, !traced_first] {
            if traced && !tracer.is_on() {
                continue;
            }
            let t = Instant::now();
            let result = if traced || !tracer.is_on() {
                tracer.time("trace.analyze.pack", parent, || analyze_pack_file(path, 1))
            } else {
                tracer.time("bench.untraced", parent, || analyze_pack_file(path, 1))
            };
            let elapsed = t.elapsed().as_secs_f64();
            let _g = tracer.enter("bench.harness", parent);
            if traced || !tracer.is_on() {
                p.times.push(elapsed);
            } else {
                p.untraced.push(elapsed);
            }
            match result {
                Err(e) => out.fail(format!("analyze_pack_file: {e}")),
                Ok(reports) if reference.is_empty() => {
                    reference = reports.iter().map(report_digest).collect();
                    p.reports = reports;
                }
                Ok(reports) => check_pass(out, &reference, &reports),
            }
        }
        if tracer.is_on() && !reference.is_empty() {
            decomposed_pass(tracer, parent, path, &reference, out);
        }
        round += 1;
    }
    p
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let path = crate::out_dir().join(format!("corpus-{}.iwcc", std::process::id()));
    let _scratch = Scratch(path.clone());
    let profiles = profiles(spec.seed, TRACES);
    let tracer = Tracer::new(spec.trace);
    let root = tracer.enter("bench.root", None);
    let setup = timed_setup(&tracer, root.id(), || {
        tracer.time("trace.synth.generate", root.id(), || {
            generate(&path, &profiles, TRACE_LEN)
        })?;
        tracer
            .time("trace.pack.open", root.id(), || {
                CorpusPack::open_path(&path)
            })
            .map_err(|e| format!("open: {e}"))
    });
    let (pack, setup_s, reps) = match setup {
        Ok(v) => v,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let Passes {
        times,
        untraced,
        reports,
    } = passes(spec, &path, &tracer, root.id(), &mut out);
    drop(root);

    // The pack round trip must agree with folding the generator's own
    // stream, and the default seed's analysis is pinned.
    let g = Instant::now();
    let direct: Vec<u64> = profiles
        .iter()
        .map(|p| analyze_source(&mut p.source(TRACE_LEN)).map_or(0, |r| report_digest(&r)))
        .collect();
    for (r, want) in reports.iter().zip(&direct) {
        out.check(report_digest(r) == *want, || {
            format!(
                "{}: pack analysis differs from the synthesized stream",
                r.name
            )
        });
    }
    out.counters = counters(&pack, &reports);
    let d = out.counters["trace.report_digest"];
    if spec.seed == crate::DEFAULT_SEED {
        out.check(d == PINNED_DIGEST, || {
            format!("report digest {d:#018x}, pinned {PINNED_DIGEST:#018x}")
        });
    }
    out.lines.push(format!(
        "{} passes over {} traces; cross-check against the generator took {:.2} s",
        times.len(),
        reports.len(),
        g.elapsed().as_secs_f64()
    ));
    let pass_s = median(&times);
    #[allow(clippy::cast_precision_loss)]
    let traces_per_s = reports.len() as f64 / pass_s.max(1e-9);
    let pass_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    if !spec.trace {
        out.set("setup_s", setup_s);
        out.set("throughput", traces_per_s);
        out.set("latency_p50_ms", median(&pass_ms));
        out.set("latency_p99_ms", quantile(&pass_ms, 0.99));
        out.lines.push(format!(
            "throughput = traces_per_s; latency = one analyze_pack_file pass, {} samples",
            pass_ms.len()
        ));
        return out;
    }

    #[allow(clippy::cast_precision_loss)]
    let n = times.len() as f64;
    let spans = tracer.spans();
    let selfs = crate::span_summary(&mut out, &spans, n);
    out.set("bench.overhead_ms", (pass_s - median(&untraced)) * 1e3);
    let s = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    let opens = spans.iter().filter(|x| x.name == "trace.pack.open").count() as f64;
    #[allow(clippy::cast_precision_loss)]
    out.set(
        "trace.synth.generate_s",
        s("trace.synth.generate") / reps as f64,
    );
    out.set(
        "trace.pack.open_ms",
        s("trace.pack.open") * 1e3 / opens.max(1.0),
    );
    let pack_s = s("trace.analyze.pack") / n;
    let read_s = s("trace.pack.read_verify") / n;
    let fold_s = s("trace.analyze.fold_tally") / n;
    out.set("trace.analyze.pack_s", pack_s);
    out.set("trace.pack.read_verify_s", read_s);
    out.set("trace.analyze.fold_tally_s", fold_s);
    out.set("trace.other_s", pack_s - read_s - fold_s);
    #[allow(clippy::cast_precision_loss)]
    let bytes = out.counters["trace.payload_bytes"] as f64;
    out.set("trace.pack.mb_per_s", bytes / 1e6 / read_s.max(1e-9));
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("trace.records", out.counters["trace.records"] as f64);
        out.set("trace.payload_bytes", bytes);
        out.set(
            "trace.mean_run_len",
            out.counters["trace.records"] as f64 / (out.counters["trace.runs"] as f64).max(1.0),
        );
    }
    if let Err(e) = crate::spans::write_json(
        &crate::out_dir().join("spans-corpus-fresh.json"),
        "corpus-fresh",
        &spans,
    ) {
        out.lines.push(format!("could not write spans: {e}"));
    }
    out
}
