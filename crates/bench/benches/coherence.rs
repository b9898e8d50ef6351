//! Criterion benchmarks of the trace analyzer's mask histogram: the
//! histogram fold and charge against the per-record scalar fold.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_compaction::CompactionTally;
use iwc_trace::{analyze, corpus, MaskHistogram, SliceSource, Trace};

/// Per-record scalar reference: what every analyzer did before histograms.
fn tally_scalar(trace: &Trace) -> CompactionTally {
    let mut tally = CompactionTally::new();
    for r in &trace.records {
        tally.add(r.mask(), r.dtype);
    }
    tally
}

/// Histogram path: fold the trace once, charge each distinct key from its
/// packed cost. The histogram and its cost entries are reused across
/// iterations, as the analyzer reuses them across traces.
fn tally_hist(trace: &Trace, hist: &mut MaskHistogram) -> CompactionTally {
    let mut tally = CompactionTally::new();
    hist.fold_costs(&mut SliceSource::from(trace), |cost, n| {
        tally.add_cost(cost, n)
    })
    .expect("slice sources cannot fail");
    tally
}

fn bench_tally_scalar_vs_hist(c: &mut Criterion) {
    let trace = corpus()[0].generate(50_000);
    let mut hist = MaskHistogram::new();
    let mut g = c.benchmark_group("coherence/tally_50k");
    g.bench_function("scalar", |b| b.iter(|| tally_scalar(black_box(&trace))));
    g.bench_function("histogram", |b| {
        b.iter(|| tally_hist(black_box(&trace), &mut hist))
    });
    g.bench_function("analyze", |b| b.iter(|| analyze(black_box(&trace))));
    g.finish();
}

criterion_group!(benches, bench_tally_scalar_vs_hist);
criterion_main!(benches);
