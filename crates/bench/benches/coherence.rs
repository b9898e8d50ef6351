//! Criterion benchmarks of the mask-coherence fast path: run-length
//! tallying against the per-record scalar fold.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_trace::{analyze, corpus, for_each_run, SliceSource, Trace};

/// Per-record scalar reference: what every analyzer did before runs.
fn tally_scalar(trace: &Trace) -> iwc_compaction::CompactionTally {
    let mut tally = iwc_compaction::CompactionTally::new();
    for r in &trace.records {
        tally.add(r.mask(), r.dtype);
    }
    tally
}

/// Run-length path: fold maximal runs, charge each multiplicatively.
fn tally_runs(trace: &Trace) -> iwc_compaction::CompactionTally {
    let mut tally = iwc_compaction::CompactionTally::new();
    for_each_run(&mut SliceSource::from(trace), |r, n| {
        tally.add_run(r.mask(), r.dtype, n);
    })
    .expect("slice sources cannot fail");
    tally
}

fn bench_tally_scalar_vs_rle(c: &mut Criterion) {
    let trace = corpus()[0].generate(50_000);
    let mut g = c.benchmark_group("coherence/tally_50k");
    g.bench_function("scalar", |b| b.iter(|| tally_scalar(black_box(&trace))));
    g.bench_function("runs", |b| b.iter(|| tally_runs(black_box(&trace))));
    g.bench_function("analyze", |b| b.iter(|| analyze(black_box(&trace))));
    g.finish();
}

criterion_group!(benches, bench_tally_scalar_vs_rle);
criterion_main!(benches);
