//! The trace analyzer's core contract, checked from the root package: a
//! corpus pack, plain or run-length encoded, analysed at any shard count,
//! reports exactly what per-record scalar accounting of the generator's
//! own stream reports.
//!
//! Three corpus profiles × 5k records are written both ways to a temp
//! directory and analysed with `analyze_pack_file` at 1 and 2 threads.
//! The scalar reference is pinned by a digest, so a change to the
//! generator or to the cycle models shows up here as a digest mismatch.
//! The full-corpus and adversarial-stream suite lives in
//! `crates/trace/tests/rle_equivalence.rs`.

use intra_warp_compaction::compaction::{CompactionMode, CompactionTally};
use intra_warp_compaction::trace::hash::Fnv1a;
use intra_warp_compaction::trace::pack::{write_pack_file, write_pack_file_rle};
use intra_warp_compaction::trace::{analyze_pack_file, corpus, Trace, TraceReport};
use std::path::PathBuf;

const PROFILES: usize = 3;
const RECORDS: usize = 5_000;

/// Digest of the scalar reference over the three traces.
const PINNED_DIGEST: u64 = 0x756a_a718_aeb8_ab5a;

/// Per-record reference of one trace: its tally and its run count.
fn scalar(t: &Trace) -> (CompactionTally, u64) {
    let mut tally = CompactionTally::new();
    let mut runs = 0;
    for (i, r) in t.records.iter().enumerate() {
        tally.add(r.mask(), r.dtype);
        runs += u64::from(i == 0 || t.records[i - 1] != *r);
    }
    (tally, runs)
}

fn digest(reference: &[(String, CompactionTally, u64)]) -> u64 {
    let mut h = Fnv1a::new();
    for (name, t, runs) in reference {
        h.write(name.as_bytes());
        let mut words = vec![
            *runs,
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
    }
    h.finish()
}

fn assert_matches(
    reports: &[TraceReport],
    reference: &[(String, CompactionTally, u64)],
    ctx: &str,
) {
    assert_eq!(reports.len(), reference.len(), "{ctx}: report count");
    for (r, (name, tally, runs)) in reports.iter().zip(reference) {
        assert_eq!(&r.name, name, "{ctx}: pack order");
        assert_eq!(&r.tally, tally, "{ctx}/{name}: tally");
        assert_eq!(r.runs, *runs, "{ctx}/{name}: runs");
    }
}

#[test]
fn pack_analysis_matches_scalar_fold_of_the_generator() {
    let traces: Vec<Trace> = corpus()
        .iter()
        .take(PROFILES)
        .map(|p| p.generate(RECORDS))
        .collect();
    let reference: Vec<(String, CompactionTally, u64)> = traces
        .iter()
        .map(|t| {
            let (tally, runs) = scalar(t);
            (t.name.clone(), tally, runs)
        })
        .collect();
    assert_eq!(digest(&reference), PINNED_DIGEST, "scalar reference moved");

    let dir: PathBuf =
        std::env::temp_dir().join(format!("iwc-trace-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("plain.iwcc");
    let rle = dir.join("rle.iwcc");
    write_pack_file(&plain, &traces).unwrap();
    write_pack_file_rle(&rle, &traces).unwrap();
    for (path, encoding) in [(&plain, "plain"), (&rle, "rle")] {
        for threads in [1, 2] {
            let reports = analyze_pack_file(path, threads)
                .unwrap_or_else(|e| panic!("{encoding} pack at {threads} threads: {e}"));
            assert_matches(
                &reports,
                &reference,
                &format!("{encoding}/{threads} threads"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
