//! RLE-vs-plain and histogram-vs-scalar differential goldens for the
//! `.iwcc` pack format and the trace analyzer.
//!
//! The run-length payload encoding is a pure compression: for the same
//! traces, an RLE pack and a plain pack must stream byte-identical
//! records and carry identical per-trace and whole-pack content hashes.
//! The analyzer's mask histogram is a pure regrouping: on either pack, at
//! any shard count, every report must equal per-record scalar accounting
//! (`CompactionTally::add`, `EngineTally::add`), with the run and
//! distinct-key counts of the record stream. Both hold on the full
//! 600-trace expanded corpus and on adversarial streams built to stress
//! the codec and the histogram (runs straddling chunk boundaries, pure
//! run-length-1 alternation, one trace-sized run, every dtype at every
//! wire width, all-zero masks).

use iwc_compaction::{CompactionTally, EngineId, EngineTally};
use iwc_isa::{DataType, ExecMask};
use iwc_trace::pack::{write_pack_file, write_pack_file_rle, CorpusPack};
use iwc_trace::synth::DEFAULT_EXPANDED_TRACES;
use iwc_trace::{
    analyze, analyze_engines, analyze_pack_file, analyze_pack_file_engines, expanded_corpus, Trace,
    TraceRecord, TraceReport, CHUNK_RECORDS,
};
use std::collections::HashSet;
use std::path::PathBuf;

/// Per-record reference analysis of one trace: scalar tallies, runs from
/// comparing each record with the one before, and the distinct keys.
struct Scalar {
    name: String,
    tally: CompactionTally,
    engines: EngineTally,
    runs: u64,
    keys: u64,
}

fn scalar(t: &Trace) -> Scalar {
    let mut tally = CompactionTally::new();
    let mut engines = EngineTally::new(&EngineId::CANONICAL);
    let mut runs = 0;
    let mut keys = HashSet::new();
    for (i, r) in t.records.iter().enumerate() {
        tally.add(r.mask(), r.dtype);
        engines.add(r.mask(), r.dtype);
        runs += u64::from(i == 0 || t.records[i - 1] != *r);
        keys.insert((r.mask(), r.dtype));
    }
    Scalar {
        name: t.name.clone(),
        tally,
        engines,
        runs,
        keys: keys.len() as u64,
    }
}

fn assert_matches_scalar(report: &TraceReport, want: &Scalar, ctx: &str) {
    assert_eq!(report.name, want.name, "{ctx}: name");
    assert_eq!(report.tally, want.tally, "{ctx}/{}: tally", report.name);
    assert_eq!(report.runs, want.runs, "{ctx}/{}: runs", report.name);
    assert_eq!(report.keys, want.keys, "{ctx}/{}: keys", report.name);
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iwc-rle-eq-{tag}-{}.iwcc", std::process::id()))
}

/// Writes `traces` both ways and asserts the packs are interchangeable
/// everywhere except on-disk size.
fn assert_rle_equivalent(traces: &[Trace], tag: &str) {
    let plain_path = tmp_path(&format!("{tag}-plain"));
    let rle_path = tmp_path(&format!("{tag}-rle"));
    let plain_entries = write_pack_file(&plain_path, traces).unwrap();
    let rle_entries = write_pack_file_rle(&rle_path, traces).unwrap();

    for (p, r) in plain_entries.iter().zip(&rle_entries) {
        assert_eq!(p.name, r.name);
        assert_eq!(p.records, r.records);
        assert_eq!(
            p.content_hash, r.content_hash,
            "{tag}/{}: hash is payload-encoding-independent",
            p.name
        );
    }

    let mut plain = CorpusPack::open_path(&plain_path).unwrap();
    let mut rle = CorpusPack::open_path(&rle_path).unwrap();
    assert_eq!(
        plain.content_hash(),
        rle.content_hash(),
        "{tag}: pack hash is payload-encoding-independent"
    );
    for i in 0..plain.len() {
        assert_eq!(
            plain.read_trace(i).unwrap(),
            rle.read_trace(i).unwrap(),
            "{tag}: trace {i} must stream back byte-identically"
        );
    }

    // Analysis equals per-record accounting on either encoding, at any
    // shard count.
    let want: Vec<Scalar> = traces.iter().map(scalar).collect();
    for (path, encoding) in [(&plain_path, "plain"), (&rle_path, "rle")] {
        for threads in [1, 2, 4] {
            let ctx = format!("{tag}/{encoding}/{threads} threads");
            let reports = analyze_pack_file(path, threads).unwrap();
            assert_eq!(reports.len(), want.len(), "{ctx}");
            for (r, w) in reports.iter().zip(&want) {
                assert_matches_scalar(r, w, &ctx);
            }
        }
        let engines = analyze_pack_file_engines(path, 2, &EngineId::CANONICAL).unwrap();
        assert_eq!(engines.len(), want.len(), "{tag}/{encoding}: engines");
        for (r, w) in engines.iter().zip(&want) {
            assert_eq!(r.name, w.name, "{tag}/{encoding}: engines name");
            assert_eq!(r.tally, w.engines, "{tag}/{encoding}/{}: engines", r.name);
        }
    }

    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&rle_path);
}

#[test]
fn rle_matches_plain_on_the_full_expanded_corpus() {
    // Trace length kept moderate so the debug-mode run stays quick; the
    // codec path is identical at any length.
    let traces: Vec<Trace> = expanded_corpus(DEFAULT_EXPANDED_TRACES)
        .iter()
        .map(|p| p.generate(400))
        .collect();
    assert_eq!(traces.len(), DEFAULT_EXPANDED_TRACES);
    assert_rle_equivalent(&traces, "corpus");

    // The synthetic corpus masks run coherently: RLE must actually pay.
    let plain_path = tmp_path("corpus-size-plain");
    let rle_path = tmp_path("corpus-size-rle");
    write_pack_file(&plain_path, &traces).unwrap();
    write_pack_file_rle(&rle_path, &traces).unwrap();
    let plain_len = std::fs::metadata(&plain_path).unwrap().len();
    let rle_len = std::fs::metadata(&rle_path).unwrap().len();
    assert!(
        rle_len < plain_len,
        "RLE pack ({rle_len} B) should beat plain ({plain_len} B) on a coherent corpus"
    );
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&rle_path);
}

#[test]
fn rle_matches_plain_on_adversarial_streams() {
    let full = |dtype| TraceRecord::new(ExecMask::all(16), dtype);
    let lane = |bits: u32| TraceRecord::new(ExecMask::new(bits, 16), DataType::F);

    // Runs engineered to straddle the streaming chunk boundary: a run
    // ending exactly at CHUNK_RECORDS, one crossing it by a single
    // record, and one spanning several whole chunks.
    let straddle = Trace {
        name: "straddle".into(),
        records: std::iter::repeat_n(full(DataType::F), CHUNK_RECORDS)
            .chain(std::iter::repeat_n(full(DataType::D), CHUNK_RECORDS + 1))
            .chain(std::iter::repeat_n(lane(0x00ff), 3 * CHUNK_RECORDS - 1))
            .collect(),
    };
    // Pure alternation: every run has length 1, the RLE worst case (the
    // encoding must not inflate records into counted items).
    let alternating = Trace {
        name: "alternating".into(),
        records: (0..2 * CHUNK_RECORDS)
            .map(|i| lane(if i % 2 == 0 { 0x5555 } else { 0xaaaa }))
            .collect(),
    };
    // One giant run: the whole trace is a single RLE item.
    let giant = Trace {
        name: "giant".into(),
        records: vec![full(DataType::F); 4 * CHUNK_RECORDS + 7],
    };
    let empty = Trace {
        name: "empty".into(),
        records: vec![],
    };
    let one = Trace {
        name: "one".into(),
        records: vec![lane(1)],
    };

    let traces = vec![
        straddle,
        alternating,
        giant,
        empty,
        one,
        every_key(),
        all_zero(),
    ];
    assert_rle_equivalent(&traces, "adversarial");
}

/// Every dtype at every wire width — widths 1, 4 and 32 take the
/// histogram's sparse path — with full, partial and all-zero masks, in
/// runs of one, two and three records.
fn every_key() -> Trace {
    let mut t = Trace::new("every-key");
    for (i, d) in (0u32..).zip(DataType::ALL) {
        for width in [1, 4, 8, 16, 32] {
            let partial = 0x9E37_79B9u32.rotate_left(i + width);
            for (n, mask) in [
                ExecMask::all(width),
                ExecMask::new(partial, width),
                ExecMask::none(width),
            ]
            .into_iter()
            .enumerate()
            {
                for _ in 0..=n {
                    t.push(mask, d);
                }
            }
        }
    }
    t
}

/// All-zero masks only: every one still takes a cycle and lands in the
/// "other" bucket.
fn all_zero() -> Trace {
    let mut t = Trace::new("all-zero");
    for width in [16, 8, 32, 16] {
        for _ in 0..CHUNK_RECORDS / 2 + 1 {
            t.push(ExecMask::none(width), DataType::F);
        }
    }
    t
}

#[test]
fn back_to_back_traces_share_no_state() {
    // One thread analyses traces whose keys overlap with different
    // counts and dtypes, and then the first one again: a histogram count
    // or cost entry left over from one trace would show in the next.
    let a = every_key();
    let mut b = Trace::new("b");
    for (i, r) in a.records.iter().enumerate() {
        let dtype = DataType::ALL[(r.dtype as usize + i) % DataType::ALL.len()];
        b.push(r.mask(), dtype);
        b.push(r.mask(), r.dtype);
    }
    for t in [&a, &b, &a, &all_zero(), &b] {
        let want = scalar(t);
        assert_matches_scalar(&analyze(t), &want, "back-to-back");
        assert_eq!(
            analyze_engines(t, &EngineId::CANONICAL).tally,
            want.engines,
            "back-to-back/{}: engines",
            t.name
        );
    }
}
