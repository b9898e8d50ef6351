//! # iwc-trace
//!
//! Trace infrastructure for the paper's trace-driven methodology (§5.1):
//!
//! * [`mod@format`] — a compact binary execution-mask trace format, plus
//!   conversion from the simulator's mask-capture hook;
//! * [`mod@source`] — the [`source::TraceSource`] streaming abstraction:
//!   every analysis path consumes chunked record streams, so peak memory
//!   is O(chunk) whatever the corpus size;
//! * [`mod@hash`] — canonical FNV-1a content hashing of record streams
//!   (pack index entries and cache keys both derive from it);
//! * [`mod@hist`] — the mask histogram every analyzer folds a stream
//!   into: one count per distinct `(mask, width, dtype)` key;
//! * [`mod@pack`] — the `.iwcc` corpus pack container: many traces in one
//!   content-indexed file with sequential chunked reads and random access;
//! * [`mod@store`] — the corpus directory layout (`IWC_CORPUS_DIR`) and
//!   the content-addressed results cache;
//! * [`mod@analyze`] — per-trace compaction analysis (SIMD efficiency,
//!   Fig. 9 utilization buckets, Fig. 10 BCC/SCC cycle reductions),
//!   streaming at the core with slice adapters on top, plus sharded
//!   whole-pack analysis;
//! * [`synth`] — parameterized synthetic generators standing in for the
//!   paper's proprietary ~600-trace corpus (LuxMark, GLBench, Sandra,
//!   BulletPhysics, Face-Detection, …), documented as a substitution in
//!   DESIGN.md, with a deterministic expander toward paper scale.
//!
//! # Examples
//!
//! ```
//! use iwc_trace::{analyze, synth};
//! use iwc_compaction::CompactionMode;
//!
//! let profile = &synth::corpus()[0]; // LuxMark-sky
//! let report = analyze::analyze_source(&mut profile.source(10_000)).unwrap();
//! assert!(!report.is_coherent());
//! assert!(report.reduction(CompactionMode::Scc) >= report.reduction(CompactionMode::Bcc));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod format;
pub mod hash;
pub mod hist;
pub mod pack;
pub mod source;
pub mod store;
pub mod synth;

pub use analyze::{
    analyze, analyze_corpus, analyze_corpus_engines, analyze_engines, analyze_pack_file,
    analyze_pack_file_engines, analyze_source, analyze_source_engines, corpus_snapshot,
    EngineReport, TraceReport,
};
pub use format::{Trace, TraceIoError, TraceRecord};
pub use hash::trace_hash;
pub use hist::{FoldStats, MaskHistogram};
pub use pack::{CorpusPack, PackEntry, PackWriter};
pub use source::{for_each_run, SliceSource, TraceSource, CHUNK_RECORDS};
pub use store::{cache_max_bytes, corpus_dir, ResultsCache};
pub use synth::{corpus, expanded_corpus, MaskStyle, Profile};
