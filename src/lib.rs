//! # intra-warp-compaction
//!
//! A full reproduction of *"SIMD Divergence Optimization through Intra-Warp
//! Compaction"* (Vaidya, Shayesteh, Woo, Saharoy, Azimi — ISCA 2013) as a
//! Rust workspace. This facade crate re-exports the component crates:
//!
//! * [`compaction`] (`iwc-compaction`) — the paper's contribution: BCC and
//!   SCC execution-cycle compression, the SCC swizzle-settings algorithm of
//!   Fig. 6, quartile micro-op expansion, and register-file models;
//! * [`isa`] (`iwc-isa`) — the Gen-style variable-width SIMD ISA the
//!   kernels are written in;
//! * [`sim`] (`iwc-sim`) — a cycle-level simulator of an Ivy Bridge-style
//!   GPU (EU pipeline, SIMT stacks, SLM/L3/LLC/DRAM, data cluster);
//! * [`workloads`] (`iwc-workloads`) — the Table 1 workload suite:
//!   coherent kernels, divergent Rodinia-class kernels, ray tracing, and
//!   the divergence micro-benchmarks;
//! * [`trace`] (`iwc-trace`) — execution-mask traces, synthetic trace
//!   generators, and the trace analyzer.
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-versus-measured results. The `iwc-bench`
//! crate regenerates every table and figure:
//! `cargo run --release -p iwc-bench --bin iwc -- fig10`.
//!
//! # Examples
//!
//! Measure BCC/SCC cycle compression on a single mask:
//!
//! ```
//! use intra_warp_compaction::compaction::{execution_cycles, CompactionMode};
//! use intra_warp_compaction::isa::{DataType, ExecMask};
//!
//! let mask = ExecMask::new(0xAAAA, 16); // odd channels only
//! assert_eq!(execution_cycles(mask, DataType::F, CompactionMode::Baseline), 4);
//! assert_eq!(execution_cycles(mask, DataType::F, CompactionMode::Scc), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use iwc_compaction as compaction;
pub use iwc_isa as isa;
pub use iwc_sim as sim;
pub use iwc_trace as trace;
pub use iwc_workloads as workloads;
