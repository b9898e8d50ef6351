//! # iwc-compaction
//!
//! The core contribution of *"SIMD Divergence Optimization through
//! Intra-Warp Compaction"* (Vaidya, Shayesteh, Woo, Saharoy, Azimi —
//! ISCA 2013): execution-cycle compression for SIMD instructions with
//! disabled channels, implemented as two micro-architectural techniques.
//!
//! * **BCC** (basic cycle compression) skips the pipeline wave of any
//!   aligned quad (4 channels) that is entirely disabled, together with its
//!   operand fetches and write-back ([`cycles`], [`microop`]).
//! * **SCC** (swizzled cycle compression) permutes channel positions through
//!   the operand crossbar so enabled channels pack into ⌈active/4⌉ waves
//!   ([`scc`] implements the control algorithm of Fig. 6 verbatim).
//!
//! The crate also models the limited half-width optimization present in real
//! Ivy Bridge hardware (the paper's reporting baseline), the register-file
//! organizations of Fig. 5 ([`rf`]), and aggregate accounting used by the
//! simulator and trace analyzer ([`tally`]).
//!
//! # Examples
//!
//! ```
//! use iwc_compaction::{execution_cycles, CompactionMode, SccSchedule};
//! use iwc_isa::{DataType, ExecMask};
//!
//! // The Fig. 4(b) pattern: BCC can't help, SCC halves the cycles.
//! let mask = ExecMask::new(0xAAAA, 16);
//! assert_eq!(execution_cycles(mask, DataType::F, CompactionMode::Bcc), 4);
//! assert_eq!(execution_cycles(mask, DataType::F, CompactionMode::Scc), 2);
//!
//! let schedule = SccSchedule::compute(mask);
//! schedule.validate().expect("every active channel issued exactly once");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cycles;
pub mod energy;
pub mod engine;
pub mod interwarp;
pub mod microop;
pub mod rf;
pub mod scc;
pub mod tally;

pub use cycles::{execution_cycles, waves, waves_typed, CompactionMode, CycleBreakdown};
pub use energy::EnergyModel;
pub use engine::{
    engine_of, BaselineEngine, BccEngine, CompactionEngine, EngineId, EngineRegistry, EngineTally,
    IvyBridgeEngine, SccEngine, SccLimited,
};
pub use interwarp::{compact_masks, evaluate_group, CompactedGroup, InterWarpStats};
pub use microop::{expand, Expansion, MicroOp, RegHalf};
pub use rf::{RfModel, RfOrganization};
pub use scc::{CrossbarControl, LaneSlot, QuadSwizzle, SccCost, SccSchedule, MAX_SCC_CYCLES};
pub use tally::{CompactionTally, KeyCost, TallyDelta, TallyMemo, UtilBucket};
