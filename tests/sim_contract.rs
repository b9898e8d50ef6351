//! The simulator's core contract, checked from the root package: the
//! decoded micro-op plans (the production backend) and the reference
//! interpreter (the semantic oracle) run one simulation loop and must
//! agree exactly — every [`SimResult`] field, including the issue and
//! stall-span logs, and the final global-memory image.
//!
//! A slice of the workload catalog — coherent, branch-divergent and
//! memory-divergent — under every canonical compaction engine. Both
//! backends share the loop, so the cells' simulated cycles are pinned too:
//! a change to the loop's timing shows up here as a cycle mismatch. The
//! full catalog grid lives in `crates/sim/tests/decoded_equivalence.rs`.

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::isa::DataType;
use intra_warp_compaction::sim::{ExecBackend, GpuConfig, MemoryImage, SimResult};
use intra_warp_compaction::workloads::{catalog, Built};

/// Simulated cycles at scale 1 under `GpuConfig::paper_default`, in
/// `EngineId::CANONICAL` order (base, ivb, bcc, scc).
const PINNED: [(&str, [u64; 4]); 3] = [
    ("VA", [1633, 1633, 1633, 1633]),
    ("Bsearch", [7535, 7512, 7533, 7463]),
    ("BFS", [3865, 3606, 3483, 3461]),
];

fn run(built: &Built, cfg: &GpuConfig, ctx: &str) -> (SimResult, MemoryImage) {
    built
        .run(cfg)
        .unwrap_or_else(|e| panic!("{ctx}: simulation failed: {e}"))
}

fn assert_images_equal(a: &MemoryImage, b: &MemoryImage, ctx: &str) {
    assert_eq!(a.capacity(), b.capacity(), "{ctx}: image capacity");
    for addr in 0..a.capacity() {
        assert_eq!(
            a.read_scalar(addr, DataType::Ub),
            b.read_scalar(addr, DataType::Ub),
            "{ctx}: memory diverged at byte {addr:#x}"
        );
    }
}

#[test]
fn decoded_matches_reference_with_issue_log() {
    let entries = catalog();
    for (name, cycles) in PINNED {
        let entry = entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("workload {name} not in catalog"));
        let built = (entry.build)(1);
        for (engine, pinned) in EngineId::CANONICAL.into_iter().zip(cycles) {
            let ctx = format!("{name} under {engine}");
            let cfg = GpuConfig::paper_default()
                .with_compaction(engine)
                .with_issue_log(true);
            let (decoded, img_decoded) = run(&built, &cfg.with_exec(ExecBackend::Decoded), &ctx);
            let (reference, img_reference) =
                run(&built, &cfg.with_exec(ExecBackend::Reference), &ctx);
            assert!(!decoded.eu.issue_log.is_empty(), "{ctx}: issue log is on");
            assert_eq!(decoded, reference, "{ctx}: SimResult diverged");
            assert_eq!(decoded.cycles, pinned, "{ctx}: simulated cycles moved");
            assert_images_equal(&img_decoded, &img_reference, &ctx);
        }
    }
}
