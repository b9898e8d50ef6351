//! Ablation: swizzle-network reach — distance-limited SCC crossbars (§4.3).
//!
//! SCC's channel swizzling assumes a full intra-warp crossbar in front of
//! the ALUs; §4.3 weighs its wiring cost against BCC's free suppression.
//! This experiment bounds the crossbar to quad distance `k` (a channel in
//! quad *n* may only borrow work from quads within `|m - n| ≤ k`, the
//! [`SccLimited`] engine) and sweeps the trace corpus through the engine
//! registry: `k = 0` can only skip fully-idle quads (BCC-equivalent
//! packing), while `k = 3` already reaches every donor a SIMD16 warp has
//! and matches full SCC — the cheapest network that loses nothing.
//!
//! This is the registry's extensibility proof: the design point exists as
//! one engine impl plus this descriptor, with no simulator or trace
//! changes.

use super::Outcome;
use crate::runner;
use crate::{pct, trace_len};
use iwc_compaction::{EngineId, SccLimited};
use iwc_trace::{analyze_corpus_engines, corpus};

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== ablation: swizzle-network reach (distance-limited SCC) ==\n");
    let limited: Vec<EngineId> = (0..=3).map(SccLimited::register).collect();
    let mut ids = vec![EngineId::IVY_BRIDGE, EngineId::BCC];
    ids.extend(&limited);
    ids.push(EngineId::SCC);

    // Report columns: EU-cycle reduction vs the IVB baseline for every
    // engine after it, in increasing crossbar reach.
    let cols: Vec<EngineId> = ids[1..].to_vec();
    print!("{:<22} {:>8}", "workload", "eff");
    for &id in &cols {
        print!(" {:>8}", id.label());
    }
    println!();

    let profiles = corpus();
    let reports = analyze_corpus_engines(&profiles, trace_len(), runner::threads(), &ids);
    let cells = reports.len();
    {
        // Fold the corpus-wide engine accounting into the process registry
        // so the bench report carries a telemetry snapshot (DESIGN.md §7.4).
        let mut total = iwc_compaction::EngineTally::new(&ids);
        for report in &reports {
            total.merge(&report.tally);
        }
        let mut snap = iwc_telemetry::TelemetrySnapshot::new();
        snap.set_counter("corpus/traces", cells as u64);
        snap.publish("corpus", &total);
        crate::telemetry().absorb(&snap);
    }

    let mut sums = vec![0.0f64; cols.len()];
    for report in &reports {
        print!(
            "{:<22} {:>8}",
            report.name,
            pct(report.tally.simd_efficiency())
        );
        for (i, &id) in cols.iter().enumerate() {
            let r = report.tally.reduction_vs(id, EngineId::IVY_BRIDGE);
            sums[i] += r;
            print!(" {:>8}", pct(r));
        }
        println!();
    }
    print!("{:<22} {:>8}", "average", "");
    for sum in &sums {
        print!(" {:>8}", pct(sum / cells.max(1) as f64));
    }
    println!();

    println!(
        "\nreading: k = 0 only packs around fully-idle quads, so it tracks BCC; each \
         extra quad of reach closes part of the gap to full SCC, and k = 3 (every \
         donor a SIMD16 warp can have) matches it exactly — the full crossbar of \
         §4.3 buys nothing beyond distance-3 routing on 4-byte types."
    );
    Outcome::cells(cells)
}
