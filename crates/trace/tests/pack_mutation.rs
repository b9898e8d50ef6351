//! Mutation run of the `.iwcc` pack reader (ROADMAP aim 3): a plain and
//! a run-length encoded pack, cut at every offset, with seeded
//! single-byte flips in the payload and the index, and with repeat
//! counts set to their boundary values. The reader must never
//! panic and must agree with a per-record reference decoder on every
//! entry (`support/mutation.rs`). `tests/trace_contract.rs` runs a short
//! slice of the same check in Tier 1.

#[path = "support/mutation.rs"]
mod mutation;

use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use iwc_trace::{Trace, CHUNK_RECORDS};
use mutation::{mutate, pack_bytes};

/// Two synthetic profiles long enough to cross stash refills and chunk
/// boundaries, a trace of long runs (run items split across chunks), and
/// an empty trace.
fn traces() -> Vec<Trace> {
    let mut traces: Vec<Trace> = iwc_trace::corpus()
        .iter()
        .take(2)
        .map(|p| p.generate(CHUNK_RECORDS + 700))
        .collect();
    let mut runs = Trace::new("runs");
    for (i, n) in [3, CHUNK_RECORDS + 5, 1, 2, 2 * CHUNK_RECORDS]
        .into_iter()
        .enumerate()
    {
        for _ in 0..n {
            runs.push(ExecMask::new(0xFFFF >> i, 16), DataType::ALL[i]);
        }
    }
    traces.push(runs);
    traces.push(Trace::new("empty"));
    traces
}

#[test]
fn mutated_packs_never_panic_and_agree_with_the_reference() {
    let traces = traces();
    for (rle, seed) in [(false, 0x5eed_0001), (true, 0x5eed_0002)] {
        let bytes = pack_bytes(&traces, rle);
        let what = if rle { "rle" } else { "plain" };
        let cov = mutate(&bytes, what, seed, 400);
        assert!(
            cov.mutants > 1 + bytes.len() + 2 * 400 || !rle,
            "{what}: {cov:?}"
        );
        // The unmutated pack decodes in full; a flip in an entry's name
        // leaves its records intact.
        assert!(cov.decoded >= traces.len(), "{what}: {cov:?}");
    }
}
