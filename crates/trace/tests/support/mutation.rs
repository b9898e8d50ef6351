//! Seeded, std-only mutation checks of the `.iwcc` pack reader, shared by
//! the long run (`crates/trace/tests/pack_mutation.rs`) and its Tier-1
//! slice (`tests/trace_contract.rs`).
//!
//! A mutant is a valid pack cut short at some offset, or with one byte
//! of its payload or index XORed with a random non-zero value. For every
//! mutant the streaming reader must not panic, and for every index entry
//! it must agree with [`reference_decode`] — a per-record decoder over
//! the raw bytes — on success or failure, and on every record when both
//! succeed.

use iwc_trace::format::{record_from_wire, RECORD_WIRE_BYTES};
use iwc_trace::hash::RecordHasher;
use iwc_trace::pack::{CorpusPack, PackEntry, PackWriter, PACK_HEADER_BYTES};
use iwc_trace::{Trace, TraceIoError, TraceRecord, TraceSource};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bit 7 of the wire width byte: a run item with a u32 LE repeat count.
const RUN_FLAG: u8 = 0x80;
/// Bytes of a run item.
const RUN_ITEM_BYTES: usize = RECORD_WIRE_BYTES + 4;

/// A pack of `traces`, plain or run-length encoded, as bytes.
pub fn pack_bytes(traces: &[Trace], rle: bool) -> Vec<u8> {
    let mut w = PackWriter::new(Cursor::new(Vec::new())).expect("in-memory writer");
    w.set_rle(rle);
    for t in traces {
        w.add_trace(t).expect("in-memory writer");
    }
    w.finish().expect("in-memory writer").into_inner()
}

/// Decodes `entry` from the raw pack `bytes` one record at a time with
/// `record_from_wire` and `RecordHasher::push`, checking the record
/// count and the content hash as the reader must. The entry comes from
/// `CorpusPack::open`, which bounds its payload range by the file.
///
/// # Errors
///
/// Why the entry is malformed.
pub fn reference_decode(bytes: &[u8], entry: &PackEntry) -> Result<Vec<TraceRecord>, String> {
    // A plain entry spans records × 6 bytes whatever its byte count says.
    let len = if entry.is_rle() {
        entry.payload_bytes
    } else {
        entry.records * RECORD_WIRE_BYTES as u64
    };
    let start = usize::try_from(entry.offset).expect("offset within the file");
    let payload = &bytes[start..start + usize::try_from(len).expect("range within the file")];
    let mut records = Vec::new();
    let mut hasher = RecordHasher::new();
    let mut at = 0;
    while at < payload.len() {
        let item = &payload[at..];
        if item.len() < RECORD_WIRE_BYTES {
            return Err(format!("truncated item at payload byte {at}"));
        }
        let mut head: [u8; RECORD_WIRE_BYTES] = item[..RECORD_WIRE_BYTES].try_into().unwrap();
        let copies = if entry.is_rle() && head[4] & RUN_FLAG != 0 {
            if item.len() < RUN_ITEM_BYTES {
                return Err(format!("truncated run item at payload byte {at}"));
            }
            head[4] &= !RUN_FLAG;
            let n = u32::from_le_bytes(item[RECORD_WIRE_BYTES..RUN_ITEM_BYTES].try_into().unwrap());
            if n < 2 {
                return Err(format!("repeat count {n} below 2"));
            }
            at += RUN_ITEM_BYTES;
            u64::from(n)
        } else {
            at += RECORD_WIRE_BYTES;
            1
        };
        let rec = record_from_wire(&head).map_err(|e| e.to_string())?;
        if records.len() as u64 + copies > entry.records {
            return Err(format!("item past the record count {}", entry.records));
        }
        for _ in 0..copies {
            hasher.push(&rec);
            records.push(rec);
        }
    }
    if records.len() as u64 != entry.records {
        return Err(format!("{} of {} records", records.len(), entry.records));
    }
    if hasher.finish() != entry.content_hash {
        return Err("content hash mismatch".into());
    }
    Ok(records)
}

/// Streams entry `i` of `pack` to the end, comparing each chunk with
/// `want` as it arrives (no whole-trace buffer: a mutated index may
/// claim far more records than the payload holds). `Ok(false)` means a
/// chunk differed from `want`.
fn stream_matches(
    pack: &mut CorpusPack<Cursor<&[u8]>>,
    i: usize,
    want: Option<&[TraceRecord]>,
) -> Result<bool, TraceIoError> {
    let mut src = pack.stream(i)?;
    let mut at = 0;
    let mut same = true;
    while let Some(chunk) = src.next_chunk()? {
        if let Some(want) = want {
            same &= want.get(at..at + chunk.len()) == Some(chunk);
        }
        at += chunk.len();
    }
    Ok(same)
}

/// Checks one mutant: the reader must not panic and must agree with the
/// reference on every entry. Returns the entries both decoded.
///
/// # Panics
///
/// On a reader panic or a disagreement, naming `what`.
pub fn check(bytes: &[u8], what: &str) -> usize {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let Ok(mut pack) = CorpusPack::open(Cursor::new(bytes)) else {
            return Ok(0);
        };
        let mut decoded = 0;
        for i in 0..pack.len() {
            let entry = pack.entries()[i].clone();
            let want = reference_decode(bytes, &entry);
            match (stream_matches(&mut pack, i, want.as_deref().ok()), want) {
                (Ok(true), Ok(_)) => decoded += 1,
                (Err(TraceIoError::Malformed(_)), Err(_)) => {}
                (got, want) => {
                    return Err(format!(
                        "entry {i}: reader says {got:?} (true: same records), \
                         reference says {:?}",
                        want.map(|r| r.len())
                    ))
                }
            }
        }
        Ok(decoded)
    }));
    match run {
        Ok(Ok(decoded)) => decoded,
        Ok(Err(why)) => panic!("{what}: {why}"),
        Err(_) => panic!("{what}: the reader panicked"),
    }
}

/// SplitMix64: a seeded, dependency-free generator for flip positions.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `lo..hi`.
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// What a mutation run covered.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Mutants checked.
    pub mutants: usize,
    /// Entries that both decoders accepted.
    pub decoded: usize,
}

/// File offsets and values of the repeat counts of the first `max` run
/// items of each entry of the valid pack `bytes`.
fn run_counts(bytes: &[u8], max: usize) -> Vec<(usize, u32)> {
    let pack = CorpusPack::open(Cursor::new(bytes)).expect("a valid pack");
    let mut counts = Vec::new();
    for entry in pack.entries().iter().filter(|e| e.is_rle()) {
        let (start, end) = (
            entry.offset as usize,
            (entry.offset + entry.payload_bytes) as usize,
        );
        let mut at = start;
        let mut found = 0;
        while at < end && found < max {
            if bytes[at + 4] & RUN_FLAG == 0 {
                at += RECORD_WIRE_BYTES;
                continue;
            }
            let count = &bytes[at + RECORD_WIRE_BYTES..at + RUN_ITEM_BYTES];
            counts.push((
                at + RECORD_WIRE_BYTES,
                u32::from_le_bytes(count.try_into().unwrap()),
            ));
            at += RUN_ITEM_BYTES;
            found += 1;
        }
    }
    counts
}

/// Truncates `bytes` at every offset, checks `flips` single-byte flips
/// in the payload and as many in the index, positions and values drawn
/// from `seed`, and sets each of the first `flips` repeat counts of every
/// RLE entry to 0, 1, one less, one more and `u32::MAX` (random flips
/// rarely land on these boundaries).
pub fn mutate(bytes: &[u8], what: &str, seed: u64, flips: usize) -> Coverage {
    let mut cov = Coverage::default();
    let mut count = |decoded: usize| {
        cov.mutants += 1;
        cov.decoded += decoded;
    };
    count(check(bytes, &format!("{what}: the unmutated pack")));
    for cut in 0..bytes.len() {
        count(check(&bytes[..cut], &format!("{what}: cut at {cut}")));
    }
    let header = PACK_HEADER_BYTES as usize;
    let index = usize::try_from(u64::from_le_bytes(bytes[16..24].try_into().unwrap())).unwrap();
    let mut rng = SplitMix(seed);
    let mut mutant = bytes.to_vec();
    for (lo, hi, region) in [(header, index, "payload"), (index, bytes.len(), "index")] {
        if lo == hi {
            continue;
        }
        for _ in 0..flips {
            let at = rng.below(lo, hi);
            let x = rng.below(1, 256) as u8;
            mutant[at] ^= x;
            count(check(
                &mutant,
                &format!("{what}: seed {seed:#x}, {region} byte {at} ^= {x:#04x}"),
            ));
            mutant[at] ^= x;
        }
    }
    for (at, n) in run_counts(bytes, flips) {
        for bad in [0, 1, n - 1, n.wrapping_add(1), u32::MAX] {
            mutant[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            count(check(
                &mutant,
                &format!("{what}: count {n} at byte {at} set to {bad}"),
            ));
        }
        mutant[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }
    cov
}
