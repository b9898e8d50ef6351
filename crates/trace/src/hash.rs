//! Stable content hashing for execution-mask traces.
//!
//! The corpus pack format ([`crate::pack`]) and the content-addressed
//! results cache ([`crate::store`]) both key on the *content* of a record
//! stream, so the canonical trace hash lives here, next to the format it
//! hashes. `iwc_workloads::hash::trace_hash` delegates to this module —
//! one encoding, one hash, however the trace reaches the process (builder
//! DSL, `.iwct` file, pack payload, or base64 serve job).
//!
//! The encoding per record is `bits` (little-endian u32), `width` (one
//! byte), and the `Debug` form of the dtype — byte-compatible with the
//! pre-pack `iwc_workloads::hash` encoding, so hashes computed before this
//! module existed stay valid. Trace *names* are deliberately excluded:
//! identical record streams are the same content whatever they are called.
//!
//! FNV-1a is not collision-resistant against adversaries; callers treat a
//! hash hit as identity for *well-behaved* inputs (the serve cache and the
//! results cache both document this).

use crate::format::{Trace, TraceRecord};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Incremental content hasher over a record stream — the streaming
/// counterpart of [`trace_hash`], used by the pack writer and reader to
/// hash traces chunk by chunk without materializing them.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecordHasher(Fnv1a);

impl RecordHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(Fnv1a::new())
    }

    /// Absorbs one record: the FNV-1a chain over its four bits bytes, the
    /// width byte and the one or two dtype bytes, unrolled. Inlined into
    /// the pack decode loop, where the multiply chain overlaps the decode.
    #[inline(always)]
    pub fn push(&mut self, r: &TraceRecord) {
        let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        let [b0, b1, b2, b3] = r.bits.to_le_bytes();
        let mut h = step(step(step(step(self.0 .0, b0), b1), b2), b3);
        h = step(h, r.width);
        let d = r.dtype as usize;
        h = step(h, DTYPE_DEBUG_FIRST[d]);
        if DTYPE_DEBUG_SECOND[d] != 0 {
            h = step(h, DTYPE_DEBUG_SECOND[d]);
        }
        self.0 .0 = h;
    }

    /// Absorbs a chunk of records.
    pub fn push_all(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.push(r);
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The `Debug` rendering of each dtype as static bytes, indexed by
/// `DataType as usize`: the first byte, and the second byte or 0 for a
/// one-letter name. The hash encoding predates these tables (module
/// docs: byte-compatible with the original `write!("{:?}")` form), so
/// every entry must match `Debug` exactly — asserted by
/// `debug_byte_table_matches_debug`. Two lookups beat both the
/// formatting machinery and a `match` on the hashing hot path (30M
/// records per corpus pack scan).
const DTYPE_DEBUG_FIRST: [u8; 11] = [
    b'U', b'B', b'U', b'W', b'H', b'U', b'D', b'F', b'U', b'Q', b'D',
];
const DTYPE_DEBUG_SECOND: [u8; 11] = [b'b', 0, b'w', 0, b'f', b'd', 0, 0, b'q', 0, b'f'];

/// Stable content hash of an execution-mask trace: the record stream
/// (mask bits, width, dtype), name excluded.
pub fn trace_hash(trace: &Trace) -> u64 {
    let mut h = RecordHasher::new();
    h.push_all(&trace.records);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_isa::mask::ExecMask;
    use iwc_isa::types::DataType;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut t = Trace::new("t");
        t.push(ExecMask::new(0xAAAA, 16), DataType::F);
        t.push(ExecMask::new(0x0F, 8), DataType::Df);
        t.push(ExecMask::all(32), DataType::Ud);
        let mut h = RecordHasher::new();
        for r in &t.records {
            h.push(r);
        }
        assert_eq!(h.finish(), trace_hash(&t));

        // Chunked absorption is the same stream.
        let mut h2 = RecordHasher::new();
        h2.push_all(&t.records[..2]);
        h2.push_all(&t.records[2..]);
        assert_eq!(h2.finish(), trace_hash(&t));
    }

    #[test]
    fn name_is_excluded_and_records_matter() {
        let mut a = Trace::new("a");
        a.push(ExecMask::new(0b1010, 4), DataType::F);
        let mut b = Trace::new("b");
        b.push(ExecMask::new(0b1010, 4), DataType::F);
        assert_eq!(trace_hash(&a), trace_hash(&b));

        let mut c = Trace::new("a");
        c.push(ExecMask::new(0b1011, 4), DataType::F);
        assert_ne!(trace_hash(&a), trace_hash(&c));

        let mut d = Trace::new("a");
        d.push(ExecMask::new(0b1010, 4), DataType::D);
        assert_ne!(trace_hash(&a), trace_hash(&d));
    }

    #[test]
    fn record_encoding_is_pinned() {
        // Pack content hashes and results-cache keys are persisted, so
        // the hash of a fixed trace over every dtype and every wire width
        // must never move.
        let mut t = Trace::new("pinned");
        for (i, d) in (0u32..).zip(DataType::ALL) {
            for width in [1, 4, 8, 16, 32] {
                t.push(
                    ExecMask::new(0x9E37_79B9u32.rotate_left(3 * i + width), width),
                    d,
                );
            }
        }
        assert_eq!(trace_hash(&t), 0x5743_d411_3889_0e42);
    }

    #[test]
    fn debug_byte_table_matches_debug() {
        // The static table IS the hash encoding; drifting from the Debug
        // rendering would silently change every content hash.
        for d in DataType::ALL {
            let (first, second) = (
                DTYPE_DEBUG_FIRST[d as usize],
                DTYPE_DEBUG_SECOND[d as usize],
            );
            let table: &[u8] = if second == 0 {
                &[first]
            } else {
                &[first, second]
            };
            assert_eq!(table, format!("{d:?}").as_bytes(), "table entry for {d:?}");
        }
    }
}
