//! Execution-mask trace format.
//!
//! A trace is a sequence of `(mask, width, dtype)` records — everything the
//! intra-warp compaction analysis needs (§5.1: the functional model was
//! instrumented "to obtain SIMD execution masks for every executed
//! instruction"). Traces serialize to a compact little-endian binary format
//! with a magic header, and deserialize with full validation.

use crate::hash::RecordHasher;
use crate::source::CHUNK_RECORDS;
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// One executed SIMD instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Execution-mask bits.
    pub bits: u32,
    /// SIMD width (1, 4, 8, 16, 32).
    pub width: u8,
    /// Execution data type.
    pub dtype: DataType,
}

impl TraceRecord {
    /// Creates a record from a mask and type.
    pub fn new(mask: ExecMask, dtype: DataType) -> Self {
        Self {
            bits: mask.bits(),
            width: mask.width() as u8,
            dtype,
        }
    }

    /// The execution mask.
    pub fn mask(&self) -> ExecMask {
        ExecMask::new(self.bits, u32::from(self.width))
    }
}

/// A named execution-mask trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name.
    pub name: String,
    /// Executed instructions, in order.
    pub records: Vec<TraceRecord>,
}

/// Magic bytes of the binary trace format.
pub const TRACE_MAGIC: [u8; 4] = *b"IWCT";

/// Trace I/O failure.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a trace (bad magic or field).
    Malformed(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace i/o error: {e}"),
            Self::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Wire size of one record: bits (u32 LE) + width + dtype code.
pub const RECORD_WIRE_BYTES: usize = 6;

/// Bit 7 of the wire width byte marks a pack run item carrying a repeat
/// count ([`crate::pack`]); legal widths (1–32) never set it.
pub(crate) const RLE_WIDTH_FLAG: u8 = 0x80;
/// Byte length of a pack run item: a record plus its u32 LE repeat count.
pub(crate) const RLE_ITEM_BYTES: usize = RECORD_WIRE_BYTES + 4;

/// Encodes one record in the `IWCT` wire layout (shared with the pack
/// payload section).
pub(crate) fn record_to_wire(r: &TraceRecord) -> [u8; RECORD_WIRE_BYTES] {
    let b = r.bits.to_le_bytes();
    [b[0], b[1], b[2], b[3], r.width, dtype_code(r.dtype)]
}

/// Decodes one record from the `IWCT` wire layout, validating width and
/// dtype.
///
/// # Errors
///
/// Returns [`TraceIoError::Malformed`] on a width outside 1/4/8/16/32 or
/// an unknown dtype code.
#[inline(always)]
pub fn record_from_wire(rec: &[u8; RECORD_WIRE_BYTES]) -> Result<TraceRecord, TraceIoError> {
    let bits = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
    let width = rec[4];
    match WIRE_DTYPES.get(usize::from(rec[5])) {
        Some(&dtype) if matches!(width, 1 | 4 | 8 | 16 | 32) => {
            Ok(TraceRecord { bits, width, dtype })
        }
        _ => Err(bad_record(rec)),
    }
}

/// The error of a record that failed [`record_from_wire`]'s checks, kept
/// out of line so the decode loop carries no formatting code.
#[cold]
#[inline(never)]
fn bad_record(rec: &[u8; RECORD_WIRE_BYTES]) -> TraceIoError {
    let width = rec[4];
    TraceIoError::Malformed(if matches!(width, 1 | 4 | 8 | 16 | 32) {
        format!("bad dtype code {}", rec[5])
    } else {
        format!("bad width {width}")
    })
}

/// The dtype of each wire code: the inverse of [`dtype_code`].
const WIRE_DTYPES: [DataType; 11] = [
    DataType::Ub,
    DataType::B,
    DataType::Uw,
    DataType::W,
    DataType::Hf,
    DataType::Ud,
    DataType::D,
    DataType::F,
    DataType::Uq,
    DataType::Q,
    DataType::Df,
];

fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Ub => 0,
        DataType::B => 1,
        DataType::Uw => 2,
        DataType::W => 3,
        DataType::Hf => 4,
        DataType::Ud => 5,
        DataType::D => 6,
        DataType::F => 7,
        DataType::Uq => 8,
        DataType::Q => 9,
        DataType::Df => 10,
    }
}

/// Pre-fill for decode buffers; every slot is overwritten before it is
/// handed out.
pub(crate) const BLANK_RECORD: TraceRecord = TraceRecord {
    bits: 0,
    width: 0,
    dtype: DataType::Ub,
};

/// Decode state of one record payload: the plain stream of 6-byte
/// records that `IWCT` files and plain pack entries carry, or a pack's
/// run-length item stream (plain items plus width-flagged run items,
/// [`crate::pack`] module docs).
///
/// [`ItemStream::decode`] is the one validating loop every record read
/// goes through: per item it checks the record with [`record_from_wire`]
/// and the item against the record count the header promised, steps the
/// content hash, and stores the record, so the hash's serial multiply
/// chain overlaps the decode work.
pub(crate) struct ItemStream {
    /// Whether width-flagged run items are legal.
    rle: bool,
    /// Records the header promised that no decoded item covers yet.
    unparsed: u64,
    /// A run item not yet fully expanded: its record and copies left.
    pending: Option<(TraceRecord, u64)>,
}

impl ItemStream {
    /// The stream of a payload holding `records` records; `rle` admits
    /// run items.
    pub(crate) fn new(records: u64, rle: bool) -> Self {
        Self {
            rle,
            unparsed: records,
            pending: None,
        }
    }

    /// Decodes whole items from `wire[*pos..]` into `out[*filled..]`,
    /// stepping `h` over every record when `HASH`, until `out` is full or
    /// less than one whole item is left in `wire` (the caller refills and
    /// calls again). A run longer than the room left is expanded as far
    /// as it fits and finished by the next call. `pos`, `filled` and `h`
    /// advance past everything decoded, on error too.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Malformed`] on a bad record, a repeat count below
    /// 2, a run past the record count, or an item after the last record.
    #[inline(always)]
    pub(crate) fn decode<const HASH: bool>(
        &mut self,
        name: &str,
        wire: &[u8],
        pos: &mut usize,
        out: &mut [TraceRecord],
        filled: &mut usize,
        h: &mut RecordHasher,
    ) -> Result<(), TraceIoError> {
        let (mut p, mut n, mut hh) = (*pos, *filled, *h);
        let result = 'items: {
            if let Some((rec, copies)) = self.pending.take() {
                let take = copies.min((out.len() - n) as u64) as usize;
                expand::<HASH>(rec, &mut out[n..n + take], &mut hh);
                n += take;
                if take as u64 != copies {
                    self.pending = Some((rec, copies - take as u64));
                    break 'items Ok(());
                }
            }
            while n < out.len() && p + RECORD_WIRE_BYTES <= wire.len() {
                let mut head: [u8; RECORD_WIRE_BYTES] = wire[p..p + RECORD_WIRE_BYTES]
                    .try_into()
                    .expect("exact slice");
                if !(self.rle && head[4] & RLE_WIDTH_FLAG != 0) {
                    if self.unparsed == 0 {
                        break 'items Err(past_record_count(name));
                    }
                    let rec = match record_from_wire(&head) {
                        Ok(rec) => rec,
                        Err(e) => break 'items Err(e),
                    };
                    if HASH {
                        hh.push(&rec);
                    }
                    out[n] = rec;
                    n += 1;
                    p += RECORD_WIRE_BYTES;
                    self.unparsed -= 1;
                    continue;
                }
                if p + RLE_ITEM_BYTES > wire.len() {
                    break; // straddles the end of `wire`
                }
                head[4] &= !RLE_WIDTH_FLAG;
                let rec = match record_from_wire(&head) {
                    Ok(rec) => rec,
                    Err(e) => break 'items Err(e),
                };
                let count = u64::from(u32::from_le_bytes(
                    wire[p + RECORD_WIRE_BYTES..p + RLE_ITEM_BYTES]
                        .try_into()
                        .expect("exact slice"),
                ));
                if count < 2 || count > self.unparsed {
                    break 'items Err(bad_run(name, count, self.unparsed));
                }
                p += RLE_ITEM_BYTES;
                self.unparsed -= count;
                let take = count.min((out.len() - n) as u64) as usize;
                expand::<HASH>(rec, &mut out[n..n + take], &mut hh);
                n += take;
                if take as u64 != count {
                    self.pending = Some((rec, count - take as u64));
                }
            }
            Ok(())
        };
        (*pos, *filled, *h) = (p, n, hh);
        result
    }
}

/// Fills `out` with copies of `rec`, hashing each copy when `HASH`.
#[inline(always)]
fn expand<const HASH: bool>(rec: TraceRecord, out: &mut [TraceRecord], h: &mut RecordHasher) {
    if HASH {
        for _ in 0..out.len() {
            h.push(&rec);
        }
    }
    out.fill(rec);
}

#[cold]
#[inline(never)]
fn past_record_count(name: &str) -> TraceIoError {
    TraceIoError::Malformed(format!(
        "trace '{name}': payload continues past the record count"
    ))
}

#[cold]
#[inline(never)]
fn bad_run(name: &str, count: u64, unparsed: u64) -> TraceIoError {
    TraceIoError::Malformed(if count < 2 {
        format!("trace '{name}': RLE repeat count {count} below 2")
    } else {
        format!(
            "trace '{name}': RLE run of {count} records overruns the record count \
             ({unparsed} records left)"
        )
    })
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one instruction.
    pub fn push(&mut self, mask: ExecMask, dtype: DataType) {
        self.records.push(TraceRecord::new(mask, dtype));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Builds a trace from the simulator's captured mask stream
    /// (`SimResult::eu.mask_trace`, recorded under
    /// `GpuConfig::with_mask_capture(true)`). Data types are not captured by
    /// the hook, so records are tagged `F` (the common case); cycle analysis
    /// is type-scaled only for 64-bit types, which the capture path does not
    /// produce.
    pub fn from_mask_stream(name: impl Into<String>, masks: &[(u32, u8)]) -> Self {
        Self {
            name: name.into(),
            records: masks
                .iter()
                .map(|&(bits, width)| TraceRecord {
                    bits,
                    width,
                    dtype: DataType::F,
                })
                .collect(),
        }
    }

    /// Serializes to the compact binary format.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceIoError> {
        w.write_all(&TRACE_MAGIC)?;
        let name = self.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.records.len() as u64).to_le_bytes())?;
        for r in &self.records {
            w.write_all(&record_to_wire(r))?;
        }
        Ok(())
    }

    /// Deserializes from the compact binary format, validating every record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Malformed`] on bad magic, widths, or types.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceIoError::Malformed("bad magic".into()));
        }
        let mut len4 = [0u8; 4];
        r.read_exact(&mut len4)?;
        let name_len = u32::from_le_bytes(len4) as usize;
        if name_len > 4096 {
            return Err(TraceIoError::Malformed("unreasonable name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| TraceIoError::Malformed("name is not UTF-8".into()))?;
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let count = u64::from_le_bytes(len8);
        // Records arrive and decode a chunk at a time, so memory grows
        // with the bytes actually read, whatever count the header claims.
        let chunk = count.min(CHUNK_RECORDS as u64) as usize;
        let mut wire = vec![0u8; chunk * RECORD_WIRE_BYTES];
        let mut records = Vec::with_capacity(chunk);
        let mut items = ItemStream::new(count, false);
        let mut left = count;
        while left > 0 {
            let take = left.min(chunk as u64) as usize;
            let wire = &mut wire[..take * RECORD_WIRE_BYTES];
            r.read_exact(wire)?;
            let start = records.len();
            records.resize(start + take, BLANK_RECORD);
            let (mut pos, mut filled) = (0, 0);
            items.decode::<false>(
                &name,
                wire,
                &mut pos,
                &mut records[start..],
                &mut filled,
                &mut RecordHasher::new(),
            )?;
            left -= take as u64;
        }
        Ok(Self { name, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut t = Trace::new("unit");
        t.push(ExecMask::new(0xAAAA, 16), DataType::F);
        t.push(ExecMask::new(0x0F, 8), DataType::Df);
        t.push(ExecMask::all(32), DataType::Ud);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let e = Trace::read_from(&b"NOPE\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(e, TraceIoError::Malformed(_)));
    }

    #[test]
    fn rejects_bad_width() {
        let mut buf = Vec::new();
        Trace {
            name: "x".into(),
            records: vec![],
        }
        .write_to(&mut buf)
        .unwrap();
        // Append a fake record with width 3 after patching the count.
        let count_pos = buf.len() - 8;
        buf[count_pos..count_pos + 8].copy_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0, 0, 3, 7]);
        let e = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
    }

    #[test]
    fn multi_chunk_roundtrip_and_late_bad_record() {
        let mut t = Trace::new("long");
        for i in 0..2 * CHUNK_RECORDS as u32 + 5 {
            t.push(
                ExecMask::new(i % 0xFFFF + 1, 16),
                DataType::ALL[i as usize % 11],
            );
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&buf[..]).unwrap(), t);

        // A bad width in the last chunk is caught there.
        let at = buf.len() - 3 * RECORD_WIRE_BYTES + 4;
        buf[at] = 3;
        let e = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");

        // A count past the bytes that arrive is a short read, not a
        // reservation for the claimed count.
        let mut short = Vec::new();
        Trace::new("short").write_to(&mut short).unwrap();
        let count_pos = short.len() - 8;
        short[count_pos..].copy_from_slice(&u64::MAX.to_le_bytes());
        short.extend_from_slice(&record_to_wire(&t.records[0]));
        let e = Trace::read_from(&short[..]).unwrap_err();
        assert!(matches!(e, TraceIoError::Io(_)), "{e}");
    }

    #[test]
    fn from_mask_stream() {
        let t = Trace::from_mask_stream("cap", &[(0xF0F0, 16), (0x0F, 8)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.records[0].mask(), ExecMask::new(0xF0F0, 16));
        assert_eq!(t.records[1].mask().width(), 8);
    }

    #[test]
    fn all_dtypes_roundtrip() {
        let mut t = Trace::new("types");
        for d in DataType::ALL {
            t.push(ExecMask::all(16), d);
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&buf[..]).unwrap(), t);
    }
}
