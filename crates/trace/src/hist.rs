//! Mask histograms: one pass over a trace, one count per distinct key.
//!
//! Every analyzer output — Fig. 3 efficiency, the Fig. 9 buckets, the
//! Fig. 10 cycles, fetches saved and swizzles — is a sum of per-record
//! terms that depend only on the record's `(mask, width, dtype)` key. So a
//! trace folds into a histogram of keys, and each distinct key is then
//! charged once, multiplied by its count. The result is exactly the
//! per-record sum: every field is an integer.
//!
//! The histogram keeps SIMD8 and SIMD16 keys in dense tables indexed by
//! `(dtype, width, bits)`: per data type, a 257 KiB block of `u32` counts,
//! allocated when the first record of that type arrives, and a 514 KiB
//! block of packed [`KeyCost`]s, allocated by the first fold that charges
//! costs. The costs are filled on first charge and kept across traces,
//! since a key's cost never changes. A list of touched slots makes a reset
//! cost O(distinct keys), and a sparse map counts the other widths. The
//! same pass counts maximal runs of identical records, which
//! `TraceReport::runs` reports.

use crate::format::{TraceIoError, TraceRecord};
use crate::source::TraceSource;
use iwc_compaction::KeyCost;
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use std::collections::HashMap;

/// Dense slots per data type: every SIMD16 mask, then every SIMD8 mask.
const DENSE_KEYS: usize = (1 << 16) + (1 << 8);

/// Records folded between charges: no count can pass `u32::MAX`.
const MAX_FOLD: u64 = u32::MAX as u64;

/// Distinct sparse keys held before the map is charged and cleared, which
/// bounds its memory on SIMD32 streams with millions of distinct masks.
const SPARSE_CAP: usize = 1 << 16;

/// Counts of a folded trace, returned by [`MaskHistogram::fold`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Maximal runs of identical records.
    pub runs: u64,
    /// `(key, count)` charges made: the distinct keys of the trace, unless
    /// counts had to be charged early (every `u32::MAX` records, and every
    /// 2^16 distinct keys of widths other than 8 and 16).
    pub keys: u64,
}

/// The dense tables of one data type.
#[derive(Debug)]
struct Block {
    /// Records per slot since the last charge.
    counts: Vec<u32>,
    /// Packed cost per slot, once charged; empty until a fold charges
    /// costs.
    costs: Vec<Option<KeyCost>>,
}

impl Block {
    fn new() -> Self {
        Self {
            counts: vec![0; DENSE_KEYS],
            costs: Vec::new(),
        }
    }

    /// The cost slots, allocated on first use: folds that charge masks
    /// never pay for them.
    fn costs(&mut self) -> &mut [Option<KeyCost>] {
        if self.costs.is_empty() {
            self.costs = vec![None; DENSE_KEYS];
        }
        &mut self.costs
    }
}

/// A reusable mask histogram. Reusing one across traces keeps its tables
/// warm; a fold leaves it empty, even when the source fails.
#[derive(Debug)]
pub struct MaskHistogram {
    /// Per data type: `None` until its first SIMD8 or SIMD16 record.
    blocks: Vec<Option<Block>>,
    /// Dense slots (`dtype × DENSE_KEYS + offset`) with a non-zero count.
    touched: Vec<u32>,
    /// Counts of the other widths, keyed by [`record_key`].
    sparse: HashMap<u64, u64>,
    /// Records folded between charges (tests lower it).
    max_fold: u64,
}

impl Default for MaskHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The whole record as one integer: equal keys are equal records.
fn record_key(r: &TraceRecord) -> u64 {
    u64::from(r.bits) | u64::from(r.width) << 32 | (r.dtype as u64) << 40
}

/// Dense slot of a SIMD16 or SIMD8 record within its data type's block.
fn dense_slot(r: &TraceRecord) -> usize {
    // SIMD8 and SIMD16 interleave at random in divergent traces: select
    // the slot without a branch on the width.
    (if r.width == 16 {
        r.bits & 0xFFFF
    } else {
        (1 << 16) | (r.bits & 0xFF)
    }) as usize
}

/// The mask of a dense slot: the inverse of [`dense_slot`].
fn dense_mask(slot: usize) -> ExecMask {
    if slot < 1 << 16 {
        ExecMask::new(slot as u32, 16)
    } else {
        ExecMask::new((slot - (1 << 16)) as u32, 8)
    }
}

impl MaskHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            blocks: DataType::ALL.iter().map(|_| None).collect(),
            touched: Vec::new(),
            sparse: HashMap::new(),
            max_fold: MAX_FOLD,
        }
    }

    /// Folds `src` and calls `charge(mask, dtype, count)` for every key
    /// with a non-zero count, in no particular order. The sum of the
    /// charges over the stream equals the per-record sum.
    ///
    /// # Errors
    ///
    /// Propagates stream errors from the source; the histogram is left
    /// empty.
    pub fn fold<F>(
        &mut self,
        src: &mut dyn TraceSource,
        mut charge: F,
    ) -> Result<FoldStats, TraceIoError>
    where
        F: FnMut(ExecMask, DataType, u64),
    {
        self.fold_keys(src, false, |mask, dtype, _, n| charge(mask, dtype, n))
    }

    /// [`fold`](Self::fold), charging `charge(cost, count)` with each
    /// key's packed cost: [`KeyCost::of`] of the key, computed once per
    /// SIMD8 or SIMD16 key for the life of the histogram.
    ///
    /// # Errors
    ///
    /// Propagates stream errors from the source; the histogram is left
    /// empty.
    pub fn fold_costs<F>(
        &mut self,
        src: &mut dyn TraceSource,
        mut charge: F,
    ) -> Result<FoldStats, TraceIoError>
    where
        F: FnMut(KeyCost, u64),
    {
        self.fold_keys(src, true, |mask, dtype, cost, n| {
            charge(*cost.get_or_insert_with(|| KeyCost::of(mask, dtype)), n)
        })
    }

    /// The fold behind both entry points: `charge` gets each key's cost
    /// entry, which it may fill. Dense keys get their kept entry when
    /// `costed`; other keys get a fresh `None`.
    fn fold_keys<F>(
        &mut self,
        src: &mut dyn TraceSource,
        costed: bool,
        mut charge: F,
    ) -> Result<FoldStats, TraceIoError>
    where
        F: FnMut(ExecMask, DataType, &mut Option<KeyCost>, u64),
    {
        // A fold that unwound out of `charge` left its counts behind:
        // drop them first. On a clean histogram this costs nothing.
        self.clear();
        let mut stats = FoldStats::default();
        let result = self.fold_into(src, costed, &mut charge, &mut stats);
        if result.is_err() {
            self.clear();
        }
        result.map(|()| stats)
    }

    fn fold_into<F>(
        &mut self,
        src: &mut dyn TraceSource,
        costed: bool,
        charge: &mut F,
        stats: &mut FoldStats,
    ) -> Result<(), TraceIoError>
    where
        F: FnMut(ExecMask, DataType, &mut Option<KeyCost>, u64),
    {
        // No real record has this key: the width byte of a record is at
        // most 32.
        let mut prev = u64::MAX;
        let mut since_charge = 0u64;
        while let Some(chunk) = src.next_chunk()? {
            if since_charge + chunk.len() as u64 > self.max_fold {
                stats.keys += self.drain(costed, charge);
                since_charge = 0;
            }
            since_charge += chunk.len() as u64;
            for r in chunk {
                let key = record_key(r);
                stats.runs += u64::from(key != prev);
                prev = key;
                if r.width != 16 && r.width != 8 {
                    let canonical = TraceRecord::new(r.mask(), r.dtype);
                    *self.sparse.entry(record_key(&canonical)).or_insert(0) += 1;
                    continue;
                }
                let dtype = r.dtype as usize;
                let slot = dense_slot(r);
                let block = self.blocks[dtype].get_or_insert_with(Block::new);
                let count = &mut block.counts[slot];
                if *count == 0 {
                    self.touched.push((dtype * DENSE_KEYS + slot) as u32);
                }
                *count += 1;
            }
            if self.sparse.len() > SPARSE_CAP {
                stats.keys += self.drain(costed, charge);
                since_charge = 0;
            }
        }
        stats.keys += self.drain(costed, charge);
        Ok(())
    }

    /// Charges every non-zero count and resets it, returning the number of
    /// keys charged.
    fn drain<F>(&mut self, costed: bool, charge: &mut F) -> u64
    where
        F: FnMut(ExecMask, DataType, &mut Option<KeyCost>, u64),
    {
        for &t in &self.touched {
            let (dtype, slot) = (t as usize / DENSE_KEYS, t as usize % DENSE_KEYS);
            let block = self.blocks[dtype]
                .as_mut()
                .expect("touched slots have a block");
            let (mask, dtype) = (dense_mask(slot), DataType::ALL[dtype]);
            let count = u64::from(std::mem::take(&mut block.counts[slot]));
            if costed {
                charge(mask, dtype, &mut block.costs()[slot], count);
            } else {
                charge(mask, dtype, &mut None, count);
            }
        }
        let keys = (self.touched.len() + self.sparse.len()) as u64;
        self.touched.clear();
        for (key, count) in self.sparse.drain() {
            let mask = ExecMask::new(key as u32, u32::from((key >> 32) as u8));
            charge(mask, DataType::ALL[(key >> 40) as usize], &mut None, count);
        }
        keys
    }

    /// Drops every count without charging it.
    fn clear(&mut self) {
        for &t in &self.touched {
            let block = self.blocks[t as usize / DENSE_KEYS]
                .as_mut()
                .expect("touched slots have a block");
            block.counts[t as usize % DENSE_KEYS] = 0;
        }
        self.touched.clear();
        self.sparse.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Trace;
    use crate::source::{SliceSource, CHUNK_RECORDS};
    use iwc_compaction::CompactionTally;
    use std::collections::BTreeMap;

    /// Per-key counts of a fold, summed over charges.
    fn fold_counts(
        hist: &mut MaskHistogram,
        t: &Trace,
    ) -> (FoldStats, BTreeMap<(u32, u32, usize), u64>) {
        let mut counts = BTreeMap::new();
        let stats = hist
            .fold(&mut SliceSource::from(t), |m, d, n| {
                assert!(n > 0, "zero counts are never charged");
                *counts.entry((m.bits(), m.width(), d as usize)).or_insert(0) += n;
            })
            .unwrap();
        (stats, counts)
    }

    /// The same counts straight from the records.
    fn scalar_counts(t: &Trace) -> BTreeMap<(u32, u32, usize), u64> {
        let mut counts = BTreeMap::new();
        for r in &t.records {
            let m = r.mask();
            *counts
                .entry((m.bits(), m.width(), r.dtype as usize))
                .or_insert(0) += 1;
        }
        counts
    }

    fn mixed_trace() -> Trace {
        let mut t = Trace::new("mixed");
        for (i, d) in (0u32..).zip(DataType::ALL) {
            for width in [1, 4, 8, 16, 32] {
                t.push(ExecMask::new(0x9E37_79B9u32.rotate_left(i) | 1, width), d);
                t.push(ExecMask::none(width), d);
                t.push(ExecMask::none(width), d);
            }
        }
        t
    }

    #[test]
    fn counts_every_key_of_every_width_and_dtype() {
        let t = mixed_trace();
        let mut hist = MaskHistogram::new();
        let (stats, counts) = fold_counts(&mut hist, &t);
        assert_eq!(counts, scalar_counts(&t));
        assert_eq!(stats.keys, counts.len() as u64);
        // Every width-dtype block is a lone record then a run of two.
        assert_eq!(stats.runs, 2 * 5 * DataType::ALL.len() as u64);
    }

    #[test]
    fn runs_straddle_chunks() {
        let mut t = Trace::new("straddle");
        for _ in 0..CHUNK_RECORDS + 3 {
            t.push(ExecMask::all(16), DataType::F);
        }
        t.push(ExecMask::all(16), DataType::D);
        let mut hist = MaskHistogram::new();
        let (stats, counts) = fold_counts(&mut hist, &t);
        assert_eq!(stats, FoldStats { runs: 2, keys: 2 });
        assert_eq!(counts, scalar_counts(&t));
    }

    #[test]
    fn high_bits_past_the_width_fold_into_the_mask() {
        let t = Trace {
            name: "dirty".into(),
            records: vec![
                TraceRecord {
                    bits: 0x1_00FF,
                    width: 16,
                    dtype: DataType::F,
                },
                TraceRecord {
                    bits: 0x00FF,
                    width: 16,
                    dtype: DataType::F,
                },
                TraceRecord {
                    bits: 0xF3,
                    width: 4,
                    dtype: DataType::F,
                },
                TraceRecord {
                    bits: 0x03,
                    width: 4,
                    dtype: DataType::F,
                },
            ],
        };
        let mut hist = MaskHistogram::new();
        let (stats, counts) = fold_counts(&mut hist, &t);
        assert_eq!(counts, scalar_counts(&t));
        // Runs compare whole records, as the run-length encoding does.
        assert_eq!(stats, FoldStats { runs: 4, keys: 2 });
    }

    #[test]
    fn early_charges_split_counts_but_not_sums() {
        let mut t = mixed_trace();
        for _ in 0..3 * CHUNK_RECORDS {
            t.push(ExecMask::new(0x00F0, 16), DataType::F);
        }
        let mut hist = MaskHistogram::new();
        hist.max_fold = CHUNK_RECORDS as u64;
        let (stats, counts) = fold_counts(&mut hist, &t);
        assert_eq!(counts, scalar_counts(&t));
        assert!(
            stats.keys > counts.len() as u64,
            "the long run is charged in pieces"
        );
    }

    #[test]
    fn charged_costs_equal_per_record_adds() {
        // Every SIMD8 mask, a stride of SIMD16 masks and the sparse widths
        // under every dtype, folded twice: the second fold charges from
        // cost entries the first one filled.
        let mut t = mixed_trace();
        for d in DataType::ALL {
            let masks = (0..=0xFFu32)
                .map(|b| ExecMask::new(b, 8))
                .chain((0..=0xFFFFu32).step_by(97).map(|b| ExecMask::new(b, 16)));
            for m in masks {
                t.push(m, d);
            }
        }
        let mut scalar = CompactionTally::new();
        for r in &t.records {
            scalar.add(r.mask(), r.dtype);
        }
        let mut hist = MaskHistogram::new();
        for pass in 0..2 {
            let mut charged = CompactionTally::new();
            hist.fold_costs(&mut SliceSource::from(&t), |c, n| charged.add_cost(c, n))
                .unwrap();
            assert_eq!(charged, scalar, "pass {pass}");
        }
    }

    #[test]
    fn a_failed_fold_leaves_the_histogram_empty() {
        struct Failing(Vec<TraceRecord>, bool);
        impl TraceSource for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn len_hint(&self) -> Option<u64> {
                None
            }
            fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceIoError> {
                if self.1 {
                    return Err(TraceIoError::Malformed("boom".into()));
                }
                self.1 = true;
                Ok(Some(&self.0))
            }
        }
        let t = mixed_trace();
        let mut hist = MaskHistogram::new();
        let mut src = Failing(t.records.clone(), false);
        assert!(hist.fold(&mut src, |_, _, _| {}).is_err());
        let (_, counts) = fold_counts(&mut hist, &t);
        assert_eq!(counts, scalar_counts(&t), "no stale counts survive");
    }

    #[test]
    fn a_fold_that_panicked_leaves_no_stale_counts() {
        let t = mixed_trace();
        let mut hist = MaskHistogram::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut charges = 0;
            let _ = hist.fold(&mut SliceSource::from(&t), |_, _, _| {
                charges += 1;
                assert!(charges < 3, "charge {charges} panics");
            });
        }));
        assert!(unwound.is_err(), "the charge closure panicked");
        let (stats, counts) = fold_counts(&mut hist, &t);
        let (fresh_stats, fresh_counts) = fold_counts(&mut MaskHistogram::new(), &t);
        assert_eq!(counts, fresh_counts, "no stale counts survive");
        assert_eq!(stats, fresh_stats);
    }
}
