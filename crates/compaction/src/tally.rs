//! Whole-kernel cycle accounting.
//!
//! [`CompactionTally`] accumulates per-instruction execution masks into the
//! aggregate quantities the paper reports: per-mode EU execution cycles
//! (Fig. 10), SIMD efficiency (Fig. 3), the SIMD utilization breakdown
//! (Fig. 9), and operand-fetch savings.

use crate::cycles::{CompactionMode, CycleBreakdown};
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU64;

/// SIMD utilization bucket of one instruction (Fig. 9 categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilBucket {
    /// SIMD16 instruction with 1–4 active channels (3 cycles saveable).
    S16Active1To4,
    /// SIMD16 with 5–8 active (2 cycles saveable).
    S16Active5To8,
    /// SIMD16 with 9–12 active (1 cycle saveable).
    S16Active9To12,
    /// SIMD16 with 13–16 active (no compaction possible).
    S16Active13To16,
    /// SIMD8 with 1–4 active (1 cycle saveable).
    S8Active1To4,
    /// SIMD8 with 5–8 active (no compaction possible).
    S8Active5To8,
    /// Any other width, or an all-disabled mask.
    Other,
}

impl UtilBucket {
    /// Classifies one mask.
    pub fn of(mask: ExecMask) -> Self {
        let a = mask.active_channels();
        match (mask.width(), a) {
            (_, 0) => Self::Other,
            (16, 1..=4) => Self::S16Active1To4,
            (16, 5..=8) => Self::S16Active5To8,
            (16, 9..=12) => Self::S16Active9To12,
            (16, _) => Self::S16Active13To16,
            (8, 1..=4) => Self::S8Active1To4,
            (8, _) => Self::S8Active5To8,
            _ => Self::Other,
        }
    }

    /// All buckets in Fig. 9 legend order.
    pub const ALL: [UtilBucket; 7] = [
        UtilBucket::S16Active1To4,
        UtilBucket::S16Active5To8,
        UtilBucket::S16Active9To12,
        UtilBucket::S16Active13To16,
        UtilBucket::S8Active1To4,
        UtilBucket::S8Active5To8,
        UtilBucket::Other,
    ];

    /// Fig. 9 legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::S16Active1To4 => "1-4/16",
            Self::S16Active5To8 => "5-8/16",
            Self::S16Active9To12 => "9-12/16",
            Self::S16Active13To16 => "13-16/16",
            Self::S8Active1To4 => "1-4/8",
            Self::S8Active5To8 => "5-8/8",
            Self::Other => "other",
        }
    }
}

/// Aggregated compaction statistics over an instruction stream.
///
/// # Examples
///
/// ```
/// use iwc_compaction::{CompactionMode, CompactionTally};
/// use iwc_isa::{DataType, ExecMask};
///
/// let mut t = CompactionTally::new();
/// t.add(ExecMask::new(0xF0F0, 16), DataType::F); // BCC halves this one
/// t.add(ExecMask::all(16), DataType::F);         // incompressible
/// assert_eq!(t.simd_efficiency(), 0.75);
/// assert_eq!(t.reduction_vs_ivb(CompactionMode::Bcc), 0.25);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompactionTally {
    /// Per-mode execution-cycle totals.
    pub cycles: CycleBreakdown,
    /// Number of instructions tallied.
    pub instructions: u64,
    /// Sum of active channels over all instructions.
    pub active_channels: u64,
    /// Sum of SIMD widths over all instructions.
    pub total_channels: u64,
    /// Instruction counts per utilization bucket.
    pub buckets: [u64; 7],
    /// Operand-fetch register-half accesses saved by BCC.
    pub bcc_fetches_saved: u64,
    /// Channels routed through the SCC swizzle crossbar.
    pub scc_swizzles: u64,
}

impl CompactionTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one executed instruction.
    pub fn add(&mut self, mask: ExecMask, dtype: DataType) {
        self.add_delta(&TallyDelta::of(mask, dtype));
    }

    /// Adds `n` instructions of one `(mask, dtype)` key from its packed
    /// cost in O(1). Every tally field is an integer sum, so the result is
    /// *exactly* `n` repeated [`add`](Self::add) calls — the charge step of
    /// the trace analyzer's mask histogram.
    pub fn add_cost(&mut self, c: KeyCost, n: u64) {
        self.cycles.baseline += c.field(KeyCost::BASELINE) * n;
        self.cycles.ivb += c.field(KeyCost::IVB) * n;
        self.cycles.bcc += c.field(KeyCost::BCC) * n;
        self.cycles.scc += c.field(KeyCost::SCC) * n;
        self.instructions += n;
        self.active_channels += c.field(KeyCost::ACTIVE) * n;
        self.total_channels += c.field(KeyCost::TOTAL) * n;
        self.buckets[c.field(KeyCost::BUCKET) as usize] += n;
        self.bcc_fetches_saved += c.field(KeyCost::FETCHES_SAVED) * n;
        self.scc_swizzles += c.field(KeyCost::SWIZZLES) * n;
    }

    /// Adds one executed instruction from its precomputed contribution.
    ///
    /// Hot issue paths compute the [`TallyDelta`] once per distinct
    /// `(mask, dtype)` (see [`TallyMemo`]) and apply it to several tallies;
    /// the result is identical to calling [`add`](Self::add) on each.
    pub fn add_delta(&mut self, d: &TallyDelta) {
        self.cycles.accumulate(d.cycles);
        self.instructions += 1;
        self.active_channels += d.active_channels;
        self.total_channels += d.total_channels;
        self.buckets[d.bucket] += 1;
        self.bcc_fetches_saved += d.bcc_fetches_saved;
        self.scc_swizzles += d.scc_swizzles;
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Self) {
        self.cycles.accumulate(other.cycles);
        self.instructions += other.instructions;
        self.active_channels += other.active_channels;
        self.total_channels += other.total_channels;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.bcc_fetches_saved += other.bcc_fetches_saved;
        self.scc_swizzles += other.scc_swizzles;
    }

    /// Kernel SIMD efficiency: average enabled channels / average width
    /// (the Fig. 3 metric).
    pub fn simd_efficiency(&self) -> f64 {
        if self.total_channels == 0 {
            1.0
        } else {
            self.active_channels as f64 / self.total_channels as f64
        }
    }

    /// True when the workload counts as *coherent* under the paper's 95 %
    /// SIMD-efficiency threshold (§5.3).
    pub fn is_coherent(&self) -> bool {
        self.simd_efficiency() >= 0.95
    }

    /// Fraction of instructions in each utilization bucket (Fig. 9 bars).
    pub fn bucket_fractions(&self) -> [(UtilBucket, f64); 7] {
        let n = self.instructions.max(1) as f64;
        let mut out = [(UtilBucket::Other, 0.0); 7];
        for (i, b) in UtilBucket::ALL.iter().enumerate() {
            out[i] = (*b, self.buckets[i] as f64 / n);
        }
        out
    }

    /// EU execution-cycle reduction of `mode` relative to the Ivy Bridge
    /// baseline (the Fig. 10 quantity).
    pub fn reduction_vs_ivb(&self, mode: CompactionMode) -> f64 {
        self.cycles.reduction_vs_ivb(mode)
    }
}

/// Precomputed [`CompactionTally::add`] contribution of one executed
/// instruction. Every field is a pure function of `(mask, dtype)`, so the
/// hot issue path can evaluate the four cycle models, the utilization
/// bucket, and the swizzle cost once per distinct mask and replay the
/// result into several tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct TallyDelta {
    cycles: CycleBreakdown,
    active_channels: u64,
    total_channels: u64,
    bucket: usize,
    bcc_fetches_saved: u64,
    scc_swizzles: u64,
}

impl TallyDelta {
    /// Computes the contribution of one `(mask, dtype)` instruction.
    pub fn of(mask: ExecMask, dtype: DataType) -> Self {
        let bucket = UtilBucket::of(mask);
        // Fetch/swizzle accounting assumes a representative 2-source op.
        let idle_quads = u64::from(mask.quad_count() - mask.active_quads().min(mask.quad_count()));
        Self {
            cycles: CycleBreakdown::of(mask, dtype),
            active_channels: u64::from(mask.active_channels()),
            total_channels: u64::from(mask.width()),
            bucket: UtilBucket::ALL
                .iter()
                .position(|&b| b == bucket)
                .expect("bucket in ALL"),
            bcc_fetches_saved: 2 * idle_quads,
            // Exact swizzled-channel count of the Fig. 6 algorithm, served
            // from the process-wide schedule memo (O(1) on repeated masks).
            scc_swizzles: u64::from(crate::scc::SccCost::of(mask).swizzles),
        }
    }
}

/// Direct-mapped memo over [`TallyDelta::of`] for the simulator's issue
/// path.
///
/// The memo is transparent: `delta` always returns exactly
/// [`TallyDelta::of`]`(mask, dtype)`, whatever was cached before, so reuse
/// is a pure performance choice. Collisions just recompute. An EU's issue
/// path interleaves a handful of threads whose masks repeat, so
/// [`TallyMemo::DEFAULT_WAYS`] ways keep all of them resident at
/// negligible footprint. Whole-trace analysis, with thousands of distinct
/// masks per trace, charges packed [`KeyCost`]s from the trace crate's
/// mask histogram instead.
#[derive(Clone, Debug)]
pub struct TallyMemo {
    /// Right-shift applied to the 32-bit Fibonacci product: keeps the top
    /// `log2(ways)` bits, so the table length is always a power of two.
    shift: u32,
    keys: Vec<Option<(u32, u32, DataType)>>,
    deltas: Vec<TallyDelta>,
}

impl Default for TallyMemo {
    fn default() -> Self {
        Self::with_ways(Self::DEFAULT_WAYS)
    }
}

impl TallyMemo {
    /// Way count of the memo, sized for issue paths tracking a few
    /// resident threads.
    pub const DEFAULT_WAYS: usize = 64;

    /// A memo with `ways` slots, rounded up to a power of two (minimum 2,
    /// keeping the hash shift below the u32 width). Tests force
    /// collisions with tiny sizes.
    fn with_ways(ways: usize) -> Self {
        let ways = ways.next_power_of_two().max(2);
        Self {
            shift: 32 - ways.trailing_zeros(),
            keys: vec![None; ways],
            deltas: vec![TallyDelta::default(); ways],
        }
    }

    /// The tally contribution of `(mask, dtype)`, computed or replayed.
    pub fn delta(&mut self, mask: ExecMask, dtype: DataType) -> TallyDelta {
        let key = (mask.bits(), mask.width(), dtype);
        // Fibonacci hashing over all three key fields: the multiply
        // spreads low-bit differences into the kept top bits, so masks
        // differing only in width or dtype land in different ways.
        let h = key.0 ^ (key.1 << 16) ^ ((dtype as u32) << 22);
        let way = (h.wrapping_mul(0x9E37_79B9) >> self.shift) as usize;
        if self.keys[way] != Some(key) {
            self.deltas[way] = TallyDelta::of(mask, dtype);
            self.keys[way] = Some(key);
        }
        self.deltas[way]
    }
}

/// [`TallyDelta`] packed into 8 bytes: the four cycle counts, active and
/// total channels, BCC fetches saved, SCC swizzles and the Fig. 9 bucket
/// of one `(mask, dtype)` instruction, six bits each. Every field of an
/// instruction up to SIMD32 fits (none exceeds 32). A cost is never zero —
/// the total-channel field is the SIMD width, at least 1 — so an
/// `Option<KeyCost>` is 8 bytes too, which keeps lazily filled cost
/// tables compact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyCost(NonZeroU64);

impl KeyCost {
    const FIELD_BITS: u32 = 6;
    const BASELINE: u32 = 0;
    const IVB: u32 = 1;
    const BCC: u32 = 2;
    const SCC: u32 = 3;
    const ACTIVE: u32 = 4;
    const TOTAL: u32 = 5;
    const FETCHES_SAVED: u32 = 6;
    const SWIZZLES: u32 = 7;
    const BUCKET: u32 = 8;

    /// The packed contribution of one `(mask, dtype)` instruction.
    pub fn of(mask: ExecMask, dtype: DataType) -> Self {
        let d = TallyDelta::of(mask, dtype);
        let fields = [
            d.cycles.baseline,
            d.cycles.ivb,
            d.cycles.bcc,
            d.cycles.scc,
            d.active_channels,
            d.total_channels,
            d.bcc_fetches_saved,
            d.scc_swizzles,
            d.bucket as u64,
        ];
        let mut packed = 0;
        for (i, f) in (0u32..).zip(fields) {
            assert!(f >> Self::FIELD_BITS == 0, "cost field {i} = {f} overflows");
            packed |= f << (i * Self::FIELD_BITS);
        }
        Self(NonZeroU64::new(packed).expect("total channels is at least 1"))
    }

    fn field(self, i: u32) -> u64 {
        self.0.get() >> (i * Self::FIELD_BITS) & ((1 << Self::FIELD_BITS) - 1)
    }
}

impl iwc_telemetry::Instrument for CompactionTally {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        let j = |name: &str| iwc_telemetry::join(prefix, name);
        snap.set_counter(&j("instructions"), self.instructions);
        snap.set_counter(&j("active_channels"), self.active_channels);
        snap.set_counter(&j("total_channels"), self.total_channels);
        snap.set_counter(&j("bcc_fetches_saved"), self.bcc_fetches_saved);
        snap.set_counter(&j("scc_swizzles"), self.scc_swizzles);
        for mode in CompactionMode::ALL {
            snap.set_counter(&j(&format!("cycles/{mode}")), self.cycles.get(mode));
        }
        for (i, bucket) in UtilBucket::ALL.iter().enumerate() {
            // Bucket labels contain '/', which reads as a hierarchy
            // separator in metric names; flatten it.
            let label = bucket.label().replace('/', "of");
            snap.set_counter(&j(&format!("util/{label}")), self.buckets[i]);
        }
    }
}

impl fmt::Display for CompactionTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insns, eff {:.1}%, cycles base/ivb/bcc/scc = {}/{}/{}/{} (bcc -{:.1}%, scc -{:.1}%)",
            self.instructions,
            100.0 * self.simd_efficiency(),
            self.cycles.baseline,
            self.cycles.ivb,
            self.cycles.bcc,
            self.cycles.scc,
            100.0 * self.reduction_vs_ivb(CompactionMode::Bcc),
            100.0 * self.reduction_vs_ivb(CompactionMode::Scc),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_classification() {
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x0003, 16)),
            UtilBucket::S16Active1To4
        );
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x00FF, 16)),
            UtilBucket::S16Active5To8
        );
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x0FFF, 16)),
            UtilBucket::S16Active9To12
        );
        assert_eq!(
            UtilBucket::of(ExecMask::all(16)),
            UtilBucket::S16Active13To16
        );
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x0F, 8)),
            UtilBucket::S8Active1To4
        );
        assert_eq!(UtilBucket::of(ExecMask::all(8)), UtilBucket::S8Active5To8);
        assert_eq!(UtilBucket::of(ExecMask::none(16)), UtilBucket::Other);
        assert_eq!(UtilBucket::of(ExecMask::all(4)), UtilBucket::Other);
    }

    #[test]
    fn efficiency_accumulates() {
        let mut t = CompactionTally::new();
        t.add(ExecMask::all(16), DataType::F);
        t.add(ExecMask::new(0x00FF, 16), DataType::F);
        assert_eq!(t.simd_efficiency(), 0.75);
        assert!(!t.is_coherent());
        let mut c = CompactionTally::new();
        c.add(ExecMask::all(16), DataType::F);
        assert!(c.is_coherent());
    }

    #[test]
    fn reductions_reported_vs_ivb() {
        let mut t = CompactionTally::new();
        // 0xF0F0: ivb 4, bcc 2, scc 2.
        t.add(ExecMask::new(0xF0F0, 16), DataType::F);
        assert_eq!(t.reduction_vs_ivb(CompactionMode::Bcc), 0.5);
        // 0x00FF: ivb already optimizes to 2; bcc also 2: no further gain.
        let mut t2 = CompactionTally::new();
        t2.add(ExecMask::new(0x00FF, 16), DataType::F);
        assert_eq!(t2.reduction_vs_ivb(CompactionMode::Bcc), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CompactionTally::new();
        a.add(ExecMask::all(16), DataType::F);
        let mut b = CompactionTally::new();
        b.add(ExecMask::new(0x1, 16), DataType::F);
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.cycles.baseline, 8);
        assert_eq!(a.cycles.scc, 5);
    }

    #[test]
    fn swizzle_count_matches_schedule() {
        use crate::scc::SccSchedule;
        for bits in (0..=0xFFFFu32).step_by(41) {
            let m = ExecMask::new(bits, 16);
            let mut t = CompactionTally::new();
            t.add(m, DataType::F);
            let sched = SccSchedule::compute(m);
            assert_eq!(
                t.scc_swizzles,
                u64::from(sched.swizzle_count()),
                "mask {bits:#06x}"
            );
        }
    }

    #[test]
    fn add_cost_equals_repeated_adds() {
        let masks = [
            ExecMask::new(0xFFFF, 16),
            ExecMask::new(0xF0F0, 16),
            ExecMask::new(0xAAAA, 16),
            ExecMask::new(0x0001, 16),
            ExecMask::none(16),
            ExecMask::new(0x0F, 8),
            ExecMask::none(8),
            ExecMask::new(0b1010, 4),
            ExecMask::all(1),
            ExecMask::none(1),
            ExecMask::all(32),
            ExecMask::new(0x8000_0001, 32),
            ExecMask::none(32),
        ];
        for m in masks {
            for dtype in DataType::ALL {
                let cost = KeyCost::of(m, dtype);
                let mut charged = CompactionTally::new();
                charged.add_cost(cost, 7);
                let mut scalar = CompactionTally::new();
                for _ in 0..7 {
                    scalar.add(m, dtype);
                }
                assert_eq!(charged, scalar, "{m:?} {dtype:?}");
                let mut zero = CompactionTally::new();
                zero.add_cost(cost, 0);
                assert_eq!(zero, CompactionTally::new(), "zero count is a no-op");
            }
        }
    }

    #[test]
    fn memo_is_transparent_at_any_size_and_state() {
        // Stream a working set far past the way count through the memo
        // and through collision-forcing tiny ones (down to 2 ways) twice
        // over, comparing every delta against a direct
        // recompute by applying both to tallies.
        for ways in [1, 2, TallyMemo::DEFAULT_WAYS] {
            let mut memo = TallyMemo::with_ways(ways);
            for pass in 0..2 {
                for i in 0..1000u32 {
                    let bits = i.wrapping_mul(0x9E37).wrapping_add(pass) & 0xFFFF;
                    let m = ExecMask::new(bits, 16);
                    let dtype = if i % 3 == 0 { DataType::F } else { DataType::D };
                    let mut via_memo = CompactionTally::new();
                    via_memo.add_delta(&memo.delta(m, dtype));
                    let mut direct = CompactionTally::new();
                    direct.add(m, dtype);
                    assert_eq!(via_memo, direct, "ways {ways} pass {pass} mask {bits:#06x}");
                }
            }
        }
    }

    #[test]
    fn bucket_fractions_sum_to_one() {
        let mut t = CompactionTally::new();
        for bits in [0xFFFFu32, 0x00FF, 0x000F, 0x0001] {
            t.add(ExecMask::new(bits, 16), DataType::F);
        }
        let total: f64 = t.bucket_fractions().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
