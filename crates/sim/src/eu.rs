//! Execution-unit timing model.
//!
//! Each EU holds up to `threads_per_eu` hardware threads. Every two cycles
//! the thread arbiter issues up to two instructions from distinct ready
//! threads (§2.2). Issued computation occupies the 4-wide FPU or EM pipe for
//! the number of waves given by the active compaction mode — this is where
//! BCC/SCC turn saved waves into time. A per-thread, per-register scoreboard
//! enforces data dependences; `send` results block their destination until
//! the memory subsystem reports completion.

use crate::config::GpuConfig;
use crate::exec::{exec_mask_of, execute_instruction, Effect, ThreadCtx};
use crate::memimg::MemoryImage;
use crate::memsys::MemSystem;
use crate::plan::{execute_plan, DecodedProgram, LaneScratch, MicroPlan, PlanEffect};
use iwc_compaction::{CompactionEngine, CompactionTally};
use iwc_isa::insn::{MemSpace, Opcode, Pipe};
use iwc_isa::mask::ExecMask;
use iwc_isa::program::Program;
use iwc_isa::reg::GRF_BYTES;
use iwc_telemetry::Instrument;
use serde::{Deserialize, Serialize};

/// Per-EU statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EuStats {
    /// Instructions issued (consuming an issue slot).
    pub issued: u64,
    /// Zero-mask instructions skipped at no cost.
    pub skipped_zero_mask: u64,
    /// ALU waves actually issued to the FPU pipe under the active mode.
    pub fpu_waves: u64,
    /// ALU waves actually issued to the EM pipe under the active mode.
    pub em_waves: u64,
    /// Send messages issued.
    pub sends: u64,
    /// L1 instruction-cache misses.
    pub icache_misses: u64,
    /// Thread-cycle stall attribution.
    pub stalls: StallStats,
    /// Total cycles this EU was clocked during the launch (every EU sees
    /// every launch cycle, including idle tail cycles).
    pub eu_cycles: u64,
    /// Cycles in which this EU issued at least one instruction.
    pub issue_cycles: u64,
    /// Per-cause attribution of every non-issuing EU cycle. Invariant:
    /// `issue_cycles + stall_causes.total() == eu_cycles` (checked at the
    /// end of every launch in debug builds).
    pub stall_causes: StallBreakdown,
    /// Issue events for timeline rendering (when
    /// [`GpuConfig::record_issue_log`] is set).
    pub issue_log: Vec<IssueEvent>,
    /// Contiguous non-issuing spans with their attributed [`StallCause`]
    /// (when [`GpuConfig::record_issue_log`] is set) — the interval form of
    /// [`stall_causes`](Self::stall_causes), for trace export.
    pub stall_log: Vec<StallSpan>,
    /// Compaction accounting over computation instructions (cycle models
    /// for every mode, evaluated on the executed mask stream).
    pub compute_tally: CompactionTally,
    /// Mask accounting over all SIMD instructions (compute + send), used
    /// for SIMD efficiency and the utilization breakdown.
    pub simd_tally: CompactionTally,
    /// Captured execution masks of every issued SIMD instruction, in issue
    /// order, when [`GpuConfig::capture_masks`] is set: `(bits, width)`.
    pub mask_trace: Vec<(u32, u8)>,
    /// Per-static-instruction divergence profile, populated when
    /// [`GpuConfig::profile_insns`] is set (empty otherwise).
    pub insn_profile: crate::profile::KernelProfile,
}

/// One resident hardware thread.
#[derive(Debug)]
pub struct HwThread {
    /// Architectural state.
    pub ctx: ThreadCtx,
    /// Global workgroup index.
    pub wg: usize,
    /// Thread index within the workgroup.
    pub wg_thread: u32,
    /// Index of the workgroup's SLM image, resolved at placement time so
    /// the arbiter never does a per-thread map lookup.
    pub slm_slot: usize,
    /// The thread may not issue before this time (fence, barrier release).
    pub stalled_until: u64,
    /// What set `stalled_until` (fence vs. instruction fetch), so the stall
    /// attributor can charge the wait to the right cause.
    stalled_src: StallSrc,
    /// Waiting at a workgroup barrier.
    pub at_barrier: bool,
    /// Per-GRF-register writeback completion times.
    reg_busy: Box<[u64]>,
    /// Bit `r` set while register `r`'s pending writeback comes from a
    /// memory load (cleared when a compute result overwrites it).
    reg_from_mem: u128,
    /// Per-flag-register writeback completion times.
    flag_busy: [u64; 2],
    /// High-water mark over every `reg_busy`/`flag_busy` entry: when it is
    /// at or before `now`, every scoreboard mark has expired and the
    /// dependence scan can be skipped wholesale.
    busy_max: u64,
    /// Completion time of the latest outstanding memory access.
    pub last_mem_done: u64,
}

impl HwThread {
    /// Creates a resident thread from its architectural context. `slm_slot`
    /// indexes the workgroup's SLM image in the launch's image table.
    pub fn new(ctx: ThreadCtx, wg: usize, wg_thread: u32, slm_slot: usize) -> Self {
        Self {
            ctx,
            wg,
            wg_thread,
            slm_slot,
            stalled_until: 0,
            stalled_src: StallSrc::FrontEnd,
            at_barrier: false,
            reg_busy: vec![0u64; 128].into_boxed_slice(),
            reg_from_mem: 0,
            flag_busy: [0, 0],
            busy_max: 0,
            last_mem_done: 0,
        }
    }

    fn mark_regs(&mut self, op: &iwc_isa::Operand, width: u32, until: u64, from_mem: bool) {
        if let Some((lo, hi)) = op.grf_byte_range(width) {
            self.busy_max = self.busy_max.max(until);
            for r in lo / GRF_BYTES..=(hi - 1) / GRF_BYTES {
                self.reg_busy[r as usize] = self.reg_busy[r as usize].max(until);
                // The writer at issue time always owns the new maximum (its
                // own scoreboard check drained earlier writers), so the
                // provenance bit tracks the latest writer.
                if from_mem {
                    self.reg_from_mem |= 1u128 << r;
                } else {
                    self.reg_from_mem &= !(1u128 << r);
                }
            }
        }
    }

    /// Earliest time the scoreboard allows `insn` to issue, and whether the
    /// binding (latest) dependence is a memory load still in flight.
    fn deps_ready_at(&self, insn: &iwc_isa::Instruction) -> (u64, bool) {
        let mut at = 0u64;
        let mut from_mem = false;
        let width = insn.exec_width;
        let mut consider = |op: &iwc_isa::Operand| {
            if let Some((lo, hi)) = op.grf_byte_range(width) {
                for r in lo / GRF_BYTES..=(hi - 1) / GRF_BYTES {
                    let busy = self.reg_busy[r as usize];
                    let mem = self.reg_from_mem >> r & 1 == 1;
                    if busy > at {
                        at = busy;
                        from_mem = mem;
                    } else if busy == at {
                        from_mem |= mem && busy > 0;
                    }
                }
            }
        };
        for op in insn.read_operands() {
            consider(&op);
        }
        consider(&insn.dst);
        if let Some(p) = insn.pred {
            let busy = self.flag_busy[p.flag.index() as usize];
            if busy > at {
                at = busy;
                from_mem = false;
            }
        }
        if let Some(cm) = insn.cond_mod {
            let busy = self.flag_busy[cm.flag.index() as usize];
            if busy > at {
                at = busy;
                from_mem = false;
            }
        }
        (at, from_mem)
    }

    /// [`deps_ready_at`](Self::deps_ready_at) over a decoded plan's
    /// precomputed register ranges — no operand re-derivation, no
    /// allocation.
    fn deps_ready_at_plan(&self, plan: &MicroPlan) -> (u64, bool) {
        let mut at = 0u64;
        let mut from_mem = false;
        let (reads, pred_flag, cond_flag) = plan.scoreboard();
        for &(lo, hi) in reads {
            for r in lo..=hi {
                let busy = self.reg_busy[usize::from(r)];
                let mem = self.reg_from_mem >> r & 1 == 1;
                if busy > at {
                    at = busy;
                    from_mem = mem;
                } else if busy == at {
                    from_mem |= mem && busy > 0;
                }
            }
        }
        for f in [pred_flag, cond_flag].into_iter().flatten() {
            let busy = self.flag_busy[usize::from(f)];
            if busy > at {
                at = busy;
                from_mem = false;
            }
        }
        (at, from_mem)
    }

    /// [`mark_regs`](Self::mark_regs) over a precomputed register range.
    fn mark_range(&mut self, range: Option<(u8, u8)>, until: u64, from_mem: bool) {
        if let Some((lo, hi)) = range {
            self.busy_max = self.busy_max.max(until);
            for r in lo..=hi {
                self.reg_busy[usize::from(r)] = self.reg_busy[usize::from(r)].max(until);
                if from_mem {
                    self.reg_from_mem |= 1u128 << r;
                } else {
                    self.reg_from_mem &= !(1u128 << r);
                }
            }
        }
    }
}

/// One recorded issue event (for timeline rendering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueEvent {
    /// Cycle of issue.
    pub cycle: u64,
    /// Issuing EU (kept through aggregation so exporters can rebuild
    /// per-EU tracks from the merged log).
    pub eu: u32,
    /// EU thread slot.
    pub thread: u8,
    /// Pipe occupied (`Fpu`, `Em`, `Send`, or `Control` for front-end-only
    /// instructions).
    pub pipe: Pipe,
    /// Pipe-occupancy cycles (0 for control/send).
    pub waves: u32,
}

/// Why a thread could not issue this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// Waiting on an earlier fence/fetch release.
    Stalled,
    /// A source/destination register or flag is still in flight
    /// (scoreboard RAW/WAW, including pending memory loads).
    Scoreboard,
    /// Instruction-cache miss.
    Ifetch,
    /// The target execution pipe is still occupied by earlier waves —
    /// exactly the cycles BCC/SCC compress.
    PipeBusy,
    /// End-of-thread draining outstanding memory.
    MemDrain,
}

/// Per-category counts of thread-cycles lost to each stall reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StallStats {
    /// Fence/fetch release waits.
    pub stalled: u64,
    /// Scoreboard dependences (incl. memory loads in flight).
    pub scoreboard: u64,
    /// Instruction-cache misses.
    pub ifetch: u64,
    /// Execution-pipe occupancy.
    pub pipe_busy: u64,
    /// End-of-thread memory drains.
    pub mem_drain: u64,
}

impl StallStats {
    fn add(&mut self, reason: StallReason) {
        match reason {
            StallReason::Stalled => self.stalled += 1,
            StallReason::Scoreboard => self.scoreboard += 1,
            StallReason::Ifetch => self.ifetch += 1,
            StallReason::PipeBusy => self.pipe_busy += 1,
            StallReason::MemDrain => self.mem_drain += 1,
        }
    }

    /// Counts accumulated since `earlier` (a prior copy of this struct),
    /// with instruction-fetch waits folded into `stalled`: an I$ miss only
    /// charges `ifetch` on the arbitration pass that starts it; every later
    /// pass over the same blocked thread counts as a fence wait. [`ArbMemo`]
    /// stores a fully-blocked scan's counts in this form, as the delta each
    /// replayed pass adds.
    pub(crate) fn steady_delta_since(&self, earlier: &StallStats) -> StallStats {
        StallStats {
            stalled: self.stalled - earlier.stalled + (self.ifetch - earlier.ifetch),
            scoreboard: self.scoreboard - earlier.scoreboard,
            ifetch: 0,
            pipe_busy: self.pipe_busy - earlier.pipe_busy,
            mem_drain: self.mem_drain - earlier.mem_drain,
        }
    }

    /// Merges another sample.
    pub fn merge(&mut self, other: &StallStats) {
        self.stalled += other.stalled;
        self.scoreboard += other.scoreboard;
        self.ifetch += other.ifetch;
        self.pipe_busy += other.pipe_busy;
        self.mem_drain += other.mem_drain;
    }

    /// Total stall events.
    pub fn total(&self) -> u64 {
        self.stalled + self.scoreboard + self.ifetch + self.pipe_busy + self.mem_drain
    }
}

/// What armed a thread's `stalled_until` timer (refines the legacy
/// [`StallReason::Stalled`] bucket for cause attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StallSrc {
    /// Instruction-fetch miss latency.
    FrontEnd,
    /// A memory fence waiting on outstanding accesses.
    Mem,
}

/// Root cause of one non-issuing EU cycle.
///
/// Unlike [`StallReason`] — which counts per-thread *issue-attempt*
/// failures and can blame several threads in one cycle — a `StallCause`
/// charges each EU cycle in which nothing issued to exactly **one** cause,
/// so the per-EU invariant `issue_cycles + Σ causes == eu_cycles` holds
/// (with the default single-issue front end, `Σ causes == cycles −
/// issued`). The blamed cause is that of the thread that becomes ready
/// soonest — the binding constraint on forward progress — with ties going
/// to the earliest thread in arbitration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Instruction delivery: I$ miss latency (cold front end).
    FrontEnd,
    /// A register/flag dependence on an in-flight *compute* result.
    ScoreboardDep,
    /// Waiting on the memory subsystem: a load still in flight into a
    /// source register, a fence draining stores, or an `eot` drain.
    MemLatency,
    /// The target execution pipe is still busy with earlier waves — the
    /// cycles intra-warp compaction compresses.
    PipeBusy,
    /// The send queue refused a message. Structurally zero in this model
    /// (sends never backpressure the issue stage; see DESIGN.md §7), kept
    /// so exported schemas cover the full taxonomy.
    SendQueueFull,
    /// Every resident thread is parked at a workgroup barrier.
    Barrier,
    /// No thread is resident (dispatch tail / launch drained).
    Drained,
}

impl StallCause {
    /// All causes, in reporting order.
    pub const ALL: [StallCause; 7] = [
        StallCause::FrontEnd,
        StallCause::ScoreboardDep,
        StallCause::MemLatency,
        StallCause::PipeBusy,
        StallCause::SendQueueFull,
        StallCause::Barrier,
        StallCause::Drained,
    ];

    /// Stable snake_case label (used as the telemetry metric name suffix).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::FrontEnd => "front_end",
            StallCause::ScoreboardDep => "scoreboard_dep",
            StallCause::MemLatency => "mem_latency",
            StallCause::PipeBusy => "pipe_busy",
            StallCause::SendQueueFull => "send_queue_full",
            StallCause::Barrier => "barrier",
            StallCause::Drained => "drained",
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles charged to each [`StallCause`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Cycles lost to instruction delivery.
    pub front_end: u64,
    /// Cycles lost to compute-result dependences.
    pub scoreboard_dep: u64,
    /// Cycles lost waiting on memory (loads, fences, eot drains).
    pub mem_latency: u64,
    /// Cycles lost to execution-pipe occupancy.
    pub pipe_busy: u64,
    /// Cycles lost to send-queue backpressure (structurally zero here).
    pub send_queue_full: u64,
    /// Cycles every resident thread sat at a barrier.
    pub barrier: u64,
    /// Cycles with no resident thread.
    pub drained: u64,
}

impl StallBreakdown {
    /// Charges `n` cycles to `cause`.
    pub fn charge(&mut self, cause: StallCause, n: u64) {
        *self.slot_mut(cause) += n;
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::FrontEnd => self.front_end,
            StallCause::ScoreboardDep => self.scoreboard_dep,
            StallCause::MemLatency => self.mem_latency,
            StallCause::PipeBusy => self.pipe_busy,
            StallCause::SendQueueFull => self.send_queue_full,
            StallCause::Barrier => self.barrier,
            StallCause::Drained => self.drained,
        }
    }

    fn slot_mut(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::FrontEnd => &mut self.front_end,
            StallCause::ScoreboardDep => &mut self.scoreboard_dep,
            StallCause::MemLatency => &mut self.mem_latency,
            StallCause::PipeBusy => &mut self.pipe_busy,
            StallCause::SendQueueFull => &mut self.send_queue_full,
            StallCause::Barrier => &mut self.barrier,
            StallCause::Drained => &mut self.drained,
        }
    }

    /// Adds another breakdown.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for cause in StallCause::ALL {
            self.charge(cause, other.get(cause));
        }
    }

    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        StallCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// `(cause, cycles)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

/// One contiguous span of non-issuing EU cycles charged to a single
/// [`StallCause`] — the interval form of [`StallBreakdown`], recorded only
/// when [`GpuConfig::record_issue_log`] is set. Exporters turn these into
/// Perfetto async stall tracks alongside the issue slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpan {
    /// EU the span belongs to.
    pub eu: u32,
    /// First cycle of the span.
    pub start: u64,
    /// Length in cycles (≥ 1; consecutive same-cause cycles coalesce).
    pub len: u64,
    /// The attributed root cause.
    pub cause: StallCause,
}

impl Instrument for StallBreakdown {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        for (cause, cycles) in self.iter() {
            snap.set_counter(&iwc_telemetry::join(prefix, cause.label()), cycles);
        }
    }
}

impl Instrument for EuStats {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        let j = |name: &str| iwc_telemetry::join(prefix, name);
        snap.set_counter(&j("issued"), self.issued);
        snap.set_counter(&j("skipped_zero_mask"), self.skipped_zero_mask);
        snap.set_counter(&j("fpu_waves"), self.fpu_waves);
        snap.set_counter(&j("em_waves"), self.em_waves);
        snap.set_counter(&j("sends"), self.sends);
        snap.set_counter(&j("icache_misses"), self.icache_misses);
        snap.set_counter(&j("cycles"), self.eu_cycles);
        snap.set_counter(&j("issue_cycles"), self.issue_cycles);
        // Legacy per-thread issue-attempt failure counts.
        snap.set_counter(&j("stall_events/fence"), self.stalls.stalled);
        snap.set_counter(&j("stall_events/scoreboard"), self.stalls.scoreboard);
        snap.set_counter(&j("stall_events/ifetch"), self.stalls.ifetch);
        snap.set_counter(&j("stall_events/pipe_busy"), self.stalls.pipe_busy);
        snap.set_counter(&j("stall_events/mem_drain"), self.stalls.mem_drain);
        // Per-cycle root-cause attribution.
        self.stall_causes.publish(&j("stall"), snap);
        self.compute_tally.publish(&j("compute"), snap);
        self.simd_tally.publish(&j("simd"), snap);
        if !self.insn_profile.is_empty() {
            let mut channels = iwc_telemetry::Pow2Hist::new();
            let mut quads = iwc_telemetry::Pow2Hist::new();
            for s in &self.insn_profile.insns {
                channels.merge(&s.channels);
                quads.merge(&s.quads);
            }
            snap.set_hist(&j("profile/channels"), channels);
            snap.set_hist(&j("profile/quads"), quads);
        }
    }
}

/// Outcome of one issue attempt on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueOutcome {
    /// An instruction was issued.
    Issued,
    /// The thread finished (`eot` retired); the slot is free.
    Finished,
    /// The thread cannot issue before the given time, for the given legacy
    /// reason and attributed root cause.
    NotReadyUntil(u64, StallReason, StallCause),
    /// The thread is blocked on a barrier (no time bound).
    Barrier,
}

/// Outcome of one [`Eu::arbitrate`] pass.
#[derive(Clone, Debug)]
pub struct ArbResult {
    /// Instructions issued this cycle (0..=`cfg.issue_per_cycle`).
    pub issued: u32,
    /// Workgroup ids of threads that retired (`eot`) this cycle.
    pub finished: Vec<usize>,
    /// Earliest future time at which some blocked thread becomes ready
    /// (`None` when all blocked threads wait on barriers or none is
    /// resident).
    pub hint: Option<u64>,
    /// Root cause blocking the EU, when nothing issued: the cause of the
    /// soonest-ready thread, else [`StallCause::Barrier`] if any thread is
    /// parked, else [`StallCause::Drained`]. `None` when something issued.
    pub blocked: Option<StallCause>,
}

/// One execution unit.
#[derive(Debug)]
pub struct Eu {
    /// EU index.
    pub id: u32,
    /// Resident threads (None = free slot).
    pub slots: Vec<Option<HwThread>>,
    /// Occupied-slot count, maintained at place/retire so the dispatch
    /// and completion checks in the scheduler loop are O(1) per cycle.
    resident: u32,
    fpu_free: u64,
    em_free: u64,
    arb_ptr: usize,
    /// Instruction addresses resident in the shared L1 I$ (FIFO of PCs,
    /// capacity `cfg.icache_insns`).
    icache: std::collections::VecDeque<usize>,
    /// Dense residency flags for `icache`, indexed by PC (PCs are small
    /// program offsets, so a byte vector beats hashing on the issue path).
    icache_set: Vec<u8>,
    /// Reusable lane-address/line scratch for the decoded send path.
    scratch: LaneScratch,
    /// One-entry memo for the per-issue compaction tallies: loop bodies
    /// re-present the same mask, so the four cycle models are evaluated
    /// once per distinct mask instead of twice per issue.
    tally_memo: iwc_compaction::TallyMemo,
    /// Per-slot cached blocked-issue verdicts, packed apart from the big
    /// thread state so a scan over blocked slots stays inside a couple of
    /// cache lines instead of touching each multi-KB [`HwThread`]. While
    /// `now < polls[i].until`, slot `i` cannot issue and a fresh attempt
    /// would re-derive exactly `(reason, cause)`. Valid because every wait
    /// the issue stage can hit is a fixed timestamp for the blocked thread
    /// — its scoreboard marks don't move until *it* issues, and shared
    /// pipe-free times only grow, so the cached time is a stable lower
    /// bound.
    polls: Box<[SlotPoll]>,
    /// Bit `i` set while `slots[i]` holds a thread, so the scan skips
    /// empty slots without touching the slot storage.
    occupied: u64,
    /// Cached verdict of a fully-blocked arbitration scan, replayed
    /// wholesale until the earliest blocked thread becomes ready (see
    /// [`arbitrate`](Self::arbitrate)).
    arb_memo: Option<ArbMemo>,
    /// Bumped whenever thread state changes outside the issue path (a
    /// thread placed, a barrier released), invalidating `arb_memo`.
    epoch: u32,
    /// Statistics.
    pub stats: EuStats,
}

/// One slot's cached blocked-issue verdict (see [`Eu::polls`]).
#[derive(Clone, Copy, Debug)]
struct SlotPoll {
    until: u64,
    reason: StallReason,
    cause: StallCause,
}

impl Default for SlotPoll {
    fn default() -> Self {
        Self {
            until: 0,
            reason: StallReason::Stalled,
            cause: StallCause::FrontEnd,
        }
    }
}

/// Replayable result of an arbitration pass that issued nothing: until
/// `valid_until`, a fresh scan of the same (unchanged) thread set would
/// re-derive exactly these per-reason stall increments, wake-up hint, and
/// root blocking cause, because every blocked thread's ready time is a
/// stable lower bound and barrier residency only changes through a release
/// (which bumps the EU epoch).
#[derive(Clone, Copy, Debug)]
struct ArbMemo {
    valid_until: u64,
    epoch: u32,
    stalls_delta: StallStats,
    hint: Option<u64>,
    blocked: Option<StallCause>,
}

/// Instruction-fetch check: returns the extra stall (cycles) before the
/// instruction at `pc` can issue, filling the FIFO I$ on a miss. A free
/// function over the EU's I$ fields so both issue paths can call it while
/// a thread slot is borrowed.
fn ifetch_check(
    icache: &mut std::collections::VecDeque<usize>,
    icache_set: &mut Vec<u8>,
    misses: &mut u64,
    pc: usize,
    cfg: &GpuConfig,
) -> u64 {
    if cfg.icache_miss_latency == 0 || cfg.icache_insns == 0 {
        return 0;
    }
    if icache_set.get(pc).is_some_and(|&r| r != 0) {
        return 0;
    }
    *misses += 1;
    if icache.len() as u32 >= cfg.icache_insns {
        if let Some(old) = icache.pop_front() {
            icache_set[old] = 0;
        }
    }
    icache.push_back(pc);
    if pc >= icache_set.len() {
        icache_set.resize(pc + 1, 0);
    }
    icache_set[pc] = 1;
    u64::from(cfg.icache_miss_latency)
}

/// The cold half of issue bookkeeping: per-instruction profiling, the
/// issue log, and mask capture. Outlined (and never inlined) so the
/// default configuration's hot path carries a single predictable
/// `recording` branch and zero recording code.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn record_issue_event(
    stats: &mut EuStats,
    cfg: &GpuConfig,
    engine: &dyn CompactionEngine,
    eu: u32,
    thread: u8,
    now: u64,
    pc: usize,
    mask: ExecMask,
    plan: &MicroPlan,
    effect: PlanEffect,
) {
    if cfg.profile_insns {
        let compute = matches!(effect, PlanEffect::Compute(_));
        stats.insn_profile.record(pc, mask, plan.dtype(), compute);
    }
    if cfg.record_issue_log {
        let pipe = plan.pipe();
        let waves = if pipe == Pipe::Fpu || pipe == Pipe::Em {
            engine.cycles(mask, plan.dtype())
        } else {
            0
        };
        stats.issue_log.push(IssueEvent {
            cycle: now,
            eu,
            thread,
            pipe,
            waves,
        });
    }
    if cfg.capture_masks && matches!(effect, PlanEffect::Compute(_) | PlanEffect::Memory { .. }) {
        stats.mask_trace.push((mask.bits(), mask.width() as u8));
    }
}

impl Eu {
    /// Creates an EU with `threads` empty slots.
    pub fn new(id: u32, threads: u32) -> Self {
        assert!(threads <= 64, "occupancy bitmask holds at most 64 slots");
        Self {
            id,
            slots: (0..threads).map(|_| None).collect(),
            polls: (0..threads).map(|_| SlotPoll::default()).collect(),
            occupied: 0,
            resident: 0,
            fpu_free: 0,
            em_free: 0,
            arb_ptr: 0,
            icache: std::collections::VecDeque::new(),
            icache_set: Vec::new(),
            scratch: LaneScratch::new(),
            tally_memo: iwc_compaction::TallyMemo::default(),
            arb_memo: None,
            epoch: 0,
            stats: EuStats::default(),
        }
    }

    /// Number of free thread slots.
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.resident as usize
    }

    /// True when no thread is resident.
    pub fn is_idle(&self) -> bool {
        self.resident == 0
    }

    /// Places a thread into a free slot.
    ///
    /// # Panics
    ///
    /// Panics when no slot is free.
    pub fn place(&mut self, t: HwThread) {
        let slot = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .expect("free slot");
        self.slots[slot] = Some(t);
        self.polls[slot] = SlotPoll::default();
        self.occupied |= 1 << slot;
        self.resident += 1;
        self.note_threads_changed();
    }

    /// Invalidates the replayable arbitration verdict after a thread-state
    /// change the issue path did not make itself (a thread placed, a
    /// barrier released).
    pub(crate) fn note_threads_changed(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Attempts to issue one instruction from thread slot `i` at time `now`.
    #[allow(clippy::too_many_arguments)]
    fn try_issue(
        &mut self,
        i: usize,
        now: u64,
        cfg: &GpuConfig,
        engine: &dyn CompactionEngine,
        program: &Program,
        mem: &mut MemSystem,
        img: &mut MemoryImage,
        slm: &mut MemoryImage,
        barrier_arrivals: &mut Vec<usize>,
    ) -> IssueOutcome {
        let Some(t) = self.slots[i].as_mut() else {
            return IssueOutcome::Barrier; // empty slot: nothing to do, no bound
        };
        if t.at_barrier {
            return IssueOutcome::Barrier;
        }
        if t.stalled_until > now {
            let cause = match t.stalled_src {
                StallSrc::FrontEnd => StallCause::FrontEnd,
                StallSrc::Mem => StallCause::MemLatency,
            };
            return IssueOutcome::NotReadyUntil(t.stalled_until, StallReason::Stalled, cause);
        }

        // Skip zero-mask ALU/send instructions for free (jump-over).
        let mut guard = 0usize;
        loop {
            let insn = &program.insns()[t.ctx.pc];
            let is_data_op = !matches!(insn.op.pipe(), Pipe::Control);
            if is_data_op && exec_mask_of(&t.ctx, insn).is_empty() && insn.op != Opcode::Eot {
                let skip_pc = t.ctx.pc;
                let e = execute_instruction(&mut t.ctx, program, img, slm);
                debug_assert_eq!(e.effect, Effect::SkippedZeroMask);
                self.stats.skipped_zero_mask += 1;
                if cfg.profile_insns {
                    self.stats.insn_profile.record_skip(skip_pc);
                }
                guard += 1;
                assert!(guard <= program.len() * 2, "runaway zero-mask skipping");
                continue;
            }
            break;
        }

        let pc = t.ctx.pc;
        let insn = &program.insns()[pc];

        // Scoreboard.
        let (ready, dep_from_mem) = if t.busy_max <= now {
            (0, false) // every scoreboard mark already expired
        } else {
            t.deps_ready_at(insn)
        };
        if ready > now {
            let cause = if dep_from_mem {
                StallCause::MemLatency
            } else {
                StallCause::ScoreboardDep
            };
            return IssueOutcome::NotReadyUntil(ready, StallReason::Scoreboard, cause);
        }
        // Instruction fetch: a cold I$ line stalls the thread once.
        let fetch_stall = ifetch_check(
            &mut self.icache,
            &mut self.icache_set,
            &mut self.stats.icache_misses,
            pc,
            cfg,
        );
        if fetch_stall > 0 {
            let t = self.slots[i].as_mut().expect("thread present");
            t.stalled_until = now + fetch_stall;
            t.stalled_src = StallSrc::FrontEnd;
            return IssueOutcome::NotReadyUntil(
                now + fetch_stall,
                StallReason::Ifetch,
                StallCause::FrontEnd,
            );
        }
        let t = self.slots[i].as_mut().expect("thread present");
        let insn = &program.insns()[pc];
        // Pipe availability for computation.
        match insn.op.pipe() {
            Pipe::Fpu if self.fpu_free > now => {
                return IssueOutcome::NotReadyUntil(
                    self.fpu_free,
                    StallReason::PipeBusy,
                    StallCause::PipeBusy,
                )
            }
            Pipe::Em if self.em_free > now => {
                return IssueOutcome::NotReadyUntil(
                    self.em_free,
                    StallReason::PipeBusy,
                    StallCause::PipeBusy,
                )
            }
            _ => {}
        }
        // EOT drains outstanding memory.
        if insn.op == Opcode::Eot && t.last_mem_done > now {
            return IssueOutcome::NotReadyUntil(
                t.last_mem_done,
                StallReason::MemDrain,
                StallCause::MemLatency,
            );
        }

        let exec_width = insn.exec_width;
        let dtype = insn.dtype;
        let dst = insn.dst;
        let cond_flag = insn.cond_mod.map(|cm| cm.flag);
        let n_operands = (insn
            .used_srcs()
            .iter()
            .filter(|o| o.grf_reg().is_some())
            .count()
            + usize::from(insn.dst.grf_reg().is_some())) as u64;
        let insn_pipe = insn.op.pipe();
        let executed = execute_instruction(&mut t.ctx, program, img, slm);
        self.stats.issued += 1;
        if cfg.profile_insns {
            let compute = matches!(executed.effect, Effect::Compute { .. });
            self.stats
                .insn_profile
                .record(pc, executed.mask, dtype, compute);
        }
        if cfg.record_issue_log {
            let waves = if insn_pipe == Pipe::Fpu || insn_pipe == Pipe::Em {
                engine.cycles(executed.mask, dtype)
            } else {
                0
            };
            self.stats.issue_log.push(IssueEvent {
                cycle: now,
                eu: self.id,
                thread: i as u8,
                pipe: insn_pipe,
                waves,
            });
        }

        match executed.effect {
            Effect::Compute { pipe } => {
                let mut waves = u64::from(engine.cycles(executed.mask, dtype));
                if cfg.rf_timing == crate::config::RfTiming::MultiCycle {
                    // A single-ported file serializes one register-half
                    // access per operand ahead of execution (§4.3 option 1).
                    waves += n_operands;
                }
                let (pipe_free, depth) = match pipe {
                    Pipe::Fpu => (&mut self.fpu_free, cfg.fpu_latency),
                    Pipe::Em => (&mut self.em_free, cfg.em_latency),
                    _ => unreachable!("compute on non-ALU pipe"),
                };
                *pipe_free = now + waves;
                let writeback = now + waves + u64::from(depth);
                t.mark_regs(&dst, exec_width, writeback, false);
                if let Some(f) = cond_flag {
                    t.flag_busy[f.index() as usize] = writeback;
                    t.busy_max = t.busy_max.max(writeback);
                }
                match pipe {
                    Pipe::Fpu => self.stats.fpu_waves += waves,
                    Pipe::Em => self.stats.em_waves += waves,
                    _ => {}
                }
                let d = self.tally_memo.delta(executed.mask, dtype);
                self.stats.compute_tally.add_delta(&d);
                self.stats.simd_tally.add_delta(&d);
                if cfg.capture_masks {
                    self.stats
                        .mask_trace
                        .push((executed.mask.bits(), executed.mask.width() as u8));
                }
            }
            Effect::Memory {
                space,
                is_store,
                ref lane_addrs,
            } => {
                self.stats.sends += 1;
                let d = self.tally_memo.delta(executed.mask, dtype);
                self.stats.simd_tally.add_delta(&d);
                if cfg.capture_masks {
                    self.stats
                        .mask_trace
                        .push((executed.mask.bits(), executed.mask.width() as u8));
                }
                let done = match space {
                    MemSpace::Global => {
                        let lines = mem.coalesce(lane_addrs);
                        mem.global_access(now, &lines, is_store)
                    }
                    MemSpace::Slm => mem.slm_access(now, lane_addrs),
                };
                t.last_mem_done = t.last_mem_done.max(done);
                if !is_store {
                    t.mark_regs(&dst, exec_width, done, true);
                }
            }
            Effect::Fence => {
                t.stalled_until = t.last_mem_done;
                t.stalled_src = StallSrc::Mem;
            }
            Effect::Barrier => {
                t.at_barrier = true;
                barrier_arrivals.push(t.wg);
            }
            Effect::Eot => {
                self.slots[i] = None;
                self.occupied &= !(1 << i);
                self.resident -= 1;
                return IssueOutcome::Finished;
            }
            Effect::ControlFlow => {}
            Effect::SkippedZeroMask => unreachable!("skips handled before issue"),
        }
        IssueOutcome::Issued
    }

    /// [`try_issue`](Self::try_issue) over decoded plans: identical timing
    /// decisions in the same order, but every per-issue lookup (operand
    /// ranges, pipe, classification) comes precomputed from the
    /// [`MicroPlan`], lane execution runs on raw GRF bytes, and send
    /// bookkeeping reuses the EU's [`LaneScratch`] instead of allocating.
    #[allow(clippy::too_many_arguments)]
    fn try_issue_plan(
        &mut self,
        i: usize,
        now: u64,
        cfg: &GpuConfig,
        engine: &dyn CompactionEngine,
        plans: &DecodedProgram,
        mem: &mut MemSystem,
        img: &mut MemoryImage,
        slm: &mut MemoryImage,
        barrier_arrivals: &mut Vec<usize>,
        recording: bool,
    ) -> IssueOutcome {
        let Self {
            id,
            slots,
            occupied,
            resident,
            fpu_free,
            em_free,
            icache,
            icache_set,
            scratch,
            tally_memo,
            stats,
            ..
        } = self;
        let eu_id = *id;
        let Some(t) = slots[i].as_mut() else {
            return IssueOutcome::Barrier; // empty slot: nothing to do, no bound
        };
        if t.at_barrier {
            return IssueOutcome::Barrier;
        }
        if t.stalled_until > now {
            let cause = match t.stalled_src {
                StallSrc::FrontEnd => StallCause::FrontEnd,
                StallSrc::Mem => StallCause::MemLatency,
            };
            return IssueOutcome::NotReadyUntil(t.stalled_until, StallReason::Stalled, cause);
        }

        // Skip zero-mask ALU/send instructions for free (jump-over).
        let mut guard = 0usize;
        let (plan, mask) = loop {
            let plan = plans.plan(t.ctx.pc);
            let mask = plan.exec_mask(&t.ctx);
            if plan.is_data() && mask.is_empty() {
                let skip_pc = t.ctx.pc;
                t.ctx.pc += 1;
                stats.skipped_zero_mask += 1;
                if recording && cfg.profile_insns {
                    stats.insn_profile.record_skip(skip_pc);
                }
                guard += 1;
                assert!(guard <= plans.len() * 2, "runaway zero-mask skipping");
                continue;
            }
            break (plan, mask);
        };

        let pc = t.ctx.pc;

        // Scoreboard.
        let (ready, dep_from_mem) = if t.busy_max <= now {
            (0, false) // every scoreboard mark already expired
        } else {
            t.deps_ready_at_plan(plan)
        };
        if ready > now {
            let cause = if dep_from_mem {
                StallCause::MemLatency
            } else {
                StallCause::ScoreboardDep
            };
            return IssueOutcome::NotReadyUntil(ready, StallReason::Scoreboard, cause);
        }
        // Instruction fetch: a cold I$ line stalls the thread once.
        let fetch_stall = ifetch_check(icache, icache_set, &mut stats.icache_misses, pc, cfg);
        if fetch_stall > 0 {
            t.stalled_until = now + fetch_stall;
            t.stalled_src = StallSrc::FrontEnd;
            return IssueOutcome::NotReadyUntil(
                now + fetch_stall,
                StallReason::Ifetch,
                StallCause::FrontEnd,
            );
        }
        // Pipe availability for computation.
        match plan.pipe() {
            Pipe::Fpu if *fpu_free > now => {
                return IssueOutcome::NotReadyUntil(
                    *fpu_free,
                    StallReason::PipeBusy,
                    StallCause::PipeBusy,
                )
            }
            Pipe::Em if *em_free > now => {
                return IssueOutcome::NotReadyUntil(
                    *em_free,
                    StallReason::PipeBusy,
                    StallCause::PipeBusy,
                )
            }
            _ => {}
        }
        // EOT drains outstanding memory.
        if plan.is_eot() && t.last_mem_done > now {
            return IssueOutcome::NotReadyUntil(
                t.last_mem_done,
                StallReason::MemDrain,
                StallCause::MemLatency,
            );
        }

        let effect = execute_plan(&mut t.ctx, plan, mask, img, slm, scratch);
        stats.issued += 1;
        if recording {
            record_issue_event(
                stats, cfg, engine, eu_id, i as u8, now, pc, mask, plan, effect,
            );
        }

        match effect {
            PlanEffect::Compute(pipe) => {
                let mut waves = u64::from(engine.cycles(mask, plan.dtype()));
                if cfg.rf_timing == crate::config::RfTiming::MultiCycle {
                    // A single-ported file serializes one register-half
                    // access per operand ahead of execution (§4.3 option 1).
                    waves += plan.n_grf_operands();
                }
                let (pipe_free, depth) = match pipe {
                    Pipe::Fpu => (&mut *fpu_free, cfg.fpu_latency),
                    Pipe::Em => (&mut *em_free, cfg.em_latency),
                    _ => unreachable!("compute on non-ALU pipe"),
                };
                *pipe_free = now + waves;
                let writeback = now + waves + u64::from(depth);
                t.mark_range(plan.dst_range(), writeback, false);
                if let Some(f) = plan.cond_flag() {
                    t.flag_busy[usize::from(f)] = writeback;
                    t.busy_max = t.busy_max.max(writeback);
                }
                match pipe {
                    Pipe::Fpu => stats.fpu_waves += waves,
                    Pipe::Em => stats.em_waves += waves,
                    _ => {}
                }
                let d = tally_memo.delta(mask, plan.dtype());
                stats.compute_tally.add_delta(&d);
                stats.simd_tally.add_delta(&d);
            }
            PlanEffect::Memory { space, is_store } => {
                stats.sends += 1;
                let d = tally_memo.delta(mask, plan.dtype());
                stats.simd_tally.add_delta(&d);
                let done = match space {
                    MemSpace::Global => {
                        let addrs = &scratch.addrs[..usize::from(scratch.len)];
                        mem.coalesce_into(addrs, &mut scratch.lines);
                        mem.global_access(now, &scratch.lines, is_store)
                    }
                    MemSpace::Slm => mem.slm_access(now, scratch.addrs()),
                };
                t.last_mem_done = t.last_mem_done.max(done);
                if !is_store {
                    t.mark_range(plan.dst_range(), done, true);
                }
            }
            PlanEffect::Fence => {
                t.stalled_until = t.last_mem_done;
                t.stalled_src = StallSrc::Mem;
            }
            PlanEffect::Barrier => {
                t.at_barrier = true;
                barrier_arrivals.push(t.wg);
            }
            PlanEffect::Eot => {
                slots[i] = None;
                *occupied &= !(1 << i);
                *resident -= 1;
                return IssueOutcome::Finished;
            }
            PlanEffect::ControlFlow => {}
        }
        IssueOutcome::Issued
    }

    /// One arbitration pass (invoked every cycle): issues up to
    /// `cfg.issue_per_cycle` instructions from distinct ready threads,
    /// rotating priority. The default of 1 is the paper's "two instructions
    /// every two cycles" bandwidth at single-cycle granularity.
    ///
    /// Returns an [`ArbResult`]: the issue count, retired workgroup
    /// threads, the earliest future time at which some blocked thread
    /// becomes ready (`None` when all blocked threads wait on barriers),
    /// and — when nothing issued — the root [`StallCause`] blocking the EU.
    ///
    /// When `plans` is provided (the decoded backend), issue runs through
    /// [`MicroPlan`]s; otherwise the reference interpreter re-inspects
    /// `program` per issue. Both paths make identical timing decisions.
    #[allow(clippy::too_many_arguments)]
    pub fn arbitrate(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        engine: &dyn CompactionEngine,
        program: &Program,
        plans: Option<&DecodedProgram>,
        mem: &mut MemSystem,
        img: &mut MemoryImage,
        slms: &mut [MemoryImage],
        barrier_arrivals: &mut Vec<usize>,
    ) -> ArbResult {
        // Replay a still-valid fully-blocked verdict without touching any
        // slot: nothing this EU can observe has changed since the scan
        // that produced it.
        if let Some(m) = &self.arb_memo {
            if m.epoch == self.epoch && now < m.valid_until {
                self.stats.stalls.merge(&m.stalls_delta);
                return ArbResult {
                    issued: 0,
                    finished: Vec::new(),
                    hint: m.hint,
                    blocked: m.blocked,
                };
            }
        }
        let n = self.slots.len();
        let mut issued = 0u32;
        let mut finished = Vec::new();
        let mut hint: Option<u64> = None;
        // Soonest-ready blocked thread (strictly-earlier wins; ties keep
        // the thread visited first in arbitration order) and whether any
        // thread sat at a barrier, for root-cause attribution.
        let mut soonest: Option<(u64, StallCause)> = None;
        let mut saw_barrier = false;
        let mut stall_delta = StallStats::default();
        let recording = cfg.profile_insns || cfg.record_issue_log || cfg.capture_masks;
        let mut next = self.arb_ptr;
        for _ in 0..n {
            if issued >= cfg.issue_per_cycle {
                break;
            }
            let i = next;
            next = if next + 1 == n { 0 } else { next + 1 };
            if self.occupied >> i & 1 == 0 {
                continue;
            }
            // Replay a still-valid blocked verdict without re-running the
            // issue attempt — or touching the slot's thread state at all
            // (skipped under recording so per-pc stall profiles keep their
            // slow-path granularity).
            if !recording {
                let p = self.polls[i];
                if p.until > now {
                    stall_delta.add(p.reason);
                    hint = Some(hint.map_or(p.until, |h| h.min(p.until)));
                    if soonest.is_none_or(|(best, _)| p.until < best) {
                        soonest = Some((p.until, p.cause));
                    }
                    continue;
                }
            }
            let Some(t) = self.slots[i].as_ref() else {
                continue;
            };
            let wg = t.wg;
            let slm = &mut slms[t.slm_slot];
            let outcome = match plans {
                Some(p) => self.try_issue_plan(
                    i,
                    now,
                    cfg,
                    engine,
                    p,
                    mem,
                    img,
                    slm,
                    barrier_arrivals,
                    recording,
                ),
                None => self.try_issue(
                    i,
                    now,
                    cfg,
                    engine,
                    program,
                    mem,
                    img,
                    slm,
                    barrier_arrivals,
                ),
            };
            match outcome {
                IssueOutcome::Issued => {
                    issued += 1;
                    self.arb_ptr = next;
                }
                IssueOutcome::Finished => {
                    issued += 1;
                    finished.push(wg);
                    self.arb_ptr = next;
                }
                IssueOutcome::NotReadyUntil(at, reason, cause) => {
                    stall_delta.add(reason);
                    hint = Some(hint.map_or(at, |h| h.min(at)));
                    if soonest.is_none_or(|(best, _)| at < best) {
                        soonest = Some((at, cause));
                    }
                    self.polls[i] = SlotPoll {
                        until: at,
                        // Cache what a *repeated* fresh attempt would report:
                        // an I$ miss is charged as `Ifetch` once, then the
                        // thread sits behind `stalled_until`, which reports
                        // plain `Stalled`.
                        reason: if matches!(reason, StallReason::Ifetch) {
                            StallReason::Stalled
                        } else {
                            reason
                        },
                        cause,
                    };
                }
                IssueOutcome::Barrier => saw_barrier = true,
            }
        }
        let blocked = if issued > 0 {
            None
        } else if let Some((_, cause)) = soonest {
            Some(cause)
        } else if saw_barrier {
            Some(StallCause::Barrier)
        } else {
            Some(StallCause::Drained)
        };
        self.stats.stalls.merge(&stall_delta);
        // A scan that issued nothing replays unchanged until the soonest
        // blocked thread becomes ready (with no timed waiter, until a
        // barrier release or dispatch bumps the epoch).
        self.arb_memo = if issued == 0 && !recording {
            Some(ArbMemo {
                valid_until: hint.unwrap_or(u64::MAX),
                epoch: self.epoch,
                // A repeated pass reports an I$ miss charged this pass as a
                // plain fence wait (see `steady_delta_since`).
                stalls_delta: stall_delta.steady_delta_since(&StallStats::default()),
                hint,
                blocked,
            })
        } else {
            None
        };
        ArbResult {
            issued,
            finished,
            hint,
            blocked,
        }
    }
}
