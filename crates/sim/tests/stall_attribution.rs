//! Directed stall-attribution tests: one micro-kernel per reachable
//! [`StallCause`], each built so a single root cause dominates, plus the
//! accounting identity every report rests on — `issue_cycles +
//! stall_causes.total() == eu_cycles`, i.e. every non-issuing EU cycle is
//! charged to exactly one cause (DESIGN.md §7.2).

use iwc_isa::builder::KernelBuilder;
use iwc_isa::insn::CondOp;
use iwc_isa::reg::{FlagReg, Operand, Predicate};
use iwc_isa::{MemSpace, Program};
use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage, SimResult};

fn run(p: Program, cfg: &GpuConfig, global: u32, wg: u32) -> SimResult {
    let mut img = MemoryImage::new(1 << 20);
    simulate(cfg, &Launch::new(p, global, wg), &mut img).expect("simulation completes")
}

/// Instruction fetch is perfect (`icache_miss_latency = 0`), so the front
/// end never pollutes the cause under test.
fn warm_frontend(mut cfg: GpuConfig) -> GpuConfig {
    cfg.icache_miss_latency = 0;
    cfg
}

/// The accounting identity behind every stall report: each EU is charged
/// every launch cycle, and each non-issuing cycle lands in exactly one
/// [`iwc_sim::StallCause`] bucket.
fn assert_exhaustive(r: &SimResult, cfg: &GpuConfig) {
    assert_eq!(
        r.eu.eu_cycles,
        u64::from(cfg.eus) * r.cycles,
        "every EU sees every launch cycle"
    );
    assert_eq!(
        r.eu.issue_cycles + r.eu.stall_causes.total(),
        r.eu.eu_cycles,
        "attribution must cover exactly the non-issue cycles: {:?}",
        r.eu.stall_causes
    );
}

/// Straight-line code on a cold I$: every static instruction misses once,
/// so instruction delivery is the dominant stall.
#[test]
fn front_end_charged_for_cold_icache() {
    let mut b = KernelBuilder::new("fe", 16);
    for i in 0..8u8 {
        b.mov(Operand::rud(6 + 2 * i), Operand::imm_ud(u32::from(i)));
    }
    let cfg = GpuConfig::single_eu();
    assert!(cfg.icache_miss_latency > 0, "test needs a real I$");
    let r = run(b.finish().unwrap(), &cfg, 16, 16);
    assert_exhaustive(&r, &cfg);
    let s = &r.eu.stall_causes;
    assert!(s.front_end > 0, "cold fetches must be charged: {s:?}");
    assert!(
        s.front_end >= s.total() - s.drained - s.front_end,
        "instruction delivery should dominate a straight-line cold-I$ run: {s:?}"
    );
}

/// A serially dependent FPU chain: each `mad` reads the previous result,
/// so the scoreboard (not the pipe) is the binding constraint.
#[test]
fn scoreboard_dep_charged_for_dependent_chain() {
    let mut b = KernelBuilder::new("dep", 16);
    b.mov(Operand::rf(8), Operand::imm_f(1.0));
    for _ in 0..8 {
        b.mad(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f(1.0001),
            Operand::imm_f(0.25),
        );
    }
    let cfg = warm_frontend(GpuConfig::single_eu());
    let r = run(b.finish().unwrap(), &cfg, 16, 16);
    assert_exhaustive(&r, &cfg);
    let s = &r.eu.stall_causes;
    assert!(
        s.scoreboard_dep > 0,
        "result dependences must be charged: {s:?}"
    );
    assert_eq!(s.front_end, 0, "perfect I$ leaves nothing to the front end");
    assert_eq!(s.mem_latency, 0, "no memory traffic in this kernel: {s:?}");
}

/// Load-to-use: the consumer waits out the L3 round trip, charged to
/// memory latency (not the generic scoreboard bucket).
#[test]
fn mem_latency_charged_for_load_use() {
    let mut b = KernelBuilder::new("ld", 16);
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.load(MemSpace::Global, Operand::rf(8), Operand::rud(6));
    b.mad(
        Operand::rf(10),
        Operand::rf(8),
        Operand::imm_f(2.0),
        Operand::imm_f(1.0),
    );
    let cfg = warm_frontend(GpuConfig::single_eu());
    let r = run(b.finish().unwrap(), &cfg, 16, 16);
    assert_exhaustive(&r, &cfg);
    let s = &r.eu.stall_causes;
    assert!(
        s.mem_latency > 0,
        "the load-use wait must be charged: {s:?}"
    );
}

/// Independent wide ops back to back: operands are ready, but each SIMD16
/// op occupies the 4-wide FPU for 4 waves, so issue blocks on the pipe.
#[test]
fn pipe_busy_charged_for_independent_wide_ops() {
    let mut b = KernelBuilder::new("pipe", 16);
    b.mov(Operand::rf(8), Operand::imm_f(1.0));
    b.mov(Operand::rf(10), Operand::imm_f(2.0));
    for i in 0..4 {
        b.mad(
            Operand::rf(12 + 2 * i),
            Operand::rf(8),
            Operand::imm_f(1.5),
            Operand::imm_f(0.5),
        );
        b.mad(
            Operand::rf(20 + 2 * i),
            Operand::rf(10),
            Operand::imm_f(0.5),
            Operand::imm_f(1.5),
        );
    }
    let cfg = warm_frontend(GpuConfig::single_eu());
    let r = run(b.finish().unwrap(), &cfg, 16, 16);
    assert_exhaustive(&r, &cfg);
    let s = &r.eu.stall_causes;
    assert!(s.pipe_busy > 0, "pipe occupancy must be charged: {s:?}");
}

/// A tiny launch on the full 6-EU machine: the five EUs that never receive
/// a workgroup are charged `Drained` for the whole run.
#[test]
fn drained_charged_for_idle_eus() {
    let mut b = KernelBuilder::new("tiny", 16);
    b.mov(Operand::rud(6), Operand::imm_ud(7));
    let cfg = GpuConfig::paper_default();
    let r = run(b.finish().unwrap(), &cfg, 16, 16);
    assert_exhaustive(&r, &cfg);
    let s = &r.eu.stall_causes;
    assert!(
        s.drained >= u64::from(cfg.eus - 1) * r.cycles,
        "idle EUs must be charged Drained every cycle: {s:?} over {} cycles",
        r.cycles
    );
}

/// Barrier kernel with a divergence-staggered arrival: the attribution
/// stays exhaustive, and the two structurally-zero buckets stay zero.
/// `Barrier` cannot be charged in this dispatch model — a workgroup is
/// co-resident on one EU and releases in the same cycle its last thread
/// issues the barrier (an issue cycle), so an EU is never parked with
/// *every* thread at a barrier. `SendQueueFull` is likewise reserved (the
/// send queue is unbounded here). Both are kept in the taxonomy for
/// schema fidelity; see DESIGN.md §7.2.
#[test]
fn barrier_and_send_queue_stay_structurally_zero() {
    let mut b = KernelBuilder::new("bar", 16);
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(63));
    b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(6), Operand::imm_ud(5));
    b.mov(Operand::rf(8), Operand::imm_f(1.5));
    b.if_(Predicate::normal(FlagReg::F0));
    for _ in 0..12 {
        b.mad(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f(1.0001),
            Operand::imm_f(0.25),
        );
    }
    b.end_if();
    b.barrier();
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.store(MemSpace::Global, Operand::rud(6), Operand::rf(8));
    let cfg = GpuConfig::paper_default();
    let r = run(b.finish().unwrap(), &cfg, 64, 64);
    assert_exhaustive(&r, &cfg);
    let s = &r.eu.stall_causes;
    assert_eq!(
        s.barrier, 0,
        "barrier release lands in an issue cycle: {s:?}"
    );
    assert_eq!(s.send_queue_full, 0, "send queue is unbounded: {s:?}");
}

/// The breakdown survives aggregation: running the same kernel on more
/// workgroups scales `eu_cycles` with the EU count while keeping the
/// identity intact per launch.
#[test]
fn attribution_exhaustive_across_modes() {
    use iwc_compaction::CompactionMode;
    let mut b = KernelBuilder::new("mix", 16);
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(15));
    b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(6), Operand::imm_ud(3));
    b.mov(Operand::rf(8), Operand::imm_f(1.5));
    b.if_(Predicate::normal(FlagReg::F0));
    for _ in 0..6 {
        b.mad(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f(1.0001),
            Operand::imm_f(0.25),
        );
    }
    b.end_if();
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.store(MemSpace::Global, Operand::rud(6), Operand::rf(8));
    let p = b.finish().unwrap();
    for mode in CompactionMode::ALL {
        let cfg = GpuConfig::paper_default().with_compaction(mode);
        let r = run(p.clone(), &cfg, 256, 64);
        assert_exhaustive(&r, &cfg);
        assert!(r.eu.stall_causes.total() > 0, "{mode}: some cycles stall");
    }
}

/// Stall spans (the interval log trace export reads) tile every
/// non-issuing EU cycle, including the spans the simulation loop jumps
/// over when no EU can issue: per EU, spans are non-empty, disjoint, in
/// order, within the run, and their lengths sum to the non-issue cycles.
#[test]
fn stall_spans_tile_every_non_issue_cycle() {
    // A memory-bound kernel on every EU: each lane loads its own line.
    let mut b = KernelBuilder::new("spans", 16);
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(8));
    b.load(MemSpace::Global, Operand::rud(8), Operand::rud(6));
    b.add(Operand::rud(8), Operand::rud(8), Operand::imm_ud(1));
    b.store(MemSpace::Global, Operand::rud(6), Operand::rud(8));
    let cfg = GpuConfig::paper_default().with_issue_log(true);
    let r = run(b.finish().unwrap(), &cfg, 6 * 96, 96);
    assert_exhaustive(&r, &cfg);
    assert!(
        r.eu.stall_causes.mem_latency > 0,
        "run must be memory-bound"
    );
    let eus = cfg.eus as usize;
    let mut covered = vec![0u64; eus];
    let mut last_end = vec![0u64; eus];
    for s in &r.eu.stall_log {
        let i = s.eu as usize;
        assert!(s.len >= 1, "empty span on EU {i}");
        assert!(
            s.start >= last_end[i],
            "EU {i}: span at {} overlaps previous ending at {}",
            s.start,
            last_end[i]
        );
        assert!(
            s.start + s.len <= r.cycles,
            "EU {i}: span [{}, {}) exceeds run length {}",
            s.start,
            s.start + s.len,
            r.cycles
        );
        last_end[i] = s.start + s.len;
        covered[i] += s.len;
    }
    assert_eq!(
        covered.iter().sum::<u64>(),
        r.eu.eu_cycles - r.eu.issue_cycles,
        "stall spans must tile every non-issuing EU cycle"
    );
}
