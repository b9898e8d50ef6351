//! Differential equivalence of the two functional interpreters.
//!
//! The decoded micro-op plans (`iwc_sim::plan`, the production backend)
//! must reproduce the reference interpreter's [`SimResult`] **exactly** —
//! cycles, every counter, the embedded telemetry snapshot — and leave a
//! byte-identical global-memory image, for every workload in the catalog
//! under every canonical compaction engine. Any divergence between the
//! raw-byte lane loops and the `Scalar` round-trip semantics shows up here
//! as a failed equality, not a subtle drift in published figures.
//!
//! The always-on tests cover a representative slice plus directed kernels
//! for each dtype fast path (F, D, and a generic-fallback dtype) and for
//! the simulation loop's event-ordering edge cases (several EUs unblocking
//! on one cycle, a thread ready on the very next cycle, a barrier release
//! racing memory completions); the full catalog × engine grid is
//! release-gated like the other suite sweeps.

use iwc_compaction::EngineId;
use iwc_isa::{DataType, KernelBuilder, MemSpace, Operand};
use iwc_sim::{simulate, ExecBackend, GpuConfig, Launch, MemoryImage};
use iwc_workloads::{catalog, Built};

fn assert_images_equal(a: &MemoryImage, b: &MemoryImage, ctx: &str) {
    assert_eq!(a.capacity(), b.capacity(), "{ctx}: image capacity");
    let words = a.capacity() / 4;
    for w in 0..words {
        let addr = w * 4;
        assert_eq!(
            a.read_u32(addr),
            b.read_u32(addr),
            "{ctx}: memory diverged at byte {addr:#x}"
        );
    }
    for addr in words * 4..a.capacity() {
        assert_eq!(
            a.read_scalar(addr, DataType::Ub),
            b.read_scalar(addr, DataType::Ub),
            "{ctx}: memory diverged at tail byte {addr:#x}"
        );
    }
}

/// Runs `built` under both backends with otherwise identical configs and
/// asserts result + memory equivalence.
fn assert_backends_equivalent(built: &Built, cfg: &GpuConfig, ctx: &str) {
    let (decoded, img_decoded) = built
        .run(&cfg.with_exec(ExecBackend::Decoded))
        .unwrap_or_else(|e| panic!("{ctx}: decoded run failed: {e}"));
    let (reference, img_reference) = built
        .run(&cfg.with_exec(ExecBackend::Reference))
        .unwrap_or_else(|e| panic!("{ctx}: reference run failed: {e}"));
    assert_eq!(decoded, reference, "{ctx}: SimResult diverged");
    assert_images_equal(&img_decoded, &img_reference, ctx);
}

fn sweep(names: Option<&[&str]>) {
    let entries = catalog();
    let picked: Vec<_> = match names {
        Some(names) => names
            .iter()
            .map(|n| {
                entries
                    .iter()
                    .find(|e| &e.name == n)
                    .unwrap_or_else(|| panic!("workload {n} not in catalog"))
            })
            .collect(),
        None => entries.iter().collect(),
    };
    for entry in picked {
        let built = (entry.build)(1);
        for engine in EngineId::CANONICAL {
            let cfg = GpuConfig::paper_default().with_compaction(engine);
            assert_backends_equivalent(&built, &cfg, &format!("{} under {engine}", entry.name));
        }
    }
}

/// Representative slice — coherent, branch-divergent, and memory-divergent
/// workloads — under all four canonical engines. Always on.
#[test]
fn decoded_matches_reference_on_representative_workloads() {
    sweep(Some(&["VA", "Bsearch", "BFS"]));
}

/// The whole catalog under all four canonical engines. Release builds
/// only: this doubles the `fig3` grid (each cell runs twice), minutes of
/// sim in debug.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full catalog x engine grid, twice; run with cargo test --release"
)]
fn decoded_matches_reference_across_the_whole_suite() {
    sweep(None);
}

/// Recording features (mask capture, issue log, instruction profiles) must
/// also be byte-identical — they take the outlined cold path in the
/// decoded backend.
#[test]
fn decoded_matches_reference_with_recording_enabled() {
    let entries = catalog();
    let entry = entries
        .iter()
        .find(|e| e.name == "Bsearch")
        .expect("Bsearch in catalog");
    let built = (entry.build)(1);
    let cfg = GpuConfig::paper_default()
        .with_mask_capture(true)
        .with_issue_log(true)
        .with_insn_profile(true);
    assert_backends_equivalent(&built, &cfg, "Bsearch with recording");
}

/// Runs `launch` from `init` under both backends and asserts result +
/// memory equivalence.
fn assert_launch_equivalent(launch: &Launch, cfg: &GpuConfig, init: &MemoryImage, ctx: &str) {
    let run = |exec: ExecBackend| {
        let mut img = init.clone();
        let r = simulate(&cfg.with_exec(exec), launch, &mut img)
            .unwrap_or_else(|e| panic!("{ctx}: {exec:?} run failed: {e}"));
        (r, img)
    };
    let (decoded, img_decoded) = run(ExecBackend::Decoded);
    let (reference, img_reference) = run(ExecBackend::Reference);
    assert_eq!(decoded, reference, "{ctx}: SimResult diverged");
    assert_images_equal(&img_decoded, &img_reference, ctx);
}

/// Directed kernel per dtype path, run under both backends: F and D take
/// the specialized raw-byte loops, Uw falls back to the generic lane loop.
fn run_both(program: iwc_isa::Program, global: u32, wg: u32, args: &[u32], init: &MemoryImage) {
    let name = program.name().to_string();
    let launch = Launch::new(program, global, wg).with_args(args);
    assert_launch_equivalent(&launch, &GpuConfig::paper_default(), init, &name);
}

#[test]
fn directed_float_fast_path() {
    // Exercises mad/mul/min/frc/rsqrt on F data including negatives,
    // subnormal-ish magnitudes and a NaN-producing rsqrt(-x).
    let mut img = MemoryImage::new(1 << 16);
    let n = 64u32;
    let src: Vec<f32> = (0..n).map(|i| (i as f32 - 31.5) * 0.75e-3).collect();
    let a = img.alloc_f32(&src);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("directed_f", 16);
    let addr = Operand::rud(10);
    let x = Operand::rf(12);
    let y = Operand::rf(14);
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.load(MemSpace::Global, x, addr);
    b.mad(y, x, x, Operand::imm_f(0.125));
    b.mul(y, y, Operand::imm_f(-3.5));
    b.min(y, y, x);
    b.op(iwc_isa::Opcode::Frc, Operand::rf(16), &[y]);
    b.math(iwc_isa::Opcode::Rsqrt, Operand::rf(18), x);
    b.add(y, y, Operand::rf(18));
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 1, DataType::Ud),
    );
    b.store(MemSpace::Global, addr, y);
    run_both(b.finish().unwrap(), n, 16, &[a, out], &img);
}

#[test]
fn directed_signed_fast_path() {
    // Signed D arithmetic with wrapping, shifts with oversized amounts,
    // and division by zero (defined as 0).
    let mut img = MemoryImage::new(1 << 16);
    let n = 64u32;
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("directed_d", 16);
    let x = Operand::rd(12);
    let y = Operand::rd(14);
    b.mov(x, Operand::rd(1));
    b.sub(x, x, Operand::imm_d(32));
    b.mul(y, x, Operand::imm_d(0x4000_0001));
    b.shl(y, y, Operand::imm_d(70)); // masked to 6 bits
    b.op(iwc_isa::Opcode::Asr, y, &[y, Operand::imm_d(3)]);
    b.op(iwc_isa::Opcode::Idiv, Operand::rd(16), &[y, x]); // hits x == 0
    b.add(y, y, Operand::rd(16));
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), y);
    run_both(b.finish().unwrap(), n, 16, &[out], &img);
}

#[test]
fn directed_generic_fallback_uw() {
    // Uw (16-bit unsigned) has no specialized loop: the decoded backend
    // must route it through the generic read_lane/eval/write_lane path
    // with identical narrowing.
    let mut img = MemoryImage::new(1 << 16);
    let n = 32u32;
    let out = img.alloc(n * 4);

    let w = |reg| Operand::reg(reg, DataType::Uw);
    let mut b = KernelBuilder::new("directed_uw", 8);
    b.op(iwc_isa::Opcode::Mov, w(12), &[Operand::rud(1)]);
    b.op(
        iwc_isa::Opcode::Mad,
        w(12),
        &[w(12), w(12), Operand::imm_ud(0xFFF7)],
    );
    b.op(iwc_isa::Opcode::Mov, Operand::rud(14), &[w(12)]);
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), Operand::rud(14));
    run_both(b.finish().unwrap(), n, 8, &[out], &img);
}

/// A load-then-compute kernel on `wgs` full-EU workgroups (6 threads of
/// SIMD16 each, so consecutive workgroups land on distinct EUs): every EU
/// blocks on memory, and the shared data cluster staggers the completion
/// times — including distinct EUs whose completions land on the same cycle.
fn load_compute_kernel(wgs: u32, stride: u32) -> (Launch, MemoryImage) {
    let n = wgs * 96; // 6 SIMD16 threads per workgroup
    let mut img = MemoryImage::new(1 << 22);
    let src: Vec<u32> = (0..n * stride.max(1)).map(|i| i * 3 + 7).collect();
    let a = img.alloc_u32(&src);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("load_compute", 16);
    let addr = Operand::rud(10);
    let x = Operand::rud(12);
    // addr = a + 4 * stride * gid  (stride spreads accesses over lines)
    b.mul(addr, Operand::rud(1), Operand::imm_ud(4 * stride.max(1)));
    b.add(addr, addr, Operand::scalar(3, 0, DataType::Ud));
    b.load(MemSpace::Global, x, addr);
    b.mul(x, x, Operand::imm_ud(5));
    b.add(x, x, Operand::imm_ud(1));
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 1, DataType::Ud),
    );
    b.store(MemSpace::Global, addr, x);
    let launch = Launch::new(b.finish().unwrap(), n, 96).with_args(&[a, out]);
    (launch, img)
}

/// Two (and more) EUs blocked on identical memory latencies become ready
/// on the same cycle; arbitration proceeds in EU-id order.
#[test]
fn directed_simultaneous_wakes() {
    for wgs in [2u32, 6] {
        let (launch, img) = load_compute_kernel(wgs, 16);
        let cfg = GpuConfig::paper_default().with_issue_log(true);
        assert_launch_equivalent(&launch, &cfg, &img, &format!("simultaneous x{wgs}"));
    }
}

/// Short-latency dependent ALU chains produce wake-up hints that land on
/// the very next visited cycle.
#[test]
fn directed_next_cycle_wakes() {
    let n = 64u32;
    let mut img = MemoryImage::new(1 << 16);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("next_cycle_chain", 16);
    let x = Operand::rf(12);
    b.mov(x, Operand::imm_f(1.5));
    // Each op depends on the previous: the FPU-latency hints are always
    // `now + small`.
    for _ in 0..6 {
        b.mad(x, x, x, Operand::imm_f(0.25));
    }
    b.math(iwc_isa::Opcode::Rsqrt, Operand::rf(14), x);
    b.add(x, x, Operand::rf(14));
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), x);
    let launch = Launch::new(b.finish().unwrap(), n, 16).with_args(&[out]);
    let cfg = GpuConfig::paper_default().with_issue_log(true);
    assert_launch_equivalent(&launch, &cfg, &img, "dependent chain");
}

/// Barrier release racing memory completions: inside each workgroup one
/// divergently-slow load delays the barrier arrival, while other EUs wait
/// on their own timed completions. Swept over strides so the release cycle
/// slides across (and collides with) the memory completions.
#[test]
fn directed_barrier_release_races_memory_completion() {
    for stride in [1u32, 4, 16, 64] {
        let n = 4 * 32u32; // 4 workgroups of 2 threads (SIMD16)
        let mut img = MemoryImage::new(1 << 18);
        let src: Vec<u32> = (0..n * stride).map(|i| i ^ 0x2A).collect();
        let a = img.alloc_u32(&src);
        let out = img.alloc(n * 4);

        let mut b = KernelBuilder::new("barrier_race", 16);
        let addr = Operand::rud(10);
        let x = Operand::rud(12);
        b.mul(addr, Operand::rud(1), Operand::imm_ud(4 * stride));
        b.add(addr, addr, Operand::scalar(3, 0, DataType::Ud));
        b.load(MemSpace::Global, x, addr);
        b.barrier();
        b.add(x, x, Operand::imm_ud(9));
        b.mad(
            addr,
            Operand::rud(1),
            Operand::imm_ud(4),
            Operand::scalar(3, 1, DataType::Ud),
        );
        b.store(MemSpace::Global, addr, x);
        let launch = Launch::new(b.finish().unwrap(), n, 32).with_args(&[a, out]);
        let cfg = GpuConfig::paper_default().with_issue_log(true);
        assert_launch_equivalent(&launch, &cfg, &img, &format!("barrier race s={stride}"));
    }
}
