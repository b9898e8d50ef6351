//! The deterministic counter blocks repeat exactly: across two runs, and
//! across 1 and 2 threads where the workload can use both. Inputs are cut
//! down from the benchmark's so the suite stays quick; run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use iwc_perfbench::sim_catalog::{build_catalog, cells, SimCounters};
use iwc_perfbench::spans::Tracer;
use iwc_perfbench::{corpus_fresh, out_dir, serve_mix};
use iwc_sim::GpuConfig;
use iwc_trace::analyze_pack_file;
use iwc_workloads::Built;

/// Summed counters of `cells` of `built`, split over `threads` threads.
fn sim_counters(built: &[Built], threads: usize) -> SimCounters {
    let all = cells(built.len());
    let chunk = all.len().div_ceil(threads);
    let parts: Vec<SimCounters> = std::thread::scope(|s| {
        let handles: Vec<_> = all
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut total = SimCounters::default();
                    for c in part {
                        let cfg = GpuConfig::paper_default().with_compaction(c.engine);
                        let r = built[c.kernel].run_checked(&cfg).expect("cell runs");
                        total.add(&SimCounters::of(&r));
                    }
                    total
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let mut total = SimCounters::default();
    for p in &parts {
        total.add(p);
    }
    total
}

#[test]
fn sim_counters_repeat_across_runs_and_threads() {
    // The non-ray-tracing kernels: every layer but the RT-heavy tail.
    let built: Vec<Built> = build_catalog(&Tracer::new(false), None)
        .into_iter()
        .filter(|b| !b.name.starts_with("RT-"))
        .collect();
    let first = sim_counters(&built, 1);
    assert!(first.cycles > 0 && first.issued > 0);
    assert_eq!(first, sim_counters(&built, 1), "two serial runs");
    assert_eq!(first, sim_counters(&built, 2), "1 vs 2 threads");
    let stalls: u64 = first.stalls.iter().sum();
    assert_eq!(first.issue_cycles + stalls, first.eu_cycles);
}

#[test]
fn corpus_counters_repeat_across_runs_and_threads() {
    let profiles = corpus_fresh::profiles(3, 24);
    let counters = |name: &str, threads: usize| {
        let path = out_dir().join(format!("test-{}-{name}.iwcc", std::process::id()));
        corpus_fresh::generate(&path, &profiles, 4000).expect("pack written");
        let reports = analyze_pack_file(&path, threads).expect("pack analysed");
        let pack = iwc_trace::CorpusPack::open_path(&path).expect("pack opens");
        let c = corpus_fresh::counters(&pack, &reports);
        let bytes = std::fs::read(&path).expect("pack readable");
        std::fs::remove_file(&path).expect("pack removed");
        (c, bytes)
    };
    let (a, pack_a) = counters("a", 1);
    let (b, pack_b) = counters("b", 1);
    let (c, _) = counters("c", 2);
    assert_eq!(pack_a, pack_b, "generation is a pure function of the seed");
    assert_eq!(a, b, "two runs");
    assert_eq!(a, c, "1 vs 2 threads");
    assert_eq!(a["trace.records"], 24 * 4000);
    // Another seed makes another corpus.
    let other = corpus_fresh::profiles(4, 24);
    assert_ne!(profiles[0].seed, other[0].seed);
}

#[test]
fn serve_sequence_and_bodies_repeat_across_runs_and_workers() {
    let (jobs, seq) = serve_mix::sequence(5).expect("direct runs");
    let (again, seq_again) = serve_mix::sequence(5).expect("direct runs");
    assert_eq!(seq, seq_again);
    assert_eq!(seq.len(), serve_mix::PERIOD);
    for block in seq.chunks(serve_mix::BLOCK) {
        let traces = block.iter().filter(|&&j| jobs[j].kind == "trace").count();
        assert_eq!(traces, 1, "one trace job per block");
    }
    for j in 0..serve_mix::KERNELS {
        let n = seq.iter().filter(|&&x| x == j).count();
        assert_eq!(
            n,
            serve_mix::PERIOD / serve_mix::BLOCK * 7 / serve_mix::KERNELS
        );
    }
    for (a, b) in jobs.iter().zip(&again) {
        assert_eq!(
            (a.kind, &a.body, &a.expected),
            (b.kind, &b.body, &b.expected)
        );
    }
    let (_, other) = serve_mix::sequence(6).expect("direct runs");
    assert_ne!(seq, other, "the seed orders the sequence");
    let served = |workers: usize| {
        let d = serve_mix::Daemon::start(workers).expect("daemon binds");
        let samples = serve_mix::each_job(d.addr, &jobs, &Tracer::new(false), None);
        d.stop().expect("daemon drains");
        assert!(
            samples.iter().all(|s| s.ok),
            "served results match direct runs"
        );
        let counters = serve_mix::counters(&jobs, &seq, &samples);
        let bodies: Vec<String> = samples.into_iter().map(|s| s.body.expect("kept")).collect();
        (counters, bodies)
    };
    let one = served(1);
    assert_eq!(one, served(1), "two runs");
    assert_eq!(one, served(2), "1 vs 2 workers");
}

#[test]
fn a_doctored_expected_value_fails_verification() {
    let (jobs, _) = serve_mix::sequence(5).expect("direct runs");
    let job = jobs
        .iter()
        .find(|j| j.kind == "workload")
        .expect("a workload job");
    let d = serve_mix::Daemon::start(1).expect("daemon binds");
    let body = iwc_serve::client::post(d.addr, "/v1/jobs", &job.body)
        .expect("request")
        .body;
    d.stop().expect("daemon drains");
    assert_eq!(serve_mix::verify(&body, &job.expected), Ok(()));
    let serve_mix::Expected::Workload(mut want) = job.expected.clone() else {
        unreachable!("workload job")
    };
    want[0].0 += 1;
    assert!(serve_mix::verify(&body, &serve_mix::Expected::Workload(want)).is_err());
}
