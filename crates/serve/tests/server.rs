//! End-to-end tests of the serve daemon over real loopback sockets:
//! response byte-identity against direct in-process runs, decode-cache
//! hits, 503 back-pressure under a saturated queue, WebSocket event
//! streaming (with Perfetto payloads), pipelining, and graceful drain.

use iwc_compaction::EngineId;
use iwc_serve::client::{self, WsClient};
use iwc_serve::job::object_after;
use iwc_serve::ws::WsEvent;
use iwc_serve::{ServeConfig, Server, ServerHandle};
use iwc_sim::GpuConfig;
use iwc_telemetry::json::parse;
use iwc_workloads::catalog;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Binds a daemon on an ephemeral port and runs it on a background
/// thread. Returns the address, the control handle, and the join handle
/// whose `Ok` return is the graceful-drain assertion.
fn start(
    workers: usize,
    queue_depth: usize,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        // Keep the workload-job tests hermetic: no disk cache.
        results_cache: None,
        slow_ms: iwc_serve::DEFAULT_SLOW_MS,
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn shutdown(
    addr: SocketAddr,
    handle: &ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
) {
    // Drain over the wire when possible, via the handle as a fallback.
    let _ = client::post(addr, "/shutdown", "");
    handle.shutdown();
    join.join()
        .expect("server thread must not panic")
        .expect("graceful drain returns Ok");
}

#[test]
fn serves_health_catalog_stats_and_404s() {
    let (addr, handle, join) = start(1, 4);

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\":true"));

    let cat = client::get(addr, "/v1/catalog").expect("catalog");
    assert_eq!(cat.status, 200);
    let parsed = parse(&cat.body).expect("valid JSON");
    let names = parsed
        .get("workloads")
        .and_then(|w| w.as_arr())
        .expect("workloads");
    assert_eq!(names.len(), catalog().len());

    let stats = client::get(addr, "/v1/stats").expect("stats");
    assert_eq!(stats.status, 200);
    parse(&stats.body).expect("stats is valid JSON");

    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(client::post(addr, "/healthz", "").expect("405").status, 405);

    shutdown(addr, &handle, join);
}

/// The acceptance bar: a served response carries the same cycles and the
/// byte-identical telemetry snapshot JSON as a direct in-process run, and
/// resubmitting hits the decode cache.
#[test]
fn served_results_match_direct_runs_and_hit_the_cache() {
    let (addr, handle, join) = start(2, 8);

    for name in ["VA", "BFS"] {
        let body = format!("{{\"workload\":\"{name}\",\"engines\":[\"base\",\"scc\"]}}");
        let resp = client::post(addr, "/v1/jobs", &body).expect("job");
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);

        for engine in [EngineId::BASELINE, EngineId::SCC] {
            let built = (catalog()
                .into_iter()
                .find(|e| e.name == name)
                .expect("in catalog")
                .build)(1);
            let direct = built
                .run_checked(&GpuConfig::paper_default().with_compaction(engine))
                .expect("direct run");
            let marker = format!("\"engine\":\"{}\",\"cycles\":", engine.label());
            assert!(
                resp.body.contains(&format!("{marker}{}", direct.cycles)),
                "{name}/{}: cycles differ from direct run",
                engine.label()
            );
            let at = resp.body.find(&marker).expect("engine result present");
            let engine_obj =
                object_after(&resp.body[at..], "\"telemetry\":").expect("telemetry object");
            assert_eq!(
                engine_obj,
                direct.telemetry.to_json(),
                "{name}/{}: served telemetry bytes differ",
                engine.label()
            );
        }
    }

    // Resubmit: same program hashes, so decodes stay put and hits climb.
    let before = handle.stats();
    let resp = client::post(
        addr,
        "/v1/jobs",
        "{\"workload\":\"VA\",\"engines\":[\"base\",\"scc\"]}",
    )
    .expect("resubmission");
    assert_eq!(resp.status, 200);
    let after = handle.stats();
    assert!(
        after.counter("serve/cache/hits").unwrap_or(0)
            > before.counter("serve/cache/hits").unwrap_or(0),
        "resubmission must hit the cache"
    );
    assert_eq!(
        after.counter("serve/cache/decodes"),
        before.counter("serve/cache/decodes"),
        "resubmission must not decode again"
    );
    // Each workload decoded exactly once across both engines.
    assert_eq!(after.counter("serve/cache/decodes"), Some(2));

    shutdown(addr, &handle, join);
}

/// Full catalog × canonical engines over the wire — the exhaustive
/// acceptance sweep, release-gated like the other whole-catalog tests.
#[test]
#[cfg_attr(debug_assertions, ignore = "whole-catalog sweep; run under --release")]
fn full_catalog_sweep_is_byte_identical_over_the_wire() {
    let (addr, handle, join) = start(2, 16);
    for entry in catalog() {
        let body = format!("{{\"workload\":\"{}\"}}", entry.name);
        let resp = client::post(addr, "/v1/jobs", &body).expect("job");
        assert_eq!(resp.status, 200, "{}: {}", entry.name, resp.body);
        let built = (entry.build)(1);
        for engine in EngineId::CANONICAL {
            let direct = built
                .run_checked(&GpuConfig::paper_default().with_compaction(engine))
                .expect("direct run");
            let marker = format!(
                "\"engine\":\"{}\",\"cycles\":{}",
                engine.label(),
                direct.cycles
            );
            let at = resp.body.find(&marker).unwrap_or_else(|| {
                panic!("{}/{}: served cycles differ", entry.name, engine.label())
            });
            assert_eq!(
                object_after(&resp.body[at..], "\"telemetry\":").expect("telemetry"),
                direct.telemetry.to_json(),
                "{}/{}: served telemetry bytes differ",
                entry.name,
                engine.label()
            );
        }
    }
    shutdown(addr, &handle, join);
}

/// A `"pack"` job resolves its trace inside the corpus store, a repeat
/// submission is answered from the content-addressed results cache, and
/// the `serve/results_cache/{hits,misses}` counters surface in
/// `/v1/stats`.
#[test]
fn pack_jobs_are_answered_from_the_results_cache() {
    let dir = std::env::temp_dir().join(format!("iwc-serve-e2e-pack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    std::env::set_var("IWC_CORPUS_DIR", &dir);
    let traces: Vec<iwc_trace::Trace> = iwc_trace::corpus()
        .iter()
        .take(1)
        .map(|p| p.generate(500))
        .collect();
    iwc_trace::pack::write_pack_file(&dir.join("corpus.iwcc"), &traces).expect("pack");

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
        results_cache: Some(dir.join("cache")),
        slow_ms: iwc_serve::DEFAULT_SLOW_MS,
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let body = format!("{{\"pack\":\"{}\"}}", traces[0].name);
    let first = client::post(addr, "/v1/jobs", &body).expect("pack job");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"kind\":\"trace\""), "{}", first.body);

    let second = client::post(addr, "/v1/jobs", &body).expect("repeat job");
    assert_eq!(second.status, 200);
    assert_eq!(
        first.body, second.body,
        "cached body must be byte-identical"
    );

    let stats = client::get(addr, "/v1/stats").expect("stats");
    let parsed = parse(&stats.body).expect("valid JSON");
    let counter = |name: &str| {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_num())
            .unwrap_or_else(|| panic!("{name} missing from /v1/stats: {}", stats.body))
    };
    assert_eq!(counter("serve/results_cache/misses"), 1.0);
    assert!(counter("serve/results_cache/hits") >= 1.0);

    shutdown(addr, &handle, join);
    std::env::remove_var("IWC_CORPUS_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under a saturated queue the daemon answers 503 + Retry-After without
/// dropping any job it accepted.
#[test]
fn saturated_queue_rejects_with_503_and_drops_nothing() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let (addr, handle, join) = start(1, 1);
    let deadline = Instant::now() + Duration::from_secs(60);
    let oks = AtomicU32::new(0);
    let rejects = AtomicU32::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let resp = client::post(
                    addr,
                    "/v1/jobs",
                    "{\"workload\":\"MM\",\"engines\":[\"scc\"]}",
                )
                .expect("request");
                match resp.status {
                    200 => {
                        assert!(resp.body.contains("\"results\":["), "accepted job dropped");
                        oks.fetch_add(1, Ordering::SeqCst);
                    }
                    503 => {
                        assert_eq!(resp.header("retry-after"), Some("1"));
                        rejects.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("unexpected status {other}: {}", resp.body),
                }
                // Stop once the fleet as a whole has seen both outcomes.
                if Instant::now() > deadline
                    || (rejects.load(Ordering::SeqCst) > 0 && oks.load(Ordering::SeqCst) > 0)
                {
                    return;
                }
            });
        }
    });
    let oks = oks.into_inner();
    let rejects = rejects.into_inner();
    assert!(oks > 0, "some jobs must complete");
    assert!(rejects > 0, "a 1-deep queue with 4 clients must reject");
    let snap = handle.stats();
    assert!(snap.counter("serve/rejected").unwrap_or(0) > 0);
    assert_eq!(snap.counter("serve/jobs_ok"), Some(u64::from(oks)));
    shutdown(addr, &handle, join);
}

fn collect_events(ws: &mut WsClient, until_result: bool) -> Vec<String> {
    let mut events = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        match ws.next_event(Duration::from_millis(200)).expect("ws read") {
            Some(WsEvent::Text(t)) => {
                let is_result =
                    t.contains("\"event\":\"result\"") || t.contains("\"event\":\"error\"");
                events.push(t);
                if until_result && is_result {
                    return events;
                }
            }
            Some(WsEvent::Close(_)) => return events,
            _ => {}
        }
    }
    panic!("timed out waiting for WS events; got {events:#?}");
}

/// A WebSocket session streams accepted → engine_done… → done → result,
/// with Perfetto trace-event JSON on request.
#[test]
fn ws_streams_live_events_and_perfetto_traces() {
    let (addr, handle, join) = start(1, 4);
    let mut ws = client::ws_connect(addr, "/v1/ws").expect("upgrade");
    ws.send_text("{\"workload\":\"VA\",\"engines\":[\"base\",\"scc\"],\"trace_events\":true}")
        .expect("send job");
    let events = collect_events(&mut ws, true);

    assert!(events[0].contains("\"event\":\"accepted\""), "{events:#?}");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.contains("\"event\":\"engine_done\""))
            .count(),
        2
    );
    let traces: Vec<_> = events
        .iter()
        .filter(|e| e.contains("\"event\":\"trace\""))
        .collect();
    assert_eq!(traces.len(), 2, "one Perfetto payload per engine");
    for t in traces {
        let data = object_after(t, "\"data\":").expect("trace data object");
        iwc_telemetry::chrome::validate(data).expect("valid Perfetto trace-event JSON");
    }
    assert!(events.iter().any(|e| e.contains("\"event\":\"done\"")));
    let result = events.last().expect("result event");
    assert!(result.contains("\"event\":\"result\""));
    assert!(result.contains("\"kind\":\"workload\""));

    // Every event of the job carries the same request id, first field.
    let rid = result
        .strip_prefix("{\"request_id\":\"")
        .and_then(|r| r.split('"').next())
        .expect("result event leads with a request id");
    assert!(rid.starts_with("req-"), "{rid:?}");
    for e in &events {
        assert!(
            e.starts_with(&format!("{{\"request_id\":\"{rid}\"")),
            "event missing the job's request id: {e}"
        );
    }

    // Errors stream as events too.
    ws.send_text("{\"workload\":\"no-such\"}")
        .expect("send bad job");
    let events = collect_events(&mut ws, true);
    assert!(events.last().expect("event").contains("\"status\":404"));

    ws.close().expect("close");
    shutdown(addr, &handle, join);
}

/// `/metrics` serves valid Prometheus text exposition whose counters
/// agree with `/v1/stats`, and request counters grow monotonically
/// between scrapes.
#[test]
fn metrics_exposition_is_valid_and_agrees_with_stats() {
    let (addr, handle, join) = start(1, 4);

    let resp = client::post(
        addr,
        "/v1/jobs",
        "{\"workload\":\"VA\",\"engines\":[\"scc\"]}",
    )
    .expect("job");
    assert_eq!(resp.status, 200);

    let first = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(first.status, 200);
    assert!(first
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    iwc_telemetry::expo::validate(&first.body).expect("valid exposition");

    // Counters in the exposition must agree with the registry snapshot.
    let stats = handle.stats();
    for (name, metric) in [
        ("serve/jobs_ok", "iwc_serve_jobs_ok"),
        ("serve/jobs_submitted", "iwc_serve_jobs_submitted"),
        ("serve/engine/scc", "iwc_serve_engine{engine=\"scc\"}"),
    ] {
        let v = stats
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing from stats"));
        assert!(
            first.body.contains(&format!("{metric} {v}")),
            "{metric} must read {v} in:\n{}",
            first.body
        );
    }
    // Phase histograms and live gauges are exposed too.
    for needle in [
        "# TYPE iwc_serve_phase_us histogram",
        "iwc_serve_phase_us_count{phase=\"simulate\"}",
        "# TYPE iwc_serve_queue_depth gauge",
        "iwc_serve_workers_utilization",
    ] {
        assert!(first.body.contains(needle), "missing {needle:?}");
    }

    // A second scrape after more work: request counters are monotone.
    let extract = |body: &str, metric: &str| -> u64 {
        body.lines()
            .find(|l| l.starts_with(metric) && l.as_bytes()[metric.len()] == b' ')
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{metric} not found"))
    };
    let resp = client::post(
        addr,
        "/v1/jobs",
        "{\"workload\":\"VA\",\"engines\":[\"scc\"]}",
    )
    .expect("second job");
    assert_eq!(resp.status, 200);
    let second = client::get(addr, "/metrics").expect("second scrape");
    iwc_telemetry::expo::validate(&second.body).expect("still valid");
    for metric in ["iwc_serve_requests", "iwc_serve_jobs_ok"] {
        assert!(
            extract(&second.body, metric) > extract(&first.body, metric),
            "{metric} must be monotone across scrapes"
        );
    }

    shutdown(addr, &handle, join);
}

/// `/readyz` mirrors operational readiness: 200 while serving, 503 once
/// draining (while `/healthz` stays 200 for liveness probes).
#[test]
fn readyz_reports_drain_as_unready() {
    use std::io::{Read, Write};
    let (addr, handle, join) = start(1, 4);

    let ready = client::get(addr, "/readyz").expect("readyz");
    assert_eq!(ready.status, 200);
    assert!(ready.body.contains("\"ready\":true"));

    // Drain and probe on ONE pipelined connection: the accept loop exits
    // the moment the drain flag is set, so a fresh connection would be
    // refused — but requests already buffered on an accepted connection
    // are still served (and the first post-drain response closes it).
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let two = "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\nGET /readyz HTTP/1.1\r\nHost: x\r\n\r\n";
    stream.write_all(two.as_bytes()).expect("pipelined write");
    let mut all = String::new();
    stream.read_to_string(&mut all).expect("read both");
    assert!(all.contains("\"draining\":true"), "{all}");
    assert!(all.contains("HTTP/1.1 503"), "{all}");
    assert!(all.to_ascii_lowercase().contains("retry-after: 1"), "{all}");
    assert!(handle.is_draining());

    join.join()
        .expect("server thread must not panic")
        .expect("graceful drain returns Ok");
}

/// Every job response carries an `X-IWC-Request-Id` that also appears in
/// the flight-recorder dump, with the accept → dispatch → complete
/// lifecycle in order.
#[test]
fn request_ids_thread_through_responses_and_flight_recorder() {
    let (addr, handle, join) = start(1, 4);

    let ok = client::post(
        addr,
        "/v1/jobs",
        "{\"workload\":\"BFS\",\"engines\":[\"scc\"]}",
    )
    .expect("job");
    assert_eq!(ok.status, 200);
    let rid = ok
        .header("x-iwc-request-id")
        .expect("job response carries a request id")
        .to_string();
    assert!(rid.starts_with("req-"), "{rid:?}");

    // Failed jobs get an id too, distinct from the first.
    let bad = client::post(addr, "/v1/jobs", "{\"workload\":\"no-such\"}").expect("bad job");
    assert_eq!(bad.status, 404);
    let bad_rid = bad
        .header("x-iwc-request-id")
        .expect("error response carries a request id")
        .to_string();
    assert_ne!(rid, bad_rid);

    let dump = client::get(addr, "/v1/flightrecorder").expect("flight dump");
    assert_eq!(dump.status, 200);
    let doc = parse(&dump.body).expect("dump is valid JSON");
    let events = doc.get("events").and_then(|e| e.as_arr()).expect("events");
    let of = |want_rid: &str| -> Vec<&str> {
        events
            .iter()
            .filter(|e| e.get("request_id").and_then(|r| r.as_str()) == Some(want_rid))
            .map(|e| e.get("kind").and_then(|k| k.as_str()).expect("kind"))
            .collect()
    };
    assert_eq!(of(&rid), vec!["accept", "dispatch", "complete"]);
    assert_eq!(of(&bad_rid), vec!["accept", "dispatch", "error"]);
    // The accept event names the job.
    let accept = events
        .iter()
        .find(|e| e.get("request_id").and_then(|r| r.as_str()) == Some(rid.as_str()))
        .expect("accept event");
    assert_eq!(
        accept.get("detail").and_then(|d| d.as_str()),
        Some("workload=BFS")
    );

    shutdown(addr, &handle, join);
}

/// Pipelined requests on one connection are answered in order, and
/// oversized bodies are refused with 413.
#[test]
fn wire_layer_handles_pipelining_and_oversized_bodies() {
    use std::io::{Read, Write};
    let (addr, handle, join) = start(1, 4);

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let two = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /v1/catalog HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    stream.write_all(two.as_bytes()).expect("pipelined write");
    let mut all = String::new();
    stream.read_to_string(&mut all).expect("read both");
    assert_eq!(all.matches("HTTP/1.1 200 OK").count(), 2, "{all}");
    let health_at = all.find("\"ok\":true").expect("healthz body");
    let catalog_at = all.find("\"workloads\":").expect("catalog body");
    assert!(health_at < catalog_at, "responses out of order");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let huge = 9 * 1024 * 1024;
    let head = format!("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {huge}\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("oversized head");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read rejection");
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    shutdown(addr, &handle, join);
}

/// Draining lets in-flight jobs finish, refuses new work, and `run`
/// returns cleanly.
#[test]
fn graceful_drain_finishes_in_flight_jobs() {
    let (addr, handle, join) = start(1, 4);

    let worker = std::thread::spawn(move || {
        client::post(
            addr,
            "/v1/jobs",
            "{\"workload\":\"MM\",\"engines\":[\"scc\"]}",
        )
        .expect("in-flight job")
    });
    // Give the job a moment to be picked up, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    let resp = client::post(addr, "/shutdown", "").expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"draining\":true"));

    let inflight = worker.join().expect("client thread");
    assert_eq!(
        inflight.status, 200,
        "in-flight job must finish: {}",
        inflight.body
    );
    assert!(inflight.body.contains("\"results\":["));

    handle.shutdown();
    join.join()
        .expect("server thread must not panic")
        .expect("graceful drain returns Ok");

    // The listener is gone: new connections fail or are reset.
    assert!(
        client::get(addr, "/healthz").is_err(),
        "drained daemon must not accept new connections"
    );
}

/// Each fresh connection is accepted as soon as it arrives: 40
/// sequential one-shot requests take well under the 25 ms drain-poll
/// period apiece.
#[test]
fn fresh_connections_are_accepted_promptly() {
    let (addr, handle, join) = start(1, 4);
    let _ = client::get(addr, "/healthz").expect("warm-up");

    let started = Instant::now();
    for _ in 0..40 {
        let resp = client::get(addr, "/healthz").expect("healthz");
        assert_eq!(resp.status, 200);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "40 sequential requests took {took:?}"
    );
    shutdown(addr, &handle, join);
}

/// An idle daemon waiting for connections still notices a drain
/// promptly.
#[test]
fn idle_daemon_drains_within_a_second() {
    let (addr, handle, join) = start(1, 4);
    let _ = client::get(addr, "/healthz").expect("healthz");
    // Let the accept loop settle into its wait.
    std::thread::sleep(Duration::from_millis(100));
    let asked = Instant::now();
    handle.shutdown();
    join.join()
        .expect("server thread must not panic")
        .expect("graceful drain returns Ok");
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
}
