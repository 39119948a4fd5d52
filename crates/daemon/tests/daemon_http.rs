//! End-to-end tests of `lopacityd` over real TCP: boot a daemon on port 0,
//! drive it with a hand-rolled HTTP/1.1 client, and check the acceptance
//! criteria of the service layer:
//!
//! * N concurrent submissions over the same `(graph, L, engine, store)`
//!   pay for exactly one APSP build (verified through `/metrics`);
//! * a cancelled job frees its worker, the pool keeps serving, and the
//!   cancelled job's progress trajectory is a prefix of an uncancelled
//!   run's;
//! * budget-interrupted jobs produce deterministic partial outcomes;
//! * churn jobs hold a live session that accepts event batches;
//! * held sessions serve batches independently of each other;
//! * the bounded queue rejects overflow with `429`;
//! * a keep-alive exchange costs the daemon's work, not a TCP timer, and
//!   an idle kept-alive connection closes without an unsolicited reply.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lopacity::{Anonymizer, ChurnSession, EdgeEvent, Removal, TypeSpec};
use lopacity_client::{Client, ClientConfig};
use lopacity_daemon::job::resolve_graph;
use lopacity_daemon::{Daemon, DaemonConfig, JobSpec};
use lopacity_graph::{Edge, Graph};

fn boot(workers: usize, queue: usize) -> Daemon {
    Daemon::bind(&DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        ..DaemonConfig::default()
    })
    .expect("bind daemon on an ephemeral port")
}

/// One request over a fresh connection (the daemon is `Connection: close`).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Like [`request`] but returns the raw response, headers included.
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Reads `key value` from a summary body.
fn field(body: &str, key: &str) -> Option<String> {
    body.lines().find_map(|line| {
        line.strip_prefix(key)
            .filter(|rest| rest.starts_with(' '))
            .map(|rest| rest.trim().to_string())
    })
}

fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, body) = request(addr, "POST", "/jobs", spec);
    assert_eq!(status, 202, "submit failed: {body}");
    field(&body, "id").expect("submit returns an id").parse().expect("numeric id")
}

/// Polls until the job reaches a terminal phase; returns (phase, summary).
fn wait_finished(addr: SocketAddr, id: u64) -> (String, String) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "status poll failed: {body}");
        let phase = field(&body, "phase").expect("status has a phase");
        if matches!(phase.as_str(), "done" | "cancelled" | "failed") {
            return (phase, body);
        }
        assert!(Instant::now() < deadline, "job {id} did not finish; last status:\n{body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The job's `step ...` progress lines.
fn step_lines(addr: SocketAddr, id: u64) -> Vec<String> {
    let (status, body) = request(addr, "GET", &format!("/jobs/{id}/progress"), "");
    assert_eq!(status, 200);
    body.lines().filter(|l| l.starts_with("step ")).map(str::to_string).collect()
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|line| line.strip_prefix(name).map(|rest| rest.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{body}"))
}

/// A spec whose cache key is shared by every θ (θ is not part of the
/// prepared build).
fn shared_spec(theta: f64) -> String {
    format!("mode anonymize\nl 2\ntheta {theta}\nseed 11\ngraph gnm 40 90 3\n")
}

/// A spec that runs long enough (hundreds of greedy steps in a debug
/// build) to cancel mid-run.
const SLOW_SPEC: &str = "mode anonymize\nl 2\ntheta 0.0\nseed 11\ngraph gnm 150 450 7\n";

#[test]
fn healthz_metrics_and_routing_respond() {
    let daemon = boot(1, 4);
    let addr = daemon.addr();
    assert_eq!(request(addr, "GET", "/healthz", ""), (200, "ok\n".to_string()));
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("lopacityd_jobs_submitted 0"));
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "GET", "/jobs/99", "").0, 404);
    assert_eq!(request(addr, "POST", "/jobs", "l 2\n").0, 400, "spec without a graph");
    daemon.shutdown();
}

#[test]
fn eight_concurrent_jobs_share_one_apsp_build() {
    let daemon = boot(4, 32);
    let addr = daemon.addr();
    // Eight jobs, eight θ values, one (graph, L, engine, store) key.
    let ids: Vec<u64> = (0..8)
        .map(|i| submit(addr, &shared_spec(0.90 - 0.05 * i as f64)))
        .collect();
    let mut done = 0;
    for &id in &ids {
        let (phase, body) = wait_finished(addr, id);
        assert_eq!(phase, "done", "job {id}: {body}");
        assert_eq!(field(&body, "achieved").as_deref(), Some("true"), "job {id}: {body}");
        done += 1;
    }
    assert_eq!(done, 8);
    // The acceptance criterion: exactly one build, everyone else hits.
    assert_eq!(metric(addr, "lopacityd_cache_builds"), 1);
    assert_eq!(metric(addr, "lopacityd_cache_hits"), 7);
    assert_eq!(metric(addr, "lopacityd_jobs_completed"), 8);
    assert_eq!(metric(addr, "lopacityd_jobs_failed"), 0);
    assert!(metric(addr, "lopacityd_trials_total") > 0);
    daemon.shutdown();
}

#[test]
fn cancelled_job_frees_its_worker_and_leaves_a_prefix() {
    let daemon = boot(1, 8);
    let addr = daemon.addr();
    // Reference trajectory: the same spec run to completion first (also
    // warms the cache so the cancelled run starts its greedy phase fast).
    let reference = submit(addr, SLOW_SPEC);
    let (phase, _) = wait_finished(addr, reference);
    assert_eq!(phase, "done");
    let reference_steps = step_lines(addr, reference);
    assert!(reference_steps.len() > 10, "need a long reference run");

    let victim = submit(addr, SLOW_SPEC);
    // Let it commit a few steps, then cancel mid-run.
    let deadline = Instant::now() + Duration::from_secs(60);
    while step_lines(addr, victim).len() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(request(addr, "POST", &format!("/jobs/{victim}/cancel"), "").0, 200);
    let (phase, body) = wait_finished(addr, victim);
    assert_eq!(phase, "cancelled", "{body}");
    assert_eq!(field(&body, "interrupted").as_deref(), Some("cancel"));

    // Partial trajectory is a prefix of the uncancelled run's.
    let victim_steps = step_lines(addr, victim);
    assert!(!victim_steps.is_empty());
    assert!(victim_steps.len() < reference_steps.len(), "cancel landed mid-run");
    assert_eq!(victim_steps[..], reference_steps[..victim_steps.len()], "prefix property");

    // The worker is reclaimed: the single-worker pool still serves jobs.
    let next = submit(addr, &shared_spec(0.5));
    let (phase, _) = wait_finished(addr, next);
    assert_eq!(phase, "done");
    assert_eq!(metric(addr, "lopacityd_workers_busy"), 0);
    assert_eq!(metric(addr, "lopacityd_jobs_cancelled"), 1);
    daemon.shutdown();
}

#[test]
fn budget_interrupted_jobs_are_deterministic_partial_outcomes() {
    let daemon = boot(2, 16);
    let addr = daemon.addr();
    let full = submit(addr, SLOW_SPEC);
    let (phase, full_body) = wait_finished(addr, full);
    assert_eq!(phase, "done");
    let full_steps: u64 = field(&full_body, "steps").unwrap().parse().unwrap();
    assert!(full_steps > 6);

    // Two identical step-budgeted jobs: byte-identical partial outcomes.
    let budgeted = format!("{SLOW_SPEC}max_steps 5\n");
    let a = submit(addr, &budgeted);
    let b = submit(addr, &budgeted);
    let (phase_a, body_a) = wait_finished(addr, a);
    let (phase_b, body_b) = wait_finished(addr, b);
    assert_eq!(phase_a, "done");
    assert_eq!(phase_b, "done");
    assert_eq!(body_a.replace(&format!("id {a}"), ""), body_b.replace(&format!("id {b}"), ""));
    assert_eq!(field(&body_a, "steps").as_deref(), Some("5"));
    assert_eq!(field(&body_a, "interrupted").as_deref(), Some("budget"));
    // And the budgeted trajectory is a prefix of the full one.
    let full_lines = step_lines(addr, full);
    let a_lines = step_lines(addr, a);
    assert_eq!(a_lines[..], full_lines[..a_lines.len()]);

    // A trial budget stops within one scan step of the cap, deterministically.
    let full_trials: u64 = field(&full_body, "trials").unwrap().parse().unwrap();
    let capped = format!("{SLOW_SPEC}max_trials {}\n", full_trials / 2);
    let c = submit(addr, &capped);
    let d = submit(addr, &capped);
    let (_, body_c) = wait_finished(addr, c);
    let (_, body_d) = wait_finished(addr, d);
    let trials_c: u64 = field(&body_c, "trials").unwrap().parse().unwrap();
    assert!(trials_c >= full_trials / 2 && trials_c < full_trials);
    assert_eq!(field(&body_c, "trials"), field(&body_d, "trials"));
    assert_eq!(field(&body_c, "steps"), field(&body_d, "steps"));
    daemon.shutdown();
}

#[test]
fn churn_jobs_hold_live_sessions() {
    let daemon = boot(2, 8);
    let addr = daemon.addr();
    let job = submit(addr, "mode churn\nl 1\ntheta 0.6\nseed 5\ngraph gnm 30 60 9\n");
    let (phase, body) = wait_finished(addr, job);
    assert_eq!(phase, "done", "{body}");
    assert_eq!(field(&body, "certified").as_deref(), Some("true"));
    assert_eq!(metric(addr, "lopacityd_churn_sessions"), 1);

    // A batch of events lands in the held session.
    let (status, report) =
        request(addr, "POST", &format!("/jobs/{job}/events"), "+ 0 1\n- 2 3\n+ 4 5\n");
    assert_eq!(status, 200, "{report}");
    let applied: u64 = field(&report, "applied").unwrap().parse().unwrap();
    let skipped: u64 = field(&report, "skipped").unwrap().parse().unwrap();
    assert_eq!(applied + skipped, 3);
    assert!(field(&report, "max_lo").is_some());
    assert_eq!(metric(addr, "lopacityd_churn_events_applied"), applied);

    // Error paths: bad stream, wrong job kind, unknown id.
    assert_eq!(request(addr, "POST", &format!("/jobs/{job}/events"), "bogus\n").0, 400);
    let plain = submit(addr, &shared_spec(0.5));
    wait_finished(addr, plain);
    assert_eq!(request(addr, "POST", &format!("/jobs/{plain}/events"), "+ 0 1\n").0, 409);
    assert_eq!(request(addr, "POST", "/jobs/999/events", "+ 0 1\n").0, 404);
    daemon.shutdown();
}

#[test]
fn bounded_queue_rejects_overflow_with_429() {
    let daemon = boot(1, 1);
    let addr = daemon.addr();
    // Occupy the worker with a slow job, fill the queue's single slot,
    // then overflow.
    let slow = submit(addr, SLOW_SPEC);
    let queued = submit(addr, &shared_spec(0.5));
    let raw = request_raw(addr, "POST", "/jobs", &shared_spec(0.4));
    assert!(raw.starts_with("HTTP/1.1 429"), "{raw}");
    // Queue overflow is transient, so — like the load-shedding `503` —
    // the response tells retrying clients when to come back.
    assert!(raw.contains("Retry-After:"), "429 must carry Retry-After:\n{raw}");
    assert_eq!(metric(addr, "lopacityd_jobs_rejected"), 1);

    // A cancelled queued job is skipped without occupying the worker.
    assert_eq!(request(addr, "POST", &format!("/jobs/{queued}/cancel"), "").0, 200);
    assert_eq!(request(addr, "POST", &format!("/jobs/{slow}/cancel"), "").0, 200);
    let (phase, _) = wait_finished(addr, queued);
    assert_eq!(phase, "cancelled");
    wait_finished(addr, slow);
    daemon.shutdown();
}

/// A keep-alive client with the default timeouts and retry policy.
fn client_for(addr: SocketAddr) -> Client {
    Client::new(ClientConfig { addr: addr.to_string(), ..ClientConfig::default() })
}

/// `POST /jobs/<id>/events` over `client`; returns the report body.
fn post_batch(client: &mut Client, id: u64, batch: &str) -> String {
    let response = client
        .request("POST", &format!("/jobs/{id}/events"), &[], batch.as_bytes())
        .unwrap_or_else(|e| panic!("batch into job {id}: {e}"));
    response.body_str().expect("UTF-8 report").to_string()
}

/// The graph a spec resolves to, as the daemon builds it.
fn spec_graph(spec: &str) -> Graph {
    resolve_graph(&JobSpec::parse(spec).expect("spec").source).expect("graph")
}

/// Event lines, one per event, as `POST /jobs/<id>/events` takes them.
fn batch_text(events: impl IntoIterator<Item = EdgeEvent>) -> String {
    events.into_iter().map(|event| format!("{event}\n")).collect()
}

/// `count` deletes of pairs that are not edges of the spec's graph: a
/// batch the held session skips event by event.
fn absent_edge_deletes(spec: &str, count: usize) -> String {
    batch_text(spec_graph(spec).non_edges().take(count).map(EdgeEvent::Delete))
}

/// `batches` seeded batches of five events: inserts of random pairs and
/// deletes of edges of the original graph.
fn random_batches(spec: &str, batches: usize, seed: u64) -> Vec<String> {
    let graph = spec_graph(spec);
    let n = graph.num_vertices() as u64;
    let edges = graph.edge_vec();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11
    };
    (0..batches)
        .map(|_| {
            batch_text((0..5).map(|_| {
                if next() % 3 == 0 {
                    EdgeEvent::Delete(edges[(next() % edges.len() as u64) as usize])
                } else {
                    let u = next() % n;
                    let v = (u + 1 + next() % (n - 1)) % n;
                    EdgeEvent::Insert(Edge::new(u as u32, v as u32))
                }
            }))
        })
        .collect()
}

/// The reports a sequential in-process replica of the daemon's held
/// session gives for `batches`, formatted as `POST /jobs/<id>/events`
/// answers them. Set-up mirrors the daemon's: repair first if the graph
/// starts above θ.
fn replica_reports(spec: &str, batches: &[String]) -> Vec<String> {
    let parsed = JobSpec::parse(spec).expect("spec");
    let graph = spec_graph(spec);
    let mut session =
        ChurnSession::new(Anonymizer::new(&graph, &TypeSpec::DegreePairs).config(parsed.config()));
    if !session.is_certified() {
        session.repair(Removal);
    }
    batches
        .iter()
        .map(|text| {
            let report = session.apply_batch(&EdgeEvent::parse_stream(text).expect("events"));
            let mut out = format!(
                "applied {}\nskipped {}\nchanged_cells {}\nmax_lo {:.6}\nviolated {}\n",
                report.applied, report.skipped, report.changed_cells, report.max_lo, report.violated
            );
            if report.violated {
                let patch = session.repair(Removal);
                out.push_str(&format!(
                    "repair_achieved {}\nrepair_steps {}\nrepair_trials {}\nrepair_removed {}\nrepair_inserted {}\nrepair_max_lo {:.6}\n",
                    patch.achieved,
                    patch.steps,
                    patch.trials,
                    patch.removed.len(),
                    patch.inserted.len(),
                    patch.max_lo
                ));
            }
            out
        })
        .collect()
}

/// An idle kept-alive connection that outlives the daemon's read
/// deadline is closed without a word. An unsolicited `400` there used to
/// be read by the client as the reply to its next request.
#[test]
fn idle_keep_alive_connections_close_silently() {
    let daemon = Daemon::bind(&DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        io_timeout_secs: 1,
        ..DaemonConfig::default()
    })
    .expect("bind daemon on an ephemeral port");
    let addr = daemon.addr();
    let mut client = client_for(addr);
    assert_eq!(client.get("/healthz").expect("first request").status, 200);
    std::thread::sleep(Duration::from_millis(1500));
    let second = client.get("/healthz").expect("a request after an idle spell must succeed");
    assert_eq!(second.body_str(), Some("ok\n"));

    // On the wire: a connection that never sends a byte gets none back.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut raw = Vec::new();
    idle.read_to_end(&mut raw).expect("the daemon closes the idle connection");
    assert!(raw.is_empty(), "idle close wrote {:?}", String::from_utf8_lossy(&raw));
    daemon.shutdown();
}

/// A keep-alive exchange costs the daemon's work, not a TCP timer: 100
/// no-op batches into a held churn session finish far inside 2 s. With a
/// Nagle / delayed-ACK stall per exchange they took at least 8.8 s.
#[test]
fn churn_exchanges_do_not_wait_on_tcp_timers() {
    let daemon = boot(1, 4);
    let addr = daemon.addr();
    let spec = "mode churn\nl 1\ntheta 0.6\nseed 5\ngraph gnm 30 60 9\n";
    let job = submit(addr, spec);
    assert_eq!(wait_finished(addr, job).0, "done");
    let batch = absent_edge_deletes(spec, 4);
    let mut client = client_for(addr);
    let started = Instant::now();
    for _ in 0..100 {
        let report = post_batch(&mut client, job, &batch);
        assert!(report.starts_with("applied 0\nskipped 4\n"), "{report}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(2), "100 no-op batches took {elapsed:?}");
    daemon.shutdown();
}

/// Two client threads stream interleaved batches into two held
/// sessions. Each session's reports must be byte-equal to a sequential
/// in-process replica's.
#[test]
fn concurrent_sessions_match_sequential_replicas() {
    let daemon = boot(2, 4);
    let addr = daemon.addr();
    let specs = [
        "mode churn\nl 2\ntheta 0.4\nseed 1\ngraph gnm 100 200 7\n",
        "mode churn\nl 2\ntheta 0.4\nseed 2\ngraph gnm 100 200 8\n",
    ];
    let ids: Vec<u64> = specs.iter().map(|spec| submit(addr, spec)).collect();
    for &id in &ids {
        assert_eq!(wait_finished(addr, id).0, "done");
    }
    let streams: Vec<Vec<String>> =
        specs.iter().zip([11, 12]).map(|(spec, seed)| random_batches(spec, 25, seed)).collect();
    let start = Arc::new(Barrier::new(ids.len()));
    let served: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .zip(&streams)
            .map(|(&id, batches)| {
                let start = Arc::clone(&start);
                scope.spawn(move || {
                    let mut client = client_for(addr);
                    start.wait();
                    batches.iter().map(|batch| post_batch(&mut client, id, batch)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for (k, (spec, batches)) in specs.iter().zip(&streams).enumerate() {
        let expected = replica_reports(spec, batches);
        for (b, (got, want)) in served[k].iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "session {k} batch {b}");
        }
    }
    assert!(metric(addr, "lopacityd_churn_repairs") > 0, "the streams must exercise repairs");
    daemon.shutdown();
}

/// A session's batch does not wait for another session's repair: a
/// no-op batch into session B is answered while session A is still
/// inside a multi-second repair.
#[test]
fn a_repair_in_one_session_does_not_stall_another() {
    let daemon = boot(2, 4);
    let addr = daemon.addr();
    // A's setup repairs its graph down to θ (seconds in a debug build);
    // re-inserting every original edge restores the violating graph, so
    // A's next batch repeats that repair.
    let spec_a = "mode churn\nl 2\ntheta 0.12\nseed 1\ngraph gnm 800 1600 7\n";
    let spec_b = "mode churn\nl 1\ntheta 0.6\nseed 5\ngraph gnm 30 60 9\n";
    let (a, b) = (submit(addr, spec_a), submit(addr, spec_b));
    assert_eq!(wait_finished(addr, a).0, "done");
    assert_eq!(wait_finished(addr, b).0, "done");
    let reinsert = batch_text(spec_graph(spec_a).edges().map(EdgeEvent::Insert));
    let noop = absent_edge_deletes(spec_b, 4);
    let mut client_b = client_for(addr);
    post_batch(&mut client_b, b, &noop); // dial before the race

    std::thread::scope(|scope| {
        let repairing = scope.spawn(|| {
            let report = post_batch(&mut client_for(addr), a, &reinsert);
            (report, Instant::now())
        });
        // A's progress log shows the violating batch just before the
        // repair starts.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, progress) = request(addr, "GET", &format!("/jobs/{a}/progress"), "");
            if progress.lines().any(|l| l.starts_with("batch ") && l.ends_with("violated=true")) {
                break;
            }
            assert!(Instant::now() < deadline, "A's batch never started:\n{progress}");
            std::thread::sleep(Duration::from_millis(5));
        }
        let report_b = post_batch(&mut client_b, b, &noop);
        let b_done = Instant::now();
        assert!(report_b.starts_with("applied 0\nskipped 4\n"), "{report_b}");
        let (report_a, a_done) = repairing.join().expect("session A client");
        assert!(report_a.contains("violated true\nrepair_achieved true\n"), "{report_a}");
        assert!(b_done < a_done, "B's no-op batch was answered only after A's repair");
    });
    daemon.shutdown();
}

/// An idle daemon that is only polled still honors its job TTL: the
/// request path sweeps too, so a finished job is gone by the first poll
/// after its expiry.
#[test]
fn polled_idle_daemon_honors_the_job_ttl() {
    let daemon = Daemon::bind(&DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        job_ttl_secs: Some(1),
        ..DaemonConfig::default()
    })
    .expect("bind daemon on an ephemeral port");
    let addr = daemon.addr();
    let id = submit(addr, &shared_spec(0.5));
    assert_eq!(wait_finished(addr, id).0, "done");
    // Expiry is due at most 1 s from here, and the next poll sweeps it.
    // The rest is slack for a loaded machine.
    let finished_by = Instant::now();
    while request(addr, "GET", &format!("/jobs/{id}"), "").0 != 404 {
        assert!(
            finished_by.elapsed() < Duration::from_millis(3500),
            "job {id} outlived its 1 s TTL while being polled"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(metric(addr, "lopacityd_jobs_expired"), 1);
    daemon.shutdown();
}
