//! Crash recovery, fault injection, and graceful degradation, end to end:
//!
//! * a daemon drained (or SIGKILLed, or crashed by an injected fault) mid
//!   job re-queues the job from its journal on the next boot and resumes
//!   from the last durable checkpoint — and the recovered final graph is
//!   **byte-identical** to an uninterrupted run's, on both store backends;
//! * finished jobs restore from the journal without re-running;
//! * `done` churn jobs get their held session rebuilt deterministically,
//!   also when the journal interleaves the batches of several sessions;
//! * a panicking job is re-queued up to its attempts budget, then
//!   quarantined — without taking the worker pool down;
//! * load-shedding admission sheds the oldest queued job and answers
//!   over-budget submissions with `503` + `Retry-After`;
//! * every named fault site fires under a seeded sweep and the daemon
//!   still produces byte-identical results (degradation, not corruption).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use lopacity_daemon::journal::scan_frames;
use lopacity_daemon::{Daemon, DaemonConfig, Record};

/// A fresh per-test state directory under the system temp dir.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lopd-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(config: DaemonConfig) -> Daemon {
    Daemon::bind(&config).expect("bind daemon on an ephemeral port")
}

fn config_with(state_dir: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        state_dir,
        ..DaemonConfig::default()
    }
}

/// One request over a fresh connection; returns the raw response text
/// (empty if the connection died — e.g. an injected socket fault).
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let _ = write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    raw
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = request_raw(addr, method, path, body);
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

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

fn wait_finished(addr: SocketAddr, id: u64) -> (String, String) {
    let deadline = Instant::now() + Duration::from_secs(180);
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

/// Polls the progress log until at least `min_steps` step lines appear.
fn wait_steps(addr: SocketAddr, id: u64, min_steps: usize) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}/progress"), "");
        assert_eq!(status, 200);
        if body.lines().filter(|l| l.starts_with("step ")).count() >= min_steps {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never reached {min_steps} steps:\n{body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|line| {
            line.strip_suffix(|c: char| c.is_ascii_digit())
                .map(|_| line)
                .and_then(|l| l.rsplit_once(' '))
                .filter(|(n, _)| *n == name)
                .and_then(|(_, v)| v.parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{body}"))
}

/// Fetches the anonymized graph text for a finished job.
fn result_graph(addr: SocketAddr, id: u64) -> String {
    let (status, body) = request(addr, "GET", &format!("/jobs/{id}/graph"), "");
    assert_eq!(status, 200, "graph fetch failed: {body}");
    body
}

/// A deterministic multi-step workload: θ is unreachable, so the run
/// always stops at exactly `max_steps` greedy steps ("interrupted
/// budget") — plenty of room to interrupt it earlier and resume.
fn budget_spec(method: &str, store: &str, max_steps: u64) -> String {
    format!(
        "mode anonymize\nmethod {method}\nl 2\ntheta 0.01\nseed 11\nstore {store}\n\
         max_steps {max_steps}\ngraph gnm 100 300 7\n"
    )
}

/// The uninterrupted reference for a spec, computed on a journal-less
/// daemon: (summary body, graph text).
fn reference_run(spec: &str) -> (String, String) {
    let daemon = boot(config_with(None));
    let addr = daemon.addr();
    let id = submit(addr, spec);
    let (phase, summary) = wait_finished(addr, id);
    assert_eq!(phase, "done", "{summary}");
    let graph = result_graph(addr, id);
    daemon.shutdown();
    (summary, graph)
}

fn assert_same_outcome(reference: &(String, String), summary: &str, graph: &str, tag: &str) {
    for key in ["achieved", "steps", "trials", "removed", "inserted", "final_lo", "interrupted"] {
        assert_eq!(
            field(&reference.0, key),
            field(summary, key),
            "{tag}: summary field {key} diverged\nreference:\n{}\nrecovered:\n{summary}",
            reference.0
        );
    }
    assert_eq!(reference.1, graph, "{tag}: recovered graph is not byte-identical");
}

/// Tentpole: drain mid-run (the SIGTERM path), reboot on the same state
/// dir, and the job resumes from its last durable checkpoint to a
/// byte-identical result — across methods and both store backends.
#[test]
fn drain_then_reboot_resumes_byte_identical() {
    for (method, store) in [("rem", "dense"), ("rem", "sparse"), ("rem-ins", "dense")] {
        let spec = budget_spec(method, store, 60);
        let reference = reference_run(&spec);

        let dir = state_dir(&format!("drain-{method}-{store}"));
        let daemon = boot(config_with(Some(dir.clone())));
        let addr = daemon.addr();
        let id = submit(addr, &spec);
        wait_steps(addr, id, 3);
        daemon.drain(); // stop admitting, checkpoint, suppress terminal records

        let daemon = boot(config_with(Some(dir.clone())));
        let addr = daemon.addr();
        assert!(metric(addr, "lopacityd_jobs_recovered") >= 1, "{method}/{store}");
        let (phase, summary) = wait_finished(addr, id);
        assert_eq!(phase, "done", "{summary}");
        let graph = result_graph(addr, id);
        assert_same_outcome(&reference, &summary, &graph, &format!("{method}/{store}"));
        let (_, progress) = request(addr, "GET", &format!("/jobs/{id}/progress"), "");
        assert!(
            progress.contains("resumed from checkpoint"),
            "{method}/{store}: expected a resume, not a restart:\n{progress}"
        );
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Finished jobs restore from the journal as-is: same phase, summary, and
/// graph, with no re-run (the evaluator cache stays cold).
#[test]
fn finished_jobs_restore_without_rerun() {
    let dir = state_dir("restore");
    let spec = "mode anonymize\nl 2\ntheta 0.5\nseed 11\ngraph gnm 40 90 3\n";
    let daemon = boot(config_with(Some(dir.clone())));
    let addr = daemon.addr();
    let id = submit(addr, spec);
    let (phase, summary) = wait_finished(addr, id);
    assert_eq!(phase, "done");
    let graph = result_graph(addr, id);
    daemon.shutdown();

    let daemon = boot(config_with(Some(dir.clone())));
    let addr = daemon.addr();
    let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "phase").as_deref(), Some("done"), "restored terminal phase");
    for key in ["achieved", "steps", "trials", "final_lo"] {
        assert_eq!(field(&body, key), field(&summary, key), "restored summary field {key}");
    }
    assert_eq!(result_graph(addr, id), graph, "restored graph byte-identical");
    assert_eq!(metric(addr, "lopacityd_cache_builds"), 0, "no re-run on restore");
    assert_eq!(metric(addr, "lopacityd_jobs_recovered"), 0, "restore is not recovery");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `done` churn job's held session is rebuilt at boot by re-running the
/// deterministic setup and replaying the journaled event batches; the
/// rebuilt session keeps accepting batches.
#[test]
fn churn_sessions_rebuild_on_boot() {
    let dir = state_dir("churn");
    let spec = "mode churn\nl 1\ntheta 0.6\nseed 5\ngraph gnm 30 60 9\n";
    let daemon = boot(config_with(Some(dir.clone())));
    let addr = daemon.addr();
    let id = submit(addr, spec);
    let (phase, _) = wait_finished(addr, id);
    assert_eq!(phase, "done");
    let (status, first_report) =
        request(addr, "POST", &format!("/jobs/{id}/events"), "+ 0 1\n- 2 3\n+ 4 5\n");
    assert_eq!(status, 200, "{first_report}");
    daemon.shutdown();

    let daemon = boot(config_with(Some(dir.clone())));
    let addr = daemon.addr();
    assert_eq!(metric(addr, "lopacityd_churn_sessions"), 1, "session rebuilt at boot");
    assert!(metric(addr, "lopacityd_jobs_recovered") >= 1);
    // The rebuilt session is live: a fresh batch lands with a report, and
    // re-adding an edge the journaled batch already added is a skip —
    // proof the replayed state carried over.
    let (status, report) = request(addr, "POST", &format!("/jobs/{id}/events"), "+ 0 1\n+ 6 7\n");
    assert_eq!(status, 200, "{report}");
    let skipped: u64 = field(&report, "skipped").unwrap().parse().unwrap();
    assert!(skipped >= 1, "duplicate of a replayed event must be skipped:\n{report}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `count` batches of five seeded inserts of random pairs among `n`
/// vertices.
fn insert_batches(n: u64, count: usize, seed: u64) -> Vec<String> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    (0..count)
        .map(|_| {
            (0..5)
                .map(|_| {
                    let u = next() % n;
                    let v = (u + 1 + next() % (n - 1)) % n;
                    format!("+ {u} {v}\n")
                })
                .collect()
        })
        .collect()
}

/// Two held sessions whose batches interleave in the journal: replay
/// re-applies each session's batches in that session's order (repairs
/// included), so the rebuilt sessions answer follow-up batches
/// byte-for-byte like sessions that never restarted.
#[test]
fn interleaved_churn_sessions_recover_byte_identical() {
    let specs = [
        "mode churn\nl 2\ntheta 0.4\nseed 1\ngraph gnm 100 200 7\n",
        "mode churn\nl 2\ntheta 0.4\nseed 2\ngraph gnm 100 200 8\n",
    ];
    let streams = [insert_batches(100, 10, 1), insert_batches(100, 10, 2)];
    // Batches before the restart; the rest are the follow-ups.
    let split = 8;
    let open = |addr: SocketAddr| -> Vec<u64> {
        specs
            .iter()
            .map(|spec| {
                let id = submit(addr, spec);
                assert_eq!(wait_finished(addr, id).0, "done");
                id
            })
            .collect()
    };
    // Alternates the sessions batch by batch: A, B, A, B, ...
    let feed = |addr: SocketAddr, ids: &[u64], batches: std::ops::Range<usize>| -> Vec<String> {
        let mut reports = Vec::new();
        for b in batches {
            for (k, &id) in ids.iter().enumerate() {
                let (status, report) =
                    request(addr, "POST", &format!("/jobs/{id}/events"), &streams[k][b]);
                assert_eq!(status, 200, "{report}");
                reports.push(report);
            }
        }
        reports
    };
    let total = streams[0].len();

    let reference = {
        let daemon = boot(config_with(None));
        let addr = daemon.addr();
        let ids = open(addr);
        let reports = feed(addr, &ids, 0..total);
        daemon.shutdown();
        reports
    };
    assert!(
        reference.iter().any(|r| r.contains("violated true")),
        "the streams must exercise repairs"
    );

    let dir = state_dir("churn-interleaved");
    let daemon = boot(config_with(Some(dir.clone())));
    let addr = daemon.addr();
    let ids = open(addr);
    let mut reports = feed(addr, &ids, 0..split);
    daemon.shutdown();

    let (records, _, torn) = scan_frames(&std::fs::read(dir.join("journal.log")).unwrap());
    assert!(torn.is_none(), "{torn:?}");
    let order: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Events { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(order.len(), 2 * split);
    assert!(order.windows(2).all(|w| w[0] != w[1]), "journal must interleave: {order:?}");

    let daemon = boot(config_with(Some(dir.clone())));
    let addr = daemon.addr();
    assert_eq!(metric(addr, "lopacityd_churn_sessions"), 2, "both sessions rebuilt");
    reports.extend(feed(addr, &ids, split..total));
    for (k, (got, want)) in reports.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "report {k} (batch {}, session {})", k / 2, k % 2);
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One injected worker panic: the job is re-queued, resumes from its
/// checkpoint, and still lands on the byte-identical result.
#[test]
fn panicked_jobs_resume_and_complete() {
    let spec = budget_spec("rem", "auto", 40);
    let reference = reference_run(&spec);
    let dir = state_dir("panic-resume");
    let daemon = boot(DaemonConfig {
        fault_spec: Some("worker.panic:4".to_string()),
        ..config_with(Some(dir.clone()))
    });
    let addr = daemon.addr();
    let id = submit(addr, &spec);
    let (phase, summary) = wait_finished(addr, id);
    assert_eq!(phase, "done", "{summary}");
    assert_same_outcome(&reference, &summary, &result_graph(addr, id), "panic-resume");
    let (_, progress) = request(addr, "GET", &format!("/jobs/{id}/progress"), "");
    assert!(progress.contains("panic caught"), "{progress}");
    assert!(progress.contains("resumed from checkpoint"), "{progress}");
    assert_eq!(metric(addr, "lopacityd_jobs_quarantined"), 0);
    assert!(metric(addr, "lopacityd_faults_injected") >= 1);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that panics on every attempt exhausts its budget and is
/// quarantined with the captured panic — and the daemon keeps serving.
#[test]
fn poisoned_jobs_are_quarantined() {
    let daemon = boot(DaemonConfig {
        fault_spec: Some("worker.panic:1+".to_string()),
        max_attempts: 2,
        ..config_with(None)
    });
    let addr = daemon.addr();
    let id = submit(addr, &budget_spec("rem", "auto", 40));
    let (phase, summary) = wait_finished(addr, id);
    assert_eq!(phase, "failed", "{summary}");
    assert!(summary.contains("quarantined after 2 panics"), "{summary}");
    assert!(summary.contains("injected fault at worker.panic"), "{summary}");
    assert_eq!(metric(addr, "lopacityd_jobs_quarantined"), 1);
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "pool survives a poisoned job");
    daemon.shutdown();
}

/// Load shedding: when the queued-spec byte budget is exceeded, the
/// oldest queued job is shed (failed, counted) in favor of the newcomer;
/// a spec that cannot fit at all gets `503` with a `Retry-After` header.
#[test]
fn load_shedding_sheds_oldest_and_rejects_oversize() {
    let small = "mode anonymize\nl 2\ntheta 0.0\nseed 11\nmax_steps 500\ngraph gnm 150 450 7\n";
    let small_bytes =
        lopacity_daemon::JobSpec::parse(small).unwrap().canonical_body().len();
    let daemon = boot(DaemonConfig {
        backlog_bytes: Some(small_bytes * 2 + small_bytes / 2),
        ..config_with(None)
    });
    let addr = daemon.addr();
    // Occupy the single worker so later submissions stay queued.
    let running = submit(addr, small);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = request(addr, "GET", &format!("/jobs/{running}"), "");
        if field(&body, "phase").as_deref() == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "first job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let queued_a = submit(addr, small);
    let queued_b = submit(addr, small);
    // Admitting a third queued spec would exceed the 2.5×-spec budget:
    // the oldest queued job is shed, the newcomer is admitted.
    let newcomer = submit(addr, small);
    let (status, body) = request(addr, "GET", &format!("/jobs/{queued_a}"), "");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "phase").as_deref(), Some("failed"), "oldest queued was shed");
    assert!(body.contains("shed under load"), "{body}");
    assert_eq!(metric(addr, "lopacityd_shed_total"), 1);

    // A spec too large for the whole budget is refused with Retry-After.
    let giant_edges: String = (0..200).map(|i| format!("{i} {}\n", i + 1)).collect();
    let giant = format!("mode anonymize\nl 1\ntheta 0.5\ngraph inline\n\n{giant_edges}");
    let raw = request_raw(addr, "POST", "/jobs", &giant);
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("Retry-After:"), "503 must carry Retry-After:\n{raw}");

    // Cleanup: cancel everything still alive.
    for id in [running, queued_b, newcomer] {
        let _ = request(addr, "POST", &format!("/jobs/{id}/cancel"), "");
    }
    daemon.shutdown();
}

/// The seeded chaos sweep: every named fault site fires at least once in
/// one daemon lifetime — and the workload still completes with a
/// byte-identical result. Degradation never becomes corruption.
#[test]
fn fault_sweep_fires_every_site_and_stays_correct() {
    let spec = budget_spec("rem", "auto", 40);
    let reference = reference_run(&spec);
    let dir = state_dir("sweep");
    let daemon = boot(DaemonConfig {
        fault_spec: Some(
            "socket.read:1,socket.write:1,journal.append:1,journal.fsync:2,\
             cache.insert:1,worker.panic:4"
                .to_string(),
        ),
        ..config_with(Some(dir.clone()))
    });
    let addr = daemon.addr();
    // Connection 1 dies on the injected read fault, connection 2 loses
    // its response on the write fault; both leave the daemon serving.
    assert_eq!(request_raw(addr, "GET", "/healthz", ""), "", "socket.read fault kills conn 1");
    assert_eq!(request_raw(addr, "GET", "/healthz", ""), "", "socket.write fault eats response 2");
    // The submit absorbs the journal.append fault via retry; the first
    // checkpoint absorbs journal.fsync the same way; cache.insert forces
    // a private build; worker.panic costs one re-queue + resume.
    let id = submit(addr, &spec);
    let (phase, summary) = wait_finished(addr, id);
    assert_eq!(phase, "done", "{summary}");
    assert_same_outcome(&reference, &summary, &result_graph(addr, id), "fault sweep");
    let fired = metric(addr, "lopacityd_faults_injected");
    assert!(fired >= 6, "all six sites must fire, got {fired}");
    for name in [
        "lopacityd_jobs_recovered",
        "lopacityd_jobs_quarantined",
        "lopacityd_faults_injected",
        "lopacityd_shed_total",
    ] {
        let (_, body) = request(addr, "GET", "/metrics", "");
        assert!(body.contains(name), "metric {name} missing:\n{body}");
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Subprocess tests: a real lopacityd process, really killed.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod subprocess {
    use super::*;
    use std::process::{Child, Command, Stdio};

    /// Boots the real binary on an ephemeral port; parses the announced
    /// address from its stdout.
    fn spawn_daemon(dir: &std::path::Path, extra: &[&str]) -> (Child, SocketAddr) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lopacityd"));
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--state-dir", dir.to_str().unwrap()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn lopacityd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("lopacityd announces its address")
            .expect("readable stdout");
        let addr = first
            .strip_prefix("lopacityd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first}"))
            .parse()
            .expect("parsable address");
        // Drain the rest of stdout on a throwaway thread so the child
        // never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        (child, addr)
    }

    fn recovered_matches_reference(dir: &std::path::Path, id: u64, reference: &(String, String)) {
        let (mut child, addr) = spawn_daemon(dir, &[]);
        let (phase, summary) = wait_finished(addr, id);
        assert_eq!(phase, "done", "{summary}");
        assert_same_outcome(reference, &summary, &result_graph(addr, id), "subprocess recovery");
        let (_, progress) = request(addr, "GET", &format!("/jobs/{id}/progress"), "");
        assert!(progress.contains("resumed from checkpoint"), "{progress}");
        let _ = child.kill();
        let _ = child.wait();
    }

    /// SIGKILL mid-job: no drain, no warning — the journal alone brings
    /// the job back, byte-identical.
    #[test]
    fn sigkill_recovery_is_byte_identical() {
        let spec = budget_spec("rem", "auto", 60);
        let reference = reference_run(&spec);
        let dir = state_dir("sigkill");
        let (mut child, addr) = spawn_daemon(&dir, &[]);
        let id = submit(addr, &spec);
        wait_steps(addr, id, 3);
        child.kill().expect("SIGKILL the daemon"); // SIGKILL: no cleanup runs
        child.wait().expect("reap");
        recovered_matches_reference(&dir, id, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `crash`-action fault (process abort at the Nth checkpoint append)
    /// — the self-inflicted SIGKILL — recovers the same way.
    #[test]
    fn injected_crash_fault_recovery_is_byte_identical() {
        let spec = budget_spec("rem-ins", "auto", 60);
        let reference = reference_run(&spec);
        let dir = state_dir("crashfault");
        let (mut child, addr) =
            spawn_daemon(&dir, &["--fault", "journal.append:5:crash"]);
        let id = submit(addr, &spec);
        let status = child.wait().expect("the injected fault aborts the process");
        assert!(!status.success(), "process must die from the abort, got {status}");
        recovered_matches_reference(&dir, id, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// SIGTERM drains: exit code 0, running job checkpointed (no terminal
    /// record), and the next boot resumes it — the init-system contract.
    #[test]
    fn sigterm_drains_with_exit_zero_and_resumes() {
        let spec = budget_spec("rem", "auto", 60);
        let reference = reference_run(&spec);
        let dir = state_dir("sigterm");
        let (mut child, addr) = spawn_daemon(&dir, &[]);
        let id = submit(addr, &spec);
        wait_steps(addr, id, 3);
        let term = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(term.success());
        let status = child.wait().expect("reap");
        assert!(status.success(), "SIGTERM drain must exit 0, got {status}");
        recovered_matches_reference(&dir, id, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
