//! The `lopacify` exit-code contract, driven through the real binary:
//!
//! * `0` — success,
//! * `1` — I/O failures (unreadable files) and usage errors,
//! * `2` — input parse errors (malformed edge lists or event streams),
//! * `3` — θ lost: the churn stream ended uncertified after repair.
//!
//! The codes let scripts distinguish "fix your pipeline" (1), "fix your
//! data" (2), and "the privacy goal is unreachable" (3) without scraping
//! stderr.

use std::path::PathBuf;
use std::process::Command;

fn lopacify() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lopacify"))
}

/// A scratch file under the system temp dir, unique per test process.
fn scratch(name: &str, content: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("lopacify-exit-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write scratch file");
    path
}

fn out_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lopacify-exit-{}-out-{name}", std::process::id()))
}

/// A triangle: certifiable at θ = 1 trivially.
const TRIANGLE: &str = "0 1\n1 2\n0 2\n";

// (No K4-style fixture for the greedy methods: `rem` commits weakly
// improving moves, so it always reaches θ = 0 by emptying the graph. The
// lost-θ test instead repairs with the GADES baseline, which inserts for
// degree anonymity and cannot drive `maxLO` to 0.)

#[test]
fn certified_stream_exits_0() {
    let graph = scratch("ok-graph", TRIANGLE);
    let events = scratch("ok-events", "- 0 1\n+ 0 1\n");
    let status = lopacify()
        .args(["churn", "--l", "1", "--theta", "1.0"])
        .arg("--in")
        .arg(&graph)
        .arg("--events")
        .arg(&events)
        .arg("--out")
        .arg(out_path("ok"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn unreadable_graph_exits_1() {
    let events = scratch("noio-events", "+ 0 1\n");
    let status = lopacify()
        .args(["churn", "--l", "1", "--theta", "1.0", "--in", "/nonexistent/graph.txt"])
        .arg("--events")
        .arg(&events)
        .arg("--out")
        .arg(out_path("noio"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(1), "missing graph file is an I/O failure");
}

#[test]
fn unreadable_event_stream_exits_1() {
    let graph = scratch("noev-graph", TRIANGLE);
    let status = lopacify()
        .args(["churn", "--l", "1", "--theta", "1.0"])
        .arg("--in")
        .arg(&graph)
        .args(["--events", "/nonexistent/events.txt"])
        .arg("--out")
        .arg(out_path("noev"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(1), "missing events file is an I/O failure");
}

#[test]
fn malformed_graph_exits_2() {
    let graph = scratch("badgraph-graph", "0 zebra\n");
    let events = scratch("badgraph-events", "+ 0 1\n");
    let status = lopacify()
        .args(["churn", "--l", "1", "--theta", "1.0"])
        .arg("--in")
        .arg(&graph)
        .arg("--events")
        .arg(&events)
        .arg("--out")
        .arg(out_path("badgraph"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(2), "malformed edge list is a parse error");
}

#[test]
fn malformed_event_stream_exits_2() {
    let graph = scratch("badev-graph", TRIANGLE);
    let events = scratch("badev-events", "+ 0 1\nnot an event\n");
    let status = lopacify()
        .args(["churn", "--l", "1", "--theta", "1.0"])
        .arg("--in")
        .arg(&graph)
        .arg("--events")
        .arg(&events)
        .arg("--out")
        .arg(out_path("badev"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(2), "malformed event stream is a parse error");
}

#[test]
fn lost_theta_after_repair_exits_3() {
    let graph = scratch("lost-graph", TRIANGLE);
    let events = scratch("lost-events", "# no events\n");
    let status = lopacify()
        .args(["churn", "--l", "1", "--theta", "0.0", "--method", "gades"])
        .arg("--in")
        .arg(&graph)
        .arg("--events")
        .arg(&events)
        .arg("--out")
        .arg(out_path("lost"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(3), "uncertified end of stream reports lost θ");
}

/// A misspelt flag is a usage error that names the flag — never a run
/// with the flag silently dropped (`--max-step 1` once ran every step).
#[test]
fn unknown_flags_exit_1_and_are_named() {
    let graph = scratch("typo-graph", TRIANGLE);
    for typo in ["--max-step", "--paralelism"] {
        let output = lopacify()
            .args(["anonymize", "--l", "1", "--theta", "1.0", typo, "4"])
            .arg("--in")
            .arg(&graph)
            .arg("--out")
            .arg(out_path("typo"))
            .output()
            .expect("run lopacify");
        assert_eq!(output.status.code(), Some(1), "{typo} is a usage error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(typo), "the error names {typo}: {stderr}");
    }
    // `serve` takes exactly lopacityd's flags, and its fault plans must
    // name real sites; both fail before anything binds.
    for (flag, value, named) in
        [("--max-bodyy", "64", "--max-bodyy"), ("--fault", "bogus-site:1", "bogus-site")]
    {
        let output = lopacify().args(["serve", flag, value]).output().expect("run lopacify");
        assert_eq!(output.status.code(), Some(1), "serve {flag} {value}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(named), "the error names {named}: {stderr}");
    }
    // Help still works on every subcommand.
    let output = lopacify().args(["anonymize", "--help"]).output().expect("run lopacify");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("exit codes:"));
}

#[test]
fn help_lists_the_exit_codes() {
    let output = lopacify().arg("help").output().expect("run lopacify");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    assert!(text.contains("exit codes:"), "usage text documents the contract");
    for needle in ["1  I/O failures", "2  input parse errors", "3  theta lost"] {
        assert!(text.contains(needle), "usage text missing {needle:?}");
    }
}

#[test]
fn help_lists_the_rival_models_and_compare() {
    let output = lopacify().arg("help").output().expect("run lopacify");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    for needle in ["k-degree", "kl-adjacency", "compare", "--budget"] {
        assert!(text.contains(needle), "usage text missing {needle:?}");
    }
}

/// A five-leaf star: its hub is alone in its degree class, so k-degree
/// repair must insert edges before certifying.
const STAR5: &str = "0 1\n0 2\n0 3\n0 4\n0 5\n";

#[test]
fn k_degree_repair_exits_0() {
    let graph = scratch("kdeg-graph", STAR5);
    let out = out_path("kdeg");
    let status = lopacify()
        .args(["anonymize", "--l", "1", "--theta", "1.0", "--method", "k-degree", "--k", "3"])
        .arg("--in")
        .arg(&graph)
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(0), "a feasible k-degree repair certifies");
    assert!(out.exists(), "the anonymized graph is written");
}

#[test]
fn budget_starved_k_degree_repair_exits_3() {
    let graph = scratch("kdeg3-graph", STAR5);
    let status = lopacify()
        .args([
            "anonymize", "--l", "1", "--theta", "1.0", "--method", "k-degree", "--k", "3",
            "--max-edits", "1",
        ])
        .arg("--in")
        .arg(&graph)
        .arg("--out")
        .arg(out_path("kdeg3"))
        .status()
        .expect("run lopacify");
    assert_eq!(
        status.code(),
        Some(3),
        "one edit cannot reach 3-degree anonymity on the star: the model's \
         certifier (not theta) decides the verdict"
    );
}

#[test]
fn kl_adjacency_repair_exits_0() {
    let graph = scratch("kladj-graph", STAR5);
    let status = lopacify()
        .args(["anonymize", "--l", "1", "--theta", "1.0", "--method", "kl-adjacency", "--k", "2"])
        .arg("--in")
        .arg(&graph)
        .arg("--out")
        .arg(out_path("kladj"))
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(0), "a feasible (2,1)-adjacency repair certifies");
}

#[test]
fn compare_writes_the_report_and_exits_0() {
    let graph = scratch("cmp-graph", STAR5);
    let json = out_path("cmp-json");
    let csv = out_path("cmp-csv");
    let output = lopacify()
        .args(["compare", "--l", "1", "--theta", "0.5", "--k", "2", "--ell", "1"])
        .arg("--in")
        .arg(&graph)
        .arg("--json")
        .arg(&json)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("run lopacify");
    assert_eq!(output.status.code(), Some(0), "a comparison is a report, never exit 3");
    let report = std::fs::read_to_string(&json).expect("COMPARE.json written");
    for needle in ["\"l-opacity-rem\"", "\"k-degree\"", "\"kl-adjacency\"", "\"budget\""] {
        assert!(report.contains(needle), "COMPARE.json missing {needle}");
    }
    let table = std::fs::read_to_string(&csv).expect("CSV written");
    assert!(table.starts_with("model,"), "CSV has the fixed header");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("l-opacity-rem-ins"), "summary table on stdout");
}

// ---------------------------------------------------------------------
// Remote submission (`lopacify submit` against an in-process daemon):
// the same contract over the wire — 0 accepted/achieved, 1 transport,
// 2 rejected spec (400 parse or 413 footprint), 3 theta lost.

use lopacity_daemon::{Daemon, DaemonConfig};

fn test_daemon(config: DaemonConfig) -> Daemon {
    Daemon::bind(&DaemonConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..config })
        .expect("bind daemon on an ephemeral port")
}

#[test]
fn submit_wait_roundtrip_exits_0_and_writes_the_graph() {
    let daemon = test_daemon(DaemonConfig::default());
    let spec = scratch("submit-ok", "mode anonymize\nl 1\ntheta 1.0\ngraph gnm 12 20 3\n");
    let out = out_path("submit-ok");
    let output = lopacify()
        .args(["submit", "--wait", "--ikey", "cli-ok-1"])
        .arg("--addr")
        .arg(daemon.addr().to_string())
        .arg("--spec")
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run lopacify");
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("id 1"), "job id printed: {stdout}");
    assert!(stdout.contains("achieved true"), "result summary printed: {stdout}");
    let graph = std::fs::read_to_string(&out).expect("graph written");
    assert!(graph.contains("# vertices"), "edge-list header present: {graph}");
    daemon.shutdown();
}

#[test]
fn submit_rejected_spec_exits_2() {
    let daemon = test_daemon(DaemonConfig::default());
    let spec = scratch("submit-bad", "mode anonymize\nl 0\ngraph gnm 5 5 1\n");
    let status = lopacify()
        .args(["submit"])
        .arg("--addr")
        .arg(daemon.addr().to_string())
        .arg("--spec")
        .arg(&spec)
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(2), "a 400 from the daemon is a data error");
    daemon.shutdown();
}

#[test]
fn submit_over_footprint_budget_exits_2() {
    let daemon =
        test_daemon(DaemonConfig { job_mem_budget: Some(64), ..DaemonConfig::default() });
    let spec = scratch("submit-413", "mode anonymize\nl 1\ntheta 1.0\ngraph gnm 100 300 3\n");
    let output = lopacify()
        .args(["submit"])
        .arg("--addr")
        .arg(daemon.addr().to_string())
        .arg("--spec")
        .arg(&spec)
        .output()
        .expect("run lopacify");
    assert_eq!(output.status.code(), Some(2), "a 413 footprint refusal is a data error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("footprint"), "the estimate reaches the user: {stderr}");
    daemon.shutdown();
}

#[test]
fn submit_unreachable_daemon_exits_1() {
    let spec = scratch("submit-noconn", "mode anonymize\nl 1\ntheta 1.0\ngraph gnm 5 8 1\n");
    // A port from the ephemeral range with nothing listening; zero
    // retries so the failure is immediate.
    let status = lopacify()
        .args(["submit", "--addr", "127.0.0.1:59999", "--retries", "0"])
        .arg("--spec")
        .arg(&spec)
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(1), "transport failure is an I/O error");
}

#[test]
fn submit_wait_with_theta_lost_exits_3() {
    let daemon = test_daemon(DaemonConfig::default());
    // One greedy step cannot reach theta 0 on this graph: the job
    // finishes done with `achieved false` (budget-interrupted).
    let spec = scratch(
        "submit-lost",
        "mode anonymize\nl 2\ntheta 0.0\nseed 11\nmax_steps 1\ngraph gnm 30 60 3\n",
    );
    let status = lopacify()
        .args(["submit", "--wait"])
        .arg("--addr")
        .arg(daemon.addr().to_string())
        .arg("--spec")
        .arg(&spec)
        .status()
        .expect("run lopacify");
    assert_eq!(status.code(), Some(3), "theta lost over the wire is still exit 3");
    daemon.shutdown();
}

// `lopacify serve` is `lopacityd` in-process: the same flag parser, the
// same option table.

/// A `lopacify serve` child, killed when dropped. Its stdout stays open
/// so the startup lines after the announcement never hit a closed pipe.
struct Serve(std::process::Child, std::io::BufReader<std::process::ChildStdout>);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boots `lopacify serve` with `flags` on a free port and returns it
/// with the address it announced.
fn serve(flags: &[&str]) -> (Serve, String) {
    use std::io::BufRead;
    let mut child = lopacify()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(flags)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn lopacify serve");
    let stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut serve = Serve(child, stdout);
    let mut first = String::new();
    serve.1.read_line(&mut first).expect("read the announcement");
    let addr = first
        .trim()
        .strip_prefix("lopacityd listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .to_string();
    (serve, addr)
}

#[test]
fn serve_enforces_max_body() {
    use std::io::{Read, Write};
    let (_serve, addr) = serve(&["--max-body", "64"]);
    // A valid spec padded to 200 bytes with a comment line.
    let job = "mode anonymize\nl 1\ntheta 1.0\ngraph gnm 12 20 3\n";
    let body = format!("# {}\n{job}", "x".repeat(200 - 3 - job.len()));
    assert_eq!(body.len(), 200);
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(20))).unwrap();
    let request = format!(
        "POST /jobs HTTP/1.1\r\nConnection: close\r\nContent-Length: 200\r\n\r\n{body}"
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read the reply");
    assert!(reply.starts_with("HTTP/1.1 400 "), "a 200-byte body over --max-body 64: {reply}");
}
