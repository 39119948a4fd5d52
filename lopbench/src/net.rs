//! The daemon under test and the load generator's connections to it.

use crate::sys;
use lopacity_client::{Client, ClientConfig, ClientError};
use lopacity_daemon::journal::scan_frames;
use lopacity_daemon::Journal;
use lopacity_util::http::ClientResponse;
use lopacity_util::FaultPlan;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running release `lopacityd` with a durable state dir.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub state_dir: PathBuf,
}

impl Daemon {
    /// Boots `lopacityd` on a free port with `--state-dir` (journal and
    /// per-step checkpoints on, as in production) and 2 workers.
    pub fn boot(bin_dir: &Path, dir: &Path) -> Result<Daemon, String> {
        let state_dir = dir.join("state");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log =
            |name: &str| std::fs::File::create(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        let stdout_path = dir.join("daemon.out");
        let mut child = Command::new(bin_dir.join("lopacityd"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--state-dir"])
            .arg(&state_dir)
            .stdin(Stdio::null())
            .stdout(log("daemon.out")?)
            .stderr(log("daemon.err")?)
            .spawn()
            .map_err(|e| format!("spawning lopacityd: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&stdout_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("lopacityd listening on "))
            {
                return Ok(Daemon {
                    child,
                    addr: addr.trim().to_string(),
                    state_dir,
                });
            }
            if Instant::now() >= deadline {
                let _ = sys::terminate(&mut child, Duration::from_secs(1));
                return Err("lopacityd did not report its address".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds the daemon has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        sys::cpu_seconds(self.pid())
    }

    /// The daemon's peak resident set so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        sys::vm_hwm_mb(self.pid()).ok_or_else(|| "lopacityd: no VmHWM in /proc".to_string())
    }

    /// SIGTERM (graceful drain), then reap.
    pub fn stop(mut self) -> Result<(), String> {
        sys::terminate(&mut self.child, Duration::from_secs(20))
    }

    /// Byte length of the journal so far.
    pub fn journal_len(&self) -> u64 {
        std::fs::metadata(self.state_dir.join("journal.log")).map_or(0, |m| m.len())
    }
}

/// One keep-alive connection of the load generator. Retries are done here
/// (the client itself runs with `max_retries = 0`) so they can be counted.
pub struct Conn {
    client: Client,
    /// Requests sent, retries included.
    pub requests: u64,
    pub retries: u64,
}

/// Retries after the first attempt, as `lopacity-client`'s default.
const MAX_RETRIES: u32 = 5;

impl Conn {
    pub fn new(addr: &str, seed: u64) -> Conn {
        let config = ClientConfig {
            addr: addr.to_string(),
            max_retries: 0,
            seed,
            ..ClientConfig::default()
        };
        Conn {
            client: Client::new(config),
            requests: 0,
            retries: 0,
        }
    }

    /// One request with capped exponential backoff on transport errors and
    /// `429`/`503`; any other 4xx/5xx fails at once.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, String> {
        let mut attempt = 0u32;
        loop {
            self.requests += 1;
            let err = match self.client.request(method, path, &[], body) {
                Ok(response) => return Ok(response),
                Err(ClientError::Rejected { status, body }) => {
                    return Err(format!("{method} {path}: {status} {}", body.trim_end()))
                }
                Err(e) => e,
            };
            attempt += 1;
            if attempt > MAX_RETRIES {
                return Err(format!("{method} {path}: {err}"));
            }
            self.retries += 1;
            let backoff = Duration::from_millis(100 << (attempt - 1)).min(Duration::from_secs(5));
            std::thread::sleep(backoff);
        }
    }

    /// `call` that requires a UTF-8 body.
    pub fn text(&mut self, method: &str, path: &str, body: &[u8]) -> Result<String, String> {
        let response = self.call(method, path, body)?;
        response
            .body_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{method} {path}: body is not UTF-8"))
    }
}

/// `GET /metrics` over a fresh connection (an idle kept-alive connection
/// can be closed under it by the daemon's I/O timeout).
pub fn scrape_metrics(addr: &str) -> Result<HashMap<String, u64>, String> {
    let body = Conn::new(addr, 0).text("GET", "/metrics", b"")?;
    Ok(body
        .lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Polls job `id` until it leaves `queued`/`running`; returns its final
/// status body. Used by set-up, outside any timed window.
pub fn wait_finished(conn: &mut Conn, id: u64) -> Result<String, String> {
    loop {
        let status = conn.text("GET", &format!("/jobs/{id}"), b"")?;
        match field(&status, "phase") {
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(5)),
            Some(_) => return Ok(status),
            None => return Err(format!("job {id}: status without a phase: {status:?}")),
        }
    }
}

/// `POST /jobs`; returns the job id.
pub fn submit(conn: &mut Conn, spec: &str) -> Result<u64, String> {
    let body = conn.text("POST", "/jobs", spec.as_bytes())?;
    body.strip_prefix("id ")
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| format!("submit reply without an id: {body:?}"))
}

/// The value of a `key value` line.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

/// Journal accounting for the records a window appended.
pub struct JournalReplay {
    pub bytes: u64,
    pub records: usize,
    /// Seconds per `Journal::append` when those records are appended again
    /// to a fresh journal on the same filesystem.
    pub append_s: Vec<f64>,
}

/// Reads the journal bytes in `[from, to)` and appends every record they
/// hold to a fresh journal under `scratch`, timing each append.
pub fn replay_journal(
    state_dir: &Path,
    from: u64,
    to: u64,
    scratch: &Path,
) -> Result<JournalReplay, String> {
    let buf = std::fs::read(state_dir.join("journal.log")).map_err(|e| format!("journal: {e}"))?;
    let window = &buf[(from as usize).min(buf.len())..(to as usize).min(buf.len())];
    let (records, _, torn) = scan_frames(window);
    if let Some(why) = torn {
        return Err(format!("journal window does not parse: {why}"));
    }
    let (journal, _) = Journal::open(scratch, Arc::new(FaultPlan::none()))
        .map_err(|e| format!("opening replay journal: {e}"))?;
    let mut append_s = Vec::with_capacity(records.len());
    for record in &records {
        let t = Instant::now();
        journal
            .append(record)
            .map_err(|e| format!("replay append: {e}"))?;
        append_s.push(t.elapsed().as_secs_f64());
    }
    Ok(JournalReplay {
        bytes: window.len() as u64,
        records: records.len(),
        append_s,
    })
}
