//! The HTTP front end: a listener thread accepting connections, one
//! handler thread per connection (requests are short — submit, poll,
//! cancel — the long work happens on the worker pool), and the route
//! table over [`lopacity_util::http`].
//!
//! Endpoints:
//!
//! | method + path                 | effect                                      |
//! |-------------------------------|---------------------------------------------|
//! | `POST /jobs`                  | submit a job spec; `202 id=N` or `429`      |
//! | `GET /jobs/<id>`              | phase + summary                             |
//! | `GET /jobs/<id>/progress`     | observer lines from `?since=K` on           |
//! | `GET /jobs/<id>/result`       | summary once finished, else `409`           |
//! | `GET /jobs/<id>/graph`        | anonymized graph (edge list) once done      |
//! | `POST /jobs/<id>/cancel`      | cooperative cancel (running or queued)      |
//! | `POST /jobs/<id>/events`      | churn batch into the held session           |
//! | `GET /metrics`                | counter exposition                          |
//! | `GET /healthz`                | liveness probe                              |

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use lopacity_util::http::{prepare_stream, HttpError, Request, Response, MAX_BODY};

use crate::config::DaemonConfig;
use crate::job::JobSpec;
use crate::journal::Journal;
use crate::state::{ChurnError, Job, ServerState, SubmitError};

/// A running daemon: listener + worker pool over a shared [`ServerState`].
/// Dropping it shuts everything down (cancelling in-flight jobs).
pub struct Daemon {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    io_timeout: Option<Duration>,
}

impl Daemon {
    /// Binds the listener and spawns the accept loop and worker pool.
    /// With a `state_dir`, the journal is opened and replayed *before*
    /// the first worker starts, so recovered jobs run exactly once.
    pub fn bind(config: &DaemonConfig) -> std::io::Result<Daemon> {
        let faults = Arc::new(config.fault_plan().map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("fault plan: {e}"))
        })?);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = ServerState::new(config, Arc::clone(&faults));
        if let Some(dir) = &config.state_dir {
            let (journal, records) = Journal::open(dir, faults)?;
            let recovered = state.attach_journal(Arc::new(journal), records);
            if recovered > 0 {
                eprintln!("lopacityd: recovered {recovered} job(s) from the journal");
            }
        }
        let io_timeout = match config.io_timeout_secs {
            0 => None,
            secs => Some(Duration::from_secs(secs)),
        };
        let max_body = config.max_body.unwrap_or(MAX_BODY);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                thread::Builder::new()
                    .name(format!("lopacityd-worker-{i}"))
                    .spawn(move || state.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("lopacityd-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state, io_timeout, max_body))
            .expect("spawn accept thread");
        Ok(Daemon { state, addr, accept: Some(accept), workers, io_timeout })
    }

    /// The configured per-connection socket deadline.
    pub fn io_timeout(&self) -> Option<Duration> {
        self.io_timeout
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the shared state (integration tests, embedding).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops accepting, cancels in-flight jobs, and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Graceful SIGTERM-style drain: stop admitting (`503`), stop running
    /// jobs at their next cooperative checkpoint *without* journaling a
    /// terminal phase, and join all threads. With a state dir, every job
    /// still queued or running recovers — and resumes from its last
    /// durable checkpoint — on the next boot over the same directory.
    pub fn drain(mut self) {
        self.state.begin_drain();
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.accept.is_none() && self.workers.is_empty() {
            return;
        }
        self.state.request_shutdown();
        self.state.cancel_all();
        // Unblock the accept loop with one last connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// SIGTERM plumbing for [`serve_until_term`]: a raw `signal(2)`
/// registration (no dependencies; libc is always linked on unix) whose
/// handler only flips an atomic — everything async-signal-unsafe happens
/// on the main thread after the poll loop observes the flag.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }
}

/// Binds `config`, announces it on stdout and serves until SIGTERM — the
/// whole life of `lopacityd` and of `lopacify serve`. The first line,
/// `lopacityd listening on ADDR`, is what scripts wait for.
pub fn boot_and_serve(config: &DaemonConfig) -> Result<(), String> {
    let daemon = Daemon::bind(config).map_err(|e| format!("bind {}: {e}", config.addr))?;
    println!("lopacityd listening on {}", daemon.addr());
    println!("workers {} queue {}", config.workers.max(1), config.queue_capacity);
    if let Some(dir) = &config.state_dir {
        println!("state-dir {}", dir.display());
    }
    serve_until_term(daemon);
    Ok(())
}

/// Serves until SIGTERM, then drains gracefully ([`Daemon::drain`]) and
/// returns — the caller exits 0, the contract init systems expect from a
/// well-behaved service. Running jobs stop at their next cooperative
/// checkpoint with their snapshots journaled; with a state dir they
/// resume on the next boot. On non-unix targets this never returns (no
/// SIGTERM to catch — kill the process).
pub fn serve_until_term(daemon: Daemon) {
    #[cfg(unix)]
    {
        term_signal::install();
        while !term_signal::TERM.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::park_timeout(Duration::from_millis(100));
        }
        eprintln!("lopacityd: SIGTERM received, draining");
        daemon.drain();
    }
    #[cfg(not(unix))]
    {
        let _ = daemon;
        loop {
            std::thread::park();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<ServerState>,
    io_timeout: Option<Duration>,
    max_body: usize,
) {
    for stream in listener.incoming() {
        if state.is_shutdown() {
            return;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        let _ = thread::Builder::new()
            .name("lopacityd-conn".to_string())
            .spawn(move || handle_connection(stream, state, io_timeout, max_body));
    }
}

fn handle_connection(
    stream: TcpStream,
    state: Arc<ServerState>,
    io_timeout: Option<Duration>,
    max_body: usize,
) {
    // `TCP_NODELAY` (each response leaves in one write, so Nagle would
    // only stall its tail) plus read *and* write deadlines: a client that
    // stalls mid-request (or stops draining the response) costs one
    // handler thread for at most the deadline, not forever — the
    // slowloris guard. The deadlines also bound how long an idle
    // kept-alive connection holds its thread.
    let _ = prepare_stream(&stream, io_timeout);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    // Keep-alive loop: serve requests until the client closes, asks to
    // close, idles past the read deadline, an error makes further framing
    // untrustworthy, or shutdown.
    loop {
        if state.faults.check_io("socket.read").is_err() {
            return; // injected read failure: the connection just dies
        }
        if !next_request_started(&mut reader) {
            return;
        }
        let (response, keep) = match Request::parse_with_limits(&mut reader, max_body) {
            Ok(request) => {
                let keep = request.keep_alive && !state.is_shutdown();
                (route(&request, &state), keep)
            }
            Err(HttpError::ConnectionClosed) => return,
            // After a framing error the stream position is undefined —
            // answer and drop the connection rather than misparse.
            Err(e) => (Response::new(400).text(format!("bad request: {e}\n")), false),
        };
        let response = response.keep_alive(keep);
        if state.faults.check_io("socket.write").is_err() {
            return; // injected write failure: response lost on the wire
        }
        if response.write_to(&mut write_half).is_err() || !keep {
            return;
        }
    }
}

/// Waits for the first byte of the next request on a kept-alive
/// connection. `false` means there is no request to answer: the client
/// closed, or the read deadline fired while the connection sat idle. The
/// caller then closes without writing — an unsolicited error response
/// would be read by the client as the reply to its next request. A stall
/// after the first byte still surfaces from the parser as a `400`.
fn next_request_started(reader: &mut impl BufRead) -> bool {
    loop {
        match reader.fill_buf() {
            Ok(buffered) => return !buffered.is_empty(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Dispatches one parsed request against the state.
pub fn route(request: &Request, state: &Arc<ServerState>) -> Response {
    // Sweep expired jobs on every request, not only on submit and
    // worker-loop turns — an idle daemon that only ever gets polled
    // still honors its TTL.
    state.gc_expired();
    let segments: Vec<&str> =
        request.path.split('/').filter(|segment| !segment.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::ok("ok\n"),
        ("GET", ["metrics"]) => Response::ok(state.render_metrics()),
        ("POST", ["jobs"]) => submit(request, state),
        ("GET", ["jobs", id]) => with_job(state, id, |job| {
            let status = job.snapshot();
            Response::ok(format!("id {}\nphase {}\n{}", job.id, status.phase.name(), status.summary))
        }),
        ("GET", ["jobs", id, "progress"]) => with_job(state, id, |job| {
            let since = request
                .query_param("since")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            let (next, lines) = job.progress_since(since);
            let mut body = format!("next {next}\n");
            for line in lines {
                body.push_str(&line);
                body.push('\n');
            }
            Response::ok(body)
        }),
        ("GET", ["jobs", id, "graph"]) => with_job(state, id, |job| {
            let status = job.snapshot();
            match job.result_graph() {
                Some(graph) => Response::ok(graph),
                None if status.phase.finished() => Response::new(404)
                    .text(format!("job {} produced no graph ({})\n", job.id, status.phase.name())),
                None => {
                    Response::new(409).text(format!("job {} still {}\n", job.id, status.phase.name()))
                }
            }
        }),
        ("GET", ["jobs", id, "result"]) => with_job(state, id, |job| {
            let status = job.snapshot();
            if status.phase.finished() {
                Response::ok(format!("phase {}\n{}", status.phase.name(), status.summary))
            } else {
                Response::new(409).text(format!("job {} still {}\n", job.id, status.phase.name()))
            }
        }),
        ("POST", ["jobs", id, "cancel"]) => match id.parse::<u64>() {
            Ok(id) if state.cancel(id) => Response::ok("cancelling\n"),
            Ok(id) => Response::new(404).text(format!("no job {id}\n")),
            Err(_) => Response::new(400).text("job id is not a number\n"),
        },
        ("POST", ["jobs", id, "events"]) => events(request, state, id),
        _ => Response::new(404).text("not found\n"),
    }
}

fn with_job(
    state: &Arc<ServerState>,
    id: &str,
    respond: impl FnOnce(&Job) -> Response,
) -> Response {
    match id.parse::<u64>() {
        Ok(id) => match state.job(id) {
            Some(job) => respond(&job),
            None => Response::new(404).text(format!("no job {id}\n")),
        },
        Err(_) => Response::new(400).text("job id is not a number\n"),
    }
}

fn submit(request: &Request, state: &Arc<ServerState>) -> Response {
    let Some(body) = request.body_str() else {
        return Response::new(400).text("body is not UTF-8\n");
    };
    let mut spec = match JobSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => return Response::new(400).text(format!("bad job spec: {e}\n")),
    };
    // An `Idempotency-Key` header is folded into the spec (same slot as
    // an `ikey` line, which wins on conflict) so it rides the journaled
    // canonical spec and survives daemon restarts.
    if spec.idempotency_key.is_none() {
        if let Some(key) = request.header("idempotency-key") {
            if let Err(e) = crate::job::validate_idempotency_key(key) {
                return Response::new(400).text(format!("bad Idempotency-Key: {e}\n"));
            }
            spec.idempotency_key = Some(key.to_string());
        }
    }
    match state.submit(spec) {
        Ok(job) => Response::new(202).text(format!("id {}\n", job.id)),
        Err(SubmitError::QueueFull) => {
            Response::new(429).header("Retry-After", "5").text("queue full\n")
        }
        Err(SubmitError::ShuttingDown) => Response::new(503).text("shutting down\n"),
        Err(SubmitError::Overloaded) => Response::new(503)
            .header("Retry-After", "5")
            .text("overloaded: checkpointed backlog over budget\n"),
        Err(SubmitError::TooLarge { estimate, budget }) => Response::new(413).text(format!(
            "estimated footprint {estimate} bytes exceeds the per-job memory budget {budget}\n"
        )),
        Err(SubmitError::MemFull { estimate, in_flight, budget }) => Response::new(429)
            .header("Retry-After", "5")
            .text(format!(
                "memory budget full: {in_flight} bytes in flight + {estimate} estimated exceeds {budget}\n"
            )),
        Err(SubmitError::Journal(e)) => {
            Response::new(503).text(format!("journal write failed, job not admitted: {e}\n"))
        }
    }
}

fn events(request: &Request, state: &Arc<ServerState>, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::new(400).text("job id is not a number\n");
    };
    let Some(body) = request.body_str() else {
        return Response::new(400).text("body is not UTF-8\n");
    };
    match state.apply_churn_events(id, body) {
        Ok(report) => Response::ok(report),
        Err(ChurnError::UnknownJob) => Response::new(404).text(format!("no job {id}\n")),
        Err(ChurnError::NoSession) => {
            Response::new(409).text(format!("job {id} holds no live churn session\n"))
        }
        Err(ChurnError::Parse(e)) => Response::new(400).text(format!("bad event stream: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn accepted_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // A second handle on the same socket outlives the handler.
        let probe = accepted.try_clone().unwrap();
        let state = ServerState::new(&DaemonConfig::default(), Default::default());
        let handler = thread::spawn(move || handle_connection(accepted, state, None, MAX_BODY));
        client.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        handler.join().unwrap();
        assert!(probe.nodelay().unwrap());
        drop(probe); // the last handle: the client now sees the close
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    }
}
