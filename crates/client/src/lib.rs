//! `lopacity-client`: a blocking HTTP client for `lopacityd`.
//!
//! Built directly over [`lopacity_util::http`] (no external HTTP stack):
//!
//! * **Keep-alive reuse** — one TCP connection serves many requests; a
//!   connection the server closed between requests (the stale keep-alive
//!   race) is transparently re-dialed once before the attempt counts as
//!   a failure.
//! * **Timeouts everywhere** — connect, read, and write deadlines, so a
//!   wedged daemon costs a bounded wait, never a hang.
//! * **One write per request** — the request line, headers and body leave
//!   in one buffer on a `TCP_NODELAY` socket
//!   ([`lopacity_util::http::write_request`]), so no piece of a request
//!   waits behind Nagle's algorithm for the daemon's delayed ACK.
//! * **Capped exponential backoff with deterministic jitter** — retryable
//!   responses (`429`, `503`) and transport errors are retried up to
//!   [`ClientConfig::max_retries`] times, sleeping
//!   `base_backoff * 2^attempt` capped at `max_backoff`, scaled by a
//!   jitter factor in `[0.5, 1.0)` drawn from a seeded
//!   [`rand::rngs::StdRng`] — a fleet of clients with distinct seeds desynchronizes,
//!   and a test with a fixed seed replays the exact same schedule. A
//!   server-sent `Retry-After` (whole seconds) is honored, still capped
//!   at `max_backoff`.
//! * **Idempotent resubmission** — [`Client::submit_idempotent`] sends an
//!   `Idempotency-Key` header; the daemon folds it into the journaled
//!   spec, so a retry that crosses a daemon crash and restart lands on
//!   the *same* job instead of creating a duplicate.
//!
//! ```no_run
//! use lopacity_client::{Client, ClientConfig};
//!
//! let mut client = Client::new(ClientConfig {
//!     addr: "127.0.0.1:7311".to_string(),
//!     ..ClientConfig::default()
//! });
//! let id = client
//!     .submit_idempotent("mode anonymize\nl 2\ntheta 0.5\ngraph gnm 100 300 7\n", "run-42")
//!     .expect("submit");
//! let summary = client.wait(id, std::time::Duration::from_millis(200)).expect("result");
//! println!("job {id}: {summary}");
//! ```

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use lopacity_util::http::{prepare_stream, write_request, ClientResponse};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Construction-time knobs for [`Client::new`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Socket read/write deadline per request; `None` disables.
    pub io_timeout: Option<Duration>,
    /// Retries after the first attempt (so `max_retries = 5` means at
    /// most 6 tries) for transport errors and retryable statuses.
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling — also caps an honored `Retry-After`.
    pub max_backoff: Duration,
    /// Jitter seed. Give each fleet member its own seed to spread their
    /// retry schedules; fix it in tests for reproducible timing.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            addr: "127.0.0.1:7311".to_string(),
            connect_timeout: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(30)),
            max_retries: 5,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            seed: 0,
        }
    }
}

/// Terminal failures of a client call (retryable conditions only surface
/// here once the retry budget is spent).
#[derive(Debug)]
pub enum ClientError {
    /// Connect or socket I/O kept failing through every retry.
    Transport(String),
    /// A definitive HTTP rejection (4xx other than 429) — retrying the
    /// same request cannot change the answer.
    Rejected { status: u16, body: String },
    /// Retryable responses (`429`/`503`) outlasted the retry budget; the
    /// last one is carried here.
    Exhausted { attempts: u32, status: u16, body: String },
    /// A 2xx response whose body did not have the expected shape.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Rejected { status, body } => {
                write!(f, "rejected ({status}): {}", body.trim_end())
            }
            ClientError::Exhausted { attempts, status, body } => write!(
                f,
                "gave up after {attempts} attempts, last {status}: {}",
                body.trim_end()
            ),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One open keep-alive connection: buffered read half + write half of
/// the same socket.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A blocking `lopacityd` client; see the crate docs. Not `Sync` — give
/// each thread of a fleet its own `Client` (and its own jitter seed).
pub struct Client {
    config: ClientConfig,
    conn: Option<Conn>,
    rng: StdRng,
}

impl Client {
    pub fn new(config: ClientConfig) -> Client {
        let rng = StdRng::seed_from_u64(config.seed);
        Client { config, conn: None, rng }
    }

    /// The configured daemon address.
    pub fn addr(&self) -> &str {
        &self.config.addr
    }

    fn connect(&self) -> Result<Conn, String> {
        let mut last = "address resolved to nothing".to_string();
        let addrs: Vec<SocketAddr> = self
            .config
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {}: {e}", self.config.addr))?
            .collect();
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => {
                    prepare_stream(&stream, self.config.io_timeout).map_err(|e| e.to_string())?;
                    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Conn { reader: BufReader::new(read_half), writer: stream });
                }
                Err(e) => last = format!("connect {addr}: {e}"),
            }
        }
        Err(last)
    }

    /// Writes one request and reads its response on `conn`.
    fn exchange(
        conn: &mut Conn,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, String> {
        write_request(&mut conn.writer, method, path, headers, body)
            .map_err(|e| format!("write: {e}"))?;
        ClientResponse::parse(&mut conn.reader).map_err(|e| format!("read: {e}"))
    }

    /// One try: reuse the kept-alive connection if any, re-dialing once
    /// when reuse fails (the server may have closed it between requests —
    /// every daemon request is safe to re-send, submissions via their
    /// idempotency key).
    fn try_once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, String> {
        let reused = self.conn.is_some();
        if self.conn.is_none() {
            self.conn = Some(self.connect()?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let response = match Self::exchange(conn, method, path, headers, body) {
            Ok(response) => response,
            Err(first) => {
                self.conn = None;
                if !reused {
                    return Err(first);
                }
                let mut fresh = self.connect()?;
                let response = Self::exchange(&mut fresh, method, path, headers, body)?;
                if response.keep_alive {
                    self.conn = Some(fresh);
                }
                return Ok(response);
            }
        };
        if !response.keep_alive {
            self.conn = None;
        }
        Ok(response)
    }

    /// The backoff sleep before retry number `attempt` (1-based), honoring
    /// a server-sent `Retry-After`; both are capped at `max_backoff`, and
    /// the exponential path is scaled by seeded jitter in `[0.5, 1.0)`.
    fn backoff(&mut self, attempt: u32, retry_after: Option<&str>) -> Duration {
        if let Some(secs) = retry_after.and_then(|v| v.trim().parse::<u64>().ok()) {
            return Duration::from_secs(secs).min(self.config.max_backoff);
        }
        let exp = self.config.base_backoff.saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let capped = exp.min(self.config.max_backoff);
        capped.mul_f64(self.rng.random_range(0.5..1.0))
    }

    /// Sends `method path` with `body`, retrying transport errors and
    /// `429`/`503` responses per the backoff policy. Success means any
    /// response below 400; other 4xx come back as
    /// [`ClientError::Rejected`] immediately.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.try_once(method, path, headers, body);
            let retry_after: Option<String> = match &outcome {
                Ok(r) => r.header("retry-after").map(str::to_string),
                Err(_) => None,
            };
            match outcome {
                Ok(response) if matches!(response.status, 429 | 503) => {
                    attempt += 1;
                    if attempt > self.config.max_retries {
                        return Err(ClientError::Exhausted {
                            attempts: attempt,
                            status: response.status,
                            body: response.body_str().unwrap_or("").to_string(),
                        });
                    }
                    std::thread::sleep(self.backoff(attempt, retry_after.as_deref()));
                }
                Ok(response) if response.status >= 400 => {
                    return Err(ClientError::Rejected {
                        status: response.status,
                        body: response.body_str().unwrap_or("").to_string(),
                    });
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    attempt += 1;
                    if attempt > self.config.max_retries {
                        return Err(ClientError::Transport(e));
                    }
                    std::thread::sleep(self.backoff(attempt, None));
                }
            }
        }
    }

    /// `GET path` with retries.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, &[], b"")
    }

    /// Submits a job spec; returns the job id from the `202 id N` body.
    pub fn submit(&mut self, spec: &str) -> Result<u64, ClientError> {
        self.submit_inner(spec, None)
    }

    /// [`Client::submit`] with an `Idempotency-Key` header: resubmitting
    /// the same key — across retries, reconnects, even a daemon restart
    /// over its state dir — returns the original job's id instead of
    /// enqueueing a duplicate.
    pub fn submit_idempotent(&mut self, spec: &str, key: &str) -> Result<u64, ClientError> {
        self.submit_inner(spec, Some(key))
    }

    fn submit_inner(&mut self, spec: &str, key: Option<&str>) -> Result<u64, ClientError> {
        let headers: Vec<(&str, &str)> = match key {
            Some(k) => vec![("Idempotency-Key", k)],
            None => Vec::new(),
        };
        let response = self.request("POST", "/jobs", &headers, spec.as_bytes())?;
        let body = response.body_str().unwrap_or("");
        body.strip_prefix("id ")
            .and_then(|rest| rest.trim().parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("submit reply without an id: {body:?}")))
    }

    /// `GET /jobs/<id>`: the `phase` field and the full status body.
    pub fn status(&mut self, id: u64) -> Result<(String, String), ClientError> {
        let response = self.get(&format!("/jobs/{id}"))?;
        let body = response.body_str().unwrap_or("").to_string();
        let phase = body
            .lines()
            .find_map(|l| l.strip_prefix("phase "))
            .ok_or_else(|| ClientError::Protocol(format!("status without a phase: {body:?}")))?
            .to_string();
        Ok((phase, body))
    }

    /// Polls until the job reaches a terminal phase, then returns the
    /// result body (`GET /jobs/<id>/result`).
    pub fn wait(&mut self, id: u64, poll: Duration) -> Result<String, ClientError> {
        loop {
            let (phase, _) = self.status(id)?;
            if matches!(phase.as_str(), "done" | "cancelled" | "failed") {
                let response = self.get(&format!("/jobs/{id}/result"))?;
                return Ok(response.body_str().unwrap_or("").to_string());
            }
            std::thread::sleep(poll);
        }
    }

    /// Like [`Client::wait`] with a deadline; `None` when it passes
    /// before the job finishes.
    pub fn wait_for(
        &mut self,
        id: u64,
        poll: Duration,
        deadline: Duration,
    ) -> Result<Option<String>, ClientError> {
        let start = Instant::now();
        loop {
            let (phase, _) = self.status(id)?;
            if matches!(phase.as_str(), "done" | "cancelled" | "failed") {
                let response = self.get(&format!("/jobs/{id}/result"))?;
                return Ok(Some(response.body_str().unwrap_or("").to_string()));
            }
            if start.elapsed() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(poll);
        }
    }

    /// `GET /metrics`, parsed into `(name, value)` pairs.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        let response = self.get("/metrics")?;
        let body = response.body_str().unwrap_or("");
        Ok(body
            .lines()
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let config = ClientConfig {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(450),
            seed: 7,
            ..ClientConfig::default()
        };
        let mut a = Client::new(config.clone());
        let mut b = Client::new(config);
        let delays_a: Vec<Duration> = (1..=5).map(|k| a.backoff(k, None)).collect();
        let delays_b: Vec<Duration> = (1..=5).map(|k| b.backoff(k, None)).collect();
        assert_eq!(delays_a, delays_b, "same seed, same schedule");
        for (k, d) in delays_a.iter().enumerate() {
            let cap = Duration::from_millis(450);
            let nominal = Duration::from_millis(100 * (1 << k)).min(cap);
            assert!(*d >= nominal.mul_f64(0.5) && *d < nominal, "attempt {k}: {d:?}");
        }
        // Distinct seeds desynchronize the fleet.
        let mut c = Client::new(ClientConfig {
            seed: 8,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(450),
            ..ClientConfig::default()
        });
        let delays_c: Vec<Duration> = (1..=5).map(|k| c.backoff(k, None)).collect();
        assert_ne!(delays_a, delays_c);
    }

    #[test]
    fn connections_disable_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::new(ClientConfig {
            addr: listener.local_addr().unwrap().to_string(),
            ..ClientConfig::default()
        });
        let conn = client.connect().expect("dial the local listener");
        assert!(conn.writer.nodelay().unwrap());
        assert!(conn.reader.get_ref().nodelay().unwrap(), "both halves share one socket");
    }

    #[test]
    fn retry_after_is_honored_but_capped() {
        let mut client = Client::new(ClientConfig {
            max_backoff: Duration::from_millis(250),
            ..ClientConfig::default()
        });
        assert_eq!(client.backoff(1, Some("0")), Duration::ZERO);
        // `Retry-After: 5` would be five seconds; the cap wins.
        assert_eq!(client.backoff(1, Some("5")), Duration::from_millis(250));
        // Garbage falls back to the exponential path.
        let d = client.backoff(1, Some("soon"));
        assert!(d <= Duration::from_millis(250));
    }
}
