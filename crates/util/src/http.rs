//! A vendored minimal HTTP/1.1 layer — hand-rolled in the same spirit as
//! the workspace's other registry-free stand-ins (`rand`, `proptest`,
//! `criterion`): exactly the subset the `lopacityd` daemon needs, nothing
//! more.
//!
//! Supported: request-line + header parsing from any [`BufRead`],
//! `Content-Length` bodies, query-string splitting, HTTP/1.1 keep-alive
//! (requests carry [`Request::keep_alive`]; responses answer
//! `Connection: keep-alive` when [`Response::keep_alive`] opts in, and
//! `Connection: close` otherwise), a response writer, and the client side
//! for the `lopacity-client` crate: a request writer ([`write_request`])
//! and a response parser ([`ClientResponse`]).
//! Not supported, by design: chunked transfer encoding, multipart bodies,
//! TLS, HTTP/2, pipelining.
//!
//! Framing rule, both directions: one message, one write. A request or
//! response is assembled in a single buffer and handed to the writer in
//! one `write_all`, and [`prepare_stream`] sets `TCP_NODELAY` on every
//! socket. A message split over several writes lets Nagle's algorithm
//! hold the later pieces until the peer's delayed ACK (~40 ms on Linux),
//! up to one such stall per direction of every exchange.
//!
//! The parser is defensive rather than strict: it enforces the request
//! shape it understands (reasonable line/header/body limits, a valid
//! `Content-Length`) and rejects everything else with a typed
//! [`HttpError`], which the server maps to a `400`.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on one request line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request body (graph uploads are edge lists; 64 MiB is
/// ~4M `u32 u32` lines, far past anything the daemon serves in tests).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request arrived.
    ConnectionClosed,
    /// A line exceeded the per-line byte cap or the header count
    /// exceeded the header cap.
    TooLarge(&'static str),
    /// The request line or a header was syntactically malformed.
    Malformed(&'static str),
    /// Transport failure.
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed mid-request"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

/// One parsed HTTP/1.x request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Path component of the target, before any `?`.
    pub path: String,
    /// Raw query string (after `?`, empty when absent).
    pub query: String,
    /// Headers, keys lowercased; later duplicates overwrite earlier ones.
    pub headers: HashMap<String, String>,
    /// The body, sized by `Content-Length` (empty when the header is
    /// absent or `0`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// defaults to yes unless `Connection: close`; HTTP/1.0 requires an
    /// explicit `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// Parses one request from `reader` with the default [`MAX_BODY`] cap
    /// (blocking until the body is complete). Returns
    /// [`HttpError::ConnectionClosed`] on a clean EOF before the first
    /// byte — the normal end of a connection.
    pub fn parse<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
        Request::parse_with_limits(reader, MAX_BODY)
    }

    /// [`Request::parse`] with a caller-chosen body cap (never above
    /// [`MAX_BODY`]) — the daemon wires its `--max-body` flag through
    /// here. A declared `Content-Length` beyond the cap is rejected
    /// *before* any body byte is read or allocated, and the body buffer
    /// grows incrementally with the bytes actually received, so a client
    /// declaring a huge length and stalling never costs the declared
    /// allocation.
    pub fn parse_with_limits<R: BufRead>(
        reader: &mut R,
        max_body: usize,
    ) -> Result<Request, HttpError> {
        let max_body = max_body.min(MAX_BODY);
        let line = read_line(reader)?;
        if line.is_empty() {
            return Err(HttpError::ConnectionClosed);
        }
        let mut parts = line.split(' ').filter(|p| !p.is_empty());
        let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?;
        let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
        let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        if parts.next().is_some() {
            return Err(HttpError::Malformed("trailing tokens in request line"));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let mut headers = HashMap::new();
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break; // blank line: end of headers
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::TooLarge("header count"));
            }
            let (name, value) =
                line.split_once(':').ok_or(HttpError::Malformed("header without ':'"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed("invalid header name"));
            }
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }

        let length = match headers.get("content-length") {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| HttpError::Malformed("invalid Content-Length"))?,
            None => 0,
        };
        if length > max_body as u64 {
            return Err(HttpError::TooLarge("body"));
        }
        let body = read_body(reader, length as usize)?;

        let keep_alive = {
            let connection =
                headers.get("connection").map(|v| v.to_ascii_lowercase()).unwrap_or_default();
            match version {
                "HTTP/1.0" => connection == "keep-alive",
                _ => connection != "close",
            }
        };

        Ok(Request { method: method.to_string(), path, query, headers, body, keep_alive })
    }

    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Case-insensitive header lookup (keys are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Looks up a `key=value` pair in the query string (first match;
    /// no percent-decoding — the daemon's parameters are alphanumeric).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| match pair.split_once('=') {
            Some((k, v)) if k == key => Some(v),
            None if pair == key => Some(""),
            _ => None,
        })
    }
}

/// Readies a socket for request/response traffic, on either end.
///
/// * Disables Nagle's algorithm (`TCP_NODELAY`). With one write per
///   message there is nothing for Nagle to coalesce; left on, it only
///   delays a message's last partial segment until the peer acknowledges
///   the previous one.
/// * Arms `timeout` as both the read and the write deadline — the
///   slowloris defense. A peer that stalls (never sends a full request,
///   or never drains the response) hits the deadline and the blocked
///   `read`/`write` returns `WouldBlock`/`TimedOut`, which
///   [`Request::parse`] surfaces as [`HttpError::Io`] so the handler
///   thread is reclaimed instead of pinned forever. `None` leaves both
///   directions unbounded (blocking), matching
///   `TcpStream::set_read_timeout`.
pub fn prepare_stream(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)
}

/// Reads exactly `length` body bytes, growing the buffer with the bytes
/// actually received (chunked `read`s) instead of allocating the declared
/// length up front — a stalling or lying peer costs at most one chunk.
fn read_body<R: BufRead>(reader: &mut R, length: usize) -> Result<Vec<u8>, HttpError> {
    const CHUNK: usize = 64 * 1024;
    let mut body = Vec::with_capacity(length.min(CHUNK));
    let mut chunk = [0u8; CHUNK];
    while body.len() < length {
        let want = (length - body.len()).min(CHUNK);
        match reader.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::ConnectionClosed),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    Ok(body)
}

/// Reads one CRLF- (or bare-LF-) terminated line, without its terminator.
/// An EOF before any byte yields an empty string (mapped to
/// [`HttpError::ConnectionClosed`] by the request-line caller, and to
/// end-of-headers nowhere — a blank line is `"\r\n"`, two bytes).
fn read_line<R: BufRead>(reader: &mut R) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(HttpError::TooLarge("line"));
                }
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::Malformed("non-UTF-8 line"))
}

/// An HTTP/1.1 response under construction.
#[derive(Debug)]
pub struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    /// Extra `name: value` headers (e.g. `Retry-After` on a load-shedding
    /// `503`), written after the built-in ones.
    extra_headers: Vec<(String, String)>,
    body: Vec<u8>,
    /// Whether to answer `Connection: keep-alive` instead of `close`.
    keep_alive: bool,
}

impl Response {
    /// A response with the given status code and canned reason phrase.
    pub fn new(status: u16) -> Response {
        let reason = match status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: Vec::new(),
            keep_alive: false,
        }
    }

    /// `200 OK` with a plain-text body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response::new(200).text(body)
    }

    /// Sets a plain-text body.
    pub fn text(mut self, body: impl Into<String>) -> Response {
        self.body = body.into().into_bytes();
        self
    }

    /// Overrides the content type (e.g. a metrics exposition format).
    pub fn content_type(mut self, ct: &'static str) -> Response {
        self.content_type = ct;
        self
    }

    /// Appends an extra response header (e.g. `Retry-After`).
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Opts this response into `Connection: keep-alive` (the server's
    /// connection loop sets it when the request asked to stay open and
    /// the daemon is not draining).
    pub fn keep_alive(mut self, keep_alive: bool) -> Response {
        self.keep_alive = keep_alive;
        self
    }

    /// Whether this response will answer `Connection: keep-alive`.
    pub fn keeps_alive(&self) -> bool {
        self.keep_alive
    }

    /// The status code this response will send.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serializes the response (`Connection: close` unless
    /// [`Response::keep_alive`] opted in) as one write (see the module
    /// docs' framing rule).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            if self.keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        write_message(w, head, &self.body)
    }
}

/// Writes one client request — request line, `headers`, `Content-Length`
/// and `body` — as one write (see the module docs' framing rule). `path`
/// carries any query string.
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    write_message(w, head, body)
}

/// The framing rule itself: `head` (start line and headers, through the
/// blank line) and `body` leave in one buffer through one `write_all`.
fn write_message<W: Write>(w: &mut W, head: String, body: &[u8]) -> io::Result<()> {
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// One parsed HTTP/1.x *response*, as read by a client (`lopacity-client`
/// and the `lopacify submit` wrapper). Mirrors [`Request::parse`]'s
/// defensive posture: the same line/header/body caps apply, so a hostile
/// or corrupted server cannot drive the client into unbounded allocation
/// either.
#[derive(Debug)]
pub struct ClientResponse {
    /// The status code from the status line.
    pub status: u16,
    /// Headers, keys lowercased; later duplicates overwrite earlier ones.
    pub headers: HashMap<String, String>,
    /// The body, sized by `Content-Length`.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open after this
    /// exchange (`Connection: keep-alive`, or HTTP/1.1 without `close`).
    pub keep_alive: bool,
}

impl ClientResponse {
    /// Parses one response from `reader` (blocking until the body is
    /// complete).
    pub fn parse<R: BufRead>(reader: &mut R) -> Result<ClientResponse, HttpError> {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Err(HttpError::ConnectionClosed);
        }
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().ok_or(HttpError::Malformed("empty status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(HttpError::Malformed("invalid status code"))?;

        let mut headers = HashMap::new();
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::TooLarge("header count"));
            }
            let (name, value) =
                line.split_once(':').ok_or(HttpError::Malformed("header without ':'"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed("invalid header name"));
            }
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }

        let length = match headers.get("content-length") {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| HttpError::Malformed("invalid Content-Length"))?,
            None => 0,
        };
        if length > MAX_BODY as u64 {
            return Err(HttpError::TooLarge("body"));
        }
        let body = read_body(reader, length as usize)?;

        let keep_alive = {
            let connection =
                headers.get("connection").map(|v| v.to_ascii_lowercase()).unwrap_or_default();
            match version {
                "HTTP/1.0" => connection == "keep-alive",
                _ => connection != "close",
            }
        };

        Ok(ClientResponse { status, headers, body, keep_alive })
    }

    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// A header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        Request::parse(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /jobs/7/progress?since=12&full HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/7/progress");
        assert_eq!(req.query, "since=12&full");
        assert_eq!(req.query_param("since"), Some("12"));
        assert_eq!(req.query_param("full"), Some(""));
        assert_eq!(req.query_param("absent"), None);
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse("POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello\nworld").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str(), Some("hello\nworld"));
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse("GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert_eq!(parse("").unwrap_err(), HttpError::ConnectionClosed);
    }

    #[test]
    fn truncated_body_is_connection_closed() {
        let err = parse("POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert_eq!(err, HttpError::ConnectionClosed);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(parse("GET /x\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET /x SMTP/1.0\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET /x HTTP/1.1 junk\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: lots\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(matches!(parse(&long), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn header_keys_are_lowercased_and_last_wins() {
        let req =
            parse("GET / HTTP/1.1\r\nX-Tag: a\r\nx-tag: b\r\n\r\n").unwrap();
        assert_eq!(req.headers.get("x-tag").map(String::as_str), Some("b"));
    }

    /// The slowloris satellite: a client that connects and then stalls
    /// must not pin the reading thread forever. With a read deadline
    /// armed, `Request::parse` errors out within the timeout instead of
    /// blocking on the half-open connection.
    #[test]
    fn stalled_clients_hit_the_read_deadline() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The stalling client: connects, sends half a request line, and
        // goes silent (kept alive until the end of the test).
        let client = TcpStream::connect(addr).unwrap();
        {
            let mut c = &client;
            c.write_all(b"GET /never").unwrap();
        }
        let (server_side, _) = listener.accept().unwrap();
        prepare_stream(&server_side, Some(Duration::from_millis(80))).unwrap();
        let started = std::time::Instant::now();
        let err = Request::parse(&mut BufReader::new(&server_side)).unwrap_err();
        assert!(matches!(err, HttpError::Io(_)), "stall must surface as an I/O error: {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "read deadline must reclaim the thread promptly, took {:?}",
            started.elapsed()
        );
        drop(client);
    }

    #[test]
    fn keep_alive_negotiation_follows_http_11_defaults() {
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().keep_alive);
    }

    #[test]
    fn keep_alive_responses_say_so() {
        let mut out = Vec::new();
        Response::ok("x").keep_alive(true).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn body_cap_rejects_declared_length_before_reading() {
        // Content-Length past the cap must fail as TooLarge without
        // waiting for (or allocating) the declared bytes.
        let raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
        assert_eq!(parse(&raw).unwrap_err(), HttpError::TooLarge("body"));
        let raw = "POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nbody";
        let err = Request::parse_with_limits(&mut BufReader::new(raw.as_bytes()), 10).unwrap_err();
        assert_eq!(err, HttpError::TooLarge("body"));
        // At or under the cap, the body parses as before.
        let raw = "POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let req = Request::parse_with_limits(&mut BufReader::new(raw.as_bytes()), 10).unwrap();
        assert_eq!(req.body_str(), Some("body"));
    }

    #[test]
    fn client_response_round_trips_a_server_response() {
        let mut wire = Vec::new();
        Response::new(429)
            .header("Retry-After", "3")
            .text("queue full\n")
            .keep_alive(true)
            .write_to(&mut wire)
            .unwrap();
        let resp = ClientResponse::parse(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("3"));
        assert_eq!(resp.body_str(), Some("queue full\n"));
        assert!(resp.keep_alive);

        let mut wire = Vec::new();
        Response::ok("done").write_to(&mut wire).unwrap();
        let resp = ClientResponse::parse(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 200);
        assert!(!resp.keep_alive);
    }

    #[test]
    fn client_response_rejects_garbage() {
        let p = |raw: &str| ClientResponse::parse(&mut BufReader::new(raw.as_bytes()));
        assert_eq!(p("").unwrap_err(), HttpError::ConnectionClosed);
        assert!(matches!(p("ICY 200 OK\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(p("HTTP/1.1 abc OK\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            p("HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn extra_headers_are_written() {
        let mut out = Vec::new();
        Response::new(503)
            .header("Retry-After", "2")
            .text("shed\n")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nRetry-After: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nshed\n"), "{text}");
    }

    /// A `Write` that takes every buffer whole and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        wire: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Bodies on both sides of the parser's 64 KiB read chunk.
    fn framing_bodies() -> [Vec<u8>; 2] {
        [b"applied 4\n".to_vec(), vec![b'x'; 64 * 1024 + 17]]
    }

    #[test]
    fn responses_leave_in_one_write() {
        for body in framing_bodies() {
            let mut w = CountingWriter::default();
            Response::ok(String::from_utf8(body.clone()).unwrap())
                .header("Retry-After", "5")
                .keep_alive(true)
                .write_to(&mut w)
                .unwrap();
            assert_eq!(w.writes, 1, "a {}-byte body must not split the response", body.len());
            let resp = ClientResponse::parse(&mut BufReader::new(w.wire.as_slice())).unwrap();
            assert_eq!(resp.body, body);
            assert_eq!(resp.header("retry-after"), Some("5"));
        }
    }

    #[test]
    fn requests_leave_in_one_write() {
        for body in framing_bodies() {
            let mut w = CountingWriter::default();
            write_request(&mut w, "POST", "/jobs/3/events", &[("Idempotency-Key", "k")], &body)
                .unwrap();
            assert_eq!(w.writes, 1, "a {}-byte body must not split the request", body.len());
            let req = Request::parse(&mut BufReader::new(w.wire.as_slice())).unwrap();
            assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs/3/events"));
            assert_eq!(req.header("idempotency-key"), Some("k"));
            assert_eq!(req.body, body);
            assert!(req.keep_alive);
        }
    }

    #[test]
    fn responses_serialize_with_connection_close() {
        let mut out = Vec::new();
        Response::ok("body\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\nbody\n"));

        let mut out = Vec::new();
        Response::new(429).text("queue full").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
    }
}
