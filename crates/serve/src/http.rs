//! Hand-rolled HTTP/1.1 wire layer.
//!
//! The container is fully offline — no tokio, no hyper — so the serve
//! daemon speaks HTTP/1.1 over `std::net` with its own parser and response
//! writer. The subset implemented is exactly what the serve protocol
//! needs, but implemented strictly:
//!
//! * request line + headers + `Content-Length` bodies (no chunked
//!   transfer-encoding — requests using it earn a `411`/`400`);
//! * **pipelining**: [`RequestParser`] is incremental and pulls any number
//!   of complete requests out of one connection buffer, in order;
//! * **bounded buffers**: header blocks over [`RequestParser::max_head`]
//!   bytes and bodies over [`RequestParser::max_body`] bytes are rejected
//!   with [`HttpError::HeadTooLarge`] / [`HttpError::BodyTooLarge`]
//!   (mapped to `431`/`413` by the server) instead of growing without
//!   limit;
//! * keep-alive semantics: HTTP/1.1 defaults to persistent connections,
//!   `Connection: close` is honored.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

/// Default header-block byte limit (request line + all headers).
pub const DEFAULT_MAX_HEAD: usize = 16 * 1024;
/// Default body byte limit. Mask-trace payloads are the largest legitimate
/// request; 8 MiB holds ~1M trace records with JSON overhead.
pub const DEFAULT_MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked for the connection to close after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| {
            v.to_ascii_lowercase()
                .split(',')
                .any(|t| t.trim() == "close")
        })
    }

    /// True when this is a WebSocket upgrade request (`Connection:
    /// upgrade` + `Upgrade: websocket`).
    pub fn wants_ws_upgrade(&self) -> bool {
        let conn_upgrade = self.header("connection").is_some_and(|v| {
            v.to_ascii_lowercase()
                .split(',')
                .any(|t| t.trim() == "upgrade")
        });
        let upgrade_ws = self
            .header("upgrade")
            .is_some_and(|v| v.eq_ignore_ascii_case("websocket"));
        conn_upgrade && upgrade_ws
    }
}

/// A wire-layer parse failure. Fatal for the connection: the server
/// responds with the mapped status code and closes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Header block exceeded the configured limit → `431`.
    HeadTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// Declared `Content-Length` exceeded the configured limit → `413`.
    BodyTooLarge {
        /// The declared body size in bytes.
        declared: usize,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// Anything else malformed → `400`.
    Malformed(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HeadTooLarge { limit } => write!(f, "header block over {limit} bytes"),
            Self::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes over the {limit}-byte limit")
            }
            Self::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The HTTP status code this failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            Self::HeadTooLarge { .. } => 431,
            Self::BodyTooLarge { .. } => 413,
            Self::Malformed(_) => 400,
        }
    }
}

/// Incremental request parser over one connection's byte stream.
///
/// Feed raw bytes with [`RequestParser::feed`], then drain complete
/// requests with [`RequestParser::next_request`] — repeatedly, so
/// pipelined requests all surface in order before more reads.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Header-block byte limit.
    pub max_head: usize,
    /// Body byte limit.
    pub max_body: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_HEAD, DEFAULT_MAX_BODY)
    }
}

impl RequestParser {
    /// A parser with explicit header/body limits.
    pub fn new(max_head: usize, max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_head,
            max_body,
        }
    }

    /// Appends raw connection bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pulls the next complete request off the front of the buffer.
    ///
    /// Returns `Ok(None)` when the buffer holds only a partial request
    /// (feed more bytes and retry).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on malformed or over-limit input; the
    /// connection should answer with [`HttpError::status`] and close.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            // No blank line yet: the head is still arriving. It must stay
            // under the limit even while incomplete, or a slow-loris body
            // of headers would grow the buffer forever.
            if self.buf.len() > self.max_head {
                return Err(HttpError::HeadTooLarge {
                    limit: self.max_head,
                });
            }
            return Ok(None);
        };
        if head_end > self.max_head {
            return Err(HttpError::HeadTooLarge {
                limit: self.max_head,
            });
        }
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
        let (method, path, headers) = parse_head(head)?;

        if headers
            .get("transfer-encoding")
            .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
        {
            return Err(HttpError::Malformed(
                "transfer-encoding not supported; use content-length".into(),
            ));
        }
        let body_len = match headers.get("content-length") {
            None => 0,
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        };
        if body_len > self.max_body {
            return Err(HttpError::BodyTooLarge {
                declared: body_len,
                limit: self.max_body,
            });
        }
        let total = head_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        // The buffer becomes the body: only a pipelined remainder is
        // copied out, and the head is dropped in place.
        let rest = self.buf.split_off(total);
        let mut body = std::mem::replace(&mut self.buf, rest);
        body.drain(..head_end + 4);
        let headers = headers.into_iter().collect();
        Ok(Some(Request {
            method,
            path,
            headers,
            body,
        }))
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Result<(String, String, BTreeMap<String, String>), HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| HttpError::Malformed(format!("bad request line {request_line:?}")))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::Malformed(format!("bad request target in {request_line:?}")))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") || parts.next().is_some() {
        return Err(HttpError::Malformed(format!(
            "unsupported request line {request_line:?}"
        )));
    }
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers
            .entry(name.to_ascii_lowercase())
            .or_insert_with(|| value.trim().to_string());
    }
    Ok((method.to_string(), path.to_string(), headers))
}

/// Reason phrase for the status codes the daemon emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        101 => "Switching Protocols",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (content-length and the standard set are added by
    /// [`Response::write_to`]).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Self {
        Self::new(200).with_body("application/json", body.into().into_bytes())
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status).with_body("text/plain; charset=utf-8", body.into().into_bytes())
    }

    /// An error response with a small JSON body naming the problem.
    pub fn error(status: u16, message: &str) -> Self {
        let body = format!(
            "{{ \"error\": \"{}\", \"status\": {status} }}\n",
            iwc_telemetry::json::escape(message)
        );
        Self::new(status).with_body("application/json", body.into_bytes())
    }

    /// Sets the body and its content type.
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        self.headers
            .push(("Content-Type".into(), content_type.into()));
        self.body = body;
        self
    }

    /// Adds one header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response (adding `Content-Length` and, when
    /// `close` is set, `Connection: close`) into `w`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to<W: Write>(&self, w: &mut W, close: bool) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_reason(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        if close {
            write!(w, "Connection: close\r\n")?;
        }
        write!(w, "Content-Length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(text: &[u8]) -> (Vec<Request>, Option<HttpError>) {
        let mut p = RequestParser::default();
        p.feed(text);
        let mut out = Vec::new();
        loop {
            match p.next_request() {
                Ok(Some(r)) => out.push(r),
                Ok(None) => return (out, None),
                Err(e) => return (out, Some(e)),
            }
        }
    }

    #[test]
    fn parses_a_basic_get() {
        let (reqs, err) = feed_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/healthz");
        assert_eq!(reqs[0].header("host"), Some("x"));
        assert_eq!(reqs[0].header("HOST"), Some("x"));
        assert!(reqs[0].body.is_empty());
        assert!(!reqs[0].wants_close());
    }

    #[test]
    fn parses_a_post_with_body() {
        let (reqs, err) =
            feed_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world");
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, b"hello world");
    }

    #[test]
    fn pipelined_requests_surface_in_order() {
        let (reqs, err) = feed_all(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /healthz HTTP/1.1\r\n\r\n\
              POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy",
        );
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].body, b"abc");
        assert_eq!(reqs[1].method, "GET");
        assert_eq!(reqs[2].body, b"xy");
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        let mut p = RequestParser::default();
        p.feed(b"POST /v1/jobs HTTP/1.1\r\nContent-Le");
        assert_eq!(p.next_request(), Ok(None), "head incomplete");
        p.feed(b"ngth: 4\r\n\r\nab");
        assert_eq!(p.next_request(), Ok(None), "body incomplete");
        p.feed(b"cd");
        let r = p.next_request().expect("parses").expect("complete");
        assert_eq!(r.body, b"abcd");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn body_is_the_same_whether_alone_pipelined_or_trickled() {
        let body: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut one = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        one.extend_from_slice(&body);

        // Exactly one request buffered.
        let (reqs, err) = feed_all(&one);
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, body);

        // A pipelined request behind the body still parses.
        let mut two = one.clone();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let (reqs, err) = feed_all(&two);
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].body, body);
        assert_eq!(reqs[1].path, "/healthz");

        // One byte at a time: nothing surfaces until the last byte.
        let mut p = RequestParser::default();
        for (i, b) in one.iter().enumerate() {
            p.feed(std::slice::from_ref(b));
            let got = p.next_request().expect("parses");
            if i + 1 < one.len() {
                assert_eq!(got, None, "complete after {} of {} bytes", i + 1, one.len());
            } else {
                assert_eq!(got.expect("complete").body, body);
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn body_declared_at_the_limit_waits_for_its_bytes() {
        let mut p = RequestParser::default();
        p.feed(
            format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {DEFAULT_MAX_BODY}\r\n\r\n")
                .as_bytes(),
        );
        p.feed(b"0123456789");
        assert_eq!(p.next_request(), Ok(None));
        assert_eq!(p.next_request(), Ok(None), "asking again changes nothing");
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let mut p = RequestParser::new(DEFAULT_MAX_HEAD, 16);
        p.feed(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        let err = p.next_request().expect_err("over the limit");
        assert_eq!(
            err,
            HttpError::BodyTooLarge {
                declared: 17,
                limit: 16
            }
        );
        assert_eq!(err.status(), 413);
        // Exactly at the limit is fine.
        let mut p = RequestParser::new(DEFAULT_MAX_HEAD, 16);
        p.feed(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 16\r\n\r\n0123456789abcdef");
        assert!(p.next_request().expect("parses").is_some());
    }

    #[test]
    fn oversized_head_is_rejected_even_while_incomplete() {
        let mut p = RequestParser::new(64, DEFAULT_MAX_BODY);
        p.feed(b"GET /healthz HTTP/1.1\r\n");
        p.feed(&[b'a'; 128]); // header bytes, no terminator yet
        let err = p.next_request().expect_err("head over the limit");
        assert_eq!(err, HttpError::HeadTooLarge { limit: 64 });
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn malformed_requests_are_400() {
        for bad in [
            b"FOO BAR\r\n\r\n".as_slice(),
            b"GET healthz HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: owl\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let (_, err) = feed_all(bad);
            let err = err.unwrap_or_else(|| panic!("{:?} must fail", String::from_utf8_lossy(bad)));
            assert_eq!(err.status(), 400, "{err}");
        }
    }

    #[test]
    fn connection_close_and_ws_upgrade_detection() {
        let (reqs, _) = feed_all(b"GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n");
        assert!(reqs[0].wants_close());
        let (reqs, _) = feed_all(
            b"GET /v1/ws HTTP/1.1\r\nConnection: keep-alive, Upgrade\r\nUpgrade: WebSocket\r\n\r\n",
        );
        assert!(reqs[0].wants_ws_upgrade());
        let (reqs, _) = feed_all(b"GET /v1/ws HTTP/1.1\r\nUpgrade: websocket\r\n\r\n");
        assert!(!reqs[0].wants_ws_upgrade(), "needs Connection: upgrade too");
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        Response::json("{\"ok\":true}")
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(
            text.ends_with("Content-Length: 11\r\n\r\n{\"ok\":true}"),
            "{text}"
        );
    }

    #[test]
    fn error_response_escapes_the_message() {
        let r = Response::error(503, "queue \"full\"");
        assert_eq!(r.status, 503);
        let body = String::from_utf8(r.body).expect("utf8");
        assert!(body.contains("queue \\\"full\\\""), "{body}");
        assert_eq!(status_reason(503), "Service Unavailable");
    }
}
