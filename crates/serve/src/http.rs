//! A strict, bounded HTTP/1.1 request parser and response writer.
//!
//! The server fronts a long-lived database process, so the parser is
//! written for hostile input: every limit is enforced while reading
//! (never after buffering), malformed input maps to a 4xx/5xx status
//! instead of a panic, and a connection can never make the parser read
//! an unbounded amount of memory. Only what the query API needs is
//! implemented: `GET`/`POST`, `Content-Length` bodies (no chunked
//! transfer coding), HTTP/1.0 and 1.1 with 1.1-style keep-alive.

use std::io::{self, BufRead, Write};

/// Hard limits applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (CRLFs included).
    pub max_head_bytes: usize,
    /// Maximum declared and read body size.
    pub max_body_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            max_headers: 64,
        }
    }
}

/// Request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Request path with any `?query` suffix removed.
    pub path: String,
    /// The raw `?query` suffix (without the `?`), if present.
    pub query: Option<String>,
    /// Header fields, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Does the client want the connection kept open afterwards?
    pub keep_alive: bool,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Every variant except [`ParseError::Io`]
/// maps to a definite HTTP status via [`ParseError::status`].
#[derive(Debug)]
pub enum ParseError {
    /// Socket-level failure (timeout, reset, early EOF mid-request).
    /// There is nobody to answer; the connection is simply dropped.
    Io(io::Error),
    /// Syntactically invalid request (400).
    BadRequest(&'static str),
    /// Request line + headers exceeded [`Limits::max_head_bytes`] (431).
    HeadTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`] (413).
    BodyTooLarge,
    /// `POST` without a `Content-Length` (411).
    LengthRequired,
    /// A method other than GET/POST (405), or a transfer coding we do
    /// not speak (501).
    MethodUnknown,
    /// `Transfer-Encoding` present: only identity bodies are spoken (501).
    NotImplemented(&'static str),
    /// HTTP version other than 1.0/1.1 (505).
    VersionUnsupported,
}

impl ParseError {
    /// The status code + reason to answer with, or `None` when the
    /// connection should be dropped silently (I/O failure).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::Io(_) => None,
            ParseError::BadRequest(_) => Some((400, "Bad Request")),
            ParseError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            ParseError::BodyTooLarge => Some((413, "Payload Too Large")),
            ParseError::LengthRequired => Some((411, "Length Required")),
            ParseError::MethodUnknown => Some((405, "Method Not Allowed")),
            ParseError::NotImplemented(_) => Some((501, "Not Implemented")),
            ParseError::VersionUnsupported => Some((505, "HTTP Version Not Supported")),
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            ParseError::Io(e) => format!("i/o: {e}"),
            ParseError::BadRequest(what) => (*what).to_string(),
            ParseError::HeadTooLarge => "request head too large".to_string(),
            ParseError::BodyTooLarge => "request body too large".to_string(),
            ParseError::LengthRequired => "POST requires Content-Length".to_string(),
            ParseError::MethodUnknown => "method not allowed".to_string(),
            ParseError::NotImplemented(what) => (*what).to_string(),
            ParseError::VersionUnsupported => "unsupported HTTP version".to_string(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail())
    }
}

impl std::error::Error for ParseError {}

/// Read one line terminated by `\n` into `line`, counting against the
/// shared head budget. Returns false on clean EOF before any byte.
fn read_line_bounded(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    budget: &mut usize,
) -> Result<bool, ParseError> {
    line.clear();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(false);
                }
                return Err(ParseError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside request head",
                )));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(ParseError::HeadTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    // Tolerate bare LF; strip an optional trailing CR.
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(true);
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
}

/// Read and parse one request. `Ok(None)` means the peer closed the
/// connection cleanly before sending anything (normal keep-alive end).
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, ParseError> {
    let mut budget = limits.max_head_bytes;
    let mut line = Vec::new();
    if !read_line_bounded(reader, &mut line, &mut budget)? {
        return Ok(None);
    }
    let request_line =
        std::str::from_utf8(&line).map_err(|_| ParseError::BadRequest("request line not UTF-8"))?;
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::BadRequest("malformed request line"));
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        m if m.chars().all(|c| c.is_ascii_uppercase()) && !m.is_empty() => {
            return Err(ParseError::MethodUnknown)
        }
        _ => return Err(ParseError::BadRequest("malformed method")),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Err(ParseError::VersionUnsupported),
        _ => return Err(ParseError::BadRequest("malformed HTTP version")),
    };
    if target.is_empty() || !target.starts_with('/') {
        return Err(ParseError::BadRequest("target must be an absolute path"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        if !read_line_bounded(reader, &mut line, &mut budget)? {
            return Err(ParseError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside headers",
            )));
        }
        if line.is_empty() {
            break; // end of head
        }
        if headers.len() == limits.max_headers {
            return Err(ParseError::HeadTooLarge);
        }
        let text =
            std::str::from_utf8(&line).map_err(|_| ParseError::BadRequest("header not UTF-8"))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(ParseError::BadRequest("header without colon"));
        };
        if name.is_empty()
            || name
                .chars()
                .any(|c| c.is_ascii_whitespace() || c.is_ascii_control())
        {
            return Err(ParseError::BadRequest("malformed header name"));
        }
        let value = value.trim();
        if value.chars().any(|c| c.is_ascii_control()) {
            return Err(ParseError::BadRequest("control bytes in header value"));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(ParseError::NotImplemented(
            "transfer codings are not supported; send Content-Length",
        ));
    }
    let content_length = match find("content-length") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| ParseError::BadRequest("unparseable Content-Length"))?,
        ),
        None => None,
    };
    let body_len = match (method, content_length) {
        (Method::Post, None) => return Err(ParseError::LengthRequired),
        (Method::Get, None) => 0,
        (_, Some(n)) if n > limits.max_body_bytes => return Err(ParseError::BodyTooLarge),
        (_, Some(n)) => n,
    };
    let mut body = vec![0u8; body_len];
    if body_len > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ParseError::BadRequest("body shorter than Content-Length")
            } else {
                ParseError::Io(e)
            }
        })?;
    }

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => http11,
    };
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    }))
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Extra headers (Content-Type etc.). Content-Length and Connection
    /// are written automatically.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with an empty body.
    pub fn new(status: u16, reason: &'static str) -> Response {
        Response {
            status,
            reason,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Shorthand: `200 OK`.
    pub fn ok() -> Response {
        Response::new(200, "OK")
    }

    /// Attach a plain-text body.
    pub fn text(mut self, body: impl Into<String>) -> Response {
        self.headers
            .push(("Content-Type", "text/plain; charset=utf-8".to_string()));
        self.body = body.into().into_bytes();
        self
    }

    /// Attach a JSON body.
    pub fn json(mut self, body: impl Into<String>) -> Response {
        self.headers
            .push(("Content-Type", "application/json".to_string()));
        self.body = body.into().into_bytes();
        self
    }

    /// Add a header.
    pub fn header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Serialize to the wire. `keep_alive` controls the Connection header.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &[u8]) -> Result<Option<Request>, ParseError> {
        read_request(&mut Cursor::new(text.to_vec()), &Limits::default())
    }

    fn parse_with(text: &[u8], limits: &Limits) -> Result<Option<Request>, ParseError> {
        read_request(&mut Cursor::new(text.to_vec()), limits)
    }

    #[test]
    fn parses_get() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, None);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(b"POST /search?limit=5 HTTP/1.1\r\nContent-Length: 4\r\n\r\nACGT")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/search");
        assert_eq!(req.query.as_deref(), Some("limit=5"));
        assert_eq!(req.body, b"ACGT");
    }

    #[test]
    fn http10_defaults_to_close_and_11_to_keep_alive() {
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive);
        let new = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(new.keep_alive);
        let closed = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!closed.keep_alive);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn truncated_head_is_io_error() {
        for text in [
            b"GET".as_slice(),
            b"GET / HTTP/1.1\r\n".as_slice(),
            b"GET / HTTP/1.1\r\nHost: x".as_slice(),
        ] {
            match parse(text) {
                Err(ParseError::Io(_)) => {}
                other => panic!("{text:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_requests_are_400() {
        for text in [
            b"GET/HTTP/1.1\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1 extra\r\n\r\n".as_slice(),
            b"GET relative HTTP/1.1\r\n\r\n".as_slice(),
            b"get / HTTP/1.1\r\n\r\n".as_slice(),
            b"GET / banana\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\nACGT".as_slice(),
        ] {
            match parse(text) {
                Err(e) => assert_eq!(
                    e.status().map(|(code, _)| code),
                    Some(400),
                    "{:?} gave {e:?}",
                    String::from_utf8_lossy(text)
                ),
                other => panic!("{:?} gave {other:?}", String::from_utf8_lossy(text)),
            }
        }
    }

    #[test]
    fn body_shorter_than_content_length_is_400() {
        match parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nAC") {
            Err(e) => assert_eq!(e.status().map(|(c, _)| c), Some(400)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn post_without_length_is_411() {
        match parse(b"POST /search HTTP/1.1\r\n\r\n") {
            Err(ParseError::LengthRequired) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        // Declared length is over the limit; the parser must refuse
        // before allocating or reading the body.
        match parse_with(
            b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789",
            &limits,
        ) {
            Err(ParseError::BodyTooLarge) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_head_is_431() {
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut text = b"GET / HTTP/1.1\r\n".to_vec();
        text.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "y".repeat(200)).as_bytes());
        match parse_with(&text, &limits) {
            Err(ParseError::HeadTooLarge) => {}
            other => panic!("{other:?}"),
        }
        let many: String = (0..100).map(|i| format!("H{i}: v\r\n")).collect();
        let text = format!("GET / HTTP/1.1\r\n{many}\r\n");
        match parse(text.as_bytes()) {
            Err(ParseError::HeadTooLarge) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_method_and_version_and_te() {
        match parse(b"DELETE / HTTP/1.1\r\n\r\n") {
            Err(ParseError::MethodUnknown) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"GET / HTTP/2.0\r\n\r\n") {
            Err(ParseError::VersionUnsupported) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n") {
            Err(ParseError::NotImplemented(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keep_alive_requests_parse_sequentially() {
        let text = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut cursor = Cursor::new(text.to_vec());
        let a = read_request(&mut cursor, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(a.path, "/a");
        let b = read_request(&mut cursor, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(b.path, "/b");
        assert_eq!(b.body, b"hi");
        assert!(read_request(&mut cursor, &Limits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn pipelined_garbage_after_valid_request_is_rejected() {
        let text = b"GET /a HTTP/1.1\r\n\r\n\x00\x01\x02garbage\r\n\r\n";
        let mut cursor = Cursor::new(text.to_vec());
        assert!(read_request(&mut cursor, &Limits::default())
            .unwrap()
            .is_some());
        match read_request(&mut cursor, &Limits::default()) {
            Err(e) => assert!(e.status().is_some(), "garbage must map to a status"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::ok()
            .json("{}")
            .header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Deterministic pseudo-random byte soup: the parser must always
    /// return (never hang) and never panic, and any error must either be
    /// an I/O condition or carry a definite status.
    #[test]
    fn random_bytes_never_panic_or_hang() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..500 {
            let len = (next() % 300) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| (next() >> 33) as u8).collect();
            if round % 3 == 0 {
                // Half-plausible prefixes stress later parse stages.
                let mut prefixed = b"GET / HTTP/1.1\r\n".to_vec();
                prefixed.extend_from_slice(&bytes);
                bytes = prefixed;
            }
            match parse(&bytes) {
                Ok(_) => {}
                Err(ParseError::Io(_)) => {}
                Err(e) => {
                    let (code, _) = e.status().expect("parse errors carry a status");
                    assert!((400..=599).contains(&code));
                }
            }
        }
    }
}
