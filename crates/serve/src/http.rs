//! A minimal HTTP/1.1 codec over `BufRead`/`Write`.
//!
//! Just enough protocol for the job API: request-line + header parsing
//! with hard size limits, `Content-Length` and `chunked` bodies in both
//! directions, keep-alive, and a deterministic mapping from parse
//! failures to status codes. The codec is pure — it never owns a socket —
//! so the table-driven unit suite in `tests/http_codec.rs` can drive it
//! from byte slices: malformed request lines, oversized headers, chunked
//! round-trips, pipelined requests, and abrupt disconnects, no
//! `TcpStream` required.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line plus all headers, bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Cap on the number of headers.
pub const MAX_HEADERS: usize = 100;
/// Cap on a request body, bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// How reading a request can fail.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first request byte: the peer closed an idle
    /// keep-alive connection. Not an error response; just close.
    Closed,
    /// EOF mid-request (abrupt disconnect). Nobody is left to respond to.
    Truncated,
    /// Unparseable request (maps to 400).
    Malformed(String),
    /// Request line + headers exceed [`MAX_HEAD_BYTES`] or
    /// [`MAX_HEADERS`] (431).
    HeadTooLarge,
    /// Declared or actual body exceeds [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// Not HTTP/1.0 or HTTP/1.1 (505).
    UnsupportedVersion(String),
    /// The socket read timed out mid-request (408).
    Timeout,
    /// Any other transport error.
    Io(io::Error),
}

impl HttpError {
    /// The status line to answer with, or `None` when the connection is
    /// already gone (closed/truncated/transport error).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Closed | HttpError::Truncated | HttpError::Io(_) => None,
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge => Some((413, "Content Too Large")),
            HttpError::UnsupportedVersion(_) => Some((505, "HTTP Version Not Supported")),
            HttpError::Timeout => Some((408, "Request Timeout")),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Truncated => write!(f, "connection truncated mid-request"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            io::ErrorKind::UnexpectedEof => HttpError::Truncated,
            _ => HttpError::Io(e),
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Raw request target, query string included.
    pub target: String,
    /// `HTTP/1.0` or `HTTP/1.1`.
    pub version: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body (`Content-Length` or chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The query string, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Whether the peer asked to close the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            // HTTP/1.0 defaults to close, 1.1 to keep-alive
            None => self.version == "HTTP/1.0",
        }
    }
}

/// Reads one line (LF-terminated, CR stripped), counting its bytes
/// against `budget`. `Ok(None)` means clean EOF with zero bytes read.
pub(crate) fn read_line_budgeted<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Truncated);
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if take > *budget {
            return Err(HttpError::HeadTooLarge);
        }
        *budget -= take;
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        if nl.is_some() {
            break;
        }
    }
    line.pop(); // '\n'
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".to_owned()))
}

/// Reads exactly `n` bytes. The buffer grows with the bytes that arrive,
/// never with the declared length, so a huge length costs nothing until
/// its bytes are actually sent.
pub(crate) fn read_exact_body<R: BufRead>(r: &mut R, n: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    r.take(n as u64).read_to_end(&mut body)?;
    if body.len() < n {
        return Err(HttpError::Truncated);
    }
    Ok(body)
}

/// Reads header lines up to the blank line that ends a head, counting
/// them against the same `budget` as the start line. Names are
/// lowercased and values trimmed.
pub(crate) fn read_headers<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line_budgeted(r, budget)?.ok_or(HttpError::Truncated)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
}

/// How a message delimits its body.
pub(crate) enum Framing {
    /// `Content-Length: n`.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// The body framing `headers` declare, or `None` when they declare none.
/// Framing that two parsers could read differently is refused (RFC 9112
/// §6.1, §6.3): more than one `Content-Length`, any `Transfer-Encoding`
/// but a single `chunked`, or both headers together.
pub(crate) fn framing(headers: &[(String, String)]) -> Result<Option<Framing>, HttpError> {
    let values = |name: &str| -> Vec<&str> {
        headers
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    };
    let framing = match (
        &values("content-length")[..],
        &values("transfer-encoding")[..],
    ) {
        ([], []) => Ok(None),
        // decimal digits only: `parse` alone would also take a sign
        ([len], []) => Some(len)
            .filter(|s| s.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|s| s.parse().ok())
            .map(|n| Some(Framing::Length(n)))
            .ok_or_else(|| format!("bad Content-Length {len:?}")),
        ([], [te]) if te.eq_ignore_ascii_case("chunked") => Ok(Some(Framing::Chunked)),
        ([], [te]) => Err(format!("unsupported Transfer-Encoding {te:?}")),
        (_, []) => Err("more than one Content-Length".to_owned()),
        ([], _) => Err("more than one Transfer-Encoding".to_owned()),
        _ => Err("both Content-Length and Transfer-Encoding".to_owned()),
    };
    framing.map_err(HttpError::Malformed)
}

/// Decodes a `Transfer-Encoding: chunked` body (trailers discarded).
///
/// # Errors
///
/// [`HttpError::Malformed`] on bad chunk framing, [`HttpError::BodyTooLarge`]
/// past [`MAX_BODY_BYTES`], transport errors otherwise.
pub fn read_chunked_body<R: BufRead>(r: &mut R) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let mut line_budget = 256;
        let size_line = read_line_budgeted(r, &mut line_budget)?.ok_or(HttpError::Truncated)?;
        let size_str = size_line.split(';').next().unwrap_or("").trim();
        // hex digits only: `from_str_radix` alone would also take a sign
        let size = Some(size_str)
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| usize::from_str_radix(s, 16).ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad chunk size {size_str:?}")))?;
        if size == 0 {
            // trailer section: lines until the empty one, all of them
            // within one head's byte budget
            let mut budget = MAX_HEAD_BYTES;
            loop {
                match read_line_budgeted(r, &mut budget)? {
                    None => return Err(HttpError::Truncated),
                    Some(l) if l.is_empty() => return Ok(body),
                    Some(_) => {}
                }
            }
        }
        if body
            .len()
            .checked_add(size)
            .is_none_or(|n| n > MAX_BODY_BYTES)
        {
            return Err(HttpError::BodyTooLarge);
        }
        body.extend_from_slice(&read_exact_body(r, size)?);
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::Malformed(
                "chunk data not CRLF-terminated".to_owned(),
            ));
        }
    }
}

/// Reads one full request (head + body) from `r`.
///
/// # Errors
///
/// See [`HttpError`]; [`HttpError::Closed`] is the normal end of a
/// keep-alive connection.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line_budgeted(r, &mut budget)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
            (m.to_owned(), t.to_owned(), v.to_owned())
        }
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version));
    }

    let mut req = Request {
        method,
        target,
        version,
        headers: read_headers(r, &mut budget)?,
        body: Vec::new(),
    };
    match framing(&req.headers)? {
        None => {}
        Some(Framing::Chunked) => req.body = read_chunked_body(r)?,
        Some(Framing::Length(n)) if n > MAX_BODY_BYTES => return Err(HttpError::BodyTooLarge),
        Some(Framing::Length(n)) => req.body = read_exact_body(r, n)?,
    }
    Ok(req)
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Writes a complete `Content-Length`-framed response.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(w, "HTTP/1.1 {status} {}\r\n", reason(status))?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    write!(w, "Content-Length: {}\r\n", body.len())?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Writes the head of a `Transfer-Encoding: chunked` response; follow with
/// a [`ChunkedWriter`].
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_chunked_head<W: Write>(w: &mut W, status: u16, content_type: &str) -> io::Result<()> {
    write!(w, "HTTP/1.1 {status} {}\r\n", reason(status))?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    w.write_all(b"Transfer-Encoding: chunked\r\n\r\n")?;
    w.flush()
}

/// Encoder for a chunked response body.
pub struct ChunkedWriter<'a, W: Write> {
    w: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Wraps `w`, which must already carry a chunked head.
    pub fn new(w: &'a mut W) -> Self {
        ChunkedWriter { w }
    }

    /// Writes one chunk and flushes it (streaming readers see it
    /// immediately). Empty input is skipped — a zero-size chunk would
    /// terminate the stream.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminates the stream with the zero-size chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}
