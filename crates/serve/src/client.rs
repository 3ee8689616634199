//! A minimal blocking HTTP/1.1 client for the test harnesses and the
//! serving benchmark — hand-rolled like the server, so the black-box e2e
//! suite exercises the wire format from both ends without a dependency.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{
    framing, read_chunked_body, read_exact_body, read_headers, read_line_budgeted, Framing,
    HttpError, MAX_HEAD_BYTES,
};

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The codec's error as the `io::Error` this client returns.
fn io_error(e: HttpError) -> io::Error {
    match e {
        HttpError::Io(e) => e,
        other => invalid(other.to_string()),
    }
}

/// Performs one request on a fresh connection (`Connection: close`).
///
/// # Errors
///
/// Transport errors, timeouts, and unparseable responses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    write!(writer, "{method} {path} HTTP/1.1\r\n")?;
    write!(writer, "Host: {addr}\r\n")?;
    writer.write_all(b"Connection: close\r\n")?;
    if let Some(body) = body {
        write!(writer, "Content-Type: application/json\r\n")?;
        write!(writer, "Content-Length: {}\r\n\r\n", body.len())?;
        writer.write_all(body.as_bytes())?;
    } else {
        writer.write_all(b"\r\n")?;
    }
    writer.flush()?;
    read_response(&mut BufReader::new(stream))
}

/// Reads one response (status line, headers, body) from `r`, under the
/// server's head limits and framing rules. A declared `Content-Length`
/// is not trusted: the body buffer grows only with the bytes that arrive.
///
/// # Errors
///
/// Transport errors and malformed response framing.
pub fn read_response<R: io::BufRead>(r: &mut R) -> io::Result<HttpResponse> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line_budgeted(r, &mut budget)
        .map_err(io_error)?
        .ok_or_else(|| io_error(HttpError::Closed))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("bad status line {status_line:?}")));
    }
    // three digits (RFC 9112 §4): `parse` alone would also take a sign
    let status: u16 = parts
        .next()
        .filter(|s| s.len() == 3 && s.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let headers = read_headers(r, &mut budget).map_err(io_error)?;
    let body = match framing(&headers).map_err(io_error)? {
        Some(Framing::Chunked) => read_chunked_body(r).map_err(io_error)?,
        Some(Framing::Length(n)) => read_exact_body(r, n).map_err(io_error)?,
        None => {
            let mut body = Vec::new();
            r.read_to_end(&mut body)?;
            body
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}
