//! Table-driven unit suite for the HTTP/1.1 codec — pure byte-slice
//! parsing, no sockets. Every failure mode the server maps to a status
//! code is pinned here: malformed request lines, ambiguous framing,
//! oversized heads, chunked round-trips, pipelined requests, and abrupt
//! disconnects. A mutation court then feeds both decoders (the server's
//! `read_request` and the client's `read_response`) thousands of damaged
//! messages.

use std::io::{BufReader, Cursor};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rex_serve::client::read_response;
use rex_serve::http::{
    read_chunked_body, read_request, write_chunked_head, write_response, ChunkedWriter, HttpError,
    MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use rex_tensor::Prng;

fn parse(bytes: &[u8]) -> Result<rex_serve::http::Request, HttpError> {
    read_request(&mut BufReader::new(Cursor::new(bytes.to_vec())))
}

#[test]
fn parses_a_minimal_get() {
    let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    assert_eq!(req.method, "GET");
    assert_eq!(req.target, "/healthz");
    assert_eq!(req.path(), "/healthz");
    assert_eq!(req.query(), None);
    assert_eq!(req.version, "HTTP/1.1");
    assert_eq!(req.header("host"), Some("x"));
    assert_eq!(req.header("HOST"), Some("x"));
    assert!(req.body.is_empty());
    assert!(!req.wants_close());
}

#[test]
fn parses_query_strings_and_close_semantics() {
    let req = parse(b"GET /v1/jobs?state=done&n=3 HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(req.path(), "/v1/jobs");
    assert_eq!(req.query(), Some("state=done&n=3"));

    let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    assert!(close.wants_close());
    // HTTP/1.0 defaults to close, 1.1 to keep-alive
    let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    assert!(old.wants_close());
    let keep = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
    assert!(!keep.wants_close());
}

#[test]
fn parses_a_content_length_body() {
    let req = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world").unwrap();
    assert_eq!(req.body, b"hello world");
}

#[test]
fn bare_lf_line_endings_are_tolerated() {
    let req = parse(b"POST /x HTTP/1.1\nContent-Length: 2\n\nok").unwrap();
    assert_eq!(req.body, b"ok");
}

#[test]
fn malformed_request_lines_are_400() {
    let table: &[&[u8]] = &[
        b"GET\r\n\r\n",                                     // one token
        b"GET /\r\n\r\n",                                   // two tokens
        b"GET / HTTP/1.1 extra\r\n\r\n",                    // four tokens
        b" / HTTP/1.1\r\n\r\n",                             // empty method
        b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",              // header without colon
        b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",           // space in header name
        b"GET / HTTP/1.1\r\n: empty\r\n\r\n",               // empty header name
        b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", // unparseable length
        b"POST / HTTP/1.1\r\nContent-Length: +77\r\n\r\n",  // signed length
        b"\xff\xfe / HTTP/1.1\r\n\r\n",                     // not UTF-8
        // ambiguous framing (RFC 9112 §6.1, §6.3): two lengths, an
        // encoding that is not exactly `chunked`, both headers at once
        b"POST / HTTP/1.1\r\nContent-Length: 37\r\nContent-Length: 5\r\n\r\nhello",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: notchunked\r\n\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    ];
    for (i, case) in table.iter().enumerate() {
        let err = parse(case).unwrap_err();
        assert!(
            matches!(err, HttpError::Malformed(_)),
            "case {i}: expected Malformed, got {err:?}"
        );
        assert_eq!(err.status(), Some((400, "Bad Request")), "case {i}");
    }
}

#[test]
fn unsupported_versions_are_505() {
    for version in ["HTTP/2.0", "HTTP/0.9", "ICY/1.1"] {
        let raw = format!("GET / {version}\r\n\r\n");
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::UnsupportedVersion(_)), "{version}");
        assert_eq!(err.status().unwrap().0, 505);
    }
}

#[test]
fn oversized_heads_are_431() {
    // a single header pushing the head past the byte cap
    let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
    raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
    raw.extend_from_slice(b"\r\n\r\n");
    let err = parse(&raw).unwrap_err();
    assert!(matches!(err, HttpError::HeadTooLarge), "{err:?}");
    assert_eq!(err.status().unwrap().0, 431);

    // too many individually-small headers
    let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..200 {
        raw.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let err = parse(&raw).unwrap_err();
    assert!(matches!(err, HttpError::HeadTooLarge), "{err:?}");

    // a chunked body's trailers share one head's byte cap, however
    // short each line is
    let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n".to_vec();
    for i in 0..2000 {
        raw.extend_from_slice(format!("t{i}: v\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let err = parse(&raw).unwrap_err();
    assert!(matches!(err, HttpError::HeadTooLarge), "{err:?}");
}

#[test]
fn oversized_bodies_are_413() {
    let raw = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let err = parse(raw.as_bytes()).unwrap_err();
    assert!(matches!(err, HttpError::BodyTooLarge), "{err:?}");
    assert_eq!(err.status().unwrap().0, 413);

    // chunked encoding cannot smuggle past the cap either
    let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..5 {
        raw.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        raw.extend_from_slice(&chunk);
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"0\r\n\r\n");
    let err = parse(&raw).unwrap_err();
    assert!(matches!(err, HttpError::BodyTooLarge), "{err:?}");

    // nor can a chunk size that overflows the running total
    let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                1\r\nx\r\nffffffffffffffff\r\n\r\n0\r\n\r\n";
    assert_eq!(raw.len(), 78);
    let err = parse(raw).unwrap_err();
    assert!(matches!(err, HttpError::BodyTooLarge), "{err:?}");
}

#[test]
fn abrupt_disconnects_have_no_response() {
    // clean EOF before any bytes: idle keep-alive close
    let err = parse(b"").unwrap_err();
    assert!(matches!(err, HttpError::Closed), "{err:?}");
    assert_eq!(err.status(), None);

    let table: &[&[u8]] = &[
        b"GET / HT",                                                     // mid request line
        b"GET / HTTP/1.1\r\nHost: x",                                    // mid header
        b"GET / HTTP/1.1\r\nHost: x\r\n",                                // before blank line
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",             // short body
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", // short chunk
    ];
    for (i, case) in table.iter().enumerate() {
        let err = parse(case).unwrap_err();
        assert!(
            matches!(err, HttpError::Truncated),
            "case {i}: expected Truncated, got {err:?}"
        );
        assert_eq!(err.status(), None, "case {i}");
    }
}

#[test]
fn chunked_requests_decode_with_extensions_and_trailers() {
    let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nTrailer: ignored\r\n\r\n";
    let req = parse(raw).unwrap();
    assert_eq!(req.body, b"Wikipedia");
}

#[test]
fn bad_chunk_framing_is_malformed() {
    let table: &[&[u8]] = &[
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nab\r\n0\r\n\r\n", // bad size
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX0\r\n\r\n", // missing CRLF
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n+4d\r\n",            // signed size
    ];
    for (i, case) in table.iter().enumerate() {
        let err = parse(case).unwrap_err();
        assert!(
            matches!(err, HttpError::Malformed(_)),
            "case {i}: expected Malformed, got {err:?}"
        );
    }
}

#[test]
fn chunked_writer_round_trips_through_the_decoder() {
    let mut wire = Vec::new();
    write_chunked_head(&mut wire, 200, "application/x-ndjson").unwrap();
    let mut chunks = ChunkedWriter::new(&mut wire);
    chunks.write_chunk(b"{\"ev\":\"step\"}\n").unwrap();
    chunks.write_chunk(b"").unwrap(); // skipped, must not terminate
    chunks.write_chunk(b"{\"ev\":\"run_end\"}\n").unwrap();
    chunks.finish().unwrap();

    let text = String::from_utf8(wire.clone()).unwrap();
    let body_start = text.find("\r\n\r\n").unwrap() + 4;
    let mut reader = BufReader::new(Cursor::new(wire[body_start..].to_vec()));
    let body = read_chunked_body(&mut reader).unwrap();
    assert_eq!(body, b"{\"ev\":\"step\"}\n{\"ev\":\"run_end\"}\n");
}

#[test]
fn pipelined_requests_parse_back_to_back() {
    let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\n\
                Content-Length: 3\r\n\r\ntwoGET /c HTTP/1.1\r\n\r\n";
    let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
    let a = read_request(&mut reader).unwrap();
    let b = read_request(&mut reader).unwrap();
    let c = read_request(&mut reader).unwrap();
    assert_eq!((a.path(), a.body.as_slice()), ("/a", b"one".as_slice()));
    assert_eq!((b.path(), b.body.as_slice()), ("/b", b"two".as_slice()));
    assert_eq!(c.path(), "/c");
    assert!(matches!(
        read_request(&mut reader).unwrap_err(),
        HttpError::Closed
    ));
}

#[test]
fn write_response_emits_exact_framing() {
    let mut wire = Vec::new();
    write_response(
        &mut wire,
        429,
        "application/json",
        &[("Retry-After", "1")],
        b"{\"error\":\"queue full\"}\n",
    )
    .unwrap();
    let text = String::from_utf8(wire).unwrap();
    assert_eq!(
        text,
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
         Content-Length: 23\r\nRetry-After: 1\r\n\r\n{\"error\":\"queue full\"}\n"
    );
}

/// Numbers spliced over a digit run: `usize::MAX` and 2^64 (one past
/// it), the largest 64-bit chunk size, and one byte past
/// `MAX_BODY_BYTES`.
const SPLICES: [&[u8]; 4] = [
    b"18446744073709551615",
    b"18446744073709551616",
    b"ffffffffffffffff",
    b"4194305",
];

/// One mutant of `template`: one to three stacked bit flips,
/// truncations, insertions of the template's own bytes, or splices of a
/// [`SPLICES`] number over a run of digits (a length, a chunk size, a
/// status code), so damage reaches the framing fields as well as the
/// syntax around them.
fn mutant(template: &[u8], rng: &mut Prng) -> Vec<u8> {
    let mut out = template.to_vec();
    for _ in 0..=rng.below(3) {
        let n = out.len();
        match rng.below(4) {
            0 if n > 0 => out[rng.below(n)] ^= 1 << rng.below(8),
            1 => out.truncate(rng.below(n + 1)),
            2 => {
                let (at, from) = (rng.below(n + 1), rng.below(template.len()));
                let to = (from + 1 + rng.below(8)).min(template.len());
                out.splice(at..at, template[from..to].iter().copied());
            }
            _ => {
                let runs: Vec<usize> = (0..n)
                    .filter(|&i| {
                        out[i].is_ascii_digit() && (i == 0 || !out[i - 1].is_ascii_digit())
                    })
                    .collect();
                if let Some(&start) = runs.get(rng.below(runs.len().max(1))) {
                    let end = (start..n).find(|&i| !out[i].is_ascii_digit()).unwrap_or(n);
                    out.splice(
                        start..end,
                        SPLICES[rng.below(SPLICES.len())].iter().copied(),
                    );
                }
            }
        }
    }
    out
}

/// Decodes `bytes` message by message until they run out: `true` when
/// every message decodes, `false` at the first refusal. `check` sees each
/// decoded message.
fn decode_all<'a, T, E>(
    mut bytes: &'a [u8],
    decode: impl Fn(&mut &'a [u8]) -> Result<T, E>,
    mut check: impl FnMut(&T),
) -> bool {
    while !bytes.is_empty() {
        match decode(&mut bytes) {
            Ok(msg) => check(&msg),
            Err(_) => return false,
        }
    }
    true
}

/// The court's rules for one template, which must itself be accepted:
/// no mutant panics in `decode`, and both verdicts occur.
fn court(name: &str, template: &[u8], seed: u64, decode: impl Fn(&[u8]) -> bool) {
    assert!(decode(template), "{name}: the template itself is refused");
    let mut rng = Prng::new(seed);
    let (mut accepted, mut rejected, mut panics) = (0, 0, Vec::new());
    for i in 0..3000 {
        let bytes = mutant(template, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| decode(&bytes))) {
            Err(_) => panics.push(i),
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
        }
    }
    assert!(panics.is_empty(), "{name}: mutants {panics:?} panicked");
    assert!(
        accepted > 0 && rejected > 0,
        "{name}: {accepted} accepted, {rejected} rejected"
    );
}

/// Every request decodes, and none carries a body above `MAX_BODY_BYTES`.
fn requests_decode(bytes: &[u8]) -> bool {
    decode_all(bytes, read_request, |req| {
        assert!(
            req.body.len() <= MAX_BODY_BYTES,
            "{}-byte body",
            req.body.len()
        );
    })
}

fn responses_decode(bytes: &[u8]) -> bool {
    decode_all(bytes, read_response, |_| {})
}

#[test]
fn responses_are_framed_like_requests() {
    let big_head = format!(
        "HTTP/1.1 200 OK\r\nX-Big: {}\r\nContent-Length: 0\r\n\r\n",
        "a".repeat(MAX_HEAD_BYTES)
    );
    let table: &[&[u8]] = &[
        b"HTTP/1.1 200 OK\r\nContent-Length: +3\r\n\r\nabc", // signed length
        b"HTTP/1.1 +20 OK\r\nContent-Length: 0\r\n\r\n",     // signed status
        // a declared usize::MAX with 3 bytes sent: no allocation up front
        b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: notchunked\r\n\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabc",
        big_head.as_bytes(), // past the server's head cap
    ];
    for (i, case) in table.iter().enumerate() {
        assert!(read_response(&mut &case[..]).is_err(), "case {i}: accepted");
    }
}

#[test]
fn decoder_mutants_never_panic() {
    let body = r#"{"setting":"digits-mlp","budget":25}"#;
    let pipelined = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}GET /v1/jobs/job-000001 HTTP/1.1\r\nHost: x\r\n\r\n",
        body.len()
    );
    court(
        "content-length request",
        pipelined.as_bytes(),
        26,
        requests_decode,
    );
    let chunked = b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    12;ext=1\r\n{\"setting\":\"digits\r\n12\r\n-mlp\",\"budget\":25}\r\n\
                    0\r\nTrailer: 7\r\n\r\n";
    court("chunked request", chunked, 27, requests_decode);

    let mut wire = Vec::new();
    let body = b"{\"id\":\"job-000001\",\"state\":\"queued\"}\n";
    write_response(&mut wire, 202, "application/json", &[], body).unwrap();
    court("content-length response", &wire, 28, responses_decode);
    let mut wire = Vec::new();
    write_chunked_head(&mut wire, 200, "application/x-ndjson").unwrap();
    let mut chunks = ChunkedWriter::new(&mut wire);
    chunks
        .write_chunk(b"{\"ev\":\"step\",\"step\":0}\n")
        .unwrap();
    chunks
        .write_chunk(b"{\"ev\":\"run_end\",\"metric\":12.5}\n")
        .unwrap();
    chunks.finish().unwrap();
    court("chunked response", &wire, 29, responses_decode);
}
