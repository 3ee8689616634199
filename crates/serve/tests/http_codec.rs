//! Table-driven unit suite for the HTTP/1.1 codec — pure byte-slice
//! parsing, no sockets. Every failure mode the server maps to a status
//! code is pinned here: malformed request lines, oversized heads,
//! chunked round-trips, pipelined requests, and abrupt disconnects.

use std::io::{BufReader, Cursor};

use rex_serve::http::{
    read_chunked_body, read_request, write_chunked_head, write_response, ChunkedWriter, HttpError,
    MAX_BODY_BYTES, MAX_HEAD_BYTES,
};

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
