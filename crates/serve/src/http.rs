//! Minimal HTTP/1.1 framing over a `TcpStream` — just enough for a JSON
//! request/response protocol with `Connection: close` semantics, so the
//! server needs no external HTTP dependency.
//!
//! Supported: request line + headers, `Content-Length` bodies (capped),
//! status-line responses with a JSON body. Not supported (typed 400 instead
//! of undefined behavior): chunked transfer encoding, multiline headers,
//! HTTP/2.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum bytes of request line + headers before the request is rejected —
/// a slow-loris / junk-stream guard independent of the body cap.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, path, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... uppercased as received.
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request line/headers or unsupported framing.
    BadRequest(String),
    /// Declared `Content-Length` exceeds the configured cap.
    PayloadTooLarge {
        /// Bytes the client declared.
        declared: usize,
        /// Server's limit.
        limit: usize,
    },
    /// The socket timed out mid-request (read timeout is the deadline).
    Timeout,
    /// The peer disconnected or another I/O error occurred.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "payload of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Timeout => write!(f, "timed out reading request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Read one request from the stream (a `TcpStream` in the server; any
/// reader in tests). `max_body` caps the accepted `Content-Length`.
///
/// # Errors
/// [`HttpError`] as documented on the variants.
pub fn read_request<S: Read>(stream: &mut S, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;

    let request_line = read_line(&mut reader, &mut head_bytes)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let line = read_line(&mut reader, &mut head_bytes)?;
        if line.is_empty() {
            break; // end of headers
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {value:?}")))?;
        } else if name == "transfer-encoding" {
            return Err(HttpError::BadRequest(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }

    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest("body shorter than content-length".into())
        } else {
            HttpError::from(e)
        }
    })?;
    Ok(Request { method, path, body })
}

/// Read one CRLF- (or LF-) terminated header line, enforcing the head cap.
/// The read itself is bounded by what is left of the cap, so a client that
/// streams bytes without a newline is refused as soon as it passes the cap
/// instead of being buffered until the deadline.
fn read_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, HttpError> {
    let budget = MAX_HEAD_BYTES.saturating_sub(*head_bytes) as u64 + 1;
    let mut line = Vec::new();
    let n = reader
        .take(budget)
        .read_until(b'\n', &mut line)
        .map_err(HttpError::from)?;
    if n == 0 {
        return Err(HttpError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-request",
        )));
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::BadRequest("request head too large".into()));
    }
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))
}

/// Standard reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Write a complete JSON response and flush. One response per connection
/// (`Connection: close`).
///
/// # Errors
/// I/O errors from the socket (the peer may already be gone; callers treat
/// this as best-effort).
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        status,
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Run `client` against a one-shot server that parses a request and
    /// returns the parse result.
    fn parse_via_socket(raw: &[u8], max_body: usize) -> (Result<Request, HttpError>, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            out
        });
        let (mut stream, _) = listener.accept().unwrap();
        let parsed = read_request(&mut stream, max_body);
        write_response(&mut stream, 200, "{}").unwrap();
        drop(stream);
        (parsed, client.join().unwrap())
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /forecast HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let (parsed, reply) = parse_via_socket(raw, 1024);
        let req = parsed.unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/forecast");
        assert_eq!(req.body, b"body");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("\r\n\r\n{}"), "{reply}");
    }

    #[test]
    fn strips_query_string_and_lowercases_headers() {
        let raw = b"GET /stats?verbose=1 HTTP/1.1\r\nCONTENT-LENGTH: 0\r\n\r\n";
        let (parsed, _) = parse_via_socket(raw, 1024);
        let req = parsed.unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_request_line() {
        let (parsed, _) = parse_via_socket(b"this is not http\r\n\r\n", 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_oversized_body_by_declared_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        let (parsed, _) = parse_via_socket(raw, 1024);
        assert!(matches!(
            parsed,
            Err(HttpError::PayloadTooLarge {
                declared: 999_999,
                limit: 1024
            })
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        let (parsed, _) = parse_via_socket(raw, 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_chunked_encoding() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let (parsed, _) = parse_via_socket(raw, 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Frame `raw` from memory. Every outcome is a request within the
        /// body cap or a typed error; the only I/O error an in-memory reader
        /// can produce is running out of bytes.
        fn frames_or_fails_typed(raw: &[u8], max_body: usize) -> Result<(), TestCaseError> {
            match read_request(&mut &raw[..], max_body) {
                Ok(req) => prop_assert!(req.body.len() <= max_body),
                Err(HttpError::Io(e)) => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{:?}", raw)
                }
                Err(_) => {}
            }
            Ok(())
        }

        const VALID: &[u8] =
            b"POST /forecast?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 12\r\n\r\n{\"w\": [[1]]}";

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn random_and_truncated_bytes_never_panic(
                noise in proptest::collection::vec(0u8..=255, 0..300),
                cut in 0usize..80,
                flips in proptest::collection::vec((0usize..80, 0u8..=255), 0..4),
                max_body in 0usize..32,
            ) {
                frames_or_fails_typed(&noise, max_body)?;
                frames_or_fails_typed(&VALID[..cut.min(VALID.len())], max_body)?;
                let mut flipped = VALID.to_vec();
                for &(at, byte) in &flips {
                    flipped[at % VALID.len()] = byte;
                }
                frames_or_fails_typed(&flipped, max_body)?;
                let mut prefixed = VALID[..cut.min(VALID.len())].to_vec();
                prefixed.extend_from_slice(&noise);
                frames_or_fails_typed(&prefixed, max_body)?;
            }
        }
    }
}
