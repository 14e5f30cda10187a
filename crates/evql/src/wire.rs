//! The `everest-serve` wire protocol: length-prefixed request/response
//! frames plus a canonical (byte-comparable) answer encoding.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 BE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts payload bytes only, must be ≥ 1 and ≤ the max-frame
//! guard ([`MAX_FRAME`], 1 MiB, in both directions). A violating prefix
//! is rejected *before* any payload is buffered, so an adversarial
//! `0xFFFF_FFFF` length cannot make the daemon allocate 4 GiB.
//!
//! ## Payloads
//!
//! The first payload byte is a tag; all integers are big-endian; strings
//! and byte blobs are `u32` length + bytes. Requests: [`Request::Query`]
//! (EVQL text), [`Request::Admin`] (`SHOW SESSIONS` / `SHOW CACHES` /
//! `SHOW METRICS` / `RELOAD` / `SHUTDOWN`), [`Request::Ping`] (echo).
//! Responses carry the request's `id` back. [`Response::Answer`] holds
//! both a human rendering and the **canonical answer bytes** produced by
//! [`canonical_output`]: a deterministic encoding of the answer rows and
//! result-shaped stats that deliberately excludes wall-clock time and
//! cache provenance, so a daemon answer can be compared byte-for-byte
//! against a single-process [`Session`](crate::exec::Session) run — the
//! serve e2e harness's central property.
//!
//! Decoding never panics on adversarial bytes: every failure mode is a
//! typed [`WireError`].

use crate::exec::{AnswerRow, ExecStats, Output, QueryOutput, SkylineOutput, StreamOutput};
use std::io::Write;

/// Maximum frame payload in bytes, for requests and responses alike:
/// 1 MiB.
pub const MAX_FRAME: u32 = 1 << 20;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Announced length exceeds the max-frame guard.
    FrameTooLarge { len: u32, max: u32 },
    /// Announced length is zero (a frame must at least carry a tag).
    EmptyFrame,
    /// Payload ended before the field named here was complete.
    Truncated(&'static str),
    /// Unknown payload tag byte.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8(&'static str),
    /// Payload decoded cleanly but bytes were left over.
    TrailingBytes { extra: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::Truncated(what) => write!(f, "frame truncated while reading {what}"),
            WireError::BadTag(t) => write!(f, "unknown payload tag 0x{t:02x}"),
            WireError::BadUtf8(what) => write!(f, "field {what} is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---- request / response ----

/// A client→daemon message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one EVQL statement on this connection's session.
    Query { id: u64, text: String },
    /// A daemon admin command (`SHOW SESSIONS`, `SHOW CACHES`,
    /// `SHOW METRICS`, `RELOAD`, `SHUTDOWN`).
    Admin { id: u64, command: String },
    /// Liveness / echo probe; the daemon answers [`Response::Pong`]
    /// carrying the same nonce.
    Ping { id: u64, nonce: Vec<u8> },
}

/// A daemon→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A successful query answer: canonical bytes + human rendering.
    Answer {
        id: u64,
        canonical: Vec<u8>,
        rendered: String,
    },
    /// A text result (SHOW/SET/EXPLAIN output, admin command output).
    Message { id: u64, text: String },
    /// A failed request. `id` is 0 for protocol-level errors, where no
    /// request id could be decoded.
    Error { id: u64, text: String },
    /// Echo of a [`Request::Ping`].
    Pong { id: u64, nonce: Vec<u8> },
    /// The daemon shed this query at admission (too many queries already
    /// in flight). Distinct from [`Response::Error`] so clients can
    /// retry/back off without parsing message text.
    Overloaded {
        id: u64,
        /// Queries in flight when the request was shed (the admission
        /// limit it collided with).
        inflight: u64,
        text: String,
    },
}

const TAG_QUERY: u8 = 0x01;
const TAG_ADMIN: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_ANSWER: u8 = 0x81;
const TAG_MESSAGE: u8 = 0x82;
const TAG_ERROR: u8 = 0x83;
const TAG_PONG: u8 = 0x84;
const TAG_OVERLOADED: u8 = 0x85;

impl Request {
    /// Encodes the payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query { id, text } => {
                out.push(TAG_QUERY);
                put_u64(&mut out, *id);
                put_bytes(&mut out, text.as_bytes());
            }
            Request::Admin { id, command } => {
                out.push(TAG_ADMIN);
                put_u64(&mut out, *id);
                put_bytes(&mut out, command.as_bytes());
            }
            Request::Ping { id, nonce } => {
                out.push(TAG_PING);
                put_u64(&mut out, *id);
                put_bytes(&mut out, nonce);
            }
        }
        out
    }

    /// Decodes a payload; rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("tag")?;
        let req = match tag {
            TAG_QUERY => Request::Query {
                id: r.u64("query id")?,
                text: r.string("query text")?,
            },
            TAG_ADMIN => Request::Admin {
                id: r.u64("admin id")?,
                command: r.string("admin command")?,
            },
            TAG_PING => Request::Ping {
                id: r.u64("ping id")?,
                nonce: r.bytes("ping nonce")?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Answer {
                id,
                canonical,
                rendered,
            } => {
                out.push(TAG_ANSWER);
                put_u64(&mut out, *id);
                put_bytes(&mut out, canonical);
                put_bytes(&mut out, rendered.as_bytes());
            }
            Response::Message { id, text } => {
                out.push(TAG_MESSAGE);
                put_u64(&mut out, *id);
                put_bytes(&mut out, text.as_bytes());
            }
            Response::Error { id, text } => {
                out.push(TAG_ERROR);
                put_u64(&mut out, *id);
                put_bytes(&mut out, text.as_bytes());
            }
            Response::Pong { id, nonce } => {
                out.push(TAG_PONG);
                put_u64(&mut out, *id);
                put_bytes(&mut out, nonce);
            }
            Response::Overloaded { id, inflight, text } => {
                out.push(TAG_OVERLOADED);
                put_u64(&mut out, *id);
                put_u64(&mut out, *inflight);
                put_bytes(&mut out, text.as_bytes());
            }
        }
        out
    }

    /// Decodes a payload; rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("tag")?;
        let resp = match tag {
            TAG_ANSWER => Response::Answer {
                id: r.u64("answer id")?,
                canonical: r.bytes("canonical answer")?,
                rendered: r.string("rendered answer")?,
            },
            TAG_MESSAGE => Response::Message {
                id: r.u64("message id")?,
                text: r.string("message text")?,
            },
            TAG_ERROR => Response::Error {
                id: r.u64("error id")?,
                text: r.string("error text")?,
            },
            TAG_PONG => Response::Pong {
                id: r.u64("pong id")?,
                nonce: r.bytes("pong nonce")?,
            },
            TAG_OVERLOADED => Response::Overloaded {
                id: r.u64("overloaded id")?,
                inflight: r.u64("overloaded inflight")?,
                text: r.string("overloaded text")?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// The id of the request this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Answer { id, .. }
            | Response::Message { id, .. }
            | Response::Error { id, .. }
            | Response::Pong { id, .. }
            | Response::Overloaded { id, .. } => *id,
        }
    }
}

// ---- framing ----

/// Writes one frame, refusing payloads beyond `max` bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: u32) -> std::io::Result<()> {
    let len = payload.len();
    if len == 0 || len > max as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            WireError::FrameTooLarge {
                len: len.min(u32::MAX as usize) as u32,
                max,
            },
        ));
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(payload)
}

/// An incremental frame decoder: feed byte chunks with [`push`](FrameDecoder::push), drain complete frames
/// with [`next_frame`](FrameDecoder::next_frame). The daemon and the
/// blocking client both read through it, so a read timeout mid-frame (the
/// daemon's shutdown poll) never loses bytes.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_frame: u32,
    /// Set once a guard violation is seen; the stream cannot be resynced.
    dead: Option<WireError>,
}

impl FrameDecoder {
    /// A decoder enforcing the given max-frame guard.
    pub fn new(max_frame: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            max_frame,
            dead: None,
        }
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when a partial frame (or undecoded bytes) are buffered.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Returns the next complete frame's payload, `Ok(None)` when more
    /// bytes are needed, or the guard violation that killed the stream.
    /// After an error every further call returns the same error: a
    /// length-prefixed stream cannot be resynchronized past a bad prefix.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len == 0 {
            self.dead = Some(WireError::EmptyFrame);
            return Err(WireError::EmptyFrame);
        }
        if len > self.max_frame {
            let e = WireError::FrameTooLarge {
                len,
                max: self.max_frame,
            };
            self.dead = Some(e.clone());
            return Err(e);
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

// ---- canonical answer encoding ----

/// Canonical answer bytes for an [`Output`]: a deterministic encoding of
/// everything result-shaped (rows, confidence, iterations, cleaned,
/// quality) that **excludes** the performance-shaped stats — wall-clock
/// time, `phase1_cached`, and the simulated-latency trio (a pure function
/// of the statement, but the bench ladder's staged replay does not
/// reproduce `scan_seconds`/`speedup` and must still encode to the
/// engine's bytes) — so the same query answered by the daemon and by a
/// private single-process session encodes to identical bytes.
pub fn canonical_output(output: &Output) -> Vec<u8> {
    let mut out = Vec::new();
    match output {
        Output::Rows(q) => {
            out.push(b'R');
            put_rows(&mut out, q);
        }
        Output::Skyline(s) => {
            out.push(b'K');
            put_skyline(&mut out, s);
        }
        Output::Stream(s) => {
            out.push(b'S');
            put_stream(&mut out, s);
        }
        Output::Message(m) => {
            out.push(b'M');
            put_bytes(&mut out, m.as_bytes());
        }
    }
    out
}

fn put_rows(out: &mut Vec<u8>, q: &QueryOutput) {
    put_u32(out, q.rows.len() as u32);
    for row in &q.rows {
        put_answer_row(out, row);
    }
    put_stats(out, &q.stats);
}

fn put_answer_row(out: &mut Vec<u8>, row: &AnswerRow) {
    put_u64(out, row.rank as u64);
    put_u64(out, row.start_frame as u64);
    put_u64(out, row.end_frame as u64);
    put_f64(out, row.time_sec);
    put_f64(out, row.score);
}

fn put_skyline(out: &mut Vec<u8>, s: &SkylineOutput) {
    put_u32(out, s.score_names.len() as u32);
    for name in &s.score_names {
        put_bytes(out, name.as_bytes());
    }
    put_u32(out, s.rows.len() as u32);
    for row in &s.rows {
        put_u64(out, row.frame as u64);
        put_f64(out, row.time_sec);
        put_u32(out, row.scores.len() as u32);
        for &v in &row.scores {
            put_f64(out, v);
        }
    }
    put_stats(out, &s.stats);
}

fn put_stream(out: &mut Vec<u8>, s: &StreamOutput) {
    put_u32(out, s.answers.len() as u32);
    for a in &s.answers {
        put_u64(out, a.at_frame as u64);
        put_u64(out, a.window_start as u64);
        put_f64(out, a.confidence);
        out.push(a.converged as u8);
        out.push(a.termination.code());
        put_u64(out, a.cleaned as u64);
        put_u32(out, a.topk.len() as u32);
        for &(id, bucket) in &a.topk {
            put_u64(out, id as u64);
            put_u32(out, bucket);
        }
        put_u32(out, a.stability.len() as u32);
        for &p in &a.stability {
            put_f64(out, p);
        }
    }
    put_u32(out, s.retained.len() as u32);
    for &f in &s.retained {
        put_u64(out, f as u64);
    }
    put_stats(out, &s.stats);
}

/// Result-shaped stats subset. The fields that legitimately differ
/// between a daemon (shared cache, real sockets) and a private session
/// are deliberately absent: `wall`, `phase1_cached`, and the retry/breaker
/// counters (operational telemetry, not an answer). The latency trio
/// `sim_seconds`/`scan_seconds`/`speedup` is absent for another reason: it
/// is deterministic, but the bench ladder's staged replay of a query
/// leaves `scan_seconds`/`speedup` unset and is checked byte-for-byte
/// against the engine's answer.
/// `termination` *is* canonical: given the same budget and fault seed the
/// stop cause is deterministic, and it qualifies the degraded answer.
fn put_stats(out: &mut Vec<u8>, stats: &ExecStats) {
    put_bytes(out, stats.engine.display().as_bytes());
    put_u64(out, stats.n_frames as u64);
    put_u64(out, stats.n_items as u64);
    put_opt_f64(out, stats.confidence);
    match stats.converged {
        None => out.push(0),
        Some(false) => out.push(1),
        Some(true) => out.push(2),
    }
    put_opt_u64(out, stats.iterations.map(|v| v as u64));
    put_opt_u64(out, stats.cleaned.map(|v| v as u64));
    match stats.quality {
        None => out.push(0),
        Some(q) => {
            out.push(1);
            put_f64(out, q.precision);
            put_f64(out, q.rank_distance);
            put_f64(out, q.score_error);
        }
    }
    // 0 = no Phase 2 ran; otherwise the Termination wire code (1–5).
    out.push(stats.termination.map_or(0, |t| t.code()));
}

// ---- primitive encoders ----

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Bounds-checked payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let s = self.take(4, what)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let s = self.take(8, what)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| WireError::BadUtf8(what))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Query {
                id: 7,
                text: "SELECT TOP 5 FRAMES FROM Archie".into(),
            },
            Request::Admin {
                id: u64::MAX,
                command: "SHOW SESSIONS".into(),
            },
            Request::Ping {
                id: 0,
                nonce: vec![0, 1, 2, 255],
            },
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Answer {
                id: 3,
                canonical: vec![b'R', 0, 1],
                rendered: "rank table".into(),
            },
            Response::Message {
                id: 4,
                text: "ok".into(),
            },
            Response::Error {
                id: 0,
                text: "unknown payload tag 0x7f".into(),
            },
            Response::Pong {
                id: 9,
                nonce: vec![],
            },
            Response::Overloaded {
                id: 11,
                inflight: 32,
                text: "too many queries in flight".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn decoder_assembles_frames_across_chunk_boundaries() {
        let payload = Request::Query {
            id: 1,
            text: "SHOW DATASETS".into(),
        }
        .encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload, MAX_FRAME).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        for chunk in framed.chunks(3) {
            dec.push(chunk);
        }
        assert_eq!(dec.next_frame().unwrap().unwrap(), payload);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_buffering() {
        let mut dec = FrameDecoder::new(1024);
        dec.push(&u32::MAX.to_be_bytes());
        match dec.next_frame() {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("{other:?}"),
        }
        // the stream stays dead
        let mut valid = Vec::new();
        write_frame(&mut valid, &[1], 1024).unwrap();
        dec.push(&valid);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_rejects_zero_length_frames() {
        let mut dec = FrameDecoder::new(1024);
        dec.push(&0u32.to_be_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::EmptyFrame));
    }

    #[test]
    fn truncated_payloads_decode_to_typed_errors() {
        let full = Request::Query {
            id: 2,
            text: "SELECT TOP 1 FRAMES FROM Archie".into(),
        }
        .encode();
        for cut in 0..full.len() {
            match Request::decode(&full[..cut]) {
                Err(WireError::Truncated(_)) => {}
                Err(WireError::BadTag(_)) if cut == 0 => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping {
            id: 1,
            nonce: vec![7],
        }
        .encode();
        bytes.push(0xAA);
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn write_frame_refuses_oversized_and_empty_payloads() {
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 10], 8).is_err());
        assert!(write_frame(&mut sink, &[], 8).is_err());
        assert!(write_frame(&mut sink, &[1, 2], 8).is_ok());
        assert_eq!(sink, vec![0, 0, 0, 2, 1, 2]);
    }
}
