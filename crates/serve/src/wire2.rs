//! The v2 binary wire protocol: multiplexed, length-prefixed frames.
//!
//! This is the only protocol on a socket between processes: a parent
//! router's [`crate::RemoteWorker`] and a [`crate::RemoteRuntimeNode`]
//! exchange compact binary frames that many in-flight requests share
//! on one connection. In-process callers never encode: they hand the
//! runtime the [`Request`] struct itself.
//!
//! # Frame layout
//!
//! Every frame is an 11-byte header followed by `payload_len` bytes:
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xB2)
//! 1       1     protocol version ([`WIRE2_MIN_VERSION`]..=[`WIRE2_VERSION`])
//! 2       1     frame type (see below)
//! 3       4     request id, u32 little-endian (mux correlation id)
//! 7       4     payload length, u32 little-endian
//! 11      n     payload
//! ```
//!
//! The mux request id correlates a response frame with its request on
//! a shared socket; it is distinct from the application-level
//! [`Request::id`] carried inside the payload. Payload lengths are
//! hard-capped at [`MAX_FRAME_PAYLOAD`]; a longer length prefix is a
//! protocol violation and the connection is closed rather than
//! trusted ([`decode_header`] refuses it, so no reader ever allocates
//! or reads past the bound).
//!
//! Frame types:
//!
//! | byte | type | payload |
//! |------|------|---------|
//! | 1 | [`FrameType::BinRequest`] | binary [`Request`] ([`encode_request_payload`]) |
//! | 2 | [`FrameType::BinResponse`] | binary [`Response`] ([`encode_response_payload`]) |
//! | 5 | [`FrameType::HelloAck`] | empty (handshake accept) |
//!
//! Bytes 3 and 4 are unassigned (they once carried JSON frames) and,
//! like every other unknown type, are rejected as corrupt.
//!
//! # Handshake
//!
//! A client opens its connection by sending the ASCII preamble
//! [`WIRE2_PREAMBLE`] (`"WILLUMP/WIRE2\n"`), and the node answers
//! with a [`FrameType::HelloAck`] frame. The handshake is a check,
//! not a negotiation: a node closes a connection whose first bytes
//! are not the preamble, and a client treats any first reply other
//! than a `HelloAck` as a transport failure. Which frame versions a
//! peer accepts is carried in every header instead
//! ([`WIRE2_MIN_VERSION`]`..=`[`WIRE2_VERSION`]).
//!
//! # Encoding
//!
//! The payload codec is a fixed-width little-endian encoding with
//! u32-length-prefixed UTF-8 strings and one presence byte per
//! `Option`. It is not self-describing: the field order is frozen per
//! protocol version in [`WIRE2_LAYOUT`], and `xtask lint` rule WL001
//! fails the build when the layout changes without bumping
//! [`WIRE2_VERSION`] (the header's version byte).

use std::io::Read;

use willump::PlanCountersSnapshot;
use willump_data::Value;

use crate::protocol::{ControlRequest, EndpointCounters, Request, Response, WireRow};
use crate::ServeError;

/// First byte of every v2 frame. Not printable ASCII, so a frame can
/// never be mistaken for text, nor text for a frame.
pub const WIRE2_MAGIC: u8 = 0xB2;

/// The binary protocol version carried in byte 1 of every frame.
/// MUST be bumped whenever [`WIRE2_LAYOUT`] changes (`xtask lint`
/// rule WL001 enforces it).
///
/// v4 drops v3's node-lifecycle control tags 1–3: [`ControlRequest`]
/// is `Counters` (tag 0) alone. Prediction frames and the counters
/// probe are byte-identical from v2 to v4, so v2 and v3 frames still
/// decode; a v3 tag 1–3 gets an in-band `unknown control tag` reply,
/// counts in `decode_errors`, and the connection stays open. A v2 or
/// v3 peer rejects every v4 header, though (it accepts versions up
/// to 3): upgrade all processes together.
pub const WIRE2_VERSION: u8 = 4;

/// Oldest frame version this build still decodes (see
/// [`WIRE2_VERSION`] for what v2 and v3 frames keep).
pub const WIRE2_MIN_VERSION: u8 = 2;

/// Size of the fixed frame header in bytes.
pub const WIRE2_HEADER_LEN: usize = 11;

/// Hard upper bound on a frame payload. A length prefix above this is
/// treated as stream corruption: readers refuse to allocate or read
/// past it and drop the connection instead of trusting the prefix.
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// The ASCII preamble a client sends immediately after connecting;
/// the node answers it with a [`FrameType::HelloAck`].
pub const WIRE2_PREAMBLE: &[u8] = b"WILLUMP/WIRE2\n";

/// The frozen per-version field order of the binary encoding. Each
/// entry is a struct (or enum) name and its encoded field (or
/// variant-tag) order. `xtask lint` rule WL001 keeps a copy frozen
/// per [`WIRE2_VERSION`]: reordering, adding, or removing a field
/// without bumping the version byte fails the lint.
pub const WIRE2_LAYOUT: &[(&str, &[&str])] = &[
    (
        "Request",
        &[
            "id",
            "rows",
            "endpoint",
            "version",
            "key",
            "forwarded",
            "control",
        ],
    ),
    (
        "Response",
        &[
            "id",
            "scores",
            "error",
            "endpoint",
            "version",
            "counters",
            "degraded",
            "overloaded",
        ],
    ),
    ("EndpointCounters", &["endpoint", "version", "counters"]),
    (
        "PlanCountersSnapshot",
        &["rows", "gate_resolved", "escalated", "filter_dropped"],
    ),
    ("Value", &["Null", "Bool", "Int", "Float", "Str"]),
    ("ControlRequest", &["Counters"]),
];

/// The kind of one v2 frame (byte 2 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// A binary-encoded [`Request`] payload.
    BinRequest = 1,
    /// A binary-encoded [`Response`] payload.
    BinResponse = 2,
    /// Handshake accept (empty payload, request id 0).
    HelloAck = 5,
}

impl FrameType {
    /// Parse a frame-type byte; `None` for unknown types.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<FrameType> {
        match b {
            1 => Some(FrameType::BinRequest),
            2 => Some(FrameType::BinResponse),
            5 => Some(FrameType::HelloAck),
            _ => None,
        }
    }
}

/// The decoded fixed-size header of one v2 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload contains.
    pub frame_type: FrameType,
    /// Mux correlation id tying a response frame to its request frame
    /// on a shared socket (not the application [`Request::id`]).
    pub request_id: u32,
    /// Payload length in bytes (already validated `<=`
    /// [`MAX_FRAME_PAYLOAD`]).
    pub payload_len: u32,
}

/// Encode a frame header.
#[must_use]
pub fn encode_header(frame_type: FrameType, request_id: u32, payload_len: u32) -> [u8; 11] {
    let mut h = [0u8; WIRE2_HEADER_LEN];
    h[0] = WIRE2_MAGIC;
    h[1] = WIRE2_VERSION;
    h[2] = frame_type as u8;
    h[3..7].copy_from_slice(&request_id.to_le_bytes());
    h[7..11].copy_from_slice(&payload_len.to_le_bytes());
    h
}

/// Decode and validate a frame header: magic, version, frame type,
/// and the [`MAX_FRAME_PAYLOAD`] bound on the length prefix.
///
/// # Errors
/// Returns [`ServeError::Codec`] naming the offending field.
pub fn decode_header(buf: &[u8; WIRE2_HEADER_LEN]) -> Result<FrameHeader, ServeError> {
    if buf[0] != WIRE2_MAGIC {
        return Err(ServeError::Codec(format!(
            "bad frame magic 0x{:02x} (expected 0x{WIRE2_MAGIC:02x})",
            buf[0]
        )));
    }
    if !(WIRE2_MIN_VERSION..=WIRE2_VERSION).contains(&buf[1]) {
        return Err(ServeError::Codec(format!(
            "unsupported wire2 version {} (this build speaks {WIRE2_MIN_VERSION}..={WIRE2_VERSION})",
            buf[1]
        )));
    }
    let frame_type = FrameType::from_byte(buf[2])
        .ok_or_else(|| ServeError::Codec(format!("unknown frame type {}", buf[2])))?;
    let request_id = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
    let payload_len = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(ServeError::Codec(format!(
            "frame payload length {payload_len} exceeds the {MAX_FRAME_PAYLOAD}-byte bound"
        )));
    }
    Ok(FrameHeader {
        frame_type,
        request_id,
        payload_len,
    })
}

/// Encode a complete frame (header + payload) into one buffer, ready
/// for a single write.
///
/// # Errors
/// Returns [`ServeError::Codec`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`] (such a frame would be rejected by every
/// conforming reader, so it is never sent).
pub fn encode_frame(
    frame_type: FrameType,
    request_id: u32,
    payload: &[u8],
) -> Result<Vec<u8>, ServeError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_PAYLOAD)
        .ok_or_else(|| {
            ServeError::Codec(format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte bound",
                payload.len()
            ))
        })?;
    let mut out = Vec::with_capacity(WIRE2_HEADER_LEN + payload.len());
    out.extend_from_slice(&encode_header(frame_type, request_id, len));
    out.extend_from_slice(payload);
    Ok(out)
}

/// Why [`read_frame`] stopped.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (timeouts, resets, mid-frame EOF).
    Io(std::io::Error),
    /// The stream position no longer holds a valid frame (bad magic,
    /// unknown type, oversized length prefix): the connection cannot
    /// be resynchronized and must be dropped.
    Corrupt(String),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameReadError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

/// Read one complete frame from a blocking reader.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary. The payload
/// read is bounded by the already-validated header length (never past
/// [`MAX_FRAME_PAYLOAD`]).
///
/// # Errors
/// [`FrameReadError::Io`] for transport failures (including EOF
/// mid-frame), [`FrameReadError::Corrupt`] for header violations.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(FrameHeader, Vec<u8>)>, FrameReadError> {
    let mut header = [0u8; WIRE2_HEADER_LEN];
    // Distinguish clean EOF (before any header byte) from a torn one.
    let mut filled = 0;
    while filled < WIRE2_HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let hdr = decode_header(&header).map_err(|e| FrameReadError::Corrupt(e.to_string()))?;
    let mut payload = vec![0u8; hdr.payload_len as usize];
    r.read_exact(&mut payload).map_err(FrameReadError::Io)?;
    Ok(Some((hdr, payload)))
}

// ---- payload codec -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.remaining() < n {
            return Err(ServeError::Codec(format!(
                "truncated payload: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, ServeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ServeError::Codec(format!("invalid bool byte {b}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, ServeError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection count, sanity-checked against the bytes left: each
    /// element costs at least `min_elem` bytes, so a count implying
    /// more data than remains is corruption — reject it *before*
    /// allocating.
    fn count(&mut self, min_elem: usize) -> Result<usize, ServeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(ServeError::Codec(format!(
                "collection count {n} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, ServeError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ServeError::Codec(format!("invalid UTF-8 in string field: {e}")))
    }

    fn opt_str(&mut self) -> Result<Option<String>, ServeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            b => Err(ServeError::Codec(format!("invalid option byte {b}"))),
        }
    }

    fn value(&mut self) -> Result<Value, ServeError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.bool()?)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(self.f64()?)),
            4 => Ok(Value::str(self.str()?)),
            t => Err(ServeError::Codec(format!("unknown value tag {t}"))),
        }
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.remaining() != 0 {
            return Err(ServeError::Codec(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Encode a [`Request`] into the v2 binary payload form (field order
/// frozen in [`WIRE2_LAYOUT`]).
#[must_use]
pub fn encode_request_payload(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + req.rows.len() * 32);
    put_u64(&mut out, req.id);
    put_u32(&mut out, req.rows.len() as u32);
    for row in &req.rows {
        put_u32(&mut out, row.len() as u32);
        for (name, value) in row {
            put_str(&mut out, name);
            put_value(&mut out, value);
        }
    }
    put_opt_str(&mut out, req.endpoint.as_deref());
    match req.version {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u32(&mut out, v);
        }
    }
    put_opt_str(&mut out, req.key.as_deref());
    out.push(u8::from(req.forwarded));
    match req.control {
        None => out.push(0),
        // Presence byte, then the variant tag frozen in WIRE2_LAYOUT.
        Some(ControlRequest::Counters) => out.extend_from_slice(&[1, 0]),
    }
    out
}

/// Decode a v2 binary [`Request`] payload.
///
/// # Errors
/// Returns [`ServeError::Codec`] on truncation, trailing bytes, or
/// invalid tag/option/UTF-8 content.
pub fn decode_request_payload(buf: &[u8]) -> Result<Request, ServeError> {
    let mut c = Cursor::new(buf);
    let id = c.u64()?;
    let n_rows = c.count(4)?;
    let mut rows: Vec<WireRow> = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let n_cols = c.count(6)?;
        let mut row: WireRow = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = c.str()?;
            let value = c.value()?;
            row.push((name, value));
        }
        rows.push(row);
    }
    let endpoint = c.opt_str()?;
    let version = match c.u8()? {
        0 => None,
        1 => Some(c.u32()?),
        b => return Err(ServeError::Codec(format!("invalid option byte {b}"))),
    };
    let key = c.opt_str()?;
    let forwarded = c.bool()?;
    let control = match c.u8()? {
        0 => None,
        1 => match c.u8()? {
            0 => Some(ControlRequest::Counters),
            t => return Err(ServeError::Codec(format!("unknown control tag {t}"))),
        },
        b => return Err(ServeError::Codec(format!("invalid option byte {b}"))),
    };
    c.done()?;
    Ok(Request {
        id,
        rows,
        endpoint,
        version,
        key,
        forwarded,
        control,
    })
}

/// Encode a [`Response`] into the v2 binary payload form (field order
/// frozen in [`WIRE2_LAYOUT`]).
#[must_use]
pub fn encode_response_payload(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + resp.scores.len() * 8);
    put_response(&mut out, resp);
    out
}

/// Encode a whole [`FrameType::BinResponse`] frame into one buffer:
/// the header goes in first with its length left open, the payload is
/// encoded behind it in place, and the length is patched in last —
/// one allocation where [`encode_response_payload`] plus
/// [`encode_frame`] make two and copy the payload between them.
///
/// # Errors
/// Returns [`ServeError::Codec`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`], exactly as [`encode_frame`] does.
pub fn encode_response_frame(request_id: u32, resp: &Response) -> Result<Vec<u8>, ServeError> {
    let strings =
        resp.error.as_ref().map_or(0, String::len) + resp.endpoint.as_ref().map_or(0, String::len);
    let mut out = Vec::with_capacity(WIRE2_HEADER_LEN + 40 + resp.scores.len() * 8 + strings);
    out.extend_from_slice(&encode_header(FrameType::BinResponse, request_id, 0));
    put_response(&mut out, resp);
    let payload = out.len() - WIRE2_HEADER_LEN;
    let len = u32::try_from(payload)
        .ok()
        .filter(|&n| n <= MAX_FRAME_PAYLOAD)
        .ok_or_else(|| {
            ServeError::Codec(format!(
                "frame payload of {payload} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte bound"
            ))
        })?;
    out[7..WIRE2_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    Ok(out)
}

#[inline]
fn put_response(out: &mut Vec<u8>, resp: &Response) {
    put_u64(out, resp.id);
    put_u32(out, resp.scores.len() as u32);
    for s in &resp.scores {
        out.extend_from_slice(&s.to_le_bytes());
    }
    put_opt_str(out, resp.error.as_deref());
    put_opt_str(out, resp.endpoint.as_deref());
    match resp.version {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u32(out, v);
        }
    }
    match &resp.counters {
        None => out.push(0),
        Some(report) => {
            out.push(1);
            put_u32(out, report.len() as u32);
            for ec in report {
                put_str(out, &ec.endpoint);
                put_u32(out, ec.version);
                put_u64(out, ec.counters.rows);
                put_u64(out, ec.counters.gate_resolved);
                put_u64(out, ec.counters.escalated);
                put_u64(out, ec.counters.filter_dropped);
            }
        }
    }
    out.push(u8::from(resp.degraded));
    out.push(u8::from(resp.overloaded));
}

/// Decode a v2 binary [`Response`] payload.
///
/// # Errors
/// Returns [`ServeError::Codec`] on truncation, trailing bytes, or
/// invalid tag/option/UTF-8 content.
pub fn decode_response_payload(buf: &[u8]) -> Result<Response, ServeError> {
    let mut c = Cursor::new(buf);
    let id = c.u64()?;
    let n_scores = c.count(8)?;
    let mut scores = Vec::with_capacity(n_scores);
    for _ in 0..n_scores {
        scores.push(c.f64()?);
    }
    let error = c.opt_str()?;
    let endpoint = c.opt_str()?;
    let version = match c.u8()? {
        0 => None,
        1 => Some(c.u32()?),
        b => return Err(ServeError::Codec(format!("invalid option byte {b}"))),
    };
    let counters = match c.u8()? {
        0 => None,
        1 => {
            let n = c.count(40)?;
            let mut report = Vec::with_capacity(n);
            for _ in 0..n {
                let endpoint = c.str()?;
                let version = c.u32()?;
                let counters = PlanCountersSnapshot {
                    rows: c.u64()?,
                    gate_resolved: c.u64()?,
                    escalated: c.u64()?,
                    filter_dropped: c.u64()?,
                };
                report.push(EndpointCounters {
                    endpoint,
                    version,
                    counters,
                });
            }
            Some(report)
        }
        b => return Err(ServeError::Codec(format!("invalid option byte {b}"))),
    };
    let degraded = c.bool()?;
    let overloaded = c.bool()?;
    c.done()?;
    Ok(Response {
        id,
        scores,
        error,
        endpoint,
        version,
        counters,
        degraded,
        overloaded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 7,
            rows: vec![
                vec![
                    ("x".to_string(), Value::Float(1.5)),
                    ("n".to_string(), Value::Int(-3)),
                ],
                vec![
                    ("s".to_string(), Value::str("hello")),
                    ("b".to_string(), Value::Bool(true)),
                    ("z".to_string(), Value::Null),
                ],
            ],
            endpoint: Some("music".to_string()),
            version: Some(2),
            key: Some("user-9".to_string()),
            forwarded: true,
            control: None,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        let buf = encode_request_payload(&req);
        assert_eq!(decode_request_payload(&buf).unwrap(), req);
        // Control probes too.
        let probe = Request::counters_probe(1);
        let buf = encode_request_payload(&probe);
        assert_eq!(decode_request_payload(&buf).unwrap(), probe);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: 9,
            scores: vec![0.25, -1.0, f64::MAX],
            error: Some("boom".to_string()),
            endpoint: Some("music".to_string()),
            version: Some(3),
            counters: Some(vec![EndpointCounters {
                endpoint: "music".to_string(),
                version: 3,
                counters: PlanCountersSnapshot {
                    rows: 10,
                    gate_resolved: 6,
                    escalated: 4,
                    filter_dropped: 1,
                },
            }]),
            degraded: true,
            overloaded: true,
        };
        let buf = encode_response_payload(&resp);
        assert_eq!(decode_response_payload(&buf).unwrap(), resp);
        // The frame encoded in place is the frame built in two steps.
        assert_eq!(
            encode_response_frame(7, &resp).unwrap(),
            encode_frame(FrameType::BinResponse, 7, &buf).unwrap()
        );
    }

    #[test]
    fn header_round_trips_and_validates() {
        let h = encode_header(FrameType::BinRequest, 42, 100);
        let parsed = decode_header(&h).unwrap();
        assert_eq!(parsed.frame_type, FrameType::BinRequest);
        assert_eq!(parsed.request_id, 42);
        assert_eq!(parsed.payload_len, 100);

        let mut bad = h;
        bad[0] = b'{';
        assert!(decode_header(&bad)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut bad = h;
        bad[1] = 99;
        assert!(decode_header(&bad)
            .unwrap_err()
            .to_string()
            .contains("version"));
        for unassigned in [3, 4, 77] {
            let mut bad = h;
            bad[2] = unassigned;
            assert!(decode_header(&bad)
                .unwrap_err()
                .to_string()
                .contains("frame type"));
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let h = encode_header(FrameType::BinRequest, 1, 0);
        let mut bad = h;
        bad[7..11].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(decode_header(&bad)
            .unwrap_err()
            .to_string()
            .contains("exceeds"));
        // read_frame refuses the same stream as corrupt.
        let mut stream: &[u8] = &bad;
        match read_frame(&mut stream) {
            Err(FrameReadError::Corrupt(m)) => assert!(m.contains("exceeds")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_codec_errors() {
        let req = sample_request();
        let buf = encode_request_payload(&req);
        assert!(decode_request_payload(&buf[..buf.len() - 1]).is_err());
        let mut extra = buf.clone();
        extra.push(0);
        assert!(decode_request_payload(&extra)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A payload claiming u32::MAX rows in 12 bytes must be
        // rejected by the count guard, not by the allocator.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert!(decode_request_payload(&buf)
            .unwrap_err()
            .to_string()
            .contains("count"));
    }

    #[test]
    fn frame_round_trips_through_a_reader() {
        let payload = encode_request_payload(&sample_request());
        let frame = encode_frame(FrameType::BinRequest, 3, &payload).unwrap();
        let mut stream: &[u8] = &frame;
        let (hdr, got) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(hdr.frame_type, FrameType::BinRequest);
        assert_eq!(hdr.request_id, 3);
        assert_eq!(got, payload);
        // Clean EOF at the boundary.
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn layout_manifest_matches_the_codec() {
        // The manifest names exactly the structs this module encodes;
        // spot-check the field lists against the real structs so the
        // frozen copy can't drift silently within one version.
        let names: Vec<&str> = WIRE2_LAYOUT.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "Request",
                "Response",
                "EndpointCounters",
                "PlanCountersSnapshot",
                "Value",
                "ControlRequest"
            ]
        );
        let request_fields = WIRE2_LAYOUT[0].1;
        assert_eq!(request_fields.len(), 7, "Request encodes 7 fields");
        assert_eq!(WIRE2_LAYOUT[1].1.len(), 8, "Response encodes 8 fields");
        assert_eq!(
            WIRE2_LAYOUT[5].1.len(),
            1,
            "ControlRequest encodes 1 variant tag"
        );
    }

    #[test]
    fn control_variants_round_trip_and_v2_frames_still_decode() {
        let probe = Request::counters_probe(5);
        let buf = encode_request_payload(&probe);
        // The probe's bytes are the same in every version since v2:
        // id, no rows, three absent options, not forwarded, tag 0.
        let id = 5u64.to_le_bytes();
        assert_eq!(buf, [&id[..], &[0, 0, 0, 0, 0, 0, 0, 0, 1, 0]].concat());
        assert_eq!(decode_request_payload(&buf).unwrap(), probe);
        // v3's lifecycle tags 1–3, and any unknown tag, are codec
        // errors, not panics.
        for tag in [1, 2, 3, 9] {
            let mut buf = buf.clone();
            *buf.last_mut().unwrap() = tag;
            assert!(decode_request_payload(&buf)
                .unwrap_err()
                .to_string()
                .contains("control tag"));
        }
        // v2 and v3 headers (older peers) still decode under this build.
        for version in WIRE2_MIN_VERSION..=3 {
            let mut h = encode_header(FrameType::BinRequest, 1, 0);
            h[1] = version;
            assert_eq!(decode_header(&h).unwrap().payload_len, 0);
        }
        let mut h = encode_header(FrameType::BinRequest, 1, 0);
        h[1] = WIRE2_MIN_VERSION - 1;
        assert!(decode_header(&h)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }
}
