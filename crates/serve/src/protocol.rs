//! The request and response types, and their JSON wire form.
//!
//! Admission is typed: an in-process caller hands the runtime a
//! [`Request`] and gets a [`Response`] back
//! ([`crate::RuntimeClient::call`]), and nothing is serialized inside
//! the process. Bytes are encoded only where they leave it, and
//! between processes the structs travel only as compact binary frames
//! — see [`crate::wire2`] for the frame layout and the handshake (the
//! `micro` bench's `wirecodec` section records the per-frame cost of
//! binary against JSON). This JSON form is one in-process lane in
//! front of admission, for bytes that arrive as JSON:
//! [`crate::RuntimeClient::call_raw`] and the
//! [`crate::ClipperClient`] shim. Paper Table 6 attributes
//! Clipper's residual overhead to "large variable overheads
//! (serialization time, etc.) which Willump cannot reduce"; here a
//! request pays that cost only on a lane that really carries bytes.
//!
//! # Addressing and back-compat
//!
//! Since the multi-endpoint [`crate::ServingRuntime`], a request may
//! address a **named endpoint** ([`Request::endpoint`]), pin a
//! specific **version** of it ([`Request::version`]), and carry a
//! **routing key** ([`Request::key`]) that the runtime hashes to pick
//! a shard. All three fields are optional and `#[serde(default)]`:
//! a *legacy frame* — the pre-runtime wire form carrying only `id`
//! and `rows` — still decodes, with every routing field `None`, and
//! the runtime routes it to the default endpoint. Responses echo the
//! endpoint name and version that served them ([`Response::endpoint`],
//! [`Response::version`]), `None` on error paths that never resolved
//! an endpoint.
//!
//! # Shard-forwarding and control frames
//!
//! Cross-process sharding (see [`crate::RemoteWorker`]) carries these
//! same structs, as wire2 frames, between a parent router and a remote
//! node, with two additions — both `#[serde(default)]` in the JSON
//! form, so every pre-existing JSON frame still decodes:
//!
//! - **Shard-forwarding frames** set [`Request::forwarded`]: the
//!   parent already resolved endpoint, version, and shard, so the
//!   receiving node must serve the request on its *local* shards and
//!   never forward it onward (the forwarding-loop guard).
//! - **Control frames** set [`Request::control`] instead of carrying
//!   rows: [`ControlRequest::Counters`] asks the node for a
//!   [`Response::counters`] report — one [`EndpointCounters`] per
//!   registered endpoint, carrying that plan's
//!   [`willump::PlanCountersSnapshot`] — which is how a parent's
//!   escalation-aware scheduler reads statistics that accumulated in
//!   another process.
//!
//! # Admission-control markers
//!
//! The runtime's statistical admission layer (see
//! [`crate::AdmissionPolicy`]) adds two response markers, again both
//! `#[serde(default)]` so legacy frames keep decoding:
//!
//! - [`Response::degraded`]: the answer was served by the endpoint's
//!   *degraded* plan lowering (small model only, no escalation) to
//!   protect the latency SLO under load.
//! - [`Response::overloaded`]: the request was **shed** at admission
//!   — no prediction ran. Shed responses also carry
//!   [`Response::error`], so legacy clients that predate the marker
//!   still observe an explicit failure rather than silent empty
//!   scores.

use serde::{Deserialize, Serialize};
use willump::PlanCountersSnapshot;
use willump_data::Value;

use crate::ServeError;

/// The reserved response id used when a request could not be decoded.
///
/// The server echoes the request's own id in every response it can,
/// but a request that fails [`decode_request`] has no recoverable id.
/// Such responses carry `ERROR_RESPONSE_ID` instead. To keep the two
/// distinguishable, [`crate::RuntimeClient`] (and the legacy
/// [`crate::ClipperClient`] shim) assign real request ids starting at
/// 1 and never use 0; custom clients should do the same.
pub const ERROR_RESPONSE_ID: u64 = 0;

/// One named raw-input value in a request row.
pub type WireRow = Vec<(String, Value)>;

/// A prediction request: a batch of raw-input rows, optionally
/// addressed to a named, versioned endpoint with a routing key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-assigned request id, echoed in the response. Must be
    /// nonzero: id 0 is [`ERROR_RESPONSE_ID`], reserved for responses
    /// to requests the server could not decode.
    pub id: u64,
    /// The batch of input rows (name/value pairs, consistent schema).
    pub rows: Vec<WireRow>,
    /// Target endpoint name; `None` (or a legacy frame without the
    /// field) routes to the runtime's default endpoint.
    #[serde(default)]
    pub endpoint: Option<String>,
    /// Pin a specific endpoint version; `None` lets the endpoint's
    /// version router (weighted canary split or bandit) choose.
    #[serde(default)]
    pub version: Option<u32>,
    /// Shard-routing key: requests with equal keys always land on the
    /// same shard of the target endpoint. `None` spreads requests
    /// round-robin across the endpoint's shards.
    #[serde(default)]
    pub key: Option<String>,
    /// Marks a shard-forwarding frame: the sending router already
    /// resolved endpoint, version, and shard, so the receiving node
    /// must serve the request on its own local shards and never
    /// forward it to a further remote (forwarding-loop guard). Plain
    /// clients leave this `false`.
    #[serde(default)]
    pub forwarded: bool,
    /// Control operation instead of a prediction (see
    /// [`ControlRequest`]); `None` for ordinary prediction requests.
    #[serde(default)]
    pub control: Option<ControlRequest>,
}

impl Request {
    /// A plain request: rows for the default endpoint, no version pin,
    /// no explicit routing key (the legacy single-predictor form).
    #[must_use]
    pub fn new(id: u64, rows: Vec<WireRow>) -> Request {
        Request {
            id,
            rows,
            endpoint: None,
            version: None,
            key: None,
            forwarded: false,
            control: None,
        }
    }

    /// A [`ControlRequest::Counters`] probe: asks the serving runtime
    /// for every endpoint's [`EndpointCounters`] instead of a
    /// prediction.
    #[must_use]
    pub fn counters_probe(id: u64) -> Request {
        Request::control_frame(id, ControlRequest::Counters)
    }

    /// A control frame carrying `op` instead of prediction rows.
    #[must_use]
    pub fn control_frame(id: u64, op: ControlRequest) -> Request {
        Request {
            control: Some(op),
            ..Request::new(id, Vec::new())
        }
    }
}

/// A non-prediction operation carried by [`Request::control`].
///
/// `Counters` is the original (v1) control op; the cluster lifecycle
/// ops (`Join`/`Drain`/`Leave`) arrived with the control plane and are
/// plain enum variants, so legacy JSON peers that have never seen them
/// reject such frames with a decode error — the sender falls back the
/// same way it does for any undecodable frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Report every endpoint's [`PlanCountersSnapshot`] in
    /// [`Response::counters`] — the cross-process statistics feed for
    /// the escalation-aware scheduler.
    Counters,
    /// (Re-)enter service: clear the node's draining flag so new
    /// prediction requests are admitted again.
    Join,
    /// Stop admitting new prediction requests (in-flight work
    /// finishes; control frames still answer) — the first half of a
    /// graceful detach.
    Drain,
    /// Announce an imminent detach. Semantically `Drain` plus the
    /// intent not to return; the answering node treats it as `Drain`
    /// today, and the distinction lets coordinators tell a temporary
    /// drain from a permanent departure.
    Leave,
}

/// One endpoint's plan statistics in a [`ControlRequest::Counters`]
/// response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointCounters {
    /// Endpoint name.
    pub endpoint: String,
    /// Endpoint version.
    pub version: u32,
    /// Point-in-time copy of the endpoint plan's counters (all zero
    /// for endpoints without attached [`willump::PlanCounters`]).
    pub counters: PlanCountersSnapshot,
}

/// A prediction response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request id this answers, or [`ERROR_RESPONSE_ID`] when the
    /// request was undecodable and its id is unknown.
    pub id: u64,
    /// One score per request row.
    pub scores: Vec<f64>,
    /// Error message when prediction failed.
    pub error: Option<String>,
    /// The endpoint that served this response (`None` when the
    /// request never resolved to one, e.g. decode/routing errors).
    #[serde(default)]
    pub endpoint: Option<String>,
    /// The endpoint version that served this response.
    #[serde(default)]
    pub version: Option<u32>,
    /// Per-endpoint plan statistics, present only on responses to
    /// [`ControlRequest::Counters`] probes.
    #[serde(default)]
    pub counters: Option<Vec<EndpointCounters>>,
    /// The answer was served by the endpoint's *degraded* plan
    /// lowering (small model, no escalation) because admission
    /// control judged the endpoint's latency SLO at risk. Scores are
    /// real predictions, just cheaper ones.
    #[serde(default)]
    pub degraded: bool,
    /// The request was **shed** by admission control before any
    /// prediction ran. Shed responses also set [`Response::error`],
    /// so clients predating this marker still see an explicit
    /// failure.
    #[serde(default)]
    pub overloaded: bool,
}

impl Response {
    /// An error response with no serving endpoint attached.
    #[must_use]
    pub fn failure(id: u64, message: impl Into<String>) -> Response {
        Response {
            id,
            scores: Vec::new(),
            error: Some(message.into()),
            endpoint: None,
            version: None,
            counters: None,
            degraded: false,
            overloaded: false,
        }
    }

    /// An admission-shed response: [`Response::overloaded`] set, plus
    /// an explicit error naming the overloaded endpoint for legacy
    /// clients.
    #[must_use]
    pub fn shed(id: u64, endpoint: &str, version: u32) -> Response {
        Response {
            endpoint: Some(endpoint.to_string()),
            version: Some(version),
            overloaded: true,
            ..Response::failure(
                id,
                format!("endpoint `{endpoint}` overloaded: request shed by admission control"),
            )
        }
    }
}

/// Serialize a request to its JSON wire form.
///
/// # Errors
/// Returns [`ServeError::Codec`] on serializer failure.
pub fn encode_request(req: &Request) -> Result<String, ServeError> {
    serde_json::to_string(req).map_err(|e| ServeError::Codec(e.to_string()))
}

/// Parse a request from its JSON wire form. Legacy frames without the
/// `endpoint`/`version`/`key` fields decode with those fields `None`.
///
/// # Errors
/// Returns [`ServeError::Codec`] on malformed input.
pub fn decode_request(wire: &str) -> Result<Request, ServeError> {
    serde_json::from_str(wire).map_err(|e| ServeError::Codec(e.to_string()))
}

/// Serialize a response to its JSON wire form.
///
/// # Errors
/// Returns [`ServeError::Codec`] on serializer failure.
pub fn encode_response(resp: &Response) -> Result<String, ServeError> {
    serde_json::to_string(resp).map_err(|e| ServeError::Codec(e.to_string()))
}

/// Parse a response from its JSON wire form. Legacy frames without
/// the `endpoint`/`version` fields decode with those fields `None`.
///
/// # Errors
/// Returns [`ServeError::Codec`] on malformed input.
pub fn decode_response(wire: &str) -> Result<Response, ServeError> {
    serde_json::from_str(wire).map_err(|e| ServeError::Codec(e.to_string()))
}

/// Whether a raw response wire is an admission-shed
/// ([`Response::overloaded`]) marker.
///
/// Forwarding paths relay response wires without decoding them; this
/// check lets them exclude shed responses from per-shard transport
/// latency accounting (a shed round-trip measures no prediction
/// work). The substring scan is a fast pre-filter — only frames that
/// could plausibly carry the marker pay for a real decode, so
/// error messages *containing* the marker text cannot spoof it.
#[must_use]
pub fn is_overloaded_wire(wire: &str) -> bool {
    wire.contains("\"overloaded\":true") && decode_response(wire).is_ok_and(|r| r.overloaded)
}

/// Build a guaranteed-well-formed error response wire string.
///
/// This is the server's last-resort path when [`encode_response`]
/// itself fails (e.g. a remote peer relayed non-finite scores, which
/// JSON cannot represent; the runtime's own workers never answer
/// with one). The error text is routed through the real
/// encoder so arbitrary message content — quotes, backslashes,
/// control characters — stays valid JSON; if even that fails the
/// string is hand-escaped via [`escape_json_string`].
pub fn error_wire(id: u64, message: &str) -> String {
    let resp = Response::failure(id, message);
    encode_response(&resp).unwrap_or_else(|_| {
        format!(
            "{{\"id\":{id},\"scores\":[],\"error\":\"{}\"}}",
            escape_json_string(message)
        )
    })
}

/// Escape a string for embedding inside a JSON string literal
/// (backslash, quote, and control characters per RFC 8259 §7).
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Request {
        Request::new(
            7,
            vec![
                vec![
                    ("title".to_string(), Value::from("hello")),
                    ("n".to_string(), Value::Int(3)),
                ],
                vec![
                    ("title".to_string(), Value::from("world")),
                    ("n".to_string(), Value::Int(4)),
                ],
            ],
        )
    }

    #[test]
    fn request_round_trip() {
        let req = sample();
        let wire = encode_request(&req).unwrap();
        let back = decode_request(&wire).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn addressed_request_round_trip() {
        let req = Request {
            endpoint: Some("music".to_string()),
            version: Some(2),
            key: Some("user-17".to_string()),
            ..sample()
        };
        let wire = encode_request(&req).unwrap();
        assert_eq!(decode_request(&wire).unwrap(), req);
    }

    #[test]
    fn legacy_request_frame_decodes_with_default_routing() {
        // The pre-runtime wire form: no endpoint/version/key fields at
        // all. It must decode, with every routing field None.
        let wire = r#"{"id":3,"rows":[[["x",{"Float":1.5}]]]}"#;
        let req = decode_request(wire).expect("legacy frame decodes");
        assert_eq!(req.id, 3);
        assert_eq!(req.rows.len(), 1);
        assert_eq!(req.endpoint, None);
        assert_eq!(req.version, None);
        assert_eq!(req.key, None);
    }

    #[test]
    fn legacy_response_frame_decodes_without_endpoint_echo() {
        let wire = r#"{"id":4,"scores":[0.5],"error":null}"#;
        let resp = decode_response(wire).expect("legacy frame decodes");
        assert_eq!(resp.id, 4);
        assert_eq!(resp.scores, vec![0.5]);
        assert_eq!(resp.endpoint, None);
        assert_eq!(resp.version, None);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response {
            id: 7,
            scores: vec![0.25, 0.75],
            error: None,
            endpoint: Some("music".to_string()),
            version: Some(1),
            counters: None,
            degraded: false,
            overloaded: false,
        };
        let wire = encode_response(&resp).unwrap();
        assert_eq!(decode_response(&wire).unwrap(), resp);
    }

    #[test]
    fn shed_response_round_trip() {
        let resp = Response::shed(11, "music", 2);
        assert!(resp.overloaded);
        assert!(resp.scores.is_empty());
        let err = resp.error.as_deref().expect("shed carries an error");
        assert!(err.contains("music"), "error names the endpoint: {err}");
        let wire = encode_response(&resp).unwrap();
        assert!(is_overloaded_wire(&wire));
        assert_eq!(decode_response(&wire).unwrap(), resp);
    }

    #[test]
    fn legacy_response_frames_are_not_overloaded() {
        // Frames predating the admission markers decode with both
        // markers off.
        let wire = r#"{"id":4,"scores":[0.5],"error":null}"#;
        let resp = decode_response(wire).unwrap();
        assert!(!resp.degraded);
        assert!(!resp.overloaded);
        assert!(!is_overloaded_wire(wire));
    }

    #[test]
    fn overloaded_marker_cannot_be_spoofed_from_error_text() {
        // A hostile error *message* containing the marker text must
        // not read as a shed response: the pre-filter is confirmed by
        // a real decode of the frame.
        let wire = error_wire(3, "looks shed: \"overloaded\":true");
        let resp = decode_response(&wire).expect("hostile wire still parses");
        assert!(!resp.overloaded);
        assert!(!is_overloaded_wire(&wire));
    }

    #[test]
    fn forwarding_frame_round_trip() {
        let req = Request {
            endpoint: Some("music".to_string()),
            version: Some(2),
            key: Some("user-17".to_string()),
            forwarded: true,
            ..sample()
        };
        let wire = encode_request(&req).unwrap();
        let back = decode_request(&wire).unwrap();
        assert!(back.forwarded);
        assert_eq!(back, req);
        // Legacy frames decode with the forwarding flag off.
        let legacy = r#"{"id":3,"rows":[[["x",{"Float":1.5}]]]}"#;
        let back = decode_request(legacy).unwrap();
        assert!(!back.forwarded);
        assert_eq!(back.control, None);
    }

    #[test]
    fn counters_control_frame_round_trip() {
        let probe = Request::counters_probe(9);
        assert_eq!(probe.control, Some(ControlRequest::Counters));
        assert!(probe.rows.is_empty());
        let back = decode_request(&encode_request(&probe).unwrap()).unwrap();
        assert_eq!(back, probe);

        let resp = Response {
            counters: Some(vec![EndpointCounters {
                endpoint: "music".to_string(),
                version: 2,
                counters: willump::PlanCountersSnapshot {
                    rows: 10,
                    gate_resolved: 6,
                    escalated: 4,
                    filter_dropped: 0,
                },
            }]),
            ..Response::failure(9, "unused")
        };
        let resp = Response {
            error: None,
            ..resp
        };
        let back = decode_response(&encode_response(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        let report = back.counters.unwrap();
        assert_eq!(report[0].counters.escalated, 4);
        assert!((report[0].counters.escalation_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(decode_request("not json").is_err());
        assert!(decode_response("{\"id\":}").is_err());
    }

    #[test]
    fn error_wire_is_valid_json_for_hostile_messages() {
        let hostile = "boom \"quoted\" and \\backslash\\ and\nnewline \t tab \u{1} ctrl";
        let wire = error_wire(9, hostile);
        let resp = decode_response(&wire).expect("fallback wire must parse");
        assert_eq!(resp.id, 9);
        assert!(resp.scores.is_empty());
        assert_eq!(resp.error.as_deref(), Some(hostile));
        assert_eq!(resp.endpoint, None);
    }

    #[test]
    fn escape_json_string_round_trips_through_decoder() {
        let hostile = "a\"b\\c\nd\re\tf\u{0}g\u{1f}h";
        let wire = format!("\"{}\"", escape_json_string(hostile));
        let back: String = serde_json::from_str(&wire).expect("escaped literal parses");
        assert_eq!(back, hostile);
    }

    #[test]
    fn error_response_id_is_reserved() {
        // The constant is part of the wire contract: clients start
        // real ids at 1, so id 0 unambiguously marks an undecodable
        // request's response.
        assert_eq!(ERROR_RESPONSE_ID, 0);
        let wire = error_wire(ERROR_RESPONSE_ID, "bad frame");
        assert_eq!(decode_response(&wire).unwrap().id, ERROR_RESPONSE_ID);
    }

    #[test]
    fn float_values_survive() {
        let req = Request::new(1, vec![vec![("x".to_string(), Value::Float(1.5))]]);
        let back = decode_request(&encode_request(&req).unwrap()).unwrap();
        assert_eq!(back.rows[0][0].1, Value::Float(1.5));
    }
}
