//! The request and response types every serving boundary speaks.
//!
//! Admission is typed: an in-process caller hands the runtime a
//! [`Request`] and gets a [`Response`] back
//! ([`crate::RuntimeClient::call`]), and nothing is serialized inside
//! the process. Between processes the same structs travel as compact
//! binary frames — see [`crate::wire2`] for the frame layout, the
//! payload codec and the handshake.
//!
//! # Addressing
//!
//! A request may address a **named endpoint** ([`Request::endpoint`]),
//! pin a specific **version** of it ([`Request::version`]), and carry a
//! **routing key** ([`Request::key`]) that the runtime hashes to pick
//! a shard. All three are optional: a request without them
//! ([`Request::new`]) is routed to the runtime's default endpoint.
//! Responses echo the endpoint name and version that served them
//! ([`Response::endpoint`], [`Response::version`]), `None` on error
//! paths that never resolved an endpoint.
//!
//! # Shard-forwarding and control frames
//!
//! Cross-process sharding (see [`crate::RemoteWorker`]) carries these
//! same structs between a parent router and a remote node, with two
//! additions:
//!
//! - **Shard-forwarding frames** set [`Request::forwarded`]: the
//!   parent already resolved endpoint, version, and shard, so the
//!   receiving node must serve the request on its *local* shards and
//!   never forward it onward (the forwarding-loop guard).
//! - **Control frames** set [`Request::control`] instead of carrying
//!   rows: [`ControlRequest::Counters`] asks the node for a
//!   [`Response::counters`] report — one [`EndpointCounters`] per
//!   registered endpoint, carrying that plan's
//!   [`willump::PlanCountersSnapshot`] — which is how a parent reads
//!   statistics that accumulated in another process.
//!
//! # Admission-control markers
//!
//! The runtime's statistical admission layer (see
//! [`crate::AdmissionPolicy`]) adds two response markers:
//!
//! - [`Response::degraded`]: the answer was served by the endpoint's
//!   *degraded* plan lowering (small model only, no escalation) to
//!   protect the latency SLO under load.
//! - [`Response::overloaded`]: the request was **shed** at admission
//!   — no prediction ran. Shed responses also carry
//!   [`Response::error`], so a client that only checks for errors
//!   still observes an explicit failure rather than silent empty
//!   scores.

use willump::PlanCountersSnapshot;
use willump_data::Value;

/// The reserved response id used when a request could not be decoded.
///
/// The server echoes the request's own id in every response it can,
/// but a request frame a [`crate::RemoteRuntimeNode`] cannot decode
/// has no recoverable id. Such responses carry `ERROR_RESPONSE_ID`
/// instead. To keep the two distinguishable, [`crate::RuntimeClient`]
/// assigns real request ids starting at 1 and never uses 0; custom
/// clients should do the same.
pub const ERROR_RESPONSE_ID: u64 = 0;

/// One named raw-input value in a request row.
pub type WireRow = Vec<(String, Value)>;

/// A prediction request: a batch of raw-input rows, optionally
/// addressed to a named, versioned endpoint with a routing key.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-assigned request id, echoed in the response. Must be
    /// nonzero: id 0 is [`ERROR_RESPONSE_ID`], reserved for responses
    /// to requests the server could not decode.
    pub id: u64,
    /// The batch of input rows (name/value pairs, consistent schema).
    pub rows: Vec<WireRow>,
    /// Target endpoint name; `None` routes to the runtime's default
    /// endpoint.
    pub endpoint: Option<String>,
    /// Pin the endpoint version: a version the endpoint does not serve
    /// is a route error. `None` takes the one version the endpoint
    /// serves.
    pub version: Option<u32>,
    /// Shard-routing key: requests with equal keys always land on the
    /// same shard of the target endpoint. `None` spreads requests
    /// round-robin across the endpoint's shards.
    pub key: Option<String>,
    /// Marks a shard-forwarding frame: the sending router already
    /// resolved endpoint, version, and shard, so the receiving node
    /// must serve the request on its own local shards and never
    /// forward it to a further remote (forwarding-loop guard). Plain
    /// clients leave this `false`.
    pub forwarded: bool,
    /// Control operation instead of a prediction (see
    /// [`ControlRequest`]); `None` for ordinary prediction requests.
    pub control: Option<ControlRequest>,
}

impl Request {
    /// A plain request: rows for the default endpoint, no version pin,
    /// no explicit routing key.
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
        Request {
            control: Some(ControlRequest::Counters),
            ..Request::new(id, Vec::new())
        }
    }
}

/// A non-prediction operation carried by [`Request::control`].
///
/// `Counters` is the only one. A node never refuses its own traffic:
/// draining is per slot, on the parent's side
/// ([`crate::ServingRuntime::drain_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRequest {
    /// Report every endpoint's [`PlanCountersSnapshot`] in
    /// [`Response::counters`] — the cross-process statistics feed for
    /// a parent's merged counters and the cluster prober.
    Counters,
}

/// One endpoint's plan statistics in a [`ControlRequest::Counters`]
/// response.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    pub endpoint: Option<String>,
    /// The endpoint version that served this response.
    pub version: Option<u32>,
    /// Per-endpoint plan statistics, present only on responses to
    /// [`ControlRequest::Counters`] probes.
    pub counters: Option<Vec<EndpointCounters>>,
    /// The answer was served by the endpoint's *degraded* plan
    /// lowering (small model, no escalation) because admission
    /// control judged the endpoint's latency SLO at risk. Scores are
    /// real predictions, just cheaper ones.
    pub degraded: bool,
    /// The request was **shed** by admission control before any
    /// prediction ran. Shed responses also set [`Response::error`],
    /// so a client that only checks for errors still sees an explicit
    /// failure.
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
    /// an explicit error naming the overloaded endpoint.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire2::{
        decode_request_payload, decode_response_payload, encode_request_payload,
        encode_response_payload,
    };

    fn round_trip(req: &Request) -> Request {
        decode_request_payload(&encode_request_payload(req)).unwrap()
    }

    fn round_trip_response(resp: &Response) -> Response {
        decode_response_payload(&encode_response_payload(resp)).unwrap()
    }

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
        assert_eq!(round_trip(&req), req);
    }

    #[test]
    fn addressed_request_round_trip() {
        let req = Request {
            endpoint: Some("music".to_string()),
            version: Some(2),
            key: Some("user-17".to_string()),
            ..sample()
        };
        assert_eq!(round_trip(&req), req);
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
        assert_eq!(round_trip_response(&resp), resp);
    }

    #[test]
    fn shed_response_round_trip() {
        let resp = Response::shed(11, "music", 2);
        assert!(resp.overloaded);
        assert!(resp.scores.is_empty());
        let err = resp.error.as_deref().expect("shed carries an error");
        assert!(err.contains("music"), "error names the endpoint: {err}");
        assert_eq!(round_trip_response(&resp), resp);
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
        let back = round_trip(&req);
        assert!(back.forwarded);
        assert_eq!(back, req);
        // A plain request is neither forwarded nor a control frame.
        let back = round_trip(&sample());
        assert!(!back.forwarded);
        assert_eq!(back.control, None);
    }

    #[test]
    fn counters_control_frame_round_trip() {
        let probe = Request::counters_probe(9);
        assert_eq!(probe.control, Some(ControlRequest::Counters));
        assert!(probe.rows.is_empty());
        assert_eq!(round_trip(&probe), probe);

        let resp = Response {
            error: None,
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
        let back = round_trip_response(&resp);
        assert_eq!(back, resp);
        let report = back.counters.unwrap();
        assert_eq!(report[0].counters.escalated, 4);
        assert!((report[0].counters.escalation_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(decode_request_payload(b"not a frame").is_err());
        assert!(decode_response_payload(&[0xB2]).is_err());
    }

    #[test]
    fn error_response_id_is_reserved() {
        // The constant is part of the wire contract: clients start
        // real ids at 1, so id 0 unambiguously marks an undecodable
        // request's response.
        assert_eq!(ERROR_RESPONSE_ID, 0);
        let resp = Response::failure(ERROR_RESPONSE_ID, "bad frame");
        assert_eq!(round_trip_response(&resp).id, ERROR_RESPONSE_ID);
    }

    #[test]
    fn float_values_survive() {
        let req = Request::new(1, vec![vec![("x".to_string(), Value::Float(1.5))]]);
        assert_eq!(round_trip(&req).rows[0][0].1, Value::Float(1.5));
    }
}
