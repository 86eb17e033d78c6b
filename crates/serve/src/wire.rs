//! Versioned length-prefixed JSON wire protocol of the network
//! front-end.
//!
//! Every frame on the wire is:
//!
//! ```text
//! ┌──────────────────────┬─────────────────────────────────┐
//! │ length: u32, big-    │ payload: `length` bytes of JSON │
//! │ endian, payload only │ (one request or response object)│
//! └──────────────────────┴─────────────────────────────────┘
//! ```
//!
//! Payloads are JSON objects stamped with [`WIRE_VERSION`]:
//!
//! - **request** — `{v, id, tenant, artifact, request}` where `request`
//!   is the canonical [`GenRequest`] encoding (which carries the
//!   deadline as `deadline_ms`, so remote callers get real time
//!   budgets; the server resolves it to an absolute deadline at
//!   admission). `id` is a caller-chosen correlation id echoed on the
//!   response, enabling pipelined submission.
//! - **response** — `{v, id, status, ...}` with `status` one of `"ok"`
//!   (carries the full [`Generated`] design), `"err"` (carries a
//!   [`ServeError`] encoded by the lossless taxonomy below), or
//!   `"protocol"` (carries a [`WireError`]: the server could not parse
//!   the frame it was sent and will close the connection).
//!
//! # Lossless error taxonomy
//!
//! [`ServeError`] — including every nested [`syncircuit_core::Error`]
//! variant down to [`ConfigError`] and [`PersistError`] payloads —
//! round-trips the wire *as typed values*, never as display strings:
//! `decode(encode(e)) == e` for every constructible error. Floating
//! error payloads travel as IEEE-754 bit patterns, so even a NaN
//! payload survives exactly. `tests` below enumerate the whole
//! taxonomy.
//!
//! # Robustness
//!
//! [`read_frame`] and the decoders are total: garbage bytes, truncated
//! frames, oversized length prefixes and version mismatches all come
//! back as typed [`WireError`]s (never a panic), and a clean EOF at a
//! frame boundary is `Ok(None)` — the peer hung up, which is not an
//! error. `tests/wire_fuzz.rs` blasts the whole surface.

use crate::error::ServeError;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::io::{Read, Write};
use syncircuit_core::{ConfigError, Error as CoreError, GenRequest, Generated, PersistError,
    RefineError, RequestError};
use syncircuit_graph::NodeId;

/// Version stamp carried by every frame; a frame stamped with any other
/// version is rejected with [`WireError::BadVersion`] before its body
/// is interpreted.
pub const WIRE_VERSION: u32 = 1;

/// Default upper bound on one frame's payload. Large enough for any
/// realistic generated design, small enough that a hostile or corrupt
/// length prefix cannot make the server allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// A typed wire-protocol failure. `Io`/`Truncated` describe the local
/// socket; the rest describe a frame that arrived but could not be
/// accepted. All variants round-trip the wire themselves (the server
/// answers an unparseable frame with a `"protocol"` response carrying
/// the `WireError` before closing the connection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Reading or writing the socket failed mid-frame.
    Io(String),
    /// The connection closed in the middle of a frame (a clean close at
    /// a frame boundary is not an error).
    Truncated {
        /// Bytes the frame header promised.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// The length prefix exceeds the configured frame bound.
    Oversized {
        /// Length the prefix announced.
        len: usize,
        /// The receiver's configured maximum.
        max: usize,
    },
    /// The payload is not valid JSON.
    BadJson(String),
    /// The payload's `v` stamp is not [`WIRE_VERSION`].
    BadVersion {
        /// Version found in the frame (`0` when absent or non-numeric).
        found: u64,
    },
    /// The payload is valid JSON but not a valid frame object (missing
    /// or ill-typed fields; the message names the offender).
    BadFrame(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "wire I/O failed: {msg}"),
            WireError::Truncated { expected, got } => write!(
                f,
                "connection closed mid-frame ({got} of {expected} payload bytes)"
            ),
            WireError::Oversized { len, max } => write!(
                f,
                "frame length {len} exceeds the {max}-byte frame bound"
            ),
            WireError::BadJson(msg) => write!(f, "frame payload is not valid JSON: {msg}"),
            WireError::BadVersion { found } => write!(
                f,
                "unsupported wire version {found} (this build speaks {WIRE_VERSION})"
            ),
            WireError::BadFrame(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// The prefix and payload go out in a single `write_all`. Sent as two
/// writes, the payload would sit behind the prefix in Nagle's buffer
/// until the peer's delayed ACK, costing a whole ACK timeout per frame.
///
/// # Errors
///
/// [`WireError::Oversized`] when the payload exceeds `max` (nothing is
/// written), or [`WireError::Io`] when the socket fails.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> Result<(), WireError> {
    if payload.len() > max {
        return Err(WireError::Oversized {
            len: payload.len(),
            max,
        });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean close (EOF
/// before any prefix byte); EOF anywhere later is
/// [`WireError::Truncated`]. A prefix past `max` fails typed *without
/// reading the body*, so a hostile prefix cannot force an allocation.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    expected: prefix.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    expected: len,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// One request as it crosses the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFrame {
    /// Caller-chosen correlation id, echoed verbatim on the response.
    pub id: u64,
    /// Tenant the submission is accounted to (fair-share lane key).
    pub tenant: String,
    /// Path of the model artifact to serve from.
    pub artifact: String,
    /// The generation request (deadline included, as `deadline_ms`).
    pub request: GenRequest,
}

/// One response as it crosses the wire.
#[derive(Clone, Debug)]
pub struct ResponseFrame {
    /// Correlation id of the request this answers (`0` for protocol
    /// errors raised before an id could be parsed).
    pub id: u64,
    /// The outcome: a design, a typed serving error, or a typed
    /// protocol error (after which the server closes the connection).
    pub body: ResponseBody,
}

/// Body of a [`ResponseFrame`].
#[derive(Clone, Debug)]
pub enum ResponseBody {
    /// The request was served; carries the full generated design.
    Ok(Box<Generated>),
    /// The request was admitted (or rejected) and failed with a typed
    /// serving error.
    Err(ServeError),
    /// The frame carrying the request could not be parsed; the server
    /// answers with the typed wire error, then closes the connection.
    Protocol(WireError),
}

fn env(id: u64, status: &str, extra: Vec<(String, Value)>) -> Value {
    let mut fields = vec![
        ("v".to_string(), Value::UInt(u64::from(WIRE_VERSION))),
        ("id".to_string(), Value::UInt(id)),
        ("status".to_string(), Value::Str(status.to_string())),
    ];
    fields.extend(extra);
    Value::Object(fields)
}

fn render(value: &Value) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("wire values contain no unserializable payloads")
        .into_bytes()
}

/// Checks the envelope's `v` stamp.
fn check_version(value: &Value) -> Result<(), WireError> {
    let found = value.get("v").and_then(Value::as_u64).unwrap_or(0);
    if found == u64::from(WIRE_VERSION) {
        Ok(())
    } else {
        Err(WireError::BadVersion { found })
    }
}

fn parse_payload(payload: &[u8]) -> Result<Value, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::BadJson(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str::<Value>(text).map_err(|e| WireError::BadJson(e.to_string()))
}

fn str_field(value: &Value, name: &str) -> Result<String, WireError> {
    match value.get(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(WireError::BadFrame(format!("field `{name}` must be a string"))),
        None => Err(WireError::BadFrame(format!("missing field `{name}`"))),
    }
}

fn u64_field(value: &Value, name: &str) -> Result<u64, WireError> {
    value
        .get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| WireError::BadFrame(format!("missing or non-integer field `{name}`")))
}

/// [`u64_field`] narrowed into the in-memory integer type. A raw `as`
/// cast here would silently truncate whenever the peer's word is wider
/// than ours (a hostile or corrupt frame carrying 2⁴⁰ where a count
/// belongs, or any value above 2³² on a 32-bit target), turning a
/// protocol violation into a plausible-looking small number.
/// Out-of-range values surface as a typed [`WireError::BadFrame`]
/// naming the field instead.
fn narrowed_field<T: TryFrom<u64>>(value: &Value, name: &str) -> Result<T, WireError> {
    let raw = u64_field(value, name)?;
    T::try_from(raw)
        .map_err(|_| WireError::BadFrame(format!("field `{name}` out of range: {raw}")))
}

/// Encodes a request frame to payload bytes.
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    render(&env(
        frame.id,
        "request",
        vec![
            ("tenant".to_string(), Value::Str(frame.tenant.clone())),
            ("artifact".to_string(), Value::Str(frame.artifact.clone())),
            ("request".to_string(), frame.request.serialize()),
        ],
    ))
}

/// Decodes a request frame from payload bytes.
///
/// # Errors
///
/// Typed [`WireError`]s for non-JSON payloads, version mismatches and
/// envelope-shape violations; never panics.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, WireError> {
    let value = parse_payload(payload)?;
    check_version(&value)?;
    if str_field(&value, "status")? != "request" {
        return Err(WireError::BadFrame("expected a request frame".to_string()));
    }
    let request = value
        .get("request")
        .ok_or_else(|| WireError::BadFrame("missing field `request`".to_string()))?;
    let request = GenRequest::deserialize(request)
        .map_err(|DeError(msg)| WireError::BadFrame(format!("bad request body: {msg}")))?;
    Ok(RequestFrame {
        id: u64_field(&value, "id")?,
        tenant: str_field(&value, "tenant")?,
        artifact: str_field(&value, "artifact")?,
        request,
    })
}

/// Encodes a response frame to payload bytes.
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let value = match &frame.body {
        ResponseBody::Ok(design) => env(
            frame.id,
            "ok",
            vec![("design".to_string(), design.serialize())],
        ),
        ResponseBody::Err(e) => env(
            frame.id,
            "err",
            vec![("error".to_string(), encode_serve_error(e))],
        ),
        ResponseBody::Protocol(e) => env(
            frame.id,
            "protocol",
            vec![("error".to_string(), encode_wire_error(e))],
        ),
    };
    render(&value)
}

/// Decodes a response frame from payload bytes.
///
/// # Errors
///
/// Typed [`WireError`]s; never panics.
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let value = parse_payload(payload)?;
    check_version(&value)?;
    let id = u64_field(&value, "id")?;
    let error_field = || {
        value
            .get("error")
            .ok_or_else(|| WireError::BadFrame("missing field `error`".to_string()))
    };
    let body = match str_field(&value, "status")?.as_str() {
        "ok" => {
            let design = value
                .get("design")
                .ok_or_else(|| WireError::BadFrame("missing field `design`".to_string()))?;
            let design = Generated::deserialize(design)
                .map_err(|DeError(msg)| WireError::BadFrame(format!("bad design body: {msg}")))?;
            ResponseBody::Ok(Box::new(design))
        }
        "err" => ResponseBody::Err(decode_serve_error(error_field()?)?),
        "protocol" => ResponseBody::Protocol(decode_wire_error(error_field()?)?),
        other => {
            return Err(WireError::BadFrame(format!(
                "unknown response status `{other}`"
            )))
        }
    };
    Ok(ResponseFrame { id, body })
}

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

fn tag(kind: &str, extra: Vec<(String, Value)>) -> Value {
    let mut fields = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    fields.extend(extra);
    Value::Object(fields)
}

fn kind_of(value: &Value) -> Result<String, WireError> {
    str_field(value, "kind")
}

/// Encodes a [`ServeError`] as a typed tree (see the module docs).
pub fn encode_serve_error(e: &ServeError) -> Value {
    match e {
        ServeError::Overloaded { capacity } => tag(
            "overloaded",
            vec![("capacity".to_string(), capacity.serialize())],
        ),
        ServeError::ShuttingDown => tag("shutting_down", vec![]),
        ServeError::DeadlineExceeded => tag("deadline_exceeded", vec![]),
        ServeError::Quarantined { path } => {
            tag("quarantined", vec![("path".to_string(), path.serialize())])
        }
        ServeError::WorkerPanicked { message } => tag(
            "worker_panicked",
            vec![("message".to_string(), message.serialize())],
        ),
        ServeError::Model(inner) => tag(
            "model",
            vec![("error".to_string(), encode_core_error(inner))],
        ),
    }
}

/// Decodes a [`ServeError`] from its typed tree.
///
/// # Errors
///
/// [`WireError::BadFrame`] naming the offending field; never panics.
pub fn decode_serve_error(value: &Value) -> Result<ServeError, WireError> {
    Ok(match kind_of(value)?.as_str() {
        "overloaded" => ServeError::Overloaded {
            capacity: narrowed_field(value, "capacity")?,
        },
        "shutting_down" => ServeError::ShuttingDown,
        "deadline_exceeded" => ServeError::DeadlineExceeded,
        "quarantined" => ServeError::Quarantined {
            path: str_field(value, "path")?,
        },
        "worker_panicked" => ServeError::WorkerPanicked {
            message: str_field(value, "message")?,
        },
        "model" => {
            let inner = value
                .get("error")
                .ok_or_else(|| WireError::BadFrame("missing field `error`".to_string()))?;
            ServeError::Model(decode_core_error(inner)?)
        }
        other => {
            return Err(WireError::BadFrame(format!(
                "unknown serve error kind `{other}`"
            )))
        }
    })
}

fn encode_core_error(e: &CoreError) -> Value {
    match e {
        CoreError::EmptyCorpus => tag("empty_corpus", vec![]),
        CoreError::EmptyTrainingSet => tag("empty_training_set", vec![]),
        CoreError::Config(c) => tag("config", vec![("error".to_string(), encode_config_error(c))]),
        CoreError::Request(RequestError::EmptyAttrs) => tag("empty_attrs", vec![]),
        CoreError::Refine(RefineError::NoValidParent { node }) => tag(
            "no_valid_parent",
            vec![("node".to_string(), node.index().serialize())],
        ),
        CoreError::Persist(p) => {
            tag("persist", vec![("error".to_string(), encode_persist_error(p))])
        }
    }
}

fn decode_core_error(value: &Value) -> Result<CoreError, WireError> {
    let inner = |value: &Value| {
        value
            .get("error")
            .cloned()
            .ok_or_else(|| WireError::BadFrame("missing field `error`".to_string()))
    };
    Ok(match kind_of(value)?.as_str() {
        "empty_corpus" => CoreError::EmptyCorpus,
        "empty_training_set" => CoreError::EmptyTrainingSet,
        "config" => CoreError::Config(decode_config_error(&inner(value)?)?),
        "empty_attrs" => CoreError::Request(RequestError::EmptyAttrs),
        "no_valid_parent" => CoreError::Refine(RefineError::NoValidParent {
            node: NodeId::new(narrowed_field(value, "node")?),
        }),
        "persist" => CoreError::Persist(decode_persist_error(&inner(value)?)?),
        other => {
            return Err(WireError::BadFrame(format!(
                "unknown model error kind `{other}`"
            )))
        }
    })
}

/// `f32` payloads travel as bit patterns so NaN/∞ survive exactly.
fn f32_bits(x: f32) -> Value {
    Value::UInt(u64::from(x.to_bits()))
}

fn f64_bits(x: f64) -> Value {
    Value::UInt(x.to_bits())
}

fn f32_field(value: &Value, name: &str) -> Result<f32, WireError> {
    let bits = u64_field(value, name)?;
    u32::try_from(bits)
        .map(f32::from_bits)
        .map_err(|_| WireError::BadFrame(format!("field `{name}` out of f32-bit range")))
}

fn f64_field(value: &Value, name: &str) -> Result<f64, WireError> {
    Ok(f64::from_bits(u64_field(value, name)?))
}

fn encode_config_error(e: &ConfigError) -> Value {
    match e {
        ConfigError::ZeroDiffusionSteps => tag("zero_diffusion_steps", vec![]),
        ConfigError::ZeroDenoiserCapacity { hidden, layers } => tag(
            "zero_denoiser_capacity",
            vec![
                ("hidden".to_string(), hidden.serialize()),
                ("layers".to_string(), layers.serialize()),
            ],
        ),
        ConfigError::BadLearningRate(x) => {
            tag("bad_learning_rate", vec![("bits".to_string(), f32_bits(*x))])
        }
        ConfigError::BadNegativeRatio(x) => {
            tag("bad_negative_ratio", vec![("bits".to_string(), f64_bits(*x))])
        }
        ConfigError::BadGradClip(x) => tag("bad_grad_clip", vec![("bits".to_string(), f32_bits(*x))]),
        ConfigError::ZeroSparseCandidates => tag("zero_sparse_candidates", vec![]),
        ConfigError::TooManySparseCandidates(n) => tag(
            "too_many_sparse_candidates",
            vec![("candidates".to_string(), n.serialize())],
        ),
        ConfigError::ZeroDiscriminatorEpochs => tag("zero_discriminator_epochs", vec![]),
        ConfigError::TooManyConeCacheShards(n) => tag(
            "too_many_cone_cache_shards",
            vec![("shards".to_string(), n.serialize())],
        ),
        ConfigError::ZeroSimulations => tag("zero_simulations", vec![]),
        ConfigError::ZeroRolloutDepth => tag("zero_rollout_depth", vec![]),
        ConfigError::ZeroActionsPerExpansion => tag("zero_actions_per_expansion", vec![]),
        ConfigError::TooManyActionsPerExpansion(n) => tag(
            "too_many_actions_per_expansion",
            vec![("actions".to_string(), n.serialize())],
        ),
        ConfigError::BadExploration(x) => {
            tag("bad_exploration", vec![("bits".to_string(), f64_bits(*x))])
        }
        ConfigError::EmptyConeSelection => tag("empty_cone_selection", vec![]),
    }
}

fn decode_config_error(value: &Value) -> Result<ConfigError, WireError> {
    Ok(match kind_of(value)?.as_str() {
        "zero_diffusion_steps" => ConfigError::ZeroDiffusionSteps,
        "zero_denoiser_capacity" => ConfigError::ZeroDenoiserCapacity {
            hidden: narrowed_field(value, "hidden")?,
            layers: narrowed_field(value, "layers")?,
        },
        "bad_learning_rate" => ConfigError::BadLearningRate(f32_field(value, "bits")?),
        "bad_negative_ratio" => ConfigError::BadNegativeRatio(f64_field(value, "bits")?),
        "bad_grad_clip" => ConfigError::BadGradClip(f32_field(value, "bits")?),
        "zero_sparse_candidates" => ConfigError::ZeroSparseCandidates,
        "too_many_sparse_candidates" => {
            ConfigError::TooManySparseCandidates(narrowed_field(value, "candidates")?)
        }
        "zero_discriminator_epochs" => ConfigError::ZeroDiscriminatorEpochs,
        "too_many_cone_cache_shards" => {
            ConfigError::TooManyConeCacheShards(narrowed_field(value, "shards")?)
        }
        "zero_simulations" => ConfigError::ZeroSimulations,
        "zero_rollout_depth" => ConfigError::ZeroRolloutDepth,
        "zero_actions_per_expansion" => ConfigError::ZeroActionsPerExpansion,
        "too_many_actions_per_expansion" => {
            ConfigError::TooManyActionsPerExpansion(narrowed_field(value, "actions")?)
        }
        "bad_exploration" => ConfigError::BadExploration(f64_field(value, "bits")?),
        "empty_cone_selection" => ConfigError::EmptyConeSelection,
        other => {
            return Err(WireError::BadFrame(format!(
                "unknown config error kind `{other}`"
            )))
        }
    })
}

fn encode_persist_error(e: &PersistError) -> Value {
    let msg = |kind: &str, m: &str| tag(kind, vec![("message".to_string(), m.serialize())]);
    match e {
        PersistError::Format { found } => {
            tag("format", vec![("found".to_string(), found.serialize())])
        }
        PersistError::Version { found, supported } => tag(
            "version",
            vec![
                ("found".to_string(), found.serialize()),
                ("supported".to_string(), supported.serialize()),
            ],
        ),
        PersistError::Parse(m) => msg("parse", m),
        PersistError::Inconsistent(m) => msg("inconsistent", m),
        PersistError::ShapeMismatch(m) => msg("shape_mismatch", m),
        PersistError::Io(m) => msg("io", m),
    }
}

fn decode_persist_error(value: &Value) -> Result<PersistError, WireError> {
    let msg = |value: &Value| str_field(value, "message");
    Ok(match kind_of(value)?.as_str() {
        "format" => PersistError::Format {
            found: str_field(value, "found")?,
        },
        "version" => PersistError::Version {
            found: u64_field(value, "found")?,
            supported: u64_field(value, "supported")?,
        },
        "parse" => PersistError::Parse(msg(value)?),
        "inconsistent" => PersistError::Inconsistent(msg(value)?),
        "shape_mismatch" => PersistError::ShapeMismatch(msg(value)?),
        "io" => PersistError::Io(msg(value)?),
        other => {
            return Err(WireError::BadFrame(format!(
                "unknown persist error kind `{other}`"
            )))
        }
    })
}

fn encode_wire_error(e: &WireError) -> Value {
    match e {
        WireError::Io(m) => tag("io", vec![("message".to_string(), m.serialize())]),
        WireError::Truncated { expected, got } => tag(
            "truncated",
            vec![
                ("expected".to_string(), expected.serialize()),
                ("got".to_string(), got.serialize()),
            ],
        ),
        WireError::Oversized { len, max } => tag(
            "oversized",
            vec![
                ("len".to_string(), len.serialize()),
                ("max".to_string(), max.serialize()),
            ],
        ),
        WireError::BadJson(m) => tag("bad_json", vec![("message".to_string(), m.serialize())]),
        WireError::BadVersion { found } => {
            tag("bad_version", vec![("found".to_string(), found.serialize())])
        }
        WireError::BadFrame(m) => tag("bad_frame", vec![("message".to_string(), m.serialize())]),
    }
}

fn decode_wire_error(value: &Value) -> Result<WireError, WireError> {
    let msg = |value: &Value| str_field(value, "message");
    Ok(match kind_of(value)?.as_str() {
        "io" => WireError::Io(msg(value)?),
        "truncated" => WireError::Truncated {
            expected: narrowed_field(value, "expected")?,
            got: narrowed_field(value, "got")?,
        },
        "oversized" => WireError::Oversized {
            len: narrowed_field(value, "len")?,
            max: narrowed_field(value, "max")?,
        },
        "bad_json" => WireError::BadJson(msg(value)?),
        "bad_version" => WireError::BadVersion {
            found: u64_field(value, "found")?,
        },
        "bad_frame" => WireError::BadFrame(msg(value)?),
        other => {
            return Err(WireError::BadFrame(format!(
                "unknown wire error kind `{other}`"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn roundtrip_serve(e: ServeError) {
        let encoded = encode_serve_error(&e);
        let text = serde_json::to_string(&encoded).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = decode_serve_error(&parsed).unwrap();
        // NaN payloads defeat `assert_eq!` (NaN != NaN), so compare the
        // re-encoded canonical text — bitwise-lossless by construction.
        let text_back = serde_json::to_string(&encode_serve_error(&back)).unwrap();
        assert_eq!(text_back, text, "lossless round-trip for {e:?}");
    }

    /// Every constructible error variant — serving, pipeline, config,
    /// request, refine, persist — crosses the wire losslessly typed.
    #[test]
    fn the_full_error_taxonomy_round_trips() {
        let config_errors = vec![
            ConfigError::ZeroDiffusionSteps,
            ConfigError::ZeroDenoiserCapacity { hidden: 0, layers: 3 },
            ConfigError::BadLearningRate(-1.5),
            ConfigError::BadLearningRate(f32::NAN),
            ConfigError::BadNegativeRatio(f64::INFINITY),
            ConfigError::BadGradClip(0.0),
            ConfigError::ZeroSparseCandidates,
            ConfigError::TooManySparseCandidates(usize::MAX),
            ConfigError::ZeroDiscriminatorEpochs,
            ConfigError::TooManyConeCacheShards(usize::MAX),
            ConfigError::ZeroSimulations,
            ConfigError::ZeroRolloutDepth,
            ConfigError::ZeroActionsPerExpansion,
            ConfigError::TooManyActionsPerExpansion(1 << 40),
            ConfigError::BadExploration(f64::NAN),
            ConfigError::EmptyConeSelection,
        ];
        let persist_errors = vec![
            PersistError::Format { found: "gltf".to_string() },
            PersistError::Version { found: 9, supported: 1 },
            PersistError::Parse("models/a.json: eof at byte 12".to_string()),
            PersistError::Inconsistent("discriminator missing".to_string()),
            PersistError::ShapeMismatch("64 != 32".to_string()),
            PersistError::Io("models/a.json: permission denied".to_string()),
        ];
        let mut core_errors = vec![
            CoreError::EmptyCorpus,
            CoreError::EmptyTrainingSet,
            CoreError::Request(RequestError::EmptyAttrs),
            CoreError::Refine(RefineError::NoValidParent { node: NodeId::new(7) }),
        ];
        core_errors.extend(config_errors.into_iter().map(CoreError::Config));
        core_errors.extend(persist_errors.into_iter().map(CoreError::Persist));

        roundtrip_serve(ServeError::Overloaded { capacity: 2048 });
        roundtrip_serve(ServeError::ShuttingDown);
        roundtrip_serve(ServeError::DeadlineExceeded);
        roundtrip_serve(ServeError::Quarantined { path: "/m/bad.json".to_string() });
        roundtrip_serve(ServeError::WorkerPanicked { message: "boom".to_string() });
        for e in core_errors {
            roundtrip_serve(ServeError::Model(e));
        }
    }

    /// Integer fields wider than the receiving type must be rejected
    /// as malformed frames, not wrapped: the old `as` casts would have
    /// read 2⁴⁰ as 0 on a 32-bit `usize`.
    #[test]
    fn narrowed_field_rejects_out_of_range_values() {
        let v: Value = serde_json::from_str(r#"{"n": 1099511627776}"#).unwrap(); // 2^40
        // In-range for the wide type and for anything that can hold 2^40…
        assert_eq!(u64_field(&v, "n").unwrap(), 1u64 << 40);
        let wide: u64 = narrowed_field(&v, "n").unwrap();
        assert_eq!(wide, 1u64 << 40);
        // …but a typed error (never a wrap) for a narrower target.
        let narrow: Result<u32, WireError> = narrowed_field(&v, "n");
        match narrow {
            Err(WireError::BadFrame(msg)) => {
                assert!(msg.contains("`n`"), "error names the field: {msg}");
                assert!(msg.contains("1099511627776"), "error carries the value: {msg}");
            }
            other => panic!("expected BadFrame, got {other:?}"),
        }
        // Missing and non-integer fields keep their existing diagnostics.
        let bad: Value = serde_json::from_str(r#"{"n": "hi"}"#).unwrap();
        assert!(matches!(
            narrowed_field::<u32>(&bad, "n"),
            Err(WireError::BadFrame(_))
        ));
        assert!(matches!(
            narrowed_field::<u32>(&bad, "missing"),
            Err(WireError::BadFrame(_))
        ));
    }

    /// NaN payloads keep their exact bit pattern (text JSON would lose
    /// them; the bits encoding does not).
    #[test]
    fn float_payloads_round_trip_bitwise() {
        let weird = f32::from_bits(0x7FC0_1234); // a non-canonical NaN
        let e = ServeError::Model(CoreError::Config(ConfigError::BadLearningRate(weird)));
        let back = decode_serve_error(&encode_serve_error(&e)).unwrap();
        match back {
            ServeError::Model(CoreError::Config(ConfigError::BadLearningRate(x))) => {
                assert_eq!(x.to_bits(), weird.to_bits());
            }
            other => panic!("wrong shape after round-trip: {other:?}"),
        }
    }

    #[test]
    fn request_frames_round_trip() {
        let frame = RequestFrame {
            id: 42,
            tenant: "tenant-a".to_string(),
            artifact: "/models/a.json".to_string(),
            request: GenRequest::nodes(24)
                .seeded(7)
                .deadline(Duration::from_millis(350)),
        };
        let back = decode_request(&encode_request(&frame)).unwrap();
        assert_eq!(back, frame);
        assert_eq!(
            back.request.time_budget(),
            Some(Duration::from_millis(350)),
            "the deadline survives the wire"
        );
    }

    #[test]
    fn response_frames_round_trip() {
        let err = ResponseFrame {
            id: 3,
            body: ResponseBody::Err(ServeError::Overloaded { capacity: 8 }),
        };
        match decode_response(&encode_response(&err)).unwrap() {
            ResponseFrame { id: 3, body: ResponseBody::Err(e) } => {
                assert_eq!(e, ServeError::Overloaded { capacity: 8 });
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let protocol = ResponseFrame {
            id: 0,
            body: ResponseBody::Protocol(WireError::BadVersion { found: 9 }),
        };
        match decode_response(&encode_response(&protocol)).unwrap() {
            ResponseFrame { id: 0, body: ResponseBody::Protocol(e) } => {
                assert_eq!(e, WireError::BadVersion { found: 9 });
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn version_gate_rejects_other_stamps() {
        let frame = RequestFrame {
            id: 1,
            tenant: "t".to_string(),
            artifact: "a".to_string(),
            request: GenRequest::nodes(4),
        };
        let text = String::from_utf8(encode_request(&frame)).unwrap();
        let bumped = text.replacen("\"v\":1", "\"v\":2", 1);
        match decode_request(bumped.as_bytes()) {
            Err(WireError::BadVersion { found: 2 }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
        let missing = text.replacen("\"v\":1,", "", 1);
        match decode_request(missing.as_bytes()) {
            Err(WireError::BadVersion { found: 0 }) => {}
            other => panic!("expected BadVersion{{0}}, got {other:?}"),
        }
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_FRAME_BYTES).unwrap();
        write_frame(&mut buf, b"", MAX_FRAME_BYTES).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), None, "clean EOF");

        match write_frame(&mut Vec::new(), &[0u8; 64], 16) {
            Err(WireError::Oversized { len: 64, max: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        // A hostile length prefix fails typed without allocating.
        let hostile = u32::MAX.to_be_bytes().to_vec();
        match read_frame(&mut std::io::Cursor::new(hostile), 1024) {
            Err(WireError::Oversized { max: 1024, .. }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    /// A frame is one `write` call on the sink, so the prefix can never
    /// be sent on its own and stall in Nagle's buffer behind the
    /// payload.
    #[test]
    fn each_frame_is_one_write() {
        #[derive(Default)]
        struct CountingSink {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink::default();
        for (k, payload) in [&b"hello"[..], b"", &[7u8; 5000]].into_iter().enumerate() {
            write_frame(&mut sink, payload, MAX_FRAME_BYTES).unwrap();
            assert_eq!(sink.writes, k + 1, "frame {k} took more than one write");
        }
        let mut r = std::io::Cursor::new(sink.bytes);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            vec![7u8; 5000]
        );
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload-bytes", MAX_FRAME_BYTES).unwrap();
        for cut in 1..buf.len() {
            let mut r = std::io::Cursor::new(buf[..cut].to_vec());
            match read_frame(&mut r, MAX_FRAME_BYTES) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn displays_are_informative() {
        assert!(format!("{}", WireError::BadVersion { found: 3 }).contains("3"));
        assert!(format!("{}", WireError::Oversized { len: 9, max: 4 }).contains("9"));
        assert!(format!("{}", WireError::Truncated { expected: 8, got: 2 }).contains("mid-frame"));
        assert!(format!("{}", WireError::BadJson("x".to_string())).contains("JSON"));
        assert!(format!("{}", WireError::Io("reset".to_string())).contains("reset"));
        assert!(format!("{}", WireError::BadFrame("no id".to_string())).contains("no id"));
    }
}
