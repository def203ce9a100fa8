//! The line-delimited JSON wire protocol.
//!
//! One frame per line, one reply line per frame. Five operations:
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `submit` | `id`, `tenant`, `slo`, `deadline_secs?`, `dataset`, `problem_seed`, `arrive_at?` | `{"ok":true,"op":"submit","id":...}` |
//! | `status` | `id` | request state, timings, answer |
//! | `cancel` | `id` | `{"ok":true,"op":"cancel",...}` |
//! | `stats` | — | per-tenant rollups |
//! | `shutdown` | — | `{"ok":true,"op":"shutdown"}`, then the server drains |
//!
//! Errors are structured: `{"ok":false,"error":"<code>","detail":"..."}`
//! with a stable machine-readable code. Malformed frames, unknown
//! tenants and oversized prompts are refused *here and in the runtime's
//! front door* — they never reach the scheduler's admission path.

use ftts_metrics::SloClass;
use ftts_workload::Dataset;

use crate::json::{escape, Json};

/// A validated `submit` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Caller-chosen request id (unique per server lifetime).
    pub id: String,
    /// Tenant the request bills to.
    pub tenant: u32,
    /// SLO class.
    pub slo: SloClass,
    /// Deadline slack after arrival, seconds (`f64::INFINITY` = none).
    pub deadline_secs: f64,
    /// Workload the problem is drawn from.
    pub dataset: Dataset,
    /// Problem seed within the dataset.
    pub problem_seed: u64,
    /// Arrival instant on the virtual serving timeline, seconds.
    pub arrive_at: f64,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submit a request.
    Submit(Submit),
    /// Query one request's state.
    Status {
        /// The request id.
        id: String,
    },
    /// Cancel a request.
    Cancel {
        /// The request id.
        id: String,
    },
    /// Per-tenant statistics.
    Stats,
    /// Stop the server after replying.
    Shutdown,
}

/// A structured protocol error: a stable machine-readable code plus a
/// human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable error code (`malformed`, `unknown_op`, `unknown_tenant`,
    /// `oversized_prompt`, `quota_exhausted`, `duplicate_id`,
    /// `unknown_request`).
    pub code: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl WireError {
    /// Build an error.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        Self {
            code,
            detail: detail.into(),
        }
    }

    /// Render the error reply line (without trailing newline).
    pub fn reply(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
            self.code,
            escape(&self.detail)
        )
    }
}

fn malformed(detail: impl Into<String>) -> WireError {
    WireError::new("malformed", detail)
}

fn require_str(obj: &Json, key: &str) -> Result<String, WireError> {
    obj.str_at(key)
        .map(str::to_string)
        .ok_or_else(|| malformed(format!("missing or non-string '{key}'")))
}

/// The largest integer a wire number is sure to hold, 2^53 - 1: the
/// reader parses numbers as `f64`, where 2^53 + 1 already reads back as
/// 2^53.
const MAX_WIRE_INTEGER: f64 = 9_007_199_254_740_991.0;

fn require_u64(obj: &Json, key: &str) -> Result<u64, WireError> {
    let x = obj
        .number_at(key)
        .ok_or_else(|| malformed(format!("missing or non-numeric '{key}'")))?;
    if x < 0.0 || x.fract() != 0.0 || x > MAX_WIRE_INTEGER {
        return Err(malformed(format!(
            "'{key}' must be a non-negative integer below 2^53"
        )));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(x as u64)
}

fn parse_slo(name: &str) -> Result<SloClass, WireError> {
    SloClass::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| malformed(format!("unknown slo '{name}' (interactive|standard|batch)")))
}

fn parse_dataset(name: &str) -> Result<Dataset, WireError> {
    match name {
        "amc2023" => Ok(Dataset::Amc2023),
        "aime2024" => Ok(Dataset::Aime2024),
        "math500" => Ok(Dataset::Math500),
        "humaneval" => Ok(Dataset::HumanEval),
        other => Err(malformed(format!(
            "unknown dataset '{other}' (amc2023|aime2024|math500|humaneval)"
        ))),
    }
}

/// Parse one frame line.
///
/// # Errors
///
/// Returns a structured [`WireError`] (code `malformed` or
/// `unknown_op`) on anything that is not a well-formed frame.
pub fn parse_frame(line: &str) -> Result<Frame, WireError> {
    let obj = Json::parse(line).map_err(|e| malformed(format!("bad JSON: {e}")))?;
    if !matches!(obj, Json::Object(_)) {
        return Err(malformed("frame must be a JSON object"));
    }
    let op = require_str(&obj, "op")?;
    match op.as_str() {
        "submit" => {
            let deadline_secs = match obj.at("deadline_secs") {
                None | Some(Json::Null) => f64::INFINITY,
                Some(Json::Number(x)) if *x >= 0.0 => *x,
                Some(_) => return Err(malformed("'deadline_secs' must be a non-negative number")),
            };
            let arrive_at = match obj.at("arrive_at") {
                None => 0.0,
                Some(Json::Number(x)) if *x >= 0.0 && x.is_finite() => *x,
                Some(_) => return Err(malformed("'arrive_at' must be a finite number >= 0")),
            };
            let tenant = require_u64(&obj, "tenant")?;
            Ok(Frame::Submit(Submit {
                id: require_str(&obj, "id")?,
                tenant: u32::try_from(tenant).map_err(|_| malformed("'tenant' must fit a u32"))?,
                slo: parse_slo(&require_str(&obj, "slo")?)?,
                deadline_secs,
                dataset: parse_dataset(&require_str(&obj, "dataset")?)?,
                problem_seed: require_u64(&obj, "problem_seed")?,
                arrive_at,
            }))
        }
        "status" => Ok(Frame::Status {
            id: require_str(&obj, "id")?,
        }),
        "cancel" => Ok(Frame::Cancel {
            id: require_str(&obj, "id")?,
        }),
        "stats" => Ok(Frame::Stats),
        "shutdown" => Ok(Frame::Shutdown),
        other => Err(WireError::new(
            "unknown_op",
            format!("unknown op '{other}' (submit|status|cancel|stats|shutdown)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_submit() {
        let f = parse_frame(
            r#"{"op":"submit","id":"r1","tenant":1,"slo":"interactive","deadline_secs":45.0,"dataset":"amc2023","problem_seed":11,"arrive_at":2.5}"#,
        )
        .expect("parse");
        let Frame::Submit(s) = f else {
            panic!("not a submit")
        };
        assert_eq!(s.id, "r1");
        assert_eq!(s.tenant, 1);
        assert_eq!(s.slo, SloClass::Interactive);
        assert_eq!(s.deadline_secs, 45.0);
        assert_eq!(s.dataset, Dataset::Amc2023);
        assert_eq!(s.problem_seed, 11);
        assert_eq!(s.arrive_at, 2.5);
    }

    #[test]
    fn submit_defaults_deadline_and_arrival() {
        let f = parse_frame(
            r#"{"op":"submit","id":"r1","tenant":0,"slo":"batch","dataset":"math500","problem_seed":1}"#,
        )
        .expect("parse");
        let Frame::Submit(s) = f else {
            panic!("not a submit")
        };
        assert_eq!(s.deadline_secs, f64::INFINITY);
        assert_eq!(s.arrive_at, 0.0);
    }

    #[test]
    fn structured_errors_name_the_defect() {
        let cases = [
            ("not json at all", "malformed"),
            (r#"{"op":"submit","id":"r1"}"#, "malformed"),
            (r#"{"op":"launch_missiles"}"#, "unknown_op"),
            (r#"{"id":"r1"}"#, "malformed"),
            (
                r#"{"op":"submit","id":"r","tenant":0,"slo":"gold","dataset":"math500","problem_seed":1}"#,
                "malformed",
            ),
            (
                r#"{"op":"submit","id":"r","tenant":0,"slo":"batch","dataset":"mnist","problem_seed":1}"#,
                "malformed",
            ),
            (
                r#"{"op":"submit","id":"r","tenant":-2,"slo":"batch","dataset":"math500","problem_seed":1}"#,
                "malformed",
            ),
        ];
        for (line, code) in cases {
            let err = parse_frame(line).expect_err(line);
            assert_eq!(err.code, code, "{line}");
            assert!(err.reply().starts_with("{\"ok\":false,\"error\":\""));
        }
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(parse_frame(r#"{"op":"stats"}"#), Ok(Frame::Stats));
        assert_eq!(parse_frame(r#"{"op":"shutdown"}"#), Ok(Frame::Shutdown));
        assert_eq!(
            parse_frame(r#"{"op":"cancel","id":"x"}"#),
            Ok(Frame::Cancel {
                id: "x".to_string()
            })
        );
    }
}
