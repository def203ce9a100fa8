//! Replaying the same two-tenant trace through two fresh runtimes must
//! produce byte-identical replies — the per-tenant summaries in the
//! `stats` frame included. The server simulates in virtual time from
//! explicit `arrive_at` stamps, so nothing about wall-clock scheduling
//! may leak into a reply.
//!
//! Five reply streams are also frozen as golden fingerprints (FNV-1a-64
//! of the replies, one per line):
//!
//! * this file's trace, and the same trace under a `[faults]` storm;
//! * the CI smoke trace `ci/smoke_trace.jsonl` under `ci/serve.toml`,
//!   and under `ci/serve_fleet.toml`, its two-device copy;
//! * a `serve-session`-shaped trace: submit→status pairs, a back-dated
//!   submit, a submit cancelled before any query, and repeated `stats`.
//!
//! All of them run the window-0.2 two-tenant policy no scheduler golden
//! row covers. A deliberate behaviour change edits the constant by hand
//! and records why in CHANGES.md.

use ftts_serve::{ServeConfig, ServeRuntime};

const CONFIG: &str = r#"
[server]
seed = 11
n_beams = 4
max_batch = 4
window_secs = 0.2
memory_fraction = 0.5

[[tenants]]
id = 0
weight = 3
kv_cap_frac = 0.0
max_open = 0

[[tenants]]
id = 1
weight = 1
kv_cap_frac = 0.5
max_open = 4
"#;

const TRACE: &[&str] = &[
    r#"{"op":"submit","id":"a1","tenant":0,"slo":"interactive","dataset":"amc2023","problem_seed":1,"deadline_secs":120.0,"arrive_at":0.0}"#,
    r#"{"op":"submit","id":"b1","tenant":1,"slo":"batch","dataset":"math500","problem_seed":2,"arrive_at":0.5}"#,
    r#"{"op":"submit","id":"a2","tenant":0,"slo":"standard","dataset":"amc2023","problem_seed":3,"arrive_at":1.0}"#,
    r#"{"op":"submit","id":"b2","tenant":1,"slo":"standard","dataset":"math500","problem_seed":4,"arrive_at":1.5}"#,
    r#"{"op":"status","id":"a1"}"#,
    r#"{"op":"cancel","id":"b2"}"#,
    r#"{"op":"status","id":"b1"}"#,
    r#"{"op":"stats"}"#,
];

/// Golden fingerprint of [`TRACE`]'s replies under [`CONFIG`].
const TRACE_REPLIES: &str = "f02a3f23191eac1f";

/// Golden fingerprint of the CI smoke trace's replies under the CI
/// config.
const SMOKE_REPLIES: &str = "cbd2c3a79b32c31b";

/// Golden fingerprint of the CI smoke trace's replies under the
/// two-device CI config.
const SMOKE_FLEET_REPLIES: &str = "4f457c8dfd3cf8c5";

/// Golden fingerprint of [`TRACE`]'s replies under [`CONFIG`] plus
/// [`STORM`].
const STORM_REPLIES: &str = "7d13a6f95bd7d91e";

/// Golden fingerprint of [`session_trace`]'s replies under [`CONFIG`].
const SESSION_REPLIES: &str = "83a2dba099e7a329";

/// A seeded fault storm over the first minute: kernel faults, throttle
/// windows and KV losses on every device.
const STORM: &str = r#"
[faults]
seed = 5
horizon_secs = 60.0
kernel_faults = 4
slowdowns = 2
slowdown_factor = 1.5
slowdown_secs = 10.0
kv_losses = 2
"#;

fn replay() -> Vec<String> {
    replay_frames(CONFIG, TRACE.iter().copied())
}

fn replay_frames<'a>(config: &str, frames: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut rt = ServeRuntime::new(ServeConfig::parse(config).expect("config"));
    frames.map(|line| rt.handle_line(line).reply).collect()
}

/// The CI smoke trace's frames exactly as the smoke client
/// `net::replay` sends them: trimmed, with blank and `#` lines skipped.
fn smoke_frames() -> impl Iterator<Item = &'static str> {
    include_str!("../ci/smoke_trace.jsonl")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// A `serve-session`-shaped trace: each request is submitted one
/// virtual second after the last and queried at once. Request `late`
/// arrives back-dated, behind three earlier ones; request `gone` is
/// submitted and cancelled before any query, so the status after it
/// sees the same active set; `stats` is polled twice every fourth step.
fn session_trace() -> Vec<String> {
    const SLOS: [(&str, u32); 3] = [("interactive", 90), ("standard", 120), ("batch", 180)];
    let submit = |id: &str, n: u32, tenant: u32, at: f64| {
        let (slo, slack) = SLOS[n as usize % SLOS.len()];
        let dataset = if n % 4 == 3 { "math500" } else { "amc2023" };
        format!(
            r#"{{"op":"submit","id":"{id}","tenant":{tenant},"slo":"{slo}","deadline_secs":{slack},"dataset":"{dataset}","problem_seed":{},"arrive_at":{at}}}"#,
            100 + n
        )
    };
    let status = |id: &str| format!(r#"{{"op":"status","id":"{id}"}}"#);
    let stats = r#"{"op":"stats"}"#.to_string();
    let mut frames = Vec::new();
    for i in 0..12u32 {
        let id = format!("r{i}");
        frames.push(submit(&id, i, u32::from(i % 4 == 3), f64::from(i)));
        frames.push(status(&id));
        if i == 5 {
            frames.push(submit("late", 12, 0, 2.5));
            frames.push(status("late"));
        }
        if i == 8 {
            frames.push(submit("gone", 13, 1, 8.5));
            frames.push(r#"{"op":"cancel","id":"gone"}"#.to_string());
            frames.push(status(&id));
        }
        if i % 4 == 3 {
            frames.push(stats.clone());
            frames.push(stats.clone());
        }
    }
    frames.push(status("gone"));
    frames.push(stats);
    frames
}

/// FNV-1a-64 of the replies, each followed by a newline.
fn fingerprint(replies: &[String]) -> String {
    let hash = replies
        .iter()
        .flat_map(|r| r.bytes().chain(std::iter::once(b'\n')))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{hash:016x}")
}

#[test]
fn two_tenant_trace_replays_byte_identically() {
    let first = replay();
    let second = replay();
    assert_eq!(
        first, second,
        "fresh runtimes over the same trace must agree byte-for-byte"
    );
    // The stats frame carries both tenants' summaries — pin that the
    // determinism claim actually covers them.
    let stats = first.last().expect("stats reply");
    assert!(stats.contains("\"tenant\":0"), "{stats}");
    assert!(stats.contains("\"tenant\":1"), "{stats}");
    assert!(stats.contains("\"cancelled\":1"), "{stats}");
}

#[test]
fn trace_replies_match_their_golden_fingerprint() {
    let replies = replay();
    assert_eq!(
        fingerprint(&replies),
        TRACE_REPLIES,
        "replies drifted:\n{}",
        replies.join("\n")
    );
}

#[test]
fn smoke_trace_replies_match_their_golden_fingerprint() {
    let replies = replay_frames(include_str!("../ci/serve.toml"), smoke_frames());
    assert_eq!(
        fingerprint(&replies),
        SMOKE_REPLIES,
        "replies drifted:\n{}",
        replies.join("\n")
    );
}

#[test]
fn fleet_smoke_trace_replies_match_their_golden_fingerprint() {
    let replies = replay_frames(include_str!("../ci/serve_fleet.toml"), smoke_frames());
    assert_eq!(
        fingerprint(&replies),
        SMOKE_FLEET_REPLIES,
        "replies drifted:\n{}",
        replies.join("\n")
    );
}

#[test]
fn storm_trace_replies_match_their_golden_fingerprint() {
    let replies = replay_frames(&format!("{CONFIG}{STORM}"), TRACE.iter().copied());
    assert_eq!(
        fingerprint(&replies),
        STORM_REPLIES,
        "replies drifted:\n{}",
        replies.join("\n")
    );
}

#[test]
fn session_trace_replies_match_their_golden_fingerprint() {
    let frames = session_trace();
    let mut rt = ServeRuntime::new(ServeConfig::parse(CONFIG).expect("config"));
    let replies: Vec<String> = frames.iter().map(|l| rt.handle_line(l).reply).collect();
    assert_eq!(
        fingerprint(&replies),
        SESSION_REPLIES,
        "replies drifted:\n{}",
        replies.join("\n")
    );
    // One replay per status after a submit, the back-dated one
    // included; the cancelled churn and every `stats` are memo hits.
    assert_eq!(rt.replays(), 13);
}

#[test]
fn stats_are_stable_across_repeated_queries() {
    let mut rt = ServeRuntime::new(ServeConfig::parse(CONFIG).expect("config"));
    for line in TRACE {
        rt.handle_line(line);
    }
    let once = rt.handle_line(r#"{"op":"stats"}"#).reply;
    let again = rt.handle_line(r#"{"op":"stats"}"#).reply;
    assert_eq!(
        once, again,
        "re-querying without new submissions must not change the summary"
    );
}
