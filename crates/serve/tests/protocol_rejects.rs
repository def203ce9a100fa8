//! Protocol-level early-rejection regressions: malformed frames,
//! unknown tenants and oversized prompts each get a structured error
//! reply and never reach the scheduler's admission path — the runtime
//! records no submission for them and subsequent stats are untouched.

use ftts_serve::{ServeConfig, ServeRuntime};

fn runtime() -> ServeRuntime {
    let toml = r#"
[server]
seed = 7
n_beams = 4
max_batch = 4
window_secs = 0.2
memory_fraction = 0.5
max_prompt_tokens = 600

[[tenants]]
id = 0
weight = 2
kv_cap_frac = 0.0
max_open = 0

[[tenants]]
id = 1
weight = 1
kv_cap_frac = 0.0001
max_open = 1
"#;
    ServeRuntime::new(ServeConfig::parse(toml).expect("config"))
}

fn assert_rejected(rt: &mut ServeRuntime, line: &str, code: &str) {
    let before = (rt.accepted(), rt.rejected());
    let h = rt.handle_line(line);
    assert!(
        h.reply.contains("\"ok\":false"),
        "{line} must be refused, got {}",
        h.reply
    );
    assert!(
        h.reply.contains(&format!("\"error\":\"{code}\"")),
        "{line} must fail with '{code}', got {}",
        h.reply
    );
    assert!(!h.shutdown);
    assert_eq!(
        rt.accepted(),
        before.0,
        "a refused frame must not create a submission"
    );
    assert_eq!(rt.rejected(), before.1 + 1, "the refusal must be counted");
}

#[test]
fn malformed_frames_never_reach_admission() {
    let mut rt = runtime();
    // One frame of 100,000 `[` bytes: a reader that recursed per level
    // would overflow the stack and take the whole server down.
    let deep_nest = "[".repeat(100_000);
    for line in [
        "this is not json",
        "{\"op\":\"submit\"}",
        "{\"no_op_at_all\":1}",
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":0,\"slo\":\"platinum\",\"dataset\":\"amc2023\",\"problem_seed\":1}",
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":0,\"slo\":\"standard\",\"dataset\":\"cifar\",\"problem_seed\":1}",
        &deep_nest,
        // Overflows f64: once read as +inf, i.e. "no deadline".
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":0,\"slo\":\"standard\",\"dataset\":\"amc2023\",\"problem_seed\":1,\"deadline_secs\":1e999}",
        // 2^53 + 1 reads back as 2^53: once served as the wrong problem.
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":0,\"slo\":\"standard\",\"dataset\":\"amc2023\",\"problem_seed\":9007199254740993}",
    ] {
        assert_rejected(&mut rt, line, "malformed");
    }
    assert_rejected(&mut rt, "{\"op\":\"reboot\"}", "unknown_op");
    // The runtime saw only garbage, and still answers the next frame:
    // stats must report zero requests.
    let stats = rt.handle_line("{\"op\":\"stats\"}");
    assert!(stats.reply.contains("\"ok\":true"), "{}", stats.reply);
    assert!(stats.reply.contains("\"requests\":0"), "{}", stats.reply);
    assert!(stats.reply.contains("\"rejected\":9"), "{}", stats.reply);
}

#[test]
fn unknown_tenants_are_refused_with_a_structured_error() {
    let mut rt = runtime();
    assert_rejected(
        &mut rt,
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":9,\"slo\":\"standard\",\"dataset\":\"amc2023\",\"problem_seed\":3}",
        "unknown_tenant",
    );
    let stats = rt.handle_line("{\"op\":\"stats\"}");
    assert!(stats.reply.contains("\"requests\":0"), "{}", stats.reply);
}

#[test]
fn oversized_prompts_are_refused_before_admission() {
    let mut rt = runtime();
    // Tenant 1's cap is 0.01% of the pool (~600 KB): any real prompt's
    // cold working set (a few MB) exceeds it.
    assert_rejected(
        &mut rt,
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":1,\"slo\":\"standard\",\"dataset\":\"aime2024\",\"problem_seed\":3}",
        "oversized_prompt",
    );
    // The same problem bills fine to the uncapped tenant 0 — the
    // refusal above was the cap, not the problem.
    let ok = rt.handle_line(
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":0,\"slo\":\"standard\",\"dataset\":\"aime2024\",\"problem_seed\":3}",
    );
    assert!(ok.reply.contains("\"ok\":true"), "{}", ok.reply);
}

#[test]
fn prompts_above_the_configured_maximum_are_refused() {
    let toml = "[server]\nseed = 7\nn_beams = 4\nmemory_fraction = 0.5\nmax_prompt_tokens = 1\n";
    let mut rt = ServeRuntime::new(ServeConfig::parse(toml).expect("config"));
    assert_rejected(
        &mut rt,
        "{\"op\":\"submit\",\"id\":\"r\",\"tenant\":0,\"slo\":\"standard\",\"dataset\":\"amc2023\",\"problem_seed\":3}",
        "oversized_prompt",
    );
}

#[test]
fn quota_exhaustion_is_refused_and_recovers_after_resolution() {
    let submit = |seed: u64| {
        format!(
            "{{\"op\":\"submit\",\"id\":\"q{seed}\",\"tenant\":0,\"slo\":\"standard\",\
             \"dataset\":\"amc2023\",\"problem_seed\":{seed},\"arrive_at\":0.0}}"
        )
    };
    let toml = r#"
[server]
seed = 7
n_beams = 4
memory_fraction = 0.5

[[tenants]]
id = 0
weight = 1
kv_cap_frac = 0.0
max_open = 2
"#;
    let mut rt = ServeRuntime::new(ServeConfig::parse(toml).expect("config"));
    assert!(rt.handle_line(&submit(1)).reply.contains("\"ok\":true"));
    assert!(rt.handle_line(&submit(2)).reply.contains("\"ok\":true"));
    assert_rejected(&mut rt, &submit(3), "quota_exhausted");
    // Resolving the backlog (any stats/status replay) frees the quota.
    rt.handle_line("{\"op\":\"stats\"}");
    assert!(
        rt.handle_line(&submit(3)).reply.contains("\"ok\":true"),
        "quota must free once the backlog resolves"
    );
}

#[test]
fn unknown_request_ids_error_on_status_and_cancel() {
    let mut rt = runtime();
    for op in ["status", "cancel"] {
        let h = rt.handle_line(&format!("{{\"op\":\"{op}\",\"id\":\"ghost\"}}"));
        assert!(
            h.reply.contains("\"error\":\"unknown_request\""),
            "{op}: {}",
            h.reply
        );
    }
}
