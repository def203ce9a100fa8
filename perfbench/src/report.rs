//! The metric registry and the one-line JSON result.
//!
//! Every workload prints every metric of its mode: the end-to-end set
//! with `--trace 0`, the per-layer set with `--trace 1`. A layer a
//! workload never reaches reads 0 there (for example `runtime.replays`
//! on `sim-fleet`). `BENCHMARK.json` declares the same two lists; the
//! self-test keeps them equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("vt_goodput_tok_s", "tok/s"),
    ("vt_deadline_hit_rate", "ratio"),
    ("vt_latency_p99_s", "vs"),
];

/// Per-layer metrics, `(name, unit)`, from the traced in-process run.
/// `vs` is virtual (simulated) seconds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.overhead_p50_us", "us"),
    ("net.overhead_tail_us", "us"),
    ("protocol.parse_p50_us", "us"),
    ("protocol.rejects", "count"),
    ("runtime.submit_p50_us", "us"),
    ("runtime.status_hit_p50_us", "us"),
    ("runtime.status_miss_p50_ms", "ms"),
    ("runtime.stats_p50_us", "us"),
    ("runtime.cancel_p50_us", "us"),
    ("runtime.replays", "count"),
    ("runtime.memo_hit_ratio", "ratio"),
    ("runtime.miss_ms_per_req", "ms"),
    ("tenant.refusals", "count"),
    ("metrics.rollup_p50_us", "us"),
    ("sched.run_ms", "ms"),
    ("sched.sim_tok_per_s", "tok/s"),
    ("sched.launches", "count"),
    ("sched.mean_cobatch", "count"),
    ("sched.preemptions", "count"),
    ("sched.shed", "count"),
    ("sched.cancelled", "count"),
    ("sched.degradations", "count"),
    ("sched.queue_delay_p50_vs", "vs"),
    ("fleet.run_ms", "ms"),
    ("fleet.resim_factor", "ratio"),
    ("fleet.migrations", "count"),
    ("fleet.hedges_launched", "count"),
    ("fleet.hedges_wasted", "count"),
    ("fleet.warm_hits", "count"),
    ("faults.kernel_faults", "count"),
    ("faults.retries", "count"),
    ("faults.kv_loss_events", "count"),
    ("engine.us_per_ktok", "us/ktok"),
    ("engine.iterations", "count"),
    ("engine.spec_use_ratio", "ratio"),
    ("engine.lookahead_hits", "count"),
    ("kv.peak_reserved_frac", "ratio"),
    ("kv.evicted_tokens", "tok"),
    ("kv.recomputed_tokens", "tok"),
    ("kv.tier_hits", "count"),
    ("kv.tier_parked_bytes", "B"),
    ("kv.tier_dropped_bytes", "B"),
    ("timeline.segments", "count"),
    ("timeline.busy_frac", "ratio"),
    ("timeline.stretch_s", "vs"),
    ("vt.generator_s", "vs"),
    ("vt.verifier_s", "vs"),
    ("vt.recompute_s", "vs"),
    ("vt.swap_s", "vs"),
    ("vt.idle_s", "vs"),
    ("vt.join_wait_s", "vs"),
    ("vt.contention_s", "vs"),
    ("vt.fault_s", "vs"),
    ("failed_frac", "ratio"),
];

/// Named metric values collected by a workload.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be declared.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: a harness bug, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric '{name}' is not declared"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operations attempted and failed, and whether every check held.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `declared`, each with its unit.
///
/// # Errors
///
/// Fails when a declared metric was not recorded or is not finite.
pub fn result_line(
    outcome: Outcome,
    metrics: &Metrics,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    ))
}
