//! Bench-regression gate: compares freshly emitted `BENCH_PR*.json`
//! reports against committed baselines with per-metric tolerances.
//!
//! Every PR's benchmark asserts its *own* acceptance gate (e.g. "fused
//! ≥ 1.15x continuous"), but nothing used to stop a later PR from
//! silently eroding an earlier PR's win while still clearing that PR's
//! absolute bar. The gate closes the loop: CI snapshots the committed
//! `BENCH_PR*.json` files before re-running the benches, then compares
//! the fresh numbers against the snapshot metric by metric. A metric
//! regressing past its tolerance fails the build; the whole comparison
//! is printed as a markdown delta table for the job summary.
//!
//! Baselines are refreshed *intentionally* by committing the fresh
//! `BENCH_PR*.json` files a bench run writes to the repo root — see
//! `docs/ci.md`.
//!
//! The reports are read with the workspace's one JSON reader,
//! [`ftts_serve::Json`] (re-exported here as [`Json`]), plus a
//! dot-separated path lookup for the gated metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub use ftts_serve::Json;

/// The value at a dot-separated path of object keys (e.g.
/// `"policies.fused_batch8.stream_goodput_tok_per_s"`).
fn at_path<'a>(json: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(json, |cur, key| cur.at(key))
}

/// The number at a dot-separated path, if any.
fn number_at_path(json: &Json, path: &str) -> Option<f64> {
    match at_path(json, path)? {
        Json::Number(x) => Some(*x),
        _ => None,
    }
}

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (speedups, goodput).
    HigherIsBetter,
    /// Smaller is better (idle fractions, latencies).
    LowerIsBetter,
}

/// One gated metric: where to find it and how much erosion to tolerate.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Report file name, e.g. `"BENCH_PR3.json"`.
    pub file: &'static str,
    /// Dot-separated path inside the report.
    pub path: &'static str,
    /// Short human label for the delta table.
    pub label: &'static str,
    /// The tolerance the fresh value must clear.
    pub bound: Bound,
    /// Which way the metric is supposed to move (normalizes the ratio
    /// column).
    pub direction: Direction,
}

/// The goodness ratio (fresh vs baseline, direction-normalized) every
/// [`Bound::Ratio`] metric must clear: a > 5% regression fails.
pub const MIN_RATIO: f64 = 0.95;

/// The tolerance of one gated metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The goodness ratio against the baseline must stay at or above
    /// [`MIN_RATIO`].
    Ratio,
    /// The fresh value must be at least this floor, whatever the
    /// baseline.
    AtLeast(f64),
    /// The fresh value must be at most this ceiling, whatever the
    /// baseline.
    AtMost(f64),
}

/// The committed gate: one entry per headline metric of each PR's
/// bench. All simulated-time metrics (goodput, speedups) are
/// deterministic — any drift is a code change — so their ratio
/// tolerances are deliberately loose (5%) erosion catchers. Absolute
/// bounds replace the ratio where ratios misbehave: wall-clock-derived
/// numbers such as PR 1's eviction speedup (a committed baseline
/// measured on another machine would make a ratio flaky), near-zero
/// fractions such as PR 4's idle fraction (where a ratio trips on
/// numeric dust), and a PR's own acceptance bar.
pub fn default_specs() -> Vec<MetricSpec> {
    use Bound::{AtLeast, AtMost, Ratio};
    use Direction::{HigherIsBetter, LowerIsBetter};
    vec![
        MetricSpec {
            file: "BENCH_PR1.json",
            path: "eviction.speedup_vs_seed",
            label: "PR1 eviction speedup vs seed scan",
            // Wall-clock metric: the indexed eviction win is ~26x on
            // any machine; the gate only needs to catch the index
            // collapsing back toward the seed scan's 1x.
            bound: AtLeast(5.0),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR2.json",
            path: "continuous_goodput_speedup_vs_fifo",
            label: "PR2 continuous-4 goodput vs FIFO",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR2.json",
            path: "policies.continuous_batch4.stream_goodput_tok_per_s",
            label: "PR2 continuous-4 stream goodput",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR3.json",
            path: "fused8_goodput_speedup_vs_continuous4",
            label: "PR3 fused-8 goodput vs continuous-4",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR3.json",
            path: "policies.fused_batch8.stream_goodput_tok_per_s",
            label: "PR3 fused-8 stream goodput",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR4.json",
            path: "event_goodput_speedup_vs_lockstep_fused8",
            label: "PR4 event goodput vs lockstep fused-8",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR4.json",
            path: "policies.event_fused8_window.stream_goodput_tok_per_s",
            label: "PR4 event stream goodput",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR4.json",
            path: "event_idle_fraction",
            label: "PR4 event idle fraction",
            // Near-zero fraction (0.004 at the baseline): an absolute
            // ceiling expresses the actual invariant — event-driven
            // scheduling keeps idle far below lockstep's ~46% — without
            // tripping on half-a-percentage-point shifts.
            bound: AtMost(0.05),
            direction: LowerIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR6.json",
            path: "degrade_deadline_hit_rate",
            label: "PR6 degrade deadline-hit rate",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR6.json",
            path: "policies.degrade.slo_goodput_tok_per_s",
            label: "PR6 degrade SLO goodput",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR6.json",
            path: "degrade_slo_goodput_gain_vs_naive_retry",
            label: "PR6 degrade SLO-goodput gain vs naive retry",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR7.json",
            path: "swap_goodput_gain_vs_drop",
            label: "PR7 swap-tier goodput gain vs drop-and-recompute",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR7.json",
            path: "policies.swap_tier.stream_goodput_tok_per_s",
            label: "PR7 swap-tier stream goodput",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR7.json",
            path: "drop_to_swap_recompute_ratio",
            label: "PR7 recompute-token ratio (drop vs swap)",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR8.json",
            path: "failover_deadline_hit_gain",
            label: "PR8 failover deadline-hit gain vs no-failover",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR8.json",
            path: "failover_slo_goodput_gain",
            label: "PR8 failover SLO-goodput gain vs no-failover",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR8.json",
            path: "affinity_warm_hit_gain",
            label: "PR8 prefix-affinity warm-hit gain vs JSQ",
            bound: Ratio,
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR8.json",
            path: "fleet4_goodput_scaling_x",
            label: "PR8 4-device crash-free goodput scaling",
            // The ISSUE's absolute bar: near-linear capacity scaling,
            // never below 3x on four devices.
            bound: AtLeast(3.0),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR8.json",
            path: "hetero_vs_edge_goodput_x",
            label: "PR8 hetero (Orin+A100) goodput gain vs all-Orin",
            // JSQ must steer the cadenced trace toward the fast
            // replicas; at or below 1.2x the heterogeneity signal is
            // lost in the noise.
            bound: AtLeast(1.2),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR10.json",
            path: "token_join_goodput_speedup_vs_iteration_joins",
            label: "PR10 token-join goodput vs iteration joins (honest w=0)",
            // Strictly-beats is the PR's acceptance bar, under honest
            // contention pricing on both sides.
            bound: AtLeast(1.01),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR10.json",
            path: "join_wait_reduction_x",
            label: "PR10 late-arrival join-latency cut vs iteration joins",
            // The sparse fixture's launch-boundary wait must shrink when
            // arrivals join at chunk boundaries instead.
            bound: AtLeast(1.01),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR10.json",
            path: "retroactive_stretch_secs",
            label: "PR10 retroactive contention stretch (honest w=0)",
            // Honest pricing must actually stretch overlapped launches;
            // 0.5 s is well below the fixture's ~1.2 s but far from 0.
            bound: AtLeast(0.5),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR10.json",
            path: "w0_vs_winf_goodput_gap_frac",
            label: "PR10 honest w=0 vs w=inf goodput gap",
            // Window = 0 must stay meaningfully distinct from lockstep
            // even after overlap is priced (fixture sits near 0.64).
            bound: AtLeast(0.2),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR9.json",
            path: "fair_share.victim.deadline_hit_rate",
            label: "PR9 victim deadline-hit rate under fair share",
            // Near-zero fractions ratio badly; the fixture is tuned so
            // fair share saves every victim deadline.
            bound: AtLeast(0.99),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR9.json",
            path: "victim_deadline_hit_gain",
            label: "PR9 victim deadline-hit gain vs uncapped",
            // Strictly-beats is the PR's acceptance bar: any gain at or
            // below 1.0 means the tenant layer stopped protecting.
            bound: AtLeast(1.05),
            direction: HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR9.json",
            path: "noisy_cap_utilization",
            label: "PR9 noisy tenant peak vs hard cap",
            // Cap compliance: peak grant / cap must never exceed 1.0.
            bound: AtMost(1.0),
            direction: LowerIsBetter,
        },
        MetricSpec {
            file: "BENCH_PR9.json",
            path: "fair_share.victim.stream_goodput_tok_per_s",
            label: "PR9 victim stream goodput under fair share",
            bound: Ratio,
            direction: HigherIsBetter,
        },
    ]
}

/// Outcome of one gated metric.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// The metric's human label.
    pub label: &'static str,
    /// Baseline value, if the file/path resolved.
    pub baseline: Option<f64>,
    /// Fresh value, if the file/path resolved.
    pub fresh: Option<f64>,
    /// Direction-normalized goodness ratio (`>= 1.0` means improved).
    pub ratio: Option<f64>,
    /// Whether the metric clears its tolerance.
    pub ok: bool,
    /// Human rendering of the tolerance applied (ratio or absolute).
    pub tolerance: String,
}

/// A full gate comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// One row per gated metric.
    pub rows: Vec<GateRow>,
}

impl GateReport {
    /// Whether every metric cleared its tolerance.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// Render the delta table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## Bench-regression gate\n\n");
        out.push_str("| metric | baseline | fresh | ratio | tolerance | status |\n");
        out.push_str("|---|---:|---:|---:|---:|:---:|\n");
        for r in &self.rows {
            let fmt =
                |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |x| format!("{x:.4}"));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                r.label,
                fmt(r.baseline),
                fmt(r.fresh),
                fmt(r.ratio),
                r.tolerance,
                if r.ok { "ok" } else { "REGRESSED" },
            );
        }
        let verdict = if self.passed() {
            "\nAll gated metrics within tolerance.\n"
        } else {
            "\n**Regression detected** — a gated metric eroded past its tolerance. \
             If the change is intentional, refresh the committed `BENCH_PR*.json` \
             baselines (see docs/ci.md).\n"
        };
        out.push_str(verdict);
        out
    }
}

/// The direction-normalized goodness ratio of `fresh` vs `baseline`:
/// `>= 1.0` means at least as good. Values at (or below) zero are
/// clamped to an epsilon so "idle fraction 0.0" baselines cannot divide
/// by zero — a fresh zero against a zero baseline reads as 1.0.
pub fn goodness_ratio(baseline: f64, fresh: f64, direction: Direction) -> f64 {
    const EPS: f64 = 1e-9;
    let (b, f) = (baseline.max(EPS), fresh.max(EPS));
    match direction {
        Direction::HigherIsBetter => f / b,
        Direction::LowerIsBetter => b / f,
    }
}

/// Compare the reports in `fresh_dir` against those in `baseline_dir`
/// over `specs`. A missing file or metric on either side fails that row
/// (the gate must not silently pass because a bench stopped emitting a
/// number).
pub fn run_gate(baseline_dir: &Path, fresh_dir: &Path, specs: &[MetricSpec]) -> GateReport {
    let mut cache: BTreeMap<(bool, &'static str), Option<Json>> = BTreeMap::new();
    let mut load = |fresh: bool, file: &'static str| -> Option<Json> {
        cache
            .entry((fresh, file))
            .or_insert_with(|| {
                let dir = if fresh { fresh_dir } else { baseline_dir };
                std::fs::read_to_string(dir.join(file))
                    .ok()
                    .and_then(|text| Json::parse(&text).ok())
            })
            .clone()
    };
    let rows = specs
        .iter()
        .map(|spec| {
            let baseline = load(false, spec.file).and_then(|j| number_at_path(&j, spec.path));
            let fresh = load(true, spec.file).and_then(|j| number_at_path(&j, spec.path));
            let ratio = baseline
                .zip(fresh)
                .map(|(b, f)| goodness_ratio(b, f, spec.direction));
            let (ok, tolerance) = match spec.bound {
                Bound::Ratio => (
                    ratio.is_some_and(|r| r >= MIN_RATIO),
                    format!("ratio >= {MIN_RATIO:.2}"),
                ),
                Bound::AtLeast(floor) => {
                    (fresh.is_some_and(|f| f >= floor), format!("abs >= {floor}"))
                }
                Bound::AtMost(ceiling) => (
                    fresh.is_some_and(|f| f <= ceiling),
                    format!("abs <= {ceiling}"),
                ),
            };
            GateRow {
                label: spec.label,
                baseline,
                fresh,
                ratio,
                ok,
                tolerance,
            }
        })
        .collect();
    GateReport { rows }
}

/// Validate the fresh reports in `fresh_dir` and install them as the
/// new baseline in `baseline_dir` — the intentional-refresh path
/// (`bench-gate --write-baseline`). Every gated file must parse and
/// every gated metric must resolve to a number *before* anything is
/// copied, so a half-emitted report can never become the baseline.
/// Returns the files installed, in name order.
///
/// # Errors
///
/// Returns a description of every unreadable/unparseable report or
/// unresolvable metric; `baseline_dir` is left untouched on any error.
pub fn write_baseline(
    fresh_dir: &Path,
    baseline_dir: &Path,
    specs: &[MetricSpec],
) -> Result<Vec<&'static str>, String> {
    let mut files: Vec<&'static str> = specs.iter().map(|s| s.file).collect();
    files.sort_unstable();
    files.dedup();
    let mut problems = Vec::new();
    let mut parsed: BTreeMap<&'static str, Json> = BTreeMap::new();
    for file in &files {
        match std::fs::read_to_string(fresh_dir.join(file)) {
            Ok(text) => match Json::parse(&text) {
                Ok(json) => {
                    parsed.insert(file, json);
                }
                Err(why) => problems.push(format!("{file}: does not parse ({why})")),
            },
            Err(why) => problems.push(format!("{file}: unreadable ({why})")),
        }
    }
    for spec in specs {
        if let Some(json) = parsed.get(spec.file) {
            if number_at_path(json, spec.path).is_none() {
                problems.push(format!(
                    "{}: gated metric '{}' does not resolve to a number",
                    spec.file, spec.path
                ));
            }
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    std::fs::create_dir_all(baseline_dir)
        .map_err(|e| format!("create {}: {e}", baseline_dir.display()))?;
    for file in &files {
        std::fs::copy(fresh_dir.join(file), baseline_dir.join(file))
            .map_err(|e| format!("install {file}: {e}"))?;
    }
    Ok(files)
}

/// The negative self-test: run the gate over a synthetic baseline and a
/// deliberately regressed fresh report, and verify the gate **fails**
/// (plus a control where the fresh report improved, which must pass).
/// Returns an error description if the gate misbehaves either way.
///
/// # Errors
///
/// Returns `Err` when the gate passes a regression or fails an
/// improvement — either means the gate is broken and CI must go red.
pub fn self_test() -> Result<(), String> {
    let specs = vec![
        MetricSpec {
            file: "BENCH_SELFTEST.json",
            path: "policies.best.goodput",
            label: "selftest goodput",
            bound: Bound::Ratio,
            direction: Direction::HigherIsBetter,
        },
        MetricSpec {
            file: "BENCH_SELFTEST.json",
            path: "idle_fraction",
            label: "selftest idle fraction",
            bound: Bound::AtMost(0.15),
            direction: Direction::LowerIsBetter,
        },
    ];
    let dir = std::env::temp_dir().join(format!("ftts-bench-gate-selftest-{}", std::process::id()));
    let (base_dir, good_dir, bad_dir) = (dir.join("base"), dir.join("good"), dir.join("bad"));
    for d in [&base_dir, &good_dir, &bad_dir] {
        std::fs::create_dir_all(d).map_err(|e| e.to_string())?;
    }
    let report = |goodput: f64, idle: f64| {
        format!(
            r#"{{ "policies": {{ "best": {{ "goodput": {goodput} }} }}, "idle_fraction": {idle} }}"#
        )
    };
    let write = |dir: &Path, text: &str| {
        std::fs::write(dir.join("BENCH_SELFTEST.json"), text).map_err(|e| e.to_string())
    };
    write(&base_dir, &report(1000.0, 0.10))?;
    write(&good_dir, &report(1010.0, 0.09))?; // mild improvement
                                              // 30% goodput regression AND the idle fraction blowing through its
                                              // absolute ceiling — both tolerance kinds must trip.
    write(&bad_dir, &report(700.0, 0.50))?;
    let good = run_gate(&base_dir, &good_dir, &specs);
    let bad = run_gate(&base_dir, &bad_dir, &specs);
    let _ = std::fs::remove_dir_all(&dir);
    if !good.passed() {
        return Err(format!(
            "gate failed an improved report:\n{}",
            good.to_markdown()
        ));
    }
    if bad.rows.iter().any(|r| r.ok) {
        return Err(format!(
            "both the ratio and the absolute tolerance must trip:\n{}",
            bad.to_markdown()
        ));
    }
    if bad.passed() {
        return Err(format!(
            "gate passed a 30% goodput regression:\n{}",
            bad.to_markdown()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_shapes() {
        let j =
            Json::parse(r#"{ "a": { "b": [1, 2.5, -3e2] }, "s": "x\n", "t": true, "n": null }"#)
                .expect("parse");
        assert_eq!(number_at_path(&j, "a.b"), None, "arrays are not numbers");
        assert_eq!(
            at_path(&j, "a.b"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::Number(-300.0),
            ]))
        );
        assert_eq!(at_path(&j, "s"), Some(&Json::String("x\n".to_string())));
        assert_eq!(at_path(&j, "t"), Some(&Json::Bool(true)));
        assert_eq!(at_path(&j, "n"), Some(&Json::Null));
        assert_eq!(at_path(&j, "a.b.c"), None, "paths stop at non-objects");
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    /// The repo root, where the committed reports live.
    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every committed `BENCH_PR*.json`, discovered on disk, sorted.
    fn committed_reports() -> Vec<String> {
        let mut reports: Vec<String> = std::fs::read_dir(repo_root())
            .expect("repo root is readable")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf8 name")
            })
            .filter(|n| n.starts_with("BENCH_PR") && n.ends_with(".json"))
            .collect();
        reports.sort();
        reports
    }

    #[test]
    fn parses_the_real_reports() {
        // Every committed baseline must parse, and every gated path must
        // resolve to a number in it.
        let specs = default_specs();
        for file in committed_reports() {
            let text = std::fs::read_to_string(repo_root().join(&file)).expect("baseline exists");
            let json = Json::parse(&text).expect("baseline parses");
            assert!(at_path(&json, "bench").is_some(), "{file} names its bench");
            for spec in specs.iter().filter(|s| s.file == file) {
                assert!(
                    number_at_path(&json, spec.path).is_some(),
                    "{file}: gated path '{}' is not a number",
                    spec.path
                );
            }
        }
    }

    #[test]
    fn goodness_ratio_normalizes_direction() {
        assert!((goodness_ratio(100.0, 110.0, Direction::HigherIsBetter) - 1.1).abs() < 1e-12);
        assert!((goodness_ratio(0.2, 0.1, Direction::LowerIsBetter) - 2.0).abs() < 1e-12);
        // Zero-against-zero reads as unchanged, not a crash.
        assert!((goodness_ratio(0.0, 0.0, Direction::LowerIsBetter) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_metrics_fail_the_gate() {
        let dir = std::env::temp_dir().join(format!("ftts-gate-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let specs = vec![MetricSpec {
            file: "BENCH_NOPE.json",
            path: "x",
            label: "missing",
            bound: Bound::Ratio,
            direction: Direction::HigherIsBetter,
        }];
        let report = run_gate(&dir, &dir, &specs);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!report.passed(), "a vanished metric must not pass silently");
        assert!(report.to_markdown().contains("missing"));
    }

    #[test]
    fn write_baseline_validates_before_installing() {
        let dir = std::env::temp_dir().join(format!("ftts-gate-wb-{}", std::process::id()));
        let (fresh, base) = (dir.join("fresh"), dir.join("base"));
        std::fs::create_dir_all(&fresh).unwrap();
        let specs = vec![MetricSpec {
            file: "BENCH_WB.json",
            path: "policies.best.goodput",
            label: "wb goodput",
            bound: Bound::Ratio,
            direction: Direction::HigherIsBetter,
        }];
        // A report whose gated metric is missing must refuse to install.
        std::fs::write(fresh.join("BENCH_WB.json"), r#"{ "policies": {} }"#).unwrap();
        let err = write_baseline(&fresh, &base, &specs).expect_err("missing metric refuses");
        assert!(err.contains("does not resolve"), "{err}");
        assert!(!base.exists(), "nothing installed on refusal");
        // A complete report installs and round-trips through the gate.
        std::fs::write(
            fresh.join("BENCH_WB.json"),
            r#"{ "policies": { "best": { "goodput": 123.0 } } }"#,
        )
        .unwrap();
        let installed = write_baseline(&fresh, &base, &specs).expect("valid report installs");
        assert_eq!(installed, vec!["BENCH_WB.json"]);
        let report = run_gate(&base, &fresh, &specs);
        assert!(report.passed(), "fresh vs just-written baseline is 1.0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthetic_regression_fails_and_improvement_passes() {
        // The negative test the ISSUE requires: the gate must go red on
        // a synthetic regression (and green on an improvement).
        self_test().expect("gate distinguishes regression from improvement");
    }

    #[test]
    fn default_specs_cover_every_bench_report() {
        // Discover the committed reports instead of hand-maintaining a
        // list: any `BENCH_PR*.json` landing in the repo root without a
        // gated metric fails this test until a spec is added.
        let specs = default_specs();
        let reports = committed_reports();
        assert!(
            reports.len() >= 8,
            "the committed BENCH_PR*.json baselines must be present (found {reports:?})"
        );
        for file in &reports {
            assert!(
                specs.iter().any(|s| s.file == file),
                "{file} must have at least one gated metric in default_specs()"
            );
        }
        // And the converse: every gated file is a report that exists,
        // so a renamed bench cannot leave a stale spec behind.
        for spec in &specs {
            assert!(
                reports.iter().any(|f| f == spec.file),
                "spec '{}' gates {}, which is not a committed report",
                spec.label,
                spec.file
            );
        }
    }
}
