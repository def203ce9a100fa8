//! Shared helpers for the figure-regeneration benches.
//!
//! Every figure in the paper's evaluation has a `[[bench]]` target in
//! this crate (`harness = false`), so `cargo bench --workspace`
//! regenerates the full evaluation as printed tables. EXPERIMENTS.md
//! records the paper-vs-measured comparison. The PR benches build their
//! `BENCH_PR*.json` reports as [`Json`] values and save them with
//! [`write_report`]; the [`gate`] module (and the `bench-gate` binary)
//! compares freshly emitted reports against committed baselines so CI
//! catches cross-PR regressions of earlier wins.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use std::path::Path;

use criterion::SampleStats;
use ftts_core::{AblationFlags, ServeOutcome, TtsServer};
use ftts_engine::{EngineError, ModelPairing};
use ftts_hw::GpuDevice;
use ftts_model::ProblemSpec;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::Dataset;

/// The paper's three generator+verifier configurations (Sec. 6.1).
pub fn pairings() -> [ModelPairing; 3] {
    [
        ModelPairing::pair_1_5b_1_5b(),
        ModelPairing::pair_1_5b_7b(),
        ModelPairing::pair_7b_1_5b(),
    ]
}

/// Memory fraction per pairing, following the paper: 0.9 for the
/// throughput-limit settings, 0.4 for the memory-constrained 1.5B+1.5B.
pub fn memory_fraction(pairing: &ModelPairing) -> f64 {
    if pairing.label() == "1.5B+1.5B" {
        0.4
    } else {
        0.9
    }
}

/// Baseline and FastTTS servers on a device, with the paper's memory
/// fractions applied.
pub fn server_pair(device: GpuDevice, pairing: ModelPairing) -> (TtsServer, TtsServer) {
    let frac = memory_fraction(&pairing);
    let mut base = TtsServer::vllm_baseline(device.clone(), pairing.clone());
    base.config_mut().memory_fraction = frac;
    let mut fast = TtsServer::fasttts(device, pairing);
    fast.config_mut().memory_fraction = frac;
    (base, fast)
}

/// Server with explicit ablation flags and memory fraction.
pub fn server_with(
    device: GpuDevice,
    pairing: ModelPairing,
    flags: AblationFlags,
    frac: f64,
) -> TtsServer {
    let mut s = TtsServer::with_flags(device, pairing, flags);
    s.config_mut().memory_fraction = frac;
    s
}

/// Mean goodput and latency of a server over `problems`.
///
/// # Errors
///
/// Propagates the first engine error.
pub fn run_set(
    server: &TtsServer,
    problems: &[ProblemSpec],
    n: usize,
    kind: SearchKind,
) -> Result<(f64, f64, Vec<ServeOutcome>), EngineError> {
    let mut goodput = 0.0;
    let mut latency = 0.0;
    let mut outs = Vec::with_capacity(problems.len());
    for p in problems {
        let o = server.serve(p, n, kind)?;
        goodput += o.goodput();
        latency += o.latency();
        outs.push(o);
    }
    let k = problems.len().max(1) as f64;
    Ok((goodput / k, latency / k, outs))
}

/// Problem-count schedule: fewer problems at larger `n` to bound bench
/// wall-time while keeping small-n points statistically steadier.
pub fn problems_for(dataset: Dataset, n: usize, seed: u64) -> Vec<ProblemSpec> {
    let count = match n {
        0..=16 => 4,
        17..=64 => 3,
        65..=256 => 2,
        _ => 1,
    };
    dataset.problems(count, seed)
}

/// The standard `n` grid used by the sweep figures.
pub fn n_grid() -> [usize; 4] {
    [8, 32, 128, 512]
}

/// Format a speedup like `1.84x`.
pub fn speedup(fast: f64, base: f64) -> String {
    if base <= 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", fast / base)
    }
}

/// A wall-clock sample distribution as a report object.
pub fn wall(stats: &SampleStats) -> Json {
    Json::object([
        ("samples", stats.n.into()),
        ("outliers_rejected", stats.outliers_rejected.into()),
        ("mean_s", stats.mean_seconds.into()),
        ("min_s", stats.min_seconds.into()),
        ("variance_s2", stats.variance_seconds2.into()),
        ("p50_s", stats.p50_seconds.into()),
        ("p99_s", stats.p99_seconds.into()),
    ])
}

/// Write `report` pretty-printed to `file` at the repository root, where
/// `bench-gate` reads the committed baselines.
///
/// # Panics
///
/// Panics when the text does not read back as `report` (a non-finite
/// number prints as `null`) or the file cannot be written.
pub fn write_report(file: &str, report: &Json) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = format!("{report:#}\n");
    assert_eq!(
        Json::parse(&text).as_ref(),
        Ok(report),
        "{file} must read back as written"
    );
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairings_cover_the_paper_matrix() {
        let labels: Vec<String> = pairings().iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["1.5B+1.5B", "1.5B+7B", "7B+1.5B"]);
    }

    #[test]
    fn memory_fractions_follow_the_paper() {
        assert_eq!(memory_fraction(&ModelPairing::pair_1_5b_1_5b()), 0.4);
        assert_eq!(memory_fraction(&ModelPairing::pair_1_5b_7b()), 0.9);
    }

    #[test]
    fn problem_schedule_shrinks_with_n() {
        assert!(
            problems_for(Dataset::Aime2024, 8, 1).len()
                > problems_for(Dataset::Aime2024, 512, 1).len()
        );
    }

    #[test]
    fn speedup_formats() {
        assert_eq!(speedup(2.0, 1.0), "2.00x");
        assert_eq!(speedup(1.0, 0.0), "n/a");
    }
}
