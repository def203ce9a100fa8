//! Ignored-by-default probe that prints accuracy calibration numbers.
//! Run with: cargo test -p ftts-search --test calibration_probe -- --ignored --nocapture

use ftts_engine::{Engine, EngineConfig, FifoOrder, ModelPairing, StaticSplitPlanner};
use ftts_hw::GpuDevice;
use ftts_metrics::pass_at_n;
use ftts_search::{make_driver, SearchKind};
use ftts_workload::Dataset;

fn probe(pairing: ModelPairing, dataset: Dataset, kind: SearchKind, n: usize, problems: usize) {
    let mut top1 = 0usize;
    let mut path_correct = 0usize;
    let mut paths = 0usize;
    let mut p1 = 0usize;
    let mut p4 = 0usize;
    let mut latency = 0.0;
    for problem in dataset.problems(problems, 123) {
        let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), pairing.clone());
        let mut eng = Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner));
        let mut driver = make_driver(kind, n);
        let stats = eng.run(&problem, n, driver.as_mut()).unwrap();
        if stats.top1_correct() {
            top1 += 1;
        }
        path_correct += stats.beams.iter().filter(|b| b.correct).count();
        paths += stats.beams.len();
        if pass_at_n(&stats.candidates(), 1) {
            p1 += 1;
        }
        if pass_at_n(&stats.candidates(), 4) {
            p4 += 1;
        }
        latency += stats.latency();
    }
    println!(
        "{:<22} {:<10} {:<18} n={:<4} top1={:.2} path={:.3} pass@1={:.2} pass@4={:.2} lat={:.1}s",
        pairing.label(),
        dataset.label(),
        kind.label(),
        n,
        top1 as f64 / problems as f64,
        path_correct as f64 / paths.max(1) as f64,
        p1 as f64 / problems as f64,
        p4 as f64 / problems as f64,
        latency / problems as f64,
    );
}

#[test]
#[ignore = "calibration probe; run manually with --nocapture"]
fn print_calibration() {
    for pairing in [
        ModelPairing::pair_1_5b_1_5b(),
        ModelPairing::pair_1_5b_7b(),
        ModelPairing::pair_7b_1_5b(),
    ] {
        for dataset in [Dataset::Aime2024, Dataset::Amc2023] {
            probe(pairing.clone(), dataset, SearchKind::BeamSearch, 16, 30);
        }
    }
    for kind in [
        SearchKind::BestOfN,
        SearchKind::BeamSearch,
        SearchKind::Dvts,
    ] {
        probe(ModelPairing::pair_1_5b_7b(), Dataset::Math500, kind, 16, 30);
    }
    for kind in [
        SearchKind::BestOfN,
        SearchKind::BeamSearch,
        SearchKind::Dvts,
    ] {
        probe(ModelPairing::pair_1_5b_7b(), Dataset::Math500, kind, 64, 30);
    }
}
