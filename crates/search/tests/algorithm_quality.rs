//! Cross-algorithm quality checks reproducing the *shape* of the paper's
//! motivation study (Fig. 3 left): verifier-guided tree search beats
//! Best-of-N in accuracy, and search structure affects latency.

use ftts_engine::{Engine, EngineConfig, FifoOrder, ModelPairing, StaticSplitPlanner};
use ftts_hw::GpuDevice;
use ftts_metrics::pass_at_n;
use ftts_search::{make_driver, SearchKind};
use ftts_workload::Dataset;

struct Eval {
    accuracy: f64,
    mean_latency: f64,
    pass_at_4: f64,
}

fn evaluate(kind: SearchKind, dataset: Dataset, n_problems: usize, n: usize) -> Eval {
    let mut correct = 0usize;
    let mut pass4 = 0usize;
    let mut latency = 0.0;
    for problem in dataset.problems(n_problems, 77) {
        let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_7b());
        let mut eng = Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner));
        let mut driver = make_driver(kind, n);
        let stats = eng.run(&problem, n, driver.as_mut()).unwrap();
        if stats.top1_correct() {
            correct += 1;
        }
        if pass_at_n(&stats.candidates(), 4) {
            pass4 += 1;
        }
        latency += stats.latency();
    }
    Eval {
        accuracy: correct as f64 / n_problems as f64,
        mean_latency: latency / n_problems as f64,
        pass_at_4: pass4 as f64 / n_problems as f64,
    }
}

#[test]
fn verifier_guided_search_beats_best_of_n() {
    let problems = 40;
    let bon = evaluate(SearchKind::BestOfN, Dataset::Math500, problems, 16);
    let beam = evaluate(SearchKind::BeamSearch, Dataset::Math500, problems, 16);
    let dvts = evaluate(SearchKind::Dvts, Dataset::Math500, problems, 16);
    // Fig. 3 (left): BoN trails the verifier-guided methods.
    assert!(
        beam.accuracy > bon.accuracy,
        "beam {} must beat BoN {}",
        beam.accuracy,
        bon.accuracy
    );
    assert!(
        dvts.accuracy > bon.accuracy,
        "DVTS {} must beat BoN {}",
        dvts.accuracy,
        bon.accuracy
    );
    // BoN skips intermediate verification, so it is fastest.
    assert!(bon.mean_latency < beam.mean_latency);
}

#[test]
fn pass_at_n_exceeds_top1_everywhere() {
    let beam = evaluate(SearchKind::BeamSearch, Dataset::Math500, 30, 16);
    assert!(
        beam.pass_at_4 >= beam.accuracy,
        "pass@4 is a weaker criterion"
    );
}

#[test]
fn all_algorithms_complete_on_all_datasets() {
    for kind in SearchKind::all() {
        for dataset in [Dataset::Aime2024, Dataset::HumanEval] {
            let problem = dataset.problems(1, 5)[0];
            let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
            let mut eng = Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner));
            let mut driver = make_driver(kind, 8);
            let stats = eng.run(&problem, 8, driver.as_mut()).unwrap();
            assert!(
                !stats.beams.is_empty(),
                "{kind} on {dataset} produced no beams"
            );
            assert!(stats.latency() > 0.0);
        }
    }
}

#[test]
fn harder_dataset_scores_lower() {
    let amc = evaluate(SearchKind::BeamSearch, Dataset::Amc2023, 30, 16);
    let aime = evaluate(SearchKind::BeamSearch, Dataset::Aime2024, 30, 16);
    assert!(
        amc.accuracy > aime.accuracy,
        "AMC {} should be easier than AIME {}",
        amc.accuracy,
        aime.accuracy
    );
}
