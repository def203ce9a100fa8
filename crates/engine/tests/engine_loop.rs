//! End-to-end tests of the serving loop with a minimal beam-search driver.

use ftts_engine::{
    Engine, EngineConfig, FifoOrder, ModelPairing, RunStats, ScoredBeam, SearchDriver, SelectCtx,
    SpecConfig, StaticSplitPlanner, StepStatus, Wait,
};
use ftts_hw::GpuDevice;
use ftts_workload::Dataset;

/// Plain beam search: keep the top n/B beams, expand each into B children.
#[derive(Clone)]
struct PlainBeam {
    n: usize,
    b: usize,
}

impl SearchDriver for PlainBeam {
    fn branching(&self) -> usize {
        self.b
    }

    fn select(
        &mut self,
        frontier: &[ScoredBeam],
        _ctx: &SelectCtx,
    ) -> Vec<(ftts_engine::BeamId, usize)> {
        let mut ranked: Vec<&ScoredBeam> = frontier.iter().collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let keep = (self.n / self.b).max(1).min(ranked.len());
        ranked[..keep].iter().map(|s| (s.id, self.b)).collect()
    }
}

fn engine(spec: SpecConfig, fraction: f64, seed: u64, trace: bool) -> Engine {
    let mut cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    cfg.spec = spec;
    // LookAhead piggybacks on the verifier's cross-iteration cache.
    cfg.ver_prefix_caching = spec.enabled;
    cfg.memory_fraction = fraction;
    cfg.seed = seed;
    cfg.trace = trace;
    Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner))
}

fn problem(idx: usize) -> ftts_model::ProblemSpec {
    Dataset::Aime2024.problems(idx + 1, 42)[idx]
}

#[test]
fn run_completes_and_records_outcomes() {
    let mut eng = engine(SpecConfig::disabled(), 0.9, 1, false);
    let mut driver = PlainBeam { n: 16, b: 4 };
    let stats = eng.run(&problem(0), 16, &mut driver).unwrap();
    assert!(!stats.beams.is_empty(), "some beams must complete");
    assert!(stats.latency() > 0.0);
    assert!(stats.goodput() > 0.0);
    assert!(stats.iterations > 0);
    assert!(stats.decoded_tokens > 0);
    assert!(stats.verified_tokens > 0);
    // Generator and verifier both contribute latency.
    assert!(stats.breakdown().generator > 0.0);
    assert!(stats.breakdown().verifier > 0.0);
}

#[test]
fn runs_are_deterministic() {
    let collect = || {
        let mut eng = engine(SpecConfig::disabled(), 0.9, 7, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        eng.run(&problem(1), 8, &mut driver).unwrap()
    };
    let a = collect();
    let b = collect();
    assert_eq!(a.beams.len(), b.beams.len());
    assert_eq!(a.latency(), b.latency());
    for (x, y) in a.beams.iter().zip(&b.beams) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.score, y.score);
    }
}

#[test]
fn speculation_preserves_the_reasoning_tree_exactly() {
    // The central algorithmic-equivalence property (paper Sec. 4.1):
    // identical selected paths, answers and scores; only timing differs.
    let run = |spec: SpecConfig| {
        let mut eng = engine(spec, 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(2), 16, &mut driver).unwrap()
    };
    let base = run(SpecConfig::disabled());
    let fast = run(SpecConfig::fasttts_default());
    assert_eq!(base.beams.len(), fast.beams.len());
    for (x, y) in base.beams.iter().zip(&fast.beams) {
        assert_eq!(x.tokens, y.tokens, "path lengths must match");
        assert_eq!(x.answer, y.answer, "answers must match");
        assert_eq!(x.score, y.score, "scores must match");
    }
    assert!(fast.spec.spec_tokens > 0, "speculation must have happened");
    assert!(
        fast.latency() < base.latency(),
        "speculation should reduce latency: {} vs {}",
        fast.latency(),
        base.latency()
    );
}

#[test]
fn lookahead_skips_verifications() {
    let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 3, false);
    let mut driver = PlainBeam { n: 32, b: 4 };
    let stats = eng.run(&problem(0), 32, &mut driver).unwrap();
    assert!(
        stats.spec.lookahead_hits > 0,
        "some steps should be pre-verified"
    );
}

#[test]
fn memory_pressure_causes_evictions_but_completes() {
    let mut eng = engine(SpecConfig::disabled(), 0.32, 5, false);
    let mut driver = PlainBeam { n: 64, b: 4 };
    let stats = eng.run(&problem(0), 64, &mut driver).unwrap();
    assert!(
        stats.gen_cache.evicted_blocks > 0,
        "64 beams at 40% memory must evict"
    );
    assert!(
        stats.breakdown().recompute > 0.0,
        "evictions cost recompute time"
    );
    assert!(!stats.beams.is_empty());
}

#[test]
fn preemption_deadline_disables_speculation() {
    let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 3, false);
    let mut driver = PlainBeam { n: 16, b: 4 };
    let stats = eng
        .run_with_deadline(&problem(0), 16, &mut driver, 0.0)
        .unwrap();
    assert_eq!(
        stats.spec.spec_tokens, 0,
        "deadline at t=0 forbids all speculation"
    );
}

#[test]
fn trace_records_both_phases() {
    let mut eng = engine(SpecConfig::disabled(), 0.9, 1, true);
    let mut driver = PlainBeam { n: 8, b: 4 };
    let stats = eng.run(&problem(0), 8, &mut driver).unwrap();
    let trace = stats.trace.expect("trace enabled");
    assert!(!trace.is_empty());
    assert!(trace.phase_seconds(ftts_hw::Phase::Generation) > 0.0);
    assert!(trace.phase_seconds(ftts_hw::Phase::Verification) > 0.0);
    // Prefill (verification) achieves higher compute utilization than
    // bandwidth-bound decode — the contrast of Fig. 4.
    let gen_util = trace.mean_util(Some(ftts_hw::Phase::Generation));
    let ver_util = trace.mean_util(Some(ftts_hw::Phase::Verification));
    assert!(
        ver_util > gen_util,
        "verify {ver_util} vs generate {gen_util}"
    );
}

/// The traced run of `trace_records_both_phases`, frozen bit for bit:
/// an FNV-1a-64 hash over every sample's start, duration and
/// utilization (their `to_bits`) and phase. Untraced runs skip the
/// utilization of a decode chunk, so this pins what traced runs record.
#[test]
fn traced_run_samples_are_frozen() {
    let mut eng = engine(SpecConfig::disabled(), 0.9, 1, true);
    let mut driver = PlainBeam { n: 8, b: 4 };
    let stats = eng.run(&problem(0), 8, &mut driver).unwrap();
    let trace = stats.trace.expect("trace enabled");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in trace.samples() {
        mix(s.start.to_bits());
        mix(s.duration.to_bits());
        mix(s.util.to_bits());
        mix(u64::from(s.phase == ftts_hw::Phase::Verification));
    }
    assert_eq!(
        (trace.len(), format!("{hash:016x}")),
        (100, "22952efc53a43bd0".to_string()),
        "traced samples changed"
    );
}

#[test]
fn larger_n_generates_more_tokens() {
    let run_tokens = |n: usize| {
        let mut eng = engine(SpecConfig::disabled(), 0.9, 1, false);
        let mut driver = PlainBeam { n, b: 4 };
        eng.run(&problem(3), n, &mut driver).unwrap().decoded_tokens
    };
    assert!(run_tokens(32) > 2 * run_tokens(8));
}

fn assert_stats_identical(a: &RunStats, b: &RunStats) {
    assert_eq!(a.latency(), b.latency());
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.decoded_tokens, b.decoded_tokens);
    assert_eq!(a.verified_tokens, b.verified_tokens);
    assert_eq!(a.gen_cache, b.gen_cache);
    assert_eq!(a.ver_cache, b.ver_cache);
    assert_eq!(a.beams.len(), b.beams.len());
    for (x, y) in a.beams.iter().zip(&b.beams) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.completion_time, y.completion_time);
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.score, y.score);
    }
}

#[test]
fn stepped_run_matches_one_shot_run() {
    // `Engine::begin` + `step` loop is the same state machine `run`
    // drives; decomposing it must not change a single bit.
    let one_shot = {
        let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(2), 16, &mut driver).unwrap()
    };
    let stepped = {
        let eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng.begin(&problem(2), 16, &mut driver, None, None).unwrap();
        let mut steps = 0u32;
        while run.step(&mut driver).unwrap() == StepStatus::Running {
            steps += 1;
        }
        assert!(steps > 0, "multi-iteration request");
        assert!(run.is_finished());
        run.finish()
    };
    assert_stats_identical(&one_shot, &stepped);
}

#[test]
fn split_phases_match_step_bit_for_bit() {
    // `step` is a wrapper over plan_iteration / take_verify_batch /
    // apply_verify_results with solo-costed sweeps; driving the phases
    // explicitly (as a cross-request scheduler does) must not change a
    // single bit.
    use ftts_engine::{VerifyCharge, VerifyChunk};
    let stepped = {
        let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(2), 16, &mut driver).unwrap()
    };
    let phased = {
        let eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng.begin(&problem(2), 16, &mut driver, None, None).unwrap();
        let mut sweeps = 0usize;
        while !run.is_finished() {
            if run.plan_iteration(&mut driver).unwrap().is_finished() {
                break;
            }
            let chunks: Vec<VerifyChunk> = run.take_verify_batch().to_vec();
            let charges: Vec<VerifyCharge> = chunks
                .iter()
                .map(|c| VerifyCharge::full(&c.solo_cost(run.verifier_roofline())))
                .collect();
            sweeps += charges.len();
            if run
                .apply_verify_results(&mut driver, &charges)
                .unwrap()
                .is_finished()
            {
                break;
            }
        }
        assert!(sweeps > 0, "the request actually verified something");
        run.finish()
    };
    assert_stats_identical(&stepped, &phased);
    assert_eq!(stepped.ver_sweeps, phased.ver_sweeps);
    assert_eq!(stepped.completion.breakdown, phased.completion.breakdown);
}

#[test]
fn split_phases_are_reentrant_across_out_of_order_costing() {
    // An event-driven scheduler interleaves the split phases of
    // different requests in launch order, not admission order: request
    // B may plan, cost and commit a whole iteration while request A
    // sits between its own plan and commit. Each run owns its phase
    // position, so any interleaving must leave both runs bit-identical
    // to stepping them alone.
    use ftts_engine::{RunPhase, VerifyCharge, VerifyChunk};
    let solo = |seed_problem: usize| {
        let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        eng.run(&problem(seed_problem), 8, &mut driver).unwrap()
    };
    let (solo_a, solo_b) = (solo(2), solo(5));

    let mut driver_a = PlainBeam { n: 8, b: 4 };
    let mut driver_b = PlainBeam { n: 8, b: 4 };
    let mut run_a = engine(SpecConfig::fasttts_default(), 0.9, 11, false)
        .begin(&problem(2), 8, &mut driver_a, None, None)
        .unwrap();
    let mut run_b = engine(SpecConfig::fasttts_default(), 0.9, 11, false)
        .begin(&problem(5), 8, &mut driver_b, None, None)
        .unwrap();
    let cost_and_commit = |run: &mut ftts_engine::RequestRun, driver: &mut PlainBeam| {
        let chunks: Vec<VerifyChunk> = run.take_verify_batch().to_vec();
        let charges: Vec<VerifyCharge> = chunks
            .iter()
            .map(|c| VerifyCharge::full(&c.solo_cost(run.verifier_roofline())))
            .collect();
        run.apply_verify_results(driver, &charges).unwrap();
    };
    let mut interleaved = 0u32;
    while !(run_a.is_finished() && run_b.is_finished()) {
        // A plans, then B runs 1-2 complete iterations *inside* A's
        // open iteration, then A finishes costing — out-of-order
        // costing across requests.
        let a_open =
            !run_a.is_finished() && !run_a.plan_iteration(&mut driver_a).unwrap().is_finished();
        if a_open {
            assert_eq!(run_a.run_phase(), RunPhase::Generated);
        }
        for _ in 0..2 {
            if !run_b.is_finished() && !run_b.plan_iteration(&mut driver_b).unwrap().is_finished() {
                cost_and_commit(&mut run_b, &mut driver_b);
                assert_eq!(run_b.run_phase(), RunPhase::Ready);
            }
        }
        if a_open {
            cost_and_commit(&mut run_a, &mut driver_a);
            interleaved += 1;
        }
    }
    assert!(interleaved > 0, "iterations actually interleaved");
    assert_stats_identical(&solo_a, &run_a.finish());
    assert_stats_identical(&solo_b, &run_b.finish());
}

#[test]
fn first_finish_cut_prunes_siblings_and_finishes_early() {
    let full = {
        let mut eng = engine(SpecConfig::disabled(), 0.9, 5, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(0), 16, &mut driver).unwrap()
    };
    let cut = {
        let eng = engine(SpecConfig::disabled(), 0.9, 5, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng.begin(&problem(0), 16, &mut driver, None, None).unwrap();
        while !run.is_finished() {
            run.step(&mut driver).unwrap();
            // Bar 0.0: cut as soon as the first verified beam completes.
            if !run.is_finished() && run.first_finish_cut(0.0) {
                break;
            }
        }
        run.finish()
    };
    assert!(!cut.beams.is_empty(), "the accepted beam survives the cut");
    assert!(
        cut.beams.len() < full.beams.len(),
        "siblings were cancelled: {} vs {}",
        cut.beams.len(),
        full.beams.len()
    );
    assert_eq!(cut.first_finish_cuts, 1);
    assert_eq!(full.first_finish_cuts, 0, "non-opted runs never cut");
    assert!(
        cut.latency() < full.latency(),
        "cutting siblings finishes the request early"
    );
    // The beams that did complete are the same beams the full run
    // completed first — the cut cancels futures, never rewrites pasts.
    for (c, f) in cut.beams.iter().zip(&full.beams) {
        assert_eq!(c.tokens, f.tokens);
        assert_eq!(c.answer, f.answer);
        assert_eq!(c.score, f.score);
    }
}

#[test]
fn interleaved_requests_share_no_state() {
    // Two requests served step-by-step by interleaving on one simulated
    // device: each run owns its Scratch, caches and policy state, so
    // interleaving must reproduce the isolated runs exactly — no
    // cross-request leakage through recycled containers.
    let standalone = |idx: usize, seed: u64| {
        let mut eng = engine(SpecConfig::disabled(), 0.9, seed, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        eng.run(&problem(idx), 8, &mut driver).unwrap()
    };
    let solo_a = standalone(0, 5);
    let solo_b = standalone(1, 6);

    let mut driver_a = PlainBeam { n: 8, b: 4 };
    let mut driver_b = PlainBeam { n: 8, b: 4 };
    let mut run_a = engine(SpecConfig::disabled(), 0.9, 5, false)
        .begin(&problem(0), 8, &mut driver_a, None, None)
        .unwrap();
    let mut run_b = engine(SpecConfig::disabled(), 0.9, 6, false)
        .begin(&problem(1), 8, &mut driver_b, None, None)
        .unwrap();
    let mut interleaves = 0u32;
    while !(run_a.is_finished() && run_b.is_finished()) {
        if !run_a.is_finished() {
            run_a.step(&mut driver_a).unwrap();
        }
        if !run_b.is_finished() {
            run_b.step(&mut driver_b).unwrap();
            interleaves += 1;
        }
    }
    assert!(interleaves > 1, "the runs actually interleaved");
    assert_stats_identical(&solo_a, &run_a.finish());
    assert_stats_identical(&solo_b, &run_b.finish());
}

#[test]
fn co_batched_decode_amortizes_the_weight_sweep() {
    // With co-resident sequences declared, a step takes longer on its
    // own clock (bigger combined batch) but far less than two isolated
    // requests run back to back — the continuous-batching win.
    let run_with_co = |co: usize| {
        let eng = engine(SpecConfig::disabled(), 0.9, 3, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        let mut run = eng.begin(&problem(0), 8, &mut driver, None, None).unwrap();
        while !run.is_finished() {
            let (seqs, ctx) = run.decode_load();
            run.set_co_batch(co * seqs.max(1), co as u64 * ctx);
            run.step(&mut driver).unwrap();
        }
        run.finish().latency()
    };
    let alone = run_with_co(0);
    let shared = run_with_co(1);
    assert!(shared > alone, "co-batching costs some per-request latency");
    assert!(
        shared < 1.5 * alone,
        "one co-resident clone must cost far less than a second pass: {shared} vs {alone}"
    );
}

#[test]
fn preempt_swaps_out_and_resumes_without_losing_tokens() {
    let eng = engine(SpecConfig::disabled(), 0.9, 7, false);
    let mut driver = PlainBeam { n: 8, b: 4 };
    let mut run = eng.begin(&problem(1), 8, &mut driver, None, None).unwrap();
    run.step(&mut driver).unwrap();
    let tokens_before = run.decoded_tokens();
    let clock_before = run.clock();
    let (bytes, dropped) = run.preempt(u64::MAX);
    assert!(bytes > 0, "mid-flight KV must be resident to swap out");
    assert_eq!(dropped, 0, "an uncapped preemption drops nothing");
    // The scheduler parks it, then resumes later at a new global time.
    run.wait_until(clock_before + 5.0, Wait::Idle);
    while !run.is_finished() {
        run.step(&mut driver).unwrap();
    }
    let stats = run.finish();
    assert!(stats.decoded_tokens > tokens_before, "run kept generating");
    assert!(stats.latency() > clock_before + 5.0);
    assert_eq!(
        stats.completion.breakdown.idle, 5.0,
        "the preemption gap is accounted as idle time"
    );
    assert!(!stats.beams.is_empty());
}

#[test]
fn infeasible_memory_reports_path_exceeds() {
    let mut cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    // Weights + reserve exceed the usable fraction: KV budget is zero.
    cfg.memory_fraction = 0.26;
    let mut eng = Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner));
    let mut driver = PlainBeam { n: 8, b: 4 };
    let err = eng.run(&problem(0), 8, &mut driver);
    assert!(err.is_err(), "a ~0-byte KV budget cannot serve");
}

/// Where [`drive_chunked`] stands when it calls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Boundary {
    /// Between two decode chunks of a generation phase.
    Chunk,
    /// Between iterations ([`ftts_engine::RunPhase::Ready`]).
    Iteration,
}

/// One decode chunk as [`drive_chunked`] saw it: the chunk, and the
/// run's `decode_load()` before and after its apply.
struct ChunkSeen {
    chunk: ftts_engine::DecodeChunk,
    before: (usize, u64),
    after: (usize, u64),
    /// `decode_batch()` before the plan, after it, and after the apply.
    batch: [(usize, usize); 3],
    /// Speculative branches the apply counted as preempted.
    killed: u64,
    /// What the apply returned.
    status: ftts_engine::DecodeStatus,
}

/// `decode_load()` with its checks. Debug builds assert the running
/// context sum against the frontier fold inside `decode_load`; any
/// build checks it against the generator working set, which is the same
/// sum without prefix sharing and never more than it with sharing.
fn checked_decode_load(run: &ftts_engine::RequestRun, sharing: bool) -> (usize, u64) {
    let load = run.decode_load();
    let bytes_per_token = ModelPairing::pair_1_5b_1_5b().gen_spec.kv_bytes_per_token();
    let (working_set, _) = run.kv_working_set();
    if sharing {
        assert!(working_set <= load.1 * bytes_per_token, "{load:?}");
    } else {
        assert_eq!(working_set, load.1 * bytes_per_token, "{load:?}");
    }
    load
}

/// Drive `run` to completion through chunked decode capped at `cap`
/// tokens per chunk, verifying solo, checking `decode_load()` at every
/// chunk and iteration boundary, and handing the run to `at` at each
/// one (it may preempt, lose KV, re-budget or cut). Returns every chunk
/// seen.
fn drive_chunked(
    run: &mut ftts_engine::RequestRun,
    driver: &mut dyn SearchDriver,
    cap: u64,
    sharing: bool,
    mut at: impl FnMut(&mut ftts_engine::RequestRun, Boundary),
) -> Vec<ChunkSeen> {
    use ftts_engine::DecodeStatus;
    let mut seen = Vec::new();
    while !run.is_finished() {
        let unplanned = run.decode_batch();
        let status = match run.plan_decode_chunk(driver, cap).unwrap() {
            DecodeStatus::Finished => break,
            DecodeStatus::Planned(chunk) => {
                let planned = run.decode_batch();
                let before = checked_decode_load(run, sharing);
                let preempted = run.stats().spec.preempted_branches;
                let status = run.apply_decode_chunk(driver).unwrap();
                let after = checked_decode_load(run, sharing);
                seen.push(ChunkSeen {
                    chunk,
                    before,
                    after,
                    batch: [unplanned, planned, run.decode_batch()],
                    killed: run.stats().spec.preempted_branches - preempted,
                    status,
                });
                status
            }
            status => status,
        };
        if status == DecodeStatus::Decoding {
            at(run, Boundary::Chunk);
            continue;
        }
        verify_solo(run, driver);
        checked_decode_load(run, sharing);
        if !run.is_finished() {
            at(run, Boundary::Iteration);
            checked_decode_load(run, sharing);
        }
    }
    seen
}

/// Settle a generated iteration with solo-costed verifier sweeps.
fn verify_solo(run: &mut ftts_engine::RequestRun, driver: &mut dyn SearchDriver) {
    use ftts_engine::{VerifyCharge, VerifyChunk};
    let chunks: Vec<VerifyChunk> = run.take_verify_batch().to_vec();
    let charges: Vec<VerifyCharge> = chunks
        .iter()
        .map(|c| VerifyCharge::full(&c.solo_cost(run.verifier_roofline())))
        .collect();
    run.apply_verify_results(driver, &charges).unwrap();
}

fn engine_with_sharing(spec: SpecConfig, fraction: f64, seed: u64, sharing: bool) -> Engine {
    let mut cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    cfg.spec = spec;
    cfg.memory_fraction = fraction;
    cfg.seed = seed;
    cfg.prefix_sharing = sharing;
    Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner))
}

#[test]
fn decode_load_running_sum_tracks_the_frontier_through_every_transition() {
    for sharing in [true, false] {
        let eng = engine_with_sharing(SpecConfig::fasttts_default(), 0.9, 5, sharing);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng.begin(&problem(0), 16, &mut driver, None, None).unwrap();
        let (mut iterations, mut chunks_at, mut preempted, mut lost, mut cut) = (0, 0, 0, 0, 0);
        let seen = drive_chunked(&mut run, &mut driver, 2, sharing, |run, at| match at {
            Boundary::Chunk => {
                chunks_at += 1;
                // KV loss between chunks drops only unpinned blocks;
                // context lengths are logical and stay put.
                if chunks_at == 7 {
                    lost += run.lose_device_kv();
                }
            }
            Boundary::Iteration => {
                iterations += 1;
                match iterations {
                    1 => {
                        preempted += run.preempt(u64::MAX).0;
                        let t = run.clock() + 1.0;
                        run.wait_until(t, Wait::Idle);
                    }
                    2 => lost += run.lose_device_kv(),
                    _ if run.first_finish_cut(0.0) => {
                        cut += 1;
                        assert_eq!(run.decode_load(), (0, 0), "a cut empties the frontier");
                    }
                    _ => {}
                }
            }
        });
        assert!(preempted > 0 && lost > 0, "the transitions happened");
        assert_eq!(cut, 1, "the First Finish cut fired");
        assert!(seen.len() > 20, "only {} chunks", seen.len());
        for s in &seen {
            // Without deferrals, a chunk grows the frontier's context
            // by k per decoding frontier path, never by more.
            assert_eq!(
                s.before.0, s.after.0,
                "the frontier is rebuilt only between iterations"
            );
            assert!(s.after.1 - s.before.1 <= s.chunk.k * s.chunk.batch as u64);
        }
    }
}

#[test]
fn decode_load_running_sum_survives_emergency_deferrals() {
    // 32 beams at 28% memory: some chunks cannot extend every decoding
    // path, and the deferred paths are re-queued without their tokens.
    // Without speculation a chunk's batch is exactly its decoding
    // frontier paths, so a deferral shows as context growth below k
    // per path.
    let eng = engine_with_sharing(SpecConfig::disabled(), 0.28, 5, true);
    let mut driver = PlainBeam { n: 32, b: 4 };
    let mut run = eng.begin(&problem(0), 32, &mut driver, None, None).unwrap();
    let seen = drive_chunked(&mut run, &mut driver, 2, true, |_, _| {});
    let deferred = seen
        .iter()
        .filter(|s| s.after.1 - s.before.1 < s.chunk.k * s.chunk.batch as u64)
        .count();
    assert!(deferred > 0, "no chunk deferred a path");
    for s in &seen {
        assert_eq!(
            (s.after.1 - s.before.1) % s.chunk.k,
            0,
            "growth is k per extended path"
        );
    }
    assert!(!run.finish().beams.is_empty());
}

#[test]
fn a_co_batch_declared_after_planning_reprices_the_chunk() {
    // Two identical runs decode the same chunks under the same co-batch
    // (6 sequences, 6,000 context tokens), except that `late` plans each
    // chunk alone and only then declares it. Its plan-time price must
    // never leak into `chunk_seconds` or into the generator time apply
    // books.
    use ftts_engine::DecodeStatus;
    let begin = |driver: &mut PlainBeam| {
        engine(SpecConfig::fasttts_default(), 0.9, 3, false)
            .begin(&problem(0), 8, driver, None, None)
            .unwrap()
    };
    let (mut late_driver, mut early_driver) = (PlainBeam { n: 8, b: 4 }, PlainBeam { n: 8, b: 4 });
    let mut late = begin(&mut late_driver);
    let mut early = begin(&mut early_driver);
    early.set_co_batch(6, 6_000);
    let mut repriced = 0;
    while !late.is_finished() {
        late.set_co_batch(0, 0);
        let planned = late.plan_decode_chunk(&mut late_driver, 2).unwrap();
        let status = early.plan_decode_chunk(&mut early_driver, 2).unwrap();
        assert_eq!(planned, status);
        let status = match planned {
            DecodeStatus::Planned(chunk) => {
                let alone = late.chunk_seconds(&chunk);
                late.set_co_batch(6, 6_000);
                let seconds = late.chunk_seconds(&chunk);
                assert_eq!(seconds.to_bits(), early.chunk_seconds(&chunk).to_bits());
                assert!(seconds > alone, "the co-batch slows the chunk");
                repriced += 1;
                let status = late.apply_decode_chunk(&mut late_driver).unwrap();
                assert_eq!(status, early.apply_decode_chunk(&mut early_driver).unwrap());
                status
            }
            DecodeStatus::Finished => break,
            status => status,
        };
        assert_eq!(late.clock().to_bits(), early.clock().to_bits());
        if status == DecodeStatus::Generated {
            verify_solo(&mut late, &mut late_driver);
            verify_solo(&mut early, &mut early_driver);
        }
    }
    assert!(repriced > 20, "only {repriced} chunks");
    let (late, early) = (late.finish(), early.finish());
    assert_stats_identical(&late, &early);
    assert_eq!(
        late.completion.breakdown.generator.to_bits(),
        early.completion.breakdown.generator.to_bits()
    );
}

#[test]
fn decode_load_running_sum_survives_a_retry_after_aborting_speculation() {
    // Once speculative slots are decoding, shrink the KV budget 3% per
    // chunk until a chunk cannot extend every active path. That chunk
    // aborts speculation to free its blocks and retries the deferred
    // paths; the retries that succeed must raise the running sum too.
    // Without prefix sharing the working-set check in
    // `checked_decode_load` holds it to the fold in release builds too.
    let eng = engine_with_sharing(SpecConfig::fasttts_default(), 0.3, 5, false);
    let mut driver = PlainBeam { n: 16, b: 4 };
    let mut run = eng.begin(&problem(0), 16, &mut driver, None, None).unwrap();
    let (mut full, mut spec_at, mut squeezed) = (0, 0, false);
    drive_chunked(&mut run, &mut driver, 2, false, |run, at| match at {
        Boundary::Chunk => {
            let spec = run.stats().spec.spec_tokens;
            if spec_at == 0 {
                spec_at = spec;
            } else if !squeezed && spec > spec_at + 64 {
                if run.stats().spec.preempted_branches > 0 {
                    squeezed = true;
                } else {
                    full = full.max(run.kv_budget());
                    let budget = run.kv_budget();
                    run.set_kv_budget(budget / 100 * 97);
                }
            }
        }
        Boundary::Iteration => {
            if full > 0 {
                run.set_kv_budget(full);
                full = 0;
            }
            spec_at = 0;
        }
    });
    assert!(
        squeezed,
        "no chunk aborted speculation under memory pressure"
    );
    assert!(!run.finish().beams.is_empty());
}

#[test]
fn kept_chunk_sums_survive_every_batch_transition() {
    // 32 beams at 27% memory with speculation on. Between two 2-token
    // chunks the decode batch admits and retires paths, finishes and
    // kills speculative slots, and defers paths under memory pressure.
    // Debug builds assert the sums a plan keeps from the previous chunk
    // against a fresh fold, so a transition that left stale sums behind
    // fails here. A First Finish cut ends the run. Capping the chunks
    // changes when things happen, never what the search finds.
    use ftts_engine::DecodeStatus;
    let drive = |cap: u64| {
        let eng = engine_with_sharing(SpecConfig::fasttts_default(), 0.27, 5, true);
        let mut driver = PlainBeam { n: 32, b: 4 };
        let mut run = eng.begin(&problem(1), 32, &mut driver, None, None).unwrap();
        let mut iterations = 0;
        let seen = drive_chunked(&mut run, &mut driver, cap, true, |run, at| {
            if at == Boundary::Iteration {
                iterations += 1;
                if iterations >= 6 {
                    run.first_finish_cut(0.0);
                }
            }
        });
        (seen, run.finish())
    };
    let (seen, capped) = drive(2);
    let (_, full) = drive(u64::MAX);
    let (mut admits, mut retires, mut finishes, mut kills, mut deferrals) = (0, 0, 0, 0, 0);
    let mut mid_phase = false;
    for s in &seen {
        let [unplanned, planned, applied] = s.batch;
        if mid_phase && planned.0 > unplanned.0 {
            admits += 1;
        }
        mid_phase = s.status == DecodeStatus::Decoding;
        if s.after.1 - s.before.1 < s.chunk.k * planned.0 as u64 {
            deferrals += 1;
        } else if applied.0 < planned.0 {
            retires += 1;
        }
        // A kill of fewer slots than were decoding is a slot's own
        // extend failing, not an emergency aborting them all.
        if s.killed > 0 && s.killed < planned.1 as u64 {
            kills += 1;
        }
        if mid_phase && (planned.1 - applied.1) as u64 > s.killed {
            finishes += 1;
        }
    }
    let reached = [admits, retires, finishes, kills, deferrals];
    assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
    assert_eq!((capped.first_finish_cuts, full.first_finish_cuts), (1, 1));
    assert_eq!(capped.iterations, full.iterations);
    assert_eq!(capped.beams.len(), full.beams.len());
    for (x, y) in capped.beams.iter().zip(&full.beams) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.score, y.score);
    }
}
