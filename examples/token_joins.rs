//! Token-granularity decode joins on the global device timeline: the
//! same straggler stream served by iteration-granularity event
//! scheduling and by `TimelineServerSim` with token joins, both under
//! honest contention pricing (overlapping launches retroactively
//! stretch each other on the shared device clock). With joins on,
//! arrivals enter the in-flight decode batch at the next token-chunk
//! boundary instead of waiting for a launch boundary.
//!
//! ```sh
//! cargo run --release --example token_joins
//! ```

use fasttts::{
    ArrivalPattern, BatchRun, Dataset, EventConfig, EventServerSim, FaultPlan, GpuDevice,
    ModelPairing, SearchKind, TimelineTuning, TtsServer,
};

fn server() -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = 17;
    s
}

fn profile(run: &BatchRun) -> (f64, f64) {
    run.served.iter().fold((0.0, 0.0), |(c, j), r| {
        let b = r.outcome.stats.breakdown();
        (c + b.contention, j + b.join_wait)
    })
}

fn main() -> Result<(), fasttts::EngineError> {
    // Shallow AMC requests interleaved with deep AIME stragglers: the
    // arrivals that land mid-launch and want to join the decode batch.
    let shallow = Dataset::Amc2023.problems(4, 29);
    let deep = Dataset::Aime2024.problems(2, 43);
    let problems = vec![
        shallow[0], deep[0], shallow[1], shallow[2], deep[1], shallow[3],
    ];
    let arrivals = ArrivalPattern::Uniform { interval: 1.5 }.schedule(&problems, 0);

    println!("6 requests (AMC + AIME stragglers), one arrival per 1.5 s, n=16 beam search\n");
    let event = EventServerSim::new(
        server(),
        16,
        SearchKind::BeamSearch,
        EventConfig::windowed(6, 0.0),
    )
    .run(&arrivals)?;
    let timeline = |tuning: TimelineTuning| {
        let config = tuning.config(EventConfig::windowed(6, 0.0));
        fasttts::TimelineServerSim::new(server(), 16, SearchKind::BeamSearch, config)
            .run_faulted(&arrivals, &FaultPlan::none())
    };
    let honest = timeline(TimelineTuning::honest())?;
    let joins = timeline(
        TimelineTuning::honest()
            .with_token_joins()
            .with_join_quantum(2),
    )?;

    println!(
        "{:<22} {:>14} {:>11} {:>13} {:>12} {:>10}",
        "scheduler", "goodput tok/s", "makespan s", "contention s", "join-wait s", "stretch s"
    );
    for (label, run) in [
        ("event w=0", &event),
        ("timeline honest", &honest),
        ("timeline token-joins", &joins),
    ] {
        let s = run.stream_summary();
        let (contention, join_wait) = profile(run);
        println!(
            "{label:<22} {:>14.1} {:>11.1} {:>13.2} {:>12.2} {:>10.2}",
            s.stream_goodput, s.makespan, contention, join_wait, run.timeline.stretch_secs,
        );
    }

    // The anchored event scheduler only observes the timeline.
    assert!(
        event.timeline.segments > 0 && event.timeline.stretch_secs == 0.0,
        "the anchor records segments but never stretches"
    );
    // Answers are schedule-invariant under honest pricing and joins.
    for other in [&honest, &joins] {
        for (e, o) in event.served.iter().zip(&other.served) {
            assert_eq!(e.outcome.answer, o.outcome.answer, "schedule-invariant");
        }
    }
    println!(
        "\nThe anchored event scheduler records every launch as costed\n\
         segments on one device clock without pricing their overlap.\n\
         Honest mode retroactively stretches overlapped launches (window 0\n\
         stops getting free overlap); token joins then win the stretch back\n\
         by admitting arrivals at chunk boundaries instead of launch\n\
         boundaries — same answers, earlier joins."
    );
    let speedup =
        joins.stream_summary().stream_goodput / honest.stream_summary().stream_goodput.max(1e-12);
    let (_, join_wait) = profile(&joins);
    println!(
        "RESULT token_joins: joins_vs_iteration={speedup:.3}x stretch_honest={:.2}s join_wait={join_wait:.2}s",
        honest.timeline.stretch_secs
    );
    Ok(())
}
