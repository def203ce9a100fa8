//! Event-driven (iteration-granularity) continuous batching.
//!
//! [`BatchedServerSim`](crate::BatchedServerSim) runs *lockstep rounds*:
//! every in-flight request executes one TTS iteration per round, then
//! waits at a global barrier for the round's straggler. Under
//! heterogeneous workloads (shallow AMC requests co-scheduled with deep
//! AIME searches) the barrier is the dominant idle source: fast
//! requests burn `LatencyBreakdown::barrier_idle` every round instead
//! of decoding. [`EventServerSim`] removes the barrier the way vLLM's
//! continuous batching does — scheduling at *iteration* granularity:
//!
//! * **A ready queue instead of rounds.** Each in-flight request
//!   carries its own next-event time (`started_at + RequestRun::clock()`
//!   — the instant its next iteration could start, since a run between
//!   iterations is ready at its own clock). The scheduler always serves
//!   the earliest event: the earliest-ready request, or a pending
//!   arrival when mid-flight admission could open a fresh co-batch of
//!   its own.
//! * **Opportunistic co-batching inside a window.** Waiting forever for
//!   partners re-creates the barrier; never waiting forfeits the
//!   co-batched decode's amortized weight sweep and the fused verifier
//!   sweep. [`EventConfig::window_secs`] is the dial between the two: a
//!   launch groups every request whose next iteration can start within
//!   `window_secs` of the earliest event, launches at the latest
//!   member's ready time (members that are ready earlier wait that gap
//!   as plain `idle` — a *window* wait, never `barrier_idle`), and
//!   leaves requests mid-iteration beyond the horizon alone to advance
//!   at their own cadence.
//! * **One iteration per launch, phases shared.** A launch runs the
//!   split-phase protocol across its group exactly like one lockstep
//!   round — plan (co-batched decode over the *group's* loads) → gather
//!   → cost (fused or serialized verifier sweeps via the shared
//!   [`admission`] plumbing) → commit — then returns the survivors to
//!   the in-flight set with their new ready times. Groups may interleave
//!   arbitrarily with other requests' iterations; the split-phase
//!   protocol is re-entrant per run, so out-of-order costing across
//!   launches is safe (`RunPhase` asserts it).
//! * **Shared admission, shares and preemption.** Admission order,
//!   equal/demand-proportional KV shares and youngest-first preemption
//!   are the `crate::admission` code every policy runs. Shares and caps
//!   count the *whole* in-flight set, not just the launching group.
//!
//! # One loop, two anchors
//!
//! [`EventServerSim`] is another name for the one scheduler type,
//! [`TimelineServerSim`]: an [`EventConfig`] converts into the anchored
//! policy (`TimelineConfig::from(config)`), under which the timeline
//! only observes. Two degenerate windows pin it to known-good
//! behaviour:
//!
//! * **Batch 1** ([`BatchConfig::fifo`]): groups are always singletons
//!   and the loop reproduces [`ServerSim::run`](crate::ServerSim::run)
//!   exactly (checked in `crates/core/tests/event_sched.rs`).
//! * **Infinite window** ([`EventConfig::lockstep`]): every launch
//!   waits for all in-flight requests, so the launch is the lockstep
//!   barrier and the device floor advances to each round's end — what
//!   [`BatchedServerSim`](crate::BatchedServerSim) runs, including
//!   `barrier_idle` attribution.
//!
//! Both modes and the windows between them are frozen as golden
//! fingerprints in `crates/core/tests/golden.rs`.

use crate::batch_server::BatchConfig;
use crate::timeline::TimelineServerSim;

/// Event-driven scheduling knobs: a request-level batching policy plus
/// the co-batch window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// The request-level policy (admission, fusion, shares, preemption)
    /// — the same knobs the lockstep scheduler takes.
    pub batch: BatchConfig,
    /// How long a launch may wait for co-batch partners beyond the
    /// earliest ready request, in seconds. `0.0` co-batches only
    /// simultaneously-ready requests; `f64::INFINITY` waits for
    /// everyone — the degenerate lockstep mode.
    pub window_secs: f64,
}

impl EventConfig {
    /// Event-driven scheduling of `batch` with the given co-batch
    /// window.
    pub fn new(batch: BatchConfig, window_secs: f64) -> Self {
        assert!(window_secs >= 0.0, "window must be non-negative");
        Self { batch, window_secs }
    }

    /// The full PR-4 serving policy: fused verifier sweeps and
    /// demand-proportional shares ([`BatchConfig::fused`]) scheduled at
    /// iteration granularity with the given window.
    pub fn windowed(max_batch: usize, window_secs: f64) -> Self {
        Self::new(BatchConfig::fused(max_batch), window_secs)
    }

    /// The degenerate infinite-window mode: every launch waits for all
    /// in-flight requests, so each launch is a lockstep round — the
    /// policy a [`BatchConfig`] converts into.
    pub fn lockstep(batch: BatchConfig) -> Self {
        Self {
            batch,
            window_secs: f64::INFINITY,
        }
    }
}

/// A prefix published into the host tier mid-run by an external
/// director (see [`RunDirectives`]): at the first launch boundary at or
/// after `at`, `bytes` of prompt KV for problem `key` appear in the
/// tier's shared store. A fleet uses this to hand a crashed replica's
/// host-resident prompt prefix to the failover target, so the migrated
/// request warm-starts there instead of re-prefilling from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrewarmPrefix {
    /// Absolute simulated time the prefix becomes available, seconds.
    pub at: f64,
    /// The problem seed the prefix belongs to.
    pub key: u64,
    /// Prompt tokens covered by the prefix.
    pub tokens: u64,
    /// Host bytes the prefix occupies.
    pub bytes: u64,
}

/// External directives applied to one scheduler run — the interface a
/// fleet router uses to steer a device timeline it does not otherwise
/// control. Empty directives leave the run bit-identical to
/// [`TimelineServerSim::run_faulted`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDirectives {
    /// `(arrival index, instant)`: cancel the request at the first
    /// launch boundary at or after the instant (crash failover, hedge
    /// losers). Cancelled requests reclaim everything — pool
    /// reservation, parked tier bytes — but publish no prefix; a
    /// request already finished by its instant is untouched.
    pub cancels: Vec<(usize, f64)>,
    /// Prefixes to publish into the host tier mid-run (failover
    /// warm-start handoff).
    pub prewarms: Vec<PrewarmPrefix>,
}

impl RunDirectives {
    /// Whether the directives change nothing.
    pub fn is_empty(&self) -> bool {
        self.cancels.is_empty() && self.prewarms.is_empty()
    }
}

/// Replays a request arrival stream with event-driven
/// (iteration-granularity) continuous batching over one shared
/// accelerator and KV pool when built from an [`EventConfig`]: the one
/// scheduler run loop, under the name the event-driven callers use. See
/// the module docs for the execution model.
pub type EventServerSim = TimelineServerSim;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TtsServer;
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_search::SearchKind;
    use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

    fn server(seed: u64, memory_fraction: f64) -> TtsServer {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = seed;
        s.config_mut().memory_fraction = memory_fraction;
        s
    }

    fn overload_arrivals(count: usize, seed: u64) -> Vec<RequestArrival> {
        let problems = Dataset::Amc2023.problems(count, seed);
        ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0)
    }

    #[test]
    fn config_presets() {
        let cfg = EventConfig::windowed(8, 0.25);
        assert!(cfg.batch.fused_verify && cfg.batch.demand_shares);
        assert_eq!(cfg.window_secs, 0.25);
        let anchor = EventConfig::lockstep(BatchConfig::continuous(4));
        assert!(anchor.window_secs.is_infinite());
    }

    #[test]
    #[should_panic(expected = "window must be non-negative")]
    fn negative_window_is_rejected() {
        let _ = EventConfig::new(BatchConfig::fifo(), -1.0);
    }

    #[test]
    fn event_scheduling_serves_everyone_within_budget() {
        let arrivals = overload_arrivals(6, 41);
        let run = EventServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            EventConfig::windowed(4, 0.2),
        )
        .run(&arrivals)
        .expect("event run");
        assert_eq!(run.served.len(), 6);
        assert!(run.peak_reserved_bytes <= run.pool_bytes);
        for r in &run.served {
            assert!(r.finished_at > r.arrived_at);
        }
        // Launches outnumber lockstep rounds (groups are narrower), but
        // every request still iterates to completion.
        assert!(run.group_iters >= run.rounds);
    }

    #[test]
    fn event_scheduling_preserves_answers() {
        // Scheduling moves clocks, never outcomes: the event-driven
        // replay must answer exactly like the lockstep replay.
        let arrivals = overload_arrivals(5, 23);
        let lockstep = crate::BatchedServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::continuous(3),
        )
        .run(&arrivals)
        .expect("lockstep");
        let event = EventServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            EventConfig::new(BatchConfig::continuous(3), 0.1),
        )
        .run(&arrivals)
        .expect("event");
        for (l, e) in lockstep.served.iter().zip(&event.served) {
            assert_eq!(l.outcome.answer, e.outcome.answer);
            assert_eq!(l.accepted_tokens(), e.accepted_tokens());
        }
    }

    #[test]
    fn finite_window_never_books_barrier_idle() {
        let arrivals = overload_arrivals(5, 61);
        let run = EventServerSim::new(
            server(3, 0.9),
            8,
            SearchKind::BeamSearch,
            EventConfig::windowed(4, 0.5),
        )
        .run(&arrivals)
        .expect("event run");
        for r in &run.served {
            assert_eq!(
                r.outcome.stats.breakdown().barrier_idle,
                0.0,
                "event-driven scheduling has no round barrier to wait at"
            );
        }
    }
}
