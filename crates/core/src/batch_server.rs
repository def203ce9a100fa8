//! Continuous batching across requests.
//!
//! [`ServerSim`](crate::ServerSim) drains arrivals FIFO at batch size 1:
//! every request runs to completion in isolation, so the accelerator's
//! decode batch is only as wide as one request's beam frontier. This
//! module adds the request-level scheduler a production serving system
//! needs: [`BatchedServerSim`] admits arrivals *mid-flight*, steps every
//! in-flight [`RequestRun`] one TTS iteration per lockstep round, and
//! arbitrates the device KV budget between them through a
//! [`PoolBudget`] reservation ledger.
//!
//! # Execution model
//!
//! * **Phase-split lockstep rounds.** Each round, every active request
//!   executes one TTS iteration through `RequestRun`'s split-phase API,
//!   in four explicit stages: **plan** (`plan_iteration` — memory
//!   replan plus the co-batched decode: each run is costed over the
//!   *combined* sequence batch, one shared weight sweep, everyone's KV
//!   traffic — `RequestRun::set_co_batch`), **gather**
//!   (`take_verify_batch` — every run's verifier mirror work and its
//!   pending prefill chunks), **cost** (the scheduler prices all
//!   verifier sweeps over the one shared accelerator) and **commit**
//!   (`apply_verify_results` — charge the sweeps, reveal scores,
//!   branch). Runs that finish early idle-wait at the round barrier
//!   (charged to their latency as `idle`).
//! * **Cross-request verifier co-batching.** The verifier is a shared
//!   device. Without fusion ([`BatchConfig::fused_verify`] off) the
//!   requests' prefill sweeps are distinct kernels and *serialize* in
//!   admission order — later requests wait their turn as `idle` time.
//!   With fusion on, all requests' wave-`w` chunks launch as **one
//!   shared fused sweep per round** (`Roofline::prefill_fused`): the
//!   weights stream once instead of `k` times, sub-batches are
//!   processed back to back inside the kernel, and each participant is
//!   charged the prefix of the kernel up to its own sequences — its
//!   slice as `LatencyBreakdown::verifier` busy time, the wait for
//!   earlier sub-batches as `idle` — so the slices sum to the kernel
//!   seconds exactly and busy time is never double-counted across
//!   requests.
//! * **Admission control and elastic shares.** The device KV budget is
//!   split among active requests through the [`PoolBudget`] ledger:
//!   equal shares by default, or **demand-proportional** shares
//!   ([`BatchConfig::demand_shares`]) sized by each run's working-set
//!   estimate (live beams × mean depth × bytes/token) with a floor that
//!   keeps accepted tokens resident. Shares rebalance only at
//!   admission, completion and preemption boundaries; idle reservation
//!   is reclaimed without evicting anyone's accepted tokens. The ledger
//!   guarantees reservations never exceed the pool.
//! * **Preemption.** A request whose KV demand outgrows its share is
//!   swapped out (PCIe-costed), its reservation released, and requeued;
//!   it readmits when shares regrow, restoring or recomputing prefixes
//!   through the normal pin path. Accepted tokens are never lost.
//! * **First Finish cut (opt-in).** With [`BatchConfig::first_finish`]
//!   set, a request whose best verified beam clears the acceptance bar
//!   cancels its sibling beams and completes immediately, releasing its
//!   reservation to waiting work (First Finish Search). Answers of
//!   non-opted runs are untouched.
//! * **Two-phase speculation.** Speculative Beam Extension runs only
//!   while a request has the system to itself (no other active, queued
//!   or preempted request) — the request-level generalization of the
//!   paper's Sec. 4.1.2 rule, and exactly [`ServerSim`]'s rule when the
//!   batch size is 1.
//!
//! [`BatchedServerSim`] is another name for [`TimelineServerSim`]: a
//! [`BatchConfig`] converts into the infinite-window anchored policy
//! (`TimelineConfig::from(EventConfig::lockstep(config))`), and an
//! infinite co-batch window makes every launch wait for the whole
//! in-flight set, so each launch is a lockstep round.
//!
//! With `max_batch = 1` and mid-flight admission disabled the scheduler
//! reproduces [`ServerSim::run`] bit-for-bit (outcomes, latencies,
//! eviction stats) — with or without `fused_verify`, since a fused
//! sweep over one participant degenerates to that request's own solo
//! sweep. Enforced in `crates/core/tests/batch_lockstep.rs`; the
//! multi-request lockstep fixtures are frozen in
//! `crates/core/tests/golden.rs`.
//!
//! [`ServerSim`]: crate::ServerSim
//! [`TimelineServerSim`]: crate::TimelineServerSim

use ftts_kv::KvTierConfig;
use ftts_metrics::{StreamRecord, StreamSummary};
use serde::{Deserialize, Serialize};

use crate::faults::RobustConfig;
use crate::server::ServedRequest;
use crate::tenant::TenantPolicy;
use crate::timeline::TimelineServerSim;

/// Request-level scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Maximum concurrently active requests.
    pub max_batch: usize,
    /// Admit new arrivals while others are in flight (continuous
    /// batching). When `false`, admission waits for the device to drain
    /// — batch-1 FIFO or gang scheduling depending on `max_batch`.
    pub admit_mid_flight: bool,
    /// Fuse all in-flight requests' verifier prefills into one shared
    /// sweep per round instead of serializing per-request kernels on
    /// the shared accelerator.
    pub fused_verify: bool,
    /// Size KV shares proportionally to each request's declared
    /// working-set demand (rebalanced at admission / completion /
    /// preemption boundaries) instead of an equal split.
    pub demand_shares: bool,
    /// First Finish cut: complete a request as soon as its best
    /// verified beam clears [`BatchConfig::first_finish_bar`],
    /// cancelling sibling beams and releasing their reservation.
    /// Changes which beams finish (never how any path is generated), so
    /// it is opt-in and excluded from the equivalence suite.
    pub first_finish: bool,
    /// Acceptance bar for the First Finish cut (a verifier score).
    pub first_finish_bar: f64,
    /// Fault-handling and SLO policy (see [`RobustConfig`]). The
    /// default — retry with backoff, no deadline enforcement — is
    /// bit-inert on fault-free runs.
    pub robust: RobustConfig,
    /// Host-RAM KV tier behind the device pool (see
    /// [`ftts_kv::HostTier`]). The default — capacity 0 — disables the
    /// tier and is bit-inert: preemption swaps to the implicit
    /// unbounded host and completed requests' KV vanishes, exactly the
    /// pre-tier behaviour.
    pub tier: KvTierConfig,
    /// Per-tenant fair-share policy (see [`TenantPolicy`]): weighted KV
    /// fair-share across tenants with hard byte caps and admission
    /// quotas. The default — `None` — is bit-inert: requests' tenant
    /// tags are ignored and scheduling is exactly the untenanted
    /// policy.
    pub tenants: Option<TenantPolicy>,
}

impl BatchConfig {
    /// FIFO batch-1 — semantically identical to [`crate::ServerSim`].
    pub fn fifo() -> Self {
        Self {
            max_batch: 1,
            admit_mid_flight: false,
            fused_verify: false,
            demand_shares: false,
            first_finish: false,
            first_finish_bar: 0.0,
            robust: RobustConfig::default(),
            tier: KvTierConfig::default(),
            tenants: None,
        }
    }

    /// Continuous batching: up to `max_batch` requests, joined and
    /// retired mid-flight.
    pub fn continuous(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            admit_mid_flight: true,
            ..Self::fifo()
        }
    }

    /// Gang (static) batching: admit up to `max_batch` only while the
    /// device is idle, then run the gang to completion.
    pub fn gang(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            admit_mid_flight: false,
            ..Self::fifo()
        }
    }

    /// The full PR-3 serving policy: continuous batching with the
    /// cross-request fused verifier sweep and demand-proportional
    /// elastic KV shares.
    pub fn fused(max_batch: usize) -> Self {
        Self {
            fused_verify: true,
            demand_shares: true,
            ..Self::continuous(max_batch)
        }
    }

    /// Enable the First Finish cut at the given acceptance bar.
    pub fn with_first_finish(mut self, bar: f64) -> Self {
        self.first_finish = true;
        self.first_finish_bar = bar;
        self
    }

    /// Replace the fault-handling/SLO policy.
    pub fn with_robust(mut self, robust: RobustConfig) -> Self {
        self.robust = robust;
        self
    }

    /// Put a host-RAM KV tier behind the device pool.
    pub fn with_tier(mut self, tier: KvTierConfig) -> Self {
        self.tier = tier;
        self
    }

    /// Attach a per-tenant fair-share policy: weighted KV fair-share
    /// across tenants at every rebalance boundary, hard per-tenant byte
    /// caps, and per-tenant admission quotas.
    pub fn with_tenants(mut self, tenants: TenantPolicy) -> Self {
        self.tenants = Some(tenants);
        self
    }
}

/// Result of replaying one arrival stream through the scheduler run
/// loop ([`TimelineServerSim`]).
#[derive(Debug, Clone, Default)]
pub struct BatchRun {
    /// Per-request records, in arrival order.
    pub served: Vec<ServedRequest>,
    /// Scheduling rounds executed (lockstep rounds, or co-batch
    /// launches under event-driven scheduling).
    pub rounds: u64,
    /// Request-iterations executed across all rounds; `group_iters /
    /// rounds` is the mean co-batch width the scheduler achieved.
    pub group_iters: u64,
    /// Total preemption events.
    pub preemptions: u32,
    /// High-water mark of KV reservations, bytes.
    pub peak_reserved_bytes: u64,
    /// The shared device KV budget, bytes.
    pub pool_bytes: u64,
    /// Verifier prefill sweeps launched on the shared device (a fused
    /// sweep counts once regardless of how many requests it served).
    pub ver_sweeps: u64,
    /// Sequences prefilled across all verifier sweeps.
    pub ver_seqs: u64,
    /// Device-busy seconds across all verifier sweeps. Equals the sum
    /// of every served request's attributed `verifier` breakdown: the
    /// no-double-count audit for fused sweeps.
    pub ver_busy_secs: f64,
    /// Injected transient kernel failures that hit a launch.
    pub kernel_faults: u32,
    /// Retry attempts (blind or backed-off) those failures cost.
    pub fault_retries: u32,
    /// Injected device KV-loss events that hit a launch.
    pub kv_loss_events: u32,
    /// KV blocks dropped by those loss events across all requests.
    pub lost_blocks: u64,
    /// Arrivals rejected before admission (expired deadline slack or an
    /// infeasible working set) by SLO enforcement.
    pub shed: u32,
    /// Admitted runs cancelled past their deadline by SLO enforcement.
    pub cancelled: u32,
    /// Fresh admissions the degradation controller granted a narrower
    /// beam width than configured.
    pub degradations: u32,
    /// KV bytes still reserved when the stream drained — 0 unless the
    /// ledger leaked a reservation (asserted in tests).
    pub final_reserved_bytes: u64,
    /// Warm admissions served from the host tier's prefix store
    /// (0 when the tier is disabled).
    pub kv_tier_hits: u64,
    /// Prefixes the host tier demoted under capacity pressure.
    pub kv_tier_demotions: u64,
    /// Preempted KV bytes the host tier accepted (swap-down instead of
    /// drop).
    pub kv_tier_parked_bytes: u64,
    /// Preempted KV bytes that did not fit the host tier and were
    /// dropped (recomputed on readmission).
    pub kv_tier_dropped_bytes: u64,
    /// Parked KV bytes reclaimed from the host tier — readmission
    /// swap-ins plus cancellation unparks. Equal to
    /// [`BatchRun::kv_tier_parked_bytes`] once a run drains: every
    /// parked byte is eventually swapped back in or dropped on
    /// cancellation, never stranded.
    pub kv_tier_unparked_bytes: u64,
    /// Per-tenant peak KV grant (tenant id, bytes) recorded at tenant
    /// rebalance boundaries, in tenant-id order — the audit that hard
    /// caps held for the whole run. Empty without a tenant policy.
    pub tenant_peak_bytes: Vec<(u32, u64)>,
    /// Device-timeline occupancy roll-up. Every run records its
    /// launches as segments on the device timeline; under an anchored
    /// policy (from an [`EventConfig`](crate::EventConfig) or a
    /// [`BatchConfig`]) the timeline only observes, so `stretch_secs`
    /// stays 0.
    pub timeline: ftts_metrics::TimelineOccupancy,
}

impl BatchRun {
    /// First arrival to last completion, seconds.
    pub fn makespan(&self) -> f64 {
        let first = self
            .served
            .iter()
            .map(|r| r.arrived_at)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .served
            .iter()
            .map(|r| r.finished_at)
            .fold(0.0f64, f64::max);
        (last - first).max(0.0)
    }

    /// Stream-level summary: system goodput over the makespan, latency
    /// / queueing distributions, per-phase goodput over attributed busy
    /// time, and the verifier-sweep occupancy the scheduler measured.
    pub fn stream_summary(&self) -> StreamSummary {
        let records: Vec<StreamRecord> = self
            .served
            .iter()
            .map(ServedRequest::stream_record)
            .collect();
        let occupancy = if self.ver_sweeps > 0 {
            self.ver_seqs as f64 / self.ver_sweeps as f64
        } else {
            0.0
        };
        StreamSummary::of(&records)
            .with_verifier_occupancy(occupancy)
            .with_kv_tier(self.kv_tier_hits, self.kv_tier_demotions)
    }
}

/// Replays a request arrival stream with continuous batching across
/// requests over one shared accelerator and KV pool, in lockstep rounds
/// when built from a [`BatchConfig`]: the one scheduler run loop, under
/// the name the lockstep callers use.
pub type BatchedServerSim = TimelineServerSim;

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
        assert_eq!(BatchConfig::fifo().max_batch, 1);
        assert!(!BatchConfig::fifo().admit_mid_flight);
        assert!(BatchConfig::continuous(4).admit_mid_flight);
        assert_eq!(BatchConfig::continuous(0).max_batch, 1, "cap is clamped");
        assert!(!BatchConfig::gang(4).admit_mid_flight);
        assert_eq!(BatchConfig::gang(4).max_batch, 4);
    }

    #[test]
    fn continuous_batching_beats_fifo_under_overload() {
        let arrivals = overload_arrivals(6, 41);
        let fifo = BatchedServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::fifo(),
        )
        .run(&arrivals)
        .expect("fifo");
        let cont = BatchedServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::continuous(4),
        )
        .run(&arrivals)
        .expect("continuous");
        let (f, c) = (fifo.stream_summary(), cont.stream_summary());
        assert!(
            c.stream_goodput > f.stream_goodput,
            "continuous {} must beat FIFO {} tok/s",
            c.stream_goodput,
            f.stream_goodput
        );
        assert!(cont.makespan() < fifo.makespan());
        assert!(
            c.latency.mean < f.latency.mean,
            "queueing dominates FIFO latency"
        );
        assert!(fifo.peak_reserved_bytes <= fifo.pool_bytes);
        assert!(cont.peak_reserved_bytes <= cont.pool_bytes);
    }

    #[test]
    fn batching_preserves_answers() {
        // The reasoning tree is timing-independent: co-scheduling only
        // changes clocks and memory traffic, never outcomes.
        let arrivals = overload_arrivals(5, 23);
        let fifo = BatchedServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::fifo(),
        )
        .run(&arrivals)
        .expect("fifo");
        let cont = BatchedServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::continuous(3),
        )
        .run(&arrivals)
        .expect("continuous");
        for (f, c) in fifo.served.iter().zip(&cont.served) {
            assert_eq!(f.outcome.answer, c.outcome.answer);
            assert_eq!(f.accepted_tokens(), c.accepted_tokens());
        }
    }

    #[test]
    fn gang_batching_admits_only_while_idle() {
        let arrivals = overload_arrivals(5, 31);
        let gang = BatchedServerSim::new(
            server(3, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::gang(3),
        )
        .run(&arrivals)
        .expect("gang");
        // First gang: requests arrived by t=0 — only request 0 (the rest
        // arrive later), so later arrivals queue until the device drains.
        assert_eq!(gang.served.len(), 5);
        for r in &gang.served {
            assert!(r.finished_at > r.arrived_at);
        }
    }

    #[test]
    fn preemption_fires_under_memory_pressure_and_conserves_tokens() {
        // A tight pool with several concurrent deep searches: equal
        // shares shrink until some request's working set no longer
        // fits, forcing a swap-out. "No accepted tokens lost" is
        // checked the only non-vacuous way: every preempted request's
        // final beams match the preemption-free FIFO replay of the same
        // stream exactly.
        let problems = Dataset::Aime2024.problems(4, 51);
        let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
        let sim = BatchedServerSim::new(
            server(13, 0.30),
            24,
            SearchKind::BeamSearch,
            BatchConfig::continuous(4),
        );
        let run = sim.run(&arrivals).expect("pressured run completes");
        assert_eq!(run.served.len(), 4);
        assert!(run.preemptions > 0, "pressure must trigger preemption");
        assert!(run.peak_reserved_bytes <= run.pool_bytes);
        let fifo = crate::ServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch)
            .run(&arrivals)
            .expect("fifo replay");
        let mut saw_preempted = false;
        for (r, f) in run.served.iter().zip(&fifo) {
            if r.preemptions == 0 {
                continue;
            }
            saw_preempted = true;
            assert!(r.preempted_secs > 0.0);
            assert_eq!(
                r.accepted_tokens(),
                f.accepted_tokens(),
                "swap-out/readmission must not lose generated tokens"
            );
            assert_eq!(r.outcome.answer, f.outcome.answer);
            assert_eq!(r.outcome.stats.beams.len(), f.outcome.stats.beams.len());
        }
        assert!(saw_preempted);
    }

    #[test]
    fn stream_summary_counts_everything() {
        let arrivals = overload_arrivals(3, 71);
        let run = BatchedServerSim::new(
            server(2, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::continuous(2),
        )
        .run(&arrivals)
        .expect("run");
        let s = run.stream_summary();
        assert_eq!(s.requests, 3);
        assert!(s.stream_goodput > 0.0);
        assert!(s.makespan > 0.0);
        assert_eq!(
            s.total_accepted_tokens,
            run.served.iter().map(|r| r.accepted_tokens()).sum::<u64>()
        );
    }
}
