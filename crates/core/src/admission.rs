//! Scheduler plumbing used by the timeline run loop
//! ([`TimelineServerSim`]): the in-flight request record, the
//! admission/readmission loop with its deterministic ordering tiebreak,
//! KV-share resizing (equal and demand-proportional), and the
//! shared-accelerator verifier sweep pricing.
//!
//! A launch passes its co-batch `group` plus the `rest` of the in-flight
//! set (requests mid-iteration outside the batching window), because
//! shares and admission caps must count *everyone* holding pool
//! reservations, not just the requests in the current launch.
//!
//! [`TimelineServerSim`]: crate::TimelineServerSim

use std::collections::VecDeque;

use ftts_engine::{EngineError, RequestRun, RunStats, SearchDriver, VerifyCharge, VerifyChunk};
use ftts_kv::{HostTier, PoolBudget, ShareRequest, TenantShareRequest};
use ftts_metrics::SloClass;
use ftts_search::{make_driver, SearchKind};
use ftts_workload::RequestArrival;

use crate::batch_server::BatchConfig;
use crate::faults::degraded_beams;
use crate::server::{ServeOutcome, ServedRequest, TtsServer};
use crate::tenant::TenantPolicy;

/// One in-flight (or preempted) request.
pub(crate) struct InFlight {
    /// Index into the arrival stream (doubles as the pool holder id).
    pub(crate) idx: usize,
    pub(crate) run: RequestRun,
    pub(crate) driver: Box<dyn SearchDriver>,
    pub(crate) arrived_at: f64,
    /// SLO class the request arrived with.
    pub(crate) slo: SloClass,
    /// Absolute deadline (`f64::INFINITY` = none).
    pub(crate) deadline: f64,
    /// Tenant the request bills to (0 when untenanted).
    pub(crate) tenant: u32,
    /// Beam width actually granted at admission (equal to the
    /// configured width unless the degradation controller shrank it).
    pub(crate) granted_n: usize,
    /// Global time of first admission.
    pub(crate) started_at: f64,
    /// Admission sequence number; the largest is the youngest request
    /// (the preemption victim, as in vLLM).
    pub(crate) admit_seq: u64,
    pub(crate) preemptions: u32,
    pub(crate) preempted_secs: f64,
    /// Global time this request was last preempted.
    pub(crate) paused_at: f64,
    /// Memoized readmission probe while paused: `(share, can_progress,
    /// fits_working_set)`. The run's frontier is frozen while swapped
    /// out, so the answer only changes when the offered share does —
    /// re-probing (a replan + tree walk) every round would be pure
    /// waste.
    pub(crate) probe: Option<(u64, bool, bool)>,
    /// Working-set demand declared at the last elastic rebalance (0
    /// until the first declaration); drifting ±25% past it triggers the
    /// next rebalance.
    pub(crate) declared_demand: u64,
}

impl InFlight {
    /// The absolute device time this request's next iteration could
    /// start — the event a ready queue is keyed on.
    pub(crate) fn ready_at(&self) -> f64 {
        self.started_at + self.run.next_event_at()
    }
}

/// An admission candidate, in the order classes the tiebreak ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitCandidate {
    /// A preempted run awaiting readmission, by position in the paused
    /// queue (pause order).
    Readmit(usize),
    /// A fresh arrival at the head of the waiting queue, by arrival
    /// index (stream position).
    Fresh(usize),
}

/// The deterministic admission-order tiebreak both schedulers share.
///
/// Readmission candidates outrank fresh arrivals — a preempted run
/// holds accepted tokens that must not starve behind new work — and
/// within a class, earlier position wins: pause order for readmits,
/// stream position for arrivals. Simultaneous arrivals therefore admit
/// in arrival-index order, deterministically, on every scheduler.
pub(crate) fn admission_rank(candidate: AdmitCandidate) -> (u8, usize) {
    match candidate {
        AdmitCandidate::Readmit(pos) => (0, pos),
        AdmitCandidate::Fresh(idx) => (1, idx),
    }
}

/// Everything `admit` needs to know about the serving policy.
pub(crate) struct SchedCtx<'a> {
    pub(crate) server: &'a TtsServer,
    pub(crate) n: usize,
    pub(crate) kind: SearchKind,
    pub(crate) config: &'a BatchConfig,
}

/// Idle-pad `a`'s internal clock up to the absolute instant `global` —
/// a co-batch window wait, a readmission gap or a shared-device wait.
/// Skips members already at (or past) the instant so the
/// relative→absolute round trip cannot perturb their clock by a ulp —
/// bit-exactness with the FIFO path depends on this.
pub(crate) fn pad_to(a: &mut InFlight, global: f64) {
    let clock = a.run.clock();
    let absolute = a.started_at + clock;
    if absolute < global {
        a.run.sync_clock_to(clock + (global - absolute));
    }
}

/// Like [`pad_to`], but books the gap as *token-join* idle — the wait
/// at a shared chunk boundary for the slowest co-batched decode chunk.
pub(crate) fn pad_to_join(a: &mut InFlight, global: f64) {
    let clock = a.run.clock();
    let absolute = a.started_at + clock;
    if absolute < global {
        a.run.sync_clock_to_join(clock + (global - absolute));
    }
}

/// Like [`pad_to`], but books the gap as *barrier* idle — the lockstep
/// round-barrier wait event-driven scheduling removes.
pub(crate) fn pad_to_barrier(a: &mut InFlight, global: f64) {
    let clock = a.run.clock();
    let absolute = a.started_at + clock;
    if absolute < global {
        a.run.sync_clock_to_barrier(clock + (global - absolute));
    }
}

/// Resize every in-flight request's reservation to `share` ahead of an
/// admission. Shrinks apply before grows so the intermediate ledger
/// state never overcommits — with equal shares everyone shrinks (the
/// legacy path, byte-identical), but after a demand-proportional
/// rebalance small holders may need to grow back to the equal probe
/// share.
pub(crate) fn shrink(
    group: &mut [InFlight],
    rest: &mut [InFlight],
    pool: &mut PoolBudget,
    share: u64,
) {
    for pass in 0..2 {
        for a in group.iter_mut().chain(rest.iter_mut()) {
            let shrinking = pool.share_of(a.idx as u64) >= share;
            if (pass == 0) == shrinking {
                assert!(pool.resize(a.idx as u64, share), "equal reshare must fit");
                a.run.set_kv_budget(share);
            }
        }
    }
}

/// Regrow every in-flight request's reservation to the equal share,
/// handing the integer-division remainder to the first holder so the
/// ledger stays fully subscribed (the bytes `equal_share` truncates
/// used to strand — up to k−1 every rebalance).
pub(crate) fn regrow(group: &mut [InFlight], rest: &mut [InFlight], pool: &mut PoolBudget) {
    let k = group.len() + rest.len();
    let share = pool.equal_share(k);
    for a in group.iter_mut().chain(rest.iter_mut()) {
        assert!(pool.resize(a.idx as u64, share), "regrow must fit");
        a.run.set_kv_budget(share);
    }
    top_up_first_holder(group, rest, pool, share);
}

/// Hand the equal-share truncation remainder to the first holder in
/// group-then-rest order — the same deterministic "one designated
/// holder absorbs the leftover" rule `proportional_shares` applies —
/// then assert the ledger covers the whole budget. No-op with no
/// holders; with one holder the remainder is zero by construction, so
/// single-request (batch-1 anchor) runs are untouched.
pub(crate) fn top_up_first_holder(
    group: &mut [InFlight],
    rest: &mut [InFlight],
    pool: &mut PoolBudget,
    share: u64,
) {
    let k = group.len() + rest.len();
    let Some(first) = group.iter_mut().chain(rest.iter_mut()).next() else {
        return;
    };
    let topped = share + pool.equal_share_remainder(k);
    assert!(pool.resize(first.idx as u64, topped), "remainder must fit");
    first.run.set_kv_budget(topped);
    assert_eq!(
        pool.reserved_bytes(),
        pool.total_bytes(),
        "equal reshare must cover the whole budget"
    );
}

/// Completion/preemption boundary: re-share the surviving in-flight set
/// — equal split by default, demand-proportional when configured,
/// two-level tenant fair-share when a [`TenantPolicy`] is attached.
pub(crate) fn reshare(
    config: &BatchConfig,
    group: &mut [InFlight],
    rest: &mut [InFlight],
    pool: &mut PoolBudget,
) {
    if group.is_empty() && rest.is_empty() {
        return;
    }
    if let Some(policy) = config.tenants {
        rebalance_tenants(&policy, group, rest, pool);
    } else if config.demand_shares {
        rebalance_demand(group, rest, pool);
    } else {
        regrow(group, rest, pool);
    }
}

/// Whether the policy rebalances at admission/drift boundaries (either
/// elastic mode) rather than only regrowing at completion/preemption.
pub(crate) fn elastic(config: &BatchConfig) -> bool {
    config.demand_shares || config.tenants.is_some()
}

/// Admission/drift boundary for the elastic policies: tenant fair-share
/// when configured, demand-proportional otherwise. Callers gate on
/// [`elastic`].
pub(crate) fn rebalance_elastic(
    config: &BatchConfig,
    group: &mut [InFlight],
    rest: &mut [InFlight],
    pool: &mut PoolBudget,
) {
    if let Some(policy) = config.tenants {
        rebalance_tenants(&policy, group, rest, pool);
    } else {
        rebalance_demand(group, rest, pool);
    }
}

/// Demand-proportional elastic rebalance: every in-flight run declares
/// its working-set demand (live beams × mean depth × bytes/token) and
/// the floor that keeps its accepted tokens resident; the ledger
/// re-shares the whole pool proportionally (idle reservation flows to
/// deep searches without evicting anyone's accepted prefixes — see
/// [`ftts_kv::PoolBudget::rebalance`]).
pub(crate) fn rebalance_demand(
    group: &mut [InFlight],
    rest: &mut [InFlight],
    pool: &mut PoolBudget,
) {
    if group.is_empty() && rest.is_empty() {
        return;
    }
    let requests: Vec<ShareRequest> = group
        .iter_mut()
        .chain(rest.iter_mut())
        .map(|a| {
            let demand = a.run.demand_bytes();
            a.declared_demand = demand;
            ShareRequest {
                holder: a.idx as u64,
                demand,
                // The floor (resident unique tree plus one step of
                // growth, scaled to a full gen+ver share) must hold
                // until the next boundary — see
                // `RequestRun::kv_floor_bytes`.
                floor: a.run.kv_floor_bytes(),
            }
        })
        .collect();
    assert!(
        pool.rebalance(&requests),
        "active set must cover the reservation ledger exactly"
    );
    for a in group.iter_mut().chain(rest.iter_mut()) {
        a.run.set_kv_budget(pool.share_of(a.idx as u64));
    }
}

/// Two-level tenant fair-share rebalance: every in-flight run declares
/// its demand/floor exactly as [`rebalance_demand`], tagged with the
/// tenant it bills to and the tenant's policy weight; the ledger splits
/// the pool across tenants by weighted fair-share (each bounded by its
/// hard cap), then within each tenant demand-proportionally — see
/// [`ftts_kv::PoolBudget::rebalance_tenants`]. Unlike the untenanted
/// rebalance the ledger may end under-subscribed: bytes a tenant cap
/// withholds stay free instead of spilling to other tenants.
pub(crate) fn rebalance_tenants(
    policy: &TenantPolicy,
    group: &mut [InFlight],
    rest: &mut [InFlight],
    pool: &mut PoolBudget,
) {
    if group.is_empty() && rest.is_empty() {
        return;
    }
    let requests: Vec<TenantShareRequest> = group
        .iter_mut()
        .chain(rest.iter_mut())
        .map(|a| {
            let demand = a.run.demand_bytes();
            a.declared_demand = demand;
            TenantShareRequest {
                req: ShareRequest {
                    holder: a.idx as u64,
                    demand,
                    floor: a.run.kv_floor_bytes(),
                },
                tenant: u64::from(a.tenant),
                weight: policy.spec(a.tenant).weight,
            }
        })
        .collect();
    assert!(
        pool.rebalance_tenants(&requests),
        "active set must cover the reservation ledger exactly"
    );
    for a in group.iter_mut().chain(rest.iter_mut()) {
        a.run.set_kv_budget(pool.share_of(a.idx as u64));
    }
}

/// Whether any in-flight run's working-set demand drifted ±25% past its
/// last declaration — the trigger for an off-boundary elastic
/// rebalance. Trees grow for many rounds between admissions and
/// completions; shares frozen at an early snapshot would shrink a
/// growing request into preemption.
pub(crate) fn demand_drifted(group: &[InFlight], rest: &[InFlight]) -> bool {
    group.iter().chain(rest.iter()).any(|a| {
        let demand = a.run.demand_bytes();
        let declared = a.declared_demand.max(1);
        demand * 4 > declared * 5 || demand * 5 < declared * 4
    })
}

/// Whether `tenant` has admission quota left, counting every in-flight
/// holder (launching group plus rest). Always true without a tenant
/// policy.
fn tenant_quota_open(
    policy: Option<&TenantPolicy>,
    tenant: u32,
    group: &[InFlight],
    rest: &[InFlight],
) -> bool {
    let Some(p) = policy else { return true };
    let in_flight = group
        .iter()
        .chain(rest.iter())
        .filter(|a| a.tenant == tenant)
        .count();
    in_flight < p.spec(tenant).quota()
}

/// The probe/admission share offered to a candidate of `tenant`: the
/// equal split, additionally clamped to the tenant's hard cap divided
/// across the tenant's would-be in-flight count — so a capped tenant's
/// candidate is probed at a share the tenant rebalance can actually
/// sustain instead of admitting on memory it will lose at the very next
/// boundary. Identity without a tenant policy.
fn tenant_probe_share(
    policy: Option<&TenantPolicy>,
    share: u64,
    tenant: u32,
    group: &[InFlight],
    rest: &[InFlight],
) -> u64 {
    let Some(p) = policy else { return share };
    let n_t = group
        .iter()
        .chain(rest.iter())
        .filter(|a| a.tenant == tenant)
        .count() as u64;
    share.min(p.spec(tenant).kv_cap_bytes / (n_t + 1))
}

/// What an admission pass did, beyond whether anyone joined.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AdmitReport {
    /// Whether anyone was admitted (shares were resized).
    pub(crate) admitted: bool,
    /// Fresh admissions whose beam width the degradation controller
    /// shrank below the configured width.
    pub(crate) degradations: u32,
}

/// Admit readmission candidates and fresh arrivals into `group`, at
/// equal KV shares (a demand-proportional policy rebalances right after
/// the admission boundary). Candidate order is [`admission_rank`]:
/// preempted runs hold accepted work, so they go first; fresh arrivals
/// stay FIFO (only the queue head is ever attempted) — except under
/// [`FaultPolicy::Degrade`](crate::FaultPolicy::Degrade), where both
/// classes rank earliest-deadline-first and the degradation controller
/// may grant fresh admissions a narrower beam width under queue
/// pressure. `rest` is the portion of the in-flight set outside the
/// launching group — its reservations resize with everyone else's and
/// it counts against `max_batch`, but admissions never join it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn admit(
    ctx: &SchedCtx<'_>,
    group: &mut Vec<InFlight>,
    rest: &mut [InFlight],
    paused: &mut VecDeque<InFlight>,
    waiting: &mut VecDeque<usize>,
    pool: &mut PoolBudget,
    tier: &mut HostTier,
    arrivals: &[RequestArrival],
    global: f64,
    admit_seq: &mut u64,
) -> Result<AdmitReport, EngineError> {
    let mut report = AdmitReport::default();
    let edf = ctx.config.robust.slo_enforcement();
    // Without mid-flight admission the gate only opens while the device
    // is idle — but once open, the whole gang fills (up to `max_batch`)
    // before the batch runs to completion.
    let device_idle = group.is_empty() && rest.is_empty();
    if !ctx.config.admit_mid_flight && !device_idle {
        return Ok(report);
    }
    loop {
        let in_flight = group.len() + rest.len();
        if in_flight >= ctx.config.max_batch || (paused.is_empty() && waiting.is_empty()) {
            return Ok(report);
        }
        let share = pool.equal_share(in_flight + 1);
        if in_flight > 0 && share < ctx.config.min_share_bytes {
            return Ok(report);
        }
        // Candidates in tiebreak order: every readmission candidate
        // (pause order), then the head of the arrival queue. Under SLO
        // enforcement both classes rank earliest-deadline-first instead
        // (readmits still outrank fresh arrivals — they hold accepted
        // work), with position as the deterministic tiebreak. A tenant
        // policy filters both classes by admission quota first, so a
        // quota-blocked tenant's arrivals queue without blocking other
        // tenants' arrivals behind them.
        let policy = ctx.config.tenants;
        let mut readmit_order: Vec<usize> = (0..paused.len())
            .filter(|&pos| tenant_quota_open(policy.as_ref(), paused[pos].tenant, group, rest))
            .collect();
        let fresh_pos = if edf {
            readmit_order.sort_by(|&x, &y| {
                paused[x]
                    .deadline
                    .partial_cmp(&paused[y].deadline)
                    .expect("finite or +inf deadlines")
                    .then(x.cmp(&y))
            });
            (0..waiting.len())
                .filter(|&x| {
                    tenant_quota_open(policy.as_ref(), arrivals[waiting[x]].tenant, group, rest)
                })
                .min_by(|&x, &y| {
                    arrivals[waiting[x]]
                        .deadline
                        .partial_cmp(&arrivals[waiting[y]].deadline)
                        .expect("finite or +inf deadlines")
                        .then(waiting[x].cmp(&waiting[y]))
                })
        } else if policy.is_some() {
            (0..waiting.len()).find(|&x| {
                tenant_quota_open(policy.as_ref(), arrivals[waiting[x]].tenant, group, rest)
            })
        } else if waiting.is_empty() {
            None
        } else {
            Some(0)
        };
        let candidates: Vec<AdmitCandidate> = readmit_order
            .into_iter()
            .map(AdmitCandidate::Readmit)
            .chain(fresh_pos.map(|p| AdmitCandidate::Fresh(waiting[p])))
            .collect();
        debug_assert!(
            edf || candidates
                .windows(2)
                .all(|w| admission_rank(w[0]) < admission_rank(w[1])),
            "non-EDF candidates are already in tiebreak order"
        );
        let joining_others = in_flight > 0;
        let mut progressed = false;
        for cand in candidates {
            match cand {
                AdmitCandidate::Readmit(pos) => {
                    // First preempted run that can make progress at this
                    // share. Joining a multi-request batch additionally
                    // requires its working set to fit, or it would
                    // bounce straight back out; with the device to
                    // itself it may thrash, as FIFO would.
                    let cand =
                        tenant_probe_share(policy.as_ref(), share, paused[pos].tenant, group, rest);
                    let p = &mut paused[pos];
                    if !matches!(p.probe, Some((s, _, _)) if s == cand) {
                        p.run.set_kv_budget(cand);
                        p.probe = Some((cand, p.run.can_progress(), p.run.fits_working_set()));
                    }
                    let (_, can_progress, fits_ws) = p.probe.expect("probe just set");
                    if !(can_progress && (!joining_others || fits_ws)) {
                        continue;
                    }
                    let mut p = paused.remove(pos).expect("index in range");
                    p.run.set_kv_budget(cand);
                    shrink(group, rest, pool, share);
                    assert!(pool.reserve(p.idx as u64, cand), "ledger must have room");
                    // The parked host bytes are coming back on-device:
                    // free the tier's ledger now; the actual swap-in is
                    // charged lazily as host-resident nodes pin
                    // (restore path), same as the legacy implicit host.
                    tier.unpark(p.idx as u64);
                    p.preempted_secs += global - p.paused_at;
                    pad_to(&mut p, global);
                    p.admit_seq = *admit_seq;
                    *admit_seq += 1;
                    group.push(p);
                    // Tenant mode under-subscribes the ledger by design
                    // (caps withhold bytes); the tenant rebalance right
                    // after this boundary sets the real shares, so the
                    // full-subscription top-up does not apply.
                    if policy.is_none() {
                        top_up_first_holder(group, rest, pool, share);
                    }
                    report.admitted = true;
                    progressed = true;
                }
                AdmitCandidate::Fresh(idx) => {
                    // Graceful degradation: under SLO enforcement the
                    // controller shrinks the TTS budget (beam width) of
                    // fresh admissions while the backlog is deep — one
                    // halving per `degrade_queue_per_level` queued or
                    // preempted requests, floored per SLO class — so
                    // the system trades answer-quality headroom for
                    // deadline hits *before* it resorts to shedding.
                    let n_granted = if edf {
                        let backlog = waiting.len() + paused.len();
                        let level =
                            (backlog / ctx.config.robust.degrade_queue_per_level.max(1)) as u32;
                        degraded_beams(ctx.n, arrivals[idx].slo, level)
                    } else {
                        ctx.n
                    };
                    let mut driver = make_driver(ctx.kind, n_granted, 4);
                    // Warm start from the host tier: a published prefix
                    // for this problem replaces that many prompt tokens'
                    // prefill with a costed host→device swap-in. Peek
                    // (not lookup) so a failed admission attempt does
                    // not perturb hotness; the hit/miss is registered
                    // once on success.
                    let warm_tokens = tier
                        .peek_prefix_tokens(arrivals[idx].problem.seed)
                        .min(arrivals[idx].problem.prompt_tokens);
                    let warm = (warm_tokens > 0).then_some(ftts_engine::WarmStart {
                        tokens: warm_tokens,
                    });
                    let cand = tenant_probe_share(
                        policy.as_ref(),
                        share,
                        arrivals[idx].tenant,
                        group,
                        rest,
                    );
                    match ctx.server.begin_request_warm(
                        &arrivals[idx].problem,
                        n_granted,
                        driver.as_mut(),
                        f64::INFINITY,
                        Some(cand),
                        warm,
                    ) {
                        Ok(mut run) => {
                            if tier.enabled() {
                                tier.lookup_prefix(arrivals[idx].problem.seed);
                                run.set_swap_accounting(true);
                            }
                            let pos = waiting
                                .iter()
                                .position(|&w| w == idx)
                                .expect("candidate still queued");
                            waiting.remove(pos);
                            shrink(group, rest, pool, share);
                            assert!(pool.reserve(idx as u64, cand), "ledger must have room");
                            group.push(InFlight {
                                idx,
                                run,
                                driver,
                                arrived_at: arrivals[idx].at,
                                slo: arrivals[idx].slo,
                                deadline: arrivals[idx].deadline,
                                tenant: arrivals[idx].tenant,
                                granted_n: n_granted,
                                started_at: global,
                                admit_seq: *admit_seq,
                                preemptions: 0,
                                preempted_secs: 0.0,
                                paused_at: 0.0,
                                probe: None,
                                declared_demand: 0,
                            });
                            if policy.is_none() {
                                top_up_first_holder(group, rest, pool, share);
                            }
                            *admit_seq += 1;
                            report.admitted = true;
                            if n_granted < ctx.n {
                                report.degradations += 1;
                            }
                            progressed = true;
                        }
                        // The whole pool cannot host this prompt:
                        // infeasible.
                        Err(e) if in_flight == 0 => return Err(e),
                        // A share cannot: leave it queued until capacity
                        // frees (FIFO — later arrivals wait behind it).
                        Err(_) => return Ok(report),
                    }
                }
            }
            if progressed {
                break;
            }
        }
        if !progressed {
            // Only unfittable preempted runs remain (and no admissible
            // arrival); wait for the batch to drain and shares to
            // regrow.
            return Ok(report);
        }
    }
}

/// What one SLO-enforcement sweep did.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SloSweep {
    /// Arrivals rejected before admission (expired slack or an
    /// infeasible working set).
    pub(crate) shed: u32,
    /// Admitted (in-flight or preempted) runs cancelled past their
    /// deadline.
    pub(crate) cancelled: u32,
}

/// Seal a cancelled run into its served record: the request is counted
/// as shed (no answer delivered), its partial statistics are kept for
/// attribution, and its cancellation instant never precedes the work it
/// already did.
fn cancel_record(a: InFlight, now: f64) -> ServedRequest {
    let finished_at = now.max(a.started_at + a.run.clock());
    let stats = a.run.finish();
    ServedRequest {
        arrived_at: a.arrived_at,
        started_at: a.started_at,
        finished_at,
        preemptions: a.preemptions,
        preempted_secs: a.preempted_secs,
        slo: a.slo,
        deadline: a.deadline,
        shed: true,
        granted_n: a.granted_n,
        outcome: ServeOutcome {
            stats,
            answer: None,
        },
    }
}

/// Deadline/SLO enforcement sweep, shared by both schedulers and active
/// only under [`FaultPolicy::Degrade`](crate::FaultPolicy::Degrade):
///
/// * **Early rejection** — waiting arrivals whose deadline slack has
///   fallen below [`RobustConfig::min_slack_secs`](crate::RobustConfig)
///   are shed immediately (admitting them would waste device time on a
///   guaranteed miss), as are arrivals whose prompt working set exceeds
///   the *entire* KV pool (they could never be admitted at any share —
///   the graceful form of the engine's hard infeasibility error).
/// * **Timeout cancellation** — admitted runs past their deadline are
///   hopeless: in-flight members release their pool reservation (and
///   survivors re-share); preempted members hold no reservation and are
///   simply sealed. Either way the request is recorded as shed at the
///   sweep instant.
///
/// Requests without deadlines (`f64::INFINITY`) are never touched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enforce_slo(
    ctx: &SchedCtx<'_>,
    now: f64,
    pool_bytes: u64,
    arrivals: &[RequestArrival],
    waiting: &mut VecDeque<usize>,
    paused: &mut VecDeque<InFlight>,
    group: &mut Vec<InFlight>,
    rest: &mut Vec<InFlight>,
    pool: &mut PoolBudget,
    tier: &mut HostTier,
    served: &mut [Option<ServedRequest>],
) -> SloSweep {
    let mut sweep = SloSweep::default();
    if !ctx.config.robust.slo_enforcement() {
        return sweep;
    }
    // Early rejection: expired slack, or a prompt no share could host.
    // Prompt tokens already host-resident in the tier (a published warm
    // prefix) swap in instead of occupying fresh device KV at prefill,
    // so only the *cold* tail counts against the device working set —
    // counting warm bytes too would double-book memory that is no
    // longer on-device and shed requests the tier can actually serve.
    let gen_bpt = ctx.server.config().models.gen_spec.kv_bytes_per_token();
    waiting.retain(|&idx| {
        let a = &arrivals[idx];
        let expired = a.deadline - now < ctx.config.robust.min_slack_secs;
        let cold_tokens = a
            .problem
            .prompt_tokens
            .saturating_sub(tier.peek_prefix_tokens(a.problem.seed));
        // The device working set must fit the whole pool — and, under a
        // tenant policy, the arrival's own tenant cap: a prompt the cap
        // could never host sheds now instead of thrashing in and out of
        // admission forever (working-set-aware early rejection).
        let cap = ctx
            .config
            .tenants
            .map_or(u64::MAX, |p| p.spec(a.tenant).kv_cap_bytes);
        let cold_bytes = cold_tokens.saturating_mul(gen_bpt);
        let infeasible = cold_bytes > pool_bytes || cold_bytes > cap;
        if !(expired || infeasible) {
            return true;
        }
        served[idx] = Some(ServedRequest {
            arrived_at: a.at,
            started_at: now,
            finished_at: now,
            preemptions: 0,
            preempted_secs: 0.0,
            slo: a.slo,
            deadline: a.deadline,
            shed: true,
            granted_n: 0,
            outcome: ServeOutcome {
                stats: RunStats::default(),
                answer: None,
            },
        });
        sweep.shed += 1;
        false
    });
    // Timeout cancellation of preempted runs: they hold no reservation
    // (released at preemption), so sealing them frees nothing on-device
    // but stops them from ever re-admitting and burning device time on
    // a miss. Their parked host bytes ARE freed — and the prompt prefix
    // they already paid to prefill is offered to the tier's shared
    // store, so a retry of the same problem warm-starts instead of
    // recomputing from scratch.
    let mut pos = 0;
    while pos < paused.len() {
        if now > paused[pos].deadline {
            let p = paused.remove(pos).expect("index in range");
            let idx = p.idx;
            tier.unpark(idx as u64);
            let prompt_tokens = arrivals[idx].problem.prompt_tokens;
            tier.publish_prefix(
                arrivals[idx].problem.seed,
                prompt_tokens,
                prompt_tokens.saturating_mul(gen_bpt),
            );
            served[idx] = Some(cancel_record(p, now));
            sweep.cancelled += 1;
        } else {
            pos += 1;
        }
    }
    // Timeout cancellation of in-flight runs: release the reservation
    // and re-share the survivors at the completion boundary. The prompt
    // prefix is published to the tier on the way out (the copy-out
    // overlaps the release and is not charged to the cancelled run — it
    // is already past its deadline and off the critical path).
    let mut dropped = false;
    for list in [&mut *group, &mut *rest] {
        let mut i = 0;
        while i < list.len() {
            if now > list[i].deadline {
                let a = list.remove(i);
                let idx = a.idx;
                pool.release(idx as u64);
                // In-flight members normally hold no parked host bytes
                // (readmission unparks), but reclaim defensively so a
                // cancellation can never strand tier capacity.
                tier.unpark(idx as u64);
                let prompt_tokens = arrivals[idx].problem.prompt_tokens;
                tier.publish_prefix(
                    arrivals[idx].problem.seed,
                    prompt_tokens,
                    prompt_tokens.saturating_mul(gen_bpt),
                );
                served[idx] = Some(cancel_record(a, now));
                sweep.cancelled += 1;
                dropped = true;
            } else {
                i += 1;
            }
        }
    }
    if dropped {
        reshare(ctx.config, group, rest, pool);
    }
    sweep
}

/// Externally directed cancellation sweep, driven by
/// [`RunDirectives`](crate::event_server::RunDirectives): request `idx`
/// is cancelled at the first launch boundary at or after
/// `cancel_at[idx]`, regardless of the fault policy. This is how a
/// fleet expresses crash failover ("this replica lost you at `t`") and
/// hedge resolution ("your duplicate already won at `t`") to a device
/// timeline.
///
/// Unlike deadline cancellation, a directed cancel does **not** publish
/// the request's prompt prefix to the host tier: a crashed device's
/// host path is down, and a hedge loser's winner publishes on its own
/// replica. Reclaim is total — waiting entries are shed, paused entries
/// unpark-and-drop their parked bytes, in-flight entries release their
/// pool reservation (and defensively unpark) — so tier usage returns to
/// its pre-request level.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_cancels(
    config: &BatchConfig,
    cancel_at: &[f64],
    now: f64,
    arrivals: &[RequestArrival],
    waiting: &mut VecDeque<usize>,
    paused: &mut VecDeque<InFlight>,
    group: &mut Vec<InFlight>,
    rest: &mut Vec<InFlight>,
    pool: &mut PoolBudget,
    tier: &mut HostTier,
    served: &mut [Option<ServedRequest>],
) -> SloSweep {
    let mut sweep = SloSweep::default();
    let due = |idx: usize| cancel_at.get(idx).is_some_and(|&t| t <= now);
    waiting.retain(|&idx| {
        if !due(idx) {
            return true;
        }
        let a = &arrivals[idx];
        served[idx] = Some(ServedRequest {
            arrived_at: a.at,
            started_at: now,
            finished_at: now,
            preemptions: 0,
            preempted_secs: 0.0,
            slo: a.slo,
            deadline: a.deadline,
            shed: true,
            granted_n: 0,
            outcome: ServeOutcome {
                stats: RunStats::default(),
                answer: None,
            },
        });
        sweep.shed += 1;
        false
    });
    let mut pos = 0;
    while pos < paused.len() {
        if due(paused[pos].idx) {
            let p = paused.remove(pos).expect("index in range");
            tier.unpark(p.idx as u64);
            let idx = p.idx;
            served[idx] = Some(cancel_record(p, now));
            sweep.cancelled += 1;
        } else {
            pos += 1;
        }
    }
    let mut dropped = false;
    for list in [&mut *group, &mut *rest] {
        let mut i = 0;
        while i < list.len() {
            if due(list[i].idx) {
                let a = list.remove(i);
                let idx = a.idx;
                pool.release(idx as u64);
                tier.unpark(idx as u64);
                served[idx] = Some(cancel_record(a, now));
                sweep.cancelled += 1;
                dropped = true;
            } else {
                i += 1;
            }
        }
    }
    if dropped {
        reshare(config, group, rest, pool);
    }
    sweep
}

/// Verifier-device accounting of one launch's sweeps.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SweepTally {
    pub(crate) sweeps: u64,
    pub(crate) seqs: u64,
    pub(crate) busy_secs: f64,
}

impl SweepTally {
    fn record(&mut self, cost: &ftts_hw::KernelCost, members: usize) {
        if cost.seconds <= 0.0 {
            return;
        }
        self.sweeps += 1;
        self.seqs += members as u64;
        self.busy_secs += cost.seconds;
    }
}

/// Price one launch's verifier prefill chunks over the shared
/// accelerator, filling `charges` (one [`VerifyCharge`] per chunk, per
/// request).
///
/// Unfused: each request's sweeps are separate kernels that serialize
/// in admission order — a request whose turn has not come idle-waits
/// for the device. Fused: all requests' wave-`w` chunks launch as one
/// shared `prefill_batch` sweep; every participant waits the full
/// kernel but is attributed only its `new_tokens`-proportional share as
/// verifier busy time. Either way a single participant degenerates to
/// its own solo sweep, which is what keeps batch-1 scheduling
/// bit-identical to `ServerSim`.
pub(crate) fn cost_verify_sweeps(
    fused: bool,
    members: &mut [InFlight],
    plans: &[Vec<VerifyChunk>],
    charges: &mut [Vec<VerifyCharge>],
) -> SweepTally {
    let mut tally = SweepTally::default();
    if fused {
        let waves = plans.iter().map(Vec::len).max().unwrap_or(0);
        for wave in 0..waves {
            let parties: Vec<usize> = (0..plans.len())
                .filter(|&i| plans[i].len() > wave)
                .collect();
            // One shared kernel for the whole wave: every part keeps
            // its own attention shape, the verifier weights stream
            // once. Like co-batched decode, each participant advances
            // the shared-kernel time from its own clock (the scheduler
            // re-aligns launches); a single participant degenerates to
            // its own solo sweep bit-for-bit.
            let parts: Vec<(usize, u64, u64)> = parties
                .iter()
                .map(|&i| {
                    let c = plans[i][wave];
                    let m = c.members.max(1);
                    (m, c.new_tokens / m as u64, c.cached_tokens / m as u64)
                })
                .collect();
            let cost = members[parties[0]]
                .run
                .verifier_roofline()
                .prefill_fused(&parts);
            let total_new: u64 = parties.iter().map(|&i| plans[i][wave].new_tokens).sum();
            // The fused kernel streams its sub-batches back to back
            // (continuous batching inside the verifier): request `i`'s
            // scores are ready once the prefix of the launch holding
            // its sequences has been processed, so it is charged the
            // prefix end — its own slice as `verifier` busy time, the
            // wait for earlier sub-batches as idle. The last
            // participant pays the whole kernel, so the slices sum to
            // the kernel exactly (no double-count).
            let mut seqs = 0usize;
            let mut prefix = 0.0f64;
            for &i in &parties {
                let chunk = plans[i][wave];
                seqs += chunk.members;
                let slice = if total_new > 0 {
                    cost.seconds * chunk.new_tokens as f64 / total_new as f64
                } else {
                    cost.seconds / parties.len() as f64
                };
                prefix += slice;
                charges[i].push(VerifyCharge {
                    seconds: prefix,
                    compute_util: cost.compute_util,
                    busy_seconds: slice,
                });
            }
            tally.record(&cost, seqs);
        }
    } else {
        let mut device_free = f64::NEG_INFINITY;
        for (i, a) in members.iter_mut().enumerate() {
            if plans[i].is_empty() {
                continue;
            }
            pad_to(a, device_free);
            let mut end = a.started_at + a.run.clock();
            for chunk in &plans[i] {
                let cost = chunk.solo_cost(a.run.verifier_roofline());
                end += cost.seconds;
                charges[i].push(VerifyCharge::full(&cost));
                tally.record(&cost, chunk.members);
            }
            device_free = end;
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPolicy;
    use crate::faults::RobustConfig;
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_kv::KvTierConfig;
    use ftts_workload::{ArrivalPattern, Dataset};

    #[test]
    fn early_rejection_ignores_host_resident_prompt_bytes() {
        // Satellite regression: `enforce_slo`'s infeasibility check must
        // count only the *cold* prompt tail against the device pool — a
        // published warm prefix swaps in from host RAM instead of
        // claiming fresh device KV at prefill. A pool sized under the
        // full prompt but over the cold tail sheds the arrival without
        // the tier and retains it with the tier.
        let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let config = crate::BatchConfig::continuous(2)
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
        let ctx = SchedCtx {
            server: &server,
            n: 4,
            kind: SearchKind::BeamSearch,
            config: &config,
        };
        let problems = Dataset::Aime2024.problems(1, 7);
        let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
        let gen_bpt = server.config().models.gen_spec.kv_bytes_per_token();
        let prompt = arrivals[0].problem.prompt_tokens;
        assert!(prompt > 8, "fixture prompt long enough to split");
        let warm = prompt - 8;
        // Full prompt misses the pool by one token; the cold tail fits.
        let pool_bytes = (prompt - 1) * gen_bpt;

        let run = |tier: &mut HostTier| {
            let mut waiting: VecDeque<usize> = VecDeque::from([0]);
            let mut paused: VecDeque<InFlight> = VecDeque::new();
            let mut group: Vec<InFlight> = Vec::new();
            let mut rest: Vec<InFlight> = Vec::new();
            let mut pool = PoolBudget::new(pool_bytes);
            let mut served = vec![None];
            let sweep = enforce_slo(
                &ctx,
                0.0,
                pool_bytes,
                &arrivals,
                &mut waiting,
                &mut paused,
                &mut group,
                &mut rest,
                &mut pool,
                tier,
                &mut served,
            );
            (sweep.shed, waiting.len())
        };

        let mut disabled = HostTier::new(KvTierConfig::default());
        assert_eq!(
            run(&mut disabled),
            (1, 0),
            "without the tier the full prompt is infeasible and sheds"
        );

        let mut tier = HostTier::new(KvTierConfig::with_capacity(warm * gen_bpt));
        tier.publish_prefix(arrivals[0].problem.seed, warm, warm * gen_bpt);
        assert_eq!(
            run(&mut tier),
            (0, 1),
            "host-resident prefix bytes must not count against the device pool"
        );
    }

    #[test]
    fn readmits_outrank_fresh_arrivals() {
        assert!(
            admission_rank(AdmitCandidate::Readmit(5)) < admission_rank(AdmitCandidate::Fresh(0))
        );
    }

    #[test]
    fn within_class_earlier_position_wins() {
        assert!(
            admission_rank(AdmitCandidate::Readmit(0)) < admission_rank(AdmitCandidate::Readmit(1))
        );
        assert!(
            admission_rank(AdmitCandidate::Fresh(2)) < admission_rank(AdmitCandidate::Fresh(3))
        );
    }

    #[test]
    fn sorting_candidates_is_deterministic_for_simultaneous_arrivals() {
        // Simultaneous arrivals (same instant, distinct stream indices)
        // plus a couple of readmission candidates, shuffled: sorting by
        // the rank always recovers pause order first, then arrival
        // order — the scheduler-independent admission order.
        let mut candidates = vec![
            AdmitCandidate::Fresh(4),
            AdmitCandidate::Readmit(1),
            AdmitCandidate::Fresh(2),
            AdmitCandidate::Readmit(0),
            AdmitCandidate::Fresh(3),
        ];
        candidates.sort_by_key(|&c| admission_rank(c));
        assert_eq!(
            candidates,
            vec![
                AdmitCandidate::Readmit(0),
                AdmitCandidate::Readmit(1),
                AdmitCandidate::Fresh(2),
                AdmitCandidate::Fresh(3),
                AdmitCandidate::Fresh(4),
            ]
        );
    }
}
