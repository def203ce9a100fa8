//! Admission, shares and sweeps of the timeline run loop
//! ([`TimelineServerSim`]): the in-flight request record and its served
//! record, the admission pass (readmits first, then the queue), KV-share
//! resizing (equal, demand-proportional and tenant fair-share), the
//! deadline and directed cancellation sweeps, and the
//! shared-accelerator verifier sweep pricing.
//!
//! Admission, shares and sweeps are methods on the loop's state,
//! `LoopState` (defined in the `timeline` module), and read and write
//! its queues, pool, tier, records and counters directly:
//!
//! * `admit` moves preempted runs, then fresh arrivals, into the
//!   launching `group` and counts degradations;
//! * `enforce_slo` (deadlines) and `apply_cancels` (directives) choose
//!   what to shed and cancel, and share one cancellation walk that
//!   seals each request, reclaims its pool and tier bytes, counts it
//!   and re-shares the survivors;
//! * `reshare`, `rebalance` and the admission probes size shares over
//!   the `group` plus the `rest` of the in-flight set (requests
//!   mid-iteration outside the batching window), because shares and
//!   admission caps must count *everyone* holding pool reservations,
//!   not just the requests in the current launch.
//!
//! [`TimelineServerSim`]: crate::TimelineServerSim

use std::rc::Rc;

use ftts_engine::{
    EngineError, RequestRun, RunStats, SearchDriver, VerifyCharge, VerifyChunk, Wait, WarmStart,
};
use ftts_kv::{ShareRequest, TenantShareRequest};
use ftts_metrics::SloClass;
use ftts_search::make_driver;
use ftts_workload::RequestArrival;

use crate::faults::{degraded_beams, DEGRADE_QUEUE_PER_LEVEL};
use crate::server::{ServeOutcome, ServedRequest};
use crate::timeline::LoopState;

/// One in-flight (or preempted) request.
#[derive(Clone)]
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
    /// Id of the run's latest decode segment on the device timeline,
    /// open until its next decode segment or its seal.
    pub(crate) decode_segment: Option<usize>,
}

impl InFlight {
    /// The absolute device time this request's next iteration could
    /// start — the event a ready queue is keyed on.
    pub(crate) fn ready_at(&self) -> f64 {
        self.started_at + self.run.clock()
    }

    /// Seal the request into its served record. A completed run
    /// (`cancelled_at` is `None`) finishes at its own clock and delivers
    /// its majority answer. A run cancelled at an instant delivers no
    /// answer and counts as shed; its partial statistics are kept for
    /// attribution, and it is never sealed before the work it already
    /// did.
    pub(crate) fn seal(self, cancelled_at: Option<f64>) -> ServedRequest {
        let cancelled_at = cancelled_at.map(|now| now.max(self.started_at + self.run.clock()));
        let stats = self.run.finish();
        let (finished_at, answer) = match cancelled_at {
            Some(at) => (at, None),
            None => (
                self.started_at + stats.latency(),
                ftts_metrics::top1_majority(&stats.answers()),
            ),
        };
        ServedRequest {
            arrived_at: self.arrived_at,
            started_at: self.started_at,
            finished_at,
            preemptions: self.preemptions,
            preempted_secs: self.preempted_secs,
            slo: self.slo,
            deadline: self.deadline,
            shed: cancelled_at.is_some(),
            granted_n: self.granted_n,
            outcome: ServeOutcome { stats, answer },
        }
    }
}

/// Idle-pad `a`'s internal clock up to the absolute instant `global`,
/// booking the gap as `wait` (see [`Wait`]): a co-batch window wait, a
/// readmission gap or a shared-device wait, a lockstep round barrier,
/// or a token-join wait. Skips members already at (or past) the instant
/// so the relative→absolute round trip cannot perturb their clock by a
/// ulp — bit-exactness with the FIFO path depends on this.
pub(crate) fn pad(a: &mut InFlight, global: f64, wait: Wait) {
    let clock = a.run.clock();
    let absolute = a.started_at + clock;
    if absolute < global {
        a.run.wait_until(clock + (global - absolute), wait);
    }
}

/// Seal a request that never ran into its served record: an arrival
/// shed from the waiting queue at `now`, with no work and no answer.
fn unserved(a: &RequestArrival, now: f64) -> ServedRequest {
    ServedRequest {
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
    }
}

/// KV shares over the in-flight set: the group plus the rest, because
/// shares and admission caps must count *everyone* holding pool
/// reservations, not just the requests in the current launch.
impl LoopState<'_> {
    /// Resize every in-flight request's reservation to `share` ahead of
    /// an admission. Shrinks apply before grows so the intermediate
    /// ledger state never overcommits — with equal shares everyone
    /// shrinks (the legacy path, byte-identical), but after a
    /// demand-proportional rebalance small holders may need to grow back
    /// to the equal probe share.
    fn shrink(&mut self, share: u64) {
        for pass in 0..2 {
            for a in self.group.iter_mut().chain(self.rest.iter_mut()) {
                let shrinking = self.pool.share_of(a.idx as u64) >= share;
                if (pass == 0) == shrinking {
                    assert!(
                        self.pool.resize(a.idx as u64, share),
                        "equal reshare must fit"
                    );
                    a.run.set_kv_budget(share);
                }
            }
        }
    }

    /// Regrow every in-flight request's reservation to the equal share,
    /// handing the integer-division remainder to the first holder so the
    /// ledger stays fully subscribed (the bytes `equal_share` truncates
    /// used to strand — up to k−1 every rebalance).
    fn regrow(&mut self) {
        let k = self.group.len() + self.rest.len();
        let share = self.pool.equal_share(k);
        for a in self.group.iter_mut().chain(self.rest.iter_mut()) {
            assert!(self.pool.resize(a.idx as u64, share), "regrow must fit");
            a.run.set_kv_budget(share);
        }
        self.top_up_first_holder(share);
    }

    /// Hand the equal-share truncation remainder to the first holder in
    /// group-then-rest order — the same deterministic "one designated
    /// holder absorbs the leftover" rule `proportional_shares` applies —
    /// then assert the ledger covers the whole budget. No-op with no
    /// holders; with one holder the remainder is zero by construction, so
    /// single-request (batch-1 anchor) runs are untouched.
    fn top_up_first_holder(&mut self, share: u64) {
        let k = self.group.len() + self.rest.len();
        let Some(first) = self.group.iter_mut().chain(self.rest.iter_mut()).next() else {
            return;
        };
        let topped = share + self.pool.equal_share_remainder(k);
        assert!(
            self.pool.resize(first.idx as u64, topped),
            "remainder must fit"
        );
        first.run.set_kv_budget(topped);
        assert_eq!(
            self.pool.reserved_bytes(),
            self.pool.total_bytes(),
            "equal reshare must cover the whole budget"
        );
    }

    /// Completion/preemption boundary: re-share the surviving in-flight
    /// set — equal split by default, the elastic rebalance under either
    /// elastic policy.
    pub(crate) fn reshare(&mut self) {
        if self.group.is_empty() && self.rest.is_empty() {
            return;
        }
        if self.elastic() {
            self.rebalance();
        } else {
            self.regrow();
        }
    }

    /// Whether the policy rebalances at admission/drift boundaries
    /// (demand-proportional shares or a tenant policy) rather than only
    /// regrowing at completion/preemption.
    pub(crate) fn elastic(&self) -> bool {
        self.batch().demand_shares || self.batch().tenants.is_some()
    }

    /// Elastic rebalance; callers gate on [`LoopState::elastic`]. Every
    /// in-flight run declares its working-set demand (live beams × mean
    /// depth × bytes/token) and the floor that keeps its accepted tokens
    /// resident. Without a tenant policy the ledger re-shares the whole
    /// pool proportionally (idle reservation flows to deep searches
    /// without evicting anyone's accepted prefixes — see
    /// [`ftts_kv::PoolBudget::rebalance`]). With a
    /// [`TenantPolicy`](crate::TenantPolicy) each declaration is tagged
    /// with its tenant and the tenant's weight, and the ledger splits the
    /// pool across tenants by weighted fair-share (each bounded by its
    /// hard cap), then within each tenant demand-proportionally — see
    /// [`ftts_kv::PoolBudget::rebalance_tenants`]. Unlike the untenanted
    /// rebalance the ledger may end under-subscribed: bytes a tenant cap
    /// withholds stay free instead of spilling to other tenants.
    pub(crate) fn rebalance(&mut self) {
        if self.group.is_empty() && self.rest.is_empty() {
            return;
        }
        let requests: Vec<ShareRequest> = self
            .group
            .iter_mut()
            .chain(self.rest.iter_mut())
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
        let covered = match self.batch().tenants {
            None => self.pool.rebalance(&requests),
            Some(policy) => {
                let tenanted: Vec<TenantShareRequest> = requests
                    .into_iter()
                    .zip(self.group.iter().chain(&self.rest))
                    .map(|(req, a)| TenantShareRequest {
                        req,
                        tenant: u64::from(a.tenant),
                        weight: policy.spec(a.tenant).weight,
                    })
                    .collect();
                self.pool.rebalance_tenants(&tenanted)
            }
        };
        assert!(
            covered,
            "active set must cover the reservation ledger exactly"
        );
        for a in self.group.iter_mut().chain(self.rest.iter_mut()) {
            a.run.set_kv_budget(self.pool.share_of(a.idx as u64));
        }
    }

    /// Whether any in-flight run's working-set demand drifted ±25% past
    /// its last declaration — the trigger for an off-boundary elastic
    /// rebalance. Trees grow for many rounds between admissions and
    /// completions; shares frozen at an early snapshot would shrink a
    /// growing request into preemption.
    pub(crate) fn demand_drifted(&self) -> bool {
        self.group.iter().chain(&self.rest).any(|a| {
            let demand = a.run.demand_bytes();
            let declared = a.declared_demand.max(1);
            demand * 4 > declared * 5 || demand * 5 < declared * 4
        })
    }

    /// In-flight requests (launching group plus rest) billed to `tenant`.
    fn in_flight_of(&self, tenant: u32) -> usize {
        self.group
            .iter()
            .chain(&self.rest)
            .filter(|a| a.tenant == tenant)
            .count()
    }

    /// Whether `tenant` has admission quota left. Always true without a
    /// tenant policy.
    fn tenant_quota_open(&self, tenant: u32) -> bool {
        self.batch()
            .tenants
            .is_none_or(|p| self.in_flight_of(tenant) < p.spec(tenant).quota())
    }

    /// The probe/admission share offered to a candidate of `tenant`: the
    /// equal split, additionally clamped to the tenant's hard cap divided
    /// across the tenant's would-be in-flight count — so a capped
    /// tenant's candidate is probed at a share the tenant rebalance can
    /// actually sustain instead of admitting on memory it will lose at
    /// the very next boundary. Identity without a tenant policy.
    fn tenant_probe_share(&self, share: u64, tenant: u32) -> u64 {
        self.batch().tenants.map_or(share, |p| {
            share.min(p.spec(tenant).kv_cap_bytes / (self.in_flight_of(tenant) as u64 + 1))
        })
    }
}

/// Admission and the cancellation sweeps.
impl LoopState<'_> {
    /// Admit preempted runs and fresh arrivals into the group, one at a
    /// time, at equal KV shares (a demand-proportional policy rebalances
    /// right after the admission boundary), until `max_batch` is full or
    /// nobody else can join. Preempted runs hold accepted work, so the
    /// first of them that can progress at the share readmits
    /// ([`LoopState::readmit_order`]); only when none can does the next
    /// arrival ([`LoopState::fresh_candidate`]) start. Under
    /// [`FaultPolicy::Degrade`](crate::FaultPolicy::Degrade) both go
    /// earliest-deadline-first, and the degradation controller may grant
    /// fresh admissions a narrower beam width under queue pressure (each
    /// one counts as a degradation). The rest of the in-flight set
    /// resizes its reservations with everyone else's and counts against
    /// `max_batch`, but admissions never join it. Returns whether anyone
    /// was admitted (shares were resized).
    pub(crate) fn admit(&mut self, global: f64) -> Result<bool, EngineError> {
        let config = self.batch();
        // Without mid-flight admission the gate only opens while the device
        // is idle — but once open, the whole gang fills (up to `max_batch`)
        // before the batch runs to completion.
        let device_idle = self.group.is_empty() && self.rest.is_empty();
        if !config.admit_mid_flight && !device_idle {
            return Ok(false);
        }
        let mut admitted = false;
        loop {
            let in_flight = self.group.len() + self.rest.len();
            if in_flight >= config.max_batch || (self.paused.is_empty() && self.waiting.is_empty())
            {
                return Ok(admitted);
            }
            let share = self.pool.equal_share(in_flight + 1);
            let readmit = self
                .readmit_order()
                .into_iter()
                .find(|&pos| self.can_readmit(pos, share, in_flight > 0));
            if let Some(pos) = readmit {
                self.readmit(pos, share, global);
            } else if let Some(idx) = self.fresh_candidate() {
                match self.admit_fresh(idx, share, global) {
                    Ok(()) => {}
                    // The whole pool cannot host this prompt: infeasible.
                    Err(e) if in_flight == 0 => return Err(e),
                    // A share cannot: leave it queued until capacity frees
                    // (later arrivals wait behind it).
                    Err(_) => return Ok(admitted),
                }
            } else {
                // Only unfittable preempted runs remain (and no admissible
                // arrival); wait for the batch to drain and shares to
                // regrow.
                return Ok(admitted);
            }
            admitted = true;
        }
    }

    /// Paused positions in readmission order: pause order, or earliest
    /// deadline first (pause order breaking ties) under SLO enforcement.
    /// A tenant policy skips tenants without admission quota, so a
    /// quota-blocked tenant's runs wait without blocking other tenants'.
    fn readmit_order(&self) -> Vec<usize> {
        let paused = &self.paused;
        let mut order: Vec<usize> = (0..paused.len())
            .filter(|&pos| self.tenant_quota_open(paused[pos].tenant))
            .collect();
        if self.batch().robust.slo_enforcement() {
            order.sort_by(|&x, &y| {
                paused[x]
                    .deadline
                    .partial_cmp(&paused[y].deadline)
                    .expect("finite or +inf deadlines")
                    .then(x.cmp(&y))
            });
        }
        order
    }

    /// The arrival to start next: the queue head, or the earliest
    /// deadline (arrival index breaking ties) under SLO enforcement,
    /// among arrivals whose tenant has admission quota.
    fn fresh_candidate(&self) -> Option<usize> {
        let arrivals = &self.arrivals;
        let open = |idx: &usize| self.tenant_quota_open(arrivals[*idx].tenant);
        let mut queued = self.waiting.iter().copied().filter(open);
        if self.batch().robust.slo_enforcement() {
            queued.min_by(|&x, &y| {
                arrivals[x]
                    .deadline
                    .partial_cmp(&arrivals[y].deadline)
                    .expect("finite or +inf deadlines")
                    .then(x.cmp(&y))
            })
        } else {
            queued.next()
        }
    }

    /// Whether paused run `pos` can make progress at its tenant's probe
    /// share of `share`. Joining a multi-request batch additionally
    /// requires its working set to fit, or it would bounce straight back
    /// out; with the device to itself it may thrash, as FIFO would.
    fn can_readmit(&mut self, pos: usize, share: u64, joining_others: bool) -> bool {
        let cand = self.tenant_probe_share(share, self.paused[pos].tenant);
        let p = &mut self.paused[pos];
        if !matches!(p.probe, Some((s, _, _)) if s == cand) {
            p.run.set_kv_budget(cand);
            p.probe = Some((cand, p.run.can_progress(), p.run.fits_working_set()));
        }
        let (_, can_progress, fits_ws) = p.probe.expect("probe just set");
        can_progress && (!joining_others || fits_ws)
    }

    /// Readmit paused run `pos` into the group at `global`.
    fn readmit(&mut self, pos: usize, share: u64, global: f64) {
        let cand = self.tenant_probe_share(share, self.paused[pos].tenant);
        let mut p = self.paused.remove(pos);
        p.run.set_kv_budget(cand);
        // The parked host bytes are coming back on-device: free the
        // tier's ledger now; the actual swap-in is charged lazily as
        // host-resident nodes pin (restore path), same as the legacy
        // implicit host.
        self.tier.unpark(p.idx as u64);
        p.preempted_secs += global - p.paused_at;
        pad(&mut p, global, Wait::Idle);
        self.join_group(p, share, cand);
    }

    /// Start arrival `idx` at `global` and move it from the queue into
    /// the group. Graceful degradation: under SLO enforcement the
    /// controller shrinks the TTS budget (beam width) of fresh
    /// admissions while the backlog is deep — one halving per
    /// `DEGRADE_QUEUE_PER_LEVEL` queued or preempted requests, floored
    /// per SLO class — so the system trades answer-quality headroom for
    /// deadline hits *before* it resorts to shedding.
    fn admit_fresh(&mut self, idx: usize, share: u64, global: f64) -> Result<(), EngineError> {
        let arrivals = Rc::clone(&self.arrivals);
        let arrival = &arrivals[idx];
        let n = self.sim.n;
        let n_granted = if self.batch().robust.slo_enforcement() {
            let backlog = self.waiting.len() + self.paused.len();
            let level = (backlog / DEGRADE_QUEUE_PER_LEVEL) as u32;
            degraded_beams(n, arrival.slo, level)
        } else {
            n
        };
        let mut driver = make_driver(self.sim.kind, n_granted);
        // Warm start from the host tier: a published prefix for this
        // problem replaces that many prompt tokens' prefill with a costed
        // host→device swap-in. Peek (not lookup) so a failed admission
        // attempt does not perturb hotness; the hit/miss is registered
        // once on success.
        let warm_tokens = self
            .tier
            .peek_prefix_tokens(arrival.problem.seed)
            .min(arrival.problem.prompt_tokens);
        let warm = (warm_tokens > 0).then_some(WarmStart {
            tokens: warm_tokens,
        });
        let cand = self.tenant_probe_share(share, arrival.tenant);
        let mut run = self.sim.server.begin_request(
            &arrival.problem,
            n_granted,
            driver.as_mut(),
            Some(cand),
            warm,
        )?;
        if self.tier.enabled() {
            self.tier.lookup_prefix(arrival.problem.seed);
            run.set_swap_accounting(true);
        }
        self.waiting.retain(|&w| w != idx);
        let a = InFlight {
            idx,
            run,
            driver,
            arrived_at: arrival.at,
            slo: arrival.slo,
            deadline: arrival.deadline,
            tenant: arrival.tenant,
            granted_n: n_granted,
            started_at: global,
            admit_seq: 0,
            preemptions: 0,
            preempted_secs: 0.0,
            paused_at: 0.0,
            probe: None,
            declared_demand: 0,
            decode_segment: None,
        };
        self.join_group(a, share, cand);
        if n_granted < n {
            self.run.degradations += 1;
        }
        Ok(())
    }

    /// Move `a` into the group with a reservation of `cand` bytes after
    /// shrinking everyone in flight to `share`, as the youngest request.
    fn join_group(&mut self, mut a: InFlight, share: u64, cand: u64) {
        self.shrink(share);
        assert!(
            self.pool.reserve(a.idx as u64, cand),
            "ledger must have room"
        );
        a.admit_seq = self.admit_seq;
        self.admit_seq += 1;
        self.group.push(a);
        // Tenant mode under-subscribes the ledger by design (caps
        // withhold bytes); the tenant rebalance right after this
        // boundary sets the real shares, so the full-subscription top-up
        // does not apply.
        if self.batch().tenants.is_none() {
            self.top_up_first_holder(share);
        }
    }

    /// Deadline/SLO enforcement sweep, active only under
    /// [`FaultPolicy::Degrade`](crate::FaultPolicy::Degrade):
    ///
    /// * **Early rejection** — waiting arrivals already past their
    ///   deadline are shed immediately (admitting them would waste device
    ///   time on a guaranteed miss), as are arrivals whose prompt working
    ///   set exceeds the *entire* KV pool (they could never be admitted at
    ///   any share — the graceful form of the engine's hard infeasibility
    ///   error).
    /// * **Timeout cancellation** — admitted runs past their deadline are
    ///   hopeless and are cancelled (see [`LoopState::cancel`]). Their
    ///   prompt prefix is published to the tier on the way out, so a retry
    ///   of the same problem warm-starts instead of recomputing from
    ///   scratch (the copy-out overlaps the release and is not charged to
    ///   the cancelled run — it is already past its deadline and off the
    ///   critical path).
    ///
    /// Requests without deadlines (`f64::INFINITY`) are never touched.
    pub(crate) fn enforce_slo(&mut self, now: f64) {
        let config = self.batch();
        if !config.robust.slo_enforcement() {
            return;
        }
        // Early rejection: an expired deadline, or a prompt no share could
        // host.
        // Prompt tokens already host-resident in the tier (a published warm
        // prefix) swap in instead of occupying fresh device KV at prefill,
        // so only the *cold* tail counts against the device working set —
        // counting warm bytes too would double-book memory that is no
        // longer on-device and shed requests the tier can actually serve.
        let pool_bytes = self.pool.total_bytes();
        let shed: Vec<usize> = self
            .waiting
            .extract_if(.., |&mut idx| {
                let a = &self.arrivals[idx];
                let expired = a.deadline < now;
                let cold_tokens = a
                    .problem
                    .prompt_tokens
                    .saturating_sub(self.tier.peek_prefix_tokens(a.problem.seed));
                // The device working set must fit the whole pool — and,
                // under a tenant policy, the arrival's own tenant cap: a
                // prompt the cap could never host sheds now instead of
                // thrashing in and out of admission forever
                // (working-set-aware early rejection).
                let cap = config
                    .tenants
                    .map_or(u64::MAX, |p| p.spec(a.tenant).kv_cap_bytes);
                let cold_bytes = cold_tokens.saturating_mul(self.gen_bpt);
                expired || cold_bytes > pool_bytes || cold_bytes > cap
            })
            .collect();
        self.cancel(now, &shed, true, |a| now > a.deadline);
    }

    /// Externally directed cancellation sweep, driven by
    /// [`RunDirectives`](crate::event_server::RunDirectives): request `idx`
    /// is cancelled at the first launch boundary at or after its cancel
    /// instant, regardless of the fault policy. This is how a fleet
    /// expresses crash failover ("this replica lost you at `t`") and
    /// hedge resolution ("your duplicate already won at `t`") to a device
    /// timeline.
    ///
    /// Unlike deadline cancellation, a directed cancel does **not** publish
    /// the request's prompt prefix to the host tier: a crashed device's
    /// host path is down, and a hedge loser's winner publishes on its own
    /// replica. Reclaim is total (see [`LoopState::cancel`]), so tier usage
    /// returns to its pre-request level.
    pub(crate) fn apply_cancels(&mut self, now: f64) {
        let directives = Rc::clone(&self.directives);
        let due = |idx: usize| {
            directives
                .cancels
                .iter()
                .any(|&(i, t)| i == idx && t <= now)
        };
        let shed: Vec<usize> = self.waiting.extract_if(.., |&mut idx| due(idx)).collect();
        self.cancel(now, &shed, false, |a| due(a.idx));
    }

    /// The cancellation walk both sweeps share. The `shed` arrivals,
    /// already removed from the waiting queue, are recorded unserved at
    /// `now`. Every admitted run `doomed` picks is cancelled: a paused
    /// run holds no reservation (released at preemption) and unparks its
    /// host bytes; an in-flight run releases its pool reservation and
    /// unparks too (in-flight runs normally hold no parked bytes, but a
    /// cancellation must never strand tier capacity). With `publish`, the
    /// run's prompt prefix is offered to the tier. Each run is sealed as
    /// shed at `now`, and if any in-flight run left, the survivors
    /// re-share.
    fn cancel(
        &mut self,
        now: f64,
        shed: &[usize],
        publish: bool,
        doomed: impl Fn(&InFlight) -> bool,
    ) {
        for &idx in shed {
            self.served[idx] = Some(unserved(&self.arrivals[idx], now));
            self.run.shed += 1;
        }
        let mut runs: Vec<(InFlight, bool)> = self
            .paused
            .extract_if(.., |a| doomed(a))
            .map(|a| (a, false))
            .collect();
        let paused = runs.len();
        runs.extend(
            self.group
                .extract_if(.., |a| doomed(a))
                .chain(self.rest.extract_if(.., |a| doomed(a)))
                .map(|a| (a, true)),
        );
        let dropped = runs.len() > paused;
        for (a, reserved) in runs {
            let idx = a.idx;
            if reserved {
                self.pool.release(idx as u64);
            }
            self.tier.unpark(idx as u64);
            if publish {
                self.publish_prompt(idx);
            }
            self.seal(a, Some(now));
            self.run.cancelled += 1;
        }
        if dropped {
            self.reshare();
        }
    }

    /// Offer request `idx`'s prompt prefix to the host tier's shared
    /// store (a no-op when the tier is disabled).
    pub(crate) fn publish_prompt(&mut self, idx: usize) {
        let problem = &self.arrivals[idx].problem;
        self.tier.publish_prefix(
            problem.seed,
            problem.prompt_tokens,
            problem.prompt_tokens.saturating_mul(self.gen_bpt),
        );
    }
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
            pad(a, device_free, Wait::Idle);
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
    use crate::event_server::RunDirectives;
    use crate::faults::{FaultPlan, FaultPolicy, RobustConfig};
    use crate::server::TtsServer;
    use crate::timeline::TimelineServerSim;
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_kv::{HostTier, KvTierConfig, PoolBudget};
    use ftts_search::SearchKind;
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
        let gen_bpt = server.config().models.gen_spec.kv_bytes_per_token();
        let sim = TimelineServerSim::new(server, 4, SearchKind::BeamSearch, config);
        let problems = Dataset::Aime2024.problems(1, 7);
        let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
        let prompt = arrivals[0].problem.prompt_tokens;
        assert!(prompt > 8, "fixture prompt long enough to split");
        let warm = prompt - 8;
        // Full prompt misses the pool by one token; the cold tail fits.
        let pool_bytes = (prompt - 1) * gen_bpt;

        let (plan, directives) = (FaultPlan::none(), RunDirectives::default());
        let run = |tier: HostTier| {
            let mut state = LoopState::new(
                &sim,
                arrivals.as_slice().into(),
                &plan,
                Rc::new(directives.clone()),
            );
            state.pool = PoolBudget::new(pool_bytes);
            state.tier = tier;
            state.waiting.push(0);
            state.enforce_slo(0.0);
            (state.run.shed, state.waiting.len())
        };

        assert_eq!(
            run(HostTier::new(KvTierConfig::default())),
            (1, 0),
            "without the tier the full prompt is infeasible and sheds"
        );

        let mut tier = HostTier::new(KvTierConfig::with_capacity(warm * gen_bpt));
        tier.publish_prefix(arrivals[0].problem.seed, warm, warm * gen_bpt);
        assert_eq!(
            run(tier),
            (0, 1),
            "host-resident prefix bytes must not count against the device pool"
        );
    }

    /// The arrival that joins a one-slot group when `admit(0.0)` runs
    /// over the preempted runs of `paused` (arrival indices, in pause
    /// order) and the queue `waiting`. Arrival `i` has deadline
    /// `deadlines[i]`; `degrade` turns on earliest-deadline-first
    /// admission.
    fn first_to_join(
        degrade: bool,
        deadlines: &[f64],
        paused: &[usize],
        waiting: &[usize],
    ) -> usize {
        let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let mut config = crate::BatchConfig::continuous(1);
        if degrade {
            config = config.with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
        }
        let sim = TimelineServerSim::new(server, 4, SearchKind::BeamSearch, config);
        let problems = Dataset::Aime2024.problems(deadlines.len(), 7);
        let arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
            .schedule(&problems, 0)
            .into_iter()
            .zip(deadlines)
            .map(|(a, &deadline)| RequestArrival { deadline, ..a })
            .collect();
        let plan = FaultPlan::none();
        let mut state = LoopState::new(&sim, arrivals.as_slice().into(), &plan, Rc::default());
        for &idx in paused {
            let a = &arrivals[idx];
            let mut driver = make_driver(sim.kind, sim.n);
            let run = sim
                .server
                .begin_request(&a.problem, sim.n, driver.as_mut(), None, None)
                .expect("the prompt fits");
            state.paused.push(InFlight {
                idx,
                run,
                driver,
                arrived_at: a.at,
                slo: a.slo,
                deadline: a.deadline,
                tenant: a.tenant,
                granted_n: sim.n,
                started_at: 0.0,
                admit_seq: idx as u64,
                preemptions: 1,
                preempted_secs: 0.0,
                paused_at: 0.0,
                probe: None,
                declared_demand: 0,
                decode_segment: None,
            });
        }
        state.waiting.extend_from_slice(waiting);
        assert!(state.admit(0.0).expect("admission runs"), "someone joins");
        assert_eq!(state.group.len(), 1, "the group has one slot");
        state.group[0].idx
    }

    /// Deadlines that order arrivals 0, 2, 1 earliest first.
    const DEADLINES: [f64; 3] = [5.0, 30.0, 10.0];

    #[test]
    fn a_paused_run_joins_ahead_of_the_queue_in_pause_order() {
        assert_eq!(first_to_join(false, &DEADLINES, &[1, 2], &[0]), 1);
    }

    #[test]
    fn with_nothing_paused_the_queue_head_joins() {
        assert_eq!(first_to_join(false, &DEADLINES, &[], &[1, 2, 0]), 1);
    }

    #[test]
    fn degrade_readmits_the_earliest_deadline_ahead_of_the_queue() {
        // Arrival 0's deadline is the earliest, but it has no accepted
        // work to lose: the paused run due first goes ahead of it.
        assert_eq!(first_to_join(true, &DEADLINES, &[1, 2], &[0]), 2);
    }

    #[test]
    fn degrade_admits_the_queued_arrival_with_the_earliest_deadline() {
        assert_eq!(first_to_join(true, &DEADLINES, &[], &[1, 2, 0]), 0);
    }
}
