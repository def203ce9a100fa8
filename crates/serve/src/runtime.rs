//! The serving runtime behind the wire protocol.
//!
//! The server is a *virtual-time* front-end over the deterministic
//! simulator: clients submit requests with explicit arrival instants,
//! and any query that needs results (`status`, `stats`) replays the
//! accepted, uncancelled submissions from scratch through one
//! [`FleetSim`], built at boot: `devices` servers behind a
//! join-shortest-queue router, each with its fault plan. A 1-device
//! fleet picks its one device without reading it, so its replay is the
//! bare event scheduler's run, bit for bit. Because every layer
//! underneath is seeded and deterministic, the replay is instant in the
//! relevant sense — simulated seconds cost microseconds — and
//! *incremental in effect*: re-running the grown timeline yields
//! exactly the previous results for old requests plus results for the
//! new ones, which the replay-determinism tests pin down byte-for-byte.
//!
//! Neither the config nor an accepted frame ever changes, so the memo is
//! the list of active submissions the cached replay simulated. Only a
//! `submit` or a `cancel` can change that list; a query after neither
//! does no work, and a query after churn that restores the list, like a
//! submit cancelled before any query, replays nothing. Determinism
//! makes this safe: equal inputs *must* produce the byte-identical
//! reply, which the memoization regression test pins down.
//!
//! The runtime also owns the protocol-level tenant front door
//! ([`TenantBudget`]): unknown tenants, prompts whose cold working set
//! cannot fit the tenant's hard cap (or the pool), and tenants at
//! their open-request quota are refused with structured errors before
//! anything reaches the scheduler's admission path.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ftts_core::{
    BatchConfig, EventConfig, FaultPlan, FleetConfig, FleetSim, RoutePolicy, ServedRequest,
    TenantPolicy, TenantSpec, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::{StreamRecord, TenantRollup};
use ftts_search::SearchKind;
use ftts_workload::RequestArrival;

use crate::config::ServeConfig;
use crate::json::escape;
use crate::protocol::{parse_frame, Frame, Submit, WireError};
use crate::tenant::{AdmitError, TenantBudget};

/// What handling one frame produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Handled {
    /// The reply line (no trailing newline).
    pub reply: String,
    /// Whether the frame asked the server to shut down.
    pub shutdown: bool,
}

#[derive(Debug, Clone)]
struct Submission {
    frame: Submit,
    cold_bytes: u64,
    cancelled: bool,
    /// Whether the submission currently holds ledger bytes/quota; open
    /// holdings resolve (release) at the next query or cancellation.
    billed: bool,
}

#[derive(Debug, Clone, Default)]
struct SimResult {
    /// Resolved record per submission index (cancelled ones absent).
    outcomes: BTreeMap<usize, ServedRequest>,
    /// Per-tenant peak KV grants, merged max across devices.
    tenant_peaks: BTreeMap<u32, u64>,
}

/// The serving runtime: config, simulator, tenant front door,
/// submission log and the cached replay.
#[derive(Debug, Clone)]
pub struct ServeRuntime {
    config: ServeConfig,
    fleet: FleetSim,
    /// One fault plan per device.
    plans: Vec<FaultPlan>,
    budget: TenantBudget,
    subs: Vec<Submission>,
    by_id: BTreeMap<String, usize>,
    rejected: u64,
    /// Whether a submit or cancel was accepted since the last query.
    dirty: bool,
    /// The active submissions the cached replay simulated, in arrival
    /// order.
    simulated: Vec<usize>,
    /// Full re-simulations actually executed (memo misses).
    replays: u64,
    cache: SimResult,
    pool_bytes: u64,
    gen_bpt: u64,
}

impl ServeRuntime {
    /// Build a runtime, and the simulator it replays with, from a
    /// validated config.
    pub fn new(config: ServeConfig) -> Self {
        let mut server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        server.config_mut().seed = config.seed;
        server.config_mut().memory_fraction = config.memory_fraction;
        let pool_bytes = server.config().kv_budget_bytes();
        let gen_bpt = server.config().models.gen_spec.kv_bytes_per_token();
        let mut budget = TenantBudget::new(pool_bytes);
        let mut batch = BatchConfig::fused(config.max_batch);
        if config.tenants.is_empty() {
            budget.register(0, u64::MAX, 0);
        } else {
            let mut specs = Vec::with_capacity(config.tenants.len());
            for t in &config.tenants {
                let kv_cap_bytes = cap_bytes(t.kv_cap_frac, pool_bytes);
                budget.register(t.id, kv_cap_bytes, t.max_open);
                specs.push(TenantSpec {
                    id: t.id,
                    weight: t.weight,
                    kv_cap_bytes,
                    max_in_flight: t.max_in_flight,
                });
            }
            batch = batch.with_tenants(TenantPolicy::new(&specs));
        }
        let fleet = FleetSim::new(
            vec![server; config.devices],
            config.n_beams,
            SearchKind::BeamSearch,
            FleetConfig::new(
                EventConfig::new(batch, config.window_secs),
                RoutePolicy::Jsq,
            ),
        );
        let plans = (0..config.devices as u64)
            .map(|device| {
                config.storm.as_ref().map_or_else(FaultPlan::none, |s| {
                    FaultPlan::storm(s.seed.wrapping_add(device), s.horizon_secs, &s.faults)
                })
            })
            .collect();
        Self {
            config,
            fleet,
            plans,
            budget,
            subs: Vec::new(),
            by_id: BTreeMap::new(),
            rejected: 0,
            dirty: false,
            simulated: Vec::new(),
            replays: 0,
            cache: SimResult::default(),
            pool_bytes,
            gen_bpt,
        }
    }

    /// The validated config the runtime was built from.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Submissions accepted so far (cancelled ones included).
    pub fn accepted(&self) -> usize {
        self.subs.len()
    }

    /// Frames refused by the front door (malformed, unknown tenant,
    /// oversized, over quota, duplicate) — none of these reached the
    /// scheduler.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Full re-simulations executed so far. Repeated queries over an
    /// unchanged trace are memo hits and leave this untouched.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Handle one frame line and produce the reply line.
    pub fn handle_line(&mut self, line: &str) -> Handled {
        match parse_frame(line) {
            Ok(frame) => self.handle(frame),
            Err(e) => {
                self.rejected += 1;
                Handled {
                    reply: e.reply(),
                    shutdown: false,
                }
            }
        }
    }

    fn handle(&mut self, frame: Frame) -> Handled {
        let (reply, shutdown) = match frame {
            Frame::Submit(s) => (self.submit(s).unwrap_or_else(|e| e.reply()), false),
            Frame::Status { id } => (self.status(&id).unwrap_or_else(|e| e.reply()), false),
            Frame::Cancel { id } => (self.cancel(&id).unwrap_or_else(|e| e.reply()), false),
            Frame::Stats => (self.stats().unwrap_or_else(|e| e.reply()), false),
            Frame::Shutdown => ("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), true),
        };
        Handled { reply, shutdown }
    }

    fn submit(&mut self, s: Submit) -> Result<String, WireError> {
        let refused = |this: &mut Self, e: WireError| {
            this.rejected += 1;
            Err(e)
        };
        if self.by_id.contains_key(&s.id) {
            return refused(
                self,
                WireError::new("duplicate_id", format!("request '{}' already exists", s.id)),
            );
        }
        let problem = s.dataset.problems(1, s.problem_seed)[0];
        if problem.prompt_tokens > self.config.max_prompt_tokens {
            return refused(
                self,
                WireError::new(
                    "oversized_prompt",
                    format!(
                        "prompt of {} tokens exceeds the configured maximum of {}",
                        problem.prompt_tokens, self.config.max_prompt_tokens
                    ),
                ),
            );
        }
        let cold_bytes = problem.prompt_tokens.saturating_mul(self.gen_bpt);
        match self.budget.try_admit(s.tenant, cold_bytes) {
            Ok(()) => {}
            Err(AdmitError::UnknownTenant { tenant }) => {
                return refused(
                    self,
                    WireError::new(
                        "unknown_tenant",
                        format!("tenant {tenant} is not configured on this server"),
                    ),
                );
            }
            Err(AdmitError::Oversized { need, limit }) => {
                return refused(
                    self,
                    WireError::new(
                        "oversized_prompt",
                        format!(
                            "cold working set of {need} bytes cannot fit tenant {}'s \
                             limit of {limit} bytes",
                            s.tenant
                        ),
                    ),
                );
            }
            Err(AdmitError::QuotaExhausted { open, max_open }) => {
                return refused(
                    self,
                    WireError::new(
                        "quota_exhausted",
                        format!(
                            "tenant {} holds {open} open requests of a quota of {max_open}",
                            s.tenant
                        ),
                    ),
                );
            }
        }
        let reply = format!(
            "{{\"ok\":true,\"op\":\"submit\",\"id\":\"{}\",\"tenant\":{},\"arrive_at\":{:.3}}}",
            escape(&s.id),
            s.tenant,
            s.arrive_at
        );
        self.by_id.insert(s.id.clone(), self.subs.len());
        self.subs.push(Submission {
            frame: s,
            cold_bytes,
            cancelled: false,
            billed: true,
        });
        self.dirty = true;
        Ok(reply)
    }

    fn cancel(&mut self, id: &str) -> Result<String, WireError> {
        let idx = *self.by_id.get(id).ok_or_else(|| {
            WireError::new("unknown_request", format!("no request with id '{id}'"))
        })?;
        let sub = &mut self.subs[idx];
        if !sub.cancelled {
            sub.cancelled = true;
            self.dirty = true;
            if sub.billed {
                sub.billed = false;
                self.budget.release(sub.frame.tenant, sub.cold_bytes);
            }
        }
        Ok(format!(
            "{{\"ok\":true,\"op\":\"cancel\",\"id\":\"{}\",\"state\":\"cancelled\"}}",
            escape(id)
        ))
    }

    fn status(&mut self, id: &str) -> Result<String, WireError> {
        let idx = *self.by_id.get(id).ok_or_else(|| {
            WireError::new("unknown_request", format!("no request with id '{id}'"))
        })?;
        if self.subs[idx].cancelled {
            return Ok(format!(
                "{{\"ok\":true,\"op\":\"status\",\"id\":\"{}\",\"state\":\"cancelled\"}}",
                escape(id)
            ));
        }
        self.freshen()?;
        let r = self.cache.outcomes.get(&idx).expect("active sub resolved");
        let state = if r.shed { "shed" } else { "completed" };
        let answer = r
            .outcome
            .answer
            .map_or_else(|| "null".to_string(), |a| a.to_string());
        Ok(format!(
            "{{\"ok\":true,\"op\":\"status\",\"id\":\"{}\",\"state\":\"{}\",\"tenant\":{},\
             \"arrived_at\":{:.3},\"finished_at\":{:.3},\"accepted_tokens\":{},\
             \"deadline_hit\":{},\"answer\":{}}}",
            escape(id),
            state,
            self.subs[idx].frame.tenant,
            r.arrived_at,
            r.finished_at,
            r.accepted_tokens(),
            !r.shed && r.finished_at <= r.deadline,
            answer
        ))
    }

    fn stats(&mut self) -> Result<String, WireError> {
        self.freshen()?;
        let mut tagged: Vec<(u32, StreamRecord)> = Vec::new();
        let mut cancelled = 0usize;
        for (idx, sub) in self.subs.iter().enumerate() {
            if sub.cancelled {
                cancelled += 1;
                continue;
            }
            let r = self.cache.outcomes.get(&idx).expect("active sub resolved");
            tagged.push((sub.frame.tenant, r.stream_record()));
        }
        let rollups = TenantRollup::of(&tagged);
        let peak = |tenant: u32| self.cache.tenant_peaks.get(&tenant).copied().unwrap_or(0);
        let mut tenants = String::new();
        for (i, row) in rollups.iter().enumerate() {
            if i > 0 {
                tenants.push(',');
            }
            let _ = write!(
                tenants,
                "{{\"tenant\":{},\"requests\":{},\"completed\":{},\"shed\":{},\
                 \"accepted_tokens\":{},\"deadline_hit_rate\":{:.4},\
                 \"mean_latency_secs\":{:.3},\"p99_latency_secs\":{:.3},\
                 \"stream_goodput\":{:.3},\"kv_peak_bytes\":{}}}",
                row.tenant,
                row.requests,
                row.requests - row.summary.shed,
                row.summary.shed,
                row.summary.total_accepted_tokens,
                row.summary.deadline_hit_rate,
                row.summary.latency.mean,
                row.summary.latency.p99,
                row.summary.stream_goodput,
                peak(row.tenant)
            );
        }
        Ok(format!(
            "{{\"ok\":true,\"op\":\"stats\",\"requests\":{},\"cancelled\":{},\"rejected\":{},\
             \"pool_bytes\":{},\"tenants\":[{}]}}",
            self.subs.len(),
            cancelled,
            self.rejected,
            self.pool_bytes,
            tenants
        ))
    }

    /// Replay the active submissions if a submit or cancel changed them
    /// since the cached run; answer from the memo otherwise.
    fn freshen(&mut self) -> Result<(), WireError> {
        if !self.dirty {
            return Ok(());
        }
        let mut order: Vec<usize> = (0..self.subs.len())
            .filter(|&i| !self.subs[i].cancelled)
            .collect();
        order.sort_by(|&a, &b| {
            self.subs[a]
                .frame
                .arrive_at
                .partial_cmp(&self.subs[b].frame.arrive_at)
                .expect("finite arrivals")
                .then(a.cmp(&b))
        });
        if order != self.simulated {
            self.cache = self.simulate(&order)?;
            self.simulated = order;
            self.replays += 1;
        }
        // Open ledger holdings resolve with the query: every active
        // submission now has a (possibly memoized) result, so its bytes
        // and quota slot return to the tenant's budget.
        for &i in &self.simulated {
            let sub = &mut self.subs[i];
            if sub.billed {
                sub.billed = false;
                self.budget.release(sub.frame.tenant, sub.cold_bytes);
            }
        }
        self.dirty = false;
        Ok(())
    }

    fn simulate(&self, order: &[usize]) -> Result<SimResult, WireError> {
        let arrivals: Vec<RequestArrival> = order
            .iter()
            .map(|&i| {
                let f = &self.subs[i].frame;
                RequestArrival {
                    at: f.arrive_at,
                    problem: f.dataset.problems(1, f.problem_seed)[0],
                    slo: f.slo,
                    deadline: f.arrive_at + f.deadline_secs,
                    tenant: f.tenant,
                }
            })
            .collect();
        let run = self
            .fleet
            .run_faulted(&arrivals, &self.plans)
            .map_err(|e| WireError::new("internal_error", format!("simulation failed: {e:?}")))?;
        let mut tenant_peaks: BTreeMap<u32, u64> = BTreeMap::new();
        for &(t, b) in run.device_runs.iter().flat_map(|r| &r.tenant_peak_bytes) {
            let entry = tenant_peaks.entry(t).or_insert(0);
            *entry = (*entry).max(b);
        }
        debug_assert_eq!(run.served.len(), order.len());
        Ok(SimResult {
            outcomes: order.iter().copied().zip(run.served).collect(),
            tenant_peaks,
        })
    }
}

fn cap_bytes(frac: f64, pool: u64) -> u64 {
    if frac <= 0.0 {
        u64::MAX
    } else {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let bytes = (pool as f64 * frac) as u64;
        bytes.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(extra: &str) -> ServeRuntime {
        let toml = format!(
            "[server]\nseed = 7\nn_beams = 4\nmax_batch = 4\nwindow_secs = 0.2\n\
             memory_fraction = 0.5\nmax_prompt_tokens = 2048\n{extra}"
        );
        ServeRuntime::new(ServeConfig::parse(&toml).expect("config"))
    }

    fn submit_line(id: &str, tenant: u32, at: f64) -> String {
        format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"tenant\":{tenant},\"slo\":\"standard\",\
             \"dataset\":\"amc2023\",\"problem_seed\":{},\"arrive_at\":{at}}}",
            7 + u64::from(tenant)
        )
    }

    #[test]
    fn submit_status_stats_round_trip() {
        let mut rt = runtime("");
        let h = rt.handle_line(&submit_line("r1", 0, 0.0));
        assert!(h.reply.contains("\"ok\":true"), "{}", h.reply);
        let h = rt.handle_line("{\"op\":\"status\",\"id\":\"r1\"}");
        assert!(h.reply.contains("\"state\":\"completed\""), "{}", h.reply);
        let h = rt.handle_line("{\"op\":\"stats\"}");
        assert!(h.reply.contains("\"requests\":1"), "{}", h.reply);
        assert!(h.reply.contains("\"tenant\":0"), "{}", h.reply);
        let h = rt.handle_line("{\"op\":\"shutdown\"}");
        assert!(h.shutdown);
    }

    #[test]
    fn cancel_withdraws_from_the_timeline() {
        let mut rt = runtime("");
        rt.handle_line(&submit_line("r1", 0, 0.0));
        rt.handle_line(&submit_line("r2", 0, 1.0));
        let h = rt.handle_line("{\"op\":\"cancel\",\"id\":\"r2\"}");
        assert!(h.reply.contains("\"state\":\"cancelled\""), "{}", h.reply);
        let h = rt.handle_line("{\"op\":\"status\",\"id\":\"r2\"}");
        assert!(h.reply.contains("\"state\":\"cancelled\""), "{}", h.reply);
        let h = rt.handle_line("{\"op\":\"stats\"}");
        assert!(h.reply.contains("\"cancelled\":1"), "{}", h.reply);
    }

    #[test]
    fn repeated_stats_are_memo_hits_and_byte_identical() {
        let mut rt = runtime("");
        rt.handle_line(&submit_line("r1", 0, 0.0));
        rt.handle_line(&submit_line("r2", 0, 1.0));
        let first_stats = rt.handle_line("{\"op\":\"stats\"}").reply;
        let first_status = rt.handle_line("{\"op\":\"status\",\"id\":\"r1\"}").reply;
        assert_eq!(rt.replays(), 1, "one replay resolves the trace");
        for _ in 0..3 {
            assert_eq!(rt.handle_line("{\"op\":\"stats\"}").reply, first_stats);
            assert_eq!(
                rt.handle_line("{\"op\":\"status\",\"id\":\"r1\"}").reply,
                first_status
            );
        }
        assert_eq!(rt.replays(), 1, "repeated queries are O(1) memo hits");
        // No-op trace churn — a submit immediately cancelled — keys to
        // the same effective trace: still no replay, same bytes from
        // the per-tenant roll-up.
        rt.handle_line(&submit_line("r3", 0, 2.0));
        rt.handle_line("{\"op\":\"cancel\",\"id\":\"r3\"}");
        assert_eq!(
            rt.handle_line("{\"op\":\"status\",\"id\":\"r1\"}").reply,
            first_status
        );
        assert_eq!(rt.replays(), 1, "cancelled churn stays a memo hit");
        // A real trace change misses the memo exactly once.
        rt.handle_line(&submit_line("r4", 0, 3.0));
        let grown = rt.handle_line("{\"op\":\"stats\"}").reply;
        rt.handle_line("{\"op\":\"stats\"}");
        assert_eq!(rt.replays(), 2, "the grown trace replays once");
        assert_ne!(grown, first_stats);
    }

    #[test]
    fn duplicate_ids_are_refused() {
        let mut rt = runtime("");
        rt.handle_line(&submit_line("r1", 0, 0.0));
        let h = rt.handle_line(&submit_line("r1", 0, 1.0));
        assert!(h.reply.contains("duplicate_id"), "{}", h.reply);
        assert_eq!(rt.accepted(), 1);
        assert_eq!(rt.rejected(), 1);
    }
}
