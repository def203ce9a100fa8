//! The FastTTS serving facade and the multi-request stream simulator.

use ftts_engine::{
    Engine, EngineConfig, EngineError, MemoryPlanner, ModelPairing, OrderPolicy, RandomOrder,
    RunStats, SearchDriver, SpecConfig, StaticSplitPlanner,
};
use ftts_hw::GpuDevice;
use ftts_metrics::StreamRecord;
use ftts_model::ProblemSpec;
use ftts_search::{make_driver, SearchKind};
use ftts_workload::RequestArrival;
use serde::{Deserialize, Serialize};

use crate::memalloc::RooflinePlanner;
use crate::prefix_sched::PrefixAwareOrder;

/// Which of the three FastTTS optimizations are active — the knobs behind
/// the paper's ablation studies (Fig. 16, Fig. 18 right).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationFlags {
    /// Dynamic Prefix-Aware Scheduling (P).
    pub prefix_aware: bool,
    /// Asymmetric Multi-Model Memory Allocation (M).
    pub asym_memory: bool,
    /// Speculative Beam Extension incl. LookAhead Verification (S).
    pub speculation: bool,
    /// Allow the offloading extension of the memory allocator.
    pub offload: bool,
}

impl AblationFlags {
    /// The vLLM baseline: nothing on.
    pub fn baseline() -> Self {
        Self {
            prefix_aware: false,
            asym_memory: false,
            speculation: false,
            offload: false,
        }
    }

    /// Full FastTTS: everything on.
    pub fn fasttts() -> Self {
        Self {
            prefix_aware: true,
            asym_memory: true,
            speculation: true,
            offload: false,
        }
    }

    /// Full FastTTS plus the offloading search space (for ≤ 8 GB GPUs).
    pub fn fasttts_offload() -> Self {
        Self {
            offload: true,
            ..Self::fasttts()
        }
    }

    /// The cumulative ablation ladder of Fig. 16: P, then M+P, then
    /// M+P+S.
    pub fn ladder() -> [(&'static str, AblationFlags); 3] {
        [
            (
                "P",
                AblationFlags {
                    prefix_aware: true,
                    ..AblationFlags::baseline()
                },
            ),
            (
                "M+P",
                AblationFlags {
                    prefix_aware: true,
                    asym_memory: true,
                    ..AblationFlags::baseline()
                },
            ),
            ("M+P+S", AblationFlags::fasttts()),
        ]
    }

    /// Short label like `"P+M+S"` (baseline prints `"vLLM"`).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.prefix_aware {
            parts.push("P");
        }
        if self.asym_memory {
            parts.push("M");
        }
        if self.speculation {
            parts.push("S");
        }
        if parts.is_empty() {
            "vLLM".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// Result of serving one TTS request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeOutcome {
    /// Full engine statistics.
    pub stats: RunStats,
    /// The answer picked by majority voting, if any.
    pub answer: Option<u32>,
}

impl ServeOutcome {
    /// Precise goodput (tokens/s) of the run.
    pub fn goodput(&self) -> f64 {
        self.stats.goodput()
    }

    /// End-to-end completion latency in seconds.
    pub fn latency(&self) -> f64 {
        self.stats.latency()
    }

    /// Whether majority voting found the correct answer.
    pub fn top1_correct(&self) -> bool {
        self.stats.top1_correct()
    }
}

/// A TTS serving system: a device, a generator/verifier pairing and a
/// set of optimizations. This is the paper's "plug-and-play third-party
/// library" surface.
///
/// The engine configuration is shared behind `Arc`: cloning a server or
/// building a per-request [`Engine`] bumps a reference count instead of
/// deep-cloning device/model descriptions, which keeps the serve loop's
/// steady-state path allocation-light and a fleet of replicas cheap.
#[derive(Debug, Clone)]
pub struct TtsServer {
    config: std::sync::Arc<EngineConfig>,
    flags: AblationFlags,
}

impl TtsServer {
    /// FastTTS with every optimization enabled (paper defaults).
    pub fn fasttts(device: GpuDevice, models: ModelPairing) -> Self {
        Self::with_flags(device, models, AblationFlags::fasttts())
    }

    /// The paper's baseline: two static vLLM instances, FIFO scheduling,
    /// no speculation.
    pub fn vllm_baseline(device: GpuDevice, models: ModelPairing) -> Self {
        Self::with_flags(device, models, AblationFlags::baseline())
    }

    /// Any ablation combination.
    pub fn with_flags(device: GpuDevice, models: ModelPairing, flags: AblationFlags) -> Self {
        Self::from_config(EngineConfig::baseline(device, models), flags)
    }

    /// Build from a fully custom engine config (advanced use). The
    /// config's `spec` and verifier-caching fields are derived from
    /// `flags.speculation`.
    pub fn from_config(mut config: EngineConfig, flags: AblationFlags) -> Self {
        config.spec = if flags.speculation {
            SpecConfig::fasttts_default()
        } else {
            SpecConfig::disabled()
        };
        // Incremental verifier caching is what LookAhead exploits; the
        // baseline re-prefills each verification (HF search-and-learn).
        config.ver_prefix_caching = flags.speculation;
        Self {
            config: std::sync::Arc::new(config),
            flags,
        }
    }

    /// The active optimization flags.
    pub fn flags(&self) -> &AblationFlags {
        &self.flags
    }

    /// The underlying engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.config.as_ref()
    }

    /// Mutable access for experiment-specific tweaks (memory fraction,
    /// tracing, seeds, truncation ratio…). Copy-on-write: if the config
    /// is currently shared with live engines or server clones, this
    /// clones it once before mutating.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        std::sync::Arc::make_mut(&mut self.config)
    }

    fn order_policy(&self) -> Box<dyn OrderPolicy> {
        if self.flags.prefix_aware {
            Box::new(PrefixAwareOrder::new())
        } else {
            // vLLM's effective running order under continuous batching is
            // arbitrary with respect to prefix locality (the paper's
            // Fig. 5 right / Fig. 18 "random scheduling" baseline).
            Box::new(RandomOrder::new(self.config.seed))
        }
    }

    fn memory_planner(&self) -> Box<dyn MemoryPlanner> {
        if self.flags.asym_memory {
            if self.flags.offload {
                Box::new(RooflinePlanner::with_offload())
            } else {
                Box::new(RooflinePlanner::new())
            }
        } else {
            Box::new(StaticSplitPlanner)
        }
    }

    /// Build a fresh engine with this server's policies.
    pub fn engine(&self) -> Engine {
        Engine::new(
            self.config.clone(),
            self.order_policy(),
            self.memory_planner(),
        )
    }

    /// Start a resumable run for one request — the entry point the
    /// continuous-batching scheduler uses to multiplex many requests
    /// over one simulated accelerator. `kv_budget` is the request's
    /// share of the shared KV pool (`None` = the whole device budget);
    /// `warm` is a warm-start grant from the host KV tier, whose
    /// `warm.tokens` prompt-prefix tokens swap in from host RAM instead
    /// of prefilling (see [`Engine::begin`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when the prompt cannot fit in the
    /// share.
    pub fn begin_request(
        &self,
        problem: &ProblemSpec,
        n: usize,
        driver: &mut dyn ftts_engine::SearchDriver,
        kv_budget: Option<u64>,
        warm: Option<ftts_engine::WarmStart>,
    ) -> Result<ftts_engine::RequestRun, EngineError> {
        self.engine().begin(problem, n, driver, kv_budget, warm)
    }

    /// Serve one problem with `n` beams using a named search algorithm.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when the KV budget cannot host a single
    /// reasoning path.
    pub fn serve(
        &self,
        problem: &ProblemSpec,
        n: usize,
        kind: SearchKind,
    ) -> Result<ServeOutcome, EngineError> {
        let mut driver = make_driver(kind, n);
        self.serve_with(problem, n, driver.as_mut())
    }

    /// Serve with a custom [`SearchDriver`].
    ///
    /// # Errors
    ///
    /// See [`TtsServer::serve`].
    pub fn serve_with(
        &self,
        problem: &ProblemSpec,
        n: usize,
        driver: &mut dyn SearchDriver,
    ) -> Result<ServeOutcome, EngineError> {
        let mut engine = self.engine();
        let stats = engine.run(problem, n, driver)?;
        let answer = ftts_metrics::top1_majority(&stats.answers());
        Ok(ServeOutcome { stats, answer })
    }
}

/// One served request in a stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServedRequest {
    /// Arrival time of the request.
    pub arrived_at: f64,
    /// Time serving started (after queueing).
    pub started_at: f64,
    /// Time serving finished.
    pub finished_at: f64,
    /// How many times the request was preempted mid-flight (always 0
    /// under FIFO batch-1 serving).
    pub preemptions: u32,
    /// Seconds spent preempted (swapped out awaiting readmission).
    pub preempted_secs: f64,
    /// SLO class the request arrived with.
    pub slo: ftts_metrics::SloClass,
    /// Absolute completion deadline (`f64::INFINITY` = none).
    pub deadline: f64,
    /// Whether the request was shed instead of completed: rejected at
    /// admission or cancelled by deadline enforcement. A shed request
    /// delivered no answer; `finished_at` is its rejection/cancellation
    /// instant.
    pub shed: bool,
    /// Beam width actually granted (0 for a request shed before
    /// admission; below the configured width when the degradation
    /// controller shrank the TTS budget).
    pub granted_n: usize,
    /// The serve outcome.
    pub outcome: ServeOutcome,
}

impl ServedRequest {
    /// Queueing delay before service.
    pub fn queue_delay(&self) -> f64 {
        self.started_at - self.arrived_at
    }

    /// End-to-end latency including queueing.
    pub fn total_latency(&self) -> f64 {
        self.finished_at - self.arrived_at
    }

    /// Accepted (generated, completed-beam) tokens of the request.
    pub fn accepted_tokens(&self) -> u64 {
        self.outcome.stats.beams.iter().map(|b| b.tokens).sum()
    }

    /// The slice of this request that stream summaries and tenant
    /// rollups read.
    pub fn stream_record(&self) -> StreamRecord {
        let breakdown = self.outcome.stats.breakdown();
        StreamRecord {
            arrived_at: self.arrived_at,
            finished_at: self.finished_at,
            queue_delay: self.queue_delay(),
            accepted_tokens: self.accepted_tokens(),
            generator_secs: breakdown.generator_side(),
            verifier_secs: breakdown.verifier,
            slo: self.slo,
            deadline: self.deadline,
            completed: !self.shed,
        }
    }

    /// Whether the request missed its SLO: shed, or finished past its
    /// deadline. Always `false` without a deadline.
    pub fn deadline_missed(&self) -> bool {
        self.shed || self.finished_at > self.deadline
    }
}

/// Replays a request arrival stream against a server, applying the
/// two-phase scheduling rule: Speculative Beam Extension only runs while
/// the waiting queue is empty, and is preempted the moment the next
/// request arrives (Sec. 4.1.2).
#[derive(Debug, Clone)]
pub struct ServerSim {
    server: TtsServer,
    n: usize,
    kind: SearchKind,
}

impl ServerSim {
    /// Simulate `server` answering requests with `n` beams each.
    pub fn new(server: TtsServer, n: usize, kind: SearchKind) -> Self {
        Self { server, n, kind }
    }

    /// Serve the arrival stream to completion (FIFO, batch size 1 as in
    /// the paper's interactive setting).
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] encountered.
    pub fn run(&self, arrivals: &[RequestArrival]) -> Result<Vec<ServedRequest>, EngineError> {
        let mut clock = 0.0f64;
        let mut served = Vec::with_capacity(arrivals.len());
        for (i, req) in arrivals.iter().enumerate() {
            let start = clock.max(req.at);
            // Speculation must stop when the next request is waiting.
            let next_arrival = arrivals.get(i + 1).map_or(f64::INFINITY, |a| a.at);
            let spec_deadline = (next_arrival - start).max(0.0);
            let mut engine = self.server.engine();
            let mut driver = make_driver(self.kind, self.n);
            let stats =
                engine.run_with_deadline(&req.problem, self.n, driver.as_mut(), spec_deadline)?;
            let answer = ftts_metrics::top1_majority(&stats.answers());
            let finish = start + stats.latency();
            served.push(ServedRequest {
                arrived_at: req.at,
                started_at: start,
                finished_at: finish,
                preemptions: 0,
                preempted_secs: 0.0,
                slo: req.slo,
                deadline: req.deadline,
                shed: false,
                granted_n: self.n,
                outcome: ServeOutcome { stats, answer },
            });
            clock = finish;
        }
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_workload::{ArrivalPattern, Dataset};

    fn problem() -> ProblemSpec {
        Dataset::Amc2023.problems(1, 3)[0]
    }

    #[test]
    fn flags_labels() {
        assert_eq!(AblationFlags::baseline().label(), "vLLM");
        assert_eq!(AblationFlags::fasttts().label(), "P+M+S");
        let ladder = AblationFlags::ladder();
        assert_eq!(ladder[0].1.label(), "P");
        assert_eq!(ladder[1].1.label(), "P+M");
        assert_eq!(ladder[2].1.label(), "P+M+S");
        assert!(AblationFlags::fasttts_offload().offload);
    }

    #[test]
    fn fasttts_beats_baseline_on_goodput() {
        let models = ModelPairing::pair_1_5b_1_5b();
        let base = TtsServer::vllm_baseline(GpuDevice::rtx4090(), models.clone());
        let fast = TtsServer::fasttts(GpuDevice::rtx4090(), models);
        let p = problem();
        let b = base.serve(&p, 32, SearchKind::BeamSearch).unwrap();
        let f = fast.serve(&p, 32, SearchKind::BeamSearch).unwrap();
        assert!(
            f.goodput() > b.goodput(),
            "fasttts {} must beat baseline {}",
            f.goodput(),
            b.goodput()
        );
        assert!(f.latency() < b.latency());
        // Algorithmic equivalence: identical final answers.
        assert_eq!(f.answer, b.answer);
    }

    #[test]
    fn serve_with_custom_driver() {
        let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let mut driver = ftts_search::BeamSearch::new(8);
        let out = server.serve_with(&problem(), 8, &mut driver).unwrap();
        assert!(out.goodput() > 0.0);
    }

    #[test]
    fn server_sim_orders_and_queues_requests() {
        let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let sim = ServerSim::new(server, 8, SearchKind::BeamSearch);
        let problems = Dataset::Amc2023.problems(3, 9);
        let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
        let served = sim.run(&arrivals).unwrap();
        assert_eq!(served.len(), 3);
        // FIFO: each starts when the previous finished.
        assert!(served[1].queue_delay() > 0.0);
        assert!((served[1].started_at - served[0].finished_at).abs() < 1e-9);
        // Queued requests preempt speculation entirely.
        assert_eq!(served[0].outcome.stats.spec.spec_tokens, 0);
        // The last request has no successor: speculation may run.
        assert!(served[2].outcome.stats.spec.spec_tokens > 0);
    }

    #[test]
    fn server_sim_replays_alike_on_any_thread() {
        // ftts-serve replays on its connection threads, and the Zipf
        // normaliser memo is per thread: a replay on a fresh thread must
        // equal the same replay on this (already warm) one, bit for bit.
        let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let sim = ServerSim::new(server, 8, SearchKind::BeamSearch);
        let stream =
            ArrivalPattern::Poisson { rate: 0.05 }.schedule(&Dataset::Amc2023.problems(3, 100), 1);
        let here = sim.run(&stream).expect("replay");
        let there = std::thread::scope(|s| s.spawn(|| sim.run(&stream)).join())
            .expect("replay thread")
            .expect("replay");
        assert_eq!(format!("{here:?}"), format!("{there:?}"));
    }

    #[test]
    fn server_sim_fails_when_the_budget_is_infeasible() {
        // A budget the weights alone exceed fails loudly.
        let mut server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        server.config_mut().memory_fraction = 0.26;
        let sim = ServerSim::new(server, 8, SearchKind::BeamSearch);
        let stream =
            ArrivalPattern::Poisson { rate: 0.05 }.schedule(&Dataset::Amc2023.problems(3, 100), 1);
        assert!(sim.run(&stream).is_err(), "infeasible budget");
    }

    #[test]
    fn config_mut_allows_memory_tweaks() {
        let mut server =
            TtsServer::vllm_baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        server.config_mut().memory_fraction = 0.4;
        assert_eq!(server.config().memory_fraction, 0.4);
        let out = server.serve(&problem(), 8, SearchKind::BeamSearch).unwrap();
        assert!(out.latency() > 0.0);
    }
}
