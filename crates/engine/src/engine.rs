//! The serving engine: the verifier-guided TTS loop on a simulated clock.

use ftts_hw::{Phase, Roofline, UtilizationTrace};
use ftts_kv::{KvCache, KvCacheConfig, KvError, NodeId, BLOCK_SIZE};
use ftts_metrics::{BeamOutcome, LatencyBreakdown};
use ftts_model::{normal, stream, ProblemSpec, StepPlan, SyntheticGenerator, SyntheticPrm};

use crate::beam::{Beam, BeamId, BeamState, ScoredBeam, SpecBranch};
use crate::config::{EngineConfig, SpecConfig};
use crate::order::{OrderItem, OrderPolicy};
use crate::planner::{MemoryPlan, MemoryPlanner, PlanContext, StaticSplitPlanner};
use crate::stats::RunStats;

/// Context handed to [`SearchDriver::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectCtx {
    /// TTS iteration index (0-based).
    pub iteration: u32,
    /// Total beam budget `n` of the request.
    pub n_target: usize,
    /// Paths already completed (terminal).
    pub completed: usize,
}

/// Clones a boxed [`SearchDriver`]; every `Clone` driver has it.
pub trait SearchDriverClone {
    /// A boxed copy of this driver, mid-search state included.
    fn box_clone(&self) -> Box<dyn SearchDriver>;
}

impl<T: SearchDriver + Clone + 'static> SearchDriverClone for T {
    fn box_clone(&self) -> Box<dyn SearchDriver> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn SearchDriver> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A TTS search algorithm, driving selection and branching.
///
/// The engine owns execution and timing; the driver owns the *search
/// heuristics* — exactly the split the paper's pattern analysis justifies
/// (Sec. 3.1: all mainstream TTS methods are instances of one
/// generation/verification loop differing in these hooks). Every driver
/// can be copied mid-search ([`SearchDriverClone::box_clone`]), so a
/// scheduler can copy the runs it drives.
pub trait SearchDriver: SearchDriverClone {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Branching factor `B` (children per selected beam, and the bin
    /// count for Speculative Candidate Selection).
    fn branching(&self) -> usize;

    /// Whether intermediate steps are verified (PRM). Best-of-N returns
    /// `false`: only terminal outputs are scored (ORM).
    fn verify_every_step(&self) -> bool {
        true
    }

    /// Per-depth cap on thinking-step tokens (Varying Granularity hook).
    fn step_token_cap(&self, _depth: u32) -> Option<u64> {
        None
    }

    /// Decide expansions from the scored, non-terminal frontier. Each
    /// returned pair is `(beam, number_of_children)`; beams not listed
    /// are pruned.
    fn select(&mut self, frontier: &[ScoredBeam], ctx: &SelectCtx) -> Vec<(BeamId, usize)>;
}

/// Fatal serving errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A single reasoning path cannot fit in the generator KV budget even
    /// with everything else evicted. The configuration is infeasible
    /// without offloading or a smaller search.
    PathExceedsMemory {
        /// Blocks the path needs.
        needed: u64,
        /// Capacity of the generator cache, in blocks.
        capacity: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::PathExceedsMemory { needed, capacity } => write!(
                f,
                "a single path needs {needed} KV blocks but the generator cache holds {capacity}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The serving engine. See the crate docs for the execution model.
///
/// The configuration is held behind `Arc`: building an engine per
/// request (as the serving facade does) shares one config allocation
/// instead of deep-cloning device specs, model architectures and
/// behaviour profiles every time.
pub struct Engine {
    config: std::sync::Arc<EngineConfig>,
    order: Box<dyn OrderPolicy>,
    planner: Box<dyn MemoryPlanner>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("device", &self.config.device.name)
            .field("models", &self.config.models.label())
            .field("order", &self.order.name())
            .field("planner", &self.planner.name())
            .finish()
    }
}

impl Engine {
    /// Build an engine with the given scheduling and memory policies.
    /// Accepts an owned config or a shared `Arc` (no deep copy).
    pub fn new(
        config: impl Into<std::sync::Arc<EngineConfig>>,
        order: Box<dyn OrderPolicy>,
        planner: Box<dyn MemoryPlanner>,
    ) -> Self {
        Self {
            config: config.into(),
            order,
            planner,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        self.config.as_ref()
    }

    /// Serve one TTS request with `n` parallel beams.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when a single path
    /// cannot fit in the generator's KV allocation.
    pub fn run(
        &mut self,
        problem: &ProblemSpec,
        n: usize,
        driver: &mut dyn SearchDriver,
    ) -> Result<RunStats, EngineError> {
        self.run_with_deadline(problem, n, driver, f64::INFINITY)
    }

    /// Like [`Engine::run`], but speculation is disallowed once the clock
    /// passes `spec_off_after` — modelling a new request entering the
    /// waiting queue (two-phase scheduling, Sec. 4.1.2).
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_with_deadline(
        &mut self,
        problem: &ProblemSpec,
        n: usize,
        driver: &mut dyn SearchDriver,
        spec_off_after: f64,
    ) -> Result<RunStats, EngineError> {
        assert!(n > 0, "need at least one beam");
        // The policies move into the (owned, resumable) run and come back
        // afterwards, so the engine stays usable for the next request.
        let placeholder = Engine::new(
            self.config.clone(),
            Box::new(crate::order::FifoOrder),
            Box::new(StaticSplitPlanner),
        );
        let engine = std::mem::replace(self, placeholder);
        let mut run = RequestRun::start(engine, problem, n, spec_off_after, None, None);
        let mut result = run.init(driver);
        if result.is_ok() {
            loop {
                match run.step(driver) {
                    Ok(StepStatus::Running) => {}
                    Ok(StepStatus::Finished) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
        let (stats, engine) = run.into_parts();
        *self = engine;
        result.map(|()| stats)
    }

    /// Start a resumable per-request run, consuming the engine: the
    /// config and policies move into the returned [`RequestRun`]. The
    /// serving layer steps it with [`RequestRun::step`] — one TTS
    /// iteration at a time — which is what lets one scheduler multiplex
    /// many requests over shared hardware (continuous batching).
    ///
    /// `kv_budget` overrides the device KV budget for this request (its
    /// share of a pool shared with other in-flight requests); `None`
    /// means the whole device budget, exactly like [`Engine::run`].
    /// `warm` grants a warm start from a host KV tier: `warm.tokens`
    /// prompt-prefix tokens are host-resident, so the run swaps them in
    /// (booked to the `swap` latency bucket) and prefills only the cold
    /// tail; `None` prefills the whole prompt. Speculation is allowed
    /// until [`RequestRun::set_spec_off_after`] moves its cut-off.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when the prompt alone
    /// cannot fit in the generator's KV allocation.
    pub fn begin(
        self,
        problem: &ProblemSpec,
        n: usize,
        driver: &mut dyn SearchDriver,
        kv_budget: Option<u64>,
        warm: Option<WarmStart>,
    ) -> Result<RequestRun, EngineError> {
        assert!(n > 0, "need at least one beam");
        let mut run = RequestRun::start(self, problem, n, f64::INFINITY, kv_budget, warm);
        run.init(driver)?;
        Ok(run)
    }
}

/// A warm-start grant from a host KV tier: the first `tokens` of the
/// request's prompt are already host-resident (published by an earlier
/// request for the same problem), so admission swaps them in over the
/// host link instead of prefilling them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStart {
    /// Host-resident prompt-prefix tokens (clamped to the prompt length).
    pub tokens: u64,
}

/// What an idle wait ([`RequestRun::wait_until`]) books to besides
/// the `idle` latency bucket, so idle attribution can tell the waits
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// A co-batch window wait, a readmission gap or a shared-device
    /// wait: `idle` only.
    Idle,
    /// A lockstep-round barrier wait, the scheduling artifact an
    /// event-driven scheduler removes: also `barrier_idle`.
    Barrier,
    /// A token-join wait at a shared chunk boundary for the slowest
    /// co-batched decode chunk, where newly arrived requests may join
    /// the batch: also `join_wait`.
    Join,
}

/// Progress of a [`RequestRun`] after one [`RequestRun::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The request still has active beams; call `step` again.
    Running,
    /// The request completed; call [`RequestRun::finish`].
    Finished,
}

impl StepStatus {
    /// Whether the run completed.
    pub fn is_finished(self) -> bool {
        matches!(self, StepStatus::Finished)
    }
}

/// Where a [`RequestRun`] stands inside the split-phase iteration
/// protocol (`plan_iteration` → `take_verify_batch` →
/// `apply_verify_results`). [`RequestRun::step`] drives the whole cycle
/// itself; an external scheduler advances it phase by phase so verifier
/// prefills can be costed *across* requests.
///
/// The protocol is **re-entrant across requests**: each run owns its
/// phase position, so a scheduler may interleave phases of different
/// runs in any order — plan A, plan B, cost B, commit B, cost A, commit
/// A — and every run still advances exactly as if it were stepped
/// alone. This is what lets an event-driven scheduler cost iterations
/// out of order across co-batch groups. Inspect with
/// [`RequestRun::run_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Between iterations: `plan_iteration` is the only legal call.
    Ready,
    /// Mid-generation under the chunked sub-iteration decode protocol:
    /// `plan_decode_chunk` / `apply_decode_chunk` drive the phase until
    /// it reports [`DecodeStatus::Generated`]. The monolithic
    /// `plan_iteration` wrapper never exposes this state.
    Decoding,
    /// Generation ran; `take_verify_batch` must run next.
    Generated,
    /// Verifier mirror work done, chunks await costing;
    /// `apply_verify_results` must run next.
    VerifyPending,
}

/// One verifier prefill batch a [`RequestRun`] needs costed: `members`
/// sequences, each adding `new_tokens / members` fresh tokens on top of
/// `cached_tokens / members` cached ones. The KV-cache side effects
/// (mirroring, pins, PCIe transfers) already happened when the chunk was
/// produced by [`RequestRun::take_verify_batch`]; only the prefill
/// *kernel time* is still owed, which is what lets a scheduler fuse
/// chunks from many requests into one shared sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyChunk {
    /// Sequences in the batch (≥ 1).
    pub members: usize,
    /// Total fresh tokens prefetched across the batch.
    pub new_tokens: u64,
    /// Total cached-prefix tokens reused across the batch.
    pub cached_tokens: u64,
}

impl VerifyChunk {
    /// Cost this chunk as its own (unfused) sweep — exactly what the
    /// monolithic [`RequestRun::step`] charges. Kept as the single
    /// source of truth so the wrapper and external schedulers can never
    /// diverge bit-wise at batch 1.
    pub fn solo_cost(&self, roof: &Roofline) -> ftts_hw::KernelCost {
        let members = self.members.max(1);
        roof.prefill_batch(
            members,
            self.new_tokens / members as u64,
            self.cached_tokens / members as u64,
        )
    }
}

/// The time a scheduler charges one [`VerifyChunk`]: the wall-clock
/// `seconds` the request waits for the sweep, of which `busy_seconds`
/// are attributed to *this* request's verifier work. For an unfused
/// sweep the two are equal; for a sweep fused across requests each
/// participant waits the full sweep but is attributed only its share,
/// so summing `LatencyBreakdown::verifier` across requests never
/// double-counts shared sweep seconds (the remainder lands in `idle`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyCharge {
    /// Wall-clock seconds the request's clock advances.
    pub seconds: f64,
    /// Compute-utilization fraction of the sweep (for traces).
    pub compute_util: f64,
    /// Seconds attributed to this request's `verifier` bucket
    /// (clamped to `seconds`; the rest is `idle`).
    pub busy_seconds: f64,
}

impl VerifyCharge {
    /// A charge that attributes the whole sweep to this request — the
    /// unfused case.
    pub fn full(cost: &ftts_hw::KernelCost) -> Self {
        Self {
            seconds: cost.seconds,
            compute_util: cost.compute_util,
            busy_seconds: cost.seconds,
        }
    }
}

/// One planned slice of the generation phase: the next `k` decode steps
/// over this request's `batch` decoding sequences (active beams plus
/// filled speculative slots), whose context lengths sum to `ctx_sum`
/// tokens. Produced by [`RequestRun::plan_decode_chunk`]; the kernel
/// time is charged when the scheduler calls
/// [`RequestRun::apply_decode_chunk`], priced over the co-batch
/// declared at that instant — which is what lets an external scheduler
/// admit new requests into the decode batch *between* chunks (token-
/// granularity joins) instead of at iteration boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeChunk {
    /// Decode steps (tokens per sequence) this chunk advances.
    pub k: u64,
    /// Sequences decoding in this request's own batch (beams + spec
    /// slots); co-resident sequences from other requests are added at
    /// pricing time from [`RequestRun::set_co_batch`].
    pub batch: usize,
    /// Sum of those sequences' context lengths, in tokens.
    pub ctx_sum: u64,
}

/// Progress of the chunked sub-iteration decode protocol
/// ([`RequestRun::plan_decode_chunk`] /
/// [`RequestRun::apply_decode_chunk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStatus {
    /// A chunk is planned and awaits [`RequestRun::apply_decode_chunk`].
    Planned(DecodeChunk),
    /// The chunk was applied and generation continues: call
    /// [`RequestRun::plan_decode_chunk`] again.
    Decoding,
    /// The generation phase is complete;
    /// [`RequestRun::take_verify_batch`] is the next legal call.
    Generated,
    /// The run already completed; nothing was planned.
    Finished,
}

/// Transient speculative decoding task (one filled slot).
struct SpecTask {
    beam: usize,
    branch: u64,
    node: NodeId,
    plan: StepPlan,
    eps: f64,
    target: u64,
    generated: u64,
}

/// The generation phase's working set: the admission queue, the decode
/// batch and the speculative slots with their bookkeeping. The
/// decode-chunk calls move it out of [`Scratch`] as one pointer and hand
/// it back.
#[derive(Default)]
struct GenPhase {
    /// Admission queue of frontier beam indices.
    queue: std::collections::VecDeque<usize>,
    /// Currently decoding beam indices.
    active: Vec<usize>,
    /// Beams that finished their step this phase.
    finished: Vec<usize>,
    /// Beams deferred by memory pressure within one segment.
    deferred: Vec<usize>,
    /// Beams still failing after speculation was aborted.
    still_failing: Vec<usize>,
    /// Survivors of the active set after a segment.
    still_active: Vec<usize>,
    /// SelectSPEC score bin per beam, indexed by beam (sized to the
    /// beams when the phase opens; no beam is born mid-phase).
    bins: Vec<u64>,
    /// Speculative branches started per beam this phase, indexed by beam.
    spec_started: Vec<u64>,
    /// Per-beam deferral counts (for the repeated-failure bailout),
    /// indexed by beam.
    defer_counts: Vec<u32>,
    /// In-flight speculative tasks.
    spec_tasks: Vec<SpecTask>,
    /// Retained speculative tasks while filtering (avoids realloc).
    kept_spec: Vec<SpecTask>,
    /// Speculation candidates `(unstarted potential, beam)` while
    /// refilling slots.
    candidates: Vec<(u64, usize)>,
    /// The decode batch's sums, kept from the previous chunk while the
    /// batch's membership is unchanged; `None` once a member joined or
    /// left, until the next plan folds them again.
    sums: Option<BatchSums>,
}

/// Folds over the decode batch (active beams and speculative slots)
/// that a chunk moves by a known amount while no member joins or
/// leaves: it advances every member `k` tokens, so both minimums fall
/// by `k` and the context sum rises by `k` per member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchSums {
    /// Fewest tokens any active beam has left in its step.
    min_active: u64,
    /// Fewest tokens any speculative slot has left (`u64::MAX` with
    /// none).
    min_spec: u64,
    /// Context tokens summed over the batch.
    ctx_sum: u64,
}

/// Reusable per-iteration containers. The serve loop runs thousands of
/// iterations per request; allocating these afresh in every generation /
/// verification phase dominated the simulator's own runtime, so they are
/// owned by [`RequestRun`] and recycled (cleared, never shrunk) across
/// iterations. Methods that need a container while also borrowing
/// `self` mutably `mem::take` it and hand it back when done. It carries
/// nothing from one iteration to the next, so a clone starts empty.
#[derive(Default)]
struct Scratch {
    /// Order-policy input items (generation phase).
    items: Vec<OrderItem>,
    /// Frontier beam indices in scheduling order (generation phase
    /// output, reused by the verification phase).
    ordered: Vec<usize>,
    /// The generation phase's working set, boxed so that it moves as
    /// one pointer (`None` only before its first use).
    gen: Option<Box<GenPhase>>,
    /// Scored frontier view handed to the search driver.
    scored: Vec<ScoredBeam>,
    /// Selected (beam index, children) pairs.
    picks: Vec<(usize, usize)>,
    /// Frontier KV leaves (replanning).
    leaves: Vec<NodeId>,
    /// Beams needing verification this iteration.
    to_verify: Vec<usize>,
    /// Verifier nodes pinned for the current chunk.
    pinned: Vec<NodeId>,
    /// Frontier scratch for branching (old frontier recycled into new).
    frontier_next: Vec<usize>,
    /// (beam, score) pairs for score-bin ranking.
    bin_ranking: Vec<(usize, f64)>,
    /// Selected beam indices during branching.
    selected: std::collections::HashSet<usize>,
    /// Unconsumed speculative KV nodes being discarded.
    spec_leftovers: Vec<NodeId>,
    /// Per-chunk verifier charges (the solo-costing wrapper path).
    charges: Vec<VerifyCharge>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// All per-request state of one TTS request, resumable step by step.
///
/// A `RequestRun` owns its KV caches, policies, search frontier and
/// statistics, so a serving layer can hold many in-flight runs at once
/// and interleave them one iteration at a time — the substrate for
/// continuous batching across requests. [`Engine::run`] drives exactly
/// this state machine to completion in a single call; [`Engine::begin`]
/// hands it out for external scheduling. A clone is an independent run
/// that continues exactly as the original would.
#[derive(Clone)]
pub struct RequestRun {
    cfg: std::sync::Arc<EngineConfig>,
    order: Box<dyn OrderPolicy>,
    planner: Box<dyn MemoryPlanner>,
    gen_roof: Roofline,
    ver_roof: Roofline,
    generator: SyntheticGenerator,
    prm: SyntheticPrm,
    gen_kv: KvCache,
    ver_kv: KvCache,
    ver_root: NodeId,
    problem: ProblemSpec,
    clock: f64,
    breakdown: LatencyBreakdown,
    beams: Vec<Beam>,
    frontier: Vec<usize>,
    /// Context tokens summed over the frontier's paths: summed afresh
    /// wherever the frontier is rebuilt, then raised by `k` for each
    /// frontier path a decode chunk extends. Read by
    /// [`RequestRun::decode_load`].
    frontier_ctx: u64,
    stats: RunStats,
    trace: Option<UtilizationTrace>,
    spec_off_after: f64,
    plan: MemoryPlan,
    born_counter: u32,
    root_eps: f64,
    scratch: Scratch,
    /// Beam budget `n` of the request.
    n: usize,
    /// TTS iterations completed so far.
    iteration: u32,
    /// Iteration cap (`max_depth + 4`, as in the original serve loop).
    max_iterations: u32,
    /// Whether the run has completed (frontier drained or cap reached).
    done: bool,
    /// KV budget this request may plan against (its pool share).
    kv_budget: u64,
    /// Decode sequences co-resident from *other* requests sharing the
    /// accelerator this step (continuous batching across requests).
    co_seqs: usize,
    /// Sum of those co-resident sequences' context lengths, in tokens.
    co_ctx_sum: u64,
    /// Split-phase protocol position (see [`RequestRun::plan_iteration`]).
    phase: RunPhase,
    /// Peak decode batch width observed so far in the current
    /// generation phase (spec-slot target; persists across decode
    /// chunks).
    gen_target_batch: usize,
    /// The decode chunk planned by `plan_decode_chunk`, awaiting its
    /// `apply_decode_chunk` charge.
    pending_decode: Option<DecodeChunk>,
    /// The planned chunk's decode-step seconds and the co-batch
    /// `(co_seqs, co_ctx_sum)` it was priced under; reused only while
    /// both the chunk and the declared co-batch are unchanged.
    chunk_price: Option<(DecodeChunk, usize, u64, f64)>,
    /// Verifier chunks produced by `take_verify_batch`, awaiting their
    /// `apply_verify_results` charges.
    pending_chunks: Vec<VerifyChunk>,
    /// `driver.verify_every_step()` captured at plan time.
    pending_verify_all: bool,
    /// Memoized elastic-share demand declaration (see
    /// [`RequestRun::demand_bytes`]); refreshed on every replan.
    last_demand: u64,
    /// Memoized accepted-token share floor (see
    /// [`RequestRun::kv_floor_bytes`]); refreshed on every replan.
    last_floor: u64,
    /// Whether restore transfers book into the `swap` breakdown bucket
    /// (host-tier accounting) instead of `offload` (legacy). See
    /// [`RequestRun::set_swap_accounting`].
    swap_accounting: bool,
}

impl std::fmt::Debug for RequestRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestRun")
            .field("clock", &self.clock)
            .field("iteration", &self.iteration)
            .field("frontier", &self.frontier.len())
            .field("done", &self.done)
            .finish()
    }
}

impl RequestRun {
    fn start(
        engine: Engine,
        problem: &ProblemSpec,
        n: usize,
        spec_off_after: f64,
        kv_budget: Option<u64>,
        warm: Option<WarmStart>,
    ) -> Self {
        let Engine {
            config: cfg,
            order,
            planner,
        } = engine;
        let gen_roof = Roofline::new(cfg.device.clone(), cfg.models.gen_spec.clone());
        let ver_roof = Roofline::new(cfg.device.clone(), cfg.models.ver_spec.clone());
        let budget = kv_budget.unwrap_or_else(|| cfg.kv_budget_bytes());
        // Initial half/half placeholder; the planner repartitions before
        // the first generation phase.
        let mut gen_kv = KvCache::new(KvCacheConfig {
            capacity_bytes: budget / 2,
            bytes_per_token: cfg.models.gen_spec.kv_bytes_per_token(),
            prefix_sharing: cfg.prefix_sharing,
        });
        let mut ver_kv = KvCache::new(KvCacheConfig {
            capacity_bytes: budget / 2,
            bytes_per_token: cfg.models.ver_spec.kv_bytes_per_token(),
            prefix_sharing: cfg.prefix_sharing,
        });
        let problem = ProblemSpec {
            seed: ftts_model::mix64(problem.seed, cfg.seed),
            ..*problem
        };
        let generator = SyntheticGenerator::new(cfg.models.gen_profile.clone());
        let prm = SyntheticPrm::new(cfg.models.prm_profile.clone());
        let gen_root = gen_kv.root(problem.prompt_tokens).expect("root");
        let ver_root = ver_kv.root(problem.prompt_tokens).expect("ver root");
        let root_eps = prm.root_eps(problem.seed);
        let trace = if cfg.trace {
            Some(UtilizationTrace::new())
        } else {
            None
        };
        let max_iterations = problem.steps.max_depth + 4;
        let mut run = Self {
            order,
            planner,
            gen_roof,
            ver_roof,
            generator,
            prm,
            gen_kv,
            ver_kv,
            ver_root,
            problem,
            clock: 0.0,
            breakdown: LatencyBreakdown::default(),
            beams: Vec::new(),
            frontier: Vec::new(),
            frontier_ctx: 0,
            stats: RunStats {
                correct_answer: problem.correct_answer(),
                ..RunStats::default()
            },
            trace,
            spec_off_after,
            plan: MemoryPlan {
                gen_kv_bytes: budget / 2,
                ver_kv_bytes: budget / 2,
                ver_batch: 8,
                offload: false,
            },
            born_counter: 0,
            root_eps,
            scratch: Scratch::default(),
            cfg,
            n,
            iteration: 0,
            max_iterations,
            done: false,
            kv_budget: budget,
            co_seqs: 0,
            co_ctx_sum: 0,
            phase: RunPhase::Ready,
            gen_target_batch: 0,
            pending_decode: None,
            chunk_price: None,
            pending_chunks: Vec::new(),
            pending_verify_all: true,
            last_demand: 0,
            last_floor: 0,
            swap_accounting: false,
        };
        // The prompt must be prefilled once by the generator before any
        // decoding; charged to the generator bucket. A warm start (host
        // KV tier holds the prompt's prefix) replaces the warm tokens'
        // prefill with a costed host→device swap-in: only the cold tail
        // is computed, attending over the swapped-in prefix as cached
        // context. With `warm` absent the charge is bit-identical to
        // the legacy full prefill.
        let warm_tokens = warm.map_or(0, |w| w.tokens).min(run.problem.prompt_tokens);
        if warm_tokens > 0 {
            let cold = run.problem.prompt_tokens - warm_tokens;
            if cold > 0 {
                let cost = run.gen_roof.prefill(cold, warm_tokens);
                run.advance(cost.seconds, cost.compute_util, Phase::Generation);
                run.breakdown.generator += cost.seconds;
            }
            let bytes = warm_tokens * run.cfg.models.gen_spec.kv_bytes_per_token();
            let seconds = run.cfg.device.pcie_transfer_seconds(bytes);
            run.advance(seconds, 0.0, Phase::Generation);
            run.breakdown.swap += seconds;
        } else {
            let cost = run.gen_roof.prefill(run.problem.prompt_tokens, 0);
            run.advance(cost.seconds, cost.compute_util, Phase::Generation);
            run.breakdown.generator += cost.seconds;
        }
        run.frontier.clear();
        run.root_beam(gen_root);
        run
    }

    /// Record a pseudo-beam for the prompt so initial expansion can share
    /// the branching code path.
    fn root_beam(&mut self, gen_root: NodeId) {
        let latent = self.generator.root_latent(&self.problem);
        self.beams.push(Beam {
            id: BeamId(0),
            parent: None,
            subtree: 0,
            kv: gen_root,
            ver_kv: Some(self.ver_root),
            latent,
            eps: self.root_eps,
            score: Some(0.5),
            prev_score: 0.5,
            step_target: 0,
            step_done: 0,
            preverified: None,
            state: BeamState::Active,
            spec: Vec::new(),
            completed_at: None,
        });
        self.born_counter = 1;
    }

    fn advance(&mut self, seconds: f64, util: f64, phase: Phase) {
        if seconds <= 0.0 {
            return;
        }
        if let Some(trace) = &mut self.trace {
            trace.record(self.clock, seconds, util, phase);
        }
        self.clock += seconds;
    }

    /// Feasibility check + initial expansion (the serve-loop preamble).
    fn init(&mut self, driver: &mut dyn SearchDriver) -> Result<(), EngineError> {
        // The prompt itself must fit in the generator cache, or no path
        // ever can.
        let root_kv = self.beams[0].kv;
        match self.gen_kv.pin(root_kv) {
            Ok(_) => self.gen_kv.unpin(root_kv),
            Err(_) => {
                return Err(EngineError::PathExceedsMemory {
                    needed: self.gen_kv.blocks_needed(root_kv, 0),
                    capacity: self.gen_kv.config().capacity_blocks(),
                })
            }
        }
        // Initial expansion: n children of the prompt, subtree i for DVTS.
        let initial: Vec<(usize, usize)> = vec![(0, self.n)];
        self.branch(&initial, driver, true)?;
        if self.frontier.is_empty() || self.iteration >= self.max_iterations {
            self.finalize();
        }
        // A scheduler may ask for share declarations right after
        // admission, before the first replan; seed the memos from the
        // initial frontier (pure bookkeeping — the planner is not
        // consulted, so `run` and `begin` stay bit-identical).
        let ctx = self.plan_context();
        self.refresh_share_declarations(&ctx);
        Ok(())
    }

    /// Execute one TTS iteration: replan memory, run the generation and
    /// verification phases, retire terminal beams and branch the
    /// survivors. Returns [`StepStatus::Finished`] when the request is
    /// complete (and [`RequestRun::finish`] should be called).
    ///
    /// This is a thin wrapper over the split-phase protocol —
    /// [`RequestRun::plan_iteration`], [`RequestRun::take_verify_batch`],
    /// [`RequestRun::apply_verify_results`] — costing each verifier
    /// chunk as its own sweep, so a batch-1 scheduler driving the phases
    /// explicitly reproduces `step` bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when a single path
    /// cannot fit in the generator's KV allocation.
    pub fn step(&mut self, driver: &mut dyn SearchDriver) -> Result<StepStatus, EngineError> {
        if self.plan_iteration(driver)?.is_finished() {
            return Ok(StepStatus::Finished);
        }
        self.take_verify_batch();
        let mut charges = std::mem::take(&mut self.scratch.charges);
        charges.clear();
        for i in 0..self.pending_chunks.len() {
            let cost = self.pending_chunks[i].solo_cost(&self.ver_roof);
            charges.push(VerifyCharge::full(&cost));
        }
        let status = self.apply_verify_results(driver, &charges);
        self.scratch.charges = charges;
        status
    }

    /// Split phase 1 of an iteration: replan memory and run the
    /// (co-batched) generation phase. Returns [`StepStatus::Finished`]
    /// without doing anything when the run already completed; otherwise
    /// [`RequestRun::take_verify_batch`] must be called next.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when a single path
    /// cannot fit in the generator's KV allocation.
    pub fn plan_iteration(
        &mut self,
        driver: &mut dyn SearchDriver,
    ) -> Result<StepStatus, EngineError> {
        assert!(
            self.phase == RunPhase::Ready,
            "plan_iteration called mid-iteration (phase {:?})",
            self.phase
        );
        if self.done {
            return Ok(StepStatus::Finished);
        }
        // Drive the chunked sub-iteration protocol with an uncapped
        // chunk size: every chunk is one full decode segment, so the
        // sequence of kernel launches (and every float op) is identical
        // to the historical monolithic generation phase — the wrapper
        // is bit-identical by construction.
        loop {
            match self.plan_decode_chunk(driver, u64::MAX)? {
                DecodeStatus::Finished => return Ok(StepStatus::Finished),
                DecodeStatus::Generated | DecodeStatus::Decoding => return Ok(StepStatus::Running),
                DecodeStatus::Planned(_) => {
                    if self.apply_decode_chunk(driver)? == DecodeStatus::Generated {
                        return Ok(StepStatus::Running);
                    }
                }
            }
        }
    }

    /// Split phase 2: mirror this iteration's fresh steps into the
    /// verifier cache (all KV side effects and PCIe transfers happen
    /// here, exactly as the monolithic path would) and return the
    /// prefill batches still owed kernel time. A scheduler costs them —
    /// solo, serialized, or fused with other requests' chunks into one
    /// shared sweep — and settles via
    /// [`RequestRun::apply_verify_results`].
    pub fn take_verify_batch(&mut self) -> &[VerifyChunk] {
        assert!(
            self.phase == RunPhase::Generated,
            "take_verify_batch requires a planned iteration (phase {:?})",
            self.phase
        );
        self.phase = RunPhase::VerifyPending;
        self.prepare_verify();
        &self.pending_chunks
    }

    /// Split phase 3: charge the costed verifier sweeps (one
    /// [`VerifyCharge`] per pending chunk, in order), reveal scores,
    /// retire terminal beams and branch the survivors — the commit of
    /// one iteration. `busy_seconds` of each charge lands in the
    /// `verifier` latency bucket, the remainder of `seconds` in `idle`
    /// (see [`VerifyCharge`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when branching cannot
    /// fit a child path in the generator's KV allocation.
    ///
    /// # Panics
    ///
    /// Panics when called out of phase order or with a charge count
    /// different from the pending chunk count.
    pub fn apply_verify_results(
        &mut self,
        driver: &mut dyn SearchDriver,
        charges: &[VerifyCharge],
    ) -> Result<StepStatus, EngineError> {
        assert!(
            self.phase == RunPhase::VerifyPending,
            "apply_verify_results requires a pending verify batch (phase {:?})",
            self.phase
        );
        assert_eq!(
            charges.len(),
            self.pending_chunks.len(),
            "one charge per pending verifier chunk"
        );
        self.phase = RunPhase::Ready;
        for (i, charge) in charges.iter().enumerate() {
            let chunk = self.pending_chunks[i];
            self.advance(charge.seconds, charge.compute_util, Phase::Verification);
            let busy = charge.busy_seconds.min(charge.seconds);
            self.breakdown.verifier += busy;
            self.breakdown.idle += charge.seconds - busy;
            self.stats.verified_tokens += chunk.new_tokens;
            self.stats.ver_sweeps += 1;
        }
        self.settle_verify_scores();
        self.retire_terminals();
        if self.frontier.is_empty() {
            self.finalize();
            return Ok(StepStatus::Finished);
        }
        let ctx = SelectCtx {
            iteration: self.iteration,
            n_target: self.n,
            completed: self.stats.beams.len(),
        };
        let mut scored = std::mem::take(&mut self.scratch.scored);
        scored.clear();
        scored.extend(self.frontier.iter().map(|&i| self.scored_view(i)));
        let selection = driver.select(&scored, &ctx);
        self.scratch.scored = scored;
        let mut picks = std::mem::take(&mut self.scratch.picks);
        picks.clear();
        picks.extend(selection.into_iter().map(|(id, c)| (id.0 as usize, c)));
        let branched = self.branch(&picks, driver, false);
        self.scratch.picks = picks;
        branched?;
        self.iteration += 1;
        if self.frontier.is_empty() || self.iteration >= self.max_iterations {
            self.finalize();
            return Ok(StepStatus::Finished);
        }
        // Post-branch share declarations: a scheduler's end-of-round
        // drift check reads the frontier the *next* round will decode.
        let ctx = self.plan_context();
        self.refresh_share_declarations(&ctx);
        Ok(StepStatus::Running)
    }

    /// First Finish Search cut (opt-in): if any *completed, verified*
    /// beam has cleared `bar`, prune the surviving frontier — sibling
    /// beams are cancelled, their speculative KV discarded and their
    /// leaf nodes dropped from the cache — and finish the run, freeing
    /// the request's pool reservation for waiting work. Returns whether
    /// the cut fired. Only legal between iterations; non-opted runs
    /// never call this, so their answers are untouched.
    pub fn first_finish_cut(&mut self, bar: f64) -> bool {
        assert!(
            self.phase == RunPhase::Ready,
            "first_finish_cut is only legal between iterations"
        );
        if self.done || self.frontier.is_empty() {
            return false;
        }
        if !self.stats.beams.iter().any(|b| b.score >= bar) {
            return false;
        }
        let frontier = std::mem::take(&mut self.frontier);
        self.frontier_ctx = 0;
        for &bi in &frontier {
            self.beams[bi].state = BeamState::Pruned;
            self.discard_leftover_spec(bi);
            self.gen_kv.discard(self.beams[bi].kv);
        }
        let mut recycled = frontier;
        recycled.clear();
        self.scratch.frontier_next = recycled;
        self.stats.first_finish_cuts += 1;
        self.finalize();
        true
    }

    /// Seal completion statistics (idempotent; exactly the serve-loop
    /// epilogue).
    fn finalize(&mut self) {
        self.done = true;
        self.stats.iterations = self.iteration;
        self.stats.completion.latency = self.clock;
        self.stats.completion.breakdown = self.breakdown;
    }

    /// Whether the run has completed.
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// The run's internal clock: seconds of simulated service time since
    /// the request started (idle waits included).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Where the run stands inside the split-phase protocol. A
    /// scheduler interleaving many runs uses this to assert every run is
    /// back at [`RunPhase::Ready`] before re-budgeting or regrouping it.
    pub fn run_phase(&self) -> RunPhase {
        self.phase
    }

    /// TTS iterations completed so far.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Statistics accumulated so far (final once the run is finished).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Total tokens decoded so far (speculation included) — accepted
    /// work that preemption must never lose.
    pub fn decoded_tokens(&self) -> u64 {
        self.stats.decoded_tokens
    }

    /// Move the speculation cut-off (two-phase scheduling): speculation
    /// stops once the internal clock passes `t`. A serving layer calls
    /// this before every step as its queue state changes.
    pub fn set_spec_off_after(&mut self, t: f64) {
        self.spec_off_after = t;
    }

    /// Re-budget this request's share of the device KV pool and replan
    /// the generator/verifier split immediately. Shrinking below current
    /// occupancy is allowed — the caches evict on demand.
    pub fn set_kv_budget(&mut self, bytes: u64) {
        self.kv_budget = bytes;
        self.replan();
    }

    /// This request's current KV pool share, in bytes.
    pub fn kv_budget(&self) -> u64 {
        self.kv_budget
    }

    /// Declare sequences co-resident from other requests for the next
    /// step: the decode kernel is costed over the combined batch (one
    /// shared weight sweep, everyone's KV traffic), which is where
    /// continuous batching wins its throughput.
    pub fn set_co_batch(&mut self, seqs: usize, ctx_sum: u64) {
        self.co_seqs = seqs;
        self.co_ctx_sum = ctx_sum;
    }

    /// This request's decode load as seen by co-scheduled requests:
    /// `(frontier sequences, total context tokens)`.
    ///
    /// O(1): the context total is a running sum, summed afresh when the
    /// frontier is rebuilt (branching, retiring terminal paths, a First
    /// Finish cut) and raised by `k` for every frontier path a decode
    /// chunk extends. Debug builds assert it against the frontier fold.
    pub fn decode_load(&self) -> (usize, u64) {
        debug_assert_eq!(
            self.frontier_ctx,
            self.fold_frontier_ctx(),
            "running frontier context drifted from its fold"
        );
        (self.frontier.len(), self.frontier_ctx)
    }

    /// The decode batch of the generation phase under way: `(active
    /// beams, speculative slots)`; `(0, 0)` between generation phases.
    pub fn decode_batch(&self) -> (usize, usize) {
        self.scratch
            .gen
            .as_ref()
            .map_or((0, 0), |gen| (gen.active.len(), gen.spec_tasks.len()))
    }

    /// Context tokens summed over the frontier's paths, from scratch.
    fn fold_frontier_ctx(&self) -> u64 {
        self.frontier
            .iter()
            .map(|&i| self.gen_kv.seq_tokens(self.beams[i].kv))
            .sum()
    }

    /// Advance the internal clock to `t` as idle time, booking the gap
    /// to `idle` and, for a [`Wait::Barrier`] or [`Wait::Join`], also to
    /// that wait's slice of it. No-op if `t` is in the past.
    pub fn wait_until(&mut self, t: f64, wait: Wait) {
        if t > self.clock {
            let gap = t - self.clock;
            match wait {
                Wait::Idle => {}
                Wait::Barrier => self.breakdown.barrier_idle += gap,
                Wait::Join => self.breakdown.join_wait += gap,
            }
            self.breakdown.idle += gap;
            self.clock = t;
        }
    }

    /// Retroactively stretch this run's in-flight iteration for decode
    /// contention from a *later* launch: `add_seqs` new sequences (with
    /// `add_ctx` total context tokens) started sharing the device while
    /// this run still had `remaining` seconds of its current iteration
    /// in flight. The remaining time is stretched by the marginal
    /// co-batch slowdown — the ratio of the decode-step cost with and
    /// without the new load on top of this run's own frontier plus its
    /// declared co-batch — and the stretch is booked to the
    /// `contention` latency bucket (wall-clock, not device-busy time,
    /// so busy buckets stay comparable to contention-free scheduling).
    /// Returns the seconds added; never negative, and zero whenever the
    /// added load does not slow the shared kernel.
    pub fn contention_stretch(&mut self, add_seqs: usize, add_ctx: u64, remaining: f64) -> f64 {
        if add_seqs == 0 || remaining <= 0.0 {
            return 0.0;
        }
        let (seqs, ctx) = self.decode_load();
        let total = seqs + self.co_seqs;
        if total == 0 {
            return 0.0;
        }
        let base_ctx = ctx + self.co_ctx_sum;
        let before = self.gen_roof.decode_seconds(total, base_ctx / total as u64);
        let after = self.gen_roof.decode_seconds(
            total + add_seqs,
            (base_ctx + add_ctx) / (total + add_seqs) as u64,
        );
        if before <= 0.0 || after <= before {
            return 0.0;
        }
        let extra = remaining * (after / before - 1.0);
        self.clock += extra;
        self.breakdown.contention += extra;
        extra
    }

    /// Preempt the request: swap unpinned KV (generator and verifier)
    /// to host memory until at most `cap_bytes` have moved, freeing its
    /// device blocks for other requests, and drop the rest without a
    /// host copy (a bounded host tier). Generator KV — the shared
    /// prompt/accepted prefixes — claims the capacity before verifier
    /// KV. Returns `(swapped_bytes, dropped_bytes)`, the first for PCIe
    /// costing by the scheduler; `cap_bytes == u64::MAX` swaps
    /// everything. Accepted tokens are never lost: resuming restores
    /// swapped prefixes and recomputes dropped ones through the normal
    /// pin path.
    pub fn preempt(&mut self, cap_bytes: u64) -> (u64, u64) {
        let (gen_swapped, gen_dropped) = self.gen_kv.swap_out_unpinned_capped(cap_bytes);
        let (ver_swapped, ver_dropped) = self
            .ver_kv
            .swap_out_unpinned_capped(cap_bytes - gen_swapped);
        (gen_swapped + ver_swapped, gen_dropped + ver_dropped)
    }

    /// Route restore transfer charges into the `swap` breakdown bucket
    /// (host-tier accounting) instead of the legacy `offload` bucket.
    /// The seconds are identical either way — this only changes
    /// attribution, so schedulers enable it exactly when the tier is
    /// enabled and the disabled-tier anchor stays bit-identical.
    pub fn set_swap_accounting(&mut self, enabled: bool) {
        self.swap_accounting = enabled;
    }

    /// Advance the internal clock by `secs` of injected-fault time:
    /// device work wasted by a transient kernel failure, a retry
    /// backoff wait, or thermal-throttle stretch. Booked to the
    /// dedicated `fault` breakdown bucket — never to the busy phases —
    /// so attributed generator/verifier seconds stay identical to the
    /// fault-free run (retries can't double-bill device time).
    pub fn stall_fault(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0, "fault stalls only move time forward");
        if secs > 0.0 {
            self.breakdown.fault += secs;
            self.clock += secs;
        }
    }

    /// Record `faults` transient kernel failures on this request's
    /// iteration: `retries` re-dispatch attempts were needed and
    /// `backoff_secs` of the recovery was exponential-backoff waiting
    /// (already included in the accompanying
    /// [`RequestRun::stall_fault`] charge).
    pub fn note_kernel_faults(&mut self, faults: u32, retries: u32, backoff_secs: f64) {
        self.stats.faults.kernel_faults += faults;
        self.stats.faults.retries += retries;
        self.stats.faults.backoff_secs += backoff_secs;
    }

    /// Record `secs` of thermal-throttle stretch (already booked via
    /// [`RequestRun::stall_fault`]).
    pub fn note_slowdown(&mut self, secs: f64) {
        self.stats.faults.slowdown_secs += secs;
    }

    /// Injected device KV loss: drop every unpinned device-resident KV
    /// block of both caches *without* host copies. The committed state
    /// (latents, scores, accepted tokens) lives in the beam tree, so
    /// recovery is a deterministic replay: the next iteration's pins
    /// recompute exactly the lost prefixes through the normal recompute
    /// path. Host-resident (swapped-out) blocks of preempted requests
    /// are untouched — host RAM is not on the faulting device. Returns
    /// the blocks lost.
    pub fn lose_device_kv(&mut self) -> u64 {
        let lost = self.gen_kv.lose_unpinned() + self.ver_kv.lose_unpinned();
        if lost > 0 {
            self.stats.faults.kv_loss_events += 1;
            self.stats.faults.lost_blocks += lost;
        }
        lost
    }

    /// Worst single-path KV demand vs the generator's capacity, in
    /// blocks. A request whose demand exceeds capacity cannot make
    /// progress under its current pool share and should be preempted
    /// until shares regrow.
    pub fn kv_demand(&self) -> (u64, u64) {
        let needed = self
            .frontier
            .iter()
            .map(|&i| {
                let b = &self.beams[i];
                self.gen_kv.blocks_needed(b.kv, b.remaining()) + 2
            })
            .max()
            .unwrap_or(0);
        (needed, self.gen_kv.config().capacity_blocks())
    }

    /// Whether every frontier path individually fits the current share
    /// (see [`RequestRun::kv_demand`]).
    pub fn can_progress(&self) -> bool {
        let (needed, capacity) = self.kv_demand();
        needed <= capacity
    }

    /// Generator-side working set vs cache capacity, in bytes: the
    /// unique tokens across all frontier paths (prefix sharing already
    /// accounted) are what the cache must retain across iterations to
    /// avoid recompute thrash.
    pub fn kv_working_set(&self) -> (u64, u64) {
        let leaves: Vec<NodeId> = self.frontier.iter().map(|&i| self.beams[i].kv).collect();
        let tokens = self.gen_kv.unique_path_tokens(&leaves);
        (
            tokens * self.gen_kv.config().bytes_per_token,
            self.gen_kv.config().capacity_bytes,
        )
    }

    /// Whether the frontier's working set fits the current share (no
    /// eviction thrash). A scheduler sharing the pool across requests
    /// uses this as its soft preemption trigger.
    pub fn fits_working_set(&self) -> bool {
        let (set, capacity) = self.kv_working_set();
        set <= capacity
    }

    /// Final statistics. The run is consumed; callable at any point (a
    /// scheduler abandoning an unfinished run gets stats sealed at the
    /// current clock/iteration).
    pub fn finish(self) -> RunStats {
        self.into_parts().0
    }

    /// Destructure into final stats plus the engine the run was started
    /// from (so [`Engine::run`] can hand its policies back).
    fn into_parts(mut self) -> (RunStats, Engine) {
        if !self.done {
            // Abandoned mid-flight: seal completion at the current
            // state so the record is internally consistent.
            self.finalize();
        }
        self.stats.gen_cache = *self.gen_kv.stats();
        self.stats.ver_cache = *self.ver_kv.stats();
        self.stats.trace = self.trace.take();
        let engine = Engine {
            config: self.cfg,
            order: self.order,
            planner: self.planner,
        };
        (self.stats, engine)
    }

    fn scored_view(&self, idx: usize) -> ScoredBeam {
        let b = &self.beams[idx];
        ScoredBeam {
            id: b.id,
            score: b.score.unwrap_or(b.prev_score),
            depth: b.latent.depth,
            terminal: b.latent.terminal,
            subtree: b.subtree,
            path_tokens: self.gen_kv.seq_tokens(b.kv),
        }
    }

    /// Current planner input, derived from the live frontier.
    fn plan_context(&mut self) -> PlanContext {
        let avg_ctx = if self.frontier.is_empty() {
            self.problem.prompt_tokens
        } else {
            self.decode_load().1 / self.frontier.len() as u64
        };
        let step_tokens = self.problem.steps.median_tokens as u64;
        let mut leaves = std::mem::take(&mut self.scratch.leaves);
        leaves.clear();
        leaves.extend(self.frontier.iter().map(|&i| self.beams[i].kv));
        let tree_tokens = self.gen_kv.unique_path_tokens(&leaves);
        self.scratch.leaves = leaves;
        PlanContext {
            kv_budget_bytes: self.kv_budget,
            n_beams: self.frontier.len(),
            avg_ctx,
            step_tokens,
            ver_seq: avg_ctx + step_tokens,
            tree_tokens,
            ver_caching: self.cfg.ver_prefix_caching,
        }
    }

    /// Working-set demand estimate for elastic pool shares (bytes): live
    /// beams × mean path depth (plus one decode step) × KV bytes/token
    /// across both models, floored by the resident unique tree — see
    /// [`crate::planner::working_set_demand`]. A scheduler rebalancing a
    /// shared pool sizes shares proportionally to this.
    ///
    /// Memoized by the replan that every `plan_iteration` /
    /// `set_kv_budget` performs, so a scheduler's per-round drift check
    /// costs an accessor, not a frontier scan plus prefix-tree walk.
    pub fn demand_bytes(&self) -> u64 {
        self.last_demand
    }

    /// Bytes of pool share needed to keep the accepted generator
    /// working set resident — the floor below which a rebalance would
    /// force the cache to evict accepted tokens into recompute thrash.
    /// The working set lives in the *generator's* slice of the share,
    /// so the floor is scaled up by the planner's current split (a
    /// share equal to the raw working set would leave the generator
    /// only its fraction of it), and includes one decode step of growth
    /// per live path: a share at the floor must survive until the next
    /// rebalance boundary, not just this round. Memoized like
    /// [`RequestRun::demand_bytes`].
    pub fn kv_floor_bytes(&self) -> u64 {
        self.last_floor
    }

    /// The verifier-side cost model of this request (all requests served
    /// by one engine config share identical parameters, so a scheduler
    /// may cost a fused sweep with any participant's roofline).
    pub fn verifier_roofline(&self) -> &Roofline {
        &self.ver_roof
    }

    /// Invoke the memory planner on current state and apply capacities;
    /// refresh the memoized demand/floor declarations from the same
    /// context.
    fn replan(&mut self) {
        let ctx = self.plan_context();
        let plan = self.planner.plan(&self.cfg, &ctx);
        debug_assert!(plan.fits(ctx.kv_budget_bytes), "planner exceeded budget");
        self.plan = plan;
        self.gen_kv.set_capacity_bytes(plan.gen_kv_bytes);
        self.ver_kv.set_capacity_bytes(plan.ver_kv_bytes);
        self.refresh_share_declarations(&ctx);
    }

    /// Refresh the memoized elastic-share declarations from a planner
    /// context (demand estimate and accepted-token floor).
    fn refresh_share_declarations(&mut self, ctx: &PlanContext) {
        self.last_demand = crate::planner::working_set_demand(&self.cfg, ctx);
        let bytes_per_token = self.gen_kv.config().bytes_per_token;
        let working_set = ctx.tree_tokens * bytes_per_token;
        let growth = ctx.n_beams as u64 * ctx.step_tokens * bytes_per_token;
        let gen_fraction = self.plan.gen_kv_bytes.max(1) as f64 / self.kv_budget.max(1) as f64;
        self.last_floor = ((working_set + growth) as f64 / gen_fraction.clamp(0.1, 1.0)) as u64;
    }

    /// Blocks a beam will need to finish its step, with slack.
    fn growth_blocks(&self, beam: &Beam) -> u64 {
        beam.remaining() / BLOCK_SIZE + 2
    }

    /// Open a generation phase: offload the verifier's KV if planned,
    /// order the frontier, initialize the admission queue and per-phase
    /// containers. The scheduling order lands in `scratch.ordered` (the
    /// verification phase reuses it for locality).
    fn begin_generation(&mut self, driver: &mut dyn SearchDriver) {
        // Offload: the verifier yields its KV while the generator runs.
        if self.plan.offload {
            let bytes = self.ver_kv.swap_out_unpinned();
            let t = self.cfg.device.pcie_transfer_seconds(bytes);
            self.advance(t, 0.0, Phase::Generation);
            self.breakdown.offload += t;
        }
        let mut items = std::mem::take(&mut self.scratch.items);
        items.clear();
        items.extend(self.frontier.iter().enumerate().map(|(i, &bi)| {
            let b = &self.beams[bi];
            OrderItem {
                index: i,
                kv: b.kv,
                parent_kv: b.parent.map(|p| self.beams[p.0 as usize].kv),
                born_rank: b.id.0,
            }
        }));
        let perm = self.order.order(&items, &self.gen_kv);
        debug_assert_eq!(perm.len(), items.len());
        let mut ordered = std::mem::take(&mut self.scratch.ordered);
        ordered.clear();
        ordered.extend(perm.iter().map(|&i| self.frontier[items[i].index]));
        self.scratch.items = items;

        let mut gen = self.scratch.gen.take().unwrap_or_default();
        gen.queue.clear();
        gen.queue.extend(ordered.iter().copied());
        gen.active.clear();
        gen.finished.clear();
        gen.spec_tasks.clear();
        gen.spec_started.clear();
        gen.spec_started.resize(self.beams.len(), 0);
        gen.defer_counts.clear();
        gen.defer_counts.resize(self.beams.len(), 0);
        gen.sums = None;
        self.scratch.ordered = ordered;
        self.gen_target_batch = 0;
        self.compute_score_bins(driver.branching().max(1), &mut gen.bins);
        self.scratch.gen = Some(gen);
    }

    /// Close a generation phase: capture the driver's verification mode
    /// and move to [`RunPhase::Generated`].
    fn end_generation(&mut self, driver: &mut dyn SearchDriver) {
        self.pending_verify_all = driver.verify_every_step();
        self.phase = RunPhase::Generated;
    }

    /// Chunked sub-iteration decode, step 1: admit waiting paths into
    /// the decode batch, refill speculative slots, and plan the next
    /// decode segment — capped at `cap` tokens per sequence, so an
    /// external scheduler can force a chunk boundary every `cap` tokens
    /// and admit newly arrived requests into the co-batch there
    /// (token-granularity joins). Called in [`RunPhase::Ready`] it
    /// opens the generation phase first (replan, frontier ordering).
    ///
    /// Returns [`DecodeStatus::Planned`] with the chunk to be charged
    /// via [`RequestRun::apply_decode_chunk`],
    /// [`DecodeStatus::Generated`] when the generation phase completed
    /// without another segment, or [`DecodeStatus::Finished`] when the
    /// run was already complete. With `cap == u64::MAX` every chunk is
    /// one full decode segment and the plan/apply cycle reproduces the
    /// historical monolithic generation phase bit for bit
    /// ([`RequestRun::plan_iteration`] is exactly that loop).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when a single path
    /// cannot fit in the generator's KV allocation.
    pub fn plan_decode_chunk(
        &mut self,
        driver: &mut dyn SearchDriver,
        cap: u64,
    ) -> Result<DecodeStatus, EngineError> {
        if self.phase == RunPhase::Ready {
            if self.done {
                return Ok(DecodeStatus::Finished);
            }
            self.replan();
            self.begin_generation(driver);
            self.phase = RunPhase::Decoding;
        }
        assert!(
            self.phase == RunPhase::Decoding,
            "plan_decode_chunk called mid-iteration (phase {:?})",
            self.phase
        );
        assert!(
            self.pending_decode.is_none(),
            "previous decode chunk was never applied"
        );
        let mut gen = self.scratch.gen.take().unwrap_or_default();
        let planned = loop {
            // Admission: fill with waiting paths first (Phase 1,
            // continuous beam batching). The batch's growth reserve is
            // summed only when there is a candidate to weigh against it.
            let reserve: u64 = if gen.queue.is_empty() {
                0
            } else {
                gen.active
                    .iter()
                    .map(|&i| self.growth_blocks(&self.beams[i]))
                    .sum::<u64>()
                    + gen
                        .spec_tasks
                        .iter()
                        .map(|t| (t.target - t.generated) / BLOCK_SIZE + 2)
                        .sum::<u64>()
            };
            while let Some(&cand) = gen.queue.front() {
                let (bkv, brem, bdone) = {
                    let beam = &self.beams[cand];
                    (beam.kv, beam.remaining(), beam.step_complete())
                };
                if bdone {
                    gen.queue.pop_front();
                    gen.finished.push(cand);
                    continue;
                }
                let needed =
                    self.gen_kv.blocks_needed(bkv, brem) + self.growth_blocks(&self.beams[cand]);
                let obtainable = self.gen_kv.obtainable_blocks_for(bkv);
                let fits = needed + reserve <= obtainable;
                if fits || gen.active.is_empty() {
                    gen.queue.pop_front();
                    match self.gen_kv.pin(bkv) {
                        Ok(cost) => {
                            self.charge_gen_restore(&cost);
                            gen.active.push(cand);
                            gen.sums = None;
                        }
                        Err(KvError::InsufficientMemory { needed, .. }) => {
                            return Err(EngineError::PathExceedsMemory {
                                needed,
                                capacity: self.gen_kv.config().capacity_blocks(),
                            });
                        }
                        Err(_) => unreachable!("pin only fails on memory"),
                    }
                    if !fits {
                        break; // emergency admission: run it alone
                    }
                } else {
                    break;
                }
            }
            if gen.active.is_empty() {
                if gen.queue.is_empty() {
                    break None;
                }
                continue;
            }
            self.gen_target_batch = self
                .gen_target_batch
                .max(gen.active.len() + gen.spec_tasks.len());

            // Phase 2: speculative slot refill, only with an empty
            // waiting queue and before the preemption deadline.
            if self.cfg.spec.enabled && gen.queue.is_empty() && self.clock < self.spec_off_after {
                self.refill_spec_slots(driver, &mut gen);
            }

            // One segment: advance until the next completion event (or
            // the scheduler's chunk cap, whichever is nearer).
            let sums = match gen.sums {
                Some(kept) => {
                    debug_assert_eq!(
                        kept,
                        self.fold_batch_sums(&gen),
                        "kept decode-batch sums drifted from their fold"
                    );
                    kept
                }
                None => self.fold_batch_sums(&gen),
            };
            gen.sums = Some(sums);
            let k = sums.min_active.min(sums.min_spec).max(1).min(cap.max(1));
            let batch = gen.active.len() + gen.spec_tasks.len();
            break Some(DecodeChunk {
                k,
                batch,
                ctx_sum: sums.ctx_sum,
            });
        };
        // Hand the working set back between protocol calls (error paths
        // above skip this; the run is over then anyway).
        self.scratch.gen = Some(gen);
        match planned {
            Some(chunk) => {
                self.pending_decode = Some(chunk);
                let step = self.price_chunk(&chunk);
                self.chunk_price = Some((chunk, self.co_seqs, self.co_ctx_sum, step));
                Ok(DecodeStatus::Planned(chunk))
            }
            None => {
                self.end_generation(driver);
                Ok(DecodeStatus::Generated)
            }
        }
    }

    /// The decode batch's sums, folded from scratch.
    fn fold_batch_sums(&self, gen: &GenPhase) -> BatchSums {
        BatchSums {
            min_active: gen
                .active
                .iter()
                .map(|&i| self.beams[i].remaining())
                .min()
                .expect("a planned chunk has an active beam"),
            min_spec: gen
                .spec_tasks
                .iter()
                .map(|t| t.target - t.generated)
                .min()
                .unwrap_or(u64::MAX),
            ctx_sum: gen
                .active
                .iter()
                .map(|&i| self.gen_kv.seq_tokens(self.beams[i].kv))
                .chain(
                    gen.spec_tasks
                        .iter()
                        .map(|t| self.gen_kv.seq_tokens(t.node)),
                )
                .sum(),
        }
    }

    /// The wall-clock seconds the planned chunk will charge under the
    /// co-batch currently declared via [`RequestRun::set_co_batch`] —
    /// what a scheduler uses to find the next shared chunk boundary
    /// before committing the chunk. Bit-identical to the charge
    /// [`RequestRun::apply_decode_chunk`] books (same float ops).
    ///
    /// [`RequestRun::plan_decode_chunk`] prices the chunk once under the
    /// co-batch declared at plan time; that price is reused while the
    /// declared co-batch is unchanged, and the chunk is priced again
    /// after any [`RequestRun::set_co_batch`] that changes it.
    pub fn chunk_seconds(&self, chunk: &DecodeChunk) -> f64 {
        self.chunk_step_seconds(chunk) * chunk.k as f64
    }

    /// The decode-step seconds of `chunk` under the co-batch declared
    /// now: the plan-time price while the chunk and the declared
    /// co-batch are the ones it was priced under, otherwise priced
    /// afresh.
    fn chunk_step_seconds(&self, chunk: &DecodeChunk) -> f64 {
        match self.chunk_price {
            Some((priced, seqs, ctx, step))
                if priced == *chunk && seqs == self.co_seqs && ctx == self.co_ctx_sum =>
            {
                step
            }
            _ => self.price_chunk(chunk),
        }
    }

    /// Price one decode step of `chunk` over the declared co-batch, in
    /// seconds.
    fn price_chunk(&self, chunk: &DecodeChunk) -> f64 {
        let (batch, avg_ctx) = self.chunk_shape(chunk);
        self.gen_roof.decode_seconds(batch, avg_ctx)
    }

    /// The decode kernel one step of `chunk` runs, as `(batch,
    /// avg_ctx)`: sequences co-scheduled from other requests ride the
    /// same kernel (one shared weight sweep, everyone's KV traffic).
    /// With no co-batch this is the standalone shape exactly.
    fn chunk_shape(&self, chunk: &DecodeChunk) -> (usize, u64) {
        let total_batch = chunk.batch + self.co_seqs;
        let avg_ctx = (chunk.ctx_sum + self.co_ctx_sum) / total_batch as u64 + chunk.k / 2;
        (total_batch, avg_ctx)
    }

    /// Chunked sub-iteration decode, step 2: charge the planned chunk's
    /// decode kernel (priced over the co-batch declared *now*, which may
    /// differ from the plan-time co-batch — that is the point of
    /// token-granularity joins — so the plan-time price is reused only
    /// when the declared co-batch is unchanged) and apply its `k`
    /// tokens to every batch member: extend KV, handle memory-pressure
    /// deferral, advance speculative slots, retire members whose step
    /// completed.
    ///
    /// Returns [`DecodeStatus::Decoding`] while the generation phase has
    /// more work and [`DecodeStatus::Generated`] when it completed
    /// ([`RequestRun::take_verify_batch`] is next).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PathExceedsMemory`] when a repeatedly
    /// deferred path cannot fit the generator's KV allocation at all.
    ///
    /// # Panics
    ///
    /// Panics when called without a planned chunk.
    pub fn apply_decode_chunk(
        &mut self,
        driver: &mut dyn SearchDriver,
    ) -> Result<DecodeStatus, EngineError> {
        assert!(
            self.phase == RunPhase::Decoding,
            "apply_decode_chunk called out of phase (phase {:?})",
            self.phase
        );
        let chunk = self.pending_decode.take().expect("no decode chunk planned");
        let k = chunk.k;
        let mut gen = self
            .scratch
            .gen
            .take()
            .expect("a planned chunk's working set");
        let sums = gen.sums.take().expect("a planned chunk's batch sums");
        let members = (gen.active.len(), gen.spec_tasks.len());

        let dt = self.chunk_step_seconds(&chunk) * k as f64;
        // Only a utilization trace reads the kernel's utilization.
        let util = match self.trace {
            Some(_) => {
                let (batch, avg_ctx) = self.chunk_shape(&chunk);
                self.gen_roof.decode_step(batch, avg_ctx).compute_util
            }
            None => 0.0,
        };
        self.advance(dt, util, Phase::Generation);
        self.breakdown.generator += dt;
        self.stats.decoded_tokens += k * chunk.batch as u64;

        // Apply k tokens to every member.
        gen.deferred.clear();
        let mut emergency = false;
        for &bi in &gen.active {
            match self.gen_kv.extend(self.beams[bi].kv, k) {
                Ok(()) => {
                    self.beams[bi].step_done += k;
                    self.frontier_ctx += k;
                }
                Err(KvError::InsufficientMemory { .. }) => {
                    emergency = true;
                    gen.deferred.push(bi);
                }
                Err(e) => panic!("extend failed: {e}"),
            }
        }
        if emergency {
            // Abort speculation to relieve pressure, retry deferred.
            self.abort_spec(&mut gen.spec_tasks, true);
            gen.still_failing.clear();
            for &bi in &gen.deferred {
                match self.gen_kv.extend(self.beams[bi].kv, k) {
                    Ok(()) => {
                        self.beams[bi].step_done += k;
                        self.frontier_ctx += k;
                    }
                    Err(_) => gen.still_failing.push(bi),
                }
            }
            for &bi in &gen.still_failing {
                // Defer the beam: release it and re-queue; its
                // partial step stays cached and resumes later. A beam
                // that keeps failing cannot fit at all.
                gen.defer_counts[bi] += 1;
                if gen.defer_counts[bi] > 3 {
                    return Err(EngineError::PathExceedsMemory {
                        needed: self.gen_kv.blocks_needed(self.beams[bi].kv, 1),
                        capacity: self.gen_kv.config().capacity_blocks(),
                    });
                }
                self.gen_kv.unpin(self.beams[bi].kv);
                gen.active.retain(|&x| x != bi);
                gen.queue.push_back(bi);
            }
        }
        gen.kept_spec.clear();
        for mut task in gen.spec_tasks.drain(..) {
            match self.gen_kv.extend(task.node, k) {
                Ok(()) => {
                    task.generated += k;
                    self.stats.spec.spec_tokens += k;
                    if task.generated >= task.target {
                        self.finish_spec_branch(task, false);
                    } else {
                        gen.kept_spec.push(task);
                    }
                }
                Err(_) => {
                    // Memory pressure kills the branch (the partial
                    // head start is still recorded and unpinned).
                    self.stats.spec.preempted_branches += 1;
                    self.record_partial_spec(task);
                }
            }
        }
        std::mem::swap(&mut gen.spec_tasks, &mut gen.kept_spec);

        // Retire members that finished their step; their slots will
        // be refilled at the next chunk's admission. Unless a member was
        // deferred, none finished when every one had more than `k` left.
        if emergency || sums.min_active <= k {
            gen.still_active.clear();
            for &bi in &gen.active {
                if self.beams[bi].step_complete() {
                    self.gen_kv.unpin(self.beams[bi].kv);
                    gen.finished.push(bi);
                } else {
                    gen.still_active.push(bi);
                }
            }
            std::mem::swap(&mut gen.active, &mut gen.still_active);
        }
        // With the same members, every one advanced by `k`.
        if !emergency && (gen.active.len(), gen.spec_tasks.len()) == members {
            gen.sums = Some(BatchSums {
                min_active: sums.min_active - k,
                min_spec: if members.1 == 0 {
                    u64::MAX
                } else {
                    sums.min_spec - k
                },
                ctx_sum: sums.ctx_sum + k * chunk.batch as u64,
            });
        }

        let over = gen.active.is_empty() && gen.queue.is_empty();
        if over {
            // Straggler done: strictly terminate speculation
            // regardless of progress (Sec. 4.1.2).
            self.abort_spec(&mut gen.spec_tasks, false);
        }
        // Hand the working set back for the next chunk / iteration.
        self.scratch.gen = Some(gen);
        if over {
            self.end_generation(driver);
            Ok(DecodeStatus::Generated)
        } else {
            Ok(DecodeStatus::Decoding)
        }
    }

    fn charge_gen_restore(&mut self, cost: &ftts_kv::PinCost) {
        if cost.recompute_tokens > 0 {
            let c = self.gen_roof.prefill(cost.recompute_tokens, 0);
            self.advance(c.seconds, c.compute_util, Phase::Generation);
            self.breakdown.recompute += c.seconds;
        }
        if cost.transfer_in_bytes > 0 {
            let t = self
                .cfg
                .device
                .pcie_transfer_seconds(cost.transfer_in_bytes);
            self.advance(t, 0.0, Phase::Generation);
            if self.swap_accounting {
                self.breakdown.swap += t;
            } else {
                self.breakdown.offload += t;
            }
        }
    }

    /// Quantile bins over the frontier's previous scores; fills `bins`
    /// with each frontier beam's speculative potential `M_i = B - j + 1`
    /// (Sec. 4.1.1), and every other beam's with 1.
    fn compute_score_bins(&mut self, b: usize, bins: &mut Vec<u64>) {
        let mut ranking = std::mem::take(&mut self.scratch.bin_ranking);
        ranking.clear();
        ranking.extend(self.frontier.iter().map(|&i| (i, self.beams[i].prev_score)));
        ranking.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
        let n = ranking.len().max(1);
        bins.clear();
        bins.resize(self.beams.len(), 1);
        for (rank, &(idx, _)) in ranking.iter().enumerate() {
            let bin = rank * b / n; // 0 = best bin
            bins[idx] = (b - bin) as u64;
        }
        self.scratch.bin_ranking = ranking;
    }

    /// Fill free decode slots (up to the phase's peak batch width) with
    /// speculative branches of finished beams, highest unstarted
    /// potential first, while free memory leaves headroom.
    fn refill_spec_slots(&mut self, driver: &mut dyn SearchDriver, gen: &mut GenPhase) {
        let mut free_slots = self
            .gen_target_batch
            .saturating_sub(gen.active.len() + gen.spec_tasks.len());
        if free_slots == 0 {
            return;
        }
        // Candidates: finished, non-terminal beams with unstarted
        // speculative potential, highest potential first.
        let mut candidates = std::mem::take(&mut gen.candidates);
        candidates.clear();
        candidates.extend(
            gen.finished
                .iter()
                .filter(|&&bi| !self.beams[bi].latent.terminal)
                .filter_map(|&bi| {
                    let (m, started) = (gen.bins[bi], gen.spec_started[bi]);
                    (started < m).then_some((m - started, bi))
                }),
        );
        candidates.sort_by(|a, b| b.cmp(a));
        'fill: for &(_, bi) in &candidates {
            while free_slots > 0 {
                let (m, started) = (gen.bins[bi], gen.spec_started[bi]);
                if started >= m {
                    break;
                }
                let branch = started;
                let parent_latent = self.beams[bi].latent;
                let plan = self
                    .generator
                    .plan_step(&self.problem, &parent_latent, branch);
                let target = driver
                    .step_token_cap(plan.latent.depth)
                    .map_or(plan.n_tokens, |cap| plan.n_tokens.min(cap));
                let eps = self.prm.child_eps(self.beams[bi].eps, plan.latent.key);
                // Speculation is strictly opportunistic: it may only use
                // memory that is *free*, never evict retained prefixes
                // (that would trade real cache hits for speculative
                // work), and it leaves a margin so the next iteration's
                // admissions do not evict live paths either.
                let leaf = self.beams[bi].kv;
                let spec_blocks = target / BLOCK_SIZE + 2;
                let margin = self.gen_kv.config().capacity_blocks() / 8;
                if self.gen_kv.free_blocks() < spec_blocks * 2 + margin {
                    break 'fill; // no headroom for more speculation
                }
                let node = self.gen_kv.fork(leaf).expect("fork");
                match self.gen_kv.pin(node) {
                    Ok(cost) => self.charge_gen_restore(&cost),
                    Err(_) => break 'fill,
                }
                gen.spec_started[bi] += 1;
                self.stats.spec.spec_branches += 1;
                gen.spec_tasks.push(SpecTask {
                    beam: bi,
                    branch,
                    node,
                    plan,
                    eps,
                    target,
                    generated: 0,
                });
                gen.sums = None;
                free_slots -= 1;
            }
            if free_slots == 0 {
                break;
            }
        }
        gen.candidates = candidates;
    }

    /// A speculative branch completed its whole future step.
    fn finish_spec_branch(&mut self, task: SpecTask, aborted: bool) {
        self.gen_kv.unpin(task.node);
        let beam = &mut self.beams[task.beam];
        beam.spec.push(SpecBranch {
            branch: task.branch,
            node: task.node,
            plan: StepPlan {
                n_tokens: task.target,
                ..task.plan
            },
            eps: task.eps,
            generated: task.generated,
            complete: !aborted && task.generated >= task.target,
            preverified: None,
            ver_node: None,
        });
    }

    /// Record a partially generated branch (still usable as head start).
    fn record_partial_spec(&mut self, task: SpecTask) {
        if task.generated > 0 {
            self.finish_spec_branch(task, true);
        } else {
            self.gen_kv.unpin(task.node);
        }
    }

    /// End every in-flight speculative branch, keeping partial head
    /// starts; `count_preempted` counts each as preempted by memory
    /// pressure.
    fn abort_spec(&mut self, spec_tasks: &mut Vec<SpecTask>, count_preempted: bool) {
        for task in spec_tasks.drain(..) {
            if count_preempted {
                self.stats.spec.preempted_branches += 1;
            }
            self.record_partial_spec(task);
        }
    }

    /// The verifier mirror pass: mirror every beam that stepped this
    /// iteration (plus LookAhead piggybacks) into the verifier cache, in
    /// scheduler order, batched by the memory plan. All cache side
    /// effects and PCIe transfers happen here; the prefill kernel time
    /// of each batch is *recorded* as a [`VerifyChunk`] instead of
    /// charged, so the sweeps can be costed solo (the [`RequestRun::step`]
    /// wrapper), serialized behind other requests, or fused across
    /// requests into one shared sweep.
    fn prepare_verify(&mut self) {
        self.pending_chunks.clear();
        let order = std::mem::take(&mut self.scratch.ordered);
        if self.plan.offload {
            // Generator yields; verifier KV returns on demand via pins.
            let bytes = self.gen_kv.swap_out_unpinned();
            let t = self.cfg.device.pcie_transfer_seconds(bytes);
            self.advance(t, 0.0, Phase::Verification);
            self.breakdown.offload += t;
        }
        let verify_all = self.pending_verify_all;
        let mut to_verify = std::mem::take(&mut self.scratch.to_verify);
        to_verify.clear();
        to_verify.extend(order.iter().copied().filter(|&bi| {
            let b = &self.beams[bi];
            b.preverified.is_none() && (verify_all || b.latent.terminal)
        }));
        // Beams skipped thanks to LookAhead still need their score set.
        for &bi in &order {
            if let Some(score) = self.beams[bi].preverified {
                self.beams[bi].score = Some(score);
                self.stats.spec.lookahead_hits += 1;
            }
        }
        let batch_size = self.plan.ver_batch.max(1);
        let caching = self.cfg.ver_prefix_caching;
        let lookahead = caching && self.cfg.spec.enabled;
        let mut pinned = std::mem::take(&mut self.scratch.pinned);
        for chunk in to_verify.chunks(batch_size) {
            let mut new_tokens = 0u64;
            let mut cached_tokens = 0u64;
            pinned.clear();
            for &bi in chunk {
                if !caching {
                    // Baseline verifier: every verification is an
                    // independent request prefilling the entire path.
                    new_tokens += self.gen_kv.seq_tokens(self.beams[bi].kv);
                    continue;
                }
                // The beam's verifier anchor is its nearest mirrored
                // ancestor (at worst the prompt); the gap covers this
                // step plus any steps a past cache failure skipped.
                let anchor = self.beams[bi].ver_kv.unwrap_or(self.ver_root);
                let gap = self
                    .gen_kv
                    .seq_tokens(self.beams[bi].kv)
                    .saturating_sub(self.ver_kv.seq_tokens(anchor))
                    .max(1);
                match self.mirror_verify(anchor, gap) {
                    Some((node, recompute, transfer)) => {
                        self.beams[bi].ver_kv = Some(node);
                        new_tokens += gap + recompute;
                        cached_tokens +=
                            self.ver_kv.seq_tokens(node).saturating_sub(gap + recompute);
                        if transfer > 0 {
                            let t = self.cfg.device.pcie_transfer_seconds(transfer);
                            self.advance(t, 0.0, Phase::Verification);
                            self.breakdown.offload += t;
                        }
                        pinned.push(node);
                        // LookAhead: a complete speculative continuation
                        // is verified in the same pass (Sec. 4.1.3).
                        if lookahead {
                            if let Some(spec0) = self.beams[bi]
                                .spec
                                .iter()
                                .position(|s| s.branch == 0 && s.complete)
                            {
                                let (spec_tokens, quality, spec_eps) = {
                                    let s = &self.beams[bi].spec[spec0];
                                    (s.generated, s.plan.latent.quality, s.eps)
                                };
                                if let Some((snode, srec, _)) =
                                    self.mirror_verify(node, spec_tokens)
                                {
                                    new_tokens += spec_tokens + srec;
                                    pinned.push(snode);
                                    let score = self.prm.score(quality, spec_eps);
                                    let s = &mut self.beams[bi].spec[spec0];
                                    s.preverified = Some(score);
                                    s.ver_node = Some(snode);
                                }
                            }
                        }
                    }
                    None => {
                        // Verifier cache cannot host the path right now:
                        // stateless full-path prefill. The anchor is kept
                        // so descendants can re-enter the cache later.
                        let full = self.gen_kv.seq_tokens(self.beams[bi].kv);
                        new_tokens += full;
                    }
                }
            }
            self.pending_chunks.push(VerifyChunk {
                members: chunk.len().max(1),
                new_tokens,
                cached_tokens,
            });
            // Unpinning here (before the next chunk's mirror work, after
            // this chunk's) keeps the cache-operation sequence identical
            // to the monolithic verify loop, whose prefill charge sat in
            // between but never touched the cache.
            for &node in &pinned {
                self.ver_kv.unpin(node);
            }
        }
        self.scratch.pinned = pinned;
        self.scratch.to_verify = to_verify;
        self.scratch.ordered = order;
    }

    /// Reveal verifier outputs after the sweeps were charged: scores for
    /// every verified beam, previous scores carried forward for
    /// unverified ones (Best-of-N intermediate steps).
    fn settle_verify_scores(&mut self) {
        let to_verify = std::mem::take(&mut self.scratch.to_verify);
        for &bi in &to_verify {
            let b = &mut self.beams[bi];
            b.score = Some(self.prm.score(b.latent.quality, b.eps));
        }
        self.scratch.to_verify = to_verify;
        let order = std::mem::take(&mut self.scratch.ordered);
        for &bi in &order {
            if self.beams[bi].score.is_none() {
                self.beams[bi].score = Some(self.beams[bi].prev_score);
            }
        }
        self.scratch.ordered = order;
    }

    /// Mirror one step into the verifier cache: fork from the parent's
    /// verifier node, pin, extend. Returns `(node, recompute_tokens,
    /// transfer_bytes)`, or `None` if the verifier cache cannot host it.
    fn mirror_verify(&mut self, parent: NodeId, step_tokens: u64) -> Option<(NodeId, u64, u64)> {
        let node = self.ver_kv.fork(parent).ok()?;
        match self.ver_kv.pin(node) {
            Ok(cost) => match self.ver_kv.extend(node, step_tokens) {
                Ok(()) => Some((node, cost.recompute_tokens, cost.transfer_in_bytes)),
                Err(_) => {
                    self.ver_kv.unpin(node);
                    None
                }
            },
            Err(_) => None,
        }
    }

    /// Move terminal beams out of the frontier, recording outcomes.
    fn retire_terminals(&mut self) {
        let mut remaining = std::mem::take(&mut self.scratch.frontier_next);
        remaining.clear();
        let frontier = std::mem::take(&mut self.frontier);
        for &bi in &frontier {
            if self.beams[bi].latent.terminal {
                let b = &mut self.beams[bi];
                b.state = BeamState::Completed;
                b.completed_at = Some(self.clock);
                let tokens = self
                    .gen_kv
                    .seq_tokens(b.kv)
                    .saturating_sub(self.problem.prompt_tokens);
                let answer = b.latent.answer;
                self.stats.beams.push(BeamOutcome {
                    tokens,
                    completion_time: self.clock,
                    answer,
                    score: b.score.unwrap_or(0.0),
                    correct: answer == Some(self.problem.correct_answer()),
                });
            } else {
                remaining.push(bi);
            }
        }
        let mut recycled = frontier;
        recycled.clear();
        self.scratch.frontier_next = recycled;
        self.frontier = remaining;
        self.frontier_ctx = self.fold_frontier_ctx();
    }

    /// Expand selected beams into children, applying speculative
    /// inheritance and truncation (Alg. 1, lines 18–19).
    fn branch(
        &mut self,
        picks: &[(usize, usize)],
        driver: &mut dyn SearchDriver,
        initial: bool,
    ) -> Result<(), EngineError> {
        let mut selected = std::mem::take(&mut self.scratch.selected);
        selected.clear();
        selected.extend(picks.iter().map(|&(i, _)| i));
        // Prune unselected frontier beams; their speculative work is lost
        // and its KV is released immediately so it cannot crowd out live
        // prefixes. The frontier is taken (not cloned) and recycled as
        // next iteration's scratch.
        let mut old_frontier = std::mem::take(&mut self.frontier);
        self.frontier_ctx = 0;
        for &bi in &old_frontier {
            if !selected.contains(&bi) {
                self.beams[bi].state = BeamState::Pruned;
                self.discard_leftover_spec(bi);
            }
        }
        self.scratch.selected = selected;
        let mut next_frontier = std::mem::take(&mut self.scratch.frontier_next);
        next_frontier.clear();
        for &(parent_idx, children) in picks {
            debug_assert!(matches!(self.beams[parent_idx].state, BeamState::Active));
            for j in 0..children as u64 {
                let child = self.make_child(parent_idx, j, driver, initial)?;
                next_frontier.push(child);
            }
            self.beams[parent_idx].state = BeamState::Pruned; // expanded
            self.discard_leftover_spec(parent_idx);
        }
        old_frontier.clear();
        self.scratch.frontier_next = old_frontier;
        self.frontier = next_frontier;
        self.frontier_ctx = self.fold_frontier_ctx();
        Ok(())
    }

    /// Free the KV of speculative branches that were not consumed by any
    /// child (dead speculative work).
    fn discard_leftover_spec(&mut self, bi: usize) {
        self.scratch.spec_leftovers.clear();
        let drained = self.beams[bi].spec.drain(..).map(|s| s.node);
        self.scratch.spec_leftovers.extend(drained);
        for &node in &self.scratch.spec_leftovers {
            self.gen_kv.discard(node);
        }
    }

    fn make_child(
        &mut self,
        parent_idx: usize,
        j: u64,
        driver: &mut dyn SearchDriver,
        initial: bool,
    ) -> Result<usize, EngineError> {
        let (parent_latent, parent_eps, parent_score, parent_kv, parent_ver, subtree, parent_id) = {
            let p = &self.beams[parent_idx];
            (
                p.latent,
                p.eps,
                p.score.unwrap_or(0.5),
                p.kv,
                p.ver_kv,
                p.subtree,
                p.id,
            )
        };
        let spec_pos = self.beams[parent_idx]
            .spec
            .iter()
            .position(|s| s.branch == j);
        let spec = spec_pos.map(|pos| self.beams[parent_idx].spec.remove(pos));

        let plan = match &spec {
            Some(s) => s.plan,
            None => self.generator.plan_step(&self.problem, &parent_latent, j),
        };
        let step_target = driver
            .step_token_cap(plan.latent.depth)
            .map_or(plan.n_tokens, |cap| plan.n_tokens.min(cap));
        let eps = match &spec {
            Some(s) => s.eps,
            None => self.prm.child_eps(parent_eps, plan.latent.key),
        };

        let (kv_node, head_start, preverified, ver_node) = match spec {
            Some(s) if s.branch == 0 => {
                // The original keeps its speculative tokens intact.
                self.stats.spec.spec_tokens_used += s.generated;
                let pre = if s.complete { s.preverified } else { None };
                let vnode = if pre.is_some() { s.ver_node } else { None };
                (s.node, s.generated, pre, vnode)
            }
            Some(s) => {
                // Duplicates keep a truncated prefix, drawn around R
                // (Alg. 1 line 19). The kept tokens are block-copied into
                // the duplicate's own node — a device-side copy with
                // negligible latency — so the donor speculative node can
                // be discarded instead of lingering as a residency
                // dependency.
                let mut rng = stream(&[plan.latent.key, 0x7234_6CA7]);
                let ratio = normal(
                    &mut rng,
                    self.cfg.spec.truncation_ratio,
                    SpecConfig::TRUNCATION_SIGMA,
                )
                .clamp(0.0, 1.0);
                let keep = ((s.generated as f64 * ratio).round() as u64).min(s.generated);
                let node = self.gen_kv.fork(parent_kv).expect("fork");
                let mut applied = 0;
                if keep > 0 {
                    // Only copy when the source path is still resident;
                    // otherwise the head start is simply lost.
                    if let Ok(cost) = self.gen_kv.pin(node) {
                        if cost.is_hit() && self.gen_kv.extend(node, keep).is_ok() {
                            applied = keep;
                        }
                        self.gen_kv.unpin(node);
                    }
                }
                self.stats.spec.spec_tokens_used += applied;
                self.gen_kv.discard(s.node);
                (node, applied, None, None)
            }
            None => {
                let node = self.gen_kv.fork(parent_kv).expect("fork");
                (node, 0, None, None)
            }
        };

        let id = BeamId(self.beams.len() as u32);
        let subtree = if initial {
            self.born_counter - 1
        } else {
            subtree
        };
        self.born_counter += 1;
        let beam = Beam {
            id,
            parent: Some(parent_id),
            subtree,
            kv: kv_node,
            ver_kv: ver_node.or(parent_ver),
            latent: plan.latent,
            eps,
            score: None,
            prev_score: parent_score,
            step_target,
            step_done: head_start.min(step_target),
            preverified,
            state: BeamState::Active,
            spec: Vec::new(),
            completed_at: None,
        };
        self.beams.push(beam);
        Ok(self.beams.len() - 1)
    }
}
