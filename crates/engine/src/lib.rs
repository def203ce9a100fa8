//! Discrete-event TTS serving engine.
//!
//! This crate is the reproduction's stand-in for vLLM plus the paper's
//! baseline verifier-guided search runner (Sec. 6.1, "Baseline
//! Implementation"). It executes the abstract two-stage TTS loop the
//! paper identifies (Sec. 3.1) at *token granularity* on a simulated
//! clock:
//!
//! 1. **Generation** — every active reasoning path decodes its next
//!    thinking step. Paths are packed into KV-memory-fitting groups by a
//!    pluggable [`OrderPolicy`]; within a group, decoding is
//!    iteration-synchronous, so short paths finish early and leave GPU
//!    slots idle until the straggler completes (the paper's Challenge-1)
//!    — unless Speculative Beam Extension refills the slots
//!    ([`SpecConfig`]).
//! 2. **Verification** — a discriminative PRM prefills each new step in
//!    batches sized by the current [`MemoryPlan`]; with LookAhead
//!    enabled, completed speculative continuations piggyback on the same
//!    pass (Sec. 4.1.3).
//!
//! Selection and branching decisions are delegated to a [`SearchDriver`]
//! (implemented per TTS algorithm in `ftts-search`); memory partitioning
//! is delegated to a [`MemoryPlanner`] (the paper's roofline search lives
//! in `ftts-core`, a static split here as the baseline); and scheduling
//! order is delegated to an [`OrderPolicy`] (Dynamic Prefix-Aware
//! Scheduling lives in `ftts-core`, FIFO here as the baseline).
//!
//! All model behaviour is deterministic in the search-tree position (see
//! `ftts-model`), so two engines with different scheduling/speculation
//! settings produce **identical reasoning trees** — only the clock
//! differs. That property is tested, not assumed.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod beam;
mod config;
mod engine;
mod order;
mod planner;
mod stats;

pub use beam::{Beam, BeamId, BeamState, ScoredBeam};
pub use config::{EngineConfig, ModelPairing, SpecConfig};
pub use engine::{
    DecodeChunk, DecodeStatus, Engine, EngineError, RequestRun, RunPhase, SearchDriver,
    SearchDriverClone, SelectCtx, StepStatus, VerifyCharge, VerifyChunk, Wait, WarmStart,
};
pub use order::{FifoOrder, OrderItem, OrderPolicy, OrderPolicyClone, RandomOrder};
pub use planner::{
    working_set_demand, MemoryPlan, MemoryPlanner, MemoryPlannerClone, PlanContext,
    StaticSplitPlanner,
};
pub use stats::{FaultRunStats, RunStats, SpecStats};
