//! # FastTTS — Accelerating Test-Time Scaling for Edge LLM Reasoning
//!
//! A complete, simulation-based reproduction of the FastTTS serving
//! system (ASPLOS 2026). This facade crate re-exports the whole
//! workspace so applications can depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`hw`] | `ftts-hw` | GPU specs, model architectures, roofline cost model |
//! | [`kv`] | `ftts-kv` | Paged KV cache: COW prefix tree, eviction, offload |
//! | [`model`] | `ftts-model` | Synthetic generator + PRM behaviour models |
//! | [`workload`] | `ftts-workload` | AIME/AMC/MATH-500/HumanEval analogues, arrivals |
//! | [`metrics`] | `ftts-metrics` | Precise goodput, latency breakdowns, Top-1/Pass@N |
//! | [`engine`] | `ftts-engine` | The vLLM-like serving loop with stragglers & batching |
//! | [`search`] | `ftts-search` | Best-of-N, Beam Search, DVTS, Dynamic Branching, VG |
//! | [`core`] | `ftts-core` | FastTTS itself: S + P + M optimizations, serving facade |
//! | [`serve`] | `ftts-serve` | Multi-tenant TCP front-end: wire protocol, quotas, caps |
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Example
//!
//! ```
//! use fasttts::{Dataset, GpuDevice, ModelPairing, SearchKind, TtsServer};
//!
//! let problem = Dataset::Amc2023.problems(1, 1)[0];
//! let baseline = TtsServer::vllm_baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
//! let fasttts = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
//! let slow = baseline.serve(&problem, 16, SearchKind::BeamSearch)?;
//! let fast = fasttts.serve(&problem, 16, SearchKind::BeamSearch)?;
//! assert!(fast.goodput() > slow.goodput());
//! assert_eq!(fast.answer, slow.answer); // algorithmic equivalence
//! # Ok::<(), fasttts::EngineError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftts_core as core;
pub use ftts_engine as engine;
pub use ftts_hw as hw;
pub use ftts_kv as kv;
pub use ftts_metrics as metrics;
pub use ftts_model as model;
pub use ftts_search as search;
pub use ftts_serve as serve;
pub use ftts_workload as workload;

pub use ftts_core::{
    degraded_beams, AblationFlags, BatchConfig, BatchRun, BatchedServerSim, EngineError,
    EventConfig, EventServerSim, FaultEvent, FaultKind, FaultPlan, FaultPolicy, FleetConfig,
    FleetRun, FleetSim, HedgeConfig, HostTier, KvTierConfig, PrefixAwareOrder, RobustConfig,
    RooflinePlanner, RoutePolicy, ServeOutcome, ServedRequest, ServerSim, SpecConfig, StormConfig,
    TierStats, TimelineConfig, TimelineServerSim, TimelineTuning, TtsServer, WorstCaseOrder,
};
pub use ftts_engine::{
    Engine, EngineConfig, ModelPairing, RequestRun, RunStats, SearchDriver, StepStatus,
};
pub use ftts_hw::{GpuDevice, ModelSpec, Roofline};
pub use ftts_search::SearchKind;
pub use ftts_workload::{zipf_problems, ArrivalPattern, Dataset};
