//! **FastTTS** — a serving system that makes verifier-guided Test-Time
//! Scaling practical on memory-constrained edge devices.
//!
//! This crate is the paper's primary contribution, layered on the
//! `ftts-engine` substrate as three synergistic optimizations plus a
//! plug-and-play serving facade:
//!
//! * **Speculative Beam Extension (S)** — configured via
//!   [`SpecConfig`]: idle GPU slots left by straggler reasoning paths are
//!   filled with speculative future steps, prioritized by SelectSPEC
//!   score bins, with LookAhead Verification piggybacking completed
//!   continuations onto the current verifier pass (Sec. 4.1).
//! * **Dynamic Prefix-Aware Scheduling (P)** — [`PrefixAwareOrder`]
//!   greedily orders the frontier to maximize consecutive shared
//!   prefixes, minimizing KV-cache evictions (Sec. 4.2, Appendix A).
//!   [`WorstCaseOrder`] is the adversarial ablation baseline.
//! * **Asymmetric Multi-Model Memory Allocation (M)** —
//!   [`RooflinePlanner`] runs the paper's linear search over verifier
//!   batch sizes to find the KV split minimizing total iteration time,
//!   and extends the search space with KV offloading when memory is
//!   extremely constrained (Sec. 4.3).
//!
//! [`TtsServer`] bundles it all: `TtsServer::fasttts(...)` serves with
//! every optimization on; `TtsServer::vllm_baseline(...)` reproduces the
//! paper's baseline (two statically-sized vLLM instances, FIFO
//! scheduling, no speculation). [`AblationFlags`] selects any subset for
//! the Fig. 16/18 breakdowns. [`ServerSim`] replays request arrival
//! streams FIFO at batch size 1 with two-phase preemptive scheduling
//! (Sec. 4.1.2). Continuous batching across requests — mid-flight
//! admission, co-batched decode, elastic KV pool shares, vLLM-style
//! preemption — runs in one scheduler type, [`TimelineServerSim`], whose
//! one loop ([`TimelineServerSim::run_directed`]) records every kernel
//! launch on a per-device [`DeviceTimeline`]. Its constructor takes any
//! policy that converts into a [`TimelineConfig`]: a [`BatchConfig`]
//! runs lockstep rounds (an infinite co-batch window), an
//! [`EventConfig`] schedules at iteration granularity inside a finite
//! [`EventConfig::window_secs`], and a [`TimelineConfig`] adds honest
//! retroactive contention pricing and token-granularity decode joins.
//! [`BatchedServerSim`] and [`EventServerSim`] are other names for the
//! same type. At batch 1 every policy reproduces [`ServerSim`]
//! bit-for-bit, and the multi-request anchors are frozen as golden
//! fingerprints (see `timeline`'s module docs).
//!
//! # Determinism
//!
//! Every stochastic decision in the stack is drawn from a ChaCha stream
//! keyed by stable identifiers (`ftts-model::stream`): the engine mixes
//! `EngineConfig::seed` with each problem's own seed, and scheduling and
//! speculation outcomes depend only on the request's own configuration,
//! never on global mutable RNG state, wall-clock time or thread
//! identity. So a run's results are a pure function of its inputs
//! (server config, arrivals, `n`, search kind, fault plan), and a
//! replay on any thread is bit-identical to the same replay on any
//! other: `ftts-serve` replays on its connection threads, and the
//! generator's per-thread memo of the Zipf normaliser only caches what
//! each thread would compute alike. The fleet (`FleetSim`) spawns no
//! threads: its routing loop keeps one live run per device and
//! finishes each in place.
//!
//! # Quickstart
//!
//! ```
//! use ftts_core::TtsServer;
//! use ftts_engine::ModelPairing;
//! use ftts_hw::GpuDevice;
//! use ftts_search::SearchKind;
//! use ftts_workload::Dataset;
//!
//! let problem = Dataset::Aime2024.problems(1, 7)[0];
//! let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
//! let outcome = server.serve(&problem, 16, SearchKind::BeamSearch)?;
//! assert!(outcome.goodput() > 0.0);
//! # Ok::<(), ftts_engine::EngineError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod batch_server;
mod event_server;
mod faults;
mod fleet;
mod memalloc;
mod prefix_sched;
mod server;
mod tenant;
mod timeline;

pub use batch_server::{BatchConfig, BatchRun, BatchedServerSim};
pub use event_server::{EventConfig, EventServerSim, PrewarmPrefix, RunDirectives};
pub use faults::{
    degraded_beams, FaultEvent, FaultKind, FaultPlan, FaultPolicy, RobustConfig, StormConfig,
};
pub use fleet::{FleetConfig, FleetRun, FleetSim, HedgeConfig, RoutePolicy};
pub use ftts_engine::{
    EngineError, RequestRun, RunPhase, SpecConfig, StepStatus, VerifyCharge, VerifyChunk,
};
pub use ftts_kv::{HostTier, KvTierConfig, TierStats};
pub use memalloc::RooflinePlanner;
pub use prefix_sched::{PrefixAwareOrder, WorstCaseOrder};
pub use server::{AblationFlags, ServeOutcome, ServedRequest, ServerSim, TtsServer};
pub use tenant::{TenantPolicy, TenantSpec, MAX_TENANTS};
pub use timeline::{
    DeviceTimeline, SegmentKind, TimelineConfig, TimelineServerSim, TimelineTuning,
};
