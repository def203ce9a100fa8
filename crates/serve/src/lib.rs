//! # ftts-serve — the multi-tenant TCP front-end
//!
//! A long-running server over the deterministic FastTTS simulators:
//! plain `std::net` TCP, one thread per connection, a line-delimited
//! JSON protocol ([`protocol`]), a validated TOML-subset config file
//! ([`config`]), and a per-tenant admission front door ([`tenant`])
//! enforcing hard KV caps and open-request quotas *before* anything
//! reaches the scheduler. The runtime ([`runtime`]) replays the
//! accumulated virtual-time request log on demand through one
//! [`ftts_core::FleetSim`], built at boot for any device count;
//! determinism all the way down makes the replies replayable
//! byte-for-byte.
//!
//! The `ftts-serve` binary boots from a config file and either serves
//! until a `shutdown` frame arrives or — with `--client-replay
//! <trace>` — drives itself end-to-end over a real socket and exits,
//! which is how the CI `serve-smoke` job uses it (see `docs/serving.md`).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod json;
pub mod net;
pub mod protocol;
pub mod runtime;
pub mod tenant;

pub use config::{ServeConfig, StormCfg, TenantCfg};
pub use json::Json;
pub use protocol::{parse_frame, Frame, Submit, WireError};
pub use runtime::{Handled, ServeRuntime};
pub use tenant::{AdmitError, TenantBudget};
