//! Evaluation metrics for TTS serving systems.
//!
//! Implements the paper's metrics exactly as defined in Sec. 6.1:
//!
//! * **Precise Goodput** — `avg token length per beam / avg beam
//!   completion time` ([`precise_goodput`]). Robust to straggler paths
//!   and to branch-time text copying, unlike raw throughput.
//! * **Completion latency** — end-to-end time per completed request, with
//!   a generator/verifier breakdown ([`LatencyBreakdown`], Fig. 13).
//! * **Top-1 accuracy** — majority voting over collected answers
//!   ([`top1_majority`], Fig. 14a).
//! * **Pass@N** — whether any of the top-N verifier-ranked candidates is
//!   correct ([`pass_at_n`], Fig. 14b).
//!
//! Plus small reporting utilities ([`Table`], [`Summary`]) used by the
//! figure-regeneration benches.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accuracy;
mod fleet;
mod goodput;
mod latency;
mod occupancy;
mod report;
mod stream;
mod summary;
mod tenant;

pub use accuracy::{pass_at_n, top1_majority};
pub use fleet::FleetSummary;
pub use goodput::{precise_goodput, BeamOutcome};
pub use latency::{CompletionRecord, LatencyBreakdown};
pub use occupancy::TimelineOccupancy;
pub use report::{fmt, Table};
pub use stream::{ClassSummary, SloClass, StreamRecord, StreamSummary};
pub use summary::Summary;
pub use tenant::TenantRollup;
