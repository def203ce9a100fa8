//! Verifier-guided TTS search algorithms.
//!
//! The paper's pattern analysis (Sec. 3.1, Fig. 2) shows that mainstream
//! TTS methods are all instances of one generation–verification loop,
//! differing only in their selection heuristics. This crate implements
//! the five variants the paper evaluates as [`SearchDriver`]s for the
//! serving engine:
//!
//! * [`BestOfN`] — independent parallel chains, outcome-scored only
//!   (no intermediate verification).
//! * [`BeamSearch`] — global top-K selection with a static branching
//!   factor (the paper's representative workload).
//! * [`Dvts`] — diverse verifier tree search: the top candidate of each
//!   independent subtree survives, preserving diversity.
//! * [`DynamicBranching`] — the branching factor adapts to verifier
//!   scores (ETS-style).
//! * [`VaryingGranularity`] — beam search whose verification granularity
//!   (max step tokens) changes with depth (VG-Search-style).
//!
//! [`SearchKind`] enumerates them for sweep harnesses. Every tree
//! search branches by the one factor [`BRANCHING`], so a driver needs
//! only its beam budget `n`.
//!
//! # Example
//!
//! ```
//! use ftts_search::{make_driver, SearchKind, BRANCHING};
//! let mut driver = make_driver(SearchKind::BeamSearch, 16);
//! assert_eq!(driver.branching(), BRANCHING);
//! assert_eq!(driver.name(), "beam-search");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithms;

pub use algorithms::{
    make_driver, BeamSearch, BestOfN, Dvts, DynamicBranching, SearchKind, VaryingGranularity,
    BRANCHING,
};
pub use ftts_engine::SearchDriver;
