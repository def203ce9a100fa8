//! Utilization traces, the simulation's stand-in for Nsight Systems.
//!
//! The paper profiles GPU tensor-core utilization at 10 kHz to expose the
//! straggler-induced utilization decay during generation (Fig. 4) and the
//! recovery achieved by Speculative Beam Extension (Fig. 17). The engine
//! records one [`UtilSample`] per simulated kernel; [`UtilizationTrace`]
//! then reports time-weighted utilization and busy time per phase.

use serde::{Deserialize, Serialize};

use crate::Phase;

/// One recorded kernel interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilSample {
    /// Interval start, seconds since trace origin.
    pub start: f64,
    /// Interval duration in seconds.
    pub duration: f64,
    /// Compute utilization during the interval, in `[0, 1]`.
    pub util: f64,
    /// Phase the kernel belonged to.
    pub phase: Phase,
}

/// An append-only utilization trace.
///
/// # Example
///
/// ```
/// use ftts_hw::{Phase, UtilizationTrace};
/// let mut trace = UtilizationTrace::new();
/// trace.record(0.0, 0.5, 0.6, Phase::Generation);
/// trace.record(0.5, 0.5, 0.1, Phase::Generation);
/// trace.record(1.0, 1.0, 0.8, Phase::Verification);
/// assert_eq!(trace.span(), 2.0);
/// assert_eq!(trace.phase_seconds(Phase::Generation), 1.0);
/// assert!((trace.mean_util(Some(Phase::Generation)) - 0.35).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationTrace {
    samples: Vec<UtilSample>,
}

impl UtilizationTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a kernel interval.
    pub fn record(&mut self, start: f64, duration: f64, util: f64, phase: Phase) {
        debug_assert!(duration >= 0.0, "negative kernel duration");
        self.samples.push(UtilSample {
            start,
            duration,
            util: util.clamp(0.0, 1.0),
            phase,
        });
    }

    /// All raw samples in insertion order.
    pub fn samples(&self) -> &[UtilSample] {
        &self.samples
    }

    /// Number of recorded kernels.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total span covered by the trace, in seconds.
    pub fn span(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.start + s.duration)
            .fold(0.0, f64::max)
    }

    /// Time-weighted mean utilization, optionally restricted to a phase.
    pub fn mean_util(&self, phase: Option<Phase>) -> f64 {
        let mut time = 0.0;
        let mut area = 0.0;
        for s in &self.samples {
            if phase.is_none_or(|p| p == s.phase) {
                time += s.duration;
                area += s.duration * s.util;
            }
        }
        if time > 0.0 {
            area / time
        } else {
            0.0
        }
    }

    /// Total busy time attributed to `phase`, in seconds.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> UtilizationTrace {
        let mut t = UtilizationTrace::new();
        t.record(0.0, 1.0, 0.8, Phase::Generation);
        t.record(1.0, 1.0, 0.4, Phase::Generation);
        t.record(2.0, 2.0, 0.9, Phase::Verification);
        t
    }

    #[test]
    fn span_and_len() {
        let t = toy();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.span(), 4.0);
    }

    #[test]
    fn mean_util_overall_and_per_phase() {
        let t = toy();
        let overall = t.mean_util(None);
        assert!((overall - (0.8 + 0.4 + 2.0 * 0.9) / 4.0).abs() < 1e-12);
        let g = t.mean_util(Some(Phase::Generation));
        assert!((g - 0.6).abs() < 1e-12);
        let v = t.mean_util(Some(Phase::Verification));
        assert!((v - 0.9).abs() < 1e-12);
    }

    #[test]
    fn phase_seconds_partition_span() {
        let t = toy();
        let total = t.phase_seconds(Phase::Generation) + t.phase_seconds(Phase::Verification);
        assert!((total - t.span()).abs() < 1e-12);
    }

    #[test]
    fn record_clamps_utilization() {
        let mut t = UtilizationTrace::new();
        t.record(0.0, 1.0, 7.0, Phase::Generation);
        assert_eq!(t.samples()[0].util, 1.0);
    }

    #[test]
    fn empty_trace_behaves() {
        let t = UtilizationTrace::new();
        assert_eq!(t.mean_util(None), 0.0);
        assert_eq!(t.span(), 0.0);
    }
}
