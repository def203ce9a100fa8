//! Deterministic fault injection and the SLO/robustness policy.
//!
//! Every run so far assumed a perfect device and infinite patience. This
//! module makes robustness first-class, in three pieces the scheduler
//! run loop ([`TimelineServerSim`]) consumes at its launch boundaries:
//!
//! * **A seeded fault plan** ([`FaultPlan`]) — a sorted timeline of
//!   [`FaultEvent`]s perturbing the simulated device: transient kernel
//!   failures, thermal-throttle slowdown windows, and device KV-block
//!   loss. The plan is *data*, not randomness at run time: the same
//!   `(seed, plan)` pair always replays bit-identically, and the empty
//!   plan leaves a run bit-identical to the fault-free scheduler (the
//!   equivalence anchors extend to faulty runs because every policy
//!   consumes the plan through the same cursor at its launch
//!   boundaries).
//! * **A retry/repair model.** A kernel fault poisons the next launch:
//!   the launch's device work is partially wasted and the iteration is
//!   retried from its last committed state — the beam tree and accepted
//!   tokens live outside the device kernels, so a retry replays the
//!   same iteration deterministically with warm KV. Under
//!   [`FaultPolicy::NoHandling`] the failed kernel is re-dispatched
//!   blindly into the still-faulty device (four collisions of pure
//!   device burn); with retry handling the launch pays one wasted
//!   attempt plus *exponential backoff* off-device — the device is free
//!   during backoff, which is exactly what the event-driven scheduler
//!   exploits. KV loss drops unpinned device-resident blocks (no host
//!   copy); recovery is the normal recompute-on-pin path, i.e.
//!   deterministic replay. All fault time
//!   is booked to the dedicated `LatencyBreakdown::fault` bucket, never
//!   to the busy phases — retries cannot double-bill device time.
//! * **Deadlines, SLO classes and graceful degradation**
//!   ([`FaultPolicy::Degrade`]): working-set-aware early rejection at
//!   admit time, earliest-deadline-first admission rank, timeout
//!   enforcement that cancels hopeless runs (releasing their KV
//!   reservations), and a degradation controller that shrinks the
//!   test-time-scaling budget (beam width) per SLO class under queue
//!   pressure *before* shedding load — the FastTTS-specific degradation
//!   axis.
//!
//! [`TimelineServerSim`]: crate::TimelineServerSim

use ftts_metrics::SloClass;
use ftts_model::stream;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A transient kernel-launch failure. Poisons the next scheduler
    /// launch at or after the event time: part of that launch's device
    /// work is wasted and the iteration retries from its last committed
    /// state (policy-dependent — see [`FaultPolicy`]).
    KernelFault,
    /// A thermal-throttle window: every launch starting within
    /// `[at, at + duration)` runs `factor`× slower than nominal.
    Slowdown {
        /// Kernel-time multiplier, `>= 1`.
        factor: f64,
        /// Window length in seconds, `> 0`.
        duration: f64,
    },
    /// Device KV-block loss: at the next launch, every *unpinned
    /// device-resident* KV block of every resident request is dropped
    /// without a host copy. Swapped-out (preempted) requests survive —
    /// host RAM is not on the faulting device. Recovery is the normal
    /// recompute-on-pin path: deterministic replay, no accepted tokens
    /// lost.
    KvLoss,
    /// A whole-device crash with recovery after `down_for` seconds.
    /// In a single-device run this is an outage: device KV is lost
    /// (the KV-loss replay path) and the affected launch stalls
    /// off-device for the outage, booked to the fault bucket. A fleet
    /// ([`FleetSim`](crate::FleetSim)) instead handles the event at the
    /// routing layer: in-flight and queued requests on the crashed
    /// replica fail over to survivors while the device is down.
    DeviceCrash {
        /// Outage length in seconds, `> 0`; the device recovers
        /// (cold, empty KV) at `at + down_for`.
        down_for: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute simulated time the fault fires, seconds.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, replayable fault timeline. Construct directly from
/// events ([`FaultPlan::new`]), empty ([`FaultPlan::none`]), or as a
/// seeded storm ([`FaultPlan::storm`]). Events are kept sorted by time;
/// discrete events (kernel faults, KV losses) are consumed in order by
/// the schedulers' launch cursor, slowdown windows are queried by
/// launch instant.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Shape of a seeded fault storm (see [`FaultPlan::storm`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StormConfig {
    /// Transient kernel failures to scatter over the horizon.
    pub kernel_faults: usize,
    /// Thermal-throttle windows to scatter.
    pub slowdowns: usize,
    /// Kernel-time multiplier inside each window (`>= 1`).
    pub slowdown_factor: f64,
    /// Length of each window, seconds.
    pub slowdown_secs: f64,
    /// Device KV-loss events to scatter.
    pub kv_losses: usize,
}

impl Default for StormConfig {
    fn default() -> Self {
        Self {
            kernel_faults: 6,
            slowdowns: 2,
            slowdown_factor: 1.5,
            slowdown_secs: 10.0,
            kv_losses: 2,
        }
    }
}

impl FaultPlan {
    /// The empty plan: a run under it is bit-identical to the
    /// fault-free scheduler.
    pub fn none() -> Self {
        Self::default()
    }

    /// Build a plan from events (sorted by time; order among
    /// simultaneous events is preserved).
    ///
    /// # Panics
    ///
    /// Panics on malformed events: negative times, slowdown factors
    /// below 1, non-positive window durations.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            assert!(e.at >= 0.0 && e.at.is_finite(), "fault time must be finite");
            match e.kind {
                FaultKind::Slowdown { factor, duration } => {
                    assert!(factor >= 1.0, "slowdown factor must be >= 1");
                    assert!(duration > 0.0, "slowdown window must be positive");
                }
                FaultKind::DeviceCrash { down_for } => {
                    assert!(down_for > 0.0, "crash outage must be positive");
                }
                FaultKind::KernelFault | FaultKind::KvLoss => {}
            }
        }
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
        Self { events }
    }

    /// A seeded fault storm: `cfg.kernel_faults` transient failures,
    /// `cfg.slowdowns` throttle windows and `cfg.kv_losses` KV-loss
    /// events scattered uniformly over `[0, horizon)`, deterministically
    /// from `seed`. The same `(seed, horizon, cfg)` always produces the
    /// same plan — reproducible chaos.
    pub fn storm(seed: u64, horizon: f64, cfg: &StormConfig) -> Self {
        assert!(horizon > 0.0, "storm horizon must be positive");
        let mut rng = stream(&[seed, 0xFA17_5708]);
        let mut events = Vec::new();
        for _ in 0..cfg.kernel_faults {
            events.push(FaultEvent {
                at: rng.gen::<f64>() * horizon,
                kind: FaultKind::KernelFault,
            });
        }
        for _ in 0..cfg.slowdowns {
            events.push(FaultEvent {
                at: rng.gen::<f64>() * horizon,
                kind: FaultKind::Slowdown {
                    factor: cfg.slowdown_factor,
                    duration: cfg.slowdown_secs,
                },
            });
        }
        for _ in 0..cfg.kv_losses {
            events.push(FaultEvent {
                at: rng.gen::<f64>() * horizon,
                kind: FaultKind::KvLoss,
            });
        }
        Self::new(events)
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Combined thermal-throttle multiplier for a kernel launched at
    /// `t` (product of all windows covering `t`; `1.0` outside every
    /// window).
    pub fn slowdown_factor(&self, t: f64) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if e.at > t {
                break;
            }
            if let FaultKind::Slowdown {
                factor: f,
                duration,
            } = e.kind
            {
                if t < e.at + duration {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// Crash outage windows `(at, down_for)` in the plan, in time
    /// order. [`FleetSim`](crate::FleetSim) consumes these at the
    /// routing layer (failover) after stripping them from the
    /// per-device plan via [`FaultPlan::without_crashes`].
    pub fn crash_windows(&self) -> Vec<(f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::DeviceCrash { down_for } => Some((e.at, down_for)),
                _ => None,
            })
            .collect()
    }

    /// The plan with every [`FaultKind::DeviceCrash`] event removed
    /// (all other events, and their order, preserved).
    pub fn without_crashes(&self) -> Self {
        Self {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| !matches!(e.kind, FaultKind::DeviceCrash { .. }))
                .collect(),
        }
    }
}

/// How the serving layer responds to faults and SLOs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPolicy {
    /// No fault handling: a failed kernel is re-dispatched blindly into
    /// the still-faulty device (four immediate collisions, pure device
    /// burn, no backoff), deadlines are observed but never enforced,
    /// nothing degrades or sheds.
    NoHandling,
    /// Retry with exponential backoff from the last committed state
    /// (warm KV). No deadline enforcement, no degradation — the
    /// default, and bit-identical to [`FaultPolicy::NoHandling`] under
    /// an empty fault plan.
    #[default]
    Retry,
    /// The full robustness policy: backoff retries *plus* deadline/SLO
    /// machinery — working-set-aware early rejection, EDF admission
    /// rank, timeout cancellation of hopeless runs, and per-SLO-class
    /// degradation of the TTS budget before shedding.
    Degrade,
}

/// First retry's backoff, seconds; attempt `k` waits `2^k` times this
/// (exponential backoff).
const BACKOFF_BASE_SECS: f64 = 0.25;
/// Fraction of a launch's device time wasted per failed kernel attempt
/// (the fault hits partway through the kernel).
const WASTE_FRAC: f64 = 0.5;
/// [`FaultPolicy::NoHandling`] only: immediate re-dispatches burned into
/// the still-faulty device per kernel fault.
const BLIND_RETRIES: u32 = 4;
/// Degradation controller: one degradation level (beam-width halving)
/// per this many queued-or-preempted requests.
pub(crate) const DEGRADE_QUEUE_PER_LEVEL: usize = 2;

/// The fault-handling and SLO policy, carried inside
/// [`BatchConfig`](crate::BatchConfig). The default (`Retry` policy,
/// empty fault plan) changes nothing about a fault-free run — the
/// equivalence anchors rely on that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// The response policy.
    pub policy: FaultPolicy,
}

impl RobustConfig {
    /// The given policy.
    pub fn with_policy(policy: FaultPolicy) -> Self {
        Self { policy }
    }

    /// Whether deadline/SLO machinery (rejection, EDF, cancellation,
    /// degradation) is active.
    pub fn slo_enforcement(&self) -> bool {
        self.policy == FaultPolicy::Degrade
    }
}

/// Beam width granted to a fresh request of class `slo` at degradation
/// `level` (0 = no pressure). Each level halves the width, floored per
/// class: latency-critical classes degrade deepest (a narrower search
/// finishes sooner — trading accuracy for deadline hits), batch work
/// keeps full quality and simply waits.
pub fn degraded_beams(base: usize, slo: SloClass, level: u32) -> usize {
    let floor = match slo {
        SloClass::Interactive => (base / 4).max(1),
        SloClass::Standard => (base / 2).max(1),
        SloClass::Batch => base,
    };
    (base >> level.min(8)).max(floor).max(1)
}

/// The scheduler's cursor over a plan's discrete events: pops every
/// event due at or before each launch, exactly once, in time order.
/// Every preset of the one scheduler drives it from its launch
/// instants, which is what extends the lockstep-equivalence anchors to
/// faulty runs.
#[derive(Debug, Default, Clone)]
pub(crate) struct FaultCursor {
    next: usize,
}

impl FaultCursor {
    /// Events due at or before `t` (kernel faults and KV losses;
    /// slowdown windows are time-queried instead, via
    /// [`FaultPlan::slowdown_factor`]). Each event is returned once.
    pub(crate) fn due<'p>(&mut self, plan: &'p FaultPlan, t: f64) -> &'p [FaultEvent] {
        let start = self.next;
        let events = plan.events();
        while self.next < events.len() && events[self.next].at <= t {
            self.next += 1;
        }
        &events[start..self.next]
    }
}

/// What one launch's due faults cost, per the active policy.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaunchFaults {
    /// Kernel faults that hit the launch.
    pub(crate) kernel_faults: u32,
    /// Retry attempts (blind or backed-off) those faults cost.
    pub(crate) retries: u32,
    /// KV-loss events that fired.
    pub(crate) kv_losses: u32,
    /// Extra *device-busy* seconds per wasted-kernel second of the
    /// member's iteration: `WASTE_FRAC × attempts`, plus the throttle
    /// stretch `factor - 1`. Multiplied by each member's own iteration
    /// time (members of one launch share the kernel, so they share the
    /// failure).
    pub(crate) busy_stretch: f64,
    /// Of `busy_stretch`, the slice due to thermal throttle.
    pub(crate) slowdown_stretch: f64,
    /// Off-device backoff seconds (flat per member — the waiting is
    /// wall-clock, not kernel-proportional).
    pub(crate) backoff_secs: f64,
}

impl LaunchFaults {
    /// Evaluate the faults due for a launch at `t` under `robust`.
    pub(crate) fn at(
        cursor: &mut FaultCursor,
        plan: &FaultPlan,
        robust: &RobustConfig,
        t: f64,
    ) -> Self {
        let mut out = Self::default();
        if plan.is_empty() {
            return out;
        }
        for e in cursor.due(plan, t) {
            match e.kind {
                FaultKind::KernelFault => out.kernel_faults += 1,
                FaultKind::KvLoss => out.kv_losses += 1,
                // With no fleet to fail over to, a crash is an outage:
                // device KV is gone (the KV-loss replay path recovers
                // it deterministically) and the launch waits out the
                // whole downtime off-device, booked to the fault
                // bucket like backoff. Fleet runs never see this arm —
                // FleetSim strips crash events and reroutes instead.
                FaultKind::DeviceCrash { down_for } => {
                    out.kv_losses += 1;
                    out.backoff_secs += down_for;
                }
                FaultKind::Slowdown { .. } => {}
            }
        }
        let slow = plan.slowdown_factor(t) - 1.0;
        out.slowdown_stretch = slow;
        out.busy_stretch = slow;
        if out.kernel_faults > 0 {
            match robust.policy {
                FaultPolicy::NoHandling => {
                    // Blind immediate re-dispatches collide with the
                    // still-faulty device: every attempt burns another
                    // wasted kernel slice, and the device is busy the
                    // whole time.
                    out.retries = out.kernel_faults * BLIND_RETRIES;
                    out.busy_stretch += WASTE_FRAC * out.retries as f64;
                }
                FaultPolicy::Retry | FaultPolicy::Degrade => {
                    // One wasted attempt per fault, then exponential
                    // backoff clears the transient: the k-th fault of a
                    // launch waits 2^k × base off-device.
                    out.retries = out.kernel_faults;
                    out.busy_stretch += WASTE_FRAC * out.kernel_faults as f64;
                    for k in 0..out.kernel_faults {
                        out.backoff_secs += BACKOFF_BASE_SECS * f64::powi(2.0, k as i32);
                    }
                }
            }
        }
        out
    }

    /// Whether anything fired (the schedulers skip all fault
    /// bookkeeping when nothing did — the zero-fault bit-equivalence
    /// anchor).
    pub(crate) fn fired(&self) -> bool {
        self.kernel_faults > 0 || self.kv_losses > 0 || self.busy_stretch != 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.slowdown_factor(5.0), 1.0);
        let mut cursor = FaultCursor::default();
        assert!(cursor.due(&plan, 1e9).is_empty());
        let f = LaunchFaults::at(&mut cursor, &plan, &RobustConfig::default(), 3.0);
        assert!(!f.fired());
        assert_eq!(f.busy_stretch, 0.0);
        assert_eq!(f.backoff_secs, 0.0);
    }

    #[test]
    fn storms_are_deterministic_and_sorted() {
        let cfg = StormConfig::default();
        let a = FaultPlan::storm(7, 100.0, &cfg);
        let b = FaultPlan::storm(7, 100.0, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::storm(8, 100.0, &cfg));
        assert_eq!(
            a.events().len(),
            cfg.kernel_faults + cfg.slowdowns + cfg.kv_losses
        );
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn slowdown_windows_multiply_and_expire() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 10.0,
                kind: FaultKind::Slowdown {
                    factor: 2.0,
                    duration: 5.0,
                },
            },
            FaultEvent {
                at: 12.0,
                kind: FaultKind::Slowdown {
                    factor: 1.5,
                    duration: 5.0,
                },
            },
        ]);
        assert_eq!(plan.slowdown_factor(9.0), 1.0);
        assert_eq!(plan.slowdown_factor(11.0), 2.0);
        assert_eq!(plan.slowdown_factor(13.0), 3.0, "windows overlap");
        assert_eq!(plan.slowdown_factor(16.0), 1.5, "first expired");
        assert_eq!(plan.slowdown_factor(17.5), 1.0, "both expired");
    }

    #[test]
    fn cursor_pops_each_event_once_in_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 3.0,
                kind: FaultKind::KernelFault,
            },
            FaultEvent {
                at: 1.0,
                kind: FaultKind::KvLoss,
            },
            FaultEvent {
                at: 5.0,
                kind: FaultKind::KernelFault,
            },
        ]);
        let mut cursor = FaultCursor::default();
        let first = cursor.due(&plan, 3.5);
        assert_eq!(first.len(), 2, "events at 1.0 and 3.0");
        assert_eq!(first[0].kind, FaultKind::KvLoss, "sorted by time");
        assert!(cursor.due(&plan, 3.5).is_empty(), "never re-delivered");
        assert_eq!(cursor.due(&plan, 10.0).len(), 1);
    }

    #[test]
    fn backoff_is_exponential_and_blind_retries_burn_device() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 1.0,
                kind: FaultKind::KernelFault,
            },
            FaultEvent {
                at: 2.0,
                kind: FaultKind::KernelFault,
            },
        ]);
        let retry = RobustConfig::default();
        let mut cursor = FaultCursor::default();
        let f = LaunchFaults::at(&mut cursor, &plan, &retry, 5.0);
        assert_eq!(f.kernel_faults, 2);
        assert_eq!(f.retries, 2);
        // 0.25 * (2^0 + 2^1)
        assert!((f.backoff_secs - 0.75).abs() < 1e-12);
        assert!((f.busy_stretch - 2.0 * WASTE_FRAC).abs() < 1e-12);

        let blind = RobustConfig::with_policy(FaultPolicy::NoHandling);
        let mut cursor = FaultCursor::default();
        let f = LaunchFaults::at(&mut cursor, &plan, &blind, 5.0);
        assert_eq!(f.retries, 2 * BLIND_RETRIES);
        assert_eq!(f.backoff_secs, 0.0, "no backoff, pure burn");
        assert!(f.busy_stretch > 2.0 * WASTE_FRAC);
    }

    #[test]
    fn degradation_halves_with_class_floors() {
        use SloClass::*;
        assert_eq!(degraded_beams(16, Interactive, 0), 16, "no pressure");
        assert_eq!(degraded_beams(16, Interactive, 1), 8);
        assert_eq!(degraded_beams(16, Interactive, 4), 4, "floor n/4");
        assert_eq!(degraded_beams(16, Standard, 4), 8, "floor n/2");
        assert_eq!(degraded_beams(16, Batch, 4), 16, "batch never degrades");
        assert_eq!(degraded_beams(1, Interactive, 7), 1, "never below 1");
    }

    #[test]
    fn device_scoped_storms_are_deterministic_and_opt_in() {
        // Storms draw no device-scoped events: crashes enter a plan
        // only through `FaultPlan::new`.
        let storm = FaultPlan::storm(7, 100.0, &StormConfig::default());
        assert!(storm.crash_windows().is_empty());
        assert_eq!(storm.without_crashes(), storm);

        let crash = |at| FaultEvent {
            at,
            kind: FaultKind::DeviceCrash { down_for: 25.0 },
        };
        let mut events = storm.events().to_vec();
        events.extend([crash(60.0), crash(15.0)]);
        let a = FaultPlan::new(events);
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at, "plans stay sorted");
        }
        assert_eq!(a.crash_windows(), vec![(15.0, 25.0), (60.0, 25.0)]);
        let stripped = a.without_crashes();
        assert_eq!(stripped, storm, "stripping restores the storm");
        assert!(stripped.crash_windows().is_empty());
    }

    #[test]
    fn crash_is_an_outage_for_a_single_device() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 4.0,
            kind: FaultKind::DeviceCrash { down_for: 30.0 },
        }]);
        let mut cursor = FaultCursor::default();
        let f = LaunchFaults::at(&mut cursor, &plan, &RobustConfig::default(), 5.0);
        assert!(f.fired());
        assert_eq!(f.kv_losses, 1, "device KV lost on crash");
        assert_eq!(f.kernel_faults, 0);
        assert!(
            (f.backoff_secs - 30.0).abs() < 1e-12,
            "waits out the outage"
        );
    }

    #[test]
    #[should_panic(expected = "outage must be positive")]
    fn zero_length_crashes_are_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent {
            at: 0.0,
            kind: FaultKind::DeviceCrash { down_for: 0.0 },
        }]);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn speedup_windows_are_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent {
            at: 0.0,
            kind: FaultKind::Slowdown {
                factor: 0.5,
                duration: 1.0,
            },
        }]);
    }
}
