//! Parallel evaluation harness: run independent request streams across
//! OS threads with results bit-identical to sequential execution.
//!
//! # Determinism guarantees
//!
//! Every stochastic decision in the stack is drawn from a ChaCha stream
//! keyed by stable identifiers (`ftts-model::stream`): the engine mixes
//! `EngineConfig::seed` with each problem's own seed, and scheduling /
//! speculation outcomes depend only on the request's own configuration —
//! never on global mutable RNG state, wall-clock time or thread identity.
//! Two consequences, which the tests in this module assert:
//!
//! 1. **Per-request seeding is explicit.** A stream's results are a
//!    pure function of `(server config, arrivals, n, kind)`.
//! 2. **Parallel == sequential, bit for bit.** [`parallel_map`] assigns
//!    each input to exactly one closure invocation and returns results
//!    in input order, so [`ServerSim::run_parallel`] produces exactly
//!    the bytes a sequential loop would, regardless of worker count or
//!    interleaving. The fleet layer
//!    (`crate::fleet::FleetSim`) does not use the pool: its routing
//!    loop keeps one live run per device and finishes each in place,
//!    so it simulates no device a second time.
//!
//! # Why not rayon
//!
//! The build environment is fully offline (see `crates/vendor/`), so the
//! harness uses a small `std::thread::scope` work-stealing pool with the
//! same split-by-index semantics a `par_iter().map().collect()` would
//! have. The API surface is deliberately rayon-shaped so swapping the
//! implementation later is mechanical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ftts_engine::EngineError;
use ftts_workload::RequestArrival;

use crate::server::{ServedRequest, ServerSim};

/// Map `f` over `items` on up to `available_parallelism` OS threads,
/// returning results in input order.
///
/// Each item is claimed by exactly one worker via an atomic cursor, so
/// `f` runs once per item no matter how many workers race; results carry
/// their input index and are re-sorted before returning. With one core
/// (or one item) this degrades gracefully to a sequential loop.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let result = f(idx, &items[idx]);
                slots.lock().expect("result mutex").push((idx, result));
            });
        }
    });
    let mut collected = slots.into_inner().expect("result mutex");
    collected.sort_by_key(|&(idx, _)| idx);
    debug_assert_eq!(collected.len(), items.len());
    collected.into_iter().map(|(_, r)| r).collect()
}

impl ServerSim {
    /// Replay independent arrival streams in parallel, one stream per
    /// work item. `results[i]` is bit-identical to `self.run(&streams[i])`:
    /// streams share no state (each request stream has its own FIFO
    /// clock), so this models independent replicas — e.g. the same
    /// server sweep-tested under eight traffic traces at once.
    ///
    /// Errors are reported per stream rather than short-circuiting, so a
    /// sweep over aggressive memory budgets still yields every feasible
    /// stream's results.
    pub fn run_parallel(
        &self,
        streams: &[Vec<RequestArrival>],
    ) -> Vec<Result<Vec<ServedRequest>, EngineError>> {
        parallel_map(streams, |_, stream| self.run(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TtsServer;
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_search::SearchKind;
    use ftts_workload::{ArrivalPattern, Dataset};

    fn server(seed: u64) -> TtsServer {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = seed;
        s
    }

    #[test]
    fn parallel_map_preserves_order_and_coverage() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map(&items, |i, &x| (i as u64, x * 2));
        assert_eq!(out.len(), 97);
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(doubled, items[i] * 2);
        }
        assert!(parallel_map::<u8, u8, _>(&[], |_, &x| x).is_empty());
    }

    #[test]
    fn run_parallel_is_bit_identical_to_sequential() {
        let sim = ServerSim::new(server(3), 8, SearchKind::BeamSearch);
        let streams: Vec<Vec<RequestArrival>> = (0..4)
            .map(|i| {
                ArrivalPattern::Poisson { rate: 0.05 }
                    .schedule(&Dataset::Amc2023.problems(2, 100 + i), i)
            })
            .collect();
        let parallel = sim.run_parallel(&streams);
        for (stream, par) in streams.iter().zip(&parallel) {
            let seq = sim.run(stream).unwrap();
            let par = par.as_ref().unwrap();
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(par) {
                assert_eq!(s.arrived_at, p.arrived_at);
                assert_eq!(s.started_at, p.started_at);
                assert_eq!(s.finished_at, p.finished_at);
                assert_eq!(s.outcome.answer, p.outcome.answer);
                assert_eq!(
                    s.outcome.stats.decoded_tokens,
                    p.outcome.stats.decoded_tokens
                );
                assert_eq!(
                    s.outcome.stats.completion.latency,
                    p.outcome.stats.completion.latency
                );
                assert_eq!(s.outcome.stats.gen_cache, p.outcome.stats.gen_cache);
            }
        }
    }

    #[test]
    fn run_parallel_reports_errors_per_stream() {
        let mut starved = server(1);
        starved.config_mut().memory_fraction = 0.26; // weights alone exceed this
        let sim = ServerSim::new(starved, 8, SearchKind::BeamSearch);
        let streams = vec![
            Vec::new(),
            ArrivalPattern::Burst { at: 0.0 }.schedule(&Dataset::Amc2023.problems(1, 5), 0),
        ];
        let results = sim.run_parallel(&streams);
        assert!(results[0].as_ref().is_ok_and(Vec::is_empty));
        assert!(results[1].is_err(), "infeasible budget must fail loudly");
    }
}
