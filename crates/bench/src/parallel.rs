//! Parallel sweep executor.
//!
//! Parameter sweeps are embarrassingly parallel — every [`RunSpec`] builds
//! its own `World` from its own seed, and runs share no mutable state — so
//! a fixed-size pool of scoped OS threads fans the spec list out and
//! collects outputs **in spec order**, regardless of which thread finished
//! first. `jobs == 1` degenerates to the exact serial loop the binaries
//! ran before this module existed.
//!
//! Work distribution is a single shared atomic cursor: each worker claims
//! the next un-run spec index when it goes idle, so a long 10-DP run does
//! not straggle behind short 1-DP runs the way static chunking would.

use digruber::{ExperimentOutput, RunSpec};
use gruber_types::GridResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: every core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every spec and returns each one's output — or the error it died
/// with — in spec order.
///
/// `jobs` is clamped to `[1, specs.len()]`; `1` runs serially on the
/// calling thread.
pub fn run_specs(specs: &[RunSpec], jobs: usize) -> Vec<GridResult<ExperimentOutput>> {
    let jobs = jobs.clamp(1, specs.len().max(1));
    if jobs <= 1 {
        return specs.iter().map(RunSpec::run).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<GridResult<ExperimentOutput>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                *slots[i].lock().expect("slot lock") = Some(spec.run());
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use digruber::config::DigruberConfig;
    use workload::WorkloadSpec;

    fn small_specs(n: usize) -> Vec<RunSpec> {
        (0..n)
            .map(|i| {
                RunSpec::new(
                    format!("spec {i}"),
                    DigruberConfig::small(1 + i % 2, 40 + i as u64),
                    WorkloadSpec::small(),
                )
            })
            .collect()
    }

    #[test]
    fn collects_in_spec_order() {
        let specs = small_specs(5);
        let out = run_specs(&specs, 4);
        assert_eq!(out.len(), 5);
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.as_ref().unwrap().label, format!("spec {i}"));
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let specs = small_specs(4);
        let serial = run_specs(&specs, 1);
        let parallel = run_specs(&specs, 4);
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.as_ref().unwrap(),
                p.as_ref().unwrap(),
                "spec {i} diverged between serial and parallel execution"
            );
        }
    }

    #[test]
    fn oversized_jobs_clamp() {
        let specs = small_specs(2);
        let out = run_specs(&specs, 64);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(Result::is_ok));
    }

    #[test]
    fn empty_spec_list_is_fine() {
        assert!(run_specs(&[], 8).is_empty());
    }
}
