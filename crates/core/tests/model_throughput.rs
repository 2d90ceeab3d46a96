//! `measure_model_throughput` must time simulations on every call.
//!
//! This is the only test in its binary: it enables the process-global
//! `obs` counters and reads them, which tests on parallel harness
//! threads would disturb.

use profiler::{Condition, WorkloadProfile};
use simcore::dist::DistKind;
use simcore::time::Rate;
use sprint_core::throughput::measure_model_throughput;
use workloads::{QueryMix, WorkloadKind};

/// A repeated call — the same arguments, so the same `(rep, i)`
/// timeouts — runs as many simulations as the first and is served no
/// memo hits, so a retry measures the same work.
#[test]
fn repeated_calls_simulate_every_prediction() {
    let profile = WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "DVFS".into(),
        mu: Rate::per_hour(50.0),
        mu_m: Rate::per_hour(75.0),
        service_samples_secs: (0..100).map(|i| 60.0 + (i % 21) as f64).collect(),
        profiling_hours: 1.0,
    };
    let cond = Condition {
        utilization: 0.7,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 80.0,
        budget_frac: 0.4,
        refill_secs: 200.0,
    };
    let (predictions, reps) = (12, 2);
    obs::set_enabled(true);
    let work = || {
        let m = obs::global();
        let (sims, hits) = (m.sim_evals.get(), m.memo_hits.get());
        measure_model_throughput(&profile, &cond, 300, predictions, reps).unwrap();
        (m.sim_evals.get() - sims, m.memo_hits.get() - hits)
    };
    let first = work();
    let second = work();
    obs::set_enabled(false);
    // One warm-up prediction plus every timed one.
    assert_eq!(first, (1 + (predictions * reps) as u64, 0));
    assert_eq!(second, first, "a repeated call must redo the simulations");
}
