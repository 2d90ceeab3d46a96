//! Effective sprint rate calibration (§2.3, Equation 2).
//!
//! For each profiling run, the effective sprint rate µe is the rate
//! closest to the profiled marginal rate µm that, when fed to the
//! timeout-aware simulator, reproduces the *observed* response time
//! within tolerance. The search expands outward from µm in one-qph
//! steps ("we increment and decrement the marginal rate by 1 unit"),
//! preferring the smallest |µe − µm| that achieves tolerable error, and
//! falls back to the best candidate seen if none tolerates.
//!
//! Every candidate rate is simulated at the *same* replication seeds,
//! and the rate only changes how the simulator consumes work, never
//! what it draws. So one search keeps one private set of
//! common-random-number traces: the first candidate materializes them
//! and every later candidate replays them (bit-identical to live
//! sampling, see `qsim::trace`).

use crate::model::SimOptions;
use profiler::{ProfilingRun, WorkloadProfile};
use qsim::TraceCache;
use simcore::time::Rate;

/// Calibration search parameters.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationOptions {
    /// Relative response-time error accepted as "aligned" (the paper's
    /// tolerance threshold T in Eq. 2).
    pub tolerance: f64,
    /// Search step in qph (the paper's "1 unit").
    pub step_qph: f64,
    /// Maximum steps explored in each direction.
    pub max_steps: usize,
    /// Simulation settings for candidate evaluation.
    pub sim: SimOptions,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            tolerance: 0.02,
            step_qph: 1.0,
            max_steps: 60,
            sim: SimOptions {
                sim_queries: 1_500,
                warmup: 150,
                replications: 2,
                // `train_hybrid` already runs one search per worker
                // thread; fanning replications out too would nest pools.
                threads: 1,
                ..SimOptions::default()
            },
        }
    }
}

/// Calibrates the effective sprint rate for one profiling run (Eq. 2).
///
/// Returns the rate and the relative error its simulation achieves
/// against the observed response time.
///
/// Candidates replay a trace cache private to this call, so the search
/// neither fills nor depends on the process-wide
/// [`TraceCache::shared`] table. With `opts.sim.fast_path == false`
/// every candidate runs the live-RNG reference backend instead, with
/// bit-identical results.
pub fn effective_sprint_rate(
    profile: &WorkloadProfile,
    run: &ProfilingRun,
    opts: &CalibrationOptions,
) -> (Rate, f64) {
    let observed = run.observed_response_secs;
    let mu = profile.mu.qph();
    let mu_m = profile.mu_m.qph();
    debug_assert!(observed > 0.0);

    let traces = TraceCache::new();
    let eval = |rate_qph: f64| -> f64 {
        let speedup = (rate_qph / mu).max(1.0);
        let predicted = opts
            .sim
            .simulate_cached(profile, &run.condition, speedup, &traces);
        (predicted - observed).abs() / observed
    };

    // Candidate offsets in order of increasing |x|: 0, -1, +1, -2, ...
    // (ties resolved toward slower rates, which runtime effects
    // usually produce).
    let mut best_rate = mu_m;
    let mut best_err = f64::INFINITY;
    for k in 0..=opts.max_steps {
        let offsets: &[f64] = if k == 0 {
            &[0.0]
        } else {
            &[-(k as f64), k as f64]
        };
        for &o in offsets {
            let candidate = mu_m + o * opts.step_qph;
            if candidate < 0.6 * mu {
                // Corrections far below the sustained rate stop being
                // meaningful; bound the search.
                continue;
            }
            let err = eval(candidate);
            if err < best_err {
                best_err = err;
                best_rate = candidate;
            }
            if err <= opts.tolerance {
                return (Rate::per_hour(candidate), err);
            }
        }
    }
    (Rate::per_hour(best_rate), best_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::Condition;
    use simcore::dist::DistKind;
    use workloads::{QueryMix, WorkloadKind};

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mechanism: "DVFS".into(),
            mu: Rate::per_hour(50.0),
            mu_m: Rate::per_hour(75.0),
            service_samples_secs: (0..200).map(|i| 62.0 + (i % 17) as f64).collect(),
            profiling_hours: 0.5,
        }
    }

    fn cond() -> Condition {
        Condition {
            utilization: 0.75,
            arrival_kind: DistKind::Exponential,
            timeout_secs: 70.0,
            budget_frac: 0.4,
            refill_secs: 200.0,
        }
    }

    /// Observed RT generated by the simulator itself at a known rate
    /// must calibrate back to (nearly) that rate.
    #[test]
    fn recovers_known_effective_rate() {
        let p = profile();
        let opts = CalibrationOptions::default();
        let true_rate = 63.0; // Well below µm = 75.
        let observed = opts.sim.simulate(&p, &cond(), true_rate / 50.0);
        let run = ProfilingRun {
            condition: cond(),
            observed_response_secs: observed,
        };
        let (rate, err) = effective_sprint_rate(&p, &run, &opts);
        assert!(err <= opts.tolerance, "calibration error {err}");
        assert!(
            (rate.qph() - true_rate).abs() <= 4.0,
            "calibrated {} vs true {true_rate}",
            rate.qph()
        );
    }

    #[test]
    fn exact_marginal_rate_returns_immediately() {
        let p = profile();
        let opts = CalibrationOptions::default();
        let observed = opts.sim.simulate(&p, &cond(), 1.5);
        let run = ProfilingRun {
            condition: cond(),
            observed_response_secs: observed,
        };
        let (rate, err) = effective_sprint_rate(&p, &run, &opts);
        assert!(err <= opts.tolerance);
        assert_eq!(rate.qph(), 75.0, "µm itself tolerates, so µe = µm");
    }

    /// The trace-replaying search must return the bits the live-RNG
    /// reference search returns: an immediate µm accept, searches
    /// settling below and above µm, the floor fallback, and Pareto
    /// arrivals.
    #[test]
    fn traced_search_matches_live_reference() {
        let p = profile();
        let fast = CalibrationOptions::default();
        let live = CalibrationOptions {
            sim: SimOptions {
                fast_path: false,
                ..fast.sim
            },
            ..fast
        };
        let pareto = Condition {
            arrival_kind: DistKind::Pareto { alpha: 1.8 },
            ..cond()
        };
        let cases = [
            (cond(), Some(75.0)),
            (cond(), Some(63.0)),
            (cond(), Some(84.0)),
            (cond(), None),
            (pareto, Some(66.0)),
        ];
        for (c, true_rate) in cases {
            let observed = true_rate.map_or(100_000.0, |r| live.sim.simulate(&p, &c, r / 50.0));
            let run = ProfilingRun {
                condition: c,
                observed_response_secs: observed,
            };
            let (rate_f, err_f) = effective_sprint_rate(&p, &run, &fast);
            let (rate_l, err_l) = effective_sprint_rate(&p, &run, &live);
            assert_eq!(
                rate_f.qph().to_bits(),
                rate_l.qph().to_bits(),
                "{true_rate:?}"
            );
            assert_eq!(err_f.to_bits(), err_l.to_bits(), "{true_rate:?}");
        }
    }

    #[test]
    fn never_returns_rate_below_search_floor() {
        let p = profile();
        let opts = CalibrationOptions::default();
        // Observed far slower than any simulation can produce.
        let run = ProfilingRun {
            condition: cond(),
            observed_response_secs: 100_000.0,
        };
        let (rate, err) = effective_sprint_rate(&p, &run, &opts);
        assert!(rate.qph() >= 0.6 * 50.0);
        assert!(err > opts.tolerance, "impossible target cannot tolerate");
    }
}
