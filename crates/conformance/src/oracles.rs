//! Differential oracles: pairs of code paths that promise *identical*
//! answers, checked bit-for-bit on shared seeds.
//!
//! Unlike anchors — which pin measured values against committed
//! goldens — an oracle needs no golden file: the reference
//! implementation rides along in the binary, so drift between the fast
//! and reference paths is caught even when both move together relative
//! to the paper.

use forest::{ForestConfig, RandomForest};
use mlcore::Dataset;
use profiler::{Condition, ProfileData, ProfilingRun, WorkloadProfile};
use qsim::{
    predict_mean_response, predict_mean_response_reference, predict_mean_response_traced, Backend,
    Qsim, QsimConfig, TraceCache,
};
use simcore::dist::{Dist, DistKind};
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use sprint_core::{
    effective_sprint_rate, train_hybrid, CalibrationOptions, SimOptions, TrainOptions,
};
use testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig, SprintPolicy};
use workloads::{QueryMix, WorkloadKind};

/// One differential check's outcome.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Stable identifier, `oracle/...`.
    pub id: &'static str,
    /// The bit-identity contract being checked.
    pub description: &'static str,
    /// Whether the contract held.
    pub passed: bool,
    /// Where it held or what diverged.
    pub detail: String,
}

impl OracleOutcome {
    fn from(
        id: &'static str,
        description: &'static str,
        r: Result<String, SprintError>,
    ) -> OracleOutcome {
        match r {
            Ok(detail) => OracleOutcome {
                id,
                description,
                passed: true,
                detail,
            },
            Err(e) => OracleOutcome {
                id,
                description,
                passed: false,
                detail: e.to_string(),
            },
        }
    }
}

fn diverged(what: &'static str, detail: String) -> SprintError {
    SprintError::runtime(what, detail)
}

/// A spread of simulator configurations covering the engine's feature
/// matrix: single and multi slot, light and heavy tails, sprinting on
/// and off.
fn config_matrix(seed: u64) -> Vec<QsimConfig> {
    let mean = SimDuration::from_secs_f64(90.0);
    let base = QsimConfig {
        arrival_rate: Rate::per_hour(30.0),
        arrival_kind: DistKind::Exponential,
        service: Dist::lognormal(mean, 0.3),
        sprint_speedup: 1.5,
        timeout: SimDuration::from_secs_f64(60.0),
        budget_capacity_secs: 300.0,
        refill_secs: 1_200.0,
        slots: 1,
        num_queries: 300,
        warmup: 30,
        seed,
    };
    vec![
        base.clone(),
        QsimConfig {
            slots: 2,
            seed: seed ^ 0x02,
            ..base.clone()
        },
        QsimConfig {
            arrival_kind: DistKind::Pareto { alpha: 1.5 },
            service: Dist::hyperexponential(mean, 1.2),
            seed: seed ^ 0x03,
            ..base.clone()
        },
        QsimConfig {
            // No sprinting at all: the budget/timeout machinery idle.
            sprint_speedup: 1.0,
            timeout: SimDuration::MAX,
            budget_capacity_secs: 0.0,
            seed: seed ^ 0x04,
            ..base.clone()
        },
        QsimConfig {
            // Burst-on-arrival under pressure.
            arrival_rate: Rate::per_hour(38.0),
            timeout: SimDuration::from_secs_f64(0.0),
            slots: 3,
            seed: seed ^ 0x05,
            ..base.clone()
        },
        QsimConfig {
            service: Dist::exponential(mean),
            budget_capacity_secs: 60.0,
            refill_secs: 400.0,
            seed: seed ^ 0x06,
            ..base
        },
    ]
}

fn check_backend_identity(seed: u64) -> Result<String, SprintError> {
    let configs = config_matrix(seed);
    let n = configs.len();
    let pool = qsim::run_batch_with(configs.clone(), 2, Backend::Pool)?;
    let scoped = qsim::run_batch_with(configs.clone(), 2, Backend::Scoped)?;
    let reference = qsim::run_batch_with(configs, 2, Backend::Reference)?;
    for (i, ((p, s), r)) in pool.iter().zip(&scoped).zip(&reference).enumerate() {
        if p.queries != s.queries {
            return Err(diverged(
                "oracle::backends",
                format!("config {i}: Pool and Scoped disagree"),
            ));
        }
        if p.queries != r.queries {
            return Err(diverged(
                "oracle::backends",
                format!("config {i}: Pool and Reference disagree"),
            ));
        }
    }
    Ok(format!("{n} configs bit-identical across 3 backends"))
}

fn check_direct_vs_calendar(seed: u64) -> Result<String, SprintError> {
    // Every config in the matrix at every k in the direct grid: k = 1
    // exercises the heap-free recurrence engine, k ∈ {2, 4, 8} the
    // DirectCalendar (arrival slot + monotone timeout queue + per-slot
    // latest event); `run_event_driven` pins the binary-heap calendar
    // either way.
    let mut checked = 0usize;
    for k in [1usize, 2, 4, 8] {
        for (i, mut cfg) in config_matrix(seed).into_iter().enumerate() {
            cfg.slots = k;
            let direct = Qsim::new(cfg.clone())?.run()?;
            let calendar = Qsim::new(cfg)?.run_event_driven()?;
            if direct.queries != calendar.queries {
                return Err(diverged(
                    "oracle::direct_engine",
                    format!("k={k} config {i}: direct and event-calendar engines disagree"),
                ));
            }
            checked += 1;
        }
    }
    Ok(format!(
        "{checked} configs bit-identical, direct vs event calendar, k in {{1, 2, 4, 8}}"
    ))
}

fn check_traced_vs_live(seed: u64) -> Result<String, SprintError> {
    let cache = TraceCache::new();
    let mut checked = 0usize;
    for (i, cfg) in config_matrix(seed)
        .into_iter()
        .filter(|c| c.slots == 1)
        .enumerate()
    {
        let live = predict_mean_response(&cfg, 3, 2)?;
        let traced = predict_mean_response_traced(&cfg, 3, 2, &cache)?;
        let reference = predict_mean_response_reference(&cfg, 3, 2)?;
        if live.to_bits() != traced.to_bits() {
            return Err(diverged(
                "oracle::crn_traces",
                format!("config {i}: live {live} vs traced {traced}"),
            ));
        }
        if live.to_bits() != reference.to_bits() {
            return Err(diverged(
                "oracle::crn_traces",
                format!("config {i}: live {live} vs reference {reference}"),
            ));
        }
        checked += 1;
    }
    Ok(format!(
        "{checked} configs: live, CRN-traced and reference predictions bit-identical"
    ))
}

/// Eq. 2 over a grid chosen to reach every exit of the search: the
/// true rate at µm (immediate accept), below and above µm (the search
/// walks both directions before settling), an unreachable target (the
/// below-0.6µ floor and the best-seen fallback), each under Poisson
/// and Pareto arrivals. Observed response times come from the
/// simulator itself at the true rate, on seeds the search never uses.
fn check_calibration_traced_vs_live(seed: u64) -> Result<String, SprintError> {
    let profile = WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "DVFS".into(),
        mu: Rate::per_hour(50.0),
        mu_m: Rate::per_hour(75.0),
        service_samples_secs: (0..200).map(|i| 62.0 + (i % 17) as f64).collect(),
        profiling_hours: 0.5,
    };
    // Shorter windows than the default keep the fallback searches
    // (~100 candidates each) cheap; the bit-identity claim does not
    // depend on window length.
    let traced = CalibrationOptions {
        sim: SimOptions {
            sim_queries: 600,
            warmup: 60,
            seed,
            ..CalibrationOptions::default().sim
        },
        ..CalibrationOptions::default()
    };
    let live = CalibrationOptions {
        sim: SimOptions {
            fast_path: false,
            ..traced.sim
        },
        ..traced
    };
    let truth = SimOptions {
        seed: seed ^ 0x0B5E,
        ..live.sim
    };
    let base = Condition {
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 70.0,
        budget_frac: 0.4,
        refill_secs: 200.0,
    };
    let kinds = [DistKind::Exponential, DistKind::Pareto { alpha: 1.8 }];
    let (mu, mu_m) = (profile.mu.qph(), profile.mu_m.qph());
    let mut runs = Vec::new();
    let mut exits = [0usize; 4];
    for kind in kinds {
        let condition = Condition {
            arrival_kind: kind,
            ..base
        };
        for true_rate in [Some(mu_m), Some(63.0), Some(84.0), None] {
            let observed =
                true_rate.map_or(100_000.0, |r| truth.simulate(&profile, &condition, r / mu));
            let run = ProfilingRun {
                condition,
                observed_response_secs: observed,
            };
            let (rate_t, err_t) = effective_sprint_rate(&profile, &run, &traced);
            let (rate_l, err_l) = effective_sprint_rate(&profile, &run, &live);
            if rate_t.qph().to_bits() != rate_l.qph().to_bits()
                || err_t.to_bits() != err_l.to_bits()
            {
                return Err(diverged(
                    "oracle::calibration",
                    format!(
                        "{kind:?}, true rate {true_rate:?}: traced ({}, {err_t}) vs live ({}, {err_l})",
                        rate_t.qph(),
                        rate_l.qph()
                    ),
                ));
            }
            let exit = match (err_t <= traced.tolerance, rate_t.qph()) {
                (false, _) => 3,
                (true, r) if r == mu_m => 0,
                (true, r) if r < mu_m => 1,
                (true, _) => 2,
            };
            exits[exit] += 1;
            runs.push(run);
        }
    }
    if exits.contains(&0) {
        return Err(diverged(
            "oracle::calibration",
            format!("grid no longer reaches every search exit (accept at µm, below, above, fallback): {exits:?}"),
        ));
    }

    // The forest trained on each path's rates must predict the same
    // bits everywhere.
    let data = ProfileData { profile, runs };
    let opts = |calibration| TrainOptions {
        calibration,
        threads: 2,
        ..TrainOptions::default()
    };
    let forest_t = train_hybrid(&data, &opts(traced))?;
    let forest_l = train_hybrid(&data, &opts(live))?;
    let probes: Vec<Condition> = data
        .runs
        .iter()
        .map(|r| r.condition)
        .chain((0..8).map(|i| Condition {
            utilization: 0.3 + 0.08 * i as f64,
            timeout_secs: 20.0 * i as f64,
            ..base
        }))
        .collect();
    for (i, c) in probes.iter().enumerate() {
        let (a, b) = (
            forest_t.effective_rate_qph(c),
            forest_l.effective_rate_qph(c),
        );
        if a.to_bits() != b.to_bits() {
            return Err(diverged(
                "oracle::calibration",
                format!("probe {i}: forest on traced rates predicts {a}, on live rates {b}"),
            ));
        }
    }
    Ok(format!(
        "{} searches bit-identical, traced vs live (exits accept/below/above/fallback: \
         {exits:?}); {} forest predictions identical",
        data.runs.len(),
        probes.len()
    ))
}

fn check_flat_forest(seed: u64) -> Result<String, SprintError> {
    let mut data = Dataset::new(vec!["x", "y", "z"]);
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: cheap deterministic pseudo-noise for the rows.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..300 {
        let (x, y, z) = (next() * 40.0, next() * 10.0, next() * 5.0);
        data.push(vec![x, y, z], 0.8 * x - 0.5 * y + next());
    }
    let forest = RandomForest::train(&data, 0, ForestConfig::default());
    let flat = forest.flatten();
    let rows: Vec<[f64; 3]> = (0..500)
        .map(|_| [next() * 50.0, next() * 12.0, next() * 6.0])
        .collect();
    for (i, row) in rows.iter().enumerate() {
        if forest.predict(row).to_bits() != flat.predict(row).to_bits() {
            return Err(diverged(
                "oracle::flat_forest",
                format!("row {i}: boxed and flat predictions disagree"),
            ));
        }
    }
    let concat: Vec<f64> = rows.iter().flatten().copied().collect();
    let many = flat.predict_many(&concat);
    for (i, (row, batched)) in rows.iter().zip(&many).enumerate() {
        if flat.predict(row).to_bits() != batched.to_bits() {
            return Err(diverged(
                "oracle::flat_forest",
                format!("row {i}: predict and predict_many disagree"),
            ));
        }
    }
    // Every batch size from empty through several multiples of the
    // lane width: full lane groups, ragged tails of every residue, and
    // the empty batch must all match the scalar walk bit-for-bit.
    let width = 3;
    let mut batch_sizes = 0usize;
    for n in 0..=19.min(rows.len()) {
        let out = flat.predict_many(&concat[..n * width]);
        if out.len() != n {
            return Err(diverged(
                "oracle::flat_forest",
                format!("batch size {n}: predict_many returned {} values", out.len()),
            ));
        }
        for (i, (row, batched)) in rows[..n].iter().zip(&out).enumerate() {
            if flat.predict(row).to_bits() != batched.to_bits() {
                return Err(diverged(
                    "oracle::flat_forest",
                    format!("batch size {n}, row {i}: batched prediction diverged"),
                ));
            }
        }
        batch_sizes += 1;
    }
    Ok(format!(
        "{} rows bit-identical: boxed, flat, and batched inference ({batch_sizes} batch \
         sizes incl. ragged tails)",
        rows.len()
    ))
}

fn check_recorder_purity(seed: u64) -> Result<String, SprintError> {
    let mech = mechanisms::Dvfs::new();
    let cfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(30.0)),
        policy: SprintPolicy::new(
            SimDuration::from_secs_f64(60.0),
            BudgetSpec::FractionOfRefill(0.3),
            SimDuration::from_secs_f64(1_000.0),
        ),
        slots: 2,
        num_queries: 200,
        warmup: 20,
        seed,
    };
    let pristine = Server::new(cfg.clone(), &mech)?.run()?;
    let mut observed = Server::new(cfg, &mech)?;
    observed.attach_recorder(obs::FlightRecorder::DEFAULT_CAPACITY);
    let observed = observed.run()?;
    if pristine.records() != observed.records() {
        return Err(diverged(
            "oracle::recorder",
            "attaching the flight recorder changed per-query records".to_string(),
        ));
    }
    let events = observed.telemetry().map_or(0, |t| t.events().len());
    Ok(format!(
        "{} query records bit-identical with recorder attached ({events} events captured)",
        pristine.records().len()
    ))
}

/// Runs every differential oracle at `seed`.
pub fn run_all(seed: u64) -> Vec<OracleOutcome> {
    vec![
        OracleOutcome::from(
            "oracle/backend_identity",
            "Pool, Scoped and Reference batch backends produce bit-identical \
             per-query results on shared seeds",
            check_backend_identity(seed),
        ),
        OracleOutcome::from(
            "oracle/direct_vs_calendar",
            "the heap-free direct engines (k=1 recurrence and the k<=8 \
             DirectCalendar) match the event-calendar engine bit-for-bit \
             across k in {1, 2, 4, 8}",
            check_direct_vs_calendar(seed),
        ),
        OracleOutcome::from(
            "oracle/traced_vs_live",
            "CRN trace replay and the frozen reference path reproduce live \
             predictions bit-for-bit",
            check_traced_vs_live(seed),
        ),
        OracleOutcome::from(
            "oracle/calibration_traced_vs_live",
            "Eq. 2 calibration replaying its private CRN traces returns the \
             live-RNG reference search's (rate, error) bit-for-bit, and \
             train_hybrid's forests agree",
            check_calibration_traced_vs_live(seed),
        ),
        OracleOutcome::from(
            "oracle/flat_forest",
            "SoA-arena forest inference (scalar and lane-batched, every \
             batch size incl. ragged tails) matches pointer-chasing \
             inference bit-for-bit",
            check_flat_forest(seed),
        ),
        OracleOutcome::from(
            "oracle/recorder_purity",
            "the flight recorder is a pure observer: identical per-query \
             records with and without it",
            check_recorder_purity(seed),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_pass_on_a_fresh_seed() {
        for o in run_all(0x0BAC1E) {
            assert!(o.passed, "{} failed: {}", o.id, o.detail);
        }
    }
}
