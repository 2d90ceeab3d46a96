//! `cold-policy`: answer "which timeout should I set?" from scratch.
//!
//! One op, for one `(workload, mechanism, seed)` input:
//! `Profiler::measure_rates` → `Profiler::run_conditions` over 30
//! sampled conditions → `train_hybrid` → `explore_timeout` (150
//! candidates) on a model built `with_private_caches()`, handed to the
//! annealer through the benchmark's timing wrapper ([`Probe`]). Every
//! run covers the five inputs a whole number of times; `--seed` only
//! picks the input the cycle starts at.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use forest::RandomForest;
use mechanisms::MechanismKind;
use mlcore::Dataset;
use policy::{explore_timeout, AnnealingConfig, AnnealingResult};
use profiler::features::MU_M_FEATURE;
use profiler::{Condition, ProfileData, Profiler, SamplingGrid, FEATURE_NAMES};
use simcore::dist::DistKind;
use simcore::SprintError;
use sprint_core::{effective_sprint_rate, train_hybrid, HybridModel, TrainOptions};
use testbed::{ArrivalSpec, BudgetSpec, ServerConfig, SprintPolicy};
use workloads::{QueryMix, WorkloadKind};

use crate::measure::{
    combine, ms, quantile, timed, Acc, Counts, Ctx, Digest, Expect, HostRef, Outcome, Setup, Traced,
};
use crate::predict::{PredictClock, Probe};

/// The pinned inputs. An odd count keeps the median op inside one
/// input's cluster of latencies whatever the number of cycles.
const INPUTS: [(WorkloadKind, MechanismKind, u64); 5] = [
    (WorkloadKind::Jacobi, MechanismKind::Dvfs, 0x11),
    (WorkloadKind::Knn, MechanismKind::CoreScale, 0x23),
    (WorkloadKind::Bfs, MechanismKind::CpuThrottle, 0x37),
    (WorkloadKind::SparkKmeans, MechanismKind::Ec2Dvfs, 0x41),
    (WorkloadKind::Leuk, MechanismKind::Dvfs, 0x53),
];

/// Profiling conditions per input.
const CONDITIONS: usize = 30;

/// Candidates per annealing search (`AnnealingConfig::default`).
const CANDIDATES: u64 = 150;

struct Input {
    label: String,
    mix: QueryMix,
    mech: MechanismKind,
    conditions: Vec<Condition>,
    profiler: Profiler,
}

/// The policy question every input answers (its timeout is what the
/// search varies).
fn question() -> Condition {
    Condition {
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 90.0,
        budget_frac: 0.2,
        refill_secs: 500.0,
    }
}

fn inputs(threads: usize) -> Vec<Input> {
    INPUTS
        .iter()
        .map(|&(kind, mech, seed)| Input {
            label: format!("{kind:?}/{}/{seed:#x}", mech.name()),
            mix: QueryMix::single(kind),
            mech,
            conditions: SamplingGrid::paper().sample_conditions(CONDITIONS, seed),
            profiler: Profiler {
                threads,
                seed,
                ..Profiler::default()
            },
        })
        .collect()
}

fn train_options(threads: usize) -> TrainOptions {
    TrainOptions {
        threads,
        ..TrainOptions::default()
    }
}

/// One answer: the sustained rate the profile measured and the search.
struct Answer {
    mu_qph: f64,
    search: AnnealingResult,
}

impl Answer {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.f(self.mu_qph)
            .f(self.search.best_timeout_secs)
            .f(self.search.best_response_secs);
        for &(t, rt) in &self.search.trace {
            d.f(t).f(rt);
        }
        d.get()
    }

    fn sane(&self) -> bool {
        self.search.trace.len() as u64 == CANDIDATES
            && self.search.best_response_secs.is_finite()
            && self.search.best_response_secs > 0.0
            && (0.0..=400.0).contains(&self.search.best_timeout_secs)
    }
}

fn profile(input: &Input, clock: Option<&Acc>) -> ProfileData {
    let t = Instant::now();
    let mech = input.mech.build();
    let profile = input.profiler.measure_rates(&input.mix, mech.as_ref());
    let runs = input
        .profiler
        .run_conditions(&profile, mech.as_ref(), &input.conditions)
        .into_iter()
        .map(|(run, _hours)| run)
        .collect();
    if let Some(c) = clock {
        c.add(t.elapsed());
    }
    ProfileData { profile, runs }
}

/// The op through the public API.
fn answer(input: &Input, opts: &TrainOptions, delay: Duration) -> Result<Answer, SprintError> {
    let data = profile(input, None);
    let model = train_hybrid(&data, opts)?.with_private_caches();
    let search = explore_timeout(
        &Probe::plain(&model, delay),
        &question(),
        &AnnealingConfig::default(),
    )?;
    Ok(Answer {
        mu_qph: data.profile.mu.qph(),
        search,
    })
}

/// Layer clocks of the traced op.
#[derive(Default)]
struct Clocks {
    profile: Acc,
    calibrate: Acc,
    calibrate_call: Acc,
    calibrate_sims: AtomicU64,
    train: Acc,
    anneal: Acc,
    predict_call: Acc,
    predict: PredictClock,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    traces_cached: AtomicU64,
}

/// `train_hybrid`'s calibration: every profiling run through
/// `effective_sprint_rate` (Eq. 2) on `opts.threads` workers.
fn calibrate(data: &ProfileData, opts: &TrainOptions, call: &Acc) -> Vec<f64> {
    let n = data.runs.len();
    let rates: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..opts.threads.clamp(1, n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let ((rate, _err), d) = timed(|| {
                    effective_sprint_rate(&data.profile, &data.runs[i], &opts.calibration)
                });
                call.add(d);
                *rates[i].lock().expect("rate slot") = rate.qph();
            });
        }
    });
    rates
        .into_iter()
        .map(|m| m.into_inner().expect("rate slot"))
        .collect()
}

/// The op taken apart into its layers, each timed from outside.
fn answer_traced(
    input: &Input,
    opts: &TrainOptions,
    delay: Duration,
    c: &Clocks,
) -> Result<Answer, SprintError> {
    let data = profile(input, Some(&c.profile));

    let ((rates, sims), d) = timed(|| Counts::around(|| calibrate(&data, opts, &c.calibrate_call)));
    c.calibrate.add(d);
    c.calibrate_sims
        .fetch_add(sims.sim_evals, Ordering::Relaxed);

    let t = Instant::now();
    let mut train = Dataset::new(FEATURE_NAMES.to_vec());
    for (run, mu_e) in data.runs.iter().zip(rates) {
        train.push(
            run.condition.features(data.profile.mu, data.profile.mu_m),
            mu_e,
        );
    }
    let forest = RandomForest::train(&train, MU_M_FEATURE, opts.forest);
    let model = HybridModel::new(data.profile.clone(), forest, opts.sim).with_private_caches();
    c.train.add(t.elapsed());

    let probe = Probe::traced(&model, delay, opts.sim, &c.predict_call, &c.predict);
    let (search, d) = timed(|| {
        obs::set_enabled(true);
        let r = explore_timeout(&probe, &question(), &AnnealingConfig::default());
        obs::set_enabled(false);
        r
    });
    c.anneal.add(d);
    let (hits, misses, cached) = probe.cache_stats();
    c.memo_hits.fetch_add(hits, Ordering::Relaxed);
    c.memo_misses.fetch_add(misses, Ordering::Relaxed);
    c.traces_cached.fetch_add(cached as u64, Ordering::Relaxed);
    Ok(Answer {
        mu_qph: data.profile.mu.qph(),
        search: search?,
    })
}

/// Model error against the ground-truth testbed at the annealed
/// timeout, percent.
fn model_error_pct(input: &Input, a: &Answer) -> Result<f64, SprintError> {
    let q = question();
    let observed = testbed::server::run(
        ServerConfig {
            mix: input.mix.clone(),
            arrivals: ArrivalSpec::poisson(simcore::Rate::per_hour(a.mu_qph).scale(q.utilization)),
            policy: SprintPolicy::new(
                simcore::SimDuration::from_secs_f64(a.search.best_timeout_secs),
                BudgetSpec::FractionOfRefill(q.budget_frac),
                q.refill(),
            ),
            slots: 1,
            num_queries: 600,
            warmup: 60,
            seed: 777,
        },
        input.mech.build().as_ref(),
    )?
    .mean_response_secs();
    Ok((a.search.best_response_secs - observed).abs() / observed * 100.0)
}

/// Runs the workload.
///
/// # Errors
///
/// Harness failures only; a failed op is counted, not returned.
pub fn run(ctx: &Ctx) -> Result<Outcome, SprintError> {
    let threads = ctx.nproc;
    let opts = train_options(threads);
    let mut host = HostRef::new(ctx.inject_footprint_mb);
    let mut setup = Setup::default();
    let inputs = setup.run(&mut host, || inputs(threads));
    let start = ctx.seed as usize % inputs.len();
    let order: Vec<usize> = (0..inputs.len())
        .map(|k| (start + k) % inputs.len())
        .collect();

    let mut out = Outcome {
        work_unit: "policy answers",
        ..Outcome::default()
    };
    let mut outputs = Expect::new(inputs.len());
    let mut first: Vec<Option<Answer>> = (0..inputs.len()).map(|_| None).collect();
    let mut counts = Expect::new(inputs.len());
    let mut traced = Traced::default();
    let c = Clocks::default();
    let mut b_counts = Counts::default();
    let mut cycles = 0;

    let started = Instant::now();
    while !ctx.window_closed(started) {
        cycles += 1;
        for &i in &order {
            let input = &inputs[i];
            // A: the untraced op.
            let (res, d) = timed(|| answer(input, &opts, ctx.inject_delay));
            out.attempted += 1;
            let a = match res {
                Ok(a) if a.sane() && outputs.check(i, a.digest()) => a,
                _ => {
                    out.failed += 1;
                    continue;
                }
            };
            out.record(&mut host, d);
            out.work += 1.0;
            setup.repeat(&mut host, started, || self::inputs(threads));
            if !ctx.trace {
                first[i].get_or_insert(a);
                continue;
            }
            // B: the same op with obs counting; every count is exact.
            out.attempted += 1;
            let (res, b) = Counts::around(|| answer(input, &opts, ctx.inject_delay));
            let b_ok = res.is_ok_and(|r| r.digest() == a.digest())
                && b.anneal_searches == 1
                && b.anneal_candidates == CANDIDATES
                && b.memo_hits + b.memo_misses == CANDIDATES
                && counts.check(i, b);
            if !b_ok {
                out.failed += 1;
            }
            b_counts = b_counts + b;
            // C: the decomposed op; must reproduce A bit for bit and
            // do the work B counted.
            out.attempted += 1;
            let sims_before = c.calibrate_sims.load(Ordering::Relaxed);
            let (hits0, misses0) = (
                c.memo_hits.load(Ordering::Relaxed),
                c.memo_misses.load(Ordering::Relaxed),
            );
            let (res, d) = timed(|| answer_traced(input, &opts, ctx.inject_delay, &c));
            let sims = c.calibrate_sims.load(Ordering::Relaxed) - sims_before;
            let hits = c.memo_hits.load(Ordering::Relaxed) - hits0;
            let misses = c.memo_misses.load(Ordering::Relaxed) - misses0;
            let c_ok = res.is_ok_and(|r| r.digest() == a.digest())
                && b.sim_evals == sims + misses
                && b.memo_hits == hits;
            if !c_ok {
                out.failed += 1;
            }
            traced.op_ms.push(ms(d));
            first[i].get_or_insert(a);
        }
    }

    let mut errs = Vec::new();
    for (input, a) in inputs.iter().zip(&first) {
        if let Some(a) = a {
            errs.push(model_error_pct(input, a)?);
        }
    }
    let model_err_pct = errs.iter().sum::<f64>() / errs.len().max(1) as f64;

    out.setup = setup;
    out.ref_kernel_ms = host.samples;
    out.ref_swept = host.swept;
    out.digest = combine(outputs.firsts());
    out.info = vec![
        (
            "inputs".into(),
            inputs
                .iter()
                .map(|i| i.label.as_str())
                .collect::<Vec<_>>()
                .join(", "),
        ),
        ("cycles".into(), cycles.to_string()),
        (
            "threads".into(),
            format!(
                "Profiler::threads={threads} TrainOptions::threads={threads} \
                 calibration SimOptions::threads={} model SimOptions::threads={}",
                opts.calibration.sim.threads, opts.sim.threads
            ),
        ),
        ("model_err_pct".into(), format!("{model_err_pct:.4}")),
    ];
    if ctx.trace {
        let ops = traced.op_ms.len().max(1) as f64;
        let p = &c.predict;
        let mut cd = Digest::default();
        for v in counts.firsts().iter().flatten() {
            v.digest(&mut cd);
        }
        out.info
            .push(("counter digest".into(), format!("{:016x}", cd.get())));
        let infer = p.infer.ms();
        let trace = p.trace.ms();
        let engine = p.engine.ms();
        traced.leaves = vec![
            ("testbed.profile_ms", c.profile.ms()),
            ("calibrate.ms", c.calibrate.ms()),
            ("forest.train_ms", c.train.ms()),
            ("anneal.ms", c.anneal.ms()),
        ];
        traced.nested = vec![
            ("anneal.ms", "anneal.predict_ms", c.predict_call.ms()),
            ("anneal.predict_ms", "forest.infer_ms", infer),
            ("anneal.predict_ms", "qsim.trace_ms", trace),
            ("anneal.predict_ms", "qsim.engine_ms", engine),
        ];
        traced.metrics = vec![
            ("calibrate.busy_ms", c.calibrate_call.ms() / ops),
            (
                "calibrate.sims",
                c.calibrate_sims.load(Ordering::Relaxed) as f64 / ops,
            ),
            ("forest.infer_us", p.infer.us_per_call()),
            ("anneal.candidates", b_counts.anneal_candidates as f64 / ops),
            ("anneal.predict_us", c.predict_call.us_per_call()),
            ("qsim.trace_build_us", p.trace_build.us_per_call()),
            ("qsim.trace_builds", p.trace_build.calls() as f64 / ops),
            ("qsim.engine_us", p.engine_run.us_per_call()),
            ("qsim.engine_runs", p.engine_run.calls() as f64 / ops),
            (
                "qsim.ns_per_sim_query",
                p.engine_run.ms() * 1e6 / p.sim_queries.load(Ordering::Relaxed).max(1) as f64,
            ),
            (
                "trace_cache.hit_ratio",
                Counts::ratio(b_counts.trace_hits, b_counts.trace_misses),
            ),
            (
                "trace_cache.entries",
                c.traces_cached.load(Ordering::Relaxed) as f64 / ops,
            ),
            (
                "trace_cache.resident_mb",
                c.traces_cached.load(Ordering::Relaxed) as f64 / ops
                    * opts.sim.sim_queries as f64
                    * crate::measure::TRACE_BYTES_PER_QUERY
                    / 1e6,
            ),
            (
                "memo.hit_ratio",
                Counts::ratio(b_counts.memo_hits, b_counts.memo_misses),
            ),
            ("sim_evals", b_counts.sim_evals as f64 / ops),
            ("model_err_pct", model_err_pct),
        ];
        out.info.push((
            "traced op p50 ms".into(),
            format!("{:.3}", quantile(&traced.op_ms, 0.5)),
        ));
        out.traced = Some(traced);
    }
    Ok(out)
}
