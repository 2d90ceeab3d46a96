//! `whatif-fresh`: one trained Jacobi/DVFS hybrid model answers a
//! stream of what-if conditions that never repeat.
//!
//! Load and timeout are drawn continuously from `--seed`, so every
//! prediction misses the prediction memo and materializes fresh CRN
//! traces into the process-wide `TraceCache` until it fills. The model
//! runs with `SimOptions::threads = nproc`, the only workload that fans
//! replications out over the `SimPool`. One op is a batch of
//! [`BATCH`] predictions.

use std::sync::atomic::Ordering;
use std::time::Instant;

use mechanisms::MechanismKind;
use profiler::{Condition, Profiler, SamplingGrid};
use qsim::TraceCache;
use simcore::dist::DistKind;
use simcore::rng::SimRng;
use simcore::SprintError;
use sprint_core::{train_hybrid, HybridModel, ResponseTimeModel, SimOptions, TrainOptions};
use workloads::{QueryMix, WorkloadKind};

use crate::measure::{
    ms, quantile, timed, Counts, Ctx, Digest, HostRef, Outcome, Setup, Traced,
    TRACE_BYTES_PER_QUERY,
};
use crate::predict::{decomposed, PredictClock};

/// Predictions per op.
const BATCH: usize = 16;

/// Every this many predictions, the answer is recomputed on the
/// in-tree `fast_path: false` reference and must match bit for bit.
const REFERENCE_EVERY: u64 = 97;

/// Predictions folded into the run digest (a fixed prefix, so runs of
/// different lengths at one seed agree).
const DIGEST_PREDICTIONS: u64 = 4_096;

/// Profiling conditions and campaign seed of the one trained model.
const CONDITIONS: usize = 30;
const CAMPAIGN_SEED: u64 = 42;

fn train(threads: usize) -> Result<(HybridModel, SimOptions), SprintError> {
    let mech = MechanismKind::Dvfs.build();
    let mix = QueryMix::single(WorkloadKind::Jacobi);
    let conditions = SamplingGrid::paper().sample_conditions(CONDITIONS, CAMPAIGN_SEED);
    let data = Profiler {
        threads,
        ..Profiler::default()
    }
    .profile(&mix, mech.as_ref(), &conditions);
    let sim = SimOptions {
        threads,
        ..SimOptions::default()
    };
    let opts = TrainOptions {
        threads,
        sim,
        ..TrainOptions::default()
    };
    Ok((train_hybrid(&data, &opts)?, sim))
}

/// The what-if stream: load in [0.3, 0.9), timeout in [0, 300) s.
struct Stream(SimRng);

impl Stream {
    fn next(&mut self) -> Condition {
        Condition {
            utilization: self.0.uniform(0.3, 0.9),
            arrival_kind: DistKind::Exponential,
            timeout_secs: self.0.uniform(0.0, 300.0),
            budget_frac: 0.2,
            refill_secs: 500.0,
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Harness failures only; a failed op is counted, not returned.
pub fn run(ctx: &Ctx) -> Result<Outcome, SprintError> {
    let threads = ctx.nproc;
    let mut host = HostRef::new(ctx.inject_footprint_mb);
    let mut setup = Setup::default();
    let (model, sim) = setup.run(&mut host, || train(threads))?;
    let reference = HybridModel::new(
        model.profile().clone(),
        model.forest().clone(),
        SimOptions {
            fast_path: false,
            ..sim
        },
    );
    let shared = TraceCache::shared();
    let mut stream = Stream(SimRng::new(ctx.seed ^ 0x5748_4154_4946));

    let mut out = Outcome {
        work_unit: "predictions",
        ..Outcome::default()
    };
    let mut traced = Traced::default();
    let clock = PredictClock::default();
    let mut b_counts = Counts::default();
    let mut b_first = None;
    let mut b_ops = 0u64;
    let mut digest = Digest::default();
    let mut predicted = 0u64;
    let mut references = 0u64;

    let started = Instant::now();
    let mut op = 0u64;
    while !ctx.window_closed(started) {
        let conds: Vec<Condition> = (0..BATCH).map(|_| stream.next()).collect();
        let variant = if ctx.trace { op % 3 } else { 0 };
        op += 1;
        out.attempted += 1;
        let (answers, ok) = match variant {
            // A: the untraced op.
            0 => {
                let (answers, d) = timed(|| {
                    conds
                        .iter()
                        .map(|c| Ok(model.predict_response_secs(c)))
                        .collect::<Result<Vec<f64>, SprintError>>()
                });
                out.record(&mut host, d);
                out.work += BATCH as f64;
                setup.repeat(&mut host, started, || train(threads));
                (answers, true)
            }
            // B: obs counting; fresh conditions must do full work.
            1 => {
                let (answers, b) = Counts::around(|| {
                    conds
                        .iter()
                        .map(|c| Ok(model.predict_response_secs(c)))
                        .collect::<Result<Vec<f64>, SprintError>>()
                });
                b_counts = b_counts + b;
                b_first.get_or_insert(b);
                b_ops += 1;
                let n = BATCH as u64;
                let reps = sim.replications as u64;
                let exact = b.memo_hits == 0
                    && b.memo_misses == n
                    && b.sim_evals == n
                    && b.trace_hits == 0
                    && b.trace_misses == n * reps;
                (answers, exact)
            }
            // C: the decomposed prediction, timed per layer.
            _ => {
                let (answers, d) = timed(|| {
                    obs::set_enabled(true);
                    let r = conds
                        .iter()
                        .map(|c| decomposed(&model, &sim, &shared, c, &clock))
                        .collect::<Result<Vec<f64>, SprintError>>();
                    obs::set_enabled(false);
                    r
                });
                traced.op_ms.push(ms(d));
                (answers, true)
            }
        };
        let mut ok = ok;
        match answers {
            Ok(answers) => {
                for (c, &v) in conds.iter().zip(&answers) {
                    ok &= v.is_finite() && v > 0.0;
                    if predicted.is_multiple_of(REFERENCE_EVERY) {
                        references += 1;
                        ok &= reference.predict_response_secs(c).to_bits() == v.to_bits();
                    }
                    if predicted < DIGEST_PREDICTIONS {
                        digest.f(v);
                    }
                    predicted += 1;
                }
            }
            Err(_) => ok = false,
        }
        if !ok {
            out.failed += 1;
        }
    }

    out.setup = setup;
    out.ref_kernel_ms = host.samples;
    out.ref_swept = host.swept;
    out.digest = digest.get();
    out.info = vec![
        (
            "model".into(),
            format!("Jacobi/DVFS, {CONDITIONS} profiled conditions, campaign seed {CAMPAIGN_SEED}"),
        ),
        (
            "threads".into(),
            format!(
                "Profiler::threads={threads} TrainOptions::threads={threads} SimOptions::threads={}",
                sim.threads
            ),
        ),
        ("predictions".into(), predicted.to_string()),
        ("reference checks".into(), references.to_string()),
        ("trace cache entries".into(), shared.len().to_string()),
    ];
    if ctx.trace {
        let ops = traced.op_ms.len().max(1) as f64;
        let b_ops = b_ops.max(1) as f64;
        let entries = shared.len() as f64;
        let mut cd = Digest::default();
        if let Some(b) = b_first {
            b.digest(&mut cd);
        }
        out.info
            .push(("counter digest".into(), format!("{:016x}", cd.get())));
        traced.leaves = vec![
            ("forest.infer_ms", clock.infer.ms()),
            ("qsim.trace_ms", clock.trace.ms()),
            ("qsim.engine_ms", clock.engine.ms()),
        ];
        traced.metrics = vec![
            ("forest.infer_us", clock.infer.us_per_call()),
            ("qsim.trace_build_us", clock.trace_build.us_per_call()),
            ("qsim.trace_builds", clock.trace_build.calls() as f64 / ops),
            ("qsim.engine_us", clock.engine_run.us_per_call()),
            ("qsim.engine_runs", clock.engine_run.calls() as f64 / ops),
            (
                "qsim.ns_per_sim_query",
                clock.engine_run.ms() * 1e6
                    / clock.sim_queries.load(Ordering::Relaxed).max(1) as f64,
            ),
            (
                "trace_cache.hit_ratio",
                Counts::ratio(b_counts.trace_hits, b_counts.trace_misses),
            ),
            ("trace_cache.entries", entries),
            (
                "trace_cache.resident_mb",
                entries * sim.sim_queries as f64 * TRACE_BYTES_PER_QUERY / 1e6,
            ),
            (
                "memo.hit_ratio",
                Counts::ratio(b_counts.memo_hits, b_counts.memo_misses),
            ),
            ("sim_evals", b_counts.sim_evals as f64 / b_ops),
        ];
        out.info.push((
            "traced op p50 ms".into(),
            format!("{:.3}", quantile(&traced.op_ms, 0.5)),
        ));
        out.traced = Some(traced);
    }
    Ok(out)
}
