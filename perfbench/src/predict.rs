//! A hybrid-model prediction taken apart into the public calls that
//! make it up, each timed from outside, and the timing
//! `ResponseTimeModel` wrapper the annealer is handed.
//!
//! [`decomposed`] reproduces `HybridModel::predict_response_secs`
//! (fast path, CRN traces) bit for bit: forest inference
//! (`HybridModel::effective_rate_qph`), `SimOptions::config`, one
//! `TraceCache::trace_for` per replication, then
//! `Qsim::with_trace(..).run_mean_response` per replication, serially
//! or on the shared `SimPool`, averaged in input order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use profiler::Condition;
use qsim::{replication_seed, Qsim, SimPool, TraceCache};
use simcore::dist::DistKind;
use simcore::SprintError;
use sprint_core::{HybridModel, ResponseTimeModel, SimOptions};

use crate::measure::{spin, Acc};

/// Busy time of the layers inside a prediction.
#[derive(Debug, Default)]
pub struct PredictClock {
    /// Forest inference (`effective_rate_qph`).
    pub infer: Acc,
    /// Every `trace_for` call (hits and misses).
    pub trace: Acc,
    /// `trace_for` calls that materialized a trace (cache misses).
    pub trace_build: Acc,
    /// Wall time of the engine section (serial loop or pool batch).
    pub engine: Acc,
    /// Busy time of each engine run, summed across workers.
    pub engine_run: Acc,
    /// Simulated queries run by the engine.
    pub sim_queries: AtomicU64,
}

/// One prediction through the decomposed pipeline.
///
/// # Errors
///
/// Propagates simulator errors; a panicked pool task is an error.
pub fn decomposed(
    model: &HybridModel,
    sim: &SimOptions,
    cache: &TraceCache,
    cond: &Condition,
    clock: &PredictClock,
) -> Result<f64, SprintError> {
    let t = Instant::now();
    let mu_e = model.effective_rate_qph(cond);
    clock.infer.add(t.elapsed());
    let profile = model.profile();
    let cfg = sim.config(profile, cond, mu_e / profile.mu.qph());
    let (reps, threads) = (sim.replications.max(1), sim.threads.max(1));

    let mut traces = Vec::with_capacity(reps);
    for i in 0..reps {
        let misses = obs::global().trace_cache_misses.get();
        let t = Instant::now();
        traces.push(cache.trace_for(&cfg, replication_seed(cfg.seed, i)));
        let d = t.elapsed();
        clock.trace.add(d);
        if obs::global().trace_cache_misses.get() != misses {
            clock.trace_build.add(d);
        }
    }

    let queries = cfg.num_queries as u64;
    let shared = Arc::new(cfg);
    let t = Instant::now();
    // Same summation order as the library's pooled and sequential
    // averaging, so the result matches it bit for bit.
    let mean = if threads == 1 {
        let mut sum = 0.0;
        for trace in traces {
            let te = Instant::now();
            sum += Qsim::with_trace(Arc::clone(&shared), trace)?.run_mean_response()?;
            clock.engine_run.add(te.elapsed());
        }
        sum / reps as f64
    } else {
        let tasks: Vec<_> = traces
            .into_iter()
            .map(|trace| {
                let cfg = Arc::clone(&shared);
                move || {
                    let te = Instant::now();
                    let r = Qsim::with_trace(cfg, trace).and_then(Qsim::run_mean_response);
                    (r, te.elapsed())
                }
            })
            .collect();
        let mut means = Vec::with_capacity(reps);
        for slot in SimPool::global().run_ordered(tasks, threads) {
            let (r, d) =
                slot.ok_or_else(|| SprintError::runtime("perfbench", "engine task panicked"))?;
            clock.engine_run.add(d);
            means.push(r?);
        }
        means.into_iter().sum::<f64>() / reps as f64
    };
    clock.engine.add(t.elapsed());
    clock
        .sim_queries
        .fetch_add(queries * reps as u64, Ordering::Relaxed);
    Ok(mean)
}

/// Memo key: every condition field, exactly.
type CondKey = [u64; 6];

fn cond_key(c: &Condition) -> CondKey {
    let (tag, param) = match c.arrival_kind {
        DistKind::Exponential => (0, 0),
        DistKind::Pareto { alpha } => (1, alpha.to_bits()),
        DistKind::Deterministic => (2, 0),
        DistKind::Lognormal { cov } => (3, cov.to_bits()),
        DistKind::Hyperexponential { cov } => (4, cov.to_bits()),
    };
    [
        c.utilization.to_bits(),
        tag << 56 ^ param,
        c.timeout_secs.to_bits(),
        c.budget_frac.to_bits(),
        c.refill_secs.to_bits(),
        0,
    ]
}

/// The timing `ResponseTimeModel` the annealer is handed.
///
/// Untraced, it forwards to the model (after the self-test's injected
/// spin, if any). Traced, it answers through [`decomposed`] with a
/// private trace cache and a private memo of its own, the same work
/// the model's private caches would do, and times every call.
pub struct Probe<'a> {
    model: &'a HybridModel,
    delay: Duration,
    traced: Option<Traced<'a>>,
}

struct Traced<'a> {
    sim: SimOptions,
    cache: TraceCache,
    memo: Mutex<HashMap<CondKey, f64>>,
    memo_hits: AtomicU64,
    calls: &'a Acc,
    clock: &'a PredictClock,
}

impl<'a> Probe<'a> {
    /// Forwards to `model`.
    pub fn plain(model: &'a HybridModel, delay: Duration) -> Probe<'a> {
        Probe {
            model,
            delay,
            traced: None,
        }
    }

    /// Answers through the decomposed pipeline; `sim` must be the
    /// options `model` was built with.
    pub fn traced(
        model: &'a HybridModel,
        delay: Duration,
        sim: SimOptions,
        calls: &'a Acc,
        clock: &'a PredictClock,
    ) -> Probe<'a> {
        Probe {
            model,
            delay,
            traced: Some(Traced {
                sim,
                cache: TraceCache::new(),
                memo: Mutex::new(HashMap::new()),
                memo_hits: AtomicU64::new(0),
                calls,
                clock,
            }),
        }
    }

    /// (memo hits, memo misses, traces cached) of a traced probe.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        self.traced.as_ref().map_or((0, 0, 0), |t| {
            let hits = t.memo_hits.load(Ordering::Relaxed);
            let entries = t.memo.lock().expect("memo lock").len() as u64;
            (hits, entries, t.cache.len())
        })
    }
}

impl ResponseTimeModel for Probe<'_> {
    fn name(&self) -> &'static str {
        "Probe"
    }

    fn predict_response_secs(&self, cond: &Condition) -> f64 {
        let t = Instant::now();
        spin(self.delay);
        let Some(tr) = &self.traced else {
            return self.model.predict_response_secs(cond);
        };
        let key = cond_key(cond);
        let hit = tr.memo.lock().expect("memo lock").get(&key).copied();
        let v = match hit {
            Some(v) => {
                tr.memo_hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                let v = decomposed(self.model, &tr.sim, &tr.cache, cond, tr.clock)
                    .expect("config derived from a validated profile simulates");
                tr.memo.lock().expect("memo lock").insert(key, v);
                v
            }
        };
        tr.calls.add(t.elapsed());
        v
    }

    fn profile(&self) -> &profiler::WorkloadProfile {
        self.model.profile()
    }
}
