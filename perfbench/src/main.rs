//! The repository benchmark: four closed-loop workloads driven through
//! the public API by one caller, end-to-end metrics from untraced runs
//! and per-layer metrics from a separate traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-policy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a human-readable report.

mod catalog;
mod cold_policy;
mod fleet_churn;
mod measure;
mod predict;
mod whatif;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use measure::{peak_rss_mb, quantile, Ctx, Outcome, REF_NOMINAL_MS};

const USAGE: &str = "usage: perfbench --workload <cold-policy|whatif-fresh|fleet-churn|catalog> \
                     [--seed N] [--seconds S] [--trace 0|1] [--inject-delay-us US] \
                     [--inject-footprint-mb MB]";

const WORKLOADS: [&str; 4] = ["cold-policy", "whatif-fresh", "fleet-churn", "catalog"];

/// Default workload seed.
const DEFAULT_SEED: u64 = 1;

/// Largest share by which the traced op's median may differ from the
/// untraced op's before the report flags the layer table as stale:
/// the traced op runs the benchmark's own copies of some library
/// internals (see `README.md`), which can drift from the library.
const DRIFT_MARGIN: f64 = 0.15;

/// Every per-layer metric and its unit, in report order. A traced run
/// prints all of them; a layer the workload does not touch reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("op_ms", "ms"),
    ("residual_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("host.ref_ms", "ms"),
    ("testbed.profile_ms", "ms"),
    ("calibrate.ms", "ms"),
    ("calibrate.busy_ms", "ms"),
    ("calibrate.sims", "count"),
    ("forest.train_ms", "ms"),
    ("forest.infer_ms", "ms"),
    ("forest.infer_us", "us"),
    ("anneal.ms", "ms"),
    ("anneal.predict_ms", "ms"),
    ("anneal.candidates", "count"),
    ("anneal.predict_us", "us"),
    ("qsim.trace_ms", "ms"),
    ("qsim.trace_build_us", "us"),
    ("qsim.trace_builds", "count"),
    ("qsim.engine_ms", "ms"),
    ("qsim.engine_us", "us"),
    ("qsim.engine_runs", "count"),
    ("qsim.ns_per_sim_query", "ns"),
    ("trace_cache.hit_ratio", "ratio"),
    ("trace_cache.entries", "count"),
    ("trace_cache.resident_mb", "MB"),
    ("memo.hit_ratio", "ratio"),
    ("sim_evals", "count"),
    ("reactor.events", "count"),
    ("fleet.spec_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.us_per_event", "us"),
    ("fleet.lease_rpcs", "count"),
    ("fleet.elections", "count"),
    ("fleet.expiries", "count"),
    ("fleet.retries", "count"),
    ("scenario.parse_ms", "ms"),
    ("scenario.exec_ms.cloning", "ms"),
    ("scenario.exec_ms.single-node", "ms"),
    ("scenario.exec_ms.fleet", "ms"),
    ("scenario.invariants_ms.cloning", "ms"),
    ("scenario.invariants_ms.single-node", "ms"),
    ("scenario.invariants_ms.fleet", "ms"),
    ("model_err_pct", "%"),
];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        nproc,
        inject_delay: Duration::ZERO,
        inject_footprint_mb: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => ctx.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => ctx.seconds = num(&value)?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--inject-delay-us" => ctx.inject_delay = Duration::from_secs_f64(num(&value)? / 1e6),
            "--inject-footprint-mb" => {
                ctx.inject_footprint_mb = value
                    .parse::<usize>()
                    .ok()
                    .filter(|mb| mb.is_power_of_two())
                    .ok_or(format!(
                        "--inject-footprint-mb takes a power of two, not {value}"
                    ))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let result = match args.workload.as_str() {
        "cold-policy" => cold_policy::run(ctx),
        "whatif-fresh" => whatif::run(ctx),
        "fleet-churn" => fleet_churn::run(ctx),
        _ => catalog::run(ctx),
    };
    match result {
        Ok(out) => {
            print!("{}", report(&args.workload, ctx, &out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// The human-readable report followed by the JSON result line.
fn report(workload: &str, ctx: &Ctx, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench {workload}: seed {} seconds {} trace {} nproc {} inject_delay_us {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.nproc,
        ctx.inject_delay.as_secs_f64() * 1e6
    );
    for (k, v) in &out.info {
        let _ = writeln!(s, "  {k}: {v}");
    }
    let n = out.op_ms.len();
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "  ops: {n} untraced ({} samples beyond p90), {} attempted, {} failed, failed_frac {failed_frac}",
        n - (0.9 * n as f64).ceil() as usize,
        out.attempted,
        out.failed
    );
    let _ = writeln!(s, "  output digest: {:016x}", out.digest);
    let q = |v: &[f64], p| quantile(v, p);
    for (label, v) in [
        ("raw host", &out.op_ms),
        ("at reference speed", &out.ref_op_ms),
    ] {
        let _ = writeln!(
            s,
            "  op ms, {label}: min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
            q(v, 0.0),
            q(v, 0.1),
            q(v, 0.25),
            q(v, 0.5),
            q(v, 0.75),
            q(v, 0.9),
            q(v, 1.0)
        );
    }
    let u = &out.setup;
    let _ = writeln!(
        s,
        "  set-up s ({} set-ups): p50 {:.6} raw host, {:.6} at reference speed",
        u.secs.len(),
        q(&u.raw_secs, 0.5),
        q(&u.secs, 0.5)
    );
    let k = &out.ref_kernel_ms;
    let _ = writeln!(
        s,
        "  reference kernel ms ({} probes, nominal {REF_NOMINAL_MS}): p10 {:.4} p50 {:.4} p90 {:.4}",
        k.len(),
        q(k, 0.1),
        q(k, 0.5),
        q(k, 0.9)
    );
    if ctx.inject_footprint_mb > 0 {
        let pick = |swept: bool| -> Vec<f64> {
            k.iter()
                .zip(&out.ref_swept)
                .filter(|&(_, &w)| w == swept)
                .map(|(&v, _)| v)
                .collect()
        };
        let (swept, plain) = (pick(true), pick(false));
        let _ = writeln!(
            s,
            "  footprint self-test: kernel p50 {:.4} ms after a {} MiB sweep ({} probes), \
             {:.4} ms after none ({} probes); ratio {:.4}",
            q(&swept, 0.5),
            ctx.inject_footprint_mb,
            swept.len(),
            q(&plain, 0.5),
            plain.len(),
            q(&swept, 0.5) / q(&plain, 0.5)
        );
    }

    let end_to_end = [
        ("setup_s", q(&u.secs, 0.5), "s"),
        ("op_ms_p50", q(&out.ref_op_ms, 0.5), "ms"),
        ("op_ms_p90", q(&out.ref_op_ms, 0.9), "ms"),
        (
            "work_per_s",
            out.work * 1e3 / out.ref_op_ms.iter().sum::<f64>().max(1e-12),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let _ = writeln!(
        s,
        "  end-to-end (host times at reference speed; work = {}):",
        out.work_unit
    );
    for (name, v, unit) in end_to_end {
        let _ = writeln!(s, "    {name:<24} {v:>14.4} {unit}");
    }

    let metrics: Vec<(&str, f64, &str)> = match &out.traced {
        None => end_to_end.to_vec(),
        Some(t) => {
            let op = t.per_op(t.op_ms.iter().sum());
            let layers: f64 = t.leaves.iter().map(|&(_, v)| t.per_op(v)).sum();
            let _ = writeln!(
                s,
                "  layers (traced, ms per op over {} ops; layers + residual = op total):",
                t.op_ms.len()
            );
            for &(name, v) in &t.leaves {
                let v = t.per_op(v);
                let _ = writeln!(s, "    {name:<34} {v:>12.4} ms {:>6.1}%", share(v, op));
                for &(parent, child, cv) in &t.nested {
                    if parent == name {
                        nested(&mut s, t, child, cv, op, 1);
                    }
                }
            }
            let _ = writeln!(
                s,
                "    {:<34} {:>12.4} ms {:>6.1}%",
                "residual",
                op - layers,
                share(op - layers, op)
            );
            let _ = writeln!(s, "    {:<34} {op:>12.4} ms", "op total");
            let drift = quantile(&t.op_ms, 0.5) / quantile(&out.op_ms, 0.5).max(1e-12) - 1.0;
            if drift.abs() > DRIFT_MARGIN {
                let _ = writeln!(
                    s,
                    "  STALE LAYER TABLE: traced op p50 differs from untraced by {:+.1}% \
                     (margin {:.0}%); the benchmark's copies of library internals may have drifted",
                    100.0 * drift,
                    100.0 * DRIFT_MARGIN
                );
            }
            let mut values: Vec<(&str, f64)> = vec![
                ("op_ms", op),
                ("residual_ms", op - layers),
                ("trace_overhead_frac", drift),
                ("failed_frac", failed_frac),
                ("host.ref_ms", quantile(&out.ref_kernel_ms, 0.5)),
            ];
            values.extend(t.leaves.iter().map(|&(k, v)| (k, t.per_op(v))));
            values.extend(t.nested.iter().map(|&(_, k, v)| (k, t.per_op(v))));
            values.extend(t.metrics.iter().copied());
            let _ = writeln!(s, "  per-layer:");
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = values
                        .iter()
                        .find(|&&(k, _)| k == name)
                        .map_or(0.0, |&(_, v)| v);
                    let _ = writeln!(s, "    {name:<34} {v:>14.4} {unit}");
                    (name, v, unit)
                })
                .collect()
        }
    };

    let correct = out.failed == 0 && out.attempted > 0;
    let mut json = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    let _ = writeln!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted, out.failed
    );
    s
}

fn share(v: f64, total: f64) -> f64 {
    100.0 * v / total.max(1e-12)
}

fn nested(s: &mut String, t: &measure::Traced, name: &str, v: f64, op: f64, depth: usize) {
    let v = t.per_op(v);
    let label = format!("{}- {name}", "  ".repeat(depth));
    let _ = writeln!(s, "    {label:<34} {v:>12.4} ms {:>6.1}%", share(v, op));
    for &(parent, child, cv) in &t.nested {
        if parent == name {
            nested(s, t, child, cv, op, depth + 1);
        }
    }
}
