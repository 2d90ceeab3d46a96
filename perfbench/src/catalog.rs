//! `catalog`: one op is a full pass of `scenario::run_plan`'s body
//! (`execute`, then `check_invariants`) over the benchmark's pinned
//! copy of the 12 catalog files (`catalog/`), each at its committed
//! seed. The repository's `scenarios/` directory is never read, so
//! catalog growth does not change this workload's work. `--seed` only
//! picks the scenario a pass starts at.

use std::path::{Path, PathBuf};
use std::time::Instant;

use scenario::{check_invariants, execute, metric, ScenarioPlan};
use simcore::SprintError;

use crate::measure::{
    combine, ms, quantile, timed, Acc, Counts, Ctx, Digest, Expect, HostRef, Outcome, Setup, Traced,
};

/// Files in the pinned catalog.
const PLANS: usize = 12;

/// Topologies, in the order their layers are reported.
const TOPOLOGIES: [&str; 3] = ["cloning", "single-node", "fleet"];
const EXEC: [&str; 3] = [
    "scenario.exec_ms.cloning",
    "scenario.exec_ms.single-node",
    "scenario.exec_ms.fleet",
];
const INVARIANTS: [&str; 3] = [
    "scenario.invariants_ms.cloning",
    "scenario.invariants_ms.single-node",
    "scenario.invariants_ms.fleet",
];

fn catalog_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog")
}

/// Reads and parses the pinned catalog, sorted by file name; parse
/// time alone goes to `parse`.
fn load(parse: &Acc) -> Result<Vec<ScenarioPlan>, SprintError> {
    let dir = catalog_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| SprintError::Io(format!("reading {}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    let mut texts = Vec::with_capacity(files.len());
    for f in &files {
        texts.push(
            std::fs::read_to_string(f)
                .map_err(|e| SprintError::Io(format!("reading {}: {e}", f.display())))?,
        );
    }
    let (plans, d) = timed(|| {
        texts
            .iter()
            .map(|t| ScenarioPlan::from_toml_str(t))
            .collect::<Result<Vec<_>, _>>()
    });
    parse.add(d);
    let plans = plans?;
    if plans.len() != PLANS {
        return Err(SprintError::invalid(
            "perfbench::catalog",
            format!("expected {PLANS} pinned scenarios, found {}", plans.len()),
        ));
    }
    Ok(plans)
}

/// Outcome metrics folded into the output digest, per scenario. A
/// metric the topology does not report folds in as NaN.
const DIGEST_METRICS: [&str; 4] = [
    "served",
    "mean_response_secs",
    "p99_response_secs",
    "sprint_fraction",
];

/// Per-topology layer clocks of a traced pass.
type Clocks = ([Acc; 3], [Acc; 3]);

/// One pass: `run_plan`'s body (`execute`, then `check_invariants`)
/// per scenario in `order`, with each call timed per topology when
/// `clocks` is given. Returns the digest of every scenario's outcome
/// metrics and verdict, or `None` if any verdict failed.
fn pass(order: &[&ScenarioPlan], clocks: Option<&Clocks>) -> Result<Option<u64>, SprintError> {
    let mut results = Vec::with_capacity(PLANS);
    let mut passed = true;
    for plan in order {
        let k = topology(plan);
        let (outcome, d) = timed(|| execute(plan, plan.seed));
        let outcome = outcome?;
        let (violations, d2) = timed(|| check_invariants(plan, &outcome, plan.seed));
        let violations = violations?;
        if let Some((exec, inv)) = clocks {
            exec[k].add(d);
            inv[k].add(d2);
        }
        passed &= violations.is_empty();
        let mut d = Digest::default();
        d.str(&plan.name)
            .word(plan.seed)
            .word(plan.invariants.len() as u64)
            .word(violations.len() as u64);
        for name in DIGEST_METRICS {
            d.f(metric(plan, &outcome, name).unwrap_or(f64::NAN));
        }
        results.push((&plan.name, d.get()));
    }
    results.sort();
    let mut d = Digest::default();
    for (_, v) in &results {
        d.word(*v);
    }
    Ok(passed.then(|| d.get()))
}

fn topology(plan: &ScenarioPlan) -> usize {
    let name = plan.topology.name();
    TOPOLOGIES
        .iter()
        .position(|&t| t == name)
        .expect("known topology")
}

/// Runs the workload.
///
/// # Errors
///
/// Harness failures only; a failed op is counted, not returned.
pub fn run(ctx: &Ctx) -> Result<Outcome, SprintError> {
    let parse = Acc::default();
    let mut host = HostRef::new(ctx.inject_footprint_mb);
    let mut setup = Setup::default();
    let plans = setup.run(&mut host, || load(&parse))?;
    let start = ctx.seed as usize % plans.len();
    let order: Vec<&ScenarioPlan> = (0..plans.len())
        .map(|k| &plans[(start + k) % plans.len()])
        .collect();

    let mut out = Outcome {
        work_unit: "scenario runs",
        ..Outcome::default()
    };
    let mut outputs = Expect::new(1);
    let mut counts = Expect::new(1);
    let mut traced = Traced::default();
    let clocks = Clocks::default();
    let mut passes = 0;

    let started = Instant::now();
    while !ctx.window_closed(started) {
        passes += 1;
        // A: the untraced op.
        let (res, d) = timed(|| pass(&order, None));
        out.attempted += 1;
        let a = match res {
            Ok(Some(digest)) if outputs.check(0, digest) => digest,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.record(&mut host, d);
        out.work += PLANS as f64;
        setup.repeat(&mut host, started, || load(&parse));
        if !ctx.trace {
            continue;
        }
        // B: obs counting; counts repeat exactly per pass.
        out.attempted += 1;
        let (res, b) = Counts::around(|| pass(&order, None));
        let b_ok = matches!(res, Ok(Some(digest)) if digest == a) && counts.check(0, b);
        // C: the pass with execute and check_invariants timed per
        // topology.
        out.attempted += 1;
        let (res, d) = timed(|| pass(&order, Some(&clocks)));
        traced.op_ms.push(ms(d));
        let c_ok = matches!(res, Ok(Some(digest)) if digest == a);
        out.failed += u64::from(!b_ok) + u64::from(!c_ok);
    }

    out.setup = setup;
    out.ref_kernel_ms = host.samples;
    out.ref_swept = host.swept;
    out.digest = combine(outputs.firsts());
    out.info = vec![
        (
            "catalog".into(),
            format!("{PLANS} pinned files in {}", catalog_dir().display()),
        ),
        ("passes".into(), passes.to_string()),
        ("threads".into(), "1 (scenarios run serially)".into()),
    ];
    if ctx.trace {
        let mut cd = Digest::default();
        for v in counts.firsts().iter().flatten() {
            v.digest(&mut cd);
        }
        out.info
            .push(("counter digest".into(), format!("{:016x}", cd.get())));
        let (exec, inv) = &clocks;
        traced.leaves = (0..3)
            .flat_map(|k| [(EXEC[k], exec[k].ms()), (INVARIANTS[k], inv[k].ms())])
            .collect();
        // Parse time per catalog load, from the set-ups.
        traced.metrics = vec![(
            "scenario.parse_ms",
            parse.ms() / parse.calls().max(1) as f64,
        )];
        out.info.push((
            "traced op p50 ms".into(),
            format!("{:.3}", quantile(&traced.op_ms, 0.5)),
        ));
        out.traced = Some(traced);
    }
    Ok(out)
}
