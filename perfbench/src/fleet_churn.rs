//! `fleet-churn`: a 400-node `FleetSpec::small` fleet under control-
//! plane faults: the primary coordinator crashes at 120 s, a 120 s
//! partition cuts nodes 0–99 off from every coordinator, and 2% of
//! messages drop while 5% are delayed by up to 2 s.
//!
//! One op is one `run_fleet` over one spec. Every run covers the five
//! pinned fleet seeds a whole number of times; `--seed` only picks the
//! seed the cycle starts at. Every run must be `invariants_clean` and
//! serve every query.

use std::time::Instant;

use faults::MessageFaults;
use fleet::{
    run_fleet, run_fleet_journaled, CoordinatorCrash, FleetPartition, FleetResult, FleetSpec,
};
use simcore::SprintError;

use crate::measure::{
    combine, ms, quantile, timed, Acc, Counts, Ctx, Digest, Expect, HostRef, Outcome, Setup, Traced,
};

/// Pinned fleet seeds (odd count: see `cold_policy::INPUTS`).
const SEEDS: [u64; 5] = [0xF1, 0xF2, 0xF3, 0xF4, 0xF5];

/// Fleet size.
const NODES: u32 = 400;

fn spec(seed: u64) -> Result<FleetSpec, SprintError> {
    let mut spec = FleetSpec::small(seed, NODES)?;
    spec.faults.messages = MessageFaults {
        drop_prob: 0.02,
        delay_prob: 0.05,
        delay_secs: 2.0,
        ..MessageFaults::default()
    };
    spec.faults.coordinator_crashes = vec![CoordinatorCrash {
        coordinator: 0,
        at_secs: 120.0,
        repair_secs: 0.0,
    }];
    spec.faults.partitions = vec![FleetPartition {
        coords_a: Vec::new(),
        nodes_a_lo: 0,
        nodes_a_hi: 100,
        start_secs: 240.0,
        duration_secs: 120.0,
    }];
    spec.validate()?;
    Ok(spec)
}

fn specs() -> Result<Vec<FleetSpec>, SprintError> {
    SEEDS.iter().map(|&s| spec(s)).collect()
}

/// Digest of everything a fleet run reports (telemetry aside).
fn digest(r: &FleetResult) -> u64 {
    let mut d = Digest::default();
    d.word(r.served)
        .f(r.horizon_secs)
        .f(r.mean_response_secs)
        .f(r.sprint_fraction)
        .f(r.budget_utilization)
        .word(u64::from(r.peak_held_power))
        .word(r.forced_unsprints)
        .word(r.violations.len() as u64)
        .str(&format!("{:?} {:?}", r.stats, r.counters));
    d.get()
}

fn healthy(spec: &FleetSpec, r: &FleetResult) -> bool {
    r.invariants_clean() && r.served == u64::from(spec.queries_total)
}

/// Runs the workload.
///
/// # Errors
///
/// Harness failures only; a failed op is counted, not returned.
pub fn run(ctx: &Ctx) -> Result<Outcome, SprintError> {
    let mut host = HostRef::new(ctx.inject_footprint_mb);
    let mut setup = Setup::default();
    let specs = setup.run(&mut host, specs)?;
    let start = ctx.seed as usize % specs.len();
    let order: Vec<usize> = (0..specs.len())
        .map(|k| (start + k) % specs.len())
        .collect();

    let mut out = Outcome {
        work_unit: "simulated queries served",
        ..Outcome::default()
    };
    let mut outputs = Expect::new(specs.len());
    let mut counts = Expect::new(specs.len());
    let mut events = Expect::new(specs.len());
    let mut traced = Traced::default();
    let (spec_clock, run_clock) = (Acc::default(), Acc::default());
    let (mut total_events, mut elections, mut expiries, mut retries, mut rpcs) = (0u64, 0, 0, 0, 0);
    let mut cycles = 0;

    let started = Instant::now();
    while !ctx.window_closed(started) {
        cycles += 1;
        for &i in &order {
            let spec = &specs[i];
            // A: the untraced op.
            let (res, d) = timed(|| run_fleet(spec));
            out.attempted += 1;
            let a = match res {
                Ok(r) if healthy(spec, &r) && outputs.check(i, digest(&r)) => r,
                _ => {
                    out.failed += 1;
                    continue;
                }
            };
            out.record(&mut host, d);
            out.work += a.served as f64;
            setup.repeat(&mut host, started, self::specs);
            if !ctx.trace {
                continue;
            }
            // B: obs counting; counts repeat exactly per seed.
            out.attempted += 1;
            let (res, b) = Counts::around(|| run_fleet(spec));
            let b_ok = res.is_ok_and(|r| digest(&r) == digest(&a)) && counts.check(i, b);
            // C: spec construction and the run, timed; then a
            // journaled rerun for the reactor's event count.
            out.attempted += 1;
            let t = Instant::now();
            let (spec_c, d_spec) = timed(|| self::spec(SEEDS[i]));
            spec_clock.add(d_spec);
            let (res, d_run) = match spec_c {
                Ok(s) => timed(|| run_fleet(&s)),
                Err(e) => (Err(e), t.elapsed()),
            };
            run_clock.add(d_run);
            traced.op_ms.push(ms(t.elapsed()));
            let c_ok = res.is_ok_and(|r| digest(&r) == digest(&a));
            let j_ok = match run_fleet_journaled(spec) {
                Ok((r, journal)) => {
                    total_events += journal.len() as u64;
                    elections += r.stats.elections;
                    expiries += r.stats.expiries;
                    retries += r.stats.retries;
                    rpcs += r.stats.grants + r.stats.renewals + r.stats.denials + r.stats.releases;
                    digest(&r) == digest(&a) && events.check(i, journal.len())
                }
                Err(_) => false,
            };
            out.failed += u64::from(!b_ok) + u64::from(!(c_ok && j_ok));
        }
    }

    out.setup = setup;
    out.ref_kernel_ms = host.samples;
    out.ref_swept = host.swept;
    out.digest = combine(outputs.firsts());
    out.info = vec![
        ("seeds".into(), format!("{SEEDS:?}, {NODES} nodes")),
        ("cycles".into(), cycles.to_string()),
        ("threads".into(), "1 (run_fleet is single-threaded)".into()),
    ];
    if ctx.trace {
        let ops = traced.op_ms.len().max(1) as f64;
        let mut cd = Digest::default();
        for v in counts.firsts().iter().flatten() {
            v.digest(&mut cd);
        }
        for v in events.firsts().iter().flatten() {
            cd.word(*v as u64);
        }
        out.info
            .push(("counter digest".into(), format!("{:016x}", cd.get())));
        traced.leaves = vec![
            ("fleet.spec_ms", spec_clock.ms()),
            ("fleet.run_ms", run_clock.ms()),
        ];
        traced.metrics = vec![
            ("reactor.events", total_events as f64 / ops),
            (
                "fleet.us_per_event",
                run_clock.ms() * 1e3 / total_events.max(1) as f64,
            ),
            ("fleet.lease_rpcs", rpcs as f64 / ops),
            ("fleet.elections", elections as f64 / ops),
            ("fleet.expiries", expiries as f64 / ops),
            ("fleet.retries", retries as f64 / ops),
        ];
        out.info.push((
            "traced op p50 ms".into(),
            format!("{:.3}", quantile(&traced.op_ms, 0.5)),
        ));
        out.traced = Some(traced);
    }
    Ok(out)
}
