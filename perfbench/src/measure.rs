//! Shared measurement plumbing: run context, op loop bookkeeping,
//! quantiles, exact work counters read from `obs`, digests, peak RSS.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Measurement window (`--seconds`).
    pub seconds: f64,
    /// Traced run (`--trace 1`): per-layer numbers instead of
    /// end-to-end ones.
    pub trace: bool,
    /// `std::thread::available_parallelism`; every thread count the
    /// workloads set is at most this.
    pub nproc: usize,
    /// Self-test: spin this long inside the benchmark's timing
    /// `ResponseTimeModel` wrapper on every prediction (cold-policy).
    pub inject_delay: Duration,
    /// Self-test: sweep this many MiB before every other host probe
    /// (see [`HostRef::new`]).
    pub inject_footprint_mb: usize,
}

impl Ctx {
    /// Whether the measurement window has closed.
    pub fn window_closed(&self, started: Instant) -> bool {
        started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Everything a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up times (see [`Setup`]).
    pub setup: Setup,
    /// Untraced op latencies, raw host ms (in traced runs: the
    /// untraced variant interleaved with the traced one).
    pub op_ms: Vec<f64>,
    /// The same latencies at reference host speed (see [`HostRef`]).
    pub ref_op_ms: Vec<f64>,
    /// Reference kernel times, ms.
    pub ref_kernel_ms: Vec<f64>,
    /// Whether each kernel time followed a footprint sweep.
    pub ref_swept: Vec<bool>,
    /// Work done by the ops in `op_ms`, in `work_unit`s.
    pub work: f64,
    /// What one unit of `work` is.
    pub work_unit: &'static str,
    /// Ops attempted (all variants).
    pub attempted: u64,
    /// Ops that returned an error or failed an output/counter check.
    pub failed: u64,
    /// Order-independent digest of every checked output; equal across
    /// runs of the same code and seed.
    pub digest: u64,
    /// Extra `key: value` lines for the human-readable report.
    pub info: Vec<(String, String)>,
    /// Per-layer results (traced runs only).
    pub traced: Option<Traced>,
}

impl Outcome {
    /// Records one untraced op of raw host time `d`, probing the host
    /// first if it is due.
    pub fn record(&mut self, host: &mut HostRef, d: Duration) {
        host.tick();
        self.op_ms.push(ms(d));
        self.ref_op_ms.push(ms(d) * host.factor());
    }
}

/// Per-layer results of a traced run.
#[derive(Debug, Default)]
pub struct Traced {
    /// Traced op totals, ms.
    pub op_ms: Vec<f64>,
    /// Top-level layers: per-layer-metric name and total ms over all
    /// traced ops. They are disjoint, so together with the residual
    /// they sum to the traced op total.
    pub leaves: Vec<(&'static str, f64)>,
    /// Nested layers shown under a leaf: (parent, name, total ms).
    pub nested: Vec<(&'static str, &'static str, f64)>,
    /// Every other per-layer metric, final value.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Traced {
    /// Mean per traced op of a total.
    pub fn per_op(&self, total: f64) -> f64 {
        total / self.op_ms.len().max(1) as f64
    }
}

/// A `Sync` accumulator of busy time and call count.
#[derive(Debug, Default)]
pub struct Acc {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Acc {
    /// Adds one call of duration `d`.
    pub fn add(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean microseconds per call (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            0.0
        } else {
            self.ms() * 1e3 / calls as f64
        }
    }
}

/// Runs `f` and returns its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Busy-waits for `d` (the self-test's injected delay; a sleep would
/// hand the core to another thread and measure the scheduler).
pub fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Linearly interpolated quantile of unsorted samples (0 if empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Share of the window spent repeating the set-up between ops.
const SETUP_SHARE: f64 = 0.05;

/// Set-up timing. The set-up runs once before the first op and is
/// repeated between ops for about [`SETUP_SHARE`] of the window, so
/// that its median, like the op latencies, is taken over the whole
/// run rather than over one instant of host speed.
#[derive(Debug, Default)]
pub struct Setup {
    /// Every set-up's host time at reference speed, seconds.
    pub secs: Vec<f64>,
    /// Every set-up's raw host time, seconds.
    pub raw_secs: Vec<f64>,
    spent: Duration,
}

impl Setup {
    /// Runs and times the set-up once.
    pub fn run<T>(&mut self, host: &mut HostRef, f: impl FnOnce() -> T) -> T {
        let (out, d) = timed(f);
        host.tick();
        self.raw_secs.push(d.as_secs_f64());
        self.secs.push(d.as_secs_f64() * host.factor());
        self.spent += d;
        out
    }

    /// Repeats the set-up (discarding its result) if the repeats have
    /// taken less than their share of the window since `started`.
    pub fn repeat<T>(&mut self, host: &mut HostRef, started: Instant, f: impl FnOnce() -> T) {
        if self.spent.as_secs_f64() < SETUP_SHARE * started.elapsed().as_secs_f64() {
            drop(self.run(host, f));
        }
    }
}

/// Iterations of the reference kernel (0.6–1.1 ms a pass on a 2-vCPU
/// cloud VM, depending on host load).
const REF_ITERATIONS: u64 = 150_000;

/// The reference kernel's nominal time, ms. Host times are reported
/// as if the kernel had taken exactly this long.
pub const REF_NOMINAL_MS: f64 = 1.0;

/// Least host time between two probes.
const REF_EVERY: Duration = Duration::from_millis(20);

/// Probes of this recent stretch of host time set the scale: long
/// enough to smooth the kernel's own jitter, short enough to follow a
/// slow spell.
const REF_SPAN: Duration = Duration::from_millis(250);

/// Fewest probes that set the scale.
const REF_MIN_PROBES: usize = 3;

/// Host-speed reference. On a shared cloud VM the host runs slow for
/// spells of seconds to minutes (1.3–1.8× on every op; the guest sees
/// no steal time), which no statistic over one run can remove when a
/// spell covers the whole run, and which moves the medians of two
/// sets of runs apart. The spells look like contention for the host's
/// shared last-level cache and memory, so between ops the benchmark
/// times a fixed kernel of its own that feels the same contention:
/// random updates of a 1 MiB table held in the shared cache, plus
/// float work, no repository code. The kernel must not depend on the
/// op before it, or an op that shrank its working set would speed the
/// kernel up and lengthen its own scaled time. So an untimed pass loads
/// the table, a write stream twice the size of the private L2 pushes
/// it out to the shared cache, one word per page puts its pages back
/// in the TLB, and only then is a pass timed (`--inject-footprint-mb`
/// checks this). A host time is scaled by `REF_NOMINAL_MS / kernel
/// time`, the kernel time being the median of the probes of the last
/// [`REF_SPAN`] (at least [`REF_MIN_PROBES`]). Raw host times are
/// reported beside the scaled ones.
#[derive(Debug)]
pub struct HostRef {
    table: Vec<u64>,
    flush: Vec<u64>,
    /// Self-test (`--inject-footprint-mb`): a buffer swept with
    /// random updates before every other probe.
    sweep: Vec<u64>,
    /// Every probe's kernel time, ms.
    pub samples: Vec<f64>,
    /// Whether each probe followed a sweep.
    pub swept: Vec<bool>,
    /// When each probe ended.
    ended: Vec<Instant>,
}

impl HostRef {
    /// A reference with [`REF_MIN_PROBES`] probes already taken; with
    /// `footprint_mb > 0`, every other later probe first sweeps that
    /// many MiB, as an op with a larger memory footprint would.
    pub fn new(footprint_mb: usize) -> HostRef {
        let mut h = HostRef {
            table: vec![0; 1 << 17],
            flush: vec![0; 1 << 19],
            sweep: vec![0; footprint_mb << 17],
            samples: Vec::new(),
            swept: Vec::new(),
            ended: Vec::new(),
        };
        for _ in 0..REF_MIN_PROBES {
            h.probe();
            h.swept.push(false);
        }
        h
    }

    /// Probes if [`REF_EVERY`] has passed since the last probe.
    pub fn tick(&mut self) {
        if self.ended.last().is_none_or(|t| t.elapsed() >= REF_EVERY) {
            let sweep = !self.sweep.is_empty() && self.samples.len() % 2 == 1;
            if sweep {
                let mask = self.sweep.len() - 1;
                let mut x = self.samples.len() as u64 | 1;
                for _ in 0..self.sweep.len() / 8 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let j = x as usize & mask;
                    self.sweep[j] = self.sweep[j].wrapping_add(x);
                }
            }
            self.probe();
            self.swept.push(sweep);
        }
    }

    /// One probe: load the table, push it out of the private L2 with a
    /// write stream, touch one word per page so the TLB holds the
    /// table again, then time one pass.
    fn probe(&mut self) {
        self.kernel();
        for line in self.flush.chunks_mut(8) {
            line[0] = line[0].wrapping_add(1);
        }
        std::hint::black_box(&self.flush);
        let pages = self
            .table
            .chunks(512)
            .fold(0u64, |a, p| a.wrapping_add(p[0]));
        std::hint::black_box(pages);
        let t = Instant::now();
        self.kernel();
        self.samples.push(ms(t.elapsed()));
        self.ended.push(Instant::now());
    }

    fn kernel(&mut self) {
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for _ in 0..REF_ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            self.table[j] = self.table[j].wrapping_add(x);
            acc += (x >> 11) as f64 * 1e-9;
        }
        std::hint::black_box(acc);
    }

    /// Scale from raw host time to reference host time.
    pub fn factor(&self) -> f64 {
        let now = Instant::now();
        let in_span = self
            .ended
            .iter()
            .rev()
            .take_while(|&&t| now - t <= REF_SPAN)
            .count();
        let n = in_span.max(REF_MIN_PROBES).min(self.samples.len());
        REF_NOMINAL_MS / quantile(&self.samples[self.samples.len() - n..], 0.5)
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds the exact bits of a float in.
    pub fn f(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds a string in.
    pub fn str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// The digest value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Combines per-input digests in input order, so a run's digest does
/// not depend on where `--seed` started the cycle.
pub fn combine(per_input: &[Option<u64>]) -> u64 {
    let mut d = Digest::default();
    for v in per_input {
        d.word(v.unwrap_or(0));
    }
    d.get()
}

/// Exact work counters from the process-wide `obs` registry. They
/// only count while `obs` is enabled (traced runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulator-backed predictions and calibration evaluations.
    pub sim_evals: u64,
    /// CRN trace-cache hits.
    pub trace_hits: u64,
    /// CRN trace-cache misses (materializations).
    pub trace_misses: u64,
    /// Prediction-memo hits.
    pub memo_hits: u64,
    /// Prediction-memo misses.
    pub memo_misses: u64,
    /// Annealing searches.
    pub anneal_searches: u64,
    /// Annealing candidates evaluated.
    pub anneal_candidates: u64,
    /// Fleet lease renewals.
    pub lease_renewals: u64,
    /// Fleet lease expiries.
    pub lease_expiries: u64,
    /// Sprints engaged (testbed and fleet nodes).
    pub sprints_engaged: u64,
}

impl Counts {
    /// Current registry values.
    pub fn now() -> Counts {
        let g = obs::global();
        Counts {
            sim_evals: g.sim_evals.get(),
            trace_hits: g.trace_cache_hits.get(),
            trace_misses: g.trace_cache_misses.get(),
            memo_hits: g.memo_hits.get(),
            memo_misses: g.memo_misses.get(),
            anneal_searches: g.anneal_searches.get(),
            anneal_candidates: g.anneal_candidates.get(),
            lease_renewals: g.lease_renewals.get(),
            lease_expiries: g.lease_expiries.get(),
            sprints_engaged: g.sprints_engaged.get(),
        }
    }

    /// Counts accrued since `before`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            sim_evals: self.sim_evals - before.sim_evals,
            trace_hits: self.trace_hits - before.trace_hits,
            trace_misses: self.trace_misses - before.trace_misses,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            anneal_searches: self.anneal_searches - before.anneal_searches,
            anneal_candidates: self.anneal_candidates - before.anneal_candidates,
            lease_renewals: self.lease_renewals - before.lease_renewals,
            lease_expiries: self.lease_expiries - before.lease_expiries,
            sprints_engaged: self.sprints_engaged - before.sprints_engaged,
        }
    }

    /// Runs `f` with `obs` enabled and returns its result with the
    /// counts it accrued.
    pub fn around<T>(f: impl FnOnce() -> T) -> (T, Counts) {
        obs::set_enabled(true);
        let before = Counts::now();
        let out = f();
        let delta = Counts::now().since(before);
        obs::set_enabled(false);
        (out, delta)
    }

    /// Digest of every field.
    pub fn digest(&self, d: &mut Digest) {
        for v in [
            self.sim_evals,
            self.trace_hits,
            self.trace_misses,
            self.memo_hits,
            self.memo_misses,
            self.anneal_searches,
            self.anneal_candidates,
            self.lease_renewals,
            self.lease_expiries,
            self.sprints_engaged,
        ] {
            d.word(v);
        }
    }

    /// Hit ratio of a (hits, misses) pair; 0 when nothing was looked up.
    pub fn ratio(hits: u64, misses: u64) -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, o: Counts) -> Counts {
        Counts {
            sim_evals: self.sim_evals + o.sim_evals,
            trace_hits: self.trace_hits + o.trace_hits,
            trace_misses: self.trace_misses + o.trace_misses,
            memo_hits: self.memo_hits + o.memo_hits,
            memo_misses: self.memo_misses + o.memo_misses,
            anneal_searches: self.anneal_searches + o.anneal_searches,
            anneal_candidates: self.anneal_candidates + o.anneal_candidates,
            lease_renewals: self.lease_renewals + o.lease_renewals,
            lease_expiries: self.lease_expiries + o.lease_expiries,
            sprints_engaged: self.sprints_engaged + o.sprints_engaged,
        }
    }
}

/// Remembers the first value seen per input and reports whether a
/// later one repeats it exactly.
#[derive(Debug)]
pub struct Expect<T> {
    seen: Vec<Option<T>>,
}

impl<T: PartialEq + Copy> Expect<T> {
    /// One slot per input.
    pub fn new(inputs: usize) -> Expect<T> {
        Expect {
            seen: vec![None; inputs],
        }
    }

    /// Records `v` for `input`; false if it differs from the first.
    pub fn check(&mut self, input: usize, v: T) -> bool {
        match self.seen[input] {
            None => {
                self.seen[input] = Some(v);
                true
            }
            Some(first) => first == v,
        }
    }

    /// The first value seen per input.
    pub fn firsts(&self) -> &[Option<T>] {
        &self.seen
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes one cached CRN trace holds per simulated query: an arrival
/// gap and a service demand, 8 bytes each.
pub const TRACE_BYTES_PER_QUERY: f64 = 16.0;
