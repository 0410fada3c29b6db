//! `dse_dense` and `dse_list`: a single-threaded design-space sweep on
//! the discrete-event engine, driven through the job layer and split
//! by the DES loop it takes.
//!
//! One operation is one sweep point, a seeded SDR mix evaluated in the
//! workload's slices. `dse_dense` runs the `frfs` slice (FRFS on
//! `zcu102:2C+1F` and `zcu102:3C+2F`), which takes the dense FIFO loop.
//! `dse_list` runs the `met`, `eft` and `random` slices (each policy on
//! both platforms) and the `faulted` slice (all four policies on `3C+2F`
//! with `configs/faults_fft_outage.json`), which take the general loop.
//! Every scenario has its own fingerprint, so each is a cache miss that
//! compiles and then simulates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::{AppLibrary, Workload};
use dssoc_core::engine::OverheadMode;
use dssoc_core::fault::FaultSpec;
use dssoc_core::job::{
    platform_preset, CompiledScenario, CostSpec, Engine, JobResult, JobRunner, ResultCache,
    ScenarioSpec,
};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;

use crate::common::{self, evaluate, Digests, Expect, Report, DIGEST_SEED, POLICIES, WARM_SEED};
use crate::stats::{self, op_seed};
use crate::trace::{self, Pass, Spans, Tracer};
use crate::Args;

const FRAME: Duration = Duration::from_millis(100);
const PLATFORMS: [&str; 2] = ["zcu102:2C+1F", "zcu102:3C+2F"];
const FAULTED: usize = 4;
const SLICES: [&str; 5] = ["frfs", "met", "eft", "random", "faulted"];
const FAULTS_JSON: &str = include_str!("../../configs/faults_fft_outage.json");
/// Sweep points in one traced pass; also the points whose digests are
/// recorded for the default seed.
const PASS_POINTS: u64 = 8;

/// Which slices a workload sweeps.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// The `frfs` slice: the dense FIFO loop, where compile is about
    /// two thirds of a scenario.
    Dense,
    /// The `met`, `eft`, `random` and `faulted` slices: the general
    /// loop, where scheduling dominates, and the fault path.
    List,
}

impl Kind {
    /// `(slice, platform, policy)` of each scenario of a sweep point.
    fn cells(self) -> Vec<(usize, usize, usize)> {
        let policies = match self {
            Kind::Dense => 0..1,
            Kind::List => 1..POLICIES.len(),
        };
        let mut cells: Vec<_> =
            (0..PLATFORMS.len()).flat_map(|p| policies.clone().map(move |s| (s, p, s))).collect();
        if self == Kind::List {
            cells.extend((0..POLICIES.len()).map(|s| (FAULTED, 1, s)));
        }
        cells
    }
}

struct Scenario {
    label: String,
    slice: usize,
    policy: usize,
    platform: Arc<PlatformConfig>,
    spec: ScenarioSpec,
}

impl Scenario {
    fn faulted(&self) -> bool {
        self.slice == FAULTED
    }
}

struct Point {
    index: u64,
    workload: Arc<Workload>,
    expected_tasks: usize,
    scenarios: Vec<Scenario>,
}

struct Sweep {
    kind: Kind,
    library: Arc<AppLibrary>,
    faults: Arc<FaultSpec>,
    platforms: Vec<Arc<PlatformConfig>>,
    runner: JobRunner,
}

impl Sweep {
    /// Builds the inputs' fixed parts and warms the runner's engines
    /// with one sweep point on a seed no operation uses.
    fn setup(kind: Kind) -> Result<Sweep, String> {
        let library = Arc::new(dssoc_apps::standard_library().0);
        let faults = Arc::new(FaultSpec::from_json(FAULTS_JSON)?);
        let platforms =
            PLATFORMS.iter().map(|p| platform_preset(p).map(Arc::new)).collect::<Result<_, _>>()?;
        let mut sweep = Sweep { kind, library, faults, platforms, runner: JobRunner::new() };
        let warm = sweep.point(WARM_SEED, u64::MAX)?;
        for sc in &warm.scenarios {
            // The warm-up keeps no result; EFT under faults may fail.
            let _ = sweep.run_plain(sc);
        }
        sweep.runner.set_cache(ResultCache::default());
        Ok(sweep)
    }

    fn point(&self, seed: u64, index: u64) -> Result<Point, String> {
        let workload = common::sdr_workload(&self.library, FRAME, seed)?;
        let expected_tasks = workload.total_tasks(&self.library).map_err(|e| e.to_string())?;
        let mut scenarios = Vec::new();
        for (slice, plat, policy) in self.kind.cells() {
            let mut b = ScenarioSpec::builder()
                .library(Arc::clone(&self.library))
                .platform(Arc::clone(&self.platforms[plat]))
                .workload(Arc::clone(&workload))
                .scheduler(POLICIES[policy])
                .cost(CostSpec::table(CostTable::new()))
                .overhead(OverheadMode::None);
            if slice == FAULTED {
                b = b.faults(Arc::clone(&self.faults));
            }
            scenarios.push(Scenario {
                label: format!("{}/{}/{}", SLICES[slice], PLATFORMS[plat], POLICIES[policy]),
                slice,
                policy,
                platform: Arc::clone(&self.platforms[plat]),
                spec: b.build().map_err(|e| e.to_string())?,
            });
        }
        Ok(Point { index, workload, expected_tasks, scenarios })
    }

    /// Compile + run, untraced.
    fn run_plain(&mut self, sc: &Scenario) -> Result<JobResult, String> {
        let compiled = CompiledScenario::compile(sc.spec.clone()).map_err(|e| e.to_string())?;
        self.runner.run(&compiled, Engine::Des).map_err(|e| e.to_string())
    }
}

/// The checks one scenario's result must pass. Digest keys name the
/// point and the scenario, not the workload, so both workloads share
/// the recorded digests of one sweep.
fn expect<'a>(seed: u64, point: &'a Point, sc: &Scenario) -> Expect<'a> {
    Expect {
        key: format!("dse/{}/{}", point.index, sc.label),
        compare: seed == DIGEST_SEED && point.index < PASS_POINTS,
        workload: &point.workload,
        tasks: point.expected_tasks,
        faulted: sc.faulted(),
        known_defect: sc.faulted() && POLICIES[sc.policy] == "eft",
    }
}

fn digest(result: &Result<JobResult, String>) -> Option<u64> {
    result.as_ref().ok().map(|j| common::outcome(&j.stats, j.fingerprint).digest())
}

/// Runs the workload.
pub fn run(
    args: &Args,
    kind: Kind,
    digests: &mut Digests,
    trace_out: Option<&std::path::Path>,
) -> Result<Report, String> {
    let mut report = Report::default();
    match trace_out {
        None => untraced(args, kind, digests, &mut report)?,
        Some(path) => traced(args, digests, &mut Sweep::setup(kind)?, &mut report, path)?,
    }
    common::set_failures(&mut report);
    Ok(report)
}

fn untraced(
    args: &Args,
    kind: Kind,
    digests: &mut Digests,
    report: &mut Report,
) -> Result<(), String> {
    let mut op_ms = Vec::new();
    let mut index = 0;
    let setup = || Sweep::setup(kind);
    common::sliced(report, args.run, setup, |sweep, report, _, until| {
        while Instant::now() < until {
            let point = sweep.point(op_seed(args.seed, index), index)?;
            let mut secs = 0.0;
            for sc in &point.scenarios {
                let (result, s) = common::timed(|| sweep.run_plain(sc));
                secs += s;
                evaluate(report, digests, &expect(args.seed, &point, sc), &result);
            }
            op_ms.push(secs * 1e3);
            index += 1;
        }
        Ok(())
    })?;
    report.set_quantiles("op_ms", &op_ms, "ms", &common::OP_TAIL);
    Ok(())
}

/// Counts that are simulated or exact, taken per traced pass; every
/// pass must reproduce them.
#[derive(Default, PartialEq, Debug)]
struct Counts {
    invocations: [u64; 4],
    trait_calls: [u64; 4],
    fault_injected: u64,
    fault_retries: u64,
    apps_aborted: u64,
    fault_failed: [u64; 4],
    accel_tasks: u64,
    accel_busy_ns: u64,
    accel_avail_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// A traced unfaulted run: its run span, policy and task count.
struct Run {
    span: u32,
    policy: usize,
    tasks: u64,
}

/// Per-policy samples folded from the traced passes' spans.
#[derive(Default)]
struct Samples {
    run_ms: [Vec<f64>; 4],
    sched_self_ms: [Vec<f64>; 4],
    loop_self_ms: [Vec<f64>; 4],
    /// `(events, run ns)` per policy.
    events: [(u64, u64); 4],
}

impl Samples {
    fn fold(&mut self, spans: &Spans, runs: &[Run]) {
        for r in runs {
            let span = spans.get(r.span);
            let p = r.policy;
            self.run_ms[p].push(span.dur() as f64 / 1e6);
            self.sched_self_ms[p].push(spans.child_ns(span) as f64 / 1e6);
            self.loop_self_ms[p].push(spans.self_ns(span) as f64 / 1e6);
            self.events[p].0 += 2 * r.tasks;
            self.events[p].1 += span.dur();
        }
    }
}

/// Alternates an untraced and a traced pass over the same
/// [`PASS_POINTS`] sweep points until the run time is used.
fn traced(
    args: &Args,
    digests: &mut Digests,
    sweep: &mut Sweep,
    report: &mut Report,
    path: &std::path::Path,
) -> Result<(), String> {
    let points: Vec<Point> = (0..PASS_POINTS)
        .map(|i| sweep.point(op_seed(args.seed, i), i))
        .collect::<Result<_, _>>()?;
    let tracer = Tracer::new();
    // `(host seconds, scenarios)` per slice, over the untraced passes.
    let mut slices = [(0.0f64, 0usize); 5];
    let mut samples = Samples::default();
    let pass = |traced: bool, report: &mut Report| -> Result<Pass<Counts, Run>, String> {
        sweep.runner.set_cache(ResultCache::default());
        let (h0, m0) = (sweep.runner.cache().hits(), sweep.runner.cache().misses());
        let mut pass = Pass::<Counts, Run>::default();
        let mut op = 0u32;
        for point in &points {
            for sc in &point.scenarios {
                if !traced {
                    let (result, s) = common::timed(|| sweep.run_plain(sc));
                    pass.secs += s;
                    slices[sc.slice].0 += s;
                    slices[sc.slice].1 += 1;
                    evaluate(report, digests, &expect(args.seed, point, sc), &result);
                    pass.digests.push(digest(&result));
                    continue;
                }
                let (result, span, calls) =
                    trace::run_job(&mut sweep.runner, sc.spec.clone(), Engine::Des, &tracer, op);
                op += 1;
                pass.digests.push(digest(&result));
                let ok = evaluate(report, digests, &expect(u64::MAX, point, sc), &result);
                let (p, c) = (sc.policy, &mut pass.counts);
                if sc.faulted() {
                    match ok {
                        Some(job) => {
                            let r = &job.stats.reliability;
                            c.fault_injected += r.faults_injected;
                            c.fault_retries += r.retries;
                            c.apps_aborted += r.apps_aborted;
                        }
                        None => c.fault_failed[p] += 1,
                    }
                    continue;
                }
                let Some(job) = ok else { continue };
                c.invocations[p] += job.stats.sched_invocations;
                c.trait_calls[p] += calls;
                let (at, busy, avail) = common::accel_usage(&job.stats, &sc.platform);
                c.accel_tasks += at;
                c.accel_busy_ns += busy;
                c.accel_avail_ns += avail;
                pass.runs.push(Run { span, policy: p, tasks: job.stats.tasks.len() as u64 });
            }
        }
        pass.counts.cache_hits = sweep.runner.cache().hits() - h0;
        pass.counts.cache_misses = sweep.runner.cache().misses() - m0;
        Ok(pass)
    };
    let counts =
        trace::alternate(args.run, &tracer, report, path, pass, |s, r| samples.fold(s, r))?;

    for (name, (secs, n)) in SLICES.iter().zip(slices) {
        if n > 0 {
            report.set(format!("dse.{name}.scenarios_per_s"), n as f64 / secs, "1/s", n);
        }
    }
    report.set("job.cache_hits", counts.cache_hits as f64, "count", 1);
    report.set("job.cache_misses", counts.cache_misses as f64, "count", 1);
    let unfaulted: Vec<usize> =
        sweep.kind.cells().iter().filter(|c| c.0 != FAULTED).map(|c| c.2).collect();
    for (p, name) in POLICIES.iter().enumerate() {
        if sweep.kind == Kind::List {
            let failed = counts.fault_failed[p] as f64;
            report.set(format!("fault.failed_scenarios.{name}"), failed, "count", 1);
        }
        if !unfaulted.contains(&p) {
            continue;
        }
        let n = samples.run_ms[p].len();
        report.set(format!("des.run_ms.p50.{name}"), stats::median(&samples.run_ms[p]), "ms", n);
        let (ev, ns) = samples.events[p];
        report.set(format!("des.events_per_s.{name}"), ev as f64 / (ns as f64 / 1e9), "1/s", n);
        report.set(format!("sched.invocations.{name}"), counts.invocations[p] as f64, "count", 1);
        report.set(format!("sched.trait_calls.{name}"), counts.trait_calls[p] as f64, "count", 1);
        let sched = stats::median(&samples.sched_self_ms[p]);
        report.set(format!("sched.self_ms.{name}"), sched, "ms", n);
        let lp = stats::median(&samples.loop_self_ms[p]);
        report.set(format!("des.loop_self_ms.{name}"), lp, "ms", n);
    }
    if sweep.kind == Kind::List {
        report.set("fault.injected", counts.fault_injected as f64, "count", 1);
        report.set("fault.retries", counts.fault_retries as f64, "count", 1);
        report.set("fault.apps_aborted", counts.apps_aborted as f64, "count", 1);
    }
    report.set("platform.accel_tasks", counts.accel_tasks as f64, "count", 1);
    report.set(
        "platform.accel_busy_ratio",
        counts.accel_busy_ns as f64 / counts.accel_avail_ns.max(1) as f64,
        "ratio",
        1,
    );
    Ok(())
}
