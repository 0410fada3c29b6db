//! `emulate`: the threaded engine running real DSP kernels on modeled
//! PEs, driven through the job layer.
//!
//! One operation is one scenario: a seeded 20 ms SDR mix on
//! `zcu102:3C+2F` under one of the four policies (operation `i` takes
//! seed `i / 4` and policy `i % 4`), with `TimingMode::Modeled`, no
//! overhead charge and a cost table that covers every `(kernel, PE
//! class)` pair the mix dispatches. Both choices keep the result a
//! function of the scenario, which the digest gate needs: on a table
//! miss the engine falls back to host-measured time, and a fixed
//! overhead charge makes contended runs differ from run to run (both
//! are recorded as defects in the README).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::{AppLibrary, Workload};
use dssoc_apps::{pulse_doppler, range_detection, wifi};
use dssoc_core::engine::{OverheadMode, TimingMode};
use dssoc_core::job::{
    platform_preset, CompiledScenario, CostSpec, Engine, JobResult, JobRunner, ResultCache,
    ScenarioSpec,
};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;

use crate::common::{self, evaluate, Digests, Expect, Report, DIGEST_SEED, POLICIES, WARM_SEED};
use crate::stats::{self, op_seed};
use crate::trace::{self, Pass, Spans, Tracer, SCHED};
use crate::Args;

const FRAME: Duration = Duration::from_millis(20);
const PLATFORM: &str = "zcu102:3C+2F";
/// Seeds in one traced pass (each under all four policies); also the
/// operations whose digests are recorded for the default seed.
const PASS_SEEDS: u64 = 2;
/// Kernels reported by name (the largest by time); the rest are summed
/// into `dsp.kernel_ms.other`.
const TOP_KERNELS: [&str; 6] =
    ["pd_COL", "pd_FFT", "wifi_rx_match_filter", "pd_FFT_ACCEL", "pd_IFFT", "pd_MUL"];

/// Builds the standard application set against `registry`.
fn library_with(registry: &dssoc_appmodel::KernelRegistry) -> Result<AppLibrary, String> {
    let mut lib = AppLibrary::new();
    let apps = [
        range_detection::build_app(&range_detection::Params::default()),
        pulse_doppler::build_app(&pulse_doppler::Params::default()),
        wifi::build_tx_app(&wifi::Params::default()),
        wifi::build_rx_app(&wifi::Params::default()),
    ];
    for app in &apps {
        lib.register_json(app, registry).map_err(|e| e.to_string())?;
    }
    Ok(lib)
}

/// A cost table with an entry for every `(runfunc, PE class)` pair the
/// library can dispatch on `platform`: the JSON estimate where one
/// exists, else 100 µs scaled by PE speed.
fn full_table(library: &AppLibrary, platform: &PlatformConfig) -> Result<CostTable, String> {
    let mut table = CostTable::new();
    for name in library.names() {
        let app = library.get(name).map_err(|e| e.to_string())?;
        for node in &app.nodes {
            for p in &node.platforms {
                for pe in platform.pes.iter().filter(|pe| pe.platform_key == p.key) {
                    let d =
                        p.mean_exec.unwrap_or_else(|| Duration::from_secs_f64(100e-6 / pe.speed()));
                    table.set(p.runfunc.clone(), pe.class_name(), d);
                }
            }
        }
    }
    Ok(table)
}

struct Emu {
    plain: Arc<AppLibrary>,
    /// The same applications with every kernel wrapped in a span
    /// (traced runs only).
    timed: Option<Arc<AppLibrary>>,
    platform: Arc<PlatformConfig>,
    cost: CostSpec,
    runner: JobRunner,
}

struct Op {
    index: u64,
    policy: usize,
    workload: Arc<Workload>,
    expected_tasks: usize,
}

impl Emu {
    fn setup(tracer: Option<&Arc<Tracer>>) -> Result<Emu, String> {
        let (plain, registry) = dssoc_apps::standard_library();
        let timed = match tracer {
            Some(t) => Some(Arc::new(library_with(&trace::timed_registry(&registry, t))?)),
            None => None,
        };
        let platform = Arc::new(platform_preset(PLATFORM)?);
        let cost = CostSpec::table(full_table(&plain, &platform)?);
        let mut emu =
            Emu { plain: Arc::new(plain), timed, platform, cost, runner: JobRunner::new() };
        let workload = common::sdr_workload(&emu.plain, FRAME, WARM_SEED)?;
        for policy in 0..POLICIES.len() {
            let op =
                Op { index: u64::MAX, policy, workload: Arc::clone(&workload), expected_tasks: 0 };
            emu.run_plain(&op)?;
            if let Some(t) = tracer {
                emu.run_traced(&op, t, 0).0?;
            }
        }
        if let Some(t) = tracer {
            t.take();
        }
        emu.runner.set_cache(ResultCache::default());
        Ok(emu)
    }

    fn op(&self, seed: u64, index: u64) -> Result<Op, String> {
        let workload = common::sdr_workload(&self.plain, FRAME, op_seed(seed, index / 4))?;
        let expected_tasks = workload.total_tasks(&self.plain).map_err(|e| e.to_string())?;
        Ok(Op { index, policy: (index % 4) as usize, workload, expected_tasks })
    }

    fn spec(&self, op: &Op, library: &Arc<AppLibrary>) -> Result<ScenarioSpec, String> {
        ScenarioSpec::builder()
            .library(Arc::clone(library))
            .platform(Arc::clone(&self.platform))
            .workload(Arc::clone(&op.workload))
            .scheduler(POLICIES[op.policy])
            .timing(TimingMode::Modeled)
            .overhead(OverheadMode::None)
            .cost(self.cost.clone())
            .build()
            .map_err(|e| e.to_string())
    }

    /// Compile + run, untraced; returns the result and its host seconds.
    fn run_plain(&mut self, op: &Op) -> Result<(JobResult, f64), String> {
        let spec = self.spec(op, &self.plain)?;
        let (result, secs) = common::timed(|| {
            let compiled = CompiledScenario::compile(spec)?;
            self.runner.run(&compiled, Engine::Threaded)
        });
        Ok((result.map_err(|e| e.to_string())?, secs))
    }

    /// Compile + run on the kernel-wrapped library, traced.
    fn run_traced(
        &mut self,
        op: &Op,
        tracer: &Arc<Tracer>,
        op_id: u32,
    ) -> (Result<JobResult, String>, u32, u64) {
        let library = Arc::clone(self.timed.as_ref().expect("traced set-up"));
        match self.spec(op, &library) {
            Ok(spec) => trace::run_job(&mut self.runner, spec, Engine::Threaded, tracer, op_id),
            Err(e) => (Err(e), 0, 0),
        }
    }
}

/// The checks one operation's result must pass.
fn expect(seed: u64, op: &Op) -> Expect<'_> {
    Expect {
        key: format!("emulate/{}/{}", op.index, POLICIES[op.policy]),
        compare: seed == DIGEST_SEED && op.index < PASS_SEEDS * 4,
        workload: &op.workload,
        tasks: op.expected_tasks,
        faulted: false,
        known_defect: false,
    }
}

fn digest(result: &Result<JobResult, String>) -> Option<u64> {
    result.as_ref().ok().map(|j| common::outcome(&j.stats, j.fingerprint).digest())
}

/// Runs the workload.
pub fn run(
    args: &Args,
    digests: &mut Digests,
    trace_out: Option<&std::path::Path>,
) -> Result<Report, String> {
    let mut report = Report::default();
    match trace_out {
        None => untraced(args, digests, &mut report)?,
        Some(path) => {
            let tracer = Tracer::new();
            let mut emu = Emu::setup(Some(&tracer))?;
            traced(args, digests, &mut emu, &mut report, &tracer, path)?
        }
    }
    common::set_failures(&mut report);
    Ok(report)
}

fn untraced(args: &Args, digests: &mut Digests, report: &mut Report) -> Result<(), String> {
    let mut op_ms = Vec::new();
    let mut index = 0;
    common::sliced(
        report,
        args.run,
        || Emu::setup(None),
        |emu, report, _, until| {
            while Instant::now() < until {
                let op = emu.op(args.seed, index)?;
                let (result, secs) = match emu.run_plain(&op) {
                    Ok((job, secs)) => (Ok(job), secs),
                    Err(e) => (Err(e), 0.0),
                };
                if evaluate(report, digests, &expect(args.seed, &op), &result).is_some() {
                    op_ms.push(secs * 1e3);
                }
                index += 1;
            }
            Ok(())
        },
    )?;
    report.set_quantiles("op_ms", &op_ms, "ms", &common::OP_TAIL);
    Ok(())
}

/// Exact or simulated counts of one traced pass.
#[derive(Default, PartialEq, Debug)]
struct Counts {
    invocations: [u64; 4],
    trait_calls: [u64; 4],
    accel_tasks: u64,
    accel_busy_ns: u64,
    accel_avail_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// A traced run: its run span, policy and modeled makespan.
struct Run {
    span: u32,
    policy: usize,
    makespan_ns: u64,
}

/// Samples folded from the traced passes' spans.
#[derive(Default)]
struct Samples {
    passes: usize,
    run_ms: Vec<f64>,
    runtime_self_ms: Vec<f64>,
    wall_ns: u64,
    modeled_ns: u64,
    sched_self_ms: [Vec<f64>; 4],
    kernel_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Kernel calls per pass; the kernels a scenario runs are fixed.
    kernel_calls: Vec<u64>,
}

impl Samples {
    fn fold(&mut self, spans: &Spans, runs: &[Run]) {
        let mut sched_ns: HashMap<u32, u64> = HashMap::new();
        let mut kernel_pass: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut calls = 0;
        for s in &spans.all {
            match s.name {
                "compile" | "fingerprint" | "engine.run" | trace::ROOT => {}
                SCHED => *sched_ns.entry(s.parent).or_default() += s.dur(),
                kernel => {
                    calls += 1;
                    *kernel_pass.entry(kernel).or_default() += s.dur();
                }
            }
        }
        self.kernel_calls.push(calls);
        for (k, ns) in kernel_pass {
            self.kernel_ms.entry(k).or_default().push(ns as f64 / 1e6);
        }
        for r in runs {
            let span = spans.get(r.span);
            self.run_ms.push(span.dur() as f64 / 1e6);
            self.runtime_self_ms.push(spans.self_ns(span) as f64 / 1e6);
            let sched = sched_ns.get(&r.span).copied().unwrap_or(0);
            self.sched_self_ms[r.policy].push(sched as f64 / 1e6);
            self.wall_ns += span.dur();
            self.modeled_ns += r.makespan_ns;
        }
        self.passes += 1;
    }
}

/// Alternates an untraced and a traced pass over the same operations
/// until the run time is used.
fn traced(
    args: &Args,
    digests: &mut Digests,
    emu: &mut Emu,
    report: &mut Report,
    tracer: &Arc<Tracer>,
    path: &std::path::Path,
) -> Result<(), String> {
    let ops: Vec<Op> =
        (0..PASS_SEEDS * 4).map(|i| emu.op(args.seed, i)).collect::<Result<_, _>>()?;
    let (mut plain_tasks, mut plain_secs) = (0u64, 0.0f64);
    let mut samples = Samples::default();
    let pass = |traced: bool, report: &mut Report| -> Result<Pass<Counts, Run>, String> {
        emu.runner.set_cache(ResultCache::default());
        let (h0, m0) = (emu.runner.cache().hits(), emu.runner.cache().misses());
        let mut pass = Pass::<Counts, Run>::default();
        for (op_id, op) in ops.iter().enumerate() {
            if !traced {
                let result = emu.run_plain(op).map(|(job, s)| {
                    pass.secs += s;
                    job
                });
                if let Some(job) = evaluate(report, digests, &expect(args.seed, op), &result) {
                    plain_tasks += job.stats.tasks.len() as u64;
                }
                pass.digests.push(digest(&result));
                continue;
            }
            let (result, span, calls) = emu.run_traced(op, tracer, op_id as u32);
            pass.digests.push(digest(&result));
            let Some(job) = evaluate(report, digests, &expect(u64::MAX, op), &result) else {
                continue;
            };
            let c = &mut pass.counts;
            c.invocations[op.policy] += job.stats.sched_invocations;
            c.trait_calls[op.policy] += calls;
            let (at, busy, avail) = common::accel_usage(&job.stats, &emu.platform);
            c.accel_tasks += at;
            c.accel_busy_ns += busy;
            c.accel_avail_ns += avail;
            let makespan_ns = job.stats.makespan.as_nanos() as u64;
            pass.runs.push(Run { span, policy: op.policy, makespan_ns });
        }
        plain_secs += pass.secs;
        pass.counts.cache_hits = emu.runner.cache().hits() - h0;
        pass.counts.cache_misses = emu.runner.cache().misses() - m0;
        Ok(pass)
    };
    let counts = trace::alternate(args.run, tracer, report, path, pass, |s, r| samples.fold(s, r))?;

    let passes = samples.passes;
    report.set("emulate.tasks_per_s", plain_tasks as f64 / plain_secs, "1/s", passes);
    report.set("job.cache_hits", counts.cache_hits as f64, "count", 1);
    report.set("job.cache_misses", counts.cache_misses as f64, "count", 1);
    report.set_quantiles("engine.run_ms", &samples.run_ms, "ms", &[("p50", 0.5)]);
    let n = samples.run_ms.len();
    report.set("engine.runtime_self_ms", stats::median(&samples.runtime_self_ms), "ms", n);
    let ratio = samples.wall_ns as f64 / samples.modeled_ns.max(1) as f64;
    report.set("engine.wall_per_modeled", ratio, "ratio", n);
    for (p, name) in POLICIES.iter().enumerate() {
        report.set(format!("sched.invocations.{name}"), counts.invocations[p] as f64, "count", 1);
        report.set(format!("sched.trait_calls.{name}"), counts.trait_calls[p] as f64, "count", 1);
        let ms = &samples.sched_self_ms[p];
        report.set(format!("sched.self_ms.{name}"), stats::median(ms), "ms", ms.len());
    }
    if samples.kernel_calls.iter().any(|&c| c != samples.kernel_calls[0]) {
        report.mismatch(format!("kernel calls differ between passes: {:?}", samples.kernel_calls));
    }
    let mut other = vec![0.0; passes];
    let mut ranked: Vec<(f64, &str)> = Vec::new();
    for (k, per_pass) in &samples.kernel_ms {
        let med = stats::median(per_pass);
        ranked.push((med, k));
        if TOP_KERNELS.contains(k) {
            report.set(format!("dsp.kernel_ms.{k}"), med, "ms", per_pass.len());
        } else {
            for (o, v) in other.iter_mut().zip(per_pass) {
                *o += v;
            }
        }
    }
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    report.notes.push(format!(
        "kernels by median ms per pass: {}",
        ranked.iter().take(10).map(|(ms, k)| format!("{k}={ms:.3}")).collect::<Vec<_>>().join(" ")
    ));
    report.set("dsp.kernel_ms.other", stats::median(&other), "ms", other.len());
    report.set("dsp.kernel_calls", samples.kernel_calls[0] as f64, "count", 1);
    report.set("platform.accel_tasks", counts.accel_tasks as f64, "count", 1);
    report.set(
        "platform.accel_busy_ratio",
        counts.accel_busy_ns as f64 / counts.accel_avail_ns.max(1) as f64,
        "ratio",
        1,
    );
    Ok(())
}
