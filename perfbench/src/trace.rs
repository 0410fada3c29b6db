//! In-memory spans recorded from the benchmark's own code, around the
//! calls it makes into each layer, plus the two forwarding wrappers that
//! time the layers the benchmark does not call directly: the scheduler
//! (a [`Scheduler`] wrapper) and the DSP kernels (a [`KernelRegistry`]
//! whose every kernel is wrapped).

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dssoc_appmodel::memory::TaskCtx;
use dssoc_appmodel::{Kernel, KernelRegistry, ModelError};
use dssoc_core::job::{CompiledScenario, Engine, JobResult, JobRunner, ScenarioSpec};
use dssoc_core::sched::{by_name, Assignment, PeView, SchedContext, Scheduler};
use dssoc_core::task::ReadyTask;

use crate::common::Report;
use crate::stats;

/// Span name of one scheduler invocation.
pub const SCHED: &str = "sched";

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers (`compile`, `des.run`, a kernel symbol…).
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Unique id (never 0).
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Benchmark operation the span belongs to.
    pub op: u32,
    /// Small per-thread index (the Chrome-trace `tid`).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static TID: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// Parent for spans recorded by the wrappers, which run inside the
    /// engine and cannot see the benchmark's call stack.
    current_parent: AtomicU32,
    current_op: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current_parent: AtomicU32::new(0),
            current_op: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before it
    /// closes.
    pub fn alloc(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a previously reserved id.
    pub fn record(&self, id: u32, name: &'static str, start: u64, parent: u32, op: u32) {
        let span = Span { name, start, end: self.now(), id, parent, op, tid: TID.with(|t| *t) };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Records a closed span under a fresh id.
    pub fn record_new(&self, name: &'static str, start: u64, parent: u32, op: u32) {
        self.record(self.alloc(), name, start, parent, op);
    }

    /// Sets the span and operation that wrapper spans attach to.
    pub fn enter(&self, parent: u32, op: u32) {
        self.current_parent.store(parent, Ordering::SeqCst);
        self.current_op.store(op, Ordering::SeqCst);
    }

    fn record_current(&self, name: &'static str, start: u64) {
        let parent = self.current_parent.load(Ordering::SeqCst);
        let op = self.current_op.load(Ordering::SeqCst);
        self.record_new(name, start, parent, op);
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// The spans of one pass, indexed by id and by parent.
pub struct Spans {
    /// Every span, in recording order.
    pub all: Vec<Span>,
    by_id: HashMap<u32, usize>,
    kids: HashMap<u32, Vec<(u64, u64)>>,
}

impl Spans {
    /// Indexes `all`.
    pub fn new(all: Vec<Span>) -> Spans {
        let by_id = all.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut kids: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &all {
            if s.parent != 0 {
                kids.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        Spans { all, by_id, kids }
    }

    /// The span with `id`.
    pub fn get(&self, id: u32) -> &Span {
        &self.all[self.by_id[&id]]
    }

    /// Self time of `span`: its duration minus what its children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let kids = self.kids.get(&span.id).map_or(&[][..], Vec::as_slice);
        stats::self_time(span.start, span.end, kids)
    }

    /// Nanoseconds of `span` covered by its children.
    pub fn child_ns(&self, span: &Span) -> u64 {
        span.dur() - self.self_ns(span)
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.all.iter().filter(|s| s.name == name).map(|s| s.dur() as f64 / 1e6).collect()
    }
}

/// What one pass over a traced run's fixed scenarios produced.
pub struct Pass<C, R> {
    /// Host seconds of compile + run (untraced passes only; a traced
    /// pass is timed by its `scenario` spans).
    pub secs: f64,
    /// Result digest per scenario, `None` for a failed one.
    pub digests: Vec<Option<u64>>,
    /// Exact or simulated counts; every traced pass must repeat them.
    pub counts: C,
    /// Per-run records the span fold needs (traced passes only).
    pub runs: Vec<R>,
}

impl<C: Default, R> Default for Pass<C, R> {
    fn default() -> Self {
        Pass { secs: 0.0, digests: Vec::new(), counts: C::default(), runs: Vec::new() }
    }
}

/// Alternates an untraced pass, `pass(false, report)`, and a traced
/// pass, `pass(true, scratch)`, over the same scenarios until `run` is
/// used, and hands each traced pass's spans to `fold`. Checks that each
/// traced pass reproduces the untraced results and the first traced
/// pass's counts, and sets `trace.overhead_pct`, `job.compile_ms.p50`
/// and `job.fingerprint_ms.p50`. Writes the first traced pass's spans
/// to `path` and returns its counts.
pub fn alternate<C: PartialEq + std::fmt::Debug, R>(
    run: std::time::Duration,
    tracer: &Tracer,
    report: &mut Report,
    path: &std::path::Path,
    mut pass: impl FnMut(bool, &mut Report) -> Result<Pass<C, R>, String>,
    mut fold: impl FnMut(&Spans, &[R]),
) -> Result<C, String> {
    let start = Instant::now();
    let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let (mut compile_ms, mut fingerprint_ms) = (Vec::new(), Vec::new());
    let mut first: Option<C> = None;
    let mut export: Option<Vec<Span>> = None;
    // Traced passes are checked, not counted as attempted operations.
    let mut scratch = Report::default();
    while plain_secs.is_empty() || start.elapsed() < run {
        let plain = pass(false, report)?;
        let traced = pass(true, &mut scratch)?;
        let spans = Spans::new(tracer.take());
        plain_secs.push(plain.secs);
        traced_secs.push(spans.ms(ROOT).iter().sum::<f64>() / 1e3);
        compile_ms.extend(spans.ms("compile"));
        fingerprint_ms.extend(spans.ms("fingerprint"));
        fold(&spans, &traced.runs);
        if traced.digests != plain.digests {
            report.mismatch("the traced pass does not reproduce the untraced results");
        }
        match &first {
            None => first = Some(traced.counts),
            Some(f) if *f != traced.counts => report.mismatch(format!(
                "traced passes disagree on exact counts: {f:?} vs {:?}",
                traced.counts
            )),
            Some(_) => {}
        }
        if export.is_none() {
            export = Some(spans.all);
        }
    }
    report.mismatches.append(&mut scratch.mismatches);
    report.set(
        "trace.overhead_pct",
        (stats::median(&traced_secs) / stats::median(&plain_secs) - 1.0) * 100.0,
        "%",
        plain_secs.len(),
    );
    report.set_quantiles("job.compile_ms", &compile_ms, "ms", &[("p50", 0.5)]);
    report.set_quantiles("job.fingerprint_ms", &fingerprint_ms, "ms", &[("p50", 0.5)]);
    write_chrome(path, &export.unwrap_or_default())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!("spans written to {}", path.display()));
    Ok(first.expect("at least one traced pass"))
}

/// A forwarding [`Scheduler`] that records one span per invocation.
///
/// It forwards `dense_fifo` and `uses_estimates`, so the engine takes
/// exactly the loop it takes for the unwrapped policy (for FRFS the
/// dense DES loop, which never calls the trait at all).
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: Arc<Tracer>,
    calls: u64,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>, tracer: Arc<Tracer>) -> Self {
        TimedScheduler { inner, tracer, calls: 0 }
    }

    /// Trait calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
    ) -> Vec<Assignment> {
        let t0 = self.tracer.now();
        let out = self.inner.schedule(ready, pes, ctx);
        self.tracer.record_current(SCHED, t0);
        self.calls += 1;
        out
    }

    fn schedule_into(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
        out: &mut Vec<Assignment>,
    ) {
        let t0 = self.tracer.now();
        self.inner.schedule_into(ready, pes, ctx, out);
        self.tracer.record_current(SCHED, t0);
        self.calls += 1;
    }

    fn dense_fifo(&self) -> bool {
        self.inner.dense_fifo()
    }

    fn uses_estimates(&self) -> bool {
        self.inner.uses_estimates()
    }
}

/// Span name of one compile + run, the traced counterpart of an
/// untraced scenario's host time.
pub const ROOT: &str = "scenario";

/// Fingerprints, compiles and runs `spec` on `runner`. Fingerprinting
/// is an extra call, timed on its own in a `fingerprint` span beside the
/// [`ROOT`] span, which covers exactly what an untraced run does:
/// `compile`, then `des.run` or `engine.run` with a [`TimedScheduler`]
/// around the spec's policy. Returns the result, the run span's id and
/// the scheduler's trait calls.
pub fn run_job(
    runner: &mut JobRunner,
    spec: ScenarioSpec,
    engine: Engine,
    tracer: &Arc<Tracer>,
    op: u32,
) -> (Result<JobResult, String>, u32, u64) {
    let t = tracer.now();
    std::hint::black_box(spec.fingerprint());
    tracer.record_new("fingerprint", t, 0, op);
    let policy = by_name(&spec.scheduler);
    let root = tracer.alloc();
    let t_op = tracer.now();
    let t = tracer.now();
    let compiled = CompiledScenario::compile(spec).map_err(|e| e.to_string());
    tracer.record_new("compile", t, root, op);
    let run_id = tracer.alloc();
    let mut calls = 0;
    let result = compiled.and_then(|c| {
        let mut sched = TimedScheduler::new(
            policy.expect("compiled scenarios name a library policy"),
            Arc::clone(tracer),
        );
        tracer.enter(run_id, op);
        let t = tracer.now();
        let r = runner.run_with(&c, engine, &mut sched);
        let name = match engine {
            Engine::Des => "des.run",
            Engine::Threaded => "engine.run",
        };
        tracer.record(run_id, name, t, root, op);
        calls = sched.calls();
        r.map_err(|e| e.to_string())
    });
    tracer.record(root, ROOT, t_op, 0, op);
    (result, run_id, calls)
}

/// A kernel that records one span (named after its symbol) per call.
struct TimedKernel {
    inner: Arc<dyn Kernel>,
    symbol: &'static str,
    tracer: Arc<Tracer>,
}

impl Kernel for TimedKernel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
        let t0 = self.tracer.now();
        let out = self.inner.run(ctx);
        self.tracer.record_current(self.symbol, t0);
        out
    }
}

/// A copy of `registry` with every kernel wrapped in a timing span.
pub fn timed_registry(registry: &KernelRegistry, tracer: &Arc<Tracer>) -> KernelRegistry {
    let mut out = KernelRegistry::new();
    for so in registry.shared_objects() {
        for sym in registry.symbols(so) {
            let inner = registry.resolve(so, sym).expect("listed symbol resolves");
            // Span names are `&'static str`; the symbol set is small and
            // fixed, so the leak is bounded.
            let symbol: &'static str = Box::leak(sym.to_string().into_boxed_str());
            out.register(
                so,
                sym,
                Arc::new(TimedKernel { inner, symbol, tracer: Arc::clone(tracer) }),
            );
        }
    }
    out
}

/// Scheduler spans written per operation; a traced DES run makes tens
/// of thousands, which would make the file unwieldy.
const SCHED_SPANS_WRITTEN: usize = 500;

/// Writes `spans` as a Chrome-trace JSON file. At most
/// [`SCHED_SPANS_WRITTEN`] scheduler spans per operation are written
/// (the rest still count in the metrics); the number dropped goes into
/// the file's metadata.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut per_op: HashMap<u32, usize> = HashMap::new();
    let mut dropped = 0u64;
    write!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    for s in spans {
        if s.name == SCHED {
            let n = per_op.entry(s.op).or_default();
            *n += 1;
            if *n > SCHED_SPANS_WRITTEN {
                dropped += 1;
                continue;
            }
        }
        if !first {
            write!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        )?;
    }
    write!(out, "],\"otherData\":{{\"dropped_sched_spans\":{dropped}}}}}")?;
    out.flush()
}
