//! `serve_mix`: an in-process `dssoc-serve` daemon with the shipped
//! `ManagerConfig::default()`, driven over loopback by two closed-loop
//! clients, each its own tenant.
//!
//! One operation is `POST /jobs`, a long-poll of
//! `GET /jobs/<id>?wait_ms=` until the job is terminal, then
//! `GET /jobs/<id>/result`; its round-trip time runs from the start of
//! the POST until the result body is read. About three quarters of
//! submissions resubmit one of four scenarios warmed during set-up;
//! the rest are fresh seeds of the same shape (DES, EFT, `3C+2F`, a
//! 10 ms SDR mix; over a shorter frame the few injection draws repeat
//! across seeds, so "fresh" seeds would often be cache hits). Each
//! operation is classified as a hit or a miss by the `cached` flag of
//! its result, not by what the client intended: the result cache evicts
//! in insertion order, so a warmed scenario can be evicted by fresh ones
//! and run again.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::AppLibrary;
use dssoc_core::job::{Engine, JobRunner};
use dssoc_metrics::http::{request, ClientResponse};
use dssoc_serve::{parse_job, Daemon, ManagerConfig, ServeConfig};
use serde_json::Value;

use crate::common::{self, Report};
use crate::stats::{self, mix, op_seed};
use crate::trace::{self, Spans, Tracer};
use crate::Args;

const PLATFORM: &str = "zcu102:3C+2F";
const FRAME: Duration = Duration::from_millis(10);
const CLIENTS: u64 = 2;
const HIT_BODIES: u64 = 4;
const MISS_SHARE: f64 = 0.25;
/// Long-poll window of one status request.
const POLL_WAIT_MS: u64 = 10_000;
/// An operation not done by then counts as a deadline miss.
const OP_DEADLINE: Duration = Duration::from_secs(30);
/// Fresh bodies re-run in process to check the daemon's answers.
const SAMPLE_MISSES: usize = 16;
/// `parse_job` calls timed per body kind in the traced run.
const PARSE_REPS: usize = 50;
/// Index range of the warmed scenarios' seeds (clients use `c << 32 | k`).
const HIT_INDEX: u64 = 1 << 40;

/// The submission body of the scenario seeded `seed`.
fn body(seed: u64) -> String {
    let workload =
        serde_json::to_string(&common::sdr_mix(FRAME, seed)).expect("a workload spec serializes");
    format!(
        r#"{{"engine": "des", "platform": "{PLATFORM}", "scheduler": "eft", "workload": {workload}}}"#
    )
}

/// The simulated fields of a result that must repeat.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    fingerprint: String,
    makespan_ns: u64,
    tasks: u64,
    apps_completed: u64,
    apps_total: u64,
    sched_invocations: u64,
}

fn summary(v: &Value) -> Option<Summary> {
    let n = |k: &str| v.get(k).and_then(Value::as_u64);
    Some(Summary {
        fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
        makespan_ns: n("makespan_ns")?,
        tasks: n("tasks")?,
        apps_completed: n("apps_completed")?,
        apps_total: n("apps_total")?,
        sched_invocations: n("sched_invocations")?,
    })
}

/// One client operation.
#[derive(Debug, Default)]
struct OpRec {
    seed: u64,
    ok: bool,
    rejected: bool,
    error: Option<String>,
    rtt_ms: f64,
    cached: bool,
    queue_wait_ms: f64,
    run_ms: f64,
    summary: Option<Summary>,
}

/// One client's HTTP calls, each timed and, when traced, recorded as a
/// span under the operation's root.
struct Client<'a> {
    addr: SocketAddr,
    tenant: String,
    tracer: Option<&'a Tracer>,
}

impl Client<'_> {
    fn call(
        &self,
        name: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
        root: u32,
        op: u32,
    ) -> Result<(u16, Value), String> {
        let t = self.tracer.map(|t| t.now());
        let headers = [("X-Tenant", self.tenant.as_str())];
        let resp = request(self.addr, method, path, &headers, body.map(str::as_bytes));
        if let (Some(tr), Some(t)) = (self.tracer, t) {
            tr.record_new(name, t, root, op);
        }
        let ClientResponse { status, body } = resp.map_err(|e| format!("{method} {path}: {e}"))?;
        let v = serde_json::from_str(&body).unwrap_or(Value::Null);
        Ok((status, v))
    }

    /// Runs one operation: submit, long-poll to a terminal state, fetch
    /// the result.
    fn op(&self, seed: u64, body: &str, op: u32) -> OpRec {
        let mut rec = OpRec { seed, ..OpRec::default() };
        let root = self.tracer.map_or(0, |t| t.alloc());
        let t_root = self.tracer.map_or(0, |t| t.now());
        let t0 = Instant::now();
        if let Err(e) = self.op_steps(&mut rec, body, root, op) {
            rec.error = Some(e);
        } else {
            rec.ok = true;
        }
        rec.rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(tr) = self.tracer {
            tr.record(root, "job", t_root, 0, op);
        }
        rec
    }

    fn op_steps(&self, rec: &mut OpRec, body: &str, root: u32, op: u32) -> Result<(), String> {
        let t0 = Instant::now();
        let (status, v) = self.call("http.post", "POST", "/jobs", Some(body), root, op)?;
        if status == 429 || status == 503 {
            rec.rejected = true;
        }
        if status != 202 {
            return Err(format!("POST /jobs: {status} {v:?}"));
        }
        let id = v.get("job").and_then(Value::as_u64).ok_or("POST /jobs: no job id")?;
        let path = format!("/jobs/{id}?wait_ms={POLL_WAIT_MS}");
        let status_v = loop {
            let (status, v) = self.call("http.poll", "GET", &path, None, root, op)?;
            if status != 200 {
                return Err(format!("GET {path}: {status}"));
            }
            match v.get("status").and_then(Value::as_str) {
                Some("done") => break v,
                Some("failed" | "cancelled" | "deadline_exceeded") => {
                    return Err(format!("job {id} ended {v:?}"));
                }
                _ if t0.elapsed() > OP_DEADLINE => {
                    return Err(format!("job {id}: deadline missed"))
                }
                _ => {}
            }
        };
        let ms = |k: &str| status_v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        rec.queue_wait_ms = ms("queue_wait_ms");
        rec.run_ms = ms("run_ms");
        let result_path = format!("/jobs/{id}/result");
        let (status, v) = self.call("http.result", "GET", &result_path, None, root, op)?;
        if status != 200 {
            return Err(format!("GET {result_path}: {status}"));
        }
        rec.cached = v.get("cached").and_then(Value::as_bool).ok_or("result without 'cached'")?;
        rec.summary = Some(summary(&v).ok_or_else(|| format!("malformed result {v:?}"))?);
        Ok(())
    }
}

/// `(hits, misses)` of the daemon's result cache, from `/metrics`.
fn cache_counters(addr: SocketAddr) -> Result<(u64, u64), String> {
    let resp =
        request(addr, "GET", "/metrics", &[], None).map_err(|e| format!("GET /metrics: {e}"))?;
    let read = |family: &str| -> u64 {
        resp.body
            .lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .sum::<f64>() as u64
    };
    Ok((read("dssoc_result_cache_hits_total"), read("dssoc_result_cache_misses_total")))
}

struct Serve {
    daemon: Daemon,
    hit_seeds: Vec<u64>,
    /// Seeds of fresh submissions that ran on the engine.
    fresh_seeds: Vec<u64>,
    /// First result of every scenario seen, by fingerprint.
    first: HashMap<String, Summary>,
}

impl Serve {
    /// Starts the daemon and warms the four resubmitted scenarios.
    fn setup(seed: u64) -> Result<Serve, String> {
        let config =
            ServeConfig { addr: "127.0.0.1:0".to_string(), manager: ManagerConfig::default() };
        let daemon = Daemon::start(config).map_err(|e| format!("daemon: {e}"))?;
        let client =
            Client { addr: daemon.addr(), tenant: "perfbench-setup".to_string(), tracer: None };
        let hit_seeds: Vec<u64> = (0..HIT_BODIES).map(|k| op_seed(seed, HIT_INDEX + k)).collect();
        let mut first = HashMap::new();
        for &s in &hit_seeds {
            let rec = client.op(s, &body(s), 0);
            match (rec.ok, rec.cached, rec.summary) {
                (true, false, Some(sum)) => first.insert(sum.fingerprint.clone(), sum),
                _ => return Err(format!("warming scenario {s:016x} failed: {:?}", rec.error)),
            };
        }
        Ok(Serve { daemon, hit_seeds, fresh_seeds: Vec::new(), first })
    }

    /// Runs both clients until `until`, drawing fresh seeds no other
    /// load slice draws; returns every operation and the wall seconds
    /// the load took.
    fn load(
        &self,
        seed: u64,
        until: Instant,
        tracer: Option<&Tracer>,
        slice: u64,
    ) -> (Vec<OpRec>, f64) {
        let start = Instant::now();
        let recs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let client = Client {
                        addr: self.daemon.addr(),
                        tenant: format!("perfbench-{c}"),
                        tracer,
                    };
                    let hits = &self.hit_seeds;
                    s.spawn(move || {
                        let mut recs = Vec::new();
                        let mut state = mix(seed, 0xc11e_0000 + c + (slice << 8));
                        let mut k = 0u64;
                        while Instant::now() < until {
                            state = mix(state, k);
                            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                            let s = if u < MISS_SHARE {
                                op_seed(seed, (slice << 48) | ((c + 1) << 32) | k)
                            } else {
                                hits[(state % HIT_BODIES) as usize]
                            };
                            let body = body(s);
                            let op = ((slice << 28) | (c << 24) | k) as u32;
                            recs.push(client.op(s, &body, op));
                            k += 1;
                        }
                        recs
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
        });
        (recs, start.elapsed().as_secs_f64())
    }
}

/// Counts and classifies the operations of the load slices of one
/// kind (untraced or traced).
#[derive(Default)]
struct Phase {
    ok: u64,
    wall: f64,
    hit_rtt: Vec<f64>,
    miss_rtt: Vec<f64>,
    all_rtt: Vec<f64>,
}

impl Phase {
    fn jobs_per_s(&self) -> f64 {
        self.ok as f64 / self.wall
    }
}

/// Checks the operations of one load slice and adds them to `p`.
fn check_slice(report: &mut Report, serve: &mut Serve, recs: &[OpRec], wall: f64, p: &mut Phase) {
    p.wall += wall;
    // Runs that executed come first, so every cached result finds the
    // run that filled the cache whichever client made it.
    for r in recs.iter().filter(|r| r.ok && !r.cached) {
        let sum = r.summary.as_ref().expect("ok ops carry a result");
        if !serve.first.contains_key(&sum.fingerprint) {
            serve.first.insert(sum.fingerprint.clone(), sum.clone());
            if !serve.hit_seeds.contains(&r.seed) {
                serve.fresh_seeds.push(r.seed);
            }
        }
    }
    for r in recs {
        report.attempted += 1;
        if !r.ok {
            report.failed += 1;
            if report.failed <= 3 {
                report.notes.push(format!("failed op: {}", r.error.as_deref().unwrap_or("?")));
            }
            continue;
        }
        let sum = r.summary.as_ref().expect("ok ops carry a result");
        // Equal scenarios must give equal results, cached or not.
        match serve.first.get(&sum.fingerprint) {
            Some(first) if first != sum => report.mismatch(format!(
                "scenario {}: result {sum:?} differs from first {first:?}",
                sum.fingerprint
            )),
            Some(_) => {}
            None => {
                report.mismatch(format!("scenario {}: cache hit without a run", sum.fingerprint))
            }
        }
        if sum.apps_completed != sum.apps_total {
            report.failed += 1;
            report.notes.push(format!("scenario {}: incomplete run", sum.fingerprint));
            continue;
        }
        p.ok += 1;
        p.all_rtt.push(r.rtt_ms);
        if r.cached {
            p.hit_rtt.push(r.rtt_ms);
        } else {
            p.miss_rtt.push(r.rtt_ms);
        }
    }
}

fn set_serve(report: &mut Report, p: &Phase) {
    report.set("serve.jobs_per_s", p.jobs_per_s(), "1/s", p.ok as usize);
    report.set_quantiles("serve.hit_rtt_ms", &p.hit_rtt, "ms", &[("p50", 0.5), ("p99", 0.99)]);
    report.set_quantiles("serve.miss_rtt_ms", &p.miss_rtt, "ms", &[("p50", 0.5), ("p99", 0.99)]);
}

/// Re-runs every warmed scenario and a sample of fresh ones in process
/// (`parse_job` + `JobRunner::run`) and compares the makespans with the
/// daemon's. With a tracer the runs are traced and their spans folded
/// into the DES and scheduler metrics for EFT.
fn check_in_process(
    report: &mut Report,
    serve: &Serve,
    library: &Arc<AppLibrary>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(), String> {
    let mut seeds: Vec<u64> = serve.hit_seeds.clone();
    let step = (serve.fresh_seeds.len() / SAMPLE_MISSES).max(1);
    seeds.extend(serve.fresh_seeds.iter().step_by(step).take(SAMPLE_MISSES));
    let mut runner = JobRunner::new();
    let mut runs = Vec::new();
    let mut invocations = 0u64;
    let mut trait_calls = 0u64;
    for (i, &s) in seeds.iter().enumerate() {
        let parsed = parse_job(body(s).as_bytes(), library)?;
        let (result, run_id, calls) = match tracer {
            Some(t) => trace::run_job(
                &mut runner,
                parsed.scenario.spec().clone(),
                Engine::Des,
                t,
                i as u32,
            ),
            None => (runner.run(&parsed.scenario, Engine::Des).map_err(|e| e.to_string()), 0, 0),
        };
        let job = result.map_err(|e| format!("in-process run of {s:016x}: {e}"))?;
        let want = &serve.first[&job.fingerprint.to_string()];
        if job.stats.makespan.as_nanos() as u64 != want.makespan_ns {
            report.mismatch(format!(
                "scenario {s:016x}: in-process makespan {} ns, daemon {} ns",
                job.stats.makespan.as_nanos(),
                want.makespan_ns
            ));
        }
        if i < serve.hit_seeds.len() {
            invocations += job.stats.sched_invocations;
            trait_calls += calls;
        }
        runs.push((run_id, job.stats.tasks.len() as u64));
    }
    report.notes.push(format!("checked {} scenario(s) in process", seeds.len()));
    let Some(tracer) = tracer else { return Ok(()) };
    let spans = Spans::new(tracer.take());
    report.set_quantiles("job.compile_ms", &spans.ms("compile"), "ms", &[("p50", 0.5)]);
    report.set_quantiles("job.fingerprint_ms", &spans.ms("fingerprint"), "ms", &[("p50", 0.5)]);
    let (mut run_ms, mut sched_ms, mut loop_ms) = (vec![], vec![], vec![]);
    let (mut events, mut run_ns) = (0u64, 0u64);
    for (run_id, tasks) in runs {
        let span = spans.get(run_id);
        run_ms.push(span.dur() as f64 / 1e6);
        sched_ms.push(spans.child_ns(span) as f64 / 1e6);
        loop_ms.push(spans.self_ns(span) as f64 / 1e6);
        events += 2 * tasks;
        run_ns += span.dur();
    }
    let n = run_ms.len();
    report.set("des.run_ms.p50.eft", stats::median(&run_ms), "ms", n);
    report.set("des.events_per_s.eft", events as f64 / (run_ns as f64 / 1e9), "1/s", n);
    report.set("sched.self_ms.eft", stats::median(&sched_ms), "ms", n);
    report.set("des.loop_self_ms.eft", stats::median(&loop_ms), "ms", n);
    report.set("sched.invocations.eft", invocations as f64, "count", serve.hit_seeds.len());
    report.set("sched.trait_calls.eft", trait_calls as f64, "count", serve.hit_seeds.len());
    // `parse_job` (which runs on the daemon's HTTP thread), called on
    // its own for a warmed body and for fresh bodies.
    let parse = |seed_of: &dyn Fn(usize) -> u64| -> Result<Vec<f64>, String> {
        let mut ms = Vec::new();
        for i in 0..PARSE_REPS {
            let b = body(seed_of(i));
            let t = tracer.now();
            std::hint::black_box(parse_job(b.as_bytes(), library)?);
            ms.push((tracer.now() - t) as f64 / 1e6);
            tracer.record_new("parse_job", t, 0, i as u32);
        }
        Ok(ms)
    };
    let hit_seed = serve.hit_seeds[0];
    let hit = parse(&|_| hit_seed)?;
    let miss = parse(&|i| op_seed(hit_seed, i as u64))?;
    report.set("api.parse_job_ms.p50.hit", stats::median(&hit), "ms", hit.len());
    report.set("api.parse_job_ms.p50.miss", stats::median(&miss), "ms", miss.len());
    Ok(())
}

/// Runs the workload. The run is split into slices with a set-up
/// between them; in a traced run the slices alternate between untraced
/// and traced load, so both kinds see the same drift of the host.
pub fn run(args: &Args, trace_out: Option<&std::path::Path>) -> Result<Report, String> {
    let mut report = Report::default();
    let library = Arc::new(dssoc_apps::standard_library().0);
    let tracer = trace_out.map(|_| Tracer::new());
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut all = Vec::new();
    let mut before = None;
    let setup = || Serve::setup(args.seed);
    let serve = common::sliced(&mut report, args.run, setup, |serve, report, i, until| {
        if before.is_none() {
            before = Some(cache_counters(serve.daemon.addr())?);
        }
        let tr = tracer.as_deref().filter(|_| i % 2 == 1);
        let (recs, wall) = serve.load(args.seed, until, tr, i as u64);
        let phase = if tr.is_some() { &mut traced } else { &mut plain };
        check_slice(report, serve, &recs, wall, phase);
        all.extend(recs);
        Ok(())
    })?;
    let addr = serve.daemon.addr();
    let (h0, m0) = before.expect("at least one slice");
    set_serve(&mut report, &plain);
    match (&tracer, trace_out) {
        (Some(t), Some(path)) => {
            report.set(
                "trace.overhead_pct",
                (plain.jobs_per_s() / traced.jobs_per_s() - 1.0) * 100.0,
                "%",
                traced.ok as usize,
            );
            let spans = Spans::new(t.take());
            let http = [("p50", 0.5), ("p99", 0.99)];
            report.set_quantiles("http.post_ms", &spans.ms("http.post"), "ms", &http);
            report.set_quantiles("http.poll_ms", &spans.ms("http.poll"), "ms", &[("p50", 0.5)]);
            report.set_quantiles("http.result_ms", &spans.ms("http.result"), "ms", &[("p50", 0.5)]);
            let jobs = spans.ms("job").len().max(1);
            let polls = spans.ms("http.poll").len() as f64 / jobs as f64;
            report.set("http.polls_per_job", polls, "count", jobs);
            trace::write_chrome(path, &spans.all)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            report.notes.push(format!("spans written to {}", path.display()));
        }
        _ => {
            report.set_quantiles("op_ms", &plain.all_rtt, "ms", &common::OP_TAIL);
        }
    }
    let (h1, m1) = cache_counters(addr)?;
    let done: Vec<&OpRec> = all.iter().filter(|r| r.ok).collect();
    let hits = done.iter().filter(|r| r.cached).count() as u64;
    let misses = done.len() as u64 - hits;
    if (h1 - h0, m1 - m0) != (hits, misses) {
        report.mismatch(format!(
            "clients saw {hits} hit(s) and {misses} miss(es); /metrics counted {} and {}",
            h1 - h0,
            m1 - m0
        ));
    }
    report.set("cache.hits", hits as f64, "count", done.len());
    report.set("cache.misses", misses as f64, "count", done.len());
    report.set("cache.hit_ratio", hits as f64 / done.len().max(1) as f64, "ratio", done.len());
    report.set("job.cache_hits", (h1 - h0) as f64, "count", 1);
    report.set("job.cache_misses", (m1 - m0) as f64, "count", 1);
    let qw: Vec<f64> = done.iter().map(|r| r.queue_wait_ms).collect();
    report.set_quantiles("manager.queue_wait_ms", &qw, "ms", &[("p50", 0.5), ("p99", 0.99)]);
    let run_of = |cached: bool| {
        done.iter().filter(|r| r.cached == cached).map(|r| r.run_ms).collect::<Vec<_>>()
    };
    report.set("manager.run_ms.p50.hit", stats::median(&run_of(true)), "ms", hits as usize);
    report.set("manager.run_ms.p50.miss", stats::median(&run_of(false)), "ms", misses as usize);
    report.set(
        "manager.rejected",
        all.iter().filter(|r| r.rejected).count() as f64,
        "count",
        all.len(),
    );
    check_in_process(&mut report, &serve, &library, tracer.as_ref())?;
    common::set_failures(&mut report);
    serve.daemon.shutdown();
    Ok(report)
}
