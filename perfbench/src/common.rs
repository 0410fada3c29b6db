//! Inputs, outcome checks and metric bookkeeping shared by the
//! workloads.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::{AppLibrary, InjectionParams, Workload, WorkloadSpec};
use dssoc_core::job::{Fingerprint, JobResult};
use dssoc_core::stats::EmulationStats;
use dssoc_platform::pe::{PeKind, PlatformConfig};

use crate::stats::{self, Outcome};

/// The four library policies, in report order.
pub const POLICIES: [&str; 4] = ["frfs", "met", "eft", "random"];

/// Workload seed for warm-up runs during set-up; no operation draws it.
pub const WARM_SEED: u64 = u64::MAX;

/// Set-ups timed per run, spread evenly over the measurement;
/// `setup_s` is their median. The host's speed drifts over seconds, so
/// set-up is sampled across the whole run, as the operations are.
pub const SETUP_REPS: usize = 10;

/// The seeded performance-mode SDR mix over `frame`. Pulse Doppler
/// (770 tasks per instance) injects with probability 1, so the task
/// count barely depends on the seed; the three light applications
/// inject with probability 0.8.
pub fn sdr_mix(frame: Duration, seed: u64) -> WorkloadSpec {
    let inj = |app: &str, period_us: u64, probability: f64| InjectionParams {
        app: app.to_string(),
        period: Duration::from_micros(period_us),
        probability,
    };
    WorkloadSpec::performance(
        vec![
            inj("range_detection", 400, 0.8),
            inj("pulse_doppler", 20_000, 1.0),
            inj("wifi_tx", 500, 0.8),
            inj("wifi_rx", 700, 0.8),
        ],
        frame,
        seed,
    )
}

/// Generates the SDR mix for `seed`.
pub fn sdr_workload(
    library: &AppLibrary,
    frame: Duration,
    seed: u64,
) -> Result<Arc<Workload>, String> {
    let w = sdr_mix(frame, seed).generate(library).map_err(|e| e.to_string())?;
    Ok(Arc::new(w))
}

/// The compared simulated outputs of a run.
pub fn outcome(stats: &EmulationStats, fingerprint: Fingerprint) -> Outcome {
    Outcome {
        fingerprint: fingerprint.0,
        makespan_ns: stats.makespan.as_nanos() as u64,
        tasks: stats.tasks.len() as u64,
        apps_completed: stats.completed_apps() as u64,
        sched_invocations: stats.sched_invocations,
        pe_busy_ns: stats.pe_busy.values().map(|d| d.as_nanos() as u64).collect(),
    }
}

/// Completeness of a run of `workload`: without faults every app and
/// every task finishes; with faults every app either finishes or is
/// aborted by the recovery policy.
pub fn complete(
    stats: &EmulationStats,
    workload: &Workload,
    expected_tasks: usize,
    faulted: bool,
) -> bool {
    if faulted {
        stats.completed_apps() as u64 + stats.reliability.apps_aborted == workload.len() as u64
    } else {
        stats.completed_apps() == workload.len() && stats.tasks.len() == expected_tasks
    }
}

/// `(tasks placed on accelerator PEs, accelerator busy ns, accelerator
/// ns available)` of one run, all simulated.
pub fn accel_usage(stats: &EmulationStats, platform: &PlatformConfig) -> (u64, u64, u64) {
    let accel: Vec<u32> = platform
        .pes
        .iter()
        .filter(|pe| matches!(pe.kind, PeKind::Accel(_)))
        .map(|pe| pe.id.0)
        .collect();
    let tasks = stats.tasks.iter().filter(|t| accel.contains(&t.pe.0)).count() as u64;
    let busy: u64 = stats
        .pe_busy
        .iter()
        .filter(|(pe, _)| accel.contains(&pe.0))
        .map(|(_, d)| d.as_nanos() as u64)
        .sum();
    (tasks, busy, accel.len() as u64 * stats.makespan.as_nanos() as u64)
}

/// Runs `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Splits the run into [`SETUP_REPS`] equal slices and calls
/// `slice(instance, report, index, until)` for each, timing one set-up
/// before every slice. The first set-up builds the instance the slices
/// share; each later one builds a second instance that is dropped at
/// once. Sets `setup_s` to the median set-up time and returns the
/// shared instance.
pub fn sliced<T>(
    report: &mut Report,
    run: Duration,
    mut setup: impl FnMut() -> Result<T, String>,
    mut slice: impl FnMut(&mut T, &mut Report, usize, Instant) -> Result<(), String>,
) -> Result<T, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut shared: Option<T> = None;
    for i in 0..SETUP_REPS {
        let (built, secs) = timed(&mut setup);
        times.push(secs);
        let until = start + run.mul_f64((i + 1) as f64 / SETUP_REPS as f64);
        // Keeps the first instance; a later one is dropped here.
        slice(shared.get_or_insert(built?), report, i, until)?;
    }
    report.set("setup_s", stats::median(&times), "s", times.len());
    Ok(shared.expect("at least one set-up"))
}

/// What one scenario's result is checked against.
pub struct Expect<'a> {
    /// Report key, also the digest key.
    pub key: String,
    /// Compare with the recorded digest (default seed, recorded ops).
    pub compare: bool,
    /// The workload the scenario ran.
    pub workload: &'a Workload,
    /// Its task count.
    pub tasks: usize,
    /// Whether faults were injected.
    pub faulted: bool,
    /// Whether the scenario may end in the known EFT fault deadlock
    /// (EFT with faults injected).
    pub known_defect: bool,
}

/// Whether `error` is the known EFT fault deadlock: the DES engine
/// stops because EFT dispatches none of the ready tasks after the
/// fault path quarantined a PE. Any other error is a failure.
pub fn is_eft_fault_deadlock(error: &str) -> bool {
    error.contains("deadlock: ") && error.contains("scheduler 'EFT' dispatches nothing")
}

/// Counts one attempted scenario and checks its result: the digest for
/// the default seed, no cache hit (every scenario is new to the
/// runner's cache) and completeness. Returns the result when the
/// scenario succeeded. The known EFT fault deadlock, where the scenario
/// allows it, counts as a known defect; any other engine error or an
/// incomplete run counts as failed.
pub fn evaluate<'r>(
    report: &mut Report,
    digests: &mut Digests,
    expect: &Expect<'_>,
    result: &'r Result<JobResult, String>,
) -> Option<&'r JobResult> {
    report.attempted += 1;
    let key = &expect.key;
    if expect.compare {
        let digest = result.as_ref().ok().map(|j| outcome(&j.stats, j.fingerprint).digest());
        if let Some(m) = digests.check(key, digest) {
            report.mismatch(m);
        }
    }
    let why = match result {
        Err(e) if expect.known_defect && is_eft_fault_deadlock(e) => {
            report.known_defects += 1;
            if report.known_defects == 1 {
                report.notes.push(format!("known defect {key}: {e}"));
            }
            return None;
        }
        Err(e) => e.clone(),
        Ok(job) if job.cached => {
            report.mismatch(format!("{key}: unexpected cache hit"));
            return None;
        }
        Ok(job) if !complete(&job.stats, expect.workload, expect.tasks, expect.faulted) => {
            "incomplete run".to_string()
        }
        Ok(job) => return Some(job),
    };
    report.failed += 1;
    if report.failed <= 3 {
        report.notes.push(format!("failed {key}: {why}"));
    }
    None
}

/// The operation-time tail reported end to end. On a host whose speed
/// switches between a fast and a slow mode, p90 lies in the slow mode
/// in any run that sees some slow time, so it repeats from run to run
/// where means, medians and low tails do not.
pub const OP_TAIL: [(&str, f64); 1] = [("p90", 0.9)];

/// Sets `ok_ratio` and `failed_ratio` from the attempted, failed and
/// known-defect counts: both ratios count every scenario that did not
/// finish, the known defect included.
pub fn set_failures(report: &mut Report) {
    let n = report.attempted as usize;
    let unfinished = report.failed + report.known_defects;
    let failed = unfinished as f64 / report.attempted.max(1) as f64;
    report.set("failed_ratio", failed, "ratio", n);
    report.set("ok_ratio", 1.0 - failed, "ratio", n);
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (engine error, incomplete run, non-2xx
    /// response, deadline miss).
    pub failed: u64,
    /// Operations that ended in a known, checked defect (the EFT fault
    /// deadlock) rather than a failure.
    pub known_defects: u64,
    /// Correctness mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name.into(), Metric { value, unit, samples });
    }

    /// Sets `<name>.<label>` to percentile `q` of `samples` for each
    /// `(label, q)`; a tail with fewer than [`stats::MIN_BEYOND`]
    /// samples beyond it adds a warning note.
    pub fn set_quantiles(
        &mut self,
        name: &str,
        samples: &[f64],
        unit: &'static str,
        qs: &[(&str, f64)],
    ) {
        for &(label, q) in qs {
            let n = samples.len();
            if q > 0.5 && stats::beyond(n, q) < stats::MIN_BEYOND {
                let best = stats::tail_quantile(n)
                    .map_or("none".to_string(), |t| format!("p{}", t * 100.0));
                self.notes.push(format!(
                    "warning: {name}.{label} rests on {} sample(s) beyond it (n={n}); \
                     the highest supported tail is {best}",
                    stats::beyond(n, q)
                ));
            }
            self.set(
                format!("{name}.{label}"),
                stats::percentile(samples, q).unwrap_or(0.0),
                unit,
                n,
            );
        }
    }

    /// Records a correctness mismatch.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }
}

/// Recorded digests for the default seed (`perfbench/digests.json`).
pub struct Digests {
    map: BTreeMap<String, String>,
    record: bool,
    recorded: BTreeMap<String, String>,
}

/// The seed whose digests are recorded beside the benchmark.
pub const DIGEST_SEED: u64 = 0;

impl Digests {
    /// Loads the recorded digests. In `record` mode collects new ones
    /// instead of comparing, merging them over the file as it is on
    /// disk now.
    pub fn load(record: bool) -> Result<Digests, String> {
        let text = if record {
            std::fs::read_to_string(Self::path()).map_err(|e| format!("digests.json: {e}"))?
        } else {
            include_str!("../digests.json").to_string()
        };
        let v: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("digests.json: {e}"))?;
        let mut map = BTreeMap::new();
        if let Some(obj) = v.get("digests").and_then(|d| d.as_object()) {
            for (k, val) in obj {
                map.insert(k.clone(), val.as_str().unwrap_or_default().to_string());
            }
        }
        Ok(Digests { map, record, recorded: BTreeMap::new() })
    }

    /// The digest file beside the benchmark's sources.
    pub fn path() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.json")
    }

    /// Checks (or records) the result of scenario `key`: a digest, or
    /// `None` for a run that failed. A scenario recorded as failed is a
    /// known defect and is not compared, so a later fix does not trip
    /// the gate. A key with no recorded digest is a mismatch, so a
    /// renamed scenario cannot switch the gate off. Returns a mismatch
    /// description.
    pub fn check(&mut self, key: &str, digest: Option<u64>) -> Option<String> {
        let now = digest.map_or("failed".to_string(), |d| format!("{d:016x}"));
        if self.record {
            self.recorded.insert(key.to_string(), now);
            return None;
        }
        match self.map.get(key) {
            None => Some(format!("{key}: no recorded digest (got {now})")),
            Some(want) if want == "failed" || *want == now => None,
            Some(want) => Some(format!("{key}: digest {now}, recorded {want}")),
        }
    }

    /// The digests collected in record mode, merged over the loaded
    /// ones, as the file's JSON text.
    pub fn recorded_json(&self) -> String {
        let mut all = self.map.clone();
        all.extend(self.recorded.clone());
        let mut out = format!("{{\n  \"seed\": {DIGEST_SEED},\n  \"digests\": {{\n");
        let n = all.len();
        for (i, (k, v)) in all.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            out.push_str(&format!("    \"{k}\": \"{v}\"{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(pairs: &[(&str, &str)]) -> Digests {
        let map = pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        Digests { map, record: false, recorded: BTreeMap::new() }
    }

    #[test]
    fn digest_check_compares_and_flags_missing_keys() {
        let mut d = recorded(&[("a", "00000000000000ff"), ("b", "failed")]);
        assert_eq!(d.check("a", Some(0xff)), None);
        assert!(d.check("a", Some(0xfe)).is_some());
        assert!(d.check("a", None).is_some());
        // A recorded failure is a known defect: any outcome passes.
        assert_eq!(d.check("b", None), None);
        assert_eq!(d.check("b", Some(1)), None);
        let missing = d.check("c", Some(1)).expect("a missing key is a mismatch");
        assert!(missing.contains("no recorded digest"), "{missing}");
    }

    #[test]
    fn only_the_eft_fault_deadlock_is_a_known_defect() {
        let eft = "configuration error: deadlock: 1 ready task(s) but scheduler 'EFT' dispatches nothing and no \
                   events remain";
        assert!(is_eft_fault_deadlock(eft));
        assert!(!is_eft_fault_deadlock(&eft.replace("EFT", "MET")));
        assert!(!is_eft_fault_deadlock("fault: PE 3 failed"));
    }

    #[test]
    fn record_mode_collects_instead_of_comparing() {
        let mut d = recorded(&[("a", "0000000000000001")]);
        d.record = true;
        assert_eq!(d.check("a", Some(2)), None);
        assert_eq!(d.check("new", None), None);
        let json = d.recorded_json();
        assert!(json.contains("\"a\": \"0000000000000002\""), "{json}");
        assert!(json.contains("\"new\": \"failed\""), "{json}");
    }
}
