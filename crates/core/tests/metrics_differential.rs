//! Cross-engine metrics differential test: both engines publish their
//! metric samples through the shared exec-core funnels
//! (`ReadyList`/`PeSlots`/`CompletionSink`), so on a deterministic cell
//! — fully populated cost table, no overhead charging — the
//! threaded-Modeled engine and the DES must expose the *same* metric
//! families with the *same* values, down to identical histogram bucket
//! vectors. Two families are exempt by design:
//!
//! * `dssoc_task_skew_ns` records modeled-vs-measured skew and only
//!   fires when a task actually executed on the host (`measured > 0`),
//!   which never happens in the DES;
//! * `dssoc_runs` labels the run with the scheduler display name, and
//!   the DES marks its name with a `" (DES)"` suffix.

use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::job::CostSpec;
use dssoc_core::prelude::*;
use dssoc_core::sched::by_name;
use dssoc_metrics::{MetricsRegistry, SampleSnapshot};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

const APPS: [&str; 4] = ["pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"];

/// Families that legitimately differ between the engines (see module
/// docs).
const ENGINE_SPECIFIC: [&str; 2] = ["dssoc_task_skew_ns", "dssoc_runs"];

fn full_cost_table(library: &AppLibrary, platform: &PlatformConfig) -> CostTable {
    let mut table = CostTable::new();
    for app in APPS {
        let spec = library.get(app).expect("reference app");
        for node in &spec.nodes {
            for pe in &platform.pes {
                if let Some(p) = node.platform(&pe.platform_key) {
                    let d = p
                        .mean_exec
                        .unwrap_or_else(|| Duration::from_micros(50 + 10 * node.index as u64));
                    table.set(p.runfunc.clone(), pe.class_name(), d);
                }
            }
        }
    }
    table
}

/// Runs one cell on the chosen engine with a fresh registry and returns
/// the comparable samples: every family except the engine-specific
/// ones, in snapshot (name, labels) order.
fn metric_samples(platform: &PlatformConfig, scheduler: &str, des: bool) -> Vec<SampleSnapshot> {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 1usize))).generate(&library).expect("workload");
    let table = full_cost_table(&library, platform);
    let metrics = MetricsRegistry::new();
    let mut sched = by_name(scheduler).expect("library policy");

    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(platform.clone())
        .workload(workload)
        .timing(TimingMode::Modeled)
        .overhead(OverheadMode::None)
        .cost(CostSpec::table(table))
        .build()
        .expect("spec");
    let scenario = CompiledScenario::compile(spec).expect("scenario");
    if des {
        let mut sim = DesSimulator::new();
        sim.set_metrics(Some(metrics.clone()));
        sim.run(sched.as_mut(), &scenario).expect("simulation");
    } else {
        let mut emu = Emulation::new(&scenario).expect("platform");
        emu.set_metrics(Some(metrics.clone()));
        emu.run(sched.as_mut(), &scenario).expect("emulation");
    }

    metrics
        .snapshot()
        .samples
        .into_iter()
        .filter(|s| !ENGINE_SPECIFIC.contains(&s.name.as_str()))
        .collect()
}

/// A comparable, diff-friendly rendering of one sample: histogram
/// families compare on the full sparse bucket vector plus
/// count/sum/max, counters and gauges on the value.
fn render(s: &SampleSnapshot) -> String {
    let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    match &s.histogram {
        Some(h) => format!(
            "{}{{{}}} {} buckets={:?} count={} sum={} max={}",
            s.name,
            labels.join(","),
            s.kind,
            h.buckets,
            h.count,
            h.sum,
            h.max
        ),
        None => format!("{}{{{}}} {} value={}", s.name, labels.join(","), s.kind, s.value),
    }
}

#[test]
fn engines_expose_identical_metric_families() {
    // CPU-only configs: the domain where the engines are bit-exact
    // (same as `differential.rs` — heterogeneous tie-breaking between
    // equivalent PE classes is allowed to differ across engines).
    for scheduler in ["frfs", "met"] {
        for (cores, ffts) in [(2usize, 0usize), (3, 0)] {
            let platform = zcu102(cores, ffts);
            let emu: Vec<String> =
                metric_samples(&platform, scheduler, false).iter().map(render).collect();
            let des: Vec<String> =
                metric_samples(&platform, scheduler, true).iter().map(render).collect();
            assert!(!emu.is_empty(), "threaded engine published no metric samples");
            assert_eq!(emu, des, "metric samples diverged: {scheduler} on zcu102 {cores}C+{ffts}F");
        }
    }
}

/// The sample set covers the instrumented subsystems: scheduling,
/// per-PE execution, per-app completion, overhead phases, and the
/// fault counters (zero-valued on a fault-free run but still present,
/// so dashboards see stable families).
#[test]
fn sample_set_covers_instrumented_families() {
    let platform = zcu102(2, 1);
    let samples = metric_samples(&platform, "frfs", false);
    let has = |name: &str| samples.iter().any(|s| s.name == name);
    for family in [
        "dssoc_tasks_ready",
        "dssoc_ready_depth",
        "dssoc_ready_depth_observed",
        "dssoc_tasks_completed",
        "dssoc_task_wait_ns",
        "dssoc_task_exec_ns",
        "dssoc_kernel_exec_ns",
        "dssoc_pes_busy",
        "dssoc_pes_quarantined",
        "dssoc_apps_completed",
        "dssoc_app_latency_ns",
        "dssoc_sched_invocations",
        "dssoc_overhead_ns",
        "dssoc_faults",
        "dssoc_retries",
        "dssoc_quarantines",
        "dssoc_degraded_dispatches",
        "dssoc_apps_aborted",
        "dssoc_fault_survivals",
    ] {
        assert!(has(family), "family {family} missing from snapshot");
    }
    // Spot-check values against ground truth: every task completion and
    // app completion is counted, and the run drained the ready list.
    let total_tasks: f64 =
        samples.iter().filter(|s| s.name == "dssoc_tasks_completed").map(|s| s.value).sum();
    let ready: f64 =
        samples.iter().filter(|s| s.name == "dssoc_tasks_ready").map(|s| s.value).sum();
    assert!(total_tasks > 0.0);
    assert_eq!(total_tasks, ready, "every ready task must complete on a clean run");
    let apps: f64 =
        samples.iter().filter(|s| s.name == "dssoc_apps_completed").map(|s| s.value).sum();
    assert_eq!(apps, APPS.len() as f64);
}
