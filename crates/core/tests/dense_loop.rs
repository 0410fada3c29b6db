//! Pins the DES dense FIFO fast loop (`run_loop_dense`) to the general
//! event loop: same workload, same FRFS policy, three execution paths —
//! (a) the dense fast loop (plain `FrfsScheduler`, no observers),
//! (b) the general loop driven through `schedule_into` (a wrapper hides
//!     `dense_fifo()` so the engine cannot take any shortcut), and
//! (c) the general loop with a metrics observer attached (eager task
//!     records plus the mid-loop dense-assignment branch).
//!
//! All three must produce bit-identical stats: every task record field,
//! app records, per-PE busy time, makespan, scheduler-invocation count,
//! and the overhead breakdown — with and without per-invocation
//! overhead charging, on a heterogeneous platform with staggered
//! arrivals so scheduling interleaves with completions.

use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::InjectionParams;
use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::job::CostSpec;
use dssoc_core::prelude::*;
use dssoc_core::sched::{Assignment, PeView, SchedContext};
use dssoc_core::stats::OverheadBreakdown;
use dssoc_core::task::ReadyTask;
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

const APPS: [&str; 4] = ["pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"];

/// Deterministic cost table covering every `(runfunc, PE class)` pair
/// the reference apps can hit on `platform` (same recipe as the
/// cross-engine differential suite).
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

/// Delegates every scheduling decision to [`FrfsScheduler`] but keeps
/// the default `dense_fifo() == false`, so the engine must run the
/// general event loop with `PeView` materialization and virtual
/// dispatch — the reference behavior the fast loop is pinned against.
struct GeneralFrfs(FrfsScheduler);

impl Scheduler for GeneralFrfs {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn schedule(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
    ) -> Vec<Assignment> {
        self.0.schedule(ready, pes, ctx)
    }

    fn schedule_into(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
        out: &mut Vec<Assignment>,
    ) {
        self.0.schedule_into(ready, pes, ctx, out)
    }

    fn uses_estimates(&self) -> bool {
        false
    }
}

/// Everything observable a DES run produces, flattened into comparable
/// owned tuples (task and app records carry interned `Name`s whose ids
/// differ across independent runs, so compare by string).
type Fingerprint = (
    Duration,
    u64,
    OverheadBreakdown,
    Vec<(u32, Duration)>,
    Vec<(u64, String, String, usize, String, u32, u64, u64, u64, Duration, Duration)>,
    Vec<(u64, String, u64, u64, usize)>,
);

fn fingerprint(stats: &EmulationStats) -> Fingerprint {
    (
        stats.makespan,
        stats.sched_invocations,
        stats.overhead,
        stats.pe_busy.iter().map(|(pe, d)| (pe.0, *d)).collect(),
        stats
            .tasks
            .iter()
            .map(|t| {
                (
                    t.instance.0,
                    t.app.as_str().to_owned(),
                    t.node.as_str().to_owned(),
                    t.node_idx,
                    t.kernel.as_str().to_owned(),
                    t.pe.0,
                    t.ready_at.0,
                    t.start.0,
                    t.finish.0,
                    t.modeled,
                    t.measured,
                )
            })
            .collect(),
        stats
            .apps
            .iter()
            .map(|a| {
                (a.instance.0, a.app.as_str().to_owned(), a.arrival.0, a.finish.0, a.task_count)
            })
            .collect(),
    )
}

#[test]
fn dense_loop_matches_general_loop() {
    let (library, _registry) = standard_library();
    let platform = zcu102(3, 2);
    let table = full_cost_table(&library, &platform);
    let injections = APPS
        .iter()
        .map(|a| InjectionParams {
            app: (*a).to_owned(),
            period: Duration::from_micros(40),
            probability: 0.8,
        })
        .collect();
    let workload = WorkloadSpec::performance(injections, Duration::from_millis(2), 7)
        .generate(&library)
        .expect("workload");

    for overhead in [Duration::ZERO, Duration::from_nanos(700)] {
        let spec = ScenarioSpec::builder()
            .library(library.clone())
            .platform(platform.clone())
            .workload(workload.clone())
            .overhead(OverheadMode::Fixed(overhead))
            .cost(CostSpec::table(table.clone()))
            .build()
            .expect("spec");
        let scenario = CompiledScenario::compile(spec).expect("scenario");

        // (a) Dense fast loop, cold then warm (scratch reuse).
        let mut des = DesSimulator::new();
        let mut frfs = FrfsScheduler::new();
        let dense_cold = des.run(&mut frfs, &scenario).expect("dense cold");
        let dense_warm = des.run(&mut frfs, &scenario).expect("dense warm");

        // (b) General loop: identical policy, shortcut hidden.
        let mut des = DesSimulator::new();
        let mut wrapped = GeneralFrfs(FrfsScheduler::new());
        let general = des.run(&mut wrapped, &scenario).expect("general");

        // (c) General loop with eager records: a metrics observer takes
        // FRFS off the fast path but keeps its dense mid-loop branch.
        let mut des = DesSimulator::new();
        des.set_metrics(Some(MetricsRegistry::new()));
        let mut frfs = FrfsScheduler::new();
        let observed = des.run(&mut frfs, &scenario).expect("observed");

        assert!(!general.tasks.is_empty(), "workload produced no tasks");
        let want = fingerprint(&general);
        for (label, stats) in
            [("dense cold", &dense_cold), ("dense warm", &dense_warm), ("metrics", &observed)]
        {
            assert_eq!(
                fingerprint(stats),
                want,
                "{label} run diverged from the general loop (overhead {overhead:?})"
            );
        }
    }
}
