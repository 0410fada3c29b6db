//! Shared fixtures for the cross-crate integration tests.
//!
//! The tests themselves live in `tests/tests/`; this small library holds
//! the helpers they share.

use std::time::Duration;

use dssoc_appmodel::{AppLibrary, Workload, WorkloadSpec};
use dssoc_core::des::DesSimulator;
use dssoc_core::engine::{Emulation, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioBuilder, ScenarioSpec};
use dssoc_core::stats::EmulationStats;
use dssoc_core::Scheduler;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;

/// A scenario of `workload` on `platform` with the default knobs used by
/// most integration tests: modeled timing with measured (host-scaled)
/// costs and overhead.
pub fn scenario(
    library: &AppLibrary,
    workload: &Workload,
    platform: PlatformConfig,
) -> ScenarioBuilder {
    ScenarioSpec::builder().library(library.clone()).workload(workload.clone()).platform(platform)
}

/// The deterministic knobs on top of `spec`: modeled timing, no
/// overhead charge, costs from `table`.
pub fn deterministic(spec: ScenarioBuilder, table: CostTable) -> ScenarioBuilder {
    spec.timing(TimingMode::Modeled).overhead(OverheadMode::None).cost(CostSpec::table(table))
}

/// Runs a validation workload of `counts` on `platform` under
/// `scheduler` with the default knobs and returns the stats.
pub fn run_validation(
    platform: PlatformConfig,
    scheduler: &mut dyn Scheduler,
    library: &AppLibrary,
    counts: &[(&str, usize)],
) -> EmulationStats {
    let wl = WorkloadSpec::validation(counts.iter().map(|&(n, c)| (n.to_string(), c)))
        .generate(library)
        .expect("workload generation");
    emulate(scenario(library, &wl, platform), scheduler)
}

/// Compiles `spec` and runs it once under `scheduler` on a fresh
/// threaded engine.
pub fn emulate(spec: ScenarioBuilder, scheduler: &mut dyn Scheduler) -> EmulationStats {
    let scenario = CompiledScenario::compile_custom(spec.build().expect("scenario"))
        .expect("scenario compiles");
    Emulation::new(&scenario)
        .expect("platform config")
        .run(scheduler, &scenario)
        .expect("emulation run")
}

/// Compiles `spec` and runs it once under `scheduler` on the DES.
pub fn simulate(spec: ScenarioBuilder, scheduler: &mut dyn Scheduler) -> EmulationStats {
    let scenario = CompiledScenario::compile_custom(spec.build().expect("scenario"))
        .expect("scenario compiles");
    DesSimulator::new().run(scheduler, &scenario).expect("simulation run")
}

/// A cost table assigning `per_task` to every `(kernel, class)` pair in
/// the given kernel/class lists.
pub fn uniform_cost_table(kernels: &[&str], classes: &[&str], per_task: Duration) -> CostTable {
    let mut t = CostTable::new();
    for k in kernels {
        for c in classes {
            t.set(*k, *c, per_task);
        }
    }
    t
}
