//! Turn-around-time comparison between the threaded emulation engine and
//! the discrete-event baseline (paper §III-D): the DES is faster per run
//! because it executes nothing — and that is exactly why it cannot do
//! functional validation or capture scheduling overhead. The emulator
//! pays for running real kernels but stays far below cycle-accurate
//! simulation cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::des::DesSimulator;
use dssoc_core::engine::{Emulation, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioSpec};
use dssoc_core::FrfsScheduler;
use dssoc_platform::cost::CostTable;
use dssoc_platform::presets::zcu102;

fn cost_table() -> CostTable {
    let mut t = CostTable::new();
    for k in [
        "range_detect_LFM",
        "range_detect_FFT_0_CPU",
        "range_detect_FFT_1_CPU",
        "range_detect_MUL",
        "range_detect_IFFT_CPU",
        "range_detect_MAX",
    ] {
        t.set(k, "cortex-a53", Duration::from_micros(30));
    }
    t
}

fn bench_engines(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation([("range_detection", 16usize)]).generate(&library).unwrap();
    // Scenarios compile outside the timed closures: each iteration
    // measures an engine's construction and one run.
    let scenario = |overhead: OverheadMode, cost: CostSpec| {
        let spec = ScenarioSpec::builder()
            .library(library.clone())
            .platform(zcu102(3, 0))
            .workload(workload.clone())
            .timing(TimingMode::Modeled)
            .overhead(overhead)
            .cost(cost)
            .build()
            .unwrap();
        CompiledScenario::compile(spec).unwrap()
    };
    let modeled = scenario(OverheadMode::None, CostSpec::table(cost_table()));
    let measured = scenario(OverheadMode::Measured, CostSpec::default());

    let mut g = c.benchmark_group("turnaround");
    g.sample_size(20);

    g.bench_function("emulator_modeled", |b| {
        b.iter(|| {
            let mut emu = Emulation::new(&modeled).unwrap();
            black_box(emu.run(&mut FrfsScheduler::new(), &modeled).unwrap())
        })
    });

    g.bench_function("emulator_measured_costs", |b| {
        b.iter(|| {
            let mut emu = Emulation::new(&measured).unwrap();
            black_box(emu.run(&mut FrfsScheduler::new(), &measured).unwrap())
        })
    });

    g.bench_function("des_baseline", |b| {
        b.iter(|| black_box(DesSimulator::new().run(&mut FrfsScheduler::new(), &modeled).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
