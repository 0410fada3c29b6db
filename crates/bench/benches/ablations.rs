//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **DMA model sweep** — where the CPU/accelerator crossover sits as a
//!   function of the DMA setup cost (the mechanism behind the paper's
//!   "128-point FFTs are faster on a core" finding).
//! * **Contention model** — the 2C+2F plateau with and without the
//!   shared-host-core penalty for accelerator manager threads.
//! * **Overlay speed** — how a slower management core inflates makespan
//!   via scheduling overhead (the Fig. 11 explanation).
//! * **Reservation-queue surrogate** — the paper's stated future work:
//!   what a reservation queue would buy is approximated by charging zero
//!   scheduling overhead (DES knob).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dssoc_appmodel::WorkloadSpec;
use dssoc_appmodel::{AppLibrary, Workload};
use dssoc_apps::standard_library;
use dssoc_core::des::DesSimulator;
use dssoc_core::engine::{Emulation, OverheadMode};
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioBuilder, ScenarioSpec};
use dssoc_core::FrfsScheduler;
use dssoc_platform::accel::FftAccelerator;
use dssoc_platform::cost::CostTable;
use dssoc_platform::dma::DmaModel;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::{zcu102, zcu102_fft_accel};

/// `workload` on `platform` with the default knobs, ready to compile.
fn spec(library: &AppLibrary, workload: &Workload, platform: PlatformConfig) -> ScenarioBuilder {
    ScenarioSpec::builder().library(library.clone()).workload(workload.clone()).platform(platform)
}

/// DMA-parameter sweep: total accelerator-visible latency for a 128-pt
/// FFT under different setup costs.
fn bench_dma_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dma_setup");
    for setup_us in [0u64, 7, 28, 112] {
        let mut model = zcu102_fft_accel();
        model.dma = DmaModel { setup: Duration::from_micros(setup_us), bytes_per_sec: 400e6 };
        let dev = FftAccelerator::new(model);
        g.bench_with_input(BenchmarkId::new("fft128_device", setup_us), &setup_us, |b, _| {
            b.iter(|| {
                let mut data = vec![dssoc_dsp::complex::Complex32::ONE; 128];
                let report = dev.process(&mut data, false).unwrap();
                black_box(report.total())
            })
        });
    }
    g.finish();
}

/// Contention ablation: the same 2C+2F workload with and without the
/// shared-core context-switch penalty.
fn bench_contention(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation([("range_detection", 8usize)]).generate(&library).unwrap();
    let mut g = c.benchmark_group("ablation_contention_2c2f");
    g.sample_size(15);
    for (label, penalty_us) in [("modeled", 10u64), ("disabled", 0)] {
        let mut platform = zcu102(2, 2);
        platform.contention.context_switch = Duration::from_micros(penalty_us);
        let scenario =
            CompiledScenario::compile(spec(&library, &workload, platform).build().unwrap())
                .unwrap();
        g.bench_with_input(BenchmarkId::new(label, penalty_us), &penalty_us, |b, _| {
            b.iter(|| {
                let mut emu = Emulation::new(&scenario).unwrap();
                let stats = emu.run(&mut FrfsScheduler::new(), &scenario).unwrap();
                black_box(stats.makespan)
            })
        });
    }
    g.finish();
}

/// Overlay-speed ablation: a slower management core inflates charged
/// scheduling overhead and thereby the makespan.
fn bench_overlay_speed(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation([("range_detection", 12usize)]).generate(&library).unwrap();
    let mut g = c.benchmark_group("ablation_overlay_speed");
    g.sample_size(15);
    for speed_pct in [100u64, 50, 15] {
        let mut platform = zcu102(3, 0);
        platform.overlay.speed = speed_pct as f64 / 100.0;
        let scenario =
            CompiledScenario::compile(spec(&library, &workload, platform).build().unwrap())
                .unwrap();
        g.bench_with_input(BenchmarkId::new("makespan", speed_pct), &speed_pct, |b, _| {
            b.iter(|| {
                let mut emu = Emulation::new(&scenario).unwrap();
                let stats = emu.run(&mut FrfsScheduler::new(), &scenario).unwrap();
                black_box(stats.makespan)
            })
        });
    }
    g.finish();
}

/// Reservation-queue surrogate: zero-overhead dispatch via the DES knob,
/// vs a fixed per-invocation scheduling charge.
fn bench_reservation_surrogate(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation([("range_detection", 12usize)]).generate(&library).unwrap();
    let mut table = CostTable::new();
    for k in [
        "range_detect_LFM",
        "range_detect_FFT_0_CPU",
        "range_detect_FFT_1_CPU",
        "range_detect_MUL",
        "range_detect_IFFT_CPU",
        "range_detect_MAX",
    ] {
        table.set(k, "cortex-a53", Duration::from_micros(30));
    }
    let mut g = c.benchmark_group("ablation_reservation");
    g.sample_size(20);
    for (label, ov_us) in [("per_completion_scheduling", 25u64), ("reservation_queue", 0)] {
        let built = spec(&library, &workload, zcu102(3, 0))
            .overhead(OverheadMode::Fixed(Duration::from_micros(ov_us)))
            .cost(CostSpec::table(table.clone()))
            .build()
            .unwrap();
        let scenario = CompiledScenario::compile(built).unwrap();
        g.bench_with_input(BenchmarkId::new(label, ov_us), &ov_us, |b, _| {
            b.iter(|| {
                let stats = DesSimulator::new().run(&mut FrfsScheduler::new(), &scenario).unwrap();
                black_box(stats.makespan)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_dma_sweep,
    bench_contention,
    bench_overlay_speed,
    bench_reservation_surrogate
);
criterion_main!(benches);
