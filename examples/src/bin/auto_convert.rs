//! Automatic application conversion (paper §II-E / case study 4).
//!
//! Takes the monolithic, unlabeled range-detection program, traces it,
//! detects its six kernels, outlines them into a DAG application,
//! recognizes the naive DFT/IDFT loop nests, and substitutes an
//! optimized FFT — then runs every variant through the emulator and
//! reports the speedups the paper quotes (~102x CPU, ~94x accelerator).
//!
//! ```sh
//! cargo run --release --bin auto_convert
//! ```

use dssoc_appmodel::{AppLibrary, WorkloadSpec};
use dssoc_compiler::{compile, programs, CompileOptions};
use dssoc_core::prelude::*;
use dssoc_platform::presets::zcu102;

fn read_scalar(mem: &dssoc_appmodel::memory::AppMemory, name: &str) -> f64 {
    f64::from_le_bytes(mem.read_bytes(name).unwrap()[..8].try_into().unwrap())
}

fn run_variant(
    opts: &CompileOptions,
    n: usize,
    delay: usize,
    cores: usize,
    ffts: usize,
) -> EmulationStats {
    let program = programs::monolithic_range_detection(n, delay);
    let app = compile(&program, opts).expect("compiles");
    if opts.substitute_optimized || opts.add_accelerator_platforms {
        println!("{}", app.report);
    }
    let mut library = AppLibrary::new();
    library.register_json(&app.json, &app.registry).expect("validates");
    let wl = WorkloadSpec::validation([(opts.app_name.clone(), 1usize)])
        .generate(&library)
        .expect("workload");
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(zcu102(cores, ffts))
        .scheduler("met")
        .workload(wl)
        .build()
        .expect("scenario");
    let stats = JobRunner::new().run_spec(spec, Engine::Threaded).expect("run").stats;
    let mem = stats.instance_memory(stats.apps[0].instance).unwrap();
    assert_eq!(read_scalar(mem, "lag"), delay as f64, "output must stay correct");
    stats
}

fn fft_node_time(stats: &EmulationStats) -> f64 {
    // kernel_1, kernel_2 are the DFTs; kernel_4 the IDFT.
    stats
        .tasks
        .iter()
        .filter(|t| ["kernel_1", "kernel_2", "kernel_4"].contains(&t.node.as_str()))
        .map(|t| t.modeled.as_secs_f64())
        .sum()
}

fn main() {
    let n = 512;
    let delay = 100;
    println!("== automatic conversion of monolithic range detection (n = {n}) ==");
    println!();

    // Variant 1: the compiled-monolith baseline — the recognized naive
    // O(n^2) DFT loops run natively (the paper's unlabeled C kernels
    // were compiled, not interpreted).
    let naive = run_variant(
        &CompileOptions {
            app_name: "rd_naive".into(),
            naive_native: true,
            ..CompileOptions::default()
        },
        n,
        delay,
        3,
        0,
    );

    // Variant 2: recognized kernels replaced by the optimized FFT.
    let optimized = run_variant(
        &CompileOptions {
            app_name: "rd_opt".into(),
            substitute_optimized: true,
            ..CompileOptions::default()
        },
        n,
        delay,
        3,
        0,
    );

    // Variant 3: recognized kernels redirected to the FFT accelerator
    // (3 cores + 1 FFT, the configuration of case study 4).
    let accel = run_variant(
        &CompileOptions {
            app_name: "rd_accel".into(),
            substitute_optimized: false,
            add_accelerator_platforms: true,
            ..CompileOptions::default()
        },
        n,
        delay,
        3,
        1,
    );

    let t_naive = fft_node_time(&naive);
    let t_opt = fft_node_time(&optimized);
    let t_accel = fft_node_time(&accel);

    println!("DFT/IDFT node time, naive compiled loops    : {:>10.3} ms", t_naive * 1e3);
    println!("DFT/IDFT node time, optimized FFT (CPU)     : {:>10.3} ms", t_opt * 1e3);
    println!("DFT/IDFT node time, FFT accelerator         : {:>10.3} ms", t_accel * 1e3);
    println!();
    println!(
        "speedup from recognition, CPU optimized     : {:>8.1}x  (paper: ~102x)",
        t_naive / t_opt
    );
    println!(
        "speedup from recognition, accelerator       : {:>8.1}x  (paper: ~94x)",
        t_naive / t_accel
    );
    println!();
    println!(
        "end-to-end makespan: naive {:.3} ms -> optimized {:.3} ms -> accel {:.3} ms",
        naive.makespan.as_secs_f64() * 1e3,
        optimized.makespan.as_secs_f64() * 1e3,
        accel.makespan.as_secs_f64() * 1e3
    );
}
