//! Case study 4 — automatic application conversion.
//!
//! Compiles the monolithic, unlabeled range-detection program three
//! ways, runs each through the emulator on the paper's 3-core + 1-FFT
//! configuration, and measures the per-kernel speedup from hash-based
//! recognition:
//!
//! * **naive** — the recognized DFT/IDFT loops run as compiled naive
//!   `O(n^2)` code (the paper's baseline: loop DFTs in compiled C);
//! * **optimized** — runfuncs redirected to the `O(n log n)` FFT (the
//!   paper's FFTW substitution, ~102x);
//! * **accelerator** — `fft` platform entries added, routing the
//!   transform through the DMA-modeled device (paper ~94x).
//!
//! ```sh
//! cargo run --release --bin case4_compiler [n] [reps]
//! ```

use dssoc_appmodel::{AppLibrary, WorkloadSpec};
use dssoc_bench::report::BenchReport;
use dssoc_compiler::{compile, programs, CompileOptions};
use dssoc_core::prelude::*;
use dssoc_platform::presets::zcu102;

fn read_scalar(mem: &dssoc_appmodel::memory::AppMemory, name: &str) -> f64 {
    f64::from_le_bytes(mem.read_bytes(name).unwrap()[..8].try_into().unwrap())
}

/// Median of the summed modeled DFT/IDFT node times over `reps` runs.
fn fft_node_time_ms(
    opts: &CompileOptions,
    n: usize,
    delay: usize,
    ffts: usize,
    reps: usize,
) -> (f64, usize) {
    let program = programs::monolithic_range_detection(n, delay);
    let app = compile(&program, opts).expect("compiles");
    let mut library = AppLibrary::new();
    library.register_json(&app.json, &app.registry).expect("validates");
    let wl = WorkloadSpec::validation([(opts.app_name.clone(), 1usize)])
        .generate(&library)
        .expect("workload");
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(zcu102(3, ffts))
        .scheduler("met")
        .workload(wl)
        .build()
        .expect("scenario");
    let scenario = CompiledScenario::compile(spec).expect("compiles");
    let mut samples = Vec::new();
    let mut recognized = 0usize;
    for _ in 0..reps {
        let mut emu = Emulation::new(&scenario).expect("platform");
        let stats = emu.run(&mut MetScheduler::new(), &scenario).expect("run");
        let mem = stats.instance_memory(stats.apps[0].instance).unwrap();
        assert_eq!(read_scalar(mem, "lag"), delay as f64, "output must stay correct");
        let t: f64 = stats
            .tasks
            .iter()
            .filter(|t| ["kernel_1", "kernel_2", "kernel_4"].contains(&t.node.as_str()))
            .map(|t| t.modeled.as_secs_f64())
            .sum();
        samples.push(t * 1e3);
        recognized = app.report.recognized_count();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[samples.len() / 2], recognized)
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let reps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    let delay = 100.min(n - 1);
    println!("== Case study 4: automatic conversion of monolithic range detection (n = {n}, {reps} reps) ==");
    println!();

    let (t_naive, rec) = fft_node_time_ms(
        &CompileOptions {
            app_name: "rd_naive".into(),
            naive_native: true,
            ..CompileOptions::default()
        },
        n,
        delay,
        0,
        reps,
    );
    let (t_opt, _) = fft_node_time_ms(
        &CompileOptions {
            app_name: "rd_opt".into(),
            substitute_optimized: true,
            ..CompileOptions::default()
        },
        n,
        delay,
        0,
        reps,
    );
    let (t_accel, _) = fft_node_time_ms(
        &CompileOptions {
            app_name: "rd_accel".into(),
            add_accelerator_platforms: true,
            naive_native: true,
            ..CompileOptions::default()
        },
        n,
        delay,
        1,
        reps,
    );

    println!("kernels recognized by hash:              {rec}  (paper: 2 DFT + 1 IFFT)");
    println!();
    println!("DFT/IDFT node time, naive compiled loops : {t_naive:>10.3} ms");
    println!("DFT/IDFT node time, optimized FFT (CPU)  : {t_opt:>10.3} ms");
    println!("DFT/IDFT node time, FFT accelerator      : {t_accel:>10.3} ms");
    println!();
    let cpu_speedup = t_naive / t_opt;
    let accel_speedup = t_naive / t_accel;
    println!("speedup, optimized CPU substitution      : {cpu_speedup:>8.1}x  (paper: ~102x)");
    println!("speedup, accelerator substitution        : {accel_speedup:>8.1}x  (paper: ~94x)");

    println!();
    println!("== shape checks ==");
    let checks: Vec<(String, bool)> = vec![
        ("three kernels recognized".into(), rec == 3),
        (format!("CPU substitution speedup is large ({cpu_speedup:.0}x > 30x)"), cpu_speedup > 30.0),
        (
            format!("accelerator substitution speedup is large ({accel_speedup:.0}x > 30x)"),
            accel_speedup > 30.0,
        ),
        (
            format!(
                "CPU FFT beats the accelerator (DMA overhead), as in the paper: {cpu_speedup:.0}x > {accel_speedup:.0}x"
            ),
            cpu_speedup > accel_speedup,
        ),
    ];
    let mut all_ok = true;
    for (desc, ok) in checks {
        println!("  [{}] {desc}", if ok { "ok" } else { "MISMATCH" });
        all_ok &= ok;
    }
    let mut report = BenchReport::new("case4");
    report
        .set_f64("naive_ms", t_naive)
        .set_f64("optimized_ms", t_opt)
        .set_f64("accelerator_ms", t_accel)
        .set_f64("cpu_speedup", cpu_speedup)
        .set_f64("accel_speedup", accel_speedup)
        .set("shape_checks_ok", serde_json::to_value(&all_ok));
    if let Ok(path) = report.write() {
        println!();
        println!("summary merged into {}", path.display());
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
