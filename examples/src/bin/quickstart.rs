//! Quickstart: define an application in the paper's JSON format, register
//! its kernels, and emulate three instances on a hypothetical 2-core +
//! 1-FFT-accelerator DSSoC.
//!
//! ```sh
//! cargo run --release --bin quickstart
//! ```

use dssoc_appmodel::json::AppJson;
use dssoc_appmodel::{AppLibrary, KernelRegistry, WorkloadSpec};
use dssoc_core::prelude::*;
use dssoc_dsp::complex::Complex32;
use dssoc_platform::presets::zcu102;

const APP_JSON: &str = r#"{
    "AppName": "hello_dssoc",
    "SharedObject": "hello.so",
    "Variables": {
        "n_samples": {"bytes": 4, "is_ptr": false, "ptr_alloc_bytes": 0, "val": [0, 1, 0, 0]},
        "signal":    {"bytes": 8, "is_ptr": true,  "ptr_alloc_bytes": 2048, "val": []},
        "spectrum":  {"bytes": 8, "is_ptr": true,  "ptr_alloc_bytes": 2048, "val": []},
        "peak_bin":  {"bytes": 4, "is_ptr": false, "ptr_alloc_bytes": 0, "val": []}
    },
    "DAG": {
        "GEN": {
            "arguments": ["n_samples", "signal"],
            "predecessors": [],
            "successors": ["FFT"],
            "platforms": [{"name": "cpu", "runfunc": "generate_tone"}]
        },
        "FFT": {
            "arguments": ["n_samples", "signal", "spectrum"],
            "predecessors": ["GEN"],
            "successors": ["PEAK"],
            "platforms": [
                {"name": "cpu", "runfunc": "fft_cpu"},
                {"name": "fft", "runfunc": "fft_accel", "shared_object": "fft_accel.so"}
            ]
        },
        "PEAK": {
            "arguments": ["n_samples", "spectrum", "peak_bin"],
            "predecessors": ["FFT"],
            "successors": [],
            "platforms": [{"name": "cpu", "runfunc": "find_peak"}]
        }
    }
}"#;

fn main() {
    // 1. Register the kernels — the safe analog of the application's
    //    shared object.
    let mut registry = KernelRegistry::new();
    registry.register_fn("hello.so", "generate_tone", |ctx| {
        let n = ctx.read_u32("n_samples")? as usize;
        let tone: Vec<Complex32> = (0..n)
            .map(|i| Complex32::from_angle(2.0 * std::f32::consts::PI * 17.0 * i as f32 / n as f32))
            .collect();
        ctx.write_complex("signal", &tone)
    });
    registry.register_fn("hello.so", "fft_cpu", |ctx| {
        let n = ctx.read_u32("n_samples")? as usize;
        let mut data = ctx.read_complex("signal", n)?;
        dssoc_dsp::fft::fft_in_place(&mut data);
        ctx.write_complex("spectrum", &data)
    });
    registry.register_fn("fft_accel.so", "fft_accel", |ctx| {
        let n = ctx.read_u32("n_samples")? as usize;
        ctx.accel_fft("signal", "spectrum", n, false)
    });
    registry.register_fn("hello.so", "find_peak", |ctx| {
        let n = ctx.read_u32("n_samples")? as usize;
        let spec = ctx.read_complex("spectrum", n)?;
        let bin = dssoc_dsp::util::argmax_magnitude(&spec).unwrap_or(0);
        ctx.write_u32("peak_bin", bin as u32)
    });

    // 2. Parse the JSON application and build the library.
    let json = AppJson::from_str(APP_JSON).expect("valid JSON");
    let mut library = AppLibrary::new();
    library.register_json(&json, &registry).expect("app validates");

    // 3. Validation-mode workload: three instances at t = 0.
    let workload =
        WorkloadSpec::validation([("hello_dssoc", 3usize)]).generate(&library).expect("workload");

    // 4. Emulate on a 2-core + 1-FFT ZCU102-style configuration.
    //    A scenario spec names everything a run depends on; the job
    //    runner compiles it once and executes it on the threaded engine.
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(zcu102(2, 1))
        .scheduler("frfs")
        .workload(workload)
        .build()
        .expect("scenario");
    let stats = JobRunner::new().run_spec(spec, Engine::Threaded).expect("emulation").stats;

    println!("== quickstart: 3x hello_dssoc on {} ==", stats.platform);
    print!("{}", stats.summary());

    // 5. Functional verification: the tone was planted in bin 17.
    for app in &stats.apps {
        let mem = stats.instance_memory(app.instance).unwrap();
        let bin = mem.read_u32("peak_bin").unwrap();
        println!(
            "  {}: peak bin = {} (expected 17) latency {:.1} us",
            app.instance,
            bin,
            app.latency().as_secs_f64() * 1e6
        );
        assert_eq!(bin, 17);
    }
    println!("all instances verified.");
}
