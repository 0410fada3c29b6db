//! End-to-end pipeline behaviour of the conversion toolchain.

use dssoc_appmodel::{AppLibrary, KernelRegistry, WorkloadSpec};
use dssoc_compiler::ast::*;
use dssoc_compiler::{compile, compile_into, programs, CompileError, CompileOptions};

fn opts(name: &str) -> CompileOptions {
    CompileOptions { app_name: name.into(), ..CompileOptions::default() }
}

#[test]
fn hot_threshold_controls_segmentation() {
    // A program with one 3-iteration loop and one 50-iteration loop.
    let p = Program::new(
        "mixed",
        vec![
            assign("small", c(3.0)),
            assign("big", c(50.0)),
            for_loop("i", c(0.0), v("small"), vec![assign("a", add(v("a"), c(1.0)))]),
            for_loop("i", c(0.0), v("big"), vec![assign("b", add(v("b"), c(1.0)))]),
        ],
    );
    // Threshold 3: both loops are kernels.
    let low = compile(&p, &CompileOptions { hot_threshold: 3, ..opts("low") }).unwrap();
    assert_eq!(low.report.kernel_count(), 2);
    // Threshold 10: only the big loop qualifies.
    let high = compile(&p, &CompileOptions { hot_threshold: 10, ..opts("high") }).unwrap();
    assert_eq!(high.report.kernel_count(), 1);
    // Threshold 1000: nothing is hot — one glue segment.
    let none = compile(&p, &CompileOptions { hot_threshold: 1000, ..opts("none") }).unwrap();
    assert_eq!(none.report.kernel_count(), 0);
    assert_eq!(none.report.segments.len(), 1);
}

#[test]
fn glue_only_program_still_runs_in_the_emulator() {
    let p = Program::new("straight", vec![assign("x", c(2.0)), assign("y", mul(v("x"), c(21.0)))]);
    let app = compile(&p, &opts("straight")).unwrap();
    assert_eq!(app.json.dag.len(), 1);
    let mut library = AppLibrary::new();
    library.register_json(&app.json, &app.registry).unwrap();
    let wl = WorkloadSpec::validation([("straight", 1usize)]).generate(&library).unwrap();
    let spec = dssoc_core::ScenarioSpec::builder()
        .library(library)
        .platform(dssoc_platform::presets::zcu102(1, 0))
        .workload(wl)
        .build()
        .unwrap();
    let job = dssoc_core::JobRunner::new().run_spec(spec, dssoc_core::Engine::Threaded).unwrap();
    let stats = job.stats;
    let mem = stats.instance_memory(stats.apps[0].instance).unwrap();
    let y = f64::from_le_bytes(mem.read_bytes("y").unwrap()[..8].try_into().unwrap());
    assert_eq!(y, 42.0);
}

#[test]
fn compile_into_merges_registries() {
    let mut registry = KernelRegistry::new();
    registry.register_fn("preexisting.so", "k", |_| Ok(()));
    let json = compile_into(&programs::tiny_sum(8), &opts("merged"), &mut registry).unwrap();
    assert_eq!(json.app_name, "merged");
    // Both the preexisting and the generated symbols resolve.
    assert!(registry.resolve("preexisting.so", "k").is_ok());
    assert!(registry.resolve("merged.so", "kernel_0").is_ok());
}

#[test]
fn empty_program_is_a_lower_error() {
    let err = compile(&Program::default(), &opts("empty")).unwrap_err();
    assert!(matches!(err, CompileError::Lower(_)));
    assert!(err.to_string().contains("lowering"));
}

#[test]
fn runtime_failures_surface_during_tracing() {
    let p = Program::new("oob", vec![alloc("xs", c(2.0)), assign("x", idx("xs", c(9.0)))]);
    let err = compile(&p, &opts("oob")).unwrap_err();
    assert!(matches!(err, CompileError::Runtime(_)));
    assert!(err.to_string().contains("out of bounds"));
}

#[test]
fn recognition_is_independent_of_problem_size() {
    for n in [16usize, 64, 256] {
        let p = programs::monolithic_range_detection(n, n / 3);
        let app =
            compile(&p, &CompileOptions { substitute_optimized: true, ..opts("sized") }).unwrap();
        assert_eq!(app.report.recognized_count(), 3, "n = {n}");
    }
}

#[test]
fn generated_json_round_trips_as_listing1_format() {
    let app = compile(&programs::tiny_sum(10), &opts("rt")).unwrap();
    let text = app.json.to_pretty();
    assert!(text.contains("\"AppName\": \"rt\""));
    assert!(text.contains("\"is_ptr\""));
    let parsed = dssoc_appmodel::json::AppJson::from_str(&text).unwrap();
    assert_eq!(parsed, app.json);
}
