//! Future work, implemented: PE-level reservation queues.
//!
//! The paper closes with "we will expand our framework to support
//! abstractions like PE-level work queues to enable lower-overhead task
//! dispatch and richer scheduling algorithms". This harness quantifies
//! that claim: the Fig. 10 scheduler sweep at a high injection rate,
//! with reservation depth 0 (the paper's evaluated system) vs depth 4.
//!
//! Expected: queues shrink everyone's makespan, and they help the
//! expensive policies (EFT) the most, because dispatch no longer waits
//! for a scheduler invocation on every completion — "richer scheduling
//! algorithms" become affordable.
//!
//! ```sh
//! cargo run --release --bin futurework_reservation [rate] [frame_ms]
//! ```

use std::sync::Arc;
use std::time::Duration;

use dssoc_apps::standard_library;
use dssoc_bench::report::BenchReport;
use dssoc_bench::table2_workload;
use dssoc_core::engine::{OverheadMode, TimingMode};
use dssoc_core::job::{CostSpec, Engine, JobRunner, ScenarioSpec};
use dssoc_core::platform_preset;

fn main() {
    let rate: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4.57);
    let frame_ms: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(60);
    let (library, _registry) = standard_library();
    let platform = Arc::new(platform_preset("zcu102:3C+2F").expect("preset"));
    let workload =
        Arc::new(table2_workload(&library, rate, Duration::from_millis(frame_ms), true, 42));
    let library = Arc::new(library);

    println!("== future work: PE-level reservation queues on 3C+2F ==");
    println!("   rate {rate} jobs/ms over {frame_ms} ms ({} arrivals)", workload.len());
    println!();
    println!("{:<10} {:>16} {:>16} {:>10}", "policy", "depth 0 (ms)", "depth 4 (ms)", "gain");

    let mut rows = Vec::new();
    for name in ["frfs", "met", "eft"] {
        let mut res = Vec::new();
        for depth in [0usize, 4] {
            let spec = ScenarioSpec::builder()
                .library(Arc::clone(&library))
                .platform(Arc::clone(&platform))
                .scheduler(name)
                .workload(Arc::clone(&workload))
                .timing(TimingMode::Modeled)
                .overhead(OverheadMode::Measured)
                .cost(CostSpec::default())
                .reservation_depth(depth)
                .build()
                .expect("scenario");
            let stats = JobRunner::new().run_spec(spec, Engine::Threaded).expect("run").stats;
            res.push(stats.makespan.as_secs_f64() * 1e3);
        }
        println!(
            "{:<10} {:>16.2} {:>16.2} {:>9.2}x",
            name.to_uppercase(),
            res[0],
            res[1],
            res[0] / res[1]
        );
        rows.push((name, res[0], res[1]));
    }

    let mut report = BenchReport::new("futurework");
    for (name, without, with) in &rows {
        report.set_f64(format!("{name}_depth0_ms"), *without);
        report.set_f64(format!("{name}_depth4_ms"), *with);
    }

    println!();
    println!("== shape checks ==");
    let mut all_ok = true;
    for (name, without, with) in &rows {
        let ok = with <= &(without * 1.05);
        println!(
            "  [{}] {} does not get worse with queues ({:.1} -> {:.1} ms)",
            if ok { "ok" } else { "MISMATCH" },
            name.to_uppercase(),
            without,
            with
        );
        all_ok &= ok;
    }
    let eft_gain = rows[2].1 / rows[2].2;
    let frfs_gain = rows[0].1 / rows[0].2;
    let ok = eft_gain > frfs_gain;
    println!(
        "  [{}] queues help the expensive policy most: EFT {:.2}x vs FRFS {:.2}x",
        if ok { "ok" } else { "MISMATCH" },
        eft_gain,
        frfs_gain
    );
    all_ok &= ok;
    report.set("shape_checks_ok", serde_json::to_value(&all_ok));
    if let Ok(path) = report.write() {
        println!();
        println!("summary merged into {}", path.display());
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
