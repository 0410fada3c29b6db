//! Integrating a user-defined scheduling policy — the paper's §II-C
//! integration point ("to utilize a user-defined scheduling policy, an
//! additional policy needs to be defined...").
//!
//! Implements a radar-priority policy: range-detection tasks preempt the
//! queue order (they are latency-critical), everything else runs FRFS,
//! and FFT-capable tasks prefer the accelerator when it is idle.
//!
//! ```sh
//! cargo run --release --bin custom_scheduler
//! ```

use std::time::Duration;

use dssoc_appmodel::{InjectionParams, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::prelude::*;
use dssoc_core::sched::{Assignment, PeView, SchedContext};
use dssoc_core::task::ReadyTask;
use dssoc_examples::print_run_row;
use dssoc_platform::presets::zcu102;

/// Radar tasks jump the queue; everything else is FRFS.
struct RadarPriorityScheduler;

impl Scheduler for RadarPriorityScheduler {
    fn name(&self) -> &'static str {
        "RADAR-PRIO"
    }

    fn schedule(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        _ctx: &SchedContext<'_>,
    ) -> Vec<Assignment> {
        let mut taken = vec![false; pes.len()];
        let mut out = Vec::new();
        // Radar tasks first (by readiness order), then the rest.
        let mut order: Vec<usize> = (0..ready.len()).collect();
        order.sort_by_key(|&i| {
            let radar = ready[i].task.app_name() == "range_detection";
            (if radar { 0u8 } else { 1u8 }, ready[i].seq)
        });
        for i in order {
            let task = &ready[i].task;
            let slot = pes
                .iter()
                .enumerate()
                .find(|(p, view)| view.idle && !taken[*p] && task.supports(&view.pe.platform_key));
            if let Some((p, view)) = slot {
                taken[p] = true;
                out.push(Assignment { ready_idx: i, pe: view.pe.id });
            }
        }
        out
    }
}

fn main() {
    let (library, _registry) = standard_library();
    let workload = WorkloadSpec::performance(
        vec![
            InjectionParams {
                app: "range_detection".into(),
                period: Duration::from_micros(400),
                probability: 1.0,
            },
            InjectionParams {
                app: "wifi_rx".into(),
                period: Duration::from_micros(700),
                probability: 1.0,
            },
        ],
        Duration::from_millis(30),
        11,
    )
    .generate(&library)
    .expect("workload");

    println!("== custom scheduler vs library policies on 2C+1F ==");
    println!("workload: {} arrivals over 30 ms", workload.len());

    let mut radar_latency = Vec::new();
    for (label, mut scheduler) in [
        ("FRFS", Box::new(FrfsScheduler::new()) as Box<dyn Scheduler>),
        ("RADAR-PRIO", Box::new(RadarPriorityScheduler)),
    ] {
        // The spec's scheduler name only labels a custom policy, so the
        // scenario compiles with `compile_custom` and runs with the
        // policy instance handed in.
        let spec = ScenarioSpec::builder()
            .library(library.clone())
            .platform(zcu102(2, 1))
            .workload(workload.clone())
            .build()
            .expect("scenario");
        let scenario = CompiledScenario::compile_custom(spec).expect("scenario");
        let stats = JobRunner::new()
            .run_with(&scenario, Engine::Threaded, scheduler.as_mut())
            .expect("emulation")
            .stats;
        print_run_row(label, &stats);
        let mean = stats.app_latency_mean("range_detection").unwrap_or(Duration::ZERO);
        println!("    mean range_detection latency: {:.1} us", mean.as_secs_f64() * 1e6);
        radar_latency.push(mean);
    }

    println!();
    if radar_latency[1] <= radar_latency[0] {
        println!(
            "radar-priority policy cut mean radar latency by {:.1}%",
            (1.0 - radar_latency[1].as_secs_f64() / radar_latency[0].as_secs_f64().max(1e-12))
                * 100.0
        );
    } else {
        println!("radar-priority policy did not help on this trace (try a higher load)");
    }
}
