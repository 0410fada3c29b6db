//! Full-system integration: the four reference applications running
//! through the threaded emulation engine on ZCU102-style platforms, with
//! functional verification of every application's outputs from the
//! instances' final memory.

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::{pulse_doppler, range_detection, standard_library, wifi};
use dssoc_core::prelude::*;
use dssoc_integration::{emulate, run_validation, scenario};
use dssoc_platform::presets::zcu102;

#[test]
fn table1_workload_runs_on_3c2f() {
    let (lib, _reg) = standard_library();
    let stats = run_validation(
        zcu102(3, 2),
        &mut FrfsScheduler::new(),
        &lib,
        &[("range_detection", 1), ("wifi_tx", 1), ("wifi_rx", 1)],
    );
    assert_eq!(stats.completed_apps(), 3);
    assert_eq!(stats.tasks.len(), 6 + 7 + 9);
    assert!(stats.makespan > std::time::Duration::ZERO);
}

#[test]
fn range_detection_functionally_correct_through_emulator() {
    let (lib, _reg) = standard_library();
    for cores in [1usize, 3] {
        for ffts in [0usize, 2] {
            if cores + ffts == 0 {
                continue;
            }
            let stats = run_validation(
                zcu102(cores, ffts),
                &mut FrfsScheduler::new(),
                &lib,
                &[("range_detection", 2)],
            );
            let expected = range_detection::Params::default().target_delay as u32;
            for app in &stats.apps {
                let mem = stats.instance_memory(app.instance).expect("instance kept");
                assert_eq!(
                    mem.read_u32("lag").unwrap(),
                    expected,
                    "config {cores}C+{ffts}F instance {:?}",
                    app.instance
                );
            }
        }
    }
}

#[test]
fn wifi_rx_decodes_correctly_through_emulator() {
    let (lib, _reg) = standard_library();
    // Include the accelerator so the FFT node can land on the device.
    let stats = run_validation(zcu102(2, 1), &mut MetScheduler::new(), &lib, &[("wifi_rx", 3)]);
    let payload = wifi::Params::default().payload;
    for app in &stats.apps {
        let mem = stats.instance_memory(app.instance).unwrap();
        assert_eq!(mem.read_u32("crc_ok").unwrap(), 1);
        let bits = mem.read_bytes("payload_out").unwrap();
        assert_eq!(dssoc_dsp::util::pack_bits(&bits), payload);
    }
}

#[test]
fn wifi_tx_produces_reference_frame_through_emulator() {
    let (lib, _reg) = standard_library();
    let stats = run_validation(zcu102(2, 1), &mut FrfsScheduler::new(), &lib, &[("wifi_tx", 1)]);
    let p = wifi::Params::default();
    let golden = wifi::reference_tx(&p.payload);
    let mem = stats.instance_memory(stats.apps[0].instance).unwrap();
    let tx = mem.read_complex_vec("tx_time", wifi::FFT_SIZE).unwrap();
    assert!(dssoc_dsp::util::signals_close(&tx, &golden, 1e-4));
}

#[test]
fn pulse_doppler_resolves_target_through_emulator() {
    let (lib, _reg) = standard_library();
    // One full 770-task instance on a 3C+2F platform.
    let stats =
        run_validation(zcu102(3, 2), &mut FrfsScheduler::new(), &lib, &[("pulse_doppler", 1)]);
    assert_eq!(stats.tasks.len(), 770);
    let p = pulse_doppler::Params::default();
    let mem = stats.instance_memory(stats.apps[0].instance).unwrap();
    assert_eq!(mem.read_u32("range_bin").unwrap() as usize, p.expected_range_bin());
    assert_eq!(mem.read_u32("doppler_bin").unwrap() as usize, p.expected_doppler_bin());
}

#[test]
fn accelerator_actually_executes_fft_tasks() {
    let (lib, _reg) = standard_library();
    // MET prefers the device when its estimate is lower; force usage by
    // providing an accelerator-rich platform and checking PE records.
    let stats =
        run_validation(zcu102(1, 2), &mut FrfsScheduler::new(), &lib, &[("range_detection", 4)]);
    let accel_tasks =
        stats.tasks.iter().filter(|t| stats.pe_names[&t.pe].starts_with("FFT")).count();
    assert!(accel_tasks > 0, "no task ever ran on an accelerator PE");
    // And the results are still correct.
    let expected = range_detection::Params::default().target_delay as u32;
    for app in &stats.apps {
        let mem = stats.instance_memory(app.instance).unwrap();
        assert_eq!(mem.read_u32("lag").unwrap(), expected);
    }
}

#[test]
fn performance_mode_full_mix() {
    use dssoc_appmodel::InjectionParams;
    use std::time::Duration;
    let (lib, _reg) = standard_library();
    let wl = WorkloadSpec::performance(
        vec![
            InjectionParams {
                app: "range_detection".into(),
                period: Duration::from_millis(2),
                probability: 1.0,
            },
            InjectionParams {
                app: "wifi_tx".into(),
                period: Duration::from_millis(5),
                probability: 1.0,
            },
            InjectionParams {
                app: "wifi_rx".into(),
                period: Duration::from_millis(5),
                probability: 1.0,
            },
        ],
        Duration::from_millis(20),
        3,
    )
    .generate(&lib)
    .unwrap();
    let stats = emulate(scenario(&lib, &wl, zcu102(3, 1)), &mut EftScheduler::new());
    assert_eq!(stats.completed_apps(), wl.len());
    assert!(stats.sched_invocations > 0);
    assert!(stats.overhead.total() > Duration::ZERO);
}

#[test]
fn utilization_reported_per_pe() {
    let (lib, _reg) = standard_library();
    let stats =
        run_validation(zcu102(2, 1), &mut FrfsScheduler::new(), &lib, &[("range_detection", 6)]);
    assert_eq!(stats.pe_names.len(), 3);
    let total_util: f64 = stats.utilizations().iter().map(|(_, u)| u).sum();
    assert!(total_util > 0.0);
    for (pe, u) in stats.utilizations() {
        assert!((0.0..=1.01).contains(&u), "{pe}: {u}");
    }
}
