//! End-to-end lock on the capture/replay boundary: a recorded tape,
//! scored offline, must reproduce the live run's detection *exactly* —
//! same detection hour (to the bit), same false alarms, same oMEDA event
//! windows, same verdict. Anything less and replayed evidence could not
//! be trusted in an incident investigation.

use temspc::diagnosis::{diagnose, VerdictThresholds};
use temspc::persistence::{load_capture, save_capture};
use temspc::{
    capture_scenario, CalibrationConfig, DualMspc, NetworkMonitor, Scenario, ScenarioKind,
};

fn monitor() -> DualMspc {
    DualMspc::calibrate(&CalibrationConfig {
        runs: 3,
        duration_hours: 1.0,
        record_every: 10,
        base_seed: 100,
        threads: 3,
    })
    .unwrap()
}

/// A per-test scratch path (test name + pid), so parallel tests and
/// concurrent test runs never remove a directory another still reads.
fn tmp(test: &str, name: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!(
            "temspc_capture_replay_{test}_{}",
            std::process::id()
        ))
        .join(name)
}

/// Live vs replayed outcome for every paper scenario: detection hours
/// bit-identical, event windows row-identical, verdicts equal.
#[test]
fn every_scenario_replays_bit_identically() {
    let monitor = monitor();
    for kind in [
        ScenarioKind::Normal,
        ScenarioKind::Idv6,
        ScenarioKind::IntegrityXmv3,
        ScenarioKind::IntegrityXmeas1,
        ScenarioKind::DosXmv3,
    ] {
        let scenario = Scenario::short(kind, 1.0, 0.3, 42);
        let live = monitor.run_scenario(&scenario).unwrap();
        let capture = capture_scenario(&scenario).unwrap();
        let replayed = monitor.score_capture(&capture).unwrap();

        let bits = |h: Option<f64>| h.map(f64::to_bits);
        assert_eq!(
            bits(live.detection.controller.map(|e| e.detected_hour)),
            bits(replayed.detection.controller.map(|e| e.detected_hour)),
            "{kind:?}: controller detection hour"
        );
        assert_eq!(
            bits(live.detection.process.map(|e| e.detected_hour)),
            bits(replayed.detection.process.map(|e| e.detected_hour)),
            "{kind:?}: process detection hour"
        );
        assert_eq!(
            live.false_alarms, replayed.false_alarms,
            "{kind:?}: false alarms"
        );
        assert_eq!(
            live.event_rows_controller, replayed.event_rows_controller,
            "{kind:?}: controller event window"
        );
        assert_eq!(
            live.event_rows_process, replayed.event_rows_process,
            "{kind:?}: process event window"
        );
        assert_eq!(
            live.run.controller_view, replayed.run.controller_view,
            "{kind:?}: recorded controller rows"
        );
        assert_eq!(
            live.run.process_view, replayed.run.process_view,
            "{kind:?}: recorded process rows"
        );

        // Diagnosis (oMEDA comparison of the two levels) sees identical
        // inputs, so the implicated variable and verdict match too.
        let live_diag = diagnose(&monitor, &live, VerdictThresholds::default());
        let replay_diag = diagnose(&monitor, &replayed, VerdictThresholds::default());
        assert_eq!(
            live_diag.as_ref().map(|d| d.verdict),
            replay_diag.as_ref().map(|d| d.verdict),
            "{kind:?}: verdict"
        );
        assert_eq!(
            live_diag.as_ref().map(|d| d.controller_dominant.0),
            replay_diag.as_ref().map(|d| d.controller_dominant.0),
            "{kind:?}: controller-implicated variable"
        );
        assert_eq!(
            live_diag.map(|d| d.process_dominant.0),
            replay_diag.map(|d| d.process_dominant.0),
            "{kind:?}: process-implicated variable"
        );
    }
}

/// The replay survives a disk round trip: save → load → score gives the
/// same outcome as scoring the in-memory capture.
#[test]
fn capture_file_roundtrip_preserves_scoring() {
    let monitor = monitor();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmeas1, 1.0, 0.3, 43);
    let capture = capture_scenario(&scenario).unwrap();
    let direct = monitor.score_capture(&capture).unwrap();

    let path = tmp("roundtrip", "roundtrip.cap");
    save_capture(&capture, &path).unwrap();
    let loaded = load_capture(&path).unwrap();
    assert_eq!(loaded.records, capture.records);
    let from_disk = monitor.score_capture(&loaded).unwrap();

    assert_eq!(
        direct.detection.earliest_hour().map(f64::to_bits),
        from_disk.detection.earliest_hour().map(f64::to_bits)
    );
    assert_eq!(direct.false_alarms, from_disk.false_alarms);
    assert_eq!(
        direct.event_rows_controller,
        from_disk.event_rows_controller
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Network-level scoring of a replayed DoS tape matches the live run:
/// same detection hour and the same implicated traffic feature.
#[test]
fn network_monitor_replay_matches_live() {
    let calib = CalibrationConfig {
        runs: 2,
        duration_hours: 0.5,
        record_every: 50,
        base_seed: 900,
        threads: 0,
    };
    let network = NetworkMonitor::calibrate(&calib, 0.02).unwrap();
    let scenario = Scenario::short(ScenarioKind::DosXmv3, 1.0, 0.3, 42);
    let live = network.run_scenario(&scenario).unwrap();
    let capture = capture_scenario(&scenario).unwrap();
    let replayed = network.score_capture(&capture).unwrap();

    assert_eq!(
        live.detected_hour.map(f64::to_bits),
        replayed.detected_hour.map(f64::to_bits)
    );
    assert_eq!(live.implicated_feature, replayed.implicated_feature);
    assert_eq!(live.windows, replayed.windows);
    assert_eq!(
        replayed.implicated_feature.as_deref(),
        Some("down_change[XMV(3)]")
    );
}

/// A shutdown scenario's tape ends where the live loop ended, and the
/// replay reports the same shutdown.
#[test]
fn shutdown_runs_replay_to_the_same_trip() {
    let monitor = monitor();
    let scenario = Scenario::short(ScenarioKind::Idv6, 14.0, 0.5, 5);
    let capture = capture_scenario(&scenario).unwrap();
    let (reason, hour) = capture.shutdown.expect("IDV(6) trips the plant");
    let replayed = monitor.score_capture(&capture).unwrap();
    let (r2, h2) = replayed.run.shutdown.expect("shutdown carried through");
    assert_eq!(reason, r2);
    assert_eq!(hour.to_bits(), h2.to_bits());
    // The tape holds exactly the steps the loop executed before the trip.
    assert!(capture.steps() < (14.0 * 2000.0) as usize);
    assert_eq!(replayed.run.hours.len(), capture.steps().div_ceil(50));
}
