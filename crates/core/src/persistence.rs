//! Saving and loading calibrated monitors and scenario captures.
//!
//! Calibrating at paper scale costs minutes of simulated plant time; a
//! deployed detector should calibrate once and reload the frozen models.
//! Files are framed TPB ([`temspc_persist::save_framed`]): a magic
//! header for fail-fast kind and version checks, then the payload.

use std::path::Path;

use temspc_persist::{load_framed, save_framed};

use crate::capture::ScenarioCapture;
use crate::monitor::DualMspc;
use crate::netmon::NetworkMonitor;

/// Errors from monitor and capture persistence: I/O, a foreign or torn
/// header, or a bad payload.
pub use temspc_persist::FramedError as PersistenceError;

/// File magic + format version for calibrated monitors.
const MAGIC: &[u8; 8] = b"TEMSPC\x01\x00";

/// File magic + format version for scenario captures.
const CAPTURE_MAGIC: &[u8; 8] = b"TECAP\x01\x00\x00";

/// Saves a calibrated dual-level monitor to `path`.
///
/// # Errors
///
/// Returns [`PersistenceError`] on I/O or encoding failures.
pub fn save_monitor(monitor: &DualMspc, path: impl AsRef<Path>) -> Result<(), PersistenceError> {
    save_framed(path, MAGIC, None, monitor)
}

/// Loads a dual-level monitor saved with [`save_monitor`].
///
/// # Errors
///
/// Returns [`PersistenceError`] on I/O, header or decoding failures.
pub fn load_monitor(path: impl AsRef<Path>) -> Result<DualMspc, PersistenceError> {
    load_framed(path, MAGIC)
}

/// Saves a calibrated network-level monitor to `path`.
///
/// # Errors
///
/// Returns [`PersistenceError`] on I/O or encoding failures.
pub fn save_network_monitor(
    monitor: &NetworkMonitor,
    path: impl AsRef<Path>,
) -> Result<(), PersistenceError> {
    save_framed(path, MAGIC, None, monitor)
}

/// Loads a network-level monitor saved with [`save_network_monitor`].
///
/// # Errors
///
/// Returns [`PersistenceError`] on I/O, header or decoding failures.
pub fn load_network_monitor(path: impl AsRef<Path>) -> Result<NetworkMonitor, PersistenceError> {
    load_framed(path, MAGIC)
}

/// Saves a recorded scenario capture to `path` (a `.cap` wire tape).
///
/// Captures use their own magic header, so a capture file can never be
/// mistaken for a calibrated model or vice versa.
///
/// # Errors
///
/// Returns [`PersistenceError`] on I/O or encoding failures.
pub fn save_capture(
    capture: &ScenarioCapture,
    path: impl AsRef<Path>,
) -> Result<(), PersistenceError> {
    save_framed(path, CAPTURE_MAGIC, None, capture)
}

/// Loads a scenario capture saved with [`save_capture`].
///
/// # Errors
///
/// Returns [`PersistenceError`] on I/O, header or decoding failures.
pub fn load_capture(path: impl AsRef<Path>) -> Result<ScenarioCapture, PersistenceError> {
    load_framed(path, CAPTURE_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationConfig;

    /// Per-test directory: tests run in parallel, so cleanup of a shared
    /// directory would race with a sibling's save/load.
    fn tmp(test: &str, name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("temspc_persistence_{test}_{}", std::process::id()))
            .join(name)
    }

    #[test]
    fn monitor_roundtrips_through_disk() {
        let cfg = CalibrationConfig {
            runs: 2,
            duration_hours: 0.3,
            record_every: 10,
            base_seed: 60,
            threads: 0,
        };
        let monitor = DualMspc::calibrate(&cfg).unwrap();
        let path = tmp("monitor", "dual.tpb");
        save_monitor(&monitor, &path).unwrap();
        let loaded = load_monitor(&path).unwrap();
        // Identical limits and identical scoring.
        assert_eq!(
            monitor.controller_model().limits().t2_99,
            loaded.controller_model().limits().t2_99
        );
        let obs: Vec<f64> = (0..53).map(|i| i as f64 * 0.3).collect();
        assert_eq!(
            monitor.controller_model().score(&obs).unwrap(),
            loaded.controller_model().score(&obs).unwrap()
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("header", "garbage.tpb");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"NOTAMODEL").unwrap();
        assert!(matches!(
            load_monitor(&path),
            Err(PersistenceError::BadHeader)
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn capture_roundtrips_through_disk() {
        use crate::capture::capture_scenario;
        use crate::scenario::{Scenario, ScenarioKind};
        let s = Scenario::short(ScenarioKind::IntegrityXmv3, 0.02, 0.01, 11);
        let capture = capture_scenario(&s).unwrap();
        let path = tmp("capture", "run.cap");
        save_capture(&capture, &path).unwrap();
        let loaded = load_capture(&path).unwrap();
        assert_eq!(loaded.records, capture.records);
        assert_eq!(loaded.shutdown, capture.shutdown);
        assert_eq!(loaded.scenario.kind, capture.scenario.kind);
        assert_eq!(loaded.scenario.seed, capture.scenario.seed);
        // A capture file is not a model file and vice versa.
        assert!(matches!(
            load_monitor(&path),
            Err(PersistenceError::BadHeader)
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_monitor("/nonexistent/temspc/model.tpb"),
            Err(PersistenceError::Io(_))
        ));
    }
}
