//! Fleet checkpointing: periodic snapshots of completed plant records,
//! so an interrupted campaign resumes instead of recomputing.
//!
//! Snapshots are framed TPB files ([`temspc_persist::save_framed`])
//! behind their own magic, written atomically so a crash mid-write never
//! leaves a torn checkpoint behind.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};
use temspc_persist::{FramedError, PersistError};

use crate::engine::FleetConfig;
use crate::report::PlantRecord;

/// File magic + checkpoint format version.
const MAGIC: &[u8; 8] = b"TEFLEET\x01";

/// A snapshot of a (possibly partial) fleet campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// The configuration the campaign was started with. Resume refuses a
    /// checkpoint whose configuration differs — per-plant scenarios are
    /// derived from it, so mixing configurations would corrupt the
    /// aggregate report.
    pub config: FleetConfig,
    /// Records of the plants finished so far.
    pub records: Vec<PlantRecord>,
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// Encoding/decoding failure.
    Format(PersistError),
    /// The file is not a fleet checkpoint (bad magic/version).
    BadHeader,
    /// The checkpoint was produced by a different fleet configuration.
    ConfigMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failure: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format failure: {e}"),
            CheckpointError::BadHeader => write!(f, "not a fleet checkpoint (bad header)"),
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint belongs to a different fleet configuration")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FramedError> for CheckpointError {
    fn from(e: FramedError) -> Self {
        match e {
            FramedError::Io(e) => CheckpointError::Io(e),
            FramedError::Format(e) => CheckpointError::Format(e),
            FramedError::BadHeader => CheckpointError::BadHeader,
        }
    }
}

/// Saves a checkpoint atomically.
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O or encoding failure.
pub fn save(checkpoint: &FleetCheckpoint, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    Ok(temspc_persist::save_framed(path, MAGIC, None, checkpoint)?)
}

/// Loads a checkpoint saved with [`save`].
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O, header or decoding failure.
pub fn load(path: impl AsRef<Path>) -> Result<FleetCheckpoint, CheckpointError> {
    Ok(temspc_persist::load_framed(path, MAGIC)?)
}

/// Loads a checkpoint if `path` exists, validating it against `config`.
///
/// Returns an empty record set when there is no checkpoint yet (the
/// common first-run case).
///
/// # Errors
///
/// Returns [`CheckpointError::ConfigMismatch`] when the file belongs to
/// a differently configured campaign, or the underlying I/O/decoding
/// error.
pub fn resume(
    path: impl AsRef<Path>,
    config: &FleetConfig,
) -> Result<Vec<PlantRecord>, CheckpointError> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let checkpoint = load(path)?;
    if checkpoint.config != *config {
        return Err(CheckpointError::ConfigMismatch);
    }
    Ok(checkpoint.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use temspc::ScenarioKind;

    /// Per-test directory: tests run in parallel, so cleanup of a shared
    /// directory would race with a sibling's save/load.
    fn tmp(test: &str, name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("temspc_fleet_ckpt_{test}"))
            .join(name)
    }

    fn sample() -> FleetCheckpoint {
        FleetCheckpoint {
            config: FleetConfig {
                plants: 4,
                ..FleetConfig::default()
            },
            records: vec![PlantRecord {
                plant: 1,
                kind: ScenarioKind::Idv6,
                seed: 99,
                completed: true,
                restarts: 1,
                fault: Some("transient".into()),
                detection_latency_hours: Some(0.07),
                false_alarms: 0,
                verdict: Some(temspc::Verdict::Disturbance),
                shutdown_hour: None,
                model_generation: 1,
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip", "ck.tpb");
        let ck = sample();
        save(&ck, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.config, ck.config);
        assert_eq!(loaded.records, ck.records);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_filters_and_validates() {
        let path = tmp("resume", "ck.tpb");
        let ck = sample();
        save(&ck, &path).unwrap();
        let records = resume(&path, &ck.config).unwrap();
        assert_eq!(records.len(), 1);
        let other = FleetConfig {
            plants: 8,
            ..FleetConfig::default()
        };
        assert!(matches!(
            resume(&path, &other),
            Err(CheckpointError::ConfigMismatch)
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_checkpoint_resumes_empty() {
        let records = resume(tmp("missing", "none.tpb"), &FleetConfig::default()).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("badheader", "garbage.tpb");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"NOTAFLEETCKPT").unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::BadHeader)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
