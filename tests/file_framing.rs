//! Byte lock on the persisted file layout: every artifact the workspace
//! saves is `magic ‖ [generation as u64 BE] ‖ TPB(value)`, written by
//! the one framed-file codec in `temspc-persist`.
//!
//! The magics are spelled out here rather than imported, so bumping a
//! format version (or moving a byte of the header) fails this test.

use std::path::{Path, PathBuf};

use temspc::persistence::{save_capture, save_monitor};
use temspc::{capture_scenario, CalibrationConfig, DualMspc, Scenario, ScenarioKind, Verdict};
use temspc_fleet::{
    checkpoint, FleetCheckpoint, FleetConfig, ModelStore, PlantKey, PlantRecord, StoreConfig,
};
use temspc_ingest::{save_report, ConnectionReport, IngestReport};

fn quick_calibration() -> CalibrationConfig {
    CalibrationConfig {
        runs: 2,
        duration_hours: 0.2,
        record_every: 10,
        base_seed: 300,
        threads: 0,
    }
}

/// One artifact: where it was saved, and the bytes it must hold.
struct Case {
    name: &'static str,
    path: PathBuf,
    magic: &'static [u8; 8],
    generation: Option<u64>,
    payload: Vec<u8>,
}

impl Case {
    fn expected(&self) -> Vec<u8> {
        let mut bytes = self.magic.to_vec();
        if let Some(generation) = self.generation {
            bytes.extend_from_slice(&generation.to_be_bytes());
        }
        bytes.extend_from_slice(&self.payload);
        bytes
    }
}

fn tpb<T: serde::Serialize>(value: &T) -> Vec<u8> {
    temspc_persist::to_bytes(value).unwrap()
}

fn saved(dir: &Path, name: &str, save: impl FnOnce(&Path)) -> PathBuf {
    let path = dir.join(name);
    save(&path);
    path
}

#[test]
fn every_artifact_is_magic_generation_payload() {
    let dir = std::env::temp_dir().join(format!("temspc_file_framing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let monitor = DualMspc::calibrate(&quick_calibration()).unwrap();
    let capture =
        capture_scenario(&Scenario::short(ScenarioKind::IntegrityXmv3, 0.02, 0.01, 7)).unwrap();
    let ckpt = FleetCheckpoint {
        config: FleetConfig::default(),
        records: vec![PlantRecord {
            plant: 1,
            kind: ScenarioKind::Idv6,
            seed: 99,
            completed: true,
            restarts: 0,
            fault: None,
            detection_latency_hours: Some(0.07),
            false_alarms: 3,
            verdict: Some(Verdict::Disturbance),
            shutdown_hour: None,
            model_generation: 2,
        }],
    };
    let report = IngestReport {
        connections: vec![ConnectionReport {
            plant: 4,
            kind: ScenarioKind::IntegrityXmeas1,
            seed: 11,
            completed: false,
            steps: 120,
            frames: 480,
            false_alarms: 1,
            detection_latency_hours: None,
            verdict: None,
            digest: 0x0123_4567_89ab_cdef,
            model_generation: 1,
            fault: Some("server stopped".into()),
        }],
        frames: 480,
        steps: 120,
        bytes: 9_000,
        drops: 0,
        reassembly_errors: 0,
    };
    // A store entry written twice holds generation 2. Its payload is the
    // `(key, monitor)` pair; TPB encodes structs positionally, so this is
    // also the encoding of the two-field record the store has always
    // written.
    let store = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
    let key = PlantKey::cohort(0);
    store.insert(&key, monitor.clone()).unwrap();
    store.insert(&key, monitor.clone()).unwrap();

    let cases = [
        Case {
            name: "monitor",
            path: saved(&dir, "model.tpb", |p| save_monitor(&monitor, p).unwrap()),
            magic: b"TEMSPC\x01\x00",
            generation: None,
            payload: tpb(&monitor),
        },
        Case {
            name: "capture",
            path: saved(&dir, "run.cap", |p| save_capture(&capture, p).unwrap()),
            magic: b"TECAP\x01\x00\x00",
            generation: None,
            payload: tpb(&capture),
        },
        Case {
            name: "fleet checkpoint",
            path: saved(&dir, "fleet.ckpt", |p| checkpoint::save(&ckpt, p).unwrap()),
            magic: b"TEFLEET\x01",
            generation: None,
            payload: tpb(&ckpt),
        },
        Case {
            name: "ingest report",
            path: saved(&dir, "session.rpt", |p| save_report(&report, p).unwrap()),
            magic: b"TEINGRP\x02",
            generation: None,
            payload: tpb(&report),
        },
        Case {
            name: "store entry",
            path: dir.join("cohort_0.tpb"),
            magic: b"TESTORE\x01",
            generation: Some(2),
            payload: tpb(&(key.as_str(), &monitor)),
        },
    ];

    for case in &cases {
        let bytes = std::fs::read(&case.path).unwrap();
        assert!(
            bytes == case.expected(),
            "{}: file bytes differ from magic ‖ generation ‖ TPB ({} vs {} bytes)",
            case.name,
            bytes.len(),
            case.expected().len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
