//! End-to-end lock on the ingestion server: traffic served over real
//! loopback sockets must score bit-identically to an offline replay of
//! the same tapes, with zero drops, across many concurrent connections.
//!
//! Every test serves through [`session`], which bounds it in wall-clock
//! time and stops the server when the client side panics, so a failure
//! fails the test instead of hanging the suite. Each test writes into a
//! directory of its own, and waits on state the server or store exposes
//! (metrics, a file's generation header) instead of fixed sleeps.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use temspc::{capture_scenario, CalibrationConfig, DualMspc, Scenario, ScenarioKind};
use temspc_fleet::{ModelStore, PlantKey, StoreConfig};
use temspc_ingest::{
    detection_digest, drive, load_report, save_report, DriveConfig, IngestConfig, IngestReport,
    IngestServer,
};

/// Wall-clock bound on one serving session. Past it the watchdog raises
/// the server's stop flag, so the drain ends the session and the test
/// fails on the timeout.
const SESSION_LIMIT: Duration = Duration::from_secs(180);

/// Extra time a stopped session gets to wind down before the watchdog
/// aborts the test process, for a client blocked where stopping the
/// server cannot reach it.
const ABORT_GRACE: Duration = Duration::from_secs(60);

/// Bound on each wait for observable server or store state.
const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// Raises a flag when dropped: always, or only while unwinding.
struct RaiseOnDrop<'a> {
    flag: &'a AtomicBool,
    only_on_panic: bool,
}

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        if !self.only_on_panic || std::thread::panicking() {
            self.flag.store(true, Ordering::SeqCst);
        }
    }
}

/// Serves `server` on a scoped thread while `client` drives it from this
/// one, and returns the session report with the client's result (return
/// a socket to keep it open until the server has finished).
///
/// A panic in `client` raises the stop flag, so the scope's join of the
/// server does not wait for peers that will never come. A watchdog
/// raises it after [`SESSION_LIMIT`], fails the test, and aborts the
/// process if the session still has not ended after [`ABORT_GRACE`].
fn session<T>(
    server: &IngestServer<'_>,
    client: impl FnOnce(SocketAddr, &AtomicBool) -> T,
) -> (IngestReport, T) {
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let served = AtomicBool::new(false);
    let client_done = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let out = std::thread::scope(|scope| {
        let serve = scope.spawn(|| {
            let _served = RaiseOnDrop {
                flag: &served,
                only_on_panic: false,
            };
            server.run(&stop)
        });
        scope.spawn(|| {
            let start = Instant::now();
            while !(served.load(Ordering::SeqCst) && client_done.load(Ordering::SeqCst)) {
                let elapsed = start.elapsed();
                if elapsed >= SESSION_LIMIT + ABORT_GRACE {
                    eprintln!("loopback session did not end after being stopped; aborting");
                    std::process::abort();
                }
                if elapsed >= SESSION_LIMIT && !timed_out.swap(true, Ordering::SeqCst) {
                    stop.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let _client_done = RaiseOnDrop {
            flag: &client_done,
            only_on_panic: false,
        };
        let _stop_on_panic = RaiseOnDrop {
            flag: &stop,
            only_on_panic: true,
        };
        let out = client(addr, &stop);
        let report = serve.join().expect("server thread panicked").unwrap();
        (report, out)
    });
    assert!(
        !timed_out.load(Ordering::SeqCst),
        "loopback session exceeded {SESSION_LIMIT:?}; the watchdog stopped the server"
    );
    out
}

/// Polls `ready` until it holds, failing the test after [`WAIT_LIMIT`].
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < WAIT_LIMIT,
            "timed out after {WAIT_LIMIT:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The current value of metric `name` in the server's exposition (0
/// before it is registered).
fn metric(server: &IngestServer<'_>, name: &str) -> f64 {
    server
        .metrics()
        .expose()
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

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

/// A per-test scratch directory (test name + pid): tests run in
/// parallel, and a shared directory would be removed under a sibling
/// still reading from it.
fn test_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("temspc_loopback_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::Normal,
    ScenarioKind::Idv6,
    ScenarioKind::IntegrityXmv3,
    ScenarioKind::IntegrityXmeas1,
    ScenarioKind::DosXmv3,
];

/// The locked constraint: 64 concurrent connections over loopback, zero
/// drops, and every served detection bit-identical (digest, latency,
/// false alarms, verdict) to `score_capture` of the same tape.
#[test]
fn sixty_four_connections_score_bit_identically_to_offline_replay() {
    let root = test_root("sixty_four");
    let monitor = monitor();

    // One tape per scenario kind; 64 connections cycle through them.
    let mut tapes = Vec::new();
    let mut offline = Vec::new();
    for (i, kind) in KINDS.iter().enumerate() {
        let scenario = Scenario::short(*kind, 0.3, 0.1, 42 + i as u64);
        let capture = capture_scenario(&scenario).unwrap();
        let outcome = monitor.score_capture(&capture).unwrap();
        let path = root.join(format!("tape_{i}.cap"));
        temspc::persistence::save_capture(&capture, &path).unwrap();
        offline.push((capture.steps() as u64, outcome));
        tapes.push(path);
    }

    let connections = 64;
    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 128,
            queue_depth: 32, // small on purpose: force the parking path
            batch_steps: 64,
            threads: 0,
            expect: Some(connections),
            incidents: None,
        },
    )
    .unwrap();

    let (report, ()) = session(&server, |addr, _| {
        let driven = drive(&DriveConfig {
            addr: addr.to_string(),
            tapes: tapes.clone(),
            connections,
            rate: 0.0, // flood: the server must absorb wire rate
            chunk: 0,
        })
        .unwrap();
        assert_eq!(driven.connections, connections);
    });

    assert_eq!(report.drops, 0, "backpressure must prevent drops");
    assert_eq!(report.reassembly_errors, 0);
    assert_eq!(report.connections.len(), connections);
    // Parking actually engaged (flooding 64 conns into depth-32 queues).
    let expose = server.metrics().expose();
    assert!(
        expose.contains("ingest_parked_total"),
        "parking metric missing from dump:\n{expose}"
    );

    for conn in &report.connections {
        let tape = conn.plant as usize % KINDS.len();
        let (steps, outcome) = &offline[tape];
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        assert_eq!(conn.steps, *steps, "plant {}", conn.plant);
        assert_eq!(
            conn.digest,
            detection_digest(outcome),
            "plant {}: served digest diverged from offline replay",
            conn.plant
        );
        assert_eq!(conn.false_alarms, outcome.false_alarms as u32);
        let scenario_onset = 0.1;
        assert_eq!(
            conn.detection_latency_hours.map(f64::to_bits),
            outcome
                .detection
                .run_length(scenario_onset)
                .map(f64::to_bits),
            "plant {}",
            conn.plant
        );
    }

    // The report survives its persistence round trip.
    let path = root.join("session.tpb");
    save_report(&report, &path).unwrap();
    assert_eq!(load_report(&path).unwrap(), report);

    // And reframed as a fleet report, the campaign aggregation applies.
    let fleet = report.fleet_report();
    assert_eq!(fleet.records.len(), connections);

    let _ = std::fs::remove_dir_all(&root);
}

/// Torn writes: tiny 7-byte socket writes tear every message across
/// many segments, and the served result is still bit-identical.
#[test]
fn torn_writes_still_score_bit_identically() {
    let root = test_root("torn");
    let monitor = monitor();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmeas1, 0.2, 0.05, 7);
    let capture = capture_scenario(&scenario).unwrap();
    let outcome = monitor.score_capture(&capture).unwrap();
    let path = root.join("torn.cap");
    temspc::persistence::save_capture(&capture, &path).unwrap();

    let connections = 8;
    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            expect: Some(connections),
            ..IngestConfig::default()
        },
    )
    .unwrap();

    let (report, _) = session(&server, |addr, _| {
        drive(&DriveConfig {
            addr: addr.to_string(),
            tapes: vec![path],
            connections,
            rate: 0.0,
            chunk: 7,
        })
        .unwrap()
    });

    assert_eq!(report.drops, 0);
    assert_eq!(report.reassembly_errors, 0);
    assert_eq!(report.connections.len(), connections);
    for conn in &report.connections {
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        assert_eq!(conn.digest, detection_digest(&outcome));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Graceful shutdown: raising the stop flag mid-stream drains what was
/// already queued, reports the interrupted connections with a fault
/// instead of dropping them, and still writes a loadable report.
#[test]
fn stop_flag_drains_in_flight_streams_and_reports_them() {
    use std::io::Write;

    let root = test_root("stop_flag");
    let monitor = monitor();
    let scenario = Scenario::short(ScenarioKind::Normal, 0.2, 0.05, 11);
    let capture = capture_scenario(&scenario).unwrap();
    let half_steps = (capture.records.len() / 2 / 4) as f64;

    let server = IngestServer::bind(&monitor, IngestConfig::default()).unwrap();

    let (report, _socket) = session(&server, |addr, stop| {
        // Stream a handshake and half the tape, then keep the socket
        // open (no FIN): an in-flight connection.
        let mut socket = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(3, &capture.scenario).to_vec();
        for record in &capture.records[..capture.records.len() / 2] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        socket.write_all(&bytes).unwrap();
        socket.flush().unwrap();

        // Wait until the event loop has reassembled the half tape, then
        // request shutdown the way the signal handler would.
        wait_until("the half tape to be reassembled", || {
            metric(&server, "ingest_steps_total") >= half_steps
        });
        stop.store(true, Ordering::SeqCst);
        socket
    });

    assert_eq!(report.drops, 0);
    assert_eq!(report.connections.len(), 1);
    let conn = &report.connections[0];
    assert_eq!(conn.plant, 3);
    assert!(!conn.completed);
    assert!(
        conn.fault
            .as_deref()
            .unwrap_or("")
            .contains("server stopped"),
        "fault: {:?}",
        conn.fault
    );
    // The queued half-tape was drained and scored, not thrown away.
    assert_eq!(conn.steps, (capture.records.len() / 2 / 4) as u64);

    let path = root.join("interrupted.tpb");
    save_report(&report, &path).unwrap();
    assert_eq!(load_report(&path).unwrap(), report);
    let _ = std::fs::remove_dir_all(&root);
}

/// The cheap calibration the store-path tests share: small enough to
/// calibrate several cohorts per test, deterministic per seed.
fn quick_calibration(seed: u64) -> CalibrationConfig {
    CalibrationConfig {
        runs: 2,
        duration_hours: 0.5,
        record_every: 10,
        base_seed: seed,
        threads: 3,
    }
}

enum ServeModel<'a> {
    Shared(&'a DualMspc),
    Store(&'a ModelStore, usize),
}

/// Binds a server over the given model source, floods it with
/// `connections` tape replays, and returns the session report.
fn serve_and_drive(
    model: ServeModel<'_>,
    connections: usize,
    tapes: &[std::path::PathBuf],
    incidents: Option<String>,
) -> temspc_ingest::IngestReport {
    let config = IngestConfig {
        expect: Some(connections),
        incidents,
        ..IngestConfig::default()
    };
    let server = match model {
        ServeModel::Shared(monitor) => IngestServer::bind(monitor, config).unwrap(),
        ServeModel::Store(store, cohorts) => {
            IngestServer::bind_with_store(store, cohorts, config).unwrap()
        }
    };
    let (report, _) = session(&server, |addr, _| {
        drive(&DriveConfig {
            addr: addr.to_string(),
            tapes: tapes.to_vec(),
            connections,
            rate: 0.0,
            chunk: 0,
        })
        .unwrap()
    });
    report
}

/// Golden digest: a single-cohort store whose cohort_0 calibration
/// matches the shared monitor must serve bit-identically to both the
/// shared-monitor path and an offline replay of the same tape.
#[test]
fn single_cohort_store_serves_bit_identically_to_shared_monitor() {
    let root = test_root("golden");
    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 21);
    let capture = capture_scenario(&scenario).unwrap();
    let offline = detection_digest(&monitor.score_capture(&capture).unwrap());
    let tape = root.join("golden.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();

    let connections = 2;
    let shared = serve_and_drive(
        ServeModel::Shared(&monitor),
        connections,
        std::slice::from_ref(&tape),
        None,
    );
    let store = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));
    let stored = serve_and_drive(ServeModel::Store(&store, 1), connections, &[tape], None);

    assert_eq!(shared.connections.len(), connections);
    assert_eq!(stored.connections.len(), connections);
    for (s, t) in shared.connections.iter().zip(&stored.connections) {
        assert!(s.completed, "shared plant {}: {:?}", s.plant, s.fault);
        assert!(t.completed, "stored plant {}: {:?}", t.plant, t.fault);
        assert_eq!(
            s.digest, offline,
            "shared path diverged from offline replay"
        );
        assert_eq!(
            t.digest, offline,
            "store-backed serve diverged from the shared-monitor path"
        );
        // The shared path has no store generation to report; the store
        // path pins the freshly calibrated generation 1.
        assert_eq!(s.model_generation, 0);
        assert_eq!(t.model_generation, 1);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Two plants in different cohorts must get verdicts from their own
/// cohort's model: served digests match the offline replay against that
/// cohort's calibration, and the two cohorts disagree.
#[test]
fn cohorts_score_against_their_own_models() {
    let root = test_root("cohorts");
    let stride = 5_000u64;
    let mut cfg = StoreConfig::new(root.join("store"), quick_calibration(100));
    cfg.seed_stride = stride;
    let store = ModelStore::new(cfg);

    let scenario = Scenario::short(ScenarioKind::IntegrityXmeas1, 0.3, 0.1, 33);
    let capture = capture_scenario(&scenario).unwrap();
    let tape = root.join("cohort.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();

    let model_a = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let model_b = DualMspc::calibrate(&quick_calibration(100 + stride)).unwrap();
    let digest_a = detection_digest(&model_a.score_capture(&capture).unwrap());
    let digest_b = detection_digest(&model_b.score_capture(&capture).unwrap());
    assert_ne!(
        digest_a, digest_b,
        "cohort calibrations scored identically; the test needs a seed stride that separates them"
    );

    let report = serve_and_drive(ServeModel::Store(&store, 2), 4, &[tape], None);
    assert_eq!(report.connections.len(), 4);
    for conn in &report.connections {
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        let expected = if conn.plant % 2 == 0 {
            digest_a
        } else {
            digest_b
        };
        assert_eq!(
            conn.digest, expected,
            "plant {} was scored against the wrong cohort's model",
            conn.plant
        );
        assert_eq!(conn.model_generation, 1);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Refused connections (over `--max-connections`) are shed without being
/// counted as registered: attempts = connections_total + refused_total.
#[test]
fn refused_connections_do_not_count_as_registered() {
    use std::io::{Read as _, Write};

    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::Normal, 0.2, 0.05, 3);
    let capture = capture_scenario(&scenario).unwrap();

    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            max_connections: 1,
            expect: Some(1),
            ..IngestConfig::default()
        },
    )
    .unwrap();

    let (report, ()) = session(&server, |addr, _| {
        // Occupy the single slot: handshake plus half the tape, held open.
        let mut first = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(2, &capture.scenario).to_vec();
        let half = capture.records.len() / 2;
        for record in &capture.records[..half] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        first.write_all(&bytes).unwrap();
        first.flush().unwrap();
        wait_until("the first connection to take the slot", || {
            metric(&server, "ingest_connections_total") >= 1.0
        });

        // Over the cap: the server sheds this socket immediately.
        let mut refused = std::net::TcpStream::connect(addr).unwrap();
        refused
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut probe = [0u8; 1];
        let n = refused.read(&mut probe).unwrap_or(0);
        assert_eq!(n, 0, "refused connection should be closed by the server");

        // Finish the occupant cleanly.
        let mut rest = Vec::new();
        for record in &capture.records[half..] {
            temspc_ingest::encode_record(record, &mut rest);
        }
        first.write_all(&rest).unwrap();
    });

    assert_eq!(report.connections.len(), 1);
    assert!(report.connections[0].completed);
    let expose = server.metrics().expose();
    assert!(
        expose.contains("ingest_connections_total 1"),
        "registered-connection count drifted:\n{expose}"
    );
    assert!(
        expose.contains("ingest_connections_refused_total 1"),
        "refused-connection count drifted:\n{expose}"
    );
}

/// A second live connection claiming an already-claimed plant id is
/// faulted; the rightful owner keeps streaming and completes.
#[test]
fn duplicate_plant_claim_faults_the_second_connection() {
    use std::io::Write;

    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::Normal, 0.2, 0.05, 5);
    let capture = capture_scenario(&scenario).unwrap();

    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            expect: Some(2),
            ..IngestConfig::default()
        },
    )
    .unwrap();

    let (report, _second) = session(&server, |addr, _| {
        // The rightful owner of plant 7: handshake plus half the tape.
        let mut first = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(7, &capture.scenario).to_vec();
        let half = capture.records.len() / 2;
        for record in &capture.records[..half] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        first.write_all(&bytes).unwrap();
        first.flush().unwrap();
        wait_until("the owner's half tape to be reassembled", || {
            metric(&server, "ingest_steps_total") >= (half / 4) as f64
        });

        // A second claimant of the same plant id: faulted, not scored.
        let mut second = std::net::TcpStream::connect(addr).unwrap();
        second
            .write_all(&temspc_ingest::encode_hello(7, &capture.scenario))
            .unwrap();
        second.flush().unwrap();
        wait_until("the second claimant to be faulted", || {
            metric(&server, "ingest_reassembly_errors_total") >= 1.0
        });

        // The owner finishes cleanly despite the squatter.
        let mut rest = Vec::new();
        for record in &capture.records[half..] {
            temspc_ingest::encode_record(record, &mut rest);
        }
        first.write_all(&rest).unwrap();
        drop(first);
        second
    });

    assert_eq!(report.connections.len(), 2);
    let faulted: Vec<_> = report
        .connections
        .iter()
        .filter(|c| c.fault.is_some())
        .collect();
    assert_eq!(faulted.len(), 1, "exactly the duplicate claimant faults");
    assert!(
        faulted[0]
            .fault
            .as_deref()
            .unwrap()
            .contains("already claimed"),
        "fault: {:?}",
        faulted[0].fault
    );
    assert_eq!(
        faulted[0].plant, 7,
        "the faulted report still names the plant"
    );
    let owner = report
        .connections
        .iter()
        .find(|c| c.fault.is_none())
        .expect("the rightful owner completes");
    assert!(owner.completed);
    assert_eq!(owner.plant, 7);
    assert_eq!(owner.steps, (capture.records.len() / 4) as u64);
}

/// Hot reload mid-session: a generation bump on disk swaps the model for
/// the *next* connection, while the in-flight connection finishes on the
/// generation it pinned at scorer creation.
#[test]
fn hot_reload_swaps_models_for_new_connections_only() {
    use std::io::Write;

    let root = test_root("reload");
    let store = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 9);
    let capture = capture_scenario(&scenario).unwrap();
    let tape_steps = (capture.records.len() / 4) as u64;

    let model_gen1 = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let digest_gen1 = detection_digest(&model_gen1.score_capture(&capture).unwrap());
    let replacement = DualMspc::calibrate(&quick_calibration(4242)).unwrap();
    let digest_gen2 = detection_digest(&replacement.score_capture(&capture).unwrap());
    assert_ne!(digest_gen1, digest_gen2);

    let server = IngestServer::bind_with_store(
        &store,
        1,
        IngestConfig {
            expect: Some(2),
            batch_steps: 8, // small: the in-flight scorer resolves early
            ..IngestConfig::default()
        },
    )
    .unwrap();

    // A second handle on the same directory plays the operator pushing a
    // recalibrated model mid-session.
    let writer = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));

    let (report, ()) = session(&server, |addr, _| {
        // In-flight connection: pins generation 1 at its first batch.
        let mut inflight = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(0, &capture.scenario).to_vec();
        let half = capture.records.len() / 2;
        for record in &capture.records[..half] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        inflight.write_all(&bytes).unwrap();
        inflight.flush().unwrap();
        // The first batch's resolution calibrates on miss and persists
        // generation 1; the in-flight stream has pinned it once the file
        // exists.
        wait_until("calibrate-on-miss to persist generation 1", || {
            matches!(writer.generation_on_disk(&PlantKey::cohort(0)), Ok(Some(1)))
        });

        // Generation bump on disk while plant 0 is still streaming.
        let inserted = writer.insert(&PlantKey::cohort(0), replacement).unwrap();
        assert_eq!(inserted.generation, 2);

        // A fresh connection resolves the reloaded generation 2.
        let mut second = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(1, &capture.scenario).to_vec();
        for record in &capture.records {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        second.write_all(&bytes).unwrap();
        drop(second);
        wait_until("the fresh connection to hot-reload generation 2", || {
            store
                .metrics()
                .expose()
                .contains("model_store_reloads_total 1")
        });

        // The in-flight stream finishes on its pinned model.
        let mut rest = Vec::new();
        for record in &capture.records[half..] {
            temspc_ingest::encode_record(record, &mut rest);
        }
        inflight.write_all(&rest).unwrap();
    });

    assert_eq!(report.connections.len(), 2);
    let inflight = &report.connections[0];
    assert_eq!(inflight.plant, 0);
    assert!(inflight.completed, "{:?}", inflight.fault);
    assert_eq!(inflight.steps, tape_steps);
    assert_eq!(
        inflight.model_generation, 1,
        "in-flight stream must stay pinned"
    );
    assert_eq!(
        inflight.digest, digest_gen1,
        "in-flight stream was rescored by the swapped model"
    );
    let fresh = &report.connections[1];
    assert_eq!(fresh.plant, 1);
    assert!(fresh.completed, "{:?}", fresh.fault);
    assert_eq!(
        fresh.model_generation, 2,
        "new connection must see the reload"
    );
    assert_eq!(fresh.digest, digest_gen2);
    let _ = std::fs::remove_dir_all(&root);
}

/// The `--incidents` sink records one verdict line per completed
/// connection, carrying the same digest and generation as the report.
#[test]
fn incident_stream_records_verdict_transitions() {
    let root = test_root("incidents");
    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 13);
    let capture = capture_scenario(&scenario).unwrap();
    let tape = root.join("incidents.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();
    let incidents_path = root.join("incidents.log");

    let report = serve_and_drive(
        ServeModel::Shared(&monitor),
        2,
        &[tape],
        Some(incidents_path.display().to_string()),
    );

    let text = std::fs::read_to_string(&incidents_path).unwrap();
    assert_eq!(report.connections.len(), 2);
    for conn in &report.connections {
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("event=verdict plant={} ", conn.plant)))
            .unwrap_or_else(|| panic!("no verdict line for plant {} in:\n{text}", conn.plant));
        assert!(
            line.contains(&format!("digest={:016x}", conn.digest)),
            "incident digest drifted from the report: {line}"
        );
        assert!(line.contains(&format!("generation={}", conn.model_generation)));
        assert!(line.contains(&format!("kind={}", conn.kind.id())));
    }
    let _ = std::fs::remove_dir_all(&root);
}
