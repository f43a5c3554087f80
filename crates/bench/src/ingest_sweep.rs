//! Loopback ingestion sweep: wall-clock and drop accounting for the
//! `temspc-ingest` socket server over a connections × frame-rate grid.
//!
//! Each cell binds a fresh [`IngestServer`] on an ephemeral loopback
//! port, replays one recorded capture tape over `connections` concurrent
//! sockets with [`temspc_ingest::drive`] (rate 0 = unthrottled), and
//! measures first-connect → last-report wall-clock, i.e. including the
//! server's scoring drain, not just the socket writes. Cells report the
//! achieved per-connection frame rate and the server's drop/reassembly
//! counters — a healthy server sustains the grid with **zero** drops,
//! and the `--smoke` gate in `bench_ingest` enforces exactly that.
//!
//! Results feed `BENCH_ingest.json` through [`crate::trajectory`]; bench
//! ids are machine-independent (`ingest_sweep/conns{C}_rate{R}`, with
//! `rate0` meaning unthrottled) while `available_parallelism` goes into
//! the run label, like the fleet sweep.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use temspc::{CalibrationConfig, DualMspc, Scenario, ScenarioKind};
use temspc_fleet::{ModelStore, Models, StoreConfig};
use temspc_ingest::{drive, DriveConfig, IngestConfig, IngestReport, IngestServer};

/// Configuration of one connections × rates ingestion sweep.
#[derive(Debug, Clone)]
pub struct IngestSweepConfig {
    /// Concurrent connection counts to sweep (the grid's columns).
    pub connections: Vec<usize>,
    /// Per-connection frame rates in frames/second to sweep (the grid's
    /// rows); 0.0 means unthrottled.
    pub rates: Vec<f64>,
    /// Simulated hours on the capture tape every connection replays.
    pub tape_hours: f64,
    /// Per-connection step queue depth on the server (small values
    /// exercise the park/unpark backpressure path under load).
    pub queue_depth: usize,
    /// Steps per scoring batch handed to the worker pool.
    pub batch_steps: usize,
    /// Scoring worker threads (0 → available parallelism).
    pub threads: usize,
    /// Per-plant model resolution: 0 serves every connection from one
    /// shared monitor (the classic path); ≥ 1 resolves each connection
    /// through a `ModelStore` with this many cohorts, timing the
    /// store-backed serve path (`store{K}_` bench-id prefix).
    pub cohorts: usize,
}

impl Default for IngestSweepConfig {
    fn default() -> Self {
        IngestSweepConfig {
            connections: vec![1, 16, 64],
            rates: vec![0.0],
            tape_hours: 0.05,
            queue_depth: 64,
            batch_steps: 256,
            threads: 0,
            cohorts: 0,
        }
    }
}

/// One timed cell of the ingestion sweep.
#[derive(Debug, Clone, Copy)]
pub struct IngestSweepCell {
    /// Concurrent connections of this cell.
    pub connections: usize,
    /// Requested per-connection frame rate (0.0 = unthrottled).
    pub rate: f64,
    /// Store cohorts this cell resolved models through (0 = shared
    /// monitor).
    pub cohorts: usize,
    /// Total frames the server ingested.
    pub frames: u64,
    /// Total plant steps scored.
    pub steps: u64,
    /// Steps dropped under backpressure (healthy runs: 0).
    pub drops: u64,
    /// Streams that died on a wire-grammar error (healthy runs: 0).
    pub reassembly_errors: u64,
    /// Connections that completed their tape and scored end-to-end.
    pub completed: usize,
    /// First connect → last report, nanoseconds (includes the scoring
    /// drain, not just socket writes).
    pub elapsed_ns: u64,
    /// Achieved frames/second per connection over the full cell.
    pub achieved_rate: f64,
}

/// The sweep's outcome: every cell plus machine context.
#[derive(Debug, Clone)]
pub struct IngestSweepReport {
    /// `std::thread::available_parallelism()` at sweep time.
    pub available_parallelism: usize,
    /// All timed cells in (rate, connections) sweep order.
    pub cells: Vec<IngestSweepCell>,
}

/// Formats a rate for bench ids: `0` for unthrottled, else the integer
/// frames/second (rates are swept at integral values).
fn rate_id(rate: f64) -> String {
    format!("{}", rate.round() as u64)
}

impl IngestSweepReport {
    /// The cell for `(connections, rate)`, if swept.
    pub fn cell(&self, connections: usize, rate: f64) -> Option<&IngestSweepCell> {
        self.cells
            .iter()
            .find(|c| c.connections == connections && c.rate == rate)
    }

    /// Trajectory results: `ingest_sweep/conns{C}_rate{R}` → elapsed ns
    /// (`ingest_sweep/store{K}_conns{C}_rate{R}` for store-backed
    /// cells, so shared and per-plant serving trend separately).
    pub fn to_results(&self) -> Vec<(String, f64)> {
        self.cells
            .iter()
            .map(|c| {
                let store = if c.cohorts > 0 {
                    format!("store{}_", c.cohorts)
                } else {
                    String::new()
                };
                (
                    format!(
                        "ingest_sweep/{store}conns{}_rate{}",
                        c.connections,
                        rate_id(c.rate)
                    ),
                    c.elapsed_ns as f64,
                )
            })
            .collect()
    }

    /// A human-readable throughput table.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>6} {:>10} {:>10} {:>9} {:>7} {:>8} {:>12} {:>14}",
            "conns", "rate", "frames", "steps", "drops", "tears", "elapsed ms", "achieved f/s"
        );
        for c in &self.cells {
            let rate = if c.rate > 0.0 {
                format!("{:.0} f/s", c.rate)
            } else {
                "unthrott.".to_string()
            };
            let _ = writeln!(
                s,
                "{:>6} {:>10} {:>10} {:>9} {:>7} {:>8} {:>12.1} {:>14.1}",
                c.connections,
                rate,
                c.frames,
                c.steps,
                c.drops,
                c.reassembly_errors,
                c.elapsed_ns as f64 / 1e6,
                c.achieved_rate
            );
        }
        let _ = writeln!(
            s,
            "(available_parallelism={}, elapsed includes the scoring drain)",
            self.available_parallelism
        );
        s
    }
}

/// The sweep's calibration campaign (same reduced scale as the fleet
/// sweep); cohort 0 of a store built on it equals the shared monitor.
fn sweep_calibration() -> CalibrationConfig {
    CalibrationConfig {
        runs: 2,
        duration_hours: 0.5,
        record_every: 10,
        base_seed: 100,
        threads: 0,
    }
}

/// The monitor every served stream scores against on the shared path.
fn sweep_monitor() -> DualMspc {
    DualMspc::calibrate(&sweep_calibration()).expect("ingest sweep calibration")
}

/// Records one capture tape for the sweep and persists it where
/// [`drive`] can read it. The tape is deterministic (fixed seed), so
/// every cell replays identical traffic.
fn sweep_tape(hours: f64) -> PathBuf {
    let scenario = Scenario::short(ScenarioKind::Idv6, hours, hours / 4.0, 42);
    let capture = temspc::capture_scenario(&scenario).expect("ingest sweep capture");
    let path = std::env::temp_dir().join(format!("temspc_bench_ingest_{}.cap", std::process::id()));
    temspc::persistence::save_capture(&capture, &path).expect("ingest sweep tape write");
    path
}

/// Runs one cell: bind, serve on a background thread until every driven
/// connection reports, and time the whole exchange.
fn run_cell(
    models: Models<'_>,
    config: &IngestSweepConfig,
    tape: &Path,
    connections: usize,
    rate: f64,
) -> IngestSweepCell {
    let server_config = IngestConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: connections + 8,
        queue_depth: config.queue_depth,
        batch_steps: config.batch_steps,
        threads: config.threads,
        expect: Some(connections),
        incidents: None,
    };
    let server = IngestServer::bind_models(models, server_config).expect("ingest sweep bind");
    let addr = server.local_addr().expect("ingest sweep local_addr");
    // `expect` ends the serve loop once every connection finalizes; the
    // stop flag is only the error path.
    let stop = AtomicBool::new(false);

    let started = Instant::now();
    let report: IngestReport = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&stop).expect("ingest sweep serve"));
        drive(&DriveConfig {
            addr: addr.to_string(),
            tapes: vec![tape.to_path_buf()],
            connections,
            rate,
            chunk: 0,
        })
        .expect("ingest sweep drive");
        serving.join().expect("ingest sweep server thread panicked")
    });
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let per_conn_frames = report.frames as f64 / connections.max(1) as f64;
    IngestSweepCell {
        connections,
        rate,
        cohorts: config.cohorts,
        frames: report.frames,
        steps: report.steps,
        drops: report.drops,
        reassembly_errors: report.reassembly_errors,
        completed: report.connections.iter().filter(|c| c.completed).count(),
        elapsed_ns,
        achieved_rate: per_conn_frames / (elapsed_ns as f64 / 1e9).max(1e-9),
    }
}

/// Runs the sweep: one tape, one cell per (rate, connections) pair.
/// With `cohorts` ≥ 1 the cells serve through a store populated (by
/// calibrate-on-miss) in a scratch directory, which is removed after
/// the sweep.
pub fn run_ingest_sweep(config: &IngestSweepConfig) -> IngestSweepReport {
    let store_dir =
        std::env::temp_dir().join(format!("temspc_bench_ingest_store_{}", std::process::id()));
    let (store, monitor);
    let models = if config.cohorts > 0 {
        store = ModelStore::new(StoreConfig::new(&store_dir, sweep_calibration()));
        Models::Store {
            store: &store,
            cohorts: config.cohorts,
        }
    } else {
        monitor = sweep_monitor();
        Models::Fixed(&monitor)
    };
    let tape = sweep_tape(config.tape_hours);
    let available_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut cells = Vec::new();
    for &rate in &config.rates {
        for &connections in &config.connections {
            cells.push(run_cell(models, config, &tape, connections, rate));
        }
    }
    let _ = std::fs::remove_file(&tape);
    if config.cohorts > 0 {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    IngestSweepReport {
        available_parallelism,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ids_and_table_cover_every_cell() {
        let report = IngestSweepReport {
            available_parallelism: 4,
            cells: vec![
                IngestSweepCell {
                    connections: 64,
                    rate: 0.0,
                    cohorts: 0,
                    frames: 25_600,
                    steps: 6_400,
                    drops: 0,
                    reassembly_errors: 0,
                    completed: 64,
                    elapsed_ns: 2_000_000_000,
                    achieved_rate: 200.0,
                },
                IngestSweepCell {
                    connections: 64,
                    rate: 100.0,
                    cohorts: 2,
                    frames: 25_600,
                    steps: 6_400,
                    drops: 0,
                    reassembly_errors: 0,
                    completed: 64,
                    elapsed_ns: 4_000_000_000,
                    achieved_rate: 100.0,
                },
            ],
        };
        let results = report.to_results();
        assert_eq!(results[0].0, "ingest_sweep/conns64_rate0");
        assert_eq!(results[1].0, "ingest_sweep/store2_conns64_rate100");
        let table = report.table();
        assert!(table.contains("unthrott."));
        assert!(table.contains("100 f/s"));
        assert!(report.cell(64, 100.0).is_some());
        assert!(report.cell(8, 0.0).is_none());
    }

    #[test]
    fn tiny_sweep_serves_with_zero_drops() {
        let report = run_ingest_sweep(&IngestSweepConfig {
            connections: vec![2],
            rates: vec![0.0],
            tape_hours: 0.02,
            queue_depth: 16,
            batch_steps: 64,
            threads: 2,
            cohorts: 0,
        });
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.connections, 2);
        assert_eq!(cell.completed, 2);
        assert!(cell.frames > 0, "no frames ingested");
        assert!(cell.steps > 0, "no steps scored");
        assert_eq!(cell.drops, 0, "loopback sweep dropped steps");
        assert_eq!(cell.reassembly_errors, 0);
        assert!(cell.elapsed_ns > 0);
        assert!(cell.achieved_rate > 0.0);
    }

    #[test]
    fn store_backed_sweep_serves_with_zero_drops() {
        let report = run_ingest_sweep(&IngestSweepConfig {
            connections: vec![2],
            rates: vec![0.0],
            tape_hours: 0.02,
            queue_depth: 16,
            batch_steps: 64,
            threads: 2,
            cohorts: 1,
        });
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.cohorts, 1);
        assert_eq!(cell.completed, 2);
        assert_eq!(cell.drops, 0, "store-backed sweep dropped steps");
        assert_eq!(cell.reassembly_errors, 0);
        assert_eq!(report.to_results()[0].0, "ingest_sweep/store1_conns2_rate0");
    }
}
