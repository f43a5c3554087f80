//! The `serve-burst` and `serve-paced` workloads: loopback TCP serving
//! through `IngestServer`, driven by a client in this process that
//! encodes its bytes with the public `encode_hello`/`encode_record`
//! before the clock starts.
//!
//! The load generator never uses more than two connections and two
//! sending threads at once (two cores on the reference host), and the
//! server scores on a one-worker pool.

use std::ffi::CString;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use temspc::{capture_scenario, DualMspc, Scenario, ScenarioCapture, ScenarioKind};
use temspc_fieldbus::ReplayLink;
use temspc_fleet::{
    plant_scenario, FleetConfig, MetricsRegistry, ModelStore, PlantKey, StoreConfig,
};
use temspc_ingest::{
    detection_digest, encode_hello, encode_record, IngestConfig, IngestReport, IngestServer,
    HELLO_LEN,
};

use crate::fleet::{calibrate, calibration};
use crate::ledger::{self, Plan};
use crate::oracle;
use crate::trace::count_allocations;
use crate::util::{median, mix, percentile, timed_rounds, timed_setup, unit};
use crate::{Args, Report, Tally, SETUP_REPS, TAIL_PERCENTILE};

/// Connections (and sending threads) of the load generator.
pub const LANES: usize = 2;

/// One tape encoded for the wire: the records of step `k` are
/// `body[step_ends[k - 1]..step_ends[k]]`.
pub struct EncodedTape {
    pub scenario: Scenario,
    pub body: Vec<u8>,
    pub step_ends: Vec<usize>,
    /// Plant hour of every step.
    pub hours: Vec<f64>,
}

pub fn encode(capture: &ScenarioCapture) -> EncodedTape {
    let mut body = Vec::new();
    let mut step_ends = Vec::with_capacity(capture.steps());
    let mut hours = Vec::with_capacity(capture.steps());
    for step in capture.records.chunks_exact(4) {
        for record in step {
            encode_record(record, &mut body);
        }
        step_ends.push(body.len());
        hours.push(step[0].hour);
    }
    EncodedTape {
        scenario: capture.scenario.clone(),
        body,
        step_ends,
        hours,
    }
}

/// Where a server's connections resolve their monitor.
pub enum Models<'m> {
    Shared(&'m DualMspc),
    Store(&'m ModelStore, usize),
}

fn bind<'m>(models: &Models<'m>, config: IngestConfig) -> Result<IngestServer<'m>, String> {
    match models {
        Models::Shared(monitor) => IngestServer::bind(monitor, config),
        Models::Store(store, cohorts) => IngestServer::bind_with_store(store, *cohorts, config),
    }
    .map_err(|e| format!("binding the ingest server: {e}"))
}

fn server_config(expect: usize, incidents: Option<String>) -> IngestConfig {
    IngestConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 16,
        threads: 1,
        expect: Some(expect),
        incidents,
        ..IngestConfig::default()
    }
}

/// The server's batch queue-wait histogram and parking counter, read
/// from its public metrics exposition and summed over serving sessions.
#[derive(Default)]
pub struct QueueStats {
    /// `(upper bound in seconds, observations in this bucket)`.
    buckets: Vec<(f64, u64)>,
    parked: u64,
    sessions: u64,
}

impl QueueStats {
    pub fn add(&mut self, registry: &MetricsRegistry) {
        self.sessions += 1;
        let text = registry.expose();
        let mut previous = 0u64;
        let mut index = 0usize;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("ingest_batch_queue_latency_seconds_bucket{le=\"")
            {
                let Some((bound, count)) = rest.split_once("\"} ") else {
                    continue;
                };
                let bound = if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound.parse().unwrap_or(f64::INFINITY)
                };
                let cumulative: u64 = count.trim().parse().unwrap_or(previous);
                let here = cumulative.saturating_sub(previous);
                previous = cumulative;
                if index == self.buckets.len() {
                    self.buckets.push((bound, 0));
                }
                self.buckets[index].1 += here;
                index += 1;
            } else if let Some(count) = line.strip_prefix("ingest_parked_total ") {
                self.parked += count.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }

    /// Parking events per serving session.
    pub fn parked_per_session(&self) -> f64 {
        self.parked as f64 / self.sessions.max(1) as f64
    }

    /// Median queue wait in milliseconds, interpolated inside its bucket.
    pub fn p50_ms(&self) -> f64 {
        let total: u64 = self.buckets.iter().map(|b| b.1).sum();
        let target = total as f64 / 2.0;
        let mut below = 0u64;
        let mut lower = 0.0;
        for &(upper, count) in &self.buckets {
            if count > 0 && (below + count) as f64 >= target {
                if upper.is_infinite() {
                    return lower * 1e3;
                }
                let share = (target - below as f64) / count as f64;
                return (lower + (upper - lower) * share) * 1e3;
            }
            below += count;
            lower = upper;
        }
        0.0
    }
}

/// Longest a server may take to finish its sessions once every byte is
/// sent; past it the server is stopped and unfinished sessions fail.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Waits for `serving` to finish, raising `stop` if it takes longer
/// than `limit`.
fn stop_after<T>(
    serving: &std::thread::ScopedJoinHandle<'_, T>,
    stop: &AtomicBool,
    limit: Duration,
) {
    let started = Instant::now();
    while !serving.is_finished() {
        if started.elapsed() > limit {
            stop.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One unthrottled serving session.
pub struct Served {
    pub report: IngestReport,
    /// First connect → last report, seconds.
    pub elapsed_s: f64,
}

/// Serves `tapes` unthrottled: lane `l` sends tapes `l`, `l + LANES`, …
/// back to back, one fresh connection each, as fast as the server
/// takes them. `hellos[i]` introduces tape `i`.
pub fn serve_unthrottled(
    models: &Models<'_>,
    tapes: &[&EncodedTape],
    hellos: &[[u8; HELLO_LEN]],
    queue: &mut QueueStats,
) -> Result<Served, String> {
    let server = bind(models, server_config(tapes.len(), None))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("ingest server address: {e}"))?;
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (report, lane_error) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&stop));
        let lanes: Vec<_> = (0..LANES)
            .map(|lane| {
                scope.spawn(move || -> std::io::Result<()> {
                    for i in (lane..tapes.len()).step_by(LANES) {
                        let mut conn = TcpStream::connect(addr)?;
                        conn.set_nodelay(true)?;
                        conn.write_all(&hellos[i])?;
                        conn.write_all(&tapes[i].body)?;
                        // Wait for the server to close its end, so a lane
                        // never holds more than one connection open.
                        conn.shutdown(Shutdown::Write)?;
                        while conn.read(&mut [0u8; 64])? > 0 {}
                    }
                    Ok(())
                })
            })
            .collect();
        let mut lane_error = None;
        for lane in lanes {
            if let Err(e) = lane.join().expect("sending thread panicked") {
                lane_error = Some(e);
            }
        }
        if lane_error.is_some() {
            // The server would otherwise wait for connections that never come.
            stop.store(true, Ordering::SeqCst);
        }
        stop_after(&serving, &stop, DRAIN_LIMIT);
        (serving.join().expect("server thread panicked"), lane_error)
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    if let Some(e) = lane_error {
        return Err(format!("sending to the ingest server: {e}"));
    }
    let report = report.map_err(|e| format!("ingest server failed: {e}"))?;
    queue.add(server.metrics());
    Ok(Served { report, elapsed_s })
}

/// Counts one served session: each connection is one operation, failed
/// when incomplete, faulted or its digest differs from the offline one.
fn tally_served(tally: &mut Tally, report: &IngestReport, expected: impl Fn(u32) -> Option<u64>) {
    for conn in &report.connections {
        tally.attempted += 1;
        let want = expected(conn.plant);
        if !conn.completed || conn.fault.is_some() || want != Some(conn.digest) {
            tally.fail(format!(
                "plant {}: served completed={} fault={:?} digest {:016x}, offline {:?}",
                conn.plant, conn.completed, conn.fault, conn.digest, want
            ));
        }
    }
    if report.drops > 0 || report.reassembly_errors > 0 {
        tally.wrong(format!(
            "serving dropped {} steps with {} reassembly errors",
            report.drops, report.reassembly_errors
        ));
    }
}

/// Hours of each `serve-burst` tape: a round of two tapes is 16 000 steps,
/// about 0.15 s, so a 25 s run has over 100 rounds.
const BURST_HOURS: f64 = 4.0;
/// Anomaly onset of the `serve-burst` tapes. The monitor's false-alarm
/// streaks grow with time since start-up, and a streak still running at
/// onset hides an integrity attack (hour 0.5: 5 of 600 seeds missed,
/// hour 2: 171 of 600); at hour 0.25 none of 600 was missed.
const BURST_ONSET: f64 = 0.25;

/// `serve-burst`: two tapes (IDV(6) and an XMV(3) integrity attack)
/// served unthrottled against one fixed monitor, over and over.
pub fn run_burst(args: &Args, work: &Path) -> Result<Report, String> {
    let config = FleetConfig {
        plants: LANES,
        threads: 1,
        hours: BURST_HOURS,
        onset_hour: BURST_ONSET,
        attack_fraction: 0.5,
        fleet_seed: args.seed,
        checkpoint_every: 0,
        ..FleetConfig::default()
    };
    let (setup_s, (monitor, captures, tapes, hellos)) = timed_setup(SETUP_REPS, || {
        let monitor = calibrate()?;
        let mut captures = Vec::new();
        let mut tapes = Vec::new();
        let mut hellos = Vec::new();
        for i in 0..config.plants {
            let scenario = plant_scenario(&config, i);
            let capture =
                capture_scenario(&scenario).map_err(|e| format!("recording tape {i}: {e}"))?;
            tapes.push(encode(&capture));
            hellos.push(encode_hello(i as u32, &scenario));
            captures.push(capture);
        }
        Ok((monitor, captures, tapes, hellos))
    })?;

    // live == replay, and each tape's offline digest is what serving
    // must reproduce.
    let mut tally = Tally::default();
    let mut digests = Vec::new();
    for (i, capture) in captures.iter().enumerate() {
        let live = oracle::standalone(&monitor, i, &capture.scenario)?;
        tally.check(oracle::check_scoring(&monitor, &live.outcome));
        tally.check(oracle::check_properties(
            &monitor,
            &capture.scenario,
            &live.outcome,
            live.diagnosis.as_ref(),
        ));
        let offline = monitor
            .score_capture(capture)
            .map_err(|e| format!("tape {i}: {e}"))?;
        if detection_digest(&offline) != detection_digest(&live.outcome) {
            tally.wrong(format!(
                "tape {i}: replayed detections differ from the live run"
            ));
        }
        digests.push(detection_digest(&offline));
    }
    drop(captures);

    let models = Models::Shared(&monitor);
    let tape_refs: Vec<&EncodedTape> = tapes.iter().collect();
    let mut queue = QueueStats::default();
    let round = |queue: &mut QueueStats, tally: &mut Tally| -> Result<(f64, f64), String> {
        let served = serve_unthrottled(&models, &tape_refs, &hellos, queue)?;
        tally_served(tally, &served.report, |plant| {
            digests.get(plant as usize).copied()
        });
        Ok((served.report.steps as f64, served.elapsed_s))
    };
    let rounds = timed_rounds(args.seconds, || round(&mut queue, &mut tally))?;
    let mut report = if args.trace {
        let steps: usize = tapes.iter().map(|t| t.step_ends.len()).sum();
        let before = count_allocations(true);
        round(&mut queue, &mut tally)?;
        let allocs = (count_allocations(false) - before) as f64 / steps as f64;
        let plan = Plan {
            plants: tapes
                .iter()
                .map(|t| (t.scenario.clone(), &monitor))
                .collect(),
            fleet: config.clone(),
            fleet_monitor: &monitor,
        };
        let layers = ledger::run(args, work, &plan, allocs, Some(&queue), &mut tally)?;
        let mut report = Report::new(tally, setup_s);
        report.metrics.extend(layers);
        report
    } else {
        Report::new(tally, setup_s)
    };
    report.campaign(&rounds);
    Ok(report)
}

/// Steps per `serve-paced` session: exactly two 256-row scoring blocks,
/// so every detection surfaces on a block flush before the stream ends.
const SESSION_STEPS: usize = 512;
/// Sessions per round: the four anomalous scenarios × eight onsets.
const SESSIONS: usize = 32;
/// Offered steps per second on each connection. A round then lasts
/// 16 × 512 / 3276.8 = 2.5 s, and both connections together offer
/// under a tenth of `serve-burst`'s throughput.
const LANE_RATE: f64 = 3276.8;

/// The 32 sessions of a `serve-paced` round. Session `j` runs anomaly
/// `j mod 4` with its own seed; its onset is set so the attack is
/// detected at step `256 + 8 (j + u_j)` (`u_j` uniform from the seed),
/// spreading detections evenly over the second scoring block.
fn paced_scenarios(seed: u64) -> Vec<Scenario> {
    let samples_per_hour = temspc_tesim::SAMPLES_PER_HOUR as f64;
    (0..SESSIONS)
        .map(|j| {
            let kind = ScenarioKind::anomalous()[j % 4];
            let detect_step = 256 + ((j as f64 + unit(seed, 1000 + j as u64)) * 8.0) as usize;
            let onset_step = detect_step - 3;
            Scenario::short(
                kind,
                SESSION_STEPS as f64 / samples_per_hour,
                onset_step as f64 / samples_per_hour,
                mix(seed, j as u64),
            )
        })
        .collect()
}

/// Creates a named pipe for the server's incident stream, so the reader
/// wakes on every line without polling.
fn make_fifo(path: &Path) -> Result<(), String> {
    extern "C" {
        fn mkfifo(path: *const std::ffi::c_char, mode: u32) -> i32;
    }
    let c_path = CString::new(path.as_os_str().as_bytes()).map_err(|e| e.to_string())?;
    // SAFETY: `c_path` is a valid NUL-terminated string that outlives
    // the call; `mkfifo` only reads it.
    let rc = unsafe { mkfifo(c_path.as_ptr(), 0o600) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "mkfifo {}: {}",
            path.display(),
            std::io::Error::last_os_error()
        ))
    }
}

/// One line of the incident stream and when it was read.
struct Incident {
    at: Instant,
    line: String,
}

fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the paced client sent: per session, when each step was due.
struct PacedRun {
    report: IngestReport,
    incidents: Vec<Incident>,
    /// Due time of step 0 of the lane's schedule.
    t0: Instant,
    elapsed_s: f64,
    late_ms: Vec<f64>,
}

/// Lane of session `plant` and the lane step its first step is due at.
fn schedule(plant: usize) -> (usize, usize) {
    let (round, j) = (plant / SESSIONS, plant % SESSIONS);
    let lane = j % LANES;
    let slot = round * (SESSIONS / LANES) + j / LANES;
    (lane, slot * SESSION_STEPS)
}

fn due(t0: Instant, lane_step: usize) -> Instant {
    t0 + Duration::from_secs_f64(lane_step as f64 / LANE_RATE)
}

/// Sends `rounds` rounds of sessions open-loop at [`LANE_RATE`] on each
/// lane, while a reader thread timestamps the incident stream.
fn paced_serve(
    store: &ModelStore,
    tapes: &[EncodedTape],
    rounds: usize,
    fifo: &Path,
    queue: &mut QueueStats,
) -> Result<PacedRun, String> {
    let sessions = rounds * SESSIONS;
    let hellos: Vec<[u8; HELLO_LEN]> = (0..sessions)
        .map(|p| encode_hello(p as u32, &tapes[p % SESSIONS].scenario))
        .collect();
    let models = Models::Store(store, LANES);
    let server = bind(
        &models,
        server_config(sessions, Some(fifo.to_string_lossy().into_owned())),
    )?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("ingest server address: {e}"))?;
    let stop = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(50);
    let hellos = &hellos;
    let outcome = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&stop));
        let reader = scope.spawn(move || -> std::io::Result<Vec<Incident>> {
            let mut lines = Vec::new();
            let mut input = BufReader::new(File::open(fifo)?);
            loop {
                let mut line = String::new();
                if input.read_line(&mut line)? == 0 {
                    return Ok(lines);
                }
                lines.push(Incident {
                    at: Instant::now(),
                    line,
                });
            }
        });
        let lanes: Vec<_> = (0..LANES)
            .map(|lane| {
                scope.spawn(move || -> std::io::Result<Vec<f64>> {
                    let mut late_ms = Vec::new();
                    for plant in (0..sessions).filter(|p| schedule(*p).0 == lane) {
                        let tape = &tapes[plant % SESSIONS];
                        let first = schedule(plant).1;
                        sleep_until(due(t0, first));
                        let mut conn = TcpStream::connect(addr)?;
                        conn.set_nodelay(true)?;
                        conn.write_all(&hellos[plant])?;
                        let mut start = 0;
                        for (k, &end) in tape.step_ends.iter().enumerate() {
                            let due = due(t0, first + k);
                            sleep_until(due);
                            late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                            conn.write_all(&tape.body[start..end])?;
                            start = end;
                        }
                        conn.shutdown(Shutdown::Write)?;
                    }
                    Ok(late_ms)
                })
            })
            .collect();
        let mut late_ms = Vec::new();
        let mut lane_error = None;
        for lane in lanes {
            match lane.join().expect("sending thread panicked") {
                Ok(late) => late_ms.extend(late),
                Err(e) => lane_error = Some(e),
            }
        }
        if lane_error.is_some() {
            stop.store(true, Ordering::SeqCst);
        }
        stop_after(&serving, &stop, DRAIN_LIMIT);
        let served = serving.join().expect("server thread panicked");
        let elapsed_s = t0.elapsed().as_secs_f64();
        if served.is_err() {
            // Unblock a reader still waiting for the pipe's writer.
            let _ = File::create(fifo);
        }
        let incidents = reader.join().expect("incident reader panicked");
        (served, incidents, lane_error, late_ms, elapsed_s)
    });
    let (served, incidents, lane_error, late_ms, elapsed_s) = outcome;
    if let Some(e) = lane_error {
        return Err(format!("sending to the ingest server: {e}"));
    }
    let report = served.map_err(|e| format!("ingest server failed: {e}"))?;
    let incidents = incidents.map_err(|e| format!("reading incidents: {e}"))?;
    queue.add(server.metrics());
    Ok(PacedRun {
        report,
        incidents,
        t0,
        elapsed_s,
        late_ms,
    })
}

/// What serving session `j` of a round must produce.
struct PacedExpectation {
    digest: u64,
    /// `(level, detected hour to six places)` of every detection.
    detections: Vec<(String, String)>,
}

fn paced_expectations(
    store: &ModelStore,
    tapes: &[EncodedTape],
    captures: &[ScenarioCapture],
    tally: &mut Tally,
) -> Result<Vec<PacedExpectation>, String> {
    let mut out = Vec::new();
    for (j, capture) in captures.iter().enumerate() {
        let model = store
            .get(&PlantKey::cohort(j % LANES))
            .map_err(|e| format!("store: {e}"))?
            .model;
        let live = oracle::standalone(&model, j, &capture.scenario)?;
        tally.check(oracle::check_scoring(&model, &live.outcome));
        tally.check(oracle::check_properties(
            &model,
            &capture.scenario,
            &live.outcome,
            live.diagnosis.as_ref(),
        ));
        let mut scorer = model.stream_scorer(capture.scenario.onset_hour);
        for step in ReplayLink::new(&capture.records) {
            let step = step.map_err(|e| format!("session {j}: {e}"))?;
            scorer
                .push_step(&step)
                .map_err(|e| format!("session {j}: {e}"))?;
        }
        let (controller, process) = scorer.events();
        let mut detections: Vec<(String, String)> = controller
            .iter()
            .map(|e| ("controller", e))
            .chain(process.iter().map(|e| ("process", e)))
            .map(|(level, e)| (level.to_owned(), format!("{:.6}", e.detected_hour)))
            .collect();
        detections.sort();
        let offline = scorer.finish(capture.scenario.clone(), capture.shutdown);
        if detection_digest(&offline) != detection_digest(&live.outcome) {
            tally.wrong(format!(
                "session {j}: replayed detections differ from the live run"
            ));
        }
        if tapes[j].step_ends.len() != SESSION_STEPS {
            tally.wrong(format!(
                "session {j}: tape holds {} steps",
                tapes[j].step_ends.len()
            ));
        }
        out.push(PacedExpectation {
            digest: detection_digest(&offline),
            detections,
        });
    }
    Ok(out)
}

/// Latencies of one paced run, checked against the expectations.
struct Latencies {
    alarm_ms: Vec<f64>,
    verdict_ms: Vec<f64>,
}

fn paced_latencies(
    run: &PacedRun,
    tapes: &[EncodedTape],
    expected: &[PacedExpectation],
    tally: &mut Tally,
) -> Latencies {
    let sessions = run.report.connections.len();
    let mut alarm_ms = Vec::new();
    let mut verdict_ms = Vec::new();
    let mut detections: Vec<Vec<(String, String)>> = vec![Vec::new(); sessions];
    let mut verdicts: Vec<Vec<u64>> = vec![Vec::new(); sessions];
    for incident in &run.incidents {
        let line = incident.line.trim();
        let plant = field(line, "plant").and_then(|p| p.parse::<usize>().ok());
        let Some(plant) = plant.filter(|p| *p < sessions) else {
            tally.wrong(format!("incident for an unknown plant: {line}"));
            continue;
        };
        let tape = &tapes[plant % SESSIONS];
        let (_, first) = schedule(plant);
        match field(line, "event") {
            Some("detection") => {
                let level = field(line, "level").unwrap_or("-").to_owned();
                let hour = field(line, "detected_hour").unwrap_or("-").to_owned();
                let parsed = hour.parse::<f64>().unwrap_or(f64::NAN);
                match tape.hours.iter().position(|h| (h - parsed).abs() < 1e-6) {
                    // Pre-onset events are false alarms; they are checked
                    // with the rest but only detections of the anomaly
                    // count toward the alarm latency.
                    Some(k) if tape.hours[k] >= tape.scenario.onset_hour => alarm_ms.push(
                        incident
                            .at
                            .duration_since(due(run.t0, first + k))
                            .as_secs_f64()
                            * 1e3,
                    ),
                    Some(_) => {}
                    None => tally.wrong(format!("detection at an hour no step has: {line}")),
                }
                detections[plant].push((level, hour));
            }
            Some("verdict") => {
                let digest = field(line, "digest").and_then(|d| u64::from_str_radix(d, 16).ok());
                verdicts[plant].push(digest.unwrap_or(0));
                let last = due(run.t0, first + tape.step_ends.len() - 1);
                verdict_ms.push(incident.at.duration_since(last).as_secs_f64() * 1e3);
            }
            _ => {}
        }
    }
    for conn in &run.report.connections {
        tally.attempted += 1;
        let plant = conn.plant as usize;
        let Some(want) = expected.get(plant % SESSIONS).filter(|_| plant < sessions) else {
            tally.fail(format!("unexpected plant {plant} served"));
            continue;
        };
        detections[plant].sort();
        let ok = conn.completed
            && conn.fault.is_none()
            && conn.digest == want.digest
            && verdicts[plant] == [want.digest]
            && detections[plant] == want.detections;
        if !ok {
            tally.fail(format!(
                "session {plant}: completed={} fault={:?} digest {:016x} (offline {:016x}), \
                 verdict lines {:?}, detections {:?} (offline {:?})",
                conn.completed,
                conn.fault,
                conn.digest,
                want.digest,
                verdicts[plant],
                detections[plant],
                want.detections
            ));
        }
    }
    if run.report.drops > 0 || run.report.reassembly_errors > 0 {
        tally.wrong(format!(
            "serving dropped {} steps with {} reassembly errors",
            run.report.drops, run.report.reassembly_errors
        ));
    }
    Latencies {
        alarm_ms,
        verdict_ms,
    }
}

/// `serve-paced`: many short sessions of the four anomalous scenarios,
/// sent open-loop at a fixed step rate, each on a fresh connection, with
/// monitors resolved through a 2-cohort `ModelStore` and alarms read off
/// the `--incidents` stream.
pub fn run_paced(args: &Args, work: &Path) -> Result<Report, String> {
    let store_dir = work.join("store");
    let scenarios = paced_scenarios(args.seed);
    let (setup_s, (store, captures, tapes)) = timed_setup(SETUP_REPS, || {
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = ModelStore::new(StoreConfig::new(&store_dir, calibration()));
        for cohort in 0..LANES {
            store
                .get(&PlantKey::cohort(cohort))
                .map_err(|e| format!("filling the model store: {e}"))?;
        }
        let mut captures = Vec::new();
        let mut tapes = Vec::new();
        for (j, scenario) in scenarios.iter().enumerate() {
            let capture = capture_scenario(scenario).map_err(|e| format!("session {j}: {e}"))?;
            tapes.push(encode(&capture));
            captures.push(capture);
        }
        Ok((store, captures, tapes))
    })?;
    let mut tally = Tally::default();
    let expected = paced_expectations(&store, &tapes, &captures, &mut tally)?;
    drop(captures);

    let round_s = (SESSIONS / LANES * SESSION_STEPS) as f64 / LANE_RATE;
    let rounds = ((args.seconds / round_s).floor() as usize).max(1);
    let fifo = work.join("incidents.fifo");
    make_fifo(&fifo)?;
    let mut queue = QueueStats::default();
    let before = count_allocations(args.trace);
    let run = paced_serve(&store, &tapes, rounds, &fifo, &mut queue)?;
    let allocs = count_allocations(false) - before;
    let latencies = paced_latencies(&run, &tapes, &expected, &mut tally);
    eprintln!(
        "serve-paced: {} sessions, {} alarms, client late p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        run.report.connections.len(),
        latencies.alarm_ms.len(),
        median(&run.late_ms),
        percentile(&run.late_ms, 99.0),
        run.late_ms.iter().copied().fold(0.0, f64::max),
    );

    let mut report = if args.trace {
        let models = (0..LANES)
            .map(|cohort| store.get(&PlantKey::cohort(cohort)).map(|r| r.model))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("store: {e}"))?;
        let plan = Plan {
            plants: scenarios
                .iter()
                .enumerate()
                .map(|(j, s)| (s.clone(), &*models[j % LANES]))
                .collect(),
            fleet: FleetConfig {
                plants: SESSIONS,
                threads: 1,
                hours: SESSION_STEPS as f64 / temspc_tesim::SAMPLES_PER_HOUR as f64,
                onset_hour: scenarios[SESSIONS / 2].onset_hour,
                attack_fraction: 0.75,
                fleet_seed: args.seed,
                checkpoint_every: 0,
                ..FleetConfig::default()
            },
            fleet_monitor: &models[0],
        };
        let allocs = allocs as f64 / run.report.steps.max(1) as f64;
        let layers = ledger::run(args, work, &plan, allocs, Some(&queue), &mut tally)?;
        let mut report = Report::new(tally, setup_s);
        report.metrics.extend(layers);
        report
    } else {
        Report::new(tally, setup_s)
    };
    report.metric(
        "steps_per_s",
        run.report.steps as f64 / run.elapsed_s,
        "steps/s",
    );
    report.metric("alarm_latency_p50_ms", median(&latencies.alarm_ms), "ms");
    report.metric(
        "alarm_latency_tail_ms",
        percentile(&latencies.alarm_ms, TAIL_PERCENTILE),
        "ms",
    );
    report.metric(
        "verdict_latency_p50_ms",
        median(&latencies.verdict_ms),
        "ms",
    );
    Ok(report)
}
