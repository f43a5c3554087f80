//! The per-layer ledger of a traced run.
//!
//! Every workload hands the ledger its plant set (the scenarios it
//! simulates, records or serves) and the ledger times each layer on
//! those inputs from outside, through public calls only:
//!
//! 1. the closed loop, driven here from the public pieces in
//!    `ClosedLoopRunner`'s order with a span around each layer call, and
//!    checked bit for bit against the untraced `run_scenario`;
//! 2. capture, TPB save/load, replay regrouping and stream parsing of
//!    each plant's tape;
//! 3. the model store on a hit and on a miss, and one calibration;
//! 4. the fleet engine's overhead over standalone plants;
//! 5. an unthrottled loopback serve of the tapes, for process CPU and
//!    the part of a served step no layer timing covers.

use std::path::Path;
use std::time::Instant;

use temspc::diagnosis::{diagnose, VerdictThresholds};
use temspc::persistence::{load_capture, save_capture};
use temspc::{capture_scenario, DualMspc, Scenario, ScenarioOutcome};
use temspc_control::DecentralizedController;
use temspc_fieldbus::{FieldbusLink, LinkScratch, MitmAdversary, ReplayLink};
use temspc_fleet::{plant_scenario, FleetConfig, FleetEngine, ModelStore, PlantKey, StoreConfig};
use temspc_ingest::{encode_hello, StreamEvent, StreamParser, HELLO_LEN};
use temspc_linalg::Matrix;
use temspc_mspc::{omeda, AnomalousEvent, ConsecutiveDetector, ScoreScratch};
use temspc_tesim::{MeasurementVector, PlantConfig, TePlant, N_XMV, SAMPLES_PER_HOUR};

use crate::fleet::calibration;
use crate::oracle::same_rows;
use crate::serve::{encode, serve_unthrottled, EncodedTape, Models, QueueStats};
use crate::trace::{span_cost_ns, Layer, Tracer};
use crate::util::{median, process_cpu_s};
use crate::{Args, Metric, Tally};

/// A workload's inputs as the ledger sees them.
pub struct Plan<'m> {
    /// Every plant the workload simulates, records or serves, with the
    /// monitor it is scored against.
    pub plants: Vec<(Scenario, &'m DualMspc)>,
    /// A fleet of the workload's shape, for the engine's overhead.
    pub fleet: FleetConfig,
    pub fleet_monitor: &'m DualMspc,
}

/// Monitored columns per level (41 XMEAS + 12 XMV).
const N_MONITORED: usize = 53;
/// Rows per scoring block, as in the program's block monitor.
const SCORE_BLOCK_ROWS: usize = 256;
/// Decimation of the recorded views, as in `run_scenario`.
const RECORD_EVERY: usize = 50;

/// The block-buffered dual-level monitor of `run_scenario`, rebuilt from
/// public calls so each call can carry a span.
struct BlockMonitor<'m> {
    monitor: &'m DualMspc,
    controller_det: ConsecutiveDetector,
    process_det: ConsecutiveDetector,
    onset: f64,
    window: usize,
    hours: Vec<f64>,
    c_block: Matrix,
    p_block: Matrix,
    c_scratch: ScoreScratch,
    p_scratch: ScoreScratch,
    collecting: bool,
    event_rows_controller: Matrix,
    event_rows_process: Matrix,
}

impl<'m> BlockMonitor<'m> {
    fn new(monitor: &'m DualMspc, onset: f64) -> Self {
        let config = monitor.config();
        BlockMonitor {
            monitor,
            controller_det: ConsecutiveDetector::new(
                *monitor.controller_model().limits(),
                config.detector,
            ),
            process_det: ConsecutiveDetector::new(
                *monitor.process_model().limits(),
                config.detector,
            ),
            onset,
            window: if config.event_window == 0 {
                100
            } else {
                config.event_window
            },
            hours: Vec::with_capacity(SCORE_BLOCK_ROWS),
            c_block: Matrix::with_capacity(SCORE_BLOCK_ROWS, N_MONITORED),
            p_block: Matrix::with_capacity(SCORE_BLOCK_ROWS, N_MONITORED),
            c_scratch: ScoreScratch::new(),
            p_scratch: ScoreScratch::new(),
            collecting: false,
            event_rows_controller: Matrix::default(),
            event_rows_process: Matrix::default(),
        }
    }

    fn push(&mut self, hour: f64, c: &[f64], p: &[f64], tr: &mut Tracer, owner: u32) {
        self.hours.push(hour);
        self.c_block.push_row(c);
        self.p_block.push_row(p);
        if self.hours.len() == SCORE_BLOCK_ROWS {
            self.flush(tr, owner);
        }
    }

    fn flush(&mut self, tr: &mut Tracer, owner: u32) {
        if self.hours.is_empty() {
            return;
        }
        let monitor = self.monitor;
        let (c_block, p_block) = (&self.c_block, &self.p_block);
        let (c_scratch, p_scratch) = (&mut self.c_scratch, &mut self.p_scratch);
        tr.span(Layer::MspcScore, owner, || {
            monitor
                .controller_model()
                .score_dataset_into(c_block, c_scratch)
                .expect("monitored vector length fixed");
            monitor
                .process_model()
                .score_dataset_into(p_block, p_scratch)
                .expect("monitored vector length fixed");
        });
        for (i, &hour) in self.hours.iter().enumerate() {
            let (c_t2, c_spe) = (self.c_scratch.t2()[i], self.c_scratch.spe()[i]);
            let (p_t2, p_spe) = (self.p_scratch.t2()[i], self.p_scratch.spe()[i]);
            let (c_det, p_det) = (&mut self.controller_det, &mut self.process_det);
            let (c_event, p_event) = tr.span(Layer::MspcDetect, owner, || {
                (
                    c_det.update(hour, c_t2, c_spe),
                    p_det.update(hour, p_t2, p_spe),
                )
            });
            if hour >= self.onset
                && (c_event.is_some_and(|e| e.detected_hour >= self.onset)
                    || p_event.is_some_and(|e| e.detected_hour >= self.onset))
            {
                self.collecting = true;
            }
            if self.collecting && self.event_rows_controller.nrows() < self.window {
                let violating = monitor.controller_model().limits().violates_99(c_t2, c_spe)
                    || monitor.process_model().limits().violates_99(p_t2, p_spe);
                if violating {
                    self.event_rows_controller.push_row(self.c_block.row(i));
                    self.event_rows_process.push_row(self.p_block.row(i));
                }
            }
        }
        self.hours.clear();
        self.c_block.clear_rows();
        self.p_block.clear_rows();
    }
}

/// What the traced closed loop recorded.
struct TracedRun {
    steps: u64,
    hours: Vec<f64>,
    controller_view: Matrix,
    process_view: Matrix,
    detection: (Option<AnomalousEvent>, Option<AnomalousEvent>),
    false_alarms: usize,
    event_rows_controller: Matrix,
    event_rows_process: Matrix,
}

/// Drives one scenario's closed loop from the public pieces in
/// `ClosedLoopRunner`'s order, with a span around every layer call.
fn traced_run(
    scenario: &Scenario,
    monitor: &DualMspc,
    tr: &mut Tracer,
    owner: u32,
) -> Result<TracedRun, String> {
    tr.begin(Layer::CoreRun, owner);
    let mut plant = TePlant::new(PlantConfig::default(), scenario.seed);
    plant.set_disturbances(scenario.disturbances());
    let mut link = FieldbusLink::new(MitmAdversary::new(scenario.attacks()));
    let mut controller = DecentralizedController::new();
    let mut xmeas = MeasurementVector::nominal();
    let (mut received, mut delivered) = (Vec::new(), Vec::new());
    let mut scratch = LinkScratch::new();
    let mut controller_row = Vec::with_capacity(N_MONITORED);
    let mut process_row = Vec::with_capacity(N_MONITORED);
    let mut block = BlockMonitor::new(monitor, scenario.onset_hour);
    let scheduled = (scenario.duration_hours * SAMPLES_PER_HOUR as f64).round() as usize;
    let recorded = scheduled.div_ceil(RECORD_EVERY);
    let mut hours = Vec::with_capacity(recorded);
    let mut controller_view = Matrix::with_capacity(recorded, N_MONITORED);
    let mut process_view = Matrix::with_capacity(recorded, N_MONITORED);
    let mut steps = 0u64;
    for k in 0..scheduled {
        let hour = plant.hour();
        tr.span(Layer::TesimMeasure, owner, || {
            plant.measurements_into(&mut xmeas)
        });
        tr.span(Layer::FieldbusUplink, owner, || {
            link.uplink_into(hour, xmeas.as_slice(), &mut received, &mut scratch)
        })
        .map_err(|e| format!("uplink: {e}"))?;
        let commanded = tr.span(Layer::ControlStep, owner, || controller.step(&received));
        tr.span(Layer::FieldbusDownlink, owner, || {
            link.downlink_into(hour, &commanded, &mut delivered, &mut scratch)
        })
        .map_err(|e| format!("downlink: {e}"))?;
        // Errors only after a shutdown, which the flag below catches.
        let _ = tr.span(Layer::TesimStep, owner, || plant.step(&delivered));

        controller_row.clear();
        controller_row.extend_from_slice(&received);
        controller_row.extend_from_slice(&commanded);
        process_row.clear();
        process_row.extend_from_slice(xmeas.as_slice());
        process_row.extend_from_slice(&delivered[..N_XMV]);
        block.push(hour, &controller_row, &process_row, tr, owner);
        if k % RECORD_EVERY == 0 {
            hours.push(hour);
            controller_view.push_row(&controller_row);
            process_view.push_row(&process_row);
        }
        steps += 1;
        if plant.is_shut_down() {
            break;
        }
    }
    block.flush(tr, owner);
    tr.end();

    let onset = block.onset;
    let first_after = |det: &ConsecutiveDetector| {
        det.events()
            .iter()
            .find(|e| e.detected_hour >= onset)
            .copied()
    };
    let false_alarms = block
        .controller_det
        .events()
        .iter()
        .chain(block.process_det.events())
        .filter(|e| e.detected_hour < onset)
        .count();
    Ok(TracedRun {
        steps,
        hours,
        controller_view,
        process_view,
        detection: (
            first_after(&block.controller_det),
            first_after(&block.process_det),
        ),
        false_alarms,
        event_rows_controller: block.event_rows_controller,
        event_rows_process: block.event_rows_process,
    })
}

/// Whether the traced loop reproduced the untraced run bit for bit.
fn same_run(untraced: &ScenarioOutcome, traced: &TracedRun) -> bool {
    let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(&untraced.run.hours) == bits(&traced.hours)
        && same_rows(&untraced.run.controller_view, &traced.controller_view)
        && same_rows(&untraced.run.process_view, &traced.process_view)
        && (untraced.detection.controller, untraced.detection.process) == traced.detection
        && untraced.false_alarms == traced.false_alarms
        && same_rows(
            &untraced.event_rows_controller,
            &traced.event_rows_controller,
        )
        && same_rows(&untraced.event_rows_process, &traced.event_rows_process)
}

fn ns(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// Runs the ledger over `plan` and returns every per-layer metric.
/// `allocs_per_step` comes from a counted round of the workload itself;
/// `served` carries the workload's own queue statistics when it serves.
pub fn run(
    args: &Args,
    work: &Path,
    plan: &Plan<'_>,
    allocs_per_step: f64,
    served: Option<&QueueStats>,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new();
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };

    // 1. The closed loop, untraced and traced.
    let (mut loop_ns, mut traced_ns, mut steps) = (0.0, 0.0, 0u64);
    let (mut diagnose_ns, mut omeda_ns, mut diagnosed) = (0.0, 0.0, 0u32);
    for (owner, (scenario, monitor)) in plan.plants.iter().enumerate() {
        // The faster of two untraced runs, so one slow reading does not
        // show up as unattributed time.
        let mut fastest = f64::INFINITY;
        let mut untraced = None;
        for _ in 0..2 {
            let t = Instant::now();
            let outcome = monitor
                .run_scenario(scenario)
                .map_err(|e| format!("plant {owner}: {e}"))?;
            fastest = fastest.min(ns(t));
            untraced = Some(outcome);
        }
        loop_ns += fastest;
        let outcome = untraced.expect("ran twice");
        if outcome.event_rows_controller.nrows() > 0 {
            // Medians of a few calls: one call is short enough that a
            // single reading is mostly noise.
            let (mut diagnose_calls, mut omeda_calls) = (Vec::new(), Vec::new());
            let dummy = vec![1.0; outcome.event_rows_controller.nrows()];
            for _ in 0..5 {
                let t = Instant::now();
                let _ = diagnose(monitor, &outcome, VerdictThresholds::default());
                diagnose_calls.push(ns(t));
                let t = Instant::now();
                let _ = omeda(
                    &outcome.event_rows_controller,
                    &dummy,
                    monitor.controller_model().pca(),
                );
                let _ = omeda(
                    &outcome.event_rows_process,
                    &dummy,
                    monitor.process_model().pca(),
                );
                omeda_calls.push(ns(t));
            }
            diagnose_ns += median(&diagnose_calls);
            omeda_ns += median(&omeda_calls);
            diagnosed += 1;
        }
        let t = Instant::now();
        let traced = traced_run(scenario, monitor, &mut tr, owner as u32)?;
        traced_ns += ns(t);
        if !same_run(&outcome, &traced) {
            tally.wrong(format!(
                "plant {owner}: the traced loop differs from run_scenario; the ledger measures another program"
            ));
        }
        steps += traced.steps;
    }
    let span_cost = span_cost_ns();
    let per_step = |layer: Layer| tr.net_ns(layer, span_cost) / steps as f64;
    let step_layers = [
        Layer::TesimStep,
        Layer::TesimMeasure,
        Layer::ControlStep,
        Layer::FieldbusUplink,
        Layer::FieldbusDownlink,
        Layer::MspcScore,
        Layer::MspcDetect,
    ];
    let loop_per_step = loop_ns / steps as f64;
    let covered: f64 = step_layers.iter().map(|&l| per_step(l)).sum();
    let score_per_row = per_step(Layer::MspcScore);
    let detect_per_row = per_step(Layer::MspcDetect);
    put("tesim.step_ns", per_step(Layer::TesimStep), "ns");
    put("tesim.measure_ns", per_step(Layer::TesimMeasure), "ns");
    put("control.step_ns", per_step(Layer::ControlStep), "ns");
    put("fieldbus.uplink_ns", per_step(Layer::FieldbusUplink), "ns");
    put(
        "fieldbus.downlink_ns",
        per_step(Layer::FieldbusDownlink),
        "ns",
    );
    put("mspc.score_ns_per_row", score_per_row, "ns");
    put("mspc.detect_ns_per_row", detect_per_row, "ns");
    put(
        "mspc.omeda_us",
        omeda_ns / f64::from(diagnosed.max(1)) / 1e3,
        "us",
    );
    put(
        "core.diagnose_us",
        diagnose_ns / f64::from(diagnosed.max(1)) / 1e3,
        "us",
    );
    put("core.loop_ns_per_step", loop_per_step, "ns");
    put(
        "core.unattributed_ns_per_step",
        loop_per_step - covered,
        "ns",
    );
    put(
        "trace.overhead_pct",
        (traced_ns / loop_ns - 1.0) * 100.0,
        "%",
    );
    debug_assert_eq!(tr.count(Layer::CoreRun), plan.plants.len() as u64);

    // 2. Tapes: capture, TPB save and load, replay, stream parsing.
    let (mut capture_ns, mut save_ns, mut load_ns, mut replay_ns, mut parse_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut tape_steps, mut tape_bytes, mut frames) = (0u64, 0u64, 0u64);
    let mut tapes: Vec<EncodedTape> = Vec::new();
    for (i, (scenario, _)) in plan.plants.iter().enumerate() {
        let t = Instant::now();
        let capture = capture_scenario(scenario).map_err(|e| format!("capture {i}: {e}"))?;
        capture_ns += ns(t);
        tape_steps += capture.steps() as u64;
        let path = work.join(format!("ledger_{i}.cap"));
        let t = Instant::now();
        save_capture(&capture, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        save_ns += ns(t);
        tape_bytes += std::fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        let t = Instant::now();
        let loaded = load_capture(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        load_ns += ns(t);
        let _ = std::fs::remove_file(&path);
        if loaded.records != capture.records {
            tally.wrong(format!(
                "tape {i}: the loaded tape differs from the saved one"
            ));
        }
        let t = Instant::now();
        let replayed = ReplayLink::new(&loaded.records)
            .filter(Result::is_ok)
            .count();
        replay_ns += ns(t);
        if replayed != capture.steps() {
            tally.wrong(format!(
                "tape {i}: replay regrouped {replayed} of {} steps",
                capture.steps()
            ));
        }
        let tape = encode(&capture);
        let mut parser = StreamParser::new();
        let hello = encode_hello(i as u32, scenario);
        let t = Instant::now();
        parser.feed(&hello);
        let mut parsed = 0u64;
        for chunk in tape.body.chunks(65536) {
            parser.feed(chunk);
            while let Some(event) = parser.next_event().map_err(|e| format!("parse {i}: {e}"))? {
                if matches!(event, StreamEvent::Record(_)) {
                    parsed += 1;
                }
            }
        }
        parse_ns += ns(t);
        if parsed != capture.records.len() as u64 {
            tally.wrong(format!(
                "tape {i}: parsed {parsed} of {} frames",
                capture.records.len()
            ));
        }
        frames += parsed;
        tapes.push(tape);
    }
    let n_tapes = plan.plants.len() as f64;
    let replay_per_step = replay_ns / tape_steps as f64;
    let parse_per_frame = parse_ns / frames as f64;
    put("fieldbus.replay_ns_per_step", replay_per_step, "ns");
    put(
        "core.capture_ns_per_step",
        capture_ns / tape_steps as f64,
        "ns",
    );
    put("persist.load_capture_ms", load_ns / n_tapes / 1e6, "ms");
    put("persist.save_capture_ms", save_ns / n_tapes / 1e6, "ms");
    put(
        "persist.tape_bytes_per_step",
        tape_bytes as f64 / tape_steps as f64,
        "B/step",
    );
    put("ingest.parse_ns_per_frame", parse_per_frame, "ns");

    // 3. The model store and one calibration.
    let store = ModelStore::new(StoreConfig::new(work.join("ledger_store"), calibration()));
    let key = PlantKey::new("ledger").map_err(|e| e.to_string())?;
    store
        .insert(&key, plan.fleet_monitor.clone())
        .map_err(|e| format!("store insert: {e}"))?;
    let mut hits = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        store.get(&key).map_err(|e| format!("store get: {e}"))?;
        hits.push(ns(t));
    }
    let mut misses = Vec::new();
    for _ in 0..5 {
        store.evict(&key);
        let t = Instant::now();
        store.get(&key).map_err(|e| format!("store get: {e}"))?;
        misses.push(ns(t));
    }
    put("fleet.store_get_us", median(&hits) / 1e3, "us");
    put("fleet.store_miss_ms", median(&misses) / 1e6, "ms");
    let t = Instant::now();
    DualMspc::calibrate(&calibration()).map_err(|e| format!("calibration failed: {e}"))?;
    put("core.calibrate_s", ns(t) / 1e9, "s");

    // 4. The fleet engine over standalone plants.
    let engine = FleetEngine::new(plan.fleet_monitor, plan.fleet.clone());
    engine.run().map_err(|e| format!("campaign failed: {e}"))?;
    // The least of several repetitions on each side, alternating which
    // side goes first, since the difference is small against
    // run-to-run noise.
    let standalone_fleet = || -> Result<f64, String> {
        let t = Instant::now();
        for i in 0..plan.fleet.plants {
            let scenario = plant_scenario(&plan.fleet, i);
            let outcome = plan
                .fleet_monitor
                .run_scenario(&scenario)
                .map_err(|e| format!("plant {i}: {e}"))?;
            let _ = diagnose(plan.fleet_monitor, &outcome, VerdictThresholds::default());
        }
        Ok(ns(t))
    };
    let campaign_fleet = || -> Result<f64, String> {
        let t = Instant::now();
        engine.run().map_err(|e| format!("campaign failed: {e}"))?;
        Ok(ns(t))
    };
    let (mut campaign, mut standalone) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..6 {
        if rep % 2 == 0 {
            campaign = campaign.min(campaign_fleet()?);
            standalone = standalone.min(standalone_fleet()?);
        } else {
            standalone = standalone.min(standalone_fleet()?);
            campaign = campaign.min(campaign_fleet()?);
        }
    }
    drop(engine);
    put(
        "fleet.plant_overhead_us",
        (campaign - standalone) / plan.fleet.plants as f64 / 1e3,
        "us",
    );

    // 5. Unthrottled loopback serving of the tapes.
    let models = Models::Shared(plan.fleet_monitor);
    let tape_refs: Vec<&EncodedTape> = tapes.iter().collect();
    let hellos: Vec<[u8; HELLO_LEN]> = tapes
        .iter()
        .enumerate()
        .map(|(i, t)| encode_hello(i as u32, &t.scenario))
        .collect();
    let mut probe_queue = QueueStats::default();
    let (mut wall, mut served_steps, mut rounds) = (0.0, 0u64, 0);
    let cpu_before = process_cpu_s()?;
    let started = Instant::now();
    while rounds < 2 || started.elapsed().as_secs_f64() < 2.0 {
        let served = serve_unthrottled(&models, &tape_refs, &hellos, &mut probe_queue)?;
        for c in served.report.connections.iter().filter(|c| !c.completed) {
            tally.wrong(format!(
                "ledger serve: plant {} did not complete: {:?}",
                c.plant, c.fault
            ));
        }
        wall += served.elapsed_s;
        served_steps += served.report.steps;
        rounds += 1;
    }
    let cpu = process_cpu_s()? - cpu_before;
    let wall_per_step_ns = wall * 1e9 / served_steps as f64;
    let attributed = 4.0 * parse_per_frame + replay_per_step + score_per_row + detect_per_row;
    put(
        "ingest.cpu_us_per_step",
        cpu * 1e6 / served_steps as f64,
        "us",
    );
    put(
        "ingest.unattributed_us_per_step",
        (wall_per_step_ns - attributed) / 1e3,
        "us",
    );
    let queue = served.unwrap_or(&probe_queue);
    put("ingest.queue_wait_p50_ms", queue.p50_ms(), "ms");
    put("ingest.parked", queue.parked_per_session(), "count");
    put("alloc.per_step", allocs_per_step, "allocs/step");

    tr.write(&Path::new(".bench_trace").join(format!("{}-seed{}.tsv", args.name, args.seed)))?;
    Ok(out)
}
