//! The `fleet-live` and `tape-replay` workloads: repeated `FleetEngine`
//! campaigns over one seeded fleet, simulated live or replayed from
//! tapes recorded during set-up.

use std::path::Path;
use std::time::Instant;

use temspc::{CalibrationConfig, DualMspc};
use temspc_fleet::{
    plant_scenario, record_fleet_captures, FleetConfig, FleetEngine, FleetReport, PlantSource,
};
use temspc_ingest::detection_digest;

use crate::ledger::{self, Plan};
use crate::oracle::{self, Standalone};
use crate::trace::count_allocations;
use crate::util::{timed_rounds, timed_setup, Rounds};
use crate::{Args, Report, Tally, SETUP_REPS};

/// Plants per campaign: two of each attack kind's rotation and two
/// each of IDV(6) and normal operation (attack fraction 0.5).
const PLANTS: usize = 8;
/// Simulated hours per plant.
const HOURS: f64 = 0.5;
/// Anomaly onset, hours.
const ONSET: f64 = 0.25;

/// The calibration every workload's monitor comes from: 4 runs × 2 h,
/// large enough that the 3-consecutive rule separates onset from noise.
pub fn calibration() -> CalibrationConfig {
    CalibrationConfig {
        runs: 4,
        duration_hours: 2.0,
        record_every: 10,
        base_seed: 100,
        threads: 1,
    }
}

pub fn calibrate() -> Result<DualMspc, String> {
    DualMspc::calibrate(&calibration()).map_err(|e| format!("calibration failed: {e}"))
}

/// The fleet of both fleet workloads, one scoring worker.
pub fn fleet_config(seed: u64, source: PlantSource) -> FleetConfig {
    FleetConfig {
        plants: PLANTS,
        threads: 1,
        hours: HOURS,
        onset_hour: ONSET,
        attack_fraction: 0.5,
        fleet_seed: seed,
        checkpoint_every: 0,
        source,
        ..FleetConfig::default()
    }
}

/// Every plant of `config` monitored standalone, with the scoring and
/// property oracles applied.
pub fn standalone_fleet(
    monitor: &DualMspc,
    config: &FleetConfig,
    tally: &mut Tally,
) -> Result<Vec<Standalone>, String> {
    (0..config.plants)
        .map(|i| {
            let scenario = plant_scenario(config, i);
            let s = oracle::standalone(monitor, i, &scenario)?;
            tally.check(
                oracle::check_scoring(monitor, &s.outcome).map_err(|e| format!("plant {i}: {e}")),
            );
            tally.check(
                oracle::check_properties(monitor, &scenario, &s.outcome, s.diagnosis.as_ref())
                    .map_err(|e| format!("plant {i}: {e}")),
            );
            Ok(s)
        })
        .collect()
}

/// Counts one campaign: every plant is one operation, failed when its
/// record is missing, incomplete or differs from the standalone run.
fn tally_report(tally: &mut Tally, report: &FleetReport, expected: &[Standalone]) {
    for (i, want) in expected.iter().enumerate() {
        tally.attempted += 1;
        match report.records.iter().find(|r| r.plant as usize == i) {
            Some(got) if *got == want.record => {}
            got => tally.fail(format!(
                "plant {i}: campaign record {got:?} != standalone {:?}",
                want.record
            )),
        }
    }
}

fn campaign_rounds(
    args: &Args,
    engine: &FleetEngine<'_>,
    expected: &[Standalone],
    steps: u64,
    tally: &mut Tally,
) -> Result<(Rounds, Option<f64>), String> {
    let mut round = || -> Result<(f64, f64), String> {
        let started = Instant::now();
        let report = engine.run().map_err(|e| format!("campaign failed: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        tally_report(tally, &report, expected);
        Ok((steps as f64, secs))
    };
    let rounds = timed_rounds(args.seconds, &mut round)?;
    let allocs_per_step = if args.trace {
        let before = count_allocations(true);
        round()?;
        let after = count_allocations(false);
        Some((after - before) as f64 / steps as f64)
    } else {
        None
    };
    Ok((rounds, allocs_per_step))
}

fn plan<'m>(monitor: &'m DualMspc, config: &FleetConfig) -> Plan<'m> {
    Plan {
        plants: (0..config.plants)
            .map(|i| (plant_scenario(config, i), monitor))
            .collect(),
        fleet: FleetConfig {
            source: PlantSource::Live,
            ..config.clone()
        },
        fleet_monitor: monitor,
    }
}

fn finish(
    args: &Args,
    work: &Path,
    plan: &Plan<'_>,
    mut tally: Tally,
    setup_s: f64,
    rounds: &[(f64, f64)],
    allocs: Option<f64>,
) -> Result<Report, String> {
    let layers = match allocs {
        Some(allocs) => ledger::run(args, work, plan, allocs, None, &mut tally)?,
        None => Vec::new(),
    };
    let mut report = Report::new(tally, setup_s);
    report.campaign(rounds);
    report.metrics.extend(layers);
    Ok(report)
}

/// `fleet-live`: the only workload that simulates the plant while
/// measuring.
pub fn run_live(args: &Args, work: &Path) -> Result<Report, String> {
    let (setup_s, monitor) = timed_setup(SETUP_REPS, calibrate)?;
    let config = fleet_config(args.seed, PlantSource::Live);
    let mut tally = Tally::default();
    let expected = standalone_fleet(&monitor, &config, &mut tally)?;
    let steps: u64 = expected.iter().map(|s| s.steps).sum();

    let engine = FleetEngine::new(&monitor, config.clone());
    let (rounds, allocs) = campaign_rounds(args, &engine, &expected, steps, &mut tally)?;
    drop(engine);

    finish(
        args,
        work,
        &plan(&monitor, &config),
        tally,
        setup_s,
        &rounds,
        allocs,
    )
}

/// `tape-replay`: the same fleet and seed, scored from tapes recorded
/// during set-up; the plant is not simulated while measuring.
pub fn run_replay(args: &Args, work: &Path) -> Result<Report, String> {
    let live = fleet_config(args.seed, PlantSource::Live);
    let tapes = work.join("tapes");
    let (setup_s, monitor) = timed_setup(SETUP_REPS, || {
        let monitor = calibrate()?;
        std::fs::create_dir_all(&tapes).map_err(|e| format!("{}: {e}", tapes.display()))?;
        record_fleet_captures(&live, &tapes).map_err(|e| format!("recording tapes: {e}"))?;
        Ok(monitor)
    })?;
    let mut tally = Tally::default();
    let expected = standalone_fleet(&monitor, &live, &mut tally)?;

    // live == replay: each tape scored offline must carry the live run's
    // detections, and its step count is the exact work per plant.
    let mut steps = 0u64;
    for (i, want) in expected.iter().enumerate() {
        let path = tapes.join(format!("plant_{i}.cap"));
        let capture = temspc::persistence::load_capture(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let replayed = monitor
            .score_capture(&capture)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if detection_digest(&replayed) != detection_digest(&want.outcome) {
            tally.wrong(format!(
                "plant {i}: replayed detections differ from the live run"
            ));
        }
        steps += capture.steps() as u64;
    }

    let config = fleet_config(
        args.seed,
        PlantSource::Replay(tapes.to_string_lossy().into_owned()),
    );
    let engine = FleetEngine::new(&monitor, config);
    let (rounds, allocs) = campaign_rounds(args, &engine, &expected, steps, &mut tally)?;
    drop(engine);

    finish(
        args,
        work,
        &plan(&monitor, &live),
        tally,
        setup_s,
        &rounds,
        allocs,
    )
}
