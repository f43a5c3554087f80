//! Correctness oracles that do not come from the program's current
//! output: a naive T²/SPE recomputation from the model's public
//! parameters, standalone reruns of each plant, and the paper's
//! properties of attack-free and attacked runs.

use temspc::diagnosis::{diagnose, AnomalyDiagnosis, VerdictThresholds};
use temspc::{ClosedLoopRunner, DualMspc, Scenario, ScenarioKind, ScenarioOutcome};
use temspc_fleet::PlantRecord;
use temspc_linalg::Matrix;
use temspc_mspc::{MspcModel, ScoreScratch};
use temspc_tesim::SAMPLES_PER_HOUR;

/// Relative tolerance of the naive T²/SPE recomputation: the batched
/// kernel and the textbook loops sum in different orders.
const SCORE_RTOL: f64 = 1e-9;

/// T² and SPE of one raw observation, computed the textbook way from
/// the model's scaler, loadings and eigenvalues.
fn naive_scores(model: &MspcModel, raw: &[f64]) -> (f64, f64) {
    let pca = model.pca();
    let scaler = pca.scaler();
    let z: Vec<f64> = raw
        .iter()
        .zip(scaler.means())
        .zip(scaler.stds())
        .map(|((x, mu), sd)| (x - mu) / sd)
        .collect();
    let p = pca.loadings();
    let (m, a) = (p.nrows(), p.ncols());
    let scores: Vec<f64> = (0..a)
        .map(|c| (0..m).map(|r| z[r] * p.get(r, c)).sum())
        .collect();
    let t2 = scores
        .iter()
        .zip(pca.eigenvalues())
        .map(|(t, l)| t * t / l.max(1e-12))
        .sum();
    let spe = (0..m)
        .map(|r| {
            let recon: f64 = (0..a).map(|c| scores[c] * p.get(r, c)).sum();
            (z[r] - recon).powi(2)
        })
        .sum();
    (t2, spe)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_RTOL * a.abs().max(b.abs()).max(1e-12)
}

/// Scores every eighth recorded row of both views through
/// `score_dataset_into` and checks each against the naive formulas.
pub fn check_scoring(monitor: &DualMspc, outcome: &ScenarioOutcome) -> Result<(), String> {
    for (level, model, rows) in [
        (
            "controller",
            monitor.controller_model(),
            &outcome.run.controller_view,
        ),
        (
            "process",
            monitor.process_model(),
            &outcome.run.process_view,
        ),
    ] {
        let picked: Vec<usize> = (0..rows.nrows()).step_by(8).collect();
        let sample = rows.select_rows(&picked);
        let mut scratch = ScoreScratch::new();
        model
            .score_dataset_into(&sample, &mut scratch)
            .map_err(|e| format!("{level} scoring failed: {e}"))?;
        for (i, row) in sample.iter_rows().enumerate() {
            let (t2, spe) = naive_scores(model, row);
            if !close(t2, scratch.t2()[i]) || !close(spe, scratch.spe()[i]) {
                return Err(format!(
                    "{level} row {}: batched T²/SPE ({}, {}) != naive ({t2}, {spe})",
                    picked[i],
                    scratch.t2()[i],
                    scratch.spe()[i]
                ));
            }
        }
    }
    Ok(())
}

/// Closed-loop steps a scenario ran (shorter than scheduled if the
/// plant tripped).
pub fn steps_of(scenario: &Scenario, outcome: &ScenarioOutcome) -> u64 {
    let scheduled = (scenario.duration_hours * SAMPLES_PER_HOUR as f64).round() as u64;
    match outcome.run.shutdown {
        Some((_, hour)) => ((hour * SAMPLES_PER_HOUR as f64).round() as u64 + 1).min(scheduled),
        None => scheduled,
    }
}

/// A plant monitored standalone: its outcome, its diagnosis and the
/// fleet record a campaign must produce for it.
pub struct Standalone {
    pub outcome: ScenarioOutcome,
    pub diagnosis: Option<AnomalyDiagnosis>,
    pub record: PlantRecord,
    pub steps: u64,
}

/// Runs plant `plant`'s scenario standalone through `run_scenario` and
/// `diagnose`, the way a fleet campaign must reproduce it.
pub fn standalone(
    monitor: &DualMspc,
    plant: usize,
    scenario: &Scenario,
) -> Result<Standalone, String> {
    let outcome = monitor
        .run_scenario(scenario)
        .map_err(|e| format!("plant {plant}: {e}"))?;
    let diagnosis = diagnose(monitor, &outcome, VerdictThresholds::default());
    let record = PlantRecord {
        plant: plant as u32,
        kind: scenario.kind,
        seed: scenario.seed,
        completed: true,
        restarts: 0,
        fault: None,
        detection_latency_hours: outcome.detection.run_length(scenario.onset_hour),
        false_alarms: outcome.false_alarms as u32,
        verdict: diagnosis.as_ref().map(|d| d.verdict),
        shutdown_hour: outcome.run.shutdown.map(|(_, hour)| hour),
        model_generation: 0,
    };
    let steps = steps_of(scenario, &outcome);
    Ok(Standalone {
        outcome,
        diagnosis,
        record,
        steps,
    })
}

/// The paper's properties of one monitored run:
///
/// * attack-free runs (normal, IDV(6)) have identical controller and
///   process views, so their oMEDA vectors agree (divergence 0);
/// * the XMV(3) and XMEAS(1) integrity attacks are detected and their
///   two levels diverge — unless a false-alarm streak is still running
///   when the attack starts, which the 3-consecutive rule cannot tell
///   apart from the attack (see [`latched_at_onset`]);
/// * no detection of any anomaly precedes its onset.
pub fn check_properties(
    monitor: &DualMspc,
    scenario: &Scenario,
    outcome: &ScenarioOutcome,
    diagnosis: Option<&AnomalyDiagnosis>,
) -> Result<(), String> {
    let kind = scenario.kind;
    let onset = scenario.onset_hour;
    if !kind.is_attack() {
        if outcome.run.controller_view != outcome.run.process_view {
            return Err(format!("{kind:?}: attack-free views differ"));
        }
        if let Some(d) = diagnosis {
            if d.controller_omeda != d.process_omeda || d.divergence.abs() > 1e-12 {
                return Err(format!(
                    "{kind:?}: attack-free oMEDA diverges ({})",
                    d.divergence
                ));
            }
        }
    }
    if matches!(
        kind,
        ScenarioKind::IntegrityXmv3 | ScenarioKind::IntegrityXmeas1
    ) {
        match diagnosis {
            Some(d) if d.divergence <= 0.0 => {
                return Err(format!(
                    "{kind:?}: levels do not diverge ({})",
                    d.divergence
                ));
            }
            Some(_) => {}
            None if latched_at_onset(monitor, scenario)? => {}
            None => return Err(format!("{kind:?} (seed {}) not detected", scenario.seed)),
        }
    }
    for event in [outcome.detection.controller, outcome.detection.process]
        .into_iter()
        .flatten()
    {
        if event.detected_hour < onset || event.first_violation_hour > event.detected_hour {
            return Err(format!(
                "{kind:?}: detection at hour {} before onset {onset}",
                event.detected_hour
            ));
        }
    }
    Ok(())
}

/// Whether a level's detector is still inside a pre-onset event when
/// the anomaly starts: the `consecutive` samples just before onset all
/// violate the 99 % limits. The detector then raises no new event for
/// an attack whose violations continue that streak, so the attack goes
/// unreported. Re-simulates the scenario, scoring every sample.
fn latched_at_onset(monitor: &DualMspc, scenario: &Scenario) -> Result<bool, String> {
    let needed = monitor.config().detector.consecutive;
    let mut streaks = [0usize; 2];
    let mut latched = false;
    ClosedLoopRunner::new(scenario)
        .run(usize::MAX, |sample| {
            if sample.hour >= scenario.onset_hour {
                latched |= streaks.iter().any(|&s| s >= needed);
                streaks = [0; 2];
                return;
            }
            let levels = [
                (monitor.controller_model(), &sample.controller_view),
                (monitor.process_model(), &sample.process_view),
            ];
            for (streak, (model, row)) in streaks.iter_mut().zip(levels) {
                let violating = model.is_violation_99(row).unwrap_or(false);
                *streak = if violating { *streak + 1 } else { 0 };
            }
        })
        .map_err(|e| format!("re-running {:?}: {e}", scenario.kind))?;
    if latched {
        eprintln!(
            "note: {:?} (seed {}) undetected: a false-alarm streak runs into its onset",
            scenario.kind, scenario.seed
        );
    }
    Ok(latched)
}

/// Checks two recorded decimated views for bit equality.
pub fn same_rows(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
