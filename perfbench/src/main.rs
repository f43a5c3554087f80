//! `temspc-perfbench` — the end-to-end and per-layer benchmark of temspc.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-live --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run sets up one workload from `--seed`, measures it for
//! `--seconds`, checks every output against oracles that do not come
//! from the program's current output, and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. See `perfbench/README.md` for the workloads, the metric
//! map and reference figures.

mod fleet;
mod ledger;
mod oracle;
mod serve;
mod trace;
mod util;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAllocator = trace::CountingAllocator;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Percentile reported as the latency tail. Every workload yields at
/// least 100 latency samples per run, so at least ten lie beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetLive,
    TapeReplay,
    ServeBurst,
    ServePaced,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet-live" => Some(Workload::FleetLive),
            "tape-replay" => Some(Workload::TapeReplay),
            "serve-burst" => Some(Workload::ServeBurst),
            "serve-paced" => Some(Workload::ServePaced),
            _ => None,
        }
    }
}

/// Command-line arguments of one run.
pub struct Args {
    workload: Workload,
    pub name: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some((
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                    value,
                ))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, with the first failures kept for
/// the error stream.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    wrong: bool,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// Records a failed oracle or property check: the run's outputs are
    /// not correct.
    pub fn wrong(&mut self, why: String) {
        self.wrong = true;
        self.note(why);
    }

    /// Records the error of a check, if it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.wrong(why);
        }
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < 5 {
            self.notes.push(why);
        }
    }
}

/// What a workload measured.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(tally: Tally, setup_s: f64) -> Self {
        Report {
            tally,
            metrics: vec![Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            }],
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// End-to-end metrics of a campaign workload from its timed rounds
    /// `(steps, seconds)`: a campaign's inputs are handed over when it
    /// starts and its alarms and verdicts become visible when its report
    /// returns, so both latencies are the campaign's wall time.
    pub fn campaign(&mut self, rounds: &[(f64, f64)]) {
        let rates: Vec<f64> = rounds.iter().map(|(steps, secs)| steps / secs).collect();
        let millis: Vec<f64> = rounds.iter().map(|(_, secs)| secs * 1e3).collect();
        self.metric("steps_per_s", util::median(&rates), "steps/s");
        self.metric("alarm_latency_p50_ms", util::median(&millis), "ms");
        self.metric(
            "alarm_latency_tail_ms",
            util::percentile(&millis, TAIL_PERCENTILE),
            "ms",
        );
        self.metric("verdict_latency_p50_ms", util::median(&millis), "ms");
    }
}

/// Scratch directory of one run inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = match args.workload {
        Workload::FleetLive => fleet::run_live(args, work)?,
        Workload::TapeReplay => fleet::run_replay(args, work)?,
        Workload::ServeBurst => serve::run_burst(args, work)?,
        Workload::ServePaced => serve::run_paced(args, work)?,
    };
    if args.trace {
        // The traced run prints the per-layer ledger alone; per-layer
        // names are `layer.metric`, end-to-end names have no dot.
        report.metrics.retain(|m| m.name.contains('.'));
    } else {
        report.metric("peak_rss_mib", util::peak_rss_mib()?, "MiB");
    }
    Ok(report)
}

fn json(report: &Report) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        !report.tally.wrong, report.tally.attempted, report.tally.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: temspc-perfbench --workload <fleet-live|tape-replay|\
                 serve-burst|serve-paced> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work =
        WorkDir(Path::new(".bench_work").join(format!("{}-{}", args.name, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("error: {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &work.0).and_then(|report| Ok((json(&report)?, report)));
    match outcome {
        Ok((line, report)) => {
            for note in &report.tally.notes {
                eprintln!("failed: {note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
