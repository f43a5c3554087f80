//! Small helpers shared by the workloads: statistics, process
//! accounting from `/proc`, and the seeded input mixer.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks, as NumPy's default method computes it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// One SplitMix64 step: decorrelated per-input seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, salt)`.
pub fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// CPU time (user + system) this process has used so far, in seconds,
/// from `/proc/self/stat` at clock-tick resolution (100 Hz on Linux).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| "malformed /proc/self/stat".to_owned())?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat times".to_owned())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Runs `setup` `reps` times and returns the median wall time in
/// seconds with the last repetition's product. Set-up is repeated so
/// `setup_s` is a median, not one noisy sample.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

/// Rounds every campaign run times, at the least: enough that the
/// latency tail percentile has ten rounds beyond it.
pub const MIN_ROUNDS: usize = 100;

/// Timed rounds of a campaign workload: `(work, seconds)` each.
pub type Rounds = Vec<(f64, f64)>;

/// Runs one warm-up round, then rounds until `seconds` have passed and
/// at least [`MIN_ROUNDS`] were timed. Each round times itself and
/// returns `(work, seconds)`.
pub fn timed_rounds(
    seconds: f64,
    mut round: impl FnMut() -> Result<(f64, f64), String>,
) -> Result<Rounds, String> {
    round()?;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        rounds.push(round()?);
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn unit_draws_are_in_range_and_seeded() {
        for salt in 0..100 {
            let u = unit(7, salt);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, unit(7, salt));
        }
        assert_ne!(unit(7, 1), unit(8, 1));
    }
}
