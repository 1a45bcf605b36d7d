//! Sample statistics and the process readers behind `cpu_s` and
//! `peak_rss_mb`.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p * n)`.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

/// Why a percentile could not be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples beyond the requested rank.
    TooFewBeyond {
        /// Samples available.
        samples: usize,
        /// Samples beyond the rank.
        beyond: usize,
        /// Smallest sample count that would satisfy the rule.
        needed: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::TooFewBeyond {
                samples,
                beyond,
                needed,
            } => write!(
                f,
                "{samples} samples leave {beyond} beyond the rank; {needed} are needed for {MIN_BEYOND}"
            ),
        }
    }
}

/// 1-based nearest rank of percentile `p` (in `0..=1`) among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps 0.9 * 100 at rank 90 despite binary rounding.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The smallest sample count for which percentile `p` has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Nearest-rank percentile `p` of `samples`, refused when the tail is too
/// thin to mean anything (see [`MIN_BEYOND`]).
///
/// # Errors
///
/// [`PercentileError::Empty`] without samples,
/// [`PercentileError::TooFewBeyond`] when the rule is not met.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let k = rank(p, n);
    let beyond = n - k;
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond {
            samples: n,
            beyond,
            needed: samples_needed(p),
        });
    }
    Ok(Percentile {
        value: sorted[k - 1],
        samples: n,
        beyond,
    })
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this workspace builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of every thread of a process, parsed from the
/// text of `/proc/<pid>/stat`. The command name (field 2) is parenthesised
/// and may contain spaces, so fields are counted after its closing `)`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state(3) ppid(4) ... utime(14) stime(15).
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set size in MiB, parsed from the `VmHWM` line of the
/// text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value as f64 / 1024.0),
        _ => None,
    }
}

/// CPU seconds this process has used so far (all threads).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_s)
        .unwrap_or(f64::NAN)
}

/// This process's peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_peak_rss_mb)
        .unwrap_or(f64::NAN)
}
