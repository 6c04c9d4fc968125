//! Metric collection, summary statistics, and the run record.

use std::fmt::Write as _;
use std::path::Path;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Set (or overwrite) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Operations attempted and failed, plus the output checks that failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check. Empty means every check passed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a check: when `ok` is false the message is kept and the run
    /// is reported as incorrect.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }
}

/// Median of a sample (mean of the middle two for even sizes); `NaN` when
/// empty, which the final report refuses to print.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A sample taken while the hypervisor stole at most this share of the
/// machine's CPU time counts as calm whatever the run.
pub const CALM_STEAL: f64 = 0.02;

/// The steal share at or under which samples are kept: [`CALM_STEAL`],
/// raised to the lower quartile of the samples' steal shares when fewer
/// than a quarter of them are that calm.
pub fn calm_limit(steal: &[f64]) -> f64 {
    CALM_STEAL.max(percentile(steal, 25.0))
}

/// The median of each item's samples (of each type's synthesis times, of
/// each table's detection times, of the windows of a timed phase), each
/// sample given as `(value, steal share while it was taken)`. Only samples
/// at or under [`calm_limit`] of all the samples count; an item with none
/// that calm keeps all of its own. The host this runs on lends its cores
/// to other tenants in bursts of seconds to tens of seconds, and a sample
/// taken while the hypervisor held a core back times the host, not the
/// program.
pub fn calm_medians(samples: &[Vec<(f64, f64)>]) -> Vec<f64> {
    let steal: Vec<f64> = samples.iter().flatten().map(|s| s.1).collect();
    let limit = calm_limit(&steal);
    samples
        .iter()
        .map(|item| {
            let calm: Vec<f64> = item.iter().filter(|s| s.1 <= limit).map(|s| s.0).collect();
            if calm.is_empty() {
                median(&item.iter().map(|s| s.0).collect::<Vec<_>>())
            } else {
                median(&calm)
            }
        })
        .collect()
}

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One finished operation of a timed phase: when it ended (seconds since
/// the phase began), how many values it carried, and its latency in µs.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub end_s: f64,
    pub values: usize,
    pub latency_us: f64,
}

/// Index, throughput (values/s) and median latency (µs) of each whole
/// `width_s`-second window of a timed phase `span_s` seconds long, in time
/// order; windows with fewer than `min_ops` operations are left out. `done`
/// must be sorted by `end_s`.
pub fn windows(done: &[Done], width_s: f64, span_s: f64, min_ops: usize) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    let mut rest = done;
    let mut to = width_s;
    let mut index = 0;
    while to <= span_s * (1.0 + 1e-9) {
        let n = rest.partition_point(|d| d.end_s < to);
        let (window, tail) = rest.split_at(n);
        if n >= min_ops.max(1) {
            let values: usize = window.iter().map(|d| d.values).sum();
            let latency: Vec<f64> = window.iter().map(|d| d.latency_us).collect();
            out.push((index, values as f64 / width_s, median(&latency)));
        }
        rest = tail;
        to += width_s;
        index += 1;
    }
    out
}

/// Machine-wide CPU time so far as (all ticks, ticks stolen by the
/// hypervisor), from `/proc/stat`; zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio((after.1 - before.1) as f64, (after.0 - before.0) as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The revision of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The final result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn calm_medians_keep_the_calm_samples() {
        // Steal in a quarter of the samples or more: only those at or
        // under the run's lower quartile of steal count.
        let busy = vec![
            vec![(1.0, 0.05), (5.0, 0.3), (2.0, 0.1)],
            vec![(9.0, 0.4), (8.0, 0.3)],
        ];
        assert_eq!(calm_medians(&busy), vec![1.5, 8.5]);
        // A quiet run keeps every sample under the fixed limit.
        let quiet = vec![vec![(1.0, 0.0), (3.0, 0.02), (7.0, 0.2)]];
        assert_eq!(calm_medians(&quiet), vec![2.0]);
    }

    #[test]
    fn windows_split_by_end_time() {
        let done: Vec<Done> = [(0.1, 2, 10.0), (0.4, 4, 30.0), (0.6, 1, 5.0), (1.7, 8, 7.0)]
            .iter()
            .map(|&(end_s, values, latency_us)| Done {
                end_s,
                values,
                latency_us,
            })
            .collect();
        assert_eq!(
            windows(&done, 0.5, 2.0, 1),
            vec![(0, 12.0, 20.0), (1, 2.0, 5.0), (3, 16.0, 7.0)]
        );
        // Only whole windows inside the span, and only busy enough ones.
        assert_eq!(
            windows(&done, 0.5, 1.4, 1),
            vec![(0, 12.0, 20.0), (1, 2.0, 5.0)]
        );
        assert_eq!(windows(&done, 0.5, 2.0, 2), vec![(0, 12.0, 20.0)]);
        assert!(windows(&[], 0.5, 2.0, 1).is_empty());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25, "s");
        m.set("setup_s", 1.5, "s");
        let line = result_line(
            &Outcome {
                attempted: 3,
                ..Outcome::default()
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
