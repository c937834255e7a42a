//! Percentiles, the tail sample rule and result reporting.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: below this it is one of a handful of outliers, not a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A latency sample in milliseconds.
#[derive(Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push_ns(&mut self, ns: u64) {
        self.ms.push(ns as f64 / 1e6);
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.ms)
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Nearest-rank `q`-quantile of the samples pushed since the first
    /// `from`, or `None` if there are none.
    pub fn quantile_since(&self, from: usize, q: f64) -> Option<f64> {
        let mut recent = self.ms.get(from..).filter(|r| !r.is_empty())?.to_vec();
        recent.sort_by(f64::total_cmp);
        Some(quantile(&recent, q))
    }

    /// Reports `<name>_p50_ms` and, where the tail rule allows it,
    /// `<name>_p95_ms`; prints them and the p99 with their sample counts.
    pub fn report(&mut self, name: &str, out: &mut Report) {
        if self.ms.is_empty() {
            println!("{name}: no completed ops");
            return;
        }
        self.ms.sort_by(f64::total_cmp);
        let n = self.ms.len();
        let p50 = quantile(&self.ms, 0.50);
        out.metric(&format!("{name}_p50_ms"), p50, "ms");
        let mut line = format!("{name}: n={n} p50={p50:.3} ms");
        for (q, label, gated) in [(0.95, "p95", true), (0.99, "p99", false)] {
            let tail = beyond(n, q);
            if tail < TAIL_SAMPLES {
                let _ = write!(
                    line,
                    "; {label} not reported ({tail} < {TAIL_SAMPLES} samples beyond it)"
                );
                continue;
            }
            let value = quantile(&self.ms, q);
            if gated {
                out.metric(&format!("{name}_{label}_ms"), value, "ms");
            }
            let _ = write!(line, " {label}={value:.3} ms ({tail} samples beyond)");
        }
        let under_1ms = self.ms.iter().filter(|&&v| v < 1.0).count() as f64 / n as f64;
        println!(
            "{line} max={:.3} ms under-1ms={:.1}%",
            self.ms[n - 1],
            under_1ms * 100.0
        );
    }
}

/// The benchmark's result: correctness, op counts and named metrics. Its
/// JSON form is the last line of standard output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness violation; the run then fails.
    pub fn violation(&mut self, what: impl std::fmt::Display) {
        println!("VIOLATION: {what}");
        self.correct = false;
    }

    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            // `{:?}` prints an f64 with every digit needed to round-trip it.
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Nanoseconds the calling thread has spent running on a CPU
/// (`/proc/thread-self/schedstat`); time the hypervisor gives to other
/// tenants is not included.
pub fn thread_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    stat.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("on-CPU time in /proc/thread-self/schedstat")
}

/// Machine-wide CPU time stolen by the hypervisor so far, in clock ticks
/// (the `steal` column of `/proc/stat`), and the total of all columns.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0), cpu.iter().sum())
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mib("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_tail_counts() {
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&sample, 0.5), 500.0);
        assert_eq!(quantile(&sample, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
