//! Sample statistics and the run report.
//!
//! A run collects named metrics in the order `BENCHMARK.json` lists
//! them. The report prints one human-readable line per metric (with
//! its sample count) and, as the last line of standard output, the
//! JSON result object the benchmark contract asks for.

use std::fmt::Write as _;

/// Nearest-rank quantile of an unsorted sample (`q` in `0..=1`).
/// Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail quantile that one burst of host noise cannot move far: each
/// source's samples (in time order) are cut into up to five consecutive
/// windows of at least a thousand samples overall, and the result is the
/// median over windows of each window's quantile.
pub fn windowed_quantile(sources: &[&[f64]], q: f64) -> f64 {
    let total: usize = sources.iter().map(|s| s.len()).sum();
    let k = (total / 1000).clamp(1, 5);
    let per_window: Vec<f64> = (0..k)
        .map(|w| {
            let mut v = Vec::new();
            for s in sources {
                let n = s.len();
                v.extend_from_slice(&s[n * w / k..n * (w + 1) / k]);
            }
            quantile(&v, q)
        })
        .collect();
    median(&per_window)
}

/// Mean of the middle half of an unsorted sample (0 for an empty one).
/// Like the median it ignores a few outliers, but where the sample
/// splits between two levels it moves with the share at each instead of
/// jumping from one level to the other.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (1 for a single reading).
    pub samples: usize,
    /// `false` marks a layer the workload does not exercise; its value
    /// is reported as 0.
    pub applies: bool,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    /// Metrics that go into the result line, in declaration order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable figures that are not part of the result
    /// line (unbounded figures such as p99 and failure fractions, the
    /// layer shares, validation notes).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Validation mismatches against the independent references.
    pub mismatches: u64,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            applies: true,
        });
    }

    /// A layer metric the workload does not exercise.
    pub fn not_applicable(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: 0.0,
            unit,
            samples: 0,
            applies: false,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A metric printed with its unit and sample count but kept out of
    /// the result line (it has no bound).
    pub fn print_only(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.note(format!(
            "metric {name:<18} {value:>12.4} {unit:<4} (n={samples})"
        ));
    }

    /// A run is correct when every output matched its reference and no
    /// operation failed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0
    }

    /// Prints the human-readable block followed by the JSON result line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            if m.applies {
                println!(
                    "{:<32} {:>14.4} {:<8} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            } else {
                println!(
                    "{:<32} {:>14} {:<8} (not on this workload's path)",
                    m.name, "n/a", m.unit
                );
            }
        }
        println!(
            "# attempted {} failed {} validation mismatches {}",
            self.attempted, self.failed, self.mismatches
        );
        println!("{}", self.result_json());
    }

    fn result_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn one_burst_does_not_move_the_windowed_tail() {
        let mut a: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        for x in &mut a[100..200] {
            *x = 1000.0;
        }
        assert_eq!(quantile(&a, 0.99), 1000.0);
        assert_eq!(windowed_quantile(&[&a], 0.99), 98.0);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 1.0, 3.0, 0.0]), 2.0);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 1.0, 2.0, 2.0, -9.0]), 1.5);
    }

    #[test]
    fn a_mismatch_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        assert!(r.correct());
        r.mismatches = 1;
        assert!(!r.correct());
        assert!(r.result_json().starts_with("{\"correct\": false"));
    }
}
