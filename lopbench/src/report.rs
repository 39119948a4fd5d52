//! Summary statistics and the result line the benchmark prints.

/// Median with linear interpolation; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in [0, 1] of an ascending, non-empty sample.
fn rank(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Nearest-rank percentile `p` in [0, 1]; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        rank(&v, p)
    }
}

/// The tail a sample supports: the highest of p99.9 / p99 / p90 that has at
/// least ten samples beyond it. A sample too small for even p90 reports its
/// maximum, labelled as such. Returns `(label, value, samples beyond)`.
pub fn tail(values: &[f64]) -> (&'static str, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return ("max", 0.0, 0);
    }
    let n = v.len();
    for (label, per_mille) in [("p99.9", 999), ("p99", 990), ("p90", 900)] {
        // Nearest rank, in integers so that e.g. p90 of 100 samples has
        // exactly 10 beyond it.
        let rank = (per_mille * n).div_ceil(1000).max(1);
        let beyond = n - rank;
        if beyond >= 10 {
            return (label, v[rank - 1], beyond);
        }
    }
    ("max", v[v.len() - 1], 0)
}

/// Mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never exercised).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation measured and checked.
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (and no op failed).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Free-text lines for the readable report (tail percentile used,
    /// check failures, digests, layers a workload does not exercise).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check.
    pub fn fail_check(&mut self, line: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", line.into()));
    }

    /// The readable report, on stderr so stdout ends with the JSON line.
    pub fn print_readable(&self) {
        eprintln!("== lopbench {} ==", self.workload);
        let frac = ratio(self.failed as f64, self.attempted as f64);
        eprintln!("  {:<34} {:>14}  ops", "attempted", self.attempted);
        eprintln!("  {:<34} {:>14.6}  fraction", "failed_frac", frac);
        for m in &self.metrics {
            eprintln!("  {:<34} {:>14.6}  {}", m.name, m.value, m.unit);
        }
        for line in &self.notes {
            eprintln!("  note: {line}");
        }
    }

    /// The one-line JSON result (the last line of stdout).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&small), ("max", 50.0, 0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), ("p90", 90.0, 10));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), ("p99", 1980.0, 20));
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut o = Outcome::new("x");
        o.attempted = 3;
        o.push("latency_p50_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
