//! Collecting metrics and printing them: human-readable lines first, then
//! the one-line JSON result the benchmark contract asks for.

/// One run's output.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines, printed before the JSON line.
    pub notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (questions, admin requests, malformed lines).
    pub attempted: u64,
    /// Attempted operations that failed: decision errors, contained panics,
    /// `busy` replies, transport errors, wrong answers to malformed lines.
    pub failed: u64,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a metric.  Non-finite values (a ratio over an empty base)
    /// are recorded as 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The human-readable metric table.
    pub fn table(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, value, unit)| format!("  {name:<40} {value:>16.6} {unit}"))
            .collect()
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for line in self.table() {
            println!("{line}");
        }
        println!("{}", self.json());
    }
}

/// Records `latency_ms.p50` and `latency_ms.p90`, and notes the p99 with
/// the sample count.  The p99 is printed but not a metric: on a shared
/// 2-vCPU machine its run-to-run spread (about 40% IQR/median for serve
/// round trips) is wider than any bound the benchmark may set.
pub fn latency_metrics(report: &mut Report, samples_ms: &mut [f64]) {
    report.metric("latency_ms.p50", median(samples_ms), "ms");
    report.metric("latency_ms.p90", quantile(samples_ms, 0.9), "ms");
    report.note(format!(
        "latency_ms.p99 = {} ms over {} samples",
        quantile(samples_ms, 0.99),
        samples_ms.len()
    ));
}

/// Nearest-rank quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 over an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
