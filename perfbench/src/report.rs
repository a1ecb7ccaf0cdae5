//! Summary statistics and the result line.

/// Median of `v` (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The highest percentile of `v` that still has at least ten samples
/// beyond it, as `(percentile, value)`. With ten samples or fewer the
/// maximum is the only tail there is and is returned as p100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (100.0, 0.0),
        n if n <= 10 => (100.0, s[n - 1]),
        n => {
            // Index n-11 leaves exactly ten samples strictly above it.
            let idx = n - 11;
            (100.0 * (idx + 1) as f64 / n as f64, s[idx])
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark process reports.
#[derive(Default)]
pub struct Report {
    /// Statements attempted (every phase of the run).
    pub attempted: u64,
    /// Statements that errored, were rejected, or failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end measurements of one run.
pub struct EndToEnd<'a> {
    /// Seconds of each set-up.
    pub setup_s: &'a [f64],
    /// Statement time of each job, ms.
    pub job_ms: &'a [f64],
    pub stmt_per_s: f64,
    /// Bytes one job moves between workers, MB.
    pub shuffle_mb: f64,
    /// Read and write latencies, ms.
    pub reads: &'a [f64],
    pub writes: &'a [f64],
}

pub fn end_to_end(r: &mut Report, e: EndToEnd<'_>) {
    let (pct, tail_ms) = tail(e.reads);
    r.note(format!(
        "read_tail_ms is p{pct:.1} of {} reads; write_p50_ms over {} writes; job_s over {} jobs; setup_s median of {}",
        e.reads.len(),
        e.writes.len(),
        e.job_ms.len(),
        e.setup_s.len()
    ));
    r.metric("setup_s", median(e.setup_s), "s");
    r.metric("job_s", median(e.job_ms) / 1e3, "s");
    r.metric("stmt_per_s", e.stmt_per_s, "1/s");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    r.metric("shuffle_mb", e.shuffle_mb, "MB");
    r.metric("read_p50_ms", median(e.reads), "ms");
    r.metric("read_tail_ms", tail_ms, "ms");
    r.metric("write_p50_ms", median(e.writes), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
