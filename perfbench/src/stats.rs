//! Summaries of timing samples and the result line.
//!
//! A percentile is only reported when at least [`TAIL_SAMPLES`] samples
//! lie beyond it: a p99 from fewer than 1000 samples would be one or two
//! outliers, not a tail.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The `q` percentile of `samples`, refused (naming `what`) when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond its rank.
pub fn quantile(what: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    let rank = (q * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank) < TAIL_SAMPLES {
        return Err(format!(
            "{what}: {} samples leave fewer than {TAIL_SAMPLES} beyond p{}",
            samples.len(),
            q * 100.0
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(percentile(&v, q))
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The result line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest decimal that round-trips, so every
        // measured digit survives.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let thin: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = quantile("acks", &thin, 0.99).unwrap_err();
        assert!(
            err.contains("999 samples leave fewer than 10 beyond p99"),
            "{err}"
        );
        assert_eq!(quantile("acks", &thin, 0.9).unwrap(), 900.0);
        let full: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile("acks", &full, 0.99).unwrap(), 990.0);
        assert!(quantile("acks", &full[..99], 0.9).is_err());
        assert!(quantile("acks", &full[..100], 0.9).is_ok());
        assert!(quantile("acks", &[], 0.5).is_err());
    }

    #[test]
    fn result_line_keeps_all_digits() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.012_345_678_9, "s");
        m.put("ok_ratio", 1.0, "ratio");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0123456789, \"unit\": \"s\"}, \
             \"ok_ratio\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
    }
}
