//! Metrics, quantiles and the printed result.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value summarises.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `values` within each of `k` equal sub-windows of
/// `[0, span)`, by the time in `times`; empty sub-windows are skipped.
pub fn window_medians(times: &[f64], values: &[f64], span: f64, k: usize) -> Vec<f64> {
    let mut windows = vec![Vec::new(); k];
    for (&t, &v) in times.iter().zip(values) {
        if (0.0..span).contains(&t) {
            windows[((t / span * k as f64) as usize).min(k - 1)].push(v);
        }
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect()
}

/// Events per second within each of `k` equal sub-windows of `[0, span)`,
/// by the event times in `times`.
pub fn window_rates(times: &[f64], span: f64, k: usize) -> Vec<f64> {
    let mut counts = vec![0u64; k];
    for &t in times {
        if (0.0..span).contains(&t) {
            counts[((t / span * k as f64) as usize).min(k - 1)] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 * k as f64 / span).collect()
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values have no JSON form and become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `[v, ...]` as JSON numbers.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// `{"name": {"value": v, "unit": u}, ...}`, optionally with sample counts.
pub fn metrics_object(metrics: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics, false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn window_medians_split_by_time() {
        let times = [0.1, 0.2, 0.3, 1.1, 1.2, 1.3, 5.0];
        let values = [1.0, 9.0, 2.0, 5.0, 4.0, 6.0, 100.0];
        assert_eq!(window_medians(&times, &values, 2.0, 2), vec![2.0, 5.0]);
    }

    #[test]
    fn window_rates_count_per_second() {
        let times = [0.1, 0.2, 0.3, 1.5, 2.5, 4.0];
        assert_eq!(window_rates(&times, 2.0, 2), vec![3.0, 1.0]);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 1.25, "s", 3)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}"#
        );
        assert_eq!(json_str("a\"b\n"), r#""a\"b\u000a""#);
    }
}
