//! What a run reports: named metrics with their sample statistics, the
//! human-readable lines, and the final one-line JSON result.

use std::fmt::Write as _;

use crate::measure::{Summary, Tally};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name in `BENCHMARK.json` (and the JSON result).
    pub name: String,
    /// The workload-specific name printed beside it, when it differs.
    pub alias: Option<String>,
    pub unit: &'static str,
    pub value: f64,
    /// Sample statistics behind `value`; `None` for exact counts and
    /// single measurements.
    pub summary: Option<Summary>,
    /// For a per-layer metric: the end-to-end metric it should move.
    pub moves: Option<String>,
}

impl Metric {
    /// A metric from one measurement, a total or an exact count.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            alias: None,
            unit,
            value,
            summary: None,
            moves: None,
        }
    }

    /// A metric whose value is the median of `summary`.
    pub fn median(name: impl Into<String>, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            value: summary.median,
            summary: Some(summary),
            ..Metric::single(name, unit, summary.median)
        }
    }

    pub fn alias(mut self, alias: impl Into<String>) -> Metric {
        self.alias = Some(alias.into());
        self
    }

    pub fn moves(mut self, metric: impl Into<String>) -> Metric {
        self.moves = Some(metric.into());
        self
    }

    /// The human-readable line: name, value, unit, sample count and, for
    /// a per-layer metric, the end-to-end metric it should move.
    pub fn line(&self) -> String {
        let label = match &self.alias {
            Some(alias) => format!("{alias} [{}]", self.name),
            None => self.name.clone(),
        };
        let stats = match self.summary {
            Some(s) => format!("median of n={} (q1 {:.6}, q3 {:.6})", s.n, s.q1, s.q3),
            None => "n=1".to_owned(),
        };
        let moves = self
            .moves
            .as_ref()
            .map_or(String::new(), |m| format!("  -> {m}"));
        format!(
            "  {label:<58} {:>16.6} {:<6} {stats}{moves}",
            self.value, self.unit
        )
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further lines printed for people only (workload-specific names,
    /// tails, failure fraction, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is printed.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(message) = &result {
            eprintln!("check failed: {message}");
        }
        self.tally.record(result.is_ok());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final line: `correct`, `attempted`, `failed` and `metrics`. A
    /// non-finite value cannot be written as JSON; it is written as
    /// `null` and the run is marked incorrect.
    pub fn json(&self) -> String {
        let mut correct = self.tally.correct();
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                correct = false;
                "null".to_owned()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted, self.tally.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metrics.push(Metric::single("setup_s", "s", 0.8125));
        o.metrics.push(Metric::single("peak_rss_mb", "MB", 12.0));
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.0, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("mismatch".to_owned()));
        assert!(o
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metrics.push(Metric::single("x", "ms", f64::NAN));
        assert!(o.json().contains("\"correct\": false"));
        assert!(o.json().contains("\"value\": null"));
    }
}
