//! Figure / table data structures and text rendering.
//!
//! Every experiment in [`crate::experiments`] returns a [`Figure`]: a set of
//! labelled series over a common x-axis (usually the benchmarks, plus an
//! `AVG` column), mirroring the bar charts of the paper. Figures render to
//! aligned text tables (for the `reproduce` binary and EXPERIMENTS.md) and
//! serialize to JSON.

use crate::json::Value;
use std::fmt;

/// One labelled series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legends, e.g. "LOCO CC+VMS").
    pub label: String,
    /// One value per x-axis entry.
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            values,
        }
    }

    /// Arithmetic mean of the values (the paper's `AVG` bars).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// A reproduced figure (or table) of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier, e.g. "fig11a".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Unit of the y-axis (e.g. "cycles", "normalized runtime").
    pub y_label: String,
    /// X-axis labels (benchmarks, workloads, ...).
    pub x_labels: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, y_label: impl Into<String>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            y_label: y_label.into(),
            x_labels: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Appends a series.
    ///
    /// # Panics
    ///
    /// Panics if the series length does not match the x-axis.
    pub fn push_series(&mut self, series: Series) {
        assert_eq!(
            series.values.len(),
            self.x_labels.len(),
            "series '{}' length mismatch",
            series.label
        );
        self.series.push(series);
    }

    /// Appends an `AVG` column holding each series' mean.
    pub fn push_average_column(&mut self) {
        self.x_labels.push("AVG".to_string());
        for s in &mut self.series {
            let mean = s.mean();
            s.values.push(mean);
        }
    }

    /// The value of `series_label` in the `AVG` (or last) column.
    pub fn average_of(&self, series_label: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label == series_label)
            .and_then(|s| s.values.last().copied())
    }

    /// Renders the figure as an aligned text table.
    pub fn to_text_table(&self) -> String {
        let mut cols = vec![String::from("series")];
        cols.extend(self.x_labels.iter().cloned());
        let mut rows: Vec<Vec<String>> = vec![cols];
        for s in &self.series {
            let mut row = vec![s.label.clone()];
            row.extend(s.values.iter().map(|v| format!("{v:.3}")));
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = format!("# {} — {} [{}]\n", self.id, self.title, self.y_label);
        for (i, row) in rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = w))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
            if i == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
        }
        out
    }

    /// The figure as an in-tree JSON [`Value`] (for embedding into larger
    /// documents, e.g. the `reproduce` CLI's single-file campaign dump).
    pub fn to_json_value(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("label".into(), Value::String(s.label.clone())),
                    (
                        "values".into(),
                        Value::Array(s.values.iter().map(|&v| Value::Number(v)).collect()),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("id".into(), Value::String(self.id.clone())),
            ("title".into(), Value::String(self.title.clone())),
            ("y_label".into(), Value::String(self.y_label.clone())),
            (
                "x_labels".into(),
                Value::Array(
                    self.x_labels
                        .iter()
                        .map(|l| Value::String(l.clone()))
                        .collect(),
                ),
            ),
            ("series".into(), Value::Array(series)),
        ])
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("fig99", "sample", "normalized runtime");
        fig.x_labels = vec!["lu".into(), "radix".into()];
        fig.push_series(Series::new("Shared Cache", vec![1.0, 1.0]));
        fig.push_series(Series::new("LOCO", vec![0.8, 0.9]));
        fig
    }

    #[test]
    fn average_column_appends_means() {
        let mut fig = sample();
        fig.push_average_column();
        assert_eq!(fig.x_labels.last().unwrap(), "AVG");
        assert!((fig.average_of("LOCO").unwrap() - 0.85).abs() < 1e-12);
        assert!((fig.average_of("Shared Cache").unwrap() - 1.0).abs() < 1e-12);
        assert!(fig.average_of("missing").is_none());
    }

    #[test]
    fn text_table_contains_all_cells() {
        let fig = sample();
        let t = fig.to_text_table();
        assert!(t.contains("fig99"));
        assert!(t.contains("lu"));
        assert!(t.contains("radix"));
        assert!(t.contains("LOCO"));
        assert!(t.contains("0.800"));
    }

    /// Prints `fig` as pretty JSON and parses it back to the same value.
    fn assert_json_round_trips(fig: &Figure) {
        let value = fig.to_json_value();
        assert_eq!(crate::json::parse(&value.to_pretty()).unwrap(), value);
    }

    #[test]
    fn json_round_trips() {
        assert_json_round_trips(&sample());
    }

    #[test]
    fn json_round_trips_non_integral_values() {
        let mut fig = Figure::new("fig00", "precision", "ratio");
        fig.x_labels = vec!["a".into(), "b".into(), "c".into()];
        fig.push_series(Series::new("s", vec![1.0 / 3.0, 0.1, 123456.789]));
        assert_json_round_trips(&fig);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_length_panics() {
        let mut fig = sample();
        fig.push_series(Series::new("bad", vec![1.0]));
    }

    #[test]
    fn series_mean_handles_empty() {
        assert_eq!(Series::new("x", vec![]).mean(), 0.0);
        assert_eq!(Series::new("x", vec![2.0, 4.0]).mean(), 3.0);
    }
}
