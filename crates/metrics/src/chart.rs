//! Terminal bar charts for experiment output.
//!
//! The paper's figures are bar charts; a horizontal ASCII rendering makes
//! the regenerated series legible straight from `refdist exp` output.

use std::fmt::Write as _;

/// A horizontal bar chart with labelled rows.
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    rows: Vec<(String, f64)>,
    /// Maximum bar width in characters.
    width: usize,
    /// Fixed value scale; `None` auto-scales to the maximum value.
    max_value: Option<f64>,
}

impl BarChart {
    /// New chart with a title.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            rows: Vec::new(),
            width: 40,
            max_value: None,
        }
    }

    /// Set the maximum bar width in characters (default 40).
    pub fn width(mut self, chars: usize) -> Self {
        self.width = chars.max(1);
        self
    }

    /// Pin the value that corresponds to a full-width bar (e.g. `1.0` for
    /// normalized JCTs so different charts are comparable).
    pub fn scale_to(mut self, max_value: f64) -> Self {
        self.max_value = Some(max_value);
        self
    }

    /// Append a row. Negative values are clamped to zero.
    pub fn row(&mut self, label: impl Into<String>, value: f64) -> &mut Self {
        self.rows.push((label.into(), value.max(0.0)));
        self
    }

    /// Render the chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        if self.rows.is_empty() {
            return out;
        }
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let max = self
            .max_value
            .unwrap_or_else(|| self.rows.iter().map(|(_, v)| *v).fold(0.0, f64::max))
            .max(f64::MIN_POSITIVE);
        for (label, value) in &self.rows {
            let frac = (value / max).clamp(0.0, 1.0);
            let filled = (frac * self.width as f64).round() as usize;
            let _ = writeln!(
                out,
                "{label:<label_w$} |{}{} {value:.2}",
                "█".repeat(filled),
                " ".repeat(self.width - filled),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scaled_bars() {
        let mut c = BarChart::new("test").width(10).scale_to(1.0);
        c.row("a", 1.0).row("bb", 0.5).row("c", 0.0);
        let out = c.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "test");
        assert!(lines[1].starts_with("a  |██████████"));
        assert!(lines[2].starts_with("bb |█████     "));
        assert!(lines[3].contains("| "));
        assert!(lines[3].ends_with("0.00"));
    }

    #[test]
    fn auto_scales_to_max() {
        let mut c = BarChart::new("").width(4);
        c.row("x", 2.0).row("y", 4.0);
        let out = c.render();
        assert!(out.contains("y |████"));
        assert!(out.contains("x |██  "));
    }

    #[test]
    fn clamps_overflow_and_negatives() {
        let mut c = BarChart::new("t").width(4).scale_to(1.0);
        c.row("over", 2.0).row("neg", -1.0);
        let out = c.render();
        assert!(out.contains("over |████ 2.00"));
        assert!(out.contains("neg  |     0.00"));
    }

    #[test]
    fn empty_chart_is_title_only() {
        assert_eq!(BarChart::new("only").render(), "only\n");
    }
}
