//! Unified report formatter for the bench harnesses.
//!
//! Every bench binary used to hand-roll its own `println!` table and CSV
//! string; this module gives them one table builder with two renderers —
//! aligned text for the terminal and CSV for downstream plotting — so the
//! numbers in both are guaranteed to come from the same cells.

use crate::json::{Json, JsonObj};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

#[derive(Clone, Debug)]
struct Column {
    header: String,
    align: Align,
}

/// A titled table plus free-form notes.
#[derive(Clone, Debug, Default)]
pub struct Report {
    title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            ..Default::default()
        }
    }

    /// Add a column; first column is left-aligned by convention, the rest
    /// right-aligned unless specified.
    pub fn column(mut self, header: impl Into<String>, align: Align) -> Self {
        self.columns.push(Column {
            header: header.into(),
            align,
        });
        self
    }

    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.columns.len(), "row arity != column count");
        self.rows.push(cells);
    }

    /// A blank separator row in the text rendering (skipped in CSV).
    pub fn gap(&mut self) {
        self.rows.push(Vec::new());
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Aligned, human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.header.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let mut header = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                header.push_str("  ");
            }
            let _ = match c.align {
                Align::Left => write!(header, "{:<width$}", c.header, width = widths[i]),
                Align::Right => write!(header, "{:>width$}", c.header, width = widths[i]),
            };
        }
        let _ = writeln!(out, "{}", header.trim_end());
        for row in &self.rows {
            if row.is_empty() {
                out.push('\n');
                continue;
            }
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = match self.columns[i].align {
                    Align::Left => write!(line, "{:<width$}", cell, width = widths[i]),
                    Align::Right => write!(line, "{:>width$}", cell, width = widths[i]),
                };
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        out
    }

    /// CSV rendering: header row + data rows (title and gaps omitted).
    /// Notes trail the data as `# `-prefixed comment lines, so counters
    /// surfaced as notes (e.g. trace-ring drop counts) survive into the
    /// plotted artifact without disturbing the column grid.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| csv_cell(&c.header))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            if row.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(|c| csv_cell(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        out
    }
}

fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Standard rendering of one exit-cause histogram row: count, min, p50,
/// p99, p99.9, max, mean — shared by `ablation_exits` and the `qStats`
/// pretty-printer.
pub fn hist_row(h: &crate::hist::CycleHist) -> [String; 7] {
    [
        h.count().to_string(),
        h.min().to_string(),
        h.p50().to_string(),
        h.p99().to_string(),
        h.p999().to_string(),
        h.max().to_string(),
        h.mean().to_string(),
    ]
}

/// The same histogram summary as [`hist_row`], as a JSON object — shared
/// by the bench documents so both renderings come from the same accessors.
pub fn hist_json(h: &crate::hist::CycleHist) -> JsonObj {
    let keys = ["count", "min", "p50", "p99", "p999", "max", "mean"];
    let mut o = JsonObj::new();
    for (k, v) in keys.iter().zip(hist_row(h)) {
        o.set(k, Json::Num(v));
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_csv_share_cells() {
        let mut r = Report::new("t")
            .column("platform", Align::Left)
            .column("mbps", Align::Right);
        r.row(["lvmm", "100.0"]);
        r.gap();
        r.row(["hosted", "27.5"]);
        r.note("note line");
        let text = r.to_text();
        assert!(text.contains("lvmm"));
        assert!(text.contains("note line"));
        let csv = r.to_csv();
        assert_eq!(csv, "platform,mbps\nlvmm,100.0\nhosted,27.5\n# note line\n");
    }

    #[test]
    fn hist_renderings_share_accessors() {
        let mut h = crate::hist::CycleHist::default();
        h.record(10);
        h.record(30);
        let row = hist_row(&h);
        let json = hist_json(&h).finish();
        assert_eq!(row[0], "2");
        for cell in &row {
            assert!(json.contains(cell.as_str()), "{json} missing {cell}");
        }
    }

    #[test]
    fn csv_escapes_specials() {
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_cell("plain"), "plain");
    }
}
