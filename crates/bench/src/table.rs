//! Minimal aligned-table printing for experiment output.

use std::fmt;

/// A printable experiment table, in the spirit of a paper table: a title,
/// a header row, and aligned data rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one data row; cell count should match the headers.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: fmt::Display,
    {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Appends a footnote printed below the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rendered table.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!(" {cell:<w$} |", w = w));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("\n  note: {note}\n"));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as one JSON object (hand-rolled: the workspace's serde
    /// is a no-op stand-in), embedded verbatim in `BENCH_*.json` so the
    /// machine-readable record carries every column, not just row counts.
    pub fn to_json(&self) -> String {
        let list = |cells: &[String]| {
            let quoted: Vec<String> = cells.iter().map(|c| json_str(c)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| list(r)).collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\"title\": {}, \"columns\": {}, \"rows\": [{}], \"notes\": [{}]}}",
            json_str(&self.title),
            list(&self.headers),
            rows.join(", "),
            notes.join(", "),
        )
    }
}

/// `s` as a JSON string literal, through the workspace's one JSON writer
/// (`str::escape_default` emits Rust's `\'` and `\u{..}` forms, which
/// JSON parsers reject).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    sfs_obs::json::write_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["n", "result"]);
        t.row(["4", "ok"]);
        t.row(["16", "also ok"]);
        t.note("a footnote");
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| n  | result  |"));
        assert!(s.contains("| 16 | also ok |"));
        assert!(s.contains("note: a footnote"));
    }

    #[test]
    fn json_embeds_every_column_and_escapes_quotes() {
        let mut t = Table::new("demo \"quoted\"", &["n", "bytes/det"]);
        t.row(["4", "1234"]);
        t.note("a note");
        let j = t.to_json();
        assert!(j.contains("\"title\": \"demo \\\"quoted\\\"\""), "{j}");
        assert!(j.contains("\"columns\": [\"n\", \"bytes/det\"]"), "{j}");
        assert!(j.contains("\"rows\": [[\"4\", \"1234\"]]"), "{j}");
        assert!(j.contains("\"notes\": [\"a note\"]"), "{j}");
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new("ragged", &["a"]);
        t.row(["1", "2", "3"]);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        let _ = t.render();
    }
}
