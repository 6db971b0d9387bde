//! Plain-text tables and JSONL result files.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Print an aligned plain-text table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate().take(ncol) {
            s.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * ncol));
    for row in rows {
        line(row);
    }
}

/// Append records as JSON lines under `dir/name.jsonl` (creating `dir`).
pub fn write_jsonl<T: Serialize>(dir: &Path, name: &str, records: &[T]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut f = std::fs::File::create(&path)?;
    for r in records {
        let line = serde_json::to_string(r).expect("serializable record");
        writeln!(f, "{line}")?;
    }
    eprintln!("[results written to {}]", path.display());
    Ok(())
}

/// Write `doc` as one line of JSON to `dir/file_name` (creating `dir`).
pub fn write_json<T: Serialize>(dir: &Path, file_name: &str, doc: &T) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    let mut s = serde_json::to_string(doc).expect("serializable document");
    s.push('\n');
    std::fs::write(&path, s)?;
    eprintln!("[results written to {}]", path.display());
    Ok(())
}

/// Format a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(75.02), "75.02");
        assert_eq!(fmt(0.12345), "0.1235");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }

    #[test]
    fn jsonl_roundtrip() {
        #[derive(Serialize)]
        struct R {
            a: u32,
        }
        let dir = std::env::temp_dir().join("qip_report_test");
        write_jsonl(&dir, "t", &[R { a: 1 }, R { a: 2 }]).unwrap();
        let content = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(content.lines().count(), 2);
    }

    #[test]
    fn table_does_not_panic_on_ragged_rows() {
        print_table("t", &["a", "b"], &[vec!["1".into()], vec!["1".into(), "2".into()]]);
    }
}
