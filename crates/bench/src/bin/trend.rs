//! `trend`: cross-commit perf trend report assembled from `BENCH_*.json`
//! artifacts.
//!
//! Every perf job already writes a machine-readable `BENCH_*.json`; this
//! bin flattens the numeric leaves of each file into dotted-path metrics,
//! appends one labeled row per metric to a cumulative `TREND.csv`, and
//! regenerates `TREND.md` — a per-file table with one column per label
//! (newest last) so a regression shows up as a drifting row without
//! spelunking through artifact zips.
//!
//! ```text
//! trend --label $GITHUB_SHA --dir results results/BENCH_4.json ...
//! ```
//!
//! The CSV is the durable record (append-only, merged across runs when CI
//! restores a previous artifact); the markdown is derived from it on every
//! invocation. No JSON dependency: the files are read with
//! [`lopacity_bench::harness::parse_json`], the bench gates' reader.

use lopacity_bench::harness::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
trend - cross-commit bench trend report from BENCH_*.json artifacts

USAGE:
    trend [--label LABEL] [--dir DIR] [--keep N] FILE.json...

OPTIONS:
    --label LABEL  column label for this run, e.g. a commit SHA (default 'local')
    --dir DIR      output directory for TREND.csv / TREND.md (default 'results')
    --keep N       newest labels to show per table in TREND.md (default 8)
";

// ---------------------------------------------------------------------
// Flattening: numeric leaves become dotted-path metrics.
// ---------------------------------------------------------------------

/// Walks a JSON tree and emits `(dotted.path, value)` for every numeric or
/// boolean leaf. Array elements are indexed (`rows[2].scan_secs`); string
/// leaves are skipped — they name things, they don't trend.
fn flatten(value: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Bool(b) => out.push((prefix.to_string(), if *b { 1.0 } else { 0.0 })),
        Json::Obj(fields) => {
            for (key, child) in fields {
                let path =
                    if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                flatten(child, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, &format!("{prefix}[{i}]"), out);
            }
        }
        Json::Str(_) | Json::Null => {}
    }
}

// ---------------------------------------------------------------------
// The cumulative CSV and the derived markdown.
// ---------------------------------------------------------------------

/// One `label,file,metric,value` row of TREND.csv.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    label: String,
    file: String,
    metric: String,
    value: f64,
}

const CSV_HEADER: &str = "label,file,metric,value";

fn csv_field(text: &str) -> String {
    text.replace(',', ";")
}

fn render_csv(rows: &[Row]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in rows {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            csv_field(&row.label),
            csv_field(&row.file),
            csv_field(&row.metric),
            row.value
        );
    }
    out
}

fn parse_csv(text: &str) -> Vec<Row> {
    text.lines()
        .filter(|line| !line.is_empty() && *line != CSV_HEADER)
        .filter_map(|line| {
            let mut parts = line.splitn(4, ',');
            Some(Row {
                label: parts.next()?.to_string(),
                file: parts.next()?.to_string(),
                metric: parts.next()?.to_string(),
                value: parts.next()?.parse().ok()?,
            })
        })
        .collect()
}

fn format_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:.6}")
    }
}

/// Renders the per-file trend tables: one row per metric, one column per
/// label, labels in first-seen order with only the newest `keep` shown.
fn render_markdown(rows: &[Row], keep: usize) -> String {
    let mut labels: Vec<&str> = Vec::new();
    for row in rows {
        if !labels.contains(&row.label.as_str()) {
            labels.push(&row.label);
        }
    }
    let shown = &labels[labels.len().saturating_sub(keep.max(1))..];

    // file -> metric -> label -> value; BTreeMaps keep the report stable.
    let mut files: BTreeMap<&str, BTreeMap<&str, BTreeMap<&str, f64>>> = BTreeMap::new();
    for row in rows {
        files
            .entry(&row.file)
            .or_default()
            .entry(&row.metric)
            .or_default()
            .insert(&row.label, row.value);
    }

    let mut out = String::from("# Bench trend\n\nNumeric leaves of each BENCH_*.json, per label");
    let _ = writeln!(
        out,
        " (newest last; {} of {} labels shown).\n",
        shown.len(),
        labels.len()
    );
    for (file, metrics) in &files {
        let _ = writeln!(out, "## {file}\n");
        let _ = writeln!(out, "| metric | {} |", shown.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(shown.len()));
        for (metric, by_label) in metrics {
            let cells: Vec<String> = shown
                .iter()
                .map(|label| by_label.get(label).map(|v| format_value(*v)).unwrap_or_default())
                .collect();
            let _ = writeln!(out, "| {metric} | {} |", cells.join(" | "));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// CLI.
// ---------------------------------------------------------------------

struct Options {
    label: String,
    dir: PathBuf,
    keep: usize,
    files: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        label: "local".to_string(),
        dir: PathBuf::from("results"),
        keep: 8,
        files: Vec::new(),
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut take = || iter.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--label" => opts.label = take()?.to_string(),
            "--dir" => opts.dir = PathBuf::from(take()?),
            "--keep" => {
                opts.keep = take()?.parse().map_err(|_| "--keep: not a number".to_string())?
            }
            _ if arg.starts_with("--") => return Err(format!("unknown option {arg}")),
            _ => opts.files.push(PathBuf::from(arg)),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files (see --help)".to_string());
    }
    Ok(opts)
}

fn file_stem(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

fn run(opts: &Options) -> Result<(), String> {
    // New rows from this run's artifacts.
    let mut fresh = Vec::new();
    for path in &opts.files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let value = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut leaves = Vec::new();
        flatten(&value, "", &mut leaves);
        let file = file_stem(path);
        for (metric, value) in leaves {
            fresh.push(Row { label: opts.label.clone(), file: file.clone(), metric, value });
        }
    }

    // Merge with the cumulative CSV: previous labels stay, this label's
    // rows are replaced (re-running a commit must not duplicate columns).
    let csv_path = opts.dir.join("TREND.csv");
    let mut rows = match std::fs::read_to_string(&csv_path) {
        Ok(text) => parse_csv(&text),
        Err(_) => Vec::new(),
    };
    rows.retain(|row| row.label != opts.label);
    let fresh_count = fresh.len();
    rows.extend(fresh);

    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("mkdir {}: {e}", opts.dir.display()))?;
    std::fs::write(&csv_path, render_csv(&rows))
        .map_err(|e| format!("write {}: {e}", csv_path.display()))?;
    let md_path = opts.dir.join("TREND.md");
    std::fs::write(&md_path, render_markdown(&rows, opts.keep))
        .map_err(|e| format!("write {}: {e}", md_path.display()))?;
    println!(
        "trend: {} metrics for label {:?} from {} file(s); {} total rows -> {}",
        fresh_count,
        opts.label,
        opts.files.len(),
        rows.len(),
        md_path.display()
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = parse_args(&argv).and_then(|opts| run(&opts)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_style_json() {
        let text = r#"{
            "schema": "lopacity-bench5/v1",
            "scale": "smoke",
            "ok": true,
            "rows": [
                {"n": 10000, "scan_secs": 0.25, "backend": "sparse"},
                {"n": 10000, "scan_secs": 2.5e0, "backend": "dense"}
            ]
        }"#;
        let value = parse_json(text).unwrap();
        let mut leaves = Vec::new();
        flatten(&value, "", &mut leaves);
        assert_eq!(
            leaves,
            vec![
                ("ok".to_string(), 1.0),
                ("rows[0].n".to_string(), 10000.0),
                ("rows[0].scan_secs".to_string(), 0.25),
                ("rows[1].n".to_string(), 10000.0),
                ("rows[1].scan_secs".to_string(), 2.5),
            ]
        );
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let value = parse_json(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(value, Json::Str("a\"b\\c\ndA".to_string()));
    }

    #[test]
    fn csv_round_trips_and_merges_by_label() {
        let old = vec![
            Row { label: "aaa".into(), file: "B.json".into(), metric: "x".into(), value: 1.0 },
            Row { label: "bbb".into(), file: "B.json".into(), metric: "x".into(), value: 2.0 },
        ];
        let parsed = parse_csv(&render_csv(&old));
        assert_eq!(parsed, old);

        // Re-running label bbb replaces its rows instead of duplicating.
        let mut rows = parsed;
        rows.retain(|r| r.label != "bbb");
        rows.push(Row { label: "bbb".into(), file: "B.json".into(), metric: "x".into(), value: 3.0 });
        let by_bbb: Vec<f64> =
            rows.iter().filter(|r| r.label == "bbb").map(|r| r.value).collect();
        assert_eq!(by_bbb, vec![3.0]);
    }

    #[test]
    fn markdown_shows_newest_labels_per_file() {
        let rows: Vec<Row> = (0..4)
            .map(|i| Row {
                label: format!("c{i}"),
                file: "BENCH_4.json".into(),
                metric: "scan_secs".into(),
                value: i as f64,
            })
            .collect();
        let md = render_markdown(&rows, 2);
        assert!(md.contains("## BENCH_4.json"));
        assert!(md.contains("| metric | c2 | c3 |"), "{md}");
        assert!(!md.contains("c0 |"), "oldest labels dropped:\n{md}");
        assert!(md.contains("| scan_secs | 2 | 3 |"), "{md}");
    }

    #[test]
    fn missing_label_cells_render_empty() {
        let rows = vec![
            Row { label: "a".into(), file: "F".into(), metric: "m1".into(), value: 1.5 },
            Row { label: "b".into(), file: "F".into(), metric: "m2".into(), value: 2.0 },
        ];
        let md = render_markdown(&rows, 8);
        assert!(md.contains("| m1 | 1.500000 |  |"), "{md}");
        assert!(md.contains("| m2 |  | 2 |"), "{md}");
    }
}
