//! `cimloop-analyze`: a determinism & panic-policy static-analysis pass
//! over the CiMLoop workspace.
//!
//! The workspace's load-bearing contract is that results are
//! byte-identical across thread counts, cache capacities, shards, and
//! serve-vs-batch. That contract is enforced dynamically by goldens and
//! proptests — after a violation already exists. This crate enforces it
//! lexically at CI time: a hand-rolled scanner ([`lexer`]) blanks
//! comments and literals, and a small rule set ([`rules`]) flags the
//! hazard patterns that have historically broken reproducibility in
//! Timeloop/Accelergy-class tools: unordered hash iteration feeding
//! reports (D001), wall-clock reads in result paths (D002), unordered
//! float reduction under threads (D003), toolchain-dependent hashers
//! behind identities (D004), panics in the serve/evaluator path (P001),
//! and computation under a held lock (L001).
//!
//! Output is sorted by (file, line, rule) and byte-deterministic under
//! input-order shuffling; findings can be suppressed with
//! `cimloop-analyze` allow pragmas — `allow(RULE, reason = "...")` after
//! the tool name and a colon in a comment — which are themselves audited
//! (A001/A002). See `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{explain, ALLOWABLE_RULES, ALL_RULES};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (e.g. `D001`).
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched and why it matters.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

/// One suppressed match: a finding a reasoned allow pragma covers.
/// Recorded in reports (and the committed baseline) as an audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowed {
    /// Rule ID that would have fired.
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number of the suppressed match.
    pub line: usize,
    /// The pragma's reason.
    pub reason: String,
}

/// A full analysis report over a set of files.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Suppressed matches, sorted by (file, line, rule).
    pub allowed: Vec<Allowed>,
}

/// Analyzes one file's source text under its workspace-relative path
/// (the path scopes several rules).
pub fn analyze_source(rel_path: &str, text: &str) -> (Vec<Finding>, Vec<Allowed>) {
    let lines = lexer::scan(text);
    rules::analyze_lines(rel_path, &lines)
}

/// Analyzes a set of `(relative path, contents)` pairs. Input order is
/// irrelevant: files are sorted internally, so the report is
/// byte-deterministic under shuffling.
pub fn analyze_files(files: &[(String, String)]) -> Report {
    let mut order: Vec<usize> = (0..files.len()).collect();
    order.sort_by(|&a, &b| files[a].0.cmp(&files[b].0));
    let mut report = Report::default();
    for idx in order {
        let (rel, text) = &files[idx];
        let (f, a) = analyze_source(rel, text);
        report.findings.extend(f);
        report.allowed.extend(a);
    }
    report
        .findings
        .sort_by(|x, y| (&x.file, x.line, &x.rule).cmp(&(&y.file, y.line, &y.rule)));
    report
        .allowed
        .sort_by(|x, y| (&x.file, x.line, &x.rule).cmp(&(&y.file, y.line, &y.rule)));
    report
}

/// Collects the workspace's first-party Rust sources under `root`: the
/// facade `src/` plus every `crates/*/src/` tree. `vendor/`, `target/`,
/// and test/fixture directories are excluded by construction.
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    walk(&root.join("src"), "src", &mut out)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.path().is_dir() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        for name in names {
            let rel = format!("crates/{name}/src");
            walk(&crates_dir.join(&name).join("src"), &rel, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(dir: &Path, rel_prefix: &str, out: &mut Vec<(String, String)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<(String, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        entries.push((
            entry.file_name().to_string_lossy().into_owned(),
            entry.path(),
        ));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, path) in entries {
        let rel = format!("{rel_prefix}/{name}");
        if path.is_dir() {
            walk(&path, &rel, out)?;
        } else if name.ends_with(".rs") {
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Collects and analyzes the workspace rooted at `root`.
pub fn analyze_root(root: &Path) -> io::Result<Report> {
    Ok(analyze_files(&collect_files(root)?))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// Renders the report as deterministic JSON: one entry object per
    /// line, sections sorted, stable byte-for-byte across runs. The
    /// committed baseline is exactly this rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"cimloop-analyze/v1\",\n  \"findings\": [\n");
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\"}}",
                    json_escape(&f.rule),
                    json_escape(&f.file),
                    f.line,
                    json_escape(&f.message),
                    json_escape(&f.hint)
                )
            })
            .collect();
        out.push_str(&findings.join(",\n"));
        if !findings.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n  \"allowed\": [\n");
        let allowed: Vec<String> = self
            .allowed
            .iter()
            .map(|a| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                    json_escape(&a.rule),
                    json_escape(&a.file),
                    a.line,
                    json_escape(&a.reason)
                )
            })
            .collect();
        out.push_str(&allowed.join(",\n"));
        if !allowed.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as human-readable text, one finding per
    /// paragraph, same (file, line, rule) order as the JSON.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} {}:{}  {}\n      hint: {}\n",
                f.rule, f.file, f.line, f.message, f.hint
            ));
        }
        for a in &self.allowed {
            out.push_str(&format!(
                "allowed {} {}:{}  ({})\n",
                a.rule, a.file, a.line, a.reason
            ));
        }
        out.push_str(&format!(
            "{} finding(s), {} allowed\n",
            self.findings.len(),
            self.allowed.len()
        ));
        out
    }
}

/// Difference between a current report and a committed baseline,
/// compared entry-by-entry on the JSON entry lines.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Entries produced now but absent from the baseline.
    pub new: Vec<String>,
    /// Baseline entries no longer produced (stale — regenerate).
    pub stale: Vec<String>,
}

impl BaselineDiff {
    /// True when current output and baseline agree exactly.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

fn entry_lines(json: &str) -> BTreeSet<String> {
    json.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"rule\""))
        .map(|l| l.trim_end_matches(',').to_owned())
        .collect()
}

/// Compares a current JSON report against a baseline JSON report.
pub fn baseline_diff(current_json: &str, baseline_json: &str) -> BaselineDiff {
    let current = entry_lines(current_json);
    let baseline = entry_lines(baseline_json);
    BaselineDiff {
        new: current.difference(&baseline).cloned().collect(),
        stale: baseline.difference(&current).cloned().collect(),
    }
}

/// Walks up from the current directory to the nearest `Cargo.toml`
/// declaring a `[workspace]`; falls back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

const USAGE: &str = "\
cimloop-analyze: determinism & panic-policy static analysis

USAGE:
  cimloop-analyze [ROOT] [--format text|json] [--out FILE]
                  [--baseline FILE] [--write-baseline FILE]
  cimloop-analyze --explain RULE

OPTIONS:
  ROOT                   workspace root (default: nearest [workspace] Cargo.toml)
  --format text|json     report format (default: text)
  --out FILE             write the report to FILE instead of stdout
  --baseline FILE        compare against a committed baseline; exit 1 on
                         any new or stale entry
  --write-baseline FILE  write the current JSON report as the new baseline
  --explain RULE         print the contract a rule guards (D001, D002,
                         D003, D004, P001, L001, A001, A002)

EXIT CODES:
  0  no findings (or report matches the baseline exactly)
  1  findings present, or baseline mismatch
  2  usage error
";

/// Runs the analyzer CLI. Shared by the standalone `cimloop-analyze`
/// binary and the `cimloop analyze` subcommand; returns the exit code.
pub fn run_cli(args: &[String]) -> u8 {
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_owned();
    let mut out_file: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut i = 0usize;
    while i < args.len() {
        let arg = args[i].as_str();
        let take_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match arg {
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            "--explain" => {
                let Some(rule) = take_value(&mut i) else {
                    eprintln!("--explain requires a rule ID\n\n{USAGE}");
                    return 2;
                };
                match explain(&rule) {
                    Some(text) => {
                        println!("{text}");
                        return 0;
                    }
                    None => {
                        eprintln!("unknown rule `{rule}` (known: {})", ALL_RULES.join(", "));
                        return 2;
                    }
                }
            }
            "--format" => {
                let Some(v) = take_value(&mut i) else {
                    eprintln!("--format requires a value\n\n{USAGE}");
                    return 2;
                };
                if v != "text" && v != "json" {
                    eprintln!("--format must be `text` or `json`, got `{v}`");
                    return 2;
                }
                format = v;
            }
            "--out" => {
                let Some(v) = take_value(&mut i) else {
                    eprintln!("--out requires a path\n\n{USAGE}");
                    return 2;
                };
                out_file = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let Some(v) = take_value(&mut i) else {
                    eprintln!("--baseline requires a path\n\n{USAGE}");
                    return 2;
                };
                baseline = Some(PathBuf::from(v));
            }
            "--write-baseline" => {
                let Some(v) = take_value(&mut i) else {
                    eprintln!("--write-baseline requires a path\n\n{USAGE}");
                    return 2;
                };
                write_baseline = Some(PathBuf::from(v));
            }
            _ if arg.starts_with('-') => {
                eprintln!("unknown option `{arg}`\n\n{USAGE}");
                return 2;
            }
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => {
                eprintln!("unexpected argument `{arg}`\n\n{USAGE}");
                return 2;
            }
        }
        i += 1;
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let report = match analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to scan {}: {e}", root.display());
            return 2;
        }
    };
    let json = report.to_json();

    if let Some(path) = write_baseline {
        if let Err(e) = fs::write(&path, &json) {
            eprintln!("failed to write baseline {}: {e}", path.display());
            return 2;
        }
        println!(
            "wrote baseline {} ({} finding(s), {} allowed)",
            path.display(),
            report.findings.len(),
            report.allowed.len()
        );
        return 0;
    }

    let rendered = if format == "json" {
        json.clone()
    } else {
        report.to_text()
    };
    match &out_file {
        Some(path) => {
            if let Err(e) = fs::write(path, &rendered) {
                eprintln!("failed to write {}: {e}", path.display());
                return 2;
            }
            println!(
                "wrote {} ({} finding(s), {} allowed)",
                path.display(),
                report.findings.len(),
                report.allowed.len()
            );
        }
        None => print!("{rendered}"),
    }

    if let Some(path) = baseline {
        let baseline_text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read baseline {}: {e}", path.display());
                return 2;
            }
        };
        let diff = baseline_diff(&json, &baseline_text);
        if diff.is_clean() {
            println!("baseline {}: OK", path.display());
            return 0;
        }
        for entry in &diff.new {
            eprintln!("NEW (not in baseline): {entry}");
        }
        for entry in &diff.stale {
            eprintln!("STALE (in baseline, no longer produced): {entry}");
        }
        eprintln!(
            "baseline {} out of date: {} new, {} stale — fix the findings or regenerate with --write-baseline",
            path.display(),
            diff.new.len(),
            diff.stale.len()
        );
        return 1;
    }

    u8::from(!report.findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let report = Report {
            findings: vec![Finding {
                rule: "D001".into(),
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "quote \" and backslash \\".into(),
                hint: "h".into(),
            }],
            allowed: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn baseline_diff_classifies_new_and_stale() {
        let a = "{\n  \"findings\": [\n    {\"rule\": \"D001\", \"file\": \"a\", \"line\": 1, \"message\": \"m\", \"hint\": \"h\"}\n  ],\n  \"allowed\": [\n  ]\n}\n";
        let b = "{\n  \"findings\": [\n    {\"rule\": \"D002\", \"file\": \"b\", \"line\": 2, \"message\": \"m\", \"hint\": \"h\"}\n  ],\n  \"allowed\": [\n  ]\n}\n";
        let diff = baseline_diff(a, b);
        assert_eq!(diff.new.len(), 1);
        assert_eq!(diff.stale.len(), 1);
        assert!(baseline_diff(a, a).is_clean());
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in ALL_RULES {
            assert!(explain(rule).is_some(), "missing explanation for {rule}");
        }
        assert!(explain("Z999").is_none());
    }
}
