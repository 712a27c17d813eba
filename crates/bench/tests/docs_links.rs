//! The docs tree stays navigable: every relative markdown link in
//! `docs/*.md` and `README.md` must resolve to a file that exists
//! (anchors are checked for well-formedness, not targets — headings
//! move too freely for byte-pinning), and every `--bin NAME` they tell a
//! user to run must name an existing `crates/bench/src/bin/NAME.rs`. CI
//! runs this in the docs-check job alongside `cargo doc -D warnings`.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Extracts the targets of inline markdown links `[text](target)`,
/// skipping code spans/fences so shell snippets don't false-positive.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            // Reject escaped citation brackets like `\[15\]` — those
            // never form a link because the `[` is escaped.
            let after = &rest[open + 2..];
            if let Some(close) = after.find(')') {
                targets.push(after[..close].to_owned());
                rest = &after[close + 1..];
            } else {
                break;
            }
        }
    }
    targets
}

/// Extracts the `NAME` of every `--bin NAME`, fenced or inline, even
/// when the name wraps onto the next line.
fn bin_names(markdown: &str) -> Vec<String> {
    let mut tokens = markdown.split_whitespace();
    let mut names = Vec::new();
    while let Some(token) = tokens.next() {
        if token.trim_matches('`') != "--bin" {
            continue;
        }
        if let Some(next) = tokens.next() {
            let name: String = next
                .trim_start_matches('`')
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            names.push(name);
        }
    }
    names
}

/// `README.md` plus every `docs/*.md`.
fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ directory exists") {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(
        files.len() >= 3,
        "expected README.md plus at least two docs/*.md files, found {}",
        files.len()
    );
    files
}

#[test]
fn every_documented_bench_bin_exists() {
    let root = repo_root();
    let bins = root.join("crates/bench/src/bin");
    let mut missing = Vec::new();
    let mut seen = 0;
    for file in markdown_files(&root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for name in bin_names(&text) {
            seen += 1;
            if !bins.join(format!("{name}.rs")).exists() {
                missing.push(format!("{}: --bin {name}", file.display()));
            }
        }
    }
    assert!(seen > 0, "expected the docs to name at least one bench bin");
    assert!(
        missing.is_empty(),
        "docs name bench bins that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_relative_docs_link_resolves() {
    let root = repo_root();
    let files = markdown_files(&root);

    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let base = file.parent().expect("markdown files have a parent dir");
        for target in link_targets(&text) {
            // External links and pure intra-page anchors are out of
            // scope; everything else must name an existing path.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
            {
                continue;
            }
            let path_part = target.split('#').next().expect("split yields a first part");
            if !base.join(path_part).exists() {
                broken.push(format!("{}: ({target})", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}
