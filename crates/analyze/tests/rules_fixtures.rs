//! Fixture tests: every rule must fire exactly where the fixture says it
//! does — no more, no less — and pragmas must move matches to the
//! allowed list. Fixtures live under `tests/fixtures/`; each starts with
//! an `analyze-as:` directive giving the synthetic workspace-relative
//! path the file is analyzed under (several rules are path-scoped).
//!
//! Expectation markers are trailing comments on the line they describe:
//! `//~ RULE` expects a finding, `//~ allowed RULE` an allowed entry.

use std::fs;
use std::path::PathBuf;

use cimloop_analyze::analyze_source;

/// Loads a fixture, runs the analyzer under the fixture's declared
/// path, and asserts the (line, rule) sets match the markers exactly.
fn check_fixture(name: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("failed to read fixture {name}: {e}"));
    let first = text.lines().next().unwrap_or_default();
    let rel = first
        .strip_prefix("//! analyze-as: ")
        .unwrap_or_else(|| panic!("fixture {name} must start with `//! analyze-as: <path>`"))
        .trim()
        .to_owned();

    let mut want_findings: Vec<(usize, String)> = Vec::new();
    let mut want_allowed: Vec<(usize, String)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let rest = line[pos + 3..].trim();
        let (allowed, rule) = match rest.strip_prefix("allowed ") {
            Some(rule) => (true, rule.trim()),
            None => (false, rest),
        };
        assert!(
            !rule.is_empty() && rule.chars().all(|c| c.is_ascii_alphanumeric()),
            "fixture {name} line {}: bad marker `{rest}`",
            idx + 1
        );
        if allowed {
            want_allowed.push((idx + 1, rule.to_owned()));
        } else {
            want_findings.push((idx + 1, rule.to_owned()));
        }
    }

    let (findings, allowed) = analyze_source(&rel, &text);
    let mut got_findings: Vec<(usize, String)> =
        findings.iter().map(|f| (f.line, f.rule.clone())).collect();
    let mut got_allowed: Vec<(usize, String)> =
        allowed.iter().map(|a| (a.line, a.rule.clone())).collect();
    got_findings.sort();
    got_allowed.sort();
    want_findings.sort();
    want_allowed.sort();
    assert_eq!(
        got_findings, want_findings,
        "fixture {name} (as {rel}): findings mismatch"
    );
    assert_eq!(
        got_allowed, want_allowed,
        "fixture {name} (as {rel}): allowed mismatch"
    );
}

#[test]
fn d001_fires_and_pragma_suppresses() {
    check_fixture("d001.rs");
}

#[test]
fn d001_is_scoped_to_report_crates() {
    check_fixture("d001_scoped.rs");
}

#[test]
fn d002_fires_and_pragma_suppresses() {
    check_fixture("d002.rs");
}

#[test]
fn d002_serve_requires_explicit_pragmas() {
    check_fixture("d002_serve.rs");
}

#[test]
fn d002_exempts_bench() {
    check_fixture("d002_bench.rs");
}

#[test]
fn d003_fires_with_exemptions_marker_and_pragma() {
    check_fixture("d003.rs");
}

#[test]
fn d004_fires_on_std_hashers_and_pragma_suppresses() {
    check_fixture("d004.rs");
}

#[test]
fn p001_fires_and_pragma_suppresses() {
    check_fixture("p001.rs");
}

#[test]
fn p001_is_scoped_to_panic_policy_files() {
    check_fixture("p001_scoped.rs");
}

#[test]
fn l001_fires_across_wrapped_statements() {
    check_fixture("l001.rs");
}

#[test]
fn a001_malformed_pragma_is_a_finding_and_never_suppresses() {
    check_fixture("a001.rs");
}

#[test]
fn a002_unused_pragma_is_a_finding() {
    check_fixture("a002.rs");
}

/// Every rule ID the analyzer knows must be exercised by at least one
/// fixture marker, so a new rule cannot ship untested.
#[test]
fn every_rule_has_fixture_coverage() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut covered: Vec<String> = Vec::new();
    for entry in fs::read_dir(&dir).expect("fixtures directory") {
        let path = entry.expect("fixture entry").path();
        let text = fs::read_to_string(&path).expect("fixture readable");
        for line in text.lines() {
            if let Some(pos) = line.find("//~") {
                let rest = line[pos + 3..].trim();
                let rule = rest.strip_prefix("allowed ").unwrap_or(rest).trim();
                covered.push(rule.to_owned());
            }
        }
    }
    for rule in cimloop_analyze::ALL_RULES {
        assert!(
            covered.iter().any(|c| c == rule),
            "rule {rule} has no fixture marker"
        );
    }
}
