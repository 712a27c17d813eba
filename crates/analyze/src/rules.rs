//! The rule set: each rule encodes one invariant this workspace relies
//! on (see `docs/static-analysis.md` for the catalog). Rules operate on
//! the blanked code / comment channels from [`crate::lexer`], skip
//! `#[cfg(test)]` / `#[test]` regions, and honour allow pragmas
//! (`allow(RULE, reason = "...")` after the tool name and a colon in a
//! comment; `parse_pragma` has the grammar).

use crate::lexer::{find_ident, has_ident, is_ident_char, SourceLine};
use crate::{Allowed, Finding};

/// Crates whose output feeds reports, TSVs, or goldens — unordered hash
/// iteration there can reach bytes the CI diffs (rule D001).
const D001_CRATES: [&str; 6] = ["analyze", "bench", "cli", "core", "dse", "system"];

/// Files covered by the PR-6 panic policy (rule P001): a panic here
/// either kills the serve daemon mid-request or turns a bad spec into a
/// crash instead of a `CliError`.
const P001_FILES: [&str; 5] = [
    "crates/cli/src/serve.rs",
    "crates/cli/src/runners.rs",
    "crates/cli/src/schema.rs",
    "crates/core/src/evaluator.rs",
    "crates/core/src/cache.rs",
];

/// Rule IDs a pragma may name. A001/A002 guard the pragma mechanism
/// itself and cannot be suppressed.
pub const ALLOWABLE_RULES: [&str; 6] = ["D001", "D002", "D003", "D004", "P001", "L001"];

/// All rule IDs, for `--explain` and fixture coverage checks.
pub const ALL_RULES: [&str; 8] = [
    "D001", "D002", "D003", "D004", "P001", "L001", "A001", "A002",
];

/// The contract each rule guards, printed by `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D001" => {
            "D001 - unordered hash collections in report-producing crates\n\
             \n\
             Contract: every report, TSV, golden, and DSE front must be\n\
             byte-identical across runs, thread counts, and shards.\n\
             HashMap/HashSet iteration order is randomized per process, so\n\
             any such collection in the analyze/bench/cli/core/dse/system\n\
             crates is one `for` loop away from nondeterministic output.\n\
             Fix: use BTreeMap/BTreeSet, or sort before emitting. If the\n\
             iteration order provably cannot reach output (e.g. a min-scan\n\
             over unique keys), suppress with\n\
             `// cimloop-analyze: allow(D001, reason = \"...\")`."
        }
        "D002" => {
            "D002 - wall-clock reads outside crates/bench\n\
             \n\
             Contract: results depend only on the spec, never on when the\n\
             run happened. `Instant::now()` / `SystemTime` in a result path\n\
             makes output time-dependent and unreproducible. Timing belongs\n\
             in crates/bench; the one sanctioned exception is the serve\n\
             body-read deadline in crates/cli/src/serve.rs (connection\n\
             liveness, cannot reach results), which carries explicit\n\
             `allow(D002, reason = ...)` pragmas on its two clock reads so\n\
             the suppression stays visible and audited in place."
        }
        "D003" => {
            "D003 - float accumulation inside thread spawn/scope blocks\n\
             \n\
             Contract: parallel evaluation must reduce in a fixed order.\n\
             Float addition is not associative, so `+=` on floats (or\n\
             sum::<f64>/fold(0.0..)) inside a thread::spawn/thread::scope\n\
             block or a cimloop_core::fanout::try_map call can make totals\n\
             depend on thread interleaving. Fix:\n\
             collect per-chunk partials and combine them after the scope in\n\
             chunk order, marking the reduction with a `chunk-order merge`\n\
             comment near the scope (the marker suppresses this rule).\n\
             Integer counters (`n += 1`) are exempt."
        }
        "D004" => {
            "D004 - toolchain-dependent hashers in first-party source\n\
             \n\
             Contract: persisted and compared identities (checkpoint space\n\
             fingerprints, energy-table cache keys, staged-DSE twin classes)\n\
             are the same on every platform and Rust release. std's\n\
             DefaultHasher leaves its algorithm unspecified across releases,\n\
             and RandomState seeds it per process, so any identity built on\n\
             them can change under a toolchain update or between runs.\n\
             Fix: encode the fields with cimloop_spec::stable::StableBytes\n\
             and compare the bytes, or digest them with\n\
             cimloop_spec::stable::fnv1a64. Test code is exempt."
        }
        "P001" => {
            "P001 - unwrap()/expect() in panic-policy files\n\
             \n\
             Contract (PR 6): a failing request must never kill the serve\n\
             daemon, and a malformed spec must surface as a CliError, not a\n\
             crash. Non-test code in serve.rs, runners.rs, schema.rs,\n\
             evaluator.rs, and cache.rs must propagate errors (`?`,\n\
             `ok_or_else`, poison recovery via PoisonError::into_inner)\n\
             instead of calling .unwrap()/.expect()."
        }
        "L001" => {
            "L001 - evaluation under a held mutex guard\n\
             \n\
             Contract: compute outside the lock. Binding a mutex guard in\n\
             the same statement as an eval*/compute* call keeps the lock\n\
             held across the computation, serializing workers and inviting\n\
             deadlock through re-entrant cache lookups. Fix: compute into a\n\
             local first, then take the lock only to insert/read."
        }
        "A001" => {
            "A001 - malformed allow pragma\n\
             \n\
             A `cimloop-analyze: allow(...)` pragma must name known rule\n\
             IDs and carry a non-empty `reason = \"...\"`. A malformed\n\
             pragma never suppresses anything; it is reported so a typo\n\
             cannot silently disable a rule."
        }
        "A002" => {
            "A002 - unused allow pragma\n\
             \n\
             A valid pragma whose rule did not fire on its target line is\n\
             dead: either the hazard was fixed (delete the pragma) or the\n\
             pragma is attached to the wrong line (move it). Unused\n\
             suppressions rot into blanket permissions, so they are\n\
             findings."
        }
        _ => return None,
    })
}

fn hint_for(rule: &str) -> &'static str {
    match rule {
        "D001" => "use BTreeMap/BTreeSet or a sorted merge; allow(D001, reason = ...) only if order cannot reach output",
        "D002" => "move timing into crates/bench or pass it in as data; results must not depend on the clock",
        "D003" => "collect per-chunk partials, merge after the scope in chunk order, and mark it with a `chunk-order merge` comment",
        "D004" => "encode fields with cimloop_spec::stable::StableBytes; digest with cimloop_spec::stable::fnv1a64",
        "P001" => "propagate with `?`/ok_or_else, or recover lock poison via PoisonError::into_inner",
        "L001" => "compute into a local first; take the lock only to insert or read",
        "A001" => "write `// cimloop-analyze: allow(RULE, reason = \"why this is safe\")`",
        "A002" => "delete the pragma or move it to the line the rule fires on",
        _ => "",
    }
}

/// Whether attribute text (the part between `#[` and `]`) gates its item
/// to test builds: a path whose last segment is `test` (`#[test]`,
/// `#[tokio::test]`) or a `cfg(...)` whose predicate mentions `test` as
/// an identifier (`#[cfg(test)]`, `#[cfg( test )]`,
/// `#[cfg(all(test, feature = "x"))]`). `cfg(not(test))` is production
/// code and is NOT a test attribute. Operates on the blanked code
/// channel, so `test` inside a string (e.g. `feature = "test"`) never
/// matches.
fn is_test_attr(inner: &str) -> bool {
    let inner = inner.trim();
    let (path, args) = match inner.find('(') {
        Some(p) => (inner[..p].trim_end(), Some(&inner[p + 1..])),
        None => (inner, None),
    };
    if path.rsplit("::").next().unwrap_or(path).trim() == "test" {
        return true;
    }
    if path != "cfg" {
        return false;
    }
    let Some(pos) = args.and_then(|a| find_ident(a, "test")) else {
        return false;
    };
    let args = args.unwrap_or_default();
    // `not(test)` inverts the gate: the body is the production build.
    !args[..pos].trim_end().ends_with("not(")
}

/// Byte offset just past the first test-gating attribute on `code`, or
/// None. The attribute must open and close on this line.
fn test_attr_end(code: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = code[from..].find("#[") {
        let inner_start = from + p + 2;
        let mut depth = 1i32;
        let mut close = None;
        for (bi, c) in code[inner_start..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(inner_start + bi);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = close?;
        if is_test_attr(&code[inner_start..close]) {
            return Some(close + 1);
        }
        from = close + 1;
    }
    None
}

/// Marks every line inside a test-gated region (`#[cfg(test)]`,
/// `#[test]`, and tolerant variants — see `is_test_attr`). A region
/// spans from the attribute to the matching close brace of the item it
/// annotates (or to the first `;` at depth 0 for brace-less items).
pub fn test_mask(lines: &[SourceLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if mask[i] {
            i += 1;
            continue;
        }
        let code = &lines[i].code;
        if let Some(col) = test_attr_end(code) {
            let end = region_end(lines, i, col);
            let last = end.min(lines.len() - 1);
            for m in mask.iter_mut().take(last + 1).skip(i) {
                *m = true;
            }
            i = last + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Walks blanked code from (`start_line`, byte `start_col`) to the end of
/// the annotated item: the matching `}` once a brace was seen, or the
/// first `;` at depth 0 before any brace.
fn region_end(lines: &[SourceLine], start_line: usize, start_col: usize) -> usize {
    let mut depth = 0i64;
    let mut seen_brace = false;
    for (li, line) in lines.iter().enumerate().skip(start_line) {
        let from = if li == start_line { start_col } else { 0 };
        for (bi, c) in line.code.char_indices() {
            if bi < from {
                continue;
            }
            match c {
                '{' => {
                    depth += 1;
                    seen_brace = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_brace && depth <= 0 {
                        return li;
                    }
                }
                ';' if !seen_brace && depth == 0 => return li,
                _ => {}
            }
        }
    }
    lines.len().saturating_sub(1)
}

/// One parsed allow pragma.
struct Pragma {
    /// 0-based line the pragma comment sits on.
    line: usize,
    /// 0-based line the pragma applies to (same line for trailing
    /// pragmas, next code line for standalone ones).
    target: Option<usize>,
    /// Rule IDs it names (valid pragmas only).
    rules: Vec<String>,
    /// The required reason.
    reason: String,
    /// Which of `rules` suppressed a finding (parallel to `rules`).
    used: Vec<bool>,
}

/// Parse result for one pragma comment.
enum ParsedPragma {
    Valid { rules: Vec<String>, reason: String },
    Malformed(String),
}

/// Parses an allow pragma out of a comment: the tool name and a colon,
/// then `allow(RULE[, RULE...], reason = "...")`. Returns None when the
/// comment holds no pragma at all.
fn parse_pragma(comment: &str) -> Option<ParsedPragma> {
    let key = "cimloop-analyze:";
    let at = comment.find(key)?;
    let rest = comment[at + key.len()..].trim_start();
    let Some(body) = rest.strip_prefix("allow") else {
        return Some(ParsedPragma::Malformed(
            "expected `allow(...)` after `cimloop-analyze:`".to_owned(),
        ));
    };
    let Some(body) = body.trim_start().strip_prefix('(') else {
        return Some(ParsedPragma::Malformed(
            "expected `(` after `allow`".to_owned(),
        ));
    };
    let mut rules = Vec::new();
    let mut reason: Option<String> = None;
    let chars: Vec<char> = body.chars().collect();
    let mut i = 0usize;
    loop {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() {
            return Some(ParsedPragma::Malformed("unterminated pragma".to_owned()));
        }
        if chars[i] == ')' {
            break;
        }
        // A `reason = "..."` clause or a rule ID.
        let word_start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        let word: String = chars[word_start..i].iter().collect();
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if word == "reason" {
            if i >= chars.len() || chars[i] != '=' {
                return Some(ParsedPragma::Malformed(
                    "expected `=` after `reason`".to_owned(),
                ));
            }
            i += 1;
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            if i >= chars.len() || chars[i] != '"' {
                return Some(ParsedPragma::Malformed(
                    "expected a quoted string after `reason =`".to_owned(),
                ));
            }
            i += 1;
            let text_start = i;
            while i < chars.len() && chars[i] != '"' {
                i += 1;
            }
            if i >= chars.len() {
                return Some(ParsedPragma::Malformed(
                    "unterminated reason string".to_owned(),
                ));
            }
            reason = Some(chars[text_start..i].iter().collect());
            i += 1;
        } else if word.is_empty() {
            return Some(ParsedPragma::Malformed(format!(
                "unexpected character `{}` in pragma",
                chars[i]
            )));
        } else if ALLOWABLE_RULES.contains(&word.as_str()) {
            rules.push(word);
        } else {
            return Some(ParsedPragma::Malformed(format!(
                "unknown rule `{word}` (allowed: {})",
                ALLOWABLE_RULES.join(", ")
            )));
        }
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i < chars.len() && chars[i] == ',' {
            i += 1;
        }
    }
    if rules.is_empty() {
        return Some(ParsedPragma::Malformed(
            "pragma names no rule IDs".to_owned(),
        ));
    }
    match reason {
        Some(r) if !r.trim().is_empty() => Some(ParsedPragma::Valid { rules, reason: r }),
        Some(_) => Some(ParsedPragma::Malformed("reason is empty".to_owned())),
        None => Some(ParsedPragma::Malformed(
            "missing required `reason = \"...\"`".to_owned(),
        )),
    }
}

/// A finding before pragma filtering: (rule, 0-based line, message).
struct Raw {
    rule: &'static str,
    line: usize,
    message: String,
}

/// Crate a workspace-relative path belongs to (`crates/foo/...` -> `foo`;
/// the root `src/` facade is `cimloop`).
fn crate_of(rel: &str) -> &str {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(""),
        None => "cimloop",
    }
}

/// Runs every rule over one file and resolves pragmas. Returns findings
/// and allowed (suppressed) entries, both 1-based and unsorted.
pub fn analyze_lines(rel: &str, lines: &[SourceLine]) -> (Vec<Finding>, Vec<Allowed>) {
    let mask = test_mask(lines);
    let mut raws: Vec<Raw> = Vec::new();
    let mut allowed: Vec<Allowed> = Vec::new();

    // --- pragma collection (non-test lines only) ---
    let mut pragmas: Vec<Pragma> = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        if mask[li] {
            continue;
        }
        match parse_pragma(&line.comment) {
            None => {}
            Some(ParsedPragma::Malformed(why)) => raws.push(Raw {
                rule: "A001",
                line: li,
                message: format!("malformed allow pragma: {why}"),
            }),
            Some(ParsedPragma::Valid { rules, reason }) => {
                let target = if line.code.trim().is_empty() {
                    // Standalone pragma: applies to the next code line,
                    // skipping blanks and further standalone pragmas.
                    lines
                        .iter()
                        .enumerate()
                        .skip(li + 1)
                        .find(|(ti, l)| !mask[*ti] && !l.code.trim().is_empty())
                        .map(|(ti, _)| ti)
                } else {
                    Some(li)
                };
                let used = vec![false; rules.len()];
                pragmas.push(Pragma {
                    line: li,
                    target,
                    rules,
                    reason,
                    used,
                });
            }
        }
    }

    rule_d001(rel, lines, &mask, &mut raws);
    rule_d002(rel, lines, &mask, &mut raws);
    rule_d003(rel, lines, &mask, &mut raws);
    rule_d004(lines, &mask, &mut raws);
    rule_p001(rel, lines, &mask, &mut raws);
    rule_l001(lines, &mask, &mut raws);

    // --- pragma resolution ---
    let mut findings: Vec<Finding> = Vec::new();
    for raw in raws {
        let mut suppressed: Option<String> = None;
        if raw.rule != "A001" {
            for p in pragmas.iter_mut() {
                if p.target != Some(raw.line) {
                    continue;
                }
                if let Some(ri) = p.rules.iter().position(|r| r == raw.rule) {
                    p.used[ri] = true;
                    suppressed = Some(p.reason.clone());
                    break;
                }
            }
        }
        match suppressed {
            Some(reason) => allowed.push(Allowed {
                rule: raw.rule.to_owned(),
                file: rel.to_owned(),
                line: raw.line + 1,
                reason,
            }),
            None => findings.push(Finding {
                rule: raw.rule.to_owned(),
                file: rel.to_owned(),
                line: raw.line + 1,
                message: raw.message,
                hint: hint_for(raw.rule).to_owned(),
            }),
        }
    }
    for p in &pragmas {
        for (ri, used) in p.used.iter().enumerate() {
            if !used {
                findings.push(Finding {
                    rule: "A002".to_owned(),
                    file: rel.to_owned(),
                    line: p.line + 1,
                    message: format!(
                        "allow pragma for {} suppressed nothing on its target line",
                        p.rules[ri]
                    ),
                    hint: hint_for("A002").to_owned(),
                });
            }
        }
    }
    (findings, allowed)
}

fn dedup_push(raws: &mut Vec<Raw>, raw: Raw) {
    if !raws
        .iter()
        .any(|r| r.rule == raw.rule && r.line == raw.line)
    {
        raws.push(raw);
    }
}

fn rule_d001(rel: &str, lines: &[SourceLine], mask: &[bool], raws: &mut Vec<Raw>) {
    if !D001_CRATES.contains(&crate_of(rel)) {
        return;
    }
    for (li, line) in lines.iter().enumerate() {
        if mask[li] || line.code.trim_start().starts_with("use ") {
            continue;
        }
        for ident in ["HashMap", "HashSet"] {
            if has_ident(&line.code, ident) {
                dedup_push(
                    raws,
                    Raw {
                        rule: "D001",
                        line: li,
                        message: format!(
                            "`{ident}` in report-producing crate `{}`: iteration order is nondeterministic",
                            crate_of(rel)
                        ),
                    },
                );
            }
        }
    }
}

fn rule_d002(rel: &str, lines: &[SourceLine], mask: &[bool], raws: &mut Vec<Raw>) {
    if crate_of(rel) == "bench" {
        return;
    }
    for (li, line) in lines.iter().enumerate() {
        if mask[li] || line.code.trim_start().starts_with("use ") {
            continue;
        }
        let hit = if line.code.contains("Instant::now") {
            Some("Instant::now")
        } else if has_ident(&line.code, "SystemTime") {
            Some("SystemTime")
        } else {
            None
        };
        let Some(what) = hit else { continue };
        dedup_push(
            raws,
            Raw {
                rule: "D002",
                line: li,
                message: format!("wall-clock read (`{what}`) outside crates/bench"),
            },
        );
    }
}

/// Paren-matched extent of a `thread::spawn(` / `thread::scope(` /
/// fan-out helper `try_map(` call: returns the 0-based last line of the
/// call.
fn paren_extent(lines: &[SourceLine], start_line: usize, open_col: usize) -> usize {
    let mut depth = 0i64;
    for (li, line) in lines.iter().enumerate().skip(start_line) {
        let from = if li == start_line { open_col } else { 0 };
        for (bi, c) in line.code.char_indices() {
            if bi < from {
                continue;
            }
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return li;
                    }
                }
                _ => {}
            }
        }
    }
    lines.len().saturating_sub(1)
}

fn rule_d003(_rel: &str, lines: &[SourceLine], mask: &[bool], raws: &mut Vec<Raw>) {
    for (li, line) in lines.iter().enumerate() {
        if mask[li] {
            continue;
        }
        let spawn = ["thread::spawn(", "thread::scope(", "try_map("]
            .iter()
            .filter_map(|p| line.code.find(p).map(|c| c + p.len() - 1))
            .min();
        let Some(open_col) = spawn else { continue };
        let end = paren_extent(lines, li, open_col);
        // A `chunk-order merge` marker inside the span or up to three
        // lines above it vouches for an ordered reduction.
        let marker_from = li.saturating_sub(3);
        let marked = lines[marker_from..=end.min(lines.len() - 1)]
            .iter()
            .any(|l| {
                l.comment
                    .to_lowercase()
                    .replace('-', " ")
                    .contains("chunk order merge")
            });
        if marked {
            continue;
        }
        for (si, span_line) in lines.iter().enumerate().take(end + 1).skip(li) {
            if mask[si] {
                continue;
            }
            let code = &span_line.code;
            let mut flagged = false;
            if let Some(pos) = code.find("+=") {
                let rhs = code[pos + 2..].trim().trim_end_matches(';').trim();
                let integer =
                    !rhs.is_empty() && rhs.chars().all(|c| c.is_ascii_digit() || c == '_');
                if !integer {
                    flagged = true;
                }
            }
            if code.contains("sum::<f64>")
                || code.contains("sum::<f32>")
                || code.contains("fold(0.0")
            {
                flagged = true;
            }
            if flagged {
                dedup_push(
                    raws,
                    Raw {
                        rule: "D003",
                        line: si,
                        message: "float accumulation inside a thread spawn/scope block without a chunk-order merge marker".to_owned(),
                    },
                );
            }
        }
    }
}

fn rule_d004(lines: &[SourceLine], mask: &[bool], raws: &mut Vec<Raw>) {
    for (li, line) in lines.iter().enumerate() {
        if mask[li] {
            continue;
        }
        for ident in ["DefaultHasher", "RandomState"] {
            if has_ident(&line.code, ident) {
                dedup_push(
                    raws,
                    Raw {
                        rule: "D004",
                        line: li,
                        message: format!(
                            "`{ident}`: std's hasher is not stable across toolchains (or, seeded, across runs)"
                        ),
                    },
                );
            }
        }
    }
}

fn rule_p001(rel: &str, lines: &[SourceLine], mask: &[bool], raws: &mut Vec<Raw>) {
    if !P001_FILES.contains(&rel) {
        return;
    }
    for (li, line) in lines.iter().enumerate() {
        if mask[li] {
            continue;
        }
        for pat in [".unwrap(", ".expect("] {
            if line.code.contains(pat) {
                dedup_push(
                    raws,
                    Raw {
                        rule: "P001",
                        line: li,
                        message: format!(
                            "`{})` in panic-policy file: must propagate a CliError instead of panicking",
                            pat.trim_start_matches('.')
                        ),
                    },
                );
            }
        }
    }
}

/// True when `stmt` contains a call whose callee identifier starts with
/// `eval` or `compute` (e.g. `evaluate(`, `self.compute_all(`).
fn has_eval_call(stmt: &str) -> bool {
    for prefix in ["eval", "compute"] {
        let mut from = 0;
        while let Some(p) = stmt[from..].find(prefix) {
            let start = from + p;
            let before_ok =
                start == 0 || !is_ident_char(stmt[..start].chars().next_back().unwrap_or(' '));
            if before_ok {
                let tail = &stmt[start..];
                let ident_bytes: usize = tail
                    .char_indices()
                    .find(|&(_, c)| !is_ident_char(c))
                    .map_or(tail.len(), |(b, _)| b);
                if tail[ident_bytes..].trim_start().starts_with('(') {
                    return true;
                }
            }
            from = start + prefix.len();
        }
    }
    false
}

fn rule_l001(lines: &[SourceLine], mask: &[bool], raws: &mut Vec<Raw>) {
    let mut stmt = String::new();
    let mut stmt_start: Option<usize> = None;
    for (li, line) in lines.iter().enumerate() {
        if mask[li] {
            stmt.clear();
            stmt_start = None;
            continue;
        }
        let code = line.code.trim();
        if code.is_empty() {
            continue;
        }
        if stmt_start.is_none() {
            stmt_start = Some(li);
        }
        stmt.push(' ');
        stmt.push_str(code);
        let over_cap = li - stmt_start.unwrap_or(li) >= 20;
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') || over_cap {
            if stmt.contains(".lock(") && has_eval_call(&stmt) {
                dedup_push(
                    raws,
                    Raw {
                        rule: "L001",
                        line: stmt_start.unwrap_or(li),
                        message: "mutex guard bound in the same statement as an eval/compute call: lock held across computation".to_owned(),
                    },
                );
            }
            stmt.clear();
            stmt_start = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn test_mask_covers_mod_and_inline_fn() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lines = scan(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn test_mask_tolerates_attribute_variants() {
        // cfg(all(test, ...)), spaced cfg( test ), and #[tokio::test]
        // all gate their item to test builds.
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t1 { fn a() {} }\n\
                   #[cfg( test )]\nmod t2 { fn b() {} }\n\
                   #[tokio::test]\nasync fn t3() {}\nfn live() {}\n";
        let mask = test_mask(&scan(src));
        assert_eq!(mask[..7], [true, true, true, true, true, true, false]);
    }

    #[test]
    fn test_mask_does_not_cover_cfg_not_test() {
        // cfg(not(test)) bodies are the production build: they must be
        // linted, not masked.
        let src = "#[cfg(not(test))]\nfn prod() {}\n#[cfg(test)]\nfn t() {}\n";
        let mask = test_mask(&scan(src));
        assert_eq!(mask[..4], [false, false, true, true]);
    }

    #[test]
    fn test_mask_ignores_test_inside_cfg_strings() {
        // `test` inside a string literal is blanked by the lexer and
        // must not gate the item.
        let src = "#[cfg(feature = \"test\")]\nfn prod() {}\n";
        let mask = test_mask(&scan(src));
        assert_eq!(mask[..2], [false, false]);
    }

    #[test]
    fn test_mask_handles_braceless_item() {
        let src = "#[cfg(test)]\nuse helper::x;\nfn live() {}\n";
        let mask = test_mask(&scan(src));
        assert!(mask[0]);
        assert!(mask[1]);
        assert!(!mask[2]);
    }

    #[test]
    fn pragma_roundtrip() {
        match parse_pragma(" cimloop-analyze: allow(D001, D002, reason = \"safe: min-scan\")") {
            Some(ParsedPragma::Valid { rules, reason }) => {
                assert_eq!(rules, vec!["D001", "D002"]);
                assert_eq!(reason, "safe: min-scan");
            }
            _ => panic!("expected a valid pragma"),
        }
    }

    #[test]
    fn pragma_requires_reason_and_known_rules() {
        assert!(matches!(
            parse_pragma(" cimloop-analyze: allow(D001)"),
            Some(ParsedPragma::Malformed(_))
        ));
        assert!(matches!(
            parse_pragma(" cimloop-analyze: allow(Z999, reason = \"x\")"),
            Some(ParsedPragma::Malformed(_))
        ));
        assert!(parse_pragma(" just a comment").is_none());
    }

    #[test]
    fn eval_call_matcher() {
        assert!(has_eval_call("let g = m.lock(); g.evaluate(spec)"));
        assert!(has_eval_call("x.compute_all ()"));
        assert!(!has_eval_call("let v = self.computed_value;"));
        assert!(!has_eval_call("medieval(x)"));
    }
}
