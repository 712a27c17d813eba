//! The committed checkpoint fixture: a `dse_grid` sweep stopped by a
//! five-evaluation budget (`cimloop dse examples/specs/dse_grid.yaml
//! --checkpoint tests/fixtures/dse_grid_budget5.ckpt --max-evals 5`). It
//! pins the checkpoint format (version 2) and the toolchain-stable space
//! fingerprint: the file must keep loading, and resuming it must finish
//! on the committed `results/dse_grid.tsv` front, on any platform and
//! Rust release.

use std::path::PathBuf;

use cimloop_cli::{dse_with, resolve, DseOptions, RunContext};
use cimloop_dse::{Checkpoint, CheckpointError, DesignSpace};
use cimloop_spec::ScenarioDoc;

/// The `space:` fingerprint of the `dse_grid.yaml` design space.
const DSE_GRID_SPACE_FINGERPRINT: u64 = 10_224_359_122_787_437_321;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dse_grid_budget5.ckpt")
}

fn dse_grid_doc() -> ScenarioDoc {
    let text = std::fs::read_to_string(repo_root().join("examples/specs/dse_grid.yaml"))
        .expect("committed spec exists");
    ScenarioDoc::parse(&text).expect("spec parses")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cimloop_fixture_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn dse_grid_space_fingerprint_is_pinned() {
    let doc = dse_grid_doc();
    let mut space = DesignSpace::new();
    for arch in doc.architectures() {
        let name = arch.settings.str("name").expect("named architecture");
        space = space.variant(
            name,
            resolve::architecture(&doc, arch).expect("architecture"),
        );
    }
    let space = space
        .with_section(doc.section("Space").expect("!Space section"))
        .expect("space axes");
    assert_eq!(space.fingerprint(), DSE_GRID_SPACE_FINGERPRINT);
    let checkpoint = Checkpoint::load(fixture_path()).expect("fixture loads");
    assert_eq!(checkpoint.space_fingerprint(), DSE_GRID_SPACE_FINGERPRINT);
    assert_eq!(checkpoint.processed(), [0, 3, 6, 9, 12]);
}

#[test]
fn committed_budget_checkpoint_resumes_to_the_committed_front() {
    let dir = temp_dir("resume");
    // Resuming rewrites the checkpoint, so work on a copy.
    let ckpt = dir.join("ck.ckpt");
    std::fs::copy(fixture_path(), &ckpt).expect("copy fixture");
    let table = dse_with(
        &dse_grid_doc(),
        &RunContext::new(),
        &DseOptions {
            checkpoint: Some(ckpt),
            resume: true,
            ..DseOptions::default()
        },
    )
    .expect("resumed run")
    .expect("the resumed run completes to a table");
    let golden = std::fs::read_to_string(repo_root().join("results/dse_grid.tsv"))
        .expect("committed golden exists");
    assert_eq!(table.to_tsv(), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_1_checkpoint_is_refused_at_its_version_line() {
    let text = std::fs::read_to_string(fixture_path()).expect("fixture exists");
    let v1 = text.replacen("version: 2", "version: 1", 1);
    let line = v1
        .lines()
        .position(|l| l.starts_with("version:"))
        .expect("version line")
        + 1;
    let doc = ScenarioDoc::parse(&v1).expect("still a scenario document");
    let err = Checkpoint::from_doc(&doc).expect_err("v1 must be refused");
    assert!(
        matches!(err, CheckpointError::Version { line: l, found: 1 } if l == line),
        "{err:?}"
    );
    let message = err.to_string();
    for needle in [
        &format!("line {line}") as &str,
        "`version: 1`",
        "toolchain-stable",
        "re-run the sweep",
    ] {
        assert!(
            message.contains(needle),
            "`{needle}` missing from `{message}`"
        );
    }

    // Through the CLI the refusal names the version, not a foreign space.
    let dir = temp_dir("v1");
    let ckpt = dir.join("ck.ckpt");
    std::fs::write(&ckpt, &v1).expect("write v1 checkpoint");
    let err = dse_with(
        &dse_grid_doc(),
        &RunContext::new(),
        &DseOptions {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..DseOptions::default()
        },
    )
    .expect_err("resuming a v1 checkpoint must fail");
    let message = err.to_string();
    // The line number belongs to the checkpoint, so the file is named.
    assert!(
        message.contains(&format!("checkpoint {}: line {line}", ckpt.display())),
        "{message}"
    );
    assert!(message.contains("`version: 1`"), "{message}");
    assert!(!message.contains("different design space"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}
