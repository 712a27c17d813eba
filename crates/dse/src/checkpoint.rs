//! Sweep checkpoints: resumable progress as a reflected scenario
//! document.
//!
//! A [`Checkpoint`] persists a sweep's [`SweepState`] — the processed
//! candidate ids and the Pareto front accumulated so far — together
//! with a structural fingerprint of the [`DesignSpace`] and the
//! accuracy objective, so a resume against a *different* space or
//! objective is rejected instead of silently misnumbering designs.
//!
//! The on-disk form is an ordinary [`ScenarioDoc`] (`!Scenario` +
//! `!Checkpoint` + one `!Member` per front design), which buys the
//! whole spec toolchain for free: yamlite and JSON codecs
//! (`.json` paths round-trip through [`ScenarioDoc::to_json`]),
//! `cimloop convert`, and `cimloop diff` for inspecting two
//! checkpoints structurally. Every floating-point objective is stored
//! as its IEEE-754 bit pattern (a `u64`), so a resumed front is
//! byte-identical to the one that was saved — no decimal round-trip.

use std::fmt;
use std::path::Path;

use cimloop_spec::{ScenarioDoc, Section, SpecError, Value};

use crate::explorer::{AccuracyObjective, DesignReport, Exploration, SweepState};
use crate::pareto::ParetoFront;
use crate::space::DesignSpace;

/// The checkpoint format version this build reads and writes. Version 2
/// made the `space:` fingerprint toolchain-stable (FNV-1a over a
/// field-by-field encoding); version 1 fingerprints came from `std`'s
/// unspecified hasher and cannot be checked, so v1 files are refused.
const VERSION: u64 = 2;

/// A persisted sweep state, decoupled from any live [`DesignSpace`]
/// (front members are stored by design id and re-materialized through
/// [`DesignSpace::point_at`] on resume).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    name: String,
    space_fingerprint: u64,
    accuracy: AccuracyObjective,
    processed: Vec<u64>,
    members: Vec<StoredReport>,
}

/// One front member, flattened to id + objective scalars (the design
/// configuration itself is reproducible from the space).
#[derive(Debug, Clone)]
struct StoredReport {
    id: u64,
    label: String,
    energy_total: f64,
    energy_per_mac: f64,
    tops_per_watt: f64,
    latency: f64,
    area_mm2: f64,
    accuracy_proxy: f64,
    output_snr_db: Option<f64>,
    task_accuracy: Option<f64>,
    macs: u64,
}

impl Checkpoint {
    /// Captures an exploration's resumable progress against the space
    /// it ran on. `name` labels the checkpoint's `!Scenario` section
    /// (conventionally the sweep's scenario name).
    pub fn capture(
        name: impl Into<String>,
        space: &DesignSpace,
        accuracy: AccuracyObjective,
        exploration: &Exploration,
    ) -> Self {
        let members = exploration
            .front
            .members()
            .iter()
            .map(|m| StoredReport {
                id: m.id,
                label: m.value.point.label(),
                energy_total: m.value.energy_total,
                energy_per_mac: m.value.energy_per_mac,
                tops_per_watt: m.value.tops_per_watt,
                latency: m.value.latency,
                area_mm2: m.value.area_mm2,
                accuracy_proxy: m.value.accuracy_proxy,
                output_snr_db: m.value.output_snr_db,
                task_accuracy: m.value.task_accuracy,
                macs: m.value.macs,
            })
            .collect();
        Checkpoint {
            name: name.into(),
            space_fingerprint: space.fingerprint(),
            accuracy,
            processed: exploration.processed.clone(),
            members,
        }
    }

    /// The checkpoint's scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fingerprint of the space the checkpoint was captured on.
    pub fn space_fingerprint(&self) -> u64 {
        self.space_fingerprint
    }

    /// The accuracy objective the front was scored under.
    pub fn accuracy(&self) -> AccuracyObjective {
        self.accuracy
    }

    /// Ids of every candidate the checkpointed run had processed.
    pub fn processed(&self) -> &[u64] {
        &self.processed
    }

    /// How many front members the checkpoint carries.
    pub fn front_len(&self) -> usize {
        self.members.len()
    }

    /// Re-materializes the checkpoint into resumable [`SweepState`]
    /// against the (structurally identical) space it was captured on.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] when `space`'s fingerprint or
    /// `accuracy` differ from the checkpoint's, or a stored member id
    /// falls outside the space's grid.
    pub fn resume_state(
        &self,
        space: &DesignSpace,
        accuracy: AccuracyObjective,
    ) -> Result<SweepState, CheckpointError> {
        if space.fingerprint() != self.space_fingerprint {
            return Err(CheckpointError::Mismatch {
                message: format!(
                    "checkpoint `{}` was captured on a different design space \
                     (fingerprint {:#018x}, this space is {:#018x})",
                    self.name,
                    self.space_fingerprint,
                    space.fingerprint()
                ),
            });
        }
        if accuracy != self.accuracy {
            return Err(CheckpointError::Mismatch {
                message: format!(
                    "checkpoint `{}` was scored under accuracy `{}`, not `{}`",
                    self.name,
                    self.accuracy.as_str(),
                    accuracy.as_str()
                ),
            });
        }
        let mut front = ParetoFront::new();
        for stored in &self.members {
            let point = space
                .point_at(stored.id)
                .ok_or_else(|| CheckpointError::Mismatch {
                    message: format!(
                        "checkpoint member id {} is outside the space's {}-cell grid",
                        stored.id,
                        space.grid_len()
                    ),
                })?;
            let report = DesignReport {
                point,
                energy_total: stored.energy_total,
                energy_per_mac: stored.energy_per_mac,
                tops_per_watt: stored.tops_per_watt,
                latency: stored.latency,
                area_mm2: stored.area_mm2,
                accuracy_proxy: stored.accuracy_proxy,
                output_snr_db: stored.output_snr_db,
                task_accuracy: stored.task_accuracy,
                macs: stored.macs,
            };
            front.insert(stored.id, report.objectives_for(accuracy), report);
        }
        Ok(SweepState {
            front,
            processed: self.processed.clone(),
        })
    }

    /// Serializes the checkpoint as a reflected [`ScenarioDoc`].
    pub fn to_doc(&self) -> ScenarioDoc {
        let mut root = Value::map();
        let mut scenario = Value::map();
        scenario.insert("name", Value::scalar(&self.name));
        scenario.insert("experiment", Value::scalar("checkpoint"));
        root.insert("scenario", scenario);

        let mut sections = Vec::new();
        let mut header = Value::map();
        header.insert("version", Value::scalar(&VERSION.to_string()));
        header.insert("space", Value::scalar(&self.space_fingerprint.to_string()));
        header.insert("accuracy", Value::scalar(self.accuracy.as_str()));
        header.insert(
            "processed",
            Value::List(
                self.processed
                    .iter()
                    .map(|id| Value::scalar(&id.to_string()))
                    .collect(),
            ),
        );
        sections.push(section_value("Checkpoint", header));

        for stored in &self.members {
            let mut member = Value::map();
            member.insert("id", Value::scalar(&stored.id.to_string()));
            member.insert("label", Value::scalar(&stored.label));
            for (key, value) in [
                ("energy_total", stored.energy_total),
                ("energy_per_mac", stored.energy_per_mac),
                ("tops_per_watt", stored.tops_per_watt),
                ("latency", stored.latency),
                ("area_mm2", stored.area_mm2),
                ("accuracy_proxy", stored.accuracy_proxy),
            ] {
                member.insert(key, Value::scalar(&value.to_bits().to_string()));
            }
            if let Some(snr) = stored.output_snr_db {
                member.insert("output_snr_db", Value::scalar(&snr.to_bits().to_string()));
            }
            if let Some(acc) = stored.task_accuracy {
                member.insert("task_accuracy", Value::scalar(&acc.to_bits().to_string()));
            }
            member.insert("macs", Value::scalar(&stored.macs.to_string()));
            sections.push(section_value("Member", member));
        }

        root.insert("sections", Value::List(sections));
        ScenarioDoc::from_value(&root)
            .expect("checkpoint value tree is well-formed by construction")
    }

    /// Decodes a checkpoint from its document form.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] when the document is not a
    /// checkpoint (wrong experiment, missing `!Checkpoint` section),
    /// [`CheckpointError::Version`] for any format version but the
    /// current one (citing the `version:` line), and
    /// [`CheckpointError::Spec`] on malformed fields.
    pub fn from_doc(doc: &ScenarioDoc) -> Result<Self, CheckpointError> {
        if doc.experiment() != "checkpoint" {
            return Err(CheckpointError::Mismatch {
                message: format!(
                    "document's experiment is `{}`, not `checkpoint`",
                    doc.experiment()
                ),
            });
        }
        let name = doc.scenario().str_or("name", "checkpoint").to_owned();
        let header = doc
            .section("Checkpoint")
            .ok_or_else(|| CheckpointError::Mismatch {
                message: "document has no !Checkpoint section".to_owned(),
            })?;
        let version = req_u64(header, "version")?;
        if version != VERSION {
            return Err(CheckpointError::Version {
                line: header.get("version").map_or(header.line(), |e| e.line),
                found: version,
            });
        }
        let space_fingerprint = req_u64(header, "space")?;
        let accuracy_name = header
            .str("accuracy")
            .ok_or_else(|| missing(header, "accuracy"))?;
        let accuracy =
            AccuracyObjective::parse(accuracy_name).ok_or_else(|| CheckpointError::Mismatch {
                message: format!("unknown accuracy objective `{accuracy_name}`"),
            })?;
        let processed = header
            .u64_list("processed")?
            .ok_or_else(|| missing(header, "processed"))?;

        let mut members = Vec::new();
        for section in doc.sections("Member") {
            let output_snr_db = section.u64("output_snr_db")?.map(f64::from_bits);
            let task_accuracy = section.u64("task_accuracy")?.map(f64::from_bits);
            members.push(StoredReport {
                id: req_u64(section, "id")?,
                label: section.str_or("label", "").to_owned(),
                energy_total: req_bits(section, "energy_total")?,
                energy_per_mac: req_bits(section, "energy_per_mac")?,
                tops_per_watt: req_bits(section, "tops_per_watt")?,
                latency: req_bits(section, "latency")?,
                area_mm2: req_bits(section, "area_mm2")?,
                accuracy_proxy: req_bits(section, "accuracy_proxy")?,
                output_snr_db,
                task_accuracy,
                macs: req_u64(section, "macs")?,
            });
        }
        Ok(Checkpoint {
            name,
            space_fingerprint,
            accuracy,
            processed,
            members,
        })
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename,
    /// so a kill mid-save never leaves a truncated checkpoint). `.json`
    /// paths get the JSON codec, everything else canonical yamlite.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let doc = self.to_doc();
        let text = if is_json(path) {
            let mut json = doc.to_json();
            json.push('\n');
            json
        } else {
            doc.write()
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a checkpoint from `path` (yamlite or JSON, sniffed from
    /// the extension with a `{` content fallback).
    ///
    /// # Errors
    ///
    /// Filesystem errors, parse errors, and the structural errors of
    /// [`Self::from_doc`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let doc = if is_json(path) || text.trim_start().starts_with('{') {
            ScenarioDoc::from_json(&text)?
        } else {
            ScenarioDoc::parse(&text)?
        };
        Self::from_doc(&doc)
    }
}

fn section_value(tag: &str, entries: Value) -> Value {
    let mut m = Value::map();
    m.insert("tag", Value::scalar(tag));
    m.insert("entries", entries);
    m
}

fn is_json(path: &Path) -> bool {
    path.extension()
        .is_some_and(|ext| ext.eq_ignore_ascii_case("json"))
}

fn missing(section: &Section, key: &str) -> CheckpointError {
    CheckpointError::Mismatch {
        message: format!("!{} section is missing `{key}`", section.tag()),
    }
}

fn req_u64(section: &Section, key: &str) -> Result<u64, CheckpointError> {
    section.u64(key)?.ok_or_else(|| missing(section, key))
}

fn req_bits(section: &Section, key: &str) -> Result<f64, CheckpointError> {
    Ok(f64::from_bits(req_u64(section, key)?))
}

/// Why a checkpoint could not be saved, loaded, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint file.
    Io(std::io::Error),
    /// The file is not a structurally valid checkpoint document.
    Spec(SpecError),
    /// The checkpoint does not match the sweep being resumed (different
    /// space or accuracy objective).
    Mismatch {
        /// What differs.
        message: String,
    },
    /// The file declares a checkpoint format version this build does not
    /// read.
    Version {
        /// Line of the `version:` entry.
        line: usize,
        /// The declared version.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Spec(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::Mismatch { message } => {
                write!(f, "checkpoint mismatch: {message}")
            }
            CheckpointError::Version { line, found: 1 } => write!(
                f,
                "line {line}: `version: 1` checkpoint is no longer readable: space \
                 fingerprints became toolchain-stable in format 2, so a version 1 \
                 fingerprint cannot be checked; re-run the sweep to write a fresh checkpoint"
            ),
            CheckpointError::Version { line, found } => write!(
                f,
                "line {line}: unsupported checkpoint `version: {found}` (this build reads \
                 {VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Spec(e) => Some(e),
            CheckpointError::Mismatch { .. } | CheckpointError::Version { .. } => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SpecError> for CheckpointError {
    fn from(e: SpecError) -> Self {
        CheckpointError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, SweepPlan};
    use cimloop_macros::base_macro;
    use cimloop_workload::{Layer, LayerKind, Shape, Workload};

    fn net() -> Workload {
        Workload::new(
            "tiny",
            vec![Layer::new(
                "a",
                LayerKind::Linear,
                Shape::linear(2, 24, 24).unwrap(),
            )],
        )
        .unwrap()
    }

    fn space() -> DesignSpace {
        DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .square_arrays([16, 32])
            .adc_bits([4, 8])
    }

    #[test]
    fn roundtrips_through_yamlite_and_json_bit_exactly() {
        let space = space();
        let workload = net();
        let explorer = Explorer::new().with_threads(1);
        let partial = explorer
            .sweep(
                &space,
                &workload,
                &SweepPlan {
                    max_evaluations: Some(3),
                    ..SweepPlan::default()
                },
            )
            .unwrap();
        let checkpoint = Checkpoint::capture("t", &space, explorer.accuracy(), &partial);

        let dir = std::env::temp_dir().join(format!("cimloop_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for file in ["c.ckpt", "c.json"] {
            let path = dir.join(file);
            checkpoint.save(&path).unwrap();
            let loaded = Checkpoint::load(&path).unwrap();
            assert_eq!(loaded.processed(), checkpoint.processed());
            assert_eq!(loaded.space_fingerprint(), checkpoint.space_fingerprint());
            let state = loaded.resume_state(&space, explorer.accuracy()).unwrap();
            assert_eq!(state.front.len(), partial.front.len());
            for (a, b) in state.front.members().iter().zip(partial.front.members()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(
                    a.value.energy_total.to_bits(),
                    b.value.energy_total.to_bits()
                );
                assert_eq!(a.value.point.label(), b.value.point.label());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_space_and_accuracy() {
        let space = space();
        let workload = net();
        let explorer = Explorer::new().with_threads(1);
        let exploration = explorer.explore(&space, &workload).unwrap();
        let checkpoint = Checkpoint::capture("t", &space, explorer.accuracy(), &exploration);

        let other = DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .square_arrays([16]);
        let err = checkpoint
            .resume_state(&other, explorer.accuracy())
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        let err = checkpoint
            .resume_state(&space, AccuracyObjective::AdcCoverage)
            .unwrap_err();
        assert!(err.to_string().contains("accuracy"), "{err}");
    }

    #[test]
    fn non_checkpoint_documents_are_rejected() {
        let doc = ScenarioDoc::parse("!Scenario\nname: s\nexperiment: dse\n").unwrap();
        assert!(Checkpoint::from_doc(&doc).is_err());
        let doc = ScenarioDoc::parse("!Scenario\nname: s\nexperiment: checkpoint\n").unwrap();
        let err = Checkpoint::from_doc(&doc).unwrap_err();
        assert!(err.to_string().contains("!Checkpoint"), "{err}");
    }
}
