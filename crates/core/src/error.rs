use std::error::Error;
use std::fmt;

use cimloop_circuits::CircuitError;
use cimloop_map::MapError;
use cimloop_spec::SpecError;
use cimloop_stats::StatsError;
use cimloop_workload::WorkloadError;

/// Error raised by the CiMLoop core pipeline and evaluator.
#[derive(Debug)]
pub enum CoreError {
    /// Specification problem.
    Spec(SpecError),
    /// Mapping/dataflow problem.
    Map(MapError),
    /// Component model problem (includes which component, when known).
    Circuit {
        /// Name of the spec component whose model failed, if known.
        component: Option<String>,
        /// The underlying error.
        source: CircuitError,
    },
    /// Workload/distribution problem.
    Workload(WorkloadError),
    /// Statistics problem.
    Stats(StatsError),
    /// Representation configuration problem.
    Representation {
        /// What is wrong.
        message: String,
    },
    /// A design-space sweep was asked to explore zero candidate designs
    /// (no variants, or every candidate filtered away). Surfaced as an
    /// error instead of an empty Pareto front so a misconfigured sweep
    /// cannot masquerade as a completed one.
    EmptySpace {
        /// Why the space is empty.
        message: String,
    },
    /// A hierarchy component has no built circuit model in its
    /// evaluator (every component gets one at construction, so this is
    /// an internal inconsistency, reported instead of panicking).
    MissingModel {
        /// Name of the component without a model.
        component: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Spec(e) => write!(f, "specification error: {e}"),
            CoreError::Map(e) => write!(f, "mapping error: {e}"),
            CoreError::Circuit { component, source } => match component {
                Some(name) => write!(f, "component `{name}`: {source}"),
                None => write!(f, "component model error: {source}"),
            },
            CoreError::Workload(e) => write!(f, "workload error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Representation { message } => {
                write!(f, "representation error: {message}")
            }
            CoreError::EmptySpace { message } => {
                write!(f, "empty design space: {message}")
            }
            CoreError::MissingModel { component } => {
                write!(f, "component `{component}` has no circuit model")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Spec(e) => Some(e),
            CoreError::Map(e) => Some(e),
            CoreError::Circuit { source, .. } => Some(source),
            CoreError::Workload(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Representation { .. }
            | CoreError::EmptySpace { .. }
            | CoreError::MissingModel { .. } => None,
        }
    }
}

impl From<SpecError> for CoreError {
    fn from(e: SpecError) -> Self {
        CoreError::Spec(e)
    }
}

impl From<MapError> for CoreError {
    fn from(e: MapError) -> Self {
        CoreError::Map(e)
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit {
            component: None,
            source: e,
        }
    }
}

impl From<WorkloadError> for CoreError {
    fn from(e: WorkloadError) -> Self {
        CoreError::Workload(e)
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}
