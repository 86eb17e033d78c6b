//! Unified error type of the SynCircuit pipeline.
//!
//! Every fallible operation on the service surface — configuration
//! ([`crate::config`]), training ([`crate::SynCircuit::fit`]),
//! generation ([`crate::SynCircuit::generate_one`] and friends) and
//! model persistence ([`crate::persist`]) — reports through one
//! [`Error`] enum, so callers match on a single type instead of peeling
//! per-phase errors or catching panics. The panicking `assert!` guards
//! the pipeline path used to rely on (empty corpora, degenerate
//! training sets, malformed artifacts) are all typed variants here.

use crate::config::ConfigError;
use crate::refine::RefineError;
use std::error::Error as StdError;
use std::fmt;

/// Unified error of the SynCircuit pipeline and its service API.
#[derive(Clone, Debug, PartialEq)]
pub enum Error {
    /// Training requires a corpus with at least one non-empty graph.
    EmptyCorpus,
    /// Discriminator training requires at least one labeled sample.
    EmptyTrainingSet,
    /// A [`crate::PipelineConfig`] failed validation.
    Config(ConfigError),
    /// A [`crate::GenRequest`] is malformed.
    Request(RequestError),
    /// Phase 2 could not satisfy the circuit constraints.
    Refine(RefineError),
    /// A model artifact could not be saved or loaded.
    Persist(PersistError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyCorpus => write!(f, "training corpus is empty"),
            Error::EmptyTrainingSet => {
                write!(f, "discriminator training set is empty")
            }
            Error::Config(e) => write!(f, "invalid pipeline configuration: {e}"),
            Error::Request(e) => write!(f, "invalid generation request: {e}"),
            Error::Refine(e) => write!(f, "refinement failed: {e}"),
            Error::Persist(e) => write!(f, "model persistence failed: {e}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Request(e) => Some(e),
            Error::Refine(e) => Some(e),
            Error::Persist(e) => Some(e),
            Error::EmptyCorpus | Error::EmptyTrainingSet => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<RequestError> for Error {
    fn from(e: RequestError) -> Self {
        Error::Request(e)
    }
}

impl From<RefineError> for Error {
    fn from(e: RefineError) -> Self {
        Error::Refine(e)
    }
}

impl From<PersistError> for Error {
    fn from(e: PersistError) -> Self {
        Error::Persist(e)
    }
}

/// A malformed [`crate::GenRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Explicit attributes were supplied but the set is empty.
    EmptyAttrs,
    /// The request asks for more nodes than the model serves
    /// ([`crate::request::MAX_REQUEST_NODES`], or
    /// [`crate::request::MAX_DENSE_REQUEST_NODES`] under dense decoding).
    TooManyNodes {
        /// Node count the request asked for.
        requested: usize,
        /// The cap that applied.
        max: usize,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::EmptyAttrs => {
                write!(f, "explicit attribute set is empty")
            }
            RequestError::TooManyNodes { requested, max } => {
                write!(f, "{requested} nodes requested; at most {max} are served")
            }
        }
    }
}

impl StdError for RequestError {}

/// A model artifact that could not be saved or loaded.
#[derive(Clone, Debug, PartialEq)]
pub enum PersistError {
    /// The artifact is not a SynCircuit model file.
    Format {
        /// Format marker found in the artifact (if any).
        found: String,
    },
    /// The artifact version is not supported by this build.
    Version {
        /// Version found in the artifact.
        found: u64,
        /// Newest version this build reads.
        supported: u64,
    },
    /// The artifact text is not valid JSON or misses required fields.
    Parse(String),
    /// The artifact's fields contradict each other (e.g. a
    /// discriminator reward without a stored discriminator).
    Inconsistent(String),
    /// Stored parameters do not match the configured architecture.
    ShapeMismatch(String),
    /// Reading or writing the artifact file failed.
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Format { found } => {
                write!(f, "not a SynCircuit model artifact (format marker `{found}`)")
            }
            PersistError::Version { found, supported } => write!(
                f,
                "artifact version {found} is not supported (this build reads versions 1..={supported})"
            ),
            PersistError::Parse(msg) => write!(f, "malformed artifact: {msg}"),
            PersistError::Inconsistent(msg) => {
                write!(f, "inconsistent artifact: {msg}")
            }
            PersistError::ShapeMismatch(msg) => {
                write!(f, "parameter shapes do not match the architecture: {msg}")
            }
            PersistError::Io(msg) => write!(f, "artifact I/O failed: {msg}"),
        }
    }
}

impl StdError for PersistError {}

impl PersistError {
    /// Prefixes the artifact `path` onto the error's message payload,
    /// so an error that crossed a registry or a load call names the
    /// file it came from. Variants that already identify the artifact
    /// ([`PersistError::Io`] messages embed their path at construction)
    /// or carry no message ([`PersistError::Format`],
    /// [`PersistError::Version`]) pass through unchanged.
    pub fn at_path(self, path: &str) -> PersistError {
        match self {
            PersistError::Parse(msg) => PersistError::Parse(format!("{path}: {msg}")),
            PersistError::Inconsistent(msg) => PersistError::Inconsistent(format!("{path}: {msg}")),
            PersistError::ShapeMismatch(msg) => {
                PersistError::ShapeMismatch(format!("{path}: {msg}"))
            }
            other => other,
        }
    }
}

impl Error {
    /// Names the artifact `path` in persistence errors (see
    /// [`PersistError::at_path`]); every other variant passes through.
    pub fn at_path(self, path: &str) -> Error {
        match self {
            Error::Persist(p) => Error::Persist(p.at_path(path)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::NodeId;

    #[test]
    fn displays_are_informative() {
        assert!(format!("{}", Error::EmptyCorpus).contains("corpus"));
        assert!(format!("{}", Error::EmptyTrainingSet).contains("discriminator"));
        let e = Error::from(RefineError::NoValidParent {
            node: NodeId::new(3),
        });
        assert!(format!("{e}").contains("refinement"));
        let p = Error::from(PersistError::Version {
            found: 9,
            supported: 1,
        });
        assert!(format!("{p}").contains("version 9"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e = Error::from(RefineError::NoValidParent {
            node: NodeId::new(0),
        });
        assert!(e.source().is_some());
        assert!(Error::EmptyCorpus.source().is_none());
    }
}
