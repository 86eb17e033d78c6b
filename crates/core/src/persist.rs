//! Versioned model persistence: a trained [`SynCircuit`] round-trips
//! through a self-describing JSON artifact, so `fit` and generation can
//! run in separate processes (train once, serve anywhere).
//!
//! The artifact is versioned (`format` / `version` header fields) and
//! self-contained: pipeline configuration, attribute statistics, the
//! diffusion parameter store, and the optional discriminator. Network
//! *architectures* are not stored — they are a pure function of the
//! configuration and are rebuilt on load, then checked shape-by-shape
//! against the restored parameters ([`PersistError::ShapeMismatch`]).
//!
//! A restored model is byte-for-byte equivalent to the original: the
//! same requests produce identical designs (property-tested in
//! `tests/service_api.rs`).
//!
//! ```no_run
//! use syncircuit_core::SynCircuit;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let corpus = Vec::new();
//! let model = SynCircuit::fit(&corpus, syncircuit_core::PipelineConfig::tiny())?;
//! model.save("model.json")?;
//! let served = SynCircuit::load("model.json")?; // e.g. in another process
//! # Ok(())
//! # }
//! ```

use crate::attrs::AttrModel;
use crate::config::{PipelineConfig, RewardKind};
use crate::denoiser::Denoiser;
use crate::diffusion::{DecodeMode, DiffusionConfig, DiffusionModel};
use crate::discriminator::{PcsDiscriminator, MLP_WIDTHS};
use crate::error::{Error, PersistError};
use crate::mcts::ConeSelection;
use crate::pipeline::SynCircuit;
use rand::{rngs::StdRng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;
use syncircuit_nn::layers::Mlp;
use syncircuit_nn::ParamStore;

/// Format marker of SynCircuit model artifacts.
pub const MODEL_FORMAT: &str = "syncircuit-model";

/// Newest artifact version this build writes and reads.
pub const MODEL_VERSION: u64 = 1;

/// Sentinel prefix shared between the model `Deserialize` impls and
/// [`SynCircuit::from_json`]'s error classification: a `DeError`
/// starting with it becomes [`PersistError::ShapeMismatch`] instead of
/// [`PersistError::Parse`].
const SHAPE_MISMATCH_MARK: &str = "parameter-shape-mismatch: ";

fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, DeError> {
    match value.get(name) {
        Some(v) => T::deserialize(v),
        None => Err(DeError(format!("missing field `{name}`"))),
    }
}

// --- data-carrying enums (the vendored serde derive only covers unit
// --- variants, so these are spelled out)

impl Serialize for DecodeMode {
    fn serialize(&self) -> Value {
        match *self {
            DecodeMode::Dense => Value::Str("dense".to_string()),
            DecodeMode::Sparse {
                candidates_per_node,
            } => Value::Object(vec![(
                "sparse".to_string(),
                Value::UInt(candidates_per_node as u64),
            )]),
        }
    }
}

impl Deserialize for DecodeMode {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s == "dense" => Ok(DecodeMode::Dense),
            other => match other.get("sparse").map(usize::deserialize) {
                Some(Ok(candidates_per_node)) => Ok(DecodeMode::Sparse {
                    candidates_per_node,
                }),
                _ => Err(DeError::msg("expected \"dense\" or {\"sparse\": n}")),
            },
        }
    }
}

impl Serialize for RewardKind {
    fn serialize(&self) -> Value {
        match *self {
            RewardKind::Exact => Value::Str("exact".to_string()),
            RewardKind::IncrementalCone => Value::Str("incremental_cone".to_string()),
            RewardKind::Discriminator { epochs } => Value::Object(vec![(
                "discriminator".to_string(),
                Value::UInt(epochs as u64),
            )]),
        }
    }
}

impl Deserialize for RewardKind {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s == "exact" => Ok(RewardKind::Exact),
            Value::Str(s) if s == "incremental_cone" => Ok(RewardKind::IncrementalCone),
            other => match other.get("discriminator").map(usize::deserialize) {
                Some(Ok(epochs)) => Ok(RewardKind::Discriminator { epochs }),
                _ => Err(DeError::msg(
                    "expected \"exact\", \"incremental_cone\" or {\"discriminator\": epochs}",
                )),
            },
        }
    }
}

impl Serialize for ConeSelection {
    fn serialize(&self) -> Value {
        match *self {
            ConeSelection::All => Value::Str("all".to_string()),
            ConeSelection::WorstK(k) => {
                Value::Object(vec![("worst_k".to_string(), Value::UInt(k as u64))])
            }
        }
    }
}

impl Deserialize for ConeSelection {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s == "all" => Ok(ConeSelection::All),
            other => match other.get("worst_k").map(usize::deserialize) {
                Some(Ok(k)) => Ok(ConeSelection::WorstK(k)),
                _ => Err(DeError::msg("expected \"all\" or {\"worst_k\": k}")),
            },
        }
    }
}

// --- trained models: parameters are stored, architectures rebuilt

impl Serialize for DiffusionModel {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("config".to_string(), self.config.serialize()),
            ("mean_degree".to_string(), self.mean_degree.serialize()),
            ("params".to_string(), self.store.serialize()),
        ])
    }
}

impl Deserialize for DiffusionModel {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let config: DiffusionConfig = field(value, "config")?;
        let mean_degree: f64 = field(value, "mean_degree")?;
        let store: ParamStore = field(value, "params")?;
        // The denoiser layout is a pure function of the config; the RNG
        // only fills initial values, which the stored parameters replace.
        let mut arch = ParamStore::new();
        let denoiser = Denoiser::new(
            &mut arch,
            config.hidden,
            config.layers,
            config.steps,
            &mut StdRng::seed_from_u64(0),
        );
        if arch.shapes() != store.shapes() {
            return Err(DeError(format!(
                "{SHAPE_MISMATCH_MARK}diffusion parameters do not match the configured denoiser architecture"
            )));
        }
        Ok(DiffusionModel::assemble(store, denoiser, config, mean_degree))
    }
}

impl Serialize for PcsDiscriminator {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("scale".to_string(), self.scale.serialize()),
            ("params".to_string(), self.store.serialize()),
        ])
    }
}

impl Deserialize for PcsDiscriminator {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let scale: f32 = field(value, "scale")?;
        let store: ParamStore = field(value, "params")?;
        let mut arch = ParamStore::new();
        let mlp = Mlp::new(&mut arch, &MLP_WIDTHS, &mut StdRng::seed_from_u64(0));
        if arch.shapes() != store.shapes() {
            return Err(DeError(format!(
                "{SHAPE_MISMATCH_MARK}discriminator parameters do not match the MLP architecture"
            )));
        }
        Ok(PcsDiscriminator { store, mlp, scale })
    }
}

impl SynCircuit {
    /// Renders the trained model as a versioned JSON artifact.
    ///
    /// Deterministic: identical models render identical text, and
    /// [`SynCircuit::from_json`] restores a byte-for-byte equivalent
    /// generator.
    pub fn to_json(&self) -> String {
        let artifact = Value::Object(vec![
            ("format".to_string(), Value::Str(MODEL_FORMAT.to_string())),
            ("version".to_string(), Value::UInt(MODEL_VERSION)),
            ("config".to_string(), self.config.serialize()),
            ("attrs".to_string(), self.attrs.serialize()),
            ("diffusion".to_string(), self.diffusion.serialize()),
            ("discriminator".to_string(), self.discriminator.serialize()),
        ]);
        serde_json::to_string_pretty(&artifact).expect("artifact rendering is infallible")
    }

    /// Restores a trained model from [`SynCircuit::to_json`] text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] for malformed text, wrong format
    /// markers, unsupported versions, or parameter/architecture shape
    /// mismatches, and [`Error::Config`] when the embedded configuration
    /// fails validation.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| PersistError::Parse(e.0))?;
        let found = match value.get("format") {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        if found != MODEL_FORMAT {
            return Err(PersistError::Format { found }.into());
        }
        let Some(version) = value.get("version").and_then(Value::as_u64) else {
            return Err(
                PersistError::Parse("missing or non-integer `version` field".to_string()).into(),
            );
        };
        if version == 0 || version > MODEL_VERSION {
            return Err(PersistError::Version {
                found: version,
                supported: MODEL_VERSION,
            }
            .into());
        }
        let config: PipelineConfig =
            field(&value, "config").map_err(|e| PersistError::Parse(e.0))?;
        config.validate()?;
        let attrs: AttrModel = field(&value, "attrs").map_err(|e| PersistError::Parse(e.0))?;
        let classify = |e: DeError| match e.0.strip_prefix(SHAPE_MISMATCH_MARK) {
            Some(msg) => PersistError::ShapeMismatch(msg.to_string()),
            None => PersistError::Parse(e.0),
        };
        let diffusion: DiffusionModel = field(&value, "diffusion").map_err(classify)?;
        let discriminator: Option<PcsDiscriminator> =
            field(&value, "discriminator").map_err(classify)?;
        // Reward kind and stored discriminator must agree, otherwise
        // generation would silently score Phase 3 with the wrong oracle.
        match (config.reward(), &discriminator) {
            (RewardKind::Discriminator { .. }, None) => {
                return Err(PersistError::Inconsistent(
                    "config expects a discriminator reward but the artifact stores none"
                        .to_string(),
                )
                .into());
            }
            (RewardKind::Exact | RewardKind::IncrementalCone, Some(_)) => {
                return Err(PersistError::Inconsistent(
                    "artifact stores a discriminator but the config reward does not use one"
                        .to_string(),
                )
                .into());
            }
            _ => {}
        }
        // The shared cone cache is warm *state*, not model parameters:
        // a restored model starts cold and re-warms as it serves.
        let cone_cache = crate::pipeline::new_cone_cache(&config);
        Ok(SynCircuit {
            diffusion,
            attrs,
            discriminator,
            config,
            cone_cache,
        })
    }

    /// Writes the versioned JSON artifact to `path`, atomically.
    ///
    /// The artifact is rendered to a unique sibling temp file and
    /// `rename`d into place, so a concurrent [`SynCircuit::load`] (e.g.
    /// a serving daemon's model registry refreshing an artifact another
    /// process is rewriting) observes either the previous complete
    /// artifact or the new complete artifact — never a torn file
    /// (tested in `tests/persist_atomicity.rs`). A failed write cleans
    /// up its temp file and leaves any existing artifact untouched.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] ([`PersistError::Io`], naming `path`)
    /// on write or rename failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        let path = path.as_ref();
        atomic_write(path, self.to_json().as_bytes())
            .map_err(|e| PersistError::Io(format!("{}: {e}", path.display())).into())
    }

    /// Reads a model saved by [`SynCircuit::save`].
    ///
    /// # Errors
    ///
    /// See [`SynCircuit::from_json`]; additionally returns
    /// [`PersistError::Io`] (naming `path`) on read failures. Parse,
    /// consistency and shape errors are prefixed with `path` too
    /// ([`Error::at_path`]), so a failed load always names the file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| e.at_path(&path.display().to_string()))
    }
}

/// Writes `bytes` to a unique sibling temp file, then atomically
/// `rename`s it over `path`. The temp name embeds the process id and a
/// process-wide counter, so concurrent savers (threads or processes on
/// one host) never stomp each other's in-progress writes; the final
/// `rename` is atomic within a filesystem, so readers always see a
/// complete file.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(std::ffi::OsString::from)
        .unwrap_or_else(|| std::ffi::OsString::from("artifact"));
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = path.with_file_name(name);
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_representations_roundtrip() {
        for mode in [
            DecodeMode::Dense,
            DecodeMode::Sparse {
                candidates_per_node: 12,
            },
        ] {
            assert_eq!(DecodeMode::deserialize(&mode.serialize()), Ok(mode));
        }
        for kind in [
            RewardKind::Exact,
            RewardKind::IncrementalCone,
            RewardKind::Discriminator { epochs: 77 },
        ] {
            assert_eq!(RewardKind::deserialize(&kind.serialize()), Ok(kind));
        }
        for sel in [ConeSelection::All, ConeSelection::WorstK(3)] {
            assert_eq!(ConeSelection::deserialize(&sel.serialize()), Ok(sel));
        }
    }

    #[test]
    fn pipeline_config_roundtrips_through_json() {
        for cfg in [PipelineConfig::tiny(), PipelineConfig::standard()] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: PipelineConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back.diffusion, cfg.diffusion);
            assert_eq!(back.refine, cfg.refine);
            assert_eq!(back.mcts, cfg.mcts);
            assert_eq!(back.optimize_redundancy, cfg.optimize_redundancy);
            assert_eq!(back.cone_selection, cfg.cone_selection);
            assert_eq!(back.reward, cfg.reward);
            assert_eq!(back.seed, cfg.seed);
        }
    }

    #[test]
    fn rejects_foreign_and_future_artifacts() {
        assert_eq!(
            SynCircuit::from_json("{\"format\": \"something-else\"}").unwrap_err(),
            Error::Persist(PersistError::Format {
                found: "something-else".to_string()
            })
        );
        let future = format!(
            "{{\"format\": \"{MODEL_FORMAT}\", \"version\": {}}}",
            MODEL_VERSION + 1
        );
        assert_eq!(
            SynCircuit::from_json(&future).unwrap_err(),
            Error::Persist(PersistError::Version {
                found: MODEL_VERSION + 1,
                supported: MODEL_VERSION
            })
        );
        assert!(matches!(
            SynCircuit::from_json("not json at all"),
            Err(Error::Persist(PersistError::Parse(_)))
        ));
        // A correct format marker without a version field is a parse
        // error, not a bogus "version 0" complaint.
        let versionless = format!("{{\"format\": \"{MODEL_FORMAT}\"}}");
        assert!(matches!(
            SynCircuit::from_json(&versionless).unwrap_err(),
            Error::Persist(PersistError::Parse(msg)) if msg.contains("version")
        ));
    }

    #[test]
    fn rejects_reward_discriminator_disagreement() {
        use rand::{rngs::StdRng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let mut rng = StdRng::seed_from_u64(5);
        let corpus: Vec<_> = (0..2)
            .map(|_| random_circuit_with_size(&mut rng, 24))
            .collect();
        let model = SynCircuit::fit(&corpus, PipelineConfig::tiny()).unwrap();
        // Rewrite the embedded config to claim a discriminator reward
        // while the artifact stores none (`"exact"` only occurs as the
        // reward value in the rendered artifact).
        let text = model.to_json();
        assert!(text.contains("\"exact\""), "reward must render as a string");
        let tampered = text.replace("\"exact\"", "{\"discriminator\": 10}");
        assert!(matches!(
            SynCircuit::from_json(&tampered).unwrap_err(),
            Error::Persist(PersistError::Inconsistent(_))
        ));
    }

    #[test]
    fn rejects_shape_mismatched_parameters() {
        // A valid header whose diffusion params don't fit the declared
        // architecture must fail with ShapeMismatch, not garbage output.
        let cfg = PipelineConfig::tiny();
        let artifact = Value::Object(vec![
            ("format".to_string(), Value::Str(MODEL_FORMAT.to_string())),
            ("version".to_string(), Value::UInt(MODEL_VERSION)),
            ("config".to_string(), cfg.serialize()),
            (
                "attrs".to_string(),
                // minimal viable attrs payload
                serde_json::to_value(
                    &AttrModel::fit(&[syncircuit_graph::testing::random_circuit_with_size(
                        &mut StdRng::seed_from_u64(1),
                        12,
                    )])
                    .unwrap(),
                ),
            ),
            (
                "diffusion".to_string(),
                Value::Object(vec![
                    ("config".to_string(), cfg.diffusion.serialize()),
                    ("mean_degree".to_string(), Value::Float(1.5)),
                    ("params".to_string(), ParamStore::new().serialize()),
                ]),
            ),
            ("discriminator".to_string(), Value::Null),
        ]);
        let text = serde_json::to_string(&artifact).unwrap();
        assert!(matches!(
            SynCircuit::from_json(&text).unwrap_err(),
            Error::Persist(PersistError::ShapeMismatch(_))
        ));
    }
}
