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
use serde::{DeError, Deserialize, Reader, Serialize, Serializer};
use std::borrow::Cow;
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

fn missing(name: &str) -> DeError {
    DeError(format!("missing field `{name}`"))
}

// --- data-carrying enums (the vendored serde derive only covers unit
// --- variants, so these are spelled out): a unit variant is its name,
// --- the data variant a one-member object `{tag: n}`

/// The text of a data-carrying enum, as read.
enum EnumText<'a> {
    Name(Cow<'a, str>),
    Tagged(usize),
}

/// Reads a unit variant's name or the `{tag: n}` object; anything else
/// is `DeError(expected)`.
fn read_enum<'a>(r: &mut Reader<'a>, tag: &str, expected: &str) -> Result<EnumText<'a>, DeError> {
    if let Some(name) = r.string()? {
        return Ok(EnumText::Name(name));
    }
    let mut data: Option<usize> = None;
    r.object(|r, key| {
        if key == tag {
            r.first(&mut data).map_err(|_| DeError::msg(expected))
        } else {
            r.skip_value()
        }
    })?;
    data.map(EnumText::Tagged)
        .ok_or_else(|| DeError::msg(expected))
}

fn write_tagged<S: Serializer>(s: &mut S, tag: &'static str, n: usize) {
    s.begin_object();
    s.member(tag, &n);
    s.end_object();
}

impl Serialize for DecodeMode {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match *self {
            DecodeMode::Dense => s.str("dense"),
            DecodeMode::Sparse {
                candidates_per_node,
            } => write_tagged(s, "sparse", candidates_per_node),
        }
    }
}

impl Deserialize for DecodeMode {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        const EXPECTED: &str = "expected \"dense\" or {\"sparse\": n}";
        match read_enum(r, "sparse", EXPECTED)? {
            EnumText::Name(name) if name == "dense" => Ok(DecodeMode::Dense),
            EnumText::Tagged(candidates_per_node) => Ok(DecodeMode::Sparse {
                candidates_per_node,
            }),
            EnumText::Name(_) => Err(DeError::msg(EXPECTED)),
        }
    }
}

impl Serialize for RewardKind {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match *self {
            RewardKind::Exact => s.str("exact"),
            RewardKind::IncrementalCone => s.str("incremental_cone"),
            RewardKind::Discriminator { epochs } => write_tagged(s, "discriminator", epochs),
        }
    }
}

impl Deserialize for RewardKind {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        const EXPECTED: &str =
            "expected \"exact\", \"incremental_cone\" or {\"discriminator\": epochs}";
        match read_enum(r, "discriminator", EXPECTED)? {
            EnumText::Name(name) if name == "exact" => Ok(RewardKind::Exact),
            EnumText::Name(name) if name == "incremental_cone" => Ok(RewardKind::IncrementalCone),
            EnumText::Tagged(epochs) => Ok(RewardKind::Discriminator { epochs }),
            EnumText::Name(_) => Err(DeError::msg(EXPECTED)),
        }
    }
}

impl Serialize for ConeSelection {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match *self {
            ConeSelection::All => s.str("all"),
            ConeSelection::WorstK(k) => write_tagged(s, "worst_k", k),
        }
    }
}

impl Deserialize for ConeSelection {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        const EXPECTED: &str = "expected \"all\" or {\"worst_k\": k}";
        match read_enum(r, "worst_k", EXPECTED)? {
            EnumText::Name(name) if name == "all" => Ok(ConeSelection::All),
            EnumText::Tagged(k) => Ok(ConeSelection::WorstK(k)),
            EnumText::Name(_) => Err(DeError::msg(EXPECTED)),
        }
    }
}

// --- trained models: parameters are stored, architectures rebuilt

impl Serialize for DiffusionModel {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_object();
        s.member("config", &self.config);
        s.member("mean_degree", &self.mean_degree);
        s.member("params", &self.store);
        s.end_object();
    }
}

/// A diffusion section as read, before its denoiser is rebuilt.
/// [`SynCircuit::from_json`] rebuilds it only once the configuration
/// has passed validation and the section's own config equals it.
struct DiffusionParts {
    config: DiffusionConfig,
    mean_degree: f64,
    store: ParamStore,
}

impl Deserialize for DiffusionParts {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let (mut config, mut mean_degree, mut store) = (None, None, None);
        r.object(|r, key| match key {
            "config" => r.first(&mut config),
            "mean_degree" => r.first(&mut mean_degree),
            "params" => r.first(&mut store),
            _ => r.skip_value(),
        })?;
        Ok(DiffusionParts {
            config: config.ok_or_else(|| missing("config"))?,
            mean_degree: mean_degree.ok_or_else(|| missing("mean_degree"))?,
            store: store.ok_or_else(|| missing("params"))?,
        })
    }
}

impl DiffusionParts {
    fn build(self) -> Result<DiffusionModel, DeError> {
        let DiffusionParts {
            config,
            mean_degree,
            store,
        } = self;
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
        Ok(DiffusionModel::assemble(
            store,
            denoiser,
            config,
            mean_degree,
        ))
    }
}

impl Serialize for PcsDiscriminator {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_object();
        s.member("scale", &self.scale);
        s.member("params", &self.store);
        s.end_object();
    }
}

impl Deserialize for PcsDiscriminator {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let (mut scale, mut store) = (None, None);
        r.object(|r, key| match key {
            "scale" => r.first(&mut scale),
            "params" => r.first(&mut store),
            _ => r.skip_value(),
        })?;
        let scale: f32 = scale.ok_or_else(|| missing("scale"))?;
        let store: ParamStore = store.ok_or_else(|| missing("params"))?;
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
        let mut w = serde_json::Writer::pretty();
        w.begin_object();
        w.member("format", MODEL_FORMAT);
        w.member("version", &MODEL_VERSION);
        w.member("config", &self.config);
        w.member("attrs", &self.attrs);
        w.member("diffusion", &self.diffusion);
        w.member("discriminator", &self.discriminator);
        w.end_object();
        w.finish().expect("artifact rendering is infallible")
    }

    /// Restores a trained model from [`SynCircuit::to_json`] text.
    ///
    /// The text is read once, straight into the model's parts. Its
    /// checks run in a fixed order whatever the order of its members:
    /// JSON syntax, the `format` and `version` stamps, the
    /// configuration, then the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] for malformed text (non-finite numbers
    /// included), wrong format markers, unsupported versions, sections
    /// that disagree with each other, or parameter/architecture shape
    /// mismatches, and [`Error::Config`] when the embedded configuration
    /// fails validation.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let mut format: Option<Result<String, DeError>> = None;
        let mut version: Option<Result<u64, DeError>> = None;
        let mut config: Option<Result<PipelineConfig, DeError>> = None;
        let mut attrs: Option<Result<AttrModel, DeError>> = None;
        let mut diffusion: Option<Result<DiffusionParts, DeError>> = None;
        let mut discriminator: Option<Result<Option<PcsDiscriminator>, DeError>> = None;
        serde_json::read_members(text, |r, key| match key {
            "format" => r.keep_first(&mut format),
            "version" => r.keep_first(&mut version),
            "config" => r.keep_first(&mut config),
            "attrs" => r.keep_first(&mut attrs),
            "diffusion" => r.keep_first(&mut diffusion),
            "discriminator" => r.keep_first(&mut discriminator),
            _ => r.skip_value(),
        })
        .map_err(|e| PersistError::Parse(e.0))?;
        let found = format.and_then(Result::ok).unwrap_or_default();
        if found != MODEL_FORMAT {
            return Err(PersistError::Format { found }.into());
        }
        let Some(Ok(version)) = version else {
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
        fn field<T>(slot: Option<Result<T, DeError>>, name: &str) -> Result<T, DeError> {
            slot.unwrap_or_else(|| Err(missing(name)))
        }
        let config = field(config, "config").map_err(|e| PersistError::Parse(e.0))?;
        config.validate()?;
        let attrs = field(attrs, "attrs").map_err(|e| PersistError::Parse(e.0))?;
        let classify = |e: DeError| match e.0.strip_prefix(SHAPE_MISMATCH_MARK) {
            Some(msg) => PersistError::ShapeMismatch(msg.to_string()),
            None => PersistError::Parse(e.0),
        };
        let diffusion = field(diffusion, "diffusion").map_err(classify)?;
        // The denoiser is built from the diffusion section's own copy of
        // the diffusion config, so that copy must be the validated one:
        // any other could ask for a denoiser no check has bounded.
        if diffusion.config != config.diffusion {
            return Err(PersistError::Inconsistent(
                "the diffusion section's config differs from the pipeline config".to_string(),
            )
            .into());
        }
        let diffusion = diffusion.build().map_err(classify)?;
        let discriminator = field(discriminator, "discriminator").map_err(classify)?;
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
        // The cone counters are telemetry, not model parameters: a
        // restored model starts them at zero.
        Ok(SynCircuit {
            diffusion,
            attrs,
            discriminator,
            config,
            cone_cache: std::sync::Arc::default(),
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
        fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
            serde_json::from_str(&serde_json::to_string(value).unwrap()).unwrap()
        }
        for mode in [
            DecodeMode::Dense,
            DecodeMode::Sparse {
                candidates_per_node: 12,
            },
        ] {
            assert_eq!(roundtrip(&mode), mode);
        }
        for kind in [
            RewardKind::Exact,
            RewardKind::IncrementalCone,
            RewardKind::Discriminator { epochs: 77 },
        ] {
            assert_eq!(roundtrip(&kind), kind);
        }
        for sel in [ConeSelection::All, ConeSelection::WorstK(3)] {
            assert_eq!(roundtrip(&sel), sel);
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
        use serde_json::{to_value, Value};
        let cfg = PipelineConfig::tiny();
        let artifact = Value::Object(vec![
            ("format".to_string(), Value::Str(MODEL_FORMAT.to_string())),
            ("version".to_string(), Value::UInt(MODEL_VERSION)),
            ("config".to_string(), to_value(&cfg)),
            (
                "attrs".to_string(),
                // minimal viable attrs payload
                to_value(
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
                    ("config".to_string(), to_value(&cfg.diffusion)),
                    ("mean_degree".to_string(), Value::Float(1.5)),
                    ("params".to_string(), to_value(&ParamStore::new())),
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
