//! Corruption fuzzing of the persistence surface: truncations and
//! byte-flips of a real artifact must come back as typed
//! [`Error::Persist`] values — naming the offending path when loaded
//! from disk — and must never panic, whatever bytes are on disk.
//!
//! The input corpus is the committed golden fixture
//! (`tests/fixtures/model_v1.json`), i.e. a genuine artifact rather
//! than synthetic JSON, so the battery walks through every layer of
//! the real format: format marker, version gate, JSON parse, field
//! extraction, shape validation.

use serde_json::Value;
use std::path::PathBuf;
use syncircuit_core::{ConfigError, Error, PersistError, SynCircuit};

fn fixture_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model_v1.json");
    std::fs::read_to_string(path).expect("golden fixture exists")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("syncircuit-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Prefix lengths to probe: every byte of the header region (where the
/// format marker and version live), a stride across the body, and
/// every byte of the tail (where truncation bites mid-structure).
fn prefix_lengths(len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..len.min(512)).collect();
    cuts.extend((512..len.saturating_sub(64)).step_by(31));
    cuts.extend(len.saturating_sub(64)..len);
    cuts
}

#[test]
fn truncated_prefixes_fail_typed_without_panicking() {
    let raw = fixture_text();
    // Trailing whitespace is not load-bearing: only prefixes strictly
    // inside the trimmed text are guaranteed-invalid artifacts.
    let trimmed = raw.trim_end().len();
    let mut tried = 0usize;
    for cut in prefix_lengths(trimmed) {
        if cut >= trimmed || !raw.is_char_boundary(cut) {
            continue;
        }
        tried += 1;
        match SynCircuit::from_json(&raw[..cut]) {
            Err(Error::Persist(_)) => {}
            Err(other) => panic!("prefix {cut}: non-persist error {other:?}"),
            Ok(_) => panic!("prefix {cut}: a truncated artifact must not load"),
        }
    }
    assert!(tried > 500, "battery degenerated to {tried} prefixes");
}

#[test]
fn truncated_artifacts_name_the_path_when_loaded() {
    let raw = fixture_text();
    let trimmed = raw.trim_end().len();
    let dir = scratch_dir("truncate");
    // A spread of cut points across format layers: inside the marker,
    // inside the version field, mid-body, and just short of the end.
    for (i, cut) in [8, 40, trimmed / 4, trimmed / 2, trimmed - 3]
        .into_iter()
        .enumerate()
    {
        let cut = (0..=cut).rev().find(|&c| raw.is_char_boundary(c)).unwrap();
        let path = dir.join(format!("truncated_{i}.json"));
        std::fs::write(&path, &raw[..cut]).expect("write truncated artifact");
        let err = SynCircuit::load(&path).expect_err("truncated artifact must not load");
        assert!(matches!(err, Error::Persist(_)), "cut {cut}: {err:?}");
        let shown = format!("{err}");
        assert!(
            shown.contains(&path.display().to_string()) || shown.contains("format marker"),
            "cut {cut}: error must name the artifact (or fail the path-free \
             format gate): {shown}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_flips_never_panic_and_fail_typed() {
    let raw = fixture_text().into_bytes();
    let dir = scratch_dir("flip");
    let path = dir.join("flipped.json");
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    for pos in (0..raw.len()).step_by(53) {
        for mask in [0x01u8, 0x20, 0xFF] {
            let mut bytes = raw.clone();
            bytes[pos] ^= mask;
            if bytes[pos] == raw[pos] {
                continue;
            }
            std::fs::write(&path, &bytes).expect("write flipped artifact");
            // A flip may still parse (e.g. a digit inside a weight);
            // the contract is typed-or-loads, never a panic.
            match SynCircuit::load(&path) {
                Ok(_) => accepted += 1,
                Err(Error::Persist(_)) => rejected += 1,
                Err(other) => panic!("pos {pos} mask {mask:#x}: non-persist error {other:?}"),
            }
        }
    }
    assert!(
        rejected > 100,
        "flip battery should reject plenty of corruptions, got {rejected} \
         (accepted {accepted})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The named field of a JSON object, mutably.
fn field_mut<'a>(value: &'a mut Value, name: &str) -> &'a mut Value {
    match value {
        Value::Object(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("artifact has a `{name}` field"))
                .1
        }
        other => panic!("expected an object holding `{name}`, got {other:?}"),
    }
}

/// A matrix whose `data` length disagrees with its declared `rows ×
/// cols` must fail to load with a typed error. Unchecked, a short
/// weight served from zero padding, a short bias panicked in
/// `generate_one`, and a long weight panicked while packing on load.
#[test]
fn matrices_with_wrong_data_lengths_fail_typed() {
    let raw: Value = serde_json::from_str(&fixture_text()).expect("fixture parses");
    // (parameter index, declared shape, data length to store)
    for (index, shape, len) in [
        (0usize, (19u64, 8u64), 10usize),
        (1, (1, 8), 3),
        (0, (19, 8), 304),
    ] {
        let mut artifact = raw.clone();
        let Value::Array(mats) = field_mut(
            field_mut(field_mut(&mut artifact, "diffusion"), "params"),
            "mats",
        ) else {
            panic!("parameters are an array");
        };
        let m = &mut mats[index];
        let declared = (field_mut(m, "rows").clone(), field_mut(m, "cols").clone());
        assert_eq!(
            declared,
            (Value::UInt(shape.0), Value::UInt(shape.1)),
            "fixture layout moved"
        );
        let Value::Array(data) = field_mut(m, "data") else {
            panic!("matrix data is an array");
        };
        *data = data.iter().cycle().take(len).cloned().collect();
        let text = serde_json::to_string(&artifact).expect("artifact renders");
        match SynCircuit::from_json(&text) {
            Err(Error::Persist(_)) => {}
            Err(other) => {
                panic!("parameter {index} with {len} values: non-persist error {other:?}")
            }
            Ok(_) => panic!("parameter {index} with {len} values must not load"),
        }
    }
}

/// A denoiser size that reached an allocation unchecked aborted the
/// process (2^40 hidden units asks for tens of TiB). In the pipeline
/// config it now fails validation; in the diffusion section's own copy,
/// which the denoiser is built from, it fails as an inconsistent
/// artifact, before anything is built.
#[test]
fn a_huge_denoiser_in_either_config_copy_fails_typed() {
    let raw: Value = serde_json::from_str(&fixture_text()).expect("fixture parses");
    let hidden = |artifact: &mut Value, section: &str, config: &str| {
        *field_mut(field_mut(field_mut(artifact, section), config), "hidden") =
            Value::UInt(1 << 40);
    };
    let mut in_config = raw.clone();
    hidden(&mut in_config, "config", "diffusion");
    let mut in_section = raw.clone();
    hidden(&mut in_section, "diffusion", "config");
    let mut in_both = in_config.clone();
    hidden(&mut in_both, "diffusion", "config");
    for (copy, artifact) in [
        ("config", in_config),
        ("section", in_section),
        ("both", in_both),
    ] {
        let text = serde_json::to_string(&artifact).expect("artifact renders");
        match (copy, SynCircuit::from_json(&text)) {
            (
                "config" | "both",
                Err(Error::Config(ConfigError::DenoiserTooLarge { hidden, .. })),
            ) => {
                assert_eq!(hidden, 1 << 40)
            }
            ("section", Err(Error::Persist(PersistError::Inconsistent(_)))) => {}
            (_, Err(other)) => panic!("2^40 hidden in {copy}: wrong error {other:?}"),
            (_, Ok(_)) => panic!("2^40 hidden in {copy} must not load"),
        }
    }
}

/// The text writer has no form for an infinity, so a number that reads
/// as one (`1e999`, or `3.5e38` for an `f32`) would make a loaded model
/// impossible to save again. Such an artifact fails to parse.
#[test]
fn non_finite_numbers_fail_to_parse() {
    const MARK: f64 = 12345.6875;
    let raw: Value = serde_json::from_str(&fixture_text()).expect("fixture parses");
    let mut weight = raw.clone();
    let Value::Array(mats) = field_mut(
        field_mut(field_mut(&mut weight, "diffusion"), "params"),
        "mats",
    ) else {
        panic!("parameters are an array");
    };
    let Value::Array(data) = field_mut(&mut mats[0], "data") else {
        panic!("matrix data is an array");
    };
    data[0] = Value::Float(MARK);
    let mut degree = raw;
    *field_mut(field_mut(&mut degree, "diffusion"), "mean_degree") = Value::Float(MARK);
    for (artifact, number) in [(&weight, "1e999"), (&weight, "3.5e38"), (&degree, "1e999")] {
        let text = serde_json::to_string(artifact).expect("artifact renders");
        assert_eq!(text.matches("12345.6875").count(), 1, "one marked number");
        let text = text.replace("12345.6875", number);
        match SynCircuit::from_json(&text) {
            Err(Error::Persist(PersistError::Parse(_))) => {}
            Err(other) => panic!("{number}: wrong error {other:?}"),
            Ok(_) => panic!("{number} must not load"),
        }
    }
}
